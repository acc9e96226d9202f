//! §4.2 probe-cost bench: allocation cost as a function of region fullness
//! (the `1/(1 − fullness)` expectation) and of the expansion factor `M` —
//! the ablation behind DieHard's space/time dial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diehard_core::partition::Partition;
use diehard_core::size_class::SizeClass;
use std::hint::black_box;

const CAPACITY: usize = 1 << 14;

fn bench_probe_by_fullness(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_by_fullness");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for denom in [8usize, 4, 2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("1/{denom}_full")),
            &denom,
            |b, &denom| {
                let part = Partition::new(SizeClass::from_index(0), CAPACITY, CAPACITY, 7);
                for _ in 0..CAPACITY / denom {
                    part.alloc();
                }
                // Steady-state alloc/free pair at this fullness.
                b.iter(|| {
                    let idx = part.alloc().expect("has space");
                    part.free(black_box(idx));
                });
            },
        );
    }
    group.finish();
}

fn bench_adaptive_vs_fixed(c: &mut Criterion) {
    use diehard_core::config::HeapConfig;
    use diehard_core::engine::DEFAULT_INITIAL_FRACTION_LOG2;
    use diehard_core::sync::Plain;
    use diehard_core::Heap;

    let mut group = c.benchmark_group("adaptive_vs_fixed");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("fixed_heap_1000_allocs", |b| {
        b.iter(|| {
            let h: Heap<Plain> = Heap::new(HeapConfig::default(), 1).unwrap();
            for i in 0..1000usize {
                black_box(h.alloc(8 + (i % 512)));
            }
        });
    });
    group.bench_function("adaptive_heap_1000_allocs", |b| {
        b.iter(|| {
            let h: Heap<Plain> =
                Heap::new_elastic(HeapConfig::default(), 1, DEFAULT_INITIAL_FRACTION_LOG2).unwrap();
            for i in 0..1000usize {
                black_box(h.alloc(8 + (i % 512)));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_probe_by_fullness, bench_adaptive_vs_fixed);
criterion_main!(benches);
