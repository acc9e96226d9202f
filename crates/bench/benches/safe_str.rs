//! §4.4 bench: the cost of DieHard's heap-bounded string functions — "two
//! comparisons ... a bitshift ... two subtractions" over the unchecked
//! copy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diehard_core::config::HeapConfig;
use diehard_core::safe_str::{bounded_strcpy, space_to_object_end};
use diehard_core::sync::Plain;
use diehard_core::Heap;
use std::hint::black_box;

fn bench_bound_computation(c: &mut Criterion) {
    let heap: Heap<Plain> = Heap::new(HeapConfig::default(), 1).unwrap();
    let slot = heap.alloc(256).unwrap();
    let offset = heap.offset_of(slot);
    c.bench_function("space_to_object_end", |b| {
        b.iter(|| black_box(space_to_object_end(&heap, black_box(offset + 13))));
    });
}

fn bench_copies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strcpy");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for len in [16usize, 64, 256, 1024] {
        let src: Vec<u8> = (0..len).map(|i| 1 + (i % 250) as u8).collect();
        group.bench_with_input(BenchmarkId::new("bounded", len), &src, |b, src| {
            let mut dest = vec![0u8; 2048];
            b.iter(|| {
                black_box(bounded_strcpy(&mut dest, 2048, black_box(src)));
            });
        });
        group.bench_with_input(BenchmarkId::new("unchecked_memcpy", len), &src, |b, src| {
            let mut dest = vec![0u8; 2048];
            b.iter(|| {
                dest[..src.len()].copy_from_slice(black_box(src));
                black_box(&dest);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bound_computation, bench_copies);
criterion_main!(benches);
