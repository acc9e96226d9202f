//! Multi-threaded malloc/free contention bench: per-size-class sharding
//! versus a single heap-wide lock versus thread-local magazines.
//!
//! The old global allocator funneled every operation through one
//! `SpinLock` around a single-owner heap; the sharded design locks only the
//! size class an operation resolves to; the magazine layer removes even that
//! for the hot path, touching a shard lock only once per refill/flush batch.
//! This bench measures the architectural deltas on a mixed-class workload at
//! 1/2/4/8 threads: `single_lock` wraps a `Heap<Plain>` in one `SpinLock`,
//! `sharded` uses a shared [`Heap`] directly, and `magazine` runs each thread
//! through a thread cache over one (created and flushed inside the iteration,
//! so refill/flush costs are charged to the measurement). All three run
//! identical per-thread op sequences (allocate into a sliding window, free
//! the oldest), so the reported ns/iter are directly comparable — an
//! iteration is `threads × OPS_PER_THREAD` alloc/free pairs of work, and
//! wall-clock shrinking as threads rise is the scaling win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diehard_core::config::HeapConfig;
use diehard_core::rng::Mwc;
use diehard_core::sync::{Plain, SpinLock};
use diehard_core::Heap;
use std::hint::black_box;

/// Alloc/free pairs each thread performs per iteration.
const OPS_PER_THREAD: usize = 4000;
/// Live-window length per thread (keeps every class below its 1/M cap).
const WINDOW: usize = 24;

/// A mixed-class request sequence: sizes cycle over all twelve classes with
/// per-thread phase, so threads overlap on classes but not in lockstep.
fn sizes_for_thread(thread: u64) -> Vec<usize> {
    let mut rng = Mwc::seeded(0xA110C ^ (thread * 0x9E37));
    (0..256).map(|_| 1 + rng.below(16 * 1024)).collect()
}

/// The sliding-window churn against the single-lock heap: every alloc and
/// every free takes the one heap-wide lock (the old architecture).
fn churn_single(heap: &SpinLock<Heap<Plain>>, sizes: &[usize]) {
    let mut live: Vec<usize> = Vec::with_capacity(WINDOW + 1);
    for (i, &sz) in sizes.iter().cycle().take(OPS_PER_THREAD).enumerate() {
        let off = {
            let h = heap.lock();
            h.alloc(sz).map(|slot| h.offset_of(slot))
        };
        if let Some(off) = off {
            live.push(off);
        }
        if live.len() > WINDOW {
            let victim = live.swap_remove(i % WINDOW);
            heap.lock().free_at(victim);
        }
    }
    for off in live {
        heap.lock().free_at(off);
    }
}

/// The identical churn against the sharded heap: each operation locks only
/// the shard its size class / offset resolves to.
fn churn_sharded(heap: &Heap, sizes: &[usize]) {
    let mut live: Vec<usize> = Vec::with_capacity(WINDOW + 1);
    for (i, &sz) in sizes.iter().cycle().take(OPS_PER_THREAD).enumerate() {
        if let Some(slot) = heap.alloc(sz) {
            live.push(heap.offset_of(slot));
        }
        if live.len() > WINDOW {
            let victim = live.swap_remove(i % WINDOW);
            heap.free_at(victim);
        }
    }
    for off in live {
        heap.free_at(off);
    }
}

/// The identical churn through a thread-local magazine cache: the hot path
/// is a lock-free handout/buffered free; shard locks are touched only by
/// batched refills and flushes (including the flush when the cache drops).
fn churn_magazine(heap: &Heap, sizes: &[usize]) {
    let mut cache = heap.thread_cache();
    let mut live: Vec<usize> = Vec::with_capacity(WINDOW + 1);
    for (i, &sz) in sizes.iter().cycle().take(OPS_PER_THREAD).enumerate() {
        if let Some(slot) = cache.alloc(sz) {
            live.push(heap.offset_of(slot));
        }
        if live.len() > WINDOW {
            let victim = live.swap_remove(i % WINDOW);
            cache.free_at(victim);
        }
    }
    for off in live {
        cache.free_at(off);
    }
}

fn run_threads(threads: usize, per_thread: impl Fn(u64) + Sync) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let per_thread = &per_thread;
            scope.spawn(move || per_thread(t as u64));
        }
    });
}

fn bench_alloc_mt(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_mt");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for &threads in &[1usize, 2, 4, 8] {
        let size_tables: Vec<Vec<usize>> = (0..threads as u64).map(sizes_for_thread).collect();

        let single = SpinLock::new(Heap::<Plain>::new(HeapConfig::default(), 1).unwrap());
        group.bench_with_input(
            BenchmarkId::new("single_lock", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |t| {
                        churn_single(&single, black_box(&size_tables[t as usize]));
                    });
                });
            },
        );

        let sharded: Heap = Heap::new(HeapConfig::default(), 1).unwrap();
        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |t| {
                        churn_sharded(&sharded, black_box(&size_tables[t as usize]));
                    });
                });
            },
        );

        let magazine: Heap = Heap::new(HeapConfig::default(), 1).unwrap();
        group.bench_with_input(
            BenchmarkId::new("magazine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_threads(threads, |t| {
                        churn_magazine(&magazine, black_box(&size_tables[t as usize]));
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_alloc_mt);
criterion_main!(benches);
