//! The machine-readable perf trajectory: deterministic hot-path kernels and
//! the `BENCH_*.json` report they emit.
//!
//! Every perf-focused PR runs the same registered kernels through
//! `cargo run --release -p diehard-bench --bin perf_report` and commits the
//! resulting `BENCH_<pr>.json` at the repo root, so allocator speedups leave
//! a diffable number trail instead of prose tables. The kernels are seeded
//! and fixed-size — two runs on the same machine measure the same work —
//! and deliberately target the allocator's strength-reduced arithmetic:
//! partition probing, free validation, and the replicated-mode random fill —
//! plus §4.3's ignored frees (double and misaligned) and §4.4's bound and
//! bounded copy on the heap `libdiehard.so` ships, and the two §5
//! transports: the replicated network front end — voted bytes/second through
//! a loopback proxy session (a short one, mostly spawn, and a 16 MiB one,
//! mostly stream), the full connect→vote→close cycle cost both
//! cold (replicas spawned inline) and warm (handed out of the pre-spawned
//! replica-set pool), and the background cost of refilling that pool — and
//! the launcher's pipe path, ns per voted byte at 1, 3 and 5 replicas.
//!
//! The allocator kernels come in two arms, because the allocator does: while
//! a process has one thread its read-modify-writes are plain loads and
//! stores, and from its first `pthread_create` on they are locked
//! instructions (`diehard_core::sync`). A kernel without a suffix times the
//! first arm — what every single-threaded host under `LD_PRELOAD` runs — and
//! refuses to run once the process has spawned a thread; its `_mt` twin runs
//! the same loop beside a parked helper thread. glibc never takes the flag
//! back, so the registry orders every single-thread allocator kernel before
//! the first `_mt` or proxy kernel.
//!
//! Schema of the emitted JSON: a single object mapping kernel name to
//! `{"mean_ns": float, "min_ns": float, "max_ns": float, "iters": int}`,
//! where the `_ns` figures are nanoseconds *per operation* (mean/min/max
//! across timed samples) and `iters` is the total operation count measured.

use diehard_core::config::{FillPolicy, HeapConfig};
use diehard_core::global::{DieHard, DEFAULT_GROW_LOG2};
use diehard_core::partition::Partition;
use diehard_core::rng::Mwc;
use diehard_core::sharded::{Heap, HUGE_PAGE};
use diehard_core::size_class::{SizeClass, NUM_CLASSES};
use diehard_core::sync::sole_thread;
use diehard_sim::{DieHardSimHeap, SimAllocator};
use std::hint::black_box;
use std::time::Instant;

/// Every kernel the report must contain; CI fails when one is missing.
pub const KERNELS: &[&str] = &[
    "alloc_churn_mixed",
    "magazine_alloc_churn",
    "preload_alloc_churn",
    "probe_steady_half_full",
    "probe_steady_three_quarter_band",
    "fill_none",
    "fill_random",
    "grow_under_churn",
    "hugepage_fill",
    "class_first_touch",
    "class_promote",
    "global_churn_cold",
    "global_churn_small",
    "free_double_ignored",
    "free_misaligned_ignored",
    "strcpy_bound",
    "strcpy_bounded",
    "preload_alloc_churn_mt",
    "global_churn_cold_mt",
    "proxy_throughput",
    "proxy_stream",
    "proxy_conn_latency",
    "proxy_conn_latency_warm",
    "pool_refill",
    "launcher_stream_n1",
    "launcher_stream_n3",
    "launcher_stream_n5",
];

/// One kernel's timing summary (nanoseconds per operation across samples).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Registered kernel name (one of [`KERNELS`]).
    pub name: &'static str,
    /// Mean ns/op across samples.
    pub mean_ns: f64,
    /// Fastest sample's ns/op.
    pub min_ns: f64,
    /// Slowest sample's ns/op.
    pub max_ns: f64,
    /// Total operations measured (samples × ops per sample).
    pub iters: u64,
}

/// Times `samples` runs of `sample_fn`, each performing `ops` operations,
/// after `warmup` untimed runs; reports ns/op statistics.
fn measure(
    name: &'static str,
    warmup: usize,
    samples: usize,
    ops: u64,
    mut sample_fn: impl FnMut(),
) -> KernelResult {
    for _ in 0..warmup {
        sample_fn();
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        sample_fn();
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    summarize(name, &per_op, ops * samples as u64)
}

/// Folds per-sample ns/op figures into a [`KernelResult`] — the stats half
/// of [`measure`], split out for kernels that must time each sample
/// themselves (e.g. to exclude an untimed wait from the measurement).
fn summarize(name: &'static str, per_op: &[f64], iters: u64) -> KernelResult {
    let min = per_op.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_op.iter().copied().fold(0.0, f64::max);
    let mean = per_op.iter().sum::<f64>() / per_op.len() as f64;
    KernelResult {
        name,
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
        iters,
    }
}

/// Runs an allocator kernel in the single-thread arm, or not at all: a
/// number silently taken in the other arm would be filed under the wrong
/// name. Two builds cannot tell and run the kernel regardless: off glibc
/// there is no flag to read and only the locked arm exists, and under
/// libtest (threaded before any test starts) the unit tests below check the
/// wiring, not the numbers.
fn alone<R>(name: &str, kernel: impl FnOnce() -> R) -> R {
    if cfg!(target_env = "gnu") && !cfg!(test) {
        assert!(
            sole_thread(),
            "{name} times the allocator as a single-threaded host runs it, but this \
             process has already spawned a thread: run it before every `_mt` and proxy \
             kernel (`--only` runs kernels in the order given)"
        );
    }
    kernel()
}

/// Runs an allocator kernel in the locked arm: a helper thread is spawned
/// first and stays parked, doing nothing, until the kernel returns.
fn beside_a_parked_thread<R>(kernel: impl FnOnce() -> R) -> R {
    let (unpark, parked) = std::sync::mpsc::channel::<()>();
    let helper = std::thread::spawn(move || parked.recv().is_err());
    assert!(!sole_thread(), "a second thread exists");
    let result = kernel();
    drop(unpark);
    assert!(helper.join().expect("parked helper"), "woken by the drop");
    result
}

/// The `alloc_micro` diehard churn, made steady-state: a persistent sim
/// heap serves mixed-size malloc/free traffic through a 64-slot ring of
/// live objects. One op = one free (of the slot's previous occupant) plus
/// one malloc. The ring is a fixed array indexed by mask, so the harness
/// contributes a load and a branch per op — the measurement is the
/// allocator's placement and free-validation arithmetic, not container
/// bookkeeping. Since PR 22 the sim heap's partitions are the shipped probe
/// loop, ticket and 2-bit slot map in their compile-time plain arm (every
/// update a relaxed load and store), so this row times the code
/// `magazine_alloc_churn` times, minus magazines and the run-time arm test.
fn alloc_churn_mixed(smoke: bool) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let mut heap = DieHardSimHeap::new(HeapConfig::default(), 1).unwrap();
    let mut ring = [usize::MAX; RING];
    let mut i = 0usize;
    measure("alloc_churn_mixed", warmup, samples, ops, move || {
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if ring[slot] != usize::MAX {
                let _ = heap.free(ring[slot]);
            }
            ring[slot] = match heap.malloc(sizes[slot], &[]) {
                Ok(Some(p)) => p,
                _ => usize::MAX,
            };
            i += 1;
        }
    })
}

/// The same 64-slot mixed-size churn ring as `alloc_churn_mixed`, but
/// against the concurrent [`Heap`] through its thread-local
/// magazine cache — the exact in-process path `libdiehard.so` puts under
/// every interposed `malloc`. Comparing the two rows prices the
/// thread-safety layers (magazines + lock-free shard CAS) against the
/// single-threaded sim heap.
fn magazine_alloc_churn(smoke: bool) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let heap: Heap = Heap::new(HeapConfig::default(), 0xCAFE).unwrap();
    let mut ring = [usize::MAX; RING];
    let mut i = 0usize;
    measure("magazine_alloc_churn", warmup, samples, ops, move || {
        let mut cache = heap.thread_cache();
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if ring[slot] != usize::MAX {
                let _ = cache.free_at(ring[slot]);
            }
            ring[slot] = match cache.alloc(sizes[slot]) {
                Some(s) => heap.offset_of(s),
                None => usize::MAX,
            };
            i += 1;
        }
        // Return buffered frees to the shards so samples stay steady-state.
        cache.flush();
    })
}

/// Resolves `malloc`/`free` out of a freshly `dlopen`ed `libdiehard.so`
/// (found next to the running binary's profile directory). `RTLD_LOCAL`
/// keeps the library's strong allocation symbols *out* of the global
/// scope: this process keeps its own allocator, and the kernel drives the
/// interposer's exports purely through the returned function pointers.
#[cfg(unix)]
fn preload_library() -> (
    extern "C" fn(usize) -> *mut libc::c_void,
    extern "C" fn(*mut libc::c_void),
) {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("exe dir");
    // Bins run from target/<profile>/, test bins from target/<profile>/deps/.
    // `cargo test` alone does not emit the cdylib artifact, so a debug test
    // run falls back to the sibling profile's copy — tier-1 (`cargo build
    // --release && cargo test -q`) always has target/release/libdiehard.so,
    // and the release interposer is the artifact worth timing anyway.
    let mut candidates = vec![dir.to_path_buf()];
    candidates.extend(dir.parent().map(std::path::Path::to_path_buf));
    for up in [dir.parent(), dir.parent().and_then(std::path::Path::parent)]
        .into_iter()
        .flatten()
    {
        candidates.push(up.join("release"));
        candidates.push(up.join("debug"));
    }
    let so = candidates
        .into_iter()
        .map(|d| d.join("libdiehard.so"))
        .find(|p| p.exists())
        .expect("libdiehard.so not built — run `cargo build --release -p diehard-preload` first");
    let mut path = so.into_os_string().into_string().expect("utf-8 path");
    path.push('\0');
    // SAFETY: NUL-terminated path; dlopen/dlsym have no other
    // preconditions. The transmutes match the C signatures libdiehard.so
    // exports for malloc and free.
    unsafe {
        let handle = libc::dlopen(path.as_ptr().cast(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        assert!(!handle.is_null(), "dlopen(libdiehard.so) failed");
        let malloc_sym = libc::dlsym(handle, c"malloc".as_ptr().cast());
        let free_sym = libc::dlsym(handle, c"free".as_ptr().cast());
        assert!(
            !malloc_sym.is_null() && !free_sym.is_null(),
            "libdiehard.so must export malloc and free"
        );
        (
            core::mem::transmute::<*mut libc::c_void, extern "C" fn(usize) -> *mut libc::c_void>(
                malloc_sym,
            ),
            core::mem::transmute::<*mut libc::c_void, extern "C" fn(*mut libc::c_void)>(free_sym),
        )
    }
}

/// The same churn ring once more, but through the `LD_PRELOAD`
/// interposer's exported C ABI (`dlopen` + `dlsym`, see
/// [`preload_library`]). The delta against `magazine_alloc_churn` is the
/// interposition overhead itself: the `dlsym`'d call into each export and
/// the export's call into its funnel (`alloc_impl`, `free_impl`), the one
/// `__tls_get_addr` there, the re-entrancy flag, the arena range check,
/// the `Layout` round-trip, the `OnceCell`'s `Acquire` load, the
/// heap-binding and magazine-decision loads, and the handout's prefetch.
/// No fence: the delta was ≈ 44 ns in `BENCH_24.json`, when every `malloc`
/// also paid a failing `lock cmpxchg` in `OnceCell::get_or_try_init`, a
/// second TLS lookup and a five-call chain, and is ≈ 24 ns in
/// `BENCH_26.json`. (`libdiehard.so` reads the same
/// `__libc_single_threaded` as this process, so the arm is this process's.)
#[cfg(unix)]
fn preload_alloc_churn(name: &'static str, smoke: bool) -> KernelResult {
    const RING: usize = 64;
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let sizes: [usize; RING] = {
        let mut rng = Mwc::seeded(0xBEAC4);
        core::array::from_fn(|_| 8 + rng.below(2040))
    };
    let (c_malloc, c_free) = preload_library();
    let mut ring: [*mut libc::c_void; RING] = [core::ptr::null_mut(); RING];
    let mut i = 0usize;
    measure(name, warmup, samples, ops, move || {
        for _ in 0..ops {
            let slot = i & (RING - 1);
            if !ring[slot].is_null() {
                c_free(ring[slot]);
            }
            ring[slot] = black_box(c_malloc(sizes[slot]));
            i += 1;
        }
    })
}

#[cfg(not(unix))]
fn preload_alloc_churn(_name: &'static str, _smoke: bool) -> KernelResult {
    unreachable!("the preload kernel requires unix dlopen plumbing")
}

/// Steady-state partition probing at the paper's default occupancy (half
/// full, M = 2): one op = one alloc/free pair against a 16 Ki-slot region.
/// Since PR 22 `Partition` is the shipped `AtomicPartition` in its
/// compile-time plain arm, so this row times the shipped loop: ticket add,
/// packed-MWC draw, `or` claim, validating free — each a relaxed atomic load
/// and store, which the compiler keeps in memory where the former `&mut`
/// copy's fields sat in registers (+5 ns a pair; CHANGES, PR 22).
fn probe_steady_half_full(smoke: bool) -> KernelResult {
    probe_steady("probe_steady_half_full", 1 << 14, smoke)
}

/// [`probe_steady_half_full`] at a capacity that is not a power of two —
/// `3 · 2^13` slots, the third rung of a band — which is where a class on
/// the quarter-band ladder spends most of its life. Same loop, same
/// occupancy, same multiply draw; the difference between the two rows is
/// what the rung costs (nothing, unless the draw is forked again).
fn probe_steady_three_quarter_band(smoke: bool) -> KernelResult {
    probe_steady("probe_steady_three_quarter_band", 3 << 13, smoke)
}

fn probe_steady(name: &'static str, capacity: usize, smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke {
        (1, 3, 5_000)
    } else {
        (3, 25, 100_000)
    };
    let part = Partition::new(SizeClass::from_index(0), capacity, capacity, 7);
    for _ in 0..capacity / 2 {
        part.alloc();
    }
    measure(name, warmup, samples, ops, move || {
        for _ in 0..ops {
            let idx = part.alloc().expect("has space");
            part.free(black_box(idx));
        }
    })
}

/// Allocation with a given fill policy: one op = one 4 KB malloc, with the
/// live window drained inside the timed loop so the heap stays reusable and
/// both policies run the identical op sequence.
/// `fill_random` minus `fill_none` is the replicated-mode fill overhead.
fn fill_kernel(name: &'static str, fill: FillPolicy, smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke { (1, 3, 64) } else { (2, 25, 2_048) };
    let mut heap = DieHardSimHeap::new(HeapConfig::default().with_fill(fill), 5).unwrap();
    measure(name, warmup, samples, ops, move || {
        let mut live: Vec<usize> = Vec::with_capacity(64);
        for _ in 0..ops {
            if let Ok(Some(p)) = heap.malloc(4096, &[]) {
                live.push(p);
            }
            if live.len() >= 64 {
                for p in live.drain(..) {
                    let _ = heap.free(p);
                }
            }
        }
        for p in live.drain(..) {
            let _ = heap.free(p);
        }
    })
}

/// Elastic growth under allocation pressure: one op = one 8-byte
/// allocation against a concurrent heap born at 1/64 of its maximum
/// capacity, so the timed loop crosses every step of the smallest class's
/// ladder (24 quarter-bands) on its way to the full-size `1/M` threshold.
/// Each sample builds a fresh heap (seed varied per sample) — the growth
/// protocol runs *inside* the measurement, so this number prices the
/// lock-free read path plus the maintenance-locked steps, not just steady
/// state.
fn grow_under_churn(smoke: bool) -> KernelResult {
    let (warmup, samples, region) = if smoke {
        (1, 3, 1usize << 16)
    } else {
        (2, 25, 1usize << 18)
    };
    let config = HeapConfig::default().with_region_bytes(region);
    let ops = config.threshold(SizeClass::from_index(0)) as u64;
    let mut seed = 0x6_2011u64;
    measure("grow_under_churn", warmup, samples, ops, move || {
        seed += 1;
        let heap: Heap = Heap::new_elastic(config.clone(), seed, 6).unwrap();
        for _ in 0..ops {
            let slot = heap.try_alloc(8).placed().expect("below the 1/M cap");
            black_box(slot);
        }
    })
}

/// Huge-page commit cost: one op = first-touch of one 4 KB page inside a
/// fresh anonymous mapping advised with `MADV_HUGEPAGE` — the
/// mmap/madvise/fault sequence the global allocator issues for each large
/// object, and what every fault in a size class costs *after* that class
/// has been promoted (before promotion, and in every class of a short
/// process, the arena faults in plain 4 KB pages: see `class_first_touch`).
/// One 2 MB fill is 512 of these ops. The advice is best-effort: on
/// kernels without transparent huge pages this degrades to (and measures)
/// ordinary 4 KB faults, so the number is meaningful either way.
fn hugepage_fill(smoke: bool) -> KernelResult {
    let (warmup, samples, len) = if smoke {
        (0, 2, 4usize << 20)
    } else {
        (1, 10, 32usize << 20)
    };
    const PAGE: usize = 4096;
    let ops = (len / PAGE) as u64;
    measure("hugepage_fill", warmup, samples, ops, move || {
        // SAFETY: a fresh, exclusively-owned anonymous mapping of `len`
        // bytes; madvise is non-destructive advice; every touched offset is
        // inside the mapping; munmap releases the same range mmap returned.
        unsafe {
            let ptr = libc::mmap(
                core::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(ptr != libc::MAP_FAILED, "anonymous mmap failed");
            let _ = libc::madvise(ptr, len, libc::MADV_HUGEPAGE);
            let bytes = ptr.cast::<u8>();
            for off in (0..len).step_by(PAGE) {
                bytes.add(off).write_volatile(1);
            }
            libc::munmap(ptr, len);
        }
    })
}

/// A fresh heap shaped like the interposer's: 32 MB regions born at the
/// shipped default fraction ([`DEFAULT_GROW_LOG2`]: a 64 KiB active range
/// per class). Returned uninitialized — a `DieHard`
/// must not move after its first allocation — so callers run
/// [`initialize_off_clock`] on it in place. Its mappings are deliberately
/// leaked by `DieHard`'s `Drop` (≈ 386 MB of address space per sample,
/// resident only where touched).
fn interposer_heap(seed: u64) -> DieHard {
    DieHard::with_elastic_config(HeapConfig::paper_default(), seed, DEFAULT_GROW_LOG2)
}

/// Runs the heap's one-time initialization through a large object, which
/// builds the state without touching any size class.
fn initialize_off_clock(heap: &DieHard) {
    let warm = heap.malloc(1 << 20);
    assert!(!warm.is_null(), "heap initialization failed");
    heap.free(warm);
}

/// What a short process pays the arena: one op = the *first* `malloc` in a
/// size class of a fresh heap plus a full write of the object, across all
/// twelve classes (8 B … 16 KB): one to four 4 KB faults plus the class's
/// first magazine refill, inside a 64 KiB active range that no amount of
/// traffic gets promoted. A span advised `MADV_HUGEPAGE` up front turns
/// each of these into a 2 MB zero-fill — the regression this kernel exists
/// to catch. (Measured with the host's THP mode at `madvise`; under
/// `always` the kernel zero-fills 2 MB at each first touch unasked, and the
/// allocator has no say in this number.)
fn class_first_touch(smoke: bool) -> KernelResult {
    let (warmup, samples) = if smoke { (0, 2) } else { (2, 25) };
    let mut seed = 0x1257_70C4u64;
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for round in 0..warmup + samples {
        seed += 1;
        let heap = interposer_heap(seed);
        initialize_off_clock(&heap);
        let start = Instant::now();
        for class in SizeClass::all() {
            let size = class.object_size();
            let p = heap.malloc(size);
            assert!(!p.is_null(), "first allocation of {size} B");
            // SAFETY: a live object of `size` bytes.
            unsafe { p.write_bytes(0xA5, size) };
            black_box(p);
        }
        let elapsed = start.elapsed();
        assert_eq!(heap.promoted_classes(), 0, "one object is not evidence");
        if round >= warmup {
            per_op.push(elapsed.as_nanos() as f64 / NUM_CLASSES as f64);
        }
    }
    summarize("class_first_touch", &per_op, (samples * NUM_CLASSES) as u64)
}

/// `AnonHugePages` of this process in kB (`/proc/self/smaps_rollup`), or
/// `None` where the kernel does not report it.
fn anon_huge_kb() -> Option<u64> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The price of a promotion: one op = the `malloc` whose refill steps the
/// 8-byte class of a fresh heap from 1.75 MB to 2 MB — the first moment the
/// class, long since past `PROMOTE_AFTER_ALLOCS`, has an active range one
/// huge page long: the step itself, `MADV_HUGEPAGE` and `MADV_COLLAPSE` of
/// that 2 MB, whose lower seven eighths by then hold 114 688 live, written
/// objects on all 448 of their pages and whose last eighth has never been
/// touched. Paid once per huge page of a class's range, and only by
/// classes with 896 KiB live at once. Where the kernel refuses
/// the collapse (THP off, pre-6.1, no free 2 MB block) the op is two
/// syscalls that change no page, and the kernel says so on stderr.
fn class_promote(smoke: bool) -> KernelResult {
    let (warmup, samples) = if smoke { (0, 2) } else { (2, 25) };
    // The class grows when its live count meets the `1/M` allowance of its
    // range, so the allowance of the 1.75 MB range is the number of objects
    // to hold before the timed one.
    let before_crossing = HeapConfig::paper_default().threshold_for(HUGE_PAGE / 8 * 7 / 8);
    let mut seed = 0x9407_07E5u64;
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    let mut collapsed = 0usize;
    for round in 0..warmup + samples {
        seed += 1;
        let heap = interposer_heap(seed);
        initialize_off_clock(&heap);
        for i in 0..before_crossing {
            let p = heap.malloc(8).cast::<u64>();
            assert!(!p.is_null());
            // SAFETY: a live 8-byte object.
            unsafe { p.write(i as u64) };
        }
        assert_eq!(heap.promoted_classes(), 0, "hot, but short of 2 MB");
        let huge_before = anon_huge_kb();
        let start = Instant::now();
        let p = black_box(heap.malloc(8));
        let elapsed = start.elapsed();
        assert!(!p.is_null());
        assert_eq!(heap.promoted_classes(), 1, "the 8-byte class, alone");
        if let (Some(before), Some(after)) = (huge_before, anon_huge_kb()) {
            collapsed += usize::from(after >= before + 2048);
        }
        if round >= warmup {
            per_op.push(elapsed.as_nanos() as f64);
        }
    }
    if collapsed < warmup + samples {
        eprintln!(
            "class_promote: the kernel collapsed {collapsed} of {} promoted ranges \
             (THP off, pre-6.1, or out of 2 MB blocks): the rest stayed on 4 KB pages",
            warmup + samples
        );
    }
    summarize("class_promote", &per_op, samples as u64)
}

/// `churn_host`'s trace through the Rust API: one op = one malloc, a full
/// write of the new object, then a read of a random old object's first and
/// last byte and its free — that host's trace shape and size mix (60 %
/// 8–63 B, 30 % 64–255 B, 9 % 256–1023 B, 1 % 1–4 KiB) over `live` objects
/// on a heap shaped like the interposer's. Every other churn kernel here
/// runs a 64-slot ring, which prices `malloc`'s instructions and nothing
/// else; this one prices what random placement over a heap `M` times larger
/// than the live set costs the *host* — a miss on the first write into each
/// object and another on the read-back — which is where the paper puts
/// Fig. 5's allocation-intensive overhead. Two sizes, because a heap that
/// tracks what is live behaves differently at each:
///
/// * `global_churn_cold`, 50 000 objects (≈ 6 MB live; ranges of 26 MB on
///   the quarter-band ladder, 33 MB when classes doubled): it does not fit
///   in cache, every touch is a miss, and the number moves with what hides
///   latency (the look-ahead prefetch at handout), with TLB reach (the
///   whole huge pages of its six largest ranges are promoted) and with how
///   full the ranges are (the paper's `1/(1 − 1/M)` probes);
/// * `global_churn_small`, 3 000 objects (≈ 0.5 MB live): from the 64 KiB
///   start the ten classes the mix touches span 2.5 MB between them, on
///   base pages, each near its `1/M` cap — so an allocation pays the
///   paper's `1/(1 − 1/M)` expected probes, which a 2 MB start (20 MB of
///   ranges, all promoted, nearly empty) never does, and in exchange its
///   touches stay in L2. On the reference box (2 MB of L2 a core, a 260 MB
///   L3) the two cancel: 91–98 ns a pair from the 64 KiB start, 89–110 from
///   a 2 MB start. What the small start buys such a host is not steady
///   state but the 18 MB of zero-filled huge pages it never faults in.
///
/// `global_churn_cold_mt` is the first of these beside a parked thread: the
/// same misses, but every allocator update a locked instruction that drains
/// the store buffer before the host's next miss can start.
fn global_churn(name: &'static str, live: usize, smoke: bool) -> KernelResult {
    // Even the smoke run warms up: the fill leaves about half of every
    // active range untouched, and the first ops after it fault those pages
    // in (2 MB at a time in the promoted classes) — CI gates this kernel's
    // minimum, which must not be a page-fault count. Four passes, not one:
    // the second 20 000 pairs still carry a promotion's collapse (2–7 µs a
    // pair averaged over the pass) and the two after it read 10–30 % above
    // where the samples then settle.
    let (warmup, samples, ops) = if smoke {
        (4, 8, 20_000)
    } else {
        (1, 15, 200_000)
    };
    let heap = interposer_heap(0xC01D);
    initialize_off_clock(&heap);
    let mut rng = Mwc::seeded(0xC01D_5EED);
    let place = |rng: &mut Mwc| {
        let size = match rng.below(100) {
            0..=59 => 8 + rng.below(56),
            60..=89 => 64 + rng.below(192),
            90..=98 => 256 + rng.below(768),
            _ => 1024 + rng.below(3073),
        };
        let p = heap.malloc(size);
        assert!(!p.is_null(), "{size} B with {live} objects live");
        // SAFETY: a live object of `size` bytes.
        unsafe { p.write_bytes(size as u8, size) };
        (p, size)
    };
    let mut ring: Vec<(*mut u8, usize)> = (0..live).map(|_| place(&mut rng)).collect();
    let result = measure(name, warmup, samples, ops, || {
        for _ in 0..ops {
            let victim = rng.below(live);
            let (p, size) = std::mem::replace(&mut ring[victim], place(&mut rng));
            // SAFETY: `p` is live with `size` ≥ 8 bytes written at `place`;
            // the ring frees each pointer once.
            unsafe {
                black_box((p.read_volatile(), p.add(size - 1).read_volatile()));
            }
            heap.free(p);
        }
    });
    for (p, _) in ring {
        heap.free(p);
    }
    result
}

/// §4.3 on the shipped heap: one op = one `free` that validation must
/// ignore, through the interposer-shaped heap's C-style entry.
/// `free_double_ignored` re-frees a 64 B object that was already freed (the
/// free is buffered in the thread's magazine and rejected by the batch
/// flush's slot-state check); `free_misaligned_ignored` frees `p + 8` of a
/// live 64 B object (rejected at once by the alignment arithmetic). A valid
/// free is half of every churn row above, so it has no row of its own. After
/// the samples, every free the kernel made, warm-up included, must have been
/// counted as ignored, and the live object must still free as a counted free.
fn free_ignored(name: &'static str, smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let heap = interposer_heap(0xF4EE);
    initialize_off_clock(&heap);
    let live = heap.malloc(64);
    assert!(!live.is_null(), "a 64 B object");
    let wrong = if name == "free_double_ignored" {
        let dead = heap.malloc(64);
        assert!(!dead.is_null(), "a 64 B object");
        heap.free(dead);
        dead
    } else {
        live.wrapping_add(8)
    };
    // Flushes the thread's magazine, so `dead`'s one valid free lands here.
    let before = heap.stats();
    let result = measure(name, warmup, samples, ops, || {
        for _ in 0..ops {
            heap.free(black_box(wrong));
        }
    });
    let after = heap.stats();
    assert_eq!(
        after.ignored_frees - before.ignored_frees,
        (warmup + samples) as u64 * ops,
        "{name}: every free the kernel made is ignored, and counted"
    );
    heap.free(live);
    assert_eq!(
        heap.stats().frees,
        after.frees + 1,
        "{name}: the live object still frees as a counted free"
    );
    result
}

/// §4.4's bound on the shipped heap: one op = [`DieHard::remaining_space`]
/// of an interior pointer, `p + 13` of a live 64 B object — "two
/// comparisons … a bitshift … two subtractions" in the paper, here the span
/// test and the class geometry's shifts and masks. It must answer 51.
fn strcpy_bound(smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke {
        (1, 3, 5_000)
    } else {
        (3, 25, 100_000)
    };
    let heap = interposer_heap(0x5_7C4B);
    initialize_off_clock(&heap);
    let p = heap.malloc(64);
    assert!(!p.is_null(), "a 64 B object");
    let interior = p.wrapping_add(13);
    measure("strcpy_bound", warmup, samples, ops, || {
        for _ in 0..ops {
            assert_eq!(heap.remaining_space(black_box(interior)), Some(51));
        }
    })
}

/// §4.4's bounded copy on the shipped heap: one op = [`DieHard::strcpy`] of
/// a 300-byte string into a 256 B object — the source scan, the bound, and
/// a copy clamped to the object, terminator included. It must copy 255
/// bytes.
fn strcpy_bounded(smoke: bool) -> KernelResult {
    let (warmup, samples, ops) = if smoke {
        (1, 3, 2_000)
    } else {
        (3, 25, 50_000)
    };
    let heap = interposer_heap(0x5_7C4D);
    initialize_off_clock(&heap);
    let dest = heap.malloc(256);
    assert!(!dest.is_null(), "a 256 B object");
    let src: Vec<u8> = (0..300).map(|i| b'a' + (i % 26) as u8).chain([0]).collect();
    measure("strcpy_bounded", warmup, samples, ops, || {
        for _ in 0..ops {
            // SAFETY: `src` is NUL-terminated, and `dest` is a DieHard
            // object, so the copy is clamped to its 256 bytes.
            let copied = unsafe { heap.strcpy(black_box(dest), src.as_ptr()) };
            assert_eq!(copied, 255);
        }
    })
}

/// Shared proxy-kernel scaffolding: a loopback [`Proxy`] voting three
/// `/bin/cat` replicas per connection, run on its own thread for the
/// duration of `body`, which receives the bound port.
#[cfg(unix)]
fn with_cat_proxy<R>(body: impl FnOnce(u16) -> R) -> R {
    use diehard_replicate::net::Listener;
    use diehard_replicate::proxy::Proxy;
    use diehard_replicate::LaunchConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("loopback bind");
    let mut proxy = Proxy::new(listener, config).expect("default chunk is valid");
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || proxy.run(&flag));
    let result = body(port);
    stop.store(true, Ordering::Release);
    server
        .join()
        .expect("proxy thread")
        .expect("reactor ran clean");
    result
}

/// [`with_cat_proxy`] with a warm replica-set pool of `depth` parked sets:
/// `body` also receives the pool's fill gauge so rounds can wait for a
/// parked set (a guaranteed pool hit) outside their timed region.
#[cfg(unix)]
fn with_pooled_cat_proxy<R>(
    depth: usize,
    body: impl FnOnce(u16, std::sync::Arc<std::sync::atomic::AtomicUsize>) -> R,
) -> R {
    use diehard_replicate::net::Listener;
    use diehard_replicate::proxy::Proxy;
    use diehard_replicate::LaunchConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("loopback bind");
    let proxy = Proxy::new(listener, config).expect("default chunk is valid");
    let gauge = proxy.pool_gauge();
    let mut proxy = proxy.with_pool(depth);
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || proxy.run(&flag));
    let result = body(port, gauge);
    stop.store(true, Ordering::Release);
    let summary = server
        .join()
        .expect("proxy thread")
        .expect("reactor ran clean");
    assert_eq!(
        summary.pool.cold_spawns, 0,
        "warm kernel rounds must all be pool hits: {:?}",
        summary.pool
    );
    result
}

/// One voted proxy session: connect, stream `payload`, half-close, read the
/// quorum echo to EOF, and check the byte count survived the vote.
#[cfg(unix)]
fn proxy_echo_round(port: u16, payload: &[u8]) {
    use diehard_replicate::net::{connect_loopback, shutdown_write};
    use std::io::{Read, Write};

    let mut stream = connect_loopback(port).expect("connect");
    if payload.len() <= 4096 {
        // Small payloads fit the socket buffer: write inline so the
        // latency kernels don't carry a per-round thread spawn.
        stream.write_all(payload).expect("send payload");
        shutdown_write(&stream).expect("half-close");
        let mut echoed = Vec::new();
        stream.read_to_end(&mut echoed).expect("read voted echo");
        assert_eq!(echoed.len(), payload.len(), "quorum echo must be complete");
        return;
    }
    let to_send = payload.to_vec();
    let writer = {
        let stream = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            let mut stream = stream;
            let _ = stream.write_all(&to_send);
            let _ = shutdown_write(&stream);
        })
    };
    let mut echoed = Vec::new();
    stream.read_to_end(&mut echoed).expect("read voted echo");
    writer.join().expect("writer thread");
    assert_eq!(echoed.len(), payload.len(), "quorum echo must be complete");
}

/// Voted proxy throughput: one op = one payload byte pushed through a full
/// loopback session (client → broadcast to 3 cat replicas → 4 KB chunk
/// votes → quorum bytes back). Each sample is a fresh connection, so the
/// number includes a session spawn amortized over the payload — the shape
/// a short-lived proxy client actually sees.
#[cfg(unix)]
fn proxy_throughput(smoke: bool) -> KernelResult {
    let (warmup, samples, len) = if smoke {
        (0, 2, 8_192usize)
    } else {
        (1, 10, 262_144usize)
    };
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    with_cat_proxy(|port| {
        measure("proxy_throughput", warmup, samples, len as u64, move || {
            proxy_echo_round(port, &payload);
        })
    })
}

/// Steady-state cost of a voted byte: one op = one payload byte of a 16 MiB
/// stream through one connection (client → broadcast to 3 cat replicas →
/// 4 KB chunk votes → quorum bytes back), every returned byte compared.
/// Where [`proxy_throughput`]'s 256 KiB payload is four-fifths replica
/// spawn, here the spawn is under a tenth, so a change to what the reactor
/// does per byte — transfer size, copies, the vote — shows. Smoke mode
/// streams the same 16 MiB, fewer times: CI gates the minimum, and a
/// shorter stream would gate the spawn.
#[cfg(unix)]
fn proxy_stream(smoke: bool) -> KernelResult {
    use diehard_replicate::net::{connect_loopback, shutdown_write};
    use std::io::{Read, Write};

    const LEN: usize = 16 << 20;
    let (warmup, samples) = if smoke { (0, 3) } else { (1, 10) };
    let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    with_cat_proxy(|port| {
        measure("proxy_stream", warmup, samples, LEN as u64, || {
            let mut stream = connect_loopback(port).expect("connect");
            let mut sender = stream.try_clone().expect("clone stream");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    sender.write_all(&payload).expect("send payload");
                    shutdown_write(&sender).expect("half-close");
                });
                let mut piece = vec![0u8; 64 << 10];
                let mut got = 0;
                loop {
                    let n = stream.read(&mut piece).expect("read voted echo");
                    if n == 0 {
                        break;
                    }
                    assert!(
                        payload[got..].starts_with(&piece[..n]),
                        "voted echo differs after {got} bytes"
                    );
                    got += n;
                }
                assert_eq!(got, LEN, "quorum echo must be complete");
            });
        })
    })
}

/// One latency round: connect, send exactly one chunk, and time until the
/// voted first chunk is read back. A full-chunk request is deliberate —
/// its barrier commits the moment every replica has echoed the chunk,
/// *without* waiting for replica EOF — and the half-close is deferred
/// until *after* the voted chunk is back, so the replicas are still
/// parked alive at their next read throughout the timed region. The EOF
/// ballots, the replica exits, and the reap (identical cold and warm,
/// and not what the pool optimizes) are only triggered by the FIN
/// afterwards, fully off the clock.
#[cfg(unix)]
fn proxy_first_chunk_round(port: u16, payload: &[u8]) -> std::time::Duration {
    use diehard_replicate::net::{connect_loopback, shutdown_write};
    use std::io::{Read, Write};

    let start = Instant::now();
    let mut stream = connect_loopback(port).expect("connect");
    stream.write_all(payload).expect("send request");
    let mut first = vec![0u8; payload.len()];
    stream
        .read_exact(&mut first)
        .expect("read voted first chunk");
    let elapsed = start.elapsed();
    // Teardown off the clock: half-close now, then drain to EOF so the
    // session retires clean before the next round.
    shutdown_write(&stream).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain EOF");
    assert!(
        rest.is_empty(),
        "one-chunk request must vote exactly one chunk"
    );
    elapsed
}

/// Per-connection cost, cold path: one op = one [`proxy_first_chunk_round`]
/// against a proxy that fork/execs the connection's three replicas inline
/// at accept — so the number is dominated by replica spawning. This is the
/// fixed cost `proxy_throughput` amortizes and the baseline
/// `proxy_conn_latency_warm` is measured against.
#[cfg(unix)]
fn proxy_conn_latency(smoke: bool) -> KernelResult {
    let (warmup, samples) = if smoke { (0, 2) } else { (1, 12) };
    let payload = vec![7u8; diehard_replicate::CHUNK];
    with_cat_proxy(|port| {
        for _ in 0..warmup {
            proxy_first_chunk_round(port, &payload);
        }
        let mut per_op: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            per_op.push(proxy_first_chunk_round(port, &payload).as_nanos() as f64);
        }
        summarize("proxy_conn_latency", &per_op, samples as u64)
    })
}

/// Warm-pool counterpart of [`proxy_conn_latency`]: the identical
/// [`proxy_first_chunk_round`], against a proxy whose replica sets are
/// pre-spawned (`--pool`). Each round waits *untimed* for the pool's fill
/// gauge to report a *full* pool before connecting — full, not merely
/// non-empty, so the reactor is provably idle (not mid-way through
/// topping up) when the connection arrives and the measurement is the
/// pool-hit path alone: O(1) handoff, one voted round-trip, with the
/// fork/exec cost moved off the connection entirely. The delta against
/// `proxy_conn_latency` is the tentpole number: the per-connection setup
/// cost the pool hides.
#[cfg(unix)]
fn proxy_conn_latency_warm(smoke: bool) -> KernelResult {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    const DEPTH: usize = 2;
    // CI gates this kernel's minimum, and the minimum of two ≈ 0.4 ms
    // samples is whatever the box was doing in that millisecond; eight is
    // what `global_churn` takes for the same reason.
    let (warmup, samples) = if smoke { (1, 8) } else { (4, 24) };
    let payload = vec![7u8; diehard_replicate::CHUNK];
    with_pooled_cat_proxy(DEPTH, |port, gauge| {
        let wait_for_full_pool = || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while gauge.load(Ordering::Acquire) < DEPTH {
                assert!(Instant::now() < deadline, "pool never refilled");
                std::thread::yield_now();
            }
            // The gauge rises the moment fork() returns, but the fresh
            // replicas still need background CPU to finish exec and park
            // at their blocking read — give them that slice off the clock,
            // as any set parked for more than an instant has had. Without
            // this, on a single-core runner the timed round is taxed by
            // the *next* set's startup, which is exactly the work the
            // pool exists to keep off the connection path. Yielding (not
            // sleeping) cedes the core to those replicas while keeping it
            // out of idle states: a sleep here sends the round into the
            // platform's wake-from-idle tax, which measures the runner's
            // power management, not the pool.
            let settle = Instant::now();
            while settle.elapsed() < Duration::from_millis(15) {
                std::thread::yield_now();
            }
        };
        for _ in 0..warmup {
            wait_for_full_pool();
            proxy_first_chunk_round(port, &payload);
        }
        let mut per_op: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            wait_for_full_pool(); // refill happens off the clock
            per_op.push(proxy_first_chunk_round(port, &payload).as_nanos() as f64);
        }
        summarize("proxy_conn_latency_warm", &per_op, samples as u64)
    })
}

/// Pool refill cost: one op = parking one complete 3-replica `/bin/cat`
/// set (seed resolution + 3 × fork/exec + pipe plumbing) via
/// [`Pool::prime`]. This is the background work [`proxy_conn_latency_warm`]
/// moves off the connection path; teardown (abort + reap) runs untimed
/// between samples.
#[cfg(unix)]
fn pool_refill(smoke: bool) -> KernelResult {
    use diehard_replicate::{LaunchConfig, Pool};

    let (warmup, samples, depth) = if smoke {
        (0, 2, 1usize)
    } else {
        (1, 10, 4usize)
    };
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    for _ in 0..warmup {
        let mut pool = Pool::new(config.clone(), depth).expect("valid config");
        pool.prime();
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut pool = Pool::new(config.clone(), depth).expect("valid config");
        let start = Instant::now();
        pool.prime();
        per_op.push(start.elapsed().as_nanos() as f64 / depth as f64);
        assert_eq!(pool.idle_len(), depth, "every set must park");
        drop(pool); // SIGKILL + reap of the parked sets stays off the clock
    }
    summarize("pool_refill", &per_op, (samples * depth) as u64)
}

/// The §5 pipe transport, what the `diehard` launcher runs: one op = one
/// voted byte of a 1 MiB stream that `n` replicas of `yes 0123456789abcde |
/// head -c 1048576` produce, through [`run_replicated`]'s event loop —
/// spawn, 4 KiB chunk votes, exit ballots and reap included. `n1` is the
/// unvoted reference the voted rows are read against; two replicas cannot
/// vote (§6), so there is no `n2`. Each sample must agree and return the
/// whole stream.
///
/// [`run_replicated`]: diehard_replicate::run_replicated
fn launcher_stream(name: &'static str, replicas: usize, smoke: bool) -> KernelResult {
    use diehard_replicate::{run_replicated, LaunchConfig};

    const LEN: usize = 1 << 20;
    let (warmup, samples) = if smoke { (0, 3) } else { (1, 15) };
    let command = vec![
        "/bin/sh".into(),
        "-c".into(),
        format!("yes 0123456789abcde | head -c {LEN}"),
    ];
    let config = LaunchConfig::new(replicas, command, Vec::new());
    measure(name, warmup, samples, LEN as u64, || {
        let exit = run_replicated(&config).expect("replicated run");
        assert!(!exit.diverged, "{name}: identical replicas diverged");
        assert_eq!(exit.output.len(), LEN, "{name}: the whole stream is voted");
    })
}

#[cfg(not(unix))]
fn proxy_throughput(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn proxy_stream(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn proxy_conn_latency(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn proxy_conn_latency_warm(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

#[cfg(not(unix))]
fn pool_refill(_smoke: bool) -> KernelResult {
    unreachable!("proxy kernels require unix process plumbing")
}

/// Runs every registered kernel, in registry order.
#[must_use]
pub fn run_all(smoke: bool) -> Vec<KernelResult> {
    KERNELS
        .iter()
        .map(|&name| run_kernel(name, smoke).expect("registered kernel"))
        .collect()
}

/// Runs one kernel by name; `None` for an unregistered name.
#[must_use]
pub fn run_kernel(name: &str, smoke: bool) -> Option<KernelResult> {
    // The registry's own copy of the name: results are labelled with it.
    let name = *KERNELS.iter().find(|&&kernel| kernel == name)?;
    match name {
        "alloc_churn_mixed" => Some(alloc_churn_mixed(smoke)),
        "magazine_alloc_churn" => Some(alone(name, || magazine_alloc_churn(smoke))),
        "preload_alloc_churn" => Some(alone(name, || preload_alloc_churn(name, smoke))),
        "probe_steady_half_full" => Some(probe_steady_half_full(smoke)),
        "probe_steady_three_quarter_band" => Some(probe_steady_three_quarter_band(smoke)),
        "fill_none" => Some(fill_kernel("fill_none", FillPolicy::None, smoke)),
        "fill_random" => Some(fill_kernel("fill_random", FillPolicy::Random, smoke)),
        "grow_under_churn" => Some(alone(name, || grow_under_churn(smoke))),
        "hugepage_fill" => Some(hugepage_fill(smoke)),
        "class_first_touch" => Some(alone(name, || class_first_touch(smoke))),
        "class_promote" => Some(alone(name, || class_promote(smoke))),
        "global_churn_cold" => Some(alone(name, || global_churn(name, 50_000, smoke))),
        "global_churn_small" => Some(alone(name, || global_churn(name, 3_000, smoke))),
        "free_double_ignored" | "free_misaligned_ignored" => {
            Some(alone(name, || free_ignored(name, smoke)))
        }
        "strcpy_bound" => Some(strcpy_bound(smoke)),
        "strcpy_bounded" => Some(strcpy_bounded(smoke)),
        "preload_alloc_churn_mt" => {
            Some(beside_a_parked_thread(|| preload_alloc_churn(name, smoke)))
        }
        "global_churn_cold_mt" => {
            Some(beside_a_parked_thread(|| global_churn(name, 50_000, smoke)))
        }
        "proxy_throughput" => Some(proxy_throughput(smoke)),
        "proxy_stream" => Some(proxy_stream(smoke)),
        "proxy_conn_latency" => Some(proxy_conn_latency(smoke)),
        "proxy_conn_latency_warm" => Some(proxy_conn_latency_warm(smoke)),
        "pool_refill" => Some(pool_refill(smoke)),
        "launcher_stream_n1" => Some(launcher_stream(name, 1, smoke)),
        "launcher_stream_n3" => Some(launcher_stream(name, 3, smoke)),
        "launcher_stream_n5" => Some(launcher_stream(name, 5, smoke)),
        _ => None,
    }
}

/// Renders results as the `BENCH_*.json` document (stable key order).
#[must_use]
pub fn render_json(results: &[KernelResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{\"mean_ns\": {:.2}, \"min_ns\": {:.2}, \"max_ns\": {:.2}, \"iters\": {}}}{}\n",
            r.name,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.iters,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("}\n");
    out
}

/// Extracts `kernel name → mean_ns` from a rendered (or committed) report,
/// in file order. Accepts exactly the schema [`render_json`] emits (one
/// `"name": {"mean_ns": …}` entry per line) and skips anything that does
/// not parse — so a hand-mangled report degrades to fewer deltas, not a
/// crash. This is the read half of the `BENCH_<pr>.json` trajectory: it
/// lets `perf_report` diff a fresh run against the previous PR's committed
/// numbers without a JSON dependency.
#[must_use]
pub fn parse_means(json: &str) -> Vec<(String, f64)> {
    let mut means = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.split_once("\"mean_ns\":").map(|(_, r)| r) else {
            continue;
        };
        let num = rest.trim_start().split([',', '}']).next().unwrap_or("");
        if let Ok(mean) = num.trim().parse::<f64>() {
            means.push((name.to_string(), mean));
        }
    }
    means
}

/// Checks a rendered (or committed) report for every registered kernel,
/// returning the missing names — the CI gate for the perf trajectory.
#[must_use]
pub fn missing_kernels(json: &str) -> Vec<&'static str> {
    KERNELS
        .iter()
        .copied()
        .filter(|name| !json.contains(&format!("\"{name}\"")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_every_kernel() {
        let results = run_all(true);
        assert_eq!(results.len(), KERNELS.len());
        for (r, &name) in results.iter().zip(KERNELS) {
            assert_eq!(r.name, name);
            assert!(r.mean_ns > 0.0, "{name} measured nothing");
            assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
            assert!(r.iters > 0);
        }
    }

    #[test]
    fn json_roundtrips_kernel_names() {
        let results = run_all(true);
        let json = render_json(&results);
        assert!(missing_kernels(&json).is_empty(), "all kernels present");
        assert!(json.contains("\"mean_ns\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn missing_kernels_detects_gaps() {
        let missing = missing_kernels(&format!("{{\"{}\": {{}}}}", KERNELS[0]));
        assert!(!missing.contains(&KERNELS[0]));
        for name in &KERNELS[1..] {
            assert!(missing.contains(name), "{name} is not reported missing");
        }
    }

    #[test]
    fn unregistered_kernel_is_none() {
        assert!(run_kernel("nonesuch", true).is_none());
    }

    #[test]
    fn parse_means_roundtrips_render_json() {
        let results = run_all(true);
        let parsed = parse_means(&render_json(&results));
        assert_eq!(parsed.len(), results.len());
        for ((name, mean), r) in parsed.iter().zip(&results) {
            assert_eq!(name, r.name);
            assert!(
                (mean - r.mean_ns).abs() < 0.01,
                "{name}: {mean} vs {}",
                r.mean_ns
            );
        }
    }

    #[test]
    fn parse_means_skips_malformed_lines() {
        let json = "{\n  \"good\": {\"mean_ns\": 12.50, \"iters\": 3},\n  garbage line\n  \"bad\": {\"mean_ns\": not-a-number},\n}\n";
        assert_eq!(parse_means(json), vec![("good".to_string(), 12.5)]);
    }
}
