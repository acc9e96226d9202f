//! The outside-in layer ledger: one number per layer boundary, each taken
//! by timing calls into the layer's *public* functions from here — nothing
//! under `crates/` is instrumented. The traced run (`--trace 1`) reports
//! these as the per-layer metrics; they attribute, they do not gate.
//!
//! Allocator rows share one churn ring (64 live objects of seeded mixed
//! sizes, one op = free the slot's previous occupant + allocate its
//! replacement), so `partition → engine → sharded → magazine → global →
//! preload` reads as a stack with per-step deltas, glibc beside it.
//! Replication rows share one payload and one `cat` replica command.
//! Every timing is the median over the stated samples (≥ 25, except the 11
//! `sort` pairs of the launcher row) with the minimum beside it; `core.sharded.probes_per_alloc` is a count and repeats
//! exactly for a given `--seed`.

use crate::artifacts::Heap;
use crate::inputs::{heap_seed, open_loop_schedule, payload, stream, write_corpus, Rng};
use crate::jobs::Ctx;
use crate::proxy::{echo_once, stream_once, HalfClose, BLOCK};
use crate::report::{Outcome, Reading, Tally};
use crate::spec::PER_LAYER;
use crate::stats::{median, min, quantile};
use crate::sys;
use crate::workloads::proxy_short_conns::{open_loop, OPEN_RATE, REQUEST_BYTES};
use diehard_core::config::HeapConfig;
use diehard_core::engine::HeapCore;
use diehard_core::global::DieHard;
use diehard_core::magazine::MagazineHeap;
use diehard_core::partition::Partition;
use diehard_core::sharded::ShardedHeap;
use diehard_core::size_class::SizeClass;
use diehard_replicate::net::{connect_loopback, Listener};
use diehard_replicate::proxy::{Proxy, ProxySummary};
use diehard_replicate::{
    run_streamed, InputSource, LaunchConfig, Pool, Session, SessionInput, Voter,
};
use std::alloc::{GlobalAlloc, Layout};
use std::ffi::c_void;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How much the ledger measures: the full sizes, or a fast pass that still
/// produces every name (`--smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Timed samples per kernel.
    pub samples: usize,
    /// Ring operations per allocator sample.
    pub ring_ops: u64,
    /// 1 MiB blocks per replication stream sample.
    pub stream_blocks: u64,
    /// Connections in the traced open-loop slice.
    pub open_conns: usize,
    /// Plain-against-voted `sort` pairs for the launcher row (the issue's
    /// `replicated_ratio` asked for 11; a pair takes ≈ 0.5 s).
    pub sort_pairs: u64,
}

impl Scale {
    /// ≥ 25 samples for every timing but the `sort` pairs.
    pub const FULL: Self = Self {
        samples: 25,
        ring_ops: 50_000,
        stream_blocks: 4,
        open_conns: 100,
        sort_pairs: 11,
    };
    /// Three samples, small sizes.
    pub const SMOKE: Self = Self {
        samples: 3,
        ring_ops: 5_000,
        stream_blocks: 1,
        open_conns: 12,
        sort_pairs: 1,
    };
}

const RING: usize = 64;
const LARGE_BYTES: usize = 1 << 20;
const POOL_DEPTH: usize = 2;

/// The in-process instance of the allocator `libdiehard.so` wraps, built
/// the way the interposer builds its own.
static GLOBAL_HEAP: DieHard = DieHard::elastic_from_env(4);

/// `samples` timed runs of `body` (each `ops` operations) after one
/// untimed run; nanoseconds per operation for each sample.
fn time_per_op(samples: usize, ops: u64, mut body: impl FnMut()) -> Vec<f64> {
    body();
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// Median with the sample count and minimum in the note.
fn row(name: &str, unit: &'static str, samples: &[f64]) -> Reading {
    Reading::new(
        name,
        median(samples),
        unit,
        format!("median of {}, min {:.3}", samples.len(), min(samples)),
    )
}

/// The shared churn ring over any allocator: `alloc(size)` hands back a
/// handle, `free(handle)` returns it.
fn ring_churn<H: Copy>(
    scale: Scale,
    sizes: &[usize; RING],
    mut alloc: impl FnMut(usize) -> Option<H>,
    mut free: impl FnMut(H),
) -> Vec<f64> {
    let mut ring: [Option<H>; RING] = [None; RING];
    let mut i = 0usize;
    time_per_op(scale.samples, scale.ring_ops, || {
        for _ in 0..scale.ring_ops {
            let slot = i & (RING - 1);
            if let Some(old) = ring[slot].take() {
                free(old);
            }
            ring[slot] = black_box(alloc(sizes[slot]));
            i += 1;
        }
    })
}

/// The C allocation ABI of a freshly `dlopen`ed `libdiehard.so`.
/// `RTLD_LOCAL` keeps its strong symbols out of the global scope: this
/// process keeps its own allocator and reaches the interposer only through
/// these pointers.
struct PreloadAbi {
    malloc: extern "C" fn(usize) -> *mut c_void,
    free: extern "C" fn(*mut c_void),
    realloc: extern "C" fn(*mut c_void, usize) -> *mut c_void,
}

fn dlopen_preload(ctx: &Ctx) -> io::Result<PreloadAbi> {
    let mut path = ctx.art.preload.as_os_str().as_encoded_bytes().to_vec();
    path.push(0);
    let missing =
        |what: &str| io::Error::new(io::ErrorKind::NotFound, format!("libdiehard.so: {what}"));
    // SAFETY: `path` is NUL-terminated; dlopen/dlsym have no other
    // preconditions. Each transmute matches the C signature libdiehard.so
    // exports under that name (malloc, free, realloc).
    unsafe {
        let handle = libc::dlopen(path.as_ptr().cast(), libc::RTLD_NOW | libc::RTLD_LOCAL);
        if handle.is_null() {
            return Err(missing("dlopen failed"));
        }
        let sym = |name: &std::ffi::CStr| {
            let p = libc::dlsym(handle, name.as_ptr());
            if p.is_null() {
                Err(missing("symbol not exported"))
            } else {
                Ok(p)
            }
        };
        Ok(PreloadAbi {
            malloc: core::mem::transmute::<*mut c_void, extern "C" fn(usize) -> *mut c_void>(sym(
                c"malloc",
            )?),
            free: core::mem::transmute::<*mut c_void, extern "C" fn(*mut c_void)>(sym(c"free")?),
            realloc: core::mem::transmute::<
                *mut c_void,
                extern "C" fn(*mut c_void, usize) -> *mut c_void,
            >(sym(c"realloc")?),
        })
    }
}

/// The allocator stack, floor to ceiling, plus the glibc baseline.
fn allocator_rows(ctx: &Ctx, scale: Scale, out: &mut Vec<Reading>) -> io::Result<()> {
    let sizes: [usize; RING] = {
        let mut rng = Rng::new(ctx.seed, stream::LEDGER_RING);
        core::array::from_fn(|_| rng.range(8, 2047) as usize)
    };
    let config = HeapConfig::default;
    let bad_config = |e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("default heap config rejected: {e:?}"),
        )
    };

    // Floor: one partition, 16 Ki slots, half full (M = 2's steady state).
    const CAPACITY: usize = 1 << 14;
    let mut part = Partition::new(SizeClass::from_index(0), CAPACITY, CAPACITY, ctx.seed);
    for _ in 0..CAPACITY / 2 {
        part.alloc();
    }
    let partition = time_per_op(scale.samples, scale.ring_ops, || {
        for _ in 0..scale.ring_ops {
            let index = part.alloc().expect("half-full partition has room");
            part.free(black_box(index));
        }
    });
    out.push(row("core.partition.pair_ns", "ns", &partition));

    let mut engine = HeapCore::new(config(), ctx.seed).map_err(bad_config)?;
    // Two closures share the `&mut` heap, so it sits in a RefCell.
    let engine_ns = {
        let heap = std::cell::RefCell::new(&mut engine);
        ring_churn(
            scale,
            &sizes,
            |size| {
                let mut h = heap.borrow_mut();
                h.alloc(size).map(|slot| h.offset_of(slot))
            },
            |offset| {
                let _ = heap.borrow_mut().free_at(offset);
            },
        )
    };
    out.push(row("core.engine.pair_ns", "ns", &engine_ns));

    let sharded = ShardedHeap::new(config(), ctx.seed).map_err(bad_config)?;
    let sharded_ns = ring_churn(
        scale,
        &sizes,
        |size| sharded.alloc(size).map(|slot| sharded.offset_of(slot)),
        |offset| {
            let _ = sharded.free_at(offset);
        },
    );
    out.push(row("core.sharded.pair_ns", "ns", &sharded_ns));
    // A count, not a timing: a fresh heap, a fixed number of operations.
    let counted = ShardedHeap::new(config(), ctx.seed).map_err(bad_config)?;
    let mut ring = [None; RING];
    for i in 0..50_000usize {
        let slot = i & (RING - 1);
        if let Some(offset) = ring[slot].take() {
            let _ = counted.free_at(offset);
        }
        ring[slot] = counted.alloc(sizes[slot]).map(|s| counted.offset_of(s));
    }
    let (allocs, probes) = counted.probe_stats();
    out.push(Reading::new(
        "core.sharded.probes_per_alloc",
        probes as f64 / allocs as f64,
        "count",
        format!("{probes} probes ÷ {allocs} allocations; §4.2 predicts ≤ 1/(1−1/M) = 2"),
    ));

    // Elastic growth: a heap born at 1/64 of a small maximum crosses every
    // doubling of its smallest class inside the timed loop.
    let small = HeapConfig::default().with_region_bytes(1 << 18);
    let grow_ops = small.threshold(SizeClass::from_index(0)) as u64;
    let mut grow_seed = ctx.seed;
    let grow = time_per_op(scale.samples, grow_ops, || {
        grow_seed = grow_seed.wrapping_add(1);
        let heap =
            ShardedHeap::new_elastic(small.clone(), grow_seed, 6).expect("valid elastic config");
        for _ in 0..grow_ops {
            black_box(heap.try_alloc(8).placed().expect("below the 1/M cap"));
        }
    });
    out.push(row("core.sharded.grow_ns", "ns", &grow));

    let magazine = MagazineHeap::new(config(), ctx.seed).map_err(bad_config)?;
    let magazine_ns = {
        let cache = std::cell::RefCell::new(magazine.thread_cache());
        let ns = ring_churn(
            scale,
            &sizes,
            |size| {
                cache
                    .borrow_mut()
                    .alloc(size)
                    .map(|slot| magazine.offset_of(slot))
            },
            |offset| {
                let _ = cache.borrow_mut().free_at(offset);
            },
        );
        cache.borrow_mut().flush();
        ns
    };
    out.push(row("core.magazine.pair_ns", "ns", &magazine_ns));
    out.push(row(
        "core.magazine.remote_pair_ns",
        "ns",
        &remote_free(&magazine, scale, &sizes),
    ));

    let layout =
        |size: usize| Layout::from_size_align(size, 8).expect("ring sizes are valid layouts");
    // SAFETY: every pointer passed to dealloc came from alloc on the same
    // heap with the same layout, and is freed exactly once by the ring.
    let global_ns = ring_churn(
        scale,
        &sizes,
        |size| {
            Some((unsafe { GLOBAL_HEAP.alloc(layout(size)) }, size)).filter(|(p, _)| !p.is_null())
        },
        |(p, size)| unsafe { GLOBAL_HEAP.dealloc(p, layout(size)) },
    );
    out.push(row("core.global.pair_ns", "ns", &global_ns));

    let abi = dlopen_preload(ctx)?;
    let non_null = |p: *mut c_void| Some(p).filter(|p| !p.is_null());
    let preload_ns = ring_churn(
        scale,
        &sizes,
        |size| non_null((abi.malloc)(size)),
        |p| (abi.free)(p),
    );
    out.push(row("preload.pair_ns", "ns", &preload_ns));
    // SAFETY: malloc has no preconditions; free receives only pointers
    // malloc returned, once each.
    let glibc_ns = ring_churn(
        scale,
        &sizes,
        |size| non_null(unsafe { sys::malloc(size) }),
        |p| unsafe { sys::free(p) },
    );
    out.push(row("baseline.glibc.pair_ns", "ns", &glibc_ns));

    // Large objects: mmap + guard pages + munmap per pair.
    let large_ops = 64;
    let large = time_per_op(scale.samples, large_ops, || {
        for _ in 0..large_ops {
            (abi.free)(black_box((abi.malloc)(LARGE_BYTES)));
        }
    });
    out.push(row("core.large.pair_ns", "ns", &large));
    // realloc growth 16 B → 1 MiB by doubling: 16 steps per chain.
    let realloc = time_per_op(scale.samples, 16, || {
        let mut p = (abi.malloc)(16);
        let mut size = 16;
        while size < LARGE_BYTES {
            size *= 2;
            p = black_box((abi.realloc)(p, size));
        }
        (abi.free)(p);
    });
    out.push(row("preload.realloc_step_ns", "ns", &realloc));
    Ok(())
}

/// Allocation on one thread, free on another: batches cross a channel, so
/// the hand-off is amortised over 4096 objects and the number is the
/// cross-thread free path, not the channel.
fn remote_free(heap: &MagazineHeap, scale: Scale, sizes: &[usize; RING]) -> Vec<f64> {
    const BATCH: usize = 4096;
    let (to_freer, batches) = mpsc::sync_channel::<Vec<usize>>(1);
    let (done_tx, done) = mpsc::sync_channel::<()>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut cache = heap.thread_cache();
            for batch in batches {
                for offset in batch {
                    let _ = cache.free_at(offset);
                }
                cache.flush();
                let _ = done_tx.send(());
            }
        });
        let mut cache = heap.thread_cache();
        let samples = time_per_op(scale.samples, BATCH as u64, || {
            let batch: Vec<usize> = (0..BATCH)
                .filter_map(|i| cache.alloc(sizes[i & (RING - 1)]))
                .map(|slot| heap.offset_of(slot))
                .collect();
            to_freer.send(batch).expect("freer thread is alive");
            done.recv().expect("freer thread is alive");
        });
        drop(to_freer);
        samples
    })
}

/// A `cat` replica set, optionally under the interposer.
fn cat_config(ctx: &Ctx, replicas: usize, preload: bool) -> LaunchConfig {
    let mut config = LaunchConfig::new(replicas, vec!["cat".into()], Vec::new());
    config.seeds = (0..replicas as u64)
        .map(|i| heap_seed(ctx.seed, i))
        .collect();
    if preload {
        config.preload = Some(ctx.art.preload.to_string_lossy().into_owned());
    }
    config
}

/// Runs an in-process [`Proxy`] on its own thread while `body` talks to
/// its port; returns `body`'s result and the proxy's summary.
fn with_proxy<R>(
    config: LaunchConfig,
    pool: usize,
    body: impl FnOnce(u16, &AtomicUsize) -> R,
) -> io::Result<(R, ProxySummary)> {
    let proxy = Proxy::new(Listener::bind_loopback(0)?, config)?;
    let gauge = proxy.pool_gauge();
    let mut proxy = proxy.with_pool(pool);
    let port = proxy.local_port()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || proxy.run(&flag));
    let result = body(port, &gauge);
    // Release pairs with the reactor's Acquire load of the stop flag.
    stop.store(true, Ordering::Release);
    let summary = server.join().expect("proxy thread")?;
    Ok((result, summary))
}

/// The harness's own loopback echo: the floor under the proxy rows.
fn with_echo_server<R>(body: impl FnOnce(u16) -> R) -> io::Result<R> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let port = listener.local_addr()?.port();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut buf = vec![0u8; 1 << 16];
            for conn in listener.incoming() {
                // Acquire pairs with the Release store below.
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut conn) = conn else { continue };
                while let Ok(n @ 1..) = conn.read(&mut buf) {
                    if conn.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        let result = body(port);
        stop.store(true, Ordering::Release);
        // Wake the accept loop so it sees the flag.
        let _ = connect_loopback(port);
        Ok(result)
    })
}

/// Nanoseconds per byte of `stream_once` through `port`, per sample.
fn stream_ns_per_byte(
    ctx: &Ctx,
    scale: Scale,
    port: u16,
    base: &[u8],
    tally: &mut Tally,
) -> Vec<f64> {
    let bytes = scale.stream_blocks * BLOCK as u64;
    time_per_op(scale.samples, bytes, || {
        tally.record(stream_once(port, base, scale.stream_blocks, || (), ctx.tracer, 0).is_ok());
    })
}

/// The replication stack: voter, pipe transport, TCP transport, spawn,
/// pool, and the split of one short connection.
fn replication_rows(
    ctx: &Ctx,
    scale: Scale,
    out: &mut Vec<Reading>,
    tally: &mut Tally,
) -> io::Result<()> {
    let base = payload(ctx.seed, 0, BLOCK);

    let ballot = &base[..REQUEST_BYTES];
    let votes = 256;
    let voter = time_per_op(scale.samples, votes * REQUEST_BYTES as u64, || {
        let mut voter = Voter::new(3);
        for _ in 0..votes {
            black_box(voter.vote(&[Some(ballot), Some(ballot), Some(ballot)]));
        }
    });
    out.push(row("replicate.voter.ns_per_byte", "ns", &voter));

    // Pipe transport: the `diehard` launcher's engine, in process.
    let input: Vec<u8> = base
        .iter()
        .copied()
        .cycle()
        .take(scale.stream_blocks as usize * BLOCK)
        .collect();
    for (name, replicas) in [
        ("replicate.event.n3_ns_per_byte", 3),
        ("replicate.event.n1_ns_per_byte", 1),
    ] {
        let config = cat_config(ctx, replicas, false);
        let mut sink = Vec::with_capacity(input.len());
        let mut samples = Vec::with_capacity(scale.samples);
        // One untimed round first; the input copy and the output check
        // stay off the clock.
        for round in 0..=scale.samples {
            sink.clear();
            let source = InputSource::Buffer(input.clone());
            let t = Instant::now();
            let outcome = run_streamed(&config, source, &mut sink);
            let ns = t.elapsed().as_nanos() as f64;
            tally.record(
                outcome.is_ok_and(|o| !o.diverged && o.exit_code == Some(0)) && sink == input,
            );
            if round > 0 {
                samples.push(ns / input.len() as f64);
            }
        }
        out.push(row(name, "ns", &samples));
    }
    drop(input);

    // TCP transport: in-process proxy, then the bare echo floor.
    for (name, replicas) in [
        ("replicate.proxy.n3_ns_per_byte", 3),
        ("replicate.proxy.n1_ns_per_byte", 1),
    ] {
        let (samples, _) = with_proxy(cat_config(ctx, replicas, false), 0, |port, _| {
            stream_ns_per_byte(ctx, scale, port, &base, tally)
        })?;
        out.push(row(name, "ns", &samples));
    }
    let echo = with_echo_server(|port| stream_ns_per_byte(ctx, scale, port, &base, tally))?;
    out.push(row("replicate.net.echo_ns_per_byte", "ns", &echo));

    // Spawning one 3-replica set, without and with the interposer.
    for (name, preload) in [
        ("replicate.session.spawn_set_ms", false),
        ("replicate.session.spawn_set_preload_ms", true),
    ] {
        let config = cat_config(ctx, 3, preload);
        let mut samples = Vec::with_capacity(scale.samples);
        for _ in 0..scale.samples {
            let t = Instant::now();
            let mut session = Session::spawn(&config, &config.seeds, SessionInput::Streamed)?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            session.abort();
        }
        out.push(row(name, "ms", &samples));
    }

    // Pool: refilling one parked set, and taking one.
    let (mut refill, mut handoff) = (Vec::new(), Vec::new());
    for _ in 0..scale.samples {
        let mut pool = Pool::new(cat_config(ctx, 3, false), POOL_DEPTH)?;
        let t = Instant::now();
        pool.prime();
        refill.push(t.elapsed().as_secs_f64() * 1e3 / POOL_DEPTH as f64);
        let t = Instant::now();
        let taken = pool.take();
        handoff.push(t.elapsed().as_secs_f64() * 1e6);
        tally.record(taken.is_some());
        if let Some(mut session) = taken {
            session.abort();
        }
    }
    out.push(row("replicate.pool.refill_set_ms", "ms", &refill));
    out.push(row("replicate.pool.handoff_us", "us", &handoff));

    // One short connection, split: connect → voted chunk back (set-up +
    // one vote), cold and warm, and half-close → EOF (exit ballots + reap).
    let request = &base[..REQUEST_BYTES];
    let mut teardown = Vec::new();
    for (name, pool) in [
        ("replicate.proxy.first_chunk_cold_ms", 0),
        ("replicate.proxy.first_chunk_warm_ms", POOL_DEPTH),
    ] {
        let (samples, _) = with_proxy(cat_config(ctx, 3, false), pool, |port, gauge| {
            let mut samples = Vec::with_capacity(scale.samples);
            for _ in 0..scale.samples {
                // Warm rounds wait, off the clock, for a full pool.
                let deadline = Instant::now() + Duration::from_secs(10);
                while gauge.load(Ordering::Acquire) < pool && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let round = echo_once(port, request, HalfClose::AfterResponse, ctx.tracer, 0);
                tally.record(round.is_ok());
                if let Ok(times) = round {
                    samples.push(times.first_chunk.as_secs_f64() * 1e3);
                    teardown.push(times.drain.as_secs_f64() * 1e3);
                }
            }
            samples
        })?;
        out.push(row(name, "ms", &samples));
    }
    out.push(row("replicate.proxy.teardown_ms", "ms", &teardown));

    // A traced open-loop slice against an in-process pooled proxy: the
    // proxy's own pool counters say how many connections were handed a
    // warm set.
    let schedule = open_loop_schedule(ctx.seed, scale.open_conns, OPEN_RATE);
    let (open, summary) = with_proxy(cat_config(ctx, 3, true), POOL_DEPTH, |port, _| {
        open_loop(ctx, port, &schedule)
    })?;
    tally.absorb(open.tally);
    let pool = &summary.pool;
    out.push(Reading::new(
        "replicate.proxy.pool_hit_share",
        pool.handed_out as f64 / (pool.handed_out + pool.cold_spawns).max(1) as f64,
        "ratio",
        format!(
            "{} warm handoffs, {} cold spawns over {} open-loop connections at {OPEN_RATE}/s",
            pool.handed_out, pool.cold_spawns, scale.open_conns
        ),
    ));
    out.push(Reading::new(
        "replicate.proxy.conn_p95_ms",
        quantile(&open.latency_ms, 0.95).unwrap_or(f64::NAN),
        "ms",
        format!(
            "due → verified EOF over {} connections, p50 {:.3}",
            open.latency_ms.len(),
            median(&open.latency_ms)
        ),
    ));
    out.push(Reading::new(
        "loadgen.late_p95_ms",
        quantile(&open.late_ms, 0.95).unwrap_or(f64::NAN),
        "ms",
        "open-loop generator lateness; above 1 ms the run is noisy",
    ));
    Ok(())
}

/// What the interposer costs a process that barely allocates, and what
/// the whole replicated stack costs a real program.
fn process_rows(
    ctx: &Ctx,
    scale: Scale,
    out: &mut Vec<Reading>,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut tax = Vec::with_capacity(scale.samples);
    for round in 0..scale.samples as u64 {
        let mut walls = [0.0; 2];
        for (wall, heap) in walls.iter_mut().zip([
            Heap::Glibc,
            Heap::DieHard {
                seed: heap_seed(ctx.seed, round),
            },
        ]) {
            let mut cmd = ctx.art.command(&ctx.art.churn_host, heap);
            cmd.args(["--seed", "1", "--ops", "1", "--live", "1"]);
            let job = ctx.run_job(&mut cmd, "exec_tax.out", 0)?;
            tally.record(job.finished.succeeded());
            *wall = job.finished.wall.as_secs_f64() * 1e3;
        }
        tax.push(walls[1] - walls[0]);
    }
    out.push(row("preload.exec_tax_ms", "ms", &tax));

    // The paper's replicated mode, whole stack: three `sort`s under the
    // interposer behind the launcher's vote, against one plain `sort`.
    let corpus = ctx.out_dir.join("ledger.corpus");
    let facts = {
        let mut file = io::BufWriter::new(File::create(&corpus)?);
        let facts = write_corpus(ctx.seed, 16_000_000, 0, &mut file, &mut io::sink())?;
        file.flush()?;
        facts
    };
    let mut ratios = Vec::new();
    for round in 0..scale.sort_pairs {
        let mut plain = ctx.art.command("sort", Heap::Glibc);
        plain.arg("--parallel=1").stdin(File::open(&corpus)?);
        let mut voted = ctx.art.command(&ctx.art.launcher, Heap::Glibc);
        voted
            .args([
                "-n",
                "3",
                "--seed",
                &heap_seed(ctx.seed, round).to_string(),
                "--preload",
            ])
            .arg(&ctx.art.preload)
            .args(["--", "sort", "--parallel=1"])
            .stdin(File::open(&corpus)?);
        let mut walls = [0.0; 2];
        let mut sizes = [0; 2];
        for (i, cmd) in [&mut plain, &mut voted].into_iter().enumerate() {
            let job = ctx.run_job(cmd, &format!("ledger.sort.{i}.out"), 0)?;
            walls[i] = job.finished.wall.as_secs_f64();
            sizes[i] = std::fs::metadata(&job.stdout)?.len();
            tally.record(job.finished.succeeded() && sizes[i] == facts.bytes);
        }
        ratios.push(walls[1] / walls[0]);
    }
    out.push(row("replicate.launcher.sort_ratio", "x", &ratios));
    Ok(())
}

/// A fixed dependent-multiply loop: nanoseconds per step. Timed before and
/// after every workload, it says whether the machine itself changed speed
/// under the run.
#[must_use]
pub fn spin_ns() -> f64 {
    const STEPS: u64 = 1 << 22;
    let samples = time_per_op(5, STEPS, || {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
    });
    median(&samples)
}

/// Renders the allocator rows as one table with per-step deltas.
#[must_use]
pub fn render_allocator_ledger(outcome: &Outcome) -> String {
    let stack = [
        "core.partition.pair_ns",
        "core.engine.pair_ns",
        "core.sharded.pair_ns",
        "core.magazine.pair_ns",
        "core.global.pair_ns",
        "preload.pair_ns",
    ];
    let mut table = String::from("== allocator ledger (ns per free+malloc pair, same ring)\n");
    let mut previous: Option<f64> = None;
    for name in stack {
        let Some(value) = outcome.metric(name) else {
            continue;
        };
        let delta = previous.map_or(String::new(), |p| format!("{:+9.2}", value - p));
        table.push_str(&format!("  {name:<28} {value:>9.2} {delta}\n"));
        previous = Some(value);
    }
    if let Some(glibc) = outcome.metric("baseline.glibc.pair_ns") {
        table.push_str(&format!(
            "  {:<28} {glibc:>9.2}  (beside the stack)\n",
            "baseline.glibc.pair_ns"
        ));
    }
    table
}

/// Measures every per-layer metric.
///
/// # Errors
///
/// Harness faults: an artifact that cannot be loaded, a proxy or session
/// that cannot start. Failed operations inside a kernel are counted.
pub fn run(ctx: &Ctx, scale: Scale, spin_before_ns: f64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    allocator_rows(ctx, scale, &mut out.metrics)?;
    process_rows(ctx, scale, &mut out.metrics, &mut out.tally)?;
    replication_rows(ctx, scale, &mut out.metrics, &mut out.tally)?;
    out.metrics.push(Reading::new(
        "machine.spin_ns",
        spin_before_ns,
        "ns",
        "per step of a fixed multiply loop, before the run; the after value is printed beside it",
    ));
    // Beside every row, the end-to-end metric it should move, and where.
    for reading in &mut out.metrics {
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == reading.name)
            .map_or(&[][..], |m| m.moves);
        for (metric, workload) in moves {
            reading
                .note
                .push_str(&format!("; → {metric} on {workload}"));
        }
    }
    Ok(out)
}
