//! The `diehard-proxy` front end: replicated execution for TCP clients.
//!
//! Usage:
//!
//! ```text
//! diehard-proxy [-n REPLICAS] [--port PORT] [--chunk BYTES] [--cap BYTES]
//!               [--preload LIB] [--seed SEED] [--pool DEPTH] -- COMMAND [ARGS...]
//! diehard-proxy --smoke
//! diehard-proxy --pool-smoke
//! ```
//!
//! Listens on `127.0.0.1:PORT` (default 0 = kernel-assigned; the bound
//! port is printed to stderr) and gives every accepted connection its own
//! set of `REPLICAS` differently-seeded copies of `COMMAND`: request bytes
//! are broadcast to the replicas' stdins, their stdouts are voted at
//! `BYTES`-sized barriers, and only quorum bytes flow back to the client.
//! `--chunk` sets the barrier only: bytes move between sockets and pipes up
//! to 64 KiB at a time whatever it is, and a streaming connection retains
//! at most (2 × REPLICAS + 1) × 64 KiB of unvoted bytes plus a `--cap`-sized
//! outbound queue (a connection that never streams, a few chunks).
//! Clients send their whole request, half-close (`shutdown(SHUT_WR)`), and
//! read the voted response to EOF.
//!
//! `--pool DEPTH` keeps up to `DEPTH` complete replica sets pre-spawned
//! and parked, so an accepted connection takes a ready set in O(1) instead
//! of paying fork/exec at accept time (~3.5 ms for three replicas); the
//! pool refills in the background and a stats line is printed per retired
//! connection. Seed discipline makes pooling invisible to vote outcomes.
//!
//! `--smoke` runs a self-contained loopback check — three `/bin/cat`
//! replicas echoing one client's payload through a full voted session —
//! and exits 0 on byte-exact agreement (the CI smoke hook). `--pool-smoke`
//! is the warm-path sibling: it serves 5 sequential connections from a
//! depth-2 pool, waiting for warmth before each, and exits 0 only if the
//! echoes are byte-exact *and* the stats line reports ≥ 3 pool hits.

use diehard_replicate::net::shutdown_write;
use diehard_replicate::net::{connect_loopback, Listener};
use diehard_replicate::proxy::Proxy;
use diehard_replicate::LaunchConfig;
use std::io::{Read, Write};
use std::sync::atomic::AtomicBool;

fn usage() -> ! {
    eprintln!(
        "usage: diehard-proxy [-n REPLICAS] [--port PORT] [--chunk BYTES] [--cap BYTES]\n\
         \x20                    [--preload LIB] [--seed SEED] [--pool DEPTH] -- COMMAND [ARGS...]\n\
         \x20      diehard-proxy --smoke\n\
         \x20      diehard-proxy --pool-smoke\n\
         \n\
         Serves 127.0.0.1:PORT (default: kernel-assigned, printed on stderr).\n\
         Each accepted connection gets its own REPLICAS differently-seeded\n\
         copies of COMMAND (default 3): request bytes are broadcast to every\n\
         replica's stdin and responses are voted at BYTES-sized barriers\n\
         (default 4096; power of two) — clients receive only quorum bytes.\n\
         The barrier is not the transfer: reads and writes move up to 64 KiB,\n\
         and a connection retains at most (2 x REPLICAS + 1) x 64 KiB unvoted.\n\
         Clients send the full request, shutdown(SHUT_WR), then read to EOF.\n\
         --cap bounds the per-connection outbound queue (default 4 x BYTES;\n\
         the queue holds at most cap + BYTES); --seed derives\n\
         deterministic per-replica seeds (default: fresh entropy per\n\
         connection); --pool pre-spawns up to DEPTH warm replica sets so\n\
         accepts skip fork/exec (0 = cold spawns, the default); --smoke\n\
         runs a loopback self-test and exits; --pool-smoke does the same\n\
         through a depth-2 pool and asserts >= 3 warm handoffs."
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut replicas = 3usize;
    let mut port = 0u16;
    let mut chunk: Option<usize> = None;
    let mut cap: Option<usize> = None;
    let mut preload: Option<String> = None;
    let mut master_seed: Option<u64> = None;
    let mut pool_depth = 0usize;
    let mut smoke = false;
    let mut pool_smoke = false;
    let mut command: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-n" | "--replicas" => {
                i += 1;
                replicas = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--chunk" => {
                i += 1;
                chunk = args.get(i).and_then(|s| s.parse().ok());
                if chunk.is_none() {
                    usage();
                }
            }
            "--cap" => {
                i += 1;
                cap = args.get(i).and_then(|s| s.parse().ok());
                if cap.is_none() {
                    usage();
                }
            }
            "--preload" => {
                i += 1;
                preload = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                master_seed = args.get(i).and_then(|s| s.parse().ok());
                if master_seed.is_none() {
                    usage();
                }
            }
            "--pool" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(d) => pool_depth = d,
                    None => usage(),
                }
            }
            "--smoke" => smoke = true,
            "--pool-smoke" => pool_smoke = true,
            "--" => {
                command = args[i + 1..].to_vec();
                break;
            }
            "-h" | "--help" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    if smoke {
        std::process::exit(run_smoke());
    }
    if pool_smoke {
        std::process::exit(run_pool_smoke());
    }
    if command.is_empty() || replicas == 0 || replicas == 2 {
        usage();
    }

    let mut config = LaunchConfig::new(replicas, command, Vec::new());
    config.preload = preload;
    if let Some(c) = chunk {
        config.chunk = c;
    }
    if let Some(seed) = master_seed {
        config.seeds = (0..replicas as u64)
            .map(|i| diehard_core::rng::splitmix(seed ^ (i + 1)))
            .collect();
    }

    let listener = match Listener::bind_loopback(port) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("diehard-proxy: bind 127.0.0.1:{port} failed: {e}");
            std::process::exit(1);
        }
    };
    let mut proxy = match Proxy::new(listener, config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("diehard-proxy: {e}");
            std::process::exit(1);
        }
    };
    if let Some(bytes) = cap {
        proxy = proxy.with_out_cap(bytes);
    }
    if pool_depth > 0 {
        proxy = proxy.with_pool(pool_depth).with_pool_stats_log(true);
    }
    match proxy.local_port() {
        Ok(p) => eprintln!("diehard-proxy: listening on 127.0.0.1:{p}"),
        Err(e) => eprintln!("diehard-proxy: listening (port unknown: {e})"),
    }

    // Serve until killed; there is no orderly-shutdown signal surface.
    static RUN_FOREVER: AtomicBool = AtomicBool::new(false);
    match proxy.run(&RUN_FOREVER) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("diehard-proxy: reactor failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Warm-pool self-test: 5 sequential voted `/bin/cat` echoes served from a
/// depth-2 pool, waiting for the pool to report warmth before each
/// connection. Passes only if every echo is byte-exact AND the stats
/// report at least 3 warm handoffs (pool hits).
fn run_pool_smoke() -> i32 {
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = match Listener::bind_loopback(0) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("diehard-proxy: pool-smoke bind failed: {e}");
            return 1;
        }
    };
    let mut proxy = match Proxy::new(listener, config) {
        Ok(p) => p.with_pool(2).with_pool_stats_log(true),
        Err(e) => {
            eprintln!("diehard-proxy: pool-smoke setup failed: {e}");
            return 1;
        }
    };
    let port = match proxy.local_port() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("diehard-proxy: pool-smoke port lookup failed: {e}");
            return 1;
        }
    };
    let gauge = proxy.pool_gauge();
    static STOP: AtomicBool = AtomicBool::new(false);
    let server = std::thread::spawn(move || proxy.run(&STOP));

    let payload = b"warm pool smoke payload\n".to_vec();
    let verdict = (|| -> std::io::Result<usize> {
        let mut exact = 0usize;
        for round in 0..5 {
            // Wait until at least one set is parked, so this connection is
            // a guaranteed warm handoff.
            let t0 = std::time::Instant::now();
            while gauge.load(std::sync::atomic::Ordering::Acquire) == 0 {
                if t0.elapsed() > std::time::Duration::from_secs(10) {
                    eprintln!("diehard-proxy: pool-smoke: pool never warmed (round {round})");
                    return Ok(exact);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let mut stream = connect_loopback(port)?;
            stream.write_all(&payload)?;
            shutdown_write(&stream)?;
            let mut echoed = Vec::new();
            stream.read_to_end(&mut echoed)?;
            if echoed == payload {
                exact += 1;
            }
        }
        Ok(exact)
    })();

    STOP.store(true, std::sync::atomic::Ordering::Release);
    let summary = server.join().expect("proxy thread");
    match (verdict, summary) {
        (Ok(exact), Ok(summary)) => {
            let hits = summary.pool.handed_out;
            eprintln!(
                "diehard-proxy: pool depth=2 spawned={} handed_out={} reaped_idle={} cold={}",
                summary.pool.spawned, hits, summary.pool.reaped_idle, summary.pool.cold_spawns
            );
            if exact == 5 && summary.diverged == 0 && hits >= 3 {
                eprintln!("diehard-proxy: pool-smoke OK (5/5 byte-exact, {hits} pool hits)");
                0
            } else {
                eprintln!(
                    "diehard-proxy: pool-smoke FAILED: {exact}/5 byte-exact, {} diverged, {hits} pool hits (need >= 3)",
                    summary.diverged
                );
                1
            }
        }
        (Err(e), _) => {
            eprintln!("diehard-proxy: pool-smoke FAILED: {e}");
            1
        }
        (_, Err(e)) => {
            eprintln!("diehard-proxy: pool-smoke FAILED: reactor error: {e}");
            1
        }
    }
}

/// Loopback self-test: one voted `/bin/cat` session, byte-exact echo.
fn run_smoke() -> i32 {
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = match Listener::bind_loopback(0) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("diehard-proxy: smoke bind failed: {e}");
            return 1;
        }
    };
    let mut proxy = match Proxy::new(listener, config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("diehard-proxy: smoke setup failed: {e}");
            return 1;
        }
    };
    let port = match proxy.local_port() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("diehard-proxy: smoke port lookup failed: {e}");
            return 1;
        }
    };
    static STOP: AtomicBool = AtomicBool::new(false);
    let server = std::thread::spawn(move || proxy.run(&STOP));

    // A payload spanning several chunks, so real barriers resolve.
    let payload: Vec<u8> = (0..32_768u32).map(|i| (i % 251) as u8).collect();
    let verdict = (|| -> std::io::Result<bool> {
        let mut stream = connect_loopback(port)?;
        let to_send = payload.clone();
        let writer = {
            let stream = stream.try_clone()?;
            std::thread::spawn(move || {
                let mut stream = stream;
                let _ = stream.write_all(&to_send);
                let _ = shutdown_write(&stream);
            })
        };
        let mut echoed = Vec::new();
        stream.read_to_end(&mut echoed)?;
        writer.join().expect("writer thread");
        Ok(echoed == payload)
    })();

    STOP.store(true, std::sync::atomic::Ordering::Release);
    let summary = server.join().expect("proxy thread");
    match (verdict, summary) {
        (Ok(true), Ok(summary)) if summary.diverged == 0 => {
            eprintln!(
                "diehard-proxy: smoke OK ({} bytes voted through 3 replicas)",
                payload.len()
            );
            0
        }
        (Ok(true), Ok(summary)) => {
            eprintln!(
                "diehard-proxy: smoke FAILED: {} diverged session(s)",
                summary.diverged
            );
            1
        }
        (Ok(false), _) => {
            eprintln!("diehard-proxy: smoke FAILED: echoed bytes differ");
            1
        }
        (Err(e), _) => {
            eprintln!("diehard-proxy: smoke FAILED: {e}");
            1
        }
        (_, Err(e)) => {
            eprintln!("diehard-proxy: smoke FAILED: reactor error: {e}");
            1
        }
    }
}
