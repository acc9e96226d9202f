//! The `diehard-proxy` front end: replicated execution for TCP clients.
//!
//! Usage:
//!
//! ```text
//! diehard-proxy [-n REPLICAS] [--port PORT] [--chunk BYTES] [--cap BYTES]
//!               [--preload LIB] [--seed SEED] [--pool DEPTH] [--] COMMAND [ARGS...]
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

use diehard_replicate::cli::{self, Cli, Front};
use diehard_replicate::net::Listener;
use diehard_replicate::proxy::Proxy;
use std::sync::atomic::AtomicBool;

const USAGE: &str =
    "usage: diehard-proxy [-n REPLICAS] [--port PORT] [--chunk BYTES] [--cap BYTES]\n\
    \x20                    [--preload LIB] [--seed SEED] [--pool DEPTH] [--] COMMAND [ARGS...]\n\
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
    accepts skip fork/exec (0 = cold spawns, the default).";

fn main() {
    let Cli {
        config,
        port,
        cap,
        pool,
    } = cli::parse_env_or_exit(Front::Proxy, USAGE);
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
    if pool > 0 {
        proxy = proxy.with_pool(pool).with_pool_stats_log(true);
    }
    match proxy.local_port() {
        Ok(p) => eprintln!("diehard-proxy: listening on 127.0.0.1:{p}"),
        Err(e) => eprintln!("diehard-proxy: listening (port unknown: {e})"),
    }

    // Serve until killed; there is no orderly-shutdown signal surface.
    static RUN_FOREVER: AtomicBool = AtomicBool::new(false);
    if let Err(e) = proxy.run(&RUN_FOREVER) {
        eprintln!("diehard-proxy: reactor failed: {e}");
        std::process::exit(1);
    }
}
