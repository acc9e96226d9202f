//! The `diehard-proxy` front end: replicated execution for TCP clients.
//!
//! Usage:
//!
//! ```text
//! diehard-proxy [-n REPLICAS] [--port PORT] [--preload LIB] [--seed SEED]
//!               [--pool DEPTH] [--] COMMAND [ARGS...]
//! ```
//!
//! Listens on `127.0.0.1:PORT` (default 0 = kernel-assigned; the bound
//! port is printed to stderr) and gives every accepted connection its own
//! set of `REPLICAS` differently-seeded copies of `COMMAND`: request bytes
//! are broadcast to the replicas' stdins, their stdouts are voted at 4 KiB
//! barriers, and only quorum bytes flow back to the client. The barrier is
//! not the transfer: bytes move between sockets and pipes up to 64 KiB at a
//! time, and a streaming connection retains at most (2 × REPLICAS + 1) ×
//! 64 KiB of unvoted bytes plus an outbound queue of at most 16 KiB + one
//! chunk (a connection that never streams, a few chunks). It owns 3 ×
//! REPLICAS kernel pipes, 4 × REPLICAS once it streams a request to
//! several replicas: each window is staged once in a pipe of its own per
//! replica and `tee`d to the others, not copied into every stdin.
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
    "usage: diehard-proxy [-n REPLICAS] [--port PORT] [--preload LIB] [--seed SEED]\n\
    \x20                    [--pool DEPTH] [--] COMMAND [ARGS...]\n\
    \n\
    Serves 127.0.0.1:PORT (default: kernel-assigned, printed on stderr).\n\
    Each accepted connection gets its own REPLICAS differently-seeded\n\
    copies of COMMAND (default 3): request bytes are broadcast to every\n\
    replica's stdin and responses are voted at 4 KiB barriers — clients\n\
    receive only quorum bytes.\n\
    The barrier is not the transfer: reads and writes move up to 64 KiB,\n\
    and a connection retains at most (2 x REPLICAS + 1) x 64 KiB unvoted\n\
    plus an outbound queue of at most 16 KiB + 4 KiB, and holds 3 x REPLICAS\n\
    kernel pipes (4 x REPLICAS once a request streams to several replicas).\n\
    Clients send the full request, shutdown(SHUT_WR), then read to EOF.\n\
    --seed derives deterministic per-replica seeds (default: fresh\n\
    entropy per connection); --pool pre-spawns up to DEPTH warm replica\n\
    sets so accepts skip fork/exec (0 = cold spawns, the default).";

fn main() {
    let Cli { config, port, pool } = cli::parse_env_or_exit(Front::Proxy, USAGE);
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
    if pool > 0 {
        proxy = proxy.with_pool(pool).with_pool_stats_log(true);
    }
    match proxy.local_port() {
        Ok(p) => eprintln!("diehard-proxy: listening on 127.0.0.1:{p}"),
        Err(e) => eprintln!("diehard-proxy: listening (port unknown: {e})"),
    }

    // Serve until killed; there is no orderly-shutdown signal surface. No
    // report is kept: a proxy that serves forever must not grow with the
    // connections it has served.
    static RUN_FOREVER: AtomicBool = AtomicBool::new(false);
    if let Err(e) = proxy.serve(&RUN_FOREVER, drop) {
        eprintln!("diehard-proxy: reactor failed: {e}");
        std::process::exit(1);
    }
}
