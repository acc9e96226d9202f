//! The `diehard` launcher (§5.1).
//!
//! "The diehard command takes three arguments: the path to the replicated
//! variant of the DieHard memory allocator (a dynamically-loadable
//! library), the number of replicas to create, and the application name."
//!
//! Usage:
//!
//! ```text
//! diehard [-n REPLICAS] [--chunk BYTES] [--preload LIB] [--seed SEED] [--] COMMAND [ARGS...]
//! ```
//!
//! Standard input is broadcast to all replicas **incrementally** (never
//! buffered whole — arbitrary-length and interactive streams work) and
//! standard output carries the voted output, committed as each `--chunk`
//! barrier resolves. Exit status: the replicas' *agreed* exit status on
//! agreement (so a command that fails identically everywhere keeps its
//! status), 2 on detected divergence (the uninitialized-read signal), and
//! 1 on usage or launch errors. As with any status-forwarding wrapper
//! (`env`, `nice`, `ssh`), an agreed status of 1 or 2 is indistinguishable
//! from the launcher's own sentinels by code alone — the stderr diagnostics
//! (`diehard: ...`) disambiguate.

use diehard_replicate::cli::{self, Front};
use diehard_replicate::{run_streamed, InputSource};
use std::os::unix::io::AsFd;

const USAGE: &str = "usage: diehard [-n REPLICAS] [--chunk BYTES] [--preload LIB] [--seed SEED] [--] COMMAND [ARGS...]\n\
    \n\
    Runs COMMAND in REPLICAS differently-seeded replicas (default 3),\n\
    streaming stdin to all and voting on stdout at BYTES-sized barriers\n\
    (default 4096; a bounded power of two).\n\
    Exits with the replicas' agreed status, or 2 on divergence.\n\
    Each replica receives a unique DIEHARD_SEED; --preload exports\n\
    LD_PRELOAD for C binaries using libdiehard-style interposition.";

fn main() {
    let config = cli::parse_env_or_exit(Front::Launcher, USAGE).config;

    // Hand the engine a duplicate of our stdin descriptor (close-on-exec,
    // so no replica inherits it) and our locked stdout: input is streamed
    // on demand and each voted chunk is committed the moment its barrier
    // resolves.
    let stdout = std::io::stdout();
    let mut sink = stdout.lock();
    let result = std::io::stdin()
        .as_fd()
        .try_clone_to_owned()
        .and_then(|fd| run_streamed(&config, InputSource::Fd(fd), &mut sink));
    match result {
        Ok(outcome) => {
            drop(sink);
            // Forward the winning replica's captured stderr (first
            // ≤ `--chunk` bytes) before the launcher's own diagnostics.
            if !outcome.stderr.is_empty() {
                use std::io::Write;
                let _ = std::io::stderr().write_all(&outcome.stderr);
            }
            if outcome.stderr_dropped > 0 {
                eprintln!(
                    "diehard: replica stderr truncated ({} bytes dropped)",
                    outcome.stderr_dropped
                );
            }
            if outcome.diverged {
                eprintln!("diehard: replicas diverged (possible uninitialized read); terminated");
                std::process::exit(2);
            }
            if !outcome.killed.is_empty() {
                eprintln!(
                    "diehard: killed {} disagreeing replica(s)",
                    outcome.killed.len()
                );
            }
            match outcome.exit_code {
                Some(code) => std::process::exit(code),
                None => {
                    eprintln!("diehard: every replica crashed");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("diehard: launch failed: {e}");
            std::process::exit(1);
        }
    }
}
