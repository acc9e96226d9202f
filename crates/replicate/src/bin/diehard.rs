//! The `diehard` launcher (§5.1).
//!
//! "The diehard command takes three arguments: the path to the replicated
//! variant of the DieHard memory allocator (a dynamically-loadable
//! library), the number of replicas to create, and the application name."
//!
//! Usage:
//!
//! ```text
//! diehard [-n REPLICAS] [--chunk BYTES] [--preload LIB] [--seed SEED] -- COMMAND [ARGS...]
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

use diehard_replicate::{run_streamed, InputSource, LaunchConfig};
use std::os::unix::io::AsFd;

fn usage() -> ! {
    eprintln!(
        "usage: diehard [-n REPLICAS] [--chunk BYTES] [--preload LIB] [--seed SEED] -- COMMAND [ARGS...]\n\
         \n\
         Runs COMMAND in REPLICAS differently-seeded replicas (default 3),\n\
         streaming stdin to all and voting on stdout at BYTES-sized barriers\n\
         (default 4096; a bounded power of two).\n\
         Exits with the replicas' agreed status, or 2 on divergence.\n\
         Each replica receives a unique DIEHARD_SEED; --preload exports\n\
         LD_PRELOAD for C binaries using libdiehard-style interposition."
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut replicas = 3usize;
    let mut chunk: Option<usize> = None;
    let mut preload: Option<String> = None;
    let mut master_seed: Option<u64> = None;
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
            "--chunk" => {
                i += 1;
                chunk = args.get(i).and_then(|s| s.parse().ok());
                if chunk.is_none() {
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
            "--" => {
                command = args[i + 1..].to_vec();
                break;
            }
            "-h" | "--help" => usage(),
            other if command.is_empty() && !other.starts_with('-') => {
                command = args[i..].to_vec();
                break;
            }
            _ => usage(),
        }
        i += 1;
    }
    if command.is_empty() || replicas == 0 || replicas == 2 {
        usage();
    }

    let mut config = LaunchConfig::new(replicas, command, Vec::new());
    config.preload = preload;
    if let Some(c) = chunk {
        config.chunk = c; // validated (pow2, bounded) at launch
    }
    if let Some(seed) = master_seed {
        config.seeds = (0..replicas as u64)
            .map(|i| diehard_core::rng::splitmix(seed ^ (i + 1)))
            .collect();
    }

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
