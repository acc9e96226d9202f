//! # diehard-replicate
//!
//! Process-level replication (§5): "DieHard spawns each replica in a
//! separate process ... Each replica receives its standard input from
//! DieHard via a pipe ... DieHard manages output from the replicas by
//! periodically synchronizing at barriers. Whenever all currently-live
//! replicas terminate or fill their output buffers (currently 4K each, the
//! unit of transfer of a pipe), the voter compares the contents of each
//! replica's output buffer."
//!
//! The paper's launcher points `LD_PRELOAD` at `libdiehard.so` so every
//! replica gets a differently-seeded allocator. The Rust analogue: child
//! programs link the `diehard_core::global::DieHard` allocator and read
//! their seed from `DIEHARD_SEED`, which this launcher sets uniquely per
//! replica. (An `LD_PRELOAD` passthrough is provided for C binaries.)
//!
//! The engine is a pure vote core under a thin process edge, driven by
//! transports:
//!
//! * [`voter`] — the §5.2 vote with no process and no descriptor in it:
//!   the chunk [`Voter`] (its tie rule, [`Ties`], is set in code), and the
//!   [`VoteCore`] that runs one voted stream on it — the bounded input
//!   window, per-replica stdout buffers voted a chunk at a time, the kills
//!   (each with its barrier index), bounded stderr captures, and the
//!   closing stderr/exit ballots. Bytes *move* a pipe-full ([`TRANSFER`],
//!   64 KiB) at a time and are *voted* a [`CHUNK`] (4 KiB) at a time. Peak
//!   memory per stream is `(2 × replicas + 1) × TRANSFER` retained bytes no
//!   matter how much the replicas produce, so long-running/server-style
//!   commands work. The in-process `diehard_runtime::ReplicaSet` votes through the
//!   same core;
//! * [`session`] — the process edge for **one** client stream: spawns the
//!   replicas, moves bytes between their non-blocking pipes and the core
//!   (a window of more than one chunk that several replicas take is put
//!   into the kernel once, in a staging pipe per replica filled by one
//!   write and a `tee(2)` each, and `splice(2)`d into the stdins — so a
//!   streaming session owns `4 × replicas` kernel pipes, not `3 ×
//!   replicas`, and the same user-space bound), SIGKILLs the replicas the
//!   core outvotes, and reaps them all;
//! * [`reactor`] — a generic `poll(2)` registration/dispatch loop that
//!   knows nothing about replicas, and the crate's only `unsafe`: `poll`,
//!   `fcntl`, `tee` and `splice`;
//! * transports — [`event`] drives a session between a launcher's stdin and
//!   stdout, and [`proxy`] serves the paper's squid scenario for real: a
//!   TCP front end that fans each accepted connection to its own N-replica
//!   set, votes response chunks at the same barriers, and returns only
//!   quorum bytes — many concurrent voted sessions multiplexed over one
//!   reactor.
//!
//! Orthogonal to the layers, [`pool`] keeps complete replica sets
//! pre-spawned and parked (`diehard-proxy --pool <depth>`), so the proxy
//! takes a ready [`Session`] in O(1) instead of paying the
//! multi-millisecond fork/exec at accept time; seed discipline makes the
//! pool invisible to vote outcomes, and depth 0 is the byte-identical cold
//! path.
//!
//! [`run_replicated`] is a convenience wrapper over [`run_streamed`] for
//! in-memory input/output; the `diehard` binary streams its real
//! stdin/stdout through the same engine and the same bounded input window,
//! and the `diehard-proxy` binary serves the TCP front end. Both
//! binaries read their command line through one parser, [`cli`]. The
//! surviving replicas' exit statuses are voted as a final ballot (signal
//! deaths count as crashes, nonzero exits do not), so a command that
//! legitimately fails identically everywhere keeps both its output and
//! its status.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod event;
pub mod net;
pub mod pool;
pub mod proxy;
pub mod reactor;
pub mod session;
pub mod voter;

pub use event::{run_streamed, InputSource, StreamOutcome};
pub use pool::{Pool, PoolStats};
pub use session::{Phase, Session, SessionInput, SessionIo};
pub use voter::{ChunkVote, Ties, VoteCore, Voter};

/// The barrier: how many bytes of output every live replica must have
/// produced before a vote — the pipe-buffer transfer unit the paper votes on
/// (§5.2, "4K, the unit of transfer of a pipe"). Every ballot is ≤ this
/// many bytes, so it is also the most a corrupted replica emits past its
/// first wrong byte before it is killed, the least a response waits for,
/// and the cap on each stderr capture.
pub const CHUNK: usize = 4096;

/// The transfer unit: how far, in bytes, each replica's stdout buffer and
/// the broadcast input window may run ahead of the vote. One kernel pipe
/// buffer: a `read` this size empties the pipe a blocked replica is
/// writing to, so the replica is woken once per 64 KiB rather than once
/// per page, and the reactor pays its system calls per transfer instead of
/// per chunk. The barrier itself stays [`CHUNK`]. Measured over a 512 MiB
/// stream through `-n 3 cat` (4 KiB transfers: 1 217 k system calls,
/// 200 MB/s): 16 KiB 323 k and 392 MB/s, 32 KiB 187 k and 438 MB/s,
/// 64 KiB 108 k and 439 MB/s; beyond a pipe's capacity there is nothing
/// more to read at once.
pub const TRANSFER: usize = 65536;

/// Configuration for a replicated launch.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Number of replicas (1, or at least 3 — a 1-1 tie cannot be broken;
    /// [`validated`](Self::validated) refuses the rest).
    pub replicas: usize,
    /// The command and its arguments.
    pub command: Vec<String>,
    /// Bytes broadcast to every replica's standard input.
    pub input: Vec<u8>,
    /// Explicit per-replica seeds; when empty, true-random seeds are drawn
    /// (the paper seeds each replica from `/dev/urandom`).
    pub seeds: Vec<u64>,
    /// Optional path exported as `LD_PRELOAD` for C binaries using the
    /// original interposition mechanism.
    pub preload: Option<String>,
}

impl LaunchConfig {
    /// A config with `replicas` copies of `command`, reading `input`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0 or 2, or `command` is empty.
    #[must_use]
    pub fn new(replicas: usize, command: Vec<String>, input: Vec<u8>) -> Self {
        assert!(replicas != 0, "at least one replica");
        assert!(replicas != 2, "two replicas cannot vote (§6)");
        assert!(!command.is_empty(), "command required");
        Self {
            replicas,
            command,
            input,
            seeds: Vec::new(),
            preload: None,
        }
    }

    /// Validates the replica count, which [`new`](Self::new) asserts but a
    /// struct literal skips. Every session, proxy and pool is built through
    /// this check.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] when `replicas` is 0
    /// (nothing would run, and nothing would vote) or 2 (a 1-1 tie cannot be
    /// broken, §6).
    pub fn validated(&self) -> std::io::Result<()> {
        if self.replicas == 0 || self.replicas == 2 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} replicas cannot vote (use 1, or 3 or more)",
                    self.replicas
                ),
            ));
        }
        Ok(())
    }
}

/// The result of a replicated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedExit {
    /// The voted output committed to the caller.
    pub output: Vec<u8>,
    /// Whether the voter detected an unresolvable divergence (the §6.3
    /// uninitialized-read signal): no strict plurality agreed on some
    /// output chunk or on the final exit-status ballot.
    pub diverged: bool,
    /// Replica indices killed for disagreeing or crashing, in kill order.
    pub killed: Vec<usize>,
    /// The exit status the surviving quorum agreed on; `None` when the run
    /// diverged or no replica survived. Nonzero statuses are *not* crashes:
    /// a command that fails identically in every replica keeps its output
    /// and forwards its status.
    pub exit_code: Option<i32>,
    /// The quorum-agreed standard error: the first ≤ [`CHUNK`] bytes
    /// each replica wrote (bytes beyond the cap are drained and discarded
    /// so a replica never blocks on stderr) are voted as a ballot after the
    /// streams end, and the winners' capture is forwarded. Empty on
    /// divergence or total crash.
    pub stderr: Vec<u8>,
}

/// Spawns the replicas, broadcasts `config.input`, votes on stdout at
/// [`CHUNK`] barriers while the replicas run, and returns the committed
/// output.
///
/// This is a thin in-memory wrapper over [`run_streamed`] — same engine,
/// same bounded input window, same incremental voting and mid-stream
/// kills; only the input source (`config.input`, read in place one window
/// at a time) and the sink (a `Vec`) differ from the launcher binary.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] when `config.seeds` is
/// non-empty but does not provide exactly one seed per replica, or when
/// [`LaunchConfig::validated`] refuses the replica count; otherwise
/// propagates process-spawn and pipe I/O failures. Replica *crashes* are
/// not errors — the voter handles them by decrementing the live set.
pub fn run_replicated(config: &LaunchConfig) -> std::io::Result<ReplicatedExit> {
    let mut output = Vec::new();
    let outcome = event::stream(config, &mut &config.input[..], None, &mut output)?;
    Ok(ReplicatedExit {
        output,
        diverged: outcome.diverged,
        killed: outcome.killed,
        exit_code: outcome.exit_code,
        stderr: outcome.stderr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        vec!["/bin/sh".into(), "-c".into(), script.into()]
    }

    #[test]
    fn unanimous_replicas_commit_output() {
        let cfg = LaunchConfig::new(3, sh("cat"), b"hello replicated world\n".to_vec());
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output, b"hello replicated world\n");
        assert!(exit.killed.is_empty());
    }

    #[test]
    fn seed_dependent_output_diverges() {
        // Every replica prints its own seed: no two agree → detected.
        let cfg = LaunchConfig::new(3, sh("echo $DIEHARD_SEED"), Vec::new());
        let exit = run_replicated(&cfg).unwrap();
        assert!(exit.diverged, "distinct outputs must trigger divergence");
    }

    #[test]
    fn majority_outvotes_a_bad_replica() {
        let mut cfg = LaunchConfig::new(
            3,
            sh("if [ \"$DIEHARD_SEED\" = \"7\" ]; then echo bad; else echo good; fi"),
            Vec::new(),
        );
        cfg.seeds = vec![1, 7, 2];
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output, b"good\n");
        assert_eq!(exit.killed, vec![1], "replica with seed 7 must be killed");
    }

    #[test]
    fn crashing_replica_is_tolerated() {
        // Seed-7 dies from a genuine signal (SIGSEGV) before producing
        // output; the survivors' quorum carries both output and status.
        let mut cfg = LaunchConfig::new(
            3,
            sh("if [ \"$DIEHARD_SEED\" = \"7\" ]; then kill -s SEGV $$; fi; echo ok"),
            Vec::new(),
        );
        cfg.seeds = vec![7, 1, 2];
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output, b"ok\n");
        assert!(exit.killed.contains(&0));
        assert_eq!(exit.exit_code, Some(0));
    }

    #[test]
    fn unanimous_nonzero_exit_is_not_a_crash() {
        // The grep-with-zero-matches shape: output, then exit 1, in every
        // replica. The old voter pre-killed all three and dropped the
        // output; now the output commits and the status is the ballot.
        let cfg = LaunchConfig::new(3, sh("printf '0\\n'; exit 1"), Vec::new());
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output, b"0\n");
        assert!(exit.killed.is_empty(), "identical failures are agreement");
        assert_eq!(exit.exit_code, Some(1));
    }

    #[test]
    fn exit_status_is_voted_like_a_chunk() {
        // Same output everywhere, but seed 7 exits 5: it loses the final
        // ballot 2-1 and the agreed status 0 wins.
        let mut cfg = LaunchConfig::new(
            3,
            sh("echo same; if [ \"$DIEHARD_SEED\" = \"7\" ]; then exit 5; fi"),
            Vec::new(),
        );
        cfg.seeds = vec![1, 7, 2];
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output, b"same\n");
        assert_eq!(exit.killed, vec![1], "status loser is recorded as killed");
        assert_eq!(exit.exit_code, Some(0));
    }

    #[test]
    fn seed_count_mismatch_is_invalid_input() {
        let mut cfg = LaunchConfig::new(3, sh("cat"), Vec::new());
        cfg.seeds = vec![1, 2]; // 2 seeds for 3 replicas: hard error now
        let err = run_replicated(&cfg).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn single_replica_passthrough() {
        let cfg = LaunchConfig::new(1, sh("cat"), b"solo\n".to_vec());
        let exit = run_replicated(&cfg).unwrap();
        assert_eq!(exit.output, b"solo\n");
    }

    #[test]
    fn large_output_voted_in_chunks() {
        // 3 replicas each emit ~34 KB of identical output: nine chunks,
        // all committed.
        let cfg = LaunchConfig::new(
            3,
            sh("i=0; while [ $i -lt 1000 ]; do echo 'line of deterministic output data'; i=$((i+1)); done"),
            Vec::new(),
        );
        let exit = run_replicated(&cfg).unwrap();
        assert!(!exit.diverged);
        assert_eq!(exit.output.len(), 34_000, "1000 x 34-byte lines");
    }

    #[test]
    #[should_panic(expected = "two replicas cannot vote")]
    fn two_replicas_rejected() {
        let _ = LaunchConfig::new(2, sh("cat"), Vec::new());
    }

    /// The fields are public, so a struct literal skips `new`'s asserts:
    /// every entry that launches replicas refuses such a config instead of
    /// running it — 0 replicas would report success for a command that never
    /// ran, and 2 cannot vote.
    #[test]
    fn replica_counts_that_cannot_vote_are_invalid_input() {
        use std::io::ErrorKind::InvalidInput;
        for replicas in [0, 2] {
            let config = LaunchConfig {
                replicas,
                ..LaunchConfig::new(3, sh("cat"), b"x\n".to_vec())
            };
            let kind = |e: std::io::Error| e.kind();
            assert_eq!(
                run_replicated(&config).err().map(kind),
                Some(InvalidInput),
                "run_replicated with {replicas} replicas"
            );
            let listener = net::Listener::bind_loopback(0).expect("loopback bind");
            assert_eq!(
                proxy::Proxy::new(listener, config.clone()).err().map(kind),
                Some(InvalidInput),
                "Proxy::new with {replicas} replicas"
            );
            assert_eq!(
                Pool::new(config, 1).err().map(kind),
                Some(InvalidInput),
                "Pool::new with {replicas} replicas"
            );
        }
    }
}
