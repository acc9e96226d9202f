//! Replicated DieHard with output voting (§5), in-process.
//!
//! The replicated architecture runs k replicas of the program, each with a
//! fully randomized heap seeded differently, broadcasts the input, and
//! "compares the contents of each replica's output buffer" in 4 KB chunks
//! (§5.2): a chunk is committed when at least two replicas agree; replicas
//! that disagree "have entered into an undefined state" and are killed;
//! when *no* two replicas agree the computation is terminated — this is how
//! uninitialized reads are detected (§3.2, §6.3).
//!
//! Here the replicas are in-process deterministic executions (our programs
//! are single-threaded and replayable); the subprocess version with real
//! pipes lives in the `diehard-replicate` crate, and both are voted by its
//! one vote core (`diehard_replicate::VoteCore`).

use crate::exec::{run_program, ExecOptions, RunOutcome, Verdict};
use crate::ops::Program;
use crate::output::Output;
use diehard_core::config::{FillPolicy, HeapConfig};
use diehard_core::rng::replica_seed;
use diehard_replicate::{Phase, SessionInput, Ties, VoteCore, Voter};
use diehard_sim::DieHardSimHeap;

/// What happened to one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaFate {
    /// Ran to completion and agreed with every committed chunk.
    Agreed,
    /// Crashed or hung before completing (killed on signal, §5.2).
    Died,
    /// Completed but produced a chunk the vote rejected (killed).
    Outvoted {
        /// Index of the first chunk where this replica lost the vote.
        at_chunk: usize,
    },
}

/// The overall result of a replicated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicatedOutcome {
    /// Chunks were committed through the end of some agreeing replica.
    Agreed(Output),
    /// At some chunk no two live replicas agreed: the voter terminates the
    /// computation (a detected divergence — e.g. an uninitialized read).
    Divergence {
        /// Index of the chunk where consensus failed.
        at_chunk: usize,
    },
    /// Every replica crashed or hung before producing agreed output.
    AllDied,
}

/// Result bundle from [`ReplicaSet::run`].
#[derive(Debug, Clone)]
pub struct ReplicatedRun {
    /// The voted outcome.
    pub outcome: ReplicatedOutcome,
    /// Per-replica fates, index-aligned with the seeds.
    pub fates: Vec<ReplicaFate>,
}

impl ReplicatedRun {
    /// Classifies against the oracle: agreement with correct output is
    /// Correct; divergence is Abort (detected, terminated); agreement on
    /// wrong output is SilentCorruption; total death is Crash.
    #[must_use]
    pub fn verdict(&self, oracle: &Output) -> Verdict {
        match &self.outcome {
            ReplicatedOutcome::Agreed(out) if out == oracle => Verdict::Correct,
            ReplicatedOutcome::Agreed(_) => Verdict::SilentCorruption,
            ReplicatedOutcome::Divergence { .. } => Verdict::Abort,
            ReplicatedOutcome::AllDied => Verdict::Crash,
        }
    }
}

/// A set of differently-seeded DieHard replicas.
///
/// **Ties.** The vote commits the largest group of agreeing replicas, and
/// of equally large groups the first (lowest replica index): four replicas
/// split 2–2 commit one pair and outvote the other
/// (`diehard_replicate::Ties::First`, which says why). The process
/// launcher votes the same way except that it reports that split as a
/// divergence.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    config: HeapConfig,
    seeds: Vec<u64>,
}

impl ReplicaSet {
    /// Creates `k` replicas derived from `master_seed`, with random-fill
    /// enabled (the replicated allocator `libdiehard_r.so` always fills,
    /// §4.1/§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k == 2` (the voter cannot break a 1–1 tie;
    /// the paper assumes one or at least three replicas, §6).
    #[must_use]
    pub fn new(k: usize, master_seed: u64, config: HeapConfig) -> Self {
        assert!(k != 0, "at least one replica required");
        assert!(k != 2, "two replicas cannot vote (§6)");
        let config = config.with_fill(FillPolicy::Random);
        let seeds = (0..k as u64)
            .map(|i| replica_seed(master_seed, i))
            .collect();
        Self { config, seeds }
    }

    /// Number of replicas.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.seeds.len()
    }

    /// The per-replica seeds (for reproducing a specific replica).
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Executes `program` on every replica and votes on the output.
    #[must_use]
    pub fn run(&self, program: &Program) -> ReplicatedRun {
        // Execute all replicas (equivalent to running them to their output
        // barriers; our programs are deterministic and finite).
        self.vote(
            self.seeds
                .iter()
                .map(|&seed| self.replica(seed, program))
                .collect(),
        )
    }

    /// As [`run`](Self::run) but executing the replicas on OS threads —
    /// the paper's natural setting ("the natural setting for using
    /// replication is on systems with multiple processors", §2), used by
    /// the §7.2.3 sixteen-replica scaling experiment.
    #[must_use]
    pub fn run_parallel(&self, program: &Program) -> ReplicatedRun {
        let results: Vec<RunOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .seeds
                .iter()
                .map(|&seed| scope.spawn(move || self.replica(seed, program)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica thread panicked"))
                .collect()
        });
        self.vote(results)
    }

    /// Runs `program` on the replica seeded with `seed`.
    fn replica(&self, seed: u64, program: &Program) -> RunOutcome {
        let mut heap =
            DieHardSimHeap::new(self.config.clone(), seed).expect("valid replica config");
        run_program(&mut heap, program, &ExecOptions::default())
    }

    /// Votes the finished outputs through the launcher's vote core, chunk
    /// by chunk, as if each replica had written its output to a pipe; a
    /// replica that died before completing is out of the vote from the
    /// start.
    fn vote(&self, results: Vec<RunOutcome>) -> ReplicatedRun {
        let outputs: Vec<Option<&[u8]>> = results
            .iter()
            .map(|r| r.output().map(Output::as_bytes))
            .collect();
        let voter = Voter::with_ties(outputs.len(), Ties::First);
        let mut core = VoteCore::new(voter, SessionInput::Buffer(Vec::new()));
        let mut fates = Vec::with_capacity(outputs.len());
        for (i, output) in outputs.iter().enumerate() {
            fates.push(match output {
                Some(_) => ReplicaFate::Agreed, // provisional
                None => {
                    core.kill(i);
                    ReplicaFate::Died
                }
            });
        }
        let (mut fed, mut committed) = (vec![0; outputs.len()], Vec::new());
        while core.pump(&mut committed, usize::MAX) == Phase::Streaming {
            for (i, output) in outputs.iter().enumerate() {
                let rest = &output.unwrap_or_default()[fed[i]..];
                if rest.is_empty() {
                    core.out_ended(i);
                } else if core.out_room(i) {
                    let spare = core.out_spare(i);
                    let n = spare.len().min(rest.len());
                    spare[..n].copy_from_slice(&rest[..n]);
                    core.out_filled(i, n);
                    fed[i] += n;
                }
            }
        }
        for (&i, &at_chunk) in core.killed().iter().zip(core.killed_at()) {
            if outputs[i].is_some() {
                fates[i] = ReplicaFate::Outvoted { at_chunk };
            }
        }
        let outcome = if core.has_diverged() {
            ReplicatedOutcome::Divergence {
                at_chunk: core.barriers(),
            }
        } else if outputs.iter().all(Option::is_none) {
            ReplicatedOutcome::AllDied
        } else {
            let mut output = Output::new();
            output.push(&committed);
            ReplicatedOutcome::Agreed(output)
        };
        ReplicatedRun { outcome, fates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::oracle_output;
    use crate::ops::Op;

    fn clean_program() -> Program {
        let mut ops = Vec::new();
        for i in 0..30u32 {
            ops.push(Op::Alloc {
                id: i,
                size: 32 + (i as usize % 100),
            });
            ops.push(Op::Write {
                id: i,
                offset: 0,
                len: 32,
                seed: 7,
            });
            ops.push(Op::Read {
                id: i,
                offset: 0,
                len: 32,
            });
        }
        Program::new("clean", ops)
    }

    #[test]
    fn replicas_agree_on_clean_program() {
        let prog = clean_program();
        let set = ReplicaSet::new(3, 0xABCD, HeapConfig::default());
        let run = set.run(&prog);
        let oracle = oracle_output(&prog);
        assert_eq!(run.verdict(&oracle), Verdict::Correct);
        assert!(run.fates.iter().all(|f| *f == ReplicaFate::Agreed));
    }

    #[test]
    fn uninitialized_read_detected_as_divergence() {
        // Read 16 uninitialized bytes (B = 128 bits): each replica's random
        // fill differs, so all outputs disagree — detection probability
        // 1 − ~2⁻¹²⁵ ≈ 1 (Theorem 3).
        let prog = Program::new(
            "uninit",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 16,
                }, // never written!
            ],
        );
        let set = ReplicaSet::new(3, 99, HeapConfig::default());
        let run = set.run(&prog);
        assert!(
            matches!(run.outcome, ReplicatedOutcome::Divergence { at_chunk: 0 }),
            "got {:?}",
            run.outcome
        );
        let oracle = oracle_output(&prog);
        assert_eq!(run.verdict(&oracle), Verdict::Abort);
    }

    #[test]
    fn uninit_read_invisible_to_standalone_replicaset_of_one() {
        // k = 1: no voting, output passes through (and the random fill means
        // the output is whatever the single heap contained).
        let prog = Program::new(
            "uninit",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 16,
                },
            ],
        );
        let set = ReplicaSet::new(1, 5, HeapConfig::default());
        let run = set.run(&prog);
        assert!(matches!(run.outcome, ReplicatedOutcome::Agreed(_)));
    }

    #[test]
    fn initialized_data_survives_voting_despite_random_fill() {
        // Random fill differs per replica, but *written* data is identical,
        // so properly initialized programs always agree.
        let prog = Program::new(
            "init",
            vec![
                Op::Alloc { id: 0, size: 1000 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 1000,
                    seed: 3,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 1000,
                },
            ],
        );
        let set = ReplicaSet::new(5, 123, HeapConfig::default());
        let run = set.run(&prog);
        assert!(matches!(run.outcome, ReplicatedOutcome::Agreed(_)));
    }

    #[test]
    fn parallel_run_matches_serial() {
        let prog = clean_program();
        let set = ReplicaSet::new(3, 0xABCD, HeapConfig::default());
        let serial = set.run(&prog);
        let parallel = set.run_parallel(&prog);
        assert_eq!(serial.outcome, parallel.outcome);
        assert_eq!(serial.fates, parallel.fates);
    }

    #[test]
    #[should_panic(expected = "cannot vote")]
    fn two_replicas_rejected() {
        let _ = ReplicaSet::new(2, 1, HeapConfig::default());
    }

    /// The in-process tie rule (`Ties::First`): a 2–2 split commits the
    /// first group and outvotes the other pair. `replicate::voter`'s
    /// `two_two_tie_is_divergence` pins the launcher's rule
    /// (`Ties::Diverge`) on the same vote core.
    #[test]
    fn two_two_tie_commits_the_first_group() {
        let output = |bytes: &[u8]| {
            let mut out = Output::new();
            out.push(bytes);
            out
        };
        let set = ReplicaSet::new(4, 1, HeapConfig::default());
        let run = set.vote(
            [b"aa", b"bb", b"aa", b"bb"]
                .map(|b| RunOutcome::Completed(output(b)))
                .to_vec(),
        );
        assert_eq!(run.outcome, ReplicatedOutcome::Agreed(output(b"aa")));
        let outvoted = ReplicaFate::Outvoted { at_chunk: 0 };
        assert_eq!(
            run.fates,
            [
                ReplicaFate::Agreed,
                outvoted.clone(),
                ReplicaFate::Agreed,
                outvoted
            ]
        );
    }

    #[test]
    fn seeds_are_distinct() {
        let set = ReplicaSet::new(8, 42, HeapConfig::default());
        let mut seeds = set.seeds().to_vec();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn overflow_masked_by_majority() {
        // A one-object overflow: each replica independently has high odds
        // of the overflow landing on empty space; with 3 replicas the
        // majority almost surely commits the correct output.
        let mut ops = vec![Op::Alloc { id: 0, size: 8 }];
        for i in 1..20u32 {
            ops.push(Op::Alloc { id: i, size: 8 });
            ops.push(Op::Write {
                id: i,
                offset: 0,
                len: 8,
                seed: 9,
            });
        }
        // Overflow object 0 by one object's worth.
        ops.push(Op::Write {
            id: 0,
            offset: 0,
            len: 16,
            seed: 4,
        });
        for i in 1..20u32 {
            ops.push(Op::Read {
                id: i,
                offset: 0,
                len: 8,
            });
        }
        let prog = Program::new("overflow", ops);
        let oracle = oracle_output(&prog);
        let set = ReplicaSet::new(3, 7, HeapConfig::default());
        let run = set.run(&prog);
        assert_eq!(run.verdict(&oracle), Verdict::Correct);
    }
}
