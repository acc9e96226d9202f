//! The runtime systems of Table 1, each as a configuration of allocator +
//! checking policy (+ recovery), runnable on any [`Program`].
//!
//! | Paper system | Emulation here |
//! |---|---|
//! | GNU libc (Lea) | `LeaSimAllocator`, no checking |
//! | BDW GC | `BdwGcSim`, no checking |
//! | CCured | `BdwGcSim` + fail-stop checking (CCured links the BDW collector and aborts on detected errors) |
//! | Rx | `LeaSimAllocator`; on crash/hang, one retry under [`rx::RxPaddedHeap`] |
//! | Failure-oblivious | `LeaSimAllocator` + drop-illegal-writes / manufacture-reads |
//! | DieHard | `DieHardSimHeap` (stand-alone or replicated via [`crate::replicas`]) |

pub mod rx;

use crate::exec::{oracle_output, run_program, CheckPolicy, ExecOptions, RunOutcome, Verdict};
use crate::ops::Program;
use diehard_baselines::{BdwGcSim, LeaSimAllocator, WindowsSimAllocator};
use diehard_core::config::HeapConfig;
use diehard_sim::{DieHardSimHeap, InfiniteHeap};

/// Default simulated heap span for the baseline allocators.
pub const BASELINE_SPAN: usize = 256 << 20;

/// A runtime system under test.
#[derive(Debug, Clone)]
pub enum System {
    /// GNU libc's Lea-style allocator.
    Libc,
    /// The Windows-XP-style default allocator.
    WindowsDefault,
    /// The Boehm-Demers-Weiser-style conservative collector.
    BdwGc,
    /// Stand-alone DieHard with the given configuration and seed.
    DieHard {
        /// Heap configuration (multiplier, region size, fill policy).
        config: HeapConfig,
        /// RNG seed for this heap instance.
        seed: u64,
    },
    /// CCured-style fail-stop safe-C system (bounds + liveness + init
    /// checks, garbage collection for frees).
    CCured,
    /// Failure-oblivious computing.
    FailureOblivious,
    /// Rx-style rollback recovery.
    Rx,
    /// The infinite-heap oracle itself (sanity baseline).
    InfiniteOracle,
}

impl System {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            System::Libc => "GNU libc",
            System::WindowsDefault => "Windows default",
            System::BdwGc => "BDW GC",
            System::DieHard { .. } => "DieHard",
            System::CCured => "CCured",
            System::FailureOblivious => "Failure-oblivious",
            System::Rx => "Rx",
            System::InfiniteOracle => "Infinite heap",
        }
    }

    /// Runs `program` under this system, returning the raw outcome.
    #[must_use]
    pub fn run(&self, program: &Program) -> RunOutcome {
        match self {
            System::Libc => {
                let mut a = LeaSimAllocator::new(BASELINE_SPAN);
                run_program(&mut a, program, &ExecOptions::default())
            }
            System::WindowsDefault => {
                let mut a = WindowsSimAllocator::new(BASELINE_SPAN);
                run_program(&mut a, program, &ExecOptions::default())
            }
            System::BdwGc => {
                let mut a = BdwGcSim::new(BASELINE_SPAN);
                run_program(&mut a, program, &ExecOptions::default())
            }
            System::DieHard { config, seed } => {
                let mut a =
                    DieHardSimHeap::new(config.clone(), *seed).expect("valid DieHard config");
                run_program(&mut a, program, &ExecOptions::default())
            }
            System::CCured => {
                let mut a = BdwGcSim::new(BASELINE_SPAN);
                let opts = ExecOptions {
                    policy: CheckPolicy::FailStop,
                    ..Default::default()
                };
                run_program(&mut a, program, &opts)
            }
            System::FailureOblivious => {
                let mut a = LeaSimAllocator::new(BASELINE_SPAN);
                let opts = ExecOptions {
                    policy: CheckPolicy::Oblivious,
                    ..Default::default()
                };
                run_program(&mut a, program, &opts)
            }
            System::Rx => {
                let mut a = LeaSimAllocator::new(BASELINE_SPAN);
                let first = run_program(&mut a, program, &ExecOptions::default());
                match first {
                    RunOutcome::Crashed { .. } | RunOutcome::Hung { .. } => {
                        // Rollback to the checkpoint (program start) and
                        // re-execute in recovery mode.
                        let mut recovery = rx::RxPaddedHeap::new(BASELINE_SPAN);
                        run_program(&mut recovery, program, &ExecOptions::default())
                    }
                    done => done,
                }
            }
            System::InfiniteOracle => {
                let mut a = InfiniteHeap::new();
                run_program(&mut a, program, &ExecOptions::default())
            }
        }
    }

    /// Runs `program` and classifies the result against the infinite-heap
    /// oracle.
    #[must_use]
    pub fn evaluate(&self, program: &Program) -> Verdict {
        let oracle = oracle_output(program);
        crate::exec::verdict(&self.run(program), &oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;

    fn clean_program() -> Program {
        let mut ops = Vec::new();
        for i in 0..50u32 {
            ops.push(Op::Alloc {
                id: i,
                size: 16 + (i as usize * 7) % 400,
            });
            ops.push(Op::Write {
                id: i,
                offset: 0,
                len: 16,
                seed: 1,
            });
            ops.push(Op::Read {
                id: i,
                offset: 0,
                len: 16,
            });
            if i >= 10 {
                ops.push(Op::Free { id: i - 10 });
                ops.push(Op::Forget { id: i - 10 });
            }
        }
        Program::new("clean", ops)
    }

    #[test]
    fn all_systems_correct_on_clean_program() {
        let prog = clean_program();
        for system in [
            System::Libc,
            System::WindowsDefault,
            System::BdwGc,
            System::DieHard {
                config: HeapConfig::default(),
                seed: 42,
            },
            System::CCured,
            System::FailureOblivious,
            System::Rx,
            System::InfiniteOracle,
        ] {
            let v = system.evaluate(&prog);
            assert!(v.is_correct(), "{} got {v:?}", system.name());
        }
    }

    #[test]
    fn rx_recovers_from_metadata_corruption() {
        // Overflow smashes the next chunk header; libc crashes on the free;
        // Rx rolls back and survives with padding.
        let prog = Program::new(
            "smash",
            vec![
                Op::Alloc { id: 0, size: 24 },
                Op::Alloc { id: 1, size: 24 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 32,
                    seed: 1,
                }, // +8 overflow
                Op::Free { id: 1 },
                Op::Forget { id: 1 },
                Op::Alloc { id: 2, size: 24 },
                Op::Write {
                    id: 2,
                    offset: 0,
                    len: 24,
                    seed: 2,
                },
                Op::Read {
                    id: 2,
                    offset: 0,
                    len: 24,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 24,
                },
            ],
        );
        let libc = System::Libc.evaluate(&prog);
        assert!(!libc.is_correct(), "libc should fail: {libc:?}");
        let rx = System::Rx.evaluate(&prog);
        assert!(rx.is_correct(), "Rx should recover: {rx:?}");
    }

    #[test]
    fn ccured_aborts_on_overflow() {
        let prog = Program::new(
            "of",
            vec![
                Op::Alloc { id: 0, size: 8 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 12,
                    seed: 1,
                },
            ],
        );
        assert_eq!(System::CCured.evaluate(&prog), Verdict::Abort);
    }

    #[test]
    fn oblivious_survives_overflow_with_correct_output_here() {
        // Dropping the illegal tail loses data the program never reads
        // back, so this program stays correct — the unsound lucky case.
        let prog = Program::new(
            "of",
            vec![
                Op::Alloc { id: 0, size: 8 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 12,
                    seed: 1,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 8,
                },
            ],
        );
        assert!(System::FailureOblivious.evaluate(&prog).is_correct());
    }

    #[test]
    fn oblivious_goes_wrong_when_dropped_data_is_read() {
        // The program legitimately reads bytes the oblivious system refused
        // to write (because the *write* strayed): output now differs.
        let prog = Program::new(
            "of2",
            vec![
                Op::Alloc { id: 0, size: 16 },
                // One overflowing write that also covers in-bounds bytes
                // 8..16; oblivious clips at 16, fine — so instead make the
                // write *start* out of bounds: entirely dropped.
                Op::Write {
                    id: 0,
                    offset: 12,
                    len: 8,
                    seed: 1,
                }, // 12..20: clipped to 12..16
                Op::Read {
                    id: 0,
                    offset: 12,
                    len: 4,
                }, // reads clipped-but-written bytes: ok
                Op::Write {
                    id: 0,
                    offset: 16,
                    len: 4,
                    seed: 2,
                }, // fully OOB: dropped
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 16,
                },
            ],
        );
        // Oracle (infinite heap) performs ALL writes (they're absorbed),
        // and its read of 0..16 sees bytes 12..16 from the first write; the
        // oblivious run agrees there. This program is correct under
        // oblivious; the difference shows in the *next* one.
        assert!(System::FailureOblivious.evaluate(&prog).is_correct());

        // Now read past the end: oracle sees the overflowed bytes, the
        // oblivious system manufactures zeros → silent divergence.
        let prog2 = Program::new(
            "of3",
            vec![
                Op::Alloc { id: 0, size: 16 },
                Op::Write {
                    id: 0,
                    offset: 8,
                    len: 16,
                    seed: 3,
                }, // 8..24 overflow
                Op::Read {
                    id: 0,
                    offset: 8,
                    len: 16,
                }, // reads 8..24
            ],
        );
        assert_eq!(
            System::FailureOblivious.evaluate(&prog2),
            Verdict::SilentCorruption
        );
    }

    #[test]
    fn diehard_and_gc_survive_what_kills_libc() {
        let prog = Program::new(
            "smash",
            vec![
                Op::Alloc { id: 0, size: 24 },
                Op::Alloc { id: 1, size: 24 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 32,
                    seed: 1,
                },
                Op::Free { id: 1 },
                Op::Forget { id: 1 },
                Op::Alloc { id: 2, size: 24 },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 24,
                },
            ],
        );
        assert!(!System::Libc.evaluate(&prog).is_correct());
        let dh = System::DieHard {
            config: HeapConfig::default(),
            seed: 9,
        };
        assert!(dh.evaluate(&prog).is_correct());
    }
}
