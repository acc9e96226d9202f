//! The executor: replays a [`Program`] against any simulated allocator and
//! classifies what happened.
//!
//! Correctness follows the paper's §3 definition operationally: the same
//! program is run once against the [`InfiniteHeap`]
//! oracle (where memory errors are benign by construction) and its output is
//! the ground truth. A run under any real allocator is **correct** iff it
//! completes with identical output; otherwise it crashed, hung, aborted, or
//! silently produced wrong output — the five cells of Table 1.

use crate::ops::{Op, Program};
use crate::output::Output;
use diehard_sim::{Addr, Fault, InfiniteHeap, SimAllocator};
use std::collections::HashMap;

/// How accesses are checked, selecting which §8 system family the executor
/// emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPolicy {
    /// No checking: raw C semantics (libc, GC, DieHard, Windows runs).
    #[default]
    None,
    /// Fail-stop (CCured-style): abort on the first out-of-bounds access,
    /// use-after-free, or read of uninitialized data.
    FailStop,
    /// Failure-oblivious computing: drop illegal writes, manufacture values
    /// for illegal reads, and keep going.
    Oblivious,
}

/// What a single execution did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Ran to completion; the output still needs oracle comparison.
    Completed(Output),
    /// Died on a fault (SIGSEGV / metadata-corruption crash).
    Crashed {
        /// The fault that killed the run.
        fault: Fault,
        /// Index of the op that faulted.
        at_op: usize,
    },
    /// Spun forever inside the allocator (cycled free list).
    Hung {
        /// Index of the op that hung.
        at_op: usize,
    },
    /// A fail-stop checker terminated the program deliberately.
    Aborted {
        /// Index of the offending op.
        at_op: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl RunOutcome {
    /// The output, when the run completed.
    #[must_use]
    pub fn output(&self) -> Option<&Output> {
        match self {
            RunOutcome::Completed(o) => Some(o),
            _ => None,
        }
    }
}

/// The Table 1 verdict after oracle comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Completed with oracle-identical output: correct execution (✓).
    Correct,
    /// Completed but output differs: undefined behaviour, silent corruption.
    SilentCorruption,
    /// Crashed (undefined behaviour, observable).
    Crash,
    /// Hung (undefined behaviour, observable).
    Hang,
    /// Deliberate fail-stop termination.
    Abort,
}

impl Verdict {
    /// `true` for the paper's ✓ cell.
    #[must_use]
    pub fn is_correct(self) -> bool {
        self == Verdict::Correct
    }

    /// Collapses to the paper's three Table 1 cell values:
    /// `"✓"`, `"undefined"`, or `"abort"`.
    #[must_use]
    pub fn table_cell(self) -> &'static str {
        match self {
            Verdict::Correct => "✓",
            Verdict::SilentCorruption | Verdict::Crash | Verdict::Hang => "undefined",
            Verdict::Abort => "abort",
        }
    }
}

impl core::fmt::Display for Verdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Verdict::Correct => "correct",
            Verdict::SilentCorruption => "silent corruption",
            Verdict::Crash => "crash",
            Verdict::Hang => "hang",
            Verdict::Abort => "abort",
        };
        f.write_str(s)
    }
}

#[derive(Debug)]
struct ObjState {
    addr: Option<Addr>,
    granted: usize,
    freed: bool,
    /// Initialized-byte bitmap, tracked only under a checking policy.
    init: Option<Vec<bool>>,
}

/// Executor options beyond the checking policy.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Route `Strcpy` ops through the allocator's `usable_size` bound —
    /// DieHard's replaced library functions (§4.4). The paper's §7
    /// experiments disable this to isolate randomization, so it defaults
    /// to off.
    pub bounded_strcpy: bool,
    /// Checking policy (fail-stop / failure-oblivious emulation).
    pub policy: CheckPolicy,
}

/// Replays `program` against `alloc`.
///
/// Deterministic: the same allocator state, program, and options always
/// produce the same outcome.
pub fn run_program<A: SimAllocator + ?Sized>(
    alloc: &mut A,
    program: &Program,
    options: &ExecOptions,
) -> RunOutcome {
    let mut objects: HashMap<u32, ObjState> = HashMap::new();
    let mut roots: Vec<Addr> = Vec::new();
    let mut output = Output::new();
    let policy = options.policy;
    let track_init = policy != CheckPolicy::None;

    macro_rules! fault_to_outcome {
        ($fault:expr, $at:expr) => {
            match $fault {
                Fault::Livelock => return RunOutcome::Hung { at_op: $at },
                f => {
                    return RunOutcome::Crashed {
                        fault: f,
                        at_op: $at,
                    }
                }
            }
        };
    }

    let rebuild_roots = |objects: &HashMap<u32, ObjState>, roots: &mut Vec<Addr>| {
        roots.clear();
        roots.extend(objects.values().filter_map(|s| s.addr));
    };

    for (at_op, op) in program.ops.iter().enumerate() {
        match op {
            Op::Alloc { id, size } => match alloc.malloc(*size, &roots) {
                Ok(opt) => {
                    objects.insert(
                        *id,
                        ObjState {
                            addr: opt,
                            granted: *size,
                            freed: false,
                            init: track_init.then(|| vec![false; *size]),
                        },
                    );
                    if let Some(a) = opt {
                        roots.push(a);
                    }
                }
                Err(f) => fault_to_outcome!(f, at_op),
            },
            Op::Free { id } => {
                let Some(state) = objects.get_mut(id) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                state.freed = true;
                if let Err(f) = alloc.free(addr) {
                    fault_to_outcome!(f, at_op);
                }
            }
            Op::FreeRaw { id, delta } => {
                let Some(state) = objects.get(id) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                let target = addr.wrapping_add_signed(*delta);
                if let Err(f) = alloc.free(target) {
                    fault_to_outcome!(f, at_op);
                }
            }
            Op::Forget { id } => {
                objects.remove(id);
                rebuild_roots(&objects, &mut roots);
            }
            Op::Write {
                id,
                offset,
                len,
                seed,
            } => {
                let Some(state) = objects.get_mut(id) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                let mut data: Vec<u8> = (0..*len)
                    .map(|i| Program::pattern_byte(*id, *seed, offset + i))
                    .collect();
                let mut write_len = *len;
                match policy {
                    CheckPolicy::None => {}
                    CheckPolicy::FailStop => {
                        // Freed objects stay valid: the fail-stop system is
                        // GC-backed (CCured links the BDW collector), so a
                        // dangling access hits intact memory (Table 1: ✓).
                        if offset + len > state.granted {
                            return RunOutcome::Aborted {
                                at_op,
                                reason: "out-of-bounds write",
                            };
                        }
                    }
                    CheckPolicy::Oblivious => {
                        if state.freed {
                            continue; // drop the illegal write entirely
                        }
                        write_len = (*len).min(state.granted.saturating_sub(*offset));
                        data.truncate(write_len);
                    }
                }
                if write_len > 0 {
                    if let Err(f) = alloc.memory_mut().write(addr + offset, &data) {
                        fault_to_outcome!(f, at_op);
                    }
                }
                if let Some(init) = state.init.as_mut() {
                    for i in *offset..(*offset + write_len).min(init.len()) {
                        init[i] = true;
                    }
                }
            }
            Op::WritePtr { dst, offset, src } => {
                let Some(src_addr) = objects.get(src).and_then(|s| s.addr) else {
                    continue;
                };
                let Some(state) = objects.get_mut(dst) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                match policy {
                    CheckPolicy::FailStop if offset + 8 > state.granted => {
                        return RunOutcome::Aborted {
                            at_op,
                            reason: "out-of-bounds pointer store",
                        };
                    }
                    CheckPolicy::Oblivious if state.freed || offset + 8 > state.granted => {
                        continue;
                    }
                    _ => {}
                }
                if let Err(f) = alloc.memory_mut().write_u64(addr + offset, src_addr as u64) {
                    fault_to_outcome!(f, at_op);
                }
                if let Some(init) = state.init.as_mut() {
                    for i in *offset..(offset + 8).min(init.len()) {
                        init[i] = true;
                    }
                }
            }
            Op::Read { id, offset, len } => {
                let Some(state) = objects.get(id) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                let mut buf = vec![0u8; *len];
                match policy {
                    CheckPolicy::None => {
                        if let Err(f) = alloc.memory().read(addr + offset, &mut buf) {
                            fault_to_outcome!(f, at_op);
                        }
                    }
                    CheckPolicy::FailStop => {
                        if offset + len > state.granted {
                            return RunOutcome::Aborted {
                                at_op,
                                reason: "out-of-bounds read",
                            };
                        }
                        let init = state.init.as_ref().expect("tracked under FailStop");
                        if init[*offset..offset + len].iter().any(|&b| !b) {
                            return RunOutcome::Aborted {
                                at_op,
                                reason: "uninitialized read",
                            };
                        }
                        if let Err(f) = alloc.memory().read(addr + offset, &mut buf) {
                            fault_to_outcome!(f, at_op);
                        }
                    }
                    CheckPolicy::Oblivious => {
                        // Manufacture values (zeros) for any illegal portion.
                        if !state.freed {
                            let legal = (*len).min(state.granted.saturating_sub(*offset));
                            if legal > 0
                                && alloc
                                    .memory()
                                    .read(addr + offset, &mut buf[..legal])
                                    .is_err()
                            {
                                buf[..legal].fill(0);
                            }
                        }
                    }
                }
                output.push_read(&buf);
            }
            Op::ReadThroughPtr { dst, offset, len } => {
                let Some(state) = objects.get(dst) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                let ptr = match alloc.memory().read_u64(addr + offset) {
                    Ok(v) => v as usize,
                    Err(f) => fault_to_outcome!(f, at_op),
                };
                match policy {
                    CheckPolicy::FailStop => {
                        let valid = objects.values().any(|s| {
                            s.addr
                                .is_some_and(|a| ptr >= a && ptr + len <= a + s.granted)
                        });
                        if !valid {
                            return RunOutcome::Aborted {
                                at_op,
                                reason: "invalid pointer dereference",
                            };
                        }
                    }
                    CheckPolicy::Oblivious => {
                        let valid = objects.values().any(|s| {
                            !s.freed
                                && s.addr
                                    .is_some_and(|a| ptr >= a && ptr + len <= a + s.granted)
                        });
                        if !valid {
                            output.push_read(&vec![0u8; *len]); // manufactured
                            continue;
                        }
                    }
                    CheckPolicy::None => {}
                }
                let mut buf = vec![0u8; *len];
                if let Err(f) = alloc.memory().read(ptr, &mut buf) {
                    fault_to_outcome!(f, at_op);
                }
                output.push_read(&buf);
            }
            Op::Strcpy { id, payload } => {
                let Some(state) = objects.get_mut(id) else {
                    continue;
                };
                let Some(addr) = state.addr else { continue };
                let mut data = payload.clone();
                data.push(0);
                let copy_len = if options.bounded_strcpy {
                    // DieHard's replaced strcpy: clamp to the object's true
                    // remaining space (§4.4).
                    match alloc.usable_size(addr) {
                        Some(space) => data.len().min(space),
                        None => data.len(),
                    }
                } else {
                    match policy {
                        CheckPolicy::FailStop if data.len() > state.granted => {
                            return RunOutcome::Aborted {
                                at_op,
                                reason: "strcpy overflow",
                            };
                        }
                        CheckPolicy::Oblivious => data.len().min(state.granted),
                        _ => data.len(),
                    }
                };
                if copy_len > 0 {
                    if let Err(f) = alloc.memory_mut().write(addr, &data[..copy_len]) {
                        fault_to_outcome!(f, at_op);
                    }
                }
                if let Some(init) = state.init.as_mut() {
                    for i in 0..copy_len.min(init.len()) {
                        init[i] = true;
                    }
                }
            }
            Op::Compute { units } => {
                // Deterministic busy work (LCG steps), opaque to the optimizer.
                let mut acc = u64::from(*units) | 1;
                for _ in 0..*units {
                    acc = acc
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                }
                std::hint::black_box(acc);
            }
            Op::Print { bytes } => output.push(bytes),
        }
    }
    RunOutcome::Completed(output)
}

/// Runs `program` under the infinite-heap oracle, yielding the ground-truth
/// output (§3: memory errors are benign there by construction).
///
/// # Panics
///
/// Panics if the oracle itself faults — impossible for programs whose
/// accesses stay within [`diehard_sim::infinite::OBJECT_SPACING`] of an
/// object, which all generated workloads do.
#[must_use]
pub fn oracle_output(program: &Program) -> Output {
    let mut oracle = InfiniteHeap::new();
    match run_program(&mut oracle, program, &ExecOptions::default()) {
        RunOutcome::Completed(out) => out,
        other => panic!("infinite-heap oracle cannot fail, got {other:?}"),
    }
}

/// Classifies a run against the oracle output.
#[must_use]
pub fn verdict(outcome: &RunOutcome, oracle: &Output) -> Verdict {
    match outcome {
        RunOutcome::Completed(out) if out == oracle => Verdict::Correct,
        RunOutcome::Completed(_) => Verdict::SilentCorruption,
        RunOutcome::Crashed { .. } => Verdict::Crash,
        RunOutcome::Hung { .. } => Verdict::Hang,
        RunOutcome::Aborted { .. } => Verdict::Abort,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diehard_baselines::LeaSimAllocator;
    use diehard_core::config::HeapConfig;
    use diehard_sim::DieHardSimHeap;

    fn simple_program() -> Program {
        Program::new(
            "simple",
            vec![
                Op::Print {
                    bytes: b"start".to_vec(),
                },
                Op::Alloc { id: 0, size: 64 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 64,
                    seed: 1,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 64,
                },
                Op::Alloc { id: 1, size: 200 },
                Op::Write {
                    id: 1,
                    offset: 10,
                    len: 100,
                    seed: 2,
                },
                Op::Read {
                    id: 1,
                    offset: 10,
                    len: 100,
                },
                Op::Free { id: 0 },
                Op::Forget { id: 0 },
                Op::Compute { units: 10 },
                Op::Read {
                    id: 1,
                    offset: 10,
                    len: 100,
                },
            ],
        )
    }

    #[test]
    fn clean_program_is_correct_everywhere() {
        let prog = simple_program();
        let oracle = oracle_output(&prog);
        assert!(!oracle.is_empty());

        let mut dh = DieHardSimHeap::new(HeapConfig::default(), 1).unwrap();
        let out = run_program(&mut dh, &prog, &ExecOptions::default());
        assert_eq!(verdict(&out, &oracle), Verdict::Correct);

        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &ExecOptions::default());
        assert_eq!(verdict(&out, &oracle), Verdict::Correct);

        let fail_stop = ExecOptions {
            policy: CheckPolicy::FailStop,
            ..Default::default()
        };
        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &fail_stop);
        assert_eq!(
            verdict(&out, &oracle),
            Verdict::Correct,
            "clean run must not abort"
        );
    }

    #[test]
    fn determinism() {
        let prog = simple_program();
        let mut a = DieHardSimHeap::new(HeapConfig::default(), 7).unwrap();
        let mut b = DieHardSimHeap::new(HeapConfig::default(), 7).unwrap();
        let oa = run_program(&mut a, &prog, &ExecOptions::default());
        let ob = run_program(&mut b, &prog, &ExecOptions::default());
        assert_eq!(oa, ob);
    }

    #[test]
    fn overflow_program_fail_stop_aborts() {
        // Allocated 8, writes 16: a buffer overflow.
        let prog = Program::new(
            "overflow",
            vec![
                Op::Alloc { id: 0, size: 8 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 16,
                    seed: 1,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 8,
                },
            ],
        );
        let opts = ExecOptions {
            policy: CheckPolicy::FailStop,
            ..Default::default()
        };
        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &opts);
        assert!(matches!(
            out,
            RunOutcome::Aborted {
                reason: "out-of-bounds write",
                ..
            }
        ));
    }

    #[test]
    fn overflow_program_oblivious_drops_and_continues() {
        let prog = Program::new(
            "overflow",
            vec![
                Op::Alloc { id: 0, size: 8 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 16,
                    seed: 1,
                },
                Op::Read {
                    id: 0,
                    offset: 0,
                    len: 8,
                },
            ],
        );
        let opts = ExecOptions {
            policy: CheckPolicy::Oblivious,
            ..Default::default()
        };
        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &opts);
        assert!(matches!(out, RunOutcome::Completed(_)));
    }

    #[test]
    fn uninit_read_fail_stop_aborts() {
        let prog = Program::new(
            "uninit",
            vec![
                Op::Alloc { id: 0, size: 32 },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 16,
                    seed: 1,
                },
                Op::Read {
                    id: 0,
                    offset: 8,
                    len: 16,
                }, // bytes 16..24 uninit
            ],
        );
        let opts = ExecOptions {
            policy: CheckPolicy::FailStop,
            ..Default::default()
        };
        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &opts);
        assert!(matches!(
            out,
            RunOutcome::Aborted {
                reason: "uninitialized read",
                ..
            }
        ));
    }

    #[test]
    fn dangling_write_on_lea_corrupts_or_crashes() {
        // Free id 0, allocate id 1 (which reuses the chunk under first-fit),
        // then write through the stale pointer and read id 1's data back.
        let prog = Program::new(
            "dangling",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Alloc { id: 9, size: 64 }, // guard against coalescing
                Op::Free { id: 0 },
                Op::Alloc { id: 1, size: 64 },
                Op::Write {
                    id: 1,
                    offset: 0,
                    len: 64,
                    seed: 3,
                },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 64,
                    seed: 4,
                }, // stale!
                Op::Read {
                    id: 1,
                    offset: 0,
                    len: 64,
                },
                Op::Forget { id: 0 },
            ],
        );
        let oracle = oracle_output(&prog);
        let mut lea = LeaSimAllocator::new(64 << 20);
        let out = run_program(&mut lea, &prog, &ExecOptions::default());
        let v = verdict(&out, &oracle);
        assert_ne!(v, Verdict::Correct, "first-fit reuse must corrupt: {v:?}");
    }

    #[test]
    fn dangling_write_on_diehard_usually_masked() {
        let prog = Program::new(
            "dangling",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Free { id: 0 },
                Op::Alloc { id: 1, size: 64 },
                Op::Write {
                    id: 1,
                    offset: 0,
                    len: 64,
                    seed: 3,
                },
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 64,
                    seed: 4,
                },
                Op::Read {
                    id: 1,
                    offset: 0,
                    len: 64,
                },
                Op::Forget { id: 0 },
            ],
        );
        let oracle = oracle_output(&prog);
        let mut correct = 0;
        for seed in 0..20 {
            let mut dh = DieHardSimHeap::new(HeapConfig::default(), seed).unwrap();
            let out = run_program(&mut dh, &prog, &ExecOptions::default());
            if verdict(&out, &oracle).is_correct() {
                correct += 1;
            }
        }
        // Reuse probability is 1/free-slots ≈ 1/16384 per allocation; all
        // 20 seeds masking it is overwhelmingly likely.
        assert!(correct >= 19, "only {correct}/20 masked");
    }

    #[test]
    fn null_allocation_skips_dependents() {
        // Exhaust the 16 KB class (tiny heap), then keep going: ops on the
        // failed handle are skipped, like a C program checking for NULL.
        let cfg = HeapConfig::default().with_region_bytes(32 * 1024);
        let mut dh = DieHardSimHeap::new(cfg, 3).unwrap();
        let prog = Program::new(
            "oom",
            vec![
                Op::Alloc {
                    id: 0,
                    size: 16_000,
                }, // cap = 1: serves
                Op::Alloc {
                    id: 1,
                    size: 16_000,
                }, // NULL
                Op::Write {
                    id: 1,
                    offset: 0,
                    len: 8,
                    seed: 1,
                },
                Op::Read {
                    id: 1,
                    offset: 0,
                    len: 8,
                },
                Op::Print {
                    bytes: b"done".to_vec(),
                },
            ],
        );
        let out = run_program(&mut dh, &prog, &ExecOptions::default());
        match out {
            RunOutcome::Completed(o) => assert_eq!(o.as_bytes(), b"done"),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn pointer_chasing_through_heap() {
        let prog = Program::new(
            "ptr",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Alloc { id: 1, size: 64 },
                Op::Write {
                    id: 1,
                    offset: 0,
                    len: 64,
                    seed: 9,
                },
                Op::WritePtr {
                    dst: 0,
                    offset: 0,
                    src: 1,
                },
                Op::ReadThroughPtr {
                    dst: 0,
                    offset: 0,
                    len: 64,
                },
            ],
        );
        let mut dh = DieHardSimHeap::new(HeapConfig::default(), 5).unwrap();
        let out = run_program(&mut dh, &prog, &ExecOptions::default());
        let RunOutcome::Completed(o) = out else {
            panic!("{out:?}")
        };
        // The bytes read through the pointer are id 1's pattern.
        let expect: Vec<u8> = (0..64).map(|i| Program::pattern_byte(1, 9, i)).collect();
        assert_eq!(&o.as_bytes()[..32], &expect[..32]);
    }

    #[test]
    fn corrupted_pointer_crashes_unchecked() {
        // id 0 holds a pointer; an overflow from id 2 smashes it; the read
        // through it then dereferences garbage.
        let prog = Program::new(
            "ptr-smash",
            vec![
                Op::Alloc { id: 0, size: 64 },
                Op::Alloc { id: 1, size: 64 },
                Op::WritePtr {
                    dst: 0,
                    offset: 0,
                    src: 1,
                },
                // Overwrite id 0's pointer slot with pattern bytes — these
                // almost never form a mapped address.
                Op::Write {
                    id: 0,
                    offset: 0,
                    len: 8,
                    seed: 0xEE,
                },
                Op::ReadThroughPtr {
                    dst: 0,
                    offset: 0,
                    len: 64,
                },
            ],
        );
        let mut lea = LeaSimAllocator::new(1 << 20);
        let out = run_program(&mut lea, &prog, &ExecOptions::default());
        assert!(
            matches!(out, RunOutcome::Crashed { .. }),
            "wild dereference expected, got {out:?}"
        );
    }

    #[test]
    fn bounded_strcpy_contains_overflowing_copy() {
        let prog = Program::new(
            "strcpy",
            vec![
                Op::Alloc { id: 0, size: 8 },
                Op::Alloc { id: 1, size: 8 },
                Op::Write {
                    id: 1,
                    offset: 0,
                    len: 8,
                    seed: 5,
                },
                Op::Strcpy {
                    id: 0,
                    payload: vec![b'A'; 100],
                },
                Op::Read {
                    id: 1,
                    offset: 0,
                    len: 8,
                },
            ],
        );
        let oracle = {
            // Oracle with bounded copy as well, for a fair comparison of
            // the *neighbour's* bytes.
            let mut inf = InfiniteHeap::new();
            let opts = ExecOptions {
                bounded_strcpy: true,
                ..Default::default()
            };
            match run_program(&mut inf, &prog, &opts) {
                RunOutcome::Completed(o) => o,
                other => panic!("{other:?}"),
            }
        };
        let mut lea_unbounded = LeaSimAllocator::new(1 << 20);
        let out = run_program(&mut lea_unbounded, &prog, &ExecOptions::default());
        let v = verdict(&out, &oracle);
        assert_ne!(
            v,
            Verdict::Correct,
            "unbounded strcpy must clobber the neighbour"
        );

        let mut dh = DieHardSimHeap::new(HeapConfig::default(), 8).unwrap();
        let opts = ExecOptions {
            bounded_strcpy: true,
            ..Default::default()
        };
        let out = run_program(&mut dh, &prog, &opts);
        // Note: the read-back of id 1 must match the oracle (untouched).
        assert_eq!(verdict(&out, &oracle), Verdict::Correct);
    }
}
