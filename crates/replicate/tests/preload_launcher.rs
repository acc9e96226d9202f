//! Replicated execution of *real, unmodified binaries* under
//! `LD_PRELOAD=libdiehard.so` — the paper's full deployment stack: the
//! interposed randomized heap below, the §5 output voter above.
//!
//! The cdylib lands in `target/<profile>/libdiehard.so` when the
//! `diehard-preload` workspace member builds; `library::path` builds it
//! for this test binary's profile and locates it beside the binary.

#![cfg(unix)]

use diehard_replicate::{run_replicated, LaunchConfig};
use std::io::Write;
use std::process::{Command, Stdio};

#[path = "../../preload/tests/library/mod.rs"]
mod library;

/// The freshly built `libdiehard.so`, as `LaunchConfig::preload` takes it.
fn preload_path() -> String {
    library::path().to_string_lossy().into_owned()
}

#[test]
fn three_preloaded_replicas_reach_quorum_on_a_real_binary() {
    let so = preload_path();
    let mut cfg = LaunchConfig::new(
        3,
        vec!["tr".into(), "a-z".into(), "A-Z".into()],
        b"every replica sees a different heap layout\n".to_vec(),
    );
    cfg.preload = Some(so);
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged, "correct binaries agree under any layout");
    assert!(exit.killed.is_empty());
    assert_eq!(exit.output, b"EVERY REPLICA SEES A DIFFERENT HEAP LAYOUT\n");
    assert_eq!(exit.exit_code, Some(0));
}

#[test]
fn replicas_receive_distinct_seeds_under_preload() {
    let so = preload_path();
    // Each replica prints its own DIEHARD_SEED — the same variable the
    // preloaded heap consumed at startup. Distinct seeds mean no two
    // ballots agree, which the voter must surface as divergence.
    let mut cfg = LaunchConfig::new(
        3,
        vec!["/bin/sh".into(), "-c".into(), "echo $DIEHARD_SEED".into()],
        Vec::new(),
    );
    cfg.preload = Some(so);
    let exit = run_replicated(&cfg).unwrap();
    assert!(
        exit.diverged,
        "identical seed outputs would mean replicas shared a seed"
    );
}

#[test]
fn corrupt_seed_replica_is_outvoted_under_preload() {
    let so = preload_path();
    // Replica 1 (seed 7) misbehaves; the seed-1 and seed-2 replicas form
    // the quorum. The shell itself runs on the preloaded heap throughout.
    let mut cfg = LaunchConfig::new(
        3,
        vec![
            "/bin/sh".into(),
            "-c".into(),
            "if [ \"$DIEHARD_SEED\" = \"7\" ]; then echo CORRUPT; else echo GOOD; fi".into(),
        ],
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    cfg.preload = Some(so);
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert_eq!(exit.output, b"GOOD\n");
    assert_eq!(exit.killed, vec![1], "the corrupt replica must be killed");
    assert_eq!(exit.exit_code, Some(0));
}

#[test]
fn launcher_binary_runs_preloaded_replicas_end_to_end() {
    let so = preload_path();
    // The installed CLI path: `diehard -n 3 --preload ... -- tr a-z A-Z`.
    let bin = env!("CARGO_BIN_EXE_diehard");
    let mut child = Command::new(bin)
        .args(["-n", "3", "--preload", &so, "--", "tr", "a-z", "A-Z"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn diehard launcher");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"vote on me\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(out.stdout, b"VOTE ON ME\n");
}

#[test]
fn allocation_heavy_binary_votes_cleanly_under_preload() {
    let so = preload_path();
    // sort(1) reallocs its way through the whole input before emitting a
    // byte — three independent randomized heaps must still agree exactly.
    let input: Vec<u8> = (0..2000u32)
        .rev()
        .flat_map(|i| format!("{i}\n").into_bytes())
        .collect();
    let mut cfg = LaunchConfig::new(3, vec!["sort".into(), "-n".into()], input);
    cfg.preload = Some(so);
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert!(exit.killed.is_empty());
    let text = String::from_utf8(exit.output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2000);
    assert_eq!(lines[0], "0");
    assert_eq!(lines[1999], "1999");
}
