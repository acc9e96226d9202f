//! Pipe-path equivalence regression for the reactor/session/transport
//! split.
//!
//! The refactor's contract is that the pipe transport is **byte-identical**
//! to the pre-refactor single-file engine. `tests/streaming.rs` pins the
//! behavioral corpus; this file pins the *whole* [`StreamOutcome`] — full
//! struct equality against golden values (bytes, stderr, exit code,
//! `committed`, `peak_buffered`, `stderr_dropped`) computed from the
//! pre-refactor engine's deterministic accounting:
//!
//! * buffer-mode input does not count toward `peak_buffered` (the window
//!   is caller memory), so the peak is exactly the sum of every replica's
//!   unvoted stdout + stderr capture at the fullest moment;
//! * bytes leave a buffer only at a commit, and a vote requires every
//!   live replica ready, so sub-chunk unanimous runs peak at exactly
//!   `replicas × output_len`;
//! * a replica may run up to one transfer unit (`TRANSFER`) ahead of the
//!   vote, so a multi-chunk run peaks *at least* at `replicas × CHUNK`
//!   (the first barrier needs a full chunk from each)
//!   and *at most* at `replicas ×` the smaller of its output and the
//!   unit — where in between is a matter of scheduling, so those runs pin
//!   every other field for equality and `peak_buffered` against both ends;
//! * divergence kills nobody (the voter reports, the engine tears down).
//!
//! Any drift in the split layers — an extra copy held across a barrier, a
//! changed kill order, stderr accounted differently — breaks full-struct
//! equality here even if the committed bytes still match.

#![cfg(unix)]

use diehard_replicate::{run_streamed, InputSource, LaunchConfig, StreamOutcome, CHUNK, TRANSFER};

fn sh(script: &str) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script.into()]
}

/// Runs buffer-mode and returns (committed bytes, outcome).
fn run(cfg: &LaunchConfig, input: &[u8]) -> (Vec<u8>, StreamOutcome) {
    let mut out = Vec::new();
    let outcome = run_streamed(cfg, InputSource::Buffer(input.to_vec()), &mut out)
        .expect("launch must succeed");
    (out, outcome)
}

/// Asserts `outcome` equals `golden` in every field but `peak_buffered`,
/// and that its `peak_buffered` lies in `peak` — for runs long enough that
/// replicas can run ahead of each other, where the peak depends on timing.
fn assert_golden_with_peak_in(
    outcome: &StreamOutcome,
    golden: &StreamOutcome,
    peak: std::ops::RangeInclusive<usize>,
) {
    assert_eq!(
        StreamOutcome {
            peak_buffered: golden.peak_buffered,
            ..outcome.clone()
        },
        *golden
    );
    assert!(
        peak.contains(&outcome.peak_buffered),
        "peak_buffered {} outside {peak:?}",
        outcome.peak_buffered
    );
}

/// Emits `$1` (a 16-char string) 256 times = exactly one 4096-byte chunk.
const EMIT_CHUNK: &str =
    r#"emit() { i=0; while [ $i -lt 256 ]; do printf %s "$1"; i=$((i+1)); done; }"#;

#[test]
fn golden_outcome_small_echo() {
    // 23 input bytes through 3 cats: one sub-chunk barrier at EOF. Every
    // replica holds all 23 bytes when the barrier resolves (votes need all
    // live replicas ready), so the peak is exactly 3 × 23; the buffer-mode
    // window adds nothing.
    let input = b"hello replicated world\n";
    let cfg = LaunchConfig::new(3, sh("cat"), Vec::new());
    let (out, outcome) = run(&cfg, input);
    assert_eq!(out, input);
    assert_eq!(
        outcome,
        StreamOutcome {
            diverged: false,
            killed: vec![],
            exit_code: Some(0),
            committed: input.len() as u64,
            peak_buffered: 3 * input.len(),
            stderr: vec![],
            stderr_dropped: 0,
        }
    );
}

#[test]
fn golden_outcome_two_full_chunks() {
    // Exactly two full chunks per replica. The first barrier resolves with
    // a full chunk in all three buffers, so the peak is at least
    // replicas × CHUNK; a replica that is scheduled ahead of the others may
    // have delivered its second chunk too by then (both fit one transfer
    // unit), so it is at most replicas × 2 × CHUNK.
    let cfg = LaunchConfig::new(
        3,
        sh(&format!(
            "{EMIT_CHUNK}\nemit GGGGGGGGGGGGGGGG; emit GGGGGGGGGGGGGGGG"
        )),
        Vec::new(),
    );
    let (out, outcome) = run(&cfg, b"");
    assert_eq!(out, vec![b'G'; 2 * CHUNK]);
    assert_golden_with_peak_in(
        &outcome,
        &StreamOutcome {
            diverged: false,
            killed: vec![],
            exit_code: Some(0),
            committed: 2 * CHUNK as u64,
            peak_buffered: 3 * CHUNK,
            stderr: vec![],
            stderr_dropped: 0,
        },
        3 * CHUNK..=3 * 2 * CHUNK,
    );
}

#[test]
fn golden_outcome_outvoted_minority() {
    // Seed 7 says "bad\n" (4 bytes) against the quorum's "good\n" (5):
    // at the EOF barrier the buffers hold 5 + 4 + 5 = 14 bytes, replica 1
    // is killed at the vote, and the quorum's bytes and status commit.
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"if [ "$DIEHARD_SEED" = "7" ]; then echo bad; else echo good; fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let (out, outcome) = run(&cfg, b"");
    assert_eq!(out, b"good\n");
    assert_eq!(
        outcome,
        StreamOutcome {
            diverged: false,
            killed: vec![1],
            exit_code: Some(0),
            committed: 5,
            peak_buffered: 14,
            stderr: vec![],
            stderr_dropped: 0,
        }
    );
}

#[test]
fn golden_outcome_stderr_counts_toward_peak() {
    // Stdout "payload\n" (8) and stderr "diag\n" (5) per replica are both
    // fully buffered when the EOF barrier resolves: peak 3 × (8 + 5).
    let cfg = LaunchConfig::new(3, sh("echo diag >&2; echo payload"), Vec::new());
    let (out, outcome) = run(&cfg, b"");
    assert_eq!(out, b"payload\n");
    assert_eq!(
        outcome,
        StreamOutcome {
            diverged: false,
            killed: vec![],
            exit_code: Some(0),
            committed: 8,
            peak_buffered: 3 * (8 + 5),
            stderr: b"diag\n".to_vec(),
            stderr_dropped: 0,
        }
    );
}

#[test]
fn golden_outcome_unanimous_nonzero_exit() {
    let cfg = LaunchConfig::new(3, sh("printf '0\\n'; exit 7"), Vec::new());
    let (out, outcome) = run(&cfg, b"");
    assert_eq!(out, b"0\n");
    assert_eq!(
        outcome,
        StreamOutcome {
            diverged: false,
            killed: vec![],
            exit_code: Some(7),
            committed: 2,
            peak_buffered: 6,
            stderr: vec![],
            stderr_dropped: 0,
        }
    );
}

#[test]
fn golden_outcome_three_way_divergence() {
    // Seeds 1/2/3 each print their own seed ("1\n" = 2 bytes): three
    // singleton ballots, no strict plurality. Divergence kills nobody (the
    // voter reports; the engine tears the processes down), commits nothing,
    // and forwards no stderr or status.
    let mut cfg = LaunchConfig::new(3, sh("echo $DIEHARD_SEED"), Vec::new());
    cfg.seeds = vec![1, 2, 3];
    let (out, outcome) = run(&cfg, b"");
    assert_eq!(out, b"");
    assert_eq!(
        outcome,
        StreamOutcome {
            diverged: true,
            killed: vec![],
            exit_code: None,
            committed: 0,
            peak_buffered: 6,
            stderr: vec![],
            stderr_dropped: 0,
        }
    );
}

#[test]
fn streamed_fd_outcome_matches_buffer_outcome() {
    // The same deterministic run through both input paths. Streamed mode
    // counts its bounded window toward the peak, so only the peak differs
    // — every other field must be identical, and the peak must stay within
    // the streamed bound of (2 × replicas + 1) × the transfer unit. (This
    // run cannot reach it: one chunk of stdout and ten bytes of stderr per
    // replica, and a window no longer than the whole 3-chunk input.)
    let script = format!("{EMIT_CHUNK}\ncat >/dev/null; emit KKKKKKKKKKKKKKKK; echo tail-diag >&2");
    let input = vec![b'x'; 3 * CHUNK]; // forces several window refills
    let cfg = LaunchConfig::new(3, sh(&script), Vec::new());
    let (buf_out, buf_outcome) = run(&cfg, &input);

    let (mut reader, mut writer) = {
        use std::os::unix::net::UnixStream;
        UnixStream::pair().expect("socketpair")
    };
    let feeder = {
        let payload = input.clone();
        std::thread::spawn(move || {
            use std::io::Write;
            writer.write_all(&payload).expect("feed input");
            // Dropping writer delivers EOF to the engine's source fd.
        })
    };
    let mut fd_out = Vec::new();
    let fd_outcome = {
        let source = InputSource::Fd(reader.try_clone().expect("dup").into());
        let outcome = run_streamed(&cfg, source, &mut fd_out).expect("streamed launch");
        // Drain any EOF state before closing the pair.
        use std::io::Read;
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        outcome
    };
    feeder.join().expect("feeder thread");

    assert_eq!(fd_out, buf_out);
    assert_eq!(fd_out, vec![b'K'; CHUNK]);
    let most = 3 * (CHUNK + "tail-diag\n".len()) + input.len();
    assert_golden_with_peak_in(&fd_outcome, &buf_outcome, 3 * CHUNK..=most);
    assert!(most <= (2 * 3 + 1) * TRANSFER);
}
