//! Integration tests for the event-driven streaming voter: mid-stream
//! kills (also of a dissenter whose bad chunk sits inside one multi-chunk
//! transfer), bounded buffering over multi-megabyte streams (also when one
//! replica runs far ahead of the others, and of a megabyte of in-memory
//! input), and a replicated server-style trace from `diehard-workloads`.

#![cfg(unix)]

use diehard_replicate::reactor::Reactor;
use diehard_replicate::{
    run_replicated, run_streamed, InputSource, LaunchConfig, Phase, Session, SessionInput,
    SessionIo, CHUNK, TRANSFER,
};
use diehard_workloads::server;
use std::time::{Duration, Instant};

fn sh(script: &str) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script.into()]
}

/// Emits `$1` (a 16-char string) 256 times = exactly one 4096-byte chunk.
const EMIT_CHUNK: &str =
    r#"emit() { i=0; while [ $i -lt 256 ]; do printf %s "$1"; i=$((i+1)); done; }"#;

#[test]
fn outvoted_replica_is_killed_mid_stream() {
    // The bad replica diverges on chunk 0 and then sleeps for 30 s before
    // producing chunk 1. With barrier-at-a-time voting it is SIGKILLed the
    // moment chunk 0 loses 2-1, so the run finishes in milliseconds; the
    // old buffer-everything design waited out the full sleep.
    let mut cfg = LaunchConfig::new(
        3,
        sh(&format!(
            r#"{EMIT_CHUNK}
            if [ "$DIEHARD_SEED" = "7" ]; then
                emit BBBBBBBBBBBBBBBB; sleep 30; emit BBBBBBBBBBBBBBBB
            else
                emit GGGGGGGGGGGGGGGG; emit GGGGGGGGGGGGGGGG
            fi"#
        )),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let start = Instant::now();
    let exit = run_replicated(&cfg).unwrap();
    let elapsed = start.elapsed();
    assert!(!exit.diverged);
    assert_eq!(exit.killed, vec![1], "the diverging replica must be killed");
    assert_eq!(exit.output, vec![b'G'; 2 * CHUNK]);
    assert_eq!(exit.exit_code, Some(0));
    assert!(
        elapsed < Duration::from_secs(20),
        "loser must die at its losing barrier, not at stream end \
         (took {elapsed:?}; un-killed it would sleep 30 s)"
    );
}

#[test]
fn survivors_continue_after_mid_stream_kill() {
    // The loser is killed at chunk 1; the survivors stream five more
    // chunks that must all commit.
    let mut cfg = LaunchConfig::new(
        3,
        sh(&format!(
            r#"{EMIT_CHUNK}
            emit SSSSSSSSSSSSSSSS
            if [ "$DIEHARD_SEED" = "7" ]; then
                emit XXXXXXXXXXXXXXXX
            else
                emit YYYYYYYYYYYYYYYY
            fi
            for c in 1 2 3 4 5; do emit ZZZZZZZZZZZZZZZZ; done"#
        )),
        Vec::new(),
    );
    cfg.seeds = vec![3, 7, 4];
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert_eq!(exit.killed, vec![1]);
    let mut expected = vec![b'S'; CHUNK];
    expected.extend_from_slice(&vec![b'Y'; CHUNK]);
    expected.extend_from_slice(&vec![b'Z'; 5 * CHUNK]);
    assert_eq!(exit.output, expected, "survivors' later chunks must commit");
    assert_eq!(exit.exit_code, Some(0));
}

#[test]
fn megabyte_stream_is_voted_with_bounded_buffering() {
    // 2,000,000 identical bytes per replica. The engine must commit all of
    // them while never holding more than replicas × the transfer unit —
    // the old design's peak was the full 6 MB of replica output.
    let cfg = LaunchConfig::new(3, sh("yes 0123456789abcde | head -c 2000000"), Vec::new());
    let mut out = Vec::new();
    let outcome = run_streamed(&cfg, InputSource::Buffer(Vec::new()), &mut out).unwrap();
    assert!(!outcome.diverged);
    assert_eq!(out.len(), 2_000_000);
    assert_eq!(outcome.committed, 2_000_000);
    assert_eq!(outcome.exit_code, Some(0));
    assert!(outcome.killed.is_empty());
    assert!(
        (3 * CHUNK..=3 * TRANSFER).contains(&outcome.peak_buffered),
        "peak buffered {} outside [replicas × CHUNK, replicas × transfer unit] = [{}, {}]",
        outcome.peak_buffered,
        3 * CHUNK,
        3 * TRANSFER
    );
    // Spot-check content: `yes` repeats "0123456789abcde\n".
    assert_eq!(&out[..16], b"0123456789abcde\n");
    assert_eq!(&out[1_999_984..], b"0123456789abcde\n");
}

#[test]
fn megabyte_input_is_fed_through_one_bounded_window() {
    // 1 MiB of input, sixteen pipes' worth, into three replicas that write
    // their chunk before they read stdin and then count what they read. An
    // in-memory input is read into the session's window like a launcher's
    // stdin: ≤ one transfer unit at a time, counted in `peak_buffered`.
    // The window starts at one chunk and doubles after every brim-full
    // read, and a slice fills every read it can, so some refill holds a
    // whole transfer unit whatever the schedule: that is the floor.
    const LEN: usize = 1 << 20;
    let script = format!("{EMIT_CHUNK}\nemit WWWWWWWWWWWWWWWW; wc -c | tr -d ' '");
    let input: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    let cfg = LaunchConfig::new(3, sh(&script), Vec::new());
    let mut out = Vec::new();
    let outcome = run_streamed(&cfg, InputSource::Buffer(input), &mut out).unwrap();
    let mut expected = vec![b'W'; CHUNK];
    expected.extend_from_slice(format!("{LEN}\n").as_bytes());
    assert_eq!(out, expected, "every replica read the whole input");
    assert!(!outcome.diverged);
    assert!(outcome.killed.is_empty());
    assert_eq!(outcome.exit_code, Some(0));
    assert!(
        (TRANSFER..=(2 * 3 + 1) * TRANSFER).contains(&outcome.peak_buffered),
        "peak buffered {} outside [{TRANSFER}, {}]",
        outcome.peak_buffered,
        (2 * 3 + 1) * TRANSFER
    );
}

#[test]
fn replica_far_ahead_of_its_siblings_is_held_to_one_transfer_unit() {
    // Seed 7 has its whole 1 MiB written before the others have produced a
    // byte; they deliver theirs 16 KiB at a time with a pause in between.
    // The fast replica's pipe and buffer fill and it blocks; nothing of the
    // megabyte is held anywhere but in the kernel pipe and ≤ one transfer
    // unit of session memory (debug builds, which is what `cargo test`
    // runs, also assert that per buffer on every read). The stream that
    // comes out is the one every replica wrote.
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"if [ "$DIEHARD_SEED" = "7" ]; then
                  head -c 1048576 /dev/zero | tr '\0' 'm'
              else
                  sleep 0.2
                  i=0; while [ $i -lt 64 ]; do
                      head -c 16384 /dev/zero | tr '\0' 'm'; sleep 0.005; i=$((i+1))
                  done
              fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let mut out = Vec::new();
    let outcome = run_streamed(&cfg, InputSource::Buffer(Vec::new()), &mut out).unwrap();
    assert_eq!(out.len(), 1 << 20);
    assert!(out.iter().all(|&b| b == b'm'));
    assert!(!outcome.diverged);
    assert!(outcome.killed.is_empty());
    assert_eq!(outcome.exit_code, Some(0));
    assert_eq!(outcome.committed, 1 << 20);
    // While the siblings sleep the fast replica alone fills its buffer.
    assert!(
        (TRANSFER..=3 * TRANSFER).contains(&outcome.peak_buffered),
        "peak buffered {} outside [{TRANSFER}, {}]",
        outcome.peak_buffered,
        3 * TRANSFER
    );
}

#[test]
fn dissenter_inside_one_transfer_is_killed_at_its_chunk() {
    // Every replica writes its 8 chunks with a single write(2), so each
    // arrives in the session as one transfer; seed 7's chunk 3 (of 0..8)
    // is wrong and it then hangs. The vote must still be per chunk: three
    // unanimous chunks, then the barrier that kills the dissenter with
    // exactly 3 × CHUNK committed, none of its bytes in the output, and
    // the two survivors voted to the end.
    const BAD: usize = 3;
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"fill() { head -c "$1" /dev/zero | tr '\0' "$2"; }
              if [ "$DIEHARD_SEED" = "7" ]; then
                  { fill 12288 g; fill 4096 B; fill 16384 g; } | dd bs=32768 iflag=fullblock 2>/dev/null
                  sleep 30
              else
                  fill 32768 g | dd bs=32768 iflag=fullblock 2>/dev/null
              fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let mut session = Session::spawn(&cfg, &cfg.seeds, SessionInput::Streamed).expect("spawn");
    session.accept_input_eof();
    let mut reactor: Reactor<SessionIo> = Reactor::new();
    let mut wait_and_service = |session: &mut Session| {
        reactor.clear();
        session.register_interest(|fd, events, io| reactor.register(fd, events, io));
        reactor.wait(10_000).expect("poll");
        for (io, _) in reactor.ready() {
            session.service(io);
        }
    };

    // A zero budget votes nothing but still retires the ended input, so
    // the replicas' `head`s are not left waiting on stdin.
    let mut out = Vec::new();
    assert_eq!(session.pump(&mut out, 0), Phase::Streaming);
    // One chunk per call: a budget of one byte is spent by the first
    // commit. (A 32 KiB write to an empty pipe lands whole and is read
    // whole, so after the first wait every barrier below is already in the
    // buffers; waiting before each keeps the test independent of that.)
    let start = Instant::now();
    let mut vote_one_chunk = |session: &mut Session, out: &mut Vec<u8>| {
        while !session.barrier_ready() {
            assert!(start.elapsed() < Duration::from_secs(10), "no output");
            wait_and_service(session);
        }
        assert_eq!(session.pump(out, 1), Phase::Streaming);
    };
    for chunk in 0..BAD {
        vote_one_chunk(&mut session, &mut out);
        assert_eq!(session.committed(), ((chunk + 1) * CHUNK) as u64);
        assert!(session.killed().is_empty(), "chunk {chunk} is unanimous");
    }
    assert_eq!(session.committed(), (BAD * CHUNK) as u64, "at the kill");
    vote_one_chunk(&mut session, &mut out);
    assert_eq!(session.killed(), [1], "killed at its own bad chunk");
    assert_eq!(session.committed(), ((BAD + 1) * CHUNK) as u64);

    // The survivors finish, long before the dissenter's sleep would.
    while session.pump(&mut out, usize::MAX) == Phase::Streaming {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "survivors stalled"
        );
        wait_and_service(&mut session);
    }
    let outcome = loop {
        match session.finalize() {
            Some(outcome) => break outcome,
            None => wait_and_service(&mut session),
        }
    };
    assert_eq!(
        out,
        vec![b'g'; 8 * CHUNK],
        "no dissenting byte reached the sink"
    );
    assert!(!outcome.diverged);
    assert_eq!(outcome.killed, vec![1]);
    assert_eq!(outcome.exit_code, Some(0));
    assert_eq!(outcome.committed, (8 * CHUNK) as u64);
}

#[test]
fn replicated_server_trace_round_trips() {
    // A long interactive session: requests are broadcast through the
    // bounded input window while produce bursts stream back out through
    // the voter, both directions interleaved by the reactor.
    let requests = server::trace(0xD1E_5EED, 400);
    let input = server::request_stream(&requests);
    let expected = server::expected_output(&requests);
    assert!(expected.len() > 128 * 1024, "trace must span many barriers");

    assert!(
        input.len() > 2 * CHUNK,
        "requests must span several windows"
    );

    let cfg = LaunchConfig::new(3, sh(server::SERVER_SCRIPT), Vec::new());
    let mut out = Vec::new();
    let outcome = run_streamed(&cfg, InputSource::Buffer(input), &mut out).unwrap();
    assert!(!outcome.diverged);
    assert!(outcome.killed.is_empty());
    assert_eq!(outcome.exit_code, Some(0), "QUIT exits the server cleanly");
    assert_eq!(
        out, expected,
        "voted stream must equal the deterministic server transcript"
    );
    // The first window is one brim-full chunk of requests, and no window
    // or buffer outgrows its transfer unit.
    assert!(
        (CHUNK..=(2 * 3 + 1) * TRANSFER).contains(&outcome.peak_buffered),
        "peak buffered {} outside [{CHUNK}, {}]",
        outcome.peak_buffered,
        (2 * 3 + 1) * TRANSFER
    );
}

#[test]
fn agreed_stderr_is_voted_and_forwarded() {
    let cfg = LaunchConfig::new(
        3,
        sh("echo shared-diagnostic >&2; echo payload"),
        Vec::new(),
    );
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert_eq!(exit.output, b"payload\n");
    // The replicas' identical captures form a unanimous stderr ballot and
    // exactly one copy is forwarded.
    assert_eq!(exit.stderr, b"shared-diagnostic\n");
    assert!(exit.killed.is_empty());
}

#[test]
fn stderr_divergence_fails_the_run_despite_unanimous_stdout() {
    // Byte-identical stdout and exit statuses, but every replica reports
    // different diagnostics: a memory error that only corrupts what a
    // replica *says* is still a divergence, and the stderr ballot (three
    // singleton groups, no strict plurality) must catch it.
    let mut cfg = LaunchConfig::new(
        3,
        sh("echo payload; echo \"diag from $DIEHARD_SEED\" >&2"),
        Vec::new(),
    );
    cfg.seeds = vec![1, 2, 3];
    let exit = run_replicated(&cfg).unwrap();
    assert!(exit.diverged, "per-replica stderr must fail the vote");
    assert_eq!(exit.output, b"payload\n", "agreed stdout streamed first");
    assert!(exit.stderr.is_empty(), "a diverged run forwards no stderr");
    assert_eq!(exit.exit_code, None, "no quorum, no agreed status");
}

#[test]
fn minority_stderr_loses_its_replica_the_exit_ballot() {
    // Two replicas agree on their diagnostics; the rogue third differs on
    // stderr *only*. The quorum's stderr and status win; the rogue is
    // outvoted at the stderr ballot.
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"echo payload
              if [ "$DIEHARD_SEED" = "7" ]; then
                  echo ROGUE-DIAGNOSTIC >&2
              else
                  echo steady-diagnostic >&2
              fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert_eq!(exit.output, b"payload\n");
    assert_eq!(exit.killed, vec![1], "minority stderr loses its vote");
    assert_eq!(exit.stderr, b"steady-diagnostic\n");
    assert_eq!(exit.exit_code, Some(0));
}

#[test]
fn loser_stderr_is_not_forwarded() {
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"if [ "$DIEHARD_SEED" = "7" ]; then
                  echo LOSER-DIAGNOSTIC >&2; echo bad
              else
                  echo quorum-diagnostic >&2; echo good
              fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![7, 1, 2];
    let exit = run_replicated(&cfg).unwrap();
    assert!(!exit.diverged);
    assert_eq!(exit.output, b"good\n");
    assert_eq!(exit.killed, vec![0]);
    assert_eq!(
        exit.stderr, b"quorum-diagnostic\n",
        "only a quorum member's stderr may be forwarded"
    );
}

#[test]
fn stderr_capture_is_bounded_and_never_blocks_the_replica() {
    // Each replica writes 100 KB of diagnostics — beyond the 64 KB pipe
    // capacity — *before* producing stdout or exiting. Without continuous
    // draining the replica would block on stderr forever; with it, the
    // capture keeps exactly the first CHUNK bytes and drops the rest.
    let cfg = LaunchConfig::new(
        3,
        sh("yes e | head -c 200000 | tr -d '\\n' >&2; echo ok"),
        Vec::new(),
    );
    let mut out = Vec::new();
    let outcome = run_streamed(&cfg, InputSource::Buffer(Vec::new()), &mut out).unwrap();
    assert!(!outcome.diverged);
    assert_eq!(out, b"ok\n");
    assert_eq!(outcome.stderr.len(), CHUNK, "capture capped at one chunk");
    assert!(outcome.stderr.iter().all(|&b| b == b'e'));
    // `yes e` emits "e\n"; tr strips newlines, so 100 000 'e's total.
    assert_eq!(outcome.stderr_dropped, 100_000 - CHUNK as u64);
    assert!(
        outcome.peak_buffered <= 2 * 3 * CHUNK,
        "stderr captures are part of the (2 × replicas) × CHUNK bound, got {}",
        outcome.peak_buffered
    );
}

#[test]
fn diverged_run_forwards_no_stderr() {
    let cfg = LaunchConfig::new(
        3,
        sh("echo \"secret $DIEHARD_SEED\" >&2; echo $DIEHARD_SEED"),
        Vec::new(),
    );
    let exit = run_replicated(&cfg).unwrap();
    assert!(exit.diverged);
    assert!(
        exit.stderr.is_empty(),
        "no winner, nothing to forward (got {:?})",
        String::from_utf8_lossy(&exit.stderr)
    );
}

#[test]
fn exit_status_tie_is_divergence() {
    // Four replicas split 2-2 on their exit status after unanimous output:
    // no strict plurality — the run must report divergence rather than
    // pick a side.
    let mut cfg = LaunchConfig::new(
        4,
        sh(r#"echo agreed; if [ "$DIEHARD_SEED" -lt "10" ]; then exit 3; fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 2, 11, 12];
    let exit = run_replicated(&cfg).unwrap();
    assert!(exit.diverged, "2-2 exit-status split has no quorum");
    assert_eq!(exit.exit_code, None);
    assert_eq!(exit.output, b"agreed\n", "output had already committed");
}
