//! Every way a voted run can end leaves no descriptor open and no child
//! unreaped: agreement, a mid-stream outvote, a three-way divergence, an
//! exit-status tie, an abort while streaming, and a spawn that fails.
//!
//! One `#[test]` on purpose: the file's process then runs no other test
//! concurrently, so the `/proc/self/fd` count and `waitpid(-1, …)` see only
//! what the run under test left behind.

#![cfg(unix)]

use diehard_replicate::reactor::Reactor;
use diehard_replicate::{
    run_replicated, LaunchConfig, Phase, ReplicatedExit, Session, SessionInput, SessionIo,
};
use std::time::{Duration, Instant};

fn sh(script: &str) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script.into()]
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// Whether this process has no child left at all, exited or running:
/// `waitpid(-1, …, WNOHANG)` fails (`ECHILD`) rather than returning 0 (a
/// running child) or a pid (a zombie, which it would also reap).
fn no_children() -> bool {
    const WNOHANG: libc::c_int = 1; // <sys/wait.h>
    let mut status = 0;
    // SAFETY: waitpid(2) with a valid out-pointer; WNOHANG never blocks.
    let pid = unsafe { libc::waitpid(-1, &mut status, WNOHANG) };
    pid == -1
}

fn run(replicas: usize, script: &str, seeds: &[u64]) -> ReplicatedExit {
    let mut config = LaunchConfig::new(replicas, sh(script), b"leak check\n".to_vec());
    config.seeds = seeds.to_vec();
    run_replicated(&config).expect("replicated run")
}

/// A session streaming through `cat`, abandoned once output has been voted.
fn abort_while_streaming() {
    let mut config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    config.seeds = vec![1, 2, 3];
    let mut session = Session::spawn(&config, &config.seeds, SessionInput::Streamed).expect("cat");
    let request = vec![b'x'; config.chunk];
    assert_eq!(
        session.fill_input(&mut &request[..]).unwrap(),
        request.len()
    );
    session.flush_input();
    let mut reactor: Reactor<SessionIo> = Reactor::new();
    let mut out = Vec::new();
    let start = Instant::now();
    while out.is_empty() {
        assert_eq!(session.pump(&mut out, usize::MAX), Phase::Streaming);
        assert!(start.elapsed() < Duration::from_secs(10), "no output");
        reactor.clear();
        session.register_interest(|fd, events, io| reactor.register(fd, events, io));
        reactor.wait(1_000).expect("poll");
        for (io, _) in reactor.ready() {
            session.service(io);
        }
    }
    session.abort();
}

/// Runs `body` and requires that it left no descriptor open and no child
/// behind.
fn leaves_nothing(name: &str, body: impl FnOnce()) {
    let before = open_fds();
    body();
    assert_eq!(open_fds(), before, "{name}: descriptors leaked");
    assert!(no_children(), "{name}: a child is left unreaped");
}

#[test]
fn no_run_leaks_a_descriptor_or_a_child() {
    leaves_nothing("agreement", || {
        let exit = run(3, "cat", &[1, 2, 3]);
        assert_eq!((exit.diverged, exit.exit_code), (false, Some(0)));
    });
    leaves_nothing("outvote in mid-stream", || {
        let emit = r#"emit() { i=0; while [ $i -lt 2048 ]; do printf %s "$1"; i=$((i+1)); done; }"#;
        let script = format!(
            r#"{emit}; emit good; if [ "$DIEHARD_SEED" = 7 ]; then emit evil; else emit good; fi; emit good"#
        );
        let exit = run(3, &script, &[1, 7, 2]);
        assert_eq!((exit.diverged, exit.killed), (false, vec![1]));
    });
    leaves_nothing("three-way divergence", || {
        assert!(run(3, "echo $DIEHARD_SEED", &[1, 2, 3]).diverged);
    });
    leaves_nothing("exit-status tie", || {
        let exit = run(4, "cat; exit $((DIEHARD_SEED % 2))", &[1, 2, 3, 4]);
        assert_eq!((exit.diverged, exit.exit_code), (true, None));
    });
    leaves_nothing("abort while streaming", abort_while_streaming);
    leaves_nothing("spawn of a missing command", || {
        let config = LaunchConfig::new(3, vec!["/nonexistent/replica".into()], Vec::new());
        assert!(run_replicated(&config).is_err());
    });
}
