//! Loopback integration tests for the replicated TCP proxy: many
//! concurrent voted sessions over one reactor, a corrupt replica outvoted
//! mid-connection, slow-reader backpressure and a full outbound queue that
//! keeps streaming, a one-chunk answer that does not wait for the request
//! to end, what an aborted connection reports it sent, replicas
//! that linger after their output without stalling other connections (or
//! a stop, which gives them one tick),
//! mid-stream client disconnects, an unresolvable response tie, replicas
//! that hold no socket, a failed accept the proxy survives, a proxy that
//! keeps no report of the connections it served, and the `diehard-proxy`
//! binary echoing through its warm pool.

#![cfg(unix)]

mod common;

use common::{poisonable_server, spawn_proxy, stop_and_join, ProxyProcess};
use diehard_replicate::net::{connect_loopback, shutdown_write, Listener};
use diehard_replicate::proxy::{Proxy, OUT_CAP};
use diehard_replicate::{LaunchConfig, CHUNK, TRANSFER};
use diehard_workloads::client::{abandon_mid_stream, drive, Pace};
use diehard_workloads::server::{self, ServerRequest};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn concurrent_connections_vote_and_outvote_a_corrupt_replica() {
    // The acceptance scenario: 10 concurrent clients, each served by its
    // own 3-replica server set (seeds 1/7/2 reused per connection). Every
    // connection's seed-7 replica runs the corruptible script, but only
    // connection 3's trace carries the "poison" trigger — so exactly one
    // connection sees its replica diverge mid-run, is outvoted 2-1 at that
    // chunk's barrier, and keeps streaming from the survivors, while every
    // other connection stays byte-exact end to end.
    let mut config = LaunchConfig::new(
        3,
        poisonable_server(r#"[ "$DIEHARD_SEED" = "7" ]"#),
        Vec::new(),
    );
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    const CLIENTS: usize = 10;
    const POISONED: usize = 3;
    let traces: Vec<Vec<ServerRequest>> = (0..CLIENTS)
        .map(|i| {
            if i == POISONED {
                // The poisoned echo lands in chunk 0; the 3,000-line burst
                // after it (~39 KB, ≈ 10 chunks) proves the kill happens
                // mid-run with the survivors still streaming.
                vec![
                    ServerRequest::Echo("poison-trigger-0001".into()),
                    ServerRequest::Produce(3000),
                    ServerRequest::Quit,
                ]
            } else {
                server::trace(0xACC_E57 ^ (i as u64), 30)
            }
        })
        .collect();

    let gate = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, requests)| {
            let requests = requests.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait(); // all connections in flight together
                let response = drive(port, &requests, Pace::full()).expect("client I/O");
                (i, requests, response)
            })
        })
        .collect();
    for client in clients {
        let (i, requests, response) = client.join().expect("client thread");
        assert_eq!(
            response,
            server::expected_output(&requests),
            "connection {i} must receive the exact voted transcript"
        );
    }

    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, CLIENTS as u64);
    assert_eq!(summary.diverged, 0, "a 2-1 outvote is not a divergence");
    assert_eq!(summary.aborted, 0);
    let killed: Vec<_> = summary
        .reports
        .iter()
        .filter(|r| r.outcome.as_ref().is_some_and(|o| !o.killed.is_empty()))
        .collect();
    assert_eq!(killed.len(), 1, "exactly one connection loses a replica");
    let outcome = killed[0].outcome.as_ref().unwrap();
    assert_eq!(outcome.killed, vec![1], "the seed-7 replica is outvoted");
    assert_eq!(outcome.exit_code, Some(0), "survivors agree on exit 0");
    let poisoned_len = server::expected_output(&traces[POISONED]).len() as u64;
    assert_eq!(outcome.committed, poisoned_len);
    for report in &summary.reports {
        let outcome = report.outcome.as_ref().expect("no aborts in this test");
        assert!(!outcome.diverged);
        assert_eq!(outcome.exit_code, Some(0));
    }
}

#[test]
fn slow_reader_backpressure_keeps_buffers_bounded() {
    // One client drains a ~147 KB burst 512 bytes at a time with a pause
    // between reads. The proxy must not absorb the stream: its outbound
    // queue stays under OUT_CAP + one chunk, and the session's own buffers
    // stay under the (2 × replicas + 1) × TRANSFER bound — the replicas
    // are throttled by the kernel pipes instead.
    let config = LaunchConfig::new(3, poisonable_server("false"), Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let requests = vec![ServerRequest::Produce(10_500), ServerRequest::Quit];
    let expected = server::expected_output(&requests);
    assert!(expected.len() > 128 * 1024, "must span many barriers");
    let response =
        drive(port, &requests, Pace::slow(512, Duration::from_micros(200))).expect("client I/O");
    assert_eq!(response, expected, "slow reading must not corrupt the vote");

    let summary = stop_and_join(&stop, handle);
    let report = &summary.reports[0];
    let outcome = report.outcome.as_ref().expect("session completed");
    assert_eq!(outcome.committed, expected.len() as u64);
    assert!(
        outcome.peak_buffered <= (2 * 3 + 1) * TRANSFER,
        "session peak {} exceeds the (2·replicas+1)×TRANSFER bound {}",
        outcome.peak_buffered,
        (2 * 3 + 1) * TRANSFER
    );
    assert!(
        report.out_peak <= OUT_CAP + CHUNK,
        "outbound queue peak {} exceeds OUT_CAP {OUT_CAP} + one chunk",
        report.out_peak
    );
}

#[test]
fn a_full_queue_streams_without_waiting_for_the_tick() {
    // 8 MiB through the outbound queue, to a reader that starts late (so
    // the socket fills and the queue really is refused for a while) and
    // then reads 4 KiB at a time (so it drains again). Each pump can commit
    // OUT_CAP / CHUNK chunks before the queue is at its cap, and the
    // replicas' buffers are full, which means unpolled: if a round went to
    // sleep after one pump and one flush, nothing would wake it but the
    // 100 ms tick, and 512 full queues would take most of a minute. The
    // round must alternate pump and flush for as long as the socket takes
    // bytes — and the queue must still never exceed OUT_CAP + one chunk.
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let payload: Vec<u8> = (0..8usize << 20).map(|i| (i % 251) as u8).collect();
    let start = Instant::now();
    let mut stream = connect_loopback(port).expect("connect");
    let writer = {
        let mut stream = stream.try_clone().expect("clone");
        let payload = payload.clone();
        std::thread::spawn(move || {
            stream.write_all(&payload).expect("send");
            shutdown_write(&stream).expect("half-close");
        })
    };
    let mut echoed = Vec::with_capacity(payload.len());
    let mut piece = [0u8; 4096];
    std::thread::sleep(Duration::from_millis(100));
    loop {
        match stream.read(&mut piece).expect("read") {
            0 => break,
            n => echoed.extend_from_slice(&piece[..n]),
        }
    }
    writer.join().expect("writer thread");
    let elapsed = start.elapsed();
    assert!(echoed == payload, "voted echo must be byte-exact");
    assert!(
        elapsed < Duration::from_secs(30),
        "8 MiB through the queue took {elapsed:?}: the round is sleeping on votable bytes"
    );

    let summary = stop_and_join(&stop, handle);
    let report = &summary.reports[0];
    let outcome = report.outcome.as_ref().expect("session completed");
    assert_eq!(outcome.committed, payload.len() as u64);
    assert_eq!(report.sent, payload.len() as u64);
    assert!(
        report.out_peak <= OUT_CAP + CHUNK,
        "outbound queue peak {} exceeds OUT_CAP {OUT_CAP} + one chunk",
        report.out_peak
    );
    assert!(outcome.peak_buffered <= (2 * 3 + 1) * TRANSFER);
}

#[test]
fn one_chunk_request_is_answered_before_the_half_close() {
    // A request of exactly one chunk, and no FIN: the barrier is the
    // chunk, not the transfer unit, so the voted chunk must come back
    // while the client still holds its sending side open. (Raising the
    // default chunk to a pipe's 64 KiB instead of separating the two units
    // would leave this client waiting for 60 KiB that never come.)
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let payload: Vec<u8> = (0..CHUNK).map(|i| (i % 239) as u8).collect();
    let mut stream = connect_loopback(port).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(&payload).expect("send");
    let mut first = vec![0u8; CHUNK];
    stream
        .read_exact(&mut first)
        .expect("the voted chunk must arrive with the request still open");
    assert_eq!(first, payload);
    shutdown_write(&stream).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "one chunk in, one chunk out");

    let summary = stop_and_join(&stop, handle);
    let outcome = summary.reports[0].outcome.as_ref().expect("finalized");
    assert_eq!(outcome.committed, CHUNK as u64);
    assert_eq!(outcome.exit_code, Some(0));
    // One chunk in flight: no buffer ever grew past its first chunk.
    assert!(
        outcome.peak_buffered <= (3 + 1) * CHUNK,
        "a 4 KiB connection retained {} bytes",
        outcome.peak_buffered
    );
}

#[test]
fn a_lingering_replica_set_stalls_no_other_connection() {
    // Every replica echoes its request, closes its stdout, then runs on
    // for two seconds before exiting 0. Connection A's client gets its
    // answer and EOF at once; while A's replicas linger, connection B is
    // served at once too, because reaping is one more event of the
    // reactor round rather than a wait that holds the round up. A's exit
    // ballot still arrives when the linger ends.
    const LINGER: Duration = Duration::from_secs(2);
    let script = format!("cat; exec >&-; sleep {}", LINGER.as_secs());
    let config = LaunchConfig::new(3, vec!["/bin/sh".into(), "-c".into(), script], Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);
    let echo = |payload: &[u8]| {
        let mut stream = connect_loopback(port).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(payload).expect("send");
        shutdown_write(&stream).expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("EOF");
        assert_eq!(response, payload);
    };

    let a_started = Instant::now();
    echo(b"connection A");
    let b_started = Instant::now();
    echo(b"connection B");
    let b_took = b_started.elapsed();
    assert!(
        b_took < Duration::from_millis(500),
        "an echo took {b_took:?} while another connection's replicas lingered"
    );

    // Stop only once A's replicas have exited, so its report is complete.
    std::thread::sleep(
        (a_started + LINGER + Duration::from_millis(1500))
            .saturating_duration_since(Instant::now()),
    );
    let summary = stop_and_join(&stop, handle);
    let a = summary
        .reports
        .iter()
        .find(|r| r.conn_id == 0)
        .expect("A retired");
    assert!(!a.aborted);
    let outcome = a.outcome.as_ref().expect("A's replicas were reaped");
    assert_eq!(outcome.exit_code, Some(0));
    assert_eq!(outcome.committed, b"connection A".len() as u64);
}

#[test]
fn stopping_gives_a_drained_connection_one_tick_for_its_closing_ballots() {
    // The client has its answer and its EOF while the replicas still run:
    // 50 ms on, they exit 0. Stopping the proxy at once must not abort that
    // connection — its exit ballots arrive within the tick a stopping proxy
    // grants — while replicas that linger two seconds are aborted when the
    // tick is up, so the stop itself never waits on them.
    for (linger, ballots_in_time) in [("0.05", true), ("2", false)] {
        let script = format!("cat; exec >&-; sleep {linger}");
        let config = LaunchConfig::new(3, vec!["/bin/sh".into(), "-c".into(), script], Vec::new());
        let listener = Listener::bind_loopback(0).expect("bind");
        let proxy = Proxy::new(listener, config).expect("a replica count that votes");
        let (port, stop, handle) = spawn_proxy(proxy);
        let mut stream = connect_loopback(port).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(b"drained").expect("send");
        shutdown_write(&stream).expect("half-close");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("EOF");
        assert_eq!(response, b"drained");

        let stopped = Instant::now();
        let summary = stop_and_join(&stop, handle);
        let took = stopped.elapsed();
        assert!(took < Duration::from_secs(1), "stopping took {took:?}");
        let report = &summary.reports[0];
        assert_eq!(report.aborted, !ballots_in_time, "linger {linger} s");
        if ballots_in_time {
            let outcome = report.outcome.as_ref().expect("finalized");
            assert_eq!(outcome.exit_code, Some(0));
            assert_eq!(outcome.committed, b"drained".len() as u64);
        }
    }
}

#[test]
fn mid_stream_disconnect_reaps_only_its_own_session() {
    // Two connections: a well-behaved client streaming a long trace, and a
    // client that sends a torn request prefix (a completed PRODUCE burst
    // plus half a line) and vanishes without reading. The proxy's writes
    // to the dead socket fail, that session is aborted — its replicas
    // SIGKILLed and reaped — and the good connection's transcript is
    // untouched. The run() return itself proves the reap: it joins every
    // replica before reporting.
    let mut config = LaunchConfig::new(
        3,
        poisonable_server(r#"[ "$DIEHARD_SEED" = "7" ]"#),
        Vec::new(),
    );
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let doomed = vec![
        ServerRequest::Produce(20_000), // ~260 KB the client will never read
        ServerRequest::Echo("never-sent".into()),
        ServerRequest::Quit,
    ];
    let torn = server::request_stream(&[doomed[0].clone()]).len() + 7;
    abandon_mid_stream(port, &doomed, torn).expect("connect");

    let requests = server::trace(0xD15C0, 60);
    let response = drive(port, &requests, Pace::full()).expect("client I/O");
    assert_eq!(
        response,
        server::expected_output(&requests),
        "the surviving connection must stay byte-exact"
    );

    // Give the abort a moment to surface before stopping the reactor.
    std::thread::sleep(Duration::from_millis(300));
    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.aborted, 1, "exactly the vanished client's session");
    assert_eq!(summary.diverged, 0);
    let good: Vec<_> = summary.reports.iter().filter(|r| !r.aborted).collect();
    assert_eq!(good.len(), 1);
    let outcome = good[0].outcome.as_ref().expect("finished cleanly");
    assert!(!outcome.diverged);
    assert_eq!(outcome.exit_code, Some(0));
    assert_eq!(
        outcome.committed,
        server::expected_output(&requests).len() as u64
    );
}

#[test]
fn an_aborted_connection_reports_the_bytes_it_sent() {
    // A client asks for a long response (≈ 14 MB, far more than the
    // sockets and pipes between it and the replicas hold), reads at least
    // 64 KiB of it and drops the socket with the rest unread. Its
    // connection is aborted and has no outcome, and its report must still
    // count the response bytes the proxy wrote to it, which are at least
    // the bytes the client read.
    let config = LaunchConfig::new(3, poisonable_server("false"), Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let requests = [ServerRequest::Produce(1_000_000), ServerRequest::Quit];
    let expected = server::expected_output(&requests);
    let mut stream = connect_loopback(port).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(&server::request_stream(&requests))
        .expect("send");
    let mut read = 0;
    let mut piece = [0u8; 4096];
    while read < 64 * 1024 {
        let n = stream.read(&mut piece).expect("the response streams");
        assert!(n > 0, "EOF after {read} bytes");
        assert_eq!(piece[..n], expected[read..read + n], "voted bytes");
        read += n;
    }
    drop(stream);

    // Give the abort a moment to surface before stopping the reactor.
    std::thread::sleep(Duration::from_millis(300));
    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.aborted, 1);
    let report = &summary.reports[0];
    assert!(report.aborted && report.outcome.is_none());
    assert!(
        report.sent >= read as u64,
        "the aborted report says {} bytes were sent; the client read {read}",
        report.sent
    );
}

#[test]
fn serve_hands_each_report_to_its_caller_and_keeps_none() {
    // What the binary runs: `serve` hands every retired connection's report
    // to its caller, so a proxy that serves forever does not grow with the
    // connections it has served (`run` keeps them all, for tests).
    const CONNS: u64 = 300;
    let config = LaunchConfig::new(1, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let mut proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut retired = Vec::new();
        let summary = proxy.serve(&flag, |report| retired.push(report.conn_id));
        (summary, retired)
    });
    for _ in 0..CONNS {
        let mut stream = connect_loopback(port).expect("connect");
        stream.write_all(b"ping\n").expect("send");
        shutdown_write(&stream).expect("half-close");
        let mut echo = Vec::new();
        stream.read_to_end(&mut echo).expect("read the echo");
        assert_eq!(echo, b"ping\n");
    }
    stop.store(true, Ordering::Release);
    let (summary, mut retired) = server.join().expect("proxy thread");
    let summary = summary.expect("reactor ran");
    assert_eq!(summary.accepted, CONNS);
    assert_eq!((summary.aborted, summary.diverged), (0, 0));
    assert!(summary.reports.is_empty(), "serve kept a report");
    retired.sort_unstable();
    assert_eq!(retired, (0..CONNS).collect::<Vec<_>>(), "one report each");
}

#[test]
fn response_tie_closes_the_connection_with_divergence() {
    // Four replicas, seeds 1/7/2/8; seeds 7 and 8 run the corrupt branch.
    // The poisoned echo splits the first response chunk 2-2 — no strict
    // plurality, committing either side would be arbitrary — so the vote
    // reports divergence, the session SIGKILLs all replicas, and the
    // client sees the committed prefix (here: nothing past the divergent
    // chunk) then EOF.
    let mut config = LaunchConfig::new(
        4,
        poisonable_server(r#"[ "$DIEHARD_SEED" = "7" ] || [ "$DIEHARD_SEED" = "8" ]"#),
        Vec::new(),
    );
    config.seeds = vec![1, 7, 2, 8];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let requests = vec![
        ServerRequest::Echo("poison-tie".into()),
        ServerRequest::Produce(2000),
        ServerRequest::Quit,
    ];
    let expected = server::expected_output(&requests);
    let response = drive(port, &requests, Pace::full()).expect("client I/O");
    assert!(
        response.len() < expected.len(),
        "a tied vote must cut the stream short ({} of {} bytes)",
        response.len(),
        expected.len()
    );
    assert!(
        expected.starts_with(&response),
        "whatever was committed before the tie must be quorum bytes"
    );

    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.diverged, 1, "the tie must be logged as divergence");
    let outcome = summary.reports[0].outcome.as_ref().expect("finalized");
    assert!(outcome.diverged);
    assert_eq!(outcome.exit_code, None, "no quorum, no agreed status");
    assert_eq!(outcome.committed, response.len() as u64);
}

#[test]
fn no_replica_inherits_a_socket() {
    // Every socket the proxy holds is close-on-exec: a client connection
    // leaked into a replica would keep that connection open past the
    // proxy's own close. Each replica counts the sockets among its own
    // descriptors; the voted answer must be zero.
    let config = LaunchConfig::new(
        3,
        vec![
            "/bin/sh".into(),
            "-c".into(),
            "cat >/dev/null; ls -l /proc/$$/fd | grep -c socket".into(),
        ],
        Vec::new(),
    );
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("a replica count that votes");
    let (port, stop, handle) = spawn_proxy(proxy);

    let mut stream = connect_loopback(port).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"request\n").expect("send");
    shutdown_write(&stream).expect("half-close");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("EOF");
    assert_eq!(response, b"0\n", "a replica holds a socket");

    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.diverged, 0);
}

#[test]
fn accept_failure_at_the_fd_limit_keeps_the_proxy_serving() {
    // A proxy at its descriptor limit cannot accept. That failure must not
    // end the proxy: it logs once, the client waits in the backlog, and
    // the connection is served once descriptors are available again.
    use std::process::Command;

    if Command::new("prlimit").arg("--version").output().is_err() {
        eprintln!("skipped: prlimit is not installed");
        return;
    }
    let mut proxy = ProxyProcess::spawn(&["--pool", "0", "-n", "3", "--", "cat"]);
    let pid = proxy.child.id();
    let port = proxy.port();

    let soft_limit = || -> String {
        let limits = std::fs::read_to_string(format!("/proc/{pid}/limits")).expect("limits");
        let line = limits
            .lines()
            .find(|l| l.starts_with("Max open files"))
            .expect("open-files row")
            .to_owned();
        line.split_whitespace()
            .nth(3)
            .expect("soft column")
            .to_owned()
    };
    let set_soft_limit = |soft: &str| {
        let status = Command::new("prlimit")
            .args(["--pid", &pid.to_string(), &format!("--nofile={soft}:")])
            .status()
            .expect("prlimit runs");
        assert!(status.success(), "prlimit --nofile={soft}:");
    };
    let original = soft_limit();
    let open = std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("fd dir")
        .count();
    set_soft_limit(&open.to_string());

    let mut stream = connect_loopback(port).expect("the backlog takes the connection");
    let failure = proxy.next_line();
    assert!(failure.contains("accept failed"), "{failure}");
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        proxy.child.try_wait().expect("wait").is_none(),
        "the proxy must survive a failed accept"
    );
    assert!(
        proxy.lines.try_recv().is_err(),
        "a streak of failed accepts is logged once"
    );

    set_soft_limit(&original);
    let request = b"served after the limit is lifted\n";
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(request).expect("send");
    shutdown_write(&stream).expect("half-close");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("EOF");
    assert_eq!(response, request);
}

#[test]
fn the_binary_echoes_byte_exact_through_a_warm_pool() {
    // The shipped binary end to end, with the command after `--` and bare:
    // five sequential connections, each a multi-chunk payload sent from a
    // writer thread and half-closed, each echoed byte-exact through three
    // voted `cat` replicas, and the depth-2 pool hands out at least one
    // warm set.
    let payload: Vec<u8> = (0..32_768u32).map(|i| (i % 251) as u8).collect();
    for command in [&["--", "cat"][..], &["cat"]] {
        let mut args = vec!["-n", "3", "--seed", "1", "--pool", "2"];
        args.extend(command);
        let proxy = ProxyProcess::spawn(&args);
        let port = proxy.port();
        for round in 0..5 {
            std::thread::sleep(Duration::from_millis(50)); // time to refill
            let mut stream = connect_loopback(port).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let writer = {
                let mut stream = stream.try_clone().expect("clone");
                let payload = payload.clone();
                std::thread::spawn(move || {
                    stream.write_all(&payload).expect("send");
                    shutdown_write(&stream).expect("half-close");
                })
            };
            let mut echoed = Vec::new();
            stream.read_to_end(&mut echoed).expect("EOF");
            writer.join().expect("writer thread");
            assert!(
                echoed == payload,
                "{args:?}, connection {round}: echo differs"
            );
        }
        // One pool line per retired connection; the last counts them all.
        let pool_lines: Vec<String> = std::iter::repeat_with(|| proxy.next_line())
            .filter(|line| line.contains("pool depth=2 "))
            .take(5)
            .collect();
        let handed_out: u64 = pool_lines[4]
            .split_whitespace()
            .find_map(|field| field.strip_prefix("handed_out="))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no handed_out in {:?}", pool_lines[4]));
        assert!(
            handed_out >= 1,
            "{args:?}: no warm handoff in {pool_lines:?}"
        );
    }
}
