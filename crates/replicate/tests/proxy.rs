//! Loopback integration tests for the replicated TCP proxy: many
//! concurrent voted sessions over one reactor, a corrupt replica outvoted
//! mid-connection, slow-reader backpressure (down to a one-chunk queue),
//! a one-chunk answer that does not wait for the request to end,
//! mid-stream client disconnects, and an unresolvable response tie.

#![cfg(unix)]

use diehard_replicate::net::{connect_loopback, shutdown_write, Listener};
use diehard_replicate::proxy::{Proxy, ProxySummary};
use diehard_replicate::{LaunchConfig, CHUNK, TRANSFER};
use diehard_workloads::client::{abandon_mid_stream, drive, Pace};
use diehard_workloads::server::{self, ServerRequest};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The server protocol with an injectable fault: when `bad_when` (a shell
/// condition over `$DIEHARD_SEED`) holds, `ECHO poison*` answers `KO ...`
/// instead of `OK ...` — a same-length corruption, so chunk alignment is
/// preserved and only the vote can tell the replicas apart. Every other
/// request, and every replica outside `bad_when`, is the byte-exact
/// [`server::SERVER_SCRIPT`] behavior.
fn poisonable_server(bad_when: &str) -> Vec<String> {
    let script = format!(
        r#"if {bad_when}; then
  while IFS= read -r line; do
    case "$line" in
      "ECHO poison"*) printf 'KO %s\n' "${{line#ECHO }}";;
      "ECHO "*) printf 'OK %s\n' "${{line#ECHO }}";;
      "PRODUCE "*) n="${{line#PRODUCE }}"; i=0
        while [ "$i" -lt "$n" ]; do printf 'DATA %08d\n' "$i"; i=$((i+1)); done;;
      "QUIT") exit 0;;
      *) printf 'ERR\n';;
    esac
  done
else
{server}
fi"#,
        server = server::SERVER_SCRIPT
    );
    vec!["/bin/sh".into(), "-c".into(), script]
}

/// Spawns `proxy.run` on its own thread; returns (port, stop flag, handle).
type ProxyHandle = std::thread::JoinHandle<io::Result<ProxySummary>>;

fn spawn_proxy(mut proxy: Proxy) -> (u16, Arc<AtomicBool>, ProxyHandle) {
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || proxy.run(&flag));
    (port, stop, handle)
}

fn stop_and_join(stop: &AtomicBool, handle: ProxyHandle) -> ProxySummary {
    stop.store(true, Ordering::Release);
    handle.join().expect("proxy thread").expect("reactor ran")
}

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
    let proxy = Proxy::new(listener, config).expect("chunk valid");
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
    // One client drains a ~137 KB burst 512 bytes at a time with a pause
    // between reads. The proxy must not absorb the stream: its outbound
    // queue stays under cap + one chunk, and the session's own buffers
    // stay under the (2 × replicas + 1) × transfer-unit bound — the
    // replicas are throttled by the kernel pipes instead.
    let chunk = 1024usize;
    let cap = 4 * chunk;
    let config = LaunchConfig::new(3, poisonable_server("false"), Vec::new()).with_chunk(chunk);
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config)
        .expect("chunk valid")
        .with_out_cap(cap);
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
    let unit = TRANSFER.max(chunk);
    assert!(
        outcome.peak_buffered <= (2 * 3 + 1) * unit,
        "session peak {} exceeds the (2·replicas+1)×max(chunk, TRANSFER) bound {}",
        outcome.peak_buffered,
        (2 * 3 + 1) * unit
    );
    assert!(
        report.out_peak <= cap + chunk,
        "outbound queue peak {} exceeds cap {} + one chunk",
        report.out_peak,
        cap
    );
}

#[test]
fn one_chunk_queue_streams_without_waiting_for_the_tick() {
    // 8 MiB through a queue capped at one chunk, to a reader that starts
    // late (so the socket fills and the queue really is refused for a
    // while) and then reads 4 KiB at a time (so it drains again). Each
    // pump can commit one chunk before the queue is at its
    // cap, and the replicas' buffers are full, which means unpolled: if a
    // round went to sleep after one pump and one flush, nothing would wake
    // it but the 100 ms tick, and 2048 chunks would take minutes. The
    // round must alternate pump and flush for as long as the socket takes
    // bytes — and the queue must still never exceed cap + one chunk.
    let chunk = CHUNK;
    let config = LaunchConfig::new(3, vec!["/bin/cat".into()], Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config)
        .expect("chunk valid")
        .with_out_cap(chunk);
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
        "8 MiB through a one-chunk queue took {elapsed:?}: the round is sleeping on votable bytes"
    );

    let summary = stop_and_join(&stop, handle);
    let report = &summary.reports[0];
    let outcome = report.outcome.as_ref().expect("session completed");
    assert_eq!(outcome.committed, payload.len() as u64);
    assert_eq!(report.sent, payload.len() as u64);
    assert!(
        report.out_peak <= chunk + chunk,
        "outbound queue peak {} exceeds cap {chunk} + one chunk",
        report.out_peak
    );
    assert!(outcome.peak_buffered <= (2 * 3 + 1) * TRANSFER.max(chunk));
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
    let proxy = Proxy::new(listener, config).expect("chunk valid");
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
    let proxy = Proxy::new(listener, config).expect("chunk valid");
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
    let proxy = Proxy::new(listener, config).expect("chunk valid");
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
