//! Warm replica-set pool behind the TCP proxy: determinism, exhaustion
//! fallback, mid-connection outvoting of a pooled corrupt replica, and
//! crash-loop containment.
//!
//! The pool's contract is that warmth is *invisible* in every observable
//! outcome: for the same `LaunchConfig`, a connection served by a
//! pre-spawned parked set and one served by an inline cold spawn produce
//! the same voted transcript, the same outcome, and the same per-replica
//! seed assignment. This file pins that contract through the proxy with
//! `--pool 0` vs `--pool N`, plus the failure paths: an exhausted pool
//! falls back to cold spawning transparently, a corrupt-seed replica
//! handed out warm is still outvoted mid-connection, and a target binary
//! that dies at startup is reaped with back-off instead of respawned in a
//! hot loop. `Pool`'s own unit tests pin depth 0 as the cold path.

#![cfg(unix)]

mod common;

use common::{poisonable_server, spawn_proxy, stop_and_join};
use diehard_replicate::net::Listener;
use diehard_replicate::proxy::{Proxy, ProxySummary};
use diehard_replicate::{LaunchConfig, StreamOutcome, CHUNK, TRANSFER};
use diehard_workloads::client::{drive, Pace};
use diehard_workloads::server::{self, ServerRequest};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn sh(script: &str) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script.into()]
}

/// The replica [`poisonable_server`] corrupts in this suite.
const SEED_7: &str = r#"[ "$DIEHARD_SEED" = "7" ]"#;

/// Spin until the pool gauge reports at least `want` parked sets.
fn wait_for_warmth(gauge: &AtomicUsize, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge.load(Ordering::Acquire) < want {
        assert!(Instant::now() < deadline, "pool never warmed to {want}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Determinism pinned across the proxy: for the same explicit seeds, a
/// `--pool 0` proxy and a `--pool 2` proxy produce bit-identical voted
/// transcripts, identical per-connection outcomes, and identical
/// per-replica seed assignment — warmth changes *when* fork/exec happens,
/// never what the connection observes. The one field left out of the
/// equality is `peak_buffered`: how many bytes the replicas had delivered
/// ahead of each other at the fullest moment is scheduling (it read 8552
/// against 8510 between two runs of the same proxy), so it is held to the
/// session's bound instead.
#[test]
fn proxy_transcripts_and_seeds_identical_pool_0_vs_pool_2() {
    const CONNS: usize = 4;
    let traces: Vec<Vec<ServerRequest>> = (0..CONNS)
        .map(|i| server::trace(0xD1E ^ (i as u64), 12))
        .collect();

    let run_with_depth = |depth: usize| -> (Vec<Vec<u8>>, ProxySummary) {
        let mut config = LaunchConfig::new(3, poisonable_server(SEED_7), Vec::new());
        config.seeds = vec![1, 7, 2];
        let listener = Listener::bind_loopback(0).expect("bind");
        let mut proxy = Proxy::new(listener, config).expect("chunk valid");
        let gauge = proxy.pool_gauge();
        if depth > 0 {
            proxy = proxy.with_pool(depth);
        }
        let (port, stop, handle) = spawn_proxy(proxy);
        if depth > 0 {
            wait_for_warmth(&gauge, 1);
        }
        let responses: Vec<Vec<u8>> = traces
            .iter()
            .map(|requests| drive(port, requests, Pace::full()).expect("client I/O"))
            .collect();
        (responses, stop_and_join(&stop, handle))
    };

    let (cold_responses, cold_summary) = run_with_depth(0);
    let (warm_responses, warm_summary) = run_with_depth(2);

    for (i, requests) in traces.iter().enumerate() {
        assert_eq!(
            cold_responses[i],
            server::expected_output(requests),
            "connection {i}: cold transcript must be the voted protocol"
        );
        assert_eq!(
            warm_responses[i], cold_responses[i],
            "connection {i}: warm transcript must be bit-identical to cold"
        );
    }
    assert_eq!(cold_summary.accepted, CONNS as u64);
    assert_eq!(warm_summary.accepted, CONNS as u64);
    assert_eq!(warm_summary.diverged, cold_summary.diverged);
    // Sequential clients => completion order is accept order in both runs.
    for (cold, warm) in cold_summary.reports.iter().zip(&warm_summary.reports) {
        assert_eq!(
            warm.seeds, cold.seeds,
            "replica seed assignment must not depend on pool depth"
        );
        assert_eq!(warm.seeds, vec![1, 7, 2]);
        let (warm, cold) = (
            warm.outcome.as_ref().expect("warm session resolved"),
            cold.outcome.as_ref().expect("cold session resolved"),
        );
        assert_eq!(
            StreamOutcome {
                peak_buffered: cold.peak_buffered,
                ..warm.clone()
            },
            *cold,
            "per-connection outcomes must match in every timing-independent field"
        );
        for outcome in [warm, cold] {
            assert!(
                outcome.peak_buffered <= (2 * 3 + 1) * TRANSFER.max(CHUNK),
                "peak {} beyond (2 × replicas + 1) × max(chunk, TRANSFER)",
                outcome.peak_buffered
            );
        }
    }
    // And the pool actually served warm sets (we waited for warmth before
    // the first connect, so at least that connection was a pool hit).
    assert_eq!(cold_summary.pool.handed_out, 0);
    assert_eq!(cold_summary.pool.cold_spawns, CONNS as u64);
    assert!(warm_summary.pool.handed_out >= 1, "{:?}", warm_summary.pool);
    assert_eq!(
        warm_summary.pool.handed_out + warm_summary.pool.cold_spawns,
        CONNS as u64
    );
}

/// A corrupt-seed replica handed out *warm* is still outvoted
/// mid-connection: the parked set's seed-7 member answers the poisoned
/// echo wrong, loses the chunk-0 barrier 2–1, and is SIGKILLed while the
/// survivors keep streaming the rest of the trace byte-exact.
#[test]
fn pooled_corrupt_replica_is_outvoted_mid_connection() {
    let mut config = LaunchConfig::new(3, poisonable_server(SEED_7), Vec::new());
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let gauge = proxy.pool_gauge();
    let proxy = proxy.with_pool(1);
    let (port, stop, handle) = spawn_proxy(proxy);
    wait_for_warmth(&gauge, 1);

    let requests = vec![
        ServerRequest::Echo("poison-trigger-0001".into()),
        ServerRequest::Produce(2000),
        ServerRequest::Quit,
    ];
    let response = drive(port, &requests, Pace::full()).expect("client I/O");
    let summary = stop_and_join(&stop, handle);

    assert_eq!(response, server::expected_output(&requests));
    assert_eq!(summary.accepted, 1);
    assert_eq!(
        summary.pool.handed_out, 1,
        "the set must come from the pool"
    );
    assert_eq!(summary.pool.cold_spawns, 0);
    let report = &summary.reports[0];
    assert_eq!(report.seeds, vec![1, 7, 2]);
    let outcome = report.outcome.as_ref().expect("session resolved");
    assert_eq!(
        outcome.killed,
        vec![1],
        "the warm seed-7 replica must be killed at the poisoned barrier"
    );
    assert!(!outcome.diverged);
}

/// Concurrent burst against a shallow pool: every connection beyond the
/// parked inventory cold-spawns transparently, and every transcript —
/// warm-served or cold-served — is byte-exact.
#[test]
fn proxy_pool_exhaustion_burst_stays_byte_exact() {
    let mut config = LaunchConfig::new(3, poisonable_server(SEED_7), Vec::new());
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let gauge = proxy.pool_gauge();
    let proxy = proxy.with_pool(1);
    let (port, stop, handle) = spawn_proxy(proxy);
    wait_for_warmth(&gauge, 1);

    const CLIENTS: usize = 4;
    let gate = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let requests = server::trace(0xB0B ^ (i as u64), 10);
                gate.wait(); // the whole burst lands together
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
            "connection {i}: exhaustion fallback must not change a byte"
        );
    }
    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, CLIENTS as u64);
    assert_eq!(summary.diverged, 0);
    assert!(
        summary.pool.handed_out >= 1,
        "the pre-warmed set must serve at least one connection: {:?}",
        summary.pool
    );
    assert_eq!(
        summary.pool.handed_out + summary.pool.cold_spawns,
        CLIENTS as u64,
        "every connection is served warm or cold, nothing dropped: {:?}",
        summary.pool
    );
}

/// A target binary that exits at startup must not turn the refill loop
/// into a fork bomb: parked deaths are reaped (never handed out) and the
/// respawn rate is clamped by exponential back-off, so a second of idle
/// reactor time spawns a bounded handful of sets, not thousands.
#[test]
fn crashing_target_is_reaped_with_backoff_not_respawned_hot() {
    let config = LaunchConfig::new(3, sh("exit 0"), Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let proxy = proxy.with_pool(2);
    let (_port, stop, handle) = spawn_proxy(proxy);

    std::thread::sleep(Duration::from_millis(1000));
    let summary = stop_and_join(&stop, handle);

    assert!(
        summary.pool.reaped_idle >= 1,
        "instantly-exiting sets must be detected and reaped: {:?}",
        summary.pool
    );
    assert_eq!(summary.pool.handed_out, 0);
    assert!(
        summary.pool.spawned <= 40,
        "back-off must bound the respawn rate (spawned {} sets in ~1 s)",
        summary.pool.spawned
    );
}
