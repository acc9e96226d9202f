//! `proxy_short_conns`: what one short voted connection costs.
//!
//! The shipped `diehard-proxy --pool 2 -n 3 --preload libdiehard.so -- cat`
//! runs as a child process. Every connection sends one seeded 4096-byte
//! request, half-closes, reads the voted response to EOF and compares it.
//!
//! * **Open loop** (first 40 % of the window): arrivals on a seeded
//!   Poisson schedule at a fixed 25 connections/s — about a tenth of what
//!   the reference two-core box sustains — issued by eight client threads
//!   whether or not earlier connections have finished. Latency runs from
//!   the instant a connection was *due*, so a stall is charged to every
//!   connection it delays; how late the generator itself ran is reported.
//!   Absolute latencies drift with the box, so they are diagnostics.
//! * **Closed loop** (the rest, in paired 0.1 s slices, the order within
//!   a pair alternating): two clients back to back against the protected
//!   proxy, then against the same proxy started `-n 1` without `--preload`
//!   (proxying, but neither voting nor a randomized heap). This phase
//!   drains the pool by construction, and its paired slices give the gated
//!   `overhead_ratio`. The slices are short so that whatever else the
//!   machine is doing falls on both sides of a pair: with 1.4 s slices a
//!   neighbour busy for a second at a time spread the ratio by 33 % over
//!   six seeds, with 0.1 s slices by 1 %.
//!
//! *Why:* per-connection fixed cost — accept, pool handoff or 3× fork/exec,
//! `libdiehard.so` initialising in each replica, EOF and exit-status
//! ballots, reap. The per-byte vote is one chunk and negligible, so
//! `proxy_bulk_stream` work should leave this flat. A pool change that
//! helps idle-gap traffic but hurts saturated traffic shows as
//! `conn_p50_ms` (open loop) and `conns_per_s` (closed loop) pulling apart.

use crate::inputs::{open_loop_schedule, payload};
use crate::jobs::{fill_window, repeat_setup, Ctx, MIN_ROUNDS};
use crate::proxy::{echo_once, HalfClose, ProxyChild, ProxyFlags, CONN_TIME_LIMIT};
use crate::report::{Outcome, Reading, Tally};
use crate::spec::SETUP_REPEATS;
use crate::stats::{median, quantile};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Request and response size: one vote chunk.
pub const REQUEST_BYTES: usize = 4096;

/// Open-loop arrival rate, connections per second.
pub const OPEN_RATE: f64 = 25.0;

/// Closed-loop clients (= `nproc` on the reference box).
pub const CLIENTS: usize = 2;

/// Open-loop client threads: enough that a due connection never waits for
/// a free thread (at 25/s × ≈ 10 ms fewer than one is busy on average), or
/// the open loop would quietly become a closed one.
pub const OPEN_CLIENTS: usize = 8;

/// Share of the window spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.4;

/// Length of one closed-loop slice; a pair is one against each proxy.
const SLICE: Duration = Duration::from_millis(100);

const WARMUP_CONNS: u64 = 8;

struct Ready {
    protected: ProxyChild,
    baseline: ProxyChild,
    /// Resident KB of each proxy with its pool primed, before any load.
    resident_at_rest: (u64, u64),
    warmup: Tally,
}

fn setup(ctx: &Ctx) -> io::Result<Ready> {
    let command = ["cat"];
    let protected = ProxyChild::start(
        ctx.art,
        ProxyFlags {
            replicas: 3,
            pool: 2,
            preload: true,
            seed: ctx.seed,
            command: &command,
        },
    )?;
    let baseline = ProxyChild::start(
        ctx.art,
        ProxyFlags {
            replicas: 1,
            pool: 2,
            preload: false,
            seed: ctx.seed,
            command: &command,
        },
    )?;
    let mut warmup = Tally::default();
    for i in 0..WARMUP_CONNS {
        let request = payload(ctx.seed, u64::MAX - i, REQUEST_BYTES);
        for port in [protected.port, baseline.port] {
            warmup.record(echo_once(port, &request, HalfClose::WithRequest, ctx.tracer, 0).is_ok());
        }
    }
    // The pool refills one set per idle reactor tick (≈ 100 ms): after
    // four ticks both pools are primed again, and what is resident now —
    // proxy plus parked sets — is what the service holds at rest.
    std::thread::sleep(Duration::from_millis(400));
    let resident_at_rest = (protected.resident_kb(), baseline.resident_kb());
    Ok(Ready {
        protected,
        baseline,
        resident_at_rest,
        warmup,
    })
}

/// What the open-loop phase saw.
#[derive(Debug, Default)]
pub(crate) struct OpenLoop {
    /// Due → verified EOF, ms; a failed connection enters at the time-out.
    pub(crate) latency_ms: Vec<f64>,
    /// Due → actual start, ms.
    pub(crate) late_ms: Vec<f64>,
    pub(crate) tally: Tally,
}

/// Issues one connection to `port` per schedule entry from
/// [`OPEN_CLIENTS`] threads.
pub(crate) fn open_loop(ctx: &Ctx, port: u16, due_s: &[f64]) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let per_thread: Vec<Vec<(f64, f64, bool)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..OPEN_CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_s.get(i) else { break };
                        let request = payload(ctx.seed, i as u64, REQUEST_BYTES);
                        let due = origin + Duration::from_secs_f64(due);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let late = due.elapsed();
                        let root = ctx.tracer.span("conn", 0);
                        let ok =
                            echo_once(port, &request, HalfClose::WithRequest, ctx.tracer, root.id)
                                .is_ok();
                        drop(root);
                        let latency = if ok { due.elapsed() } else { CONN_TIME_LIMIT };
                        seen.push((latency.as_secs_f64() * 1e3, late.as_secs_f64() * 1e3, ok));
                    }
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut out = OpenLoop::default();
    for (latency, late, ok) in per_thread.into_iter().flatten() {
        out.latency_ms.push(latency);
        out.late_ms.push(late);
        out.tally.record(ok);
    }
    out
}

/// Verified connections per second of one closed-loop slice in which
/// [`CLIENTS`] clients made `seen` connections in `elapsed_s`. A failed
/// connection is charged [`CONN_TIME_LIMIT`] of its client's time, as if
/// the client had waited it out, so refusing quickly never reads as
/// serving quickly.
fn verified_rate(seen: Tally, elapsed_s: f64) -> f64 {
    let charged_s = elapsed_s + seen.failed as f64 * CONN_TIME_LIMIT.as_secs_f64() / CLIENTS as f64;
    (seen.attempted - seen.failed) as f64 / charged_s
}

/// [`CLIENTS`] clients back to back for `length`; returns verified
/// connections per second.
fn closed_loop(ctx: &Ctx, port: u16, length: Duration, slice: u64, tally: &mut Tally) -> f64 {
    let started = Instant::now();
    let per_thread: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                scope.spawn(move || {
                    let mut seen = Tally::default();
                    let mut n = 0u64;
                    while started.elapsed() < length {
                        let index = (1 << 48) | (slice << 24) | (client << 16) | n;
                        let request = payload(ctx.seed, index, REQUEST_BYTES);
                        seen.record(
                            echo_once(port, &request, HalfClose::WithRequest, ctx.tracer, 0)
                                .is_ok(),
                        );
                        n += 1;
                    }
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut slice_tally = Tally::default();
    per_thread.into_iter().for_each(|t| slice_tally.absorb(t));
    tally.absorb(slice_tally);
    verified_rate(slice_tally, elapsed)
}

/// Runs the workload.
///
/// # Errors
///
/// Harness faults only (the proxy would not start or could not be
/// reaped); failed connections are counted, not raised.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let (ready, setup_s) = repeat_setup(|| setup(ctx))?;
    let mut tally = ready.warmup;

    let open_count = ((ctx.seconds * OPEN_SHARE * OPEN_RATE) as usize).max(MIN_ROUNDS);
    let schedule = open_loop_schedule(ctx.seed, open_count, OPEN_RATE);
    let open = open_loop(ctx, ready.protected.port, &schedule);
    tally.absorb(open.tally);
    let (protected_kb, baseline_kb) = (
        ready.resident_at_rest.0 as f64,
        ready.resident_at_rest.1 as f64,
    );

    let (mut protected_cps, mut baseline_cps) = (Vec::new(), Vec::new());
    fill_window(ctx.seconds * (1.0 - OPEN_SHARE), |pair| {
        for protected in [pair % 2 == 0, pair % 2 != 0] {
            let (port, rates) = if protected {
                (ready.protected.port, &mut protected_cps)
            } else {
                (ready.baseline.port, &mut baseline_cps)
            };
            let slice = 2 * pair as u64 + u64::from(protected);
            rates.push(closed_loop(ctx, port, SLICE, slice, &mut tally));
        }
        Ok(())
    })?;
    // Time per connection at saturation is 1 ÷ rate, so the paired ratio
    // protected ÷ baseline is baseline rate ÷ protected rate.
    let ratios: Vec<f64> = baseline_cps
        .iter()
        .zip(&protected_cps)
        .map(|(b, p)| b / p)
        .collect();

    let pool_line = ready.protected.stop()?;
    ready.baseline.stop()?;

    let conns_per_s = median(&protected_cps);
    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    out.metrics = vec![
        Reading::new(
            "overhead_ratio",
            median(&ratios),
            "x",
            format!(
                "closed-loop time per connection, -n 3 --preload ÷ -n 1 plain, median of {} slice pairs",
                ratios.len()
            ),
        ),
        Reading::new(
            "rss_ratio",
            protected_kb / baseline_kb,
            "x",
            "resident set summed over proxy + parked pool at rest, protected ÷ baseline",
        ),
        Reading::new(
            "setup_s",
            setup_s,
            "s",
            format!(
                "both proxies started, {WARMUP_CONNS} warm-up connections each, 0.4 s for the pools to re-prime; median of {SETUP_REPEATS}"
            ),
        ),
    ];
    let p = |q: f64| quantile(&open.latency_ms, q).unwrap_or(f64::NAN);
    out.diagnostics = vec![
        Reading::new(
            "conn_p50_ms",
            p(0.5),
            "ms",
            format!(
                "open loop {OPEN_RATE}/s, due → verified EOF, median of {} connections",
                open.latency_ms.len()
            ),
        ),
        Reading::new(
            "conn_p95_ms",
            p(0.95),
            "ms",
            format!("{} samples beyond it", open.latency_ms.len() / 20),
        ),
        Reading::new("conn_p99_ms", p(0.99), "ms", "diagnostic only"),
        Reading::new(
            "conns_per_s",
            conns_per_s,
            "1/s",
            format!(
                "closed loop, {CLIENTS} clients, median of {} slices",
                protected_cps.len()
            ),
        ),
        Reading::new(
            "baseline_conns_per_s",
            median(&baseline_cps),
            "1/s",
            "-n 1, no preload",
        ),
        Reading::new(
            "loadgen_late_p95_ms",
            quantile(&open.late_ms, 0.95).unwrap_or(f64::NAN),
            "ms",
            "generator lateness; above 1 ms the run is noisy",
        ),
        Reading::new(
            "protected_rss_mb",
            protected_kb / 1024.0,
            "MB",
            pool_line.unwrap_or_default(),
        ),
        Reading::new(
            "baseline_rss_mb",
            baseline_kb / 1024.0,
            "MB",
            "proxy + parked -n 1 sets",
        ),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::Artifacts;
    use crate::trace::Tracer;
    use std::io::{Read, Write};
    use std::path::Path;

    fn with_ctx<R>(body: impl FnOnce(&Ctx) -> R) -> R {
        // open_loop never touches the artifacts; any paths will do.
        let none = std::path::PathBuf::new();
        let art = Artifacts {
            preload: none.clone(),
            launcher: none.clone(),
            proxy: none.clone(),
            churn_host: none,
        };
        let tracer = Tracer::new(false);
        body(&Ctx {
            art: &art,
            tracer: &tracer,
            out_dir: Path::new("."),
            seed: 5,
            seconds: 1.0,
        })
    }

    /// An echo server that serves one connection at a time and takes
    /// `service` per connection, `corrupt`ing the nth (0-based) echo.
    fn slow_echo_server(
        conns: usize,
        service: Duration,
        corrupt: Option<usize>,
    ) -> (u16, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            for n in 0..conns {
                let (mut conn, _) = listener.accept().unwrap();
                let mut request = Vec::new();
                conn.read_to_end(&mut request).unwrap();
                std::thread::sleep(service);
                if corrupt == Some(n) {
                    request[0] ^= 0xFF;
                }
                conn.write_all(&request).unwrap();
            }
        });
        (port, server)
    }

    #[test]
    fn latency_runs_from_the_due_instant_not_from_the_send() {
        // Ten arrivals all due at once; the server takes 20 ms each, one at
        // a time. The last answer comes ≈ 200 ms after it was *due* — a
        // clock started at the send would hide most of that wait.
        const CONNS: usize = 10;
        let service = Duration::from_millis(20);
        let (port, server) = slow_echo_server(CONNS, service, None);
        let due = vec![0.001; CONNS];
        let seen = with_ctx(|ctx| open_loop(ctx, port, &due));
        server.join().unwrap();
        assert_eq!(
            seen.tally,
            Tally {
                attempted: CONNS as u64,
                failed: 0
            }
        );
        let slowest = seen.latency_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            slowest >= 0.95 * CONNS as f64 * 20.0,
            "slowest connection took {slowest} ms from its due time"
        );
        // More arrivals than client threads: the generator itself ran late
        // on the last ones, and says so.
        const { assert!(CONNS > OPEN_CLIENTS) };
        let latest = seen.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            latest >= 15.0,
            "the ninth and tenth connections started {latest} ms late"
        );
    }

    #[test]
    fn a_failed_connection_stays_in_the_latency_sample_at_the_time_limit() {
        let (port, server) = slow_echo_server(3, Duration::ZERO, Some(1));
        let due = [0.0, 0.01, 0.02];
        let seen = with_ctx(|ctx| open_loop(ctx, port, &due));
        server.join().unwrap();
        assert_eq!(
            seen.tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert_eq!(
            seen.latency_ms.len(),
            3,
            "the failed connection is not dropped"
        );
        let limit_ms = CONN_TIME_LIMIT.as_secs_f64() * 1e3;
        assert_eq!(
            seen.latency_ms.iter().filter(|&&ms| ms == limit_ms).count(),
            1
        );
    }

    #[test]
    fn a_failed_closed_loop_connection_costs_its_client_the_time_limit() {
        // 200 connections in 1 s, none failed: 200 per second.
        let clean = Tally {
            attempted: 200,
            failed: 0,
        };
        assert_eq!(verified_rate(clean, 1.0), 200.0);
        // Refuse half of them instantly and the clients get through twice
        // as many attempts in the same second; the 200 refusals are charged
        // 10 s each, shared by the two clients.
        let refusing = Tally {
            attempted: 400,
            failed: 200,
        };
        let limit = CONN_TIME_LIMIT.as_secs_f64();
        let rate = verified_rate(refusing, 1.0);
        assert!((rate - 200.0 / (1.0 + 200.0 * limit / CLIENTS as f64)).abs() < 1e-9);
        assert!(rate < 1.0, "refusals must not read as service: {rate}");
    }
}
