//! `proxy_bulk_stream`: what one voted byte costs in steady state.
//!
//! Two shipped proxies run as child processes: `diehard-proxy -n 3 -- cat`
//! and `diehard-proxy -n 1 -- cat`. Closed loop, one connection at a time:
//! each round streams the same 64 MiB of seeded pseudo-random bytes through
//! one and then the other (order alternated), writer and reader driven
//! concurrently from the harness, every returned byte compared.
//!
//! *Why:* steady-state per-byte cost — read, compare, copy, write across
//! `reactor`/`session`/`voter`/`net`. Connection set-up is under 1 % of a
//! round, so pool and spawn work must leave this flat, while hashed ballots
//! or vectored writes must move it. The `-n 1` arm separates the cost of
//! *voting* from the cost of *proxying*.

use crate::inputs::payload;
use crate::jobs::{fill_window, repeat_setup, Ctx, Pairs};
use crate::proxy::{stream_once, ProxyChild, ProxyFlags, BLOCK, CONN_TIME_LIMIT};
use crate::report::{Outcome, Reading, Tally};
use crate::spec::SETUP_REPEATS;
use crate::stats::{median, min};
use std::io;
use std::time::Instant;

/// 1 MiB blocks per stream.
pub const STREAM_BLOCKS: u64 = 64;

/// Blocks in a warm-up stream (set-up only).
const WARMUP_BLOCKS: u64 = 16;

struct Ready {
    voted: ProxyChild,
    unvoted: ProxyChild,
    base: Vec<u8>,
    warmup: Tally,
}

fn setup(ctx: &Ctx) -> io::Result<Ready> {
    let command = ["cat"];
    let start = |replicas| {
        ProxyChild::start(
            ctx.art,
            ProxyFlags {
                replicas,
                pool: 0,
                preload: false,
                seed: ctx.seed,
                command: &command,
            },
        )
    };
    let (voted, unvoted) = (start(3)?, start(1)?);
    let base = payload(ctx.seed, 0, BLOCK);
    let mut warmup = Tally::default();
    for port in [voted.port, unvoted.port] {
        warmup.record(stream_once(port, &base, WARMUP_BLOCKS, || (), ctx.tracer, 0).is_ok());
    }
    Ok(Ready {
        voted,
        unvoted,
        base,
        warmup,
    })
}

/// One side of a round: streams `blocks` MiB through `proxy`, samples the
/// resident set of the proxy and its replicas at the midpoint, then counts
/// the stream and files it in `pairs` as the `voted` or the unvoted side. A stream that fails — before the midpoint or after — is charged
/// the time limit and gives no memory sample.
pub fn stream_side(
    ctx: &Ctx,
    proxy: &ProxyChild,
    voted: bool,
    base: &[u8],
    blocks: u64,
    parent: u64,
    pairs: &mut Pairs,
) {
    let mut resident = 0;
    let started = Instant::now();
    let ok = stream_once(
        proxy.port,
        base,
        blocks,
        || resident = proxy.resident_kb(),
        ctx.tracer,
        parent,
    )
    .is_ok();
    pairs.tally.record(ok);
    pairs.push(voted, ok, started.elapsed().as_secs_f64(), resident as f64);
}

/// Runs the workload.
///
/// # Errors
///
/// Harness faults only; failed streams are counted, not raised.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let (ready, setup_s) = repeat_setup(|| setup(ctx))?;
    let mut pairs = Pairs::new(CONN_TIME_LIMIT, ready.warmup);
    let rounds = fill_window(ctx.seconds, |round| {
        let root = ctx.tracer.span("round", 0);
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for voted in order {
            let proxy = if voted { &ready.voted } else { &ready.unvoted };
            stream_side(
                ctx,
                proxy,
                voted,
                &ready.base,
                STREAM_BLOCKS,
                root.id,
                &mut pairs,
            );
        }
        Ok(())
    })?;
    ready.voted.stop()?;
    ready.unvoted.stop()?;

    let wall = median(&pairs.protected_s);
    let stream_mb = (STREAM_BLOCKS as usize * BLOCK) as f64 / 1e6;
    let mut out = Outcome {
        tally: pairs.tally,
        ..Outcome::default()
    };
    out.metrics = vec![
        Reading::new(
            "overhead_ratio",
            pairs.overhead_ratio(),
            "x",
            format!("stream wall -n 3 ÷ -n 1, median of {rounds} pairs"),
        ),
        Reading::new(
            "rss_ratio",
            pairs.rss_ratio(),
            "x",
            "resident set summed over proxy + replicas mid-stream, -n 3 ÷ -n 1, median of pairs",
        ),
        Reading::new(
            "setup_s",
            setup_s,
            "s",
            format!(
                "both proxies started, seeded block generated, one {WARMUP_BLOCKS} MiB warm-up stream each; median of {SETUP_REPEATS}"
            ),
        ),
    ];
    out.diagnostics = vec![
        Reading::new(
            "stream_wall_s",
            wall,
            "s",
            format!(
                "one {STREAM_BLOCKS} MiB stream through -n 3; median of {rounds} rounds, min {:.4}",
                min(&pairs.protected_s)
            ),
        ),
        Reading::new(
            "voted_mb_per_s",
            stream_mb / wall,
            "MB/s",
            "verified payload through the N=3 vote ÷ stream_wall_s",
        ),
        Reading::new(
            "unvoted_mb_per_s",
            stream_mb / median(&pairs.baseline_s),
            "MB/s",
            "-n 1",
        ),
        Reading::new(
            "vote_cost_ratio",
            pairs.overhead_ratio(),
            "x",
            "the issue's name for overhead_ratio here",
        ),
        Reading::new(
            "voted_rss_mb",
            pairs.resident_mb(true),
            "MB",
            "proxy + 3 replicas",
        ),
        Reading::new(
            "unvoted_rss_mb",
            pairs.resident_mb(false),
            "MB",
            "proxy + 1 replica",
        ),
    ];
    Ok(out)
}
