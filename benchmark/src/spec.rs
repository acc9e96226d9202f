//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! [`render_benchmark_json`] of these tables, byte for byte (pinned by
//! `tests/spec.rs`), so the file the driver reads and the names the
//! harness prints cannot drift apart.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 28;

/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction. End-to-end metrics also carry the
/// share of the parent's median by which they may worsen; per-layer metrics
/// carry which end-to-end metric they should move, and on which workload.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end only; 0 for per-layer metrics).
    pub bound: f64,
    /// `(end-to-end metric, workload)` pairs a change to this layer number
    /// should show up in (per-layer only). Empty for a floor or a guard:
    /// a row that no gated metric follows at the default configuration.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        moves: &[],
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "churn_host",
        why: "allocation-bound C host under LD_PRELOAD vs glibc: the small-object path (preload, global, magazine, sharded, partition) does all the work; start-up and the voter do none",
    },
    Workload {
        name: "coreutils_pipeline",
        why: "sort, tr|grep and awk over a seeded corpus under LD_PRELOAD vs glibc: large objects, realloc, calloc and per-process init dominate; the small-object hot path is bypassed",
    },
    Workload {
        name: "proxy_short_conns",
        why: "4 KiB voted connections via diehard-proxy --pool 2 -n 3 --preload, open loop 25/s then closed loop: per-connection fixed cost (spawn, pool, init, exit ballots); per-byte vote negligible",
    },
    Workload {
        name: "proxy_bulk_stream",
        why: "64 MiB streams via diehard-proxy -n 3 vs -n 1: steady per-byte cost of read, vote, copy, write; set-up is under 1 % of a round, so pool and spawn work is bypassed",
    },
];

/// What a user of the system pays, as the paper reports it: relative to
/// the same work without DieHard, measured back to back. Every workload
/// reports every one of these; the README's table says what each means per
/// workload. Absolute times and rates are printed as diagnostics, not
/// gated: on a shared two-core box they drift by more than any bound the
/// contract allows, while the paired ratios repeat.
pub const END_TO_END: [Metric; 3] = [
    e2e("overhead_ratio", "x", Better::Lower, 0.25),
    e2e("rss_ratio", "x", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const ON_CHURN: &[(&str, &str)] = &[("overhead_ratio", "churn_host")];
const ON_COREUTILS: &[(&str, &str)] = &[("overhead_ratio", "coreutils_pipeline")];
const ON_SHORT: &[(&str, &str)] = &[("overhead_ratio", "proxy_short_conns")];
const ON_BULK: &[(&str, &str)] = &[("overhead_ratio", "proxy_bulk_stream")];
/// A floor under other rows, or a guard for a path no workload takes.
const NOTHING: &[(&str, &str)] = &[];

/// One number per layer boundary, measured from outside by the traced
/// run. No bounds: they attribute, they do not gate.
pub const PER_LAYER: [Metric; 31] = [
    layer("core.partition.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("core.engine.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("core.sharded.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer(
        "core.sharded.probes_per_alloc",
        "count",
        Better::Lower,
        ON_CHURN,
    ),
    layer("core.sharded.grow_ns", "ns", Better::Lower, NOTHING),
    layer("core.magazine.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("core.magazine.remote_pair_ns", "ns", Better::Lower, NOTHING),
    layer("core.global.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("preload.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("baseline.glibc.pair_ns", "ns", Better::Lower, ON_CHURN),
    layer("core.large.pair_ns", "ns", Better::Lower, ON_COREUTILS),
    layer("preload.realloc_step_ns", "ns", Better::Lower, ON_COREUTILS),
    layer(
        "preload.exec_tax_ms",
        "ms",
        Better::Lower,
        &[
            ("overhead_ratio", "proxy_short_conns"),
            ("overhead_ratio", "coreutils_pipeline"),
            ("rss_ratio", "proxy_short_conns"),
        ],
    ),
    layer("replicate.voter.ns_per_byte", "ns", Better::Lower, ON_BULK),
    layer(
        "replicate.event.n3_ns_per_byte",
        "ns",
        Better::Lower,
        NOTHING,
    ),
    layer(
        "replicate.event.n1_ns_per_byte",
        "ns",
        Better::Lower,
        NOTHING,
    ),
    layer(
        "replicate.proxy.n3_ns_per_byte",
        "ns",
        Better::Lower,
        ON_BULK,
    ),
    layer(
        "replicate.proxy.n1_ns_per_byte",
        "ns",
        Better::Lower,
        ON_BULK,
    ),
    layer(
        "replicate.net.echo_ns_per_byte",
        "ns",
        Better::Lower,
        NOTHING,
    ),
    layer(
        "replicate.session.spawn_set_ms",
        "ms",
        Better::Lower,
        ON_SHORT,
    ),
    layer(
        "replicate.session.spawn_set_preload_ms",
        "ms",
        Better::Lower,
        ON_SHORT,
    ),
    layer("replicate.pool.refill_set_ms", "ms", Better::Lower, NOTHING),
    layer("replicate.pool.handoff_us", "us", Better::Lower, NOTHING),
    layer(
        "replicate.proxy.first_chunk_cold_ms",
        "ms",
        Better::Lower,
        ON_SHORT,
    ),
    layer(
        "replicate.proxy.first_chunk_warm_ms",
        "ms",
        Better::Lower,
        NOTHING,
    ),
    layer("replicate.proxy.teardown_ms", "ms", Better::Lower, ON_SHORT),
    layer(
        "replicate.proxy.pool_hit_share",
        "ratio",
        Better::Higher,
        NOTHING,
    ),
    layer("replicate.proxy.conn_p95_ms", "ms", Better::Lower, NOTHING),
    layer("replicate.launcher.sort_ratio", "x", Better::Lower, NOTHING),
    layer("loadgen.late_p95_ms", "ms", Better::Lower, NOTHING),
    layer("machine.spin_ns", "ns", Better::Lower, NOTHING),
];

/// The workload named `name`, if there is one.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
#[must_use]
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
