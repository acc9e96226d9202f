//! `perf_report` — runs the registered hot-path kernels deterministically
//! and emits the machine-readable perf trajectory (`BENCH_<pr>.json`).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p diehard-bench --bin perf_report            # full
//! cargo run --release -p diehard-bench --bin perf_report -- --smoke # CI
//! cargo run ... --bin perf_report -- --out path/to/report.json
//! cargo run ... --bin perf_report -- --gate alloc_churn_mixed=13.6
//! cargo run ... --bin perf_report -- --only global_churn_cold
//! ```
//!
//! Without `--out`, a full run writes the next trajectory entry: one past
//! the highest `BENCH_<k>.json` in the working directory, so no perf PR
//! edits this binary and none can overwrite an earlier entry by forgetting
//! to.
//!
//! `--only <kernel>` (repeatable) runs just the named kernels, in the order
//! given — one allocator kernel without the four proxy kernels' process
//! spawning. Name single-thread allocator kernels before any `_mt` or proxy
//! kernel: once this process has spawned a thread they refuse to run (the
//! allocator they would time is no longer the one a single-threaded host
//! runs; see `perf`'s module docs). A partial run is not a trajectory
//! entry: it prints its table (and its deltas against the latest entry),
//! writes a file only where `--out` says, and skips the completeness check.
//! An unknown kernel name is an error, as for `--gate`.
//!
//! `--gate <kernel>=<max_ns>` (repeatable) bounds a kernel's *fastest*
//! sample (`min_ns`): the process exits non-zero when even the best sample
//! exceeds the bound, so CI can pin hot-path regressions by exit status.
//! The minimum, not the mean: on a shared runner noise only ever adds time,
//! so the mean of a healthy build wanders across any bound tight enough to
//! catch a regression, while the minimum moves only when the code does. An
//! unknown kernel name in a gate is itself an error — a typo must fail
//! loudly, not pass silently.
//!
//! When the output path is a `BENCH_<pr>.json` trajectory entry, the report
//! also diffs the fresh run against the highest-numbered earlier
//! `BENCH_<k>.json` beside it and prints per-kernel mean deltas, so a perf
//! PR's win (or regression) is visible in the run log, not just by opening
//! two JSON files.
//!
//! The process exits non-zero when the written report is missing any
//! registered kernel, so CI can gate on completeness by exit status alone.

use diehard_bench::perf::{
    is_kernel, missing_kernels, parse_means, render_json, run_all, run_kernel, KernelResult,
};
use diehard_bench::TextTable;
use std::path::Path;

fn main() {
    // The `preload_alloc_churn` rows time `libdiehard.so`, which seeds its
    // heap at its first call from `DIEHARD_SEED`, or from entropy when that
    // is unset: every process would then time another placement. Set here,
    // while this process has one thread and before any kernel runs.
    std::env::set_var("DIEHARD_SEED", "1");
    let smoke = diehard_bench::smoke();
    let only = only_args();
    let gates = gate_args();
    // The entry a full run writes by default, and the name every run diffs
    // its results under: a partial run is compared with the latest entry
    // but never becomes one.
    let latest = bench_numbers(Path::new(".")).max().unwrap_or(0);
    let next_entry = format!("BENCH_{}.json", latest + 1);
    let out_path = out_arg().or_else(|| only.is_empty().then(|| next_entry.clone()));

    let results: Vec<KernelResult> = if only.is_empty() {
        run_all(smoke)
    } else {
        only.iter()
            .map(|name| run_kernel(name, smoke).expect("only_args checked the name"))
            .collect()
    };
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, render_json(&results)) {
            eprintln!("perf_report: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    let mut table = TextTable::new(vec!["kernel", "mean", "min", "max", "iters"]);
    for r in &results {
        table.row(vec![
            r.name.to_string(),
            format!("{:.1} ns/op", r.mean_ns),
            format!("{:.1} ns/op", r.min_ns),
            format!("{:.1} ns/op", r.max_ns),
            r.iters.to_string(),
        ]);
    }
    println!(
        "perf trajectory{} -> {}",
        if smoke {
            " (--smoke: wiring check only)"
        } else {
            ""
        },
        out_path.as_deref().unwrap_or("(partial run, not written)")
    );
    println!("{}", table.render());

    print_deltas(out_path.as_deref().unwrap_or(&next_entry), &results);

    // Completeness gate, full runs only: re-read what actually landed on
    // disk.
    if only.is_empty() {
        let path = out_path.as_deref().expect("a full run always writes");
        let written = std::fs::read_to_string(path).unwrap_or_default();
        let missing = missing_kernels(&written);
        if !missing.is_empty() {
            eprintln!("perf_report: {path} is missing kernels: {missing:?}");
            std::process::exit(1);
        }
    }

    // Regression gates: each --gate bounds one kernel's fastest sample.
    let mut gate_failed = false;
    for (kernel, max_ns) in &gates {
        match results.iter().find(|r| r.name == kernel) {
            Some(r) if r.min_ns > *max_ns => {
                eprintln!(
                    "perf_report: gate FAILED: {kernel} min {:.2} ns/op > {max_ns} ns/op",
                    r.min_ns
                );
                gate_failed = true;
            }
            Some(r) => {
                println!(
                    "gate ok: {kernel} min {:.2} ns/op <= {max_ns} ns/op",
                    r.min_ns
                );
            }
            None => {
                eprintln!("perf_report: gate names a kernel this run did not measure: {kernel}");
                gate_failed = true;
            }
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}

/// Diffs the fresh results against the previous trajectory entry (the
/// highest-numbered `BENCH_<k>.json` beside `out_path` with `k` below this
/// report's number) and prints per-kernel mean deltas. Silent when there is
/// no previous entry to diff against.
fn print_deltas(out_path: &str, results: &[KernelResult]) {
    let Some((prev_path, prev_json)) = previous_report(out_path) else {
        return;
    };
    let prev: Vec<(String, f64)> = parse_means(&prev_json);
    let mut table = TextTable::new(vec!["kernel", "previous", "current", "delta"]);
    let mut rows = 0;
    for r in results {
        let Some((_, before)) = prev.iter().find(|(name, _)| name == r.name) else {
            continue;
        };
        let pct = if *before > 0.0 {
            (r.mean_ns - before) / before * 100.0
        } else {
            0.0
        };
        table.row(vec![
            r.name.to_string(),
            format!("{before:.1} ns/op"),
            format!("{:.1} ns/op", r.mean_ns),
            format!("{pct:+.1}%"),
        ]);
        rows += 1;
    }
    if rows > 0 {
        println!("delta vs {prev_path}");
        println!("{}", table.render());
    }
}

/// Finds the previous trajectory entry for `out_path`: among the
/// `BENCH_<k>.json` files in the same directory, the readable one with the
/// largest `k` strictly below this report's number.
fn previous_report(out_path: &str) -> Option<(String, String)> {
    let path = Path::new(out_path);
    let current = bench_number(path.file_name()?.to_str()?)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let prev = bench_numbers(dir).filter(|&k| k < current).max()?;
    let prev_path = dir.join(format!("BENCH_{prev}.json"));
    let json = std::fs::read_to_string(&prev_path).ok()?;
    Some((prev_path.to_string_lossy().into_owned(), json))
}

/// Every `k` with a `BENCH_<k>.json` in `dir` (none when it is unreadable).
fn bench_numbers(dir: &Path) -> impl Iterator<Item = u32> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().to_str().and_then(bench_number))
}

/// `Some(n)` when `name` is exactly `BENCH_<n>.json`.
fn bench_number(name: &str) -> Option<u32> {
    name.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The value following `--out`, if present.
fn out_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            return args.next();
        }
    }
    None
}

/// All `--only <kernel>` names, in argument order. A name that is not a
/// registered kernel aborts immediately — a typo must not quietly measure
/// nothing.
fn only_args() -> Vec<String> {
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a != "--only" {
            continue;
        }
        let name = args.next().unwrap_or_default();
        if !is_kernel(&name) {
            eprintln!("perf_report: --only names unknown kernel: {name:?}");
            std::process::exit(1);
        }
        only.push(name);
    }
    only
}

/// All `--gate <kernel>=<max_ns>` bounds, in argument order. A malformed
/// gate expression, or one naming no registered kernel, aborts immediately
/// — mistyped CI gates must not pass by being unparseable.
fn gate_args() -> Vec<(String, f64)> {
    let mut gates = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a != "--gate" {
            continue;
        }
        let expr = args.next().unwrap_or_default();
        let parsed = expr
            .split_once('=')
            .and_then(|(k, v)| v.trim().parse::<f64>().ok().map(|v| (k.trim(), v)));
        match parsed {
            Some((kernel, _)) if !kernel.is_empty() && !is_kernel(kernel) => {
                eprintln!("perf_report: --gate names unknown kernel: {kernel:?}");
                std::process::exit(1);
            }
            Some((kernel, max_ns)) if !kernel.is_empty() && max_ns > 0.0 => {
                gates.push((kernel.to_string(), max_ns));
            }
            _ => {
                eprintln!("perf_report: malformed --gate {expr:?} (want <kernel>=<max_ns>)");
                std::process::exit(1);
            }
        }
    }
    gates
}
