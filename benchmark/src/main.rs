//! `harness`: the benchmark's one command (normally reached through
//! `benchmark/run.sh`, which builds everything first).
//!
//! ```text
//! harness --workload NAME --seed N --seconds S --trace 0|1   # one run, JSON result last
//! harness [--seed N] [--trace] [--smoke]                     # all four workloads
//! harness --aa [--seed N]        # everything twice on the same build, compared to the bounds
//! harness --spread K [--seed N] [--workload NAME]  # K seeds per workload, quartile spread vs the bounds
//! ```
//!
//! `--spread` is the bound study: the contract asks for ten seeds per
//! workload with every spread under a third of its bound, and it has to be
//! re-run whenever a workload's sizing or a bound changes.

use diehard_benchmark::artifacts::Artifacts;
use diehard_benchmark::jobs::Ctx;
use diehard_benchmark::ledger::{self, Scale};
use diehard_benchmark::report::{Outcome, Reading, Tally};
use diehard_benchmark::spec::{self, Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use diehard_benchmark::stats::{median, quartile_spread};
use diehard_benchmark::trace::Tracer;
use diehard_benchmark::{sys, workloads};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds a `--smoke` run measures per workload: the minimum number of
/// rounds, every output still checked, every name still printed.
const SMOKE_SECONDS: f64 = 1.0;

/// Scratch directory (corpus, job outputs, `trace-<workload>.json`),
/// relative to the checkout root `run.sh` starts the harness in.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    spread: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: harness --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      harness [--seed N] [--trace] [--smoke] [--aa]\n\
         \x20      harness --spread K [--seed N] [--workload NAME]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        spread: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map_or_else(|| usage(), String::as_str)
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i).to_string()),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--spread" => args.spread = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            _ => usage(),
        }
        i += 1;
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        usage();
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            usage();
        }
    }
    args
}

/// Everything one invocation shares.
struct Bench {
    art: Artifacts,
    out_dir: PathBuf,
    scale: Scale,
}

impl Bench {
    /// One untraced run of one workload: the end-to-end metrics.
    fn end_to_end(&self, name: &str, seed: u64, seconds: f64) -> io::Result<Outcome> {
        let tracer = Tracer::new(false);
        let ctx = Ctx {
            art: &self.art,
            tracer: &tracer,
            out_dir: &self.out_dir,
            seed,
            seconds,
        };
        let spin_before = ledger::spin_ns();
        let mut outcome = workloads::run(name, &ctx)?;
        push_machine_diagnostics(&mut outcome, spin_before);
        outcome
            .check_against(&END_TO_END)
            .map_err(io::Error::other)?;
        Ok(outcome)
    }

    /// The workload once with tracing off and once with it on, a quarter of
    /// the window each: prints self time per span name and the tracing
    /// overhead (traced − untraced time per operation), writes the spans to
    /// `trace-<workload>.json`, and returns the operations counted.
    fn traced_slices(&self, name: &str, seed: u64, seconds: f64) -> io::Result<Tally> {
        let slice = seconds / 4.0;
        let run = |tracer: &Tracer| {
            let ctx = Ctx {
                art: &self.art,
                tracer,
                out_dir: &self.out_dir,
                seed,
                seconds: slice,
            };
            workloads::run(name, &ctx)
        };
        let untraced = run(&Tracer::new(false))?;
        let tracer = Tracer::new(true);
        let traced = run(&tracer)?;
        let trace_path = self.out_dir.join(format!("trace-{name}.json"));
        tracer.write_json(&mut File::create(&trace_path)?)?;

        println!(
            "== spans of {name}: self time by name ({})",
            trace_path.display()
        );
        for (span, (self_ns, count)) in tracer.self_times() {
            println!(
                "  {span:<20} {:>12.3} ms self over {count} spans",
                self_ns as f64 / 1e6
            );
        }
        if let (Some(off), Some(on)) = (untraced.op_time(), traced.op_time()) {
            println!(
                "== tracing overhead on {name}: {} {:.4} traced − {:.4} untraced = {:+.4} {} ({:+.2} %)",
                on.name,
                on.value,
                off.value,
                on.value - off.value,
                on.unit,
                (on.value - off.value) / off.value * 100.0
            );
        }
        let mut tally = untraced.tally;
        tally.absorb(traced.tally);
        Ok(tally)
    }

    /// The layer ledger: every per-layer metric.
    fn ledger(&self, seed: u64) -> io::Result<Outcome> {
        let tracer = Tracer::new(false);
        let ctx = Ctx {
            art: &self.art,
            tracer: &tracer,
            out_dir: &self.out_dir,
            seed,
            seconds: 0.0,
        };
        let spin_before = ledger::spin_ns();
        let mut outcome = ledger::run(&ctx, self.scale, spin_before)?;
        push_machine_diagnostics(&mut outcome, spin_before);
        print!("{}", ledger::render_allocator_ledger(&outcome));
        outcome
            .check_against(&PER_LAYER)
            .map_err(io::Error::other)?;
        Ok(outcome)
    }

    /// The traced pass over `names`: each workload's traced slices (and
    /// its span file), then the ledger once — it does not depend on the
    /// workload. With one name this is the driver's `--trace 1` run.
    fn per_layer(&self, names: &[&str], seed: u64, seconds: f64) -> io::Result<Outcome> {
        let mut slices = Tally::default();
        for name in names {
            slices.absorb(self.traced_slices(name, seed, seconds)?);
        }
        let mut outcome = self.ledger(seed)?;
        outcome.tally.absorb(slices);
        Ok(outcome)
    }
}

/// Spin-loop drift and the harness's own peak RSS, on every run.
fn push_machine_diagnostics(outcome: &mut Outcome, spin_before: f64) {
    let spin_after = ledger::spin_ns();
    let drift = (spin_after - spin_before).abs() / spin_before;
    let verdict = if drift > 0.10 {
        "NOISY: the machine changed speed under the run"
    } else {
        "steady"
    };
    outcome.diagnostics.push(Reading::new(
        "machine_spin_drift",
        drift,
        "ratio",
        format!("spin loop {spin_before:.4} ns/step before, {spin_after:.4} after — {verdict}"),
    ));
    if let Some(peak) = sys::own_peak_rss_kb() {
        outcome.diagnostics.push(Reading::new(
            "harness_peak_rss_mb",
            peak as f64 / 1024.0,
            "MB",
            "floor under every ru_maxrss a job reports",
        ));
    }
}

/// One pass over all four workloads.
struct Pass {
    /// End-to-end outcomes by workload.
    results: Vec<(&'static str, Outcome)>,
    /// Operations that failed anywhere in the pass, traced part included.
    failed: u64,
}

/// Runs every workload once, and the traced pass if asked.
fn run_all(bench: &Bench, args: &Args, seed: u64, seconds: f64) -> io::Result<Pass> {
    let mut results = Vec::new();
    let mut failed = 0;
    for w in &WORKLOADS {
        let outcome = bench.end_to_end(w.name, seed, seconds)?;
        print!(
            "{}",
            outcome.render_table(&format!("{} seed {seed}", w.name))
        );
        println!("{}", outcome.render_result_line());
        failed += outcome.tally.failed;
        results.push((w.name, outcome));
    }
    if args.trace {
        let outcome = bench.per_layer(&WORKLOADS.map(|w| w.name), seed, seconds)?;
        print!(
            "{}",
            outcome.render_table(&format!("layer ledger seed {seed}"))
        );
        println!("{}", outcome.render_result_line());
        failed += outcome.tally.failed;
    }
    Ok(Pass { results, failed })
}

/// How much worse `second` is than `first`, as a share of `first`, in the
/// metric's own direction (negative = better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    // Children started in-process by the ledger inherit this environment;
    // `Artifacts::command` applies the same rules to everything else.
    // Still single-threaded here, so the environment is safe to edit.
    std::env::set_var("LC_ALL", "C");
    std::env::remove_var("LD_PRELOAD");
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIEHARD_") {
            std::env::remove_var(key);
        }
    }
    if let Err(e) = sys::become_subreaper() {
        eprintln!("harness: cannot become a subreaper: {e}");
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok(clean) if clean => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(false)` when a gate of the human modes failed (operations failed in
/// `--smoke`, a metric out of bounds in `--aa`/`--spread`).
fn run(args: &Args) -> io::Result<bool> {
    let bench = Bench {
        art: Artifacts::beside_current_exe()?,
        out_dir: make_out_dir(Path::new(OUT_DIR))?,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    });

    if let Some(k) = args.spread {
        return spread(&bench, args.workload.as_deref(), args.seed, seconds, k);
    }

    if let Some(name) = &args.workload {
        // The driver's contract: one workload, one JSON object last.
        let outcome = if args.trace {
            bench.per_layer(&[name], args.seed, seconds)?
        } else {
            bench.end_to_end(name, args.seed, seconds)?
        };
        print!(
            "{}",
            outcome.render_table(&format!("{name} seed {}", args.seed))
        );
        println!("{}", outcome.render_result_line());
        return Ok(true);
    }

    let first = run_all(&bench, args, args.seed, seconds)?;
    if !args.aa {
        return Ok(first.failed == 0);
    }
    let second = run_all(&bench, args, args.seed, seconds)?;
    println!("== A/A: the same build, the same seed, twice");
    let mut agree = first.failed + second.failed == 0;
    for ((name, a), (_, b)) in first.results.iter().zip(&second.results) {
        for m in &END_TO_END {
            let (x, y) = (
                a.metric(m.name).unwrap_or(f64::NAN),
                b.metric(m.name).unwrap_or(f64::NAN),
            );
            let worse = worse_by(m.better, x, y);
            let ok = worse.abs() <= m.bound;
            agree &= ok;
            println!(
                "  {name:<20} {:<15} {x:>12.4} {y:>12.4} {:<5} diff {:+7.2} %  bound {:>4.0} %  {}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

/// `k` runs per workload (all four, or just `only`) on seeds
/// `seed..seed+k`: the spread the driver will see, against each metric's
/// bound.
fn spread(
    bench: &Bench,
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    k: usize,
) -> io::Result<bool> {
    let mut within = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut runs = Vec::with_capacity(k);
        for s in 0..k as u64 {
            let outcome = bench.end_to_end(w.name, seed + s, seconds)?;
            println!("{}", outcome.render_result_line());
            within &= outcome.tally.failed == 0;
            runs.push(outcome);
        }
        println!(
            "== spread of {} over {k} seeds (quartile distance ÷ median)",
            w.name
        );
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|o| o.metric(m.name)).collect();
            let share = quartile_spread(&values).unwrap_or(f64::NAN);
            // setup_s is bounded on its median only, not on its spread.
            let ok = share <= m.bound || m.name == "setup_s";
            within &= ok;
            println!(
                "  {:<15} median {:>12.4} {:<5} spread {:>6.2} %  bound {:>4.0} %  {}",
                m.name,
                median(&values),
                m.unit,
                share * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "TOO WIDE" }
            );
        }
    }
    Ok(within)
}

fn make_out_dir(dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    dir.canonicalize()
}
