//! What every workload shares: the run context, timed child jobs with
//! their output captured to a file, repeated set-up, and the paired-round
//! loop that fills the measuring window.

use crate::artifacts::Artifacts;
use crate::report::Tally;
use crate::spec::SETUP_REPEATS;
use crate::stats::median;
use crate::sys::{self, Finished};
use crate::trace::Tracer;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// No job or connection may outlive this; one that does is killed and
/// counted as failed.
pub const OP_TIME_LIMIT: Duration = Duration::from_secs(60);

/// Fewest rounds a workload measures, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// Everything a workload needs from the command line and the build.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The programs under test.
    pub art: &'a Artifacts,
    /// Span sink (a no-op with `--trace 0`).
    pub tracer: &'a Tracer,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: &'a Path,
    /// The workload seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
}

/// One finished job and where its standard output went.
#[derive(Debug)]
pub struct JobRun {
    /// Wall, RSS and exit.
    pub finished: Finished,
    /// The file holding the job's standard output.
    pub stdout: PathBuf,
}

impl Ctx<'_> {
    /// Runs `cmd` to completion with stdout captured to
    /// `<out_dir>/<stdout_name>`, under spans `child.spawn` and
    /// `child.run`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation, spawn and `wait4` failures — harness
    /// faults, not job failures (a job that exits non-zero is `Ok`).
    pub fn run_job(&self, cmd: &mut Command, stdout_name: &str, parent: u64) -> io::Result<JobRun> {
        let stdout = self.out_dir.join(stdout_name);
        cmd.stdout(Stdio::from(File::create(&stdout)?))
            .stderr(Stdio::null());
        let started = Instant::now();
        let child = {
            let _span = self.tracer.span("child.spawn", parent);
            cmd.spawn()?
        };
        let finished = {
            let _span = self.tracer.span("child.run", parent);
            sys::reap(child, started, OP_TIME_LIMIT)?
        };
        Ok(JobRun { finished, stdout })
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times — tearing the previous result down
/// first, off the clock — and returns the last result with the median
/// set-up time in seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<R>(mut setup: impl FnMut() -> io::Result<R>) -> io::Result<(R, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((ready.expect("SETUP_REPEATS >= 1"), median(&times)))
}

/// Calls `round(index)` until the next round would overrun `seconds`
/// (judged by the longest round so far), but at least [`MIN_ROUNDS`]
/// times. Returns the number of rounds run.
///
/// # Errors
///
/// The first error `round` returns.
pub fn fill_window(
    seconds: f64,
    mut round: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<usize> {
    let started = Instant::now();
    let mut longest = 0.0f64;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() + longest <= seconds {
        let t = Instant::now();
        round(rounds)?;
        longest = longest.max(t.elapsed().as_secs_f64());
        rounds += 1;
    }
    Ok(rounds)
}

/// A paired sample: the same work on the protected and the unprotected
/// side, back to back, one entry per side per round.
///
/// A failed operation counts as missing every latency figure: it enters
/// the time sample at the time limit, however quickly it failed — so a
/// protected side that crashes early reads slower, never faster — and it
/// contributes no memory sample.
#[derive(Debug, Clone)]
pub struct Pairs {
    /// What a failed operation is charged.
    limit: Duration,
    /// Protected-side seconds per round.
    pub protected_s: Vec<f64>,
    /// Unprotected-side seconds per round.
    pub baseline_s: Vec<f64>,
    /// Protected-side resident KB per round; `None` where the side failed.
    pub protected_rss: Vec<Option<f64>>,
    /// Unprotected-side resident KB per round; `None` where the side failed.
    pub baseline_rss: Vec<Option<f64>>,
    /// Operations counted over both sides, warm-up included.
    pub tally: Tally,
}

impl Pairs {
    /// An empty sample whose failed operations are charged `limit`,
    /// starting from the operations set-up already `counted`.
    #[must_use]
    pub fn new(limit: Duration, counted: Tally) -> Self {
        Self {
            limit,
            tally: counted,
            protected_s: Vec::new(),
            baseline_s: Vec::new(),
            protected_rss: Vec::new(),
            baseline_rss: Vec::new(),
        }
    }

    /// Files one side of a round: whether it succeeded, its wall seconds
    /// and its resident KB.
    pub fn push(&mut self, protected: bool, ok: bool, seconds: f64, resident_kb: f64) {
        let (times, residents) = if protected {
            (&mut self.protected_s, &mut self.protected_rss)
        } else {
            (&mut self.baseline_s, &mut self.baseline_rss)
        };
        times.push(if ok {
            seconds
        } else {
            self.limit.as_secs_f64()
        });
        residents.push(ok.then_some(resident_kb));
    }

    /// Protected ÷ baseline time of every round.
    #[must_use]
    pub fn time_ratios(&self) -> Vec<f64> {
        self.protected_s
            .iter()
            .zip(&self.baseline_s)
            .map(|(p, b)| p / b)
            .collect()
    }

    /// Median over rounds of protected ÷ baseline time.
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        median(&self.time_ratios())
    }

    /// Median, over the rounds in which both sides succeeded, of protected
    /// ÷ baseline resident memory.
    #[must_use]
    pub fn rss_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .protected_rss
            .iter()
            .zip(&self.baseline_rss)
            .filter_map(|(p, b)| Some((*p)? / (*b)?))
            .collect();
        median(&ratios)
    }

    /// Median resident MB of one side, over the operations that succeeded.
    #[must_use]
    pub fn resident_mb(&self, protected: bool) -> f64 {
        let side = if protected {
            &self.protected_rss
        } else {
            &self.baseline_rss
        };
        median(&side.iter().flatten().copied().collect::<Vec<_>>()) / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_side_is_charged_the_limit_and_gives_no_memory_sample() {
        let mut pairs = Pairs::new(Duration::from_secs(60), Tally::default());
        // Three rounds of 3 s against 1 s, 30 MB against 10 MB; in the
        // second the protected side dies after 10 ms holding nothing.
        for (ok, seconds, kb) in [(true, 3.0, 30e3), (false, 0.01, 0.0), (true, 3.0, 30e3)] {
            pairs.push(true, ok, seconds, kb);
            pairs.push(false, true, 1.0, 10e3);
        }
        assert_eq!(pairs.protected_s, [3.0, 60.0, 3.0]);
        assert_eq!(pairs.protected_rss, [Some(30e3), None, Some(30e3)]);
        assert_eq!(pairs.overhead_ratio(), 3.0);
        assert_eq!(pairs.rss_ratio(), 3.0);
        // Had the crash entered at its own wall, two crashes in three
        // rounds would have read as a 100-fold speed-up; charged the
        // limit they read as a 60-fold slow-down.
        let mut crashing = Pairs::new(Duration::from_secs(60), Tally::default());
        for ok in [false, true, false] {
            crashing.push(true, ok, if ok { 3.0 } else { 0.01 }, 30e3);
            crashing.push(false, true, 1.0, 10e3);
        }
        assert_eq!(crashing.overhead_ratio(), 60.0);
        assert_eq!(crashing.rss_ratio(), 3.0);
        assert!((crashing.resident_mb(true) - 30e3 / 1024.0).abs() < 1e-9);
    }
}
