//! What a run produces and how it is printed: the human-readable table
//! (every metric by name with its unit and sample count) and the one-line
//! JSON result the driver reads last.

use crate::spec::Metric;

/// Operations attempted and failed. An operation is one job or one
/// connection; it fails when it exits non-zero, times out, is refused, or
/// returns output that does not verify.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric or diagnostic name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count, minimum, or what the number means here.
    pub note: String,
}

impl Reading {
    /// A reading with a free-form note.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Everything one run of one workload (or of the ledger) reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operation counts.
    pub tally: Tally,
    /// The gated or per-layer metrics, by spec name.
    pub metrics: Vec<Reading>,
    /// Everything else worth printing: the issue's workload-specific
    /// names, absolute times and rates, noise flags. Never gated. A
    /// workload's first entry is its absolute time per operation on the
    /// protected side ([`op_time`](Self::op_time)).
    pub diagnostics: Vec<Reading>,
}

impl Outcome {
    /// The value reported for `name`, if any.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// A workload's absolute time per operation on the protected side
    /// (`wall_s`, `conn_p50_ms`, `stream_wall_s`): what the traced run
    /// compares with and without tracing.
    #[must_use]
    pub fn op_time(&self) -> Option<&Reading> {
        self.diagnostics.first()
    }

    /// Checks the metrics are exactly `spec`, in any order, each finite.
    ///
    /// # Errors
    ///
    /// Names the first missing, extra, or non-finite metric.
    pub fn check_against(&self, spec: &[Metric]) -> Result<(), String> {
        for m in spec {
            match self.metric(m.name) {
                None => return Err(format!("metric {} was not reported", m.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not a finite number: {v}", m.name))
                }
                Some(_) => {}
            }
        }
        match self
            .metrics
            .iter()
            .find(|r| spec.iter().all(|m| m.name != r.name))
        {
            Some(extra) => Err(format!("metric {} is not in the spec", extra.name)),
            None if self.metrics.len() != spec.len() => Err("a metric was reported twice".into()),
            None => Ok(()),
        }
    }

    /// The table a person reads.
    #[must_use]
    pub fn render_table(&self, title: &str) -> String {
        let mut out = format!(
            "== {title}: attempted {} failed {} (failed_share {:.4})\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        let width = self
            .metrics
            .iter()
            .chain(&self.diagnostics)
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0);
        for (label, rows) in [("metric", &self.metrics), ("diag  ", &self.diagnostics)] {
            for r in rows {
                out.push_str(&format!(
                    "{label} {:<width$} {:>14.4} {:<6} {}\n",
                    r.name, r.value, r.unit, r.note
                ));
            }
        }
        out
    }

    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`; every value with all its digits.
    #[must_use]
    pub fn render_result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name, r.value, r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn full() -> Outcome {
        let mut o = Outcome::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            o.metrics
                .push(Reading::new(m.name, 1.5 + i as f64, m.unit, ""));
        }
        o
    }

    #[test]
    fn tally_counts_every_attempt_once() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!((t.failed_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn complete_outcome_passes_and_gaps_are_named() {
        assert_eq!(full().check_against(&END_TO_END), Ok(()));
        let mut missing = full();
        missing.metrics.pop();
        assert!(missing
            .check_against(&END_TO_END)
            .unwrap_err()
            .contains("not reported"));
        let mut nan = full();
        nan.metrics[0].value = f64::NAN;
        assert!(nan
            .check_against(&END_TO_END)
            .unwrap_err()
            .contains("finite"));
        let mut extra = full();
        extra.metrics.push(Reading::new("bogus", 1.0, "s", ""));
        assert!(extra
            .check_against(&END_TO_END)
            .unwrap_err()
            .contains("bogus"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = full();
        o.tally = Tally {
            attempted: 7,
            failed: 0,
        };
        let line = o.render_result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": "));
        assert!(!line.contains('\n'));
        o.tally.failed = 1;
        assert!(o.render_result_line().starts_with("{\"correct\": false"));
    }
}
