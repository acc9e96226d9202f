//! In-memory spans around every call the harness makes into a layer.
//!
//! With `--trace 0` the tracer is off and [`Tracer::span`] costs one
//! branch; end-to-end metrics are only ever measured that way. With
//! `--trace 1` spans — `{name, start_ns, end_ns, parent, id}` — collect in
//! memory and are written to `benchmark/out/trace-<workload>.json` when the
//! run ends. A layer's self time is its span minus the part its children
//! cover ([`Tracer::self_times`]). Spans inside the programs under test are
//! a later change; these are recorded from the benchmark's side of each
//! boundary.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or step name, e.g. `child.run` or `conn.first_byte`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Unique within the run, from 1. The spans of one job or connection
    /// share their root's id as `parent`.
    pub id: u64,
}

/// Collects spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it (or dropping it) records the end time.
#[derive(Debug)]
pub struct Open<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    start_ns: u64,
    parent: u64,
    /// This span's id (0 when tracing is off) — pass as `parent` to
    /// children.
    pub id: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u64) -> Open<'_> {
        if !self.enabled {
            return Open {
                tracer: self,
                name,
                start_ns: 0,
                parent,
                id: 0,
            };
        }
        Open {
            tracer: self,
            name,
            start_ns: self.now_ns(),
            parent,
            // Relaxed: the counter only hands out distinct numbers.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The spans closed so far, in closing order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// Total self time per span name, in nanoseconds: each span's duration
    /// minus the time its direct children cover, summed by name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let entry = by_name.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        by_name
    }

    /// Writes every span as a JSON array.
    ///
    /// # Errors
    ///
    /// Propagates write failures, including the final flush.
    pub fn write_json(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            parent: self.parent,
            id: self.id,
        };
        // A poisoned lock means another thread already panicked; losing
        // this span is the least of the run's problems, and Drop must not
        // panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let t = Tracer::new(false);
        {
            let root = t.span("root", 0);
            let _child = t.span("child", root.id);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_close_first_and_point_at_their_parent() {
        let t = Tracer::new(true);
        {
            let root = t.span("job", 0);
            let child = t.span("child.run", root.id);
            drop(child);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child.run");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::new(true);
        {
            let mut spans = t.spans.lock().unwrap();
            spans.push(Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: 1,
                id: 2,
            });
            spans.push(Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: 0,
                id: 1,
            });
        }
        let selfs = t.self_times();
        assert_eq!(selfs["root"], (70, 1));
        assert_eq!(selfs["child"], (30, 1));
    }

    #[test]
    fn json_lists_every_field() {
        let t = Tracer::new(true);
        drop(t.span("only", 0));
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for key in [
            "\"name\": \"only\"",
            "\"start_ns\"",
            "\"end_ns\"",
            "\"parent\": 0",
            "\"id\": 1",
        ] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
        assert!(text.trim_start().starts_with('[') && text.trim_end().ends_with(']'));
    }
}
