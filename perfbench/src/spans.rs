//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer name, start and end (ns since the tracer's epoch),
//! the index of the span that caused it, and the request id it belongs
//! to. Spans the service reported (`queue_time`, `solve_time`) rather
//! than the harness timed are marked `reported`. Spans stay in memory
//! until [`Tracer::write`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `serve.service.submit`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request (or instance) id.
    pub request: u64,
    /// Reported by the service instead of timed by the harness.
    pub reported: bool,
}

/// A span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns from the epoch to `t` (zero before the epoch).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its index (`usize::MAX` when
    /// disabled, which no parent lookup ever matches).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e, parent, request, false)
    }

    /// Records a span given in ns since the epoch.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
        reported: bool,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            reported,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name, in ns: each span's duration minus the
    /// part of it that its children's intervals cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            *out.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - covered;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"reported\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.reported
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.push("root", 0, 100, None, 1, false);
        t.push("a", 10, 40, Some(root), 1, false);
        t.push("b", 30, 50, Some(root), 1, true);
        t.push("c", 90, 120, Some(root), 1, false);
        let st = t.self_times();
        assert_eq!(st["root"], 100 - 40 - 10);
        assert_eq!(st["a"], 30);
        assert_eq!(st["c"], 30);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.push("x", 0, 1, None, 0, false);
        assert!(t.spans().is_empty());
    }
}
