//! A span recorder for the traced run.
//!
//! The program has no tracing inside it, so every span is recorded by
//! the benchmark around a call into one crate's public function. A span
//! has a name (`layer.operation`), a start, an end and an optional parent.
//! Spans stay in memory and are written out once, when the run ends.
//!
//! A layer's self time is its span's duration minus the durations of its
//! child spans. Most children run inside their parent's interval (the
//! policy callbacks inside `Bullshark::process_vertex`). Work the
//! benchmark cannot wrap from outside — the DAG insert inside
//! `Rbc::handle`, the sub-DAG walk inside `process_vertex`, the CRC and
//! digest inside `decode_framed` — is timed by repeating the identical
//! public call on a twin of the same state right after the parent
//! returns; that twin span is recorded as the parent's child, so it is
//! subtracted the same way.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `rbc.handle`.
    pub name: &'static str,
    /// Start (ns since origin).
    pub start_ns: u64,
    /// End (ns since origin).
    pub end_ns: u64,
    /// The span this one is part of.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: i64,
    /// Sum of self times (duration minus child durations). Kept signed:
    /// a negative value means a twin child measured more than its parent
    /// took, which is reported rather than hidden.
    pub self_ns: i64,
}

impl SpanTotal {
    /// Mean self time per call in nanoseconds (0 with no calls).
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// The clock origin (shared with timing adapters that record spans on
    /// their own and hand them over later).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        debug_assert!(parent.is_none_or(|p| p < self.spans.len()), "parent must exist");
        self.spans.push(Span { name, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Runs `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (self.record(name, start, end, parent), out)
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration_ns() as i64;
            }
        }
        out
    }

    /// Aggregates spans by name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let self_times = self.self_times();
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self_times) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns() as i64;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as CSV (`id,name,start_ns,end_ns,parent`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create or a write.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(w, "{i},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_child_spans() {
        let mut t = Tracer::new();
        let root = t.record("consensus.process_vertex", 100, 1_100, None);
        // Two nested children inside the parent's interval.
        t.record("policy.before_order", 200, 300, Some(root));
        t.record("policy.on_vertex_ordered", 400, 650, Some(root));
        // A twin child measured after the parent returned still counts.
        t.record("dag.causal_sub_dag", 1_200, 1_400, Some(root));
        // A grandchild is subtracted from its own parent only.
        let child = t.record("rbc.handle", 2_000, 2_500, Some(root));
        t.record("dag.insert", 2_600, 2_700, Some(child));

        let self_times = t.self_times();
        assert_eq!(self_times[root], 1_000 - 100 - 250 - 200 - 500);
        assert_eq!(self_times[child], 500 - 100);
        let totals = t.totals();
        assert_eq!(totals["consensus.process_vertex"].self_ns, -50);
        assert_eq!(totals["rbc.handle"].self_ns, 400);
        assert_eq!(totals["dag.insert"].calls, 1);
        assert_eq!(totals["dag.insert"].self_ns_per_call(), 100.0);
    }

    #[test]
    fn time_records_a_span_around_the_call() {
        let mut t = Tracer::new();
        let (id, v) = t.time("crypto.verify", None, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(id, 0);
        assert_eq!(t.totals()["crypto.verify"].calls, 1);
    }

    #[test]
    fn spans_round_trip_through_csv() {
        let mut t = Tracer::new();
        let a = t.record("storage.append", 5, 9, None);
        t.record("crypto.crc", 6, 7, Some(a));
        let dir = crate::out_dir().join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("spans.csv");
        t.write_csv(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(
            text,
            "id,name,start_ns,end_ns,parent\n0,storage.append,5,9,\n1,crypto.crc,6,7,0\n"
        );
    }
}
