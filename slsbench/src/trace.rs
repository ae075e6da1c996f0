//! In-memory spans recorded around calls into the program's layers, and the
//! order statistics every metric is built from.
//!
//! Spans are only recorded by traced runs (`--trace 1`); end-to-end numbers
//! come from untraced runs. A span names a layer boundary, the operation it
//! belongs to (one request or one retrain) and the span that enclosed it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `api.decode`.
    pub name: &'static str,
    /// Operation (request or retrain) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; nested calls on one thread get their parent from the
/// stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
    }

    /// Adds a span timed elsewhere (by a load thread), with no parent.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            op,
            parent: None,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span. The lock is not held while `f` runs, so `f` may
/// open nested spans on the same tracer.
pub fn timed<T>(tracer: &Mutex<Tracer>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    let id = tracer.lock().expect("tracer lock").begin(name, op);
    let out = f();
    tracer.lock().expect("tracer lock").end(id);
    out
}

/// Total duration of the `name` spans of each op, in microseconds: one value
/// per op that has at least one such span.
pub fn per_op_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *totals.entry(span.op).or_default() += span.nanos();
    }
    totals.into_values().map(|ns| ns as f64 / 1e3).collect()
}

/// Median; 0 for no values, which is what a layer the workload never
/// enters reports.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile (`p` in `0..=1`); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name, span.op, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_their_parent_and_sum_per_op() {
        let tracer = Mutex::new(Tracer::new());
        timed(&tracer, "outer", 7, || {
            timed(&tracer, "inner", 7, || ());
            timed(&tracer, "inner", 7, || ());
        });
        timed(&tracer, "inner", 8, || ());
        let tracer = tracer.into_inner().unwrap();
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(per_op_us(spans, "inner").len(), 2);
        assert_eq!(per_op_us(spans, "missing"), Vec::<f64>::new());
    }

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ladder: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ladder, 0.5), 50.0);
        assert_eq!(percentile(&ladder, 0.99), 99.0);
        assert_eq!(percentile(&[5.0, 9.0, 7.0], 0.99), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
