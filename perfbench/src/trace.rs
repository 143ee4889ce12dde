//! In-memory spans and counts, recorded by the benchmark around its calls
//! into each layer's public functions. Nothing is recorded unless the run
//! is traced; the spans are written out as JSON lines when the run ends.

use crate::stats::{covered, mean, median};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` is 0 for a root span; spans of one request
/// share `req`. `count` carries the work the call did (bytes, rows, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve a span id, for a parent whose end is known only after its
    /// children were recorded.
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        // Relaxed: ids only need to be unique, they publish nothing.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span under a reserved `id` (see [`Trace::reserve`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Record a span that already happened; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
        count: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, start, end, parent, req, count);
        id
    }

    /// Time `f` as a span (untraced runs just call it).
    pub fn time<R>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req, 0);
        out
    }

    /// Add `n` to a named count.
    pub fn add(&self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        *self
            .counters
            .lock()
            .expect("a thread panicked while counting")
            .entry(name)
            .or_default() += n;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    pub fn counter(&self, name: &str) -> u64 {
        let counters = self.counters.lock().expect("counter lock poisoned");
        counters.get(name).copied().unwrap_or(0)
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn has(&self, name: &str) -> bool {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans.iter().any(|s| s.name == name)
    }

    pub fn mean_us(&self, name: &str) -> f64 {
        mean(&self.durations_us(name))
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Mean of the `count` field over the spans called `name`.
    pub fn mean_count(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span lock poisoned");
        let counts: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count as f64)
            .collect();
        mean(&counts)
    }

    /// Write every span and count as JSON lines tagged with `label`.
    pub fn write_jsonl(&self, path: &Path, label: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let self_us = self_times_us(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in spans.iter().zip(&self_us) {
            writeln!(
                out,
                "{{\"run\":\"{label}\",\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_us\":{own:.3},\"count\":{}}}",
                span.id, span.parent, span.req, span.name, span.start_ns, span.end_ns, span.count
            )?;
        }
        for (name, n) in self.counters.lock().expect("counter lock poisoned").iter() {
            writeln!(
                out,
                "{{\"run\":\"{label}\",\"counter\":\"{name}\",\"value\":{n}}}"
            )?;
        }
        out.flush()
    }
}

/// Each span's self time in microseconds: its duration minus the part of
/// its interval that its children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let child_ns = children.get_mut(&span.id).map_or(0, |intervals| {
                covered(span.start_ns, span.end_ns, intervals)
            });
            (span.end_ns - span.start_ns - child_ns) as f64 / 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "s",
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, 0, 10_000),
            // Two children overlapping on [3, 4) us, one sticking out past
            // the parent's end: 2 + 2 us of the parent is covered.
            span(2, 1, 1_000, 4_000),
            span(3, 1, 3_000, 4_000),
            span(4, 1, 8_000, 12_000),
            // A grandchild never counts against the grandparent.
            span(5, 2, 1_000, 2_000),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 10.0 - 3.0 - 2.0);
        assert_eq!(own[1], 3.0 - 1.0);
        assert_eq!(own[2], 1.0);
        assert_eq!(own[4], 1.0);
    }

    #[test]
    fn untraced_runs_record_nothing() {
        let trace = Trace::new(false);
        assert_eq!(trace.time("x", 0, 0, || 7), 7);
        trace.add("n", 3);
        assert!(trace.spans().is_empty());
        assert_eq!(trace.counter("n"), 0);

        let traced = Trace::new(true);
        traced.time("x", 0, 0, || ());
        traced.add("n", 3);
        assert_eq!(traced.durations_us("x").len(), 1);
        assert_eq!(traced.counter("n"), 3);
    }
}
