//! In-memory span recorder for the traced run.
//!
//! Every public call the traced run makes into a layer is wrapped in a
//! span (name, start, end, parent, op id). Spans from any thread go into
//! one buffer and are written out once, when the run ends. A layer's
//! number is its *self time*: span duration minus the union of its
//! children's intervals, which may overlap when the children ran on
//! other threads.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started;
/// `parent == 0` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span that has started but not yet ended; its `id` is the parent of
/// the spans opened inside it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start: u64,
}

/// The span buffer plus named counters, shared by reference across the
/// threads of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: self.now(),
        }
    }

    /// Ends `span` and records it under `parent` and `op`.
    pub fn close(&self, span: Open, parent: u64, op: u64, name: &'static str) {
        let end = self.now();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id: span.id,
            parent,
            op,
            name,
            start: span.start,
            end,
        });
    }

    /// Adds `value` to the named counter.
    pub fn add(&self, counter: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect("counter map poisoned")
            .entry(counter)
            .or_insert(0.0) += value;
    }

    /// The named counter's total (`0` if never added to).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(counter)
            .copied()
            .unwrap_or(0.0)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` (half-open `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of each span (parallel to `spans`): its duration minus the
/// union of its children's intervals, clipped to its own interval.
/// Children on other threads may overlap one another; the union counts
/// each covered instant once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            (s.end - s.start).saturating_sub(union_len(&mut clipped))
        })
        .collect()
}

/// Per-name totals of a traced run: summed self seconds and call count.
#[derive(Debug, Default)]
pub struct Layers {
    by_name: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut by_name: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = by_name.entry(s.name).or_insert((0.0, 0));
            e.0 += self_ns as f64 * 1e-9;
            e.1 += 1;
        }
        Layers { by_name }
    }

    /// Summed self seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Mean self seconds per span named `name` (`0` when there are none).
    pub fn per_call_s(&self, name: &str) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            n => self.self_s(name) / n as f64,
        }
    }

    /// The rows of the stage table: name, calls, summed self ms.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, usize, f64)> + '_ {
        self.by_name.iter().map(|(&n, &(s, c))| (n, c, s * 1e3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(10, 40), (30, 60), (90, 100)]), 60);
        assert_eq!(union_len(&mut [(5, 6), (0, 10)]), 10);
        assert_eq!(union_len(&mut [(0, 5), (5, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_on_any_thread() {
        // Parent [0, 100) with two children that ran concurrently on two
        // worker threads, [10, 40) and [30, 60), plus one that outlives the
        // parent, [90, 120). Covered: [10, 60) and [90, 100) = 60 ns.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
            // Grandchild: counts against span 2 only.
            span(5, 2, 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn layers_sum_self_time_by_name() {
        let tr = Tracer::new();
        let root = tr.open();
        let child = tr.open();
        tr.close(child, root.id, 7, "child");
        tr.close(root, 0, 7, "root");
        tr.add("calls", 2.0);
        tr.add("calls", 1.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let layers = Layers::from_spans(&spans);
        assert_eq!(layers.calls("child"), 1);
        assert_eq!(layers.calls("missing"), 0);
        assert!(layers.self_s("root") >= 0.0);
        assert_eq!(tr.counter("calls"), 3.0);
    }
}
