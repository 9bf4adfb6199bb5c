//! Spans recorded by the benchmark around every call it makes into a
//! layer (a workspace crate), and the per-layer self time derived from
//! them.
//!
//! A span is named `<layer>.<call>`; the layer is the part before the
//! first dot. Root spans (no parent) are benchmark operations — `op`,
//! `twin`, `sweep` — and belong to no layer: the part of a root not
//! covered by any child is benchmark glue. Spans of one root are kept
//! in memory until the root closes, then folded into [`TraceAgg`] and
//! dropped, so a long run keeps a bounded trace.
//!
//! A disabled [`Tracer`] runs the wrapped call and records nothing,
//! which is how the untraced run shares the traced run's code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, or a root name without a dot.
    pub name: &'static str,
    /// Index of the enclosing span within the same root, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The layer a span name belongs to; `None` for roots.
pub fn layer_of(name: &str) -> Option<&str> {
    name.split_once('.').map(|(layer, _)| layer)
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once, and a child sticking out of its parent counts only inside).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let lo = start.max(reach);
                let hi = end.min(span.end);
                if hi > lo {
                    covered += hi - lo;
                }
                reach = reach.max(end.min(span.end));
            }
            span.duration() - covered
        })
        .collect()
}

/// Inclusive durations of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Every duration, ns, in completion order.
    pub samples: Vec<u64>,
}

impl SpanStats {
    /// Sum of durations, ns.
    pub fn total_ns(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Mean duration, ns (0 without samples).
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total_ns() as f64 / self.samples.len() as f64
        }
    }
}

/// Everything a trace yields once its roots are folded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAgg {
    /// Inclusive durations per span name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Self time per layer, ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Total duration of the roots, ns.
    pub root_ns: u64,
    /// Part of the roots covered by no layer span, ns.
    pub root_self_ns: u64,
}

impl TraceAgg {
    /// Folds one closed root and its descendants.
    pub fn fold(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            self.spans
                .entry(span.name)
                .or_default()
                .samples
                .push(span.duration());
            match layer_of(span.name) {
                Some(layer) => *self.layer_self_ns.entry(layer).or_default() += own,
                None => {
                    self.root_ns += span.duration();
                    self.root_self_ns += own;
                }
            }
        }
    }

    /// Appends another aggregate (e.g. a worker thread's).
    pub fn merge(&mut self, other: TraceAgg) {
        for (name, stats) in other.spans {
            self.spans
                .entry(name)
                .or_default()
                .samples
                .extend(stats.samples);
        }
        for (layer, ns) in other.layer_self_ns {
            *self.layer_self_ns.entry(layer).or_default() += ns;
        }
        self.root_ns += other.root_ns;
        self.root_self_ns += other.root_self_ns;
    }

    /// Share of root time that layer self times account for.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.values().sum::<u64>() as f64 / self.root_ns as f64
    }

    /// A layer's self time as a share of root time.
    pub fn layer_share(&self, layer: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / self.root_ns as f64
    }

    /// Durations of one span name (empty when never recorded).
    pub fn samples(&self, name: &str) -> &[u64] {
        self.spans.get(name).map_or(&[], |s| s.samples.as_slice())
    }

    /// Mean duration of one span name, ns.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, SpanStats::mean_ns)
    }
}

/// Records spans of one thread. Cheap to create; one per worker.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<Span>,
    stack: Vec<usize>,
    /// Folded roots so far.
    pub agg: TraceAgg,
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise only runs
    /// the wrapped calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            stack: Vec::new(),
            agg: TraceAgg::default(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; a span opened with no
    /// enclosing span is a root and is folded when it closes.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed_span(name, f).0
    }

    /// [`Tracer::span`] that also returns the span's duration, ns (0
    /// when disabled).
    pub fn timed_span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        if !self.enabled {
            return (f(self), 0);
        }
        let index = self.open.len();
        let parent = self.stack.last().copied();
        let start = self.now();
        self.open.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.stack.push(index);
        let out = f(self);
        let end = self.now();
        self.open[index].end = end;
        self.stack.pop();
        if self.stack.is_empty() {
            self.agg.fold(&self.open);
            self.open.clear();
        }
        (out, end - start)
    }

    /// [`Tracer::span`] for a call that does not need the tracer.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// [`Tracer::timed_span`] for a call that does not need the tracer.
    pub fn timed_call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.timed_span(name, |_| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_children() {
        // op [0,100) > core.fit [10,90) > cluster.spectral [20,50)
        //                                > linalg.eigen [30,40)
        let spans = [
            span("op", None, 0, 100),
            span("core.fit", Some(0), 10, 90),
            span("cluster.spectral", Some(1), 20, 50),
            span("linalg.eigen", Some(2), 30, 40),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
    }

    #[test]
    fn sibling_spans_each_subtract_from_the_parent() {
        let spans = [
            span("op", None, 0, 100),
            span("sim.run", Some(0), 0, 60),
            span("core.fit", Some(0), 60, 90),
            span("stream.parse", Some(0), 95, 100),
        ];
        assert_eq!(self_times(&spans), vec![5, 60, 30, 5]);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once_inside_the_parent() {
        let spans = [
            span("op", None, 10, 50),
            span("a.x", Some(0), 5, 20),
            span("a.y", Some(0), 15, 30),
            span("b.z", Some(0), 45, 70),
        ];
        // Covered inside [10,50): [10,30) and [45,50) = 25.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn fold_attributes_self_time_to_layers_and_glue_to_the_root() {
        let spans = [
            span("op", None, 0, 100),
            span("core.fit", Some(0), 10, 90),
            span("cluster.spectral", Some(1), 20, 50),
            span("core.evaluate", Some(0), 90, 98),
        ];
        let mut agg = TraceAgg::default();
        agg.fold(&spans);
        assert_eq!(agg.root_ns, 100);
        assert_eq!(agg.root_self_ns, 12);
        assert_eq!(agg.layer_self_ns["core"], 50 + 8);
        assert_eq!(agg.layer_self_ns["cluster"], 30);
        assert!((agg.coverage() - 0.88).abs() < 1e-12);
        assert_eq!(agg.samples("core.fit"), &[80]);
        let mut twice = agg.clone();
        twice.merge(agg.clone());
        assert_eq!(twice.root_ns, 200);
        assert_eq!(twice.samples("core.fit"), &[80, 80]);
        assert!((twice.coverage() - agg.coverage()).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_roots_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("op", |t| t.call("sim.run", || 2) + t.call("core.fit", || 3));
        assert_eq!(v, 5);
        assert_eq!(t.agg.samples("op").len(), 1);
        assert_eq!(t.agg.samples("sim.run").len(), 1);
        assert!(t.agg.coverage() <= 1.0);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", |t| t.call("sim.run", || 7)), 7);
        assert_eq!(off.agg, TraceAgg::default());
    }
}
