//! Spans around the public calls the benchmark makes, kept in memory and
//! written out when the run ends.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans of one epoch or one request share a `group` id.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// Epoch, request or set-up round the span belongs to.
    pub group: u64,
    /// Layer and call, e.g. `train.epoch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (inert when the tracer is disabled).
#[must_use]
pub struct Open(Option<usize>);

/// Records spans of one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer for another thread, on this tracer's clock, so the
    /// two can be merged with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            ..Tracer::new(self.enabled)
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, group);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans of a [`Tracer::fork`] of this tracer, keeping their
    /// parent links by renumbering.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Overlapping children count once; a child sticking out
/// of its parent counts only inside it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            span.duration_ns() - covered_ns(span.start_ns, span.end_ns, &mut kids)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Per span name: count, total time and self time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Aggregate spans by name, in name order.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += self_ns;
    }
    layers
}

/// Tab-separated span dump: one header line, then one line per span.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tgroup\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.group, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, None, "epoch", 0, 100),
            span(1, Some(0), "eval", 10, 40),
            span(2, Some(1), "rank", 15, 25),
            span(3, Some(0), "eval", 60, 70),
        ];
        // epoch: 100 − (30 + 10); eval: 30 − 10; the grandchild is not
        // subtracted from the epoch a second time.
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_the_parent() {
        let spans = [
            span(0, None, "request", 100, 200),
            span(1, Some(0), "a", 110, 150),
            span(2, Some(0), "b", 130, 170),
            span(3, Some(0), "c", 140, 160),
            span(4, Some(0), "late", 190, 260),
            span(5, Some(0), "early", 50, 105),
        ];
        // Covered: [100,105] ∪ [110,170] ∪ [190,200] = 5 + 60 + 10.
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn layer_times_sum_by_name() {
        let spans = [
            span(0, None, "epoch", 0, 100),
            span(1, Some(0), "eval", 10, 40),
            span(2, None, "epoch", 100, 150),
        ];
        let layers = layer_times(&spans);
        assert_eq!(
            layers["epoch"],
            LayerTime {
                count: 2,
                total_ns: 150,
                self_ns: 120
            }
        );
        assert_eq!(layers["eval"].self_ns, 30);
    }

    #[test]
    fn tracer_links_parents_and_absorbs_other_threads() {
        let mut main = Tracer::new(true);
        let outer = main.begin("outer", 7);
        let value = main.time("inner", 7, || 41 + 1);
        main.end(outer);
        assert_eq!(value, 42);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert!(main.spans()[0].end_ns >= main.spans()[1].end_ns);

        let mut worker = main.fork();
        let a = worker.begin("req", 1);
        worker.time("call", 1, || ());
        worker.end(a);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[2].id, spans[2].parent), (2, None));
        assert_eq!((spans[3].id, spans[3].parent), (3, Some(2)));
        assert_eq!(main.durations_s("req").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("x", 0);
        tracer.end(open);
        assert_eq!(tracer.time("y", 0, || 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
