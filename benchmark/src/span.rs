//! Spans recorded by the harness around each call into a layer.
//!
//! A span is `(name, parent, start, end, items in/out, bytes, allocations,
//! peak heap)`. They are kept in memory and dumped when the run ends. All
//! spans of one traced pass hang off one root span, which is the pass's
//! identifier. Nothing under `crates/` knows about them: the harness opens
//! a span, calls a layer's public function, and closes it.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.stage`, e.g. `rdf.parse`.
    pub name: String,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equals `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// Items handed to the layer (bytes, triples, blocks, pairs …).
    pub items_in: u64,
    /// Items the layer handed back.
    pub items_out: u64,
    /// Input size in bytes where that is meaningful, else 0.
    pub bytes: u64,
    /// Allocation calls made while the span was open (0 unless the
    /// counting allocator is installed and enabled).
    pub allocs: u64,
    /// High-water mark of the pass's own heap while the span was open.
    pub peak_bytes: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Open {
    id: usize,
    allocs_at_entry: u64,
    outer_peak: i64,
}

/// Records spans in call order. An inactive tracer records nothing, so
/// the same staged pass can run with and without tracing.
pub struct Tracer {
    origin: Instant,
    active: bool,
    spans: Vec<Span>,
    open: Vec<Open>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            active: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose every call is a no-op.
    pub fn inactive() -> Self {
        Self {
            active: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, items_in: u64, bytes: u64) {
        if !self.active {
            return;
        }
        let id = self.spans.len();
        self.open.push(Open {
            id,
            allocs_at_entry: alloc::snapshot().allocs,
            outer_peak: alloc::reset_peak(),
        });
        let parent = self.open.iter().rev().nth(1).map(|o| o.id);
        // Read the clock last so the bookkeeping above is charged to the
        // parent's self time, not to this span.
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: now,
            end_ns: now,
            items_in,
            items_out: 0,
            bytes,
            allocs: 0,
            peak_bytes: 0,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open — an unbalanced harness.
    pub fn exit(&mut self, items_out: u64) {
        if !self.active {
            return;
        }
        let now = self.now_ns();
        let open = self.open.pop().expect("exit without a matching enter");
        let snap = alloc::snapshot();
        alloc::raise_peak(open.outer_peak);
        let span = &mut self.spans[open.id];
        span.end_ns = now;
        span.items_out = items_out;
        span.allocs = snap.allocs - open.allocs_at_entry;
        span.peak_bytes = snap.peak.max(0) as u64;
    }

    /// Runs `f` inside a span; `f` returns its value and the item count
    /// it produced.
    pub fn span<R>(
        &mut self,
        name: &str,
        items_in: u64,
        bytes: u64,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        self.enter(name, items_in, bytes);
        let (value, items_out) = f();
        self.exit(items_out);
        value
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The JSON dump of [`spans`](Self::spans) with each span's self time.
    pub fn to_json(&self) -> String {
        spans_json(&self.spans)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Children run one after another on the
/// harness thread, so their clipped durations add up without overlap.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|c| {
            let start = c.start_ns.max(me.start_ns);
            let end = c.end_ns.min(me.end_ns);
            end.saturating_sub(start)
        })
        .sum();
    me.duration_ns().saturating_sub(covered)
}

/// Total duration of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// The first span called `name`.
pub fn find<'a>(spans: &'a [Span], name: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name == name)
}

/// Share (in percent) of root span `root` that none of its children
/// cover: the gap between the stages and the total they must sum to.
pub fn gap_pct(spans: &[Span], root: usize) -> f64 {
    let total = spans[root].duration_ns();
    if total == 0 {
        return 0.0;
    }
    100.0 * self_ns(spans, root) as f64 / total as f64
}

/// JSON array of `spans`, one object per span, self time included.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}, \"items_in\": {}, \"items_out\": {}, \
             \"bytes\": {}, \"allocs\": {}, \"peak_bytes\": {}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns(spans, i),
            s.items_in,
            s.items_out,
            s.bytes,
            s.allocs,
            s.peak_bytes
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
            items_in: 0,
            items_out: 0,
            bytes: 0,
            allocs: 0,
            peak_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("run", None, 0, 1000),
            span("rdf.parse", Some(0), 10, 300),
            span("blocking.build", Some(0), 300, 700),
            // A grandchild is covered by its own parent, not by the root.
            span("blocking.sort", Some(2), 350, 450),
            span("core.resolve", Some(0), 720, 990),
        ];
        assert_eq!(self_ns(&spans, 0), 1000 - 290 - 400 - 270);
        assert_eq!(self_ns(&spans, 2), 400 - 100);
        assert_eq!(
            self_ns(&spans, 1),
            290,
            "a leaf's self time is its duration"
        );
        assert!((gap_pct(&spans, 0) - 4.0).abs() < 1e-9);
        assert_eq!(total_ns(&spans, "rdf.parse"), 290);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("p", None, 100, 200), span("c", Some(0), 150, 260)];
        assert_eq!(self_ns(&spans, 0), 50);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        t.enter("run", 0, 0);
        let v = t.span("rdf.parse", 3, 30, || (vec![1, 2, 3], 3));
        assert_eq!(v.len(), 3);
        t.enter("blocking.build", 3, 0);
        t.span("blocking.inner", 0, 0, || ((), 0));
        t.exit(7);
        t.exit(1);
        let s = t.spans();
        let names: Vec<&str> = s.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            ["run", "rdf.parse", "blocking.build", "blocking.inner"]
        );
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[1].items_in, s[1].items_out, s[1].bytes), (3, 3, 30));
        assert_eq!(s[2].items_out, 7);
        for x in s {
            assert!(x.end_ns >= x.start_ns);
        }
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert!(self_ns(s, 0) <= s[0].duration_ns());
        assert!(t
            .to_json()
            .contains("\"name\": \"blocking.inner\", \"parent\": 2"));
    }

    #[test]
    fn inactive_tracer_records_nothing_but_still_runs_the_work() {
        let mut t = Tracer::inactive();
        t.enter("run", 0, 0);
        let v = t.span("x", 0, 0, || (41 + 1, 0));
        t.exit(0);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
