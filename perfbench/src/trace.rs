//! In-memory spans recorded from the benchmark's own code.
//!
//! A span is `(name, start, end, parent, request id)` in nanoseconds
//! since the tracer's epoch. Spans stay in memory until the run ends
//! and are then written out as JSON lines. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `diffusion.predict_x0`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(Instant::now())
    }
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `instant` in nanoseconds since the epoch.
    #[must_use]
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the request id that new spans are tagged with.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end = end;
    }

    /// Records an already-measured span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request: self.request,
        });
        index
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves the recorded spans out, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.spans)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` as this thread's span recorder.
pub fn install(tracer: Tracer) {
    CURRENT.with(|c| *c.borrow_mut() = Some(tracer));
}

/// Removes and returns this thread's span recorder.
pub fn uninstall() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Tags spans opened from now on with `request`.
pub fn set_request(request: u64) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.set_request(request);
        }
    });
}

/// Runs `f` inside a span named `name` on this thread's recorder (or
/// untraced when none is installed).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = CURRENT.with(|c| c.borrow_mut().as_mut().map(|t| t.enter(name)));
    let out = f();
    if let Some(index) = index {
        CURRENT.with(|c| {
            if let Some(t) = c.borrow_mut().as_mut() {
                t.exit(index);
            }
        });
    }
    out
}

/// Self time of every span, in nanoseconds: duration minus the union
/// of its children's intervals clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// For every root span `is_root` selects, the self time of all its
/// descendants (the root's own self time excluded), keyed by the
/// root's request id and summed per request.
#[must_use]
pub fn descendant_self_times(
    spans: &[Span],
    is_root: impl Fn(&Span) -> bool,
) -> std::collections::BTreeMap<u64, u64> {
    let selves = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (index, self_ns) in selves.iter().enumerate() {
        let mut ancestor = spans[index].parent;
        while let Some(a) = ancestor {
            if is_root(&spans[a]) {
                *out.entry(spans[a].request).or_insert(0) += self_ns;
                break;
            }
            ancestor = spans[a].parent;
        }
    }
    for span in spans.iter().filter(|s| is_root(s)) {
        out.entry(span.request).or_insert(0);
    }
    out
}

/// Renders spans as JSON lines (`name`, `start_ns`, `end_ns`,
/// `parent`, `request`, `self_ns`).
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let selves = self_times(spans);
    let mut out = String::new();
    for (index, (span, self_ns)) in spans.iter().zip(selves).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
            span.name, span.start, span.end, span.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a.x [15,25); root ⊃ b [50,70)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.x", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn sum_of_self_times_equals_root_duration() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 100, 400, Some(0)),
            span("a1", 120, 200, Some(1)),
            span("a2", 250, 390, Some(1)),
            span("b", 500, 900, Some(0)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn descendant_self_times_sum_below_each_root() {
        let mut spans = vec![
            span("op.a", 0, 100, None),
            span("layer.x", 10, 60, Some(0)),
            span("layer.y", 20, 30, Some(1)),
            span("outside", 200, 250, None),
            span("op.b", 300, 400, None),
        ];
        spans[4].request = 9;
        let got = descendant_self_times(&spans, |s| s.name.starts_with("op."));
        // x's self (40) + y's self (10); the root's own 50 is residual.
        assert_eq!(got.get(&0), Some(&50));
        assert_eq!(got.get(&9), Some(&0));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn thread_local_spans_nest() {
        install(Tracer::default());
        set_request(7);
        let v = super::span("outer", || super::span("inner", || 3));
        let tracer = uninstall().unwrap();
        assert_eq!(v, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let spans = vec![span("root", 0, 10, None), span("kid", 2, 5, Some(0))];
        let text = to_json_lines(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[0].contains("\"self_ns\":7"));
    }
}
