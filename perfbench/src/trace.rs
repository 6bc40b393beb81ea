//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent (the span open on the same
//! thread when it began) and an id shared by every span of one request,
//! delta or plan. Spans stay in memory until the run ends; self time is a
//! span's duration minus the part of it that its children on the same
//! thread cover. With tracing off every call is a no-op apart from one
//! branch, so the untraced run pays nothing measurable.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `traffic.route`.
    pub name: &'static str,
    /// Id shared by the spans of one request, delta or plan.
    pub id: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Worker threads get their own recorder via
/// [`Tracer::fork`] and hand it back with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::enter`]; pass it to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder for another thread, sharing this one's origin.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends a worker thread's spans. Their parents stay within the
    /// absorbed set, so self times are still computed per thread.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; nested spans opened before the matching
    /// [`exit`](Tracer::exit) become its children.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes the span `open` returned by [`enter`](Tracer::enter).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span timed by the caller, as a child of the innermost open
    /// span (none for work measured on other threads and recorded after
    /// the fact, which must be recorded while no span is open).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.push(span);
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, in nanoseconds, indexed like [`spans`](Tracer::spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time and span count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += self_ns;
            entry.1 += 1;
        }
        out
    }

    /// Self time in nanoseconds summed over the spans named in `names`.
    pub fn covered_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, ns)| ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("plan", None, 0, 100),
            span("route", Some(0), 10, 40),
            span("solve", Some(0), 50, 70),
            span("inner", Some(2), 55, 60),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 30, 15, 5]);
        let by = t.by_name();
        assert_eq!(by["plan"], (50, 1));
        assert_eq!(t.covered_ns(&["route", "solve", "inner"]), 50);
    }

    #[test]
    fn absorb_keeps_parents_within_the_thread() {
        let mut main = Tracer::new(true);
        main.spans = vec![span("a", None, 0, 10)];
        let mut worker = main.fork();
        worker.spans = vec![span("b", None, 0, 8), span("c", Some(0), 1, 3)];
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times_ns(), vec![10, 6, 2]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x", 0);
        t.exit(open);
        assert_eq!(t.time("y", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 3);
        t.time("leaf", 3, || ());
        let now = Instant::now();
        t.record("recorded", 3, now, now);
        t.exit(outer);
        t.record("after", 4, now, now);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 3);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
    }
}
