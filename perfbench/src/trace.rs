//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions. A span's duration is measured by the wall
//! clock around its closure. The recorder lays spans out on one
//! timeline: a span starts where its previous sibling ended (or where its
//! parent started), so time a parent spends between its children shows
//! up at the parent's end. Durations, and therefore self times, are
//! exact; only the placement of that in-between time is a convention.

use crate::probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// Heap allocations made while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub allocs: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    cursor_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Runs `body` inside a span named `name`, nested under whichever span
    /// is open. Spans must be opened and closed on one thread.
    pub fn span<O>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> O) -> O {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.cursor_s,
            end_s: self.cursor_s,
            allocs: 0,
        });
        self.open.push(id);
        let allocs0 = probe::allocs();
        let (out, dur) = probe::timed(|| body(self));
        let allocs = probe::allocs() - allocs0;
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_s = span.start_s + dur;
        span.allocs = allocs;
        self.cursor_s = span.end_s;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] -= span.duration_s();
            }
        }
        out
    }

    /// Totals per span name, over the subtree rooted at span `root`.
    pub fn totals_under(&self, root: usize) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|id| self.is_under(id, root))
    }

    /// Totals per span name over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals_where(|_| true)
    }

    fn totals_where(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, Totals> {
        let self_times = self.self_times();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate().filter(|&(id, _)| keep(id)) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += span.duration_s();
            t.self_s += self_times[id];
            t.allocs += span.allocs;
        }
        out
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Index of the most recently opened top-level span named `name`.
    pub fn last_root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.parent.is_none() && s.name == name)
    }

    /// The spans in Chrome trace-event JSON, loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"allocs\":{}}}}}",
                s.name,
                s.start_s * 1e6,
                s.duration_s() * 1e6,
                s.allocs
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            parent,
            start_s,
            end_s,
            allocs: 0,
        }
    }

    fn synthetic() -> Tracer {
        // root [0, 10): child a [0, 3) holding grandchild g [0, 2),
        // child b [3, 7); 3 s of the root are its own.
        Tracer {
            spans: vec![
                span("root", None, 0.0, 10.0),
                span("a", Some(0), 0.0, 3.0),
                span("g", Some(1), 0.0, 2.0),
                span("b", Some(0), 3.0, 7.0),
            ],
            open: Vec::new(),
            cursor_s: 10.0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = synthetic();
        assert_eq!(t.self_times(), vec![3.0, 1.0, 2.0, 4.0]);
        let sum: f64 = t.self_times().iter().sum();
        assert_eq!(
            sum,
            t.spans()[0].duration_s(),
            "self times partition the root"
        );
    }

    #[test]
    fn totals_group_by_name_within_a_subtree() {
        let mut t = synthetic();
        t.spans.push(span("a", None, 10.0, 11.0));
        let under = t.totals_under(0);
        assert_eq!(under["a"].count, 1);
        assert_eq!(under["a"].self_s, 1.0);
        assert_eq!(under["g"].total_s, 2.0);
        let all = t.totals();
        assert_eq!(all["a"].count, 2);
        assert_eq!(all["a"].self_s, 2.0);
        assert_eq!(t.last_root("a"), Some(4));
        assert_eq!(t.last_root("g"), None);
    }

    #[test]
    fn recorded_spans_nest_and_lay_out_back_to_back() {
        probe::count_allocations();
        let mut t = Tracer::new();
        let v = t.span("outer", |t| {
            let a = t.span("inner", |_| (0..10_000u64).sum::<u64>());
            let b = t.span("inner", |_| vec![1u8; 64].len() as u64);
            a + b
        });
        assert_eq!(v, 49_995_000 + 64);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[1].start_s, s[0].start_s);
        assert_eq!(s[2].start_s, s[1].end_s);
        assert!(s[0].end_s >= s[2].end_s);
        assert!(s[2].allocs >= 1);
        assert!(t.self_times().iter().all(|&x| x >= 0.0));
        assert!(t.to_chrome_json().contains("\"name\":\"inner\""));
    }
}
