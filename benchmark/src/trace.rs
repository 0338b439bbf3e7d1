//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, its parent span and the tick or fit
//! it belongs to. Spans are held in memory during the run and written out
//! at the end; a layer's self time is its span duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The tick (serving workloads) or fit (fleet_fit) the span belongs to.
    pub group: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; when disabled every call is one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// Sets the tick or fit id stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            group: self.group,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group
            );
        }
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the union of its children's intervals, clipped to the span.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[id]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
            })
            .filter(|(s, e)| e > s)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (s, e) in intervals {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns() - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // tick [0,100) > submit [10,40) > inner [20,30); drain [50,90).
        let spans = [
            span("tick", 0, 100, None),
            span("submit", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("drain", 50, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["tick"].self_ns, 100 - 30 - 40);
        assert_eq!(t["submit"].self_ns, 30 - 10);
        assert_eq!(t["inner"].self_ns, 10);
        assert_eq!(t["drain"].self_ns, 40);
        assert_eq!(t["tick"].total_ns, 100);
    }

    #[test]
    fn back_to_back_and_overlapping_children_are_counted_once() {
        let spans = [
            span("fit", 0, 100, None),
            span("a", 0, 25, Some(0)),
            span("a", 25, 50, Some(0)),
            // Overlaps the previous child and sticks out past the parent.
            span("b", 40, 120, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["fit"].self_ns, 0);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 50);
        assert_eq!(t["b"].self_ns, 80);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_group(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(tr.render_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        off.span("outer", |_| ());
        assert!(off.spans().is_empty());
    }
}
