//! In-memory span recorder and the self-time ledger built from it.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the recorder was created), the span that was open when it began,
//! the document it belongs to, and the bytes it produced or consumed.
//! Spans stay in memory until the traced run ends; only then are they
//! written out and folded into per-layer totals.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Marks a root span (no parent).
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub doc: u32,
    pub bytes: u64,
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    doc: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            doc: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the document id stamped on spans opened from now on.
    pub fn set_doc(&mut self, doc: u32) {
        self.doc = doc;
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span. `f` returns its result and the byte count the span reports.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> (T, u64)) -> T {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            doc: self.doc,
            bytes: 0,
        });
        self.open.push(index);
        let (value, bytes) = f(self);
        self.open.pop();
        let end = self.now();
        let span = &mut self.spans[index as usize];
        span.end = end;
        span.bytes = bytes;
        value
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Forgets spans left open by a call that unwound, back to `depth`.
    pub fn close_to(&mut self, depth: usize) {
        self.open.truncate(depth);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns parent doc bytes` (parent is -1 for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.doc, s.bytes
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. `spans` is a slice
/// of the recording starting at index `base`, holding whole trees.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize - base].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub calls: u64,
    pub bytes: u64,
}

pub fn layer_totals(spans: &[Span], base: usize) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans, base)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += self_ns;
        t.calls += 1;
        t.bytes += s.bytes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            doc: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("doc", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 50, 60, 0),
            span("a.inner", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans, 0), vec![70, 12, 10, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("doc", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 30, 50, 0),
        ];
        // Children cover [10, 50): 40 ns, not 30 + 20.
        assert_eq!(self_times(&spans, 0)[0], 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("doc", 10, 20, NO_PARENT), span("a", 15, 40, 0)];
        assert_eq!(self_times(&spans, 0), vec![5, 25]);
    }

    #[test]
    fn self_time_resolves_parents_from_a_later_slice() {
        let spans = [
            span("doc", 0, 10, NO_PARENT),
            span("doc", 20, 50, NO_PARENT),
            span("a", 25, 35, 1),
        ];
        assert_eq!(self_times(&spans[1..], 1), vec![20, 10]);
    }

    #[test]
    fn recorder_nests_spans_and_totals_by_layer() {
        let mut rec = Recorder::new();
        rec.set_doc(7);
        let value = rec.span("doc", |rec| {
            let inner = rec.span("read", |_| (3, 1024));
            rec.span("read", |_| ((), 1024));
            (inner, 0)
        });
        assert_eq!(value, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.doc == 7 && s.end >= s.start));
        let totals = layer_totals(spans, 0);
        assert_eq!(totals["read"].calls, 2);
        assert_eq!(totals["read"].bytes, 2048);
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, spans[0].end - spans[0].start);
    }
}
