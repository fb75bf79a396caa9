//! Structured query traces: a span tree with wall times, numeric
//! attributes and free-form notes, rendered as an `EXPLAIN ANALYZE`-style
//! profile.
//!
//! The tree is stored as a flat arena (`Vec<Span>` with parent links) so
//! building a trace costs a handful of small allocations per query — cheap
//! enough for a slow-query log, and paid only when tracing is requested.

use std::fmt;
use std::time::Instant;

/// One node in a recorded span tree.
#[derive(Clone, Debug)]
pub struct Span {
    label: String,
    parent: Option<usize>,
    wall_ns: u64,
    attrs: Vec<(&'static str, u64)>,
    notes: Vec<String>,
}

impl Span {
    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// Inclusive wall time of the span in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs
    }

    /// Value of a named attribute, if recorded.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// A finished span tree.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// All spans in creation order; parents always precede children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// First span whose label contains `needle` (handy in tests).
    pub fn find(&self, needle: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.label.contains(needle))
    }

    /// Render the tree as an indented profile. Times are inclusive.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let depth = self.depth(i);
            let indent = "  ".repeat(depth);
            let us = span.wall_ns as f64 / 1000.0;
            let _ = fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "{}{:<w$} {:>9.1}µs",
                    indent,
                    span.label,
                    us,
                    w = 44usize.saturating_sub(indent.len())
                ),
            );
            let shown: Vec<String> = span
                .attrs
                .iter()
                .filter(|&&(_, v)| v != 0)
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            if !shown.is_empty() {
                out.push_str("  [");
                out.push_str(&shown.join(" "));
                out.push(']');
            }
            out.push('\n');
            for note in &span.notes {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("{}  · {}\n", indent, note));
            }
        }
        out
    }

    fn depth(&self, mut idx: usize) -> usize {
        let mut d = 0;
        while let Some(p) = self.spans[idx].parent {
            d += 1;
            idx = p;
        }
        d
    }
}

/// Handle to an open span inside a [`TraceBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Incrementally records a span tree.
///
/// Spans nest via an explicit stack: [`TraceBuilder::open`] parents the new
/// span under the innermost still-open span, [`TraceBuilder::close`] records
/// its inclusive wall time. Builders are single-threaded by construction
/// (`&mut self` everywhere).
pub struct TraceBuilder {
    spans: Vec<Span>,
    starts: Vec<Option<Instant>>,
    stack: Vec<usize>,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuilder {
    pub fn new() -> Self {
        TraceBuilder {
            spans: Vec::new(),
            starts: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open span (or as a root).
    pub fn open(&mut self, label: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            label: label.into(),
            parent: self.stack.last().copied(),
            wall_ns: 0,
            attrs: Vec::new(),
            notes: Vec::new(),
        });
        self.starts.push(Some(Instant::now()));
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id`, recording its inclusive wall time. Any spans opened after
    /// `id` that are still open are closed too (in stack order).
    pub fn close(&mut self, id: SpanId) {
        while let Some(&top) = self.stack.last() {
            if let Some(start) = self.starts[top].take() {
                self.spans[top].wall_ns = start.elapsed().as_nanos() as u64;
            }
            self.stack.pop();
            if top == id.0 {
                break;
            }
        }
    }

    /// Attach a numeric attribute to a span (open or closed).
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id.0].attrs.push((key, value));
    }

    /// Attach a free-form note to a span (open or closed).
    pub fn note(&mut self, id: SpanId, text: impl Into<String>) {
        self.spans[id.0].notes.push(text.into());
    }

    /// Close any still-open spans and return the finished trace.
    pub fn finish(mut self) -> Trace {
        while let Some(&top) = self.stack.last() {
            if let Some(start) = self.starts[top].take() {
                self.spans[top].wall_ns = start.elapsed().as_nanos() as u64;
            }
            self.stack.pop();
        }
        Trace { spans: self.spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_close() {
        let mut tb = TraceBuilder::new();
        let root = tb.open("root");
        let a = tb.open("child-a");
        tb.attr(a, "entries", 7);
        tb.close(a);
        let b = tb.open("child-b");
        tb.note(b, "fell back");
        tb.close(b);
        tb.close(root);
        let trace = tb.finish();
        assert_eq!(trace.spans().len(), 3);
        assert_eq!(trace.spans()[0].parent(), None);
        assert_eq!(trace.spans()[1].parent(), Some(0));
        assert_eq!(trace.spans()[2].parent(), Some(0));
        assert_eq!(trace.find("child-a").unwrap().attr("entries"), Some(7));
        assert_eq!(trace.find("child-b").unwrap().notes(), ["fell back"]);
    }

    #[test]
    fn close_pops_dangling_children() {
        let mut tb = TraceBuilder::new();
        let root = tb.open("root");
        let _leaky = tb.open("leaky");
        tb.close(root); // closes leaky too
        let next = tb.open("next"); // new root, not a child of leaky
        tb.close(next);
        let trace = tb.finish();
        assert_eq!(trace.find("next").unwrap().parent(), None);
    }

    #[test]
    fn render_contains_labels_and_attrs() {
        let mut tb = TraceBuilder::new();
        let root = tb.open("execute");
        let s = tb.open("segment 0");
        tb.attr(s, "entries", 12);
        tb.attr(s, "skipped", 0); // zero attrs are suppressed
        tb.note(s, "pair path: pair-list walk");
        tb.close(s);
        tb.close(root);
        let text = tb.finish().render();
        assert!(text.contains("execute"));
        assert!(text.contains("segment 0"));
        assert!(text.contains("entries=12"));
        assert!(!text.contains("skipped=0"));
        assert!(text.contains("· pair path: pair-list walk"));
        assert!(text.contains("µs"));
    }
}
