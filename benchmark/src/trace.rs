//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (no span lives inside any crate yet), kept in memory, and written out
//! once at exit. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// In-memory span and count store for one traced run.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request_id: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
            counts: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing: the untraced runs go through the
    /// same code with this one, and pay one branch per span.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request_id = id;
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id` (and anything left open inside it).
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span and hand back its value.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Add to a named count, recorded at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        *self.counts.entry(name).or_insert(0) += n;
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The trace file: spans of requests `< keep_requests` plus all counts
    /// and per-name self-time totals over everything recorded.
    pub fn to_json(&self, workload: &str, keep_requests: u32) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"counts\":{{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"self_ns\":{");
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = totals.entry(span.name).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        for (i, (k, (ns, n))) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{k}\":{{\"total\":{ns},\"spans\":{n}}}",
                if i > 0 { "," } else { "" }
            );
        }
        out.push_str("},\"spans\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if s.request_id >= keep_requests {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 50..70
            span(10, 40, Some(0)), // child with its own child
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_escaping_children_are_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(90, 150, Some(0)),  // starts before the parent
            span(140, 160, Some(0)), // overlaps its sibling
            span(190, 250, Some(0)), // ends after the parent
        ];
        // Covered: 100..160 and 190..200 → 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_open_order_and_tags_requests() {
        let mut r = Recorder::new();
        r.set_request(7);
        let outer = r.open("outer");
        let v = r.span("inner", || 41 + 1);
        r.close(outer);
        r.count("entries", 3);
        r.count("entries", 4);
        assert_eq!(v, 42);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request_id == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(r.counts()["entries"], 7);
        assert_eq!(r.durations("inner").len(), 1);
        let json = r.to_json("w", 8);
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"entries\":7"));
        assert!(!r.to_json("w", 7).contains("\"name\":\"inner\""));
    }

    #[test]
    fn a_disabled_recorder_runs_the_work_and_keeps_nothing() {
        let mut r = Recorder::disabled();
        let id = r.open("outer");
        assert_eq!(r.span("inner", || 7), 7);
        r.count("entries", 1);
        r.close(id);
        assert!(r.spans().is_empty() && r.counts().is_empty());
    }

    #[test]
    fn closing_an_outer_span_closes_what_is_still_open_inside() {
        let mut r = Recorder::new();
        let outer = r.open("outer");
        let _leaked = r.open("inner");
        r.close(outer);
        let next = r.open("next");
        r.close(next);
        assert_eq!(r.spans()[2].parent, None);
    }
}
