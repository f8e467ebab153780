//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around *calls into* the program from the benchmark's
//! own files: one span per batch of calls (never one per 20 ns call), plus
//! synthetic child spans built from the phase timings the distributed engine
//! returns.  Everything stays in memory until the run ends.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Calls into the layer this span covers.
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize, calls: u64) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.calls = calls;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records a closed child of `parent` from a phase duration the program
    /// reported, starting `offset_s` after the parent did and clipped to it.
    pub fn add_phase(&mut self, parent: usize, name: &str, offset_s: f64, seconds: f64) -> usize {
        let (lo, hi) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let start_ns = (lo + (offset_s.max(0.0) * 1e9) as u64).min(hi);
        let end_ns = (start_ns + (seconds.max(0.0) * 1e9) as u64).min(hi);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, self time included.
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}, \"calls\": {}}}{}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                span.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover (children may overlap each other — concurrent workers —
/// so it is the union of their intervals, clipped to the parent, that
/// counts).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".to_string(),
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_the_union_of_its_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),  // sequential child
            span(40, 70, Some(0)),  // overlaps the next one
            span(60, 90, Some(0)),  // concurrent sibling
            span(45, 55, Some(2)),  // grandchild: counts against span 2 only
            span(95, 140, Some(0)), // runs past the parent: clipped to 95..100
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - (20 + 50 + 5), 20, 20, 30, 10, 45]
        );
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let spans = vec![
            span(5, 25, None),
            span(5, 25, Some(0)),
            span(5, 25, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 20, 20]);
    }

    #[test]
    fn recorder_nests_and_clips_reported_phases() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        tracer.end(inner, 7);
        tracer.end(outer, 1);
        let phase = tracer.add_phase(outer, "phase", 0.0, 3600.0);
        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[inner].calls, 7);
        assert_eq!(spans[phase].parent, Some(outer));
        assert_eq!(
            spans[phase].end_ns, spans[outer].end_ns,
            "clipped to the parent"
        );
        assert!(tracer.to_json().contains("\"name\": \"phase\""));
    }
}
