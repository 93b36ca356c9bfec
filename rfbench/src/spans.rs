//! In-memory spans recorded around the benchmark's calls into each
//! layer boundary, and the self-time arithmetic over them.
//!
//! Spans live in a flat vector for the whole traced pass and are
//! written out once, when it ends. Tracing *inside* the program is a
//! later change; it will reuse these span names.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder; `cell` is the matrix cell key shared by every span of one
/// cell (empty for the pass-level root).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: &str) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell: cell.to_string(),
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name, cell);
        let out = f();
        self.exit();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed span at end of trace");
        self.spans
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap
/// (the recorder nests strictly), so the cover is their summed length.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per span name: (calls, total self nanoseconds).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name
}

/// Render the trace file: the spans verbatim plus the per-name
/// self-time roll-up and whatever `header` fields the caller supplies
/// (already-rendered JSON values).
pub fn render_trace(header: &[(&str, String)], spans: &[Span]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in header {
        let _ = writeln!(out, "  \"{k}\": {v},");
    }
    out.push_str("  \"self_time_ns\": {");
    let rollup = self_time_by_name(spans);
    for (i, (name, (calls, ns))) in rollup.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{name}\": {{\"calls\": {calls}, \"self_ns\": {ns}}}"
        );
    }
    out.push_str("\n  },\n  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"cell\": \"{}\"}}",
            s.name, s.start_ns, s.end_ns, s.cell
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            cell: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times always add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span("root", 0, 10, None),
            span("mid", 0, 10, Some(0)),
            span("leaf", 0, 10, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 0, 10]);
    }

    #[test]
    fn recorder_nests_and_rolls_up_by_name() {
        let mut r = Recorder::new();
        r.enter("pass", "");
        for cell in ["c1", "c2"] {
            r.enter("cell", cell);
            r.span("scenario.build", cell, || ());
            r.span("scenario.steady", cell, || ());
            r.exit();
        }
        r.exit();
        let spans = r.finish();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, Some(0));
        assert_eq!(spans[5].cell, "c2");
        let rollup = self_time_by_name(&spans);
        assert_eq!(rollup["cell"].0, 2);
        assert_eq!(rollup["scenario.build"].0, 2);
        let total: u64 = rollup.values().map(|(_, ns)| ns).sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn trace_file_lists_every_span() {
        let spans = vec![span("root", 0, 5, None), span("kid", 1, 2, Some(0))];
        let text = render_trace(&[("workload", "\"w\"".to_string())], &spans);
        assert!(text.contains("\"workload\": \"w\""));
        assert!(text.contains("\"name\": \"kid\", \"start_ns\": 1, \"end_ns\": 2, \"parent\": 0"));
        assert!(text.contains("\"root\": {\"calls\": 1, \"self_ns\": 4}"));
    }
}
