//! Spans for the traced run.
//!
//! A span is one call into a layer, recorded from outside: name, start,
//! end, the span that caused it, and the request id every span of one
//! request shares. Spans stay in memory and are written out once, at the
//! end of the run. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.query`.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

/// An in-memory span recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open, and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        r
    }

    /// Id the next span will get.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    /// Records an already-measured child of span `parent`: `len` long,
    /// starting `offset` after the parent began. Used for the stages a
    /// layer reports about itself (the engine's per-stage counters).
    pub fn child_at(
        &mut self,
        parent: usize,
        name: &'static str,
        request: u64,
        offset: Duration,
        len: Duration,
    ) {
        let start = self.spans[parent].start + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start,
            end: start + len.as_nanos() as u64,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start, s.end
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.clamp(cursor, s.end);
                let b = b.clamp(s.start, s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (calls, total self time in ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children cover 10..50 once, not twice.
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            // A child running past its parent counts only up to 100.
            span("c", Some(0), 90, 120),
            // A grandchild is not subtracted from the root.
            span("d", Some(1), 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 14, 30, 30, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (1, 50));
        assert_eq!(by_name["a"], (1, 14));
    }

    #[test]
    fn children_covering_everything_leave_zero() {
        let spans = vec![
            span("root", None, 0, 10),
            span("a", Some(0), 0, 6),
            span("b", Some(0), 4, 10),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_spans_and_places_reported_children() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::thread::sleep(Duration::from_millis(2)));
        });
        assert_eq!(t.next_id(), 2);
        t.child_at(
            0,
            "stage",
            7,
            Duration::from_micros(10),
            Duration::from_micros(30),
        );
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.request == 7));
        assert_eq!(s[2].start - s[0].start, 10_000);
        assert_eq!(s[2].end - s[2].start, 30_000);
        assert!(s[1].end - s[1].start >= 2_000_000);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
