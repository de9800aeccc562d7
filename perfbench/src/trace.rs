//! In-memory wall-clock spans around each layer call, their self-time arithmetic and their
//! export as JSON lines and Chrome trace-event JSON.
//!
//! The round loop is generic over [`Tracer`], so its untraced build ([`NoTrace`])
//! compiles every span call away and the end-to-end numbers carry no tracing cost.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// What a span covers: a structural span (one timed round, one transaction, one block) or
/// one call into a layer of the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Round,
    Txn,
    Block,
    Workload,
    Endorse,
    Arrival,
    Formation,
    Commit,
    Ledger,
    Notify,
    Checkpoint,
    Recovery,
}

/// The layer spans, in pipeline order.
pub const LAYERS: [Kind; 9] = [
    Kind::Workload,
    Kind::Endorse,
    Kind::Arrival,
    Kind::Formation,
    Kind::Commit,
    Kind::Ledger,
    Kind::Notify,
    Kind::Checkpoint,
    Kind::Recovery,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Round => "round",
            Kind::Txn => "txn",
            Kind::Block => "block",
            Kind::Workload => "workload",
            Kind::Endorse => "endorse",
            Kind::Arrival => "arrival",
            Kind::Formation => "formation",
            Kind::Commit => "commit",
            Kind::Ledger => "ledger",
            Kind::Notify => "notify",
            Kind::Checkpoint => "checkpoint",
            Kind::Recovery => "recovery",
        }
    }

    pub fn is_layer(self) -> bool {
        LAYERS.contains(&self)
    }
}

/// Index of a span in its recorder; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Block the work belongs to (for a transaction: the block its arrival fills).
    pub block: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink the round loop is generic over.
pub trait Tracer {
    /// Opens a span now and returns its id.
    fn open(&mut self, kind: Kind, parent: SpanId, block: u64) -> SpanId;
    /// Closes span `id` now.
    fn close(&mut self, id: SpanId);
}

/// The untraced sink: every call compiles to nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: Kind, _: SpanId, _: u64) -> SpanId {
        NO_PARENT
    }
    #[inline(always)]
    fn close(&mut self, _: SpanId) {}
}

/// The traced sink: keeps every span in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for Recorder {
    #[inline]
    fn open(&mut self, kind: Kind, parent: SpanId, block: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            block,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }
}

/// Runs `f` inside a span of `kind`.
#[inline(always)]
pub fn span<T: Tracer, R>(
    tracer: &mut T,
    kind: Kind,
    parent: SpanId,
    block: u64,
    f: impl FnOnce() -> R,
) -> R {
    let id = tracer.open(kind, parent, block);
    let out = f();
    tracer.close(id);
    out
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`; overlapping intervals
/// count once. Sorts `intervals` in place.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Writes one JSON object per span: id, name, start, end, parent (null for a root), block.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"block\":{}}}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.block
        )?;
    }
    out.flush()
}

/// Writes the spans as Chrome trace-event JSON (complete `X` events, microsecond times),
/// which Perfetto and `chrome://tracing` load directly.
pub fn write_chrome(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (id, s) in spans.iter().enumerate() {
        let sep = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{},\"block\":{}}}}}{sep}",
            s.kind.name(),
            if s.kind.is_layer() { "layer" } else { "loop" },
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            s.block
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            block: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        // round [0, 100) ─┬─ txn [10, 50) ─┬─ workload [12, 20)
        //                 │                ├─ endorse  [18, 30)   overlaps workload by 2
        //                 │                └─ arrival  [40, 60)   sticks out of its parent
        //                 └─ block [60, 90) ── commit [60, 90)    covers its parent fully
        let spans = vec![
            span(Kind::Round, 0, 100, NO_PARENT),
            span(Kind::Txn, 10, 50, 0),
            span(Kind::Workload, 12, 20, 1),
            span(Kind::Endorse, 18, 30, 1),
            span(Kind::Arrival, 40, 60, 1),
            span(Kind::Block, 60, 90, 0),
            span(Kind::Commit, 60, 90, 5),
        ];
        let own = self_times(&spans);
        // round: 100 - (40 + 30); txn: 40 - (18 covered by [12,30) + 10 of arrival inside it)
        assert_eq!(own, vec![30, 12, 8, 12, 20, 0, 30]);
    }

    #[test]
    fn coverage_merges_nested_and_disjoint_intervals() {
        let mut iv = vec![(5, 10), (0, 3), (6, 8), (9, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 0, 25), 3 + 7 + 5);
        assert_eq!(covered_ns(&mut [], 0, 25), 0);
    }

    #[test]
    fn exports_one_line_per_span_and_balanced_chrome_json() {
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spans = vec![
            span(Kind::Round, 0, 2_000, NO_PARENT),
            span(Kind::Ledger, 500, 1_500, 0),
        ];
        write_jsonl(&dir.join("s.jsonl"), &spans).unwrap();
        write_chrome(&dir.join("t.json"), &spans).unwrap();
        let lines = std::fs::read_to_string(dir.join("s.jsonl")).unwrap();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":null"));
        let chrome = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(chrome.contains("\"name\":\"ledger\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":0.500"));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
        assert!(
            !chrome.contains(",\n]"),
            "no trailing comma before the closing bracket"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
