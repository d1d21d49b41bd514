//! In-memory span log for the traced run. Spans are recorded by the
//! benchmark around its own calls into the program (client sends, ACK
//! and DECISION receipts, and every layer call a replay makes) and are
//! written out as JSONL once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Groups the spans of one record (0 for spans outside any record).
    pub trace: u64,
    /// This span's id (never 0).
    pub id: u64,
    /// Layer-qualified name, e.g. `gem.infer`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span store.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: Vec::new(), next_id: 1 }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its length in nanoseconds.
    pub fn record(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) -> f64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { trace, id, name, start_ns, end_ns });
        end.saturating_duration_since(start).as_nanos() as f64
    }

    /// Makes room for `n` more spans, so recording never reallocates
    /// mid-measurement.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Moves in the spans of another log that shares this log's epoch
    /// (e.g. one kept by another thread), renumbering their ids.
    pub fn absorb(&mut self, other: SpanLog) {
        assert_eq!(self.epoch, other.epoch, "span logs must share an epoch");
        let offset = self.next_id - 1;
        for mut s in other.spans {
            s.id += offset;
            self.spans.push(s);
        }
        self.next_id += other.next_id - 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
