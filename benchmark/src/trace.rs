//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer — the engine itself carries no instrumentation yet — kept in
//! memory, and written out once when the run ends.

use crate::json::escape;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `core.presort`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one replayed query.
    pub query_id: u64,
}

/// Handle returned by [`Recorder::start`]; `None` when recording is off.
pub type SpanId = Option<usize>;

/// Collects spans; a disabled recorder reads no clock and stores
/// nothing, which is what the untraced twin of a replay runs with.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that stores spans (`enabled`) or ignores them.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span.
    pub fn start(&mut self, name: &'static str, parent: SpanId, query_id: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query_id,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span; returns its duration in milliseconds (`0.0` when
    /// recording is off).
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(i) = id else { return 0.0 };
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover. Children of one parent never overlap (the replay is
    /// single-threaded), so that part is the plain sum.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as a JSON array, one object per span.
    #[must_use]
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let items: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                format!(
                    "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query_id\":{},\"self_ns\":{self_ns}}}",
                    escape(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.query_id,
                )
            })
            .collect();
        format!("[\n{}\n]", items.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(true);
        let root = rec.start("root", None, 7);
        let a = rec.start("a", root, 7);
        rec.end(a);
        let b = rec.start("b", root, 7);
        rec.end(b);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = rec.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));
        assert!(rec.to_json().contains("\"name\":\"root\""));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.start("x", None, 0);
        assert_eq!(rec.end(s), 0.0);
        assert!(rec.spans().is_empty());
    }
}
