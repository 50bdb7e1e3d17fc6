//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name (`layer.call`), start, end, the enclosing span, and the id of
//! the unit (request) it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A disabled recorder records
//! nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `mpisim.event`.
    pub name: &'static str,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (request) this span belongs to; 0 outside units.
    pub request: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans when enabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off (the traced run alternates units).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.epoch.elapsed();
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (for intervals measured inside a callback).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: self.stack.last().copied(),
            request: self.request,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span with this name.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Self time of each span: its duration minus the part covered by
    /// its direct children.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Self time summed per layer, in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer()).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("bench.unit");
        let inner = rec.open("trace.reduce");
        std::thread::sleep(Duration::from_millis(5));
        rec.close(inner);
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = rec.self_times();
        assert_eq!(own[0], spans[0].duration() - spans[1].duration());
        assert!(rec.self_time_by_layer()["trace"] >= 0.005);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.open("x.y");
        rec.close(s);
        rec.record("x.z", Instant::now(), Instant::now());
        assert!(rec.spans().is_empty());
    }
}
