//! Line-oriented text codec for traces.
//!
//! The format is self-describing and diff-friendly:
//!
//! ```text
//! limba-trace v1
//! processors 2
//! region 0 solver loop
//! region 1 halo exchange
//! event 0 0 enter 0
//! event 0.5 0 begin point-to-point
//! event 0.75 0 end point-to-point
//! event 1 0 leave 0
//! ```

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use limba_model::ActivityKind;

use crate::stream::check_message_bytes;
use crate::{Event, EventPayload, MaterializeSink, Trace, TraceError, TraceSink};

const HEADER: &str = "limba-trace v1";

/// `trace` in the text format, for `{}` formatting.
struct Text<'a>(&'a Trace);

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trace = self.0;
        writeln!(f, "{HEADER}")?;
        writeln!(f, "processors {}", trace.processors())?;
        for (i, name) in trace.region_names().iter().enumerate() {
            writeln!(f, "region {i} {name}")?;
        }
        for e in trace.events() {
            match e.payload() {
                EventPayload::EnterRegion { region } => {
                    writeln!(f, "event {} {} enter {region}", e.time, e.proc)?
                }
                EventPayload::LeaveRegion { region } => {
                    writeln!(f, "event {} {} leave {region}", e.time, e.proc)?
                }
                EventPayload::BeginActivity { kind } => {
                    writeln!(f, "event {} {} begin {}", e.time, e.proc, kind.label())?
                }
                EventPayload::EndActivity { kind } => {
                    writeln!(f, "event {} {} end {}", e.time, e.proc, kind.label())?
                }
                EventPayload::MessageSend { peer, bytes } => {
                    writeln!(f, "event {} {} send {peer} {bytes}", e.time, e.proc)?
                }
                EventPayload::MessageRecv { peer, bytes } => {
                    writeln!(f, "event {} {} recv {peer} {bytes}", e.time, e.proc)?
                }
            }
        }
        Ok(())
    }
}

/// Writes `trace` in the text format.
///
/// # Errors
///
/// Propagates I/O failures of `writer`. A `&mut Vec<u8>` works as a writer
/// for in-memory encoding.
pub fn write<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceError> {
    write!(writer, "{}", Text(trace))?;
    Ok(())
}

/// Encodes `trace` to a text `String`.
pub fn to_string(trace: &Trace) -> String {
    Text(trace).to_string()
}

fn malformed(detail: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        detail: detail.into(),
    }
}

/// Reads a trace in the text format.
///
/// # Errors
///
/// Returns [`TraceError::Malformed`] on syntax errors and propagates I/O
/// failures. The decoded trace is *not* validated; call
/// [`Trace::validate`] on untrusted input.
pub fn read<R: Read>(reader: R) -> Result<Trace, TraceError> {
    let mut sink = MaterializeSink::new();
    feed(reader, &mut sink)?;
    sink.into_trace()
        .ok_or_else(|| malformed("text feed ended without finishing"))
}

/// Parses a text trace straight into `sink`, a batch of events at a
/// time, so a fold reads a text tracefile without materializing it.
/// The sink's `begin` runs at the first event line, which is why every
/// `region` line must come before it.
///
/// # Errors
///
/// The conditions of [`read`], a region line after an event line, and
/// whatever `sink` returns.
pub fn feed<R: Read>(reader: R, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| malformed("empty input"))??;
    if header.trim() != HEADER {
        return Err(malformed(format!("bad header {header:?}")));
    }
    let procs_line = lines
        .next()
        .ok_or_else(|| malformed("missing processors line"))??;
    let processors: usize = procs_line
        .strip_prefix("processors ")
        .ok_or_else(|| malformed("expected `processors N`"))?
        .trim()
        .parse()
        .map_err(|e| malformed(format!("bad processor count: {e}")))?;
    crate::stream::check_processors(processors)?;

    let mut region_names: Vec<String> = Vec::new();
    let mut began = false;
    let mut batch: Vec<Event> = Vec::with_capacity(FEED_BATCH);
    for line in lines {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("region ") {
            if began {
                return Err(malformed(format!(
                    "region line {line:?} after the first event"
                )));
            }
            let (idx, name) = rest
                .split_once(' ')
                .ok_or_else(|| malformed(format!("bad region line {line:?}")))?;
            let idx: usize = idx
                .parse()
                .map_err(|e| malformed(format!("bad region index: {e}")))?;
            if idx != region_names.len() {
                return Err(malformed(format!(
                    "region indices must be dense, got {idx}"
                )));
            }
            region_names.push(name.to_string());
        } else if let Some(rest) = line.strip_prefix("event ") {
            if !began {
                sink.begin(processors, &region_names)?;
                began = true;
            }
            batch.push(parse_event(rest)?);
            if batch.len() == FEED_BATCH {
                sink.events(&batch)?;
                batch.clear();
            }
        } else {
            return Err(malformed(format!("unrecognized line {line:?}")));
        }
    }
    if !began {
        sink.begin(processors, &region_names)?;
    }
    if !batch.is_empty() {
        sink.events(&batch)?;
    }
    sink.finish()
}

/// Events per [`TraceSink::events`] call from [`feed`].
const FEED_BATCH: usize = 4096;

fn parse_event(rest: &str) -> Result<Event, TraceError> {
    let mut parts = rest.split_whitespace();
    let time: f64 = parts
        .next()
        .ok_or_else(|| malformed("event missing time"))?
        .parse()
        .map_err(|e| malformed(format!("bad time: {e}")))?;
    if !time.is_finite() {
        return Err(malformed(format!("non-finite event timestamp {time}")));
    }
    let proc: u32 = parts
        .next()
        .ok_or_else(|| malformed("event missing processor"))?
        .parse()
        .map_err(|e| malformed(format!("bad processor: {e}")))?;
    let op = parts.next().ok_or_else(|| malformed("event missing op"))?;
    let payload = match op {
        "enter" | "leave" => {
            let region: usize = parts
                .next()
                .ok_or_else(|| malformed("missing region"))?
                .parse()
                .map_err(|e| malformed(format!("bad region: {e}")))?;
            // No trace declares more than u32::MAX regions.
            let region = u32::try_from(region).map_err(|_| TraceError::UnknownRegion { region })?;
            if op == "enter" {
                EventPayload::EnterRegion { region }
            } else {
                EventPayload::LeaveRegion { region }
            }
        }
        "begin" | "end" => {
            let label = parts.next().ok_or_else(|| malformed("missing activity"))?;
            let kind = ActivityKind::parse_label(label)
                .ok_or_else(|| malformed(format!("unknown activity {label:?}")))?;
            if op == "begin" {
                EventPayload::BeginActivity { kind }
            } else {
                EventPayload::EndActivity { kind }
            }
        }
        "send" | "recv" => {
            let peer: u32 = parts
                .next()
                .ok_or_else(|| malformed("missing peer"))?
                .parse()
                .map_err(|e| malformed(format!("bad peer: {e}")))?;
            let bytes: u64 = parts
                .next()
                .ok_or_else(|| malformed("missing bytes"))?
                .parse()
                .map_err(|e| malformed(format!("bad bytes: {e}")))?;
            check_message_bytes(bytes)?;
            if op == "send" {
                EventPayload::MessageSend { peer, bytes }
            } else {
                EventPayload::MessageRecv { peer, bytes }
            }
        }
        other => return Err(malformed(format!("unknown event op {other:?}"))),
    };
    if parts.next().is_some() {
        return Err(malformed(format!("trailing tokens after event {rest:?}")));
    }
    Ok(Event::new(time, proc, payload))
}

/// Decodes a trace from a string.
///
/// # Errors
///
/// Same conditions as [`read`].
pub fn from_str(s: &str) -> Result<Trace, TraceError> {
    read(s.as_bytes())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::TraceBuilder;
    use limba_model::RegionId;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2);
        let r0 = b.add_region("solver loop");
        let r1 = b.add_region("halo exchange");
        b.push(Event::enter(0.0, 0, r0));
        b.push(Event::begin_activity(0.25, 0, ActivityKind::Collective));
        b.push(Event::end_activity(0.5, 0, ActivityKind::Collective));
        b.push(Event::leave(1.0, 0, r0));
        b.push(Event::enter(0.0, 1, r1));
        b.push(Event::message_send(0.1, 1, 0, 4096));
        b.push(Event::message_recv(0.2, 1, 0, 2048));
        b.push(Event::leave(0.75, 1, r1));
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let s = to_string(&t);
        let back = from_str(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn region_names_with_spaces_survive() {
        let t = sample();
        let back = from_str(&to_string(&t)).unwrap();
        assert_eq!(back.region_names()[0], "solver loop");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = "limba-trace v1\nprocessors 1\nregion 0 r\n\n# comment\nevent 0 0 enter 0\nevent 1 0 leave 0\n";
        let t = from_str(s).unwrap();
        assert_eq!(t.events().len(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong header\n").is_err());
        assert!(from_str("limba-trace v1\nnope\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nregion 5 r\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nevent x 0 enter 0\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nevent 0 0 explode 0\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nevent 0 0 begin warp\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nevent 0 0 enter 0 junk\n").is_err());
        assert!(from_str("limba-trace v1\nprocessors 1\nmystery line\n").is_err());
    }

    #[test]
    fn feed_folds_like_the_materialized_trace() {
        let t = sample();
        let mut fold = crate::SalvageSink::new(limba_model::ActivitySet::standard());
        feed(to_string(&t).as_bytes(), &mut fold).unwrap();
        let folded = fold.into_salvaged().unwrap();
        let batch = crate::reduce_checked(&t).unwrap();
        assert_eq!(folded.reduced.measurements, batch.reduced.measurements);
        assert_eq!(folded.coverage, batch.coverage);
    }

    #[test]
    fn region_lines_must_precede_events() {
        let s = "limba-trace v1\nprocessors 1\nregion 0 r\nevent 0 0 enter 0\nregion 1 late\n";
        let err = from_str(s).unwrap_err().to_string();
        assert!(err.contains("after the first event"), "{err}");
    }

    #[test]
    fn scientific_notation_times_parse() {
        let s = "limba-trace v1\nprocessors 1\nregion 0 r\nevent 1e-3 0 enter 0\nevent 2e-3 0 leave 0\n";
        let t = from_str(s).unwrap();
        assert!((t.events()[0].time - 0.001).abs() < 1e-12);
        let _ = RegionId::new(0);
    }

    #[test]
    fn text_refuses_a_message_of_2_pow_56_bytes() {
        let largest = "limba-trace v1\nprocessors 2\nevent 0 0 send 1 72057594037927935\n";
        let t = from_str(largest).unwrap();
        assert_eq!(
            t.events()[0].payload(),
            EventPayload::MessageSend {
                peer: 1,
                bytes: Event::MAX_MESSAGE_BYTES
            }
        );
        let oversized = largest.replace("72057594037927935", "72057594037927936");
        crate::binary::tests::assert_oversized(from_str(&oversized));
    }
}
