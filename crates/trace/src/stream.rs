//! Streaming trace dataflow: frame-at-a-time encoding, decoding, and
//! reduction, so no pipeline stage ever holds a whole trace.
//!
//! The materialized pipeline (simulate → [`Trace`] → [`binary`] file →
//! [`reduce`](crate::reduce)) builds each stage's full output before
//! the next starts — the memory wall at 100k+ ranks. This module is the
//! streaming counterpart, built from three pieces:
//!
//! * [`TraceSink`] — the producer/consumer contract: a trace flows
//!   through `begin → events* → finish`, with events delivered in
//!   recording order in arbitrarily sized batches. The simulator's
//!   engines can record straight into any sink instead of a
//!   [`TraceBuilder`].
//! * `StreamEncoder` / [`StreamDecoder`] — the chunked binary
//!   container (format version 3): the same per-event wire records as
//!   the materialized format, framed into self-delimiting chunks so a
//!   writer can emit as rounds retire and a reader can fold from
//!   arbitrarily split byte frames. It is the crate's one decoder: it
//!   also reads materialized version 1–2 files, and
//!   [`binary::from_bytes`] is this decoder feeding a
//!   [`MaterializeSink`] — the two formats are mutually readable.
//! * the folds — [`ScanSink`], [`ReduceSink`], [`WindowSink`],
//!   [`SalvageSink`], [`MaterializeSink`], [`TeeSink`] — sinks that
//!   consume an event stream into a makespan/activity scan, a full or
//!   windowed reduction, a salvaged reduction with per-rank coverage,
//!   or a materialized [`Trace`].
//!
//! # Identity with the materialized path
//!
//! The folds are the materialized path's reductions, not copies of
//! them: [`ReduceSink`], [`WindowSink`], [`SalvageSink`] and
//! [`ParentsSink`](crate::ParentsSink) each step the one fold behind
//! [`reduce`](crate::reduce()), [`reduce_windows`](crate::reduce_windows),
//! [`reduce_checked`](crate::reduce_checked) and
//! [`region_parents`](crate::region_parents) as events arrive, holding
//! one [`SalvageWalker`] (or checker) per rank;
//! the batch entry points replay the trace's rank order into the same
//! fold one rank at a time. Because every matrix cell
//! `(region, activity, processor)` is written by exactly one rank's
//! walker, and each rank's events reach its walker in the same order
//! on both paths, the per-cell floating-point accumulation sequences —
//! and therefore the results — are bit-identical. The differential
//! harness (`tests/stream_equivalence.rs`) locks this empirically
//! across workloads × faults × balance × frame sizes.
//!
//! One prerequisite the materialized path does not have: streaming
//! folds cannot sort, so each rank's events must already be
//! time-ordered in recording order. Every writer in this repository
//! (both simulator engines, the codecs) preserves that; a stream that
//! violates it fails with a named [`TraceError::NonMonotoneTime`]
//! instead of being silently misattributed.
//!
//! # Bounded memory
//!
//! The decoder stages only the bytes of one incomplete record (plus
//! whatever the caller feeds per call); the folds hold O(regions ×
//! activities × processors) of matrix state (per window, for
//! [`WindowSink`]) and O(1) walker state per rank. Nothing grows with
//! the event count.
//!
//! # Hostile input
//!
//! Every byte the decoder reads may be garbage, and it answers garbage
//! with a named [`TraceError`] — never a panic, a hang, or an
//! allocation the input has not paid for:
//!
//! * a header's processor count is capped at 2²², its region count at
//!   2²⁰, and each region name at 1 MiB — fixed caps, because a stream
//!   has no "bytes remaining" to bound them against;
//! * a materialized (v1–2) header's event count only ever reaches the
//!   sink as a [`TraceSink::reserve`] hint capped at what the bytes in
//!   hand can hold (one event record is at least 14 bytes); a body
//!   shorter than its declared count fails at
//!   [`finish`](StreamDecoder::finish) with an error naming the count;
//! * records naming a processor or region the header never declared
//!   fail as [`TraceError::UnknownProcessor`] /
//!   [`TraceError::UnknownRegion`], non-finite timestamps, unknown op
//!   codes or activity indices and message sizes over
//!   [`Event::MAX_MESSAGE_BYTES`] as [`TraceError::Malformed`];
//! * the content checksum (v2 trailer, v3 end chunk) is verified as the
//!   stream ends; [`binary::from_bytes`], holding the whole buffer,
//!   verifies a v2 checksum before decoding at all.
//!
//! [`binary`]: crate::binary
//! [`binary::from_bytes`]: crate::binary::from_bytes

use bytes::{BufMut, Bytes, BytesMut};

use limba_model::{ActivityKind, ActivitySet, STANDARD_ACTIVITIES};

use limba_par::Fnv;

use crate::event::{check_event_count, unknown_region};
use crate::reduce::{note_activity, window_width, Checked, Fold, ReducedTrace, WindowFold};
use crate::salvage::{AttributionTap, SalvageFold, SalvagedTrace};
use crate::{Event, EventPayload, SalvageWalker, Trace, TraceBuilder, TraceError};

/// Format version of the chunked streaming container.
pub(crate) const STREAM_VERSION: u16 = 3;

/// File magic shared by every container version.
pub(crate) const MAGIC: &[u8; 8] = b"LIMBATRC";
/// Chunk tag: a batch of events (`u32` count, then that many records).
const CHUNK_EVENTS: u8 = 0;
/// Chunk tag: end of stream (`u64` total events, `u64` FNV-1a checksum
/// of every preceding byte).
const CHUNK_END: u8 = 1;
/// Largest region count a streamed header may declare. The
/// materialized decoder bounds counts against the bytes remaining in
/// the buffer; a stream has no "remaining", so a fixed cap stands in.
const MAX_REGIONS: usize = 1 << 20;
/// Largest single region-name length (bytes) a streamed header may
/// declare — bounds the decoder's staging buffer.
const MAX_REGION_NAME: usize = 1 << 20;
/// Decoded events are handed to the sink in batches of at most this
/// many, bounding the decoder's pending-event buffer.
const DECODE_BATCH: usize = 4096;
/// Largest processor count a header may declare (4Mi — 40× headroom
/// over the 100k-rank simulation target). The count is a bare scalar
/// with no per-entry bytes behind it, yet downstream consumers size
/// per-processor tables from it ([`Trace::rank_order`],
/// salvage, the folds), which a hostile 4-byte header could otherwise
/// turn into a multi-GB allocation.
pub(crate) const MAX_PROCESSORS: usize = 1 << 22;
/// Smallest possible encoding of one event record (begin/end
/// activity): what bounds a materialized header's event-count hint.
pub(crate) const MIN_EVENT_BYTES: usize = 8 + 4 + 1 + 1;

fn malformed(detail: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        detail: detail.into(),
    }
}

/// Rejects processor counts over [`MAX_PROCESSORS`] — the one check
/// every consumer that sizes per-processor state from a header runs.
pub(crate) fn check_processors(processors: usize) -> Result<(), TraceError> {
    if processors > MAX_PROCESSORS {
        return Err(malformed(format!(
            "processor count {processors} exceeds the supported maximum {MAX_PROCESSORS}"
        )));
    }
    Ok(())
}

/// Appends the wire encoding of one event to `buf` — the record layout
/// shared by the materialized format (versions 1–2,
/// [`binary`](crate::binary)) and the streamed chunk format (version 3).
pub(crate) fn put_event(buf: &mut BytesMut, e: &Event) {
    buf.put_f64_le(e.time);
    buf.put_u32_le(e.proc);
    match e.payload() {
        EventPayload::EnterRegion { region } => {
            buf.put_u8(0);
            buf.put_u32_le(region);
        }
        EventPayload::LeaveRegion { region } => {
            buf.put_u8(1);
            buf.put_u32_le(region);
        }
        EventPayload::BeginActivity { kind } => {
            buf.put_u8(2);
            buf.put_u8(kind.index() as u8);
        }
        EventPayload::EndActivity { kind } => {
            buf.put_u8(3);
            buf.put_u8(kind.index() as u8);
        }
        EventPayload::MessageSend { peer, bytes } => {
            buf.put_u8(4);
            buf.put_u32_le(peer);
            buf.put_u64_le(bytes);
        }
        EventPayload::MessageRecv { peer, bytes } => {
            buf.put_u8(5);
            buf.put_u32_le(peer);
            buf.put_u64_le(bytes);
        }
    }
}

/// The `N` bytes of `buf` starting at `at` — a fixed-width
/// little-endian field — or `None` when `buf` ends first.
fn field<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    buf.get(at..)?.first_chunk().copied()
}

/// Decodes one event record from the front of `buf` if a complete one
/// is present: `Ok(Some((event, consumed)))` on success, `Ok(None)`
/// when more bytes are needed (an incomplete record is not an error for
/// a stream — the rest may still arrive), and a named error for
/// structurally impossible bytes (unknown op code, bad activity index,
/// a message size over [`Event::MAX_MESSAGE_BYTES`]), which no amount
/// of further input can repair.
pub(crate) fn try_event(buf: &[u8]) -> Result<Option<(Event, usize)>, TraceError> {
    let (Some(time), Some(proc), Some(&op)) = (field(buf, 0), field(buf, 8), buf.get(12)) else {
        return Ok(None);
    };
    let time = f64::from_le_bytes(time);
    if !time.is_finite() {
        // No writer emits non-finite timestamps; downstream folds (the
        // online detector's window binning in particular) rely on this.
        return Err(malformed(format!("non-finite event timestamp {time}")));
    }
    let proc = u32::from_le_bytes(proc);
    let (payload, operand_len) = match op {
        0 | 1 => {
            let Some(region) = field(buf, 13) else {
                return Ok(None);
            };
            let region = u32::from_le_bytes(region);
            let payload = if op == 0 {
                EventPayload::EnterRegion { region }
            } else {
                EventPayload::LeaveRegion { region }
            };
            (payload, 4)
        }
        2 | 3 => {
            let Some(&idx) = buf.get(13) else {
                return Ok(None);
            };
            let idx = idx as usize;
            let kind = ActivityKind::from_index(idx)
                .ok_or_else(|| malformed(format!("bad activity index {idx}")))?;
            let payload = if op == 2 {
                EventPayload::BeginActivity { kind }
            } else {
                EventPayload::EndActivity { kind }
            };
            (payload, 1)
        }
        4 | 5 => {
            let (Some(peer), Some(bytes)) = (field(buf, 13), field(buf, 17)) else {
                return Ok(None);
            };
            let (peer, bytes) = (u32::from_le_bytes(peer), u64::from_le_bytes(bytes));
            check_message_bytes(bytes)?;
            let payload = if op == 4 {
                EventPayload::MessageSend { peer, bytes }
            } else {
                EventPayload::MessageRecv { peer, bytes }
            };
            (payload, 12)
        }
        other => return Err(malformed(format!("unknown op code {other}"))),
    };
    Ok(Some((Event::new(time, proc, payload), 13 + operand_len)))
}

/// Refuses a message size no [`Event`] holds: over
/// [`Event::MAX_MESSAGE_BYTES`]. No writer emits one.
pub(crate) fn check_message_bytes(bytes: u64) -> Result<(), TraceError> {
    if bytes > Event::MAX_MESSAGE_BYTES {
        return Err(malformed(format!(
            "message size {bytes} exceeds the maximum {}",
            Event::MAX_MESSAGE_BYTES
        )));
    }
    Ok(())
}

/// The producer/consumer contract of the streaming pipeline: a trace
/// flows through exactly one [`begin`](TraceSink::begin), any number of
/// [`events`](TraceSink::events) batches (events in recording order;
/// batch boundaries carry no meaning), and one
/// [`finish`](TraceSink::finish).
///
/// Both ends of the pipeline speak it: the simulator's engines record
/// into a sink as rounds retire, and [`StreamDecoder`] replays a byte
/// stream into one. An error returned from any method propagates to
/// the producer, which aborts — this is how consumer cancellation
/// reaches a running simulation.
pub trait TraceSink {
    /// Starts a trace: processor count and the region name table.
    ///
    /// # Errors
    ///
    /// Implementations reject streams they cannot accept (e.g. a
    /// processor count over the supported maximum).
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError>;

    /// Delivers the next batch of events, in recording order.
    ///
    /// # Errors
    ///
    /// Implementations fail on malformed events or when their consumer
    /// is gone; the producer must stop feeding after an error.
    fn events(&mut self, events: &[Event]) -> Result<(), TraceError>;

    /// A size hint between [`begin`](TraceSink::begin) and the first
    /// [`events`](TraceSink::events): about `events` more events are
    /// coming. Advisory only — the decoder passes a materialized
    /// header's event count, capped at what the bytes in hand can hold,
    /// so a sink may pre-allocate from it. The default ignores it.
    fn reserve(&mut self, events: usize) {
        let _ = events;
    }

    /// Ends the trace: no more events will arrive.
    ///
    /// # Errors
    ///
    /// Implementations surface finalization failures (e.g. a reduction
    /// over a stream that declared no regions).
    fn finish(&mut self) -> Result<(), TraceError>;
}

/// A [`TraceSink`] that materializes the stream into an ordinary
/// [`Trace`] — the bridge back to the batch pipeline, and the witness
/// that a streamed trace carries exactly the information a materialized
/// one does.
#[derive(Debug, Default)]
pub struct MaterializeSink {
    builder: Option<TraceBuilder>,
    trace: Option<Trace>,
}

impl MaterializeSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized trace, once [`TraceSink::finish`] has run.
    pub fn into_trace(self) -> Option<Trace> {
        self.trace
    }
}

impl TraceSink for MaterializeSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        let mut builder = TraceBuilder::new(processors);
        for name in region_names {
            builder.add_region(name.clone());
        }
        self.builder = Some(builder);
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let builder = self
            .builder
            .as_mut()
            .ok_or_else(|| malformed("events before begin"))?;
        check_event_count(builder.event_count(), events.len())?;
        builder.extend_events(events);
        Ok(())
    }

    fn reserve(&mut self, events: usize) {
        if let Some(builder) = self.builder.as_mut() {
            builder.reserve_events(events);
        }
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let builder = self
            .builder
            .take()
            .ok_or_else(|| malformed("finish before begin"))?;
        self.trace = Some(builder.build()?);
        Ok(())
    }
}

/// A borrowed sink is a sink: the stream reaches the sink behind it.
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        (**self).begin(processors, region_names)
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        (**self).events(events)
    }

    fn reserve(&mut self, events: usize) {
        (**self).reserve(events);
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        (**self).finish()
    }
}

/// Forwards one stream to two sinks — e.g. a full reduction and a
/// windowed one folding the same frames in a single pass. A tee of two
/// `Send` sinks is `Send`, so it can fold on another thread.
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Tees the stream into `first` then `second` (per call, in order).
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.first.begin(processors, region_names)?;
        self.second.begin(processors, region_names)
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.first.events(events)?;
        self.second.events(events)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.first.finish()?;
        self.second.finish()
    }
}

/// A [`TraceSink`] that encodes the stream into the chunked version-3
/// container and writes each frame straight to any [`io::Write`] — the
/// streaming counterpart of [`binary::to_bytes`]: the trace flows to a
/// file, pipe, or socket as it is produced and is never materialized.
///
/// Dropping the sink without [`finish`](TraceSink::finish) leaves a
/// truncated (salvage-grade) stream behind, exactly like a producer
/// that died mid-write; `finish` seals the stream with the end chunk
/// and flushes the writer.
///
/// [`io::Write`]: std::io::Write
/// [`binary::to_bytes`]: crate::binary::to_bytes
#[derive(Debug)]
pub struct WriteSink<W: std::io::Write> {
    writer: W,
    encoder: StreamEncoder,
    started: bool,
}

impl<W: std::io::Write> WriteSink<W> {
    /// Wraps a writer; frames are written as the stream arrives.
    pub fn new(writer: W) -> Self {
        WriteSink {
            writer,
            encoder: StreamEncoder::new(),
            started: false,
        }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> TraceSink for WriteSink<W> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        if self.started {
            return Err(malformed("begin after begin"));
        }
        self.started = true;
        let header = self.encoder.header(processors, region_names)?;
        self.writer.write_all(&header)?;
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        if !self.started {
            return Err(malformed("events before begin"));
        }
        let frame = self.encoder.frame(events);
        self.writer.write_all(&frame)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if !self.started {
            return Err(malformed("finish before begin"));
        }
        let end = self.encoder.finish();
        self.writer.write_all(&end)?;
        self.writer.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Encodes a trace stream into the chunked version-3 container, one
/// self-delimiting byte frame per call:
/// [`header`](StreamEncoder::header), then any number of
/// [`frame`](StreamEncoder::frame)s, then
/// [`finish`](StreamEncoder::finish) (which seals the stream with the
/// running event total and FNV-1a checksum). Concatenating the returned
/// frames yields a valid file that [`binary::from_bytes`] and
/// [`StreamDecoder`] both read.
///
/// ```text
/// magic    8 bytes  "LIMBATRC"
/// version  u16      3
/// procs    u32
/// nregions u32
/// regions  nregions × (u32 length, utf-8 bytes)
/// chunks   × (u8 tag 0, u32 count, count × event records)
/// end      u8 tag 1, u64 total events, u64 FNV-1a of all prior bytes
/// ```
///
/// [`binary::from_bytes`]: crate::binary::from_bytes
#[derive(Debug)]
pub(crate) struct StreamEncoder {
    hash: Fnv,
    events: u64,
}

impl StreamEncoder {
    /// Creates an encoder for one stream.
    pub(crate) fn new() -> Self {
        StreamEncoder {
            hash: Fnv::new(),
            events: 0,
        }
    }

    /// Encodes the stream header.
    ///
    /// # Errors
    ///
    /// Rejects processor counts over the supported maximum and region
    /// tables the streamed format cannot represent.
    pub(crate) fn header(
        &mut self,
        processors: usize,
        region_names: &[String],
    ) -> Result<Bytes, TraceError> {
        check_processors(processors)?;
        if region_names.len() > MAX_REGIONS {
            return Err(malformed(format!(
                "region count {} exceeds the streamed maximum {MAX_REGIONS}",
                region_names.len()
            )));
        }
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(MAGIC);
        buf.put_u16_le(STREAM_VERSION);
        buf.put_u32_le(processors as u32);
        buf.put_u32_le(region_names.len() as u32);
        for name in region_names {
            if name.len() > MAX_REGION_NAME {
                return Err(malformed(format!(
                    "region name of {} bytes exceeds the streamed maximum {MAX_REGION_NAME}",
                    name.len()
                )));
            }
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
        }
        self.hash.update(buf.as_ref());
        Ok(buf.freeze())
    }

    /// Encodes one batch of events as an event chunk. An empty batch
    /// encodes to an empty frame (nothing need be sent).
    pub(crate) fn frame(&mut self, events: &[Event]) -> Bytes {
        if events.is_empty() {
            return Bytes::from(Vec::new());
        }
        let mut buf = BytesMut::with_capacity(5 + events.len() * 25);
        // A u32 count caps one chunk at 4Gi events; longer batches
        // split into consecutive chunks, which decode identically.
        for chunk in events.chunks(u32::MAX as usize) {
            buf.put_u8(CHUNK_EVENTS);
            buf.put_u32_le(chunk.len() as u32);
            for e in chunk {
                put_event(&mut buf, e);
            }
            self.events += chunk.len() as u64;
        }
        self.hash.update(buf.as_ref());
        buf.freeze()
    }

    /// Seals the stream: the end chunk with the running event total and
    /// content checksum.
    pub(crate) fn finish(&mut self) -> Bytes {
        let mut buf = BytesMut::with_capacity(17);
        buf.put_u8(CHUNK_END);
        buf.put_u64_le(self.events);
        self.hash.update(buf.as_ref());
        buf.put_u64_le(self.hash.digest());
        buf.freeze()
    }
}

impl Default for StreamEncoder {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum DecodeState {
    /// Fixed 18-byte prelude: magic, version, processors, region count.
    Prelude,
    /// Region table entries still expected.
    Regions { left: usize },
    /// Materialized formats (v1–2): the u64 event count.
    EventCount,
    /// Materialized formats: events until the declared count is met.
    Events,
    /// Version 2 only: the trailing 8-byte checksum.
    Checksum,
    /// Streamed format (v3): the next chunk tag.
    ChunkTag,
    /// Streamed format: an event chunk's u32 count.
    BatchCount,
    /// Streamed format: events of the current chunk.
    Batch { left: u32 },
    /// Streamed format: the end chunk's total + checksum.
    Trailer,
    /// Stream fully consumed and verified.
    Done,
}

impl DecodeState {
    /// What the decoder was waiting for — names truncation errors.
    fn expecting(self) -> &'static str {
        match self {
            DecodeState::Prelude => "stream header",
            DecodeState::Regions { .. } => "region table",
            DecodeState::EventCount => "event count",
            DecodeState::Events => "events",
            DecodeState::Checksum => "content checksum",
            DecodeState::ChunkTag => "chunk tag",
            DecodeState::BatchCount => "event chunk count",
            DecodeState::Batch { .. } => "event chunk",
            DecodeState::Trailer => "end chunk",
            DecodeState::Done => "nothing",
        }
    }
}

/// Incremental push-based trace decoder: feed it byte chunks split at
/// *any* boundary — frame-aligned, mid-record, even one byte at a time
/// — and it replays the trace into a [`TraceSink`], verifying structure
/// and content checksum as it goes. Reads the streamed version-3
/// container and materialized version 1–2 files alike.
///
/// Memory: the decoder stages only the bytes of one incomplete item
/// (record, region name, or header field) between calls, plus a
/// bounded pending-event batch — never the whole trace.
///
/// A truncated stream surfaces as a named [`TraceError::Malformed`]
/// from [`StreamDecoder::finish`] saying what was being read; corrupted
/// bytes surface from [`StreamDecoder::feed`] as the earliest of a
/// structural error or a [`TraceError::ChecksumMismatch`]. (The
/// materialized decoder, holding the whole file, verifies the checksum
/// *before* structure; a stream cannot, so mid-stream corruption may
/// report structurally here. Valid input decodes identically on both.)
pub struct StreamDecoder {
    state: DecodeState,
    version: u16,
    processors: usize,
    region_names: Vec<String>,
    /// Declared region count, kept after `region_names` is handed to
    /// the sink: record validation needs it for the whole stream.
    nregions: usize,
    /// Declared event count (materialized formats only).
    expect_events: u64,
    /// Events decoded so far.
    seen_events: u64,
    hash: Fnv,
    /// The unconsumed bytes of one incomplete item, kept between calls.
    buf: Vec<u8>,
    /// Cursor into the input being parsed by the current `feed`.
    pos: usize,
    /// Decoded events awaiting delivery to the sink.
    pending: Vec<Event>,
    /// Set once any error has been returned; the decoder is poisoned.
    failed: bool,
    /// Total bytes consumed from the input so far.
    consumed: u64,
    /// `consumed` as of the last *sealed* boundary (see
    /// [`StreamDecoder::sealed`]).
    sealed_at: u64,
}

impl StreamDecoder {
    /// Creates a decoder for one stream.
    pub fn new() -> Self {
        StreamDecoder {
            state: DecodeState::Prelude,
            version: 0,
            processors: 0,
            region_names: Vec::new(),
            nregions: 0,
            expect_events: 0,
            seen_events: 0,
            hash: Fnv::new(),
            buf: Vec::new(),
            pos: 0,
            pending: Vec::new(),
            failed: false,
            consumed: 0,
            sealed_at: 0,
        }
    }

    /// `true` once the stream has been fully consumed and verified.
    pub fn is_done(&self) -> bool {
        self.state == DecodeState::Done
    }

    /// Total input bytes the decoder has consumed.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The byte offset of the last **sealed** boundary: the end of the
    /// header or of a fully-consumed chunk (v3), the end of an event
    /// record (materialized v1–2), or the end of a verified stream.
    /// A file truncated at this offset decodes without error and a
    /// resumed producer may append from exactly here — it is where the
    /// startup recovery scrub cuts a torn spool tail back to.
    pub(crate) fn sealed(&self) -> u64 {
        self.sealed_at
    }

    /// Marks the current consumed offset as a sealed boundary.
    fn seal(&mut self) {
        self.sealed_at = self.consumed;
    }

    /// Rejects records referencing processors or regions the header
    /// never declared. The downstream folds refuse such records, so
    /// the decoder must too — otherwise a torn spool tail whose
    /// garbage bytes happen to parse as records could seal a resume
    /// boundary the replay would later fail on.
    fn check_event(&self, event: &Event) -> Result<(), TraceError> {
        if event.proc as usize >= self.processors {
            return Err(TraceError::UnknownProcessor { proc: event.proc });
        }
        match unknown_region(event, self.nregions) {
            Some(region) => Err(TraceError::UnknownRegion { region }),
            None => Ok(()),
        }
    }

    /// Consumes one chunk of input, delivering any completed events to
    /// `sink`. Chunks may be split at any byte boundary.
    ///
    /// # Errors
    ///
    /// Named [`TraceError`]s for structural damage, count caps, bytes
    /// after the end of the stream, and checksum mismatches — plus
    /// whatever `sink` returns. After an error the decoder is poisoned
    /// and every further call fails.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if self.failed {
            return Err(malformed("stream decoder poisoned by an earlier error"));
        }
        let result = self.feed_inner(chunk, sink);
        if result.is_err() {
            self.failed = true;
        }
        result
    }

    /// Ends the input: verifies the stream was complete and forwards
    /// [`TraceSink::finish`].
    ///
    /// # Errors
    ///
    /// A named truncation error when the stream ended mid-structure
    /// (saying what was being read), plus the conditions of
    /// [`StreamDecoder::feed`].
    pub fn finish(&mut self, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if self.failed {
            return Err(malformed("stream decoder poisoned by an earlier error"));
        }
        if self.state != DecodeState::Done {
            self.failed = true;
            let mut detail = format!("stream truncated while reading {}", self.state.expecting());
            if self.state == DecodeState::Events {
                detail += &format!(
                    ": header declares event count {}, {} read",
                    self.expect_events, self.seen_events
                );
            }
            return Err(malformed(detail));
        }
        sink.finish()
    }

    fn feed_inner(&mut self, chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if self.state == DecodeState::Done {
            if chunk.is_empty() {
                return Ok(());
            }
            return Err(malformed(format!(
                "{} bytes after end of stream",
                chunk.len()
            )));
        }
        // Parse straight from the caller's chunk when nothing is staged
        // (a whole buffer decodes without a copy); otherwise complete the
        // staged item first. Either way only the bytes of one incomplete
        // item are kept between calls.
        let mut staged = std::mem::take(&mut self.buf);
        let from_staged = !staged.is_empty();
        if from_staged {
            staged.extend_from_slice(chunk);
        }
        let input = if from_staged { &staged[..] } else { chunk };
        self.pos = 0;
        loop {
            let made_progress = self.step(input, sink)?;
            if self.pending.len() >= DECODE_BATCH {
                self.flush_pending(sink)?;
            }
            if !made_progress {
                break;
            }
        }
        self.flush_pending(sink)?;
        let pos = std::mem::take(&mut self.pos);
        if self.state == DecodeState::Done && pos < input.len() {
            return Err(malformed(format!(
                "{} bytes after end of stream",
                input.len() - pos
            )));
        }
        if from_staged {
            staged.drain(..pos);
        } else {
            staged.extend_from_slice(&chunk[pos..]);
        }
        self.buf = staged;
        Ok(())
    }

    fn flush_pending(&mut self, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if !self.pending.is_empty() {
            sink.events(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Consumes `n` bytes of `input` at the cursor (caller has checked
    /// availability), folding them into the running checksum unless
    /// `hashed` is false (the checksum field itself is excluded from its
    /// own hash).
    fn consume(&mut self, input: &[u8], n: usize, hashed: bool) {
        if hashed {
            self.hash.update(&input[self.pos..self.pos + n]);
        }
        self.pos += n;
        self.consumed += n as u64;
    }

    /// Attempts one parsing step on `input` at the cursor; `Ok(false)`
    /// means more input is needed before anything further can be
    /// consumed.
    fn step(&mut self, input: &[u8], sink: &mut dyn TraceSink) -> Result<bool, TraceError> {
        match self.state {
            DecodeState::Prelude => {
                let a = &input[self.pos..];
                let (Some(version), Some(processors), Some(nregions)) =
                    (field(a, 8), field(a, 10), field(a, 14))
                else {
                    return Ok(false);
                };
                if !a.starts_with(MAGIC) {
                    return Err(malformed("bad magic"));
                }
                let version = u16::from_le_bytes(version);
                if !(1..=STREAM_VERSION).contains(&version) {
                    return Err(malformed(format!(
                        "unsupported version {version} (this build reads 1..={STREAM_VERSION})"
                    )));
                }
                let processors = u32::from_le_bytes(processors) as usize;
                check_processors(processors)?;
                let nregions = u32::from_le_bytes(nregions) as usize;
                if nregions > MAX_REGIONS {
                    return Err(malformed(format!(
                        "region count {nregions} exceeds the streamed maximum {MAX_REGIONS}"
                    )));
                }
                self.version = version;
                self.processors = processors;
                self.region_names.reserve(nregions.min(1024));
                self.consume(input, 18, true);
                self.advance_regions(nregions, sink)?;
                Ok(true)
            }
            DecodeState::Regions { left } => {
                let a = &input[self.pos..];
                let Some(len) = field(a, 0) else {
                    return Ok(false);
                };
                let len = u32::from_le_bytes(len) as usize;
                if len > MAX_REGION_NAME {
                    return Err(malformed(format!(
                        "region name of {len} bytes exceeds the streamed maximum \
                         {MAX_REGION_NAME}"
                    )));
                }
                if a.len() < 4 + len {
                    return Ok(false);
                }
                let name = String::from_utf8(a[4..4 + len].to_vec())
                    .map_err(|e| malformed(format!("region name not utf-8: {e}")))?;
                self.region_names.push(name);
                self.consume(input, 4 + len, true);
                self.advance_regions(left - 1, sink)?;
                Ok(true)
            }
            DecodeState::EventCount => {
                let Some(count) = field(input, self.pos) else {
                    return Ok(false);
                };
                self.expect_events = u64::from_le_bytes(count);
                self.consume(input, 8, true);
                // Pre-size the sink, but never past what the bytes in
                // hand can hold: a hostile count allocates nothing.
                let hint = self
                    .expect_events
                    .min(((input.len() - self.pos) / MIN_EVENT_BYTES) as u64);
                if hint > 0 {
                    sink.reserve(hint as usize);
                }
                self.state = if self.expect_events == 0 {
                    self.after_events()
                } else {
                    DecodeState::Events
                };
                self.seal();
                Ok(true)
            }
            DecodeState::Events => {
                let Some((event, len)) = try_event(&input[self.pos..])? else {
                    return Ok(false);
                };
                self.check_event(&event)?;
                self.pending.push(event);
                self.seen_events += 1;
                self.consume(input, len, true);
                if self.seen_events == self.expect_events {
                    self.state = self.after_events();
                }
                // Materialized formats have no chunk framing; every
                // record boundary is a valid resume point.
                self.seal();
                Ok(true)
            }
            DecodeState::Checksum => {
                let Some(expected) = field(input, self.pos) else {
                    return Ok(false);
                };
                let expected = u64::from_le_bytes(expected);
                let actual = self.hash.digest();
                if expected != actual {
                    return Err(TraceError::ChecksumMismatch { expected, actual });
                }
                self.consume(input, 8, false);
                self.state = DecodeState::Done;
                self.seal();
                Ok(true)
            }
            DecodeState::ChunkTag => {
                let a = &input[self.pos..];
                let Some(&tag) = a.first() else {
                    return Ok(false);
                };
                match tag {
                    CHUNK_EVENTS => {
                        self.consume(input, 1, true);
                        self.state = DecodeState::BatchCount;
                    }
                    CHUNK_END => {
                        self.consume(input, 1, true);
                        self.state = DecodeState::Trailer;
                    }
                    other => return Err(malformed(format!("unknown chunk tag {other}"))),
                }
                Ok(true)
            }
            DecodeState::BatchCount => {
                let Some(count) = field(input, self.pos) else {
                    return Ok(false);
                };
                let count = u32::from_le_bytes(count);
                self.consume(input, 4, true);
                self.state = if count == 0 {
                    DecodeState::ChunkTag
                } else {
                    DecodeState::Batch { left: count }
                };
                if count == 0 {
                    self.seal();
                }
                Ok(true)
            }
            DecodeState::Batch { left } => {
                let Some((event, len)) = try_event(&input[self.pos..])? else {
                    return Ok(false);
                };
                self.check_event(&event)?;
                self.pending.push(event);
                self.seen_events += 1;
                self.consume(input, len, true);
                self.state = if left == 1 {
                    DecodeState::ChunkTag
                } else {
                    DecodeState::Batch { left: left - 1 }
                };
                if left == 1 {
                    // The chunk's last record: a sealed v3 boundary.
                    self.seal();
                }
                Ok(true)
            }
            DecodeState::Trailer => {
                let (Some(total), Some(expected)) =
                    (field(input, self.pos), field(input, self.pos + 8))
                else {
                    return Ok(false);
                };
                let total = u64::from_le_bytes(total);
                if total != self.seen_events {
                    return Err(malformed(format!(
                        "end chunk declares {total} events, stream carried {}",
                        self.seen_events
                    )));
                }
                let expected = u64::from_le_bytes(expected);
                self.consume(input, 8, true); // the total precedes the checksum, so it is hashed
                let actual = self.hash.digest();
                if expected != actual {
                    return Err(TraceError::ChecksumMismatch { expected, actual });
                }
                self.consume(input, 8, false);
                self.state = DecodeState::Done;
                self.seal();
                Ok(true)
            }
            DecodeState::Done => Ok(false),
        }
    }

    /// Region table complete → announce the stream to the sink and move
    /// to the version's body state.
    fn advance_regions(&mut self, left: usize, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if left > 0 {
            self.state = DecodeState::Regions { left };
            return Ok(());
        }
        sink.begin(self.processors, &self.region_names)?;
        self.nregions = self.region_names.len();
        self.region_names = Vec::new();
        self.state = if self.version >= STREAM_VERSION {
            DecodeState::ChunkTag
        } else {
            DecodeState::EventCount
        };
        // The header (prelude + region table) is complete: the first
        // sealed boundary.
        self.seal();
        Ok(())
    }

    /// Where a materialized format goes once all declared events are
    /// read: version 2 verifies its trailing checksum, version 1 ends.
    fn after_events(&self) -> DecodeState {
        if self.version >= 2 {
            DecodeState::Checksum
        } else {
            DecodeState::Done
        }
    }
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Decodes a complete in-memory byte buffer through the streaming
/// decoder into `sink` — one `feed` of everything, then `finish`.
///
/// # Errors
///
/// The union of [`StreamDecoder::feed`] and [`StreamDecoder::finish`].
pub fn decode_all(data: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut decoder = StreamDecoder::new();
    decoder.feed(data, sink)?;
    decoder.finish(sink)
}

/// Encodes a materialized trace into the streamed container (one event
/// chunk per `frame_events` events) — the round trip partner of
/// [`decode_all`] and the reference writer for format tests.
///
/// # Errors
///
/// Rejects processor counts over the supported maximum and region
/// tables the streamed format cannot represent.
pub fn to_stream_bytes(trace: &Trace, frame_events: usize) -> Result<Bytes, TraceError> {
    let mut enc = StreamEncoder::new();
    let mut out = BytesMut::with_capacity(64 + trace.events().len() * 25);
    out.put_slice(&enc.header(trace.processors(), trace.region_names())?);
    for batch in trace.events().chunks(frame_events.max(1)) {
        out.put_slice(&enc.frame(batch));
    }
    out.put_slice(&enc.finish());
    Ok(out.freeze())
}

// ---------------------------------------------------------------------
// Folds
// ---------------------------------------------------------------------

/// What one O(1)-memory pass over a stream learns: its makespan, its
/// activity set, and its event, processor and region totals.
///
/// Produced by [`ScanSink`]. Of the folds, only [`WindowSink`] needs a
/// scan before it can be built, because its window width comes from
/// the makespan; a windowed run therefore scans first, and the
/// deterministic simulator (or a stored stream) replays the identical
/// events for the second pass. The full-run folds grow their activity
/// columns as they go, so elsewhere the scan simply rides along in a
/// [`TeeSink`] with them.
#[derive(Debug, Clone)]
pub struct StreamScan {
    /// Largest event timestamp — identical to the materialized
    /// makespan fold in [`reduce_windows`](crate::reduce_windows).
    pub makespan: f64,
    /// The paper's standard four activities plus extras in
    /// first-appearance order — identical to the materialized scan and
    /// to the columns a standard-seeded [`SalvageSink`] grows.
    pub activities: ActivitySet,
    /// Total events seen.
    pub events: u64,
    /// Processor count the stream declared.
    pub processors: usize,
    /// Region names the stream declared.
    pub region_names: Vec<String>,
}

/// Scan fold: folds a stream into a [`StreamScan`] in O(1) memory
/// (plus the region name table) — a windowed run's first pass, or a
/// tee alongside the full-run folds.
#[derive(Debug, Default)]
pub struct ScanSink {
    makespan: f64,
    kinds: Vec<ActivityKind>,
    events: u64,
    processors: usize,
    region_names: Vec<String>,
    finished: bool,
}

impl ScanSink {
    /// Creates a scan pass.
    pub fn new() -> Self {
        ScanSink {
            makespan: 0.0,
            kinds: STANDARD_ACTIVITIES.to_vec(),
            events: 0,
            processors: 0,
            region_names: Vec::new(),
            finished: false,
        }
    }

    /// The scan result, once [`TraceSink::finish`] has run.
    pub fn into_scan(self) -> Option<StreamScan> {
        if !self.finished {
            return None;
        }
        Some(StreamScan {
            makespan: self.makespan,
            activities: ActivitySet::new(self.kinds),
            events: self.events,
            processors: self.processors,
            region_names: self.region_names,
        })
    }
}

impl TraceSink for ScanSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.processors = processors;
        self.region_names = region_names.to_vec();
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        for e in events {
            // Same fold as the materialized makespan computation.
            self.makespan = f64::max(self.makespan, e.time);
            note_activity(&mut self.kinds, e);
        }
        self.events += events.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.finished = true;
        Ok(())
    }
}

/// The sink driver: a [`Fold`] stepped in recording order as events
/// arrive, with one rank state per declared processor. Ranks end in
/// rank order when the stream does.
pub(crate) struct Folding<F: Fold> {
    fold: F,
    ranks: Vec<F::Rank>,
    /// Recording-order index of the next event (spans batches).
    index: usize,
}

impl<F: Fold> Folding<F> {
    pub(crate) fn new(fold: F, processors: usize) -> Self {
        let ranks = (0..processors as u32).map(|proc| fold.rank(proc)).collect();
        Folding {
            fold,
            ranks,
            index: 0,
        }
    }

    pub(crate) fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        for e in events {
            let index = self.index;
            self.index += 1;
            let processors = self.ranks.len();
            match self.ranks.get_mut(e.proc as usize) {
                Some(rank) => self.fold.step(rank, index, e)?,
                None => self.fold.stray(index, e, processors)?,
            }
        }
        Ok(())
    }

    /// The per-rank states, ascending by processor.
    pub(crate) fn ranks(&self) -> &[F::Rank] {
        &self.ranks
    }

    /// The fold being stepped.
    pub(crate) fn fold_mut(&mut self) -> &mut F {
        &mut self.fold
    }

    /// Ends every rank in rank order, returning the fold ready to
    /// finish.
    pub(crate) fn end_ranks(mut self) -> Result<F, TraceError> {
        for rank in self.ranks {
            self.fold.end_rank(rank)?;
        }
        Ok(self.fold)
    }

    pub(crate) fn finish(self) -> Result<F::Output, TraceError> {
        self.end_ranks()?.finish()
    }
}

/// A sink's running fold, or the error for a stream that has not begun.
fn running<F: Fold>(run: &mut Option<Folding<F>>) -> Result<&mut Folding<F>, TraceError> {
    run.as_mut().ok_or_else(|| malformed("events before begin"))
}

/// A sink's fold result, or the error for a stream that never began.
fn finished<F: Fold>(run: &mut Option<Folding<F>>) -> Result<F::Output, TraceError> {
    run.take()
        .ok_or_else(|| malformed("finish before begin"))?
        .finish()
}

/// Streaming full reduction — the fold counterpart of
/// [`reduce`](crate::reduce()), bit-identical on every stream the
/// simulator produces. Structural validation runs inline, one event
/// at a time through the per-rank checker [`Trace::validate`] steps:
/// malformed streams — truncation included — fail with the same
/// [`TraceError`] the batch path reports, never a panic. For lenient
/// salvage of truncated streams use [`SalvageSink`].
///
/// Like [`SalvageSink`], it needs no scan pass: its activity columns
/// start from a seed set and grow as extras appear, in the batch path's
/// order.
pub struct ReduceSink {
    activities: ActivitySet,
    run: Option<Folding<Checked<SalvageFold>>>,
    result: Option<ReducedTrace>,
}

impl ReduceSink {
    /// Creates the fold with `activities` as its seed columns; see
    /// [`SalvageSink::new`].
    pub fn new(activities: ActivitySet) -> Self {
        ReduceSink {
            activities,
            run: None,
            result: None,
        }
    }

    /// The reduction, once [`TraceSink::finish`] has run.
    pub fn into_reduced(self) -> Option<ReducedTrace> {
        self.result
    }
}

impl TraceSink for ReduceSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        let fold = SalvageFold::new(processors, region_names, self.activities.clone());
        let fold = Checked::new(fold, region_names.len());
        self.run = Some(Folding::new(fold, processors));
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        running(&mut self.run)?.events(events)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.result = Some(finished(&mut self.run)?.reduced);
        Ok(())
    }
}

/// Streaming windowed reduction — the fold counterpart of
/// [`reduce_windows`](crate::reduce_windows), the same fold over the
/// same window-scatter arithmetic, bit-identical on well-formed
/// streams. Structural validation runs inline through the per-rank
/// checker [`Trace::validate`] steps, so a malformed or crash-truncated
/// stream fails windowing with the same [`TraceError`] the batch path
/// reports.
///
/// Needs the run's horizon (makespan) up front to fix the window width
/// — which is exactly what the first-pass [`ScanSink`] provides; the
/// deterministic simulator replays the identical stream on the second
/// pass. Memory is O(windows × regions × activities × processors) —
/// the size of the *output* — independent of event count.
pub struct WindowSink {
    windows: usize,
    width: f64,
    activities: ActivitySet,
    run: Option<Folding<Checked<WindowFold>>>,
    result: Option<Vec<ReducedTrace>>,
}

impl WindowSink {
    /// Creates the fold: `windows` equal slices of `[0, makespan]`,
    /// using `activities` (both from the scan pass).
    ///
    /// # Errors
    ///
    /// The same degenerate-request errors as
    /// [`reduce_windows`](crate::reduce_windows): zero windows, or a
    /// stream spanning no time.
    pub fn new(windows: usize, makespan: f64, activities: ActivitySet) -> Result<Self, TraceError> {
        Ok(WindowSink {
            windows,
            width: window_width(windows, makespan)?,
            activities,
            run: None,
            result: None,
        })
    }

    /// The per-window reductions, once [`TraceSink::finish`] has run.
    pub fn into_windows(self) -> Option<Vec<ReducedTrace>> {
        self.result
    }
}

impl TraceSink for WindowSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        let fold = WindowFold::new(
            self.windows,
            self.width,
            processors,
            region_names,
            self.activities.clone(),
        );
        let fold = Checked::new(fold, region_names.len());
        self.run = Some(Folding::new(fold, processors));
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        running(&mut self.run)?.events(events)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.result = Some(finished(&mut self.run)?);
        Ok(())
    }
}

/// Streaming salvaged reduction — the fold counterpart of
/// [`reduce_checked`](crate::reduce_checked), the same fold: identical
/// attribution, identical truncation repair (open regions and
/// activities closed at each rank's last timestamp on
/// [`TraceSink::finish`]), identical per-rank
/// [`coverage`](crate::RankCoverage) records, and the same structured
/// [`TraceError::MalformedEvent`] errors naming an offending event's
/// recording-order index.
///
/// One divergence is inherent: the batch path walks rank 0's whole
/// stream before rank 1's, so when *several* ranks carry malformed
/// events it reports the lowest-ranked one; the streaming fold fails at
/// the first malformed event in recording order. Single-error streams
/// — and all valid or merely truncated ones — behave identically.
/// Streaming cannot sort, so each rank's stream must arrive
/// time-ordered (every in-repo writer's order); a rank whose clock runs
/// backwards fails with [`TraceError::NonMonotoneTime`].
///
/// The sink may carry an [`AttributionTap`] (see
/// [`SalvageSink::with_tap`]) that sees every attribution the fold
/// records. [`SalvageSink::new`] builds the untapped sink, whose tap is
/// the no-op `()`.
pub struct SalvageSink<T: AttributionTap = ()> {
    activities: ActivitySet,
    /// The tap while no fold runs (before `begin`, after `finish`);
    /// the running fold holds it in between, and this field a
    /// default.
    tap: T,
    run: Option<Folding<SalvageFold<T>>>,
    result: Option<SalvagedTrace>,
}

impl SalvageSink {
    /// Creates the fold with `activities` as its seed columns. Extras
    /// the stream begins are appended on first appearance, so
    /// [`ActivitySet::standard`] gives exactly the batch path's set in
    /// one pass; a scan pass's full [`StreamScan::activities`] gives
    /// the same result.
    pub fn new(activities: ActivitySet) -> Self {
        SalvageSink::with_tap(activities, ())
    }
}

impl<T: AttributionTap + Default> SalvageSink<T> {
    /// [`SalvageSink::new`], with every attribution the fold records
    /// also going to `tap`, rank by rank as the fold records it.
    pub fn with_tap(activities: ActivitySet, tap: T) -> Self {
        SalvageSink {
            activities,
            tap,
            run: None,
            result: None,
        }
    }

    /// The tap, wherever it currently sits.
    pub fn tap_mut(&mut self) -> &mut T {
        match &mut self.run {
            Some(run) => run.fold_mut().tap_mut(),
            None => &mut self.tap,
        }
    }

    /// The running fold's per-rank walkers, ascending by processor
    /// (empty before [`TraceSink::begin`] and after
    /// [`TraceSink::finish`]).
    pub fn walkers(&self) -> &[SalvageWalker] {
        self.run.as_ref().map_or(&[], |run| run.ranks())
    }

    /// The salvaged reduction, once [`TraceSink::finish`] has run.
    pub fn salvaged(&self) -> Option<&SalvagedTrace> {
        self.result.as_ref()
    }

    /// The salvaged reduction, once [`TraceSink::finish`] has run.
    pub fn into_salvaged(self) -> Option<SalvagedTrace> {
        self.result
    }
}

impl<T: AttributionTap + Default> TraceSink for SalvageSink<T> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        let tap = std::mem::take(self.tap_mut());
        let fold = SalvageFold::with_tap(processors, region_names, self.activities.clone(), tap);
        self.run = Some(Folding::new(fold, processors));
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        running(&mut self.run)?.events(events)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let run = self
            .run
            .take()
            .ok_or_else(|| malformed("finish before begin"))?;
        // The tap comes back once every rank's truncation repair has
        // reached it, whether or not the tables build.
        let mut fold = run.end_ranks()?;
        self.tap = std::mem::take(fold.tap_mut());
        self.result = Some(fold.finish()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::binary::{from_bytes, to_bytes};
    use crate::{reduce, reduce_checked, reduce_windows};
    use limba_model::ProcessorId;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let r0 = b.add_region("solver");
        let r1 = b.add_region("exchange");
        b.push(Event::enter(0.0, 0, r0));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Synchronization));
        b.push(Event::end_activity(0.75, 0, ActivityKind::Synchronization));
        b.push(Event::leave(1.0, 0, r0));
        b.push(Event::enter(0.0, 2, r1));
        b.push(Event::message_send(0.25, 2, 1, 4096));
        b.push(Event::message_recv(0.5, 2, 1, 128));
        b.push(Event::leave(1.5, 2, r1));
        b.build().unwrap()
    }

    fn stream_trace(trace: &Trace, frame_events: usize, sink: &mut dyn TraceSink) {
        sink.begin(trace.processors(), trace.region_names())
            .unwrap();
        for batch in trace.events().chunks(frame_events.max(1)) {
            sink.events(batch).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn materialize_sink_round_trips() {
        let t = sample();
        let mut sink = MaterializeSink::new();
        stream_trace(&t, 3, &mut sink);
        assert_eq!(sink.into_trace().unwrap(), t);
    }

    #[test]
    fn v3_round_trips_through_materialized_reader() {
        let t = sample();
        for frame in [1, 2, 7, 1000] {
            let bytes = to_stream_bytes(&t, frame).unwrap();
            assert_eq!(from_bytes(&bytes).unwrap(), t, "frame size {frame}");
        }
    }

    #[test]
    fn stream_decoder_reads_materialized_formats() {
        let t = sample();
        let v2 = to_bytes(&t);
        let mut sink = MaterializeSink::new();
        decode_all(&v2, &mut sink).unwrap();
        assert_eq!(sink.into_trace().unwrap(), t);

        // Version 1: checksum stripped, version patched.
        let mut v1 = v2[..v2.len() - 8].to_vec();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        let mut sink = MaterializeSink::new();
        decode_all(&v1, &mut sink).unwrap();
        assert_eq!(sink.into_trace().unwrap(), t);
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_identically() {
        let t = sample();
        for bytes in [
            to_stream_bytes(&t, 2).unwrap(),
            to_stream_bytes(&t, 1000).unwrap(),
            to_bytes(&t),
        ] {
            let mut sink = MaterializeSink::new();
            let mut dec = StreamDecoder::new();
            for b in bytes.iter() {
                dec.feed(&[*b], &mut sink).unwrap();
            }
            dec.finish(&mut sink).unwrap();
            assert_eq!(sink.into_trace().unwrap(), t);
        }
    }

    #[test]
    fn truncation_yields_named_error_never_panic() {
        let t = sample();
        let bytes = to_stream_bytes(&t, 2).unwrap();
        for cut in 0..bytes.len() {
            let mut sink = MaterializeSink::new();
            let mut dec = StreamDecoder::new();
            let fed = dec.feed(&bytes[..cut], &mut sink);
            let finished = fed.and_then(|()| dec.finish(&mut sink));
            assert!(finished.is_err(), "truncation at {cut} was accepted");
        }
    }

    #[test]
    fn trailing_bytes_after_end_are_rejected() {
        let t = sample();
        let mut bytes = to_stream_bytes(&t, 4).unwrap().to_vec();
        bytes.push(0);
        let mut sink = MaterializeSink::new();
        assert!(decode_all(&bytes, &mut sink).is_err());

        // Also when the surplus arrives in a later feed.
        let good = to_stream_bytes(&t, 4).unwrap();
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        dec.feed(&good, &mut sink).unwrap();
        assert!(dec.feed(&[0], &mut sink).is_err());
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let t = sample();
        let bytes = to_stream_bytes(&t, 3).unwrap();
        for i in 10..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x40;
            let mut sink = MaterializeSink::new();
            assert!(
                decode_all(&corrupt, &mut sink).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn event_total_mismatch_is_named() {
        let t = sample();
        let mut enc = StreamEncoder::new();
        let mut out = Vec::new();
        out.extend_from_slice(&enc.header(t.processors(), t.region_names()).unwrap());
        out.extend_from_slice(&enc.frame(t.events()));
        enc.events += 1; // lie about the total
        out.extend_from_slice(&enc.finish());
        let mut sink = MaterializeSink::new();
        let err = decode_all(&out, &mut sink).unwrap_err().to_string();
        assert!(err.contains("declares"), "{err}");
    }

    #[test]
    fn hostile_counts_are_rejected() {
        // Oversized processor count.
        let mut enc = StreamEncoder::new();
        assert!(enc.header(MAX_PROCESSORS + 1, &[]).is_err());

        // Oversized region count in the raw header.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        let err = dec.feed(&raw, &mut sink).unwrap_err().to_string();
        assert!(err.contains("region count"), "{err}");

        // Oversized region name length.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        let err = dec.feed(&raw, &mut sink).unwrap_err().to_string();
        assert!(err.contains("region name"), "{err}");
    }

    /// Records every `reserve` hint, with how many input bytes the
    /// decoder had been fed by then.
    #[derive(Default)]
    struct HintSink {
        fed: usize,
        hints: Vec<(usize, usize)>,
    }

    impl TraceSink for HintSink {
        fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
            Ok(())
        }
        fn events(&mut self, _: &[Event]) -> Result<(), TraceError> {
            Ok(())
        }
        fn reserve(&mut self, events: usize) {
            self.hints.push((events, self.fed));
        }
        fn finish(&mut self) -> Result<(), TraceError> {
            Ok(())
        }
    }

    /// Feeds `bytes` in `step`-byte pieces and returns the hints, each
    /// checked against the bytes in hand past the header when it came.
    fn reserve_hints(bytes: &[u8], step: usize, header: usize) -> Vec<usize> {
        let mut sink = HintSink::default();
        let mut dec = StreamDecoder::new();
        for piece in bytes.chunks(step) {
            sink.fed += piece.len();
            if dec.feed(piece, &mut sink).is_err() {
                break;
            }
        }
        let _ = dec.finish(&mut sink);
        for &(hint, fed) in &sink.hints {
            let in_hand = fed.saturating_sub(header);
            assert!(
                hint <= in_hand / MIN_EVENT_BYTES,
                "hint {hint} exceeds {in_hand} bytes in hand"
            );
        }
        sink.hints.into_iter().map(|(hint, _)| hint).collect()
    }

    #[test]
    fn reserve_hint_never_exceeds_the_bytes_in_hand() {
        let t = sample();
        let v2 = to_bytes(&t);
        // magic + version + counts + region table + the event count.
        let header = 18 + t.region_names().iter().map(|n| 4 + n.len()).sum::<usize>() + 8;

        // A v1 header declaring u64::MAX events over an empty body.
        let mut hostile = to_bytes(&TraceBuilder::new(1).build().unwrap())[..26].to_vec();
        hostile[8..10].copy_from_slice(&1u16.to_le_bytes());
        hostile[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(reserve_hints(&hostile, hostile.len(), 26).is_empty());
        let mut with_body = hostile.clone();
        with_body.extend_from_slice(&[0; 3 * MIN_EVENT_BYTES + 1]);
        assert_eq!(reserve_hints(&with_body, with_body.len(), 26), vec![3]);

        // The whole v2 file: the declared count, which the bytes cover.
        let events = t.events().len();
        assert_eq!(reserve_hints(&v2, v2.len(), header), vec![events]);
        // Truncated mid-body: capped by what is left.
        let cut = &v2[..header + 2 * MIN_EVENT_BYTES + 5];
        assert_eq!(reserve_hints(cut, cut.len(), header), vec![2]);
        // One byte at a time: nothing in hand past the count, no hint.
        assert!(reserve_hints(&v2, 1, header).is_empty());

        // Streamed files declare no count up front: never a hint.
        let v3 = to_stream_bytes(&t, 3).unwrap();
        assert!(reserve_hints(&v3, v3.len(), 0).is_empty());
        assert!(reserve_hints(&v3, 1, 0).is_empty());
    }

    #[test]
    fn truncated_body_names_the_declared_event_count() {
        let t = sample();
        let v2 = to_bytes(&t);
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        dec.feed(&v2[..v2.len() - 20], &mut sink).unwrap();
        let err = dec.finish(&mut sink).unwrap_err().to_string();
        assert!(
            err.contains("reading events: header declares event count 8, 7 read"),
            "{err}"
        );
    }

    #[test]
    fn scan_matches_materialized_preambles() {
        let t = sample();
        let mut scan = ScanSink::new();
        stream_trace(&t, 3, &mut scan);
        let scan = scan.into_scan().unwrap();
        let makespan = t.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
        assert_eq!(scan.makespan.to_bits(), makespan.to_bits());
        assert_eq!(scan.events, t.events().len() as u64);
        assert_eq!(
            scan.activities.as_slice(),
            reduce(&t).unwrap().measurements.activities().as_slice()
        );
    }

    #[test]
    fn reduce_sink_is_bit_identical_to_batch() {
        let t = sample();
        let batch = reduce(&t).unwrap();
        for frame in [1, 2, 5, 100] {
            let mut scan = ScanSink::new();
            stream_trace(&t, frame, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold = ReduceSink::new(scan.activities.clone());
            stream_trace(&t, frame, &mut fold);
            let streamed = fold.into_reduced().unwrap();
            assert_eq!(streamed.measurements, batch.measurements);
            assert_eq!(streamed.counts, batch.counts);
        }
    }

    #[test]
    fn window_sink_is_bit_identical_to_batch() {
        let t = sample();
        for windows in [1, 2, 3, 7] {
            let batch = reduce_windows(&t, windows).unwrap();
            let mut scan = ScanSink::new();
            stream_trace(&t, 3, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold =
                WindowSink::new(windows, scan.makespan, scan.activities.clone()).unwrap();
            stream_trace(&t, 3, &mut fold);
            let streamed = fold.into_windows().unwrap();
            assert_eq!(streamed.len(), batch.len());
            for (s, b) in streamed.iter().zip(&batch) {
                assert_eq!(s.measurements, b.measurements);
                assert_eq!(s.counts, b.counts);
            }
        }
    }

    #[test]
    fn salvage_sink_matches_batch_on_truncated_streams() {
        // Rank 1 crashes mid-activity; rank 0 completes.
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(4.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::begin_activity(2.0, 1, ActivityKind::Collective));
        b.push(Event::message_send(2.5, 1, 0, 128));
        let t = b.build().unwrap();
        let batch = reduce_checked(&t).unwrap();
        for frame in [1, 2, 100] {
            let mut scan = ScanSink::new();
            stream_trace(&t, frame, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold = SalvageSink::new(scan.activities.clone());
            stream_trace(&t, frame, &mut fold);
            let streamed = fold.into_salvaged().unwrap();
            assert_eq!(streamed.coverage, batch.coverage);
            assert_eq!(streamed.reduced.measurements, batch.reduced.measurements);
            assert_eq!(streamed.reduced.counts, batch.reduced.counts);
        }
    }

    /// Three ranks using both extra activities, `MemoryAccess` first —
    /// the reverse of their canonical order. With `truncate`, rank 2
    /// stops inside its open `Io` activity.
    fn extras_trace(truncate: bool) -> Trace {
        let mut b = TraceBuilder::new(3);
        let solver = b.add_region("solver");
        let exchange = b.add_region("exchange");
        b.push(Event::enter(0.0, 0, solver));
        b.push(Event::enter(0.0, 1, solver));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::MemoryAccess));
        b.push(Event::begin_activity(0.25, 1, ActivityKind::Collective));
        b.push(Event::end_activity(1.0, 0, ActivityKind::MemoryAccess));
        b.push(Event::enter(0.0, 2, exchange));
        b.push(Event::begin_activity(0.5, 2, ActivityKind::Io));
        b.push(Event::end_activity(1.0, 1, ActivityKind::Collective));
        b.push(Event::message_send(1.1, 1, 2, 512));
        b.push(Event::begin_activity(1.25, 0, ActivityKind::Io));
        b.push(Event::end_activity(1.5, 0, ActivityKind::Io));
        if !truncate {
            b.push(Event::end_activity(2.0, 2, ActivityKind::Io));
        }
        b.push(Event::leave(2.0, 0, solver));
        b.push(Event::leave(2.5, 1, solver));
        if !truncate {
            b.push(Event::leave(3.0, 2, exchange));
        }
        b.build().unwrap()
    }

    #[test]
    fn standard_seeded_folds_grow_extras_like_the_batch_path() {
        let grown = [
            STANDARD_ACTIVITIES.as_slice(),
            &[ActivityKind::MemoryAccess, ActivityKind::Io],
        ]
        .concat();
        let complete = extras_trace(false);
        let truncated = extras_trace(true);
        let strict = reduce(&complete).unwrap();
        assert_eq!(strict.measurements.activities().as_slice(), grown);
        for t in [&complete, &truncated] {
            let batch = reduce_checked(t).unwrap();
            assert_eq!(batch.reduced.measurements.activities().as_slice(), grown);
            for frame in [1, 2, 3, 100] {
                let mut fold = SalvageSink::new(ActivitySet::standard());
                stream_trace(t, frame, &mut fold);
                let streamed = fold.into_salvaged().unwrap();
                assert_eq!(streamed.coverage, batch.coverage, "frame {frame}");
                assert_eq!(
                    streamed.reduced.measurements, batch.reduced.measurements,
                    "frame {frame}"
                );
                assert_eq!(streamed.reduced.counts, batch.reduced.counts);
            }
        }
        assert!(!reduce_checked(&truncated).unwrap().is_complete());
        for frame in [1, 2, 3, 100] {
            let mut fold = ReduceSink::new(ActivitySet::standard());
            stream_trace(&complete, frame, &mut fold);
            let streamed = fold.into_reduced().unwrap();
            assert_eq!(streamed.measurements, strict.measurements, "frame {frame}");
            assert_eq!(streamed.counts, strict.counts);
        }
    }

    #[test]
    fn salvage_sink_names_malformed_events() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::leave(1.0, 1, r));
        let t = b.build().unwrap();
        let mut scan = ScanSink::new();
        stream_trace(&t, 10, &mut scan);
        let mut fold = SalvageSink::new(scan.into_scan().unwrap().activities);
        fold.begin(t.processors(), t.region_names()).unwrap();
        let err = fold.events(t.events()).unwrap_err();
        match err {
            TraceError::MalformedEvent { proc, index, .. } => {
                assert_eq!(proc, 1);
                assert_eq!(index, 2);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn folds_reject_backwards_rank_clocks() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(2.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        let t = b.build().unwrap();
        let mut fold = SalvageSink::new(ActivitySet::standard());
        fold.begin(t.processors(), t.region_names()).unwrap();
        assert!(matches!(
            fold.events(t.events()),
            Err(TraceError::NonMonotoneTime { proc: 0, .. })
        ));
    }

    #[test]
    fn tee_sink_feeds_both() {
        let t = sample();
        let mut a = MaterializeSink::new();
        let mut b = MaterializeSink::new();
        {
            let mut tee = TeeSink::new(&mut a, &mut b);
            stream_trace(&t, 4, &mut tee);
        }
        assert_eq!(a.into_trace().unwrap(), t);
        assert_eq!(b.into_trace().unwrap(), t);
    }

    #[test]
    fn window_sink_rejects_degenerate_requests() {
        assert!(WindowSink::new(0, 1.0, ActivitySet::standard()).is_err());
        assert!(WindowSink::new(2, 0.0, ActivitySet::standard()).is_err());
    }

    #[test]
    fn salvage_single_rank_stream_closes_out() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(2.0, 0, r));
        let t = b.build().unwrap();
        let batch = reduce_checked(&t).unwrap();
        let mut fold = SalvageSink::new(ActivitySet::standard());
        stream_trace(&t, 1, &mut fold);
        let streamed = fold.into_salvaged().unwrap();
        assert!(streamed.is_complete());
        assert_eq!(
            streamed
                .reduced
                .measurements
                .time(r, ActivityKind::Computation, ProcessorId::new(0)),
            batch
                .reduced
                .measurements
                .time(r, ActivityKind::Computation, ProcessorId::new(0)),
        );
    }

    #[test]
    fn version_3_refuses_a_message_of_2_pow_56_bytes() {
        use crate::binary::tests::{assert_oversized, one_message, oversized_message};
        let v3 = to_stream_bytes(&one_message(), 1).unwrap();
        assert_eq!(from_bytes(&v3).unwrap(), one_message());
        assert_oversized(from_bytes(&oversized_message(&v3)));
    }
}
