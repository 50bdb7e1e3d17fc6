//! The trace event model.

use std::fmt;

use limba_model::{ActivityKind, RegionId};

use crate::TraceError;

/// What happened at one instant on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPayload {
    /// The processor entered a code region.
    EnterRegion {
        /// Dense region index.
        region: u32,
    },
    /// The processor left a code region.
    LeaveRegion {
        /// Dense region index.
        region: u32,
    },
    /// The processor started a non-computation activity (e.g. entered an
    /// `MPI_SEND`).
    BeginActivity {
        /// The activity being entered.
        kind: ActivityKind,
    },
    /// The processor finished the current non-computation activity.
    EndActivity {
        /// The activity being left; must match the matching begin.
        kind: ActivityKind,
    },
    /// A message left this processor (counting parameter only).
    MessageSend {
        /// Destination processor.
        peer: u32,
        /// Payload size in bytes, at most [`Event::MAX_MESSAGE_BYTES`].
        bytes: u64,
    },
    /// A message arrived at this processor (counting parameter only).
    MessageRecv {
        /// Source processor.
        peer: u32,
        /// Payload size in bytes, at most [`Event::MAX_MESSAGE_BYTES`].
        bytes: u64,
    },
}

/// One timestamped event of one processor, packed into 24 bytes: the
/// time, the processor, one 32-bit operand (the region, peer or
/// activity index) and one 64-bit word holding the op tag in its top
/// byte and a message size in its low 56 bits. [`Event::payload`]
/// unpacks the operands.
#[derive(Clone, Copy, PartialEq)]
pub struct Event {
    /// Wall-clock time in seconds since program start.
    pub time: f64,
    /// Processor the event occurred on.
    pub proc: u32,
    /// Region, peer or activity index, as the tag says.
    arg: u32,
    /// Op tag in the top byte, message size in the low 56 bits.
    word: u64,
}

const _: () = assert!(std::mem::size_of::<Event>() == 24);

/// Op tags, the wire format's op codes.
const ENTER: u64 = 0;
const LEAVE: u64 = 1;
const BEGIN: u64 = 2;
const END: u64 = 3;
const SEND: u64 = 4;
const RECV: u64 = 5;
/// Where the tag sits in [`Event`]'s word: above the message size.
const TAG_SHIFT: u32 = 56;

impl Event {
    /// Largest message size an event holds: 2^56 − 1 bytes (64 PiB).
    /// Every decoder refuses a larger size as
    /// [`TraceError::Malformed`].
    pub const MAX_MESSAGE_BYTES: u64 = (1 << TAG_SHIFT) - 1;

    /// The event `payload` at `time` on `proc`. A message size over
    /// [`Event::MAX_MESSAGE_BYTES`] saturates to it.
    #[inline]
    pub(crate) fn new(time: f64, proc: u32, payload: EventPayload) -> Self {
        let (tag, arg, bytes) = match payload {
            EventPayload::EnterRegion { region } => (ENTER, region, 0),
            EventPayload::LeaveRegion { region } => (LEAVE, region, 0),
            EventPayload::BeginActivity { kind } => (BEGIN, kind.index() as u32, 0),
            EventPayload::EndActivity { kind } => (END, kind.index() as u32, 0),
            EventPayload::MessageSend { peer, bytes } => (SEND, peer, bytes),
            EventPayload::MessageRecv { peer, bytes } => (RECV, peer, bytes),
        };
        Event {
            time,
            proc,
            arg,
            word: tag << TAG_SHIFT | bytes.min(Self::MAX_MESSAGE_BYTES),
        }
    }

    /// What happened.
    #[inline]
    pub fn payload(&self) -> EventPayload {
        let arg = self.arg;
        let bytes = self.word & Self::MAX_MESSAGE_BYTES;
        match self.word >> TAG_SHIFT {
            ENTER => EventPayload::EnterRegion { region: arg },
            LEAVE => EventPayload::LeaveRegion { region: arg },
            tag @ (BEGIN | END) => {
                // `new` stores `kind.index()`, so the lookup always hits.
                let kind =
                    ActivityKind::from_index(arg as usize).unwrap_or(ActivityKind::Computation);
                if tag == BEGIN {
                    EventPayload::BeginActivity { kind }
                } else {
                    EventPayload::EndActivity { kind }
                }
            }
            SEND => EventPayload::MessageSend { peer: arg, bytes },
            _ => EventPayload::MessageRecv { peer: arg, bytes },
        }
    }

    /// Region-enter event. A region index over `u32::MAX` saturates to
    /// `u32::MAX`, an index no trace declares, so the event is still
    /// refused as an unknown region.
    pub fn enter(time: f64, proc: u32, region: RegionId) -> Self {
        let region = region_index(region);
        Event::new(time, proc, EventPayload::EnterRegion { region })
    }

    /// Region-leave event; see [`Event::enter`] for region indices over
    /// `u32::MAX`.
    pub fn leave(time: f64, proc: u32, region: RegionId) -> Self {
        let region = region_index(region);
        Event::new(time, proc, EventPayload::LeaveRegion { region })
    }

    /// Activity-begin event.
    pub fn begin_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event::new(time, proc, EventPayload::BeginActivity { kind })
    }

    /// Activity-end event.
    pub fn end_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event::new(time, proc, EventPayload::EndActivity { kind })
    }

    /// Message-send event. A size over [`Event::MAX_MESSAGE_BYTES`]
    /// saturates to it; the simulator refuses such a send when its
    /// program is built, so it never records one.
    pub fn message_send(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event::new(time, proc, EventPayload::MessageSend { peer, bytes })
    }

    /// Message-receive event. A size over [`Event::MAX_MESSAGE_BYTES`]
    /// saturates to it; the simulator refuses such a send when its
    /// program is built, so it never records one.
    pub fn message_recv(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event::new(time, proc, EventPayload::MessageRecv { peer, bytes })
    }
}

/// `region`'s index as an event operand: saturated at `u32::MAX`, an
/// index no region table reaches ([`TraceBuilder::build`] refuses
/// tables of more than `u32::MAX` entries).
fn region_index(region: RegionId) -> u32 {
    u32::try_from(region.index()).unwrap_or(u32::MAX)
}

/// Prints what a derived `Debug` of the unpacked fields would.
impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("time", &self.time)
            .field("proc", &self.proc)
            .field("payload", &self.payload())
            .finish()
    }
}

/// A complete tracefile: the processor count, the region name table, and
/// the event stream.
///
/// Events may be appended in any order; [`Trace::rank_order`] provides
/// the per-processor, time-ordered view reduction needs, and
/// [`Trace::validate`] checks structural well-formedness. A trace holds
/// at most [`u32::MAX`] events and declares at most `u32::MAX` regions
/// ([`TraceBuilder::build`] refuses more), so a 32-bit position names
/// any event and a 32-bit operand any region.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    processors: usize,
    region_names: Vec<String>,
    events: Vec<Event>,
}

impl Trace {
    /// Number of processors the trace was recorded on.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Registered region names, indexed by region id.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// All events in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of `proc` sorted by time (stable, so simultaneous events
    /// keep recording order).
    pub fn events_by_processor(&self, proc: u32) -> Vec<Event> {
        let mut evs: Vec<Event> = self
            .events
            .iter()
            .copied()
            .filter(|e| e.proc == proc)
            .collect();
        evs.sort_by(|a, b| a.time.total_cmp(&b.time));
        evs
    }

    /// The per-processor, time-ordered view of the whole trace, built in
    /// O(E + P) without copying an event: see [`RankOrder`]. This is
    /// what validation, reduction and the per-rank renderers iterate
    /// over, instead of calling [`Trace::events_by_processor`] (an O(E)
    /// filter) once per processor.
    pub fn rank_order(&self) -> RankOrder<'_> {
        RankOrder::new(self)
    }

    /// Checks structural well-formedness: processor and region indices in
    /// range, per-processor monotone clocks, balanced region nesting, and
    /// matched activity begin/end pairs.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.check_indices()?;
        let regions = self.region_names.len();
        for (proc, events) in self.rank_order().ranks() {
            let mut checker = RankChecker::new(proc);
            for (_, e) in events {
                checker.step(e, regions)?;
            }
            checker.finish()?;
        }
        Ok(())
    }

    /// [`Trace::validate`]'s range pass, in recording order: the first
    /// event naming an undeclared processor or region.
    pub(crate) fn check_indices(&self) -> Result<(), TraceError> {
        for e in &self.events {
            if e.proc as usize >= self.processors {
                return Err(TraceError::UnknownProcessor { proc: e.proc });
            }
            if let Some(region) = unknown_region(e, self.region_names.len()) {
                return Err(TraceError::UnknownRegion { region });
            }
        }
        Ok(())
    }
}

/// The region `e` enters or leaves, when a table of `regions` entries
/// does not declare it.
pub(crate) fn unknown_region(e: &Event, regions: usize) -> Option<usize> {
    match e.payload() {
        EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
            if region as usize >= regions =>
        {
            Some(region as usize)
        }
        _ => None,
    }
}

/// A borrowed rank-order index over a [`Trace`]'s events: every
/// processor's events in time order, as positions into
/// [`Trace::events`] rather than copies.
///
/// `order` holds one 4-byte recording-order position per indexed
/// event, grouped by processor; processor `p`'s run is
/// `order[offsets[p]..offsets[p + 1]]`. A two-pass counting sort
/// fills each run ascending in recording order, and a run whose times
/// are not already non-decreasing is then stably sorted by time — so
/// simultaneous events keep recording order, exactly as
/// [`Trace::events_by_processor`] orders them. Events naming an
/// out-of-range processor are left out of the index (validation and
/// salvage report them before walking it).
#[derive(Debug)]
pub struct RankOrder<'a> {
    events: &'a [Event],
    offsets: Vec<u32>,
    order: Vec<u32>,
}

impl<'a> RankOrder<'a> {
    fn new(trace: &'a Trace) -> Self {
        let events = trace.events.as_slice();
        let processors = trace.processors;
        // Every count and position below fits a u32: a trace holds at
        // most u32::MAX events (`TraceBuilder::build` refuses more).
        // Pass 1: offsets[p] counts processor p's events, then becomes
        // the end of its run by an inclusive prefix sum.
        let mut offsets = vec![0u32; processors + 1];
        for e in events {
            if let Some(count) = offsets[..processors].get_mut(e.proc as usize) {
                *count += 1;
            }
        }
        let mut total = 0;
        for slot in &mut offsets {
            total += *slot;
            *slot = total;
        }
        // Pass 2: scatter back to front, so each run fills from its end
        // and comes out ascending in recording order; offsets[p] ends at
        // the start of p's run. Comparing each event with the rank's
        // next one in recording order finds the runs that need sorting.
        let mut order = vec![0u32; total as usize];
        let mut next_time = vec![f64::INFINITY; processors];
        let mut unsorted = vec![false; processors];
        for (index, e) in events.iter().enumerate().rev() {
            let p = e.proc as usize;
            if let Some(slot) = offsets[..processors].get_mut(p) {
                *slot -= 1;
                order[*slot as usize] = index as u32;
                unsorted[p] |= e.time.total_cmp(&next_time[p]).is_gt();
                next_time[p] = e.time;
            }
        }
        // Stable, so simultaneous events keep recording order.
        for (run, unsorted) in offsets.windows(2).zip(unsorted) {
            if unsorted {
                order[run[0] as usize..run[1] as usize]
                    .sort_by(|&a, &b| events[a as usize].time.total_cmp(&events[b as usize].time));
            }
        }
        RankOrder {
            events,
            offsets,
            order,
        }
    }

    /// Number of processors indexed (the trace's declared count).
    pub(crate) fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Processor `proc`'s events in time order, each with its
    /// recording-order position in [`Trace::events`].
    ///
    /// # Panics
    ///
    /// When `proc` is not below the trace's processor count.
    pub fn rank(&self, proc: u32) -> impl ExactSizeIterator<Item = (usize, &'a Event)> + '_ {
        let events = self.events;
        let p = proc as usize;
        self.order[self.offsets[p] as usize..self.offsets[p + 1] as usize]
            .iter()
            .map(move |&index| (index as usize, &events[index as usize]))
    }

    /// Every processor's [`RankOrder::rank`] iterator, ascending by
    /// processor.
    pub fn ranks(
        &self,
    ) -> impl Iterator<Item = (u32, impl ExactSizeIterator<Item = (usize, &'a Event)> + '_)> + '_
    {
        (0..self.processors() as u32).map(move |proc| (proc, self.rank(proc)))
    }
}

/// Per-rank structural validation, one event at a time: monotone
/// clock, balanced region nesting, matched activity begin/end pairs.
/// The one validator: [`Trace::validate`] steps one over each
/// processor's time-sorted events, and the strict reductions
/// ([`reduce`](crate::reduce()), [`reduce_windows`](crate::reduce_windows),
/// [`region_parents`](crate::region_parents) and their sinks) step one
/// per rank inside their own walk, so they reject exactly the malformed
/// traces `validate` rejects, with the same errors.
///
/// Ordering caveat: a batch walk meets rank 0's whole stream, end check
/// included, before rank 1's, so when *several* ranks are malformed it
/// reports the lowest-ranked violation; a sink reports the first in
/// recording order. Truncation, the violation that actually occurs,
/// only shows at end of stream, where the sinks run the end checks in
/// rank order and report the identical error.
pub(crate) struct RankChecker {
    proc: u32,
    stack: Vec<usize>,
    activity: Option<ActivityKind>,
    last_time: f64,
}

impl RankChecker {
    /// A checker for processor `proc`'s events.
    pub(crate) fn new(proc: u32) -> Self {
        RankChecker {
            proc,
            stack: Vec::new(),
            activity: None,
            last_time: f64::NEG_INFINITY,
        }
    }

    /// The innermost open region, if any.
    pub(crate) fn innermost(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Checks the rank's next event `e` against a region table of
    /// `regions` entries.
    pub(crate) fn step(&mut self, e: &Event, regions: usize) -> Result<(), TraceError> {
        let proc = self.proc;
        if let Some(region) = unknown_region(e, regions) {
            return Err(TraceError::UnknownRegion { region });
        }
        if e.time < self.last_time {
            return Err(TraceError::NonMonotoneTime {
                proc,
                before: self.last_time,
                after: e.time,
            });
        }
        self.last_time = e.time;
        match e.payload() {
            EventPayload::EnterRegion { region } => self.stack.push(region as usize),
            EventPayload::LeaveRegion { region } => match self.stack.pop() {
                Some(top) if top == region as usize => {}
                Some(top) => {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("left region {region} while inside {top}"),
                    })
                }
                None => {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("left region {region} that was never entered"),
                    })
                }
            },
            EventPayload::BeginActivity { kind } => {
                if let Some(current) = self.activity {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("began {kind} while {current} still active"),
                    });
                }
                if self.stack.is_empty() {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("began {kind} outside any region"),
                    });
                }
                self.activity = Some(kind);
            }
            EventPayload::EndActivity { kind } => match self.activity.take() {
                Some(current) if current == kind => {}
                Some(current) => {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("ended {kind} while {current} active"),
                    })
                }
                None => {
                    return Err(TraceError::UnbalancedNesting {
                        proc,
                        detail: format!("ended {kind} that never began"),
                    })
                }
            },
            EventPayload::MessageSend { .. } | EventPayload::MessageRecv { .. } => {}
        }
        Ok(())
    }

    /// The end-of-trace checks: no activity or region left open.
    pub(crate) fn finish(&self) -> Result<(), TraceError> {
        let proc = self.proc;
        if let Some(kind) = self.activity {
            return Err(TraceError::UnbalancedNesting {
                proc,
                detail: format!("activity {kind} still open at end of trace"),
            });
        }
        if let Some(region) = self.innermost() {
            return Err(TraceError::UnbalancedNesting {
                proc,
                detail: format!("region {region} still open at end of trace"),
            });
        }
        Ok(())
    }
}

/// Builder assembling a [`Trace`].
///
/// # Example
///
/// ```
/// use limba_trace::{Event, TraceBuilder};
/// let mut b = TraceBuilder::new(2);
/// let r = b.add_region("main");
/// b.push(Event::enter(0.0, 0, r));
/// b.push(Event::leave(1.0, 0, r));
/// let trace = b.build()?;
/// assert_eq!(trace.processors(), 2);
/// assert_eq!(trace.events().len(), 2);
/// # Ok::<(), limba_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    processors: usize,
    region_names: Vec<String>,
    events: Vec<Event>,
}

impl TraceBuilder {
    /// Creates a builder for a trace of `processors` processors.
    pub fn new(processors: usize) -> Self {
        TraceBuilder {
            processors,
            region_names: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Registers a region name, returning its id.
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        let id = RegionId::new(self.region_names.len());
        self.region_names.push(name.into());
        id
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Reserves room for at least `additional` more events, so callers
    /// that know their event count up front (the simulator derives it
    /// from op counts) avoid reallocations while recording.
    pub fn reserve_events(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Appends a batch of events in order — equivalent to pushing each
    /// one, as a single bulk copy. The simulator's parallel engine uses
    /// this to splice precomputed event runs into the trace.
    pub fn extend_events(&mut self, events: &[Event]) {
        self.events.extend_from_slice(events);
    }

    /// Events appended so far.
    pub(crate) fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Finalizes the trace (without validating; call
    /// [`Trace::validate`] separately when the source is untrusted).
    ///
    /// # Errors
    ///
    /// [`TraceError::TooManyEvents`] for more than `u32::MAX` events and
    /// [`TraceError::Malformed`] for more than `u32::MAX` regions: a
    /// [`RankOrder`] position and an event's region operand are 32 bits.
    pub fn build(self) -> Result<Trace, TraceError> {
        check_event_count(self.events.len(), 0)?;
        if self.region_names.len() > MAX_REGIONS {
            return Err(TraceError::Malformed {
                detail: format!(
                    "region count {} exceeds the maximum {MAX_REGIONS}",
                    self.region_names.len()
                ),
            });
        }
        Ok(Trace {
            processors: self.processors,
            region_names: self.region_names,
            events: self.events,
        })
    }
}

/// Most events a [`Trace`] holds: [`RankOrder`] positions are `u32`.
const MAX_EVENTS: usize = u32::MAX as usize;
/// Most regions a [`Trace`] declares, so that index `u32::MAX` (where
/// [`Event::enter`] saturates) is never a declared one.
const MAX_REGIONS: usize = u32::MAX as usize;

/// Refuses a trace of `have + more` events when that passes
/// [`MAX_EVENTS`].
pub(crate) fn check_event_count(have: usize, more: usize) -> Result<(), TraceError> {
    match have.checked_add(more) {
        Some(events) if events <= MAX_EVENTS => Ok(()),
        _ => Err(TraceError::TooManyEvents {
            events: have.saturating_add(more),
        }),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use bytes::BytesMut;
    use proptest::prelude::*;

    use super::*;
    use crate::stream::{put_event, try_event};

    fn r(i: usize) -> RegionId {
        RegionId::new(i)
    }

    fn well_formed() -> Trace {
        let mut b = TraceBuilder::new(2);
        let main = b.add_region("main");
        let inner = b.add_region("inner");
        for p in 0..2 {
            b.push(Event::enter(0.0, p, main));
            b.push(Event::enter(0.5, p, inner));
            b.push(Event::begin_activity(0.6, p, ActivityKind::Collective));
            b.push(Event::end_activity(0.9, p, ActivityKind::Collective));
            b.push(Event::leave(1.0, p, inner));
            b.push(Event::leave(2.0, p, main));
        }
        b.build().unwrap()
    }

    #[test]
    fn valid_trace_passes() {
        well_formed().validate().unwrap();
    }

    #[test]
    fn events_by_processor_sorted() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::leave(2.0, 0, m));
        b.push(Event::enter(1.0, 0, m));
        let t = b.build().unwrap();
        let evs = t.events_by_processor(0);
        assert!(evs[0].time < evs[1].time);
    }

    #[test]
    fn detects_unknown_processor_and_region() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::enter(0.0, 5, m));
        assert!(matches!(
            b.build().unwrap().validate(),
            Err(TraceError::UnknownProcessor { proc: 5 })
        ));

        let mut b = TraceBuilder::new(1);
        b.add_region("m");
        b.push(Event::enter(0.0, 0, r(3)));
        assert!(matches!(
            b.build().unwrap().validate(),
            Err(TraceError::UnknownRegion { region: 3 })
        ));
    }

    #[test]
    fn detects_backwards_clock() {
        // Same-timestamp events are fine; strictly decreasing is not. We
        // need decreasing within sorted order, which cannot happen after
        // sorting — so monotonicity violations only arise via NaN-free
        // total order; craft equal times to confirm acceptance instead.
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::enter(1.0, 0, m));
        b.push(Event::leave(1.0, 0, m));
        b.build().unwrap().validate().unwrap();
    }

    #[test]
    fn detects_cross_region_leave() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let c = b.add_region("b");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::leave(1.0, 0, c));
        assert!(matches!(
            b.build().unwrap().validate(),
            Err(TraceError::UnbalancedNesting { .. })
        ));
    }

    #[test]
    fn detects_leave_without_enter_and_open_region() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::leave(1.0, 0, a));
        assert!(b.build().unwrap().validate().is_err());

        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(1.0, 0, a));
        assert!(b.build().unwrap().validate().is_err());
    }

    #[test]
    fn detects_activity_problems() {
        // Nested activities.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::begin_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().unwrap().validate().is_err());

        // Mismatched end.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().unwrap().validate().is_err());

        // End without begin.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().unwrap().validate().is_err());

        // Activity outside any region.
        let mut b = TraceBuilder::new(1);
        b.add_region("a");
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        assert!(b.build().unwrap().validate().is_err());

        // Activity left open.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(0.2, 0, a));
        assert!(b.build().unwrap().validate().is_err());
    }

    #[test]
    fn message_events_do_not_disturb_validation() {
        let mut b = TraceBuilder::new(2);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::message_send(0.5, 0, 1, 1024));
        b.push(Event::leave(1.0, 0, a));
        b.push(Event::message_recv(0.7, 1, 0, 1024));
        b.build().unwrap().validate().unwrap();
    }

    #[test]
    fn rank_order_matches_per_processor_view() {
        // Recording order interleaves the ranks and runs backwards in
        // time, with a tie, so the runs need the stable sort.
        let mut b = TraceBuilder::new(3);
        let m = b.add_region("m");
        b.push(Event::leave(2.0, 1, m));
        b.push(Event::leave(2.0, 0, m));
        b.push(Event::message_send(1.0, 1, 0, 8));
        b.push(Event::enter(1.0, 1, m));
        b.push(Event::enter(0.0, 0, m));
        b.push(Event::enter(1.0, 7, m));
        let t = b.build().unwrap();
        let order = t.rank_order();
        assert_eq!(order.processors(), 3);
        for p in 0..3 {
            let indexed: Vec<Event> = order
                .rank(p)
                .map(|(i, e)| {
                    assert_eq!(&t.events()[i], e);
                    *e
                })
                .collect();
            assert_eq!(indexed, t.events_by_processor(p));
        }
        let ranks: Vec<Vec<usize>> = order
            .ranks()
            .map(|(_, run)| run.map(|(i, _)| i).collect())
            .collect();
        // Out-of-range processor 7 is left out; the tie at 1.0 on rank 1
        // keeps recording order (send before enter).
        assert_eq!(ranks, vec![vec![4, 1], vec![2, 3, 0], vec![]]);
    }

    #[test]
    fn reserve_events_does_not_change_contents() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.reserve_events(128);
        b.push(Event::enter(0.0, 0, m));
        b.push(Event::leave(1.0, 0, m));
        let trace = b.build().unwrap();
        assert_eq!(trace.events().len(), 2);
        trace.validate().unwrap();
    }

    /// The payload of op `variant` (the wire op code) with these
    /// operands.
    fn payload_of(variant: u8, arg: u32, kind: ActivityKind, bytes: u64) -> EventPayload {
        match variant {
            0 => EventPayload::EnterRegion { region: arg },
            1 => EventPayload::LeaveRegion { region: arg },
            2 => EventPayload::BeginActivity { kind },
            3 => EventPayload::EndActivity { kind },
            4 => EventPayload::MessageSend { peer: arg, bytes },
            _ => EventPayload::MessageRecv { peer: arg, bytes },
        }
    }

    /// Packs `payload`, then checks that unpacking, `Debug` and the
    /// wire record (`put_event` → `try_event`) all give it back.
    fn check_packing(time: f64, proc: u32, payload: EventPayload) -> Result<(), String> {
        let e = Event::new(time, proc, payload);
        let unpacked = (e.time.to_bits(), e.proc, e.payload());
        if unpacked != (time.to_bits(), proc, payload) {
            return Err(format!(
                "{payload:?} at {time:?} on {proc} unpacked as {unpacked:?}"
            ));
        }
        let derived = format!("Event {{ time: {time:?}, proc: {proc:?}, payload: {payload:?} }}");
        if format!("{e:?}") != derived {
            return Err(format!("{e:?} is not {derived}"));
        }
        let mut buf = BytesMut::with_capacity(25);
        put_event(&mut buf, &e);
        match try_event(buf.as_ref()) {
            Ok(Some((back, len))) if len == buf.len() && back.time.to_bits() == time.to_bits() => {
                if back != e {
                    return Err(format!("{e:?} decoded as {back:?}"));
                }
                Ok(())
            }
            other => Err(format!("{e:?} decoded as {other:?}")),
        }
    }

    #[test]
    fn every_payload_packs_at_its_extremes() {
        assert_eq!(Event::MAX_MESSAGE_BYTES, (1 << 56) - 1);
        let subnormal = f64::MIN_POSITIVE / 2.0;
        let times = [0.0, -0.0, subnormal, -subnormal, f64::MAX, -f64::MAX];
        for variant in 0..6 {
            for kind in ActivityKind::ALL {
                for (proc, arg) in [(0, 0), (0, u32::MAX), (u32::MAX, 0), (u32::MAX, u32::MAX)] {
                    for bytes in [0, Event::MAX_MESSAGE_BYTES] {
                        for time in times {
                            let payload = payload_of(variant, arg, kind, bytes);
                            check_packing(time, proc, payload).unwrap();
                        }
                    }
                }
            }
        }
    }

    fn extreme_u32() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0), Just(u32::MAX), 0..=u32::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn packing_round_trips_through_the_wire_record(
            variant in 0u8..6,
            (proc, arg) in (extreme_u32(), extreme_u32()),
            kind in (0usize..6).prop_map(|i| ActivityKind::ALL[i]),
            bytes in prop_oneof![Just(0), Just(Event::MAX_MESSAGE_BYTES), 0..=Event::MAX_MESSAGE_BYTES],
            time in (0..=u64::MAX).prop_map(f64::from_bits).prop_filter("finite", |t| t.is_finite()),
        ) {
            let payload = payload_of(variant, arg, kind, bytes);
            if let Err(failure) = check_packing(time, proc, payload) {
                prop_assert!(false, "{failure}");
            }
        }
    }

    #[test]
    fn oversized_operands_saturate_out_of_range() {
        let e = Event::message_send(0.0, 0, 1, u64::MAX);
        assert_eq!(
            e.payload(),
            EventPayload::MessageSend {
                peer: 1,
                bytes: Event::MAX_MESSAGE_BYTES
            }
        );
        // A region index no trace declares stays one.
        let mut b = TraceBuilder::new(1);
        b.add_region("m");
        b.push(Event::enter(0.0, 0, r(1 << 40)));
        assert!(matches!(
            b.build().unwrap().validate(),
            Err(TraceError::UnknownRegion { region }) if region == u32::MAX as usize
        ));
    }

    /// The cap, driven by count: no events are allocated.
    #[test]
    fn event_count_cap_is_a_named_error() {
        check_event_count(0, MAX_EVENTS).unwrap();
        check_event_count(MAX_EVENTS - 1, 1).unwrap();
        for (have, more, events) in [
            (MAX_EVENTS, 1, 1 << 32),
            (1, MAX_EVENTS, 1 << 32),
            (usize::MAX, 1, usize::MAX),
        ] {
            match check_event_count(have, more) {
                Err(TraceError::TooManyEvents { events: refused }) => assert_eq!(refused, events),
                other => panic!("{have} + {more} events: {other:?}"),
            }
        }
        let err = check_event_count(MAX_EVENTS, 1).unwrap_err().to_string();
        assert!(err.contains("4294967296 events exceeds"), "{err}");
    }
}
