//! The trace event model.

use limba_model::{ActivityKind, RegionId};

use crate::TraceError;

/// What happened at one instant on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventPayload {
    /// The processor entered a code region.
    EnterRegion {
        /// Dense region index.
        region: usize,
    },
    /// The processor left a code region.
    LeaveRegion {
        /// Dense region index.
        region: usize,
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
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A message arrived at this processor (counting parameter only).
    MessageRecv {
        /// Source processor.
        peer: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
}

/// One timestamped event of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Wall-clock time in seconds since program start.
    pub time: f64,
    /// Processor the event occurred on.
    pub proc: u32,
    /// What happened.
    pub payload: EventPayload,
}

impl Event {
    /// Region-enter event.
    pub fn enter(time: f64, proc: u32, region: RegionId) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::EnterRegion {
                region: region.index(),
            },
        }
    }

    /// Region-leave event.
    pub fn leave(time: f64, proc: u32, region: RegionId) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::LeaveRegion {
                region: region.index(),
            },
        }
    }

    /// Activity-begin event.
    pub fn begin_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::BeginActivity { kind },
        }
    }

    /// Activity-end event.
    pub fn end_activity(time: f64, proc: u32, kind: ActivityKind) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::EndActivity { kind },
        }
    }

    /// Message-send event.
    pub fn message_send(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::MessageSend { peer, bytes },
        }
    }

    /// Message-receive event.
    pub fn message_recv(time: f64, proc: u32, peer: u32, bytes: u64) -> Self {
        Event {
            time,
            proc,
            payload: EventPayload::MessageRecv { peer, bytes },
        }
    }
}

/// A complete tracefile: the processor count, the region name table, and
/// the event stream.
///
/// Events may be appended in any order; [`Trace::rank_order`] provides
/// the per-processor, time-ordered view reduction needs, and
/// [`Trace::validate`] checks structural well-formedness.
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
        self.validated_rank_order().map(drop)
    }

    /// [`Trace::validate`], handing back the rank-order index the
    /// per-rank checks walked so a reduction can walk the same one.
    pub(crate) fn validated_rank_order(&self) -> Result<RankOrder<'_>, TraceError> {
        for e in &self.events {
            if e.proc as usize >= self.processors {
                return Err(TraceError::UnknownProcessor { proc: e.proc });
            }
            match e.payload {
                EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                    if region >= self.region_names.len() =>
                {
                    return Err(TraceError::UnknownRegion { region });
                }
                _ => {}
            }
        }
        let regions = self.region_names.len();
        let order = self.rank_order();
        for (proc, events) in order.ranks() {
            let mut checker = RankChecker::new();
            for (_, e) in events {
                checker.step(proc, e, regions)?;
            }
            checker.finish(proc)?;
        }
        Ok(order)
    }
}

/// A borrowed rank-order index over a [`Trace`]'s events: every
/// processor's events in time order, as positions into
/// [`Trace::events`] rather than copies.
///
/// `order` holds one recording-order position per indexed event,
/// grouped by processor; processor `p`'s run is
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
    offsets: Vec<usize>,
    order: Vec<usize>,
}

impl<'a> RankOrder<'a> {
    fn new(trace: &'a Trace) -> Self {
        let events = trace.events.as_slice();
        let processors = trace.processors;
        // Pass 1: offsets[p] counts processor p's events, then becomes
        // the end of its run by an inclusive prefix sum.
        let mut offsets = vec![0usize; processors + 1];
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
        let mut order = vec![0usize; total];
        let mut next_time = vec![f64::INFINITY; processors];
        let mut unsorted = vec![false; processors];
        for (index, e) in events.iter().enumerate().rev() {
            let p = e.proc as usize;
            if let Some(slot) = offsets[..processors].get_mut(p) {
                *slot -= 1;
                order[*slot] = index;
                unsorted[p] |= e.time.total_cmp(&next_time[p]).is_gt();
                next_time[p] = e.time;
            }
        }
        // Stable, so simultaneous events keep recording order.
        for (run, unsorted) in offsets.windows(2).zip(unsorted) {
            if unsorted {
                order[run[0]..run[1]].sort_by(|&a, &b| events[a].time.total_cmp(&events[b].time));
            }
        }
        RankOrder {
            events,
            offsets,
            order,
        }
    }

    /// Number of processors indexed (the trace's declared count).
    pub fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Processor `proc`'s events in time order, each with its
    /// recording-order position in [`Trace::events`].
    ///
    /// # Panics
    ///
    /// When `proc` is not below [`RankOrder::processors`].
    pub fn rank(&self, proc: u32) -> impl ExactSizeIterator<Item = (usize, &'a Event)> + '_ {
        let events = self.events;
        let p = proc as usize;
        self.order[self.offsets[p]..self.offsets[p + 1]]
            .iter()
            .map(move |&index| (index, &events[index]))
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
/// The one validator — [`Trace::validate`] steps a checker over each
/// processor's time-sorted events, and the strict streaming folds
/// ([`ReduceSink`](crate::ReduceSink), [`WindowSink`](crate::WindowSink))
/// step one per rank as events arrive, so both reject exactly the same
/// malformed traces with the same errors — a crash-truncated trace
/// fails windowing identically on both paths.
///
/// Ordering caveat (the same one [`SalvageSink`](crate::SalvageSink)
/// documents): `validate` scans rank 0's whole stream before rank 1's,
/// so when *several* ranks are malformed it reports the lowest-ranked
/// violation; a streaming fold reports the first in recording order.
/// Truncation — the violation that actually occurs — only manifests at
/// end of stream, where the folds call [`RankChecker::finish`] in rank
/// order and report the identical error.
pub(crate) struct RankChecker {
    stack: Vec<usize>,
    activity: Option<ActivityKind>,
    last_time: f64,
}

impl RankChecker {
    pub(crate) fn new() -> Self {
        RankChecker {
            stack: Vec::new(),
            activity: None,
            last_time: f64::NEG_INFINITY,
        }
    }

    /// Checks the next event `e` of processor `proc` against a region
    /// table of `regions` entries.
    pub(crate) fn step(&mut self, proc: u32, e: &Event, regions: usize) -> Result<(), TraceError> {
        match e.payload {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                if region >= regions =>
            {
                return Err(TraceError::UnknownRegion { region });
            }
            _ => {}
        }
        if e.time < self.last_time {
            return Err(TraceError::NonMonotoneTime {
                proc,
                before: self.last_time,
                after: e.time,
            });
        }
        self.last_time = e.time;
        match e.payload {
            EventPayload::EnterRegion { region } => self.stack.push(region),
            EventPayload::LeaveRegion { region } => match self.stack.pop() {
                Some(top) if top == region => {}
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
    pub(crate) fn finish(&mut self, proc: u32) -> Result<(), TraceError> {
        if let Some(kind) = self.activity {
            return Err(TraceError::UnbalancedNesting {
                proc,
                detail: format!("activity {kind} still open at end of trace"),
            });
        }
        if let Some(region) = self.stack.pop() {
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
/// let trace = b.build();
/// assert_eq!(trace.processors(), 2);
/// assert_eq!(trace.events().len(), 2);
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

    /// Number of regions registered so far.
    pub fn region_count(&self) -> usize {
        self.region_names.len()
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalizes the trace (without validating; call
    /// [`Trace::validate`] separately when the source is untrusted).
    pub fn build(self) -> Trace {
        Trace {
            processors: self.processors,
            region_names: self.region_names,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        b.build()
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
        let t = b.build();
        let evs = t.events_by_processor(0);
        assert!(evs[0].time < evs[1].time);
    }

    #[test]
    fn detects_unknown_processor_and_region() {
        let mut b = TraceBuilder::new(1);
        let m = b.add_region("m");
        b.push(Event::enter(0.0, 5, m));
        assert!(matches!(
            b.build().validate(),
            Err(TraceError::UnknownProcessor { proc: 5 })
        ));

        let mut b = TraceBuilder::new(1);
        b.add_region("m");
        b.push(Event::enter(0.0, 0, r(3)));
        assert!(matches!(
            b.build().validate(),
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
        b.build().validate().unwrap();
    }

    #[test]
    fn detects_cross_region_leave() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let c = b.add_region("b");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::leave(1.0, 0, c));
        assert!(matches!(
            b.build().validate(),
            Err(TraceError::UnbalancedNesting { .. })
        ));
    }

    #[test]
    fn detects_leave_without_enter_and_open_region() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::leave(1.0, 0, a));
        assert!(b.build().validate().is_err());

        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(1.0, 0, a));
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn detects_activity_problems() {
        // Nested activities.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::begin_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // Mismatched end.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // End without begin.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::end_activity(0.2, 0, ActivityKind::Collective));
        assert!(b.build().validate().is_err());

        // Activity outside any region.
        let mut b = TraceBuilder::new(1);
        b.add_region("a");
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        assert!(b.build().validate().is_err());

        // Activity left open.
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::begin_activity(0.1, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(0.2, 0, a));
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn message_events_do_not_disturb_validation() {
        let mut b = TraceBuilder::new(2);
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::message_send(0.5, 0, 1, 1024));
        b.push(Event::leave(1.0, 0, a));
        b.push(Event::message_recv(0.7, 1, 0, 1024));
        b.build().validate().unwrap();
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
        let t = b.build();
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
        assert_eq!(b.len(), 2);
        b.build().validate().unwrap();
    }

    #[test]
    fn builder_len_and_empty() {
        let mut b = TraceBuilder::new(1);
        assert!(b.is_empty());
        let a = b.add_region("a");
        b.push(Event::enter(0.0, 0, a));
        assert_eq!(b.len(), 1);
    }
}
