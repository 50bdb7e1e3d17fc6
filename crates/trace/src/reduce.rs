//! Reduction of traces into measurement matrices.

use limba_model::{
    ActivityKind, ActivitySet, CountKind, CountMatrix, CountMatrixBuilder, Measurements,
    MeasurementsBuilder, RegionId, STANDARD_ACTIVITIES,
};

use crate::{Event, EventPayload, RankOrder, Trace, TraceError};

/// Result of reducing a trace: the timing matrix `t_ijp` and the message
/// counting parameters.
#[derive(Debug, Clone)]
pub struct ReducedTrace {
    /// Wall-clock times per (region, activity, processor).
    pub measurements: Measurements,
    /// Message counts and byte volumes per (region, count kind, processor).
    pub counts: CountMatrix,
}

/// One attributed event from the per-processor walk: either a time
/// interval spent in an activity of a region, or a message count.
///
/// Public so incremental consumers outside this crate (e.g. an online
/// imbalance detector driving a [`SalvageWalker`](crate::SalvageWalker)
/// per rank) can receive exactly the attributions the reductions fold —
/// same state machine, same arithmetic, byte-identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attribution {
    /// Time spent in one activity of one region.
    Interval {
        /// Region index the interval is attributed to.
        region: usize,
        /// Activity the interval belongs to.
        kind: ActivityKind,
        /// Interval start time.
        start: f64,
        /// Interval end time.
        end: f64,
    },
    /// A message-counting parameter observation.
    Count {
        /// Region index the count is attributed to.
        region: usize,
        /// Which counter the amount belongs to.
        kind: CountKind,
        /// Counted amount (messages or bytes).
        amount: f64,
        /// Timestamp of the observation.
        at: f64,
    },
}

/// The incremental per-processor attribution state machine behind
/// [`walk_processor`]: one event at a time via [`ProcWalker::step`], so
/// the batch reduction (which iterates a materialized slice) and the
/// streaming folds ([`crate::stream`], which see events as frames
/// arrive) share the exact attribution code — structural identity, not
/// merely tested equivalence.
///
/// Expects a well-formed, time-ordered stream (panics on malformed
/// input, shielded by validation on the batch path); the lenient
/// counterpart is `SalvageWalker`.
pub(crate) struct ProcWalker {
    stack: Vec<usize>,
    current: Option<(ActivityKind, f64)>,
    mark: f64,
}

impl ProcWalker {
    pub(crate) fn new() -> Self {
        ProcWalker {
            stack: Vec::new(),
            current: None,
            mark: 0.0,
        }
    }

    pub(crate) fn step<F: FnMut(Attribution)>(&mut self, e: &Event, sink: &mut F) {
        match e.payload {
            EventPayload::EnterRegion { region } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Interval {
                        region: top,
                        kind: ActivityKind::Computation,
                        start: self.mark,
                        end: e.time,
                    });
                }
                self.stack.push(region);
                self.mark = e.time;
            }
            EventPayload::LeaveRegion { region } => {
                sink(Attribution::Interval {
                    region,
                    kind: ActivityKind::Computation,
                    start: self.mark,
                    end: e.time,
                });
                self.stack.pop();
                self.mark = e.time;
            }
            EventPayload::BeginActivity { kind } => {
                let top = *self.stack.last().expect("validated: inside a region");
                sink(Attribution::Interval {
                    region: top,
                    kind: ActivityKind::Computation,
                    start: self.mark,
                    end: e.time,
                });
                self.current = Some((kind, e.time));
            }
            EventPayload::EndActivity { .. } => {
                let (kind, start) = self.current.take().expect("validated: activity open");
                let top = *self.stack.last().expect("validated: inside a region");
                sink(Attribution::Interval {
                    region: top,
                    kind,
                    start,
                    end: e.time,
                });
                self.mark = e.time;
            }
            EventPayload::MessageSend { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::MessagesSent,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::BytesSent,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
            EventPayload::MessageRecv { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::MessagesReceived,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: CountKind::BytesReceived,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
        }
    }
}

/// Records one rank's attributions into the full-run matrices, keeping
/// the first model error and ignoring everything after it. The one
/// place attribution meets the builders — the batch reductions and the
/// streaming folds all record through it, so their per-cell
/// accumulation sequences are identical by construction.
pub(crate) struct Tally<'a> {
    mb: &'a mut MeasurementsBuilder,
    cb: &'a mut CountMatrixBuilder,
    proc: usize,
    failure: Option<limba_model::ModelError>,
}

impl<'a> Tally<'a> {
    pub(crate) fn new(
        mb: &'a mut MeasurementsBuilder,
        cb: &'a mut CountMatrixBuilder,
        proc: u32,
    ) -> Self {
        Tally {
            mb,
            cb,
            proc: proc as usize,
            failure: None,
        }
    }

    pub(crate) fn record(&mut self, attribution: Attribution) {
        if self.failure.is_some() {
            return;
        }
        let result = match attribution {
            Attribution::Interval {
                region,
                kind,
                start,
                end,
            } => self
                .mb
                .record(RegionId::new(region), kind, self.proc, end - start),
            Attribution::Count {
                region,
                kind,
                amount,
                ..
            } => self
                .cb
                .record(RegionId::new(region), kind, self.proc, amount)
                .and(Ok(())),
        };
        self.failure = result.err();
    }

    /// The first model error recorded, if any.
    pub(crate) fn finish(self) -> Result<(), TraceError> {
        self.failure.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Walks one processor's (validated, time-sorted) events and emits
/// attributions. Time between explicit activity intervals counts as
/// computation; nested regions attribute to the innermost region.
pub(crate) fn walk_processor<'e, F: FnMut(Attribution)>(
    events: impl IntoIterator<Item = &'e Event>,
    mut sink: F,
) {
    let mut walker = ProcWalker::new();
    for e in events {
        walker.step(e, &mut sink);
    }
}

/// Folds one event into a running activity-kind list: the paper's
/// standard four are seeded by the caller, extras append in
/// first-appearance order. [`trace_activities`] folds a materialized
/// trace through this; the streaming scan ([`crate::stream`]) folds the
/// live event stream through the same function, and the full-run folds
/// grow a column at the same `BeginActivity` events, so all three
/// discover the identical [`ActivitySet`].
pub(crate) fn note_activity(kinds: &mut Vec<ActivityKind>, e: &Event) {
    if let EventPayload::BeginActivity { kind } = e.payload {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
}

/// The activity set of a trace: the paper's standard four plus whatever
/// else the trace actually used, in canonical order.
pub(crate) fn trace_activities(trace: &Trace) -> ActivitySet {
    let mut kinds: Vec<ActivityKind> = STANDARD_ACTIVITIES.to_vec();
    for e in trace.events() {
        note_activity(&mut kinds, e);
    }
    ActivitySet::new(kinds)
}

/// Reduces a validated trace to per-(region, activity, processor)
/// wall-clock times and message counts.
///
/// Attribution rules:
///
/// * time between explicit activity intervals, inside a region, counts as
///   [`ActivityKind::Computation`];
/// * nested regions attribute time to the *innermost* region;
/// * message events increment the counting parameters of the innermost
///   region at their timestamp.
///
/// # Errors
///
/// Returns validation errors (this function validates first) and model
/// errors should the trace encode invalid values.
pub fn reduce(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    let order = trace.validated_rank_order()?;
    reduce_ranks(trace, &order)
}

/// Reduces a trace that is well-formed *by construction* — e.g. one the
/// simulator just produced — skipping the structural validation pass
/// that [`reduce`] performs. Identical results on valid input, roughly
/// half the walk cost.
///
/// Feeding a malformed trace (unbalanced nesting, dangling activities)
/// is a logic error and may panic; route externally loaded traces
/// through [`reduce`] instead.
///
/// # Errors
///
/// Returns model errors should the trace encode invalid values.
pub fn reduce_well_formed(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    reduce_ranks(trace, &trace.rank_order())
}

fn reduce_ranks(trace: &Trace, order: &RankOrder<'_>) -> Result<ReducedTrace, TraceError> {
    let mut mb = MeasurementsBuilder::with_activities(trace.processors(), trace_activities(trace));
    for name in trace.region_names() {
        mb.add_region(name.clone());
    }
    let mut cb = CountMatrixBuilder::new(trace.processors());
    for (proc, events) in order.ranks() {
        let mut tally = Tally::new(&mut mb, &mut cb, proc);
        walk_processor(events.map(|(_, e)| e), |attribution| {
            tally.record(attribution)
        });
        tally.finish()?;
    }
    Ok(ReducedTrace {
        measurements: mb.build()?,
        counts: cb.build(),
    })
}

/// Reduces a validated trace into `windows` equal time slices of the
/// run's `[0, makespan]` span, attributing each interval proportionally
/// to the windows it overlaps (counts go to the window of their
/// timestamp). The per-window matrices let the analysis track how load
/// imbalance *evolves* over the execution.
///
/// # Errors
///
/// Returns a malformed-trace error when `windows` is zero or the trace
/// spans no time, plus the conditions of [`reduce`].
pub fn reduce_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    let order = trace.validated_rank_order()?;
    if windows == 0 {
        return Err(TraceError::Malformed {
            detail: "window count must be positive".into(),
        });
    }
    let makespan = trace.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
    if makespan <= 0.0 {
        return Err(TraceError::Malformed {
            detail: "trace spans no time, cannot window".into(),
        });
    }
    let width = makespan / windows as f64;
    let activities = trace_activities(trace);
    let mut builders: Vec<(MeasurementsBuilder, CountMatrixBuilder)> = (0..windows)
        .map(|_| {
            let mut mb =
                MeasurementsBuilder::with_activities(trace.processors(), activities.clone());
            for name in trace.region_names() {
                mb.add_region(name.clone());
            }
            (mb, CountMatrixBuilder::new(trace.processors()))
        })
        .collect();
    let mut failure: Option<TraceError> = None;
    for (proc, events) in order.ranks() {
        walk_processor(events.map(|(_, e)| e), |attribution| {
            if failure.is_some() {
                return;
            }
            if let Err(e) = scatter_windowed(&mut builders, width, proc, attribution) {
                failure = Some(e.into());
            }
        });
    }
    if let Some(e) = failure {
        return Err(e);
    }
    builders
        .into_iter()
        .map(|(mb, cb)| {
            Ok(ReducedTrace {
                measurements: mb.build()?,
                counts: cb.build(),
            })
        })
        .collect()
}

/// Scatters one attribution over the window builders: intervals split
/// proportionally across every window they overlap, counts land in the
/// window of their timestamp. Shared verbatim by [`reduce_windows`] and
/// the streaming window fold ([`crate::stream`]), so the two paths
/// perform the identical floating-point splits in the identical order.
pub(crate) fn scatter_windowed(
    builders: &mut [(MeasurementsBuilder, CountMatrixBuilder)],
    width: f64,
    proc: u32,
    attribution: Attribution,
) -> Result<(), limba_model::ModelError> {
    let windows = builders.len();
    let clamp_window = |t: f64| -> usize { ((t / width) as usize).min(windows - 1) };
    match attribution {
        Attribution::Interval {
            region,
            kind,
            start,
            end,
        } => {
            let (first, last) = (clamp_window(start), clamp_window(end));
            let mut res = Ok(());
            for (w, builder) in builders.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = start.max(w as f64 * width);
                let hi = end.min((w + 1) as f64 * width);
                if hi > lo {
                    res = res.and(builder.0.record(
                        RegionId::new(region),
                        kind,
                        proc as usize,
                        hi - lo,
                    ));
                }
            }
            res
        }
        Attribution::Count {
            region,
            kind,
            amount,
            at,
        } => builders[clamp_window(at)]
            .1
            .record(RegionId::new(region), kind, proc as usize, amount)
            .and(Ok(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TraceBuilder};
    use limba_model::ProcessorId;

    #[test]
    fn gap_time_is_computation() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(2.0, 0, ActivityKind::PointToPoint));
        b.push(Event::end_activity(3.0, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(5.0, 0, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let p = ProcessorId::new(0);
        assert!((m.time(r, ActivityKind::Computation, p) - 4.0).abs() < 1e-12);
        assert!((m.time(r, ActivityKind::PointToPoint, p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_regions_attribute_to_innermost() {
        let mut b = TraceBuilder::new(1);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        b.push(Event::enter(0.0, 0, outer));
        b.push(Event::enter(1.0, 0, inner));
        b.push(Event::leave(3.0, 0, inner));
        b.push(Event::leave(4.0, 0, outer));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let p = ProcessorId::new(0);
        assert!((m.time(outer, ActivityKind::Computation, p) - 2.0).abs() < 1e-12);
        assert!((m.time(inner, ActivityKind::Computation, p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_entries_accumulate() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        for i in 0..3 {
            let t0 = i as f64 * 10.0;
            b.push(Event::enter(t0, 0, r));
            b.push(Event::leave(t0 + 2.0, 0, r));
        }
        let red = reduce(&b.build()).unwrap();
        let t = red
            .measurements
            .time(r, ActivityKind::Computation, ProcessorId::new(0));
        assert!((t - 6.0).abs() < 1e-12);
    }

    #[test]
    fn message_counts_attributed_to_region() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::message_send(0.5, 0, 1, 100));
        b.push(Event::message_send(0.6, 0, 1, 200));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::message_recv(0.8, 1, 0, 300));
        b.push(Event::leave(1.0, 1, r));
        let red = reduce(&b.build()).unwrap();
        let c = &red.counts;
        assert_eq!(
            c.count(r, CountKind::MessagesSent, ProcessorId::new(0)),
            2.0
        );
        assert_eq!(c.count(r, CountKind::BytesSent, ProcessorId::new(0)), 300.0);
        assert_eq!(
            c.count(r, CountKind::MessagesReceived, ProcessorId::new(1)),
            1.0
        );
        assert_eq!(
            c.count(r, CountKind::BytesReceived, ProcessorId::new(1)),
            300.0
        );
    }

    #[test]
    fn non_standard_activity_kinds_extend_the_set() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Io));
        b.push(Event::end_activity(1.5, 0, ActivityKind::Io));
        b.push(Event::leave(2.0, 0, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        assert!(m.activities().contains(ActivityKind::Io));
        assert!((m.time(r, ActivityKind::Io, ProcessorId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn well_formed_fast_path_matches_checked_reduction() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2u32 {
            b.push(Event::enter(0.0, p, r));
            b.push(Event::begin_activity(1.0, p, ActivityKind::PointToPoint));
            b.push(Event::end_activity(
                1.5 + p as f64,
                p,
                ActivityKind::PointToPoint,
            ));
            b.push(Event::message_send(1.2, p, 1 - p, 64));
            b.push(Event::leave(3.0 + p as f64, p, r));
        }
        let trace = b.build();
        let checked = reduce(&trace).unwrap();
        let fast = reduce_well_formed(&trace).unwrap();
        assert_eq!(checked.measurements, fast.measurements);
        assert_eq!(checked.counts, fast.counts);
    }

    #[test]
    fn invalid_trace_is_rejected() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        assert!(reduce(&b.build()).is_err());
    }

    #[test]
    fn two_processors_fill_their_own_columns() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::leave(3.0, 1, r));
        let red = reduce(&b.build()).unwrap();
        let m = &red.measurements;
        let s = m.processor_slice(r, ActivityKind::Computation).unwrap();
        assert_eq!(s, &[1.0, 3.0]);
    }

    #[test]
    fn windows_partition_time_exactly() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(3.0, 0, ActivityKind::Collective));
        b.push(Event::end_activity(7.0, 0, ActivityKind::Collective));
        b.push(Event::leave(10.0, 0, r));
        let trace = b.build();
        let windows = reduce_windows(&trace, 4).unwrap();
        assert_eq!(windows.len(), 4);
        let p = ProcessorId::new(0);
        // Window width 2.5. Computation [0,3]∪[7,10]; collective [3,7].
        let comp: Vec<f64> = windows
            .iter()
            .map(|w| w.measurements.time(r, ActivityKind::Computation, p))
            .collect();
        let coll: Vec<f64> = windows
            .iter()
            .map(|w| w.measurements.time(r, ActivityKind::Collective, p))
            .collect();
        assert!((comp[0] - 2.5).abs() < 1e-12);
        assert!((comp[1] - 0.5).abs() < 1e-12);
        assert!((comp[3] - 2.5).abs() < 1e-12);
        assert!((coll[1] - 2.0).abs() < 1e-12);
        assert!((coll[2] - 2.0).abs() < 1e-12);
        // The windows sum back to the unwindowed reduction.
        let total: f64 = comp.iter().sum::<f64>() + coll.iter().sum::<f64>();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn window_sums_match_full_reduction_for_multiproc_traces() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2u32 {
            b.push(Event::enter(0.0, p, r));
            b.push(Event::message_send(1.0 + p as f64, p, 1 - p, 64));
            b.push(Event::leave(4.0 + p as f64, p, r));
        }
        let trace = b.build();
        let full = reduce(&trace).unwrap();
        let windows = reduce_windows(&trace, 3).unwrap();
        for p in 0..2 {
            let pid = ProcessorId::new(p);
            let summed: f64 = windows
                .iter()
                .map(|w| w.measurements.time(r, ActivityKind::Computation, pid))
                .sum();
            let direct = full.measurements.time(r, ActivityKind::Computation, pid);
            assert!((summed - direct).abs() < 1e-12);
            let msgs: f64 = windows
                .iter()
                .map(|w| w.counts.count(r, CountKind::MessagesSent, pid))
                .sum();
            assert_eq!(msgs, full.counts.count(r, CountKind::MessagesSent, pid));
        }
    }

    #[test]
    fn degenerate_window_requests_rejected() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        let trace = b.build();
        assert!(reduce_windows(&trace, 0).is_err());

        // Zero-span trace cannot be windowed.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(0.0, 0, r));
        assert!(reduce_windows(&b.build(), 2).is_err());
    }
}
