//! Reduction of traces into measurement matrices.
//!
//! Every reduction is one [`Fold`]: the tables it fills, a per-event
//! step and an end-of-rank step. The per-rank state is a value the
//! driver holds, and two drivers run a fold. The sinks of
//! [`crate::stream`] step it in recording order as events arrive, with
//! one rank state per declared processor. The batch entry points —
//! [`reduce`], [`reduce_windows`], [`reduce_checked`](crate::reduce_checked)
//! and [`region_parents`](crate::region_parents) — [`replay`] a
//! materialized trace's [`RankOrder`] into it, so only one rank's state
//! is alive at a time. Each rank's events reach the same state machine
//! in the same order on both drivers, and every matrix cell belongs to
//! one rank, so the two drivers' results are bit-identical.

use limba_model::{
    ActivityKind, ActivitySet, CountKind, CountMatrix, CountMatrixBuilder, Measurements,
    MeasurementsBuilder, ModelError, RegionId, STANDARD_ACTIVITIES,
};

use crate::event::RankChecker;
use crate::salvage::SalvageFold;
use crate::{Event, EventPayload, RankOrder, SalvageWalker, Trace, TraceError};

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
/// imbalance detector tapping a [`SalvageSink`](crate::SalvageSink)
/// through an [`AttributionTap`](crate::AttributionTap)) receive
/// exactly the attributions the reductions fold — same state machine,
/// same arithmetic, byte-identical results.
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

/// One reduction, stepped one event at a time by a driver that holds
/// its per-rank state (see the [module docs](self)).
pub(crate) trait Fold {
    /// Per-rank state: made by [`rank`](Fold::rank), fed the rank's
    /// events by [`step`](Fold::step), consumed by
    /// [`end_rank`](Fold::end_rank).
    type Rank;
    /// What [`finish`](Fold::finish) produces.
    type Output;

    /// Fresh state for processor `proc`.
    fn rank(&self, proc: u32) -> Self::Rank;

    /// Folds the rank's next event `e`, in time order; `index` is its
    /// recording-order position, which errors name.
    fn step(&mut self, rank: &mut Self::Rank, index: usize, e: &Event) -> Result<(), TraceError>;

    /// Ends the rank: none of its events follow.
    fn end_rank(&mut self, rank: Self::Rank) -> Result<(), TraceError>;

    /// Meets event `index`, which names a processor outside the
    /// declared `processors`. Only a sink meets one: the batch entry
    /// points reject such traces before they replay. The default fails
    /// with [`TraceError::UnknownProcessor`].
    fn stray(&mut self, index: usize, e: &Event, processors: usize) -> Result<(), TraceError> {
        let _ = (index, processors);
        Err(TraceError::UnknownProcessor { proc: e.proc })
    }

    /// The result, once every rank has ended.
    fn finish(self) -> Result<Self::Output, TraceError>;
}

/// The batch driver: each rank's events in time order, ascending by
/// rank. One rank's state is created, stepped, ended and dropped
/// before the next rank's is created.
pub(crate) fn replay<F: Fold>(order: &RankOrder<'_>, mut fold: F) -> Result<F::Output, TraceError> {
    for (proc, events) in order.ranks() {
        let mut rank = fold.rank(proc);
        for (index, e) in events {
            fold.step(&mut rank, index, e)?;
        }
        fold.end_rank(rank)?;
    }
    fold.finish()
}

/// `F` with every rank validated as it walks: each event passes its
/// rank's [`RankChecker`] before `F` steps it, and the rank's end check
/// runs before `F` ends it. The strict reductions are checked folds. A
/// rank that passes its end check has nothing open, so the walker's
/// truncation repair emits nothing for it.
pub(crate) struct Checked<F> {
    fold: F,
    regions: usize,
}

impl<F> Checked<F> {
    /// Checks every rank against a table of `regions` regions.
    pub(crate) fn new(fold: F, regions: usize) -> Self {
        Checked { fold, regions }
    }
}

impl<F: Fold> Fold for Checked<F> {
    type Rank = (RankChecker, F::Rank);
    type Output = F::Output;

    fn rank(&self, proc: u32) -> Self::Rank {
        (RankChecker::new(proc), self.fold.rank(proc))
    }

    fn step(&mut self, rank: &mut Self::Rank, index: usize, e: &Event) -> Result<(), TraceError> {
        let (checker, rank) = rank;
        checker.step(e, self.regions)?;
        self.fold.step(rank, index, e)
    }

    fn end_rank(&mut self, (checker, rank): Self::Rank) -> Result<(), TraceError> {
        checker.finish()?;
        self.fold.end_rank(rank)
    }

    fn finish(self) -> Result<F::Output, TraceError> {
        self.fold.finish()
    }
}

/// A fresh measurement and count builder pair for one full-run or
/// per-window matrix.
pub(crate) fn builders(
    processors: usize,
    region_names: &[String],
    activities: ActivitySet,
) -> (MeasurementsBuilder, CountMatrixBuilder) {
    let mut mb = MeasurementsBuilder::with_activities(processors, activities);
    for name in region_names {
        mb.add_region(name.clone());
    }
    (mb, CountMatrixBuilder::new(processors))
}

/// Builds a filled builder pair.
pub(crate) fn build(
    (mb, cb): (MeasurementsBuilder, CountMatrixBuilder),
) -> Result<ReducedTrace, TraceError> {
    Ok(ReducedTrace {
        measurements: mb.build()?,
        counts: cb.build(),
    })
}

/// Folds one event into a running activity-kind list: the paper's
/// standard four are seeded by the caller, extras append in
/// first-appearance order. [`trace_activities`] folds a materialized
/// trace through this; the streaming scan ([`crate::stream`]) folds the
/// live event stream through the same function, and the full-run folds
/// grow a column at the same `BeginActivity` events, so all three
/// discover the identical [`ActivitySet`].
pub(crate) fn note_activity(kinds: &mut Vec<ActivityKind>, e: &Event) {
    if let EventPayload::BeginActivity { kind } = e.payload() {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
}

/// The activity set of a trace: the paper's standard four plus whatever
/// else the trace actually used, in canonical order. The batch entry
/// points seed the full-run folds with it: the folds grow a column at
/// each new `BeginActivity`, and a rank-order replay meets those in a
/// different order than the recording.
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
/// Returns validation errors (the walk validates each rank as it goes,
/// reporting what [`Trace::validate`] reports) and model errors should
/// the trace encode invalid values.
pub fn reduce(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    trace.check_indices()?;
    let fold = SalvageFold::new(
        trace.processors(),
        trace.region_names(),
        trace_activities(trace),
    );
    let regions = trace.region_names().len();
    Ok(replay(&trace.rank_order(), Checked::new(fold, regions))?.reduced)
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
/// spans no time, plus the conditions of [`reduce`]; a validation error
/// comes first.
pub fn reduce_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    trace.check_indices()?;
    let makespan = trace.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
    let width = window_width(windows, makespan);
    if width.is_err() {
        // A malformed trace reports that before a degenerate request.
        trace.validate()?;
    }
    let fold = WindowFold::new(
        windows,
        width?,
        trace.processors(),
        trace.region_names(),
        trace_activities(trace),
    );
    let regions = trace.region_names().len();
    replay(&trace.rank_order(), Checked::new(fold, regions))
}

/// The width of each of `windows` equal slices of `[0, makespan]`.
///
/// # Errors
///
/// A malformed-trace error for zero windows or a run spanning no time.
pub(crate) fn window_width(windows: usize, makespan: f64) -> Result<f64, TraceError> {
    let malformed = |detail: &str| TraceError::Malformed {
        detail: detail.into(),
    };
    if windows == 0 {
        return Err(malformed("window count must be positive"));
    }
    if makespan <= 0.0 {
        return Err(malformed("trace spans no time, cannot window"));
    }
    Ok(makespan / windows as f64)
}

/// The windowed reduction as a fold: one builder pair per window, fixed
/// activity columns, a [`SalvageWalker`] per rank. Intervals split
/// proportionally across every window they overlap; counts land in the
/// window of their timestamp. The first model error is kept and
/// reported by [`finish`](Fold::finish).
pub(crate) struct WindowFold {
    windows: Vec<(MeasurementsBuilder, CountMatrixBuilder)>,
    width: f64,
    regions: usize,
    failure: Option<ModelError>,
}

impl WindowFold {
    /// `windows` slices of `width` seconds over a trace of `processors`
    /// ranks and `region_names`, with `activities` as the columns.
    pub(crate) fn new(
        windows: usize,
        width: f64,
        processors: usize,
        region_names: &[String],
        activities: ActivitySet,
    ) -> Self {
        WindowFold {
            windows: (0..windows)
                .map(|_| builders(processors, region_names, activities.clone()))
                .collect(),
            width,
            regions: region_names.len(),
            failure: None,
        }
    }

    fn scatter(&mut self, proc: u32, attribution: Attribution) {
        if self.failure.is_none() {
            self.failure = self.try_scatter(proc as usize, attribution).err();
        }
    }

    fn try_scatter(&mut self, proc: usize, attribution: Attribution) -> Result<(), ModelError> {
        let width = self.width;
        let top = self.windows.len() - 1;
        let window = |t: f64| ((t / width) as usize).min(top);
        match attribution {
            Attribution::Interval {
                region,
                kind,
                start,
                end,
            } => {
                let (first, last) = (window(start), window(end));
                let mut res = Ok(());
                for (w, (mb, _)) in self
                    .windows
                    .iter_mut()
                    .enumerate()
                    .take(last + 1)
                    .skip(first)
                {
                    let lo = start.max(w as f64 * width);
                    let hi = end.min((w + 1) as f64 * width);
                    if hi > lo {
                        res = res.and(mb.record(RegionId::new(region), kind, proc, hi - lo));
                    }
                }
                res
            }
            Attribution::Count {
                region,
                kind,
                amount,
                at,
            } => self.windows[window(at)]
                .1
                .record(RegionId::new(region), kind, proc, amount)
                .and(Ok(())),
        }
    }
}

impl Fold for WindowFold {
    type Rank = SalvageWalker;
    type Output = Vec<ReducedTrace>;

    fn rank(&self, proc: u32) -> SalvageWalker {
        SalvageWalker::new(proc, self.regions)
    }

    fn step(
        &mut self,
        walker: &mut SalvageWalker,
        index: usize,
        e: &Event,
    ) -> Result<(), TraceError> {
        walker.step(index, e, &mut |a| self.scatter(e.proc, a))
    }

    fn end_rank(&mut self, walker: SalvageWalker) -> Result<(), TraceError> {
        let proc = walker.proc();
        walker.finish(&mut |a| self.scatter(proc, a));
        Ok(())
    }

    fn finish(self) -> Result<Vec<ReducedTrace>, TraceError> {
        if let Some(e) = self.failure {
            return Err(e.into());
        }
        self.windows.into_iter().map(build).collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

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
        let red = reduce(&b.build().unwrap()).unwrap();
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
        let red = reduce(&b.build().unwrap()).unwrap();
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
        let red = reduce(&b.build().unwrap()).unwrap();
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
        let red = reduce(&b.build().unwrap()).unwrap();
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
        let red = reduce(&b.build().unwrap()).unwrap();
        let m = &red.measurements;
        assert!(m.activities().contains(ActivityKind::Io));
        assert!((m.time(r, ActivityKind::Io, ProcessorId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_trace_is_rejected() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        assert!(reduce(&b.build().unwrap()).is_err());
    }

    #[test]
    fn two_processors_fill_their_own_columns() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::leave(3.0, 1, r));
        let red = reduce(&b.build().unwrap()).unwrap();
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
        let trace = b.build().unwrap();
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
        let trace = b.build().unwrap();
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
        let trace = b.build().unwrap();
        assert!(reduce_windows(&trace, 0).is_err());

        // Zero-span trace cannot be windowed.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(0.0, 0, r));
        assert!(reduce_windows(&b.build().unwrap(), 2).is_err());
    }
}
