//! Graceful reduction of partial traces.
//!
//! A crashed or interrupted rank (see `limba-mpisim`'s fault injection)
//! leaves a *truncated* event stream: a well-formed prefix whose regions
//! and activities may still be open when the recording stops. The strict
//! [`reduce`](crate::reduce) path rejects such traces outright;
//! [`reduce_checked`] instead distinguishes truncation damage — which it
//! repairs by closing whatever is open at the rank's last recorded
//! timestamp — from genuine corruption, which it reports as a structured
//! [`TraceError::MalformedEvent`] naming the offending event's
//! recording-order index and processor.
//!
//! The result is a [`SalvagedTrace`]: the ordinary [`ReducedTrace`] plus
//! per-rank [`RankCoverage`] records, so downstream imbalance views can
//! flag the ranks whose measurements are incomplete instead of silently
//! comparing full columns against truncated ones.
//!
//! The salvaged reduction is one fold, `SalvageFold`: [`reduce_checked`]
//! replays a materialized trace into it one rank at a time, and
//! [`SalvageSink`](crate::SalvageSink) steps it in recording order. The
//! strict [`reduce`](crate::reduce) is the same fold with every rank
//! validated as it walks. An [`AttributionTap`] sees every attribution
//! the fold records, so a live consumer (`limba-serve`'s online
//! detector) bins the same intervals the matrices get without stepping
//! a second walker per rank; the default tap `()` compiles to nothing.

use limba_model::{
    ActivityKind, ActivitySet, CountMatrixBuilder, MeasurementsBuilder, ModelError, RegionId,
};

use crate::reduce::{build, builders, replay, trace_activities, Attribution, Fold, ReducedTrace};
use crate::{Event, EventPayload, Trace, TraceError};

/// How much of one processor's stream survived into the reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankCoverage {
    /// The processor this record describes.
    pub proc: u32,
    /// Number of events the processor recorded.
    pub events: usize,
    /// `true` when the stream ended cleanly (no open regions or
    /// activities) — the rank's measurements are trustworthy.
    pub complete: bool,
    /// Regions still open when the stream ended (truncation depth).
    pub open_regions: usize,
    /// `true` when an activity was still open at the end of the stream.
    pub open_activity: bool,
    /// Timestamp of the processor's last event (`0.0` when it recorded
    /// none) — for a truncated rank, how far its data reaches.
    pub last_time: f64,
}

/// A reduction annotated with per-rank coverage: the output of
/// [`reduce_checked`].
#[derive(Debug, Clone)]
pub struct SalvagedTrace {
    /// The measurement and count matrices, with truncated ranks closed
    /// out at their last recorded timestamp.
    pub reduced: ReducedTrace,
    /// One coverage record per processor, ascending.
    pub coverage: Vec<RankCoverage>,
}

impl SalvagedTrace {
    /// `true` when every rank's stream ended cleanly — the reduction is
    /// identical to what strict [`reduce`](crate::reduce) produces.
    pub fn is_complete(&self) -> bool {
        self.coverage.iter().all(|c| c.complete)
    }

    /// Ranks whose streams were truncated, ascending.
    pub fn incomplete_ranks(&self) -> Vec<u32> {
        self.coverage
            .iter()
            .filter(|c| !c.complete)
            .map(|c| c.proc)
            .collect()
    }
}

/// Reduces a possibly-truncated trace, salvaging what validates as a
/// well-formed prefix and annotating every rank with its coverage.
///
/// Truncation damage — regions or activities still open when a rank's
/// stream ends — is repaired by attributing the open spans up to the
/// rank's last recorded timestamp and flagging the rank as incomplete.
/// Attribution otherwise follows [`reduce`](crate::reduce) exactly, and
/// on a fully well-formed trace the reduction is identical to the strict
/// path with every rank marked complete.
///
/// # Errors
///
/// Returns [`TraceError::MalformedEvent`] — naming the offending event's
/// recording-order index and processor — for damage no truncation can
/// explain: out-of-range processor or region indices, region leaves that
/// do not match the innermost open region, activity begins outside any
/// region or inside another activity, and activity ends that never
/// began. Model errors surface as [`TraceError::Model`].
pub fn reduce_checked(trace: &Trace) -> Result<SalvagedTrace, TraceError> {
    // Defense in depth behind the decoders' header caps: the
    // per-processor tables below are sized from `trace.processors()`, a
    // declared count with no per-entry bytes behind it, so never let an
    // unbounded value through even if a new ingestion path forgets the
    // check.
    crate::stream::check_processors(trace.processors())?;
    // The rank-order index leaves out-of-range processors out; report
    // the first one in recording order before walking any rank.
    let processors = trace.processors();
    let mut indexed = trace.events().iter().enumerate();
    if let Some((index, e)) = indexed.find(|(_, e)| e.proc as usize >= processors) {
        return Err(stray_processor(index, e, processors));
    }
    let fold = SalvageFold::new(processors, trace.region_names(), trace_activities(trace));
    replay(&trace.rank_order(), fold)
}

/// The salvaged reduction's error for event `index`, which names a
/// processor outside the declared `processors`.
fn stray_processor(index: usize, e: &Event, processors: usize) -> TraceError {
    TraceError::MalformedEvent {
        proc: e.proc,
        index,
        detail: format!("references processor {}, trace has {processors}", e.proc),
    }
}

/// A consumer of the salvage fold's attributions: called once for each
/// [`Attribution`] the fold records, with the rank it belongs to, in the
/// order the fold records them (each rank's in time order, truncation
/// repair at the rank's end). The fold calls it statically, so the unit
/// tap `()` costs nothing.
pub trait AttributionTap {
    /// Receives one attribution of rank `proc`.
    fn attribution(&mut self, proc: u32, attribution: Attribution);
}

/// The no-op tap of every untapped salvage fold.
impl AttributionTap for () {
    #[inline(always)]
    fn attribution(&mut self, _proc: u32, _attribution: Attribution) {}
}

/// The salvaged reduction as a fold: full-run matrices, a
/// [`SalvageWalker`] per rank, and a [`RankCoverage`] record per ended
/// rank. Its activity columns start from a seed set and grow at each
/// `BeginActivity` of a kind they lack, so a stream seeded with the
/// standard four gets the columns a scan would have found, in
/// first-appearance order. The first model error is kept and reported
/// by [`finish`](Fold::finish). Every attribution also goes to the
/// tap `T`, model error or not.
pub(crate) struct SalvageFold<T = ()> {
    mb: MeasurementsBuilder,
    cb: CountMatrixBuilder,
    regions: usize,
    coverage: Vec<RankCoverage>,
    failure: Option<ModelError>,
    tap: T,
}

impl SalvageFold {
    /// The fold over `processors` ranks and `region_names`, with
    /// `activities` as its seed columns.
    pub(crate) fn new(processors: usize, region_names: &[String], activities: ActivitySet) -> Self {
        SalvageFold::with_tap(processors, region_names, activities, ())
    }
}

impl<T: AttributionTap> SalvageFold<T> {
    /// [`SalvageFold::new`], with every attribution also going to `tap`.
    pub(crate) fn with_tap(
        processors: usize,
        region_names: &[String],
        activities: ActivitySet,
        tap: T,
    ) -> Self {
        let (mb, cb) = builders(processors, region_names, activities);
        SalvageFold {
            mb,
            cb,
            regions: region_names.len(),
            coverage: Vec::with_capacity(processors),
            failure: None,
            tap,
        }
    }

    /// The tap.
    pub(crate) fn tap_mut(&mut self) -> &mut T {
        &mut self.tap
    }

    fn record(&mut self, proc: u32, attribution: Attribution) {
        self.tap.attribution(proc, attribution);
        if self.failure.is_some() {
            return;
        }
        let proc = proc as usize;
        self.failure = match attribution {
            Attribution::Interval {
                region,
                kind,
                start,
                end,
            } => self
                .mb
                .record(RegionId::new(region), kind, proc, end - start),
            Attribution::Count {
                region,
                kind,
                amount,
                ..
            } => self
                .cb
                .record(RegionId::new(region), kind, proc, amount)
                .map(drop),
        }
        .err();
    }
}

impl<T: AttributionTap> Fold for SalvageFold<T> {
    type Rank = SalvageWalker;
    type Output = SalvagedTrace;

    fn rank(&self, proc: u32) -> SalvageWalker {
        SalvageWalker::new(proc, self.regions)
    }

    fn step(
        &mut self,
        walker: &mut SalvageWalker,
        index: usize,
        e: &Event,
    ) -> Result<(), TraceError> {
        // A sink cannot sort, so each rank's events must arrive in time
        // order (every in-repo writer's order); a replay's always do.
        if walker.events > 0 && e.time < walker.last_time {
            return Err(TraceError::NonMonotoneTime {
                proc: e.proc,
                before: walker.last_time,
                after: e.time,
            });
        }
        if let EventPayload::BeginActivity { kind } = e.payload() {
            self.mb.add_activity(kind);
        }
        walker.step(index, e, &mut |a| self.record(e.proc, a))
    }

    fn end_rank(&mut self, walker: SalvageWalker) -> Result<(), TraceError> {
        let proc = walker.proc();
        let coverage = walker.finish(&mut |a| self.record(proc, a));
        self.coverage.push(coverage);
        Ok(())
    }

    fn stray(&mut self, index: usize, e: &Event, processors: usize) -> Result<(), TraceError> {
        Err(stray_processor(index, e, processors))
    }

    fn finish(self) -> Result<SalvagedTrace, TraceError> {
        if let Some(e) = self.failure {
            return Err(e.into());
        }
        Ok(SalvagedTrace {
            reduced: build((self.mb, self.cb))?,
            coverage: self.coverage,
        })
    }
}

/// The incremental per-rank attribution state machine behind every
/// reduction: one event at a time via [`SalvageWalker::step`],
/// truncation repair and the coverage record on
/// [`SalvageWalker::finish`]. It is the per-rank state of the salvaged
/// and windowed folds, so the same code attributes on every path, batch
/// or streamed, strict or salvaging, and their outputs are identical by
/// construction, not merely by test. On the strict paths
/// ([`reduce`](crate::reduce()) and its fold counterparts) a checker
/// validates each event just before the walker steps it, and the
/// rank's end check runs before `finish`, which then has nothing to
/// close.
///
/// Public so incremental consumers outside this crate can attribute
/// with the same state machine, and so a [`SalvageSink`](crate::SalvageSink)
/// can lend its walkers out read-only (`limba-serve`'s online detector
/// reads [`computation_since`](SalvageWalker::computation_since) there).
pub struct SalvageWalker {
    proc: u32,
    regions: usize,
    stack: Vec<usize>,
    /// Open activity: kind, start time, and the innermost region at its
    /// begin — the fallback attribution target when the region closes
    /// before the activity does.
    current: Option<(ActivityKind, f64, usize)>,
    mark: f64,
    last_time: f64,
    events: usize,
}

impl SalvageWalker {
    /// Creates a walker for one rank of a trace declaring `regions`
    /// regions.
    pub fn new(proc: u32, regions: usize) -> Self {
        SalvageWalker {
            proc,
            regions,
            stack: Vec::new(),
            current: None,
            mark: 0.0,
            last_time: 0.0,
            events: 0,
        }
    }

    /// The rank this walker attributes for.
    pub fn proc(&self) -> u32 {
        self.proc
    }

    /// The start of the computation interval the rank has open (inside
    /// a region, outside any activity), if any. A message event moves
    /// the rank's clock but not this start, so a consumer binning
    /// computation by time must not treat a window as final for the
    /// rank before this point.
    pub fn computation_since(&self) -> Option<f64> {
        (self.current.is_none() && !self.stack.is_empty()).then_some(self.mark)
    }

    /// Feeds the rank's next event (in time order), emitting any
    /// attributions it completes into `sink`. `index` is the event's
    /// recording-order position, used only to name offenders in errors.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::MalformedEvent`] for structural damage no
    /// truncation can explain (see [`reduce_checked`]).
    pub fn step<F: FnMut(Attribution)>(
        &mut self,
        index: usize,
        e: &Event,
        sink: &mut F,
    ) -> Result<(), TraceError> {
        let proc = self.proc;
        let regions = self.regions;
        let malformed = |index: usize, detail: String| TraceError::MalformedEvent {
            proc,
            index,
            detail,
        };
        let check_region = |index: usize, verb: &str, region: usize| {
            if region >= regions {
                Err(malformed(
                    index,
                    format!("{verb} unknown region {region}, trace declares {regions}"),
                ))
            } else {
                Ok(())
            }
        };
        self.events += 1;
        self.last_time = e.time;
        match e.payload() {
            EventPayload::EnterRegion { region } => {
                let region = region as usize;
                check_region(index, "enters", region)?;
                // Inside an open activity the activity's own interval
                // covers this time, and `mark` moves at its end.
                if self.current.is_none() {
                    if let Some(&top) = self.stack.last() {
                        sink(Attribution::Interval {
                            region: top,
                            kind: ActivityKind::Computation,
                            start: self.mark,
                            end: e.time,
                        });
                    }
                    self.mark = e.time;
                }
                self.stack.push(region);
            }
            EventPayload::LeaveRegion { region } => {
                let region = region as usize;
                check_region(index, "leaves", region)?;
                match self.stack.last() {
                    Some(&top) if top == region => {}
                    Some(&top) => {
                        return Err(malformed(
                            index,
                            format!("leaves region {region} while region {top} is innermost"),
                        ))
                    }
                    None => {
                        return Err(malformed(
                            index,
                            format!("leaves region {region} that was never entered"),
                        ))
                    }
                }
                if self.current.is_none() {
                    sink(Attribution::Interval {
                        region,
                        kind: ActivityKind::Computation,
                        start: self.mark,
                        end: e.time,
                    });
                    self.mark = e.time;
                }
                self.stack.pop();
            }
            EventPayload::BeginActivity { kind } => {
                if let Some((open, _, _)) = self.current {
                    return Err(malformed(
                        index,
                        format!("begins {kind} while {open} is still open"),
                    ));
                }
                let Some(&top) = self.stack.last() else {
                    return Err(malformed(
                        index,
                        format!("begins {kind} outside any region"),
                    ));
                };
                sink(Attribution::Interval {
                    region: top,
                    kind: ActivityKind::Computation,
                    start: self.mark,
                    end: e.time,
                });
                self.current = Some((kind, e.time, top));
            }
            EventPayload::EndActivity { kind } => {
                let Some((open, start, begun_in)) = self.current.take() else {
                    return Err(malformed(index, format!("ends {kind} that never began")));
                };
                // The interval goes to the innermost region at end
                // time, or to the begin-time region when the activity
                // outlived its region (a stream validation accepts).
                let region = self.stack.last().copied().unwrap_or(begun_in);
                sink(Attribution::Interval {
                    region,
                    kind: open,
                    start,
                    end: e.time,
                });
                self.mark = e.time;
            }
            EventPayload::MessageSend { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: limba_model::CountKind::MessagesSent,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: limba_model::CountKind::BytesSent,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
            EventPayload::MessageRecv { bytes, .. } => {
                if let Some(&top) = self.stack.last() {
                    sink(Attribution::Count {
                        region: top,
                        kind: limba_model::CountKind::MessagesReceived,
                        amount: 1.0,
                        at: e.time,
                    });
                    sink(Attribution::Count {
                        region: top,
                        kind: limba_model::CountKind::BytesReceived,
                        amount: bytes as f64,
                        at: e.time,
                    });
                }
            }
        }
        Ok(())
    }

    /// Ends the rank's stream: closes whatever is still open at the
    /// last recorded timestamp (truncation repair, emitted into `sink`)
    /// and returns the rank's [`RankCoverage`].
    pub fn finish<F: FnMut(Attribution)>(mut self, sink: &mut F) -> RankCoverage {
        let open_activity = self.current.is_some();
        let open_regions = self.stack.len();
        let last_time = self.last_time;
        let mut mark = self.mark;
        // Truncation salvage: close whatever the stream left open at the
        // last recorded timestamp, as if the missing end/leave events had
        // fired there. Partial spans are attributed, not discarded.
        if let Some((kind, start, begun_in)) = self.current.take() {
            let region = self.stack.last().copied().unwrap_or(begun_in);
            sink(Attribution::Interval {
                region,
                kind,
                start,
                end: last_time,
            });
            mark = last_time;
        }
        while let Some(region) = self.stack.pop() {
            sink(Attribution::Interval {
                region,
                kind: ActivityKind::Computation,
                start: mark,
                end: last_time,
            });
            mark = last_time;
        }
        RankCoverage {
            proc: self.proc,
            events: self.events,
            complete: open_regions == 0 && !open_activity,
            open_regions,
            open_activity,
            last_time,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::{reduce, TraceBuilder};
    use limba_model::{CountKind, ProcessorId};

    #[test]
    fn complete_trace_matches_strict_reduction() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2u32 {
            b.push(Event::enter(0.0, p, r));
            b.push(Event::begin_activity(1.0, p, ActivityKind::PointToPoint));
            b.push(Event::message_send(1.2, p, 1 - p, 64));
            b.push(Event::end_activity(
                1.5 + p as f64,
                p,
                ActivityKind::PointToPoint,
            ));
            b.push(Event::leave(3.0, p, r));
        }
        let trace = b.build().unwrap();
        let strict = reduce(&trace).unwrap();
        let salvaged = reduce_checked(&trace).unwrap();
        assert!(salvaged.is_complete());
        assert!(salvaged.incomplete_ranks().is_empty());
        assert_eq!(salvaged.reduced.measurements, strict.measurements);
        assert_eq!(salvaged.reduced.counts, strict.counts);
        assert_eq!(salvaged.coverage[1].events, 5);
    }

    #[test]
    fn truncated_rank_is_salvaged_and_flagged() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        // Rank 0 completes; rank 1's stream stops mid-region with an
        // activity open (a crash between begin and end).
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(4.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::begin_activity(2.0, 1, ActivityKind::Collective));
        b.push(Event::message_send(2.5, 1, 0, 128));
        let trace = b.build().unwrap();
        assert!(reduce(&trace).is_err()); // strict path rejects
        let salvaged = reduce_checked(&trace).unwrap();
        assert!(!salvaged.is_complete());
        assert_eq!(salvaged.incomplete_ranks(), vec![1]);
        let cov = salvaged.coverage[1];
        assert_eq!(cov.open_regions, 1);
        assert!(cov.open_activity);
        assert_eq!(cov.last_time, 2.5);
        let m = &salvaged.reduced.measurements;
        // Rank 1's partial spans survive: 2.0 s of computation before
        // the activity, then the open collective up to the last event.
        assert!((m.time(r, ActivityKind::Computation, ProcessorId::new(1)) - 2.0).abs() < 1e-12);
        assert!((m.time(r, ActivityKind::Collective, ProcessorId::new(1)) - 0.5).abs() < 1e-12);
        // The message count inside the open region is kept too.
        assert_eq!(
            salvaged
                .reduced
                .counts
                .count(r, CountKind::MessagesSent, ProcessorId::new(1)),
            1.0
        );
    }

    #[test]
    fn empty_trace_is_complete() {
        // No events at all: every rank is trivially complete.
        let mut b = TraceBuilder::new(3);
        b.add_region("r");
        let salvaged = reduce_checked(&b.build().unwrap()).unwrap();
        assert!(salvaged.is_complete());
        assert_eq!(salvaged.coverage.len(), 3);
        for cov in &salvaged.coverage {
            assert_eq!(cov.events, 0);
            assert_eq!(cov.last_time, 0.0);
        }
        // A trace declaring no regions cannot form a measurement matrix;
        // that surfaces as a model error (same as strict reduce), never
        // a panic.
        assert!(matches!(
            reduce_checked(&TraceBuilder::new(2).build().unwrap()),
            Err(TraceError::Model(_))
        ));
    }

    #[test]
    fn single_rank_truncation_reports_depth() {
        let mut b = TraceBuilder::new(1);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        b.push(Event::enter(0.0, 0, outer));
        b.push(Event::enter(1.0, 0, inner));
        let salvaged = reduce_checked(&b.build().unwrap()).unwrap();
        let cov = salvaged.coverage[0];
        assert_eq!(cov.open_regions, 2);
        assert!(!cov.open_activity);
        assert!(!cov.complete);
        assert_eq!(salvaged.incomplete_ranks(), vec![0]);
    }

    #[test]
    fn corrupt_events_name_index_and_rank() {
        // Leave without enter on rank 1, at stream index 2.
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::leave(1.0, 1, r));
        let err = reduce_checked(&b.build().unwrap()).unwrap_err();
        match err {
            TraceError::MalformedEvent { proc, index, .. } => {
                assert_eq!(proc, 1);
                assert_eq!(index, 2);
            }
            other => panic!("wrong error: {other}"),
        }

        // Out-of-range processor reports its recording index.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::enter(0.5, 9, r));
        let err = reduce_checked(&b.build().unwrap()).unwrap_err().to_string();
        assert!(err.contains("event #1"), "{err}");
        assert!(err.contains("processor 9"), "{err}");

        // End without begin.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::end_activity(1.0, 0, ActivityKind::Collective));
        let err = reduce_checked(&b.build().unwrap()).unwrap_err().to_string();
        assert!(err.contains("never began"), "{err}");

        // Begin outside any region.
        let mut b = TraceBuilder::new(1);
        b.add_region("r");
        b.push(Event::begin_activity(0.0, 0, ActivityKind::Io));
        assert!(matches!(
            reduce_checked(&b.build().unwrap()),
            Err(TraceError::MalformedEvent {
                proc: 0,
                index: 0,
                ..
            })
        ));
    }

    #[test]
    fn region_entered_inside_an_activity_conserves_time() {
        // A 5 s run: computation in r for 1 s, the activity (ending in
        // s, so attributed to s) for 2 s, then 1 s of computation in
        // each of s and r. The enter at 2.0 attributes nothing.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        let s = b.add_region("s");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(1.0, 0, ActivityKind::PointToPoint));
        b.push(Event::enter(2.0, 0, s));
        b.push(Event::end_activity(3.0, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(4.0, 0, s));
        b.push(Event::leave(5.0, 0, r));
        let trace = b.build().unwrap();
        trace.validate().unwrap();
        let m = reduce(&trace).unwrap().measurements;
        let p0 = ProcessorId::new(0);
        assert_eq!(m.time(r, ActivityKind::Computation, p0), 2.0);
        assert_eq!(m.time(s, ActivityKind::Computation, p0), 1.0);
        assert_eq!(m.time(s, ActivityKind::PointToPoint, p0), 2.0);
        assert_eq!(m.time(r, ActivityKind::PointToPoint, p0), 0.0);
    }

    #[test]
    fn activity_outliving_its_region_reduces_alike_on_every_path() {
        // Passes validate() (leave does not check activities). Every
        // path, strict or salvaging, batch or streamed, attributes the
        // span to the begin-time region; none may panic on the end
        // event's empty region stack.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::begin_activity(1.0, 0, ActivityKind::PointToPoint));
        b.push(Event::leave(2.0, 0, r));
        b.push(Event::end_activity(3.0, 0, ActivityKind::PointToPoint));
        let trace = b.build().unwrap();
        trace.validate().unwrap();
        let salvaged = reduce_checked(&trace).unwrap();
        assert!(salvaged.is_complete());
        let m = &salvaged.reduced.measurements;
        assert_eq!(
            m.time(r, ActivityKind::PointToPoint, ProcessorId::new(0)),
            2.0
        );
        // The leave falls inside the activity: no computation past 1.0.
        assert_eq!(
            m.time(r, ActivityKind::Computation, ProcessorId::new(0)),
            1.0
        );

        let bytes = crate::stream::to_stream_bytes(&trace, 2).unwrap();
        let mut fold = crate::ReduceSink::new(limba_model::ActivitySet::standard());
        crate::stream::decode_all(&bytes, &mut fold).unwrap();
        for strict in [reduce(&trace).unwrap(), fold.into_reduced().unwrap()] {
            assert_eq!(&strict.measurements, m);
            assert_eq!(strict.counts, salvaged.reduced.counts);
        }
        let windows = crate::reduce_windows(&trace, 2).unwrap();
        let mut fold =
            crate::WindowSink::new(2, 3.0, limba_model::ActivitySet::standard()).unwrap();
        crate::stream::decode_all(&bytes, &mut fold).unwrap();
        let p2p: Vec<f64> = windows
            .iter()
            .map(|w| {
                w.measurements
                    .time(r, ActivityKind::PointToPoint, ProcessorId::new(0))
            })
            .collect();
        assert_eq!(p2p, [0.5, 1.5]);
        for (batch, streamed) in windows.iter().zip(fold.into_windows().unwrap()) {
            assert_eq!(batch.measurements, streamed.measurements);
        }
    }
}
