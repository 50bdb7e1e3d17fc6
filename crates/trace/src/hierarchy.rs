//! Observed region nesting.
//!
//! The paper's code regions can be "loops, routines, code statements" —
//! naturally nested. A trace records that nesting implicitly through its
//! enter/leave stack; this module recovers the static region tree from
//! the dynamic nesting, so the analysis can drill down from coarse
//! regions to the specific statement block that misbehaves.

use crate::event::RankChecker;
use crate::reduce::{replay, Fold};
use crate::stream::{check_processors, Folding, TraceSink};
use crate::{Event, EventPayload, Trace, TraceError};

/// The observed parent of each region: `parents[r]` is `Some(q)` when
/// region `r` was always entered while `q` was the innermost open
/// region, `None` when `r` is entered at top level.
///
/// # Errors
///
/// Returns [`TraceError::UnbalancedNesting`] (via validation) for
/// malformed traces, and [`TraceError::Malformed`] when a region is
/// observed under two different parents — the region structure is then
/// not a tree and hierarchical analysis does not apply.
pub fn region_parents(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
    trace.check_indices()?;
    replay(
        &trace.rank_order(),
        ParentsFold::new(trace.region_names().len()),
    )
}

/// The region-parents walk as a fold: each rank's events pass through
/// its [`RankChecker`], and a region entry records the innermost region
/// open before it.
///
/// A structural error ends the fold. A region seen under two parents
/// is remembered but does not: validation keeps running, and a later
/// structural error takes precedence, as it does when the whole trace
/// is validated before its nesting is read. Neither is returned before
/// [`finish`](Fold::finish), so [`ParentsSink`] never fails mid-stream.
struct ParentsFold {
    /// `Some(None)` = seen at top level; `Some(Some(q))` = seen under q.
    parents: Vec<Option<Option<usize>>>,
    invalid: Option<TraceError>,
    not_a_tree: Option<TraceError>,
}

impl ParentsFold {
    fn new(regions: usize) -> Self {
        ParentsFold {
            parents: vec![None; regions],
            invalid: None,
            not_a_tree: None,
        }
    }
}

impl Fold for ParentsFold {
    type Rank = RankChecker;
    type Output = Vec<Option<usize>>;

    fn rank(&self, proc: u32) -> RankChecker {
        RankChecker::new(proc)
    }

    fn step(&mut self, checker: &mut RankChecker, _: usize, e: &Event) -> Result<(), TraceError> {
        if self.invalid.is_some() {
            return Ok(());
        }
        let parent = checker.innermost();
        if let Err(err) = checker.step(e, self.parents.len()) {
            self.invalid = Some(err);
            return Ok(());
        }
        let EventPayload::EnterRegion { region } = e.payload() else {
            return Ok(());
        };
        let region = region as usize;
        if self.not_a_tree.is_some() {
            return Ok(());
        }
        match self.parents[region] {
            None => self.parents[region] = Some(parent),
            Some(seen) if seen == parent => {}
            Some(seen) => {
                self.not_a_tree = Some(TraceError::Malformed {
                    detail: format!(
                        "region {region} observed under parents {seen:?} and {parent:?}; \
                         the region structure is not a tree"
                    ),
                })
            }
        }
        Ok(())
    }

    fn end_rank(&mut self, checker: RankChecker) -> Result<(), TraceError> {
        if self.invalid.is_none() {
            self.invalid = checker.finish().err();
        }
        Ok(())
    }

    fn stray(&mut self, _: usize, e: &Event, _: usize) -> Result<(), TraceError> {
        self.invalid
            .get_or_insert(TraceError::UnknownProcessor { proc: e.proc });
        Ok(())
    }

    fn finish(self) -> Result<Vec<Option<usize>>, TraceError> {
        if let Some(err) = self.invalid.or(self.not_a_tree) {
            return Err(err);
        }
        // Regions never entered default to top level.
        Ok(self.parents.into_iter().map(Option::flatten).collect())
    }
}

/// Streaming [`region_parents`]: the same fold, with one per-rank
/// checker (the one [`Trace::validate`] steps) per rank as events
/// arrive, so `--drilldown` reads a tracefile without materializing it.
///
/// Its [`TraceSink`] methods never fail on the events themselves: the
/// fold keeps its first error for [`ParentsSink::into_parents`], so it
/// can ride in a [`TeeSink`](crate::TeeSink) beside a fold whose result
/// must survive a trace the nesting walk rejects (a crash-truncated
/// run still salvages). Errors match [`region_parents`] except where
/// the order of meeting them matters: with several structural errors,
/// or a region seen under parents on several ranks, the fold reports
/// them in recording order, the batch walk in rank order.
#[derive(Default)]
pub struct ParentsSink {
    run: Option<Folding<ParentsFold>>,
    result: Option<Result<Vec<Option<usize>>, TraceError>>,
}

impl ParentsSink {
    /// Creates the fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// The observed parents, or the error [`region_parents`] would
    /// report, once [`TraceSink::finish`] has run.
    ///
    /// # Errors
    ///
    /// The conditions of [`region_parents`], and a stream that never
    /// finished.
    pub fn into_parents(self) -> Result<Vec<Option<usize>>, TraceError> {
        self.result.unwrap_or_else(|| {
            Err(TraceError::Malformed {
                detail: "region-parents fold did not complete".into(),
            })
        })
    }
}

impl TraceSink for ParentsSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        let fold = ParentsFold::new(region_names.len());
        self.run = Some(Folding::new(fold, processors));
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        match self.run.as_mut() {
            Some(run) => run.events(events),
            None => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if let Some(run) = self.run.take() {
            self.result = Some(run.finish());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::TraceBuilder;

    /// `region_parents` as it was before it shared the fold's step:
    /// validate the whole trace, then walk each processor's filtered
    /// events with a stack of its own.
    fn parents_by_processor(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
        trace.validate()?;
        let mut parents: Vec<Option<Option<usize>>> = vec![None; trace.region_names().len()];
        for proc in 0..trace.processors() as u32 {
            let mut stack: Vec<usize> = Vec::new();
            for e in trace.events_by_processor(proc) {
                match e.payload() {
                    EventPayload::EnterRegion { region } => {
                        let region = region as usize;
                        let parent = stack.last().copied();
                        match parents[region] {
                            None => parents[region] = Some(parent),
                            Some(seen) if seen == parent => {}
                            Some(seen) => {
                                return Err(TraceError::Malformed {
                                    detail: format!(
                                        "region {region} observed under parents {seen:?} and \
                                         {parent:?}; the region structure is not a tree"
                                    ),
                                })
                            }
                        }
                        stack.push(region);
                    }
                    EventPayload::LeaveRegion { .. } => {
                        stack.pop();
                    }
                    _ => {}
                }
            }
        }
        Ok(parents.into_iter().map(|p| p.flatten()).collect())
    }

    /// [`ParentsSink`] over the trace's recording order.
    fn parents_folded(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
        let bytes = crate::stream::to_stream_bytes(trace, 3)?;
        let mut sink = ParentsSink::new();
        crate::stream::decode_all(&bytes, &mut sink)?;
        sink.into_parents()
    }

    #[test]
    fn rank_order_walk_matches_per_processor_walk() {
        // Four ranks recorded round-robin and against time (ties keep
        // their order), so every rank's run is interleaved with the
        // others and needs sorting; rank 3 may nest `shared` under `b`.
        for misfit in [false, true] {
            let mut b = TraceBuilder::new(4);
            let a = b.add_region("a");
            let c = b.add_region("b");
            let shared = b.add_region("shared");
            let mut per_rank = Vec::new();
            for p in 0..4u32 {
                let outer = if misfit && p == 3 { c } else { a };
                per_rank.push(vec![
                    Event::enter(0.0, p, outer),
                    Event::enter(1.0, p, shared),
                    Event::leave(1.0, p, shared),
                    Event::leave(2.0, p, outer),
                    Event::enter(2.0, p, c),
                    Event::leave(3.0, p, c),
                ]);
            }
            for step in [3, 4, 5, 1, 2, 0] {
                for events in &per_rank {
                    b.push(events[step]);
                }
            }
            let trace = b.build().unwrap();
            let indexed = region_parents(&trace);
            assert_eq!(
                format!("{indexed:?}"),
                format!("{:?}", parents_by_processor(&trace))
            );
            assert_eq!(indexed.is_err(), misfit);
        }
    }

    #[test]
    fn recovers_two_level_nesting() {
        let mut b = TraceBuilder::new(1);
        let outer = b.add_region("outer");
        let inner_a = b.add_region("inner a");
        let inner_b = b.add_region("inner b");
        b.push(Event::enter(0.0, 0, outer));
        b.push(Event::enter(1.0, 0, inner_a));
        b.push(Event::leave(2.0, 0, inner_a));
        b.push(Event::enter(3.0, 0, inner_b));
        b.push(Event::leave(4.0, 0, inner_b));
        b.push(Event::leave(5.0, 0, outer));
        let parents = region_parents(&b.build().unwrap()).unwrap();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn repeated_visits_are_consistent() {
        let mut b = TraceBuilder::new(2);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        for p in 0..2 {
            for i in 0..3 {
                let t = i as f64 * 10.0;
                b.push(Event::enter(t, p, outer));
                b.push(Event::enter(t + 1.0, p, inner));
                b.push(Event::leave(t + 2.0, p, inner));
                b.push(Event::leave(t + 3.0, p, outer));
            }
        }
        let parents = region_parents(&b.build().unwrap()).unwrap();
        assert_eq!(parents, vec![None, Some(0)]);
    }

    #[test]
    fn inconsistent_parents_are_rejected() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let c = b.add_region("b");
        let shared = b.add_region("shared");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::enter(1.0, 0, shared));
        b.push(Event::leave(2.0, 0, shared));
        b.push(Event::leave(3.0, 0, a));
        b.push(Event::enter(4.0, 0, c));
        b.push(Event::enter(5.0, 0, shared));
        b.push(Event::leave(6.0, 0, shared));
        b.push(Event::leave(7.0, 0, c));
        assert!(matches!(
            region_parents(&b.build().unwrap()),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn unentered_regions_default_to_top_level() {
        let mut b = TraceBuilder::new(1);
        let a = b.add_region("a");
        let _never = b.add_region("never entered");
        b.push(Event::enter(0.0, 0, a));
        b.push(Event::leave(1.0, 0, a));
        let parents = region_parents(&b.build().unwrap()).unwrap();
        assert_eq!(parents, vec![None, None]);
    }

    #[test]
    fn the_fold_matches_the_batch_walk_results_and_errors() {
        let mut b = TraceBuilder::new(2);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        let other = b.add_region("other");
        for p in 0..2 {
            b.push(Event::enter(0.0, p, outer));
            b.push(Event::enter(1.0, p, inner));
            b.push(Event::leave(2.0, p, inner));
            b.push(Event::leave(3.0, p, outer));
        }
        let mut truncated = b.clone();
        let mut not_a_tree = b.clone();
        b.push(Event::enter(4.0, 1, other));
        b.push(Event::leave(5.0, 1, other));
        // Rank 0 stops inside `other`: the trace is not valid.
        truncated.push(Event::enter(4.0, 0, other));
        // `inner` at top level on rank 1, after rank 0 saw it nested.
        not_a_tree.push(Event::enter(4.0, 1, inner));
        not_a_tree.push(Event::leave(5.0, 1, inner));
        // Then rank 0 stops inside `other`: the structural error wins.
        let mut both = not_a_tree.clone();
        both.push(Event::enter(6.0, 0, other));
        for trace in [b, truncated, not_a_tree, both].map(|b| b.build().unwrap()) {
            assert_eq!(
                format!("{:?}", parents_folded(&trace)),
                format!("{:?}", region_parents(&trace))
            );
        }
    }

    #[test]
    fn three_level_nesting() {
        let mut b = TraceBuilder::new(1);
        let l0 = b.add_region("step");
        let l1 = b.add_region("solve");
        let l2 = b.add_region("flux");
        b.push(Event::enter(0.0, 0, l0));
        b.push(Event::enter(1.0, 0, l1));
        b.push(Event::enter(2.0, 0, l2));
        b.push(Event::leave(3.0, 0, l2));
        b.push(Event::leave(4.0, 0, l1));
        b.push(Event::leave(5.0, 0, l0));
        let parents = region_parents(&b.build().unwrap()).unwrap();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
    }
}
