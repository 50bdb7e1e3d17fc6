//! Observed region nesting.
//!
//! The paper's code regions can be "loops, routines, code statements" —
//! naturally nested. A trace records that nesting implicitly through its
//! enter/leave stack; this module recovers the static region tree from
//! the dynamic nesting, so the analysis can drill down from coarse
//! regions to the specific statement block that misbehaves.

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
    let order = trace.validated_rank_order()?;
    // `Some(None)` = seen at top level; `Some(Some(q))` = seen under q.
    let mut parents: Vec<Option<Option<usize>>> = vec![None; trace.region_names().len()];
    for (_, events) in order.ranks() {
        observe_parents(&mut parents, events.map(|(_, e)| e))?;
    }
    // Regions never entered default to top level.
    Ok(parents.into_iter().map(|p| p.flatten()).collect())
}

/// Folds one processor's time-ordered events into the observed parents.
fn observe_parents<'e>(
    parents: &mut [Option<Option<usize>>],
    events: impl IntoIterator<Item = &'e Event>,
) -> Result<(), TraceError> {
    let mut stack: Vec<usize> = Vec::new();
    for e in events {
        match e.payload {
            EventPayload::EnterRegion { region } => {
                let parent = stack.last().copied();
                match parents[region] {
                    None => parents[region] = Some(parent),
                    Some(seen) if seen == parent => {}
                    Some(seen) => {
                        return Err(TraceError::Malformed {
                            detail: format!(
                                "region {region} observed under parents {seen:?} and {parent:?}; \
                                 the region structure is not a tree"
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    /// `region_parents` by the per-processor filter it replaced.
    fn parents_by_processor(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
        trace.validate()?;
        let mut parents = vec![None; trace.region_names().len()];
        for proc in 0..trace.processors() as u32 {
            observe_parents(&mut parents, &trace.events_by_processor(proc))?;
        }
        Ok(parents.into_iter().map(|p| p.flatten()).collect())
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
            let trace = b.build();
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
        let parents = region_parents(&b.build()).unwrap();
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
        let parents = region_parents(&b.build()).unwrap();
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
            region_parents(&b.build()),
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
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, None]);
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
        let parents = region_parents(&b.build()).unwrap();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
    }
}
