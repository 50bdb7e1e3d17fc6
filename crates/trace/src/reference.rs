//! Test oracle for the rank-order index and the one-walk batch
//! drivers: copying per-processor partitions in place of
//! [`RankOrder`](crate::RankOrder), and the batch entry points rebuilt
//! on them with validation as a pass of its own: the whole trace is
//! validated first, then reduced. The property test below checks that
//! the index-driven paths agree with these bit for bit, errors
//! included, on traces whose recording order runs against time.

use crate::event::RankChecker;
use crate::reduce::{trace_activities, window_width, Fold, ReducedTrace, WindowFold};
use crate::salvage::{SalvageFold, SalvagedTrace};
use crate::{Event, EventPayload, Trace, TraceError};

/// Every processor's events with their recording-order indices,
/// copied and stably sorted by time; events naming an out-of-range
/// processor are dropped.
fn events_partitioned(trace: &Trace) -> Vec<Vec<(usize, Event)>> {
    let mut parts: Vec<Vec<(usize, Event)>> = vec![Vec::new(); trace.processors()];
    for (index, e) in trace.events().iter().enumerate() {
        if let Some(bucket) = parts.get_mut(e.proc as usize) {
            bucket.push((index, *e));
        }
    }
    for bucket in &mut parts {
        bucket.sort_by(|a, b| a.1.time.total_cmp(&b.1.time));
    }
    parts
}

/// `fold` over every partition, ascending by processor.
fn fold_partitions<F: Fold>(trace: &Trace, mut fold: F) -> Result<F::Output, TraceError> {
    for (proc, events) in (0u32..).zip(events_partitioned(trace)) {
        let mut rank = fold.rank(proc);
        for (index, e) in &events {
            fold.step(&mut rank, *index, e)?;
        }
        fold.end_rank(rank)?;
    }
    fold.finish()
}

fn validate(trace: &Trace) -> Result<(), TraceError> {
    for e in trace.events() {
        if e.proc as usize >= trace.processors() {
            return Err(TraceError::UnknownProcessor { proc: e.proc });
        }
        match e.payload() {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                if region as usize >= trace.region_names().len() =>
            {
                return Err(TraceError::UnknownRegion {
                    region: region as usize,
                });
            }
            _ => {}
        }
    }
    let regions = trace.region_names().len();
    for (proc, events) in (0u32..).zip(events_partitioned(trace)) {
        let mut checker = RankChecker::new(proc);
        for (_, e) in &events {
            checker.step(e, regions)?;
        }
        checker.finish()?;
    }
    Ok(())
}

fn salvage_fold(trace: &Trace) -> SalvageFold {
    SalvageFold::new(
        trace.processors(),
        trace.region_names(),
        trace_activities(trace),
    )
}

fn reduce(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    validate(trace)?;
    Ok(fold_partitions(trace, salvage_fold(trace))?.reduced)
}

fn reduce_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    validate(trace)?;
    let makespan = trace.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
    let fold = WindowFold::new(
        windows,
        window_width(windows, makespan)?,
        trace.processors(),
        trace.region_names(),
        trace_activities(trace),
    );
    fold_partitions(trace, fold)
}

fn reduce_checked(trace: &Trace) -> Result<SalvagedTrace, TraceError> {
    crate::stream::check_processors(trace.processors())?;
    for (index, e) in trace.events().iter().enumerate() {
        if e.proc as usize >= trace.processors() {
            return Err(TraceError::MalformedEvent {
                proc: e.proc,
                index,
                detail: format!(
                    "references processor {}, trace has {}",
                    e.proc,
                    trace.processors()
                ),
            });
        }
    }
    fold_partitions(trace, salvage_fold(trace))
}

fn region_parents(trace: &Trace) -> Result<Vec<Option<usize>>, TraceError> {
    validate(trace)?;
    let mut parents: Vec<Option<Option<usize>>> = vec![None; trace.region_names().len()];
    for events in events_partitioned(trace) {
        let mut stack: Vec<usize> = Vec::new();
        for (_, e) in events {
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
    Ok(parents.into_iter().map(Option::flatten).collect())
}

mod tests {
    #![allow(clippy::expect_used)]

    use std::fmt::Debug;

    use limba_model::{ActivityKind, RegionId};
    use limba_par::splitmix64;
    use proptest::prelude::*;

    use crate::{Event, EventPayload, Trace, TraceBuilder};

    /// `f`'s result as `Debug` text — `f64`'s shortest round-trip
    /// formatting makes equal text equal bits. No path may panic: every
    /// walk steps the checking [`SalvageWalker`](crate::SalvageWalker),
    /// so a panic fails the property outright.
    fn outcome<T: Debug>(f: impl FnOnce() -> T) -> String {
        format!("{:?}", f())
    }

    /// Damage the generator may inject, each with probability 1/4.
    #[derive(Debug, Clone, Copy)]
    struct Damage {
        scramble_ties: bool,
        stray_processor: bool,
        stray_region: bool,
        drop_event: bool,
        truncate: bool,
        truncate_late: bool,
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            (splitmix64(&mut self.0) % n as u64) as usize
        }
    }

    /// One rank's well-formed, time-ordered stream: nested regions,
    /// activities and messages on a coarse clock, so about two events
    /// in three share their timestamp with a neighbour.
    fn rank_stream(rng: &mut Rng, proc: u32, regions: usize, ops: usize) -> Vec<Event> {
        let kinds = [
            ActivityKind::PointToPoint,
            ActivityKind::Collective,
            ActivityKind::Io,
        ];
        let mut events = Vec::new();
        let mut stack: Vec<RegionId> = Vec::new();
        let mut activity: Option<ActivityKind> = None;
        let mut t = 0.0f64;
        for _ in 0..ops {
            if rng.below(3) == 0 {
                t += 0.25;
            }
            match (rng.below(5), activity) {
                (_, Some(kind)) if rng.below(2) == 0 => {
                    events.push(Event::end_activity(t, proc, kind));
                    activity = None;
                }
                (0 | 1, None) if stack.len() < 3 => {
                    let region = RegionId::new(rng.below(regions));
                    events.push(Event::enter(t, proc, region));
                    stack.push(region);
                }
                (2, None) if !stack.is_empty() => {
                    let region = stack.pop().expect("non-empty");
                    events.push(Event::leave(t, proc, region));
                }
                (3, None) if !stack.is_empty() => {
                    let kind = kinds[rng.below(kinds.len())];
                    events.push(Event::begin_activity(t, proc, kind));
                    activity = Some(kind);
                }
                _ => {
                    let bytes = rng.below(512) as u64;
                    events.push(if rng.below(2) == 0 {
                        Event::message_send(t, proc, 0, bytes)
                    } else {
                        Event::message_recv(t, proc, 0, bytes)
                    });
                }
            }
        }
        t += 0.25;
        if let Some(kind) = activity {
            events.push(Event::end_activity(t, proc, kind));
        }
        while let Some(region) = stack.pop() {
            events.push(Event::leave(t, proc, region));
        }
        events
    }

    /// A trace whose ranks interleave in recording order, each rank's
    /// events in time order, reversed or shuffled, with equal timestamps
    /// kept in order unless ties are scrambled, then damaged.
    fn damaged_trace(procs: usize, regions: usize, ops: usize, seed: u64, damage: Damage) -> Trace {
        let mut rng = Rng(seed);
        let mut b = TraceBuilder::new(procs);
        for r in 0..regions {
            b.add_region(format!("r{r}"));
        }
        // A rank other than 0 to cut short: its end-of-rank error then
        // sits between other ranks' damage in rank order.
        let late = (damage.truncate_late && procs > 1).then(|| 1 + rng.below(procs - 1) as u32);
        // (recording key, event): sorting by key gives recording order.
        let mut keyed: Vec<(u64, Event)> = Vec::new();
        for proc in 0..procs as u32 {
            let rank_ops = rng.below(ops) + 1;
            let mut events = rank_stream(&mut rng, proc, regions, rank_ops);
            if (damage.truncate && proc == 0) || late == Some(proc) {
                let cut = events[rng.below(events.len())].time;
                events.retain(|e| e.time <= cut);
            }
            let mut keys: Vec<u64> = events.iter().map(|_| splitmix64(&mut rng.0)).collect();
            // One rank in four records in time order, one in four
            // newest first, the rest shuffled.
            match rng.below(4) {
                0 => keys.sort_unstable(),
                1 => keys.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            if !damage.scramble_ties {
                // Equal timestamps keep their relative order.
                let mut start = 0;
                while start < events.len() {
                    let end = start
                        + events[start..]
                            .iter()
                            .take_while(|e| e.time == events[start].time)
                            .count();
                    keys[start..end].sort_unstable();
                    start = end;
                }
            }
            keyed.extend(keys.into_iter().zip(events));
        }
        keyed.sort_by_key(|&(key, _)| key);
        let mut events: Vec<Event> = keyed.into_iter().map(|(_, e)| e).collect();
        if damage.drop_event && !events.is_empty() {
            events.remove(rng.below(events.len()));
        }
        if damage.stray_processor && !events.is_empty() {
            let at = rng.below(events.len());
            events[at].proc = (procs + rng.below(3)) as u32;
        }
        if damage.stray_region {
            let stray = regions + rng.below(2);
            let start = rng.below(events.len().max(1));
            if let Some(e) = events[start..].iter_mut().find(|e| {
                matches!(
                    e.payload(),
                    EventPayload::EnterRegion { .. } | EventPayload::LeaveRegion { .. }
                )
            }) {
                let stray = RegionId::new(stray);
                *e = match e.payload() {
                    EventPayload::EnterRegion { .. } => Event::enter(e.time, e.proc, stray),
                    _ => Event::leave(e.time, e.proc, stray),
                };
            }
        }
        for e in events {
            b.push(e);
        }
        b.build().expect("a generated trace fits the caps")
    }

    fn trace_strategy() -> impl Strategy<Value = Trace> {
        let one_in_four = || (0u8..4).prop_map(|x| x == 0);
        let damage = (
            one_in_four(),
            one_in_four(),
            one_in_four(),
            one_in_four(),
            one_in_four(),
            one_in_four(),
        )
            .prop_map(
                |(scramble_ties, stray_processor, stray_region, drop_event, truncate, late)| {
                    Damage {
                        scramble_ties,
                        stray_processor,
                        stray_region,
                        drop_event,
                        truncate,
                        truncate_late: late,
                    }
                },
            );
        (1usize..6, 1usize..4, 1usize..120, 0u64..u64::MAX, damage).prop_map(
            |(procs, regions, ops, seed, damage)| damaged_trace(procs, regions, ops, seed, damage),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rank_order_paths_match_copying_partitions(trace in trace_strategy()) {
            prop_assert_eq!(outcome(|| trace.validate()), outcome(|| super::validate(&trace)));
            prop_assert_eq!(outcome(|| crate::reduce(&trace)), outcome(|| super::reduce(&trace)));
            prop_assert_eq!(
                outcome(|| crate::reduce_checked(&trace)),
                outcome(|| super::reduce_checked(&trace))
            );
            for windows in [1, 3] {
                prop_assert_eq!(
                    outcome(|| crate::reduce_windows(&trace, windows)),
                    outcome(|| super::reduce_windows(&trace, windows))
                );
            }
            prop_assert_eq!(
                outcome(|| crate::region_parents(&trace)),
                outcome(|| super::region_parents(&trace))
            );
        }
    }
}
