//! Test oracle for the rank-order index: the copying per-processor
//! partitions the batch paths walked before [`RankOrder`](crate::RankOrder),
//! and the batch entry points rebuilt on them. The property test below
//! checks that the index-driven paths agree with these bit for bit,
//! errors included, on traces whose recording order runs against time.

use limba_model::{CountMatrixBuilder, MeasurementsBuilder};

use crate::event::RankChecker;
use crate::reduce::{scatter_windowed, trace_activities, walk_processor, ReducedTrace, Tally};
use crate::salvage::{walk_salvage, SalvagedTrace};
use crate::{Event, EventPayload, Trace, TraceError};

/// Every processor's events, copied and stably sorted by time; events
/// naming an out-of-range processor are dropped.
fn events_partitioned(trace: &Trace) -> Vec<Vec<Event>> {
    let mut parts: Vec<Vec<Event>> = vec![Vec::new(); trace.processors()];
    for e in trace.events() {
        if let Some(bucket) = parts.get_mut(e.proc as usize) {
            bucket.push(*e);
        }
    }
    for bucket in &mut parts {
        bucket.sort_by(|a, b| a.time.total_cmp(&b.time));
    }
    parts
}

fn validate(trace: &Trace) -> Result<(), TraceError> {
    for e in trace.events() {
        if e.proc as usize >= trace.processors() {
            return Err(TraceError::UnknownProcessor { proc: e.proc });
        }
        match e.payload {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                if region >= trace.region_names().len() =>
            {
                return Err(TraceError::UnknownRegion { region });
            }
            _ => {}
        }
    }
    let regions = trace.region_names().len();
    for (proc, events) in (0u32..).zip(events_partitioned(trace)) {
        let mut checker = RankChecker::new();
        for e in &events {
            checker.step(proc, e, regions)?;
        }
        checker.finish(proc)?;
    }
    Ok(())
}

fn reduce(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    validate(trace)?;
    reduce_well_formed(trace)
}

fn builders(trace: &Trace) -> (MeasurementsBuilder, CountMatrixBuilder) {
    let mut mb = MeasurementsBuilder::with_activities(trace.processors(), trace_activities(trace));
    for name in trace.region_names() {
        mb.add_region(name.clone());
    }
    (mb, CountMatrixBuilder::new(trace.processors()))
}

fn reduce_well_formed(trace: &Trace) -> Result<ReducedTrace, TraceError> {
    let (mut mb, mut cb) = builders(trace);
    for (proc, events) in (0u32..).zip(events_partitioned(trace)) {
        let mut tally = Tally::new(&mut mb, &mut cb, proc);
        walk_processor(&events, |attribution| tally.record(attribution));
        tally.finish()?;
    }
    Ok(ReducedTrace {
        measurements: mb.build()?,
        counts: cb.build(),
    })
}

fn reduce_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    validate(trace)?;
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
    let mut window_builders: Vec<_> = (0..windows).map(|_| builders(trace)).collect();
    let mut failure: Option<TraceError> = None;
    for (proc, events) in (0u32..).zip(events_partitioned(trace)) {
        walk_processor(&events, |attribution| {
            if failure.is_some() {
                return;
            }
            if let Err(e) = scatter_windowed(&mut window_builders, width, proc, attribution) {
                failure = Some(e.into());
            }
        });
    }
    if let Some(e) = failure {
        return Err(e);
    }
    window_builders
        .into_iter()
        .map(|(mb, cb)| {
            Ok(ReducedTrace {
                measurements: mb.build()?,
                counts: cb.build(),
            })
        })
        .collect()
}

fn reduce_checked(trace: &Trace) -> Result<SalvagedTrace, TraceError> {
    crate::stream::check_processors(trace.processors())?;
    let mut parts: Vec<Vec<(usize, Event)>> = vec![Vec::new(); trace.processors()];
    for (index, e) in trace.events().iter().enumerate() {
        match parts.get_mut(e.proc as usize) {
            Some(bucket) => bucket.push((index, *e)),
            None => {
                return Err(TraceError::MalformedEvent {
                    proc: e.proc,
                    index,
                    detail: format!(
                        "references processor {}, trace has {}",
                        e.proc,
                        trace.processors()
                    ),
                })
            }
        }
    }
    for bucket in &mut parts {
        bucket.sort_by(|a, b| a.1.time.total_cmp(&b.1.time));
    }
    let (mut mb, mut cb) = builders(trace);
    let mut coverage = Vec::with_capacity(trace.processors());
    for (proc, events) in (0u32..).zip(&parts) {
        let mut tally = Tally::new(&mut mb, &mut cb, proc);
        let events = events.iter().map(|(index, e)| (*index, e));
        let cov = walk_salvage(proc, events, trace.region_names().len(), |attribution| {
            tally.record(attribution)
        })?;
        tally.finish()?;
        coverage.push(cov);
    }
    Ok(SalvagedTrace {
        reduced: ReducedTrace {
            measurements: mb.build()?,
            counts: cb.build(),
        },
        coverage,
    })
}

mod tests {
    use std::fmt::Debug;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use limba_model::{ActivityKind, RegionId};
    use limba_par::splitmix64;
    use proptest::prelude::*;

    use crate::{Event, EventPayload, Trace, TraceBuilder};

    /// `f`'s result as `Debug` text — `f64`'s shortest round-trip
    /// formatting makes equal text equal bits — or `"panicked"`: the
    /// strict walk panics on some traces validation accepts, and then
    /// both sides must panic alike.
    fn outcome<T: Debug>(f: impl FnOnce() -> T) -> String {
        catch_unwind(AssertUnwindSafe(f)).map_or_else(|_| "panicked".into(), |r| format!("{r:?}"))
    }

    /// Damage the generator may inject, each with probability 1/4.
    #[derive(Debug, Clone, Copy)]
    struct Damage {
        scramble_ties: bool,
        stray_processor: bool,
        stray_region: bool,
        drop_event: bool,
        truncate: bool,
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
        // (recording key, event): sorting by key gives recording order.
        let mut keyed: Vec<(u64, Event)> = Vec::new();
        for proc in 0..procs as u32 {
            let rank_ops = rng.below(ops) + 1;
            let mut events = rank_stream(&mut rng, proc, regions, rank_ops);
            if damage.truncate && proc == 0 {
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
                    e.payload,
                    EventPayload::EnterRegion { .. } | EventPayload::LeaveRegion { .. }
                )
            }) {
                e.payload = match e.payload {
                    EventPayload::EnterRegion { .. } => EventPayload::EnterRegion { region: stray },
                    _ => EventPayload::LeaveRegion { region: stray },
                };
            }
        }
        for e in events {
            b.push(e);
        }
        b.build()
    }

    fn trace_strategy() -> impl Strategy<Value = Trace> {
        let one_in_four = || (0u8..4).prop_map(|x| x == 0);
        let damage = (
            one_in_four(),
            one_in_four(),
            one_in_four(),
            one_in_four(),
            one_in_four(),
        )
            .prop_map(
                |(scramble_ties, stray_processor, stray_region, drop_event, truncate)| Damage {
                    scramble_ties,
                    stray_processor,
                    stray_region,
                    drop_event,
                    truncate,
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
            if trace.validate().is_ok() {
                prop_assert_eq!(
                    outcome(|| crate::reduce_well_formed(&trace)),
                    outcome(|| super::reduce_well_formed(&trace))
                );
            }
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
        }
    }
}
