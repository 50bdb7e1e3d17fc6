//! Property-based tests of the tracefile layer: codecs round-trip
//! arbitrary well-formed traces, the streaming container decodes
//! identically however its bytes are split, and reduction conserves
//! time exactly.

use limba::model::{ActivityKind, ActivitySet};
use limba::trace::stream;
use limba::trace::{
    binary, reduce, reduce_checked, reduce_windows, text, Event, MaterializeSink, ReduceSink,
    ReducedTrace, SalvageSink, ScanSink, StreamDecoder, Trace, TraceBuilder, TraceError, TraceSink,
    WindowSink,
};
use proptest::prelude::*;

/// Strategy: a well-formed random trace. Each processor performs a
/// random number of region visits, each with an optional activity
/// interval and message events. Activities may cross region
/// boundaries, as validation allows: an activity can outlive its
/// region, and a nested region can be entered or left while it is open.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    traces(true)
}

/// [`trace_strategy`] with every activity inside its region's visit
/// (`crossing == false`): the traces on which each region's attributed
/// time equals its visit time.
fn traces(crossing: bool) -> impl Strategy<Value = Trace> {
    let procs = 1usize..5;
    let regions = 1usize..4;
    let visits = proptest::collection::vec(
        (
            0usize..4,                                        // region index (mod regions)
            0.0f64..10.0,                                     // start offset
            0.01f64..5.0,                                     // duration
            proptest::option::of(0..ActivityKind::ALL.len()), // activity kind index
            proptest::bool::ANY,                              // emit a message?
            0usize..4,                                        // crossing shape
        ),
        0..12,
    );
    (procs, regions, proptest::collection::vec(visits, 1..5)).prop_map(
        move |(procs, regions, per_proc)| {
            let mut b = TraceBuilder::new(procs);
            for r in 0..regions {
                b.add_region(format!("region {r}"));
            }
            for (p, visits) in per_proc.iter().enumerate().take(procs) {
                let p = p as u32;
                let mut clock = 0.0f64;
                for &(r, offset, duration, activity, msg, shape) in visits {
                    let region = limba::model::RegionId::new(r % regions);
                    let inner = limba::model::RegionId::new((r + 1) % regions);
                    let start = clock + offset;
                    let end = start + duration;
                    let at = |fraction: f64| start + duration * fraction;
                    let send = (msg && procs > 1).then(|| {
                        Event::message_send(at(0.3), p, ((p as usize + 1) % procs) as u32, 64)
                    });
                    let kind =
                        activity.map(|a| ActivityKind::from_index(a).expect("kind in range"));
                    clock = end;
                    match kind.filter(|_| crossing && shape > 0) {
                        None => {
                            b.push(Event::enter(start, p, region));
                            if let Some(kind) = kind {
                                b.push(Event::begin_activity(at(0.25), p, kind));
                                b.push(Event::end_activity(at(0.75), p, kind));
                            }
                            if let Some(mut send) = send {
                                send.time = at(0.5);
                                b.push(send);
                            }
                            b.push(Event::leave(end, p, region));
                        }
                        // The region is left while its activity runs on.
                        Some(kind) if shape == 1 => {
                            b.push(Event::enter(start, p, region));
                            b.push(Event::begin_activity(at(0.25), p, kind));
                            if let Some(send) = send {
                                b.push(send);
                            }
                            b.push(Event::leave(at(0.5), p, region));
                            b.push(Event::end_activity(at(0.75), p, kind));
                        }
                        // A nested region is entered inside the activity.
                        Some(kind) if shape == 2 => {
                            b.push(Event::enter(start, p, region));
                            b.push(Event::begin_activity(at(0.25), p, kind));
                            if let Some(send) = send {
                                b.push(send);
                            }
                            b.push(Event::enter(at(0.5), p, inner));
                            b.push(Event::end_activity(at(0.75), p, kind));
                            b.push(Event::leave(at(0.875), p, inner));
                            b.push(Event::leave(end, p, region));
                        }
                        // A nested region is left inside the activity.
                        Some(kind) => {
                            b.push(Event::enter(start, p, region));
                            b.push(Event::enter(at(0.125), p, inner));
                            b.push(Event::begin_activity(at(0.25), p, kind));
                            if let Some(send) = send {
                                b.push(send);
                            }
                            b.push(Event::leave(at(0.5), p, inner));
                            b.push(Event::end_activity(at(0.75), p, kind));
                            b.push(Event::leave(end, p, region));
                        }
                    }
                }
            }
            b.build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_traces_are_well_formed(trace in trace_strategy()) {
        trace.validate().unwrap();
    }

    #[test]
    fn binary_codec_round_trips(trace in trace_strategy()) {
        let bytes = binary::to_bytes(&trace);
        let back = binary::from_bytes(&bytes).unwrap();
        prop_assert_eq!(trace, back);
    }

    #[test]
    fn text_codec_round_trips(trace in trace_strategy()) {
        let s = text::to_string(&trace);
        let back = text::from_str(&s).unwrap();
        // Times survive to full precision via Rust's shortest-round-trip
        // float formatting.
        prop_assert_eq!(trace, back);
    }

    #[test]
    fn reduction_conserves_total_region_time(trace in traces(false)) {
        // For non-nested visits, the sum over activities of a processor's
        // time in a region equals the sum of its visit durations.
        let reduced = reduce(&trace).unwrap();
        let m = &reduced.measurements;
        for p in 0..trace.processors() as u32 {
            let mut per_region = vec![0.0f64; m.regions()];
            let mut stack: Vec<(usize, f64)> = Vec::new();
            for e in trace.events_by_processor(p) {
                match e.payload() {
                    limba::trace::EventPayload::EnterRegion { region } => {
                        stack.push((region as usize, e.time));
                    }
                    limba::trace::EventPayload::LeaveRegion { region } => {
                        let (r, t0) = stack.pop().expect("balanced");
                        assert_eq!(r, region as usize);
                        per_region[r] += e.time - t0;
                    }
                    _ => {}
                }
            }
            for (r, &expected) in per_region.iter().enumerate() {
                let attributed: f64 = m
                    .activities()
                    .iter()
                    .map(|k| m.time(limba::model::RegionId::new(r), k, limba::model::ProcessorId::new(p as usize)))
                    .sum();
                prop_assert!(
                    (attributed - expected).abs() < 1e-9,
                    "proc {} region {}: {} vs {}",
                    p, r, attributed, expected
                );
            }
        }
    }

    // Time is conserved: a processor's cells partition the time it
    // spends with a region or an activity open, on the batch
    // reductions and on every fold. Comparing the paths with each
    // other cannot show this: they all step the same walker.
    #[test]
    fn every_path_conserves_each_ranks_time(trace in trace_strategy()) {
        trace.validate().unwrap();
        let trace = time_ordered(&trace);
        let covered = covered_time(&trace);
        let mut salvage = SalvageSink::new(ActivitySet::standard());
        replay(&trace, &mut salvage).unwrap();
        let mut strict = ReduceSink::new(ActivitySet::standard());
        replay(&trace, &mut strict).unwrap();
        let full = [
            ("reduce", reduce(&trace).unwrap().measurements),
            ("reduce_checked", reduce_checked(&trace).unwrap().reduced.measurements),
            ("SalvageSink", salvage.into_salvaged().unwrap().reduced.measurements),
            ("ReduceSink", strict.into_reduced().unwrap().measurements),
        ];
        for (path, m) in &full {
            for (p, &expected) in covered.iter().enumerate() {
                let got = m.processor_time(limba::model::ProcessorId::new(p));
                prop_assert!(
                    conserved(got, expected),
                    "{}: proc {} attributes {} of {} s", path, p, got, expected
                );
            }
        }
        for windows in [1, 3] {
            let Ok(sliced) = stream_windows(&trace, windows) else {
                // A run spanning no time has no windows.
                prop_assert!(covered.iter().all(|&t| t == 0.0));
                continue;
            };
            for (p, &expected) in covered.iter().enumerate() {
                let got: f64 = sliced
                    .iter()
                    .map(|w| w.measurements.processor_time(limba::model::ProcessorId::new(p)))
                    .sum();
                prop_assert!(
                    conserved(got, expected),
                    "{} WindowSink windows: proc {} attributes {} of {} s", windows, p, got, expected
                );
            }
        }
    }

    #[test]
    fn reduction_counts_messages_exactly(trace in trace_strategy()) {
        let reduced = reduce(&trace).unwrap();
        let sent_events = trace
            .events()
            .iter()
            .filter(|e| matches!(e.payload(), limba::trace::EventPayload::MessageSend { .. }))
            .count();
        let counted: f64 = reduced
            .counts
            .cells()
            .filter(|(_, kind, _)| *kind == limba::model::CountKind::MessagesSent)
            .map(|(_, _, s)| s.iter().sum::<f64>())
            .sum();
        prop_assert_eq!(sent_events as f64, counted);
    }

    // -----------------------------------------------------------------
    // Truncated-trace robustness: `reduce_checked` must survive any
    // prefix of a well-formed trace (a crashed or interrupted recording
    // stops mid-stream) and any corrupt event, without panicking.

    #[test]
    fn reduce_checked_salvages_arbitrary_truncation(
        (trace, cut) in trace_strategy().prop_flat_map(|t| {
            let n = t.events().len();
            (Just(t), 0usize..n + 1)
        })
    ) {
        let truncated = rebuild(&trace, cut, None);
        // A prefix of a well-formed recording is always salvageable:
        // ranks cut mid-structure come back flagged, never as an error.
        let salvaged = limba::trace::reduce_checked(&truncated)
            .expect("truncation damage is salvageable");
        prop_assert_eq!(salvaged.coverage.len(), truncated.processors());
        if cut == trace.events().len() {
            prop_assert!(salvaged.is_complete());
        }
        for c in &salvaged.coverage {
            prop_assert!(c.complete || c.open_regions > 0 || c.open_activity);
        }
        // Salvage closes streams at their last event; it never invents
        // time past the recording.
        let horizon = truncated
            .events()
            .iter()
            .fold(0.0f64, |acc, e| acc.max(e.time));
        for p in 0..truncated.processors() {
            let t = salvaged
                .reduced
                .measurements
                .processor_time(limba::model::ProcessorId::new(p));
            prop_assert!(t <= horizon + 1e-9);
        }
    }

    // One pass, no scan: a salvage fold seeded with the standard four
    // activities grows the extras' columns as they first appear, so it
    // equals the batch salvage on any prefix of any recording — extras
    // in any order, ranks cut inside an open activity included. The
    // recording is streamed in its own order twice: as the generator
    // wrote it (rank by rank) and re-recorded in time order (ranks
    // interleaved within every frame).
    #[test]
    fn standard_seeded_salvage_pass_matches_reduce_checked(
        (trace, cut, frame) in trace_strategy().prop_flat_map(|t| {
            let n = t.events().len();
            (Just(t), 0usize..n + 1, 1usize..9)
        })
    ) {
        for recording in [rank_sorted(&trace), time_ordered(&trace)] {
            let prefix = rebuild(&recording, cut, None);
            let batch = reduce_checked(&prefix).expect("truncation damage is salvageable");
            let mut fold = SalvageSink::new(ActivitySet::standard());
            fold.begin(prefix.processors(), prefix.region_names()).unwrap();
            for events in prefix.events().chunks(frame) {
                fold.events(events).unwrap();
            }
            fold.finish().unwrap();
            let streamed = fold.into_salvaged().expect("finished fold");
            prop_assert_eq!(&streamed.coverage, &batch.coverage);
            prop_assert_eq!(&streamed.reduced.measurements, &batch.reduced.measurements);
            prop_assert_eq!(&streamed.reduced.counts, &batch.reduced.counts);
        }
    }

    // -----------------------------------------------------------------
    // Frame-boundary fuzz: the chunked stream container must decode
    // identically however its bytes are split across feeds — frame and
    // chunk boundaries carry no meaning — and any truncation must
    // surface as a named error, never a panic.

    #[test]
    fn stream_chunking_is_invisible_to_the_decoder(
        (trace, frame_events, chunk) in trace_strategy().prop_flat_map(|t| {
            (Just(t), 1usize..9, 1usize..257)
        })
    ) {
        let v3 = stream::to_stream_bytes(&trace, frame_events).unwrap().to_vec();
        prop_assert_eq!(decode_chunks(&v3, chunk).unwrap(), trace.clone());
        prop_assert_eq!(decode_chunks(&v3, 1).unwrap(), trace.clone());
        // The legacy whole-file container decodes through the same
        // chunked path, split just as arbitrarily.
        let v2 = binary::to_bytes(&trace);
        prop_assert_eq!(decode_chunks(&v2, chunk).unwrap(), trace.clone());
        prop_assert_eq!(decode_chunks(&v2, 1).unwrap(), trace);
    }

    #[test]
    fn truncated_streams_surface_named_errors(
        (trace, frame_events, cut_seed, chunk) in trace_strategy().prop_flat_map(|t| {
            (Just(t), 1usize..9, 0usize..4096, 1usize..64)
        })
    ) {
        let bytes = stream::to_stream_bytes(&trace, frame_events).unwrap().to_vec();
        let cut = cut_seed % bytes.len();
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        let mut outcome = Ok(());
        for c in bytes[..cut].chunks(chunk) {
            outcome = dec.feed(c, &mut sink);
            if outcome.is_err() {
                break;
            }
        }
        let finished = outcome.and_then(|()| dec.finish(&mut sink));
        match finished {
            Err(e) => prop_assert!(!e.to_string().is_empty(), "unnamed error at cut {}", cut),
            Ok(()) => {
                return Err(proptest::test_runner::TestCaseError::Fail(
                    format!("truncation at byte {cut} of {} was accepted", bytes.len()),
                ));
            }
        }
    }

    // -----------------------------------------------------------------
    // Windowed reduction: the streaming fold must agree with the batch
    // `reduce_windows` on every well-formed trace — including traces
    // that window degenerately (no span, empty windows, one rank).

    #[test]
    fn windowed_reduction_matches_on_both_paths(
        (trace, windows) in trace_strategy().prop_flat_map(|t| (Just(t), 1usize..6))
    ) {
        let trace = time_ordered(&trace);
        match (reduce_windows(&trace, windows), stream_windows(&trace, windows)) {
            (Ok(batch), Ok(streamed)) => assert_windows_match(&batch, &streamed),
            (Err(b), Err(s)) => prop_assert_eq!(b.to_string(), s.to_string()),
            (b, s) => {
                return Err(proptest::test_runner::TestCaseError::Fail(
                    format!("paths disagree: batch {b:?} vs streamed {s:?}"),
                ));
            }
        }
    }

    #[test]
    fn reduce_checked_names_the_corrupt_event(
        (trace, cut, evil) in trace_strategy().prop_flat_map(|t| {
            let n = t.events().len();
            (Just(t), 0usize..n + 1, 0usize..n.max(1))
        })
    ) {
        prop_assume!(!trace.events().is_empty());
        // Corrupt one event (send it to a processor that does not
        // exist), truncate anywhere after it, and the reduction must
        // come back as a structured error naming that exact event.
        let evil = evil.min(cut.max(1) - 1).min(trace.events().len() - 1);
        prop_assume!(evil < cut);
        let truncated = rebuild(&trace, cut, Some(evil));
        match limba::trace::reduce_checked(&truncated) {
            Err(limba::trace::TraceError::MalformedEvent { proc, index, detail }) => {
                prop_assert_eq!(index, evil);
                prop_assert!(proc >= truncated.processors() as u32);
                prop_assert!(!detail.is_empty());
            }
            other => {
                return Err(proptest::test_runner::TestCaseError::Fail(format!(
                    "expected MalformedEvent for event #{evil}, got {other:?}"
                )));
            }
        }
    }
}

/// Each processor's time with a region or an activity open, from its
/// events in time order: what its cells must sum to.
fn covered_time(trace: &Trace) -> Vec<f64> {
    use limba::trace::EventPayload;
    (0..trace.processors() as u32)
        .map(|p| {
            let (mut depth, mut active, mut last, mut covered) = (0usize, false, 0.0f64, 0.0f64);
            for e in trace.events_by_processor(p) {
                if depth > 0 || active {
                    covered += e.time - last;
                }
                last = e.time;
                match e.payload() {
                    EventPayload::EnterRegion { .. } => depth += 1,
                    EventPayload::LeaveRegion { .. } => depth -= 1,
                    EventPayload::BeginActivity { .. } => active = true,
                    EventPayload::EndActivity { .. } => active = false,
                    _ => {}
                }
            }
            covered
        })
        .collect()
}

/// Equal within a few ulps of the larger magnitude: the paths sum the
/// same intervals in different groupings.
fn conserved(got: f64, expected: f64) -> bool {
    (got - expected).abs() <= 32.0 * f64::EPSILON * got.abs().max(expected.abs())
}

/// Decodes a byte stream through [`StreamDecoder`] in `chunk`-sized
/// feeds, materializing the result.
fn decode_chunks(bytes: &[u8], chunk: usize) -> Result<Trace, TraceError> {
    let mut sink = MaterializeSink::new();
    let mut dec = StreamDecoder::new();
    for c in bytes.chunks(chunk.max(1)) {
        dec.feed(c, &mut sink)?;
    }
    dec.finish(&mut sink)?;
    Ok(sink.into_trace().expect("finished stream materializes"))
}

/// Replays a materialized trace into a sink through the `TraceSink`
/// contract, in small batches so batch boundaries get exercised. Events
/// go out in global time order (stable, like a live recording), so each
/// rank's subsequence matches the batch pipeline's per-processor sort.
fn replay(trace: &Trace, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut events = trace.events().to_vec();
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    sink.begin(trace.processors(), trace.region_names())?;
    for batch in events.chunks(3) {
        sink.events(batch)?;
    }
    sink.finish()
}

/// `trace` re-recorded in global time order (stable): the order
/// [`replay`] delivers events in, with ranks interleaved. The generator
/// records rank by rank, so extras first appear in a different order in
/// its recording than in the replayed stream; re-recording makes the two
/// orders equal, so the batch path's activity scan (recording order) and
/// a streamed fold see the extras in the same order.
fn time_ordered(trace: &Trace) -> Trace {
    rerecord(trace, |a, b| a.time.total_cmp(&b.time))
}

/// `trace` re-recorded rank by rank, each rank's events in time order:
/// the generator's own layout, minus its one liberty (it records a
/// message after the activity interval it falls inside, a backwards
/// clock the streaming folds reject).
fn rank_sorted(trace: &Trace) -> Trace {
    rerecord(trace, |a, b| {
        a.proc.cmp(&b.proc).then(a.time.total_cmp(&b.time))
    })
}

/// `trace` with its events stably sorted by `order`.
fn rerecord(trace: &Trace, order: impl Fn(&Event, &Event) -> std::cmp::Ordering) -> Trace {
    let mut events = trace.events().to_vec();
    events.sort_by(order);
    let mut b = TraceBuilder::new(trace.processors());
    for name in trace.region_names() {
        b.add_region(name.clone());
    }
    for event in events {
        b.push(event);
    }
    b.build().unwrap()
}

/// The streamed counterpart of [`reduce_windows`]: scan pass for the
/// makespan and activity set, then a windowed fold.
fn stream_windows(trace: &Trace, windows: usize) -> Result<Vec<ReducedTrace>, TraceError> {
    let mut scan = ScanSink::new();
    replay(trace, &mut scan)?;
    let scan = scan.into_scan().expect("scan finished");
    let mut sink = WindowSink::new(windows, scan.makespan, scan.activities.clone())?;
    replay(trace, &mut sink)?;
    Ok(sink.into_windows().expect("windowed fold finished"))
}

fn assert_windows_match(batch: &[ReducedTrace], streamed: &[ReducedTrace]) {
    assert_eq!(batch.len(), streamed.len(), "window counts differ");
    for (w, (b, s)) in batch.iter().zip(streamed).enumerate() {
        assert_eq!(
            b.measurements, s.measurements,
            "window {w} measurements differ"
        );
        assert_eq!(b.counts, s.counts, "window {w} counts differ");
    }
}

/// Two ranks whose region visits land exactly on the boundaries of a
/// four-window split over a four-second run: busy over [0, 2] and
/// [3, 4], idle over (2, 3).
fn boundary_trace() -> Trace {
    let region = limba::model::RegionId::new(0);
    let mut b = TraceBuilder::new(2);
    b.add_region("work");
    for p in 0..2u32 {
        for (t0, t1) in [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)] {
            b.push(Event::enter(t0, p, region));
            b.push(Event::leave(t1, p, region));
        }
    }
    b.build().unwrap()
}

#[test]
fn every_split_point_of_the_container_decodes_identically() {
    let trace = boundary_trace();
    for frame_events in [1usize, 3, 1000] {
        let bytes = stream::to_stream_bytes(&trace, frame_events)
            .unwrap()
            .to_vec();
        for cut in 0..=bytes.len() {
            let mut sink = MaterializeSink::new();
            let mut dec = StreamDecoder::new();
            dec.feed(&bytes[..cut], &mut sink).unwrap();
            dec.feed(&bytes[cut..], &mut sink).unwrap();
            dec.finish(&mut sink).unwrap();
            assert_eq!(
                sink.into_trace().unwrap(),
                trace,
                "frames of {frame_events}, split at byte {cut}"
            );
        }
    }
}

#[test]
fn window_boundaries_on_event_edges_conserve_time_exactly() {
    let trace = boundary_trace();
    let batch = reduce_windows(&trace, 4).unwrap();
    let streamed = stream_windows(&trace, 4).unwrap();
    assert_windows_match(&batch, &streamed);
    // Intervals ending exactly on a boundary land in the window they
    // fill; the idle window stays empty; nothing is double-counted.
    for p in 0..2 {
        let pid = limba::model::ProcessorId::new(p);
        let times: Vec<f64> = batch
            .iter()
            .map(|w| w.measurements.processor_time(pid))
            .collect();
        for (w, (&got, want)) in times.iter().zip([1.0, 1.0, 0.0, 1.0]).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "rank {p} window {w}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn more_windows_than_the_run_can_fill_yield_empty_tails_identically() {
    let trace = boundary_trace();
    let batch = reduce_windows(&trace, 50).unwrap();
    let streamed = stream_windows(&trace, 50).unwrap();
    assert_windows_match(&batch, &streamed);
    assert_eq!(batch.len(), 50);
    // Total busy time is conserved across however many slices.
    let total: f64 = batch
        .iter()
        .flat_map(|w| {
            (0..2).map(|p| {
                w.measurements
                    .processor_time(limba::model::ProcessorId::new(p))
            })
        })
        .sum();
    assert!((total - 6.0).abs() < 1e-9, "conserved {total} vs 6.0");
}

#[test]
fn single_rank_traces_window_identically() {
    let region = limba::model::RegionId::new(0);
    let mut b = TraceBuilder::new(1);
    b.add_region("solo");
    b.push(Event::enter(0.0, 0, region));
    b.push(Event::begin_activity(0.5, 0, ActivityKind::Computation));
    b.push(Event::end_activity(2.5, 0, ActivityKind::Computation));
    b.push(Event::leave(3.0, 0, region));
    let trace = b.build().unwrap();
    let batch = reduce_windows(&trace, 3).unwrap();
    let streamed = stream_windows(&trace, 3).unwrap();
    assert_windows_match(&batch, &streamed);
    let total: f64 = batch
        .iter()
        .map(|w| {
            w.measurements
                .processor_time(limba::model::ProcessorId::new(0))
        })
        .sum();
    assert!((total - 3.0).abs() < 1e-9, "conserved {total} vs 3.0");
}

#[test]
fn degenerate_window_requests_fail_identically_on_both_paths() {
    let trace = boundary_trace();
    // Zero windows.
    let b = reduce_windows(&trace, 0).expect_err("zero windows accepted");
    let s = stream_windows(&trace, 0).expect_err("zero windows accepted");
    assert_eq!(b.to_string(), s.to_string());
    // A run spanning no time.
    let region = limba::model::RegionId::new(0);
    let mut tb = TraceBuilder::new(1);
    tb.add_region("instant");
    tb.push(Event::enter(0.0, 0, region));
    tb.push(Event::leave(0.0, 0, region));
    let flat = tb.build().unwrap();
    let b = reduce_windows(&flat, 2).expect_err("zero-span run windowed");
    let s = stream_windows(&flat, 2).expect_err("zero-span run windowed");
    assert_eq!(b.to_string(), s.to_string());
}

#[test]
fn truncation_on_a_window_boundary_is_rejected_identically() {
    // Rank 1's recording stops at t = 2.0 — exactly a boundary of the
    // four-window split — with a region still open. Both the batch
    // validator and the streaming fold must reject it, with the same
    // error.
    let region = limba::model::RegionId::new(0);
    let mut b = TraceBuilder::new(2);
    b.add_region("work");
    for (t0, t1) in [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)] {
        b.push(Event::enter(t0, 0, region));
        b.push(Event::leave(t1, 0, region));
    }
    b.push(Event::enter(0.0, 1, region));
    b.push(Event::leave(1.0, 1, region));
    b.push(Event::enter(2.0, 1, region));
    let trace = b.build().unwrap();
    let be = reduce_windows(&trace, 4).expect_err("truncated trace windowed");
    let se = stream_windows(&trace, 4).expect_err("truncated stream windowed");
    assert_eq!(be.to_string(), se.to_string());
    // The lenient path still salvages it, flagging the cut rank.
    let salvaged = limba::trace::reduce_checked(&trace).unwrap();
    assert!(!salvaged.is_complete());
    assert_eq!(salvaged.incomplete_ranks(), vec![1]);
}

/// Rebuilds `trace` keeping only its first `cut` events; when `corrupt`
/// names an index, that event is retargeted at an out-of-range
/// processor.
fn rebuild(trace: &Trace, cut: usize, corrupt: Option<usize>) -> Trace {
    let mut b = TraceBuilder::new(trace.processors());
    for name in trace.region_names() {
        b.add_region(name.clone());
    }
    for (i, event) in trace.events().iter().take(cut).enumerate() {
        let mut event = *event;
        if corrupt == Some(i) {
            event.proc = trace.processors() as u32 + 7;
        }
        b.push(event);
    }
    b.build().unwrap()
}
