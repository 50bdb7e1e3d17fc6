//! The streaming-dataflow differential harness: the zero-copy pipeline
//! (simulate → byte frames → streaming folds) must be byte-identical to
//! the materializing reference path (simulate → trace → batch reduce)
//! across randomized programs, fault plans, balance plans, frame sizes,
//! and worker counts — reductions, windowed reductions, salvage
//! coverage, and rendered analysis reports alike. Crash-truncated runs
//! and budget/cancellation interruptions must fail (or salvage)
//! identically on both paths, never hang, and never panic.

use limba::analysis::snapshot::canonical;
use limba::analysis::Analyzer;
use limba::mpisim::{
    BalancePlan, FaultPlan, MachineConfig, Program, ProgramBuilder, RunBudget, Simulator,
};
use limba::par::CancelToken;
use limba::stream::{
    stream_reduce, stream_reduce_tee, StreamConfig, StreamError, StreamedReduction,
};
use limba::trace::stream::decode_all;
use limba::trace::{
    reduce_checked, reduce_windows, ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, TeeSink,
    TraceError, WindowSink, WriteSink,
};
use limba::workloads::{cfd::CfdConfig, Imbalance};
use proptest::prelude::*;

/// One phase of a generated program; every variant is globally
/// coordinated, so any sequence of phases is deadlock-free. Mirrors the
/// generator in `simulator_properties.rs`.
#[derive(Debug, Clone)]
enum Phase {
    Compute(Vec<u16>),
    Exchange(u32),
    Collective(u8, u32),
    RingShift(u32),
}

fn phase_strategy(ranks: usize) -> impl Strategy<Value = Phase> {
    prop_oneof![
        proptest::collection::vec(0u16..200, ranks).prop_map(Phase::Compute),
        (1u32..200_000).prop_map(Phase::Exchange),
        (0u8..8, 1u32..100_000).prop_map(|(k, b)| Phase::Collective(k, b)),
        (1u32..200_000).prop_map(Phase::RingShift),
    ]
}

fn program_strategy() -> impl Strategy<Value = (Program, usize)> {
    (2usize..7)
        .prop_flat_map(|ranks| {
            (
                proptest::collection::vec(phase_strategy(ranks), 1..8),
                Just(ranks),
            )
        })
        .prop_map(|(phases, ranks)| {
            let mut pb = ProgramBuilder::new(ranks);
            let region = pb.add_region("phase region");
            for (pi, phase) in phases.iter().enumerate() {
                pb.spmd(|rank, mut ops| {
                    ops.enter(region);
                    match phase {
                        Phase::Compute(amounts) => {
                            ops.compute(amounts[rank] as f64 * 1e-3);
                        }
                        Phase::Exchange(bytes) => {
                            for parity in 0..2usize {
                                if rank % 2 == parity {
                                    if rank + 1 < ranks {
                                        ops.send(rank + 1, *bytes as u64).recv(rank + 1);
                                    }
                                } else if rank >= 1 {
                                    ops.recv(rank - 1).send(rank - 1, *bytes as u64);
                                }
                            }
                        }
                        Phase::Collective(kind, bytes) => {
                            let b = *bytes as u64;
                            match kind % 8 {
                                0 => ops.reduce(b),
                                1 => ops.allreduce(b),
                                2 => ops.broadcast(b),
                                3 => ops.alltoall(b),
                                4 => ops.barrier(),
                                5 => ops.gather(b),
                                6 => ops.scatter(b),
                                _ => ops.allgather(b),
                            };
                        }
                        Phase::RingShift(bytes) => {
                            let right = (rank + 1) % ranks;
                            let left = (rank + ranks - 1) % ranks;
                            let h = (pi as u32) * 2;
                            ops.isend(right, *bytes as u64, h)
                                .irecv(left, h + 1)
                                .compute(0.001)
                                .wait(h)
                                .wait(h + 1);
                        }
                    }
                    ops.leave(region);
                });
            }
            (pb.build().expect("generated programs are valid"), ranks)
        })
}

/// An arbitrary — but always valid — fault plan; mirrors the generator
/// in `simulator_properties.rs` (disjoint slowdown windows, unique
/// crashes, a few degraded links, optional message loss).
fn fault_plan_strategy(ranks: usize) -> impl Strategy<Value = FaultPlan> {
    let slowdowns = proptest::collection::vec(
        proptest::option::of((0u16..800, 1u16..800, 15u8..50)),
        ranks,
    );
    let links = proptest::collection::vec(
        (0..ranks, 1..ranks, 0u16..500, 1u16..500, 1u8..10, 1u8..10),
        0..3,
    );
    let loss = proptest::option::of((0u8..60, 0u8..4, 1u16..50, 10u8..30));
    let crashes = proptest::collection::vec(proptest::option::of(1u16..1500), ranks);
    (1u64..1_000_000, slowdowns, links, loss, crashes).prop_map(
        move |(seed, slowdowns, links, loss, crashes)| {
            let mut plan = FaultPlan::new(seed);
            for (rank, s) in slowdowns.into_iter().enumerate() {
                if let Some((start, len, factor)) = s {
                    plan = plan.with_slowdown(
                        rank,
                        start as f64 * 1e-3,
                        (start + len) as f64 * 1e-3,
                        factor as f64 * 0.1,
                    );
                }
            }
            for (src, dst_offset, start, len, lat, bw) in links {
                plan = plan.with_link_fault(
                    src,
                    (src + dst_offset) % ranks,
                    start as f64 * 1e-3,
                    (start + len) as f64 * 1e-3,
                    lat as f64,
                    bw as f64 * 0.5,
                );
            }
            if let Some((rate, retries, timeout, backoff)) = loss {
                plan = plan.with_message_loss(
                    rate as f64 * 0.01,
                    retries as u32,
                    timeout as f64 * 1e-4,
                    backoff as f64 * 0.1,
                );
            }
            for (rank, c) in crashes.into_iter().enumerate() {
                if let Some(time) = c {
                    plan = plan.with_crash(rank, time as f64 * 1e-3);
                }
            }
            plan
        },
    )
}

fn faulted_program_strategy() -> impl Strategy<Value = (Program, usize, FaultPlan)> {
    program_strategy()
        .prop_flat_map(|(program, ranks)| (Just(program), Just(ranks), fault_plan_strategy(ranks)))
}

/// An arbitrary balance plan spanning all three policy families.
fn balance_plan_strategy() -> impl Strategy<Value = BalancePlan> {
    (1u64..1_000_000, 0u8..3, 1u16..100).prop_map(|(seed, kind, p)| match kind {
        0 => BalancePlan::stealing(seed, 1.0 + p as f64 * 0.01),
        1 => BalancePlan::diffusion(seed, p as f64 * 0.01),
        _ => BalancePlan::anticipatory(seed, 2 + (p as usize % 8), p as f64 * 0.005),
    })
}

fn chaos_balanced_strategy() -> impl Strategy<Value = (Program, usize, FaultPlan, BalancePlan)> {
    faulted_program_strategy().prop_flat_map(|(program, ranks, faults)| {
        (
            Just(program),
            Just(ranks),
            Just(faults),
            balance_plan_strategy(),
        )
    })
}

/// The salvaged and (when asked for) windowed reductions of decoded
/// bytes.
type Decoded = (SalvagedTrace, Option<Vec<ReducedTrace>>);

/// The codec leg: the case rerun through [`stream_reduce_tee`] with a
/// [`WriteSink`] tee, and the teed v3 bytes decoded with [`decode_all`]
/// — a scan, then fresh folds — the way `analyze --windows` reads a
/// tracefile: the first read learns the makespan the window fold needs,
/// the second folds the windows (without `--windows` it reads once, its
/// salvage fold seeded with the standard activities, which gives the
/// same result as seeding it from the scan). `stream_reduce` hands the simulator's events to its
/// folds directly, so this leg is what keeps simulator → v3 encoder →
/// decoder → folds locked to the materialized path.
fn teed_and_decoded(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    cfg: &StreamConfig,
) -> (
    Result<StreamedReduction, StreamError>,
    Result<Decoded, TraceError>,
) {
    let mut writer = WriteSink::new(Vec::new());
    let teed = stream_reduce_tee(sim, program, faults, balance, None, cfg, Some(&mut writer));
    let bytes = writer.into_inner();
    (teed, decode_folds(&bytes, cfg.windows))
}

/// Decodes `bytes` twice with [`decode_all`]: into a [`ScanSink`], then
/// into a fresh [`SalvageSink`] (teed with a [`WindowSink`] when
/// `windows` asks for one).
fn decode_folds(bytes: &[u8], windows: Option<usize>) -> Result<Decoded, TraceError> {
    let mut scan = ScanSink::new();
    decode_all(bytes, &mut scan)?;
    let scan = scan.into_scan().expect("decode_all finishes the scan");
    let mut salvage = SalvageSink::new(scan.activities.clone());
    let windows = match windows {
        Some(w) => {
            let mut ws = WindowSink::new(w, scan.makespan, scan.activities)?;
            decode_all(bytes, &mut TeeSink::new(&mut salvage, &mut ws))?;
            Some(ws.into_windows().expect("decode_all finishes the windows"))
        }
        None => {
            decode_all(bytes, &mut salvage)?;
            None
        }
    };
    let salvaged = salvage
        .into_salvaged()
        .expect("decode_all finishes the salvage");
    Ok((salvaged, windows))
}

/// Runs one scenario down both paths and asserts every observable is
/// identical: simulation stats, fault/balance reports, the salvaged
/// reduction (measurements, counts, per-rank coverage), the rendered
/// analysis report, and — when requested — every windowed reduction.
/// When the run itself fails (message loss exhausting retries, budget
/// interruption), both paths must report the same error.
fn check_case(
    program: &Program,
    ranks: usize,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    frame_events: usize,
    jobs: usize,
    windows: usize,
) {
    let sim = Simulator::new(MachineConfig::new(ranks));
    let reference = sim.run_configured(program, faults, balance, None);
    // Windowing a zero-span run is a degenerate request both paths
    // reject; the window comparison only makes sense when it's valid.
    let windows = match &reference {
        Ok(o) if o.stats.makespan > 0.0 => windows,
        _ => 0,
    };
    let cfg = StreamConfig {
        frame_events,
        jobs,
        windows: (windows > 0).then_some(windows),
    };
    let streamed = stream_reduce(&sim, program, faults, balance, None, &cfg);
    let (output, streamed) = match (reference, streamed) {
        (Ok(o), Ok(s)) => (o, s),
        (Err(e), Err(StreamError::Sim(se))) => {
            assert_eq!(
                se.to_string(),
                e.to_string(),
                "paths disagree on the failure"
            );
            return;
        }
        // The windowed fold rejected the stream (e.g. crash truncation
        // left a region open): batch windowing of the materialized
        // trace must reject it with the identical diagnostic.
        (Ok(o), Err(StreamError::Trace(te))) if windows > 0 => {
            let be = reduce_windows(&o.trace, windows)
                .expect_err("streamed windowing failed but batch accepted the trace");
            assert_eq!(te.to_string(), be.to_string(), "rejections diverge");
            // The tee finishes before the folds, so its bytes are a
            // whole stream: decoding them must reject identically.
            let (teed, decoded) = teed_and_decoded(&sim, program, faults, balance, &cfg);
            match teed {
                Err(StreamError::Trace(e)) => assert_eq!(e.to_string(), be.to_string()),
                other => panic!(
                    "teed run must reject like the plain one, got ok={}",
                    other.is_ok()
                ),
            }
            let de = decoded.expect_err("decoded windowing accepted a rejected stream");
            assert_eq!(de.to_string(), be.to_string(), "decoded rejection diverges");
            return;
        }
        (r, s) => panic!(
            "paths disagree on outcome: materialized ok={}, streamed ok={}",
            r.is_ok(),
            s.is_ok()
        ),
    };

    assert_eq!(streamed.output.stats, output.stats, "stats diverge");
    assert_eq!(
        streamed.output.faults, output.faults,
        "fault reports diverge"
    );
    assert_eq!(
        streamed.output.balance, output.balance,
        "balance reports diverge"
    );
    assert_eq!(
        streamed.scan.events as usize,
        output.trace.events().len(),
        "scan event count diverges from the materialized trace"
    );

    let batch = reduce_checked(&output.trace).expect("simulator traces reduce");
    assert_eq!(
        streamed.salvaged.reduced.measurements, batch.reduced.measurements,
        "measurements diverge"
    );
    assert_eq!(
        streamed.salvaged.reduced.counts, batch.reduced.counts,
        "count matrices diverge"
    );
    assert_eq!(
        streamed.salvaged.coverage, batch.coverage,
        "salvage coverage diverges"
    );

    // The rendered analysis report, canonically serialized: identical
    // inputs must stay identical through the whole reporting stack.
    let batch_report =
        Analyzer::new().analyze_with_counts(&batch.reduced.measurements, &batch.reduced.counts);
    let stream_report = Analyzer::new().analyze_with_counts(
        &streamed.salvaged.reduced.measurements,
        &streamed.salvaged.reduced.counts,
    );
    match (batch_report, stream_report) {
        (Ok(b), Ok(s)) => assert_eq!(canonical(&b), canonical(&s), "reports diverge"),
        (Err(b), Err(s)) => assert_eq!(b.to_string(), s.to_string()),
        _ => panic!("analysis outcomes diverge between the paths"),
    }

    // The codec leg.
    let (teed, decoded) = teed_and_decoded(&sim, program, faults, balance, &cfg);
    let teed = teed.expect("the teed run succeeds like the plain one");
    assert_eq!(
        teed.salvaged.reduced.measurements, batch.reduced.measurements,
        "teed measurements diverge"
    );
    let (decoded, decoded_windows) = decoded.expect("the teed bytes decode");
    assert_eq!(
        decoded.reduced.measurements, batch.reduced.measurements,
        "decoded measurements diverge"
    );
    assert_eq!(
        decoded.reduced.counts, batch.reduced.counts,
        "decoded count matrices diverge"
    );
    assert_eq!(
        decoded.coverage, batch.coverage,
        "decoded salvage coverage diverges"
    );
    if windows > 0 {
        let batch_windows =
            reduce_windows(&output.trace, windows).expect("windowing a positive-span run");
        let stream_windows = streamed.windows.expect("streamed windows were requested");
        assert_eq!(batch_windows.len(), stream_windows.len());
        for (i, (b, s)) in batch_windows.iter().zip(&stream_windows).enumerate() {
            assert_eq!(b.measurements, s.measurements, "window {i} measurements");
            assert_eq!(b.counts, s.counts, "window {i} counts");
        }
        let decoded_windows = decoded_windows.expect("decoded windows were requested");
        assert_eq!(batch_windows.len(), decoded_windows.len());
        for (i, (b, d)) in batch_windows.iter().zip(&decoded_windows).enumerate() {
            assert_eq!(
                b.measurements, d.measurements,
                "decoded window {i} measurements"
            );
            assert_eq!(b.counts, d.counts, "decoded window {i} counts");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clean_runs_stream_identically(
        (program, ranks) in program_strategy(),
        frame_events in prop_oneof![Just(1usize), Just(3), Just(64), Just(4096)],
        jobs in prop_oneof![Just(1usize), Just(4)],
        windows in 0usize..5,
    ) {
        check_case(&program, ranks, None, None, frame_events, jobs, windows);
    }

    #[test]
    fn crash_truncated_runs_stream_identically(
        (program, ranks, faults) in faulted_program_strategy(),
        frame_events in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        faults.validate(ranks).expect("generated plans are valid");
        check_case(&program, ranks, Some(&faults), None, frame_events, 1, 3);
    }

    #[test]
    fn chaos_balanced_runs_stream_identically(
        (program, ranks, faults, balance) in chaos_balanced_strategy(),
        frame_events in prop_oneof![Just(2usize), Just(64)],
        jobs in prop_oneof![Just(1usize), Just(3)],
    ) {
        faults.validate(ranks).expect("generated plans are valid");
        check_case(&program, ranks, Some(&faults), Some(&balance), frame_events, jobs, 2);
    }
}

fn cfd_program(ranks: usize, iterations: usize) -> Program {
    CfdConfig::new(ranks)
        .with_iterations(iterations)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .build_program()
        .unwrap()
}

/// The frame size is a pure transport knob: every size — down to one
/// event per frame — must produce the same reduction to the bit.
#[test]
fn frame_size_is_invisible_in_the_results() {
    let ranks = 8;
    let program = cfd_program(ranks, 2);
    let sim = Simulator::new(MachineConfig::new(ranks));
    let run = |frame_events: usize| {
        let cfg = StreamConfig {
            frame_events,
            windows: Some(4),
            ..StreamConfig::default()
        };
        stream_reduce(&sim, &program, None, None, None, &cfg).unwrap()
    };
    let baseline = run(4096);
    for frame_events in [1, 2, 7, 64, 1000] {
        let other = run(frame_events);
        assert_eq!(
            baseline.salvaged.reduced.measurements, other.salvaged.reduced.measurements,
            "frame size {frame_events} perturbed the measurements"
        );
        assert_eq!(
            baseline.salvaged.reduced.counts, other.salvaged.reduced.counts,
            "frame size {frame_events} perturbed the counts"
        );
        assert_eq!(baseline.output.stats, other.output.stats);
        let bw = baseline.windows.as_ref().unwrap();
        let ow = other.windows.as_ref().unwrap();
        assert_eq!(bw.len(), ow.len());
        for (b, o) in bw.iter().zip(ow) {
            assert_eq!(b.measurements, o.measurements);
        }
    }
}

/// A limba-guard cancellation token tripped before the run starts: the
/// pipeline must fail with the same clean interruption the materialized
/// path reports — no hang, no partial result dressed up as complete.
#[test]
fn pre_tripped_cancellation_is_a_clean_error() {
    let ranks = 8;
    let program = cfd_program(ranks, 2);
    let sim = Simulator::new(MachineConfig::new(ranks));
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget {
        cancel: Some(token),
        ..RunBudget::unlimited()
    };
    let reference = sim
        .run_configured(&program, None, None, Some(&budget))
        .unwrap_err();
    let streamed = stream_reduce(
        &sim,
        &program,
        None,
        None,
        Some(&budget),
        &StreamConfig::default(),
    )
    .unwrap_err();
    match streamed {
        StreamError::Sim(e) => assert_eq!(e.to_string(), reference.to_string()),
        other => panic!("expected a simulation interruption, got {other}"),
    }
}

/// An op budget that fires mid-run — a cancellation point while frames
/// are in flight. Both paths must stop with the identical diagnostic.
#[test]
fn mid_stream_budget_interruption_matches_the_materialized_path() {
    let ranks = 8;
    let program = cfd_program(ranks, 4);
    let sim = Simulator::new(MachineConfig::new(ranks));
    let budget = RunBudget {
        max_ops: Some(37),
        ..RunBudget::unlimited()
    };
    let reference = sim
        .run_configured(&program, None, None, Some(&budget))
        .unwrap_err();
    // One event per frame maximizes the frames in flight at the cut.
    let cfg = StreamConfig {
        frame_events: 1,
        ..StreamConfig::default()
    };
    let streamed = stream_reduce(&sim, &program, None, None, Some(&budget), &cfg).unwrap_err();
    match streamed {
        StreamError::Sim(e) => assert_eq!(e.to_string(), reference.to_string()),
        other => panic!("expected a simulation interruption, got {other}"),
    }
}
