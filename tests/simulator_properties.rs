//! Property-based tests of the discrete-event simulator on randomly
//! generated, deadlock-free-by-construction programs.

use limba::model::{ActivityKind, ProcessorId};
use limba::mpisim::{BalancePlan, FaultPlan, MachineConfig, Program, ProgramBuilder, Simulator};
use proptest::prelude::*;

/// One phase of a generated program; every variant is globally
/// coordinated, so any sequence of phases is deadlock-free.
#[derive(Debug, Clone)]
enum Phase {
    /// Per-rank compute amounts (milliseconds).
    Compute(Vec<u16>),
    /// Phased neighbor exchange along the chain with this payload.
    Exchange(u32),
    /// A collective of the given discriminant and payload.
    Collective(u8, u32),
    /// Nonblocking ring shift: every rank isends right, irecvs left,
    /// computes a little, then waits both.
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
                            // The two-phase pairing used by the workloads.
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

/// An arbitrary — but always valid — [`FaultPlan`] for a machine of
/// `ranks` ranks: at most one slowdown window and one crash per rank
/// (keeping windows disjoint and crashes unique by construction), a few
/// degraded links, and an optional lossy-network clause.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_never_deadlock((program, ranks) in program_strategy()) {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let out = sim.run(&program).expect("deadlock-free by construction");
        prop_assert!(out.stats.makespan.is_finite());
        prop_assert!(out.stats.makespan >= 0.0);
    }

    #[test]
    fn simulation_is_deterministic((program, ranks) in program_strategy()) {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let a = sim.run(&program).unwrap();
        let b = sim.run(&program).unwrap();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn traces_validate_and_reduce((program, ranks) in program_strategy()) {
        let out = Simulator::new(MachineConfig::new(ranks)).run(&program).unwrap();
        out.trace.validate().expect("simulator traces are well-formed");
        let reduced = out.reduce().unwrap();
        // Every rank's attributed time is bounded by the makespan.
        for p in 0..ranks {
            let t = reduced.measurements.processor_time(ProcessorId::new(p));
            prop_assert!(t <= out.stats.makespan + 1e-9);
        }
    }

    #[test]
    fn makespan_is_at_least_the_heaviest_rank((program, ranks) in program_strategy()) {
        let out = Simulator::new(MachineConfig::new(ranks)).run(&program).unwrap();
        // Lower bound: the largest pure-compute sum over ranks.
        let mut heaviest = 0.0f64;
        for rank in 0..ranks {
            let compute: f64 = program
                .ops(rank)
                .iter()
                .filter_map(|op| match op {
                    limba::mpisim::Op::Compute { seconds } => Some(*seconds),
                    _ => None,
                })
                .sum();
            heaviest = heaviest.max(compute);
        }
        prop_assert!(out.stats.makespan >= heaviest - 1e-9);
    }

    #[test]
    fn slowing_one_cpu_never_reduces_makespan((program, ranks) in program_strategy(), slow in 0usize..7) {
        let slow = slow % ranks;
        let base = Simulator::new(MachineConfig::new(ranks)).run(&program).unwrap();
        let degraded = Simulator::new(MachineConfig::new(ranks).with_cpu_speed(slow, 0.5))
            .run(&program)
            .unwrap();
        prop_assert!(degraded.stats.makespan >= base.stats.makespan - 1e-9);
    }

    #[test]
    fn sent_and_received_counts_agree((program, ranks) in program_strategy()) {
        let out = Simulator::new(MachineConfig::new(ranks)).run(&program).unwrap();
        let reduced = out.reduce().unwrap();
        use limba::model::CountKind;
        let total = |kind: CountKind| -> f64 {
            reduced
                .counts
                .cells()
                .filter(|(_, k, _)| *k == kind)
                .map(|(_, _, s)| s.iter().sum::<f64>())
                .sum()
        };
        prop_assert_eq!(total(CountKind::MessagesSent), total(CountKind::MessagesReceived));
        prop_assert_eq!(total(CountKind::BytesSent), total(CountKind::BytesReceived));
    }

    #[test]
    fn compute_time_matches_program_spec((program, ranks) in program_strategy()) {
        // With homogeneous CPUs, each rank's attributed computation time
        // equals its program's compute sum exactly (waits go to other
        // activities).
        let out = Simulator::new(MachineConfig::new(ranks)).run(&program).unwrap();
        let m = out.reduce().unwrap().measurements;
        for rank in 0..ranks {
            let spec: f64 = program
                .ops(rank)
                .iter()
                .filter_map(|op| match op {
                    limba::mpisim::Op::Compute { seconds } => Some(*seconds),
                    _ => None,
                })
                .sum();
            let measured: f64 = m
                .region_ids()
                .map(|r| m.time(r, ActivityKind::Computation, ProcessorId::new(rank)))
                .sum();
            prop_assert!(
                (measured - spec).abs() < 1e-9,
                "rank {}: measured {} vs spec {}",
                rank, measured, spec
            );
        }
    }

    // -----------------------------------------------------------------
    // Chaos differential: random programs × random fault plans.

    #[test]
    fn chaos_differential_engines_agree((program, ranks, plan) in faulted_program_strategy()) {
        plan.validate(ranks).expect("generated plans are valid");
        let sim = Simulator::new(MachineConfig::new(ranks));
        match (
            sim.run_configured(&program, Some(&plan), None, None),
            sim.run_polling_configured(&program, Some(&plan), None, None),
        ) {
            (Ok(event), Ok(polling)) => {
                // Bit-identical traces (compared as serialized bytes),
                // statistics, and fault diagnostics — across the whole
                // engine triple, including the parallel scheduler.
                prop_assert_eq!(
                    limba::trace::binary::to_bytes(&event.trace),
                    limba::trace::binary::to_bytes(&polling.trace)
                );
                prop_assert_eq!(&event.stats, &polling.stats);
                prop_assert_eq!(&event.faults, &polling.faults);
                let par = sim
                    .run_parallel_configured(&program, Some(&plan), None, None, 4)
                    .expect("event-par agrees with event on outcome");
                prop_assert_eq!(&event.trace, &par.trace);
                prop_assert_eq!(&event.stats, &par.stats);
                prop_assert_eq!(&event.faults, &par.faults);
            }
            (Err(event), Err(polling)) => {
                prop_assert_eq!(event.to_string(), polling.to_string());
                let par = sim
                    .run_parallel_configured(&program, Some(&plan), None, None, 4)
                    .unwrap_err();
                prop_assert_eq!(event.to_string(), par.to_string());
            }
            (event, polling) => {
                return Err(proptest::test_runner::TestCaseError::Fail(format!(
                    "engines disagree on outcome: event {event:?} vs polling {polling:?}"
                )));
            }
        }
    }

    #[test]
    fn faulted_runs_are_deterministic((program, ranks, plan) in faulted_program_strategy()) {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let a = sim.run_configured(&program, Some(&plan), None, None).unwrap();
        let b = sim.run_configured(&program, Some(&plan), None, None).unwrap();
        prop_assert_eq!(&a.trace, &b.trace);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(&a.faults, &b.faults);
    }

    #[test]
    fn faulted_traces_always_salvage((program, ranks, plan) in faulted_program_strategy()) {
        // Whatever the fault plan truncates, the analysis layer accepts
        // the trace: `reduce_checked` salvages it, and every rank it
        // flags as incomplete is one the fault report can explain.
        let out = Simulator::new(MachineConfig::new(ranks))
            .run_configured(&program, Some(&plan), None, None)
            .unwrap();
        let salvaged = limba::trace::reduce_checked(&out.trace)
            .expect("simulator traces always salvage");
        prop_assert_eq!(salvaged.coverage.len(), ranks);
        let explained: Vec<usize> = out.faults.incomplete_ranks();
        for proc in salvaged.incomplete_ranks() {
            prop_assert!(
                explained.contains(&(proc as usize)),
                "rank {} truncated without a crash or interruption (faults: {:?})",
                proc, out.faults
            );
        }
        // Salvaged per-rank time never exceeds the makespan.
        for p in 0..ranks {
            let t = salvaged.reduced.measurements.processor_time(ProcessorId::new(p));
            prop_assert!(t <= out.stats.makespan + 1e-9);
        }
    }

    #[test]
    fn clean_plan_matches_unfaulted_run((program, ranks) in program_strategy(), seed in 1u64..1000) {
        // A fault plan that injects nothing must be byte-identical to no
        // plan at all, on both engines.
        let sim = Simulator::new(MachineConfig::new(ranks));
        let empty = FaultPlan::new(seed);
        let base = sim.run(&program).unwrap();
        let faulted = sim.run_configured(&program, Some(&empty), None, None).unwrap();
        prop_assert_eq!(&base.trace, &faulted.trace);
        prop_assert_eq!(&base.stats, &faulted.stats);
        prop_assert!(faulted.faults.is_clean());
        let polling = sim.run_polling_configured(&program, Some(&empty), None, None).unwrap();
        prop_assert_eq!(&base.trace, &polling.trace);
    }

    #[test]
    fn balanced_chaos_differential_engines_agree(
        (program, ranks, faults, balance) in chaos_balanced_strategy(),
    ) {
        // Faults and dynamic balancing compose: with both active, the
        // event and polling engines still agree byte-for-byte — on the
        // trace, statistics, fault diagnostics, AND the migration
        // ledger.
        faults.validate(ranks).expect("generated fault plans are valid");
        balance.validate().expect("generated balance plans are valid");
        let sim = Simulator::new(MachineConfig::new(ranks));
        match (
            sim.run_configured(&program, Some(&faults), Some(&balance), None),
            sim.run_polling_configured(&program, Some(&faults), Some(&balance), None),
        ) {
            (Ok(event), Ok(polling)) => {
                prop_assert_eq!(
                    limba::trace::binary::to_bytes(&event.trace),
                    limba::trace::binary::to_bytes(&polling.trace)
                );
                prop_assert_eq!(&event.stats, &polling.stats);
                prop_assert_eq!(&event.faults, &polling.faults);
                prop_assert_eq!(&event.balance, &polling.balance);
                let par = sim
                    .run_parallel_configured(&program, Some(&faults), Some(&balance), None, 4)
                    .expect("event-par agrees with event on outcome");
                prop_assert_eq!(&event.trace, &par.trace);
                prop_assert_eq!(&event.stats, &par.stats);
                prop_assert_eq!(&event.faults, &par.faults);
                prop_assert_eq!(&event.balance, &par.balance);
            }
            (Err(event), Err(polling)) => {
                prop_assert_eq!(event.to_string(), polling.to_string());
            }
            (event, polling) => {
                return Err(proptest::test_runner::TestCaseError::Fail(format!(
                    "engines disagree on outcome: event {event:?} vs polling {polling:?}"
                )));
            }
        }
    }

    #[test]
    fn crashed_ranks_stolen_work_stays_accounted(
        (program, ranks, faults, balance) in chaos_balanced_strategy(),
    ) {
        // A crash truncates execution; it must never corrupt the
        // migration ledger. Conservation still holds exactly (donated ==
        // moved == received), and no rank's accounted work exceeds its
        // program spec — stolen work of a crashed rank is not
        // resurrected elsewhere.
        let sim = Simulator::new(MachineConfig::new(ranks));
        let Ok(out) = sim.run_configured(&program, Some(&faults), Some(&balance), None) else {
            return Ok(()); // total-crash outcomes are covered above
        };
        let report = &out.balance;
        let donated: f64 = report.donated_seconds.iter().sum();
        let received: f64 = report.received_seconds.iter().sum();
        let tol = 1e-9 * donated.abs().max(1.0);
        prop_assert!((donated - report.moved_seconds).abs() <= tol);
        prop_assert!((received - report.moved_seconds).abs() <= tol);
        for rank in 0..ranks {
            let spec: f64 = program
                .ops(rank)
                .iter()
                .filter_map(|op| match op {
                    limba::mpisim::Op::Compute { seconds } => Some(*seconds),
                    _ => None,
                })
                .sum();
            prop_assert!(
                report.local_seconds[rank] + report.donated_seconds[rank] <= spec + 1e-9,
                "rank {} accounted for more work than its spec under faults",
                rank
            );
        }
    }
}

/// A crash leaves every rank's stream open: the strict reduction
/// refuses the trace, and `SimOutput::reduce` is the salvaged
/// reduction, open spans closed at each rank's last event.
#[test]
fn crashed_run_reduces_to_its_salvage() {
    use limba::trace::{Event, TraceBuilder};
    use limba::workloads::cfd::CfdConfig;
    use limba::workloads::Imbalance;

    let ranks = 16;
    let program = CfdConfig::new(ranks)
        .with_iterations(2)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .build_program()
        .unwrap();
    let sim = Simulator::new(MachineConfig::new(ranks));
    let horizon = sim.run(&program).unwrap().stats.makespan;
    let plan = limba::workloads::faults::preset("crash", ranks, horizon).unwrap();
    let out = sim
        .run_configured(&program, Some(&plan), None, None)
        .unwrap();
    assert!(limba::trace::reduce(&out.trace).is_err());
    let salvaged = out.reduce_checked().unwrap();
    assert_eq!(salvaged.incomplete_ranks().len(), ranks);
    let reduced = out.reduce().unwrap();
    assert_eq!(reduced.measurements, salvaged.reduced.measurements);
    assert_eq!(reduced.counts, salvaged.reduced.counts);

    // The crash leaves only empty spans open. A stream cut after a
    // message inside an open region leaves one second open, which the
    // reduction closes out like the salvage does instead of dropping.
    let mut cut = out.clone();
    let mut b = TraceBuilder::new(1);
    let r = b.add_region("r");
    b.push(Event::enter(0.0, 0, r));
    b.push(Event::message_send(1.0, 0, 0, 8));
    cut.trace = b.build();
    let p0 = ProcessorId::new(0);
    let computation = |m: &limba::model::Measurements| m.time(r, ActivityKind::Computation, p0);
    assert_eq!(computation(&cut.reduce().unwrap().measurements), 1.0);
    assert_eq!(cut.reduce_checked().unwrap().incomplete_ranks(), [0]);
}
