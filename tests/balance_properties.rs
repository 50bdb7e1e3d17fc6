//! Property-based tests of the in-loop dynamic balancing policies:
//! random programs × machines × balance plans, executed on both
//! engines.
//!
//! These lock the tentpole guarantees of the balance subsystem:
//!
//! * **engine bit-identity** — the event-driven and polling engines
//!   produce byte-identical traces, statistics, and balance reports for
//!   every policy (the policies are pure functions of the shared load
//!   view, so the engines cannot diverge);
//! * **never worse** — the executor's profitability guard only accepts
//!   migrations that strictly improve the donor's op completion, so a
//!   balanced run's makespan never exceeds the unbalanced run's;
//! * **conservation** — migrated work is accounted exactly: donated ==
//!   received == moved, and each rank's local + donated work equals its
//!   program's compute spec;
//! * **jobs invariance** — replication sweeps under a balance plan are
//!   byte-identical at every worker count;
//! * **no-op identity** — a policy that can never trigger leaves the
//!   run byte-identical to no plan at all.

use limba::mpisim::{BalancePlan, MachineConfig, Program, ProgramBuilder, Simulator};
use proptest::prelude::*;

/// One globally coordinated phase; any sequence is deadlock-free.
#[derive(Debug, Clone)]
enum Phase {
    /// Per-rank compute amounts (milliseconds) — the skew balance acts on.
    Compute(Vec<u16>),
    /// Phased neighbor exchange along the chain with this payload.
    Exchange(u32),
    /// A collective of the given discriminant and payload.
    Collective(u8, u32),
}

fn phase_strategy(ranks: usize) -> impl Strategy<Value = Phase> {
    prop_oneof![
        proptest::collection::vec(0u16..300, ranks).prop_map(Phase::Compute),
        proptest::collection::vec(0u16..300, ranks).prop_map(Phase::Compute),
        (1u32..100_000).prop_map(Phase::Exchange),
        (0u8..8, 1u32..50_000).prop_map(|(k, b)| Phase::Collective(k, b)),
    ]
}

fn build(ranks: usize, phases: &[Phase]) -> Program {
    let mut pb = ProgramBuilder::new(ranks);
    let region = pb.add_region("phase region");
    for phase in phases {
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
            }
            ops.leave(region);
        });
    }
    pb.build().expect("generated programs are valid")
}

fn program_strategy() -> impl Strategy<Value = (Program, usize)> {
    (2usize..7)
        .prop_flat_map(|ranks| {
            (
                proptest::collection::vec(phase_strategy(ranks), 1..8),
                Just(ranks),
            )
        })
        .prop_map(|(phases, ranks)| (build(ranks, &phases), ranks))
}

/// An arbitrary machine: uniform or per-rank CPU speeds, and sometimes
/// link overrides (which become the diffusion policy's topology).
fn machine_strategy(ranks: usize) -> impl Strategy<Value = MachineConfig> {
    let speeds = proptest::option::of(proptest::collection::vec(5u8..30, ranks));
    let links = proptest::collection::vec((0..ranks, 1..ranks, 1u8..10, 1u8..20), 0..3);
    (speeds, links).prop_map(move |(speeds, links)| {
        let mut config = MachineConfig::new(ranks);
        if let Some(speeds) = speeds {
            config = config.with_cpu_speeds(speeds.into_iter().map(|s| s as f64 * 0.1).collect());
        }
        for (src, dst_offset, lat, bw) in links {
            let dst = (src + dst_offset) % ranks;
            config = config.with_link(src, dst, lat as f64 * 1e-5, bw as f64 * 1e7);
        }
        config
    })
}

/// An arbitrary — but always valid — [`BalancePlan`]: every policy
/// family, the full parameter ranges, and a random migration cap.
fn balance_plan_strategy() -> impl Strategy<Value = BalancePlan> {
    let policy = prop_oneof![
        (100u16..200).prop_map(|t| ("stealing", t)),
        (5u16..100).prop_map(|r| ("diffusion", r)),
        (2u16..10).prop_map(|w| ("anticipatory", w)),
    ];
    (1u64..1_000_000, policy, 1u8..10, 0u8..4).prop_map(
        |(seed, (name, param), max_fraction, sensitivity)| {
            let plan = match name {
                "stealing" => BalancePlan::stealing(seed, param as f64 * 0.01),
                "diffusion" => BalancePlan::diffusion(seed, param as f64 * 0.01),
                _ => BalancePlan::anticipatory(seed, param as usize, sensitivity as f64 * 0.25),
            };
            plan.with_max_fraction(max_fraction as f64 * 0.1)
        },
    )
}

fn balanced_strategy() -> impl Strategy<Value = (Program, MachineConfig, BalancePlan)> {
    program_strategy().prop_flat_map(|(program, ranks)| {
        (
            Just(program),
            machine_strategy(ranks),
            balance_plan_strategy(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balance_differential_engines_agree((program, config, plan) in balanced_strategy()) {
        plan.validate().expect("generated plans are valid");
        let sim = Simulator::new(config);
        let event = sim.run_configured(&program, None, Some(&plan), None).unwrap();
        let polling = sim.run_polling_configured(&program, None, Some(&plan), None).unwrap();
        prop_assert_eq!(
            limba::trace::binary::to_bytes(&event.trace),
            limba::trace::binary::to_bytes(&polling.trace)
        );
        prop_assert_eq!(&event.stats, &polling.stats);
        prop_assert_eq!(&event.balance, &polling.balance);
    }

    #[test]
    fn balanced_runs_never_worse((program, config, plan) in balanced_strategy()) {
        // The profitability guard: every accepted migration strictly
        // improves the donor's op completion, so the balanced makespan
        // never exceeds the unbalanced one — for any policy, machine,
        // and program.
        let sim = Simulator::new(config);
        let base = sim.run(&program).unwrap();
        let balanced = sim.run_configured(&program, None, Some(&plan), None).unwrap();
        prop_assert!(
            balanced.stats.makespan <= base.stats.makespan + 1e-9,
            "balanced {} > unbalanced {} under {}",
            balanced.stats.makespan,
            base.stats.makespan,
            plan.signature()
        );
    }

    #[test]
    fn migration_accounting_conserves_work((program, config, plan) in balanced_strategy()) {
        let sim = Simulator::new(config);
        let out = sim.run_configured(&program, None, Some(&plan), None).unwrap();
        let report = &out.balance;
        let donated: f64 = report.donated_seconds.iter().sum();
        let received: f64 = report.received_seconds.iter().sum();
        let tol = 1e-9 * donated.abs().max(1.0);
        prop_assert!((donated - report.moved_seconds).abs() <= tol);
        prop_assert!((received - report.moved_seconds).abs() <= tol);
        if report.migrations == 0 {
            prop_assert_eq!(report.moved_seconds, 0.0);
        }
        // Each rank's executed work is split exactly between "kept
        // local" and "donated away": the sum is its program spec.
        for rank in 0..program.ranks() {
            let spec: f64 = program
                .ops(rank)
                .iter()
                .filter_map(|op| match op {
                    limba::mpisim::Op::Compute { seconds } => Some(*seconds),
                    _ => None,
                })
                .sum();
            let accounted = report.local_seconds[rank] + report.donated_seconds[rank];
            prop_assert!(
                (accounted - spec).abs() <= 1e-9 * spec.max(1.0),
                "rank {}: local {} + donated {} != spec {}",
                rank,
                report.local_seconds[rank],
                report.donated_seconds[rank],
                spec
            );
        }
    }

    #[test]
    fn balanced_sweeps_are_jobs_invariant(
        (program, config, plan) in balanced_strategy(),
        root_seed in 1u64..100_000,
    ) {
        // Replication sweeps derive a per-replication balance seed from
        // the plan's root seed; the derivation — and therefore every
        // byte of every replication — is independent of the worker
        // count.
        let sim = Simulator::new(config);
        let reference: Vec<_> = sim
            .run_replications(4, root_seed, 1, None, Some(&plan), |_, _| {
                Ok(program.clone())
            })
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(reference.len(), 4);
        for jobs in [2, 4] {
            let runs: Vec<_> = sim
                .run_replications(4, root_seed, jobs, None, Some(&plan), |_, _| {
                    Ok(program.clone())
                })
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            for (a, b) in reference.iter().zip(&runs) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.seed, b.seed);
                prop_assert_eq!(
                    limba::trace::binary::to_bytes(&a.output.trace),
                    limba::trace::binary::to_bytes(&b.output.trace)
                );
                prop_assert_eq!(&a.output.stats, &b.output.stats);
                prop_assert_eq!(&a.output.balance, &b.output.balance);
            }
        }
    }

    #[test]
    fn never_triggering_policy_matches_unbalanced_run(
        (program, ranks) in program_strategy(),
        seed in 1u64..1000,
    ) {
        // A stealing threshold no finite load can exceed: the policy
        // runs (warmup, load tracking, decisions) but every decision is
        // empty — the run must be byte-identical to no plan at all, on
        // both engines, and report zero migrations.
        let sim = Simulator::new(MachineConfig::new(ranks));
        let inert = BalancePlan::stealing(seed, 1e12);
        let base = sim.run(&program).unwrap();
        let balanced = sim.run_configured(&program, None, Some(&inert), None).unwrap();
        prop_assert_eq!(&base.trace, &balanced.trace);
        prop_assert_eq!(&base.stats, &balanced.stats);
        prop_assert_eq!(balanced.balance.migrations, 0);
        prop_assert_eq!(balanced.balance.moved_seconds, 0.0);
        let polling = sim.run_polling_configured(&program, None, Some(&inert), None).unwrap();
        prop_assert_eq!(&base.trace, &polling.trace);
    }
}

/// The committed imbalanced presets must actually help: every policy
/// preset improves (or at least never worsens) the skewed CFD and
/// irregular-mesh proxies, and the workhorse stealing preset must
/// migrate real work on both.
#[test]
fn presets_never_worsen_imbalanced_workloads() {
    use limba::workloads::balance::{preset, PRESETS};
    use limba::workloads::cfd::CfdConfig;
    use limba::workloads::irregular::IrregularConfig;
    use limba::workloads::Imbalance;

    let ranks = 8;
    let programs = [
        (
            "cfd",
            CfdConfig::new(ranks)
                .with_iterations(3)
                .with_imbalance(Imbalance::LinearSkew { spread: 0.5 })
                .build_program()
                .unwrap(),
        ),
        (
            "irregular",
            IrregularConfig::new(ranks)
                .with_imbalance(Imbalance::RandomJitter { amplitude: 0.4 })
                .with_seed(7)
                .build_program()
                .unwrap(),
        ),
    ];
    let sim = Simulator::new(MachineConfig::new(ranks));
    for (name, program) in &programs {
        let base = sim.run(program).unwrap();
        for &policy in PRESETS {
            let plan = preset(policy).unwrap();
            let balanced = sim
                .run_configured(program, None, Some(&plan), None)
                .unwrap();
            assert!(
                balanced.stats.makespan <= base.stats.makespan + 1e-9,
                "{policy} worsened {name}: {} > {}",
                balanced.stats.makespan,
                base.stats.makespan
            );
            if policy == "stealing" {
                assert!(
                    balanced.balance.migrations > 0,
                    "stealing never fired on {name}"
                );
            }
        }
    }
}
