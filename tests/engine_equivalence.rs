//! Equivalence harness for the simulator's two execution cores: the
//! event-driven wakeup-list scheduler (`Simulator::run`) must be
//! bit-identical to the reference polling scheduler
//! (`Simulator::run_polling_configured`) — same trace bytes, same stats, same
//! deadlock diagnostics — on the paper case, every synthetic workload,
//! and randomized programs.
//!
//! The canonical analysis snapshots are additionally locked against
//! golden files so an engine change that shifts any downstream number
//! shows up as a byte diff. Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test --test engine_equivalence`.

use std::path::PathBuf;

use limba::analysis::snapshot::canonical;
use limba::analysis::Analyzer;
use limba::mpisim::{MachineConfig, Program, ProgramBuilder, SimError, SimOutput, Simulator};
use limba::workloads::{
    amr::AmrConfig, cfd::CfdConfig, fft::FftConfig, irregular::IrregularConfig,
    master_worker::MasterWorkerConfig, pipeline::PipelineConfig, stencil::StencilConfig,
    sweep::SweepConfig, Imbalance,
};
use proptest::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}; generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// Runs the engine triple — event, polling, and parallel event with 4
/// worker threads — and asserts bit-identical output before returning
/// the (event-engine) result.
fn run_both(ranks: usize, program: &Program, label: &str) -> SimOutput {
    let sim = Simulator::new(MachineConfig::new(ranks));
    let event = sim.run(program).unwrap();
    let polling = sim
        .run_polling_configured(program, None, None, None)
        .unwrap();
    assert_eq!(event.trace, polling.trace, "{label}: traces diverge");
    assert_eq!(event.stats, polling.stats, "{label}: stats diverge");
    let par = sim
        .run_parallel_configured(program, None, None, None, 4)
        .unwrap();
    assert_eq!(event.trace, par.trace, "{label}: event-par trace diverges");
    assert_eq!(event.stats, par.stats, "{label}: event-par stats diverge");
    event
}

fn canonical_report(output: &SimOutput) -> String {
    let reduced = output.reduce().unwrap();
    let report = Analyzer::new().analyze(&reduced.measurements).unwrap();
    canonical(&report)
}

#[test]
fn cfd_proxy_engines_match_and_canonical_is_locked() {
    // The paper-case proxy, mirroring limba_bench::simulated_cfd.
    let program = CfdConfig::new(16)
        .with_iterations(1)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.25 })
        .with_seed(2003)
        .build_program()
        .unwrap();
    let output = run_both(16, &program, "cfd proxy");
    check_golden("engine_cfd_proxy_canonical.txt", &canonical_report(&output));
}

#[test]
fn all_workloads_engines_match_and_canonicals_are_locked() {
    let skew = Imbalance::LinearSkew { spread: 0.4 };
    let ranks = 8usize;
    let programs: Vec<(&str, Program)> = vec![
        (
            "cfd",
            CfdConfig::new(ranks)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "stencil",
            StencilConfig::new(4, 2)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "master-worker",
            MasterWorkerConfig::new(ranks)
                .with_tasks(14)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "pipeline",
            PipelineConfig::new(ranks)
                .with_items(8)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "irregular",
            IrregularConfig::new(ranks)
                .with_steps(4)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "fft",
            FftConfig::new(ranks)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "sweep",
            SweepConfig::new(ranks)
                .with_imbalance(skew)
                .build_program()
                .unwrap(),
        ),
        (
            "amr",
            AmrConfig::new(ranks)
                .with_refinement(skew)
                .build_program()
                .unwrap(),
        ),
    ];
    let mut combined = String::new();
    for (name, program) in &programs {
        let output = run_both(ranks, program, name);
        combined.push_str(&format!("== {name} ==\n"));
        combined.push_str(&canonical_report(&output));
        combined.push('\n');
    }
    check_golden("engine_workloads_canonical.txt", &combined);
}

#[test]
fn engines_report_identical_deadlock_diagnostics() {
    // A 4-rank receive cycle: everyone waits on the left neighbor.
    let ranks = 4usize;
    let mut pb = ProgramBuilder::new(ranks);
    let region = pb.add_region("cycle");
    pb.spmd(|rank, mut ops| {
        ops.enter(region);
        ops.recv((rank + ranks - 1) % ranks);
        ops.leave(region);
    });
    let program = pb.build().unwrap();
    let sim = Simulator::new(MachineConfig::new(ranks));
    let event = sim.run(&program).unwrap_err();
    let polling = sim
        .run_polling_configured(&program, None, None, None)
        .unwrap_err();
    assert!(matches!(event, SimError::Deadlock { .. }));
    assert_eq!(event.to_string(), polling.to_string());
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn randomized_programs_are_engine_invariant((program, ranks) in program_strategy()) {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let event = sim.run(&program).unwrap();
        let polling = sim.run_polling_configured(&program, None, None, None).unwrap();
        prop_assert_eq!(&event.trace, &polling.trace);
        prop_assert_eq!(&event.stats, &polling.stats);
        let par = sim.run_parallel_configured(&program, None, None, None, 4).unwrap();
        prop_assert_eq!(&event.trace, &par.trace);
        prop_assert_eq!(&event.stats, &par.stats);
    }

    #[test]
    fn engine_invariance_survives_heterogeneous_machines(
        (program, ranks) in program_strategy(),
        slow in 0usize..7,
        eager in prop_oneof![Just(0u64), Just(1024), Just(8 * 1024), Just(u64::MAX)],
    ) {
        // Rendezvous-heavy and eager-heavy protocol mixes, plus a slow
        // rank to skew the schedule.
        let cfg = MachineConfig::new(ranks)
            .with_cpu_speed(slow % ranks, 0.5)
            .with_eager_threshold(eager);
        let sim = Simulator::new(cfg);
        let event = sim.run(&program).unwrap();
        let polling = sim.run_polling_configured(&program, None, None, None).unwrap();
        prop_assert_eq!(&event.trace, &polling.trace);
        prop_assert_eq!(&event.stats, &polling.stats);
        let par = sim.run_parallel_configured(&program, None, None, None, 4).unwrap();
        prop_assert_eq!(&event.trace, &par.trace);
        prop_assert_eq!(&event.stats, &par.stats);
    }
}
