//! Property-based tests of the tuning advisor's prediction bounds.
//!
//! The majorization bracket is the advisor's load-bearing guarantee:
//! for fault-free runs, every catalog intervention's *simulated*
//! wall-clock must land inside `[lower_bound, upper_bound]`. These
//! tests exercise the guarantee on randomly generated BSP scenarios —
//! skewed per-rank work across several regions, mixed collectives,
//! and heterogeneous CPU speeds (which arm the remap and upgrade
//! proposals on top of the splits and swaps).

use limba::advisor::{propose, BaselineModel, Scenario};
use limba::mpisim::{MachineConfig, Program, ProgramBuilder, Simulator};
use proptest::prelude::*;

/// A random BSP scenario: per-region per-rank compute (milliseconds),
/// a collective discriminant per region, and optional CPU speed tiers.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (2usize..6)
        .prop_flat_map(|ranks| {
            (
                Just(ranks),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(1u16..500, ranks),
                        0u8..4,
                        1u32..100_000,
                    ),
                    1..4,
                ),
                proptest::collection::vec(1u8..4, ranks),
            )
        })
        .prop_map(|(ranks, regions, speed_tiers)| {
            let program = build_program(ranks, &regions);
            let speeds: Vec<f64> = speed_tiers.iter().map(|&t| t as f64).collect();
            let config = MachineConfig::new(ranks).with_cpu_speeds(speeds);
            Scenario::new(program, config).expect("generated scenario is valid")
        })
}

fn build_program(ranks: usize, regions: &[(Vec<u16>, u8, u32)]) -> Program {
    let mut pb = ProgramBuilder::new(ranks);
    let ids: Vec<_> = (0..regions.len())
        .map(|i| pb.add_region(format!("region {i}")))
        .collect();
    for (id, (work, collective, bytes)) in ids.iter().zip(regions) {
        pb.spmd(|rank, mut ops| {
            ops.enter(*id);
            ops.compute(work[rank] as f64 * 1e-3);
            match collective {
                0 => {
                    ops.barrier();
                }
                1 => {
                    ops.allreduce(*bytes as u64);
                }
                2 => {
                    ops.broadcast(*bytes as u64);
                }
                _ => {
                    ops.alltoall(*bytes as u64);
                }
            }
            ops.leave(*id);
        });
    }
    pb.build().expect("generated program is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every proposed intervention's simulated wall-clock stays inside
    /// its predicted majorization bracket, on both engines.
    #[test]
    fn simulated_wall_clock_never_exceeds_the_predicted_upper_bound(
        scenario in scenario_strategy()
    ) {
        let sim = Simulator::new(scenario.config.clone());
        let baseline = sim.run(&scenario.program).unwrap().stats.makespan;
        let model = BaselineModel::new(&scenario, baseline);
        let catalog = propose(&scenario);
        for intervention in &catalog {
            let candidate = intervention.apply(&scenario).unwrap();
            let prediction = model.predict(&candidate);
            let eps = 1e-9 * baseline.max(1.0);
            prop_assert!(
                prediction.lower_bound <= prediction.upper_bound + eps,
                "inverted bracket {prediction:?}"
            );
            // Interventions transform the machine as well as the
            // program: simulate under the candidate's own config.
            let cand_sim = Simulator::new(candidate.config.clone());
            for (engine, measured) in [
                (
                    "event",
                    cand_sim.run(&candidate.program).unwrap().stats.makespan,
                ),
                (
                    "polling",
                    cand_sim
                        .run_polling_configured(&candidate.program, None, None, None)
                        .unwrap()
                        .stats
                        .makespan,
                ),
            ] {
                prop_assert!(
                    measured <= prediction.upper_bound + eps,
                    "{engine}: measured {measured} exceeds upper bound {} for {:?}",
                    prediction.upper_bound,
                    intervention.signature()
                );
                prop_assert!(
                    measured >= prediction.lower_bound - eps,
                    "{engine}: measured {measured} below lower bound {} for {:?}",
                    prediction.lower_bound,
                    intervention.signature()
                );
            }
        }
    }

    /// The identity bracket also holds for the baseline itself: its own
    /// simulated makespan lies inside its own prediction.
    #[test]
    fn the_baseline_brackets_itself(scenario in scenario_strategy()) {
        let sim = Simulator::new(scenario.config.clone());
        let baseline = sim.run(&scenario.program).unwrap().stats.makespan;
        let model = BaselineModel::new(&scenario, baseline);
        let p = model.predict(&scenario);
        let eps = 1e-9 * baseline.max(1.0);
        prop_assert!(baseline <= p.upper_bound + eps, "{p:?} vs {baseline}");
        prop_assert!(baseline >= p.lower_bound - eps, "{p:?} vs {baseline}");
        prop_assert!(p.submajorized, "a load vector submajorizes itself");
    }
}
