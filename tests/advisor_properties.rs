//! Property-based tests of the tuning advisor's prediction bounds.
//!
//! The majorization bracket is the advisor's load-bearing guarantee:
//! for fault-free runs, every catalog intervention's *simulated*
//! wall-clock must land inside `[lower_bound, upper_bound]`. These
//! tests exercise the guarantee on randomly generated BSP scenarios —
//! skewed per-rank work across several regions, mixed collectives,
//! and heterogeneous CPU speeds (which arm the remap and upgrade
//! proposals on top of the splits and swaps).
//!
//! The search predicts combos as deltas on the baseline program and
//! builds each verified candidate in one pass; the last property locks
//! both to applying the interventions one at a time, bit for bit.

use limba::advisor::{apply_combo, propose, BaselineModel, Intervention, Prediction, Scenario};
use limba::model::RegionId;
use limba::mpisim::{BalancePlan, MachineConfig, Program, ProgramBuilder, Simulator};
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

/// One region of a nested scenario: per-rank compute, per-rank
/// compute of a nested sub-region (when present), a collective
/// discriminant and its payload.
type NestedRegion = (Vec<u16>, Option<Vec<u16>>, u8, u32);

/// A random scenario whose regions may hold a nested sub-region and
/// whose ranks also compute outside any region, on a uniform or a
/// heterogeneous machine, optionally already running a balancing plan.
fn nested_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (2usize..6)
        .prop_flat_map(|ranks| {
            (
                Just(ranks),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(1u16..500, ranks),
                        proptest::option::of(proptest::collection::vec(0u16..300, ranks)),
                        0u8..4,
                        1u32..100_000,
                    ),
                    1..4,
                ),
                proptest::collection::vec(0u16..200, ranks),
                proptest::option::of(proptest::collection::vec(1u8..4, ranks)),
                proptest::bool::ANY,
            )
        })
        .prop_map(|(ranks, regions, outside, speed_tiers, balanced)| {
            let program = build_nested_program(ranks, &regions, &outside);
            let mut config = MachineConfig::new(ranks);
            if let Some(tiers) = speed_tiers {
                config = config.with_cpu_speeds(tiers.iter().map(|&t| t as f64).collect());
            }
            let scenario = Scenario::new(program, config).expect("generated scenario is valid");
            if balanced {
                scenario.with_balance(BalancePlan::stealing(7, 1.15))
            } else {
                scenario
            }
        })
}

fn build_nested_program(ranks: usize, regions: &[NestedRegion], outside: &[u16]) -> Program {
    let mut pb = ProgramBuilder::new(ranks);
    for (i, (work, inner, collective, bytes)) in regions.iter().enumerate() {
        let outer = pb.add_region(format!("region {i}"));
        let inner = inner
            .as_ref()
            .map(|w| (pb.add_region(format!("region {i} inner")), w));
        pb.spmd(|rank, mut ops| {
            ops.enter(outer).compute(work[rank] as f64 * 1e-3);
            if let Some((id, w)) = inner {
                ops.enter(id).compute(w[rank] as f64 * 1e-3).leave(id);
            }
            match collective {
                0 => ops.barrier(),
                1 => ops.allreduce(*bytes as u64),
                2 => ops.broadcast(*bytes as u64),
                _ => ops.alltoall(*bytes as u64),
            };
            ops.leave(outer).compute(outside[rank] as f64 * 1e-3);
        });
    }
    pb.build().expect("generated program is valid")
}

/// Applies `combo` one intervention at a time, each on the scenario
/// the previous one returned.
fn apply_chained(scenario: &Scenario, combo: &[&Intervention]) -> Result<Scenario, String> {
    let mut current = scenario.clone();
    for intervention in combo {
        current = intervention.apply(&current).map_err(|e| e.to_string())?;
    }
    Ok(current)
}

fn prediction_bits(p: &Prediction) -> (u64, u64, u64, bool) {
    (
        p.makespan.to_bits(),
        p.lower_bound.to_bits(),
        p.upper_bound.to_bits(),
        p.submajorized,
    )
}

/// The exclusive slot an intervention takes in a combo: one split per
/// region, one remap, one upgrade, one swap per kind, one balancing plan.
fn slot(intervention: &Intervention) -> String {
    match intervention {
        Intervention::SplitRegionWork { region, .. } => format!("split {}", region.index()),
        Intervention::RemapRanks { .. } => "remap".into(),
        Intervention::UpgradeSlowestCpu { .. } => "upgrade".into(),
        Intervention::SwapCollective { kind, .. } => format!("swap {kind}"),
        Intervention::EnableBalancing { .. } => "balance".into(),
    }
}

/// Every catalog combo up to depth 2 with pairwise-distinct slots, each
/// in canonical (signature-sorted) order, as the search forms them.
fn combos(catalog: &[Intervention]) -> Vec<Vec<&Intervention>> {
    let mut combos: Vec<Vec<&Intervention>> = catalog.iter().map(|i| vec![i]).collect();
    for (a, first) in catalog.iter().enumerate() {
        for second in &catalog[a + 1..] {
            if slot(first) != slot(second) {
                let mut pair = vec![first, second];
                pair.sort_by_key(|i| i.signature());
                combos.push(pair);
            }
        }
    }
    combos
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

    /// A combo predicted as a delta on the baseline equals the
    /// prediction of the candidate built by applying its interventions
    /// one at a time, bit for bit, and the one-pass build equals that
    /// candidate. A split with a NaN or negative factor fails alike on
    /// every path, so the search leaves its combo unscored.
    #[test]
    fn combos_predicted_as_deltas_equal_the_chained_candidates(
        scenario in nested_scenario_strategy()
    ) {
        let baseline = Simulator::new(scenario.config.clone())
            .run_configured(&scenario.program, None, scenario.balance.as_ref(), None)
            .unwrap()
            .stats
            .makespan;
        let model = BaselineModel::new(&scenario, baseline);
        let catalog = propose(&scenario);
        for combo in combos(&catalog) {
            let chained = apply_chained(&scenario, &combo).unwrap();
            let built = apply_combo(&scenario, combo.iter().copied()).unwrap();
            prop_assert!(built.program == chained.program, "{combo:?}");
            prop_assert_eq!(&built.config, &chained.config);
            prop_assert_eq!(&built.balance, &chained.balance);
            let delta = model.predict_combo(&scenario, combo.iter().copied()).unwrap();
            prop_assert_eq!(
                prediction_bits(&delta),
                prediction_bits(&model.predict(&chained)),
                "{:?}",
                combo
            );
        }

        let ranks = scenario.program.ranks();
        for bad in [f64::NAN, -0.5] {
            let mut factors = vec![1.0; ranks];
            factors[ranks - 1] = bad;
            let split = Intervention::SplitRegionWork { region: RegionId::new(0), factors };
            let mut with_bad: Vec<Vec<&Intervention>> = vec![vec![&split]];
            for other in &catalog {
                with_bad.push(vec![other, &split]);
                with_bad.push(vec![&split, other]);
            }
            for combo in with_bad {
                let want = apply_chained(&scenario, &combo).unwrap_err();
                prop_assert!(want.contains("finite and non-negative"), "{want}");
                let built = apply_combo(&scenario, combo.iter().copied());
                prop_assert_eq!(built.unwrap_err().to_string(), want.clone());
                let delta = model.predict_combo(&scenario, combo.iter().copied());
                prop_assert_eq!(delta.unwrap_err().to_string(), want);
            }
        }
    }
}
