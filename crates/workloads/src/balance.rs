//! Ready-made balance plans for rebalancing experiments on the
//! workloads.
//!
//! A preset is a [`BalancePlan`] with curated parameters — unlike the
//! fault presets it needs no horizon scaling, because every policy
//! triggers on *relative* load (cumulative nominal seconds versus the
//! pack), which is scale-free. The CLI accepts them as
//! `limba simulate --balance preset:<name>`.

use limba_mpisim::BalancePlan;

/// Names accepted by [`preset`].
pub const PRESETS: &[&str] = &["stealing", "diffusion", "anticipatory"];

/// One-line summary per preset, in [`PRESETS`] order — what the CLI
/// prints for `--balance list`.
pub const PRESET_SUMMARIES: &[(&str, &str)] = &[
    (
        "stealing",
        "ranks 15% over the mean load shed their excess to the least-loaded rank",
    ),
    (
        "diffusion",
        "load flows to less-loaded network neighbors at rate 0.5 per compute op",
    ),
    (
        "anticipatory",
        "ranks trending away from the pack over 8 ops shed the predicted excess early",
    ),
];

/// Builds the named balance-plan preset. Returns `None` for unknown
/// names (see [`PRESETS`]).
///
/// * `stealing` — threshold-triggered work stealing at θ = 1.15: a rank
///   whose projected load tops the mean by 15% sheds the excess to the
///   least-loaded alive rank;
/// * `diffusion` — nearest-neighbor diffusion at rate 0.5 over the
///   machine's link topology (a ring when no overrides exist);
/// * `anticipatory` — trend-triggered rebalancing over an 8-op window
///   at sensitivity 0.25, acting on predicted rather than realized
///   imbalance.
pub fn preset(name: &str) -> Option<BalancePlan> {
    Some(match name {
        "stealing" => BalancePlan::stealing(2003, 1.15),
        "diffusion" => BalancePlan::diffusion(2003, 0.5),
        "anticipatory" => BalancePlan::anticipatory(2003, 8, 0.25),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_builds_and_validates() {
        for &name in PRESETS {
            let plan = preset(name).unwrap_or_else(|| panic!("preset {name} missing"));
            plan.validate()
                .unwrap_or_else(|e| panic!("preset {name}: {e}"));
            assert_eq!(plan.policy_name(), name);
        }
        assert!(preset("hurricane").is_none());
    }

    #[test]
    fn summaries_cover_every_preset_in_order() {
        let summarized: Vec<&str> = PRESET_SUMMARIES.iter().map(|&(name, _)| name).collect();
        assert_eq!(summarized, PRESETS);
        for &(_, summary) in PRESET_SUMMARIES {
            assert!(!summary.is_empty());
        }
    }

    #[test]
    fn presets_improve_an_imbalanced_workload_run() {
        use crate::cfd::CfdConfig;
        use crate::Imbalance;
        use limba_mpisim::{MachineConfig, Simulator};
        let program = CfdConfig::new(8)
            .with_iterations(3)
            .with_imbalance(Imbalance::RandomJitter { amplitude: 0.35 })
            .with_seed(7)
            .build_program()
            .unwrap();
        let sim = Simulator::new(MachineConfig::new(8));
        let base = sim.run(&program).unwrap();
        for &name in PRESETS {
            let plan = preset(name).unwrap();
            let balanced = sim
                .run_configured(&program, None, Some(&plan), None)
                .unwrap();
            assert!(
                balanced.stats.makespan <= base.stats.makespan,
                "{name}: {} > {}",
                balanced.stats.makespan,
                base.stats.makespan
            );
            assert!(balanced.balance.migrations > 0, "{name} never fired");
        }
    }
}
