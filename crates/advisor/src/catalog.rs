//! The intervention catalog: typed, composable scenario transformations.
//!
//! Every intervention is a pure function `Scenario → Scenario`. The
//! [`propose`] entry point derives a deterministic candidate list from
//! a baseline scenario:
//!
//! * **work splitting** — rebalance the heaviest regions' compute
//!   across ranks in proportion to CPU speed (full and half steps);
//! * **rank remapping** — permute the machine's CPU speeds so faster
//!   CPUs serve heavier ranks (greedy LPT on total load, and a
//!   speed-aware variant driven by each rank's peak single-phase load);
//! * **CPU upgrade** — raise every rank of the slowest CPU class to the
//!   fastest class's speed;
//! * **collective swap** — re-cost one collective kind with a different
//!   algorithm ([`limba_mpisim::MachineConfig::with_collective_algorithm`]);
//! * **dynamic balancing** — enable an in-run migration policy
//!   ([`limba_mpisim::BalancePlan`]): work stealing, diffusion, or
//!   anticipatory rebalancing, applied by the simulator mid-run.
//!
//! Remapping and upgrading are only proposed on heterogeneous machines
//! (on a uniform machine both are no-ops or trivial "buy faster CPUs"
//! advice); collective swaps are only proposed when the swap is an
//! analytic improvement under the machine's own cost model; balancing
//! is only proposed when the per-rank effective totals are imbalanced
//! and the scenario has no policy active yet.

use std::borrow::Cow;

use limba_model::RegionId;
use limba_mpisim::{
    collective_cost, BalancePlan, CollectiveAlgorithm, CollectiveKind, ComputeCells, MachineConfig,
    SimError,
};

use crate::{cpu_speeds, AdviseError, Scenario};

/// How a rank-to-CPU remapping chooses its assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapVariant {
    /// Greedy LPT: ranks sorted by *total* compute load get the fastest
    /// remaining CPU each.
    Lpt,
    /// Speed-aware: ranks sorted by their *peak single-phase* load get
    /// the fastest remaining CPU each — targets the rank that
    /// bottlenecks one synchronized phase rather than the largest
    /// aggregate.
    SpeedAware,
}

impl RemapVariant {
    fn label(self) -> &'static str {
        match self {
            RemapVariant::Lpt => "lpt",
            RemapVariant::SpeedAware => "speed-aware",
        }
    }
}

/// One proposed transformation of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Intervention {
    /// Scale the compute attributed to `region` by `factors[rank]` —
    /// proposed with factors that move the region's work toward a
    /// speed-weighted balance while conserving its total.
    SplitRegionWork {
        /// The region whose work is redistributed.
        region: RegionId,
        /// Per-rank multiplicative factors.
        factors: Vec<f64>,
    },
    /// Permute the machine's CPU speeds: rank `p` receives the speed of
    /// CPU `assignment[p]` in the original machine.
    RemapRanks {
        /// `assignment[p]` = index of the original CPU rank `p` gets.
        assignment: Vec<usize>,
        /// How the assignment was chosen.
        variant: RemapVariant,
    },
    /// Raise every rank currently at the machine's slowest CPU speed to
    /// `speed`.
    UpgradeSlowestCpu {
        /// The new speed for the slowest class.
        speed: f64,
    },
    /// Cost one collective kind with a different algorithm.
    SwapCollective {
        /// The collective kind to re-cost.
        kind: CollectiveKind,
        /// The algorithm to cost it with.
        algorithm: CollectiveAlgorithm,
    },
    /// Turn on in-run dynamic load balancing: the simulator migrates
    /// work between ranks mid-run under `plan` — a runtime mitigation
    /// rather than a code or hardware change, priced against the static
    /// interventions on equal footing.
    EnableBalancing {
        /// The balancing policy and its parameters.
        plan: BalancePlan,
    },
}

impl Intervention {
    /// Applies the intervention, returning the transformed scenario:
    /// the one-intervention case of [`apply_combo`].
    ///
    /// # Errors
    ///
    /// Returns [`AdviseError::Sim`] when the transformation produces an
    /// invalid program or machine (e.g. non-finite split factors).
    pub fn apply(&self, scenario: &Scenario) -> Result<Scenario, AdviseError> {
        apply_combo(scenario, [self])
    }

    /// Edits `applied` the way [`apply`](Intervention::apply) edits a
    /// scenario, raising the same errors, without touching a program:
    /// a split is checked and recorded, a remap, upgrade or swap
    /// replaces the machine, and balancing sets the plan.
    fn edit<'a>(&'a self, applied: &mut Applied<'a>) -> Result<(), AdviseError> {
        match self {
            Intervention::SplitRegionWork { region, factors } => {
                assert_eq!(
                    factors.len(),
                    applied.scenario.program.ranks(),
                    "one factor per rank required"
                );
                if let Some(&value) = factors.iter().find(|f| !f.is_finite() || **f < 0.0) {
                    return Err(SimError::InvalidWork { value }.into());
                }
                applied.splits.push((*region, factors));
            }
            Intervention::RemapRanks { assignment, .. } => {
                let speeds = cpu_speeds(&applied.config);
                let remapped: Vec<f64> = assignment.iter().map(|&c| speeds[c]).collect();
                applied.reconfigure(|config| config.with_cpu_speeds(remapped));
                applied.config.validate()?;
            }
            Intervention::UpgradeSlowestCpu { speed } => {
                let speeds = cpu_speeds(&applied.config);
                let slowest = speeds.iter().copied().fold(f64::INFINITY, f64::min);
                let upgraded: Vec<f64> = speeds
                    .iter()
                    .map(|&s| if s == slowest { *speed } else { s })
                    .collect();
                applied.reconfigure(|config| config.with_cpu_speeds(upgraded));
                applied.config.validate()?;
            }
            Intervention::SwapCollective { kind, algorithm } => {
                applied.reconfigure(|config| config.with_collective_algorithm(*kind, *algorithm));
            }
            Intervention::EnableBalancing { plan } => {
                plan.validate()?;
                applied.balance = Some(plan);
            }
        }
        Ok(())
    }

    /// Human-readable description; `region_names` resolves region ids.
    pub(crate) fn label(&self, region_names: &[String]) -> String {
        match self {
            Intervention::SplitRegionWork { region, factors } => {
                let name = region_names
                    .get(region.index())
                    .map(String::as_str)
                    .unwrap_or("?");
                let max = factors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                format!("rebalance work of region \"{name}\" across ranks (max factor {max:.2})")
            }
            Intervention::RemapRanks { variant, .. } => {
                format!("remap ranks to CPUs ({})", variant.label())
            }
            Intervention::UpgradeSlowestCpu { speed } => {
                format!("upgrade slowest CPU class to speed {speed}")
            }
            Intervention::SwapCollective { kind, algorithm } => {
                format!("cost {kind} collectives with the {algorithm} algorithm")
            }
            Intervention::EnableBalancing { plan } => {
                format!("enable dynamic load balancing ({})", plan.summary())
            }
        }
    }

    /// A canonical, deterministic identity string — the tie-breaker for
    /// every ranking and the key of the search's memo cache.
    pub fn signature(&self) -> String {
        match self {
            Intervention::SplitRegionWork { region, factors } => {
                let fs: Vec<String> = factors.iter().map(|f| format!("{f:.6}")).collect();
                format!("split:{}:{}", region.index(), fs.join(","))
            }
            Intervention::RemapRanks {
                assignment,
                variant,
            } => {
                let a: Vec<String> = assignment.iter().map(usize::to_string).collect();
                format!("remap:{}:{}", variant.label(), a.join(","))
            }
            Intervention::UpgradeSlowestCpu { speed } => format!("upgrade:{speed:.6}"),
            Intervention::SwapCollective { kind, algorithm } => {
                format!("swap:{kind}:{algorithm}")
            }
            Intervention::EnableBalancing { plan } => format!("balance:{}", plan.signature()),
        }
    }

    /// The exclusive slot the intervention occupies inside a combo: a
    /// combo holds at most one intervention per slot, which rules out
    /// double-splitting one region or stacking two remaps.
    pub(crate) fn slot(&self) -> String {
        match self {
            Intervention::SplitRegionWork { region, .. } => format!("split:{}", region.index()),
            Intervention::RemapRanks { .. } => "remap".to_string(),
            Intervention::UpgradeSlowestCpu { .. } => "upgrade".to_string(),
            Intervention::SwapCollective { kind, .. } => format!("swap:{kind}"),
            Intervention::EnableBalancing { .. } => "balance".to_string(),
        }
    }
}

/// A combo applied to a scenario as a delta: the work splits, machine
/// and balancing plan of the candidate scenario, with the scenario's
/// program left as it is. The search predicts from this
/// ([`BaselineModel::predict_combo`](crate::BaselineModel::predict_combo));
/// [`build`](Applied::build) materializes it for verification.
pub(crate) struct Applied<'a> {
    /// The scenario the combo applies to.
    pub(crate) scenario: &'a Scenario,
    /// Split factors per region, in apply order, borrowed from the
    /// catalog.
    pub(crate) splits: Vec<(RegionId, &'a [f64])>,
    /// The candidate's machine: the scenario's until a remap, upgrade
    /// or swap changes it.
    pub(crate) config: Cow<'a, MachineConfig>,
    /// The candidate's balancing plan.
    pub(crate) balance: Option<&'a BalancePlan>,
}

impl<'a> Applied<'a> {
    /// Applies `combo` to `scenario` in the order given.
    ///
    /// # Errors
    ///
    /// The first error an intervention's [`apply`](Intervention::apply)
    /// raises in that order.
    pub(crate) fn new(
        scenario: &'a Scenario,
        combo: impl IntoIterator<Item = &'a Intervention>,
    ) -> Result<Self, AdviseError> {
        let mut applied = Applied {
            scenario,
            splits: Vec::new(),
            config: Cow::Borrowed(&scenario.config),
            balance: scenario.balance.as_ref(),
        };
        for intervention in combo {
            intervention.edit(&mut applied)?;
        }
        Ok(applied)
    }

    /// Replaces the machine with `change` applied to it.
    fn reconfigure(&mut self, change: impl FnOnce(MachineConfig) -> MachineConfig) {
        let config = std::mem::replace(&mut self.config, Cow::Borrowed(&self.scenario.config));
        self.config = Cow::Owned(change(config.into_owned()));
    }

    /// The candidate scenario, with one copy of the program that every
    /// split is applied to in one pass.
    pub(crate) fn build(self) -> Result<Scenario, AdviseError> {
        Ok(Scenario {
            program: self.scenario.program.with_compute_scaled(&self.splits)?,
            config: self.config.into_owned(),
            balance: self.balance.cloned(),
        })
    }
}

/// Applies a combo to `scenario` in the order given, building the
/// candidate's program once: the scenario that applying each
/// intervention in turn with [`Intervention::apply`] gives, without
/// the intermediate copies.
///
/// # Errors
///
/// The first error an intervention raises, in combo order, as
/// [`Intervention::apply`] raises it.
pub fn apply_combo<'a>(
    scenario: &'a Scenario,
    combo: impl IntoIterator<Item = &'a Intervention>,
) -> Result<Scenario, AdviseError> {
    Applied::new(scenario, combo)?.build()
}

/// Factors that move region work `w` toward the speed-weighted balance
/// point, conserving the region's total. Ranks with zero work keep
/// factor 1 (a multiplicative transform cannot create work from
/// nothing); `step` interpolates between no change (0) and full
/// balance (1).
fn balance_factors(w: &[f64], speeds: &[f64], step: f64) -> Vec<f64> {
    let active: Vec<usize> = (0..w.len()).filter(|&p| w[p] > 0.0).collect();
    let total: f64 = active.iter().map(|&p| w[p]).sum();
    let speed_sum: f64 = active.iter().map(|&p| speeds[p]).sum();
    if total <= 0.0 || speed_sum <= 0.0 {
        return vec![1.0; w.len()];
    }
    let mut factors = vec![1.0; w.len()];
    for &p in &active {
        let target = total * speeds[p] / speed_sum;
        let full = target / w[p];
        factors[p] = 1.0 + step * (full - 1.0);
    }
    factors
}

/// Sorted-matching assignment: ranks ordered by `loads` descending
/// (ties by rank) each take the fastest remaining CPU (ties by index).
fn matched_assignment(loads: &[f64], speeds: &[f64]) -> Vec<usize> {
    let mut rank_order: Vec<usize> = (0..loads.len()).collect();
    rank_order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]).then(a.cmp(&b)));
    let mut cpu_order: Vec<usize> = (0..speeds.len()).collect();
    cpu_order.sort_by(|&a, &b| speeds[b].total_cmp(&speeds[a]).then(a.cmp(&b)));
    let mut assignment = vec![0usize; loads.len()];
    for (i, &rank) in rank_order.iter().enumerate() {
        assignment[rank] = cpu_order[i];
    }
    assignment
}

/// Relative spread threshold below which a region is considered
/// balanced and not worth splitting.
const SPLIT_THRESHOLD: f64 = 1e-3;

/// Seed of the proposed balancing plans — fixed so the catalog (and
/// therefore every signature, cache key, and golden) is deterministic.
const BALANCE_SEED: u64 = 2003;

/// How many of the heaviest imbalanced regions get split proposals.
const SPLIT_REGIONS: usize = 3;

/// Derives the deterministic intervention catalog for a scenario.
///
/// The list is ordered: splits of the heaviest imbalanced regions
/// first (full then half step for the single heaviest), then remaps
/// and the CPU upgrade (heterogeneous machines only), then analytic
/// collective-swap improvements, then the dynamic-balancing policies
/// (imbalanced scenarios only).
pub fn propose(scenario: &Scenario) -> Vec<Intervention> {
    let mut catalog = Vec::new();
    let speeds = cpu_speeds(&scenario.config);
    let ComputeCells {
        regions: region_loads,
        totals: total_loads,
    } = scenario.program.compute_cells();

    // Work splitting: heaviest imbalanced regions, by effective load.
    let mut by_weight: Vec<usize> = (0..region_loads.len()).collect();
    let totals: Vec<f64> = region_loads.iter().map(|w| w.iter().sum()).collect();
    by_weight.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]).then(a.cmp(&b)));
    let mut split_candidates = 0usize;
    for &j in &by_weight {
        if split_candidates >= SPLIT_REGIONS || totals[j] <= 0.0 {
            break;
        }
        let w = &region_loads[j];
        let eff_max = w
            .iter()
            .zip(&speeds)
            .map(|(&w, &s)| w / s)
            .fold(0.0f64, f64::max);
        let eff_mean = w.iter().zip(&speeds).map(|(&w, &s)| w / s).sum::<f64>() / w.len() as f64;
        if eff_max <= eff_mean * (1.0 + SPLIT_THRESHOLD) {
            continue; // already balanced
        }
        catalog.push(Intervention::SplitRegionWork {
            region: RegionId::new(j),
            factors: balance_factors(w, &speeds, 1.0),
        });
        if split_candidates == 0 {
            // A gentler half-step for the heaviest region: realistic
            // refactors rarely achieve perfect balance in one move.
            catalog.push(Intervention::SplitRegionWork {
                region: RegionId::new(j),
                factors: balance_factors(w, &speeds, 0.5),
            });
        }
        split_candidates += 1;
    }

    // Placement interventions only make sense on heterogeneous machines.
    let slowest = speeds.iter().copied().fold(f64::INFINITY, f64::min);
    let fastest = speeds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if fastest > slowest {
        let peak_loads: Vec<f64> = (0..scenario.program.ranks())
            .map(|p| region_loads.iter().map(|w| w[p]).fold(0.0f64, f64::max))
            .collect();
        for (loads, variant) in [
            (&total_loads, RemapVariant::Lpt),
            (&peak_loads, RemapVariant::SpeedAware),
        ] {
            let assignment = matched_assignment(loads, &speeds);
            if assignment.iter().enumerate().any(|(p, &c)| p != c) {
                catalog.push(Intervention::RemapRanks {
                    assignment,
                    variant,
                });
            }
        }
        catalog.push(Intervention::UpgradeSlowestCpu { speed: fastest });
    }

    // Collective swaps that the machine's own cost model says improve.
    let calls = scenario.program.collective_calls();
    let mut kinds: Vec<CollectiveKind> = Vec::new();
    for &(kind, _) in &calls {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    let procs = scenario.config.processors();
    for kind in kinds {
        let current = scenario.config.collective_algorithm(kind);
        let current_total: f64 = calls
            .iter()
            .filter(|&&(k, _)| k == kind)
            .map(|&(_, bytes)| collective_cost(kind, procs, bytes, &scenario.config))
            .sum();
        let mut best: Option<(CollectiveAlgorithm, f64)> = None;
        for algorithm in CollectiveAlgorithm::ALL {
            if algorithm == current {
                continue;
            }
            let swapped = scenario
                .config
                .clone()
                .with_collective_algorithm(kind, algorithm);
            let total: f64 = calls
                .iter()
                .filter(|&&(k, _)| k == kind)
                .map(|&(_, bytes)| collective_cost(kind, procs, bytes, &swapped))
                .sum();
            if total < current_total && best.is_none_or(|(_, b)| total < b) {
                best = Some((algorithm, total));
            }
        }
        if let Some((algorithm, _)) = best {
            catalog.push(Intervention::SwapCollective { kind, algorithm });
        }
    }

    // Dynamic balancing: a runtime mitigation rather than a code or
    // hardware change, proposed whenever the per-rank effective totals
    // are imbalanced and no policy is active yet. One candidate per
    // policy family; the plan parameters match the workload presets.
    if scenario.balance.is_none() {
        let eff: Vec<f64> = total_loads
            .iter()
            .zip(&speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        let eff_max = eff.iter().copied().fold(0.0f64, f64::max);
        let eff_mean = eff.iter().sum::<f64>() / eff.len().max(1) as f64;
        if eff_max > eff_mean * (1.0 + SPLIT_THRESHOLD) {
            for plan in [
                BalancePlan::stealing(BALANCE_SEED, 1.15),
                BalancePlan::diffusion(BALANCE_SEED, 0.5),
                BalancePlan::anticipatory(BALANCE_SEED, 8, 0.25),
            ] {
                catalog.push(Intervention::EnableBalancing { plan });
            }
        }
    }

    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::{MachineConfig, ProgramBuilder};

    fn skewed_scenario(speeds: Option<Vec<f64>>) -> Scenario {
        let mut pb = ProgramBuilder::new(4);
        let heavy = pb.add_region("heavy");
        let light = pb.add_region("light");
        pb.spmd(|rank, mut ops| {
            ops.enter(heavy)
                .compute(1.0 + rank as f64)
                .barrier()
                .leave(heavy)
                .enter(light)
                .compute(0.1)
                .allgather(64 * 1024)
                .leave(light);
        });
        let mut config = MachineConfig::new(4);
        if let Some(speeds) = speeds {
            config = config.with_cpu_speeds(speeds);
        }
        Scenario::new(pb.build().unwrap(), config).unwrap()
    }

    #[test]
    fn balance_factors_conserve_total_work() {
        let w = [4.0, 0.0, 1.0, 3.0];
        let speeds = [1.0; 4];
        let f = balance_factors(&w, &speeds, 1.0);
        let after: Vec<f64> = w.iter().zip(&f).map(|(&w, &f)| w * f).collect();
        let total: f64 = after.iter().sum();
        assert!((total - 8.0).abs() < 1e-12);
        // Active ranks balanced, inactive untouched.
        assert!((after[0] - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(after[1], 0.0);
        assert_eq!(f[1], 1.0);
    }

    #[test]
    fn uniform_machines_get_no_placement_advice() {
        let catalog = propose(&skewed_scenario(None));
        assert!(catalog
            .iter()
            .all(|i| !matches!(i, Intervention::RemapRanks { .. })));
        assert!(catalog
            .iter()
            .all(|i| !matches!(i, Intervention::UpgradeSlowestCpu { .. })));
        // But the skewed heavy region is proposed for splitting.
        assert!(catalog.iter().any(|i| matches!(
            i,
            Intervention::SplitRegionWork { region, .. } if region.index() == 0
        )));
    }

    #[test]
    fn heterogeneous_machines_get_remap_and_upgrade() {
        let catalog = propose(&skewed_scenario(Some(vec![2.0, 1.0, 0.5, 1.0])));
        assert!(catalog
            .iter()
            .any(|i| matches!(i, Intervention::RemapRanks { variant, .. } if *variant == RemapVariant::Lpt)));
        assert!(catalog
            .iter()
            .any(|i| matches!(i, Intervention::UpgradeSlowestCpu { speed } if *speed == 2.0)));
        // The LPT remap sends the heaviest rank (3) to the fastest CPU (0).
        let Some(Intervention::RemapRanks { assignment, .. }) = catalog
            .iter()
            .find(|i| matches!(i, Intervention::RemapRanks { variant, .. } if *variant == RemapVariant::Lpt))
        else {
            panic!("no LPT remap proposed")
        };
        assert_eq!(assignment[3], 0);
    }

    #[test]
    fn collective_swaps_only_improve_under_the_cost_model() {
        // 4-rank allgather: ring is 3 rounds, recursive doubling 2 —
        // a swap must be proposed and must be an analytic improvement.
        let scenario = skewed_scenario(None);
        let swap = propose(&scenario)
            .into_iter()
            .find(|i| matches!(i, Intervention::SwapCollective { kind, .. } if *kind == CollectiveKind::Allgather))
            .expect("no allgather swap proposed");
        let Intervention::SwapCollective { kind, algorithm } = swap else {
            unreachable!()
        };
        let before = collective_cost(kind, 4, 64 * 1024, &scenario.config);
        let after = collective_cost(
            kind,
            4,
            64 * 1024,
            &scenario
                .config
                .clone()
                .with_collective_algorithm(kind, algorithm),
        );
        assert!(after < before);
    }

    #[test]
    fn apply_round_trips_through_the_simulator() {
        use limba_mpisim::Simulator;
        let scenario = skewed_scenario(Some(vec![2.0, 1.0, 0.5, 1.0]));
        for intervention in propose(&scenario) {
            let cand = intervention.apply(&scenario).unwrap();
            let sim = Simulator::new(cand.config.clone());
            sim.run(&cand.program)
                .unwrap_or_else(|e| panic!("{} failed: {e}", intervention.signature()));
        }
    }

    #[test]
    fn balancing_proposed_only_for_imbalanced_unbalanced_scenarios() {
        // Skewed rank totals: one candidate per policy family.
        let scenario = skewed_scenario(None);
        let balance: Vec<Intervention> = propose(&scenario)
            .into_iter()
            .filter(|i| matches!(i, Intervention::EnableBalancing { .. }))
            .collect();
        assert_eq!(balance.len(), 3);
        assert!(balance.iter().all(|i| i.slot() == "balance"));
        assert!(balance
            .iter()
            .any(|i| i.signature() == "balance:stealing:1.15:0.5"));

        // A scenario already running a policy gets no second one.
        let active = Intervention::EnableBalancing {
            plan: BalancePlan::stealing(2003, 1.15),
        }
        .apply(&scenario)
        .unwrap();
        assert!(active.balance.is_some());
        assert!(!propose(&active)
            .iter()
            .any(|i| matches!(i, Intervention::EnableBalancing { .. })));

        // A perfectly level workload has nothing to balance.
        let mut pb = ProgramBuilder::new(4);
        pb.spmd(|_, mut ops| {
            ops.compute(1.0).barrier();
        });
        let level = Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap();
        assert!(!propose(&level)
            .iter()
            .any(|i| matches!(i, Intervention::EnableBalancing { .. })));
    }

    #[test]
    fn signatures_and_slots_are_stable() {
        let i = Intervention::SwapCollective {
            kind: CollectiveKind::Allreduce,
            algorithm: CollectiveAlgorithm::Ring,
        };
        assert_eq!(i.signature(), "swap:allreduce:ring");
        assert_eq!(i.slot(), "swap:allreduce");
        let s = Intervention::SplitRegionWork {
            region: RegionId::new(2),
            factors: vec![1.0, 0.5],
        };
        assert_eq!(s.signature(), "split:2:1.000000,0.500000");
        assert_eq!(s.slot(), "split:2");
    }
}
