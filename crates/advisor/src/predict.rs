//! Analytic gain prediction: `t_ijp` marginals plus majorization bounds.
//!
//! Candidate evaluation must be cheap — the search explores many combos
//! — so nothing here simulates. A [`BaselineModel`] is built once from
//! the baseline scenario and its (single, shared) simulated makespan;
//! each candidate is then predicted from its per-region per-rank
//! compute marginals:
//!
//! * **lower bound** — every rank executes its own compute and every
//!   collective instance serially, so the makespan is at least
//!   `max_p(effective compute of p) + Σ collective costs`. The first
//!   term is the head of the decreasing rearrangement of the effective
//!   load vector — the quantity majorization orders: if a candidate's
//!   load vector is weakly submajorized by the baseline's, its lower
//!   bound cannot exceed the baseline's ([`Prediction::submajorized`]).
//! * **upper bound** — the simulators' event times are monotone
//!   max-plus compositions in which each op duration appears at most
//!   once along any dependency path, so perturbing durations raises the
//!   makespan by at most the sum of the *positive* per-cell deltas:
//!   `baseline + Σ max(0, Δ effective cell) + Σ max(0, Δ collective
//!   cost)`. Deltas are aggregated per `(region, rank)` cell, which is
//!   exact for every catalog intervention (each scales a cell's ops
//!   uniformly, so the cell delta's sign is the ops' common sign).
//!   (Sound for fault-free runs; a slowdown window can amplify shifted
//!   work, and a crash can truncate below the lower bound.)
//! * **point estimate** — the BSP-style phase sum
//!   `Σ_j max_p(effective load of region j)` plus the baseline's
//!   measured communication slack and the analytic collective-cost
//!   delta, clamped into the bounds.
//!
//! Candidates with an in-run balancing plan are predicted from the
//! plan's analytic steady-state loads
//! ([`limba_mpisim::BalancePlan::predicted_loads`]): the point estimate
//! uses the smoothed cells plus a migration-overhead tax, the upper
//! bound keeps the *unbalanced* cells (sound — the simulator's
//! profitability guard never worsens a run), and the lower bound
//! weakens to the `1 − max_fraction` share of the heaviest rank that
//! can never migrate away (migrated chunks overlap the target's own
//! compute on its auxiliary stream).

use limba_mpisim::{collective_cost, ComputeCells, MachineConfig};
use limba_stats::majorization::is_weakly_submajorized_by;

use crate::Scenario;

/// The analytic prediction for one candidate scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Point estimate of the candidate's makespan in seconds.
    pub makespan: f64,
    /// Sound lower bound on the simulated makespan (fault-free runs).
    pub lower_bound: f64,
    /// Sound upper bound on the simulated makespan (fault-free runs).
    pub upper_bound: f64,
    /// Whether the candidate's effective load vector is weakly
    /// submajorized by the baseline's — a strict "no rank got heavier
    /// than any baseline prefix" ordering in the majorization sense.
    pub submajorized: bool,
}

impl Prediction {
    /// Predicted gain over `baseline` seconds (positive = faster).
    pub(crate) fn gain(&self, baseline: f64) -> f64 {
        baseline - self.makespan
    }
}

/// Per-migration overhead, as a fraction of the migrated nominal
/// seconds, charged to a balanced candidate's point estimate — the
/// transfer latency and remote execution the smoothing model abstracts
/// away. Heuristic: calibrated to keep estimates conservative.
const MIGRATION_OVERHEAD: f64 = 0.05;

/// Per-scenario load decomposition the model predicts from.
#[derive(Debug, Clone)]
struct Loads {
    /// `region_eff[j][p]`: effective seconds of region `j` on rank `p`.
    region_eff: Vec<Vec<f64>>,
    /// Effective seconds outside any region, per rank.
    outside_eff: Vec<f64>,
    /// Per-instance collective costs under the scenario's machine.
    coll_costs: Vec<f64>,
    /// Nominal seconds the scenario's balancing plan is predicted to
    /// migrate (0 without a plan, or when the loads are already level).
    moved: f64,
}

impl Loads {
    /// The scenario's decomposition, and its nominal compute seconds
    /// per rank, from one walk of its program.
    fn decompose(scenario: &Scenario) -> (Loads, Vec<f64>) {
        let speeds = scenario.speeds();
        let ComputeCells {
            regions: region_nominal,
            totals: nominal_totals,
        } = scenario.program.compute_cells();
        let region_eff: Vec<Vec<f64>> = region_nominal
            .iter()
            .map(|w| w.iter().zip(&speeds).map(|(&w, &s)| w / s).collect())
            .collect();
        let outside_eff: Vec<f64> = (0..scenario.program.ranks())
            .map(|p| {
                let in_regions: f64 = region_nominal.iter().map(|w| w[p]).sum();
                ((nominal_totals[p] - in_regions) / speeds[p]).max(0.0)
            })
            .collect();
        let procs = scenario.config.processors();
        let coll_costs: Vec<f64> = scenario
            .program
            .collective_calls()
            .iter()
            .map(|&(kind, bytes)| collective_cost(kind, procs, bytes, &scenario.config))
            .collect();
        let loads = Loads {
            region_eff,
            outside_eff,
            coll_costs,
            moved: 0.0,
        };
        (loads, nominal_totals)
    }

    /// Folds the scenario's balancing plan into the decomposition:
    /// every rank's cells are scaled toward the plan's analytic
    /// steady-state loads ([`limba_mpisim::BalancePlan::predicted_loads`])
    /// from its nominal `totals`, and the migrated nominal seconds are
    /// recorded for the overhead term. Callers that need the
    /// *unbalanced* cells (the upper bound does — see
    /// [`BaselineModel::predict`]) must read them first.
    fn apply_balance(
        &mut self,
        plan: &limba_mpisim::BalancePlan,
        totals: &[f64],
        config: &MachineConfig,
    ) {
        let smoothed = plan.predicted_loads(totals, config);
        self.moved = totals
            .iter()
            .zip(&smoothed)
            .map(|(&w, &s)| (w - s).max(0.0))
            .sum();
        for (p, (&w, &s)) in totals.iter().zip(&smoothed).enumerate() {
            if w <= 0.0 {
                continue;
            }
            let scale = s / w;
            for row in &mut self.region_eff {
                row[p] *= scale;
            }
            self.outside_eff[p] *= scale;
        }
    }

    /// `Σ_j max_p eff_jp + max_p outside_p`: the BSP phase sum.
    fn phase_sum(&self) -> f64 {
        let regions: f64 = self
            .region_eff
            .iter()
            .map(|row| row.iter().copied().fold(0.0f64, f64::max))
            .sum();
        let outside = self.outside_eff.iter().copied().fold(0.0f64, f64::max);
        regions + outside
    }

    /// Per-rank total effective compute.
    fn rank_totals(&self) -> Vec<f64> {
        (0..self.outside_eff.len())
            .map(|p| self.region_eff.iter().map(|row| row[p]).sum::<f64>() + self.outside_eff[p])
            .collect()
    }
}

/// The baseline decomposition plus calibration, built once per advise
/// run and shared (immutably) by every candidate prediction.
#[derive(Debug, Clone)]
pub struct BaselineModel {
    baseline_makespan: f64,
    baseline: Loads,
    /// Baseline makespan minus the baseline phase sum and collective
    /// costs: the communication/wait time the phase model does not see.
    comm_slack: f64,
}

impl BaselineModel {
    /// Builds the model from the baseline scenario and its simulated
    /// makespan (the one simulation the prediction path relies on).
    pub fn new(scenario: &Scenario, baseline_makespan: f64) -> BaselineModel {
        let (mut baseline, totals) = Loads::decompose(scenario);
        if let Some(plan) = &scenario.balance {
            // The measured baseline makespan includes the balancing, so
            // the slack must be calibrated against the smoothed loads.
            baseline.apply_balance(plan, &totals, &scenario.config);
        }
        let coll_total: f64 = baseline.coll_costs.iter().sum();
        let comm_slack = (baseline_makespan - baseline.phase_sum() - coll_total).max(0.0);
        BaselineModel {
            baseline_makespan,
            baseline,
            comm_slack,
        }
    }

    /// Predicts a candidate's makespan and bounds analytically.
    pub fn predict(&self, candidate: &Scenario) -> Prediction {
        let (mut cand, totals) = Loads::decompose(candidate);
        let coll_total: f64 = cand.coll_costs.iter().sum();

        // Upper bound: baseline plus the positive per-cell deltas —
        // computed from the *unbalanced* cells even for a balanced
        // candidate, because the simulator's profitability guard only
        // ever accepts migrations that do not worsen the run, so the
        // unbalanced upper bound still holds.
        let mut positive_delta = 0.0f64;
        for (j, row) in cand.region_eff.iter().enumerate() {
            let base_row = self.baseline.region_eff.get(j);
            for (p, &eff) in row.iter().enumerate() {
                let base = base_row.and_then(|r| r.get(p)).copied().unwrap_or(0.0);
                positive_delta += (eff - base).max(0.0);
            }
        }
        for (p, &eff) in cand.outside_eff.iter().enumerate() {
            let base = self.baseline.outside_eff.get(p).copied().unwrap_or(0.0);
            positive_delta += (eff - base).max(0.0);
        }
        for (i, &cost) in cand.coll_costs.iter().enumerate() {
            let base = self.baseline.coll_costs.get(i).copied().unwrap_or(0.0);
            positive_delta += (cost - base).max(0.0);
        }
        let upper = self.baseline_makespan + positive_delta;

        // Lower bound. Without balancing: serial execution of each
        // rank's own compute plus every collective instance. With
        // balancing, migrated chunks execute on the target's auxiliary
        // stream (overlapping its own compute), so the only retained
        // serial floor is the `1 − max_fraction` share of each op the
        // policy can never migrate away.
        let serial_floor = cand.rank_totals().iter().copied().fold(0.0f64, f64::max);
        let lower = match &candidate.balance {
            Some(plan) => serial_floor * (1.0 - plan.max_fraction()) + coll_total,
            None => serial_floor + coll_total,
        };
        if let Some(plan) = &candidate.balance {
            cand.apply_balance(plan, &totals, &candidate.config);
        }
        let cand_totals = cand.rank_totals();

        // Point estimate: phase sum + the candidate's collective costs
        // + the baseline's calibrated slack (+ the migration-overhead
        // tax for balanced candidates), clamped into the bounds. For
        // the identity candidate this reproduces the baseline makespan
        // exactly (the slack is defined as the residual).
        let estimate =
            cand.phase_sum() + coll_total + self.comm_slack + MIGRATION_OVERHEAD * cand.moved;
        let makespan = estimate.max(lower).min(upper.max(lower));

        let submajorized =
            is_weakly_submajorized_by(&cand_totals, &self.baseline.rank_totals()).unwrap_or(false);

        Prediction {
            makespan,
            lower_bound: lower,
            upper_bound: upper,
            submajorized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::{MachineConfig, ProgramBuilder, Simulator};

    fn scenario() -> Scenario {
        let mut pb = ProgramBuilder::new(4);
        let solve = pb.add_region("solve");
        pb.spmd(|rank, mut ops| {
            ops.enter(solve)
                .compute(0.5 + 0.5 * rank as f64)
                .allreduce(4096)
                .leave(solve);
        });
        Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap()
    }

    #[test]
    fn bounds_bracket_the_baseline_itself() {
        let s = scenario();
        let sim = Simulator::new(s.config.clone());
        let makespan = sim.run(&s.program).unwrap().stats.makespan;
        let model = BaselineModel::new(&s, makespan);
        let p = model.predict(&s);
        assert!(p.lower_bound <= makespan + 1e-12, "{p:?}");
        assert!(p.upper_bound >= makespan - 1e-12, "{p:?}");
        assert!(p.submajorized); // identical loads submajorize themselves
                                 // The identity candidate predicts (close to) the baseline.
        assert!((p.makespan - makespan).abs() <= 1e-9 + 0.05 * makespan);
    }

    #[test]
    fn balanced_candidate_predicts_a_gain_within_bounds() {
        let s = scenario();
        let sim = Simulator::new(s.config.clone());
        let makespan = sim.run(&s.program).unwrap().stats.makespan;
        let model = BaselineModel::new(&s, makespan);

        let catalog = crate::propose(&s);
        let split = catalog
            .iter()
            .find(|i| matches!(i, crate::Intervention::SplitRegionWork { .. }))
            .expect("no split proposed");
        let cand = split.apply(&s).unwrap();
        let p = model.predict(&cand);
        assert!(p.gain(makespan) > 0.0, "{p:?}");
        assert!(p.submajorized, "{p:?}");
        let measured = sim.run(&cand.program).unwrap().stats.makespan;
        assert!(
            measured <= p.upper_bound + 1e-9 && measured >= p.lower_bound - 1e-9,
            "measured {measured} outside [{}, {}]",
            p.lower_bound,
            p.upper_bound
        );
    }
}
