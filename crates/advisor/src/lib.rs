//! Closed-loop tuning advisor: propose → predict → simulate-verify.
//!
//! The analysis layers diagnose load imbalance — they name the heaviest
//! region and the most dissimilar processors and stop there. This crate
//! closes the loop entirely in-repo:
//!
//! 1. **propose** — the catalog ([`propose`]) derives typed, composable
//!    interventions from a [`Scenario`] (a program plus the machine it
//!    runs on): splitting the heaviest region's work across underloaded
//!    ranks, remapping ranks to CPUs (greedy LPT and a speed-aware
//!    variant), upgrading the slowest CPU class, swapping a
//!    collective's cost algorithm, and enabling an in-run dynamic
//!    balancing policy ([`limba_mpisim::BalancePlan`]) — pricing
//!    runtime mitigation against static refactors;
//! 2. **predict** — each candidate's gain is estimated analytically
//!    from the program's `t_ijp` marginals, bracketed by sound
//!    majorization-style lower/upper bounds ([`BaselineModel`]) — no
//!    simulation on the search path;
//! 3. **search** — [`Advisor`] beam-searches intervention combos under
//!    a prediction budget, evaluating candidates in parallel through
//!    [`limba_par::par_map`] with input-order slots, so advice is
//!    byte-identical at every `--jobs` setting;
//! 4. **verify** — the top-k candidates are re-simulated ([`verify`]),
//!    reporting predicted-vs-measured gain and flagging mispredictions.
//!
//! # Example
//!
//! ```
//! use limba_advisor::{Advisor, Scenario};
//! use limba_mpisim::{MachineConfig, ProgramBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new(4);
//! let solve = pb.add_region("solve");
//! pb.spmd(|rank, mut ops| {
//!     ops.enter(solve)
//!         .compute(1.0 + rank as f64) // heavily skewed
//!         .barrier()
//!         .leave(solve);
//! });
//! let scenario = Scenario::new(pb.build()?, MachineConfig::new(4))?;
//! let advice = Advisor::new().with_top_k(1).advise(&scenario)?;
//! let best = &advice.candidates[0];
//! assert!(best.verification.as_ref().unwrap().measured_gain > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use limba_model::{ActivityKind, Measurements};
use limba_mpisim::{MachineConfig, Program, ProgramBuilder, SimError};

pub(crate) mod catalog;
pub(crate) mod predict;
pub(crate) mod search;
pub mod verify;

pub use catalog::{propose, Intervention, RemapVariant};
pub use predict::{BaselineModel, Prediction};
pub use search::{Advice, Advisor, Candidate};
pub use verify::{Verification, VerifyCache};

/// Errors the advisor reports.
#[derive(Debug)]
pub enum AdviseError {
    /// The simulator rejected a program, machine, or fault plan.
    Sim(SimError),
    /// The verification analysis failed.
    Analysis(limba_analysis::AnalysisError),
    /// Trace reduction of a verification run failed.
    Trace(limba_trace::TraceError),
    /// A cancellation token tripped mid-advise (see
    /// [`Advisor::with_cancel`]). No advice is returned, but any
    /// verifications already completed were offered to the attached
    /// [`VerifyCache`], so a resumed advise
    /// run skips them.
    Interrupted {
        /// Which phase the cancellation landed in.
        detail: String,
    },
}

impl fmt::Display for AdviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviseError::Sim(e) => write!(f, "simulation failed: {e}"),
            AdviseError::Analysis(e) => write!(f, "analysis failed: {e}"),
            AdviseError::Trace(e) => write!(f, "trace reduction failed: {e}"),
            AdviseError::Interrupted { detail } => write!(f, "advise interrupted: {detail}"),
        }
    }
}

impl std::error::Error for AdviseError {}

impl From<SimError> for AdviseError {
    fn from(e: SimError) -> Self {
        AdviseError::Sim(e)
    }
}

impl From<limba_analysis::AnalysisError> for AdviseError {
    fn from(e: limba_analysis::AnalysisError) -> Self {
        AdviseError::Analysis(e)
    }
}

impl From<limba_trace::TraceError> for AdviseError {
    fn from(e: limba_trace::TraceError) -> Self {
        AdviseError::Trace(e)
    }
}

/// What the advisor optimizes: a program plus the machine it runs on.
///
/// Interventions are pure transformations `Scenario → Scenario`; the
/// original is never mutated, so candidates compose and compare freely.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The per-rank op program.
    pub program: Program,
    /// The machine configuration.
    pub config: MachineConfig,
    /// An in-run dynamic balancing plan, when one is active. `None` is
    /// the static baseline; the catalog's
    /// [`Intervention::EnableBalancing`](crate::catalog::Intervention)
    /// turns it on, and every simulation of the scenario (baseline and
    /// verification) honors it.
    pub balance: Option<limba_mpisim::BalancePlan>,
}

impl Scenario {
    /// Pairs a program with a machine.
    ///
    /// # Errors
    ///
    /// Returns [`AdviseError::Sim`] when the configuration is invalid
    /// or its processor count differs from the program's rank count.
    pub fn new(program: Program, config: MachineConfig) -> Result<Self, AdviseError> {
        config.validate()?;
        if config.processors() != program.ranks() {
            return Err(AdviseError::Sim(SimError::InvalidConfig {
                detail: format!(
                    "machine has {} processors but the program has {} ranks",
                    config.processors(),
                    program.ranks()
                ),
            }));
        }
        Ok(Scenario {
            program,
            config,
            balance: None,
        })
    }

    /// Attaches an in-run dynamic balancing plan — every simulation of
    /// the scenario runs under it.
    pub fn with_balance(mut self, plan: limba_mpisim::BalancePlan) -> Self {
        self.balance = Some(plan);
        self
    }

    /// Reconstructs a simulatable proxy scenario from a measurement
    /// matrix: one region per measured region, each rank computing its
    /// measured computation time (its `t_ijp` computation marginal) and
    /// then synchronizing at a barrier, on a uniform machine of the
    /// measured processor count. This is what lets `limba advise` close
    /// the loop on a *trace*: the proxy preserves the per-phase load
    /// shape — exactly what the intervention catalog acts on — while
    /// abstracting the original communication structure into the
    /// barrier.
    ///
    /// # Errors
    ///
    /// Returns [`AdviseError::Sim`] when the matrix has no processors
    /// or a measured time is not a valid work amount.
    pub fn from_measurements(measurements: &Measurements) -> Result<Self, AdviseError> {
        let procs = measurements.processors();
        let mut pb = ProgramBuilder::new(procs);
        let regions: Vec<_> = measurements
            .region_ids()
            .map(|r| pb.add_region(measurements.region_info(r).name()))
            .collect();
        for (region, mid) in measurements.region_ids().zip(regions) {
            pb.spmd(|rank, mut ops| {
                let t = measurements.time(
                    region,
                    ActivityKind::Computation,
                    limba_model::ProcessorId::new(rank),
                );
                ops.enter(mid).compute(t).barrier().leave(mid);
            });
        }
        Scenario::new(pb.build()?, MachineConfig::new(procs))
    }

    /// Per-rank CPU speeds of the machine, in rank order.
    pub(crate) fn speeds(&self) -> Vec<f64> {
        (0..self.config.processors())
            .map(|p| self.config.cpu_speed(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_model::MeasurementsBuilder;

    #[test]
    fn scenario_rejects_rank_mismatch() {
        let mut pb = ProgramBuilder::new(2);
        pb.spmd(|_, mut ops| {
            ops.compute(1.0);
        });
        let program = pb.build().unwrap();
        assert!(Scenario::new(program.clone(), MachineConfig::new(3)).is_err());
        assert!(Scenario::new(program, MachineConfig::new(2)).is_ok());
    }

    #[test]
    fn proxy_scenario_preserves_the_load_shape() {
        let mut b = MeasurementsBuilder::new(3);
        let r0 = b.add_region("solve");
        let r1 = b.add_region("exchange");
        for p in 0..3 {
            b.record(r0, ActivityKind::Computation, p, 1.0 + p as f64)
                .unwrap();
            b.record(r1, ActivityKind::Computation, p, 0.5).unwrap();
            b.record(r1, ActivityKind::PointToPoint, p, 0.25).unwrap();
        }
        let m = b.build().unwrap();
        let scenario = Scenario::from_measurements(&m).unwrap();
        assert_eq!(scenario.program.ranks(), 3);
        assert_eq!(scenario.program.region_names(), ["solve", "exchange"]);
        // Communication marginals are abstracted into the barrier.
        assert_eq!(
            scenario.program.compute_cells().regions,
            vec![vec![1.0, 2.0, 3.0], vec![0.5, 0.5, 0.5]]
        );
    }
}
