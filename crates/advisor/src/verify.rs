//! The verification stage: re-simulate top candidates.
//!
//! Prediction is a model; verification is the ground truth. Each
//! surviving candidate is re-run on the event-driven engine (with the
//! advise run's fault plan, when one is set, and the candidate's own
//! balancing plan, when it carries one), and the measured makespan is
//! compared against the prediction: `mispredicted` flags estimates off
//! by more than [`MISPREDICT_TOLERANCE`] of the measured value, and
//! `within_bounds` checks the majorization bracket (guaranteed for
//! fault-free runs). The verified run is folded as it simulates, on one
//! pipeline thread beside the simulator ([`limba_trace::pipelined`]),
//! and analyzed through the shared batch memo cache, so the advice can
//! also report where the imbalance *moved*: the post-intervention
//! heaviest region.

use limba_analysis::BatchAnalyzer;
use limba_model::ActivitySet;
use limba_mpisim::{FaultPlan, Simulator};
use limba_trace::{pipelined, Event, SalvageSink, TraceError, TraceSink};

use crate::{AdviseError, Prediction, Scenario};

/// Relative error (vs the measured makespan) above which a prediction
/// counts as a misprediction.
pub const MISPREDICT_TOLERANCE: f64 = 0.05;

/// Events per frame the advisor's runs hand their folds.
pub(crate) const FRAME_EVENTS: usize = 4096;

/// The verification's fold. Its first error drops it instead of
/// stopping the run: the verification keeps its measured makespan and
/// loses only the post-intervention report.
struct Lenient(Option<SalvageSink>);

impl Lenient {
    /// Steps the fold, dropping it if the step fails; never fails.
    fn step(
        &mut self,
        step: impl FnOnce(&mut SalvageSink) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        if self.0.as_mut().is_some_and(|fold| step(fold).is_err()) {
            self.0 = None;
        }
        Ok(())
    }
}

impl TraceSink for Lenient {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.step(|fold| fold.begin(processors, region_names))
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.step(|fold| fold.events(events))
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.step(TraceSink::finish)
    }
}

/// The measured outcome of one candidate's verification runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Verification {
    /// Makespan measured on the event-driven engine (seconds).
    pub event_makespan: f64,
    /// Measured gain over the baseline (positive = faster).
    pub measured_gain: f64,
    /// Whether the measured makespan lies inside the predicted
    /// majorization bracket `[lower_bound, upper_bound]`.
    pub within_bounds: bool,
    /// Whether the point estimate missed the measurement by more than
    /// [`MISPREDICT_TOLERANCE`] of the measured makespan.
    pub mispredicted: bool,
    /// The heaviest region *after* the intervention, from re-analyzing
    /// the verified run (`None` when its fold or analysis fails, e.g.
    /// a program without regions or too few ranks to cluster).
    pub heaviest_region: Option<String>,
}

/// A pluggable store of completed [`Verification`]s, keyed by the
/// candidate's canonical combo signature.
///
/// The advisor consults the cache before re-simulating a candidate and
/// offers every freshly computed verification back, which is what makes
/// an interrupted `advise` run resumable: a checkpoint-backed
/// implementation (see `limba-guard`) persists each verification as it
/// completes, and the resumed run replays them instead of simulating.
///
/// Correctness requirement for implementors: `get` must only return a
/// value previously `put` under the same signature *for the same
/// scenario, faults, and analyzer configuration* — verifications are
/// deterministic, so under that discipline a cache hit is bit-identical
/// to a recomputation.
pub trait VerifyCache: Send + Sync {
    /// Looks up a completed verification by combo signature.
    fn get(&self, signature: &str) -> Option<Verification>;
    /// Records a completed verification. Errors must be swallowed or
    /// surfaced out-of-band; a failed `put` only costs a future hit.
    fn put(&self, signature: &str, verification: &Verification);
}

/// Re-simulates `candidate` and scores it against its prediction.
/// `batch` supplies the analyzer (and its shared memo cache) for the
/// post-intervention report.
///
/// # Errors
///
/// Returns [`AdviseError::Sim`] when the run fails.
pub fn verify(
    candidate: &Scenario,
    faults: Option<&FaultPlan>,
    baseline_makespan: f64,
    prediction: &Prediction,
    batch: &BatchAnalyzer,
) -> Result<Verification, AdviseError> {
    // Where did the imbalance move? The run's events fold into the
    // salvaged reduction on a pipeline thread while the simulator runs
    // on this one, for re-analysis below. The fold never fails, so the
    // run is the one an inline fold would see.
    let mut fold = Lenient(Some(SalvageSink::new(ActivitySet::standard())));
    let run = pipelined(&mut fold, |sink| {
        Simulator::new(candidate.config.clone()).run_streaming_configured(
            &candidate.program,
            faults,
            candidate.balance.as_ref(),
            None,
            sink,
            FRAME_EVENTS,
        )
    })??;
    let measured = run.stats.makespan;
    let eps = 1e-9 * measured.abs().max(1.0);
    let within_bounds =
        measured >= prediction.lower_bound - eps && measured <= prediction.upper_bound + eps;
    let mispredicted = (prediction.makespan - measured).abs()
        > MISPREDICT_TOLERANCE * measured.max(f64::MIN_POSITIVE);

    let heaviest_region = fold
        .0
        .and_then(SalvageSink::into_salvaged)
        .and_then(|salvaged| {
            batch
                .analyze_batch(std::slice::from_ref(&salvaged.reduced.measurements))
                .pop()?
                .ok()
        })
        .and_then(|report| {
            report
                .findings
                .tuning_candidates
                .iter()
                .find(|c| c.is_heaviest)
                .map(|c| c.name.clone())
        });

    Ok(Verification {
        event_makespan: measured,
        measured_gain: baseline_makespan - measured,
        within_bounds,
        mispredicted,
        heaviest_region,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_analysis::Analyzer;
    use limba_mpisim::{MachineConfig, ProgramBuilder};

    #[test]
    fn verification_agrees_with_a_direct_run() {
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("solve");
        pb.spmd(|rank, mut ops| {
            ops.enter(r)
                .compute(0.2 + 0.1 * rank as f64)
                .barrier()
                .leave(r);
        });
        let scenario = Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap();
        let sim = Simulator::new(scenario.config.clone());
        let event = sim.run(&scenario.program).unwrap();
        let polling = sim
            .run_polling_configured(&scenario.program, None, None, None)
            .unwrap();
        assert!(polling.trace == event.trace);
        assert_eq!(polling.stats, event.stats);
        let baseline = event.stats.makespan;
        let model = crate::BaselineModel::new(&scenario, baseline);
        let prediction = model.predict(&scenario);
        let batch = BatchAnalyzer::new(Analyzer::new().with_cluster_k(2));
        let v = verify(&scenario, None, baseline, &prediction, &batch).unwrap();
        assert_eq!(v.event_makespan, polling.stats.makespan);
        assert_eq!(v.measured_gain, 0.0);
        assert!(v.within_bounds);
        assert!(!v.mispredicted);
        assert_eq!(v.heaviest_region.as_deref(), Some("solve"));
    }

    #[test]
    fn a_crash_truncated_candidate_folds_like_its_materialized_salvage() {
        let mut pb = ProgramBuilder::new(4);
        let setup = pb.add_region("setup");
        let solve = pb.add_region("solve");
        pb.spmd(|rank, mut ops| {
            ops.enter(setup)
                .compute(0.1 + 0.2 * (rank % 2) as f64)
                .barrier()
                .leave(setup)
                .enter(solve)
                .compute(0.2 + 0.1 * rank as f64)
                .barrier()
                .leave(solve);
        });
        let scenario = Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap();
        // Rank 3 dies inside `solve`; the others wait at its barrier.
        let plan = FaultPlan::new(1).with_crash(3, 0.45);
        let baseline = 0.9;
        let prediction = crate::BaselineModel::new(&scenario, baseline).predict(&scenario);
        let batch = BatchAnalyzer::new(Analyzer::new().with_cluster_k(2));
        let v = verify(&scenario, Some(&plan), baseline, &prediction, &batch).unwrap();

        let direct = Simulator::new(scenario.config.clone())
            .run_configured(&scenario.program, Some(&plan), None, None)
            .unwrap();
        assert_eq!(direct.faults.crashes.len(), 1);
        let salvaged = direct.reduce_checked().unwrap();
        assert!(!salvaged.is_complete(), "the crash must truncate streams");
        let report = batch
            .analyze_batch(std::slice::from_ref(&salvaged.reduced.measurements))
            .pop()
            .unwrap()
            .unwrap();
        let heaviest = report
            .findings
            .tuning_candidates
            .iter()
            .find(|c| c.is_heaviest)
            .map(|c| c.name.clone());
        assert!(heaviest.is_some());
        assert_eq!(v.event_makespan.to_bits(), direct.stats.makespan.to_bits());
        assert_eq!(v.measured_gain, baseline - direct.stats.makespan);
        assert_eq!(v.heaviest_region, heaviest);
    }

    #[test]
    fn a_failing_fold_costs_the_region_not_the_measurement() {
        // No regions: the run simulates, its reduction cannot be built.
        let mut pb = ProgramBuilder::new(2);
        pb.spmd(|rank, mut ops| {
            ops.compute(0.1 * (rank + 1) as f64).barrier();
        });
        let scenario = Scenario::new(pb.build().unwrap(), MachineConfig::new(2)).unwrap();
        let direct = Simulator::new(scenario.config.clone())
            .run(&scenario.program)
            .unwrap();
        assert!(direct.reduce_checked().is_err());
        let prediction = crate::BaselineModel::new(&scenario, 0.2).predict(&scenario);
        let batch = BatchAnalyzer::new(Analyzer::new().with_cluster_k(2));
        let v = verify(&scenario, None, 0.2, &prediction, &batch).unwrap();
        assert_eq!(v.event_makespan, direct.stats.makespan);
        assert_eq!(v.heaviest_region, None);
    }
}
