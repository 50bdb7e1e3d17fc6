//! `advise-cfd4k`: `advise --workload cfd --ranks 4096` with the CLI
//! defaults (linear 0.4 skew, budget 64, top 3, beam 8, depth 2, jobs 1),
//! rendered as the CLI prints it. The linear skew is deterministic, so
//! this workload's inputs do not depend on the seed.

use std::hint::black_box;

use limba_advisor::verify::verify;
use limba_advisor::{propose, Advice, Advisor, BaselineModel, Intervention, Scenario};
use limba_analysis::{Analyzer, BatchAnalyzer, ReportCache};
use limba_mpisim::{MachineConfig, Simulator};
use limba_workloads::Imbalance;

use super::{cfd, timed, Case};
use crate::spans::Recorder;
use crate::{Layers, Options, Unit};

/// State of the advise workload.
pub struct AdviseCase {
    scenario: Scenario,
    reps: usize,
    /// The warm-up unit's output: every unit must print it again.
    expected: String,
    advice: Option<Advice>,
}

fn advisor() -> Advisor {
    Advisor::new()
        .with_budget(64)
        .with_top_k(3)
        .with_beam_width(8)
        .with_max_depth(2)
        .with_jobs(1)
        .with_analyzer(Analyzer::new().with_cluster_k(2))
}

fn apply(scenario: &Scenario, combo: &[Intervention]) -> Result<Scenario, String> {
    let mut current = scenario.clone();
    for intervention in combo {
        current = intervention
            .apply(&current)
            .map_err(|e| format!("apply: {e}"))?;
    }
    Ok(current)
}

impl AdviseCase {
    /// One `limba advise` answer: the advice, then the baseline report
    /// with the recommendations appended.
    fn answer(&mut self, rec: &mut Recorder) -> Result<String, String> {
        let advice = timed(rec, "advisor.advise", || advisor().advise(&self.scenario))
            .map_err(|e| format!("advise: {e}"))?;
        let sim = Simulator::new(self.scenario.config.clone());
        let baseline = timed(rec, "mpisim.baseline", || sim.run(&self.scenario.program))
            .map_err(|e| format!("simulate: {e}"))?;
        let salvaged = timed(rec, "trace.reduce", || baseline.reduce_checked())
            .map_err(|e| format!("reduce: {e}"))?;
        let report = timed(rec, "analysis.analyze", || {
            Analyzer::new()
                .with_cluster_k(2)
                .analyze(&salvaged.reduced.measurements)
        })
        .map_err(|e| format!("analyze: {e}"))?;
        let text = timed(rec, "viz.render", || {
            format!(
                "{}\n{}",
                limba_viz::report::render(&report),
                limba_viz::advice::render_advice(&advice)
            )
        });
        let top = advice
            .candidates
            .first()
            .and_then(|c| c.verification.as_ref())
            .map(|v| v.measured_gain);
        self.advice = Some(advice);
        match top {
            Some(gain) if gain > 0.0 => Ok(text),
            _ => Err(format!("top candidate has no verified gain ({top:?})")),
        }
    }
}

impl Case for AdviseCase {
    fn setup(opts: &Options) -> Result<Self, String> {
        let ranks = opts.size.advise_ranks;
        let program = cfd(ranks, Imbalance::LinearSkew { spread: 0.4 }, opts.seed)?;
        let scenario = Scenario::new(program, MachineConfig::new(ranks))
            .map_err(|e| format!("scenario: {e}"))?;
        let mut case = AdviseCase {
            scenario,
            reps: opts.size.layer_reps,
            expected: String::new(),
            advice: None,
        };
        case.expected = case.answer(&mut Recorder::new(false))?;
        Ok(case)
    }

    fn unit(&mut self, rec: &mut Recorder) -> Result<Unit, String> {
        let t = std::time::Instant::now();
        let text = self.answer(rec)?;
        let report_s = t.elapsed().as_secs_f64();
        if text != self.expected {
            return Err("advice differs from the warm-up answer".into());
        }
        Ok(Unit {
            report_s,
            query_s: None,
            report_bytes: text.len(),
        })
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Layers) -> Result<(), String> {
        let advice = self.advice.clone().ok_or("no advice yet")?;
        let scenario = &self.scenario;
        let sim = Simulator::new(scenario.config.clone());
        let batch = BatchAnalyzer::new(Analyzer::new().with_cluster_k(2))
            .with_jobs(1)
            .with_cache(ReportCache::new());
        let balancing = advice.candidates.iter().find(|c| {
            c.interventions
                .iter()
                .any(|i| matches!(i, Intervention::EnableBalancing { .. }))
        });
        for _ in 0..self.reps {
            let root = rec.open("bench.layers");
            let catalog = timed(rec, "advisor.propose", || propose(scenario));
            timed(rec, "mpisim.polling", || {
                sim.run_polling_configured(&scenario.program, None, scenario.balance.as_ref(), None)
            })
            .map_err(|e| format!("polling engine: {e}"))?;
            timed(rec, "advisor.predict", || {
                let model = BaselineModel::new(scenario, advice.baseline_makespan);
                for intervention in &catalog {
                    if let Ok(candidate) = intervention.apply(scenario) {
                        black_box(model.predict(&candidate));
                    }
                }
            });
            let s = rec.open("advisor.verify");
            for c in &advice.candidates {
                let candidate = apply(scenario, &c.interventions)?;
                verify(
                    &candidate,
                    None,
                    advice.baseline_makespan,
                    &c.prediction,
                    &batch,
                )
                .map_err(|e| format!("verify: {e}"))?;
            }
            rec.close(s);
            if let Some(c) = balancing {
                let candidate = apply(scenario, &c.interventions)?;
                let csim = Simulator::new(candidate.config.clone());
                timed(rec, "mpisim.balanced", || {
                    csim.run_configured(&candidate.program, None, candidate.balance.as_ref(), None)
                })
                .map_err(|e| format!("balanced run: {e}"))?;
            }
            rec.close(root);
        }
        let verified: Vec<f64> = advice
            .candidates
            .iter()
            .filter_map(|c| c.verification.as_ref().map(|v| v.measured_gain))
            .collect();
        let gaining = verified.iter().filter(|g| **g > 0.0).count();
        out.insert("advisor.combos_evaluated", advice.evaluated as f64);
        out.insert("advisor.candidates_verified", verified.len() as f64);
        out.insert(
            "advisor.verified_gain_ratio",
            if verified.is_empty() {
                0.0
            } else {
                gaining as f64 / verified.len() as f64
            },
        );
        Ok(())
    }
}
