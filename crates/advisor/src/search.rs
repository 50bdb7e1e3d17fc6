//! The search driver: beam search over intervention combos.
//!
//! Candidates are *combos* — signature-sorted sets of catalog
//! interventions with pairwise-distinct slots. The driver predicts
//! every explored combo analytically, as a delta on the baseline
//! program ([`BaselineModel::predict_combo`]: the search neither
//! simulates nor builds a program), keeps the `beam_width` best per
//! depth, extends them with compatible interventions up to
//! `max_depth`, and stops when the prediction `budget` is exhausted.
//! The top `top_k` combos by predicted makespan — plus the best
//! balancing combo when none of them balances — are then built once
//! each ([`apply_combo`]) and handed to the verification stage, whose
//! runs each fold on one pipeline thread, and the advice is ranked by
//! *measured* makespan.
//!
//! Determinism: combos are evaluated through [`limba_par::par_map`]
//! (input-order result slots), every ranking tie-breaks on the combo's
//! canonical signature, and a memo set prevents re-evaluating a combo
//! reached through two beam paths — so the advice is byte-identical at
//! every `jobs` setting.

use std::collections::BTreeSet;
use std::sync::Arc;

use limba_analysis::{Analyzer, BatchAnalyzer, ReportCache};
use limba_mpisim::{FaultPlan, Simulator};
use limba_par::{par_map, par_map_cancellable, CancelToken};
use limba_trace::ScanSink;

use crate::catalog::{apply_combo, propose, Intervention};
use crate::predict::{BaselineModel, Prediction};
use crate::verify::{verify, Verification, VerifyCache, FRAME_EVENTS};
use crate::{AdviseError, Scenario};

/// One ranked recommendation: an intervention combo, its analytic
/// prediction, and (after verification) its measured outcome.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The interventions, in canonical (signature-sorted) apply order.
    pub interventions: Vec<Intervention>,
    /// Human-readable labels, one per intervention.
    pub labels: Vec<String>,
    /// Canonical identity of the combo.
    pub signature: String,
    /// The analytic prediction.
    pub prediction: Prediction,
    /// Predicted gain over the baseline in seconds.
    pub predicted_gain: f64,
    /// The verification outcome (`Some` for every advised candidate).
    pub verification: Option<Verification>,
}

/// The advisor's result: the baseline and the verified top candidates.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Baseline makespan, simulated on the event engine (seconds).
    pub baseline_makespan: f64,
    /// Size of the proposed intervention catalog.
    pub catalog_size: usize,
    /// Number of combos the search predicted (≤ budget).
    pub evaluated: usize,
    /// The prediction budget the search ran under.
    pub budget: usize,
    /// Verified candidates, ranked by measured makespan (best first).
    pub candidates: Vec<Candidate>,
}

/// The closed-loop tuning advisor (see the crate docs).
#[derive(Clone)]
pub struct Advisor {
    budget: usize,
    top_k: usize,
    beam_width: usize,
    max_depth: usize,
    jobs: usize,
    faults: Option<FaultPlan>,
    analyzer: Analyzer,
    cancel: Option<CancelToken>,
    verify_cache: Option<Arc<dyn VerifyCache>>,
}

impl std::fmt::Debug for Advisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Advisor")
            .field("budget", &self.budget)
            .field("top_k", &self.top_k)
            .field("beam_width", &self.beam_width)
            .field("max_depth", &self.max_depth)
            .field("jobs", &self.jobs)
            .field("faults", &self.faults)
            .field("analyzer", &self.analyzer)
            .field("cancel", &self.cancel)
            .field("verify_cache", &self.verify_cache.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for Advisor {
    fn default() -> Self {
        Advisor::new()
    }
}

impl Advisor {
    /// An advisor with the default search knobs: budget 64, top-k 3,
    /// beam width 8, depth 2, sequential evaluation.
    pub fn new() -> Self {
        Advisor {
            budget: 64,
            top_k: 3,
            beam_width: 8,
            max_depth: 2,
            jobs: 1,
            faults: None,
            analyzer: Analyzer::new(),
            cancel: None,
            verify_cache: None,
        }
    }

    /// Sets the prediction budget: the maximum number of combos the
    /// search evaluates analytically. The budget caps *predictions*,
    /// not simulations — verification runs one event-engine simulation
    /// per verified candidate: the top `min(top_k, evaluated)` combos,
    /// plus the reserved balancing slot when none of them carries a
    /// balancing intervention but a lower-ranked combo does (a
    /// [`VerifyCache`] hit replaces its simulation).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Sets how many top candidates are simulate-verified and reported.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Sets the beam width (combos kept per search depth).
    pub fn with_beam_width(mut self, width: usize) -> Self {
        self.beam_width = width.max(1);
        self
    }

    /// Sets the maximum number of interventions per combo.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Sets the worker count for parallel candidate evaluation and
    /// verification (0 = all cores). Results are identical at every
    /// setting.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Runs the baseline and every verification under `plan` — advising
    /// on the machine as it degrades, not as designed.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the analyzer used for post-verification reports.
    pub fn with_analyzer(mut self, analyzer: Analyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Attaches a cooperative cancellation token. When the token trips,
    /// [`advise`](Self::advise) stops at the next phase boundary (or the
    /// next unstarted verification) and returns
    /// [`AdviseError::Interrupted`]. Verifications finished before the
    /// trip were already offered to the attached
    /// [`VerifyCache`], so nothing completed is lost.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a [`VerifyCache`]: candidate verifications found in the
    /// cache are reused instead of re-simulated, and fresh ones are
    /// stored back. With a persistent implementation this makes advise
    /// runs resumable (see the `VerifyCache` docs for the correctness
    /// discipline).
    pub fn with_verify_cache(mut self, cache: Arc<dyn VerifyCache>) -> Self {
        self.verify_cache = Some(cache);
        self
    }

    fn check_cancelled(&self, phase: &str) -> Result<(), AdviseError> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(AdviseError::Interrupted {
                detail: format!("cancelled during {phase}"),
            }),
            _ => Ok(()),
        }
    }

    /// Proposes, predicts, searches, and verifies: the closed loop.
    ///
    /// # Errors
    ///
    /// Returns [`AdviseError::Sim`] when the baseline or a verification
    /// run fails.
    pub fn advise(&self, scenario: &Scenario) -> Result<Advice, AdviseError> {
        scenario.config.validate()?;
        if let Some(plan) = &self.faults {
            plan.validate(scenario.config.processors())?;
        }
        self.check_cancelled("baseline simulation")?;

        // The baseline: the one simulation predictions use. The
        // scenario's own balance plan (if any) is part of the baseline
        // — the advisor measures interventions against it.
        let baseline_makespan = Simulator::new(scenario.config.clone())
            .run_streaming_configured(
                &scenario.program,
                self.faults.as_ref(),
                scenario.balance.as_ref(),
                None,
                &mut ScanSink::new(),
                FRAME_EVENTS,
            )?
            .stats
            .makespan;
        let model = BaselineModel::new(scenario, baseline_makespan);
        let catalog = propose(scenario);
        // A signature prints every per-rank factor of a split, so each
        // is built once; the search carries combos as signature-sorted
        // index lists into the catalog.
        let signatures: Vec<String> = catalog.iter().map(Intervention::signature).collect();
        let combo_signature = |combo: &[usize]| {
            let mut sigs: Vec<&str> = combo.iter().map(|&i| signatures[i].as_str()).collect();
            sigs.sort_unstable();
            sigs.join(" + ")
        };

        // Beam search under the prediction budget.
        let mut evaluated = 0usize;
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut scored: Vec<(String, Vec<usize>, Prediction)> = Vec::new();
        let mut frontier: Vec<Vec<usize>> = (0..catalog.len()).map(|i| vec![i]).collect();
        for _depth in 0..self.max_depth {
            self.check_cancelled("beam search")?;
            let mut batch: Vec<(String, Vec<usize>)> = Vec::new();
            for combo in frontier.drain(..) {
                if evaluated + batch.len() >= self.budget {
                    break;
                }
                let signature = combo_signature(&combo);
                if seen.insert(signature.clone()) {
                    batch.push((signature, combo));
                }
            }
            if batch.is_empty() {
                break;
            }
            // A combo that fails to apply stays unscored.
            let predictions = par_map(self.jobs, &batch, |_, (_, combo)| {
                model
                    .predict_combo(scenario, combo.iter().map(|&i| &catalog[i]))
                    .ok()
            });
            evaluated += batch.len();
            for ((signature, combo), prediction) in batch.into_iter().zip(predictions) {
                if let Some(prediction) = prediction {
                    scored.push((signature, combo, prediction));
                }
            }
            if evaluated >= self.budget {
                break;
            }
            // Extend the beam with every slot-compatible intervention.
            let mut beam: Vec<&(String, Vec<usize>, Prediction)> = scored.iter().collect();
            beam.sort_by(|a, b| rank_predicted(a, b));
            beam.truncate(self.beam_width);
            frontier = beam
                .iter()
                .flat_map(|(_, combo, _)| {
                    (0..catalog.len())
                        .filter(|&i| {
                            combo
                                .iter()
                                .all(|&c| catalog[c].slot() != catalog[i].slot())
                        })
                        .map(|i| {
                            let mut extended = combo.clone();
                            extended.push(i);
                            extended.sort_by(|&a, &b| signatures[a].cmp(&signatures[b]));
                            extended
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
        }

        // Rank every evaluated combo and verify the top k. Dynamic
        // balancing gets one reserved verification slot: when no combo
        // in the top k carries a balancing intervention but a scored
        // one does, the best such combo is verified as an extra
        // candidate — runtime mitigation is always priced against the
        // static refactors it competes with.
        self.check_cancelled("candidate ranking")?;
        scored.sort_by(rank_predicted);
        let has_balance = |combo: &[usize]| {
            combo
                .iter()
                .any(|&i| matches!(catalog[i], Intervention::EnableBalancing { .. }))
        };
        let reserved = if scored
            .iter()
            .take(self.top_k)
            .any(|(_, combo, _)| has_balance(combo))
        {
            None
        } else {
            scored
                .iter()
                .skip(self.top_k)
                .find(|(_, combo, _)| has_balance(combo))
                .cloned()
        };
        scored.truncate(self.top_k);
        scored.extend(reserved);
        let scored: Vec<(String, Vec<Intervention>, Prediction)> = scored
            .into_iter()
            .map(|(signature, combo, prediction)| {
                let combo = combo.iter().map(|&i| catalog[i].clone()).collect();
                (signature, combo, prediction)
            })
            .collect();
        let batch_analyzer = BatchAnalyzer::new(self.analyzer.clone())
            .with_jobs(self.jobs)
            .with_cache(ReportCache::new());
        let verify_one = |signature: &str,
                          combo: &[Intervention],
                          prediction: &Prediction|
         -> Result<Verification, AdviseError> {
            if let Some(cache) = &self.verify_cache {
                if let Some(hit) = cache.get(signature) {
                    return Ok(hit);
                }
            }
            let cand = apply_combo(scenario, combo)?;
            let verification = verify(
                &cand,
                self.faults.as_ref(),
                baseline_makespan,
                prediction,
                &batch_analyzer,
            )?;
            if let Some(cache) = &self.verify_cache {
                cache.put(signature, &verification);
            }
            Ok(verification)
        };
        let verifications: Vec<Result<Verification, AdviseError>> = match &self.cancel {
            None => par_map(self.jobs, &scored, |_, (signature, combo, prediction)| {
                verify_one(signature, combo, prediction)
            }),
            Some(token) => par_map_cancellable(
                self.jobs,
                &scored,
                token,
                |_, (signature, combo, prediction)| verify_one(signature, combo, prediction),
            )
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(AdviseError::Interrupted {
                        detail: "cancelled during verification".into(),
                    })
                })
            })
            .collect(),
        };

        let region_names = scenario.program.region_names();
        let mut candidates = Vec::with_capacity(scored.len());
        for ((signature, interventions, prediction), verification) in
            scored.into_iter().zip(verifications)
        {
            let verification = verification?;
            candidates.push(Candidate {
                labels: interventions
                    .iter()
                    .map(|i| i.label(region_names))
                    .collect(),
                signature,
                predicted_gain: prediction.gain(baseline_makespan),
                prediction,
                interventions,
                verification: Some(verification),
            });
        }
        candidates.sort_by(|a, b| {
            let am = a
                .verification
                .as_ref()
                .map_or(f64::INFINITY, |v| v.event_makespan);
            let bm = b
                .verification
                .as_ref()
                .map_or(f64::INFINITY, |v| v.event_makespan);
            am.total_cmp(&bm)
                .then(a.interventions.len().cmp(&b.interventions.len()))
                .then(a.signature.cmp(&b.signature))
        });

        Ok(Advice {
            baseline_makespan,
            catalog_size: catalog.len(),
            evaluated,
            budget: self.budget,
            candidates,
        })
    }
}

/// Prediction-ranking order: predicted makespan, then combo size
/// (simpler combos win exact ties — a combo whose extra intervention
/// predicts no change must not outrank its base), then signature.
fn rank_predicted(
    a: &(String, Vec<usize>, Prediction),
    b: &(String, Vec<usize>, Prediction),
) -> std::cmp::Ordering {
    a.2.makespan
        .total_cmp(&b.2.makespan)
        .then(a.1.len().cmp(&b.1.len()))
        .then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::{MachineConfig, ProgramBuilder};

    fn skewed_scenario() -> Scenario {
        let mut pb = ProgramBuilder::new(4);
        let heavy = pb.add_region("heavy");
        let light = pb.add_region("light");
        pb.spmd(|rank, mut ops| {
            ops.enter(heavy)
                .compute(1.0 + rank as f64)
                .barrier()
                .leave(heavy)
                .enter(light)
                .compute(0.2)
                .allreduce(2048)
                .leave(light);
        });
        Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap()
    }

    /// The engine cross-check `advise` leaves to the tests: re-applies
    /// `combo` to `scenario`, runs it on the polling engine with the
    /// advise run's `faults` and the result's own balance plan, and
    /// asserts that the trace and stats equal the event engine's and
    /// that the makespan equals the `measured` one the advice reports.
    fn assert_polling_agrees(
        scenario: &Scenario,
        faults: Option<&FaultPlan>,
        combo: &[Intervention],
        measured: f64,
    ) {
        let applied = apply_combo(scenario, combo).unwrap();
        let sim = Simulator::new(applied.config.clone());
        let balance = applied.balance.as_ref();
        let event = sim
            .run_configured(&applied.program, faults, balance, None)
            .unwrap();
        let polling = sim
            .run_polling_configured(&applied.program, faults, balance, None)
            .unwrap();
        assert!(polling.trace == event.trace, "traces differ: {combo:?}");
        assert_eq!(polling.stats, event.stats, "{combo:?}");
        assert_eq!(polling.stats.makespan, measured, "{combo:?}");
    }

    #[test]
    fn advice_finds_a_verified_improvement() {
        let scenario = skewed_scenario();
        let advisor = Advisor::new()
            .with_top_k(3)
            .with_analyzer(Analyzer::new().with_cluster_k(2));
        let advice = advisor.advise(&scenario).unwrap();
        assert!(advice.evaluated > 0);
        assert!(advice.evaluated <= advice.budget);
        assert!(!advice.candidates.is_empty());
        let best = &advice.candidates[0];
        let v = best.verification.as_ref().unwrap();
        assert!(
            v.measured_gain > 0.0,
            "best candidate should beat the baseline: {best:?}"
        );
        assert!(v.within_bounds, "{best:?}");
        assert_polling_agrees(&scenario, None, &[], advice.baseline_makespan);
        assert_polling_agrees(&scenario, None, &best.interventions, v.event_makespan);
        // The top recommendation targets the heavy region.
        assert!(
            best.labels.iter().any(|l| l.contains("heavy")),
            "{:?}",
            best.labels
        );
    }

    #[test]
    fn advice_surfaces_a_verified_balancing_candidate() {
        // The reserved slot (or the ranking itself) must always price
        // dynamic balancing on an imbalanced scenario, and the verified
        // run must honor the plan: migrations never worsen the run.
        let scenario = skewed_scenario();
        let advice = Advisor::new()
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap();
        let balanced: Vec<&Candidate> = advice
            .candidates
            .iter()
            .filter(|c| c.signature.contains("balance:"))
            .collect();
        assert!(
            !balanced.is_empty(),
            "no dynamic-balancing candidate surfaced: {:?}",
            advice
                .candidates
                .iter()
                .map(|c| &c.signature)
                .collect::<Vec<_>>()
        );
        for c in balanced {
            let v = c.verification.as_ref().unwrap();
            assert!(v.measured_gain >= 0.0, "balancing worsened the run: {c:?}");
            assert_polling_agrees(&scenario, None, &c.interventions, v.event_makespan);
        }
    }

    #[test]
    fn advice_is_jobs_invariant() {
        let scenario = skewed_scenario();
        let base = Advisor::new().with_analyzer(Analyzer::new().with_cluster_k(2));
        let reference = base.clone().with_jobs(1).advise(&scenario).unwrap();
        for jobs in [2, 8] {
            let advice = base.clone().with_jobs(jobs).advise(&scenario).unwrap();
            assert_eq!(advice.evaluated, reference.evaluated);
            assert_eq!(
                format!("{:#?}", advice.candidates),
                format!("{:#?}", reference.candidates),
                "advice drifted at jobs={jobs}"
            );
        }
    }

    #[test]
    fn budget_caps_the_search() {
        let scenario = skewed_scenario();
        let advice = Advisor::new()
            .with_budget(2)
            .with_top_k(1)
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap();
        assert!(advice.evaluated <= 2);
        assert_eq!(advice.candidates.len(), 1);
    }

    #[test]
    fn cancelled_advise_returns_interrupted() {
        let scenario = skewed_scenario();
        let token = CancelToken::new();
        token.cancel();
        let result = Advisor::new().with_cancel(token).advise(&scenario);
        assert!(matches!(result, Err(AdviseError::Interrupted { .. })));

        // An untripped token leaves the advice identical.
        let plain = Advisor::new()
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap();
        let tokened = Advisor::new()
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .with_cancel(CancelToken::new())
            .advise(&scenario)
            .unwrap();
        assert_eq!(
            format!("{:#?}", plain.candidates),
            format!("{:#?}", tokened.candidates)
        );
    }

    #[derive(Default)]
    struct CountingCache {
        entries: std::sync::Mutex<std::collections::HashMap<String, Verification>>,
        hits: std::sync::atomic::AtomicUsize,
        puts: std::sync::atomic::AtomicUsize,
    }

    impl VerifyCache for CountingCache {
        fn get(&self, signature: &str) -> Option<Verification> {
            let hit = self.entries.lock().unwrap().get(signature).cloned();
            if hit.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        }

        fn put(&self, signature: &str, verification: &Verification) {
            self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .insert(signature.to_string(), verification.clone());
        }
    }

    #[test]
    fn verify_cache_replays_completed_verifications() {
        let scenario = skewed_scenario();
        let cache = Arc::new(CountingCache::default());
        let advisor = Advisor::new()
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .with_verify_cache(cache.clone());
        let first = advisor.advise(&scenario).unwrap();
        let first_puts = cache.puts.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(first_puts, first.candidates.len());

        // Second run: every verification is a cache hit, zero new puts,
        // and the advice is identical.
        let second = advisor.advise(&scenario).unwrap();
        assert_eq!(
            cache.puts.load(std::sync::atomic::Ordering::Relaxed),
            first_puts
        );
        assert_eq!(
            cache.hits.load(std::sync::atomic::Ordering::Relaxed),
            second.candidates.len()
        );
        assert_eq!(
            format!("{:#?}", first.candidates),
            format!("{:#?}", second.candidates)
        );
    }

    #[test]
    fn faulted_advise_still_verifies_deterministically() {
        let scenario = skewed_scenario();
        let plan = FaultPlan::new(7).with_slowdown(1, 0.0, 0.5, 2.0);
        let advice = Advisor::new()
            .with_faults(plan.clone())
            .with_top_k(1)
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap();
        let best = &advice.candidates[0];
        let v = best.verification.as_ref().unwrap();
        assert_polling_agrees(&scenario, Some(&plan), &[], advice.baseline_makespan);
        assert_polling_agrees(
            &scenario,
            Some(&plan),
            &best.interventions,
            v.event_makespan,
        );
    }
}
