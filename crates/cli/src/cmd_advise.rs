//! `limba advise`.
//!
//! The closed-loop end of the tool: analyze a scenario, propose typed
//! interventions, predict their gains analytically, and verify the top
//! candidates by re-simulation. The output is the
//! baseline analysis report with a ranked "recommended interventions"
//! section appended — or, with `--json`, a machine-readable digest.

use std::sync::Arc;

use limba_advisor::{Advice, AdviseError, Advisor, Scenario};
use limba_analysis::Analyzer;
use limba_guard::{CheckpointVerifyCache, RunManifest, StopReason};
use limba_mpisim::Simulator;
use limba_par::CancelToken;
use limba_workloads::Imbalance;

use crate::args::{parse_imbalance, parse_with_switches, Parsed};
use crate::cmd_analyze::load_trace_auto;
use crate::cmd_simulate::{build_program, load_fault_plan, render_fault_presets, Engine};
use crate::supervise::Supervision;

/// Runs `limba advise <tracefile | --workload NAME> [options]`.
pub fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse_with_switches(argv, crate::supervise::SWITCHES)?;
    let json = parsed.has("json");
    if parsed.get("faults") == Some("list") {
        print!("{}", render_fault_presets());
        return Ok(crate::CmdOutcome::Complete);
    }
    let supervision = Supervision::from_args(&parsed)?;
    let budget: usize = parsed.get_or("budget", 64)?;
    let top: usize = parsed.get_or("top", 3)?;
    let beam: usize = parsed.get_or("beam", 8)?;
    let depth: usize = parsed.get_or("depth", 2)?;
    let jobs: usize = parsed.get_or("jobs", 1)?;
    let clusters: usize = parsed.get_or("clusters", 2)?;
    let engine = Engine::parse(parsed.get("engine").unwrap_or("event"))?;

    // `source` identifies the scenario for the verification-cache
    // fingerprint: the full workload spec, or the tracefile's content
    // hash (so an overwritten trace never replays a stale cache).
    let (scenario, source) = match (parsed.get("workload"), parsed.positional.first()) {
        (Some(_), Some(_)) => return Err("advise takes a tracefile or --workload, not both".into()),
        (None, None) => return Err("advise needs a tracefile path or --workload".into()),
        (Some(workload), None) => {
            let ranks: usize = parsed.get_or("ranks", 16)?;
            let iterations: Option<usize> = match parsed.get("iterations") {
                Some(v) => Some(v.parse().map_err(|_| "invalid --iterations")?),
                None => None,
            };
            // Unlike `simulate`, the advisor demo defaults to the
            // paper-style linear skew: a perfectly balanced workload
            // has nothing to advise about.
            let imbalance = match parsed.get("imbalance") {
                Some(spec) => parse_imbalance(spec)?,
                None => Imbalance::LinearSkew { spread: 0.4 },
            };
            let seed: u64 = parsed.get_or("seed", 0)?;
            let program = build_program(workload, ranks, iterations, imbalance, seed)?;
            let source = format!(
                "workload={workload}|ranks={ranks}|iterations={iterations:?}|imbalance={imbalance:?}|seed={seed}"
            );
            let scenario = Scenario::new(program, limba_mpisim::MachineConfig::new(ranks))
                .map_err(|e| e.to_string())?;
            (scenario, source)
        }
        (None, Some(path)) => {
            // Close the loop on a recorded trace: rebuild a proxy
            // scenario from its measured computation marginals.
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let source = format!("trace-content=0x{:016x}", limba_par::fnv1a(&bytes));
            let trace = load_trace_auto(path)?;
            let salvaged = limba_trace::reduce_checked(&trace).map_err(|e| e.to_string())?;
            let scenario = Scenario::from_measurements(&salvaged.reduced.measurements)
                .map_err(|e| e.to_string())?;
            (scenario, source)
        }
    };

    let faults = match parsed.get("faults") {
        Some(spec) => Some(load_fault_plan(
            spec,
            &scenario.program,
            scenario.program.ranks(),
            engine,
        )?),
        None => None,
    };

    // The fingerprint covers everything that affects which verifications
    // run and what they measure; `jobs` and `engine` are excluded (the
    // advice is byte-identical under both).
    let fingerprint = limba_guard::config_fingerprint(&format!(
        "advise|{source}|budget={budget}|top={top}|beam={beam}|depth={depth}|clusters={clusters}|faults={:?}",
        parsed.get("faults")
    ));

    let mut advisor = Advisor::new()
        .with_budget(budget)
        .with_top_k(top)
        .with_beam_width(beam)
        .with_max_depth(depth)
        .with_jobs(jobs)
        .with_analyzer(Analyzer::new().with_cluster_k(clusters));
    if let Some(plan) = faults.clone() {
        advisor = advisor.with_faults(plan);
    }

    // Supervision: a deadline watchdog trips the advisor's cancel token,
    // and `--checkpoint` persists each finished verification so a resumed
    // run replays it instead of re-simulating.
    let cancel = CancelToken::new();
    if supervision.deadline.is_some() || supervision.max_units.is_some() {
        advisor = advisor.with_cancel(cancel.clone());
    }
    if let Some(deadline) = supervision.deadline {
        let token = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(deadline);
            token.cancel();
        });
    }
    let cache = match &supervision.checkpoint {
        Some(path) => {
            let mut cache = CheckpointVerifyCache::open(path, fingerprint, supervision.resume)
                .map_err(|e| e.to_string())?;
            if let Some(cap) = supervision.max_units {
                cache = cache.with_interrupt_after(cap, cancel.clone());
            }
            let cache = Arc::new(cache);
            advisor = advisor.with_verify_cache(cache.clone());
            Some(cache)
        }
        None => {
            if supervision.max_units.is_some() {
                return Err("advise honors --max-units only with --checkpoint".into());
            }
            None
        }
    };

    let advice = match advisor.advise(&scenario) {
        Ok(advice) => advice,
        Err(AdviseError::Interrupted { detail }) => {
            let stopped = if supervision.deadline.is_some() && supervision.max_units.is_none() {
                StopReason::DeadlineExpired
            } else if supervision.max_units.is_some() {
                StopReason::UnitCapReached
            } else {
                StopReason::Cancelled
            };
            let (completed, cached) = cache
                .as_ref()
                .map(|c| (c.puts(), c.hits()))
                .unwrap_or((0, 0));
            eprintln!(
                "advise interrupted ({detail}): {completed} verification(s) finished this run, {cached} replayed from the checkpoint{}",
                if supervision.checkpoint.is_some() {
                    " — rerun with --resume to continue"
                } else {
                    ""
                }
            );
            supervision.write_manifest(&advise_manifest(
                fingerprint,
                top,
                completed,
                cached,
                Some(stopped),
            ))?;
            if let Some(cache) = &cache {
                if let Some(e) = cache.take_save_error() {
                    return Err(format!("checkpoint save failed: {e}"));
                }
            }
            return Ok(crate::CmdOutcome::Partial);
        }
        Err(e) => return Err(e.to_string()),
    };
    if let Some(cache) = &cache {
        if let Some(e) = cache.take_save_error() {
            return Err(format!("checkpoint save failed: {e}"));
        }
    }
    let (completed, cached) = cache
        .as_ref()
        .map(|c| (c.puts(), c.hits()))
        .unwrap_or((0, 0));
    supervision.write_manifest(&advise_manifest(fingerprint, top, completed, cached, None))?;

    if json {
        println!("{}", advice_json(&advice));
        return Ok(crate::CmdOutcome::Complete);
    }

    // The baseline analysis report the recommendations refer to,
    // simulated under the same fault and balance plans the advice was
    // measured under (a fault plan may truncate ranks, hence the
    // coverage section). Both engines produce bit-identical traces, so
    // the report — like the advice — does not depend on the engine
    // choice.
    let sim = Simulator::new(scenario.config.clone());
    let output = engine.run(
        &sim,
        &scenario.program,
        faults.as_ref(),
        scenario.balance.as_ref(),
        jobs,
    )?;
    let salvaged = output.reduce_checked().map_err(|e| e.to_string())?;
    let report = Analyzer::new()
        .with_cluster_k(clusters)
        .analyze(&salvaged.reduced.measurements)
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        limba_viz::report::render_with_coverage(&report, &salvaged.coverage)
    );
    println!();
    print!("{}", limba_viz::advice::render_advice(&advice));
    Ok(crate::CmdOutcome::Complete)
}

/// The run manifest for an advise invocation: units are simulate-verify
/// jobs, `completed` the verifications run fresh this invocation and
/// `cached` the ones replayed from the checkpoint.
fn advise_manifest(
    fingerprint: u64,
    top: usize,
    completed: usize,
    cached: usize,
    stopped: Option<StopReason>,
) -> RunManifest {
    RunManifest {
        kind: limba_guard::VERIFY_KIND.to_string(),
        fingerprint,
        total: if stopped.is_some() {
            top.max(completed + cached)
        } else {
            completed + cached
        },
        completed,
        cached,
        failures: Vec::new(),
        skipped: if stopped.is_some() {
            top.saturating_sub(completed + cached)
        } else {
            0
        },
        retries: 0,
        stopped,
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Full-precision JSON rendering of an [`Advice`] — floats use Rust's
/// shortest round-trip `Display`, so the bytes are deterministic.
fn advice_json(advice: &Advice) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"baseline_makespan\":{},\"catalog_size\":{},\"evaluated\":{},\"budget\":{},\"candidates\":[",
        advice.baseline_makespan, advice.catalog_size, advice.evaluated, advice.budget
    ));
    for (i, c) in advice.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let labels: Vec<String> = c.labels.iter().map(|l| json_string(l)).collect();
        out.push_str(&format!(
            "{{\"rank\":{},\"labels\":[{}],\"signature\":{},\"predicted\":{{\"makespan\":{},\"lower_bound\":{},\"upper_bound\":{},\"gain\":{},\"submajorized\":{}}}",
            i + 1,
            labels.join(","),
            json_string(&c.signature),
            c.prediction.makespan,
            c.prediction.lower_bound,
            c.prediction.upper_bound,
            c.predicted_gain,
            c.prediction.submajorized
        ));
        match &c.verification {
            Some(v) => {
                let region = match &v.heaviest_region {
                    Some(r) => json_string(r),
                    None => "null".into(),
                };
                out.push_str(&format!(
                    ",\"measured\":{{\"event_makespan\":{},\"gain\":{},\"within_bounds\":{},\"mispredicted\":{},\"heaviest_region\":{}}}}}",
                    v.event_makespan,
                    v.measured_gain,
                    v.within_bounds,
                    v.mispredicted,
                    region
                ));
            }
            None => out.push_str(",\"measured\":null}"),
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::{MachineConfig, ProgramBuilder};

    fn small_advice() -> Advice {
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("solve");
        pb.spmd(|rank, mut ops| {
            ops.enter(r)
                .compute(0.3 + 0.3 * rank as f64)
                .barrier()
                .leave(r);
        });
        let scenario = Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap();
        Advisor::new()
            .with_top_k(1)
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap()
    }

    #[test]
    fn json_digest_is_well_formed_and_complete() {
        let advice = small_advice();
        let json = advice_json(&advice);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches("\"rank\":").count(),
            advice.candidates.len(),
            "{json}"
        );
        assert!(json.contains("\"baseline_makespan\":"));
        assert!(json.contains("\"within_bounds\":true"), "{json}");
        assert!(json.contains("\"event_makespan\":"), "{json}");
        assert!(!json.contains("polling"), "{json}");
        // Balanced braces and brackets (no string content interferes:
        // labels are plain prose).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "{json}");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
