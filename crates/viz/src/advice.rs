//! Rendering of advisor recommendations.
//!
//! The section the CLI appends to an analysis report when `limba
//! advise` runs: one ranked entry per verified candidate, showing the
//! intervention labels, the analytic prediction with its majorization
//! bounds, and the simulate-verified outcome with the
//! predicted-vs-measured comparison.

use limba_advisor::Advice;

/// Renders the ranked "recommended interventions" section.
///
/// The output is a pure function of the advice: the advisor guarantees
/// the advice itself is identical across `--jobs` settings, so the
/// rendered bytes are too.
pub fn render_advice(advice: &Advice) -> String {
    let mut out = String::from("== recommended interventions ==\n");
    out.push_str(&format!(
        "baseline makespan {:.6} s; search evaluated {} combo(s) (catalog {}, budget {})\n",
        advice.baseline_makespan, advice.evaluated, advice.catalog_size, advice.budget
    ));
    if advice.candidates.is_empty() {
        out.push_str("no interventions to recommend: the catalog is empty for this scenario\n");
        return out;
    }
    let pct = |gain: f64| {
        if advice.baseline_makespan > 0.0 {
            format!("{:+.2}%", 100.0 * gain / advice.baseline_makespan)
        } else {
            "n/a".to_string()
        }
    };
    for (i, c) in advice.candidates.iter().enumerate() {
        out.push_str(&format!("#{}", i + 1));
        for (j, label) in c.labels.iter().enumerate() {
            if j == 0 {
                out.push_str(&format!("  {label}\n"));
            } else {
                out.push_str(&format!("    + {label}\n"));
            }
        }
        out.push_str(&format!(
            "    predicted {} (makespan {:.6} s, bounds [{:.6}, {:.6}] s{})\n",
            pct(c.predicted_gain),
            c.prediction.makespan,
            c.prediction.lower_bound,
            c.prediction.upper_bound,
            if c.prediction.submajorized {
                ", load weakly submajorized by baseline"
            } else {
                ""
            }
        ));
        if let Some(v) = &c.verification {
            out.push_str(&format!(
                "    measured  {} (makespan {:.6} s)\n",
                pct(v.measured_gain),
                v.event_makespan
            ));
            let bounds = if v.within_bounds {
                "measurement within predicted bounds"
            } else {
                "measurement OUTSIDE predicted bounds"
            };
            let fidelity = if v.mispredicted {
                "; MISPREDICTED (point estimate off by more than 5%)"
            } else {
                "; prediction confirmed"
            };
            out.push_str(&format!("    {bounds}{fidelity}\n"));
            if let Some(region) = &v.heaviest_region {
                out.push_str(&format!("    heaviest region after fix: \"{region}\"\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_advisor::{Advisor, Scenario};
    use limba_analysis::Analyzer;
    use limba_mpisim::{MachineConfig, ProgramBuilder};

    fn advice() -> Advice {
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("solve");
        pb.spmd(|rank, mut ops| {
            ops.enter(r)
                .compute(0.5 + 0.5 * rank as f64)
                .barrier()
                .leave(r);
        });
        let scenario = Scenario::new(pb.build().unwrap(), MachineConfig::new(4)).unwrap();
        Advisor::new()
            .with_top_k(2)
            .with_analyzer(Analyzer::new().with_cluster_k(2))
            .advise(&scenario)
            .unwrap()
    }

    #[test]
    fn section_lists_ranked_candidates_with_both_gains() {
        let text = render_advice(&advice());
        assert!(text.starts_with("== recommended interventions ==\n"));
        assert!(text.contains("#1  "));
        assert!(text.contains("predicted +"));
        assert!(text.contains("measured  +"));
        assert!(text.contains("solve"));
        assert!(text.contains("within predicted bounds"));
    }

    #[test]
    fn empty_advice_renders_gracefully() {
        let mut a = advice();
        a.candidates.clear();
        let text = render_advice(&a);
        assert!(text.contains("no interventions to recommend"));
    }
}
