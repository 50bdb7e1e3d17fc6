//! Criteria ablation (the paper's §5 future work: "define and test new
//! criteria"): how much do the severity criteria agree on which regions
//! deserve tuning, across the case study and all simulated workloads?

#[macro_use]
extern crate limba_viz;

use limba_analysis::criteria::criteria_study;
use limba_analysis::Analyzer;
use limba_bench::simulated_cfd_measurements;
use limba_model::Measurements;
use limba_stats::rank::RankingCriterion;

fn candidates() -> Vec<(String, RankingCriterion)> {
    vec![
        ("maximum".into(), RankingCriterion::Maximum),
        ("top-2".into(), RankingCriterion::TopK(2)),
        ("top-3".into(), RankingCriterion::TopK(3)),
        ("p75".into(), RankingCriterion::Percentile(75.0)),
        ("p90".into(), RankingCriterion::Percentile(90.0)),
        ("sid>0.001".into(), RankingCriterion::Threshold(0.001)),
    ]
}

fn study(name: &str, m: &Measurements) {
    let report = Analyzer::new()
        .with_cluster_k(0)
        .analyze(m)
        .expect("analyzes");
    let scores: Vec<f64> = report.region_view.summaries.iter().map(|s| s.sid).collect();
    let criteria = candidates();
    let study = criteria_study(&scores, &criteria).expect("study runs");
    outln!("\n=== {name} (SID_C over {} regions) ===", scores.len());
    out!("{:<12}", "");
    for l in &study.labels {
        out!("{l:>11}");
    }
    outln!();
    for (i, row) in study.matrix.iter().enumerate() {
        out!("{:<12}", study.labels[i]);
        for v in row {
            out!("{v:>11.2}");
        }
        outln!();
    }
    if let Some((i, j, v)) = study.most_divergent() {
        outln!(
            "most divergent pair: {} vs {} (Jaccard {v:.2})",
            study.labels[i],
            study.labels[j]
        );
    }
}

fn main() -> std::process::ExitCode {
    outln!("=== Severity-criteria agreement study ===");
    let paper = limba_calibrate::paper::paper_measurements().expect("calibrates");
    study("paper case study", &paper);
    let simulated = simulated_cfd_measurements(2);
    study("simulated CFD proxy", &simulated);
    limba_bench::exit_status(true)
}
