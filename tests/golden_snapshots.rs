//! Golden snapshots of the paper reproduction: the fully rendered report
//! of the calibrated case study — Tables 1–4, the Figure 1/2 pattern
//! diagrams, and the findings — locked byte-for-byte against files under
//! `tests/golden/`.
//!
//! These snapshots are the backstop behind the determinism guarantees:
//! any change to analysis numerics, report structure, or text rendering
//! shows up as a byte diff here. To intentionally update them, run
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots` and review the
//! diff like any other code change.

use std::path::PathBuf;

use limba::analysis::snapshot::{canonical, CANONICAL_VERSION};
use limba::analysis::Analyzer;
use limba::calibrate::paper::{paper_measurements, paper_measurements_with_tail};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}; generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn paper_report_matches_golden() {
    let report = Analyzer::new()
        .analyze(&paper_measurements().unwrap())
        .unwrap();
    check_golden("paper_report.txt", &limba::viz::report::render(&report));
}

#[test]
fn paper_report_with_tail_matches_golden() {
    let report = Analyzer::new()
        .analyze(&paper_measurements_with_tail().unwrap())
        .unwrap();
    check_golden(
        "paper_report_with_tail.txt",
        &limba::viz::report::render(&report),
    );
}

#[test]
fn paper_canonical_form_matches_golden() {
    // The byte-level canonical serialization the determinism tests
    // compare — locked so the format itself cannot drift silently.
    let report = Analyzer::new()
        .analyze(&paper_measurements().unwrap())
        .unwrap();
    assert_eq!(CANONICAL_VERSION, 1);
    check_golden("paper_report_canonical.txt", &canonical(&report));
}

#[test]
fn faulted_cfd_report_matches_golden() {
    // One committed chaos scenario, locked byte-for-byte: the CFD proxy
    // with the middle rank slowed 2× through the first quarter of the
    // run and the last rank crashing near the end, truncating its
    // trace (and interrupting everyone at the next collective). The
    // snapshot covers the whole degraded path — fault injection,
    // trace salvage, coverage annotation — and doubles as an
    // engine-identity check for a committed fault plan.
    use limba::mpisim::{FaultPlan, MachineConfig, Simulator};
    use limba::workloads::cfd::CfdConfig;

    let ranks = 16;
    let program = CfdConfig::new(ranks)
        .with_iterations(3)
        .build_program()
        .unwrap();
    let sim = Simulator::new(MachineConfig::new(ranks));
    let horizon = sim.run(&program).unwrap().stats.makespan;
    let plan = FaultPlan::new(2003)
        .with_slowdown(ranks / 2, 0.0, horizon * 0.25, 2.0)
        .with_crash(ranks - 1, horizon * 0.85);

    let out = sim
        .run_configured(&program, Some(&plan), None, None)
        .unwrap();
    let polling = sim
        .run_polling_configured(&program, Some(&plan), None, None)
        .unwrap();
    assert_eq!(
        out.trace, polling.trace,
        "engines diverge on the golden plan"
    );
    assert_eq!(out.stats, polling.stats);
    assert_eq!(out.faults, polling.faults);
    assert_eq!(out.faults.crashes.len(), 1);

    let salvaged = out.reduce_checked().unwrap();
    assert!(salvaged.incomplete_ranks().contains(&((ranks - 1) as u32)));
    let report = Analyzer::new()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
        .unwrap();
    check_golden("faulted_cfd_canonical.txt", &canonical(&report));
    check_golden(
        "faulted_cfd_report.txt",
        &limba::viz::report::render_with_coverage(&report, &salvaged.coverage),
    );
}

#[test]
fn balanced_reports_match_golden() {
    // Balanced-run reports, locked byte-for-byte for every committed
    // policy preset on three workloads: the calibrated paper proxy, the
    // linearly skewed CFD proxy, and the jittered irregular-mesh proxy.
    // Each snapshot exercises the full path — policy execution on both
    // engines (asserted identical), trace salvage, analysis, and the
    // "rebalancing actions" report section with its migration ledger.
    use limba::advisor::Scenario;
    use limba::mpisim::{MachineConfig, Program, Simulator};
    use limba::workloads::balance::{preset, PRESETS};
    use limba::workloads::cfd::CfdConfig;
    use limba::workloads::irregular::IrregularConfig;
    use limba::workloads::Imbalance;

    let paper = Scenario::from_measurements(&paper_measurements().unwrap()).unwrap();
    let cases: [(&str, Program, MachineConfig); 3] = [
        ("paper", paper.program, paper.config),
        (
            "cfd",
            CfdConfig::new(8)
                .with_iterations(3)
                .with_imbalance(Imbalance::LinearSkew { spread: 0.5 })
                .build_program()
                .unwrap(),
            MachineConfig::new(8),
        ),
        (
            "irregular",
            IrregularConfig::new(8)
                .with_imbalance(Imbalance::RandomJitter { amplitude: 0.4 })
                .with_seed(7)
                .build_program()
                .unwrap(),
            MachineConfig::new(8),
        ),
    ];

    for (name, program, config) in &cases {
        let sim = Simulator::new(config.clone());
        let base = sim.run(program).unwrap().stats.makespan;
        for &policy in PRESETS {
            let plan = preset(policy).unwrap();
            let out = sim
                .run_configured(program, None, Some(&plan), None)
                .unwrap();
            let polling = sim
                .run_polling_configured(program, None, Some(&plan), None)
                .unwrap();
            assert_eq!(
                out.trace, polling.trace,
                "engines diverge on {name}/{policy}"
            );
            assert_eq!(out.balance, polling.balance);
            assert!(
                out.stats.makespan <= base + 1e-9,
                "{policy} worsened {name}"
            );

            let salvaged = out.reduce_checked().unwrap();
            let report = Analyzer::new()
                .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
                .unwrap();
            check_golden(
                &format!("balanced_{name}_{policy}.txt"),
                &limba::viz::report::render_with_balance(&report, &out.balance, &salvaged.coverage),
            );
        }
    }
}

#[test]
fn paper_advice_matches_golden() {
    // Advise on the calibrated paper case: the proxy scenario rebuilt
    // from the published measurement marginals. The paper identifies
    // loop 1 as the heaviest region, so the top recommendation must
    // target it — and the rendered advice is locked byte-for-byte.
    use limba::advisor::{Advisor, Scenario};

    let scenario = Scenario::from_measurements(&paper_measurements().unwrap()).unwrap();
    let advice = Advisor::new().with_top_k(3).advise(&scenario).unwrap();

    let top = advice.candidates.first().expect("no recommendation");
    assert!(
        top.labels.iter().any(|l| l.contains("loop 1")),
        "top recommendation does not target the paper's heaviest region: {:?}",
        top.labels
    );
    let verified = top.verification.as_ref().expect("top candidate unverified");
    assert!(verified.measured_gain > 0.0, "no simulated improvement");
    assert!(verified.within_bounds);

    check_golden(
        "paper_advice.txt",
        &limba::viz::advice::render_advice(&advice),
    );
}

#[test]
fn paper_advice_is_jobs_invariant() {
    use limba::advisor::{Advisor, Scenario};

    let scenario = Scenario::from_measurements(&paper_measurements().unwrap()).unwrap();
    for jobs in [2, 8] {
        let advice = Advisor::new()
            .with_top_k(3)
            .with_jobs(jobs)
            .advise(&scenario)
            .unwrap();
        check_golden(
            "paper_advice.txt",
            &limba::viz::advice::render_advice(&advice),
        );
    }
}

#[test]
fn golden_snapshots_are_jobs_invariant() {
    // The snapshot files double as the fixed point of the --jobs sweep:
    // parallel analysis must reproduce the identical golden bytes.
    let m = paper_measurements().unwrap();
    for jobs in [2, 8] {
        let report = Analyzer::new().with_jobs(jobs).analyze(&m).unwrap();
        check_golden("paper_report.txt", &limba::viz::report::render(&report));
        check_golden("paper_report_canonical.txt", &canonical(&report));
    }
}
