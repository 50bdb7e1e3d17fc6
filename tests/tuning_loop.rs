//! The paper's full tuning loop as one integration test: identify →
//! localize → repair → verify, across the whole crate stack.

use limba::analysis::compare::{compare_runs, Verdict};
use limba::analysis::hierarchy::{drilldown, RegionTree};
use limba::analysis::Analyzer;
use limba::calibrate::SyntheticCase;
use limba::model::{ActivityKind, Measurements};
use limba::mpisim::{MachineConfig, Simulator};
use limba::stats::dispersion::DispersionKind;
use limba::trace::region_parents;
use limba::workloads::{amr::AmrConfig, Imbalance};

fn measure(refinement: Imbalance) -> (Measurements, RegionTree) {
    let program = AmrConfig::new(8)
        .with_steps(2)
        .with_refinement(refinement)
        .build_program()
        .unwrap();
    let out = Simulator::new(MachineConfig::new(8)).run(&program).unwrap();
    let tree = RegionTree::from_parents(region_parents(&out.trace).unwrap()).unwrap();
    (out.reduce().unwrap().measurements, tree)
}

#[test]
fn identify_localize_repair_verify() {
    // 1. Identify: the skewed run's analysis flags imbalance.
    let (before, tree) = measure(Imbalance::Hotspot {
        rank: 2,
        factor: 5.0,
    });
    let report = Analyzer::new().with_cluster_k(0).analyze(&before).unwrap();
    let candidate = &report.findings.tuning_candidates[0];
    assert!(candidate.sid > 0.01, "imbalance must be flagged");

    // 2. Localize: drill-down descends to the flux kernel.
    let dd = drilldown(&before, &tree, DispersionKind::Euclidean, 0.5).unwrap();
    assert_eq!(dd.culprit().unwrap().name, "flux");

    // 3. Repair: rebalance the refinement.
    let (after, _) = measure(Imbalance::None);

    // 4. Verify: every region improved or held; nothing regressed.
    let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
    assert!(cmp.total_speedup > 1.2, "speedup {}", cmp.total_speedup);
    assert!(cmp.regressions().is_empty());
    let flux = cmp.regions.iter().find(|d| d.name == "flux").unwrap();
    assert_eq!(flux.verdict, Verdict::Improved);
    assert!(flux.after_id < flux.before_id);
}

#[test]
fn synthetic_case_feeds_the_same_loop() {
    // A what-if scenario built from summary statistics alone goes through
    // the identical pipeline: specify → analyze → "repair" → verify.
    let mut skewed = SyntheticCase::new(8);
    let core = skewed.add_region("core");
    let io = skewed.add_region("io");
    skewed
        .set(core, ActivityKind::Computation, 10.0, 0.2)
        .unwrap();
    skewed.set(io, ActivityKind::Collective, 1.0, 0.01).unwrap();
    let before = skewed.build().unwrap();

    let mut fixed = SyntheticCase::new(8);
    let core2 = fixed.add_region("core");
    let io2 = fixed.add_region("io");
    fixed
        .set(core2, ActivityKind::Computation, 8.0, 0.005)
        .unwrap();
    fixed.set(io2, ActivityKind::Collective, 1.0, 0.01).unwrap();
    let after = fixed.build().unwrap();

    let report = Analyzer::new().with_cluster_k(0).analyze(&before).unwrap();
    assert_eq!(report.findings.tuning_candidates[0].name, "core");

    let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
    let core_delta = &cmp.regions[0];
    assert_eq!(core_delta.verdict, Verdict::Improved);
    assert!((core_delta.before_id - 0.2).abs() < 1e-6);
    assert!((core_delta.after_id - 0.005).abs() < 1e-6);
    assert_eq!(cmp.regions[1].verdict, Verdict::Unchanged);
}
