//! One-shot reproduction check: every table, figure, and in-text claim of
//! the paper, verified programmatically with PASS/FAIL lines. Under each
//! verdict it prints the measured figures behind it, paper value beside
//! measured value where the paper prints one. Exits nonzero if any check
//! fails, so it doubles as a CI gate.

#[macro_use]
extern crate limba_viz;

use limba_analysis::cluster_regions::{cluster_regions, FeatureScaling};
use limba_analysis::views::ActivitySummary;
use limba_analysis::{Analyzer, Report};
use limba_bench::{compare_line, paper_report, paper_report_with_tail, simulated_cfd};
use limba_calibrate::paper::{
    claims, LOOPS, LOOP_NAMES, PROGRAM_TOTAL, TABLE1, TABLE1_OVERALL, TABLE2, TABLE3, TABLE4,
};
use limba_model::{ActivityKind, ProcessorId, RegionId, STANDARD_ACTIVITIES};
use limba_stats::describe::mean;

struct Checker {
    passed: usize,
    failed: usize,
}

impl Checker {
    /// Prints the verdict on `label`, then the `figures` behind it.
    fn check(&mut self, label: &str, ok: bool, figures: &[String]) {
        outln!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
        for line in figures {
            outln!("    {line}");
        }
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// `loop 1, loop 2, …` for a list of the paper's loops.
fn loops(regions: &[RegionId]) -> String {
    let names: Vec<&str> = regions.iter().map(|r| LOOP_NAMES[r.index()]).collect();
    names.join(", ")
}

/// `report`'s activity-view summary of `kind`.
fn activity(report: &Report, kind: ActivityKind) -> Option<&ActivitySummary> {
    report
        .activity_view
        .summaries
        .iter()
        .find(|s| s.kind == kind)
}

/// The 0-based indices of `regions`.
fn indices(regions: &[RegionId]) -> Vec<usize> {
    regions.iter().map(|r| r.index()).collect()
}

/// The column of `kind` in the paper's tables.
fn column(kind: ActivityKind) -> usize {
    STANDARD_ACTIVITIES
        .iter()
        .position(|&k| k == kind)
        .expect("a standard activity")
}

/// The `ID_ij` of `report` in the activity column `kind`, over the
/// loops performing it.
fn column_ids(report: &Report, kind: ActivityKind) -> Vec<f64> {
    let j = column(kind);
    report
        .activity_view
        .id
        .iter()
        .filter_map(|row| row[j])
        .collect()
}

/// The largest of `values`.
fn largest(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn main() -> std::process::ExitCode {
    let mut c = Checker {
        passed: 0,
        failed: 0,
    };
    let report = paper_report();
    let scaled = paper_report_with_tail();

    // The whole-program time T behind the scaled indices: each printed
    // pair of Tables 3-4 solves SID = (t/T)·ID for T.
    let mut totals: Vec<f64> = TABLE3
        .iter()
        .map(|&(kind, id_a, sid_a)| {
            let t: f64 = TABLE1.iter().map(|row| row[column(kind)]).sum();
            t * id_a / sid_a
        })
        .chain(
            TABLE4
                .iter()
                .zip(TABLE1_OVERALL)
                .map(|(&(id_c, sid_c), t)| t * id_c / sid_c),
        )
        .collect();
    totals.sort_by(f64::total_cmp);
    let shown: Vec<String> = totals.iter().map(|t| format!("{t:.2}")).collect();
    let loops_total: f64 = TABLE1_OVERALL.iter().sum();
    outln!(
        "program total T implied by the {} (ID, SID) pairs of Tables 3-4: {} s; \
         median {:.2} s\nreconstruction: T = {PROGRAM_TOTAL} s, the loops sum to \
         {loops_total:.3} s, {:.3} s outside them\n",
        totals.len(),
        shown.join(", "),
        totals[totals.len() / 2],
        PROGRAM_TOTAL - loops_total,
    );

    // Table 1.
    let mut ok = true;
    let mut figures = Vec::new();
    for (i, row) in report.profile.regions.iter().enumerate() {
        ok &= (row.seconds - TABLE1_OVERALL[i]).abs() < 1e-9;
        figures.push(compare_line(
            &format!("{} overall", LOOP_NAMES[i]),
            TABLE1_OVERALL[i],
            row.seconds,
        ));
        for (j, &kind) in STANDARD_ACTIVITIES.iter().enumerate() {
            ok &= (row.activity_seconds(kind) - TABLE1[i][j]).abs() < 1e-9;
            if TABLE1[i][j] > 0.0 {
                figures.push(compare_line(
                    &format!("  {} {kind}", LOOP_NAMES[i]),
                    TABLE1[i][j],
                    row.activity_seconds(kind),
                ));
            }
        }
    }
    c.check("Table 1: all 35 cells exact", ok, &figures);

    // Table 2.
    let mut ok = true;
    let mut figures = Vec::new();
    let mut worst: f64 = 0.0;
    for i in 0..LOOPS {
        for (j, &kind) in STANDARD_ACTIVITIES.iter().enumerate() {
            match report.activity_view.id[i][j] {
                Some(id) => {
                    ok &= (id - TABLE2[i][j]).abs() < 1e-7 && TABLE1[i][j] > 0.0;
                    worst = worst.max((id - TABLE2[i][j]).abs());
                    figures.push(compare_line(
                        &format!("{} {kind}", LOOP_NAMES[i]),
                        TABLE2[i][j],
                        id,
                    ));
                }
                None => ok &= TABLE1[i][j] == 0.0,
            }
        }
    }
    figures.push(format!("largest absolute deviation: {worst:.2e}"));
    c.check(
        "Table 2: all ID_ij cells within 1e-7, dashes preserved",
        ok,
        &figures,
    );

    // Table 3.
    let mut ok = true;
    let mut figures = Vec::new();
    for &(kind, id_a, sid_a) in &TABLE3 {
        let id = activity(&report, kind).map_or(f64::NAN, |s| s.id);
        let sid = activity(&scaled, kind).map_or(f64::NAN, |s| s.sid);
        ok &= (id - id_a).abs() < 5e-4 && (sid - sid_a).abs() < 5e-5;
        figures.push(compare_line(&format!("{kind} ID_A"), id_a, id));
        figures.push(compare_line(&format!("{kind} SID_A"), sid_a, sid));
    }
    c.check(
        "Table 3: ID_A within 5e-4 and SID_A within 5e-5 of print",
        ok,
        &figures,
    );
    let raw = report.findings.most_imbalanced_activity.map(|x| x.0);
    let after = report.findings.most_imbalanced_activity_scaled.map(|x| x.0);
    let kind_name = |k: Option<ActivityKind>| k.map_or("none".to_string(), |k| k.to_string());
    c.check(
        "Table 3: synchronization most imbalanced raw, demoted when scaled",
        raw == Some(ActivityKind::Synchronization) && after == Some(ActivityKind::Computation),
        &[
            format!(
                "most imbalanced activity (raw): {} (paper: synchronization)",
                kind_name(raw)
            ),
            format!(
                "after scaling by time share:    {} (paper: computation)",
                kind_name(after)
            ),
        ],
    );

    // Table 4.
    let mut ok = true;
    let mut figures = Vec::new();
    for (i, &(id_c, sid_c)) in TABLE4.iter().enumerate() {
        let r = RegionId::new(i);
        let id = report.region_view.summary_of(r).map_or(f64::NAN, |s| s.id);
        let sid = scaled.region_view.summary_of(r).map_or(f64::NAN, |s| s.sid);
        ok &= (id - id_c).abs() < 5e-4 && (sid - sid_c).abs() < 5e-5;
        figures.push(compare_line(&format!("{} ID_C", LOOP_NAMES[i]), id_c, id));
        figures.push(compare_line(
            &format!("{} SID_C", LOOP_NAMES[i]),
            sid_c,
            sid,
        ));
    }
    c.check(
        "Table 4: ID_C within 5e-4 and SID_C within 5e-5 of print",
        ok,
        &figures,
    );
    let most = report.findings.most_imbalanced_region;
    let top = report.findings.tuning_candidates.first();
    c.check(
        "Table 4: loop 6 most imbalanced raw, loop 1 the tuning candidate",
        most.map(|x| x.0) == Some(RegionId::new(5))
            && top.map(|t| t.name == "loop 1" && t.is_heaviest) == Some(true),
        &[
            format!(
                "most imbalanced loop (raw ID_C): {} (paper: loop 6)",
                most.map_or("none", |(r, _)| LOOP_NAMES[r.index()])
            ),
            format!(
                "top tuning candidate by SID_C:   {}{} (paper: loop 1, the heaviest)",
                top.map_or("none", |t| t.name.as_str()),
                if top.is_some_and(|t| t.is_heaviest) {
                    " [heaviest]"
                } else {
                    ""
                }
            ),
        ],
    );

    // Figures.
    let fig1 = report
        .pattern_for(ActivityKind::Computation)
        .expect("computes");
    let upper = fig1.rows[3].upper_tail_count();
    let lower = fig1.rows[5].lower_tail_count();
    c.check(
        "Figure 1: loop 4 has 5/16 upper and loop 6 has 11/16 lower",
        upper == claims::FIG1_LOOP4_UPPER && lower == claims::FIG1_LOOP6_LOWER,
        &[
            compare_line(
                "loop 4 upper-15% processors",
                claims::FIG1_LOOP4_UPPER as f64,
                upper as f64,
            ),
            compare_line(
                "loop 6 lower-15% processors",
                claims::FIG1_LOOP6_LOWER as f64,
                lower as f64,
            ),
        ],
    );
    let fig2 = report.pattern_for(ActivityKind::PointToPoint).expect("p2p");
    let rows: Vec<RegionId> = fig2.rows.iter().map(|r| r.region).collect();
    c.check(
        "Figure 2: exactly the p2p-performing loops 3,4,5,6 appear",
        indices(&rows) == [2, 3, 4, 5],
        &[
            format!(
                "rows: {} (paper: loop 3, loop 4, loop 5, loop 6)",
                loops(&rows)
            ),
            format!(
                "mean p2p ID_ij {:.5}, mean sync ID_ij {:.5} (paper: p2p \"very balanced\")",
                mean(&column_ids(&report, ActivityKind::PointToPoint)).expect("p2p rows exist"),
                mean(&column_ids(&report, ActivityKind::Synchronization)).expect("sync rows exist"),
            ),
        ],
    );

    // Clustering.
    let clustering = report.clustering.as_ref().expect("clustering on");
    let m = limba_calibrate::paper::paper_measurements().expect("paper data calibrates");
    let mut figures: Vec<String> = clustering
        .groups
        .iter()
        .enumerate()
        .map(|(g, members)| format!("group {g}: {}", loops(members)))
        .collect();
    for scaling in [FeatureScaling::ZScore, FeatureScaling::Raw] {
        let k = cluster_regions(&m, 2, 0, scaling).expect("clusters");
        figures.push(format!(
            "{scaling:?} features: assignments {:?} (wcss {:.3})",
            k.assignments, k.wcss
        ));
    }
    c.check(
        "Clustering: k-means groups {loop 1, loop 2} vs the rest",
        clustering.assignments == vec![0, 0, 1, 1, 1, 1, 1],
        &figures,
    );

    // Processor view.
    let f = &report.findings.processors;
    let frequent = f.most_frequently_imbalanced;
    c.check(
        "Processor view: processor 1 most frequent (loops 3 and 7)",
        frequent == Some((ProcessorId::new(claims::MOST_FREQUENT_PROC), 2))
            && indices(&f.regions_per_processor[claims::MOST_FREQUENT_PROC])
                == claims::MOST_FREQUENT_LOOPS,
        &[format!(
            "most frequently imbalanced: {} (paper: processor 1 on loop 3, loop 7)",
            frequent.map_or("none".to_string(), |(p, n)| format!(
                "processor {} on {n} loops ({})",
                p.index() + 1,
                loops(&f.regions_per_processor[p.index()])
            ))
        )],
    );
    let longest = f.longest_imbalanced;
    let (_, id_p, wall) = report.processor_view.most_imbalanced_per_region[claims::LONGEST_LOOP]
        .expect("loop 1 has a most imbalanced processor");
    c.check(
        "Processor view: processor 2 longest imbalanced via loop 1 only",
        longest.map(|x| x.0) == Some(ProcessorId::new(claims::LONGEST_PROC))
            && indices(&f.regions_per_processor[claims::LONGEST_PROC]) == [claims::LONGEST_LOOP],
        &[
            format!(
                "imbalanced for the longest time: {} (paper: processor 2 via loop 1)",
                longest.map_or("none".to_string(), |(p, t)| format!(
                    "processor {} ({t:.2} s) via {}",
                    p.index() + 1,
                    loops(&f.regions_per_processor[p.index()])
                ))
            ),
            compare_line("processor 2 ID_P on loop 1", claims::LONGEST_ID, id_p),
            compare_line("processor 2 wall clock, s", 15.93, wall),
            "(the last two are not pinned down by Tables 1-2: many matrices share them)"
                .to_string(),
        ],
    );

    // End-to-end simulated run (no calibration).
    let out = simulated_cfd(2);
    let m = out.reduce().expect("reduces").measurements;
    let sim = Analyzer::new().analyze(&m).expect("analyzes");
    c.check(
        "Simulated: loop 1 heaviest, computation dominant",
        sim.coarse.heaviest_region_name == "loop 1"
            && sim.coarse.dominant_activity == ActivityKind::Computation,
        &[format!(
            "heaviest region: {} ({:.1}% of wall clock; paper: loop 1, ~27%), dominant \
             activity: {} (paper: computation)",
            sim.coarse.heaviest_region_name,
            sim.coarse.heaviest_region_fraction * 100.0,
            sim.coarse.dominant_activity
        )],
    );
    let raw = sim.findings.most_imbalanced_activity;
    let after = sim.findings.most_imbalanced_activity_scaled.map(|x| x.0);
    let candidate = sim.findings.tuning_candidates.first();
    let heaviest_sid = sim
        .region_view
        .summary_of(sim.coarse.heaviest_region)
        .map_or(f64::NAN, |s| s.sid);
    c.check(
        "Simulated: sync most imbalanced raw, demoted scaled, core is the candidate",
        raw.map(|x| x.0) == Some(ActivityKind::Synchronization)
            && after != Some(ActivityKind::Synchronization)
            && candidate.is_some_and(|t| t.is_heaviest),
        &[
            format!(
                "most imbalanced activity (raw): {} (ID_A {:.5}); max sync ID_ij {:.5}, \
                 max computation ID_ij {:.5}",
                kind_name(raw.map(|x| x.0)),
                raw.map_or(f64::NAN, |x| x.1),
                largest(&column_ids(&sim, ActivityKind::Synchronization)),
                largest(&column_ids(&sim, ActivityKind::Computation)),
            ),
            format!("after scaling by time share: {}", kind_name(after)),
            format!(
                "top tuning candidate: {}; heaviest loop: {} (SID_C {heaviest_sid:.5})",
                candidate.map_or("none".to_string(), |t| format!(
                    "{} (ID_C {:.5}, SID_C {:.5})",
                    t.name, t.id, t.sid
                )),
                sim.coarse.heaviest_region_name,
            ),
        ],
    );

    outln!("\n{} passed, {} failed", c.passed, c.failed);
    limba_bench::exit_status(c.failed == 0)
}
