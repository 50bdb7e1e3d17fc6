//! Full text report rendering.

use limba_analysis::Report;
use limba_model::ActivityKind;
use limba_mpisim::BalanceReport;
use limba_trace::RankCoverage;

use crate::pattern;
use crate::table::{cell, TextTable};

/// Canonical order of every section a rendered report can contain.
/// Optional sections (clustering, counting parameters, rebalancing
/// actions, data coverage) are simply absent when they don't apply;
/// present sections always appear in this order. `assemble` enforces
/// it, so a new section cannot silently shuffle existing report bytes —
/// extend this list (and the rendering lock test) to add one.
pub const SECTION_ORDER: &[&str] = &[
    "coarse grain",
    "clustering",
    "wall clock breakdown",
    "indices of dispersion ID_ij",
    "activity view",
    "code region view",
    "processor view",
    "patterns",
    "counting parameters",
    "findings",
    "rebalancing actions",
    "data coverage",
];

/// Concatenates `(section id, verbatim text)` pairs, checking that the
/// ids form a subsequence of [`SECTION_ORDER`]. Each section's text
/// carries its own separators, so assembly is pure concatenation and
/// existing reports keep their exact bytes.
///
/// # Panics
///
/// Panics on an unknown section id or an out-of-order pair — both are
/// programming errors in this crate, locked by the rendering tests.
fn assemble(sections: &[(&str, String)]) -> String {
    let mut next = 0;
    let mut out = String::new();
    for (id, text) in sections {
        let at = SECTION_ORDER[next..]
            .iter()
            .position(|s| s == id)
            .unwrap_or_else(|| panic!("section {id:?} unknown or out of order"));
        next += at + 1;
        out.push_str(text);
    }
    out
}

/// Renders the Table-1-style wall-clock breakdown.
pub fn render_profile(report: &Report) -> String {
    let kinds: Vec<ActivityKind> = report.profile.activity_totals.iter().map(|t| t.0).collect();
    let mut header = vec!["region".to_string(), "overall".to_string()];
    header.extend(kinds.iter().map(|k| k.to_string()));
    let mut t = TextTable::new(header);
    for r in &report.profile.regions {
        let mut row = vec![r.name.clone(), format!("{:.3}", r.seconds)];
        for b in &r.breakdown {
            row.push(if b.performed {
                format!("{:.3}", b.seconds)
            } else {
                "-".into()
            });
        }
        t.row(row);
    }
    t.render()
}

/// Renders the `ID_ij` dispersion matrix (Table 2).
pub fn render_dispersions(report: &Report) -> String {
    let kinds: Vec<ActivityKind> = report.profile.activity_totals.iter().map(|t| t.0).collect();
    let mut header = vec!["region".to_string()];
    header.extend(kinds.iter().map(|k| k.to_string()));
    let mut t = TextTable::new(header);
    for r in &report.profile.regions {
        let mut row = vec![r.name.clone()];
        for col in 0..kinds.len() {
            row.push(cell(report.activity_view.id[r.region.index()][col]));
        }
        t.row(row);
    }
    t.render()
}

/// Renders the activity-view summary (Table 3).
pub fn render_activity_summary(report: &Report) -> String {
    let mut t = TextTable::new(vec!["activity".into(), "ID_A".into(), "SID_A".into()]);
    for s in &report.activity_view.summaries {
        t.row(vec![
            s.kind.to_string(),
            cell(Some(s.id)),
            cell(Some(s.sid)),
        ]);
    }
    t.render()
}

/// Renders the region-view summary (Table 4).
pub fn render_region_summary(report: &Report) -> String {
    let mut t = TextTable::new(vec!["region".into(), "ID_C".into(), "SID_C".into()]);
    for s in &report.region_view.summaries {
        t.row(vec![s.name.clone(), cell(Some(s.id)), cell(Some(s.sid))]);
    }
    t.render()
}

/// Renders the per-region most-imbalanced-processor table of the
/// processor view.
pub fn render_processor_view(report: &Report) -> String {
    let mut t = TextTable::new(vec![
        "region".into(),
        "worst processor".into(),
        "ID_P".into(),
        "wall clock".into(),
    ]);
    for (i, entry) in report
        .processor_view
        .most_imbalanced_per_region
        .iter()
        .enumerate()
    {
        let name = report.profile.regions[i].name.clone();
        match entry {
            Some((p, id, wall)) => {
                t.row(vec![
                    name,
                    p.to_string(),
                    cell(Some(*id)),
                    format!("{wall:.3}"),
                ]);
            }
            None => {
                t.row(vec![name, "-".into(), "-".into(), "-".into()]);
            }
        }
    }
    t.render()
}

/// Renders the whole report as plain text: coarse findings, the four
/// tables, the pattern diagrams, and the processor findings. Sections
/// appear in [`SECTION_ORDER`].
pub fn render(report: &Report) -> String {
    assemble(&report_sections(report))
}

/// Builds the report's `(section id, text)` pairs; every `render*`
/// entry point shares this list and [`assemble`], so the section order
/// is enforced in exactly one place.
fn report_sections(report: &Report) -> Vec<(&'static str, String)> {
    let mut sections = Vec::new();
    let mut out = String::new();
    out.push_str("== coarse grain ==\n");
    out.push_str(&format!(
        "program wall clock: {:.3} s\ndominant activity: {} ({:.3} s)\nheaviest region: {} ({:.1}% of program)\n",
        report.coarse.total_seconds,
        report.coarse.dominant_activity,
        report.coarse.dominant_activity_seconds,
        report.coarse.heaviest_region_name,
        report.coarse.heaviest_region_fraction * 100.0,
    ));
    for e in &report.coarse.extremes {
        out.push_str(&format!(
            "{}: worst {} ({:.3} s), best {} ({:.3} s)\n",
            e.kind, e.worst.1, e.worst.2, e.best.1, e.best.2
        ));
    }
    sections.push(("coarse grain", out));
    if let Some(c) = &report.clustering {
        let mut out = format!("\n== clustering (k = {}) ==\n", c.k);
        for (g, members) in c.groups.iter().enumerate() {
            let names: Vec<&str> = members
                .iter()
                .map(|&r| report.profile.regions[r.index()].name.as_str())
                .collect();
            out.push_str(&format!("group {g}: {}\n", names.join(", ")));
        }
        sections.push(("clustering", out));
    }
    sections.push((
        "wall clock breakdown",
        format!("\n== wall clock breakdown ==\n{}", render_profile(report)),
    ));
    sections.push((
        "indices of dispersion ID_ij",
        format!(
            "\n== indices of dispersion ID_ij ==\n{}",
            render_dispersions(report)
        ),
    ));
    sections.push((
        "activity view",
        format!("\n== activity view ==\n{}", render_activity_summary(report)),
    ));
    sections.push((
        "code region view",
        format!(
            "\n== code region view ==\n{}",
            render_region_summary(report)
        ),
    ));
    sections.push((
        "processor view",
        format!("\n== processor view ==\n{}", render_processor_view(report)),
    ));
    let mut out = String::from("\n== patterns ==\n");
    for grid in &report.patterns {
        out.push_str(&pattern::render(grid));
        out.push('\n');
    }
    sections.push(("patterns", out));
    if let Some(counts) = &report.counts {
        if !counts.summaries.is_empty() {
            let mut out = String::from("== counting parameters ==\n");
            let mut t = TextTable::new(vec![
                "quantity".into(),
                "total".into(),
                "weighted ID".into(),
            ]);
            for s in &counts.summaries {
                t.row(vec![
                    s.kind.to_string(),
                    format!("{:.0}", s.total),
                    cell(Some(s.id)),
                ]);
            }
            out.push_str(&t.render());
            if let Some(worst) = counts.most_imbalanced_cell() {
                out.push_str(&format!(
                    "most uneven cell: {} in {} (ID {:.5})\n",
                    worst.kind,
                    report.profile.regions[worst.region.index()].name,
                    worst.id
                ));
            }
            out.push('\n');
            sections.push(("counting parameters", out));
        }
    }
    let mut out = String::from("== findings ==\n");
    let f = &report.findings;
    if let Some((p, n)) = f.processors.most_frequently_imbalanced {
        out.push_str(&format!("most frequently imbalanced: {p} ({n} regions)\n"));
    }
    if let Some((p, t)) = f.processors.longest_imbalanced {
        out.push_str(&format!("longest imbalanced: {p} ({t:.3} s)\n"));
    }
    if let Some((k, v)) = f.most_imbalanced_activity {
        out.push_str(&format!("most imbalanced activity: {k} (ID_A = {v:.5})\n"));
    }
    if let Some((k, v)) = f.most_imbalanced_activity_scaled {
        out.push_str(&format!(
            "most imbalanced activity (scaled): {k} (SID_A = {v:.5})\n"
        ));
    }
    for c in &f.tuning_candidates {
        out.push_str(&format!(
            "tuning candidate: {} (ID_C = {:.5}, SID_C = {:.5}{})\n",
            c.name,
            c.id,
            c.sid,
            if c.is_heaviest { ", program core" } else { "" }
        ));
    }
    sections.push(("findings", out));
    sections
}

/// Renders the per-rank data-coverage section for a salvaged trace (see
/// [`limba_trace::reduce_checked`]): which ranks' streams were truncated
/// and how far their data reaches.
pub fn render_coverage(coverage: &[RankCoverage]) -> String {
    let mut out = String::from("== data coverage ==\n");
    let incomplete: Vec<&RankCoverage> = coverage.iter().filter(|c| !c.complete).collect();
    if incomplete.is_empty() {
        out.push_str(&format!("all {} ranks complete\n", coverage.len()));
        return out;
    }
    out.push_str(&format!(
        "{} of {} ranks have truncated data; their measurements are lower bounds\n",
        incomplete.len(),
        coverage.len()
    ));
    let mut t = TextTable::new(vec![
        "rank".into(),
        "events".into(),
        "data up to".into(),
        "open regions".into(),
        "open activity".into(),
    ]);
    for c in incomplete {
        t.row(vec![
            c.proc.to_string(),
            c.events.to_string(),
            format!("{:.3} s", c.last_time),
            c.open_regions.to_string(),
            if c.open_activity { "yes" } else { "no" }.into(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Renders the full report, appending the data-coverage section when
/// any rank's stream was truncated — complete traces render exactly as
/// [`render`].
pub fn render_with_coverage(report: &Report, coverage: &[RankCoverage]) -> String {
    let mut sections = report_sections(report);
    if coverage.iter().any(|c| !c.complete) {
        sections.push(("data coverage", format!("\n{}", render_coverage(coverage))));
    }
    assemble(&sections)
}

/// Renders the imbalance-evolution section for a windowed analysis:
/// one line per activity with the per-window weighted dispersion, the
/// fitted slope, and the trend classification. Shared by
/// `limba analyze --windows` and `limba-serve`'s evolution query, so
/// the two surfaces print byte-identical sections.
pub fn render_evolution(
    evolution: &limba_analysis::evolution::Evolution,
    windows: usize,
) -> String {
    let mut out = format!("\n== imbalance evolution ({windows} windows) ==\n");
    for series in &evolution.series {
        let values: Vec<String> = series
            .values
            .iter()
            .map(|v| v.map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".into()))
            .collect();
        out.push_str(&format!(
            "{:<16} [{}] slope {:+.4} → {:?}\n",
            series.activity.to_string(),
            values.join(" "),
            series.slope,
            series.trend
        ));
    }
    out
}

/// Renders the rebalancing-actions section for a balanced run (see
/// [`limba_mpisim::BalancePlan`]): the active policy, the migration
/// totals, and the per-rank nominal-seconds ledger (work executed
/// locally, donated away, taken on for others).
pub fn render_balance(balance: &BalanceReport) -> String {
    let mut out = String::from("== rebalancing actions ==\n");
    let Some(policy) = &balance.policy else {
        out.push_str("no balancing policy active\n");
        return out;
    };
    if balance.migrations == 0 {
        out.push_str(&format!(
            "policy {policy}: no migrations triggered ({} declined by the profitability guard)\n",
            balance.declined
        ));
        return out;
    }
    out.push_str(&format!(
        "policy {policy}: {} migrations moved {:.3} nominal s ({} declined)\n",
        balance.migrations, balance.moved_seconds, balance.declined
    ));
    let mut t = TextTable::new(vec![
        "rank".into(),
        "local s".into(),
        "donated s".into(),
        "received s".into(),
    ]);
    for rank in 0..balance.local_seconds.len() {
        t.row(vec![
            rank.to_string(),
            format!("{:.3}", balance.local_seconds[rank]),
            format!("{:.3}", balance.donated_seconds[rank]),
            format!("{:.3}", balance.received_seconds[rank]),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Renders the full report of a balanced run: [`render`] plus the
/// rebalancing-actions section when a policy was active, plus the
/// data-coverage section when any rank's stream was truncated. Runs
/// without a balance plan render exactly as [`render_with_coverage`].
pub fn render_with_balance(
    report: &Report,
    balance: &BalanceReport,
    coverage: &[RankCoverage],
) -> String {
    let mut sections = report_sections(report);
    if !balance.is_inactive() {
        sections.push((
            "rebalancing actions",
            format!("\n{}", render_balance(balance)),
        ));
    }
    if coverage.iter().any(|c| !c.complete) {
        sections.push(("data coverage", format!("\n{}", render_coverage(coverage))));
    }
    assemble(&sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_analysis::Analyzer;
    use limba_model::MeasurementsBuilder;

    fn report() -> Report {
        let mut b = MeasurementsBuilder::new(4);
        let r0 = b.add_region("core");
        let r1 = b.add_region("halo");
        for p in 0..4 {
            b.record(r0, ActivityKind::Computation, p, 2.0 + p as f64)
                .unwrap();
            b.record(r0, ActivityKind::Collective, p, 1.0).unwrap();
            b.record(r1, ActivityKind::PointToPoint, p, 0.25).unwrap();
        }
        Analyzer::new().analyze(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn full_report_mentions_every_section() {
        let text = render(&report());
        for needle in [
            "== coarse grain ==",
            "== clustering",
            "== wall clock breakdown ==",
            "== processor view ==",
            "== indices of dispersion ID_ij ==",
            "== activity view ==",
            "== code region view ==",
            "== patterns ==",
            "== findings ==",
            "dominant activity: computation",
            "heaviest region: core",
            "tuning candidate",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in report");
        }
        // Counting section only appears when counts are attached.
        assert!(!text.contains("== counting parameters =="));
    }

    #[test]
    fn counting_section_renders_when_counts_present() {
        use limba_model::{CountKind, CountMatrixBuilder, RegionId};
        let mut b = MeasurementsBuilder::new(2);
        let core = b.add_region("core");
        b.record(core, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(core, ActivityKind::Computation, 1, 1.0).unwrap();
        let m = b.build().unwrap();
        let mut cb = CountMatrixBuilder::new(2);
        cb.record(RegionId::new(0), CountKind::MessagesSent, 0, 5.0)
            .unwrap();
        let report = Analyzer::new()
            .with_cluster_k(0)
            .analyze_with_counts(&m, &cb.build())
            .unwrap();
        let text = render(&report);
        assert!(text.contains("== counting parameters =="));
        assert!(text.contains("msgs-sent"));
        assert!(text.contains("most uneven cell: msgs-sent in core"));
    }

    #[test]
    fn coverage_section_flags_truncated_ranks() {
        let full = RankCoverage {
            proc: 0,
            events: 10,
            complete: true,
            open_regions: 0,
            open_activity: false,
            last_time: 4.0,
        };
        let cut = RankCoverage {
            proc: 1,
            events: 3,
            complete: false,
            open_regions: 2,
            open_activity: true,
            last_time: 1.5,
        };
        let text = render_coverage(&[full, cut]);
        assert!(text.contains("== data coverage =="));
        assert!(text.contains("1 of 2 ranks"));
        assert!(text.contains("1.500 s"));
        // Clean coverage renders a one-liner.
        assert!(render_coverage(&[full]).contains("all 1 ranks complete"));

        // render_with_coverage only appends the section when needed.
        let r = report();
        assert!(!render_with_coverage(&r, &[full]).contains("== data coverage =="));
        assert!(render_with_coverage(&r, &[full, cut]).contains("== data coverage =="));
    }

    #[test]
    fn section_order_is_explicit_and_enforced() {
        // Every header that appears in the rendered report must occur in
        // SECTION_ORDER order — this locks the layout so a new section
        // (e.g. rebalancing actions) cannot shuffle existing goldens.
        let r = report();
        for text in [render(&r), render_with_balance(&r, &stealing_report(), &[])] {
            let headers: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("== ") && l.ends_with(" =="))
                .map(|l| l.trim_start_matches("== ").trim_end_matches(" =="))
                .map(|h| h.split(" (").next().unwrap())
                .collect();
            let mut next = 0usize;
            for h in &headers {
                let at = SECTION_ORDER[next..]
                    .iter()
                    .position(|id| id == h)
                    .unwrap_or_else(|| panic!("section {h:?} out of order in {headers:?}"));
                next += at + 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn assemble_rejects_out_of_order_sections() {
        assemble(&[("findings", String::new()), ("coarse grain", String::new())]);
    }

    fn stealing_report() -> BalanceReport {
        BalanceReport {
            policy: Some("stealing".into()),
            migrations: 3,
            declined: 1,
            moved_seconds: 0.75,
            local_seconds: vec![2.0, 1.25],
            donated_seconds: vec![0.0, 0.75],
            received_seconds: vec![0.75, 0.0],
        }
    }

    #[test]
    fn balance_section_renders_policy_and_ledger() {
        let text = render_balance(&stealing_report());
        assert!(text.contains("== rebalancing actions =="));
        assert!(text.contains("policy stealing: 3 migrations moved 0.750 nominal s (1 declined)"));
        assert!(text.contains("received s"));
        assert!(text.contains("0.750"));

        let idle = BalanceReport {
            policy: Some("diffusion".into()),
            ..BalanceReport::default()
        };
        assert!(render_balance(&idle).contains("no migrations triggered"));
    }

    #[test]
    fn balanced_render_appends_section_only_when_active() {
        let r = report();
        let inactive = render_with_balance(&r, &BalanceReport::default(), &[]);
        assert_eq!(
            inactive,
            render(&r),
            "inactive balance must not alter the report"
        );
        let active = render_with_balance(&r, &stealing_report(), &[]);
        assert!(active.starts_with(&render(&r)));
        assert!(active.contains("== rebalancing actions =="));
    }

    #[test]
    fn dispersion_table_uses_dashes_for_absent_cells() {
        let text = render_dispersions(&report());
        assert!(text.contains('-'));
        assert!(text.contains("core"));
    }

    #[test]
    fn profile_table_has_overall_column() {
        let text = render_profile(&report());
        assert!(text.lines().next().unwrap().contains("overall"));
        // core overall = mean comp 3.5 + coll 1.0 = 4.5
        assert!(text.contains("4.500"));
    }

    #[test]
    fn summaries_render_numbers() {
        let r = report();
        assert!(render_activity_summary(&r).contains("computation"));
        assert!(render_region_summary(&r).contains("halo"));
    }
}
