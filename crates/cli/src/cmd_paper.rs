//! `limba paper`: regenerate the paper's case study.

use std::fs;
use std::path::Path;

use limba_analysis::Analyzer;
use limba_calibrate::paper::{paper_measurements, paper_measurements_with_tail};
use limba_model::ActivityKind;

use crate::args::{parse, Flags, Parsed};

/// The flags `paper` accepts.
const FLAGS: Flags = Flags {
    command: "paper",
    options: &[&["svg"]],
    switches: &[],
};

/// Runs `limba paper [--svg DIR]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &FLAGS)?;
    let loops_only = paper_measurements().map_err(|e| e.to_string())?;
    let with_tail = paper_measurements_with_tail().map_err(|e| e.to_string())?;
    let analyzer = Analyzer::new();
    let report = analyzer.analyze(&loops_only).map_err(|e| e.to_string())?;
    let scaled = analyzer.analyze(&with_tail).map_err(|e| e.to_string())?;

    outln!("Reconstruction of the PACT 2003 case study (16-processor CFD code)\n");
    outln!("Table 1 — wall clock breakdown:");
    out!("{}", limba_viz::report::render_profile(&report));
    outln!("\nTable 2 — indices of dispersion ID_ij:");
    out!("{}", limba_viz::report::render_dispersions(&report));
    // The paper weights ID over the measured loops but scales SID by the
    // whole-program time, so the two columns come from different runs.
    outln!("\nTable 3 — activity view:");
    let mut t3 =
        limba_viz::table::TextTable::new(vec!["activity".into(), "ID_A".into(), "SID_A".into()]);
    for s in &report.activity_view.summaries {
        let sid = scaled
            .activity_view
            .summaries
            .iter()
            .find(|x| x.kind == s.kind)
            .map(|x| x.sid)
            .unwrap_or(0.0);
        t3.row(vec![
            s.kind.to_string(),
            format!("{:.5}", s.id),
            format!("{sid:.5}"),
        ]);
    }
    out!("{}", t3.render());
    outln!("\nTable 4 — code region view:");
    let mut t4 =
        limba_viz::table::TextTable::new(vec!["loop".into(), "ID_C".into(), "SID_C".into()]);
    for s in &report.region_view.summaries {
        let sid = scaled
            .region_view
            .summary_of(s.region)
            .map(|x| x.sid)
            .unwrap_or(0.0);
        t4.row(vec![
            s.name.clone(),
            format!("{:.5}", s.id),
            format!("{sid:.5}"),
        ]);
    }
    out!("{}", t4.render());
    outln!("\nFigure 1 — computation patterns:");
    let fig1 = report
        .pattern_for(ActivityKind::Computation)
        .ok_or("missing computation pattern")?;
    out!("{}", limba_viz::pattern::render(fig1));
    outln!("\nFigure 2 — point-to-point patterns:");
    let fig2 = report
        .pattern_for(ActivityKind::PointToPoint)
        .ok_or("missing point-to-point pattern")?;
    out!("{}", limba_viz::pattern::render(fig2));
    outln!("\nProcessor view findings:");
    if let Some((p, n)) = report.findings.processors.most_frequently_imbalanced {
        outln!(
            "  most frequently imbalanced: processor {} ({n} loops)",
            p.index() + 1
        );
    }
    if let Some((p, t)) = report.findings.processors.longest_imbalanced {
        outln!(
            "  imbalanced for the longest time: processor {} ({t:.2} s)",
            p.index() + 1
        );
    }

    if let Some(dir) = parsed.get("svg") {
        let dir = Path::new(dir);
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (grid, name) in [(fig1, "figure1.svg"), (fig2, "figure2.svg")] {
            let svg = limba_viz::svg::pattern_svg(grid);
            fs::write(dir.join(name), svg).map_err(|e| e.to_string())?;
        }
        let heatmap = limba_viz::svg::processor_heatmap_svg(&report);
        fs::write(dir.join("processor_view.svg"), heatmap).map_err(|e| e.to_string())?;
        outln!("\nSVG figures written to {}", dir.display());
    }
    Ok(crate::CmdOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_command_runs_and_writes_svgs() {
        let dir = std::env::temp_dir().join("limba-paper-svg-test");
        let args = vec!["--svg".to_string(), dir.to_str().unwrap().to_string()];
        run(&args).unwrap();
        assert!(dir.join("figure1.svg").exists());
        assert!(dir.join("figure2.svg").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
