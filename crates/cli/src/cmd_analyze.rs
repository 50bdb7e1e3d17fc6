//! `limba analyze`.

use std::fs;

use limba_analysis::{Analyzer, Report};
use limba_model::ActivitySet;
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::{
    ParentsSink, ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, TeeSink, Trace, TraceSink,
    WindowSink,
};

use crate::args::{parse, Flags, Parsed};
use crate::tracefile::{fold_trace, read_trace};

pub(crate) fn parse_dispersion(name: &str) -> Result<DispersionKind, String> {
    DispersionKind::ALL
        .into_iter()
        .find(|k| {
            use limba_stats::dispersion::DispersionIndex;
            k.name() == name
        })
        .ok_or_else(|| format!("unknown dispersion index {name:?}"))
}

pub(crate) fn parse_criterion(spec: &str) -> Result<RankingCriterion, String> {
    let bad = || format!("invalid criterion spec {spec:?}");
    match spec.split_once(':') {
        None if spec == "max" => Ok(RankingCriterion::Maximum),
        Some(("topk", n)) => Ok(RankingCriterion::TopK(n.parse().map_err(|_| bad())?)),
        Some(("threshold", x)) => Ok(RankingCriterion::Threshold(x.parse().map_err(|_| bad())?)),
        Some(("percentile", p)) => Ok(RankingCriterion::Percentile(p.parse().map_err(|_| bad())?)),
        _ => Err(bad()),
    }
}

/// The flags `analyze` accepts. `--from-stream` is accepted and
/// ignored: every read streams.
const FLAGS: Flags = Flags {
    command: "analyze",
    options: &[&["format", "drilldown", "csv"], REPORT_OPTIONS],
    switches: &[&["from-stream"]],
};

/// The flags of [`ReportOptions`].
pub(crate) const REPORT_OPTIONS: &[&str] = &["dispersion", "criterion", "clusters", "windows"];

/// The report knobs `analyze` and `simulate --stream-reduce` share.
pub(crate) struct ReportOptions {
    dispersion: DispersionKind,
    criterion: RankingCriterion,
    clusters: usize,
    /// Windows of the imbalance-evolution section; 0 leaves it out.
    pub(crate) windows: usize,
}

impl ReportOptions {
    /// `--dispersion`, `--criterion`, `--clusters` and `--windows`.
    pub(crate) fn parse(parsed: &Parsed) -> Result<Self, String> {
        Ok(ReportOptions {
            dispersion: parse_dispersion(parsed.get("dispersion").unwrap_or("euclidean"))?,
            criterion: parse_criterion(parsed.get("criterion").unwrap_or("max"))?,
            clusters: parsed.get_or("clusters", 2)?,
            windows: parsed.get_or("windows", 0)?,
        })
    }

    /// Analyzes a salvaged reduction (with its counting parameters) and
    /// prints the report with its coverage section. A salvage that
    /// recovered no measured time at all would print all zeros dressed
    /// up as data, so it fails with the trace diagnosis instead.
    pub(crate) fn print_report(&self, salvaged: &SalvagedTrace) -> Result<Report, String> {
        let SalvagedTrace { reduced, coverage } = salvaged;
        if coverage.iter().any(|c| !c.complete) && reduced.measurements.total_time() <= 0.0 {
            let truncated = coverage.iter().filter(|c| !c.complete).count();
            return Err(limba_trace::TraceError::Malformed {
                detail: format!(
                    "unsalvageable trace: {truncated} of {} ranks truncated and no measured time survives",
                    coverage.len()
                ),
            }
            .to_string());
        }
        let report = Analyzer::new()
            .with_dispersion(self.dispersion)
            .with_criterion(self.criterion)
            .with_cluster_k(self.clusters)
            .analyze_with_counts(&reduced.measurements, &reduced.counts)
            .map_err(|e| e.to_string())?;
        out!(
            "{}",
            limba_viz::report::render_with_coverage(&report, coverage)
        );
        Ok(report)
    }

    /// Prints the imbalance-evolution section from pre-sliced windows.
    pub(crate) fn print_evolution(&self, sliced: Vec<ReducedTrace>) -> Result<(), String> {
        let matrices: Vec<_> = sliced.into_iter().map(|w| w.measurements).collect();
        let evolution =
            limba_analysis::evolution::imbalance_evolution(&matrices, self.dispersion, 0.02)
                .map_err(|e| e.to_string())?;
        out!(
            "{}",
            limba_viz::report::render_evolution(&evolution, self.windows)
        );
        Ok(())
    }

    /// Prints the drill-down section: the top-down path to the most
    /// imbalanced leaf region.
    fn print_drilldown(
        &self,
        reduced: &ReducedTrace,
        parents: Vec<Option<usize>>,
    ) -> Result<(), String> {
        use limba_analysis::hierarchy::{drilldown, RegionTree};
        let tree = RegionTree::from_parents(parents).map_err(|e| e.to_string())?;
        let dd = drilldown(&reduced.measurements, &tree, self.dispersion, 0.5)
            .map_err(|e| e.to_string())?;
        outln!("\n== drill-down ==");
        if dd.path.is_empty() {
            outln!("no imbalanced region found");
        }
        for (depth, step) in dd.path.iter().enumerate() {
            outln!(
                "{}-> {} (inclusive SID_C {:.5}, {:.0}% of program)",
                "  ".repeat(depth),
                step.name,
                step.sid,
                step.fraction_of_program * 100.0
            );
        }
        Ok(())
    }
}

fn write_csv(parsed: &Parsed, report: &Report) -> Result<(), String> {
    if let Some(dir) = parsed.get("csv") {
        let dir = std::path::Path::new(dir);
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let files = [
            ("profile.csv", limba_viz::csv::profile_csv(report)),
            ("dispersions.csv", limba_viz::csv::dispersions_csv(report)),
            ("summaries.csv", limba_viz::csv::summaries_csv(report)),
            (
                "processor_view.csv",
                limba_viz::csv::processor_view_csv(report),
            ),
        ];
        for (name, content) in files {
            fs::write(dir.join(name), content).map_err(|e| e.to_string())?;
        }
        outln!("\ncsv tables written to {}", dir.display());
    }
    Ok(())
}

/// One read of the tracefile into the salvage fold, teed with a scan
/// for `--windows` and the region-parents fold for `--drilldown`, which
/// keeps its error so a crash-truncated trace still prints its report
/// first. The window fold needs the makespan, so it reads the file
/// again after the report. A file [`read_trace`] hands back whole goes
/// through the batch reductions instead.
fn analyze(parsed: &Parsed, path: &str, opts: &ReportOptions) -> Result<(), String> {
    let format = parsed.get("format").unwrap_or("auto");
    let drill = parsed.get("drilldown").is_some_and(|v| v != "off");
    let windows = opts.windows;
    let mut salvage = SalvageSink::new(ActivitySet::standard());
    let mut scan = ScanSink::new();
    let mut parents = ParentsSink::new();
    let (mut with_scan, mut with_parents);
    let mut sink: &mut dyn TraceSink = &mut salvage;
    if windows > 0 {
        with_scan = TeeSink::new(sink, &mut scan);
        sink = &mut with_scan;
    }
    if drill {
        with_parents = TeeSink::new(sink, &mut parents);
        sink = &mut with_parents;
    }
    let whole = read_trace(path, format, sink, None)?;
    let incomplete = || "stream fold did not complete".to_string();

    let salvaged = match &whole {
        None => salvage.into_salvaged().ok_or_else(incomplete)?,
        Some(trace) => limba_trace::reduce_checked(trace).map_err(|e| e.to_string())?,
    };
    let report = opts.print_report(&salvaged)?;
    write_csv(parsed, &report)?;
    if drill {
        let parents = match &whole {
            None => parents.into_parents(),
            Some(trace) => limba_trace::region_parents(trace),
        };
        opts.print_drilldown(&salvaged.reduced, parents.map_err(|e| e.to_string())?)?;
    }
    if windows > 0 {
        let batch = |trace: &Trace| limba_trace::reduce_windows(trace, windows);
        let sliced = match &whole {
            None => {
                let scan = scan.into_scan().ok_or_else(incomplete)?;
                let windowed = WindowSink::new(windows, scan.makespan, scan.activities)
                    .map_err(|e| e.to_string())?;
                fold_trace(path, format, windowed, None, |f| f.into_windows(), batch)?
            }
            Some(trace) => batch(trace).map_err(|e| e.to_string())?,
        };
        opts.print_evolution(sliced)?;
    }
    Ok(())
}

/// Runs `limba analyze <tracefile> [options]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &FLAGS)?;
    let path = parsed
        .positional
        .first()
        .ok_or("analyze needs a tracefile path")?;
    let opts = ReportOptions::parse(&parsed)?;
    if path == "-" && opts.windows > 0 {
        // `--windows` reads the stream a second time, and stdin only
        // plays once — spool it to a temp file, analyze that, clean
        // up. Memory stays bounded; disk holds the trace exactly once.
        // Without windows the analysis decodes stdin directly.
        let spool = std::env::temp_dir().join(format!("limba-stdin-{}.trc", std::process::id()));
        let result = fs::File::create(&spool)
            .map_err(|e| format!("cannot create {}: {e}", spool.display()))
            .and_then(|mut file| {
                std::io::copy(&mut std::io::stdin().lock(), &mut file)
                    .map_err(|e| format!("cannot spool stdin: {e}"))
            })
            .and_then(|_| analyze(&parsed, &spool.to_string_lossy(), &opts));
        let _ = fs::remove_file(&spool);
        result?;
    } else {
        analyze(&parsed, path, &opts)?;
    }
    Ok(crate::CmdOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispersion_names_round_trip() {
        use limba_stats::dispersion::DispersionIndex;
        for k in DispersionKind::ALL {
            assert_eq!(parse_dispersion(k.name()).unwrap(), k);
        }
        assert!(parse_dispersion("zeta").is_err());
    }

    #[test]
    fn criterion_specs() {
        assert_eq!(parse_criterion("max").unwrap(), RankingCriterion::Maximum);
        assert_eq!(
            parse_criterion("topk:3").unwrap(),
            RankingCriterion::TopK(3)
        );
        assert_eq!(
            parse_criterion("threshold:0.5").unwrap(),
            RankingCriterion::Threshold(0.5)
        );
        assert_eq!(
            parse_criterion("percentile:90").unwrap(),
            RankingCriterion::Percentile(90.0)
        );
        assert!(parse_criterion("best").is_err());
        assert!(parse_criterion("topk:x").is_err());
    }

    #[test]
    fn undeclared_region_fails_at_decode() {
        use limba_trace::{Event, TraceBuilder};
        let mut b = TraceBuilder::new(1);
        b.add_region("r");
        b.push(Event::enter(0.0, 0, limba_model::RegionId::new(4)));
        let path = std::env::temp_dir().join("limba-undeclared-region.bin");
        fs::write(&path, limba_trace::binary::to_bytes(&b.build().unwrap())).unwrap();
        let err = run(&[path.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.contains("unknown region index 4"), "{err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn fold_error_before_a_corrupt_tail_fails_with_the_decode_error() {
        // A backwards clock stops the fold; the file is read again
        // whole for the batch reduction, and that read meets the
        // cut-off end chunk.
        use limba_trace::{Event, TraceBuilder};
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(2.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(3.0, 0, r));
        b.push(Event::leave(4.0, 0, r));
        let bytes = limba_trace::stream::to_stream_bytes(&b.build().unwrap(), 1).unwrap();
        let path = std::env::temp_dir().join("limba-backwards-then-corrupt.trc");
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let path = path.to_str().unwrap().to_string();
        let err = run(std::slice::from_ref(&path)).unwrap_err();
        assert!(
            err.contains("stream truncated while reading end chunk"),
            "{err}"
        );
        fs::remove_file(path).ok();
    }
}
