//! `limba analyze`.

use std::fs;
use std::io::Read;

use limba_analysis::Analyzer;
use limba_model::ActivitySet;
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::{
    ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, StreamDecoder, TeeSink, Trace, TraceSink,
    WindowSink,
};

use crate::args::{parse_with_switches, Parsed};

/// Chunk size for `--from-stream` file reads: the analysis never holds
/// more than this much of the tracefile (plus fold state) at once.
const STREAM_CHUNK: usize = 64 * 1024;

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

/// Loads a tracefile with format auto-detection (shared with `compare`).
pub(crate) fn load_trace_auto(path: &str) -> Result<Trace, String> {
    load_trace(path, "auto")
}

fn load_trace(path: &str, format: &str) -> Result<Trace, String> {
    let data = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let as_binary = |d: &[u8]| limba_trace::binary::from_bytes(d).map_err(|e| e.to_string());
    let as_text = |d: &[u8]| {
        let s = std::str::from_utf8(d).map_err(|e| e.to_string())?;
        limba_trace::text::from_str(s).map_err(|e| e.to_string())
    };
    match format {
        "binary" => as_binary(&data),
        "text" => as_text(&data),
        "auto" => {
            if data.starts_with(b"LIMBATRC") {
                as_binary(&data)
            } else {
                as_text(&data)
            }
        }
        other => Err(format!("unknown trace format {other:?}")),
    }
}

/// Fails the analysis when a salvaged trace recovered no measured time.
///
/// Salvage is for partially damaged runs (crashes, interruptions):
/// truncated ranks keep their lower-bound data and get flagged in
/// the coverage section. But when the salvage recovered no measured
/// time at all, a report would be all zeros dressed up as data —
/// fail with the trace diagnosis instead.
pub(crate) fn guard_salvage(salvaged: &SalvagedTrace) -> Result<(), String> {
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
    Ok(())
}

/// Builds the analysis report for a reduction. Counting parameters
/// (message/byte distributions) render as part of the report when the
/// trace recorded any.
pub(crate) fn build_report(
    reduced: &ReducedTrace,
    dispersion: DispersionKind,
    criterion: RankingCriterion,
    clusters: usize,
) -> Result<limba_analysis::Report, String> {
    Analyzer::new()
        .with_dispersion(dispersion)
        .with_criterion(criterion)
        .with_cluster_k(clusters)
        .analyze_with_counts(&reduced.measurements, &reduced.counts)
        .map_err(|e| e.to_string())
}

fn write_csv(parsed: &Parsed, report: &limba_analysis::Report) -> Result<(), String> {
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
        println!("\ncsv tables written to {}", dir.display());
    }
    Ok(())
}

/// Prints the imbalance-evolution section from pre-sliced windows.
pub(crate) fn print_evolution(
    sliced: Vec<ReducedTrace>,
    dispersion: DispersionKind,
    windows: usize,
) -> Result<(), String> {
    let matrices: Vec<_> = sliced.into_iter().map(|w| w.measurements).collect();
    let evolution = limba_analysis::evolution::imbalance_evolution(&matrices, dispersion, 0.02)
        .map_err(|e| e.to_string())?;
    print!(
        "{}",
        limba_viz::report::render_evolution(&evolution, windows)
    );
    Ok(())
}

/// Feeds a binary tracefile — stdin for `-` — through a [`TraceSink`]
/// in bounded chunks.
///
/// Memory held at once is one `STREAM_CHUNK` read buffer plus whatever
/// fold state the sink keeps — the tracefile itself is never resident.
fn feed_stream(path: &str, sink: &mut dyn TraceSink) -> Result<(), String> {
    let (mut input, name): (Box<dyn Read>, &str) = if path == "-" {
        (Box::new(std::io::stdin().lock()), "stdin")
    } else {
        let file = fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        (Box::new(file), path)
    };
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; STREAM_CHUNK];
    loop {
        let n = input
            .read(&mut buf)
            .map_err(|e| format!("cannot read {name}: {e}"))?;
        if n == 0 {
            break;
        }
        decoder.feed(&buf[..n], sink).map_err(|e| e.to_string())?;
    }
    decoder.finish(sink).map_err(|e| e.to_string())
}

/// `--from-stream`: one bounded-memory read of the tracefile into the
/// salvage fold, whose activity columns grow as extras appear, then
/// the same report path as the materialized analysis, in the same
/// order, so the two modes print byte-identical output and fail at the
/// same points — with one exception: the fold stops at the first error
/// in stream order, while the materialized mode decodes the whole file
/// first, so a file with a fold error (a backwards rank clock) followed
/// by a decode error (a corrupt tail) fails here with the fold error and
/// there with the decode error. `--windows` needs the makespan before
/// its fold starts, so a scan rides along with the salvage read and the
/// window fold reads the file a second time.
fn run_from_stream(
    parsed: &Parsed,
    path: &str,
    dispersion: DispersionKind,
    criterion: RankingCriterion,
    clusters: usize,
    windows: usize,
) -> Result<crate::CmdOutcome, String> {
    if parsed.get("drilldown").map(|v| v != "off").unwrap_or(false) {
        return Err("--drilldown needs the materialized trace; drop --from-stream".into());
    }
    match parsed.get("format").unwrap_or("auto") {
        "auto" | "binary" => {}
        other => return Err(format!("--from-stream reads binary traces, not {other:?}")),
    }
    let mut scan = ScanSink::new();
    let mut salvage = SalvageSink::new(ActivitySet::standard());
    if windows > 0 {
        feed_stream(path, &mut TeeSink::new(&mut scan, &mut salvage))?;
    } else {
        feed_stream(path, &mut salvage)?;
    }
    let salvaged = salvage
        .into_salvaged()
        .ok_or_else(|| "stream fold did not complete".to_string())?;
    guard_salvage(&salvaged)?;
    let report = build_report(&salvaged.reduced, dispersion, criterion, clusters)?;
    print!(
        "{}",
        limba_viz::report::render_with_coverage(&report, &salvaged.coverage)
    );
    write_csv(parsed, &report)?;
    if windows > 0 {
        // Separate read, placed after the report like the materialized
        // windows section — a stream that cannot be windowed (e.g. a
        // crash-truncated run) fails here with the batch path's error,
        // after the salvageable part of the analysis has printed.
        let scan = scan
            .into_scan()
            .ok_or_else(|| "stream scan did not complete".to_string())?;
        let mut windowed = WindowSink::new(windows, scan.makespan, scan.activities.clone())
            .map_err(|e| e.to_string())?;
        feed_stream(path, &mut windowed)?;
        let sliced = windowed
            .into_windows()
            .ok_or_else(|| "stream fold did not complete".to_string())?;
        print_evolution(sliced, dispersion, windows)?;
    }
    Ok(crate::CmdOutcome::Complete)
}

/// Runs `limba analyze <tracefile> [options]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse_with_switches(argv, &["from-stream"])?;
    let path = parsed
        .positional
        .first()
        .ok_or("analyze needs a tracefile path")?;
    let format = parsed.get("format").unwrap_or("auto");
    let dispersion = parse_dispersion(parsed.get("dispersion").unwrap_or("euclidean"))?;
    let criterion = parse_criterion(parsed.get("criterion").unwrap_or("max"))?;
    let clusters: usize = parsed.get_or("clusters", 2)?;

    let windows: usize = parsed.get_or("windows", 0)?;

    if path == "-" && !parsed.has("from-stream") {
        return Err("analyze - reads a trace stream from stdin; add --from-stream".into());
    }
    if path == "-" && windows > 0 {
        // `--windows` reads the stream a second time, and stdin only
        // plays once — spool it to a temp file, analyze that, clean
        // up. Memory stays bounded; disk holds the trace exactly once.
        // Without windows the analysis decodes stdin directly.
        let spool = std::env::temp_dir().join(format!("limba-stdin-{}.trc", std::process::id()));
        let copy = (|| -> Result<(), String> {
            let mut file = fs::File::create(&spool)
                .map_err(|e| format!("cannot create {}: {e}", spool.display()))?;
            std::io::copy(&mut std::io::stdin().lock(), &mut file)
                .map_err(|e| format!("cannot spool stdin: {e}"))?;
            Ok(())
        })();
        let result = copy.and_then(|()| {
            run_from_stream(
                &parsed,
                &spool.to_string_lossy(),
                dispersion,
                criterion,
                clusters,
                windows,
            )
        });
        let _ = fs::remove_file(&spool);
        return result;
    }

    if parsed.has("from-stream") {
        return run_from_stream(&parsed, path, dispersion, criterion, clusters, windows);
    }

    let trace = load_trace(path, format)?;
    // Salvaging reduction: truncated ranks (crashed / interrupted runs)
    // are closed out at their last event and flagged in a coverage
    // section instead of failing the whole analysis.
    let salvaged = limba_trace::reduce_checked(&trace).map_err(|e| e.to_string())?;
    guard_salvage(&salvaged)?;
    let SalvagedTrace { reduced, coverage } = salvaged;
    let report = build_report(&reduced, dispersion, criterion, clusters)?;
    print!(
        "{}",
        limba_viz::report::render_with_coverage(&report, &coverage)
    );

    write_csv(&parsed, &report)?;

    if parsed.get("drilldown").map(|v| v != "off").unwrap_or(false) {
        use limba_analysis::hierarchy::{drilldown, RegionTree};
        let parents = limba_trace::region_parents(&trace).map_err(|e| e.to_string())?;
        let tree = RegionTree::from_parents(parents).map_err(|e| e.to_string())?;
        let dd =
            drilldown(&reduced.measurements, &tree, dispersion, 0.5).map_err(|e| e.to_string())?;
        println!("\n== drill-down ==");
        if dd.path.is_empty() {
            println!("no imbalanced region found");
        }
        for (depth, step) in dd.path.iter().enumerate() {
            println!(
                "{}-> {} (inclusive SID_C {:.5}, {:.0}% of program)",
                "  ".repeat(depth),
                step.name,
                step.sid,
                step.fraction_of_program * 100.0
            );
        }
    }

    if windows > 0 {
        let sliced = limba_trace::reduce_windows(&trace, windows).map_err(|e| e.to_string())?;
        print_evolution(sliced, dispersion, windows)?;
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
    fn auto_format_detection() {
        use limba_trace::{Event, TraceBuilder};
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        let trace = b.build();
        let dir = std::env::temp_dir();

        let bin_path = dir.join("limba-auto.bin");
        fs::write(&bin_path, limba_trace::binary::to_bytes(&trace)).unwrap();
        let got = load_trace(bin_path.to_str().unwrap(), "auto").unwrap();
        assert_eq!(got, trace);

        let txt_path = dir.join("limba-auto.txt");
        fs::write(&txt_path, limba_trace::text::to_string(&trace)).unwrap();
        let got = load_trace(txt_path.to_str().unwrap(), "auto").unwrap();
        assert_eq!(got, trace);

        fs::remove_file(bin_path).ok();
        fs::remove_file(txt_path).ok();
    }

    #[test]
    fn undeclared_region_fails_at_decode() {
        use limba_trace::{Event, TraceBuilder};
        let mut b = TraceBuilder::new(1);
        b.add_region("r");
        b.push(Event::enter(0.0, 0, limba_model::RegionId::new(4)));
        let path = std::env::temp_dir().join("limba-undeclared-region.bin");
        fs::write(&path, limba_trace::binary::to_bytes(&b.build())).unwrap();
        let err = run(&[path.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.contains("unknown region index 4"), "{err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn fold_error_before_a_corrupt_tail_fails_each_mode_at_its_first_error() {
        // The one input on which the modes' errors differ (see
        // `run_from_stream`): a backwards clock, then a cut-off end chunk.
        use limba_trace::{Event, TraceBuilder};
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(2.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::enter(3.0, 0, r));
        b.push(Event::leave(4.0, 0, r));
        let bytes = limba_trace::stream::to_stream_bytes(&b.build(), 1).unwrap();
        let path = std::env::temp_dir().join("limba-backwards-then-corrupt.trc");
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let path = path.to_str().unwrap().to_string();
        let materialized = run(std::slice::from_ref(&path)).unwrap_err();
        let streamed = run(&[path.clone(), "--from-stream".into()]).unwrap_err();
        assert!(
            materialized.contains("stream truncated while reading end chunk"),
            "{materialized}"
        );
        assert!(
            streamed.contains("clock of processor 0 went backwards from 2 to 1"),
            "{streamed}"
        );
        fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        assert!(load_trace("/nonexistent/limba.trace", "auto")
            .unwrap_err()
            .contains("cannot read"));
    }
}
