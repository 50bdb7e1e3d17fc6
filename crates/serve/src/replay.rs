//! Spool replay: turning a run's on-disk bytes into reports.
//!
//! The serving layer never grows a second analysis path. A run's
//! **final** report is produced by replaying its spool through the
//! exact sequence `limba analyze` runs — one salvage
//! fold (its activity columns grow as extras appear, so no scan pass
//! comes first), the default analyzer, the coverage renderer — so the
//! served bytes are byte-for-byte what the offline CLI prints for the
//! same tracefile. A **partial** report (mid-stream disconnect, live
//! query) runs the same single pass but closes the fold directly
//! instead of requiring the stream's end chunk, which is precisely the
//! salvage repair: truncated ranks are closed at their last event and
//! flagged in the coverage section. Only the **evolution** report
//! reads its spool twice: a scan for the makespan that fixes the window
//! width, then the window fold.
//!
//! Replay reads the spool in bounded chunks; memory is one chunk
//! buffer plus fold state, never the trace.

use std::path::Path;

use limba_analysis::Analyzer;
use limba_model::ActivitySet;
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::{
    SalvageSink, SalvagedTrace, ScanSink, StreamDecoder, StreamScan, TraceSink, WindowSink,
};
use limba_vfs::Vfs;

use crate::ServeError;

/// Replay chunk size — matches the offline CLI's streaming reads.
const CHUNK: usize = 64 * 1024;

/// Analyzer knobs pinned to the `limba analyze` defaults. The serve
/// layer deliberately exposes no analysis knobs: its contract is
/// byte-identity with the *default* offline analysis.
fn analyzer() -> Analyzer {
    Analyzer::new()
        .with_dispersion(DispersionKind::Euclidean)
        .with_criterion(RankingCriterion::Maximum)
        .with_cluster_k(2)
}

/// Feeds the spool through `sink`. With `strict`, the decoder's own
/// `finish` runs — truncated spools fail exactly like the offline
/// CLI. Without it, decode errors past the header are swallowed and
/// the sink is closed directly, salvaging whatever prefix decoded.
fn feed_spool(
    vfs: &dyn Vfs,
    path: &Path,
    sink: &mut dyn TraceSink,
    strict: bool,
) -> Result<(), ServeError> {
    let mut file = vfs.open_read(path)?;
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; CHUNK];
    let mut fed = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        fed += n as u64;
        if let Err(e) = decoder.feed(&buf[..n], sink) {
            if strict {
                return Err(e.into());
            }
            // Salvage mode: a malformed tail (the stream died
            // mid-write) ends the usable prefix. A header that never
            // decoded is still fatal — there is nothing to salvage.
            if fed == n as u64 {
                return Err(e.into());
            }
            break;
        }
    }
    if strict {
        decoder.finish(sink)?;
    } else {
        // Close the fold over whatever arrived: SalvageSink closes
        // every rank's walker at its last event — the truncation
        // repair.
        sink.finish()?;
    }
    Ok(())
}

/// Scan pass over a complete spool.
fn scan_spool(vfs: &dyn Vfs, path: &Path) -> Result<StreamScan, ServeError> {
    let mut scan = ScanSink::new();
    feed_spool(vfs, path, &mut scan, true)?;
    scan.into_scan()
        .ok_or_else(|| ServeError::State("stream scan did not complete".into()))
}

/// The one salvage-fold pass over the spool.
fn fold_spool(vfs: &dyn Vfs, path: &Path, strict: bool) -> Result<SalvagedTrace, ServeError> {
    let mut salvage = SalvageSink::new(ActivitySet::standard());
    feed_spool(vfs, path, &mut salvage, strict)?;
    salvage
        .into_salvaged()
        .ok_or_else(|| ServeError::State("stream fold did not complete".into()))
}

/// Rejects a salvage that recovered no measured time — same guard,
/// same wording as the offline CLI.
fn guard_salvage(salvaged: &SalvagedTrace) -> Result<(), ServeError> {
    let SalvagedTrace { reduced, coverage } = salvaged;
    if coverage.iter().any(|c| !c.complete) && reduced.measurements.total_time() <= 0.0 {
        let truncated = coverage.iter().filter(|c| !c.complete).count();
        return Err(ServeError::Trace(limba_trace::TraceError::Malformed {
            detail: format!(
                "unsalvageable trace: {truncated} of {} ranks truncated and no measured time survives",
                coverage.len()
            ),
        }));
    }
    Ok(())
}

fn render(salvaged: &SalvagedTrace) -> Result<String, ServeError> {
    let report = analyzer()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
        .map_err(|e| ServeError::State(e.to_string()))?;
    Ok(limba_viz::report::render_with_coverage(
        &report,
        &salvaged.coverage,
    ))
}

/// The final report for a **complete** spool: byte-for-byte what
/// `limba analyze <spool>` prints.
pub fn complete_report(vfs: &dyn Vfs, spool: &Path) -> Result<String, ServeError> {
    let salvaged = fold_spool(vfs, spool, true)?;
    guard_salvage(&salvaged)?;
    render(&salvaged)
}

/// A salvage-grade report over a **partial** spool (disconnected or
/// still-live run): the pass closes its fold at the last decoded event
/// instead of requiring the end chunk.
pub fn partial_report(vfs: &dyn Vfs, spool: &Path) -> Result<String, ServeError> {
    let salvaged = fold_spool(vfs, spool, false)?;
    guard_salvage(&salvaged)?;
    render(&salvaged)
}

/// The offline imbalance-evolution section over `windows` slices of a
/// complete spool — same pass order and rendering as
/// `limba analyze --windows N`.
pub fn evolution_report(vfs: &dyn Vfs, spool: &Path, windows: usize) -> Result<String, ServeError> {
    let scan = scan_spool(vfs, spool)?;
    let mut sink = WindowSink::new(windows, scan.makespan, scan.activities.clone())?;
    feed_spool(vfs, spool, &mut sink, true)?;
    let sliced = sink
        .into_windows()
        .ok_or_else(|| ServeError::State("stream fold did not complete".into()))?;
    let matrices: Vec<_> = sliced.into_iter().map(|w| w.measurements).collect();
    let evolution =
        limba_analysis::evolution::imbalance_evolution(&matrices, DispersionKind::Euclidean, 0.02)
            .map_err(|e| ServeError::State(e.to_string()))?;
    Ok(limba_viz::report::render_evolution(&evolution, windows))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_trace::WriteSink;
    use limba_vfs::StdVfs;
    use std::fs;

    /// Writes a tiny two-rank trace; returns (full bytes, event count).
    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut sink = WriteSink::new(&mut out);
            sink.begin(2, &["work".into(), "halo".into()]).unwrap();
            let evs = vec![
                limba_trace::Event::enter(0.0, 0, 0.into()),
                limba_trace::Event::leave(1.0, 0, 0.into()),
                limba_trace::Event::enter(0.0, 1, 0.into()),
                limba_trace::Event::leave(3.0, 1, 0.into()),
                limba_trace::Event::enter(3.0, 1, 1.into()),
                limba_trace::Event::leave(3.5, 1, 1.into()),
            ];
            sink.events(&evs).unwrap();
            sink.finish().unwrap();
        }
        out
    }

    #[test]
    fn complete_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("complete.trc");
        fs::write(&spool, sample_bytes()).unwrap();
        let report = complete_report(&StdVfs, &spool).unwrap();
        assert!(report.contains("== coarse grain =="), "{report}");
        // A complete spool's partial report matches the final one:
        // nothing needed salvaging.
        assert_eq!(partial_report(&StdVfs, &spool).unwrap(), report);
        fs::remove_file(&spool).unwrap();
    }

    /// Four ranks over six iterations of a memory-bound solve and an
    /// I/O phase: `MemoryAccess` first appears before `Io`, the reverse
    /// of their canonical order.
    fn extras_bytes() -> Vec<u8> {
        use limba_model::{ActivityKind, RegionId};
        use limba_trace::Event;
        let (solve, io) = (RegionId::new(0), RegionId::new(1));
        let mut events = Vec::new();
        for it in 0..6 {
            let t = it as f64 * 10.0;
            for p in 0..4u32 {
                let skew = f64::from(p) * 0.5;
                events.extend([
                    Event::enter(t, p, solve),
                    Event::begin_activity(t + 1.0, p, ActivityKind::MemoryAccess),
                    Event::end_activity(t + 2.0 + skew, p, ActivityKind::MemoryAccess),
                    Event::leave(t + 4.0, p, solve),
                    Event::enter(t + 4.0, p, io),
                    Event::begin_activity(t + 5.0, p, ActivityKind::Io),
                    Event::end_activity(t + 6.0 + skew, p, ActivityKind::Io),
                    Event::leave(t + 8.0, p, io),
                ]);
            }
        }
        let mut sink = WriteSink::new(Vec::new());
        sink.begin(4, &["solve".into(), "io".into()]).unwrap();
        for frame in events.chunks(3) {
            sink.events(frame).unwrap();
        }
        sink.finish().unwrap();
        sink.into_inner()
    }

    /// The materialized render of whatever prefix of `bytes` decodes:
    /// `reduce_checked` → default analyzer → coverage renderer.
    fn materialized_report(bytes: &[u8]) -> String {
        let mut sink = limba_trace::MaterializeSink::new();
        StreamDecoder::new().feed(bytes, &mut sink).unwrap();
        sink.finish().unwrap();
        let trace = sink.into_trace().unwrap();
        let salvaged = limba_trace::reduce_checked(&trace).unwrap();
        assert_eq!(salvaged.reduced.measurements.activities().len(), 6);
        render(&salvaged).unwrap()
    }

    #[test]
    fn single_pass_replay_with_extras_equals_the_materialized_render() {
        let bytes = extras_bytes();
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("extras.trc");

        fs::write(&spool, &bytes).unwrap();
        let want = materialized_report(&bytes);
        assert_eq!(complete_report(&StdVfs, &spool).unwrap(), want);
        assert_eq!(partial_report(&StdVfs, &spool).unwrap(), want);

        let cut = &bytes[..bytes.len() / 2];
        fs::write(&spool, cut).unwrap();
        let want = materialized_report(cut);
        assert!(want.contains("coverage"), "{want}");
        assert!(complete_report(&StdVfs, &spool).is_err());
        assert_eq!(partial_report(&StdVfs, &spool).unwrap(), want);
        fs::remove_file(&spool).unwrap();
    }

    #[test]
    fn truncated_spool_salvages_but_fails_strict() {
        let bytes = sample_bytes();
        let dir = std::env::temp_dir().join(format!("limba-replay-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let spool = dir.join("partial.trc");
        fs::write(&spool, &bytes[..bytes.len() - 21]).unwrap();
        assert!(complete_report(&StdVfs, &spool).is_err());
        let report = partial_report(&StdVfs, &spool).unwrap();
        assert!(report.contains("== coarse grain =="), "{report}");
        fs::remove_file(&spool).unwrap();
    }
}
