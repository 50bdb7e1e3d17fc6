//! The four workloads and the calls they share.

pub mod advise;
pub mod offline;
pub mod serve;
pub mod stream;

use limba_analysis::Analyzer;
use limba_mpisim::{Program, Simulator};
use limba_stats::dispersion::DispersionKind;
use limba_stats::rank::RankingCriterion;
use limba_trace::SalvagedTrace;
use limba_workloads::{cfd::CfdConfig, Imbalance};

use crate::spans::Recorder;
use crate::{Layers, Options, Unit};

/// One workload: set up, run units, and (traced) time its layers.
pub trait Case: Sized {
    /// Generates the inputs and the reference outputs the checks
    /// compare against, then runs one warm-up unit.
    ///
    /// # Errors
    ///
    /// A failed call, or a warm-up unit that fails its check.
    fn setup(opts: &Options) -> Result<Self, String>;

    /// Runs one measured unit and checks its output.
    ///
    /// # Errors
    ///
    /// A failed call or a correctness mismatch; the driver counts it as
    /// a failed unit.
    fn unit(&mut self, rec: &mut Recorder) -> Result<Unit, String>;

    /// Traced run only: times the layer calls a unit makes out of sight
    /// (inside another layer's call) by calling them directly, and sets
    /// the workload's counters.
    ///
    /// # Errors
    ///
    /// A failed call.
    fn layers(&mut self, rec: &mut Recorder, out: &mut Layers) -> Result<(), String>;
}

/// Events per streamed frame — the `simulate`/`push` default.
pub(crate) const FRAME_EVENTS: usize = 4096;

/// `--imbalance jitter:0.2`.
pub(crate) const JITTER: Imbalance = Imbalance::RandomJitter { amplitude: 0.2 };

/// A one-iteration CFD proxy, as `simulate cfd` builds it.
pub(crate) fn cfd(ranks: usize, imbalance: Imbalance, seed: u64) -> Result<Program, String> {
    CfdConfig::new(ranks)
        .with_iterations(1)
        .with_imbalance(imbalance)
        .with_seed(seed)
        .build_program()
        .map_err(|e| format!("cfd program: {e}"))
}

/// The `limba analyze` default analyzer.
fn analyzer() -> Analyzer {
    Analyzer::new()
        .with_dispersion(DispersionKind::Euclidean)
        .with_criterion(RankingCriterion::Maximum)
        .with_cluster_k(2)
}

/// Analyzes and renders a reduction the way `limba analyze` prints it.
pub(crate) fn render_report(
    salvaged: &SalvagedTrace,
    rec: &mut Recorder,
) -> Result<String, String> {
    if salvaged.coverage.iter().any(|c| !c.complete) {
        return Err("reduction has truncated ranks".into());
    }
    let s = rec.open("analysis.analyze");
    let report = analyzer()
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
        .map_err(|e| format!("analyze: {e}"))?;
    rec.close(s);
    let s = rec.open("viz.render");
    let text = limba_viz::report::render_with_coverage(&report, &salvaged.coverage);
    rec.close(s);
    Ok(text)
}

/// `simulate --stream-reduce`: two simulation passes folded on the fly,
/// then the report.
pub(crate) fn stream_report(
    sim: &Simulator,
    program: &Program,
    rec: &mut Recorder,
) -> Result<String, String> {
    let cfg = limba_stream::StreamConfig {
        frame_events: FRAME_EVENTS,
        jobs: 1,
        windows: None,
        ..limba_stream::StreamConfig::default()
    };
    let s = rec.open("stream.reduce");
    let streamed = limba_stream::stream_reduce(sim, program, None, None, None, &cfg)
        .map_err(|e| format!("stream_reduce: {e}"))?;
    rec.close(s);
    render_report(&streamed.salvaged, rec)
}

/// `analyze <tracefile>` over in-memory tracefile bytes: decode,
/// salvaging reduction, report.
pub(crate) fn offline_report(bytes: &[u8], rec: &mut Recorder) -> Result<String, String> {
    let s = rec.open("trace.from_bytes");
    let trace = limba_trace::binary::from_bytes(bytes).map_err(|e| format!("from_bytes: {e}"))?;
    rec.close(s);
    let s = rec.open("trace.reduce");
    let salvaged = limba_trace::reduce_checked(&trace).map_err(|e| format!("reduce: {e}"))?;
    drop(trace);
    rec.close(s);
    render_report(&salvaged, rec)
}

/// Times `f` under a span named `name`.
pub(crate) fn timed<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = rec.open(name);
    let out = f();
    rec.close(s);
    out
}
