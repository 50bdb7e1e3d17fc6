//! limbabench: the end-to-end and per-layer benchmark of the limba
//! pipeline.
//!
//! Four workloads drive limba's public library APIs from outside —
//! `stream-cfd64k`, `offline-cfd64k`, `advise-cfd4k` and `serve-cfd4k`
//! (see `README.md` for why each exists). A run sets its workload up
//! several times (the median is `setup_s`), then runs measured units
//! for the requested wall time, checking every unit's output against a
//! reference computed during setup. The traced run additionally records
//! spans around every call into a layer and times the layer calls a
//! unit cannot show from outside.

pub mod alloc;
pub mod cases;
pub mod metrics;
pub mod seams;
pub mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cases::Case;
use metrics::{median, quantile, Metric};
use spans::Recorder;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `simulate cfd --ranks 65536 --imbalance jitter:0.2 --stream-reduce`.
    Stream,
    /// The post-mortem path over the same program's v2 tracefile bytes.
    Offline,
    /// `advise --workload cfd --ranks 4096` with the CLI defaults.
    Advise,
    /// Closed-loop pushes and `EVOLUTION` queries against a live server.
    Serve,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Stream,
        Workload::Offline,
        Workload::Advise,
        Workload::Serve,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream-cfd64k",
            Workload::Offline => "offline-cfd64k",
            Workload::Advise => "advise-cfd4k",
            Workload::Serve => "serve-cfd4k",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Ranks of the stream and offline CFD program.
    pub cfd_ranks: usize,
    /// Ranks of the advised CFD program.
    pub advise_ranks: usize,
    /// Ranks of each pushed CFD trace.
    pub serve_ranks: usize,
    /// Full setups per run; `setup_s` is their median.
    pub setups: usize,
    /// Measured units per run at least, however short `--seconds` is.
    pub min_units: usize,
    /// Repetitions of each timed layer call in the traced run.
    pub layer_reps: usize,
}

impl Size {
    /// The benchmark proper.
    pub const FULL: Size = Size {
        cfd_ranks: 65536,
        advise_ranks: 4096,
        serve_ranks: 4096,
        setups: 3,
        min_units: 5,
        layer_reps: 3,
    };

    /// A seconds-long pass for the benchmark's own tests.
    pub const SMOKE: Size = Size {
        cfd_ranks: 256,
        advise_ranks: 64,
        serve_ranks: 64,
        setups: 1,
        min_units: 2,
        layer_reps: 1,
    };
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Least wall time of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for the serve state and the span dump; created on
    /// demand, and everything a run puts there is its own.
    pub state_dir: PathBuf,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Units run.
    pub attempted: u64,
    /// Units that failed a call or a correctness check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The metrics this run reports, in declaration order.
    pub metrics: Vec<(Metric, f64)>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Timing of one measured unit.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Call to rendered report.
    pub report_s: f64,
    /// Request to full answer of the unit's query, when it sends one.
    pub query_s: Option<f64>,
    /// Size of the rendered report text.
    pub report_bytes: usize,
}

/// Per-layer values a case sets; unset ones fall back to span medians,
/// then to 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Runs one invocation.
///
/// # Errors
///
/// A setup that fails — including a warm-up unit whose output does not
/// match its reference — ends the run without a result.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::Stream => drive::<cases::stream::StreamCase>(opts),
        Workload::Offline => drive::<cases::offline::OfflineCase>(opts),
        Workload::Advise => drive::<cases::advise::AdviseCase>(opts),
        Workload::Serve => drive::<cases::serve::ServeCase>(opts),
    }
}

fn drive<C: Case>(opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(opts.size.setups);
    let mut case = None;
    for _ in 0..opts.size.setups.max(1) {
        drop(case.take());
        let t = Instant::now();
        case = Some(C::setup(opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut case = case.ok_or("no setup ran")?;

    let mut rec = Recorder::new(false);
    let mut report_s = Vec::new();
    let mut traced_report_s = Vec::new();
    let mut query_s = Vec::new();
    let mut peaks = Vec::new();
    let mut report_bytes = 0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    while attempted < opts.size.min_units as u64 || start.elapsed() < budget {
        attempted += 1;
        // The traced run alternates traced and untraced units, so the
        // tracing overhead is measured inside one process.
        let traced_unit = opts.traced && attempted.is_multiple_of(2);
        rec.set_enabled(traced_unit);
        rec.set_request(attempted);
        let live = alloc::live_bytes();
        alloc::reset_peak();
        let root = rec.open("bench.unit");
        let result = case.unit(&mut rec);
        rec.close(root);
        // What the unit needed beyond the heap already live when it
        // started: inputs held since setup and state retained across
        // units (the server's run registry) do not count.
        let peak = alloc::peak_bytes().saturating_sub(live);
        match result {
            Ok(unit) => {
                if traced_unit {
                    traced_report_s.push(unit.report_s);
                } else {
                    report_s.push(unit.report_s);
                }
                query_s.extend(unit.query_s);
                peaks.push(peak as f64);
                report_bytes = unit.report_bytes;
            }
            Err(e) => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(e);
                }
            }
        }
    }
    rec.set_request(0);

    let mut notes = vec![format!(
        "{} seed {}: {} units in {:.1} s, {} failed; {} CPUs",
        opts.workload.name(),
        opts.seed,
        attempted,
        start.elapsed().as_secs_f64(),
        failed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    let all_report_s: Vec<f64> = report_s.iter().chain(&traced_report_s).copied().collect();
    notes.push(format!(
        "report_s min {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p90 {:.4} max {:.4} s over {} units; setups {:?} s",
        quantile(&all_report_s, 0.0),
        quantile(&all_report_s, 0.25),
        median(&all_report_s),
        quantile(&all_report_s, 0.75),
        quantile(&all_report_s, 0.9),
        quantile(&all_report_s, 1.0),
        all_report_s.len(),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    if !query_s.is_empty() {
        notes.push(format!(
            "push_s p50 {:.4} s, p90 {:.4} s; query_s p50 {:.4} s, p90 {:.4} s over {} queries",
            median(&all_report_s),
            quantile(&all_report_s, 0.9),
            median(&query_s),
            quantile(&query_s, 0.9),
            query_s.len()
        ));
    }

    let metrics = if opts.traced {
        let mut layers = Layers::new();
        rec.set_enabled(true);
        case.layers(&mut rec, &mut layers)?;
        layers.insert("viz.report_kib", report_bytes as f64 / 1024.0);
        layers.insert(
            "tracing.overhead_s",
            median(&traced_report_s) - median(&report_s),
        );
        if !query_s.is_empty() {
            layers.insert("serve.push_s_p90", quantile(&all_report_s, 0.9));
            layers.insert("serve.query_s_p50", median(&query_s));
            layers.insert("serve.query_s_p90", quantile(&query_s, 0.9));
        }
        notes.push(format!(
            "tracing overhead {:+.4} s per unit: traced p50 {:.4} s ({} units) vs untraced p50 {:.4} s ({} units)",
            median(&traced_report_s) - median(&report_s),
            median(&traced_report_s),
            traced_report_s.len(),
            median(&report_s),
            report_s.len()
        ));
        notes.push("self time by layer (s):".into());
        for (layer, own) in rec.self_time_by_layer() {
            notes.push(format!("  {layer:<10} {own:.4}"));
        }
        let dump = opts.state_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        std::fs::create_dir_all(&opts.state_dir)
            .and_then(|()| std::fs::write(&dump, rec.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            dump.display()
        ));
        metrics::PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.get(m.name).copied().unwrap_or_else(|| {
                    // A timed layer call's value is the median of its spans.
                    m.name
                        .strip_suffix("_s")
                        .map_or(0.0, |span| median(&rec.seconds(span)))
                });
                (*m, value)
            })
            .collect()
    } else {
        let values = [
            median(&setup_s),
            median(&report_s),
            median(&peaks) / (1024.0 * 1024.0),
        ];
        metrics::END_TO_END.iter().copied().zip(values).collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
        notes,
    })
}
