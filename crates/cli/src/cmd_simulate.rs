//! `limba simulate` and `limba demo`.

use std::fs::File;
use std::io::BufWriter;

use limba_model::ActivitySet;
use limba_mpisim::{
    BalancePlan, FaultPlan, MachineConfig, Program, SimError, SimOutput, Simulator, StreamOutput,
};
use limba_trace::{SalvageSink, SalvagedTrace, ScanSink, Trace, TraceSink};
use limba_workloads::{
    amr::AmrConfig, cfd::CfdConfig, fft::FftConfig, irregular::IrregularConfig,
    master_worker::MasterWorkerConfig, pipeline::PipelineConfig, stencil::StencilConfig,
    sweep::SweepConfig, Imbalance,
};

use crate::args::{parse, parse_imbalance, Flags, Parsed};
use crate::supervise::{self, Supervision};

/// The flags `simulate` accepts.
const FLAGS: Flags = Flags {
    command: "simulate",
    options: &[
        &["ranks", "iterations", "imbalance", "seed", "jobs"],
        &["replications", "faults", "balance", "engine"],
        &["out", "format", "stream-out", "stream-frame-events"],
        crate::cmd_analyze::REPORT_OPTIONS,
        supervise::OPTIONS,
    ],
    switches: &[&["stream-reduce"], supervise::SWITCHES],
};

pub(crate) fn build_program(
    workload: &str,
    ranks: usize,
    iterations: Option<usize>,
    imbalance: Imbalance,
    seed: u64,
) -> Result<Program, String> {
    let program = match workload {
        "cfd" => CfdConfig::new(ranks)
            .with_iterations(iterations.unwrap_or(1))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        "stencil" => {
            // Squarest grid for the rank count.
            let px = (1..=ranks)
                .filter(|d| ranks.is_multiple_of(*d))
                .min_by_key(|&d| (d as i64 - (ranks as f64).sqrt() as i64).abs())
                .unwrap_or(1);
            StencilConfig::new(px, ranks / px)
                .with_iterations(iterations.unwrap_or(10))
                .with_imbalance(imbalance)
                .with_seed(seed)
                .build_program()
        }
        "master-worker" => MasterWorkerConfig::new(ranks)
            .with_tasks(iterations.unwrap_or(2 * ranks.saturating_sub(1)))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        "pipeline" => PipelineConfig::new(ranks)
            .with_items(iterations.unwrap_or(8))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        "irregular" => IrregularConfig::new(ranks)
            .with_steps(iterations.unwrap_or(4))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        "fft" => FftConfig::new(ranks)
            .with_iterations(iterations.unwrap_or(2))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        "amr" => AmrConfig::new(ranks)
            .with_steps(iterations.unwrap_or(2))
            .with_refinement(imbalance)
            .with_seed(seed)
            .build_program(),
        "sweep" => SweepConfig::new(ranks)
            .with_sweeps(iterations.unwrap_or(2))
            .with_imbalance(imbalance)
            .with_seed(seed)
            .build_program(),
        other => return Err(format!("unknown workload {other:?}")),
    };
    program.map_err(|e| e.to_string())
}

/// Which execution core advances the simulated ranks.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Engine {
    /// Event-driven wakeup-list scheduler (default).
    Event,
    /// Rank-sharded parallel event scheduler; byte-identical output to
    /// [`Engine::Event`], `--jobs` controls the worker count.
    EventPar,
    /// Reference polling scheduler, kept for cross-checking.
    Polling,
}

impl Engine {
    pub(crate) fn parse(spec: &str) -> Result<Engine, String> {
        match spec {
            "event" => Ok(Engine::Event),
            "event-par" => Ok(Engine::EventPar),
            "polling" => Ok(Engine::Polling),
            other => Err(format!(
                "unknown engine {other:?} (expected \"event\", \"event-par\", or \"polling\")"
            )),
        }
    }

    /// The worker count this engine runs the event scheduler with —
    /// the event engine is the parallel one at a single job — or `None`
    /// for the polling engine, which retires the whole run before
    /// recording and so has nothing to stream.
    pub(crate) fn event_jobs(self, jobs: usize) -> Option<usize> {
        match self {
            Engine::Event => Some(1),
            Engine::EventPar => Some(jobs),
            Engine::Polling => None,
        }
    }

    /// Runs `program` on this engine, materializing the trace.
    pub(crate) fn run(
        self,
        sim: &Simulator,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        jobs: usize,
    ) -> Result<SimOutput, String> {
        match self.event_jobs(jobs) {
            Some(jobs) => sim.run_parallel_configured(program, faults, balance, None, jobs),
            None => sim.run_polling_configured(program, faults, balance, None),
        }
        .map_err(|e| e.to_string())
    }

    /// Runs `program` on this engine, streaming the trace into `sink`
    /// in frames of `frame_events` events. `what` names the caller in
    /// the error a non-streaming engine gets.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_streaming(
        self,
        what: &str,
        sim: &Simulator,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        jobs: usize,
        sink: &mut dyn TraceSink,
        frame_events: usize,
    ) -> Result<StreamOutput, String> {
        let jobs = self
            .event_jobs(jobs)
            .ok_or_else(|| format!("{what} needs --engine event or event-par"))?;
        sim.run_streaming_parallel_configured(
            program,
            faults,
            balance,
            None,
            jobs,
            sink,
            frame_events,
        )
        .map_err(|e| e.to_string())
    }
}

/// Events per frame on the runs that fold inline, and the default
/// `--stream-frame-events`.
const FRAME_EVENTS: usize = 4096;

/// Simulates `program` on the event engine with its events folded into
/// the salvaged reduction inline, on the calling thread: the commands
/// that read only the reduction never materialize a trace.
pub(crate) fn fold_run(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
) -> Result<(StreamOutput, SalvagedTrace), String> {
    let mut fold = SalvageSink::new(ActivitySet::standard());
    let output = sim
        .run_streaming_configured(program, faults, balance, None, &mut fold, FRAME_EVENTS)
        .map_err(|e| e.to_string())?;
    // A run that completes has finished its sink.
    let salvaged = fold
        .into_salvaged()
        .ok_or("simulation ended without finishing its fold")?;
    Ok((output, salvaged))
}

/// Resolves `--faults`: either a TOML plan file or `preset:<name>` from
/// [`limba_workloads::faults`]. Presets are scaled to the makespan of a
/// fault-free run of the same program, recorded into a scan (both runs
/// are deterministic, so the recipe reproduces exactly).
pub(crate) fn load_fault_plan(
    spec: &str,
    program: &Program,
    ranks: usize,
) -> Result<FaultPlan, String> {
    let plan = if let Some(name) = spec.strip_prefix("preset:") {
        let sim = Simulator::new(MachineConfig::new(ranks));
        let mut scan = ScanSink::new();
        let run = sim.run_streaming_configured(program, None, None, None, &mut scan, FRAME_EVENTS);
        let horizon = run.map_err(|e| e.to_string())?.stats.makespan;
        limba_workloads::faults::preset(name, ranks, horizon).ok_or_else(|| {
            format!(
                "unknown fault preset {name:?} (available: {})",
                limba_workloads::faults::PRESETS.join(", ")
            )
        })?
    } else {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        FaultPlan::parse_toml(&text).map_err(|e| e.to_string())?
    };
    plan.validate(ranks).map_err(|e| e.to_string())?;
    Ok(plan)
}

/// Resolves `--balance`: either a TOML plan file or `preset:<name>`
/// from [`limba_workloads::balance`]. Unlike the fault presets, balance
/// presets need no horizon — every policy triggers on relative load.
pub(crate) fn load_balance_plan(spec: &str) -> Result<BalancePlan, String> {
    let plan = if let Some(name) = spec.strip_prefix("preset:") {
        limba_workloads::balance::preset(name).ok_or_else(|| {
            format!(
                "unknown balance preset {name:?} (available: {})",
                limba_workloads::balance::PRESETS.join(", ")
            )
        })?
    } else {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        BalancePlan::parse_toml(&text).map_err(|e| e.to_string())?
    };
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

/// The `--balance list` listing: every preset with its one-line summary.
pub(crate) fn render_balance_presets() -> String {
    let mut out = String::from("available balance presets (use --balance preset:<name>):\n");
    let width = limba_workloads::balance::PRESET_SUMMARIES
        .iter()
        .map(|&(name, _)| name.len())
        .max()
        .unwrap_or(0);
    for &(name, summary) in limba_workloads::balance::PRESET_SUMMARIES {
        out.push_str(&format!("  {name:<width$}  {summary}\n"));
    }
    out.push_str("or pass a TOML balance-plan file path (see DESIGN.md)\n");
    out
}

/// One-line summary of what a balance plan did to a run.
fn describe_balance(report: &limba_mpisim::BalanceReport) -> String {
    let policy = report.policy.as_deref().unwrap_or("none");
    if report.migrations == 0 {
        return format!("rebalancing: {policy} policy active, no migrations triggered");
    }
    format!(
        "rebalancing: {policy} moved {:.4} nominal s in {} migrations ({} declined)",
        report.moved_seconds, report.migrations, report.declined
    )
}

/// The `--faults list` listing: every preset with its one-line summary.
pub(crate) fn render_fault_presets() -> String {
    let mut out = String::from("available fault presets (use --faults preset:<name>):\n");
    let width = limba_workloads::faults::PRESET_SUMMARIES
        .iter()
        .map(|&(name, _)| name.len())
        .max()
        .unwrap_or(0);
    for &(name, summary) in limba_workloads::faults::PRESET_SUMMARIES {
        out.push_str(&format!("  {name:<width$}  {summary}\n"));
    }
    out.push_str("or pass a TOML fault-plan file path (see DESIGN.md)\n");
    out
}

/// One-line summary of what a fault plan did to a run.
fn describe_faults(report: &limba_mpisim::FaultReport) -> String {
    if report.is_clean() {
        return "faults: none took effect (timing perturbations only)".into();
    }
    let crashes: Vec<String> = report
        .crashes
        .iter()
        .map(|&(r, t)| format!("{r}@{t:.4}s"))
        .collect();
    format!(
        "faults: {} crashed [{}], {} interrupted, {} dropped attempts, {} retried messages",
        report.crashes.len(),
        crashes.join(", "),
        report.interrupted.len(),
        report.dropped_attempts,
        report.retried_messages
    )
}

/// The status lines every single-run `simulate` prints: the run's
/// headline numbers, then — when a plan was given — what the faults did
/// and the rebalancing summary with the full per-rank migration ledger
/// (the same viz section the balanced report snapshots lock).
fn run_summary(
    workload: &str,
    ranks: usize,
    stats: &limba_mpisim::SimStats,
    faults: Option<&limba_mpisim::FaultReport>,
    balance: Option<&limba_mpisim::BalanceReport>,
) -> String {
    let mut out = format!(
        "simulated {workload} on {ranks} ranks: makespan {:.4} s, {} messages, {} bytes\n",
        stats.makespan, stats.messages, stats.bytes
    );
    if let Some(report) = faults {
        out += &describe_faults(report);
        out.push('\n');
    }
    if let Some(report) = balance {
        out += &describe_balance(report);
        out.push('\n');
        out += &limba_viz::report::render_balance(report);
    }
    out
}

fn write_trace(trace: &Trace, path: &str, format: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let writer = BufWriter::new(file);
    match format {
        "binary" => limba_trace::binary::write(trace, writer).map_err(|e| e.to_string()),
        "text" => limba_trace::text::write(trace, writer).map_err(|e| e.to_string()),
        other => Err(format!("unknown trace format {other:?}")),
    }
}

/// Everything that defines a replication sweep's output. The
/// fingerprint of this spec guards checkpoint compatibility: two specs
/// with equal fingerprints produce identical replication rows.
pub(crate) struct SweepSpec<'a> {
    pub workload: &'a str,
    pub ranks: usize,
    pub iterations: Option<usize>,
    pub imbalance: Imbalance,
    pub root_seed: u64,
    pub replications: usize,
    pub jobs: usize,
    pub faults: Option<&'a FaultPlan>,
    pub balance: Option<&'a BalancePlan>,
}

impl SweepSpec<'_> {
    /// Canonical fingerprint input: every field that affects a row's
    /// bytes (`jobs` deliberately excluded — output is jobs-invariant).
    /// The balance component is appended only when a plan is present,
    /// so checkpoints of unbalanced sweeps written before balancing
    /// existed keep their fingerprints.
    fn fingerprint(&self) -> u64 {
        let mut input = format!(
            "sweep|workload={}|ranks={}|iterations={:?}|imbalance={:?}|root_seed={}|replications={}|faults={:?}",
            self.workload,
            self.ranks,
            self.iterations,
            self.imbalance,
            self.root_seed,
            self.replications,
            self.faults,
        );
        if let Some(plan) = self.balance {
            input.push_str(&format!("|balance={plan:?}"));
        }
        limba_guard::config_fingerprint(&input)
    }
}

/// One rendered row of a sweep: exactly the values the table prints,
/// checkpointable so a resumed sweep replays rather than re-simulates.
struct SweepRow {
    index: u64,
    seed: u64,
    makespan: f64,
    messages: u64,
    bytes: u64,
    migrations: u64,
    moved: f64,
}

/// The sweep checkpoint codec. Balanced sweeps append the migration
/// columns to each payload; unbalanced sweeps keep the original layout,
/// so their existing checkpoints stay readable. The two can never mix:
/// the sweep fingerprint includes the balance plan.
struct SweepCodec {
    balanced: bool,
}

impl limba_guard::PayloadCodec<SweepRow> for SweepCodec {
    fn encode(&self, row: &SweepRow) -> Vec<u8> {
        let mut w = limba_guard::codec::ByteWriter::new();
        w.put_u64(row.index);
        w.put_u64(row.seed);
        w.put_f64(row.makespan);
        w.put_u64(row.messages);
        w.put_u64(row.bytes);
        if self.balanced {
            w.put_u64(row.migrations);
            w.put_f64(row.moved);
        }
        w.into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SweepRow, limba_guard::GuardError> {
        let mut r = limba_guard::codec::ByteReader::new(bytes);
        let mut row = SweepRow {
            index: r.get_u64("replication index")?,
            seed: r.get_u64("replication seed")?,
            makespan: r.get_f64("makespan")?,
            messages: r.get_u64("message count")?,
            bytes: r.get_u64("byte count")?,
            migrations: 0,
            moved: 0.0,
        };
        if self.balanced {
            row.migrations = r.get_u64("migration count")?;
            row.moved = r.get_f64("moved seconds")?;
        }
        r.expect_end("sweep row")?;
        Ok(row)
    }
}

/// Renders a replication sweep under supervision: `replications`
/// independent runs with SplitMix64-derived seeds on up to `jobs`
/// worker threads, optionally bounded by a deadline / unit cap and
/// checkpointed for resume. The table is byte-identical for every
/// `jobs` value, and an interrupted-then-resumed sweep renders
/// byte-identically to an uninterrupted one.
///
/// A failing replication occupies its own error row instead of
/// aborting the sweep; the summary then covers the completed rows.
fn render_sweep(
    spec: &SweepSpec,
    supervision: &Supervision,
) -> Result<(String, limba_guard::RunManifest), String> {
    use std::fmt::Write as _;
    let sim = Simulator::new(MachineConfig::new(spec.ranks));
    let items: Vec<usize> = (0..spec.replications).collect();
    let run = supervision
        .supervisor(spec.jobs)
        .run(
            "sweep",
            spec.fingerprint(),
            &items,
            &SweepCodec {
                balanced: spec.balance.is_some(),
            },
            |index, _| {
                let rep = sim
                    .run_replication(
                        index,
                        spec.root_seed,
                        spec.faults,
                        spec.balance,
                        |_, seed| {
                            build_program(
                                spec.workload,
                                spec.ranks,
                                spec.iterations,
                                spec.imbalance,
                                seed,
                            )
                            .map_err(|detail| SimError::BuildFailed { detail })
                        },
                    )
                    // A build failure's row shows the builder's own text.
                    .map_err(|e| match e {
                        SimError::BuildFailed { detail } => limba_guard::JobError::Fatal(detail),
                        e => limba_guard::JobError::Fatal(e.to_string()),
                    })?;
                let stats = &rep.output.stats;
                Ok(SweepRow {
                    index: index as u64,
                    seed: rep.seed,
                    makespan: stats.makespan,
                    messages: stats.messages,
                    bytes: stats.bytes,
                    migrations: rep.output.balance.migrations,
                    moved: rep.output.balance.moved_seconds,
                })
            },
        )
        .map_err(|e| e.to_string())?;
    if let Some(e) = &run.checkpoint_error {
        return Err(format!("checkpoint save failed: {e}"));
    }

    let mut out = String::new();
    writeln!(
        out,
        "{} on {} ranks, {} replications (root seed {})",
        spec.workload, spec.ranks, spec.replications, spec.root_seed
    )
    .unwrap();
    if let Some(plan) = spec.balance {
        writeln!(out, "balance policy: {}", plan.summary()).unwrap();
    }
    write!(
        out,
        "{:>4} {:>20} {:>12} {:>10} {:>12}",
        "rep", "seed", "makespan", "messages", "bytes"
    )
    .unwrap();
    if spec.balance.is_some() {
        write!(out, " {:>10} {:>10}", "migrations", "moved s").unwrap();
    }
    out.push('\n');
    let mut makespans = Vec::with_capacity(spec.replications);
    let mut total_migrations = 0u64;
    let mut total_moved = 0.0f64;
    for (index, slot) in run.results.iter().enumerate() {
        // The seed is a pure function of the root, so even failed or
        // never-started replications print theirs.
        let seed = limba_par::derive_seed(spec.root_seed, index as u64);
        match slot {
            Some(Ok(row)) => {
                write!(
                    out,
                    "{:>4} {:>20} {:>11.4}s {:>10} {:>12}",
                    row.index, row.seed, row.makespan, row.messages, row.bytes
                )
                .unwrap();
                if spec.balance.is_some() {
                    write!(out, " {:>10} {:>9.4}s", row.migrations, row.moved).unwrap();
                }
                out.push('\n');
                makespans.push(row.makespan);
                total_migrations += row.migrations;
                total_moved += row.moved;
            }
            Some(Err(failure)) => {
                writeln!(
                    out,
                    "{index:>4} {seed:>20} error: {}",
                    failure.kind.message()
                )
                .unwrap();
            }
            None => {
                writeln!(out, "{index:>4} {seed:>20} not run (interrupted)").unwrap();
            }
        }
    }
    // Sequential reduction in replication order: deterministic floats.
    if makespans.is_empty() {
        writeln!(out, "no replications completed").unwrap();
    } else {
        let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
        let min = makespans.iter().copied().fold(f64::INFINITY, f64::min);
        let max = makespans.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if run.manifest.is_complete() {
            writeln!(
                out,
                "makespan mean {mean:.4} s, min {min:.4} s, max {max:.4} s"
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "makespan mean {mean:.4} s, min {min:.4} s, max {max:.4} s \
                 ({} of {} replications)",
                makespans.len(),
                spec.replications
            )
            .unwrap();
        }
        if spec.balance.is_some() {
            writeln!(
                out,
                "rebalancing: {total_migrations} migrations moved {total_moved:.4} nominal s \
                 across completed replications"
            )
            .unwrap();
        }
    }
    if !run.manifest.is_complete() {
        writeln!(
            out,
            "partial sweep: {} completed, {} cached, {} failed, {} not run{}",
            run.manifest.completed,
            run.manifest.cached,
            run.manifest.failures.len(),
            run.manifest.skipped,
            if supervision.checkpoint.is_some() && run.manifest.skipped > 0 {
                " — rerun with --resume to continue"
            } else {
                ""
            }
        )
        .unwrap();
    }
    Ok((out, run.manifest))
}

/// A chunked-v3 tracefile at `path` that is durable on finish: the
/// container is fsynced (file, then directory entry) before the command
/// reports success, so a power cut after it cannot lose or tear it.
fn durable_file(path: &str) -> Result<limba_trace::DurableSink, String> {
    limba_trace::DurableSink::create(
        std::sync::Arc::new(limba_vfs::StdVfs),
        std::path::Path::new(path),
    )
    .map_err(|e| format!("cannot create {path}: {e}"))
}

/// The checks `--stream-reduce` and `--stream-out` share: one run, an
/// event engine, no `--out`/`--format` (`instead` says what `flag`
/// does about a tracefile). Returns the engine's worker count and the
/// frame size.
fn check_streaming(
    parsed: &Parsed,
    flag: &str,
    instead: &str,
    engine: Engine,
    jobs: usize,
    replications: usize,
) -> Result<(usize, usize), String> {
    if replications > 1 {
        return Err(format!("{flag} streams a single run; drop --replications"));
    }
    if parsed.get("out").is_some() || parsed.get("format").is_some() {
        return Err(format!("{flag} {instead}; drop --out/--format"));
    }
    let jobs = engine
        .event_jobs(jobs)
        .ok_or_else(|| format!("{flag} needs --engine event or event-par"))?;
    let frame_events: usize = parsed.get_or("stream-frame-events", FRAME_EVENTS)?;
    if frame_events == 0 {
        return Err("--stream-frame-events must be positive".into());
    }
    Ok((jobs, frame_events))
}

/// `--stream-reduce`: pipe the simulation through the streaming
/// reduction pipeline and print the analysis directly — the trace is
/// never materialized and no tracefile is written.
#[allow(clippy::too_many_arguments)]
fn run_stream_reduce(
    parsed: &Parsed,
    workload: &str,
    program: &Program,
    ranks: usize,
    engine: Engine,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    jobs: usize,
    replications: usize,
) -> Result<crate::CmdOutcome, String> {
    let (stream_jobs, frame_events) = check_streaming(
        parsed,
        "--stream-reduce",
        "writes no tracefile",
        engine,
        jobs,
        replications,
    )?;
    let opts = crate::cmd_analyze::ReportOptions::parse(parsed)?;

    let cfg = limba_stream::StreamConfig {
        frame_events,
        jobs: stream_jobs,
        windows: (opts.windows > 0).then_some(opts.windows),
    };
    let sim = Simulator::new(MachineConfig::new(ranks));
    // `--stream-out` composes: the reduction still streams, but the
    // events are teed to a chunked-v3 file on the way past.
    let stream_out = match parsed.get("stream-out") {
        Some("-") => {
            // The analysis report owns stdout in this mode.
            return Err(
                "--stream-out - writes the trace to stdout; that clashes with the \
                 --stream-reduce report — give a file path instead"
                    .into(),
            );
        }
        Some(path) => Some(path.to_string()),
        None => None,
    };
    let mut tee_sink = stream_out.as_deref().map(durable_file).transpose()?;
    let streamed = limba_stream::stream_reduce_tee(
        &sim,
        program,
        faults,
        balance,
        None,
        &cfg,
        tee_sink.as_mut().map(|s| s as &mut (dyn TraceSink + Send)),
    )
    .map_err(|e| e.to_string())?;
    drop(tee_sink);

    let output = &streamed.output;
    out!(
        "{}",
        run_summary(
            workload,
            ranks,
            &output.stats,
            faults.and(Some(&output.faults)),
            balance.and(Some(&output.balance)),
        )
    );
    match &stream_out {
        Some(path) => outln!(
            "streamed reduce: {} events in frames of {frame_events}, trace teed to {path}",
            streamed.scan.events
        ),
        None => outln!(
            "streamed reduce: {} events in frames of {frame_events}, no tracefile written",
            streamed.scan.events
        ),
    }
    opts.print_report(&streamed.salvaged)?;
    if let Some(sliced) = streamed.windows {
        opts.print_evolution(sliced)?;
    }
    Ok(crate::CmdOutcome::Complete)
}

/// `--stream-out` without `--stream-reduce`: run the streaming
/// simulator with a [`WriteSink`](limba_trace::WriteSink) so the
/// chunked-v3 trace is encoded and written on a second thread as rounds
/// retire — the trace is never resident. `-` writes the container to
/// stdout (status lines move to stderr), which is what makes
/// `limba simulate ... --stream-out - | limba analyze -`
/// a real pipe; a reader that goes away stops the run at the next round
/// boundary, and the command ends quietly.
#[allow(clippy::too_many_arguments)]
fn run_stream_out(
    parsed: &Parsed,
    workload: &str,
    program: &Program,
    ranks: usize,
    engine: Engine,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    jobs: usize,
    replications: usize,
) -> Result<crate::CmdOutcome, String> {
    let (_, frame_events) = check_streaming(
        parsed,
        "--stream-out",
        "names the tracefile itself",
        engine,
        jobs,
        replications,
    )?;
    let path = parsed.get("stream-out").unwrap_or("-");
    let to_stdout = path == "-";
    let sim = Simulator::new(MachineConfig::new(ranks));

    let mut sink: Box<dyn TraceSink + Send> = if to_stdout {
        Box::new(limba_trace::WriteSink::new(std::io::BufWriter::new(
            limba_viz::stdout::StreamStdout,
        )))
    } else {
        Box::new(durable_file(path)?)
    };
    let written = limba_stream::pipelined(sink.as_mut(), |sink| {
        engine.run_streaming(
            "--stream-out",
            &sim,
            program,
            faults,
            balance,
            jobs,
            sink,
            frame_events,
        )
    });
    let output = match written {
        Ok(output) => output?,
        Err(_) if to_stdout && limba_viz::stdout::closed() => {
            return Ok(crate::CmdOutcome::Complete)
        }
        Err(e) => return Err(limba_mpisim::SimError::Trace(e).to_string()),
    };

    // When the trace owns stdout, the human-readable summary moves to
    // stderr so the pipe stays clean binary.
    let mut status = run_summary(
        workload,
        ranks,
        &output.stats,
        faults.and(Some(&output.faults)),
        balance.and(Some(&output.balance)),
    );
    status += &format!(
        "trace streamed to {} (chunked v3, frames of {frame_events} events)\n",
        if to_stdout { "stdout" } else { path }
    );
    if to_stdout {
        eprint!("{status}");
    } else {
        out!("{status}");
    }
    Ok(crate::CmdOutcome::Complete)
}

/// Runs `limba simulate <workload> [options]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &FLAGS)?;
    // `--faults list` is a query, not a run: answer it even without a
    // workload on the command line.
    if parsed.get("faults") == Some("list") {
        out!("{}", render_fault_presets());
        return Ok(crate::CmdOutcome::Complete);
    }
    // Same for `--balance list`.
    if parsed.get("balance") == Some("list") {
        out!("{}", render_balance_presets());
        return Ok(crate::CmdOutcome::Complete);
    }
    let workload = parsed
        .positional
        .first()
        .ok_or("simulate needs a workload name")?
        .clone();
    let ranks: usize = parsed.get_or("ranks", 16)?;
    let iterations: Option<usize> = match parsed.get("iterations") {
        Some(v) => Some(v.parse().map_err(|_| "invalid --iterations")?),
        None => None,
    };
    let imbalance = match parsed.get("imbalance") {
        Some(spec) => parse_imbalance(spec)?,
        None => Imbalance::None,
    };
    let seed: u64 = parsed.get_or("seed", 0)?;
    let replications: usize = parsed.get_or("replications", 1)?;
    let jobs: usize = parsed.get_or("jobs", 1)?;
    let out = parsed.get("out").unwrap_or("trace.limba").to_string();
    let format = parsed.get("format").unwrap_or("binary").to_string();
    let engine = Engine::parse(parsed.get("engine").unwrap_or("event"))?;
    let supervision = Supervision::from_args(&parsed)?;

    let program = build_program(&workload, ranks, iterations, imbalance, seed)?;
    let faults = match parsed.get("faults") {
        Some(spec) => Some(load_fault_plan(spec, &program, ranks)?),
        None => None,
    };
    let balance = match parsed.get("balance") {
        Some(spec) => Some(load_balance_plan(spec)?),
        None => None,
    };

    if parsed.has("stream-reduce") {
        return run_stream_reduce(
            &parsed,
            &workload,
            &program,
            ranks,
            engine,
            faults.as_ref(),
            balance.as_ref(),
            jobs,
            replications,
        );
    }

    if parsed.get("stream-out").is_some() {
        return run_stream_out(
            &parsed,
            &workload,
            &program,
            ranks,
            engine,
            faults.as_ref(),
            balance.as_ref(),
            jobs,
            replications,
        );
    }

    if replications > 1 {
        // Replication sweep: summary statistics only, no tracefile.
        let spec = SweepSpec {
            workload: &workload,
            ranks,
            iterations,
            imbalance,
            root_seed: seed,
            replications,
            jobs,
            faults: faults.as_ref(),
            balance: balance.as_ref(),
        };
        let (table, manifest) = render_sweep(&spec, &supervision)?;
        out!("{table}");
        supervision.write_manifest(&manifest)?;
        return Ok(Supervision::outcome_of(&manifest));
    }

    let sim = Simulator::new(MachineConfig::new(ranks));
    let output = engine.run(&sim, &program, faults.as_ref(), balance.as_ref(), jobs)?;
    write_trace(&output.trace, &out, &format)?;
    out!(
        "{}",
        run_summary(
            &workload,
            ranks,
            &output.stats,
            faults.and(Some(&output.faults)),
            balance.and(Some(&output.balance)),
        )
    );
    outln!(
        "trace written to {out} ({format}, {} events)",
        output.trace.events().len()
    );
    Ok(crate::CmdOutcome::Complete)
}

/// Runs `limba demo`: CFD proxy with injected skew, analyzed in memory.
pub(crate) fn demo(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    parse(
        argv,
        &Flags {
            command: "demo",
            options: &[],
            switches: &[],
        },
    )?;
    let program = CfdConfig::new(16)
        .with_iterations(2)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .build_program()
        .map_err(|e| e.to_string())?;
    let sim = Simulator::new(MachineConfig::new(16));
    let (_, salvaged) = fold_run(&sim, &program, None, None)?;
    let report = limba_analysis::Analyzer::new()
        .analyze(&salvaged.reduced.measurements)
        .map_err(|e| e.to_string())?;
    out!("{}", limba_viz::report::render(&report));
    Ok(crate::CmdOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulate_with(
        program: &Program,
        ranks: usize,
        engine: Engine,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        jobs: usize,
    ) -> Result<SimOutput, String> {
        let sim = Simulator::new(MachineConfig::new(ranks));
        engine.run(&sim, program, faults, balance, jobs)
    }

    #[test]
    fn builds_every_workload() {
        for w in [
            "cfd",
            "stencil",
            "master-worker",
            "pipeline",
            "irregular",
            "fft",
            "sweep",
            "amr",
        ] {
            let p = build_program(w, 8, None, Imbalance::None, 0).unwrap();
            assert!(p.total_ops() > 0, "{w} is empty");
        }
        assert!(build_program("nope", 8, None, Imbalance::None, 0).is_err());
    }

    fn jitter_spec(jobs: usize) -> SweepSpec<'static> {
        SweepSpec {
            workload: "cfd",
            ranks: 4,
            iterations: Some(1),
            imbalance: Imbalance::RandomJitter { amplitude: 0.2 },
            root_seed: 42,
            replications: 6,
            jobs,
            faults: None,
            balance: None,
        }
    }

    #[test]
    fn sweep_output_is_byte_identical_across_job_counts() {
        let (reference, manifest) = render_sweep(&jitter_spec(1), &Supervision::none()).unwrap();
        assert!(reference.contains("6 replications"));
        assert!(manifest.is_complete());
        for jobs in [2, 4, 8] {
            let (sweep, _) = render_sweep(&jitter_spec(jobs), &Supervision::none()).unwrap();
            assert_eq!(sweep, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn faulted_sweep_is_byte_identical_across_job_counts() {
        let plan = FaultPlan::new(3).with_message_loss(0.2, 3, 1e-4, 2.0);
        let spec = |jobs| SweepSpec {
            workload: "cfd",
            ranks: 4,
            iterations: Some(1),
            imbalance: Imbalance::None,
            root_seed: 9,
            replications: 4,
            jobs,
            faults: Some(&plan),
            balance: None,
        };
        let (reference, _) = render_sweep(&spec(1), &Supervision::none()).unwrap();
        for jobs in [2, 8] {
            let (sweep, _) = render_sweep(&spec(jobs), &Supervision::none()).unwrap();
            assert_eq!(sweep, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_matches_the_replication_api() {
        // The supervised sweep must reproduce run_replications exactly:
        // same derived seeds, same outputs.
        let spec = jitter_spec(1);
        let sim = Simulator::new(MachineConfig::new(spec.ranks));
        let reference = sim.run_replications(
            spec.replications,
            spec.root_seed,
            1,
            None,
            None,
            |_, seed| {
                build_program(
                    spec.workload,
                    spec.ranks,
                    spec.iterations,
                    spec.imbalance,
                    seed,
                )
                .map_err(|detail| limba_mpisim::SimError::BuildFailed { detail })
            },
        );
        let (table, _) = render_sweep(&spec, &Supervision::none()).unwrap();
        for rep in reference.iter().map(|r| r.as_ref().unwrap()) {
            let row = format!(
                "{:>4} {:>20} {:>11.4}s {:>10} {:>12}",
                rep.index,
                rep.seed,
                rep.output.stats.makespan,
                rep.output.stats.messages,
                rep.output.stats.bytes
            );
            assert!(table.contains(&row), "missing row: {row}\n{table}");
        }
    }

    #[test]
    fn failing_replication_becomes_an_error_row_not_an_abort() {
        // An unknown workload fails every replication's build step; the
        // sweep still renders, one error row per seed.
        let spec = SweepSpec {
            workload: "nope",
            ranks: 4,
            iterations: None,
            imbalance: Imbalance::None,
            root_seed: 0,
            replications: 3,
            jobs: 2,
            faults: None,
            balance: None,
        };
        let (table, manifest) = render_sweep(&spec, &Supervision::none()).unwrap();
        assert_eq!(manifest.failures.len(), 3);
        assert!(!manifest.is_complete());
        assert_eq!(table.matches("error:").count(), 3, "{table}");
        assert!(table.contains("no replications completed"), "{table}");
        assert!(table.contains("3 failed"), "{table}");
    }

    #[test]
    fn interrupted_sweep_resumes_to_byte_identical_output() {
        let (reference, _) = render_sweep(&jitter_spec(1), &Supervision::none()).unwrap();
        for jobs in [1usize, 4] {
            let path = std::env::temp_dir().join(format!("limba-cli-sweep-resume-{jobs}.ckpt"));
            std::fs::remove_file(&path).ok();
            // Interrupt after 2 of 6 replications.
            let interrupted = Supervision {
                max_units: Some(2),
                checkpoint: Some(path.clone()),
                ..Supervision::none()
            };
            let (partial, manifest) = render_sweep(&jitter_spec(1), &interrupted).unwrap();
            assert!(!manifest.is_complete(), "jobs={jobs}");
            assert_eq!(manifest.completed, 2, "jobs={jobs}");
            assert!(partial.contains("not run (interrupted)"), "{partial}");
            assert!(partial.contains("--resume"), "{partial}");
            // Resume to completion at this jobs count.
            let resumed = Supervision {
                checkpoint: Some(path.clone()),
                resume: true,
                ..Supervision::none()
            };
            let (full, manifest) = render_sweep(&jitter_spec(jobs), &resumed).unwrap();
            assert!(manifest.is_complete(), "jobs={jobs}");
            assert_eq!(manifest.cached, 2, "jobs={jobs}");
            assert_eq!(full, reference, "jobs={jobs}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn sweep_rejects_unknown_workload_checkpoint_mismatch() {
        // A checkpoint written under one spec is refused by another.
        let path = std::env::temp_dir().join("limba-cli-sweep-fpr.ckpt");
        std::fs::remove_file(&path).ok();
        let sup = Supervision {
            checkpoint: Some(path.clone()),
            ..Supervision::none()
        };
        render_sweep(&jitter_spec(1), &sup).unwrap();
        let resume = Supervision {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Supervision::none()
        };
        let mut other = jitter_spec(1);
        other.root_seed = 43;
        let err = render_sweep(&other, &resume).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_flag_parses_and_engines_agree() {
        assert_eq!(Engine::parse("event").unwrap(), Engine::Event);
        assert_eq!(Engine::parse("event-par").unwrap(), Engine::EventPar);
        assert_eq!(Engine::parse("polling").unwrap(), Engine::Polling);
        assert!(Engine::parse("turbo").is_err());

        let p = build_program("cfd", 6, Some(1), Imbalance::LinearSkew { spread: 0.3 }, 7).unwrap();
        let event = simulate_with(&p, 6, Engine::Event, None, None, 1).unwrap();
        let polling = simulate_with(&p, 6, Engine::Polling, None, None, 1).unwrap();
        assert_eq!(event.trace, polling.trace);
        for jobs in [1, 2, 4] {
            let par = simulate_with(&p, 6, Engine::EventPar, None, None, jobs).unwrap();
            assert_eq!(par.trace, event.trace, "jobs={jobs}");
            assert_eq!(par.stats, event.stats, "jobs={jobs}");
        }
    }

    #[test]
    fn fault_plans_load_from_toml_and_presets() {
        let p = build_program("cfd", 4, Some(1), Imbalance::None, 0).unwrap();

        // TOML file path.
        let path = std::env::temp_dir().join("limba-cli-faults.toml");
        std::fs::write(&path, "seed = 5\n[[crash]]\nrank = 3\ntime = 0.001\n").unwrap();
        let plan = load_fault_plan(path.to_str().unwrap(), &p, 4).unwrap();
        assert_eq!(plan.crashes.len(), 1);
        std::fs::remove_file(&path).ok();

        // Preset scaled to the clean run's makespan.
        let plan = load_fault_plan("preset:straggler", &p, 4).unwrap();
        assert_eq!(plan.slowdowns.len(), 1);
        assert!(load_fault_plan("preset:hurricane", &p, 4)
            .unwrap_err()
            .contains("unknown fault preset"));

        // A plan referencing ranks outside the machine is rejected here.
        let path = std::env::temp_dir().join("limba-cli-bad-faults.toml");
        std::fs::write(&path, "[[crash]]\nrank = 9\ntime = 1.0\n").unwrap();
        assert!(load_fault_plan(path.to_str().unwrap(), &p, 4).is_err());
        std::fs::remove_file(&path).ok();

        // All three engines honor the same plan identically.
        let plan = load_fault_plan("preset:chaos", &p, 4).unwrap();
        let event = simulate_with(&p, 4, Engine::Event, Some(&plan), None, 1).unwrap();
        let polling = simulate_with(&p, 4, Engine::Polling, Some(&plan), None, 1).unwrap();
        let par = simulate_with(&p, 4, Engine::EventPar, Some(&plan), None, 4).unwrap();
        assert_eq!(event.trace, polling.trace);
        assert_eq!(event.stats, polling.stats);
        assert_eq!(event.faults, polling.faults);
        assert_eq!(par.trace, event.trace);
        assert_eq!(par.faults, event.faults);
        assert!(!event.faults.is_clean());
        assert!(describe_faults(&event.faults).contains("crashed"));
    }

    #[test]
    fn balance_plans_load_from_toml_and_presets() {
        // TOML file path.
        let path = std::env::temp_dir().join("limba-cli-balance.toml");
        std::fs::write(&path, "policy = \"stealing\"\nseed = 5\nthreshold = 1.2\n").unwrap();
        let plan = load_balance_plan(path.to_str().unwrap()).unwrap();
        assert_eq!(plan.policy_name(), "stealing");
        assert_eq!(plan.seed(), 5);
        std::fs::remove_file(&path).ok();

        // Presets.
        let plan = load_balance_plan("preset:diffusion").unwrap();
        assert_eq!(plan.policy_name(), "diffusion");
        assert!(load_balance_plan("preset:hurricane")
            .unwrap_err()
            .contains("unknown balance preset"));

        // Out-of-range parameters are rejected at load time.
        let path = std::env::temp_dir().join("limba-cli-bad-balance.toml");
        std::fs::write(&path, "policy = \"stealing\"\nthreshold = 0.2\n").unwrap();
        assert!(load_balance_plan(path.to_str().unwrap()).is_err());
        std::fs::remove_file(&path).ok();

        // Both engines honor the same plan identically, and balancing
        // improves an imbalanced run.
        let p = build_program("cfd", 6, Some(2), Imbalance::LinearSkew { spread: 0.4 }, 7).unwrap();
        let base = simulate_with(&p, 6, Engine::Event, None, None, 1).unwrap();
        let plan = load_balance_plan("preset:stealing").unwrap();
        let event = simulate_with(&p, 6, Engine::Event, None, Some(&plan), 1).unwrap();
        let polling = simulate_with(&p, 6, Engine::Polling, None, Some(&plan), 1).unwrap();
        let par = simulate_with(&p, 6, Engine::EventPar, None, Some(&plan), 4).unwrap();
        assert_eq!(event.trace, polling.trace);
        assert_eq!(event.stats, polling.stats);
        assert_eq!(event.balance, polling.balance);
        assert_eq!(par.trace, event.trace);
        assert_eq!(par.balance, event.balance);
        assert!(event.balance.migrations > 0);
        assert!(event.stats.makespan < base.stats.makespan);
        assert!(describe_balance(&event.balance).contains("migrations"));
    }

    #[test]
    fn balance_preset_listing_names_every_preset() {
        let listing = render_balance_presets();
        for &name in limba_workloads::balance::PRESETS {
            assert!(listing.contains(name), "missing {name}");
        }
        assert!(listing.contains("preset:<name>"));
    }

    #[test]
    fn balanced_sweep_is_byte_identical_across_job_counts() {
        let plan = limba_workloads::balance::preset("stealing").unwrap();
        let spec = |jobs| SweepSpec {
            workload: "cfd",
            ranks: 4,
            iterations: Some(1),
            imbalance: Imbalance::RandomJitter { amplitude: 0.3 },
            root_seed: 11,
            replications: 4,
            jobs,
            faults: None,
            balance: Some(&plan),
        };
        let (reference, _) = render_sweep(&spec(1), &Supervision::none()).unwrap();
        for jobs in [2, 8] {
            let (sweep, _) = render_sweep(&spec(jobs), &Supervision::none()).unwrap();
            assert_eq!(sweep, reference, "jobs={jobs}");
        }
        // Balancing is part of the fingerprint: a balanced sweep's
        // checkpoint is not interchangeable with an unbalanced one.
        let mut unbalanced = spec(1);
        unbalanced.balance = None;
        assert_ne!(spec(1).fingerprint(), unbalanced.fingerprint());
    }

    #[test]
    fn fault_preset_listing_names_every_preset() {
        let listing = render_fault_presets();
        for &name in limba_workloads::faults::PRESETS {
            assert!(listing.contains(name), "missing {name}");
        }
        assert!(listing.contains("preset:<name>"));
    }

    #[test]
    fn stencil_grid_factors_rank_count() {
        // 12 ranks → 3×4 or 4×3; must build and simulate.
        let p = build_program("stencil", 12, Some(2), Imbalance::None, 0).unwrap();
        simulate_with(&p, 12, Engine::Event, None, None, 1).unwrap();
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stream_reduce_rejects_incompatible_flags() {
        let err = run(&args(&["cfd", "--stream-reduce", "--engine", "polling"])).unwrap_err();
        assert!(err.contains("event or event-par"), "{err}");
        let err = run(&args(&["cfd", "--stream-reduce", "--replications", "3"])).unwrap_err();
        assert!(err.contains("single run"), "{err}");
        let err = run(&args(&["cfd", "--stream-reduce", "--out", "t.limba"])).unwrap_err();
        assert!(err.contains("no tracefile"), "{err}");
        let err = run(&args(&[
            "cfd",
            "--stream-reduce",
            "--stream-frame-events",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn stream_reduce_runs_end_to_end() {
        // Both engines, with windows, without a tracefile in sight.
        for engine in ["event", "event-par"] {
            let outcome = run(&args(&[
                "cfd",
                "--ranks",
                "4",
                "--stream-reduce",
                "--engine",
                engine,
                "--jobs",
                "2",
                "--windows",
                "3",
                "--stream-frame-events",
                "7",
            ]))
            .unwrap();
            assert!(matches!(outcome, crate::CmdOutcome::Complete));
        }
    }

    #[test]
    fn stream_out_rejects_incompatible_flags() {
        let err = run(&args(&[
            "cfd",
            "--stream-out",
            "t.trc",
            "--engine",
            "polling",
        ]))
        .unwrap_err();
        assert!(err.contains("event or event-par"), "{err}");
        let err = run(&args(&[
            "cfd",
            "--stream-out",
            "t.trc",
            "--replications",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("single run"), "{err}");
        let err = run(&args(&["cfd", "--stream-out", "t.trc", "--out", "t.limba"])).unwrap_err();
        assert!(err.contains("drop --out"), "{err}");
        // Teeing to stdout while the report also prints there is refused.
        let err = run(&args(&["cfd", "--stream-out", "-", "--stream-reduce"])).unwrap_err();
        assert!(err.contains("clashes"), "{err}");
    }

    #[test]
    fn stream_out_writes_the_materialized_bytes() {
        // The streamed container must be byte-identical to encoding the
        // materialized trace of the same run.
        let dir = std::env::temp_dir();
        let program = build_program("cfd", 4, Some(1), Imbalance::None, 0).unwrap();
        let reference = simulate_with(&program, 4, Engine::Event, None, None, 1).unwrap();
        let mut expect = Vec::new();
        {
            use limba_trace::TraceSink;
            let mut sink = limba_trace::WriteSink::new(&mut expect);
            sink.begin(reference.trace.processors(), reference.trace.region_names())
                .unwrap();
            sink.events(reference.trace.events()).unwrap();
            sink.finish().unwrap();
        }
        for (label, extra) in [
            ("event", vec![]),
            ("event-par", vec!["--jobs", "2"]),
            ("tee", vec!["--stream-reduce"]),
        ] {
            let path = dir.join(format!("limba-cli-stream-out-{label}.trc"));
            let mut argv = vec![
                "cfd",
                "--ranks",
                "4",
                "--stream-out",
                path.to_str().unwrap(),
            ];
            if label == "event-par" {
                argv.extend(["--engine", "event-par"]);
            }
            argv.extend(extra);
            run(&args(&argv)).unwrap();
            let got = std::fs::read(&path).unwrap();
            // The tee writes whole frames as the reducer sees them; the
            // standalone path frames by --stream-frame-events. Frame
            // boundaries differ but the decoded trace must not, and for
            // equal framing the bytes are identical.
            if label == "event" {
                assert_eq!(got, expect, "streamed bytes diverge ({label})");
            }
            let decoded = limba_trace::binary::from_bytes(&got).unwrap();
            assert_eq!(decoded.events(), reference.trace.events(), "{label}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn trace_round_trips_through_files() {
        let dir = std::env::temp_dir();
        let program = build_program("cfd", 4, Some(1), Imbalance::None, 0).unwrap();
        let out = simulate_with(&program, 4, Engine::Event, None, None, 1).unwrap();
        for format in ["binary", "text"] {
            let path = dir.join(format!("limba-cli-test.{format}"));
            let path = path.to_str().unwrap();
            write_trace(&out.trace, path, format).unwrap();
            let mut back = limba_trace::MaterializeSink::new();
            crate::tracefile::read_trace(path, format, &mut back, None).unwrap();
            assert_eq!(back.into_trace().unwrap(), out.trace);
            std::fs::remove_file(path).ok();
        }
    }
}
