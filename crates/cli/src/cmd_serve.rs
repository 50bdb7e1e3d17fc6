//! `limba serve` / `limba push` / `limba query` — the live ingestion
//! service and its clients.
//!
//! `serve` runs the multi-tenant trace-ingestion server: concurrent
//! chunked-v3 streams spool to disk and fold incrementally through the
//! online imbalance detector; a completed run's report is byte-identical
//! to `limba analyze <spool>`. `push` streams a tracefile
//! — or a live simulation that is never materialized — into a serving
//! tenant. `query` speaks the one-line text protocol (STATUS, TENANTS,
//! RUNS, REPORT, DIGEST, ALERTS, EVOLUTION, SHUTDOWN).

use limba_mpisim::{MachineConfig, Simulator};
use limba_serve::client::{self, PushStatus};
use limba_serve::{DetectorConfig, PushSession, ServeConfig, Server};

use crate::args::{parse, parse_imbalance, Flags, Parsed};
use crate::cmd_simulate::{build_program, Engine};
use limba_workloads::Imbalance;

/// Default listen / connect address for the serving protocol.
const DEFAULT_ADDR: &str = "127.0.0.1:7979";

/// The flags `serve` accepts.
const SERVE_FLAGS: Flags = Flags {
    command: "serve",
    options: &[
        &["listen", "max-tenants", "max-sessions", "shards", "window"],
        &["checkpoint-dir", "io-faults"],
    ],
    switches: &[],
};

/// Runs `limba serve [OPTIONS]`.
pub(crate) fn serve(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &SERVE_FLAGS)?;
    if let Some(extra) = parsed.positional.first() {
        return Err(format!(
            "serve takes no positional arguments, got {extra:?}"
        ));
    }
    let listen = parsed.get("listen").unwrap_or(DEFAULT_ADDR).to_string();
    let mut cfg = ServeConfig {
        max_tenants: parsed.get_or("max-tenants", 8)?,
        shards: parsed.get_or("shards", 2)?,
        ..ServeConfig::default()
    };
    cfg.max_sessions = parsed.get_or("max-sessions", cfg.max_sessions)?;
    if cfg.max_tenants == 0 {
        return Err("--max-tenants must be positive".into());
    }
    if cfg.max_sessions == 0 {
        return Err("--max-sessions must be positive".into());
    }
    if cfg.shards == 0 {
        return Err("--shards must be positive".into());
    }
    let window: f64 = parsed.get_or("window", DetectorConfig::default().window)?;
    if window.is_nan() || window <= 0.0 {
        return Err("--window must be a positive number of seconds".into());
    }
    cfg.detector = DetectorConfig {
        window,
        ..DetectorConfig::default()
    };
    if let Some(dir) = parsed.get("checkpoint-dir") {
        cfg.checkpoint_dir = Some(dir.into());
    }
    if let Some(spec) = parsed.get("io-faults") {
        // Deterministic fault injection for chaos testing: every
        // durable artifact (spools, run metadata) goes through the
        // faulting layer, while sockets stay untouched.
        let plan = limba_vfs::FaultPlan::parse(spec).map_err(|e| format!("--io-faults: {e}"))?;
        cfg.vfs = std::sync::Arc::new(limba_vfs::FaultVfs::new(
            std::sync::Arc::new(limba_vfs::StdVfs),
            plan,
        ));
        eprintln!("limba-serve: injecting I/O faults ({spec})");
    }

    let persistent = cfg.checkpoint_dir.is_some();
    let server = Server::start(&listen, cfg).map_err(|e| e.to_string())?;
    outln!(
        "limba-serve listening on {} ({})",
        server.addr(),
        if persistent {
            "checkpointed: runs survive restarts"
        } else {
            "ephemeral: no --checkpoint-dir"
        }
    );
    outln!("stop with `limba query SHUTDOWN --to {}`", server.addr());
    server.wait_cancelled();
    server.shutdown().map_err(|e| e.to_string())?;
    outln!("limba-serve stopped");
    Ok(crate::CmdOutcome::Complete)
}

/// The flags `push` accepts.
const PUSH_FLAGS: Flags = Flags {
    command: "push",
    options: &[
        &["to", "tenant", "run", "workload"],
        &["ranks", "iterations", "imbalance", "seed", "jobs", "engine"],
        &["stream-frame-events"],
    ],
    switches: &[],
};

/// Runs `limba push [<tracefile>] [OPTIONS]`.
pub(crate) fn push(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &PUSH_FLAGS)?;
    let addr = parsed.get("to").unwrap_or(DEFAULT_ADDR).to_string();
    let tenant = parsed.get("tenant").unwrap_or("default").to_string();

    let tracefile = parsed.positional.first();
    let workload = parsed.get("workload");
    let (source, default_run): (Source, String) = match (tracefile, workload) {
        (Some(path), None) => {
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("run")
                .to_string();
            (Source::File(path.clone()), stem)
        }
        (None, Some(w)) => (Source::Workload(w.to_string()), w.to_string()),
        (Some(_), Some(_)) => {
            return Err("push takes a tracefile or --workload, not both".into());
        }
        (None, None) => {
            return Err("push needs a tracefile path or --workload <name>".into());
        }
    };
    let run = parsed.get("run").unwrap_or(&default_run).to_string();

    let session = PushSession::connect(&addr, &tenant, &run).map_err(|e| e.to_string())?;
    if session.offset() > 0 {
        outln!(
            "resuming {tenant}/{run}: server holds {} bytes, skipping",
            session.offset()
        );
    }
    let outcome = match source {
        Source::File(path) => session
            .push_file(std::path::Path::new(&path))
            .map_err(|e| e.to_string())?,
        Source::Workload(w) => {
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
            let jobs: usize = parsed.get_or("jobs", 1)?;
            let frame_events: usize = parsed.get_or("stream-frame-events", 4096)?;
            if frame_events == 0 {
                return Err("--stream-frame-events must be positive".into());
            }
            let engine = Engine::parse(parsed.get("engine").unwrap_or("event"))?;
            let program = build_program(&w, ranks, iterations, imbalance, seed)?;
            let sim = Simulator::new(MachineConfig::new(ranks));
            // The simulation streams straight into the socket; on
            // resume the first `offset` bytes are regenerated and
            // discarded client-side, so the server appends the exact
            // missing suffix.
            session
                .push_sink(|sink| {
                    engine
                        .run_streaming(
                            "push --workload",
                            &sim,
                            &program,
                            None,
                            None,
                            jobs,
                            sink,
                            frame_events,
                        )
                        .map(|_| ())
                        .map_err(limba_serve::ServeError::State)
                })
                .map_err(|e| e.to_string())?
        }
    };
    match outcome.status {
        PushStatus::Complete => {
            outln!("run {tenant}/{run} complete; final report:");
            out!("{}", outcome.report);
            Ok(crate::CmdOutcome::Complete)
        }
        PushStatus::Salvaged => {
            outln!("run {tenant}/{run} ended early; salvaged report:");
            out!("{}", outcome.report);
            Ok(crate::CmdOutcome::Partial)
        }
    }
}

/// What `push` streams.
enum Source {
    /// An existing chunked-v3 tracefile.
    File(String),
    /// A live simulation of the named workload.
    Workload(String),
}

/// The flags `query` accepts.
const QUERY_FLAGS: Flags = Flags {
    command: "query",
    options: &[&["to"]],
    switches: &[],
};

/// Runs `limba query <words...> [--to ADDR]`.
pub(crate) fn query(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &QUERY_FLAGS)?;
    if parsed.positional.is_empty() {
        return Err(
            "query needs a request, e.g. `limba query STATUS` or `limba query REPORT t r`".into(),
        );
    }
    let addr = parsed.get("to").unwrap_or(DEFAULT_ADDR).to_string();
    let line = parsed.positional.join(" ");
    let response = client::query(&addr, &line).map_err(|e| e.to_string())?;
    out!("{response}");
    Ok(crate::CmdOutcome::Complete)
}
