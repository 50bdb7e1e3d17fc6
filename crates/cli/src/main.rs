//! `limba` — the load-imbalance performance tool.
//!
//! The paper's conclusion calls for integrating the methodology "into a
//! performance tool": this binary is that tool. It simulates workloads on
//! the message-passing machine model, writes tracefiles, analyzes them,
//! and regenerates the paper's tables and figures.

use std::process::ExitCode;

// `out!` and `outln!` in every module: stdout as `limba_viz::stdout`
// writes it.
#[macro_use]
extern crate limba_viz;

mod args;
mod cmd_advise;
mod cmd_analyze;
mod cmd_compare;
mod cmd_paper;
mod cmd_serve;
mod cmd_simulate;
mod cmd_suite;
mod cmd_timeline;
mod supervise;
mod tracefile;

/// How a subcommand finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmdOutcome {
    /// Everything the command was asked to produce was produced.
    Complete,
    /// The command produced *some* results but was interrupted (deadline,
    /// unit cap, cancellation) or had failing units. The process exits
    /// with [`PARTIAL_EXIT_CODE`] so scripts can distinguish "resume me"
    /// from success and from hard errors.
    Partial,
}

/// Exit code for runs that finished with partial results.
pub(crate) const PARTIAL_EXIT_CODE: u8 = 3;

const USAGE: &str = "\
limba — load-imbalance analysis of parallel programs

USAGE:
  limba simulate <workload> [OPTIONS]   run a workload, write a tracefile
  limba analyze <tracefile> [OPTIONS]   analyze a tracefile, print the report
  limba advise <tracefile> [OPTIONS]    recommend, predict, and simulate-verify fixes
  limba advise --workload W [OPTIONS]   same, on a synthetic workload scenario
  limba compare <before> <after>        verify a tuning change between two traces
  limba paper [OPTIONS]                 regenerate the paper's case study
  limba suite [--ranks N] [--jobs N]    sweep all workloads × injectors, print a summary
  limba timeline <tracefile> [OPTIONS]  render a tracefile as an SVG timeline
  limba serve [OPTIONS]                 run the live multi-tenant trace-ingestion
                                        service with online imbalance detection
  limba push [<tracefile>] [OPTIONS]    stream a tracefile (or a live simulation
                                        via --workload) into a serving tenant
  limba query <words...> [--to ADDR]    query a running server (STATUS, TENANTS,
                                        RUNS t, REPORT t r, DIGEST t r,
                                        ALERTS t r, EVOLUTION t r n, SHUTDOWN)
  limba demo                            simulate the CFD proxy and analyze it

WORKLOADS (simulate):
  cfd | stencil | master-worker | pipeline | irregular | fft | sweep | amr

OPTIONS (simulate):
  --ranks N              number of MPI ranks (default 16)
  --iterations N         iterations / steps / items (default workload-specific)
  --imbalance SPEC       none | linear:SPREAD | block:HEAVY,FACTOR |
                         jitter:AMPLITUDE | hotspot:RANK,FACTOR
  --seed N               RNG seed for stochastic injectors (default 0)
  --replications N       run N independent replications with SplitMix64-derived
                         seeds and print summary statistics (default 1)
  --jobs N               worker threads for --replications and for
                         --engine event-par; results are byte-identical
                         for every N, 0 = all CPUs (default 1)
  --faults SPEC          inject a deterministic fault plan (TOML file,
                         preset:<name>, or list to print the presets)
  --balance SPEC         rebalance load dynamically mid-run (TOML file,
                         preset:<name>, or list to print the policies)
  --out PATH             tracefile path (default trace.limba)
  --format FMT           binary | text (default binary)
  --engine ENGINE        event | event-par | polling — execution core; all
                         produce bit-identical traces (default event;
                         event-par shards rank execution over --jobs threads)
  --stream-reduce        fold the run into the analysis report as it
                         simulates: bounded memory, no tracefile; accepts
                         the analyze knobs (--dispersion/--criterion/
                         --clusters/--windows) and needs an event engine
  --stream-out PATH      stream the chunked-v3 trace to PATH as rounds retire
                         instead of materializing it; `-` writes the container
                         to stdout (status moves to stderr) so it pipes into
                         `limba analyze -`; composes with
                         --stream-reduce to tee the trace while reducing
  --stream-frame-events N  events per streamed frame (default 4096)

OPTIONS (serve):
  --listen ADDR          bind address (default 127.0.0.1:7979; port 0 = any)
  --max-tenants N        admission cap on distinct active tenants (default 8;
                         completed/failed runs stop counting toward the cap)
  --max-sessions N       cap on concurrent connections; excess connections are
                         dropped at accept (default 64)
  --shards N             ingestion shards — folds for different tenants
                         proceed on N worker threads (default 2)
  --window SECS          online detector window width in seconds (default 0.25)
  --checkpoint-dir DIR   persist spools + run metadata under DIR; a restarted
                         server resumes every tenant byte-identically (torn
                         spool tails are scrubbed back to the last sealed
                         chunk boundary at startup)
  --io-faults SPEC       inject deterministic disk faults into every durable
                         write (chaos testing): KIND[:at=N][:after=BYTES]
                         [:match=SUBSTR][:seed=N] with KIND one of enospc,
                         eio, short-write, rename-fail, power-cut; a faulting
                         run degrades to a resumable partial, other tenants
                         keep serving

OPTIONS (push):
  --to ADDR              server address (default 127.0.0.1:7979)
  --tenant NAME          tenant to ingest under (default `default`)
  --run NAME             run id (default: tracefile stem or workload name)
  --workload W           stream a live simulation instead of a tracefile
                         (simulate's --ranks/--iterations/--imbalance/--seed/
                         --jobs/--engine/--stream-frame-events apply)
  exits 0 when the run completed, 3 when the stream ended early or a disk
  fault degraded it and the server salvaged a partial run (reconnect to
  resume from the server's durable offset)

OPTIONS (analyze):
  --dispersion KIND      euclidean | variance | cv | mad | max-excess |
                         range | gini (default euclidean)
  --criterion SPEC       max | topk:N | threshold:X | percentile:P
  --clusters N           number of region clusters, 0 disables (default 2)
  --drilldown on         also run the hierarchical top-down localization
  --csv DIR              also export the tables as CSV files into DIR
  --windows N            also slice the run into N windows and report how
                         each activity's imbalance evolves (default off)
  --format FMT           tracefile format: auto | binary | text (default auto)
  --from-stream          accepted and ignored: every command folds its
                         tracefile in 64 KiB chunks (`-` reads stdin)

OPTIONS (advise):
  --workload W           advise on a synthetic workload instead of a tracefile
                         (same names as simulate; --ranks/--iterations/--seed
                         apply; --imbalance defaults to linear:0.4 here)
  --budget N             max intervention combos to predict (default 64)
  --top K                candidates to simulate-verify and report (default 3)
  --beam N               beam width of the combo search (default 8)
  --depth N              max interventions per combo (default 2)
  --jobs N               worker threads; output is byte-identical for every N
  --faults SPEC          verify under a fault plan (TOML file, preset:<name>,
                         or list to print the presets)
  --json                 machine-readable digest instead of the text report

OPTIONS (timeline):
  --out PATH             output SVG path (default timeline.svg)
  --width PX             image width in pixels (default 1200)

OPTIONS (paper):
  --svg DIR              also write figure SVGs into DIR

SUPERVISION (simulate --replications N, suite, advise):
  --deadline SECS        stop starting new units once SECS seconds have
                         elapsed; completed units are kept
  --max-units N          start at most N new units this invocation (a
                         deterministic interruption point at --jobs 1)
  --checkpoint PATH      persist each completed unit to PATH (checksummed,
                         atomic write-rename) as the run progresses
  --resume               load PATH first and run only the missing units; the
                         resumed output is byte-identical to an uninterrupted
                         run at any --jobs
  --manifest PATH        write a machine-readable JSON run manifest to PATH

EXIT CODES:
  0  complete   1  error   3  partial results (interrupted or failing units;
                              rerun with --resume to continue)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate::run(rest),
        "analyze" => cmd_analyze::run(rest),
        "advise" => cmd_advise::run(rest),
        "compare" => cmd_compare::run(rest),
        "paper" => cmd_paper::run(rest),
        "suite" => cmd_suite::run(rest),
        "timeline" => cmd_timeline::run(rest),
        "serve" => cmd_serve::serve(rest),
        "push" => cmd_serve::push(rest),
        "query" => cmd_serve::query(rest),
        "demo" => cmd_simulate::demo(rest),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(CmdOutcome::Complete)
        }
        other => Err(format!("unknown command {other:?}; see `limba help`")),
    };
    let result = result.and_then(|outcome| limba_viz::stdout::finish().map(|()| outcome));
    match result {
        Ok(CmdOutcome::Complete) => ExitCode::SUCCESS,
        Ok(CmdOutcome::Partial) => ExitCode::from(PARTIAL_EXIT_CODE),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
