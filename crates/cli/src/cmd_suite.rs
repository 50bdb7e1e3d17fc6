//! `limba suite`: a tracefile-testbed-style sweep — run every workload
//! under every imbalance injector, analyze each run, and print a summary
//! table. (In the spirit of the Tracefile Testbed the paper's authors
//! co-built: a corpus of runs to compare methodologies on.)
//!
//! With `--jobs N` the sweep fans out over a thread pool: simulations
//! run through [`limba_par::par_map`] and the analyses through
//! [`BatchAnalyzer`](limba_analysis::batch::BatchAnalyzer), both of
//! which slot results by input index — so the rendered table is
//! byte-identical for every job count (locked by the workspace
//! test-suite).

use std::fmt::Write as _;

use limba_analysis::Analyzer;
use limba_mpisim::{MachineConfig, Program, Simulator};
use limba_workloads::{
    cfd::CfdConfig, fft::FftConfig, irregular::IrregularConfig, master_worker::MasterWorkerConfig,
    pipeline::PipelineConfig, stencil::StencilConfig, sweep::SweepConfig, Imbalance,
};

use crate::args::{parse, Flags, Parsed};
use crate::cmd_simulate::fold_run;
use crate::supervise::{self, Supervision};

/// The flags `suite` accepts.
const FLAGS: Flags = Flags {
    command: "suite",
    options: &[&["ranks", "jobs"], supervise::OPTIONS],
    switches: &[supervise::SWITCHES],
};

fn programs(ranks: usize, imbalance: Imbalance) -> Vec<(&'static str, Program)> {
    vec![
        (
            "cfd",
            CfdConfig::new(ranks)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "stencil",
            StencilConfig::new(ranks / 2, 2)
                .with_iterations(4)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "master-worker",
            MasterWorkerConfig::new(ranks)
                .with_tasks(ranks * 3)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "pipeline",
            PipelineConfig::new(ranks)
                .with_items(12)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "irregular",
            IrregularConfig::new(ranks)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "fft",
            FftConfig::new(ranks)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
        (
            "sweep",
            SweepConfig::new(ranks)
                .with_imbalance(imbalance)
                .build_program()
                .unwrap(),
        ),
    ]
}

fn injectors() -> Vec<(&'static str, Imbalance)> {
    vec![
        ("none", Imbalance::None),
        ("linear:0.4", Imbalance::LinearSkew { spread: 0.4 }),
        (
            "block:2,2.5",
            Imbalance::BlockSkew {
                heavy: 2,
                factor: 2.5,
            },
        ),
        (
            "hotspot:1,3",
            Imbalance::Hotspot {
                rank: 1,
                factor: 3.0,
            },
        ),
        ("jitter:0.25", Imbalance::RandomJitter { amplitude: 0.25 }),
    ]
}

/// One rendered suite case: exactly the values its table row prints.
struct SuiteRow {
    makespan: f64,
    sid: f64,
    top: String,
}

struct SuiteCodec;

impl limba_guard::PayloadCodec<SuiteRow> for SuiteCodec {
    fn encode(&self, row: &SuiteRow) -> Vec<u8> {
        let mut w = limba_guard::codec::ByteWriter::new();
        w.put_f64(row.makespan);
        w.put_f64(row.sid);
        w.put_str(&row.top);
        w.into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SuiteRow, limba_guard::GuardError> {
        let mut r = limba_guard::codec::ByteReader::new(bytes);
        let row = SuiteRow {
            makespan: r.get_f64("makespan")?,
            sid: r.get_f64("max SID")?,
            top: r.get_str("top candidate")?,
        };
        r.expect_end("suite row")?;
        Ok(row)
    }
}

/// Renders the full suite table for `ranks` ranks using up to `jobs`
/// worker threads, under the given supervision (deadline, unit cap,
/// checkpoint/resume). The table is byte-identical for every `jobs`
/// value, and an interrupted-then-resumed suite renders byte-identically
/// to an uninterrupted one. A failing case occupies its own error row
/// instead of aborting the sweep.
pub(crate) fn render(
    ranks: usize,
    jobs: usize,
    supervision: &Supervision,
) -> Result<(String, limba_guard::RunManifest), String> {
    if ranks < 4 || !ranks.is_multiple_of(2) {
        return Err("suite needs an even rank count of at least 4".into());
    }
    // Flatten the injector × workload grid into an indexed case list so
    // parallel stages can slot their results deterministically.
    let cases: Vec<(&str, &str, Program)> = injectors()
        .into_iter()
        .flat_map(|(iname, imbalance)| {
            programs(ranks, imbalance)
                .into_iter()
                .map(move |(wname, program)| (iname, wname, program))
        })
        .collect();

    // One unit per case: simulate with the reduction folding inline,
    // then analyze. The checkpoint
    // fingerprint covers everything that affects a row (`jobs` does
    // not — the output is jobs-invariant).
    let fingerprint =
        limba_guard::config_fingerprint(&format!("suite|ranks={ranks}|cases={}", cases.len()));
    let sim = Simulator::new(MachineConfig::new(ranks));
    let run = supervision
        .supervisor(jobs)
        .run(
            "suite",
            fingerprint,
            &cases,
            &SuiteCodec,
            |_, (iname, wname, program)| {
                let fatal =
                    |e: String| limba_guard::JobError::Fatal(format!("{wname}/{iname}: {e}"));
                let (out, salvaged) = fold_run(&sim, program, None, None).map_err(fatal)?;
                let report = Analyzer::new()
                    .with_cluster_k(0)
                    .analyze(&salvaged.reduced.measurements)
                    .map_err(|e| fatal(e.to_string()))?;
                let (sid, top) = report
                    .findings
                    .tuning_candidates
                    .first()
                    .map(|c| (c.sid, c.name.clone()))
                    .unwrap_or((0.0, "-".into()));
                Ok(SuiteRow {
                    makespan: out.stats.makespan,
                    sid,
                    top,
                })
            },
        )
        .map_err(|e| e.to_string())?;
    if let Some(e) = &run.checkpoint_error {
        return Err(format!("checkpoint save failed: {e}"));
    }

    let mut table = String::new();
    writeln!(
        table,
        "{:<14} {:<14} {:>10} {:>10} {:>22}",
        "workload", "imbalance", "makespan", "max SID_C", "top candidate"
    )
    .unwrap();
    writeln!(table, "{}", "-".repeat(74)).unwrap();
    let mut previous_injector = None;
    for ((iname, wname, _), slot) in cases.iter().zip(&run.results) {
        if previous_injector.is_some_and(|p| p != iname) {
            writeln!(table).unwrap();
        }
        previous_injector = Some(iname);
        match slot {
            Some(Ok(row)) => writeln!(
                table,
                "{wname:<14} {iname:<14} {:>9.3}s {:>10.5} {:>22}",
                row.makespan, row.sid, row.top
            )
            .unwrap(),
            Some(Err(failure)) => writeln!(
                table,
                "{wname:<14} {iname:<14} error: {}",
                failure.kind.message()
            )
            .unwrap(),
            None => writeln!(table, "{wname:<14} {iname:<14} not run (interrupted)").unwrap(),
        }
    }
    writeln!(table).unwrap();
    if !run.manifest.is_complete() {
        writeln!(
            table,
            "partial suite: {} completed, {} cached, {} failed, {} not run{}",
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
    Ok((table, run.manifest))
}

/// Runs `limba suite [--ranks N] [--jobs N] [supervision flags]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed: Parsed = parse(argv, &FLAGS)?;
    let ranks: usize = parsed.get_or("ranks", 8)?;
    let jobs: usize = parsed.get_or("jobs", 1)?;
    let supervision = Supervision::from_args(&parsed)?;
    let (table, manifest) = render(ranks, jobs, &supervision)?;
    out!("{table}");
    supervision.write_manifest(&manifest)?;
    Ok(Supervision::outcome_of(&manifest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_on_small_machine() {
        run(&["--ranks".to_string(), "4".to_string()]).unwrap();
    }

    #[test]
    fn odd_or_tiny_rank_counts_rejected() {
        assert!(run(&["--ranks".to_string(), "3".to_string()]).is_err());
        assert!(run(&["--ranks".to_string(), "2".to_string()]).is_err());
    }

    #[test]
    fn suite_table_is_byte_identical_across_job_counts() {
        let (reference, manifest) = render(4, 1, &Supervision::none()).unwrap();
        assert!(reference.contains("workload"));
        assert!(manifest.is_complete());
        for jobs in [2, 4, 8] {
            let (table, _) = render(4, jobs, &Supervision::none()).unwrap();
            assert_eq!(table, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn interrupted_suite_resumes_to_byte_identical_output() {
        let (reference, _) = render(4, 1, &Supervision::none()).unwrap();
        let path = std::env::temp_dir().join("limba-cli-suite-resume.ckpt");
        std::fs::remove_file(&path).ok();
        let interrupted = Supervision {
            max_units: Some(9),
            checkpoint: Some(path.clone()),
            ..Supervision::none()
        };
        let (partial, manifest) = render(4, 1, &interrupted).unwrap();
        assert!(!manifest.is_complete());
        assert_eq!(manifest.completed, 9);
        assert!(partial.contains("not run (interrupted)"));
        let resumed = Supervision {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Supervision::none()
        };
        let (full, manifest) = render(4, 4, &resumed).unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.cached, 9);
        assert_eq!(full, reference);
        std::fs::remove_file(&path).ok();
    }
}
