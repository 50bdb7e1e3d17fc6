//! Checkpoint/resume: interrupt a 64-seed faulted CFD sweep midway,
//! then resume it from its checkpoint and verify the resumed output is
//! byte-identical to an uninterrupted run.
//!
//! ```sh
//! cargo run --example checkpointed_sweep
//! ```
//!
//! The same flow is available from the CLI:
//!
//! ```sh
//! limba simulate cfd --replications 64 --faults preset:flaky-network \
//!       --checkpoint sweep.ckpt --max-units 24   # exits 3 (partial)
//! limba simulate cfd --replications 64 --faults preset:flaky-network \
//!       --checkpoint sweep.ckpt --resume         # exits 0, full table
//! ```

use limba::guard::codec::{ByteReader, ByteWriter};
use limba::guard::{GuardError, JobError, PayloadCodec, SupervisedRun, Supervisor};
use limba::mpisim::{FaultPlan, MachineConfig, Simulator};
use limba::par::derive_seed;
use limba::workloads::{cfd::CfdConfig, Imbalance};

const SEEDS: usize = 64;
const ROOT_SEED: u64 = 2003;

/// One replication's observable result — exactly what its line in the
/// sweep table prints.
struct Row {
    seed: u64,
    makespan: f64,
    retried: u64,
}

struct RowCodec;

impl PayloadCodec<Row> for RowCodec {
    fn encode(&self, row: &Row) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(row.seed);
        w.put_f64(row.makespan); // stored by bit pattern: exact round-trip
        w.put_u64(row.retried);
        w.into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<Row, GuardError> {
        let mut r = ByteReader::new(bytes);
        let row = Row {
            seed: r.get_u64("seed")?,
            makespan: r.get_f64("makespan")?,
            retried: r.get_u64("retried messages")?,
        };
        r.expect_end("sweep row")?;
        Ok(row)
    }
}

/// Runs replication `index` of the sweep. Everything flows from the
/// index — which run produced the row is unobservable, the foundation
/// of byte-identical resume.
fn replicate(index: usize) -> Result<Row, JobError> {
    let seed = derive_seed(ROOT_SEED, index as u64);
    let program = CfdConfig::new(8)
        .with_iterations(1)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.25 })
        .with_seed(seed)
        .build_program()
        .map_err(|e| JobError::Fatal(e.to_string()))?;
    // A flaky network: 3% of transmission attempts dropped and retried
    // with exponential backoff, reseeded per replication.
    let plan = FaultPlan::new(derive_seed(7, index as u64)).with_message_loss(0.03, 4, 1e-4, 2.0);
    let out = Simulator::new(MachineConfig::new(8))
        .run_configured(&program, Some(&plan), None, None)
        .map_err(|e| JobError::Fatal(e.to_string()))?;
    Ok(Row {
        seed,
        makespan: out.stats.makespan,
        retried: out.faults.retried_messages,
    })
}

/// Renders a run the way the CLI renders a sweep: one line per seed.
fn render(run: &SupervisedRun<Row>) -> String {
    let mut table = String::new();
    for (i, slot) in run.results.iter().enumerate() {
        table.push_str(&match slot {
            Some(Ok(row)) => format!(
                "{i:>3} {:>20} {:>10.4}s {:>4} retried\n",
                row.seed, row.makespan, row.retried
            ),
            Some(Err(failure)) => format!("{i:>3} error: {failure}\n"),
            None => format!("{i:>3} not run (interrupted)\n"),
        });
    }
    table
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let items: Vec<usize> = (0..SEEDS).collect();
    let fingerprint = limba::guard::config_fingerprint(&format!(
        "checkpointed-sweep|seeds={SEEDS}|root={ROOT_SEED}"
    ));
    let ckpt = std::env::temp_dir().join("limba-checkpointed-sweep.ckpt");
    std::fs::remove_file(&ckpt).ok();

    // The reference: the whole sweep in one uninterrupted run.
    let reference = Supervisor::new(4).run("sweep", fingerprint, &items, &RowCodec, |_, &i| {
        replicate(i)
    })?;
    println!(
        "reference run:   {} of {SEEDS} replications",
        reference.manifest.completed
    );

    // Interrupt: cap the invocation at 24 units, checkpointing each
    // completed one. In production the cap is a deadline or Ctrl-C —
    // the unit cap just makes the interruption reproducible here.
    let interrupted = Supervisor::new(4)
        .with_max_units(24)
        .with_checkpoint(&ckpt, false)
        .run("sweep", fingerprint, &items, &RowCodec, |_, &i| {
            replicate(i)
        })?;
    println!(
        "interrupted run: {} completed, {} not run ({})",
        interrupted.manifest.completed,
        interrupted.manifest.skipped,
        interrupted
            .manifest
            .stopped
            .map(|s| s.as_str())
            .unwrap_or("-"),
    );

    // Resume: the checkpoint replays the finished units, the rest run
    // fresh — at a different thread count than the interrupted run.
    let resumed = Supervisor::new(2).with_checkpoint(&ckpt, true).run(
        "sweep",
        fingerprint,
        &items,
        &RowCodec,
        |_, &i| replicate(i),
    )?;
    println!(
        "resumed run:     {} replayed from checkpoint, {} run fresh",
        resumed.manifest.cached, resumed.manifest.completed
    );

    // The point: the resumed table is byte-identical to the reference.
    assert_eq!(render(&resumed), render(&reference));
    println!("resumed output is byte-identical to the uninterrupted run");
    println!("\nmanifest:\n{}", resumed.manifest.to_json());

    std::fs::remove_file(&ckpt).ok();
    Ok(())
}
