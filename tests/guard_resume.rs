//! Kill-resume determinism locks for the supervision runtime.
//!
//! The contract under test: interrupting a supervised run at *any*
//! point — a unit cap, a cancellation, a verification budget — and
//! resuming it from its checkpoint reaches output byte-identical to an
//! uninterrupted run, at any `jobs` setting. Alongside it, the
//! robustness half: a panicking unit becomes a structured `JobFailure`
//! while the rest of the sweep completes, and corrupted checkpoint
//! files are rejected with named errors, never a panic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use limba::advisor::{AdviseError, Advisor, Scenario};
use limba::analysis::Analyzer;
use limba::guard::codec::{ByteReader, ByteWriter};
use limba::guard::{
    config_fingerprint, CheckpointVerifyCache, GuardError, JobError, PayloadCodec, Supervisor,
};
use limba::mpisim::{MachineConfig, Simulator};
use limba::par::{derive_seed, CancelToken};
use limba::workloads::{cfd::CfdConfig, Imbalance};
use proptest::prelude::*;

const KIND: &str = "guard-resume-test";
const UNITS: usize = 12;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("limba-guard-resume-{name}.ckpt"))
}

/// The canonical per-unit payload: one CFD replication's summary line.
/// Everything observable flows from the unit index, so the payload is
/// the same no matter which invocation produced it.
fn replicate(index: usize) -> Result<String, JobError> {
    let seed = derive_seed(0xC0FFEE, index as u64);
    let program = CfdConfig::new(4)
        .with_iterations(1)
        .with_imbalance(Imbalance::RandomJitter { amplitude: 0.3 })
        .with_seed(seed)
        .build_program()
        .map_err(|e| JobError::Fatal(e.to_string()))?;
    let out = Simulator::new(MachineConfig::new(4))
        .run(&program)
        .map_err(|e| JobError::Fatal(e.to_string()))?;
    Ok(format!(
        "{index} {seed} {:?} {} {}",
        out.stats.makespan, out.stats.messages, out.stats.bytes
    ))
}

struct LineCodec;

impl PayloadCodec<String> for LineCodec {
    fn encode(&self, payload: &String) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(payload);
        w.into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<String, GuardError> {
        let mut r = ByteReader::new(bytes);
        let line = r.get_str("line")?;
        r.expect_end("line payload")?;
        Ok(line)
    }
}

/// Renders a supervised run the way the CLI renders a sweep table:
/// one line per unit, errors and not-run units included.
fn snapshot(run: &limba::guard::SupervisedRun<String>) -> String {
    run.results
        .iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(Ok(line)) => format!("{i}: {line}\n"),
            Some(Err(failure)) => format!("{i}: error {failure}\n"),
            None => format!("{i}: not run\n"),
        })
        .collect()
}

fn reference_snapshot() -> String {
    let items: Vec<usize> = (0..UNITS).collect();
    let run = Supervisor::new(1)
        .run(KIND, 1, &items, &LineCodec, |_, &i| replicate(i))
        .unwrap();
    assert!(run.manifest.is_complete());
    snapshot(&run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interrupt a supervised sweep after a randomized number of units,
    /// then resume at jobs 1 and 4: both resumed snapshots must be
    /// byte-identical to an uninterrupted run.
    #[test]
    fn interrupted_sweep_resumes_byte_identically(cut in 0usize..UNITS, interrupt_jobs in 1usize..=4) {
        let reference = reference_snapshot();
        let items: Vec<usize> = (0..UNITS).collect();
        for resume_jobs in [1usize, 4] {
            let path = temp_path(&format!("prop-{cut}-{interrupt_jobs}-{resume_jobs}"));
            std::fs::remove_file(&path).ok();

            let interrupted = Supervisor::new(interrupt_jobs)
                .with_max_units(cut)
                .with_checkpoint(&path, false)
                .run(KIND, 1, &items, &LineCodec, |_, &i| replicate(i))
                .unwrap();
            prop_assert!(interrupted.checkpoint_error.is_none());
            prop_assert_eq!(interrupted.manifest.completed, cut);
            prop_assert!(!interrupted.manifest.is_complete());

            let resumed = Supervisor::new(resume_jobs)
                .with_checkpoint(&path, true)
                .run(KIND, 1, &items, &LineCodec, |_, &i| replicate(i))
                .unwrap();
            prop_assert!(resumed.manifest.is_complete());
            prop_assert_eq!(resumed.manifest.cached, cut);
            prop_assert_eq!(snapshot(&resumed), reference.clone());
            std::fs::remove_file(&path).ok();
        }
    }

    /// An external cancellation mid-run keeps every completed unit;
    /// resuming afterwards still converges on the reference snapshot.
    #[test]
    fn cancelled_sweep_resumes_byte_identically(trip_after in 1usize..UNITS) {
        let reference = reference_snapshot();
        let items: Vec<usize> = (0..UNITS).collect();
        let path = temp_path(&format!("cancel-{trip_after}"));
        std::fs::remove_file(&path).ok();

        let cancel = CancelToken::new();
        let started = AtomicUsize::new(0);
        let interrupted = Supervisor::new(1)
            .with_cancel(cancel.clone())
            .with_checkpoint(&path, false)
            .run(KIND, 1, &items, &LineCodec, |_, &i| {
                if started.fetch_add(1, Ordering::SeqCst) + 1 >= trip_after {
                    cancel.cancel();
                }
                replicate(i)
            })
            .unwrap();
        prop_assert!(!interrupted.manifest.is_complete());
        prop_assert!(interrupted.manifest.completed >= 1);

        let resumed = Supervisor::new(4)
            .with_checkpoint(&path, true)
            .run(KIND, 1, &items, &LineCodec, |_, &i| replicate(i))
            .unwrap();
        prop_assert!(resumed.manifest.is_complete());
        prop_assert_eq!(snapshot(&resumed), reference);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn panicking_unit_is_isolated_and_reported() {
    let items: Vec<usize> = (0..UNITS).collect();
    let run = Supervisor::new(4)
        .run(KIND, 2, &items, &LineCodec, |_, &i| {
            if i == 3 {
                panic!("unit {i} exploded");
            }
            replicate(i)
        })
        .unwrap();
    assert_eq!(run.manifest.failures.len(), 1);
    assert_eq!(run.manifest.failures[0].unit, 3);
    assert!(run.manifest.failures[0].to_string().contains("panicked"));
    assert_eq!(run.manifest.completed, UNITS - 1);
    // Every other unit delivered exactly its reference payload.
    let reference = reference_snapshot();
    for (i, slot) in run.results.iter().enumerate() {
        match slot {
            Some(Ok(line)) => assert!(reference.contains(line), "unit {i}"),
            Some(Err(failure)) => assert_eq!(failure.unit, 3),
            None => panic!("unit {i} never ran"),
        }
    }
}

#[test]
fn corrupted_checkpoints_are_rejected_with_named_errors() {
    let items: Vec<usize> = (0..4).collect();
    let path = temp_path("corrupt");
    std::fs::remove_file(&path).ok();
    Supervisor::new(1)
        .with_checkpoint(&path, false)
        .run(KIND, 4, &items, &LineCodec, |_, &i| replicate(i))
        .unwrap();
    let good = std::fs::read(&path).unwrap();

    // Every truncation and every bit-flip must produce a named error —
    // never a panic, never an unbounded allocation.
    for cut in 0..good.len() {
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run(KIND, 4, &items, &LineCodec, |_, &i| replicate(i))
            .unwrap_err();
        assert!(
            matches!(
                err,
                GuardError::Corrupted { .. } | GuardError::ChecksumMismatch { .. }
            ),
            "cut={cut}: {err}"
        );
    }
    for byte in 0..good.len() {
        let mut bad = good.clone();
        bad[byte] ^= 0x10;
        std::fs::write(&path, &bad).unwrap();
        let err = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run(KIND, 4, &items, &LineCodec, |_, &i| replicate(i))
            .unwrap_err();
        assert!(
            matches!(
                err,
                GuardError::Corrupted { .. }
                    | GuardError::ChecksumMismatch { .. }
                    | GuardError::KindMismatch { .. }
                    | GuardError::FingerprintMismatch { .. }
            ),
            "byte={byte}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn foreign_checkpoints_are_refused_by_identity() {
    let items: Vec<usize> = (0..4).collect();
    let path = temp_path("identity");
    std::fs::remove_file(&path).ok();
    Supervisor::new(1)
        .with_checkpoint(&path, false)
        .run(KIND, 5, &items, &LineCodec, |_, &i| replicate(i))
        .unwrap();
    let err = Supervisor::new(1)
        .with_checkpoint(&path, true)
        .run("other-kind", 5, &items, &LineCodec, |_, &i| replicate(i))
        .unwrap_err();
    assert!(matches!(err, GuardError::KindMismatch { .. }), "{err}");
    let err = Supervisor::new(1)
        .with_checkpoint(&path, true)
        .run(KIND, 6, &items, &LineCodec, |_, &i| replicate(i))
        .unwrap_err();
    assert!(
        matches!(err, GuardError::FingerprintMismatch { .. }),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// The advisor scenario the resume tests share: a small CFD proxy with
/// the paper-style linear skew.
fn advise_scenario() -> Scenario {
    let program = CfdConfig::new(4)
        .with_iterations(1)
        .with_imbalance(Imbalance::LinearSkew { spread: 0.4 })
        .build_program()
        .unwrap();
    Scenario::new(program, MachineConfig::new(4)).unwrap()
}

fn advisor(jobs: usize) -> Advisor {
    Advisor::new()
        .with_top_k(3)
        .with_jobs(jobs)
        .with_analyzer(Analyzer::new().with_cluster_k(2))
}

/// Interrupt the advisor's simulate-verify stage after a randomized
/// number of verifications, resume from the verification checkpoint at
/// jobs 1 and 4, and require the rendered advice to be byte-identical
/// to an uninterrupted run's.
#[test]
fn interrupted_advise_resumes_byte_identically() {
    let scenario = advise_scenario();
    let reference = limba::viz::advice::render_advice(&advisor(1).advise(&scenario).unwrap());
    let fingerprint = config_fingerprint("guard-resume-advise");

    // The cache trips the token once `cut` verifications have been
    // stored, so the checkpoint holds exactly `cut` of the 3 entries.
    for cut in 1..3 {
        for resume_jobs in [1usize, 4] {
            let path = temp_path(&format!("advise-{cut}-{resume_jobs}"));
            std::fs::remove_file(&path).ok();

            let token = CancelToken::new();
            let cache = CheckpointVerifyCache::open(&path, fingerprint, false)
                .unwrap()
                .with_interrupt_after(cut, token.clone());
            let err = advisor(1)
                .with_cancel(token)
                .with_verify_cache(Arc::new(cache))
                .advise(&scenario)
                .unwrap_err();
            assert!(matches!(err, AdviseError::Interrupted { .. }), "{err}");

            let cache = CheckpointVerifyCache::open(&path, fingerprint, true).unwrap();
            assert_eq!(cache.len(), cut, "checkpoint kept the finished units");
            let cache = Arc::new(cache);
            let advice = advisor(resume_jobs)
                .with_verify_cache(cache.clone())
                .advise(&scenario)
                .unwrap();
            assert_eq!(cache.hits(), cut, "resume replayed the checkpoint");
            assert_eq!(
                limba::viz::advice::render_advice(&advice),
                reference,
                "cut={cut} jobs={resume_jobs}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
