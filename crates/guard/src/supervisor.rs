//! The supervised parallel runner: deadlines, unit caps, cooperative
//! cancellation, panic isolation, and incremental checkpointing
//! over a batch of independent units.
//!
//! The determinism contract: a unit's payload depends only on its input
//! index — never on the thread count, scheduling, or which other units
//! ran. The supervisor may change *which* units run (deadline, cap,
//! cancellation), but every payload it does produce — and checkpoint —
//! is exactly what an unsupervised run would have produced. That is
//! why an interrupted run resumed from its checkpoint reaches output
//! byte-identical to an uninterrupted run, at any `jobs` setting.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use limba_par::{par_map_cancellable, CancelToken};

use crate::checkpoint::Checkpoint;
use crate::job::{run_isolated, JobError, JobFailure};
use crate::manifest::{RunManifest, StopReason};
use crate::GuardError;

/// Bit-stable serialization of a unit payload, so completed units can
/// be checkpointed and replayed on resume.
///
/// The contract backing byte-identical resume: `decode(encode(p))`
/// must reconstruct `p` exactly — encode floats by bit pattern
/// (`f64::to_bits`), not by display rounding.
pub trait PayloadCodec<P> {
    /// Serializes a payload.
    fn encode(&self, payload: &P) -> Vec<u8>;
    /// Deserializes a payload; structural damage is a named
    /// [`GuardError::Corrupted`], never a panic.
    fn decode(&self, bytes: &[u8]) -> Result<P, GuardError>;
}

/// The outcome of a supervised run.
#[derive(Debug)]
pub struct SupervisedRun<P> {
    /// Per-unit outcomes in input order: `Some(Ok)` = payload (fresh or
    /// replayed from the checkpoint), `Some(Err)` = permanent failure,
    /// `None` = never started (interrupted first).
    pub results: Vec<Option<Result<P, JobFailure>>>,
    /// The machine-readable account of the run.
    pub manifest: RunManifest,
    /// Set when a checkpoint save failed mid-run. The results are
    /// still valid; only the resume file may be stale.
    pub checkpoint_error: Option<GuardError>,
}

/// What one worker produced for one claimed unit.
enum Outcome<P> {
    Done(P),
    Failed(JobFailure),
    /// Claimed but declined to run (deadline or cap tripped).
    Declined,
}

/// Supervised execution policy: how many workers, when to stop, and
/// where to checkpoint.
#[derive(Debug, Clone)]
pub struct Supervisor {
    jobs: usize,
    deadline: Option<Duration>,
    max_units: Option<usize>,
    cancel: CancelToken,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

impl Supervisor {
    /// A supervisor with `jobs` workers (0 = one per CPU), no deadline,
    /// no unit cap, and no checkpointing.
    pub fn new(jobs: usize) -> Self {
        Supervisor {
            jobs,
            deadline: None,
            max_units: None,
            cancel: CancelToken::new(),
            checkpoint: None,
            resume: false,
        }
    }

    /// Stops claiming new units once `deadline` has elapsed since the
    /// run started. Units already in flight finish.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps how many units this invocation may *start* (claim
    /// tickets). With `jobs = 1` the cap is fully deterministic:
    /// exactly the first `max_units` pending units run — which is what
    /// the kill-resume tests use as a reproducible interruption.
    pub fn with_max_units(mut self, max_units: usize) -> Self {
        self.max_units = Some(max_units);
        self
    }

    /// Shares an external cancellation token (e.g. wired to Ctrl-C).
    /// The supervisor also trips this token itself when the deadline or
    /// unit cap is reached.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Checkpoints completed units to `path` after every success. With
    /// `resume`, an existing checkpoint is loaded first and its units
    /// replayed instead of executed; without it, any existing file is
    /// overwritten as the run progresses.
    pub fn with_checkpoint(mut self, path: &Path, resume: bool) -> Self {
        self.checkpoint = Some(path.to_path_buf());
        self.resume = resume;
        self
    }

    /// Runs `work` over every unit of `items` under this supervisor's
    /// policy.
    ///
    /// `kind` and `fingerprint` identify the run for checkpoint
    /// compatibility: resuming refuses a checkpoint written by a
    /// different kind or configuration with a named error.
    ///
    /// # Errors
    ///
    /// Only checkpoint *loading* problems abort the run
    /// ([`GuardError::Io`] / `Corrupted` / `ChecksumMismatch` /
    /// `KindMismatch` / `FingerprintMismatch`). Unit failures — panics
    /// included — never do; they come back as per-unit
    /// [`JobFailure`]s in [`SupervisedRun::results`].
    pub fn run<T, P, C, F>(
        &self,
        kind: &str,
        fingerprint: u64,
        items: &[T],
        codec: &C,
        work: F,
    ) -> Result<SupervisedRun<P>, GuardError>
    where
        T: Sync,
        P: Send,
        C: PayloadCodec<P> + Sync,
        F: Fn(usize, &T) -> Result<P, JobError> + Sync,
    {
        // Phase 1: replay the checkpoint.
        let mut checkpoint = match (&self.checkpoint, self.resume) {
            (Some(path), true) => Checkpoint::load_or_new(path, kind, fingerprint)?,
            _ => Checkpoint::new(kind, fingerprint),
        };
        // Drop stored units beyond this run's range (e.g. the sweep
        // was re-invoked with fewer replications).
        let stale: Vec<u64> = checkpoint
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| id >= items.len() as u64)
            .collect();
        if !stale.is_empty() {
            let mut trimmed = Checkpoint::new(kind, fingerprint);
            for (id, payload) in checkpoint.iter() {
                if id < items.len() as u64 {
                    trimmed.insert(id, payload.to_vec());
                }
            }
            checkpoint = trimmed;
        }

        let mut results: Vec<Option<Result<P, JobFailure>>> =
            (0..items.len()).map(|_| None).collect();
        let mut cached = 0usize;
        for (id, payload) in checkpoint.iter() {
            let decoded = codec.decode(payload)?;
            results[id as usize] = Some(Ok(decoded));
            cached += 1;
        }
        let pending: Vec<usize> = (0..items.len()).filter(|&i| results[i].is_none()).collect();

        // Phase 2: run the pending units under supervision.
        let start = Instant::now();
        let claimed = AtomicUsize::new(0);
        let stopped: Mutex<Option<StopReason>> = Mutex::new(None);
        let store: Mutex<(Checkpoint, Option<GuardError>)> = Mutex::new((checkpoint, None));
        let set_stopped = |reason: StopReason| {
            let mut guard = stopped.lock().unwrap_or_else(PoisonError::into_inner);
            if guard.is_none() {
                *guard = Some(reason);
            }
        };

        let outcomes = par_map_cancellable(self.jobs, &pending, &self.cancel, |_, &index| {
            if let Some(deadline) = self.deadline {
                if start.elapsed() >= deadline {
                    set_stopped(StopReason::DeadlineExpired);
                    self.cancel.cancel();
                    return Outcome::Declined;
                }
            }
            if let Some(cap) = self.max_units {
                let ticket = claimed.fetch_add(1, Ordering::SeqCst);
                if ticket >= cap {
                    set_stopped(StopReason::UnitCapReached);
                    self.cancel.cancel();
                    return Outcome::Declined;
                }
            }
            match run_isolated(index, || work(index, &items[index])) {
                Ok(payload) => {
                    if let Some(path) = &self.checkpoint {
                        let mut guard = store.lock().unwrap_or_else(PoisonError::into_inner);
                        let (ckpt, save_error) = &mut *guard;
                        ckpt.insert(index as u64, codec.encode(&payload));
                        if let Err(e) = ckpt.save_atomic(path) {
                            if save_error.is_none() {
                                *save_error = Some(e);
                            }
                        }
                    }
                    Outcome::Done(payload)
                }
                Err(failure) => Outcome::Failed(failure),
            }
        });

        // Phase 3: assemble results and the manifest.
        let mut completed = 0usize;
        let mut skipped = 0usize;
        let mut failures: Vec<JobFailure> = Vec::new();
        for (slot, &index) in outcomes.into_iter().zip(&pending) {
            match slot {
                Some(Outcome::Done(payload)) => {
                    completed += 1;
                    results[index] = Some(Ok(payload));
                }
                Some(Outcome::Failed(failure)) => {
                    failures.push(failure.clone());
                    results[index] = Some(Err(failure));
                }
                Some(Outcome::Declined) | None => skipped += 1,
            }
        }
        failures.sort_by_key(|f| f.unit);

        let mut stop_reason = stopped.into_inner().unwrap_or_else(PoisonError::into_inner);
        if stop_reason.is_none() && self.cancel.is_cancelled() {
            stop_reason = Some(StopReason::Cancelled);
        }
        let (_, checkpoint_error) = store.into_inner().unwrap_or_else(PoisonError::into_inner);

        let manifest = RunManifest {
            kind: kind.to_string(),
            fingerprint,
            total: items.len(),
            completed,
            cached,
            failures,
            skipped,
            stopped: stop_reason,
        };
        Ok(SupervisedRun {
            results,
            manifest,
            checkpoint_error,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    /// Payload codec for `u64` test payloads.
    struct U64Codec;
    impl PayloadCodec<u64> for U64Codec {
        fn encode(&self, payload: &u64) -> Vec<u8> {
            payload.to_le_bytes().to_vec()
        }
        fn decode(&self, bytes: &[u8]) -> Result<u64, GuardError> {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| GuardError::Corrupted {
                detail: "u64 payload of wrong length".into(),
            })?;
            Ok(u64::from_le_bytes(arr))
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("limba-guard-sup-{name}.ckpt"))
    }

    #[test]
    fn unsupervised_run_completes_everything() {
        let items: Vec<u64> = (0..20).collect();
        let run = Supervisor::new(4)
            .run("test", 1, &items, &U64Codec, |_, &x| {
                Ok::<_, JobError>(x * x)
            })
            .unwrap();
        assert!(run.manifest.is_complete());
        assert_eq!(run.manifest.completed, 20);
        assert_eq!(run.manifest.cached, 0);
        for (i, slot) in run.results.iter().enumerate() {
            assert_eq!(
                slot.as_ref().unwrap().as_ref().unwrap(),
                &((i as u64) * (i as u64))
            );
        }
    }

    #[test]
    fn panicking_unit_is_isolated() {
        let items: Vec<u64> = (0..10).collect();
        let run = Supervisor::new(2)
            .run("test", 1, &items, &U64Codec, |_, &x| {
                if x == 4 {
                    panic!("unit four exploded");
                }
                Ok::<_, JobError>(x)
            })
            .unwrap();
        assert_eq!(run.manifest.completed, 9);
        assert_eq!(run.manifest.failures.len(), 1);
        let failure = &run.manifest.failures[0];
        assert_eq!(failure.unit, 4);
        assert!(failure.kind.message().contains("unit four exploded"));
        assert!(!run.manifest.is_complete());
        // Every other unit still delivered its payload.
        assert!(run
            .results
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4)
            .all(|(_, slot)| matches!(slot, Some(Ok(_)))));
    }

    #[test]
    fn unit_cap_interrupts_deterministically_at_one_job() {
        let items: Vec<u64> = (0..16).collect();
        let run = Supervisor::new(1)
            .with_max_units(5)
            .run("test", 1, &items, &U64Codec, |_, &x| {
                Ok::<_, JobError>(x + 100)
            })
            .unwrap();
        assert_eq!(run.manifest.completed, 5);
        assert_eq!(run.manifest.skipped, 11);
        assert_eq!(run.manifest.stopped, Some(StopReason::UnitCapReached));
        for (i, slot) in run.results.iter().enumerate() {
            if i < 5 {
                assert_eq!(slot.as_ref().unwrap().as_ref().unwrap(), &(i as u64 + 100));
            } else {
                assert!(slot.is_none());
            }
        }
    }

    #[test]
    fn interrupted_then_resumed_equals_uninterrupted() {
        let items: Vec<u64> = (0..12).collect();
        let work = |_: usize, x: &u64| Ok::<_, JobError>(x * 7);

        let uninterrupted = Supervisor::new(1)
            .run("test", 9, &items, &U64Codec, work)
            .unwrap();

        for jobs in [1usize, 4] {
            let path = temp_path(&format!("resume-{jobs}"));
            std::fs::remove_file(&path).ok();
            let first = Supervisor::new(1)
                .with_max_units(4)
                .with_checkpoint(&path, false)
                .run("test", 9, &items, &U64Codec, work)
                .unwrap();
            assert_eq!(first.manifest.completed, 4, "jobs={jobs}");
            assert!(first.checkpoint_error.is_none());

            let resumed = Supervisor::new(jobs)
                .with_checkpoint(&path, true)
                .run("test", 9, &items, &U64Codec, work)
                .unwrap();
            assert_eq!(resumed.manifest.cached, 4, "jobs={jobs}");
            assert_eq!(resumed.manifest.completed, 8, "jobs={jobs}");
            assert!(resumed.manifest.is_complete(), "jobs={jobs}");
            let a: Vec<u64> = uninterrupted
                .results
                .iter()
                .map(|s| *s.as_ref().unwrap().as_ref().unwrap())
                .collect();
            let b: Vec<u64> = resumed
                .results
                .iter()
                .map(|s| *s.as_ref().unwrap().as_ref().unwrap())
                .collect();
            assert_eq!(a, b, "jobs={jobs}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_refuses_foreign_checkpoints() {
        let items: Vec<u64> = (0..4).collect();
        let path = temp_path("foreign");
        std::fs::remove_file(&path).ok();
        Supervisor::new(1)
            .with_checkpoint(&path, false)
            .run("test", 1, &items, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap();
        let err = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run("other", 1, &items, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap_err();
        assert!(matches!(err, GuardError::KindMismatch { .. }), "{err}");
        let err = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run("test", 2, &items, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap_err();
        assert!(
            matches!(err, GuardError::FingerprintMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shrunk_item_range_drops_stale_checkpoint_entries() {
        let items: Vec<u64> = (0..8).collect();
        let path = temp_path("shrink");
        std::fs::remove_file(&path).ok();
        Supervisor::new(1)
            .with_checkpoint(&path, false)
            .run("test", 1, &items, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap();
        let fewer: Vec<u64> = (0..3).collect();
        let resumed = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run("test", 1, &fewer, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap();
        assert_eq!(resumed.manifest.total, 3);
        assert_eq!(resumed.manifest.cached, 3);
        assert!(resumed.manifest.is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_cancellation_is_reported() {
        let items: Vec<u64> = (0..8).collect();
        let token = CancelToken::new();
        let run = Supervisor::new(1)
            .with_cancel(token.clone())
            .run("test", 1, &items, &U64Codec, |i, &x| {
                if i == 2 {
                    token.cancel();
                }
                Ok::<_, JobError>(x)
            })
            .unwrap();
        assert_eq!(run.manifest.stopped, Some(StopReason::Cancelled));
        assert_eq!(run.manifest.completed, 3);
        assert_eq!(run.manifest.skipped, 5);
    }

    #[test]
    fn zero_deadline_runs_nothing() {
        let items: Vec<u64> = (0..8).collect();
        let run = Supervisor::new(1)
            .with_deadline(Duration::ZERO)
            .run("test", 1, &items, &U64Codec, |_, &x| Ok::<_, JobError>(x))
            .unwrap();
        assert_eq!(run.manifest.completed, 0);
        assert_eq!(run.manifest.skipped, 8);
        assert_eq!(run.manifest.stopped, Some(StopReason::DeadlineExpired));
    }

    #[test]
    fn failed_units_are_not_checkpointed_and_rerun_on_resume() {
        let items: Vec<u64> = (0..6).collect();
        let path = temp_path("refail");
        std::fs::remove_file(&path).ok();
        let work = |_: usize, &x: &u64| {
            if x == 2 {
                Err(JobError::Fatal("deterministically bad".into()))
            } else {
                Ok(x)
            }
        };
        let first = Supervisor::new(1)
            .with_checkpoint(&path, false)
            .run("test", 1, &items, &U64Codec, work)
            .unwrap();
        assert_eq!(first.manifest.failures.len(), 1);
        let resumed = Supervisor::new(1)
            .with_checkpoint(&path, true)
            .run("test", 1, &items, &U64Codec, work)
            .unwrap();
        // The failure re-ran and re-failed; successes were cached.
        assert_eq!(resumed.manifest.cached, 5);
        assert_eq!(resumed.manifest.completed, 0);
        assert_eq!(resumed.manifest.failures.len(), 1);
        assert_eq!(resumed.manifest.failures[0].unit, 2);
        std::fs::remove_file(&path).ok();
    }
}
