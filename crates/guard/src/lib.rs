//! Supervised execution runtime for long-running limba sweeps.
//!
//! Everything else in the suite is built around one invariant: results
//! are a pure function of the inputs, never of scheduling. This crate
//! adds the operational half of that story — what happens when a sweep
//! is *interrupted* (deadline, Ctrl-C, crash) or a unit of work
//! *misbehaves* (panics, fails) — without giving the
//! invariant up:
//!
//! * [`Supervisor`] runs a batch of independent units under a
//!   wall-clock deadline, a unit-count cap, and a cooperative
//!   [`CancelToken`](limba_par::CancelToken), isolating each unit with
//!   `catch_unwind` so a panicking unit becomes a structured
//!   [`JobFailure`] while the rest of the sweep completes;
//! * [`Checkpoint`] is a versioned, checksummed, atomically-written
//!   store of completed unit payloads. The supervisor saves it after
//!   every completed unit, so a killed run leaves a valid file; a
//!   resumed run replays the stored payloads and executes only the
//!   remainder. Because cancellation changes *which* units ran and
//!   never *what* a unit produced, an interrupted-then-resumed sweep
//!   renders **byte-identically** to an uninterrupted one at any
//!   `--jobs` setting;
//! * [`RunManifest`] is the machine-readable account of a supervised
//!   run: completed / failed / skipped / cached counts and every
//!   failure with its unit index and reason, rendered as
//!   deterministic JSON;
//! * [`CheckpointVerifyCache`] plugs the checkpoint store into the
//!   advisor's [`VerifyCache`](limba_advisor::VerifyCache), making
//!   `limba advise` resumable at candidate-verification granularity.
//!
//! The crate itself never panics on untrusted input: corrupted
//! checkpoint files surface as named [`GuardError`] variants, poisoned
//! locks are recovered, and decode paths bound every allocation by the
//! bytes actually present.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::fmt;

pub(crate) mod checkpoint;
pub mod codec;
pub(crate) mod job;
pub(crate) mod manifest;
pub(crate) mod supervisor;
pub(crate) mod verify_cache;

pub use checkpoint::Checkpoint;
pub use job::{FailureKind, JobError, JobFailure};
pub use manifest::{RunManifest, StopReason};
pub use supervisor::{PayloadCodec, SupervisedRun, Supervisor};
pub use verify_cache::{CheckpointVerifyCache, VERIFY_KIND};

/// Errors raised by the supervision and checkpointing layer.
#[derive(Debug)]
pub enum GuardError {
    /// An underlying I/O failure (reading, writing, or renaming a
    /// checkpoint file).
    Io {
        /// The file involved.
        path: String,
        /// The failure.
        source: std::io::Error,
    },
    /// A checkpoint file's bytes are not a checkpoint (bad magic,
    /// unsupported version, truncation, or a count field exceeding the
    /// remaining input).
    Corrupted {
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint file's recorded checksum does not match its
    /// payload — it was damaged after being written.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the bytes actually read.
        actual: u64,
    },
    /// The checkpoint belongs to a different kind of run (e.g. a
    /// `suite` checkpoint passed to `simulate --resume`).
    KindMismatch {
        /// The kind this run expected.
        expected: String,
        /// The kind recorded in the file.
        found: String,
    },
    /// The checkpoint was written under a different configuration
    /// (different workload, seed, ranks, …), so its payloads do not
    /// belong to this run.
    FingerprintMismatch {
        /// The fingerprint this run expected.
        expected: u64,
        /// The fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Io { path, source } => {
                write!(f, "checkpoint i/o failed for {path}: {source}")
            }
            GuardError::Corrupted { detail } => write!(f, "corrupted checkpoint: {detail}"),
            GuardError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: file records {expected:#018x}, \
                 bytes hash to {actual:#018x}"
            ),
            GuardError::KindMismatch { expected, found } => write!(
                f,
                "checkpoint kind mismatch: this run is {expected:?} but the file \
                 was written by {found:?}"
            ),
            GuardError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: this run's configuration hashes \
                 to {expected:#018x} but the file was written under {found:#018x} \
                 (different workload, seed, or options)"
            ),
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GuardError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Fingerprint of a run configuration: FNV-1a over a canonical string
/// the caller assembles from every option that affects the output
/// (workload, ranks, seed, faults, …). Two runs with equal fingerprints
/// must produce identical unit payloads.
pub fn config_fingerprint(canonical: &str) -> u64 {
    limba_par::fnv1a(canonical.as_bytes())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    #[test]
    fn errors_display_their_details() {
        let e = GuardError::KindMismatch {
            expected: "sweep".into(),
            found: "suite".into(),
        };
        assert!(e.to_string().contains("sweep"));
        assert!(e.to_string().contains("suite"));
        let e = GuardError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GuardError>();
    }
}
