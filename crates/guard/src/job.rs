//! Job-level failure handling: typed errors and panic capture.
//!
//! A supervised *unit* of work returns `Result<P, JobError>`. The
//! supervisor wraps each unit in `catch_unwind`, so a panic inside a
//! unit becomes [`FailureKind::Panicked`] instead of tearing down the
//! whole sweep. A unit runs once: units are deterministic, so a unit
//! that failed or panicked would do so again.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// An error returned by a unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The unit failed (bad input, deterministic simulation error).
    Fatal(String),
}

impl JobError {
    /// The human-readable failure message.
    pub(crate) fn message(&self) -> &str {
        match self {
            JobError::Fatal(m) => m,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fatal(m) => write!(f, "fatal: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// How a unit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked; the payload is the captured panic message.
    Panicked {
        /// The panic payload, downcast to text when possible.
        message: String,
    },
    /// The unit returned an error.
    Failed {
        /// The error message.
        message: String,
    },
}

impl FailureKind {
    /// The failure message regardless of kind.
    pub fn message(&self) -> &str {
        match self {
            FailureKind::Panicked { message } | FailureKind::Failed { message } => message,
        }
    }
}

/// The structured record of a unit that did not complete: which unit,
/// and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Input index of the failed unit.
    pub unit: usize,
    /// How the unit ended.
    pub kind: FailureKind,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Failed { .. } => "failed",
        };
        write!(f, "unit {} {what}: {}", self.unit, self.kind.message())
    }
}

/// Runs unit `unit` with panic isolation: a panic inside `work` is
/// captured and returned as [`FailureKind::Panicked`] with its message
/// downcast to text when the payload is a `&str` or `String` (the
/// overwhelmingly common cases); an error becomes
/// [`FailureKind::Failed`].
pub(crate) fn run_isolated<P>(
    unit: usize,
    work: impl FnOnce() -> Result<P, JobError>,
) -> Result<P, JobFailure> {
    // AssertUnwindSafe: the closure owns or shares-through-sync all its
    // state; a caught panic aborts the whole unit, so no partially
    // mutated state is observed afterwards.
    let kind = match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(payload)) => return Ok(payload),
        Ok(Err(err)) => FailureKind::Failed {
            message: err.message().to_string(),
        },
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic payload of non-string type".to_string()
            };
            FailureKind::Panicked { message }
        }
    };
    Err(JobFailure { unit, kind })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    #[test]
    fn success_passes_through() {
        let out = run_isolated(0, || Ok::<_, JobError>(42));
        assert_eq!(out.unwrap(), 42);
    }

    #[test]
    fn str_panic_message_is_captured() {
        let out = run_isolated(3, || {
            if true {
                panic!("boom at unit three");
            }
            Ok::<u32, JobError>(0)
        });
        let failure = out.unwrap_err();
        assert_eq!(failure.unit, 3);
        assert_eq!(
            failure.kind,
            FailureKind::Panicked {
                message: "boom at unit three".into()
            }
        );
        assert_eq!(failure.to_string(), "unit 3 panicked: boom at unit three");
    }

    #[test]
    fn formatted_panic_message_is_captured() {
        let out: Result<u32, _> = run_isolated(0, || {
            let n = 7;
            panic!("value {n} out of range");
        });
        assert_eq!(out.unwrap_err().kind.message(), "value 7 out of range");
    }

    #[test]
    fn fatal_errors_fail_the_unit() {
        let out: Result<u32, _> = run_isolated(1, || Err(JobError::Fatal("bad input".into())));
        let failure = out.unwrap_err();
        assert_eq!(failure.unit, 1);
        assert_eq!(
            failure.kind,
            FailureKind::Failed {
                message: "bad input".into()
            }
        );
    }
}
