//! Job-level failure handling: typed errors, panic capture, and
//! bounded retry.
//!
//! A supervised *unit* of work returns `Result<P, JobError>`. The
//! supervisor wraps each attempt in `catch_unwind`, so a panic inside a
//! unit becomes [`FailureKind::Panicked`] instead of tearing down the
//! whole sweep. Failures marked retryable are re-attempted under a
//! [`RetryPolicy`] with exponential backoff; panics and fatal errors
//! are never retried — a deterministic unit that panicked once will
//! panic again, and retrying it only burns the deadline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// An error returned by one attempt of a unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The attempt failed for a reason that will not change on retry
    /// (bad input, deterministic simulation error).
    Fatal(String),
    /// The attempt failed for a reason that might clear on retry
    /// (contended file, transient resource exhaustion).
    Retryable(String),
}

impl JobError {
    /// Whether the supervisor may re-attempt the unit.
    pub(crate) fn is_retryable(&self) -> bool {
        matches!(self, JobError::Retryable(_))
    }

    /// The human-readable failure message.
    pub(crate) fn message(&self) -> &str {
        match self {
            JobError::Fatal(m) | JobError::Retryable(m) => m,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Fatal(m) => write!(f, "fatal: {m}"),
            JobError::Retryable(m) => write!(f, "retryable: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// How a unit ultimately failed, after retries were exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The unit panicked; the payload is the captured panic message.
    Panicked {
        /// The panic payload, downcast to text when possible.
        message: String,
    },
    /// The unit returned an error on its final attempt.
    Failed {
        /// The final attempt's error message.
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
/// how many attempts were made, and how the last one ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Input index of the failed unit.
    pub unit: usize,
    /// Total attempts made (1 = no retries).
    pub attempts: u32,
    /// How the final attempt ended.
    pub kind: FailureKind,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Failed { .. } => "failed",
        };
        write!(
            f,
            "unit {} {what} after {} attempt{}: {}",
            self.unit,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.kind.message()
        )
    }
}

/// Retry discipline for retryable failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before retry `n` (1-based) is `base_backoff × 2^(n-1)`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` re-attempts with the default
    /// 10 ms base backoff.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before 1-based retry `n`, doubling each time and
    /// saturating instead of overflowing.
    pub(crate) fn backoff_before(&self, retry: u32) -> Duration {
        let factor = 2u32.saturating_pow(retry.saturating_sub(1));
        self.base_backoff.saturating_mul(factor)
    }
}

/// Runs one attempt of a unit with panic isolation: a panic inside
/// `work` is captured and returned as [`FailureKind::Panicked`] with
/// its message downcast to text when the payload is a `&str` or
/// `String` (the overwhelmingly common cases).
pub(crate) fn run_isolated<P>(
    work: impl FnOnce() -> Result<P, JobError>,
) -> Result<Result<P, JobError>, FailureKind> {
    // AssertUnwindSafe: the closure owns or shares-through-sync all its
    // state; a caught panic aborts the whole unit, so no partially
    // mutated state is observed afterwards.
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic payload of non-string type".to_string()
        };
        FailureKind::Panicked { message }
    })
}

/// Runs a unit to completion under `policy`: panic-isolated attempts,
/// retrying only retryable errors, sleeping the exponential backoff
/// between attempts. Returns the payload with the attempt count it
/// took, or the final failure tagged with `unit` and the attempt
/// count.
pub(crate) fn run_with_retry<P>(
    unit: usize,
    policy: &RetryPolicy,
    work: impl Fn() -> Result<P, JobError>,
) -> Result<(P, u32), JobFailure> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match run_isolated(&work) {
            Ok(Ok(payload)) => return Ok((payload, attempts)),
            Ok(Err(err)) => {
                let retries_used = attempts - 1;
                if err.is_retryable() && retries_used < policy.max_retries {
                    std::thread::sleep(policy.backoff_before(attempts));
                    continue;
                }
                return Err(JobFailure {
                    unit,
                    attempts,
                    kind: FailureKind::Failed {
                        message: err.message().to_string(),
                    },
                });
            }
            Err(kind) => {
                // Panics are never retried: the unit is deterministic,
                // so the same panic would recur.
                return Err(JobFailure {
                    unit,
                    attempts,
                    kind,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn success_passes_through() {
        let out = run_with_retry(0, &RetryPolicy::default(), || Ok::<_, JobError>(42));
        assert_eq!(out.unwrap(), (42, 1));
    }

    #[test]
    fn str_panic_message_is_captured() {
        let out = run_with_retry(3, &RetryPolicy::with_max_retries(5), || {
            if true {
                panic!("boom at unit three");
            }
            Ok::<u32, JobError>(0)
        });
        let failure = out.unwrap_err();
        assert_eq!(failure.unit, 3);
        // Panics are not retried even with retries available.
        assert_eq!(failure.attempts, 1);
        assert_eq!(
            failure.kind,
            FailureKind::Panicked {
                message: "boom at unit three".into()
            }
        );
        assert!(failure.to_string().contains("panicked after 1 attempt:"));
    }

    #[test]
    fn formatted_panic_message_is_captured() {
        let out: Result<(u32, u32), _> = run_with_retry(0, &RetryPolicy::default(), || {
            let n = 7;
            panic!("value {n} out of range");
        });
        assert_eq!(out.unwrap_err().kind.message(), "value 7 out of range");
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let calls = AtomicU32::new(0);
        let out: Result<(u32, u32), _> =
            run_with_retry(1, &RetryPolicy::with_max_retries(4), || {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(JobError::Fatal("bad input".into()))
            });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let failure = out.unwrap_err();
        assert_eq!(failure.attempts, 1);
        assert_eq!(
            failure.kind,
            FailureKind::Failed {
                message: "bad input".into()
            }
        );
    }

    #[test]
    fn retryable_errors_retry_up_to_the_cap() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(0),
        };
        let out: Result<(u32, u32), _> = run_with_retry(2, &policy, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Retryable("resource busy".into()))
        });
        // 1 initial + 3 retries.
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        assert_eq!(out.unwrap_err().attempts, 4);
    }

    #[test]
    fn retryable_error_that_clears_succeeds() {
        let calls = AtomicU32::new(0);
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(0),
        };
        let out = run_with_retry(0, &policy, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(JobError::Retryable("not yet".into()))
            } else {
                Ok(99u32)
            }
        });
        assert_eq!(out.unwrap(), (99, 3));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
        };
        assert_eq!(policy.backoff_before(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_before(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_before(3), Duration::from_millis(40));
        // No overflow panic at absurd retry counts.
        let _ = policy.backoff_before(u32::MAX);
    }
}
