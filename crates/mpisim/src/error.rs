//! Error type for the simulator.

use std::error::Error;
use std::fmt;

use limba_trace::TraceError;

/// Error raised while building programs or simulating them.
#[derive(Debug)]
pub enum SimError {
    /// The machine configuration was invalid.
    InvalidConfig {
        /// What was wrong.
        detail: String,
    },
    /// A program op referenced a rank outside the machine.
    RankOutOfRange {
        /// Offending rank.
        rank: usize,
        /// Machine size.
        ranks: usize,
    },
    /// A send targeted the sending rank itself.
    SelfMessage {
        /// The rank that tried to message itself.
        rank: usize,
    },
    /// A point-to-point send carried more bytes than a trace event holds
    /// ([`Event::MAX_MESSAGE_BYTES`](limba_trace::Event::MAX_MESSAGE_BYTES)).
    MessageTooLarge {
        /// The sending rank.
        rank: usize,
        /// The rejected size.
        bytes: u64,
    },
    /// A compute op carried a negative or non-finite duration.
    InvalidWork {
        /// The rejected value.
        value: f64,
    },
    /// A nonblocking request handle was misused (duplicate outstanding
    /// handle, wait without a request, or a request never waited on).
    BadHandle {
        /// The rank with the bad handle usage.
        rank: usize,
        /// The offending handle.
        handle: u32,
        /// What was wrong.
        detail: String,
    },
    /// The `k`-th collective calls of two ranks disagree.
    CollectiveMismatch {
        /// Index of the collective call.
        instance: usize,
        /// Description of the disagreement.
        detail: String,
    },
    /// A fault plan was malformed or referenced ranks outside the
    /// machine (see [`FaultPlan::validate`](crate::FaultPlan::validate)
    /// and [`FaultPlan::parse_toml`](crate::FaultPlan::parse_toml)).
    InvalidFaultPlan {
        /// What was wrong.
        detail: String,
    },
    /// A balance plan carried an out-of-range parameter or malformed
    /// TOML (see [`BalancePlan::validate`](crate::BalancePlan::validate)
    /// and [`BalancePlan::parse_toml`](crate::BalancePlan::parse_toml)).
    InvalidBalancePlan {
        /// What was wrong.
        detail: String,
    },
    /// No rank could make progress but the program is not finished.
    Deadlock {
        /// Human-readable state of every stuck rank.
        detail: String,
    },
    /// A replication's program builder failed (see
    /// [`Simulator::run_replications`](crate::Simulator::run_replications)).
    BuildFailed {
        /// What went wrong.
        detail: String,
    },
    /// The produced trace failed validation or reduction, or outgrew
    /// what a trace holds.
    Trace(TraceError),
    /// A run budget cut the simulation short (op-count or wall-clock
    /// deadline exceeded, or its cancellation token tripped — see
    /// [`RunBudget`](crate::RunBudget)). The run produced no output;
    /// re-running the same program without the budget reproduces the
    /// uninterrupted result exactly.
    Interrupted {
        /// Which limit fired and where.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { detail } => write!(f, "invalid machine config: {detail}"),
            SimError::RankOutOfRange { rank, ranks } => {
                write!(f, "rank {rank} out of range for machine of {ranks} ranks")
            }
            SimError::SelfMessage { rank } => write!(f, "rank {rank} cannot message itself"),
            SimError::MessageTooLarge { rank, bytes } => write!(
                f,
                "rank {rank} sends a message of {bytes} bytes, over the maximum of {} a trace records",
                limba_trace::Event::MAX_MESSAGE_BYTES
            ),
            SimError::InvalidWork { value } => {
                write!(
                    f,
                    "compute work must be finite and non-negative, got {value}"
                )
            }
            SimError::BadHandle {
                rank,
                handle,
                detail,
            } => {
                write!(f, "rank {rank} misused request handle {handle}: {detail}")
            }
            SimError::CollectiveMismatch { instance, detail } => {
                write!(
                    f,
                    "collective call #{instance} mismatched across ranks: {detail}"
                )
            }
            SimError::InvalidFaultPlan { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
            SimError::InvalidBalancePlan { detail } => {
                write!(f, "invalid balance plan: {detail}")
            }
            SimError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            SimError::BuildFailed { detail } => {
                write!(f, "replication program build failed: {detail}")
            }
            SimError::Trace(e) => write!(f, "trace handling failed: {e}"),
            SimError::Interrupted { detail } => write!(f, "run interrupted: {detail}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl SimError {
    /// A wait by `rank` on `handle` found no outstanding request.
    /// Program validation rules this out; both engines report it
    /// instead of panicking.
    pub(crate) fn no_request(rank: usize, handle: u32) -> SimError {
        SimError::BadHandle {
            rank,
            handle,
            detail: "wait found no outstanding request".to_string(),
        }
    }

    /// Collective `instance` completed without `rank`'s arrival. The
    /// engines complete an instance only once every rank has arrived;
    /// both report a breach instead of panicking.
    pub(crate) fn not_arrived(instance: usize, rank: usize) -> SimError {
        SimError::CollectiveMismatch {
            instance,
            detail: format!("completed before rank {rank} arrived"),
        }
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Deadlock {
            detail: "rank 0 waiting on recv from 1".into(),
        };
        assert!(e.to_string().contains("deadlock"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
