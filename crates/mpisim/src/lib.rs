//! A discrete-event simulator of a message-passing parallel machine.
//!
//! The paper's case study ran a message-passing CFD code on 16 processors
//! of an IBM SP2. This crate stands in for that machine: it executes
//! per-rank op programs (compute, send/recv, collectives, barriers) under
//! a LogP-flavoured timing model and records a
//! [`Trace`](limba_trace::Trace) of region and activity events, which
//! reduces to exactly the `t_ijp` matrices the analysis methodology
//! consumes.
//!
//! The simulated machine has:
//!
//! * per-rank relative CPU speeds (heterogeneity / slow nodes);
//! * a point-to-point network with per-message overhead `o`, wire latency
//!   `L`, and bandwidth `B`, plus per-directed-link overrides (slow
//!   cables, cross-switch hops); messages above an eager threshold use a
//!   rendezvous protocol that blocks the sender until the receiver posts;
//! * nonblocking `isend`/`irecv`/`wait` with genuine communication/
//!   computation overlap (buffered semantics);
//! * collective cost models for eight operations (binomial-tree
//!   reduce/broadcast, recursive-doubling allreduce and barrier, pairwise
//!   alltoall, scaled-binomial gather/scatter, ring allgather).
//!
//! # Example
//!
//! ```
//! use limba_mpisim::{MachineConfig, ProgramBuilder, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new(4);
//! let step = pb.add_region("time step");
//! for rank in 0..4 {
//!     pb.rank(rank)
//!         .enter(step)
//!         .compute(1.0 + rank as f64 * 0.1) // imbalanced work
//!         .barrier()
//!         .leave(step);
//! }
//! let program = pb.build()?;
//! let output = Simulator::new(MachineConfig::default()).run(&program)?;
//! let reduced = output.reduce()?;
//! // The slowest rank arrives last, so it waits least in the barrier.
//! # let _ = reduced;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub(crate) mod arena;
pub(crate) mod balance;
mod collectives;
mod config;
mod engine;
mod error;
pub(crate) mod faults;
mod ops;
pub(crate) mod polling;
mod replicate;

pub use balance::{BalancePlan, BalanceReport};
pub use collectives::{collective_cost, CollectiveAlgorithm, CollectiveKind};
pub use config::MachineConfig;
pub use engine::{RunBudget, SimOutput, SimStats, Simulator, StreamOutput};
pub use error::SimError;
pub use faults::{Crash, FaultPlan, FaultReport, LinkFault, MessageLoss, SlowdownWindow};
pub use ops::{ComputeCells, Op, Program, ProgramBuilder, RankOps};
pub use replicate::Replication;
