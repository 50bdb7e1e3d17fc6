//! Measurement model for parallel-program performance analysis.
//!
//! This crate defines the data model that the rest of the `limba` suite is
//! built on: a parallel program is observed as a set of *code regions*
//! (loops, routines, statements), each performing a set of *activities*
//! (computation, communication, synchronization, …) on a set of allocated
//! *processors*. The central type is [`Measurements`], a dense
//! `N × K × P` matrix of wall-clock times `t_ijp` — the time processor `p`
//! spent in activity `j` of code region `i` — together with its marginals
//! (`t_ij`, `t_i`, `T_j`, `T`) and derived [`ProgramProfile`] breakdowns.
//!
//! Counting parameters (message counts, bytes, I/O operations, cache
//! misses) are carried by the parallel [`counting::CountMatrix`] type.
//!
//! # Example
//!
//! ```
//! use limba_model::{ActivityKind, MeasurementsBuilder};
//!
//! # fn main() -> Result<(), limba_model::ModelError> {
//! let mut b = MeasurementsBuilder::new(2); // two processors
//! let solve = b.add_region("solver loop");
//! b.record(solve, ActivityKind::Computation, 0, 1.25)?;
//! b.record(solve, ActivityKind::Computation, 1, 1.75)?;
//! b.record(solve, ActivityKind::PointToPoint, 0, 0.25)?;
//! let m = b.build()?;
//! assert_eq!(m.regions(), 1);
//! assert!((m.region_activity_time(solve, ActivityKind::Computation) - 1.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod counting;
mod error;
mod ids;
mod labels;
mod matrix;
mod ops;
mod profile;

pub use activity::{ActivityKind, ActivitySet, STANDARD_ACTIVITIES};
pub use counting::{CountKind, CountMatrix, CountMatrixBuilder};
pub use error::ModelError;
pub use ids::{ProcessorId, RegionId};
pub use labels::{RegionInfo, RegionKind, SourceLocation};
pub use matrix::{Measurements, MeasurementsBuilder};
pub use profile::{ActivityBreakdown, ProgramProfile, RegionProfile};
