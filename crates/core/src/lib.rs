//! The load-imbalance analysis methodology.
//!
//! This crate implements the methodology of *"Load Imbalance in Parallel
//! Programs"* (Calzarossa, Massari, Tessera — PACT 2003) on top of the
//! [`limba_model`] measurement model:
//!
//! 1. **Coarse grain** ([`coarse`]): break the program wall-clock time
//!    down by activity and by code region; identify the *dominant*
//!    activity, the *heaviest* region, and the worst/best region per
//!    activity; group regions with homogeneous behaviour by k-means
//!    clustering ([`cluster_regions`]).
//! 2. **Fine grain** ([`views`]): standardize the per-processor times and
//!    compute indices of dispersion along three complementary views —
//!    *processor* (`ID_P_ip`), *activity* (`ID_ij`, `ID_A_j`, `SID_A_j`),
//!    and *code region* (`ID_C_i`, `SID_C_i`) — then rank them to locate
//!    the processors, activities, and regions with the largest
//!    dissimilarities ([`findings`]).
//!
//! [`patterns`] reproduces the qualitative pattern diagrams (Figures 1
//! and 2 of the paper): per-processor times binned into max / min /
//! upper-15 % / lower-15 % classes.
//!
//! The [`Analyzer`] ties the steps into one configurable pipeline
//! producing a [`Report`].
//!
//! The pipeline is agnostic to how its measurement matrix was
//! produced. Complete traces reduce strictly; truncated ones — a
//! crashed or interrupted rank under the simulator's fault-injection
//! layer — are salvaged upstream by `limba_trace::reduce_checked`,
//! which closes each cut stream at its last event and reports per-rank
//! coverage. The renderer surfaces that coverage next to the report
//! (`limba_viz::report::render_with_coverage`), so a flagged rank's
//! measurements read as lower bounds rather than silently passing for
//! complete data.
//!
//! # Example
//!
//! ```
//! use limba_analysis::Analyzer;
//! use limba_model::{ActivityKind, MeasurementsBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = MeasurementsBuilder::new(4);
//! let r = b.add_region("solver");
//! for p in 0..4 {
//!     b.record(r, ActivityKind::Computation, p, 1.0 + p as f64)?;
//! }
//! let report = Analyzer::new().with_cluster_k(1).analyze(&b.build()?)?;
//! assert_eq!(report.coarse.dominant_activity, ActivityKind::Computation);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod batch;
pub mod cluster_regions;
pub mod coarse;
pub mod compare;
pub mod count_views;
pub mod criteria;
pub mod evolution;
pub mod findings;
pub mod hierarchy;
pub mod patterns;
pub mod snapshot;
pub mod views;

mod error;
mod pipeline;
#[cfg(test)]
mod reference;

pub use batch::{BatchAnalyzer, ReportCache};
pub use error::AnalysisError;
pub use pipeline::{Analyzer, Report};
