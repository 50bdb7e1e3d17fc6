//! Event tracefiles for parallel programs.
//!
//! Tuning "typically rel\[ies\] on an experimental approach based on
//! instrumenting the program, monitoring its execution and analyzing the
//! performance measures either on the fly or post mortem". This crate is
//! the post-mortem half of that pipeline:
//!
//! * [`Event`] / [`Trace`] — a per-processor event model (region enter /
//!   leave, activity begin / end, message send / receive);
//! * [`binary`] and [`text`] — two on-disk codecs: a compact binary format
//!   built on [`bytes`] and a line-oriented text format for humans;
//! * [`validate`](Trace::validate) — structural checks (balanced nesting,
//!   monotone clocks, matched activities);
//! * [`reduce`] — the reduction of a trace into the
//!   [`Measurements`](limba_model::Measurements) matrix `t_ijp` (plus
//!   message [`CountMatrix`](limba_model::CountMatrix) counting
//!   parameters) that the analysis methodology consumes.
//!
//! Time inside a region that is not covered by an explicit activity
//! interval is attributed to `ActivityKind::Computation`, mirroring how
//! MPI profilers classify "time not spent inside the message-passing
//! library" as user computation.
//!
//! # Example
//!
//! ```
//! use limba_model::ActivityKind;
//! use limba_trace::{reduce, Event, TraceBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TraceBuilder::new(1);
//! let solve = b.add_region("solve");
//! b.push(Event::enter(0.0, 0, solve));
//! b.push(Event::begin_activity(1.0, 0, ActivityKind::PointToPoint));
//! b.push(Event::end_activity(1.5, 0, ActivityKind::PointToPoint));
//! b.push(Event::leave(2.0, 0, solve));
//! let trace = b.build();
//! let reduced = reduce(&trace)?;
//! let m = reduced.measurements;
//! assert!((m.time(solve, ActivityKind::Computation, 0.into()) - 1.5).abs() < 1e-12);
//! assert!((m.time(solve, ActivityKind::PointToPoint, 0.into()) - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod binary;
pub(crate) mod durable;
pub mod stream;
pub mod text;

mod event;
mod hierarchy;
mod reduce;
#[cfg(test)]
mod reference;
mod salvage;

pub use durable::{DurableSink, SealScan, SealScanner};
pub use event::{Event, EventPayload, RankOrder, Trace, TraceBuilder};
pub use hierarchy::{region_parents, ParentsSink};
pub use reduce::{reduce, reduce_windows, Attribution, ReducedTrace};
pub use salvage::{reduce_checked, RankCoverage, SalvageWalker, SalvagedTrace};
pub use stream::{
    MaterializeSink, ReduceSink, SalvageSink, ScanSink, StreamDecoder, StreamScan, TeeSink,
    TraceSink, WindowSink, WriteSink,
};

mod error;
pub use error::TraceError;
