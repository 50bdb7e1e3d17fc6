//! `limba` — the Load IMBalance Analysis suite.
//!
//! This facade crate re-exports the whole suite, a from-scratch
//! reproduction of *"Load Imbalance in Parallel Programs"* (Calzarossa,
//! Massari, Tessera — PACT 2003):
//!
//! * [`model`] — the `t_ijp` measurement model (regions × activities ×
//!   processors) and coarse-grain profiles;
//! * [`stats`] — indices of dispersion, majorization theory,
//!   standardization, and ranking criteria;
//! * [`cluster`] — k-means clustering of code regions;
//! * [`trace`] — event tracefiles and their reduction to measurements;
//! * [`mpisim`] — a discrete-event message-passing machine simulator;
//! * [`workloads`] — synthetic applications (CFD proxy, stencil,
//!   master–worker, pipeline, irregular) with imbalance injection;
//! * [`analysis`] — the paper's methodology: the processor / activity /
//!   code-region views, findings, and reports — plus the extensions the
//!   paper's future work calls for: counting-parameter views, imbalance
//!   evolution over time windows, severity-criteria studies, and
//!   hierarchical drill-down over nested regions;
//! * [`calibrate`] — inverse synthesis of measurement matrices from
//!   published marginals and dispersion targets;
//! * [`advisor`] — the closed-loop tuning advisor: a catalog of typed
//!   interventions, analytic gain prediction with majorization bounds,
//!   budgeted beam search, and simulate-verified recommendations;
//! * [`par`] — deterministic parallel execution primitives backing the
//!   batch analyzer, replication sweeps, and intra-report fan-out;
//! * [`guard`] — the supervised execution runtime: deadlines,
//!   cooperative cancellation, panic isolation with bounded retry, and
//!   checksummed checkpoint/resume for long-running sweeps;
//! * [`vfs`] — the filesystem abstraction behind the durability story:
//!   the small `Vfs` trait the checkpoint/spool/stream writers go
//!   through, an in-memory POSIX crash model, and a deterministic
//!   I/O fault injector (ENOSPC, EIO, short writes, failed renames,
//!   power cuts);
//! * [`stream`] — streamed simulate → reduce: the simulator's events
//!   fold straight into the salvaged and windowed reductions, so
//!   simulate → reduce → analyze runs without materializing the trace
//!   (bit-identical to the batch path);
//! * [`viz`] — text tables, pattern diagrams, and SVG output.
//!
//! # Quickstart
//!
//! ```
//! use limba::analysis::Analyzer;
//! use limba::calibrate::paper::paper_measurements;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The case study from the paper, reconstructed from its published data.
//! let measurements = paper_measurements()?;
//! let report = Analyzer::new().analyze(&measurements)?;
//! // Loop 1 is the heaviest region, computation the dominant activity.
//! assert_eq!(report.coarse.heaviest_region_name, "loop 1");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use limba_advisor as advisor;
pub use limba_analysis as analysis;
pub use limba_calibrate as calibrate;
pub use limba_cluster as cluster;
pub use limba_guard as guard;
pub use limba_model as model;
pub use limba_mpisim as mpisim;
pub use limba_par as par;
pub use limba_serve as serve;
pub use limba_stats as stats;
pub use limba_stream as stream;
pub use limba_trace as trace;
pub use limba_vfs as vfs;
pub use limba_viz as viz;
pub use limba_workloads as workloads;
