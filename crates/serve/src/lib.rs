//! Live multi-tenant trace-ingestion service with online imbalance
//! detection.
//!
//! Everything upstream of this crate analyses a *finished* artifact: a
//! tracefile on disk, or a stream whose producer runs in the same
//! process. This crate turns the same machinery into a long-running
//! service that ingests traces **while the applications producing them
//! are still executing**:
//!
//! * [`server::Server`] — a threaded `std::net` TCP server (no async
//!   runtime). Each accepted connection is either a *push session*
//!   streaming one chunked-v3 trace (binary handshake naming tenant
//!   and run) or a one-shot *query* (line protocol). Sessions forward
//!   raw bytes to per-tenant **shard workers** over bounded
//!   `std::sync::mpsc` channels, so a slow shard backpressures
//!   the socket instead of buffering the trace — ingestion memory is
//!   bounded regardless of client count or trace size.
//! * [`detect::OnlineDetector`] — each shard feeds arriving frames
//!   through an incremental windowed fold that flags imbalance onset,
//!   rising dispersion trends, and per-rank outliers as structured
//!   [`detect::Alert`]s, long before the run ends.
//! * the run registry — the shared tenant/run table queries are
//!   answered from: admission control, live progress, terminal status.
//! * Durability — every run's bytes spool to disk as they arrive; with
//!   a checkpoint directory, run metadata persists via
//!   [`limba_guard::Checkpoint`] so a killed server resumes every
//!   tenant from its spooled offset and converges to **byte-identical**
//!   final reports. A mid-stream disconnect degrades to a
//!   salvage-grade partial report over the bytes that arrived, using
//!   the same truncation repair as `limba analyze --salvage`.
//! * [`client`] — the push/query side: stream a tracefile or any
//!   [`TraceSink`](limba_trace::TraceSink)-driven producer (the CLI
//!   plugs a live simulation in) and read back acks, final reports,
//!   and query responses.
//!
//! The contract that anchors all of it: a completed run's report is
//! byte-for-byte what `limba analyze` prints for the
//! same bytes. The server adds availability, not a second analysis
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::fmt;

pub mod client;
pub(crate) mod detect;
pub(crate) mod protocol;
pub(crate) mod registry;
pub mod replay;
pub(crate) mod server;

pub use client::{PushOutcome, PushSession};
pub use detect::{Alert, DetectorConfig, OnlineDetector, WindowStat};
pub use server::{ServeConfig, Server};

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or spool-file operation failed.
    Io(std::io::Error),
    /// Durable storage failed under a run (ENOSPC, EIO, torn spool).
    /// Unlike [`ServeError::Io`] this names the run's artifact: the
    /// run degrades to a resumable partial instead of failing, and
    /// other tenants are unaffected.
    Disk {
        /// The artifact that faulted (spool or checkpoint path).
        path: String,
        /// The underlying failure.
        detail: String,
    },
    /// The peer violated the wire protocol.
    Protocol(String),
    /// The server refused the session (admission control, duplicate
    /// run, tenant cap).
    Rejected(String),
    /// The trace content itself was invalid.
    Trace(limba_trace::TraceError),
    /// The service is in a state that cannot satisfy the request
    /// (unknown run, shutdown in progress, poisoned session).
    State(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Disk { path, detail } => write!(f, "disk: {path}: {detail}"),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
            ServeError::Rejected(m) => write!(f, "rejected: {m}"),
            ServeError::Trace(e) => write!(f, "trace: {e}"),
            ServeError::State(m) => write!(f, "state: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<limba_trace::TraceError> for ServeError {
    fn from(e: limba_trace::TraceError) -> Self {
        ServeError::Trace(e)
    }
}
