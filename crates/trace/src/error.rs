//! Error type for trace handling.

use std::error::Error;
use std::fmt;

use limba_model::ModelError;

/// Error raised while building, validating, encoding, or reducing traces.
#[derive(Debug)]
pub enum TraceError {
    /// Event times of one processor went backwards.
    NonMonotoneTime {
        /// Processor whose clock went backwards.
        proc: u32,
        /// Time of the earlier event.
        before: f64,
        /// Offending (smaller) time of the later event.
        after: f64,
    },
    /// A leave/end event did not match the current enter/begin.
    UnbalancedNesting {
        /// Processor with the structural problem.
        proc: u32,
        /// Description of the mismatch.
        detail: String,
    },
    /// An event referenced a region that was never registered.
    UnknownRegion {
        /// The unregistered region index.
        region: usize,
    },
    /// An event referenced a processor outside the declared range.
    UnknownProcessor {
        /// The out-of-range processor index.
        proc: u32,
    },
    /// The byte stream or text being decoded was malformed.
    Malformed {
        /// Description of the decoding failure.
        detail: String,
    },
    /// A binary trace's content checksum did not match its payload —
    /// the file was corrupted after it was written (bit rot, a torn
    /// copy, or tampering), as opposed to [`Malformed`](Self::Malformed)
    /// structure the writer could never have produced.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the payload actually read.
        actual: u64,
    },
    /// One event made the stream structurally unsalvageable — unlike
    /// truncation damage (open regions or activities at end of stream),
    /// which [`reduce_checked`](crate::reduce_checked) repairs. Names
    /// the offending event by its recording-order index and processor.
    MalformedEvent {
        /// Processor whose stream is corrupt.
        proc: u32,
        /// Index of the offending event in recording order
        /// ([`Trace::events`](crate::Trace::events)).
        index: usize,
        /// Description of the structural violation.
        detail: String,
    },
    /// A trace outgrew its in-memory index: more than `u32::MAX`
    /// events, the most a [`RankOrder`](crate::RankOrder) position
    /// names.
    TooManyEvents {
        /// The event count that was refused.
        events: usize,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Reduction produced an invalid measurement matrix.
    Model(ModelError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NonMonotoneTime {
                proc,
                before,
                after,
            } => write!(
                f,
                "clock of processor {proc} went backwards from {before} to {after}"
            ),
            TraceError::UnbalancedNesting { proc, detail } => {
                write!(f, "unbalanced events on processor {proc}: {detail}")
            }
            TraceError::UnknownRegion { region } => write!(f, "unknown region index {region}"),
            TraceError::UnknownProcessor { proc } => write!(f, "unknown processor index {proc}"),
            TraceError::Malformed { detail } => write!(f, "malformed trace: {detail}"),
            TraceError::ChecksumMismatch { expected, actual } => write!(
                f,
                "trace checksum mismatch: file records {expected:#018x}, \
                 payload hashes to {actual:#018x}"
            ),
            TraceError::MalformedEvent {
                proc,
                index,
                detail,
            } => write!(f, "malformed event #{index} on processor {proc}: {detail}"),
            TraceError::TooManyEvents { events } => write!(
                f,
                "trace of {events} events exceeds the maximum of {} events",
                u32::MAX
            ),
            TraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceError::Model(e) => write!(f, "trace reduction produced invalid data: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<ModelError> for TraceError {
    fn from(e: ModelError) -> Self {
        TraceError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TraceError::NonMonotoneTime {
            proc: 3,
            before: 2.0,
            after: 1.0,
        };
        assert!(e.to_string().contains("processor 3"));
        assert!(e.source().is_none());
        let io = TraceError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
