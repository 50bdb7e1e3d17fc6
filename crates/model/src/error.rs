//! Error type for the measurement model.

use std::error::Error;
use std::fmt;

use crate::ActivityKind;

/// Error raised while constructing or querying measurement data.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A region index was out of range.
    RegionOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of regions actually present.
        regions: usize,
    },
    /// A processor index was out of range.
    ProcessorOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of processors actually present.
        processors: usize,
    },
    /// An activity was recorded that the matrix does not carry a column for.
    UnknownActivity {
        /// The activity that was not part of the matrix's [`ActivitySet`](crate::ActivitySet).
        kind: ActivityKind,
    },
    /// A recorded time was negative or not finite.
    InvalidTime {
        /// The rejected value.
        value: f64,
    },
    /// A recorded count was not finite.
    InvalidCount {
        /// The rejected value.
        value: f64,
    },
    /// The builder was asked to build with no processors.
    NoProcessors,
    /// The builder was asked to build with no regions.
    NoRegions,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::RegionOutOfRange { index, regions } => {
                write!(f, "region index {index} out of range for {regions} regions")
            }
            ModelError::ProcessorOutOfRange { index, processors } => write!(
                f,
                "processor index {index} out of range for {processors} processors"
            ),
            ModelError::UnknownActivity { kind } => {
                write!(
                    f,
                    "activity {kind} is not part of this measurement's activity set"
                )
            }
            ModelError::InvalidTime { value } => {
                write!(
                    f,
                    "wall clock time must be finite and non-negative, got {value}"
                )
            }
            ModelError::InvalidCount { value } => {
                write!(f, "count must be finite and non-negative, got {value}")
            }
            ModelError::NoProcessors => write!(f, "measurements need at least one processor"),
            ModelError::NoRegions => write!(f, "measurements need at least one region"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ModelError::RegionOutOfRange {
            index: 9,
            regions: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('7'));
        assert!(msg.chars().next().unwrap().is_lowercase());

        let e = ModelError::UnknownActivity {
            kind: ActivityKind::Io,
        };
        assert!(e.to_string().contains("io"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
