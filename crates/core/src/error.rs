//! Error type for the analysis pipeline.

use std::error::Error;
use std::fmt;

use limba_cluster::ClusterError;
use limba_stats::StatsError;

/// Error raised by the analysis methodology.
#[derive(Debug)]
pub enum AnalysisError {
    /// The measurements contain no time at all (total wall clock zero).
    EmptyProgram,
    /// A statistical computation failed.
    Stats(StatsError),
    /// Region clustering failed.
    Cluster(ClusterError),
    /// A cancellation token tripped before this item was analyzed (see
    /// [`BatchAnalyzer::with_cancel`](crate::batch::BatchAnalyzer::with_cancel)).
    /// The item itself is fine; re-analyzing it without the token
    /// produces the normal report.
    Interrupted,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptyProgram => {
                write!(f, "measurements contain no wall clock time to analyze")
            }
            AnalysisError::Stats(e) => write!(f, "statistical computation failed: {e}"),
            AnalysisError::Cluster(e) => write!(f, "region clustering failed: {e}"),
            AnalysisError::Interrupted => {
                write!(f, "analysis cancelled before this item started")
            }
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Stats(e) => Some(e),
            AnalysisError::Cluster(e) => Some(e),
            AnalysisError::EmptyProgram | AnalysisError::Interrupted => None,
        }
    }
}

impl From<StatsError> for AnalysisError {
    fn from(e: StatsError) -> Self {
        AnalysisError::Stats(e)
    }
}

impl From<ClusterError> for AnalysisError {
    fn from(e: ClusterError) -> Self {
        AnalysisError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn display_and_source() {
        assert!(AnalysisError::EmptyProgram
            .to_string()
            .contains("no wall clock"));
        let e = AnalysisError::from(StatsError::EmptyData);
        assert!(e.source().is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }
}
