//! The three complementary views of processor dissimilarities.
//!
//! "our analysis focuses on three different views, namely, processor,
//! activity, and code region. These views provide complementary insights
//! into the behavior of the processors as they correspond to the
//! different perspectives used to characterize a parallel program."

mod activity;
mod processor;
mod region;

pub use activity::{activity_view, ActivitySummary, ActivityView};
pub(crate) use activity::{performed_cells, weighted_activity_id};
pub use processor::{processor_view, ProcessorView};
pub use region::{region_view, RegionSummary, RegionView};
