//! Canonical report serialization and digests.
//!
//! The determinism guarantees of the parallel execution layer are stated
//! in terms of *bytes*: the same input analyzed with any `--jobs` count
//! must serialize to the same byte sequence. This module provides that
//! canonical byte form, plus cheap digests over it for cache keys and
//! golden-snapshot tests.
//!
//! The canonical form is the pretty `Debug` rendering of the [`Report`]
//! wrapped in a version header. Every field of every component is a
//! `Vec`, scalar, or `String` — no hash maps — so `Debug` output is a
//! deterministic function of the value, and Rust's float formatting is
//! shortest-round-trip, so distinct bit patterns render distinctly.

use crate::Report;

/// Version tag embedded in [`canonical`] output; bump when the report
/// structure changes incompatibly so stale snapshots fail loudly.
pub const CANONICAL_VERSION: u32 = 1;

/// The canonical byte-comparable serialization of a report.
pub fn canonical(report: &Report) -> String {
    format!("limba-report v{CANONICAL_VERSION}\n{report:#?}\n")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::Analyzer;
    use limba_model::{ActivityKind, MeasurementsBuilder};

    fn report() -> Report {
        let mut b = MeasurementsBuilder::new(4);
        let r = b.add_region("solver");
        for p in 0..4 {
            b.record(r, ActivityKind::Computation, p, 1.0 + p as f64)
                .unwrap();
        }
        Analyzer::new()
            .with_cluster_k(1)
            .analyze(&b.build().unwrap())
            .unwrap()
    }

    #[test]
    fn canonical_is_versioned_and_reproducible() {
        let a = canonical(&report());
        let b = canonical(&report());
        assert!(a.starts_with("limba-report v1\n"));
        assert_eq!(a, b);
    }

    #[test]
    fn different_reports_have_different_canonical_forms() {
        let base = report();
        let mut b = MeasurementsBuilder::new(4);
        let r = b.add_region("solver");
        for p in 0..4 {
            b.record(r, ActivityKind::Computation, p, 2.0 + p as f64)
                .unwrap();
        }
        let other = Analyzer::new()
            .with_cluster_k(1)
            .analyze(&b.build().unwrap())
            .unwrap();
        assert_ne!(canonical(&base), canonical(&other));
    }
}
