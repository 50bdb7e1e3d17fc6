//! Dissimilarity analysis of counting parameters.
//!
//! The paper's model covers "counting parameters, such as, number of I/O
//! operations, number of bytes read/written, number of memory accesses,
//! number of cache misses" alongside the timings it focuses on. Counts
//! share the `region × processor` structure, so the same standardization
//! and indices of dispersion apply: an uneven distribution of bytes sent
//! across processors is communication-volume imbalance even before it
//! shows up as time.

use limba_model::{CountKind, CountMatrix, RegionId};
use limba_stats::dispersion::{DispersionIndex, DispersionKind};
use limba_stats::standardize::UnitSum;
use limba_stats::StatsError;

use crate::AnalysisError;

/// Dispersion of one recorded `(region, count kind)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CountCell {
    /// The region.
    pub region: RegionId,
    /// The counted quantity.
    pub kind: CountKind,
    /// Total count over all processors.
    pub total: f64,
    /// Index of dispersion of the per-processor counts.
    pub id: f64,
}

/// Per-kind summary across regions.
#[derive(Debug, Clone, PartialEq)]
pub struct CountSummary {
    /// The counted quantity.
    pub kind: CountKind,
    /// Program-wide total of the quantity.
    pub total: f64,
    /// Weighted average of the per-region dispersions, weighted by each
    /// region's share of the kind's total (the counting analogue of
    /// `ID_A`).
    pub id: f64,
}

/// The complete counting-parameter view.
#[derive(Debug, Clone, PartialEq)]
pub struct CountView {
    /// One entry per recorded cell with a positive total.
    pub cells: Vec<CountCell>,
    /// One summary per kind that was recorded.
    pub summaries: Vec<CountSummary>,
}

impl CountView {
    /// The most unevenly distributed cell, if any.
    pub fn most_imbalanced_cell(&self) -> Option<&CountCell> {
        self.cells.iter().max_by(|a, b| a.id.total_cmp(&b.id))
    }
}

/// Computes dispersion indices over all recorded counting cells.
///
/// Cells whose total is zero carry no distribution and are skipped.
///
/// # Errors
///
/// Propagates statistical errors (which indicate invalid counts).
pub fn count_view(
    counts: &CountMatrix,
    dispersion: DispersionKind,
) -> Result<CountView, AnalysisError> {
    let mut cells = Vec::new();
    for (region, kind, slice) in counts.cells() {
        // The checked cell's sum, taken once, is both its total and the
        // index's standardizing divisor. Recorded counts are finite and
        // non-negative, so a zero sum is an all-zero cell.
        let cell = match UnitSum::new(slice) {
            Ok(cell) => cell,
            Err(StatsError::ZeroSum) => continue,
            Err(e) => return Err(e.into()),
        };
        cells.push(CountCell {
            region,
            kind,
            total: cell.sum(),
            id: dispersion.index_of(&cell),
        });
    }
    let mut summaries: Vec<CountSummary> = Vec::new();
    for cell in &cells {
        match summaries.iter_mut().find(|s| s.kind == cell.kind) {
            Some(s) => {
                s.total += cell.total;
                s.id += cell.total * cell.id; // normalized below
            }
            None => summaries.push(CountSummary {
                kind: cell.kind,
                total: cell.total,
                id: cell.total * cell.id,
            }),
        }
    }
    for s in &mut summaries {
        s.id /= s.total;
    }
    Ok(CountView { cells, summaries })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::CountMatrixBuilder;

    fn sample() -> CountMatrix {
        let mut b = CountMatrixBuilder::new(4);
        let r0 = RegionId::new(0);
        let r1 = RegionId::new(1);
        // Balanced messages in region 0.
        for p in 0..4 {
            b.record(r0, CountKind::MessagesSent, p, 10.0).unwrap();
        }
        // All bytes from one processor in region 1.
        b.record(r1, CountKind::BytesSent, 2, 4096.0).unwrap();
        b.build()
    }

    #[test]
    fn balanced_counts_have_zero_dispersion() {
        let v = count_view(&sample(), DispersionKind::Euclidean).unwrap();
        let msg = v
            .cells
            .iter()
            .find(|c| c.kind == CountKind::MessagesSent)
            .unwrap();
        assert!(msg.id.abs() < 1e-12);
        assert_eq!(msg.total, 40.0);
    }

    #[test]
    fn concentrated_counts_are_flagged() {
        let v = count_view(&sample(), DispersionKind::Euclidean).unwrap();
        let worst = v.most_imbalanced_cell().unwrap();
        assert_eq!(worst.kind, CountKind::BytesSent);
        // One of four holds everything: sqrt(1 − 1/4).
        assert!((worst.id - 0.75f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summaries_aggregate_per_kind() {
        let mut b = CountMatrixBuilder::new(2);
        // Two regions of the same kind with different spreads and weights.
        b.record(RegionId::new(0), CountKind::IoOperations, 0, 3.0)
            .unwrap();
        b.record(RegionId::new(0), CountKind::IoOperations, 1, 3.0)
            .unwrap(); // balanced, total 6
        b.record(RegionId::new(1), CountKind::IoOperations, 0, 2.0)
            .unwrap(); // concentrated, total 2
        let v = count_view(&b.build(), DispersionKind::Euclidean).unwrap();
        let summary_of = |kind| v.summaries.iter().find(|s| s.kind == kind);
        let s = summary_of(CountKind::IoOperations).unwrap();
        assert_eq!(s.total, 8.0);
        // Weighted: (6·0 + 2·sqrt(1/2)) / 8.
        assert!((s.id - 2.0 * 0.5f64.sqrt() / 8.0).abs() < 1e-12);
        assert!(summary_of(CountKind::CacheMisses).is_none());
    }

    #[test]
    fn cells_keep_the_bits_of_summing_and_indexing_separately() {
        let mut b = CountMatrixBuilder::new(5);
        let counts = [0.1, 1.0 / 3.0, 1e-9, 1e6, 0.0];
        for (p, &c) in counts.iter().enumerate() {
            b.record(RegionId::new(0), CountKind::BytesSent, p, c)
                .unwrap();
        }
        b.record(RegionId::new(1), CountKind::BytesSent, 0, 0.0)
            .unwrap(); // an all-zero cell is skipped
        let matrix = b.build();
        for kind in DispersionKind::ALL {
            let v = count_view(&matrix, kind).unwrap();
            assert_eq!(v.cells.len(), 1);
            let total: f64 = counts.iter().sum();
            assert_eq!(v.cells[0].total.to_bits(), total.to_bits());
            let id = kind.index(&counts).unwrap();
            assert_eq!(v.cells[0].id.to_bits(), id.to_bits(), "{kind}");
        }
    }

    #[test]
    fn one_processor_has_no_dispersion() {
        let mut b = CountMatrixBuilder::new(1);
        b.record(RegionId::new(0), CountKind::BytesSent, 0, 512.0)
            .unwrap();
        b.record(RegionId::new(1), CountKind::BytesSent, 0, 1536.0)
            .unwrap();
        let matrix = b.build();
        for kind in DispersionKind::ALL {
            let v = count_view(&matrix, kind).unwrap();
            assert_eq!(v.cells.len(), 2, "{kind}");
            assert!(v.cells.iter().all(|c| c.id == 0.0), "{kind}");
            assert_eq!(v.summaries.len(), 1, "{kind}");
            assert_eq!(v.summaries[0].total, 2048.0, "{kind}");
            assert_eq!(v.summaries[0].id, 0.0, "{kind}");
        }
    }

    #[test]
    fn all_equal_counts_have_zero_dispersion_for_every_index() {
        let mut b = CountMatrixBuilder::new(6);
        for p in 0..6 {
            b.record(RegionId::new(0), CountKind::CacheMisses, p, 7.0)
                .unwrap();
        }
        let matrix = b.build();
        for kind in DispersionKind::ALL {
            let v = count_view(&matrix, kind).unwrap();
            assert_eq!(v.cells.len(), 1, "{kind}");
            assert_eq!(v.cells[0].total, 42.0, "{kind}");
            assert!(v.cells[0].id.abs() < 1e-12, "{kind}: {}", v.cells[0].id);
            assert_eq!(v.summaries[0].id, v.cells[0].id, "{kind}");
        }
    }

    #[test]
    fn a_single_region_summary_is_its_cell() {
        let mut b = CountMatrixBuilder::new(3);
        for (p, c) in [1.0, 2.0, 5.0].into_iter().enumerate() {
            b.record(RegionId::new(0), CountKind::IoOperations, p, c)
                .unwrap();
        }
        let matrix = b.build();
        for kind in DispersionKind::ALL {
            let v = count_view(&matrix, kind).unwrap();
            assert_eq!(v.cells.len(), 1, "{kind}");
            let (cell, summary) = (&v.cells[0], &v.summaries[0]);
            assert_eq!(summary.kind, cell.kind, "{kind}");
            assert_eq!(summary.total, cell.total, "{kind}");
            // total · id / total: equal up to one rounding.
            assert!(
                (summary.id - cell.id).abs() <= 1e-15 * cell.id.abs(),
                "{kind}"
            );
            assert_eq!(v.most_imbalanced_cell(), Some(cell), "{kind}");
        }
    }

    #[test]
    fn a_kind_recorded_only_as_zeros_has_no_cell_and_no_summary() {
        let mut b = CountMatrixBuilder::new(4);
        for p in 0..4 {
            b.record(RegionId::new(0), CountKind::MessagesSent, p, 0.0)
                .unwrap();
        }
        b.record(RegionId::new(0), CountKind::BytesSent, 1, 64.0)
            .unwrap();
        let matrix = b.build();
        for kind in DispersionKind::ALL {
            let v = count_view(&matrix, kind).unwrap();
            assert!(
                v.cells.iter().all(|c| c.kind == CountKind::BytesSent),
                "{kind}"
            );
            assert!(
                v.summaries.iter().all(|s| s.kind == CountKind::BytesSent),
                "{kind}"
            );
            assert!(v.summaries.iter().all(|s| s.id.is_finite()), "{kind}");
        }
    }

    #[test]
    fn empty_matrix_yields_empty_view() {
        let v = count_view(
            &CountMatrixBuilder::new(2).build(),
            DispersionKind::Euclidean,
        )
        .unwrap();
        assert!(v.cells.is_empty());
        assert!(v.summaries.is_empty());
        assert!(v.most_imbalanced_cell().is_none());
    }
}
