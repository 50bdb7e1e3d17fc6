//! Qualitative pattern diagrams (Figures 1 and 2 of the paper).
//!
//! "The four colors used in the figures refer to the maximum and minimum
//! values of the wall clock times of the loop and to values belonging to
//! the lower and upper 15% intervals of the range of the wall clock
//! times, respectively."

use limba_model::{ActivityKind, Measurements, RegionId};

use crate::views::performed_cells;

/// Classification of one processor's time within a (region, activity) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternBin {
    /// Equal to the row maximum.
    Max,
    /// In the upper 15 % of the range, but not the maximum.
    UpperTail,
    /// In the middle 70 % of the range.
    Mid,
    /// In the lower 15 % of the range, but not the minimum.
    LowerTail,
    /// Equal to the row minimum.
    Min,
}

impl PatternBin {
    /// One-character glyph used by text renderings.
    pub fn glyph(self) -> char {
        match self {
            PatternBin::Max => 'M',
            PatternBin::UpperTail => '+',
            PatternBin::Mid => '.',
            PatternBin::LowerTail => '-',
            PatternBin::Min => 'm',
        }
    }
}

/// Classifies each value of `row` against the row's own range.
///
/// When all values are equal (range zero) every value is both the maximum
/// and the minimum; the whole row is classified [`PatternBin::Mid`] to
/// signal perfect balance.
pub fn classify_row(row: &[f64]) -> Vec<PatternBin> {
    if row.is_empty() {
        return Vec::new();
    }
    let (min, max) = row
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), &v| {
            (min.min(v), max.max(v))
        });
    let range = max - min;
    if range <= 0.0 {
        return vec![PatternBin::Mid; row.len()];
    }
    row.iter()
        .map(|&v| {
            if v == max {
                PatternBin::Max
            } else if v == min {
                PatternBin::Min
            } else if v >= min + 0.85 * range {
                PatternBin::UpperTail
            } else if v <= min + 0.15 * range {
                PatternBin::LowerTail
            } else {
                PatternBin::Mid
            }
        })
        .collect()
}

/// One row of a pattern diagram: a region's per-processor bins for one
/// activity.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRow {
    /// The region this row describes.
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// Per-processor bins.
    pub bins: Vec<PatternBin>,
}

impl PatternRow {
    /// Number of processors in the given bin.
    pub fn count(&self, bin: PatternBin) -> usize {
        self.bins.iter().filter(|&&b| b == bin).count()
    }

    /// Number of processors at or above the upper 15 % boundary
    /// (maximum included) — how the paper counts "times … belong\[ing\] to
    /// the upper 15% interval".
    pub fn upper_tail_count(&self) -> usize {
        self.count(PatternBin::Max) + self.count(PatternBin::UpperTail)
    }

    /// Number of processors at or below the lower 15 % boundary
    /// (minimum included).
    pub fn lower_tail_count(&self) -> usize {
        self.count(PatternBin::Min) + self.count(PatternBin::LowerTail)
    }
}

/// A pattern diagram for one activity: one row per region performing it
/// (the paper's "the diagrams plot only the loops performing the
/// activity").
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGrid {
    /// The activity the diagram shows.
    pub activity: ActivityKind,
    /// Rows in region order.
    pub rows: Vec<PatternRow>,
}

/// Builds the pattern diagram of `activity` from `measurements`.
pub fn pattern_grid(measurements: &Measurements, activity: ActivityKind) -> PatternGrid {
    let rows = performed_cells(measurements, activity)
        .map(|(r, column)| PatternRow {
            region: r,
            name: measurements.region_info(r).name().to_string(),
            bins: classify_row(column),
        })
        .collect();
    PatternGrid { activity, rows }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    #[test]
    fn classify_identifies_extremes_and_tails() {
        // Range [0, 100]: 0 → Min, 100 → Max, 10 → LowerTail, 90 →
        // UpperTail, 50 → Mid.
        let bins = classify_row(&[0.0, 100.0, 10.0, 90.0, 50.0]);
        assert_eq!(
            bins,
            vec![
                PatternBin::Min,
                PatternBin::Max,
                PatternBin::LowerTail,
                PatternBin::UpperTail,
                PatternBin::Mid
            ]
        );
    }

    #[test]
    fn boundaries_are_inclusive() {
        // 15 and 85 are exactly on the 15 % boundaries of [0, 100].
        let bins = classify_row(&[0.0, 100.0, 15.0, 85.0]);
        assert_eq!(bins[2], PatternBin::LowerTail);
        assert_eq!(bins[3], PatternBin::UpperTail);
    }

    #[test]
    fn equal_values_are_all_mid() {
        assert_eq!(classify_row(&[3.0; 5]), vec![PatternBin::Mid; 5]);
        assert!(classify_row(&[]).is_empty());
    }

    #[test]
    fn tied_extremes_all_classified() {
        let bins = classify_row(&[5.0, 5.0, 1.0, 1.0, 3.0]);
        assert_eq!(bins[0], PatternBin::Max);
        assert_eq!(bins[1], PatternBin::Max);
        assert_eq!(bins[2], PatternBin::Min);
        assert_eq!(bins[3], PatternBin::Min);
        assert_eq!(bins[4], PatternBin::Mid);
    }

    #[test]
    fn grid_includes_only_performing_regions() {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("with p2p");
        let _r1 = b.add_region("without p2p");
        b.record(r0, ActivityKind::PointToPoint, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::PointToPoint, 1, 2.0).unwrap();
        let m = b.build().unwrap();
        let grid = pattern_grid(&m, ActivityKind::PointToPoint);
        assert_eq!(grid.rows.len(), 1);
        assert_eq!(grid.rows[0].name, "with p2p");
        assert_eq!(grid.rows[0].bins, vec![PatternBin::Min, PatternBin::Max]);
    }

    #[test]
    fn tail_counts_include_extremes() {
        let row = PatternRow {
            region: RegionId::new(0),
            name: "r".into(),
            bins: classify_row(&[0.0, 1.0, 99.0, 100.0, 100.0]),
        };
        assert_eq!(row.upper_tail_count(), 3); // 99 + two 100s
        assert_eq!(row.lower_tail_count(), 2); // 0 + 1
        assert_eq!(row.count(PatternBin::Max), 2);
    }

    /// `classify_row` as it was with two sequential folds for the
    /// extremes: the one-pass scan must bin every row the same.
    fn classify_row_two_folds(row: &[f64]) -> Vec<PatternBin> {
        if row.is_empty() {
            return Vec::new();
        }
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = row.iter().copied().fold(f64::INFINITY, f64::min);
        let range = max - min;
        if range <= 0.0 {
            return vec![PatternBin::Mid; row.len()];
        }
        row.iter()
            .map(|&v| {
                if v == max {
                    PatternBin::Max
                } else if v == min {
                    PatternBin::Min
                } else if v >= min + 0.85 * range {
                    PatternBin::UpperTail
                } else if v <= min + 0.15 * range {
                    PatternBin::LowerTail
                } else {
                    PatternBin::Mid
                }
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn one_pass_extremes_bin_like_two_folds(
            picks in proptest::collection::vec(0usize..10, 0..12)
        ) {
            const VALUES: [f64; 10] =
                [0.0, -0.0, 1.0, 0.15, 0.85, 100.0, f64::NAN, f64::INFINITY, 5e-324, 1.0 / 3.0];
            let row: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
            proptest::prop_assert_eq!(classify_row(&row), classify_row_two_folds(&row));
        }
    }

    #[test]
    fn glyphs_are_distinct() {
        let glyphs = [
            PatternBin::Max.glyph(),
            PatternBin::UpperTail.glyph(),
            PatternBin::Mid.glyph(),
            PatternBin::LowerTail.glyph(),
            PatternBin::Min.glyph(),
        ];
        let mut sorted = glyphs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), glyphs.len());
    }
}
