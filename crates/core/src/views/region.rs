//! The code-region view: `ID_C_i`, `SID_C_i`.
//!
//! "Code region view analyzes the dissimilarities with respect to the
//! various activities performed by the processors within each region
//! with the objective of identifying the most imbalanced region."

use limba_model::{Measurements, RegionId};

use crate::views::ActivityView;
use crate::AnalysisError;

/// Per-region summary: the weighted average `ID_C_i` and its scaled
/// counterpart `SID_C_i` (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSummary {
    /// The region.
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// `t_i`: region wall-clock time.
    pub seconds: f64,
    /// `t_i / T`.
    pub fraction_of_program: f64,
    /// `ID_C_i = Σ_j (t_ij / t_i) · ID_ij`.
    pub id: f64,
    /// `SID_C_i = (t_i / T) · ID_C_i`.
    pub sid: f64,
}

/// The complete code-region view.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionView {
    /// One summary per region with nonzero time, in region order.
    pub summaries: Vec<RegionSummary>,
}

impl RegionView {
    /// The most imbalanced region by raw `ID_C_i`.
    pub(crate) fn most_imbalanced(&self) -> Option<&RegionSummary> {
        self.summaries.iter().max_by(|a, b| a.id.total_cmp(&b.id))
    }

    /// The most imbalanced region by scaled `SID_C_i`.
    pub fn most_imbalanced_scaled(&self) -> Option<&RegionSummary> {
        self.summaries.iter().max_by(|a, b| a.sid.total_cmp(&b.sid))
    }

    /// Summary of one region, if it has nonzero time.
    pub fn summary_of(&self, region: RegionId) -> Option<&RegionSummary> {
        self.summaries.iter().find(|s| s.region == region)
    }
}

/// Computes the code-region view from the `ID_ij` matrix of an already
/// computed [`ActivityView`].
///
/// Degenerate inputs have defined results:
///
/// * a region with no time has no summary;
/// * with `P = 1`, or under all-equal loads, every `ID_ij` is `0` (up to
///   the rounding of the cells' sums), and so is every `ID_C_i`;
/// * with a single region, its summary has `t_i / T = 1`;
/// * an activity column that is zero everywhere has weight `0` and adds
///   nothing;
/// * a processor idle in a region counts as a `0` time in the region's
///   cells, as in the activity view.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when the total time is zero.
pub fn region_view(
    measurements: &Measurements,
    activity_view: &ActivityView,
) -> Result<RegionView, AnalysisError> {
    let total = measurements.total_time();
    if total <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let mut summaries = Vec::new();
    for r in measurements.region_ids() {
        let t_i = measurements.region_time(r);
        if t_i <= 0.0 {
            continue;
        }
        let mut weighted = 0.0;
        for (col, kind) in measurements.activities().iter().enumerate() {
            if let Some(d) = activity_view.id[r.index()][col] {
                let t_ij = measurements.region_activity_time(r, kind);
                weighted += t_ij / t_i * d;
            }
        }
        summaries.push(RegionSummary {
            region: r,
            name: measurements.region_info(r).name().to_string(),
            seconds: t_i,
            fraction_of_program: t_i / total,
            id: weighted,
            sid: t_i / total * weighted,
        });
    }
    Ok(RegionView { summaries })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::views::activity_view as compute_activity_view;
    use limba_model::{ActivityKind, MeasurementsBuilder};
    use limba_stats::dispersion::DispersionKind;

    /// Region 0: comp [1,3] (ID = 0.3535), coll [1,1] (ID = 0).
    /// Region 1: comp [2,2] (ID = 0).
    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("a");
        let r1 = b.add_region("b");
        b.record(r0, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::Computation, 1, 3.0).unwrap();
        b.record(r0, ActivityKind::Collective, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::Collective, 1, 1.0).unwrap();
        b.record(r1, ActivityKind::Computation, 0, 2.0).unwrap();
        b.record(r1, ActivityKind::Computation, 1, 2.0).unwrap();
        b.build().unwrap()
    }

    fn views(m: &Measurements) -> (ActivityView, RegionView) {
        let av = compute_activity_view(m, DispersionKind::Euclidean).unwrap();
        let rv = region_view(m, &av).unwrap();
        (av, rv)
    }

    #[test]
    fn region_summary_matches_hand_computation() {
        let m = sample();
        let (_, rv) = views(&m);
        // Region 0: t_0 = 2 + 1 = 3; ID_C = (2/3)·0.3535 + (1/3)·0.
        let id0 = (2.0f64 * 0.25 * 0.25).sqrt();
        let s0 = &rv.summaries[0];
        assert!((s0.id - 2.0 / 3.0 * id0).abs() < 1e-12);
        // T = 5 → SID = 3/5 · ID.
        assert!((s0.sid - 0.6 * s0.id).abs() < 1e-12);
        assert!((s0.fraction_of_program - 0.6).abs() < 1e-12);
        // Region 1 perfectly balanced.
        assert_eq!(rv.summaries[1].id, 0.0);
    }

    #[test]
    fn most_imbalanced_selectors() {
        let m = sample();
        let (_, rv) = views(&m);
        assert_eq!(rv.most_imbalanced().unwrap().name, "a");
        assert_eq!(rv.most_imbalanced_scaled().unwrap().name, "a");
        assert!(rv.summary_of(RegionId::new(1)).is_some());
        assert!(rv.summary_of(RegionId::new(7)).is_none());
    }

    #[test]
    fn one_processor_and_all_equal_loads_give_zero() {
        for p in [1, 4] {
            let mut b = MeasurementsBuilder::new(p);
            let r0 = b.add_region("a");
            let r1 = b.add_region("b");
            for proc in 0..p {
                b.record(r0, ActivityKind::Computation, proc, 2.0).unwrap();
                b.record(r0, ActivityKind::Collective, proc, 0.5).unwrap();
                b.record(r1, ActivityKind::PointToPoint, proc, 0.25)
                    .unwrap();
            }
            let (_, rv) = views(&b.build().unwrap());
            assert_eq!(rv.summaries.len(), 2);
            assert!(rv.summaries.iter().all(|s| s.id == 0.0 && s.sid == 0.0));
        }
    }

    #[test]
    fn single_region_takes_the_whole_program() {
        // Computation [1, 3] and an all-zero synchronization column.
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("only");
        b.record(r, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r, ActivityKind::Computation, 1, 3.0).unwrap();
        b.record(r, ActivityKind::Collective, 0, 1.0).unwrap();
        b.record(r, ActivityKind::Collective, 1, 1.0).unwrap();
        let m = b.build().unwrap();
        let (av, rv) = views(&m);
        assert_eq!(rv.summaries.len(), 1);
        let s = &rv.summaries[0];
        assert_eq!(s.fraction_of_program, 1.0);
        assert_eq!(s.sid, s.id);
        // Only computation spreads; it holds 2 of the region's 3 s.
        assert_eq!(av.id[0][3], None);
        let id0 = (2.0f64 * 0.25 * 0.25).sqrt();
        assert!((s.id - 2.0 / 3.0 * id0).abs() < 1e-15);
    }

    #[test]
    fn idle_processor_spreads_its_region() {
        let mut b = MeasurementsBuilder::new(2);
        let busy = b.add_region("busy");
        let half = b.add_region("p1 idle");
        for p in 0..2 {
            b.record(busy, ActivityKind::Computation, p, 1.0).unwrap();
        }
        b.record(half, ActivityKind::Computation, 0, 1.0).unwrap();
        let (_, rv) = views(&b.build().unwrap());
        assert_eq!(rv.summaries[0].id, 0.0);
        // [1, 0] standardized is (1, 0): sqrt(2 · 0.5²) from the mean.
        assert!((rv.summaries[1].id - 0.5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn zero_time_regions_are_skipped() {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("busy");
        let _empty = b.add_region("empty");
        b.record(r0, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::Computation, 1, 1.0).unwrap();
        let m = b.build().unwrap();
        let (_, rv) = views(&m);
        assert_eq!(rv.summaries.len(), 1);
        assert_eq!(rv.summaries[0].name, "busy");
    }
}
