//! The activity view: `ID_ij`, `ID_A_j`, `SID_A_j`.
//!
//! "Activity view analyzes dissimilarities within the activities
//! performed by the processors across all the code regions with the
//! objective of identifying the most imbalanced activity."

use limba_model::{ActivityKind, Measurements, RegionId};
use limba_stats::dispersion::{DispersionIndex, DispersionKind};

use crate::AnalysisError;

/// Per-activity summary: the weighted average `ID_A_j` and its scaled
/// counterpart `SID_A_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySummary {
    /// The activity.
    pub kind: ActivityKind,
    /// `T_j`: program-wide wall-clock time of the activity.
    pub seconds: f64,
    /// `T_j / T`.
    pub fraction_of_program: f64,
    /// `ID_A_j = Σ_i (t_ij / T_j) · ID_ij`.
    pub id: f64,
    /// `SID_A_j = (T_j / T) · ID_A_j`.
    pub sid: f64,
}

/// The complete activity view.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityView {
    /// `ID_ij` per `[region][activity column]`; `None` where the region
    /// does not perform the activity (the "-" cells of Table 2).
    pub id: Vec<Vec<Option<f64>>>,
    /// One summary per *performed* activity, in activity-column order
    /// (Table 3).
    pub summaries: Vec<ActivitySummary>,
}

impl ActivityView {
    /// The most imbalanced activity by raw `ID_A_j`.
    pub(crate) fn most_imbalanced(&self) -> Option<&ActivitySummary> {
        self.summaries.iter().max_by(|a, b| a.id.total_cmp(&b.id))
    }

    /// The most imbalanced activity by scaled `SID_A_j` — the paper's
    /// criterion for *tuning-relevant* imbalance.
    pub(crate) fn most_imbalanced_scaled(&self) -> Option<&ActivitySummary> {
        self.summaries.iter().max_by(|a, b| a.sid.total_cmp(&b.sid))
    }
}

/// Computes the activity view of `measurements` with the given index of
/// dispersion.
///
/// For each cell where region `i` performs activity `j`, the times of the
/// processors are standardized to sum one and their dispersion around the
/// balanced point is `ID_ij`. The per-activity summaries weight the
/// `ID_ij` by `t_ij / T_j` and scale by `T_j / T`. Each index reads the
/// cell's per-processor column in place
/// ([`Measurements::region_columns`]).
///
/// Degenerate inputs have defined results:
///
/// * an activity column that is zero everywhere is not performed: its
///   cells are `None` and it has no summary;
/// * with `P = 1`, or when a cell's processors all spent the same time
///   (all-equal loads), the cell's `ID_ij` is `0`, and so is a summary
///   whose cells all are;
/// * a processor idle in a cell that others perform counts as a `0`
///   time in the cell's spread;
/// * with a single region, each summary's `ID_A_j` is that region's
///   `ID_ij`.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when the total time is zero;
/// propagates statistical errors (which indicate invalid measurements).
pub fn activity_view(
    measurements: &Measurements,
    dispersion: DispersionKind,
) -> Result<ActivityView, AnalysisError> {
    let total = measurements.total_time();
    if total <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let k = measurements.activities().len();
    let mut id: Vec<Vec<Option<f64>>> = Vec::with_capacity(measurements.regions());
    for r in measurements.region_ids() {
        let mut row = Vec::with_capacity(k);
        let cells = measurements.activities().iter();
        for (kind, column) in cells.zip(measurements.region_columns(r)) {
            row.push(if measurements.performs(r, kind) {
                Some(dispersion.index(column)?)
            } else {
                None
            });
        }
        id.push(row);
    }

    let mut summaries = Vec::new();
    for (col, kind) in measurements.activities().iter().enumerate() {
        let t_j = measurements.activity_time(kind);
        if t_j <= 0.0 {
            continue;
        }
        let mut weighted = 0.0;
        for r in measurements.region_ids() {
            if let Some(d) = id[r.index()][col] {
                let t_ij = measurements.region_activity_time(r, kind);
                weighted += t_ij / t_j * d;
            }
        }
        summaries.push(ActivitySummary {
            kind,
            seconds: t_j,
            fraction_of_program: t_j / total,
            id: weighted,
            sid: t_j / total * weighted,
        });
    }
    Ok(ActivityView { id, summaries })
}

/// The regions that perform `kind`, in region order, each with its
/// per-processor column of `kind`.
pub(crate) fn performed_cells(
    measurements: &Measurements,
    kind: ActivityKind,
) -> impl Iterator<Item = (RegionId, &[f64])> {
    measurements.region_ids().filter_map(move |r| {
        let column = measurements.processor_slice(r, kind)?;
        measurements.performs(r, kind).then_some((r, column))
    })
}

/// `ID_A_j` of one activity, computed straight from the matrix (the
/// activity view's summary value), or `None` when the activity has no
/// time.
///
/// # Errors
///
/// Propagates statistical errors (which indicate invalid measurements).
pub(crate) fn weighted_activity_id(
    measurements: &Measurements,
    kind: ActivityKind,
    dispersion: DispersionKind,
) -> Result<Option<f64>, AnalysisError> {
    let t_j = measurements.activity_time(kind);
    if t_j <= 0.0 {
        return Ok(None);
    }
    let mut weighted = 0.0;
    for (r, column) in performed_cells(measurements, kind) {
        weighted += measurements.region_activity_time(r, kind) / t_j * dispersion.index(column)?;
    }
    Ok(Some(weighted))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    /// Two regions, two processors. Region 0: computation [1, 3] (spread),
    /// collective [1, 1] (balanced). Region 1: computation [2, 2].
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

    #[test]
    fn id_matrix_matches_hand_computation() {
        let v = activity_view(&sample(), DispersionKind::Euclidean).unwrap();
        // Region 0 computation: standardized [0.25, 0.75], mean 0.5 →
        // sqrt(2 · 0.25²) = 0.3535…
        let expected = (2.0f64 * 0.25 * 0.25).sqrt();
        assert!((v.id[0][0].unwrap() - expected).abs() < 1e-12);
        // Balanced cells are zero.
        assert_eq!(v.id[0][2], Some(0.0));
        assert_eq!(v.id[1][0], Some(0.0));
        // Not-performed cells are None.
        assert_eq!(v.id[0][1], None);
        assert_eq!(v.id[1][3], None);
    }

    #[test]
    fn summaries_weight_by_time_share() {
        let v = activity_view(&sample(), DispersionKind::Euclidean).unwrap();
        // Computation: T_comp = 2 + 2 = 4 (means). ID_A = (2/4)·0.3535 + (2/4)·0 .
        let comp = &v.summaries[0];
        assert_eq!(comp.kind, ActivityKind::Computation);
        let id0 = (2.0f64 * 0.25 * 0.25).sqrt();
        assert!((comp.id - 0.5 * id0).abs() < 1e-12);
        // T = 5 (4 comp + 1 collective), so SID = 4/5 · ID.
        assert!((comp.sid - 0.8 * comp.id).abs() < 1e-12);
        assert!((comp.fraction_of_program - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unperformed_activities_have_no_summary() {
        let v = activity_view(&sample(), DispersionKind::Euclidean).unwrap();
        let kinds: Vec<ActivityKind> = v.summaries.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![ActivityKind::Computation, ActivityKind::Collective]
        );
    }

    #[test]
    fn most_imbalanced_selectors() {
        let v = activity_view(&sample(), DispersionKind::Euclidean).unwrap();
        assert_eq!(v.most_imbalanced().unwrap().kind, ActivityKind::Computation);
        assert_eq!(
            v.most_imbalanced_scaled().unwrap().kind,
            ActivityKind::Computation
        );
    }

    #[test]
    fn empty_program_rejected() {
        let mut b = MeasurementsBuilder::new(1);
        b.add_region("r");
        let m = b.build().unwrap();
        assert!(matches!(
            activity_view(&m, DispersionKind::Euclidean),
            Err(AnalysisError::EmptyProgram)
        ));
    }

    /// One region on `p` processors; `comp(p)` and `coll(p)` give each
    /// processor's computation and collective times (point-to-point
    /// and synchronization stay zero everywhere).
    fn one_region(
        p: usize,
        comp: impl Fn(usize) -> f64,
        coll: impl Fn(usize) -> f64,
    ) -> Measurements {
        let mut b = MeasurementsBuilder::new(p);
        let r = b.add_region("r");
        for proc in 0..p {
            b.record(r, ActivityKind::Computation, proc, comp(proc))
                .unwrap();
            b.record(r, ActivityKind::Collective, proc, coll(proc))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn one_processor_cells_are_balanced() {
        let v = activity_view(&one_region(1, |_| 0.3, |_| 0.1), DispersionKind::Euclidean).unwrap();
        assert_eq!(v.id, vec![vec![Some(0.0), None, Some(0.0), None]]);
        assert!(v.summaries.iter().all(|s| s.id == 0.0 && s.sid == 0.0));
    }

    #[test]
    fn all_equal_loads_have_index_zero() {
        // Times that sum exactly give exact zeros; others leave rounding.
        let exact =
            activity_view(&one_region(4, |_| 2.0, |_| 0.5), DispersionKind::Euclidean).unwrap();
        assert_eq!(exact.id[0], vec![Some(0.0), None, Some(0.0), None]);
        let rounded =
            activity_view(&one_region(3, |_| 0.1, |_| 0.7), DispersionKind::Euclidean).unwrap();
        for d in rounded.id[0].iter().flatten() {
            assert!(d.abs() < 1e-15, "{d}");
        }
    }

    #[test]
    fn single_region_summaries_are_its_cells() {
        let m = one_region(3, |p| 1.0 + p as f64, |p| 0.5 * p as f64);
        let v = activity_view(&m, DispersionKind::Euclidean).unwrap();
        // t_ij / T_j is exactly 1 with one region.
        assert_eq!(v.summaries[0].id, v.id[0][0].unwrap());
        assert_eq!(v.summaries[1].id, v.id[0][2].unwrap());
        let fractions: f64 = v.summaries.iter().map(|s| s.fraction_of_program).sum();
        assert!((fractions - 1.0).abs() < 1e-15);
    }

    #[test]
    fn zero_activity_columns_are_not_performed() {
        let v = activity_view(
            &one_region(2, |_| 1.0, |p| p as f64),
            DispersionKind::Euclidean,
        )
        .unwrap();
        assert_eq!(v.id[0][1], None);
        assert_eq!(v.id[0][3], None);
        let kinds: Vec<ActivityKind> = v.summaries.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![ActivityKind::Computation, ActivityKind::Collective]
        );
    }

    #[test]
    fn idle_processor_counts_as_zero_time() {
        // Processor 1 is idle in the region: the computation cell is
        // [2, 0, 2], standardized (1/2, 0, 1/2) around 1/3.
        let m = one_region(
            3,
            |p| if p == 1 { 0.0 } else { 2.0 },
            |p| if p == 1 { 0.0 } else { 1.0 },
        );
        let v = activity_view(&m, DispersionKind::Euclidean).unwrap();
        let expected = (1.0f64 / 6.0).sqrt();
        assert!((v.id[0][0].unwrap() - expected).abs() < 1e-15);
        assert!((v.id[0][2].unwrap() - expected).abs() < 1e-15);
    }

    #[test]
    fn alternative_dispersion_indices_work() {
        for kind in DispersionKind::ALL {
            let v = activity_view(&sample(), kind).unwrap();
            assert!(v.id[0][0].unwrap() > 0.0, "{kind} gave zero on spread data");
            assert!(v.id[1][0].unwrap().abs() < 1e-12);
        }
    }
}
