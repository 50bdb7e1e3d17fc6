//! Temporal evolution of load imbalance.
//!
//! The paper analyzes one aggregate matrix per run; a natural extension
//! (in the spirit of its "new criteria" future work and of on-line tools
//! like Paradyn) is to track how the indices of dispersion *evolve* over
//! the execution: a growing index points at progressive imbalance (e.g.
//! particles clustering), a stable one at a structural decomposition
//! problem. The per-window matrices come from
//! `limba_trace::reduce_windows`-style slicing; this module fits the
//! trend.

use limba_model::{ActivityKind, Measurements};
use limba_stats::describe::least_squares_slope;
use limba_stats::dispersion::DispersionKind;

use crate::views::weighted_activity_id;
use crate::AnalysisError;

/// Direction of an imbalance trend over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// The index grows by more than the tolerance over the run.
    Growing,
    /// The index shrinks by more than the tolerance over the run.
    Shrinking,
    /// No significant drift.
    Stable,
}

/// Evolution of one activity's program-wide dispersion across windows.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceSeries {
    /// The activity tracked.
    pub activity: ActivityKind,
    /// One weighted dispersion value per window (`ID_A_j` of the window);
    /// `None` for windows where the activity has no time.
    pub values: Vec<Option<f64>>,
    /// Least-squares slope per window step over the defined values.
    pub slope: f64,
    /// Trend classification of the slope.
    pub trend: Trend,
}

/// Evolution report over all activities.
#[derive(Debug, Clone, PartialEq)]
pub struct Evolution {
    /// One series per activity with any time in any window.
    pub series: Vec<ImbalanceSeries>,
}

impl Evolution {
    /// The series of one activity, if present.
    pub fn series_of(&self, activity: ActivityKind) -> Option<&ImbalanceSeries> {
        self.series.iter().find(|s| s.activity == activity)
    }

    /// Activities with a growing imbalance trend.
    pub fn growing(&self) -> Vec<ActivityKind> {
        self.series
            .iter()
            .filter(|s| s.trend == Trend::Growing)
            .map(|s| s.activity)
            .collect()
    }
}

/// Tracks how each activity's weighted dispersion evolves across the
/// per-window measurement matrices.
///
/// `tolerance` is the minimum total drift (slope × window count) that
/// counts as a trend; `0.02` is a reasonable default for the Euclidean
/// index.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when no windows are given;
/// propagates statistical errors.
pub fn imbalance_evolution(
    windows: &[Measurements],
    dispersion: DispersionKind,
    tolerance: f64,
) -> Result<Evolution, AnalysisError> {
    let first = windows.first().ok_or(AnalysisError::EmptyProgram)?;
    let mut series = Vec::new();
    for kind in first.activities().iter() {
        let mut values = Vec::with_capacity(windows.len());
        for w in windows {
            values.push(weighted_activity_id(w, kind, dispersion)?);
        }
        if values.iter().all(|v| v.is_none()) {
            continue;
        }
        let points: Vec<(f64, f64)> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i as f64, v)))
            .collect();
        let slope = least_squares_slope(&points);
        let drift = slope * windows.len() as f64;
        let trend = if drift > tolerance {
            Trend::Growing
        } else if drift < -tolerance {
            Trend::Shrinking
        } else {
            Trend::Stable
        };
        series.push(ImbalanceSeries {
            activity: kind,
            values,
            slope,
            trend,
        });
    }
    Ok(Evolution { series })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    /// A window whose computation spread factor is `skew` (processor 1
    /// does `1 + skew`, processor 0 does `1 − skew`).
    fn window(skew: f64) -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Computation, 0, 1.0 - skew)
            .unwrap();
        b.record(r, ActivityKind::Computation, 1, 1.0 + skew)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn growing_imbalance_is_detected() {
        let windows: Vec<Measurements> = (0..5).map(|i| window(i as f64 * 0.1)).collect();
        let evo = imbalance_evolution(&windows, DispersionKind::Euclidean, 0.02).unwrap();
        let comp = evo.series_of(ActivityKind::Computation).unwrap();
        assert_eq!(comp.trend, Trend::Growing);
        assert!(comp.slope > 0.0);
        assert_eq!(evo.growing(), vec![ActivityKind::Computation]);
        // Values are increasing.
        let vals: Vec<f64> = comp.values.iter().map(|v| v.unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn shrinking_and_stable_trends() {
        let shrinking: Vec<Measurements> = (0..5).map(|i| window(0.4 - i as f64 * 0.1)).collect();
        let evo = imbalance_evolution(&shrinking, DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(
            evo.series_of(ActivityKind::Computation).unwrap().trend,
            Trend::Shrinking
        );

        let stable: Vec<Measurements> = (0..5).map(|_| window(0.2)).collect();
        let evo = imbalance_evolution(&stable, DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(
            evo.series_of(ActivityKind::Computation).unwrap().trend,
            Trend::Stable
        );
    }

    #[test]
    fn activities_without_time_are_skipped() {
        let windows = vec![window(0.1)];
        let evo = imbalance_evolution(&windows, DispersionKind::Euclidean, 0.02).unwrap();
        assert!(evo.series_of(ActivityKind::PointToPoint).is_none());
        assert_eq!(evo.series.len(), 1);
    }

    #[test]
    fn empty_windows_rejected() {
        assert!(matches!(
            imbalance_evolution(&[], DispersionKind::Euclidean, 0.02),
            Err(AnalysisError::EmptyProgram)
        ));
    }

    #[test]
    fn windows_where_activity_pauses_yield_none() {
        // Window 1 has no computation at all.
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Collective, 0, 1.0).unwrap();
        b.record(r, ActivityKind::Collective, 1, 1.0).unwrap();
        let idle = b.build().unwrap();
        let windows = vec![window(0.1), idle, window(0.3)];
        let evo = imbalance_evolution(&windows, DispersionKind::Euclidean, 1e9).unwrap();
        let comp = evo.series_of(ActivityKind::Computation).unwrap();
        assert_eq!(comp.values[1], None);
        assert!(comp.values[0].is_some() && comp.values[2].is_some());
        // Huge tolerance → stable.
        assert_eq!(comp.trend, Trend::Stable);
    }

    #[test]
    fn slope_of_constant_series_is_zero() {
        assert_eq!(least_squares_slope(&[(0.0, 1.0), (1.0, 1.0)]), 0.0);
        assert_eq!(least_squares_slope(&[(0.0, 1.0)]), 0.0);
        assert!((least_squares_slope(&[(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]) - 2.0).abs() < 1e-12);
    }
}
