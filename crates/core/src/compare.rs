//! Run-to-run comparison: verification and validation of tuning.
//!
//! The paper frames tuning as "an iterative process consisting of several
//! steps, dealing with the identification and localization of
//! inefficiencies, their repair and the verification and validation of
//! the achieved performance". The views cover identification and
//! localization; this module covers the last step: given measurements of
//! a run *before* and *after* a repair, quantify what actually improved
//! — per region, per activity, and overall — and whether the imbalance
//! indices moved the right way.

use limba_model::{ActivityKind, Measurements, RegionId};
use limba_stats::dispersion::{DispersionIndex, DispersionKind};

use crate::views::weighted_activity_id;
use crate::AnalysisError;

/// Verdict on one region's change between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both the wall-clock time and the dispersion improved (or one
    /// improved with the other unchanged).
    Improved,
    /// Time or dispersion got significantly worse.
    Regressed,
    /// No significant change either way.
    Unchanged,
    /// Faster but more imbalanced, or slower but better balanced.
    Mixed,
}

/// Comparison of one region across two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDelta {
    /// The region (index in the *before* run; shapes must match).
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// `t_i` before, seconds.
    pub before_seconds: f64,
    /// `t_i` after, seconds.
    pub after_seconds: f64,
    /// `before / after` (`> 1` means faster). A region with zero time
    /// in both runs did not change: `1.0`. One whose time drops to zero
    /// from a positive one is `inf`.
    pub speedup: f64,
    /// Weighted dispersion `ID_C` before.
    pub before_id: f64,
    /// Weighted dispersion `ID_C` after.
    pub after_id: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Comparison of two runs of the same program.
#[derive(Debug, Clone, PartialEq)]
pub struct RunComparison {
    /// Whole-program speedup `T_before / T_after`.
    pub total_speedup: f64,
    /// One delta per region, in region order.
    pub regions: Vec<RegionDelta>,
    /// `(activity, ID_A before, ID_A after)` for every activity performed
    /// in either run.
    pub activity_ids: Vec<(ActivityKind, f64, f64)>,
}

impl RunComparison {
    /// Regions whose verdict is [`Verdict::Regressed`].
    pub fn regressions(&self) -> Vec<&RegionDelta> {
        self.regions
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
            .collect()
    }
}

fn region_weighted_id(
    m: &Measurements,
    r: RegionId,
    dispersion: DispersionKind,
) -> Result<f64, AnalysisError> {
    let t_i = m.region_time(r);
    if t_i <= 0.0 {
        return Ok(0.0);
    }
    let mut weighted = 0.0;
    for (kind, column) in m.activities().iter().zip(m.region_columns(r)) {
        if m.performs(r, kind) {
            weighted += m.region_activity_time(r, kind) / t_i * dispersion.index(column)?;
        }
    }
    Ok(weighted)
}

/// Compares two runs of the same program (same regions, activities, and
/// processor count). `tolerance` is the relative change below which a
/// quantity counts as unchanged (`0.02` = 2 %).
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when the runs have different
/// shapes or the *before* run has no time, and propagates statistical
/// errors.
pub fn compare_runs(
    before: &Measurements,
    after: &Measurements,
    dispersion: DispersionKind,
    tolerance: f64,
) -> Result<RunComparison, AnalysisError> {
    if !before.same_shape(after) || before.total_time() <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let total_after = after.total_time();
    let total_speedup = if total_after > 0.0 {
        before.total_time() / total_after
    } else {
        f64::INFINITY
    };
    let significant = |a: f64, b: f64| (a - b).abs() > tolerance * a.abs().max(b.abs()).max(1e-30);
    let mut regions = Vec::new();
    for r in before.region_ids() {
        let b_t = before.region_time(r);
        let a_t = after.region_time(r);
        let b_id = region_weighted_id(before, r, dispersion)?;
        let a_id = region_weighted_id(after, r, dispersion)?;
        let time_better = significant(b_t, a_t) && a_t < b_t;
        let time_worse = significant(b_t, a_t) && a_t > b_t;
        let id_better = significant(b_id, a_id) && a_id < b_id;
        let id_worse = significant(b_id, a_id) && a_id > b_id;
        let verdict = match (time_better, time_worse, id_better, id_worse) {
            (false, false, false, false) => Verdict::Unchanged,
            (_, false, _, false) => Verdict::Improved,
            (false, _, false, _) => Verdict::Regressed,
            _ => Verdict::Mixed,
        };
        regions.push(RegionDelta {
            region: r,
            name: before.region_info(r).name().to_string(),
            before_seconds: b_t,
            after_seconds: a_t,
            speedup: match (b_t > 0.0, a_t > 0.0) {
                (_, true) => b_t / a_t,
                (true, false) => f64::INFINITY,
                (false, false) => 1.0,
            },
            before_id: b_id,
            after_id: a_id,
            verdict,
        });
    }
    let mut activity_ids = Vec::new();
    for kind in before.activities().iter() {
        let b = weighted_activity_id(before, kind, dispersion)?.unwrap_or(0.0);
        let a = weighted_activity_id(after, kind, dispersion)?.unwrap_or(0.0);
        if b > 0.0 || a > 0.0 || before.activity_time(kind) > 0.0 || after.activity_time(kind) > 0.0
        {
            activity_ids.push((kind, b, a));
        }
    }
    Ok(RunComparison {
        total_speedup,
        regions,
        activity_ids,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    fn run(skew: f64, slow: f64) -> Measurements {
        let mut b = MeasurementsBuilder::new(4);
        let core = b.add_region("core");
        let halo = b.add_region("halo");
        for p in 0..4 {
            let w = 1.0 + if p == 3 { skew } else { 0.0 };
            b.record(core, ActivityKind::Computation, p, slow * w)
                .unwrap();
            b.record(halo, ActivityKind::PointToPoint, p, 0.5).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn repair_is_recognized_as_improvement() {
        let before = run(2.0, 1.0); // skewed
        let after = run(0.0, 1.0); // rebalanced: same total work? t drops on p3
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        assert!(cmp.total_speedup > 1.0);
        let core = &cmp.regions[0];
        assert_eq!(core.verdict, Verdict::Improved);
        assert!(core.after_id < core.before_id);
        assert!(cmp.regressions().is_empty());
        // Balanced halo unchanged.
        assert_eq!(cmp.regions[1].verdict, Verdict::Unchanged);
    }

    #[test]
    fn regression_is_flagged() {
        let before = run(0.0, 1.0);
        let after = run(2.0, 1.2);
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        assert!(cmp.total_speedup < 1.0);
        assert_eq!(cmp.regions[0].verdict, Verdict::Regressed);
        assert_eq!(cmp.regressions().len(), 1);
    }

    #[test]
    fn mixed_changes_are_labelled_mixed() {
        // Faster overall but more imbalanced.
        let before = run(0.0, 2.0);
        let after = run(2.0, 0.8);
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(cmp.regions[0].verdict, Verdict::Mixed);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let before = run(0.0, 1.0);
        let mut b = MeasurementsBuilder::new(4);
        b.add_region("different");
        b.record(RegionId::new(0), ActivityKind::Computation, 0, 1.0)
            .unwrap();
        let other = b.build().unwrap();
        assert!(compare_runs(&before, &other, DispersionKind::Euclidean, 0.02).is_err());
    }

    /// A two-region program on `processors` processors whose `core`
    /// region computes `core[p % core.len()]` seconds on processor `p`
    /// and whose `idle` region records nothing.
    fn with_idle_region(processors: usize, core: &[f64]) -> Measurements {
        let mut b = MeasurementsBuilder::new(processors);
        let r = b.add_region("core");
        b.add_region("idle");
        for p in 0..processors {
            b.record(r, ActivityKind::Computation, p, core[p % core.len()])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_region_idle_in_both_runs_is_unchanged() {
        let before = with_idle_region(4, &[1.0, 2.0]);
        let after = with_idle_region(4, &[1.5]);
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        let idle = &cmp.regions[1];
        assert_eq!(idle.before_seconds, 0.0);
        assert_eq!(idle.after_seconds, 0.0);
        assert_eq!(idle.speedup, 1.0);
        assert_eq!((idle.before_id, idle.after_id), (0.0, 0.0));
        assert_eq!(idle.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_region_that_drops_to_zero_time_is_infinitely_faster() {
        let before = run(0.0, 1.0);
        let mut b = MeasurementsBuilder::new(4);
        let core = b.add_region("core");
        b.add_region("halo");
        for p in 0..4 {
            b.record(core, ActivityKind::Computation, p, 1.0).unwrap();
            b.record(RegionId::new(1), ActivityKind::PointToPoint, p, 0.0)
                .unwrap();
        }
        let after = b.build().unwrap();
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(cmp.regions[1].speedup, f64::INFINITY);
        assert_eq!(cmp.regions[1].verdict, Verdict::Improved);
        // The reverse: from nothing to something is a zero speedup.
        let cmp = compare_runs(&after, &before, DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(cmp.regions[1].speedup, 0.0);
        assert_eq!(cmp.regions[1].verdict, Verdict::Regressed);
    }

    #[test]
    fn one_processor_has_no_dispersion() {
        for kind in DispersionKind::ALL {
            let before = with_idle_region(1, &[2.0]);
            let after = with_idle_region(1, &[1.0]);
            let cmp = compare_runs(&before, &after, kind, 0.02).unwrap();
            assert_eq!(cmp.total_speedup, 2.0, "{kind}");
            let core = &cmp.regions[0];
            assert_eq!((core.before_id, core.after_id), (0.0, 0.0), "{kind}");
            assert_eq!(core.speedup, 2.0, "{kind}");
            assert_eq!(core.verdict, Verdict::Improved, "{kind}");
        }
    }

    #[test]
    fn all_equal_loads_compare_on_time_alone() {
        for kind in DispersionKind::ALL {
            let before = with_idle_region(8, &[0.75]);
            let after = with_idle_region(8, &[0.5]);
            let cmp = compare_runs(&before, &after, kind, 0.02).unwrap();
            let core = &cmp.regions[0];
            assert_eq!((core.before_id, core.after_id), (0.0, 0.0), "{kind}");
            assert_eq!(core.speedup, 1.5, "{kind}");
            assert_eq!(core.verdict, Verdict::Improved, "{kind}");
            assert_eq!(
                cmp.activity_ids,
                vec![(ActivityKind::Computation, 0.0, 0.0)]
            );
            // A run compared with itself is unchanged everywhere.
            let same = compare_runs(&before, &before, kind, 0.02).unwrap();
            assert_eq!(same.total_speedup, 1.0);
            assert!(same.regions.iter().all(|d| d.speedup == 1.0));
            assert!(same.regions.iter().all(|d| d.verdict == Verdict::Unchanged));
        }
    }

    #[test]
    fn a_single_region_carries_the_whole_program() {
        let single = |skew: f64| {
            let mut b = MeasurementsBuilder::new(4);
            let r = b.add_region("only");
            for p in 0..4 {
                let t = if p == 0 { 1.0 + skew } else { 1.0 };
                b.record(r, ActivityKind::Computation, p, t).unwrap();
            }
            b.build().unwrap()
        };
        let cmp =
            compare_runs(&single(3.0), &single(0.0), DispersionKind::Euclidean, 0.02).unwrap();
        assert_eq!(cmp.regions.len(), 1);
        let only = &cmp.regions[0];
        assert_eq!(only.speedup, cmp.total_speedup);
        assert_eq!(only.speedup, 7.0 / 4.0);
        assert!(only.before_id > 0.0);
        assert_eq!(only.after_id, 0.0);
        assert_eq!(only.verdict, Verdict::Improved);
    }

    #[test]
    fn activity_ids_track_both_runs() {
        let before = run(2.0, 1.0);
        let after = run(0.0, 1.0);
        let cmp = compare_runs(&before, &after, DispersionKind::Euclidean, 0.02).unwrap();
        let comp = cmp
            .activity_ids
            .iter()
            .find(|(k, _, _)| *k == ActivityKind::Computation)
            .unwrap();
        assert!(comp.1 > comp.2, "dispersion should drop: {comp:?}");
    }
}
