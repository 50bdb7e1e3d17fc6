//! Coarse-grain characterization of the program.
//!
//! "A preliminary characterization of the performance of a parallel
//! program is based on the breakdown of its wall clock time T into the
//! times T_j spent in the various activities. The activity with the
//! maximum T_j is defined as the dominant … activity of the program. …
//! The region with the maximum wall clock time, i.e., the heaviest
//! region, might correspond to an inefficient portion of the program or
//! to its core."

use limba_model::{ActivityKind, Measurements, ProgramProfile, RegionId};

use crate::AnalysisError;

/// Worst and best region for one activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityExtremes {
    /// The activity.
    pub kind: ActivityKind,
    /// Region with the maximum `t_ij` among regions performing the
    /// activity, with that time.
    pub worst: (RegionId, String, f64),
    /// Region with the minimum `t_ij` among regions performing the
    /// activity, with that time.
    pub best: (RegionId, String, f64),
}

/// Result of the coarse-grain analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseAnalysis {
    /// `T`: program wall-clock time.
    pub total_seconds: f64,
    /// The dominant activity (maximum `T_j`).
    pub dominant_activity: ActivityKind,
    /// `T_j` of the dominant activity.
    pub dominant_activity_seconds: f64,
    /// The heaviest region (maximum `t_i`).
    pub heaviest_region: RegionId,
    /// Name of the heaviest region.
    pub heaviest_region_name: String,
    /// `t_i / T` of the heaviest region.
    pub heaviest_region_fraction: f64,
    /// Region with the maximum time in the dominant activity.
    pub heaviest_in_dominant: RegionId,
    /// Worst/best regions per performed activity, in activity order.
    pub extremes: Vec<ActivityExtremes>,
}

/// Runs the coarse-grain analysis on a profile.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when the program's total
/// wall-clock time is zero.
pub fn coarse_analysis(
    measurements: &Measurements,
    profile: &ProgramProfile,
) -> Result<CoarseAnalysis, AnalysisError> {
    if profile.total_seconds <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    // A profile with positive time has an activity, a region, and a
    // region performing the dominant activity; one that lacks them (not
    // derived from `measurements`) has nothing to characterize either.
    let (dominant_activity, dominant_activity_seconds) = profile
        .dominant_activity()
        .ok_or(AnalysisError::EmptyProgram)?;
    let heaviest = profile
        .heaviest_region()
        .ok_or(AnalysisError::EmptyProgram)?;
    let heaviest_in_dominant = profile
        .worst_region_for(dominant_activity)
        .ok_or(AnalysisError::EmptyProgram)?
        .region;
    let extremes = measurements
        .activities()
        .iter()
        .filter_map(|kind| {
            let worst = profile.worst_region_for(kind)?;
            let best = profile.best_region_for(kind)?;
            Some(ActivityExtremes {
                kind,
                worst: (
                    worst.region,
                    worst.name.clone(),
                    worst.activity_seconds(kind),
                ),
                best: (best.region, best.name.clone(), best.activity_seconds(kind)),
            })
        })
        .collect();
    Ok(CoarseAnalysis {
        total_seconds: profile.total_seconds,
        dominant_activity,
        dominant_activity_seconds,
        heaviest_region: heaviest.region,
        heaviest_region_name: heaviest.name.clone(),
        heaviest_region_fraction: heaviest.fraction_of_program,
        heaviest_in_dominant,
        extremes,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::MeasurementsBuilder;

    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let core = b.add_region("core");
        let halo = b.add_region("halo");
        for p in 0..2 {
            b.record(core, ActivityKind::Computation, p, 10.0).unwrap();
            b.record(core, ActivityKind::Collective, p, 2.0).unwrap();
            b.record(halo, ActivityKind::Computation, p, 1.0).unwrap();
            b.record(halo, ActivityKind::PointToPoint, p, 4.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn identifies_dominant_activity_and_heaviest_region() {
        let m = sample();
        let profile = ProgramProfile::from_measurements(&m);
        let c = coarse_analysis(&m, &profile).unwrap();
        assert_eq!(c.dominant_activity, ActivityKind::Computation);
        assert!((c.dominant_activity_seconds - 11.0).abs() < 1e-12);
        assert_eq!(c.heaviest_region_name, "core");
        assert!((c.heaviest_region_fraction - 12.0 / 17.0).abs() < 1e-12);
        assert_eq!(c.heaviest_in_dominant.index(), 0);
    }

    #[test]
    fn extremes_cover_only_performed_activities() {
        let m = sample();
        let profile = ProgramProfile::from_measurements(&m);
        let c = coarse_analysis(&m, &profile).unwrap();
        let kinds: Vec<ActivityKind> = c.extremes.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ActivityKind::Computation,
                ActivityKind::PointToPoint,
                ActivityKind::Collective
            ]
        );
        let comp = &c.extremes[0];
        assert_eq!(comp.worst.1, "core");
        assert_eq!(comp.best.1, "halo");
        assert_eq!(comp.worst.2, 10.0);
    }

    #[test]
    fn empty_program_is_rejected() {
        let mut b = MeasurementsBuilder::new(1);
        b.add_region("r");
        let m = b.build().unwrap();
        let profile = ProgramProfile::from_measurements(&m);
        assert!(matches!(
            coarse_analysis(&m, &profile),
            Err(AnalysisError::EmptyProgram)
        ));
    }
}
