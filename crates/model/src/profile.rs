//! Profiles: Table-1-style wall-clock breakdowns derived from measurements.

use crate::{ActivityKind, Measurements, RegionId};

/// Time of one activity within a region, with its share of the region.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityBreakdown {
    /// The activity.
    pub kind: ActivityKind,
    /// `t_ij`, seconds.
    pub seconds: f64,
    /// `t_ij / t_i` — fraction of the region's time.
    pub fraction_of_region: f64,
    /// Whether the region performs this activity at all (the paper's tables
    /// print "-" otherwise).
    pub performed: bool,
}

/// Wall-clock breakdown of one code region — one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionProfile {
    /// The region this row describes.
    pub region: RegionId,
    /// Region display name.
    pub name: String,
    /// `t_i`, seconds.
    pub seconds: f64,
    /// `t_i / T` — fraction of the program's wall-clock time.
    pub fraction_of_program: f64,
    /// Per-activity breakdown in activity column order.
    pub breakdown: Vec<ActivityBreakdown>,
}

impl RegionProfile {
    /// Time of `kind` in this region, `0.0` when absent.
    pub fn activity_seconds(&self, kind: ActivityKind) -> f64 {
        self.breakdown
            .iter()
            .find(|b| b.kind == kind)
            .map(|b| b.seconds)
            .unwrap_or(0.0)
    }
}

/// Coarse-grain profile of the whole program — the paper's Table 1 plus the
/// program-level activity totals `T_j`.
///
/// # Example
///
/// ```
/// use limba_model::{ActivityKind, MeasurementsBuilder, ProgramProfile};
/// # fn main() -> Result<(), limba_model::ModelError> {
/// let mut b = MeasurementsBuilder::new(2);
/// let r = b.add_region("core");
/// b.record(r, ActivityKind::Computation, 0, 2.0)?;
/// b.record(r, ActivityKind::Computation, 1, 2.0)?;
/// let profile = ProgramProfile::from_measurements(&b.build()?);
/// assert_eq!(profile.total_seconds, 2.0);
/// assert_eq!(profile.heaviest_region().unwrap().name, "core");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// `T`: program wall-clock time in seconds.
    pub total_seconds: f64,
    /// One row per region, in region order.
    pub regions: Vec<RegionProfile>,
    /// `(activity, T_j)` pairs in activity column order.
    pub activity_totals: Vec<(ActivityKind, f64)>,
}

impl ProgramProfile {
    /// Computes the profile of `measurements` from its cached marginals.
    ///
    /// Degenerate inputs have defined results:
    ///
    /// * with `P = 1`, each `t_ij` is the one processor's time;
    /// * under all-equal loads, each `t_ij` is the common time (up to
    ///   the rounding of the cell's sum);
    /// * a single region has `t_i / T = 1`;
    /// * an activity column that is zero everywhere has `t_ij = 0`,
    ///   `performed = false`, `T_j = 0` and no worst or best region;
    /// * a processor idle in a region counts as a `0` time in the
    ///   region's means;
    /// * a region (or a program) with no time has fractions `0`, not
    ///   `NaN`.
    pub fn from_measurements(measurements: &Measurements) -> Self {
        let total = measurements.total_time();
        let regions = measurements
            .region_ids()
            .map(|r| {
                let t_i = measurements.region_time(r);
                let breakdown = measurements
                    .activities()
                    .iter()
                    .map(|kind| {
                        let t_ij = measurements.region_activity_time(r, kind);
                        ActivityBreakdown {
                            kind,
                            seconds: t_ij,
                            fraction_of_region: if t_i > 0.0 { t_ij / t_i } else { 0.0 },
                            performed: measurements.performs(r, kind),
                        }
                    })
                    .collect();
                RegionProfile {
                    region: r,
                    name: measurements.region_info(r).name().to_string(),
                    seconds: t_i,
                    fraction_of_program: if total > 0.0 { t_i / total } else { 0.0 },
                    breakdown,
                }
            })
            .collect();
        let activity_totals = measurements
            .activities()
            .iter()
            .map(|kind| (kind, measurements.activity_time(kind)))
            .collect();
        ProgramProfile {
            total_seconds: total,
            regions,
            activity_totals,
        }
    }

    /// The *dominant* ("heaviest") activity: the one with the maximum `T_j`.
    ///
    /// Returns `None` only when the profile carries no activities.
    pub fn dominant_activity(&self) -> Option<(ActivityKind, f64)> {
        self.activity_totals
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The heaviest region: the one with the maximum `t_i`.
    pub fn heaviest_region(&self) -> Option<&RegionProfile> {
        self.regions
            .iter()
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }

    /// Region with the maximum time in `kind` (the paper's "worst" region
    /// for an activity), restricted to regions that perform it.
    pub fn worst_region_for(&self, kind: ActivityKind) -> Option<&RegionProfile> {
        self.regions
            .iter()
            .filter(|r| r.breakdown.iter().any(|b| b.kind == kind && b.performed))
            .max_by(|a, b| {
                a.activity_seconds(kind)
                    .total_cmp(&b.activity_seconds(kind))
            })
    }

    /// Region with the minimum time in `kind` (the paper's "best" region),
    /// restricted to regions that perform it.
    pub fn best_region_for(&self, kind: ActivityKind) -> Option<&RegionProfile> {
        self.regions
            .iter()
            .filter(|r| r.breakdown.iter().any(|b| b.kind == kind && b.performed))
            .min_by(|a, b| {
                a.activity_seconds(kind)
                    .total_cmp(&b.activity_seconds(kind))
            })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::MeasurementsBuilder;

    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("heavy");
        let r1 = b.add_region("light");
        for p in 0..2 {
            b.record(r0, ActivityKind::Computation, p, 4.0).unwrap();
            b.record(r0, ActivityKind::Collective, p, 1.0).unwrap();
            b.record(r1, ActivityKind::Computation, p, 0.5).unwrap();
            b.record(r1, ActivityKind::PointToPoint, p, 1.5).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn profile_totals_and_fractions() {
        let p = ProgramProfile::from_measurements(&sample());
        assert!((p.total_seconds - 7.0).abs() < 1e-12);
        assert!((p.regions[0].seconds - 5.0).abs() < 1e-12);
        assert!((p.regions[0].fraction_of_program - 5.0 / 7.0).abs() < 1e-12);
        let comp = &p.regions[0].breakdown[0];
        assert_eq!(comp.kind, ActivityKind::Computation);
        assert!((comp.fraction_of_region - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dominant_activity_is_computation() {
        let p = ProgramProfile::from_measurements(&sample());
        let (kind, t) = p.dominant_activity().unwrap();
        assert_eq!(kind, ActivityKind::Computation);
        assert!((t - 4.5).abs() < 1e-12);
    }

    #[test]
    fn heaviest_region() {
        let p = ProgramProfile::from_measurements(&sample());
        assert_eq!(p.heaviest_region().unwrap().name, "heavy");
    }

    #[test]
    fn worst_and_best_regions_per_activity() {
        let p = ProgramProfile::from_measurements(&sample());
        assert_eq!(
            p.worst_region_for(ActivityKind::Computation).unwrap().name,
            "heavy"
        );
        assert_eq!(
            p.best_region_for(ActivityKind::Computation).unwrap().name,
            "light"
        );
        // Only "light" performs point-to-point, so it is both worst and best.
        assert_eq!(
            p.worst_region_for(ActivityKind::PointToPoint).unwrap().name,
            "light"
        );
        assert_eq!(
            p.best_region_for(ActivityKind::PointToPoint).unwrap().name,
            "light"
        );
        // Nobody performs synchronization.
        assert!(p.worst_region_for(ActivityKind::Synchronization).is_none());
    }

    #[test]
    fn one_processor_and_all_equal_loads() {
        for p in [1, 3] {
            let mut b = MeasurementsBuilder::new(p);
            let r = b.add_region("only");
            for proc in 0..p {
                b.record(r, ActivityKind::Computation, proc, 0.75).unwrap();
                b.record(r, ActivityKind::Collective, proc, 0.25).unwrap();
            }
            let profile = ProgramProfile::from_measurements(&b.build().unwrap());
            assert_eq!(profile.total_seconds, 1.0);
            let only = &profile.regions[0];
            assert_eq!(only.fraction_of_program, 1.0);
            assert_eq!(only.breakdown[0].seconds, 0.75);
            assert_eq!(only.breakdown[0].fraction_of_region, 0.75);
            assert_eq!(profile.heaviest_region().unwrap().name, "only");
        }
    }

    #[test]
    fn zero_column_and_idle_processor() {
        // Processor 1 is idle in "half"; synchronization is never done.
        let mut b = MeasurementsBuilder::new(2);
        let full = b.add_region("full");
        let half = b.add_region("half");
        for p in 0..2 {
            b.record(full, ActivityKind::Computation, p, 1.0).unwrap();
        }
        b.record(half, ActivityKind::PointToPoint, 0, 3.0).unwrap();
        let profile = ProgramProfile::from_measurements(&b.build().unwrap());
        assert_eq!(
            profile.regions[1].activity_seconds(ActivityKind::PointToPoint),
            1.5
        );
        let sync = &profile.regions[0].breakdown[3];
        assert_eq!(sync.kind, ActivityKind::Synchronization);
        assert_eq!((sync.seconds, sync.performed), (0.0, false));
        assert_eq!(
            profile.activity_totals[3],
            (ActivityKind::Synchronization, 0.0)
        );
        assert!(profile
            .worst_region_for(ActivityKind::Synchronization)
            .is_none());
    }

    #[test]
    fn empty_program_has_zero_fractions() {
        let mut b = MeasurementsBuilder::new(2);
        b.add_region("idle");
        let profile = ProgramProfile::from_measurements(&b.build().unwrap());
        assert_eq!(profile.total_seconds, 0.0);
        assert_eq!(profile.regions[0].fraction_of_program, 0.0);
        assert!(profile.regions[0]
            .breakdown
            .iter()
            .all(|b| b.fraction_of_region == 0.0));
    }

    #[test]
    fn activity_seconds_zero_when_absent() {
        let p = ProgramProfile::from_measurements(&sample());
        assert_eq!(
            p.regions[1].activity_seconds(ActivityKind::Synchronization),
            0.0
        );
    }
}
