//! Generic synthesis of measurement matrices from summary statistics.
//!
//! Beyond the paper's case study, the same inverse problem comes up
//! whenever only summary data is available: a report states per-region
//! times and imbalance levels, and one wants a concrete `t_ijp` matrix
//! with exactly those statistics (to test tools against, to replay
//! "what-if" scenarios, …). [`SyntheticCase`] is that builder.

use limba_model::{ActivityKind, ActivitySet, Measurements, MeasurementsBuilder};

use crate::{solve_weights, CalibrateError, Placement, Shape};

/// Specification of one `(region, activity)` cell.
#[derive(Debug, Clone)]
struct CellSpec {
    region: usize,
    kind: ActivityKind,
    total: f64,
    dispersion: f64,
    shape: Shape,
    placement: Placement,
}

/// Builder of measurement matrices with prescribed cell means and
/// dispersions.
///
/// # Example
///
/// ```
/// use limba_calibrate::{Shape, SyntheticCase};
/// use limba_model::ActivityKind;
/// use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut case = SyntheticCase::new(8);
/// let solver = case.add_region("solver");
/// case.set(solver, ActivityKind::Computation, 4.0, 0.12)?;
/// let m = case.build()?;
/// let slice = m.processor_slice(solver, ActivityKind::Computation).unwrap();
/// assert!((EuclideanFromMean.index(slice)? - 0.12).abs() < 1e-9);
/// assert!((m.region_activity_time(solver, ActivityKind::Computation) - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCase {
    processors: usize,
    activities: ActivitySet,
    region_names: Vec<String>,
    cells: Vec<CellSpec>,
}

impl SyntheticCase {
    /// Creates a case for `processors` processors with the standard
    /// activity set.
    pub fn new(processors: usize) -> Self {
        SyntheticCase::with_activities(processors, ActivitySet::standard())
    }

    /// Creates a case with an explicit activity set.
    pub(crate) fn with_activities(processors: usize, activities: ActivitySet) -> Self {
        SyntheticCase {
            processors,
            activities,
            region_names: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Registers a region, returning its id.
    pub fn add_region(&mut self, name: impl Into<String>) -> limba_model::RegionId {
        let id = limba_model::RegionId::new(self.region_names.len());
        self.region_names.push(name.into());
        id
    }

    /// Prescribes a cell with the default ramp shape and identity
    /// placement: mean time `total`, Euclidean dispersion `dispersion`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown regions/activities, invalid totals,
    /// or unreachable dispersion targets (checked eagerly so mistakes
    /// surface at specification time).
    pub fn set(
        &mut self,
        region: limba_model::RegionId,
        kind: ActivityKind,
        total: f64,
        dispersion: f64,
    ) -> Result<&mut Self, CalibrateError> {
        let placement = Placement::identity(self.processors);
        self.set_shaped(region, kind, total, dispersion, Shape::Ramp, placement)
    }

    /// Prescribes a cell: mean time `total`, Euclidean dispersion
    /// `dispersion`, distributed per `shape` and scattered per
    /// `placement`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown regions/activities, invalid totals,
    /// mismatched placement lengths, or unreachable dispersion targets
    /// (checked eagerly so mistakes surface at specification time).
    pub(crate) fn set_shaped(
        &mut self,
        region: limba_model::RegionId,
        kind: ActivityKind,
        total: f64,
        dispersion: f64,
        shape: Shape,
        placement: Placement,
    ) -> Result<&mut Self, CalibrateError> {
        if region.index() >= self.region_names.len() {
            return Err(CalibrateError::InvalidInput {
                detail: format!("unknown region {region}"),
            });
        }
        if self.activities.column(kind).is_none() {
            return Err(CalibrateError::InvalidInput {
                detail: format!("activity {kind} not in the case's activity set"),
            });
        }
        if !total.is_finite() || total <= 0.0 {
            return Err(CalibrateError::InvalidInput {
                detail: format!("cell total must be positive, got {total}"),
            });
        }
        if placement.len() != self.processors {
            return Err(CalibrateError::InvalidInput {
                detail: format!(
                    "placement covers {} positions but the case has {} processors",
                    placement.len(),
                    self.processors
                ),
            });
        }
        // Eager feasibility check: solve now, store the spec.
        solve_weights(&shape, self.processors, dispersion)?;
        self.cells.push(CellSpec {
            region: region.index(),
            kind,
            total,
            dispersion,
            shape,
            placement,
        });
        Ok(self)
    }

    /// Builds the measurements. Unspecified cells are zero (the activity
    /// is "not performed" there); respecifying a cell overwrites the
    /// earlier spec.
    ///
    /// # Errors
    ///
    /// Propagates solver and model errors.
    pub fn build(&self) -> Result<Measurements, CalibrateError> {
        let mut b = MeasurementsBuilder::with_activities(self.processors, self.activities.clone());
        for name in &self.region_names {
            b.add_region(name.clone());
        }
        for spec in &self.cells {
            let weights = solve_weights(&spec.shape, self.processors, spec.dispersion)?;
            let placed = spec.placement.apply(&weights);
            for (p, w) in placed.iter().enumerate() {
                b.set(
                    limba_model::RegionId::new(spec.region),
                    spec.kind,
                    p,
                    spec.total * w,
                )?;
            }
        }
        Ok(b.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_model::{ProcessorId, RegionId};
    use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};

    #[test]
    fn builds_matrix_with_prescribed_statistics() {
        let mut case = SyntheticCase::new(16);
        let a = case.add_region("a");
        let b = case.add_region("b");
        case.set(a, ActivityKind::Computation, 10.0, 0.05).unwrap();
        case.set(a, ActivityKind::Collective, 2.0, 0.2).unwrap();
        case.set(b, ActivityKind::PointToPoint, 1.0, 0.0).unwrap();
        let m = case.build().unwrap();
        for (r, kind, total, disp) in [
            (a, ActivityKind::Computation, 10.0, 0.05),
            (a, ActivityKind::Collective, 2.0, 0.2),
            (b, ActivityKind::PointToPoint, 1.0, 0.0),
        ] {
            assert!((m.region_activity_time(r, kind) - total).abs() < 1e-9);
            let id = EuclideanFromMean
                .index(m.processor_slice(r, kind).unwrap())
                .unwrap();
            assert!((id - disp).abs() < 1e-9, "{kind}: {id} vs {disp}");
        }
        assert!(!m.performs(b, ActivityKind::Computation));
    }

    #[test]
    fn placements_steer_the_outlier() {
        let mut case = SyntheticCase::new(8);
        let r = case.add_region("r");
        case.set_shaped(
            r,
            ActivityKind::Computation,
            4.0,
            0.15,
            Shape::Ramp,
            Placement::outlier_high(8, 2),
        )
        .unwrap();
        let m = case.build().unwrap();
        let slice = m.processor_slice(r, ActivityKind::Computation).unwrap();
        let argmax = slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax, 2);
        let _ = ProcessorId::new(2);
    }

    #[test]
    fn invalid_specs_fail_eagerly() {
        let mut case = SyntheticCase::new(4);
        let r = case.add_region("r");
        assert!(case
            .set(RegionId::new(9), ActivityKind::Computation, 1.0, 0.1)
            .is_err());
        assert!(case.set(r, ActivityKind::Io, 1.0, 0.1).is_err());
        assert!(case.set(r, ActivityKind::Computation, 0.0, 0.1).is_err());
        assert!(case.set(r, ActivityKind::Computation, 1.0, 0.95).is_err()); // unreachable
        assert!(case
            .set_shaped(
                r,
                ActivityKind::Computation,
                1.0,
                0.1,
                Shape::Ramp,
                Placement::identity(3), // wrong size
            )
            .is_err());
    }

    #[test]
    fn analysis_round_trips_the_specification() {
        // The full methodology applied to a synthesized matrix reads the
        // prescribed dispersions back out (Table-2 style).
        let mut case = SyntheticCase::new(16);
        let hot = case.add_region("hot");
        let cold = case.add_region("cold");
        case.set(hot, ActivityKind::Computation, 8.0, 0.25).unwrap();
        case.set(cold, ActivityKind::Computation, 8.0, 0.01)
            .unwrap();
        let m = case.build().unwrap();
        let report = limba_analysis::Analyzer::new().analyze(&m).unwrap();
        assert_eq!(report.findings.most_imbalanced_region.unwrap().0, hot);
        let id = report.activity_view.id[hot.index()][0].unwrap();
        assert!((id - 0.25).abs() < 1e-9);
    }
}
