//! Operations on measurement matrices: merging, scaling, restriction.

use crate::{Measurements, MeasurementsBuilder, ModelError, RegionId};

impl Measurements {
    /// Sums several matrices cell by cell — e.g. aggregating the windows
    /// of a windowed reduction back into a whole-run matrix, or pooling
    /// repeated runs of the same program.
    ///
    /// All inputs must agree on regions (names), activities, and
    /// processor count.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoRegions`] for an empty input set and shape
    /// errors when the matrices disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use limba_model::{ActivityKind, Measurements, MeasurementsBuilder};
    /// # fn main() -> Result<(), limba_model::ModelError> {
    /// let mut b = MeasurementsBuilder::new(2);
    /// let r = b.add_region("r");
    /// b.record(r, ActivityKind::Computation, 0, 1.0)?;
    /// let m = b.build()?;
    /// let sum = Measurements::merged(&[&m, &m, &m])?;
    /// assert_eq!(sum.time(r, ActivityKind::Computation, 0.into()), 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn merged(parts: &[&Measurements]) -> Result<Measurements, ModelError> {
        let first = parts.first().ok_or(ModelError::NoRegions)?;
        for part in &parts[1..] {
            if part.regions() != first.regions() {
                return Err(ModelError::RegionOutOfRange {
                    index: part.regions(),
                    regions: first.regions(),
                });
            }
            if part.processors() != first.processors() {
                return Err(ModelError::ProcessorOutOfRange {
                    index: part.processors(),
                    processors: first.processors(),
                });
            }
            if part.activities() != first.activities() {
                // Two sets that differ are not both empty: one names a kind.
                let kind = part
                    .activities()
                    .iter()
                    .find(|&k| !first.activities().contains(k))
                    .or_else(|| first.activities().iter().next());
                if let Some(kind) = kind {
                    return Err(ModelError::UnknownActivity { kind });
                }
            }
        }
        let mut b =
            MeasurementsBuilder::with_activities(first.processors(), first.activities().clone());
        for r in first.region_ids() {
            b.add_region(first.region_info(r).name().to_string());
        }
        for part in parts {
            for r in part.region_ids() {
                for kind in part.activities().iter() {
                    for p in part.processor_ids() {
                        let t = part.time(r, kind, p);
                        if t > 0.0 {
                            b.record(r, kind, p.index(), t)?;
                        }
                    }
                }
            }
        }
        b.build()
    }

    /// A copy with every time multiplied by `factor` (e.g. normalizing
    /// per-iteration).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTime`] for a negative or non-finite
    /// factor.
    pub fn scaled(&self, factor: f64) -> Result<Measurements, ModelError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(ModelError::InvalidTime { value: factor });
        }
        let mut b =
            MeasurementsBuilder::with_activities(self.processors(), self.activities().clone());
        for r in self.region_ids() {
            b.add_region(self.region_info(r).name().to_string());
        }
        for r in self.region_ids() {
            for kind in self.activities().iter() {
                for p in self.processor_ids() {
                    b.set(r, kind, p.index(), self.time(r, kind, p) * factor)?;
                }
            }
        }
        b.build()
    }

    /// A sub-matrix containing only `regions` (re-indexed densely, in the
    /// given order) — for focusing an analysis on a subset of the code.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::RegionOutOfRange`] for unknown regions and
    /// [`ModelError::NoRegions`] for an empty selection.
    pub fn restricted(&self, regions: &[RegionId]) -> Result<Measurements, ModelError> {
        if regions.is_empty() {
            return Err(ModelError::NoRegions);
        }
        for &r in regions {
            if r.index() >= self.regions() {
                return Err(ModelError::RegionOutOfRange {
                    index: r.index(),
                    regions: self.regions(),
                });
            }
        }
        let mut b =
            MeasurementsBuilder::with_activities(self.processors(), self.activities().clone());
        for &r in regions {
            b.add_region(self.region_info(r).name().to_string());
        }
        for (new_idx, &r) in regions.iter().enumerate() {
            for kind in self.activities().iter() {
                for p in self.processor_ids() {
                    b.set(
                        RegionId::new(new_idx),
                        kind,
                        p.index(),
                        self.time(r, kind, p),
                    )?;
                }
            }
        }
        b.build()
    }

    /// Returns `true` when `other` has the same shape: same region names,
    /// activity set, and processor count.
    pub fn same_shape(&self, other: &Measurements) -> bool {
        self.regions() == other.regions()
            && self.processors() == other.processors()
            && self.activities() == other.activities()
            && self
                .region_ids()
                .all(|r| self.region_info(r).name() == other.region_info(r).name())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::{ActivityKind, ProcessorId};

    fn sample(scale: f64) -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("a");
        let r1 = b.add_region("b");
        b.record(r0, ActivityKind::Computation, 0, 1.0 * scale)
            .unwrap();
        b.record(r0, ActivityKind::Computation, 1, 3.0 * scale)
            .unwrap();
        b.record(r1, ActivityKind::Collective, 0, 0.5 * scale)
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn merged_sums_cells() {
        let a = sample(1.0);
        let b = sample(2.0);
        let m = Measurements::merged(&[&a, &b]).unwrap();
        assert_eq!(
            m.time(
                RegionId::new(0),
                ActivityKind::Computation,
                ProcessorId::new(1)
            ),
            9.0
        );
        assert_eq!(
            m.time(
                RegionId::new(1),
                ActivityKind::Collective,
                ProcessorId::new(0)
            ),
            1.5
        );
        assert!(m.same_shape(&a));
    }

    #[test]
    fn merged_rejects_shape_mismatches() {
        let a = sample(1.0);
        let mut b = MeasurementsBuilder::new(3); // different proc count
        b.add_region("a");
        b.add_region("b");
        let other = b.build().unwrap();
        assert!(Measurements::merged(&[&a, &other]).is_err());
        assert!(Measurements::merged(&[]).is_err());
    }

    #[test]
    fn scaled_multiplies_everything() {
        let m = sample(1.0).scaled(2.0).unwrap();
        assert_eq!(m, sample(2.0));
        assert!(sample(1.0).scaled(-1.0).is_err());
        assert!(sample(1.0).scaled(f64::NAN).is_err());
        // Scaling by zero produces an all-zero (but structurally valid) matrix.
        let z = sample(1.0).scaled(0.0).unwrap();
        assert_eq!(z.total_time(), 0.0);
    }

    #[test]
    fn restricted_selects_and_reindexes() {
        let m = sample(1.0);
        let only_b = m.restricted(&[RegionId::new(1)]).unwrap();
        assert_eq!(only_b.regions(), 1);
        assert_eq!(only_b.region_info(RegionId::new(0)).name(), "b");
        assert_eq!(
            only_b.time(
                RegionId::new(0),
                ActivityKind::Collective,
                ProcessorId::new(0)
            ),
            0.5
        );
        // Order is caller-controlled.
        let swapped = m.restricted(&[RegionId::new(1), RegionId::new(0)]).unwrap();
        assert_eq!(swapped.region_info(RegionId::new(0)).name(), "b");
        assert_eq!(swapped.region_info(RegionId::new(1)).name(), "a");
        assert!(m.restricted(&[]).is_err());
        assert!(m.restricted(&[RegionId::new(9)]).is_err());
    }

    #[test]
    fn same_shape_checks_names() {
        let a = sample(1.0);
        let mut b = MeasurementsBuilder::new(2);
        b.add_region("a");
        b.add_region("RENAMED");
        let renamed = b.build().unwrap();
        assert!(!a.same_shape(&renamed));
        assert!(a.same_shape(&sample(5.0)));
    }
}
