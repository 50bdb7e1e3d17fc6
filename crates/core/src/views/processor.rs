//! The processor view: `ID_P_ip`.
//!
//! "Processor view is aimed at analyzing the behavior of the processors
//! across the activities performed within each code region with the
//! objective of identifying the most frequently imbalanced processor. …
//! These indices are computed as the Euclidean distance between the times
//! spent by processor p on the various activities performed within code
//! region i and the average time of these activities over all
//! processors", after standardizing each processor's activity vector over
//! its own sum within the region.

use limba_model::{Measurements, ProcessorId, RegionId};

use crate::AnalysisError;

/// The complete processor view.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorView {
    /// `ID_P_ip` per `[region][processor]`; `None` when the processor
    /// spent no time in the region.
    pub id: Vec<Vec<Option<f64>>>,
    /// Per region, the most imbalanced processor (argmax of `ID_P_ip`)
    /// with its index value and its wall-clock time in the region; `None`
    /// for regions with no comparable processors.
    pub most_imbalanced_per_region: Vec<Option<(ProcessorId, f64, f64)>>,
}

impl ProcessorView {
    /// `ID_P_ip` of one cell.
    pub fn id_of(&self, region: RegionId, proc: ProcessorId) -> Option<f64> {
        self.id
            .get(region.index())
            .and_then(|row| row.get(proc.index()).copied().flatten())
    }

    /// How many regions each processor is the most imbalanced of — the
    /// paper's "most frequently imbalanced" count.
    pub(crate) fn imbalance_counts(&self, processors: usize) -> Vec<usize> {
        let mut counts = vec![0usize; processors];
        for entry in self.most_imbalanced_per_region.iter().flatten() {
            counts[entry.0.index()] += 1;
        }
        counts
    }

    /// Total wall-clock time each processor spent in the regions it is
    /// the most imbalanced of — the paper's "imbalanced for the longest
    /// time" measure.
    pub(crate) fn imbalance_durations(&self, processors: usize) -> Vec<f64> {
        let mut durations = vec![0.0; processors];
        for entry in self.most_imbalanced_per_region.iter().flatten() {
            durations[entry.0.index()] += entry.2;
        }
        durations
    }
}

/// Computes the processor view of `measurements`.
///
/// For each region `i` and processor `p`, the times of `p` across the
/// activities are standardized over their sum (`t̂_ijp = t_ijp / Σ_j
/// t_ijp`), and `ID_P_ip` is the Euclidean distance between `p`'s
/// standardized activity mix and the mean mix over all processors of the
/// region.
///
/// The view walks each region's activity columns in place
/// ([`Measurements::region_columns`]), keeping one sum per processor and
/// one mean mix per region as scratch; a standardized time `t_ijp / Σ_j
/// t_ijp` is recomputed where it is used and never stored, so the view
/// makes no allocation per processor.
///
/// Degenerate inputs have defined results:
///
/// * a processor with no time in a region (idle there) has `None` for
///   that region and is left out of the region's mean mix; a region
///   where every processor is idle has a row of `None`s and no most
///   imbalanced processor;
/// * with `P = 1` every index is `0`; when every processor of a region
///   has the same mix (in particular, under all-equal loads) every index
///   of the region is `0` up to the rounding of the mean mix (exactly `0`
///   when that mean is exact, as for mixes like `(0.75, 0.25)`); ties go
///   to the lowest-numbered participating processor;
/// * an activity column that is zero everywhere adds nothing to any
///   distance;
/// * a single region gives a one-row view.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptyProgram`] when the total time is zero.
pub fn processor_view(measurements: &Measurements) -> Result<ProcessorView, AnalysisError> {
    if measurements.total_time() <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let p = measurements.processors();
    let k = measurements.activities().len();
    let mut id = Vec::with_capacity(measurements.regions());
    let mut most = Vec::with_capacity(measurements.regions());
    // Per-region scratch, reused: the region's columns, each processor's
    // time in the region (`Σ_j t_ijp`, summed in column order from -0.0
    // like `Iterator::sum`), and the mean standardized mix.
    let mut columns: Vec<&[f64]> = Vec::with_capacity(k);
    let mut sums = vec![0.0; p];
    let mut mean = vec![0.0; k];
    for r in measurements.region_ids() {
        columns.clear();
        columns.extend(measurements.region_columns(r));
        sums.fill(-0.0);
        for column in &columns {
            for (sum, &t) in sums.iter_mut().zip(*column) {
                *sum += t;
            }
        }
        // A processor participates when its standardized mix exists:
        // it spent a positive time in the region.
        let participating = sums.iter().filter(|&&sum| sum > 0.0).count();
        if participating == 0 {
            id.push(vec![None; p]);
            most.push(None);
            continue;
        }
        // Mean standardized mix over participating processors.
        for (m, column) in mean.iter_mut().zip(&columns) {
            let mut acc = 0.0;
            for (&t, &sum) in column.iter().zip(&sums) {
                if sum > 0.0 {
                    acc += t / sum;
                }
            }
            *m = acc / participating as f64;
        }
        let row: Vec<Option<f64>> = sums
            .iter()
            .enumerate()
            .map(|(pi, &sum)| {
                (sum > 0.0).then(|| {
                    columns
                        .iter()
                        .zip(&mean)
                        .map(|(column, &m)| (column[pi] / sum - m).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
            })
            .collect();
        // Argmax with ties toward the smaller processor index.
        let argmax = row
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i, d)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        most.push(argmax.map(|(i, d)| (ProcessorId::new(i), d, sums[i])));
        id.push(row);
    }
    Ok(ProcessorView {
        id,
        most_imbalanced_per_region: most,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::{ActivityKind, MeasurementsBuilder};

    /// Three processors in one region. Processors 0 and 1 have the same
    /// 50/50 computation/communication mix; processor 2 is all
    /// computation.
    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(3);
        let r = b.add_region("r");
        for p in 0..2 {
            b.record(r, ActivityKind::Computation, p, 2.0).unwrap();
            b.record(r, ActivityKind::PointToPoint, p, 2.0).unwrap();
        }
        b.record(r, ActivityKind::Computation, 2, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn outlier_mix_has_largest_index() {
        let v = processor_view(&sample()).unwrap();
        let r = RegionId::new(0);
        let d0 = v.id_of(r, ProcessorId::new(0)).unwrap();
        let d2 = v.id_of(r, ProcessorId::new(2)).unwrap();
        assert!(d2 > d0);
        // Hand computation: mixes are (.5,.5,0,0) ×2 and (1,0,0,0);
        // mean = (2/3, 1/3, 0, 0); d2 = sqrt((1/3)² + (1/3)²).
        let expected = (2.0f64 / 9.0).sqrt();
        assert!((d2 - expected).abs() < 1e-12);
        let expected0 = (2.0f64 * (1.0 / 6.0) * (1.0 / 6.0)).sqrt();
        assert!((d0 - expected0).abs() < 1e-12);
        assert_eq!(
            v.most_imbalanced_per_region[0].as_ref().unwrap().0,
            ProcessorId::new(2)
        );
    }

    #[test]
    fn identical_mixes_give_zero_indices() {
        let mut b = MeasurementsBuilder::new(4);
        let r = b.add_region("r");
        for p in 0..4 {
            // Different magnitudes but identical mixes.
            let scale = 1.0 + p as f64;
            b.record(r, ActivityKind::Computation, p, 3.0 * scale)
                .unwrap();
            b.record(r, ActivityKind::Collective, p, 1.0 * scale)
                .unwrap();
        }
        let m = b.build().unwrap();
        let v = processor_view(&m).unwrap();
        for p in 0..4 {
            let d = v.id_of(RegionId::new(0), ProcessorId::new(p)).unwrap();
            assert!(d.abs() < 1e-12, "proc {p} has nonzero index {d}");
        }
    }

    #[test]
    fn idle_processor_has_no_index() {
        let mut b = MeasurementsBuilder::new(2);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Computation, 0, 1.0).unwrap();
        let m = b.build().unwrap();
        let v = processor_view(&m).unwrap();
        assert!(v.id_of(RegionId::new(0), ProcessorId::new(0)).is_some());
        assert!(v.id_of(RegionId::new(0), ProcessorId::new(1)).is_none());
    }

    #[test]
    fn counts_and_durations_aggregate_across_regions() {
        // Two regions; processor 1 is the outlier in both.
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("a");
        let r1 = b.add_region("b");
        for r in [r0, r1] {
            b.record(r, ActivityKind::Computation, 0, 1.0).unwrap();
            b.record(r, ActivityKind::PointToPoint, 0, 1.0).unwrap();
            b.record(r, ActivityKind::Computation, 1, 2.0).unwrap();
        }
        let m = b.build().unwrap();
        let v = processor_view(&m).unwrap();
        // Both processors deviate symmetrically from the mean mix, so the
        // tie goes to processor 0; durations follow.
        let counts = v.imbalance_counts(2);
        assert_eq!(counts.iter().sum::<usize>(), 2);
        let durations = v.imbalance_durations(2);
        assert!(durations.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn one_processor_has_index_zero() {
        let mut b = MeasurementsBuilder::new(1);
        let r = b.add_region("r");
        b.record(r, ActivityKind::Computation, 0, 0.3).unwrap();
        b.record(r, ActivityKind::Collective, 0, 0.1).unwrap();
        let v = processor_view(&b.build().unwrap()).unwrap();
        assert_eq!(v.id, vec![vec![Some(0.0)]]);
        assert_eq!(
            v.most_imbalanced_per_region,
            vec![Some((ProcessorId::new(0), 0.0, 0.3 + 0.1))]
        );
    }

    #[test]
    fn all_equal_loads_have_index_zero() {
        // A (0.75, 0.25) mix averages exactly, so the indices are exactly
        // zero and the tie goes to processor 0; other mixes leave
        // rounding only.
        for (comp, coll, exact) in [(1.5, 0.5, true), (0.1, 0.7, false)] {
            let mut b = MeasurementsBuilder::new(6);
            let r = b.add_region("r");
            for p in 0..6 {
                b.record(r, ActivityKind::Computation, p, comp).unwrap();
                b.record(r, ActivityKind::Collective, p, coll).unwrap();
            }
            let v = processor_view(&b.build().unwrap()).unwrap();
            for d in v.id[0].iter().map(|d| d.unwrap()) {
                if exact {
                    assert_eq!(d, 0.0);
                } else {
                    assert!(d.abs() < 1e-15, "{d}");
                }
            }
            if exact {
                let (proc, d, t) = v.most_imbalanced_per_region[0].unwrap();
                assert_eq!((proc, d, t), (ProcessorId::new(0), 0.0, comp + coll));
            }
        }
    }

    #[test]
    fn zero_activity_column_adds_nothing() {
        // The same program with and without an extra all-zero column.
        let plain = sample();
        let mut b = MeasurementsBuilder::with_activities(
            3,
            limba_model::ActivitySet::new(
                limba_model::STANDARD_ACTIVITIES
                    .into_iter()
                    .chain([ActivityKind::Io]),
            ),
        );
        let r = b.add_region("r");
        for p in 0..3 {
            for kind in limba_model::STANDARD_ACTIVITIES {
                let t = plain.time(RegionId::new(0), kind, ProcessorId::new(p));
                b.set(r, kind, p, t).unwrap();
            }
        }
        let padded = b.build().unwrap();
        assert_eq!(
            processor_view(&padded).unwrap(),
            processor_view(&plain).unwrap()
        );
    }

    #[test]
    fn processor_idle_in_one_region_only() {
        let mut b = MeasurementsBuilder::new(3);
        let r0 = b.add_region("all busy");
        let r1 = b.add_region("p1 idle");
        for p in 0..3 {
            b.record(r0, ActivityKind::Computation, p, 1.0 + p as f64)
                .unwrap();
            b.record(r0, ActivityKind::PointToPoint, p, 1.0).unwrap();
            if p != 1 {
                b.record(r1, ActivityKind::Computation, p, 2.0).unwrap();
                b.record(r1, ActivityKind::Collective, p, p as f64).unwrap();
            }
        }
        let v = processor_view(&b.build().unwrap()).unwrap();
        assert!(v.id[0].iter().all(Option::is_some));
        assert_eq!(v.id[1][1], None);
        // The idle processor is left out of the mean: the two others
        // are symmetric about it, and the tie goes to processor 0.
        let (d0, d2) = (v.id[1][0].unwrap(), v.id[1][2].unwrap());
        assert!((d0 - d2).abs() < 1e-15);
        assert_eq!(v.most_imbalanced_per_region[1].unwrap().0.index(), 0);
    }

    #[test]
    fn region_with_no_time_yields_none_row() {
        let mut b = MeasurementsBuilder::new(2);
        let r0 = b.add_region("busy");
        let _r1 = b.add_region("idle");
        b.record(r0, ActivityKind::Computation, 0, 1.0).unwrap();
        b.record(r0, ActivityKind::Computation, 1, 1.0).unwrap();
        let m = b.build().unwrap();
        let v = processor_view(&m).unwrap();
        assert_eq!(v.id[1], vec![None, None]);
        assert!(v.most_imbalanced_per_region[1].is_none());
    }
}
