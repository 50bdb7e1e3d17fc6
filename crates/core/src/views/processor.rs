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
use limba_stats::dispersion::euclidean_distance;
use limba_stats::standardize::to_unit_sum;

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
    for r in measurements.region_ids() {
        // Standardized activity mix per processor (None for idle procs).
        let mixes: Vec<Option<Vec<f64>>> = (0..p)
            .map(|pi| {
                let v = measurements.activity_vector(r, ProcessorId::new(pi));
                to_unit_sum(&v).ok()
            })
            .collect();
        let participating: Vec<&Vec<f64>> = mixes.iter().flatten().collect();
        if participating.is_empty() {
            id.push(vec![None; p]);
            most.push(None);
            continue;
        }
        // Mean standardized mix over participating processors.
        let mut mean = vec![0.0; k];
        for mix in &participating {
            for (m, &v) in mean.iter_mut().zip(mix.iter()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= participating.len() as f64;
        }
        let row: Vec<Option<f64>> = mixes
            .iter()
            .map(|mix| {
                mix.as_ref().map(|mix| {
                    euclidean_distance(mix, &mean).expect("equal lengths by construction")
                })
            })
            .collect();
        // Argmax with ties toward the smaller processor index.
        let argmax = row
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (i, d)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        most.push(argmax.map(|(i, d)| {
            let proc = ProcessorId::new(i);
            (proc, d, measurements.processor_region_time(r, proc))
        }));
        id.push(row);
    }
    Ok(ProcessorView {
        id,
        most_imbalanced_per_region: most,
    })
}

#[cfg(test)]
mod tests {
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
