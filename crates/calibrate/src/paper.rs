//! The paper's published case-study data and its reconstruction.
//!
//! Tables 1 and 2 of the paper are reproduced verbatim as constants. The
//! scaled indices of Tables 3 and 4 imply a whole-program wall-clock time
//! of [`PROGRAM_TOTAL`] ≈ 69.93 s — *larger* than the 64.754 s sum of the
//! seven measured loops, i.e. the program spent ≈ 5.18 s outside them.
//! [`paper_measurements_with_tail`] adds that remainder as a balanced
//! "rest of program" region, after which every `SID` value of Tables 3
//! and 4 is reproduced to ≈ 1e-5.
//!
//! Processor indices: the paper numbers processors 1–16; this crate's
//! [`ProcessorId`](limba_model::ProcessorId)s are 0-based, so the paper's
//! "processor 1" is id 0 and "processor 2" is id 1.

use limba_model::{
    ActivityKind, ActivitySet, Measurements, MeasurementsBuilder, STANDARD_ACTIVITIES,
};

use crate::{solve_weights, CalibrateError, Placement, Shape};

/// Number of processors of the case study (an IBM SP2 partition).
pub(crate) const PROCESSORS: usize = 16;

/// Number of measured loops.
pub const LOOPS: usize = 7;

/// Loop display names, `loop 1` … `loop 7`.
pub const LOOP_NAMES: [&str; LOOPS] = [
    "loop 1", "loop 2", "loop 3", "loop 4", "loop 5", "loop 6", "loop 7",
];

/// Name of the synthetic remainder region added by
/// [`paper_measurements_with_tail`].
pub(crate) const TAIL_NAME: &str = "rest of program";

/// Table 1: wall-clock time `t_ij` in seconds per loop ×
/// (computation, point-to-point, collective, synchronization);
/// `0.0` marks the "-" cells (activity not performed).
pub const TABLE1: [[f64; 4]; LOOPS] = [
    [12.24, 0.0, 6.75, 0.061],
    [7.90, 0.0, 6.32, 0.0],
    [5.22, 5.68, 0.0, 0.0],
    [8.03, 2.51, 0.0, 0.0],
    [7.53, 0.07, 1.43, 0.011],
    [0.36, 0.33, 0.0, 0.002],
    [0.28, 0.0, 0.03, 0.0],
];

/// Table 1's "overall" column (the row sums).
pub const TABLE1_OVERALL: [f64; LOOPS] = [19.051, 14.22, 10.90, 10.54, 9.041, 0.692, 0.31];

/// Table 2: indices of dispersion `ID_ij` per loop × activity; `0.0`
/// marks the "-" cells.
pub const TABLE2: [[f64; 4]; LOOPS] = [
    [0.03674, 0.0, 0.06793, 0.12870],
    [0.01095, 0.0, 0.00318, 0.0],
    [0.00672, 0.02833, 0.0, 0.0],
    [0.01615, 0.10742, 0.0, 0.0],
    [0.00933, 0.08872, 0.04907, 0.30571],
    [0.05017, 0.23200, 0.0, 0.16163],
    [0.00719, 0.0, 0.01138, 0.0],
];

/// Table 3: `(activity, ID_A, SID_A)` in the paper's order.
pub const TABLE3: [(ActivityKind, f64, f64); 4] = [
    (ActivityKind::Computation, 0.01904, 0.01132),
    (ActivityKind::PointToPoint, 0.05973, 0.00734),
    (ActivityKind::Collective, 0.03781, 0.00786),
    (ActivityKind::Synchronization, 0.15559, 0.00016),
];

/// Table 4: `(ID_C, SID_C)` per loop.
pub const TABLE4: [(f64, f64); LOOPS] = [
    (0.04809, 0.01311),
    (0.00750, 0.00152),
    (0.01798, 0.00280),
    (0.03790, 0.00571),
    (0.01655, 0.00214),
    (0.13734, 0.00135),
    (0.00760, 0.00003),
];

/// Whole-program wall-clock time implied by the paper's scaled indices.
///
/// Every published `SID = (t/T)·ID` pair of Tables 3–4 solves to
/// `T ≈ 69.93 s` (median of the ten estimates), while the seven loops sum
/// to 64.754 s; the difference is program time outside the measured
/// loops.
pub const PROGRAM_TOTAL: f64 = 69.93;

/// In-text processor-view claims of Section 4.
pub mod claims {
    /// Paper's "processor 1" (0-based id): most frequently imbalanced —
    /// the largest `ID_P` on loops 3 and 7.
    pub const MOST_FREQUENT_PROC: usize = 0;
    /// 0-based regions on which processor 1 is the most imbalanced.
    pub const MOST_FREQUENT_LOOPS: [usize; 2] = [2, 6];
    /// Paper's "processor 2" (0-based id): imbalanced for the longest
    /// time, via loop 1.
    pub const LONGEST_PROC: usize = 1;
    /// 0-based region backing the longest-imbalanced claim.
    pub const LONGEST_LOOP: usize = 0;
    /// Published `ID_P` of processor 2 on loop 1.
    pub const LONGEST_ID: f64 = 0.25754;
    /// Figure 1: processors of loop 4 whose computation time lies in the
    /// upper 15 % interval.
    pub const FIG1_LOOP4_UPPER: usize = 5;
    /// Figure 1: processors of loop 6 whose computation time lies in the
    /// lower 15 % interval.
    pub const FIG1_LOOP6_LOWER: usize = 11;
}

/// Shape and placement of every performed cell of the case study.
///
/// The paper's processor-view findings pin down who the outliers are on
/// loops 1, 3, and 7; the remaining loops use rotations so that no
/// processor other than the claimed ones accumulates multiple argmax
/// wins.
fn cell_plan(loop_idx: usize, activity: ActivityKind) -> (Shape, Placement) {
    let n = PROCESSORS;
    use ActivityKind::*;
    match (loop_idx, activity) {
        // Loop 1: "processor 2" (id 1) computes little but carries the
        // heaviest collective/synchronization share → outlier mix.
        (0, Computation) => (Shape::Ramp, Placement::outlier_low(n, claims::LONGEST_PROC)),
        (0, Collective) => (
            Shape::Ramp,
            Placement::outlier_high(n, claims::LONGEST_PROC),
        ),
        (0, Synchronization) => (
            Shape::Ramp,
            Placement::outlier_high(n, claims::LONGEST_PROC),
        ),
        // Loop 3 and loop 7: "processor 1" (id 0) is the mix outlier.
        (2, Computation) => (
            Shape::Ramp,
            Placement::outlier_low(n, claims::MOST_FREQUENT_PROC),
        ),
        (2, PointToPoint) => (
            Shape::Ramp,
            Placement::outlier_high(n, claims::MOST_FREQUENT_PROC),
        ),
        (6, Computation) => (
            Shape::Ramp,
            Placement::outlier_low(n, claims::MOST_FREQUENT_PROC),
        ),
        (6, Collective) => (
            Shape::Ramp,
            Placement::outlier_high(n, claims::MOST_FREQUENT_PROC),
        ),
        // Loop 4: Figure 1 shows five processors in the upper 15 %
        // computation interval → bimodal 11 + 5.
        (3, Computation) => (Shape::Bimodal { high: 5 }, Placement::rotated(n, 8)),
        (3, PointToPoint) => (Shape::Ramp, Placement::rotated(n, 8)),
        // Loop 6: Figure 1 shows eleven processors in the lower 15 %
        // interval → the same bimodal family.
        (5, Computation) => (Shape::Bimodal { high: 5 }, Placement::rotated(n, 3)),
        (5, PointToPoint) => (Shape::Ramp, Placement::rotated(n, 3)),
        (5, Synchronization) => (Shape::Ramp, Placement::rotated(n, 3)),
        // Loop 2 and loop 5: plain rotated ramps keeping the argmax wins
        // away from processors 1 and 2.
        (1, _) => (Shape::Ramp, Placement::rotated(n, 5)),
        (4, _) => (Shape::Ramp, Placement::rotated(n, 11)),
        _ => (Shape::Ramp, Placement::identity(n)),
    }
}

/// Reconstructs the full `7 × 4 × 16` measurement matrix of the paper's
/// case study: cell means equal Table 1 and Euclidean indices of
/// dispersion equal Table 2 (to solver precision ~1e-9), with processor
/// placements matching the Section 4 processor-view findings and the
/// Figure 1 bin counts.
///
/// # Errors
///
/// Calibration errors cannot occur for the published values; they would
/// indicate a regression in the solver.
pub fn paper_measurements() -> Result<Measurements, CalibrateError> {
    build(false)
}

/// Like [`paper_measurements`], plus a balanced "rest of program" region
/// accounting for the ≈ 5.18 s the program spent outside the measured
/// loops, so the program total matches [`PROGRAM_TOTAL`] and the scaled
/// indices of Tables 3–4 come out exactly.
///
/// # Errors
///
/// Same conditions as [`paper_measurements`].
pub fn paper_measurements_with_tail() -> Result<Measurements, CalibrateError> {
    build(true)
}

fn build(with_tail: bool) -> Result<Measurements, CalibrateError> {
    let mut b =
        MeasurementsBuilder::with_activities(PROCESSORS, ActivitySet::new(STANDARD_ACTIVITIES));
    for (i, name) in LOOP_NAMES.iter().enumerate() {
        let region = b.add_region(*name);
        for (j, &kind) in STANDARD_ACTIVITIES.iter().enumerate() {
            let total = TABLE1[i][j];
            if total <= 0.0 {
                continue;
            }
            let target = TABLE2[i][j];
            let (shape, placement) = cell_plan(i, kind);
            let weights = solve_weights(&shape, PROCESSORS, target)?;
            let placed = placement.apply(&weights);
            for (p, w) in placed.iter().enumerate() {
                b.set(region, kind, p, total * w)?;
            }
        }
    }
    if with_tail {
        let measured: f64 = TABLE1_OVERALL.iter().sum();
        let tail = PROGRAM_TOTAL - measured;
        let region = b.add_region(TAIL_NAME);
        for p in 0..PROCESSORS {
            b.set(region, ActivityKind::Computation, p, tail)?;
        }
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_model::{ProcessorId, RegionId};
    use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};

    #[test]
    fn table1_rows_sum_to_overall() {
        for (row, &overall) in TABLE1.iter().zip(&TABLE1_OVERALL) {
            let sum: f64 = row.iter().sum();
            assert!((sum - overall).abs() < 1e-9, "{sum} vs {overall}");
        }
    }

    #[test]
    fn reconstruction_matches_table1_means() {
        let m = paper_measurements().unwrap();
        for (i, r) in (0..LOOPS).map(RegionId::new).enumerate() {
            for (j, &kind) in STANDARD_ACTIVITIES.iter().enumerate() {
                let t = m.region_activity_time(r, kind);
                assert!(
                    (t - TABLE1[i][j]).abs() < 1e-9,
                    "loop {} {kind}: {t} vs {}",
                    i + 1,
                    TABLE1[i][j]
                );
            }
            let overall = m.region_time(r);
            assert!((overall - TABLE1_OVERALL[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn reconstruction_matches_table2_dispersions() {
        let m = paper_measurements().unwrap();
        for (i, r) in (0..LOOPS).map(RegionId::new).enumerate() {
            for (j, &kind) in STANDARD_ACTIVITIES.iter().enumerate() {
                if TABLE1[i][j] <= 0.0 {
                    assert!(!m.performs(r, kind));
                    continue;
                }
                let slice = m.processor_slice(r, kind).unwrap();
                let id = EuclideanFromMean.index(slice).unwrap();
                assert!(
                    (id - TABLE2[i][j]).abs() < 1e-8,
                    "loop {} {kind}: {id} vs {}",
                    i + 1,
                    TABLE2[i][j]
                );
            }
        }
    }

    #[test]
    fn tail_region_completes_program_total() {
        let m = paper_measurements_with_tail().unwrap();
        assert_eq!(m.regions(), LOOPS + 1);
        assert!((m.total_time() - PROGRAM_TOTAL).abs() < 1e-9);
        // The tail is perfectly balanced computation.
        let tail = RegionId::new(LOOPS);
        let slice = m.processor_slice(tail, ActivityKind::Computation).unwrap();
        assert!(slice.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        assert_eq!(m.region_info(tail).name(), TAIL_NAME);
    }

    #[test]
    fn figure1_bin_counts_are_reproduced() {
        let m = paper_measurements().unwrap();
        // Loop 4 computation: 5 of 16 in the upper 15 % interval.
        let l4 = m
            .processor_slice(RegionId::new(3), ActivityKind::Computation)
            .unwrap();
        let max = l4.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = l4.iter().copied().fold(f64::INFINITY, f64::min);
        let upper = l4
            .iter()
            .filter(|&&v| v >= min + 0.85 * (max - min))
            .count();
        assert_eq!(upper, claims::FIG1_LOOP4_UPPER);
        // Loop 6 computation: 11 of 16 in the lower 15 % interval.
        let l6 = m
            .processor_slice(RegionId::new(5), ActivityKind::Computation)
            .unwrap();
        let max = l6.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = l6.iter().copied().fold(f64::INFINITY, f64::min);
        let lower = l6
            .iter()
            .filter(|&&v| v <= min + 0.15 * (max - min))
            .count();
        assert_eq!(lower, claims::FIG1_LOOP6_LOWER);
    }

    #[test]
    fn loop1_outlier_is_processor_two() {
        let m = paper_measurements().unwrap();
        let r = RegionId::new(0);
        let p2 = ProcessorId::new(claims::LONGEST_PROC);
        // Processor 2 computes the least and synchronizes/collects most.
        let comp = m.processor_slice(r, ActivityKind::Computation).unwrap();
        assert_eq!(
            comp.iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0,
            claims::LONGEST_PROC
        );
        let coll = m.processor_slice(r, ActivityKind::Collective).unwrap();
        assert_eq!(
            coll.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0,
            claims::LONGEST_PROC
        );
        assert!(m.processor_region_time(r, p2) > 0.0);
    }
}
