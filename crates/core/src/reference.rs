//! Test oracle for the slice-walking analysis core: the scanning
//! implementations the views, the profile and the marginals had before
//! the marginals were cached in `Measurements` and the views walked
//! column slices in place. Every marginal re-sums its `P`-element
//! slice, the processor view standardizes a copied activity vector per
//! `(region, processor)`, and every index of dispersion standardizes a
//! copy of its data. The bodies are kept as they were; only the
//! `measurements.marginal(..)` calls became calls of the free functions
//! below. The property test checks that the production paths agree with
//! these bit for bit.

// The oracle's bodies stay as they were, `expect`s included.
#![allow(clippy::expect_used)]

use limba_model::{
    ActivityBreakdown, ActivityKind, Measurements, ProcessorId, ProgramProfile, RegionId,
    RegionProfile,
};
use limba_stats::dispersion::{euclidean_distance, DispersionKind};
use limba_stats::StatsError;

use crate::patterns::{classify_row, PatternGrid, PatternRow};
use crate::views::{ActivitySummary, ActivityView, ProcessorView, RegionSummary, RegionView};
use crate::AnalysisError;

// ---- The summing marginals of `Measurements`. ----

fn region_activity_time(m: &Measurements, region: RegionId, kind: ActivityKind) -> f64 {
    match m.processor_slice(region, kind) {
        Some(s) => s.iter().sum::<f64>() / m.processors() as f64,
        None => 0.0,
    }
}

fn region_time(m: &Measurements, region: RegionId) -> f64 {
    m.activities()
        .iter()
        .map(|k| region_activity_time(m, region, k))
        .sum()
}

fn activity_time(m: &Measurements, kind: ActivityKind) -> f64 {
    m.region_ids()
        .map(|r| region_activity_time(m, r, kind))
        .sum()
}

fn total_time(m: &Measurements) -> f64 {
    m.region_ids().map(|r| region_time(m, r)).sum()
}

fn processor_region_time(m: &Measurements, region: RegionId, proc: ProcessorId) -> f64 {
    m.activities().iter().map(|k| m.time(region, k, proc)).sum()
}

fn performs(m: &Measurements, region: RegionId, kind: ActivityKind) -> bool {
    m.processor_slice(region, kind)
        .map(|s| s.iter().any(|&v| v > 0.0))
        .unwrap_or(false)
}

fn activity_vector(m: &Measurements, region: RegionId, proc: ProcessorId) -> Vec<f64> {
    m.activities()
        .iter()
        .map(|k| m.time(region, k, proc))
        .collect()
}

// ---- Standardization and the indices of dispersion (limba-stats). ----

fn validate_nonnegative(data: &[f64]) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    for &v in data {
        if !v.is_finite() || v < 0.0 {
            return Err(StatsError::InvalidValue { value: v });
        }
    }
    Ok(())
}

fn to_unit_sum(data: &[f64]) -> Result<Vec<f64>, StatsError> {
    validate_nonnegative(data)?;
    let sum: f64 = data.iter().sum();
    if sum <= 0.0 {
        return Err(StatsError::ZeroSum);
    }
    Ok(data.iter().map(|&v| v / sum).collect())
}

fn dispersion_index(kind: DispersionKind, data: &[f64]) -> Result<f64, StatsError> {
    match kind {
        DispersionKind::Euclidean => {
            let x = to_unit_sum(data)?;
            let mean = 1.0 / x.len() as f64;
            Ok(x.iter().map(|&v| (v - mean).powi(2)).sum::<f64>().sqrt())
        }
        DispersionKind::Variance => {
            let x = to_unit_sum(data)?;
            let mean = 1.0 / x.len() as f64;
            Ok(x.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64)
        }
        DispersionKind::Cv => {
            let x = to_unit_sum(data)?;
            let mean = 1.0 / x.len() as f64;
            let var = x.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
            Ok(var.sqrt() / mean)
        }
        DispersionKind::Mad => {
            let x = to_unit_sum(data)?;
            let mean = 1.0 / x.len() as f64;
            Ok(x.iter().map(|&v| (v - mean).abs()).sum::<f64>() / x.len() as f64)
        }
        DispersionKind::MaxExcess => {
            let x = to_unit_sum(data)?;
            let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Ok(max - 1.0 / x.len() as f64)
        }
        DispersionKind::Range => {
            let x = to_unit_sum(data)?;
            let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = x.iter().copied().fold(f64::INFINITY, f64::min);
            Ok(max - min)
        }
        DispersionKind::Gini => {
            let x = to_unit_sum(data)?;
            let n = x.len() as f64;
            let mut sorted = x;
            sorted.sort_by(f64::total_cmp);
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 + 1.0) * v)
                .sum();
            Ok((2.0 * weighted - (n + 1.0)) / n)
        }
        DispersionKind::Theil => {
            let x = to_unit_sum(data)?;
            let n = x.len() as f64;
            Ok(x.iter()
                .map(|&v| {
                    let r = v * n; // x / mean
                    if r > 0.0 {
                        r * r.ln()
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / n)
        }
        DispersionKind::Atkinson => {
            let x = to_unit_sum(data)?;
            let n = x.len() as f64;
            let mean_sqrt = x.iter().map(|&v| (v * n).sqrt()).sum::<f64>() / n;
            Ok(1.0 - mean_sqrt * mean_sqrt)
        }
    }
}

// ---- `ProgramProfile::from_measurements`. ----

fn profile(measurements: &Measurements) -> ProgramProfile {
    let total = total_time(measurements);
    let regions = measurements
        .region_ids()
        .map(|r| {
            let t_i = region_time(measurements, r);
            let breakdown = measurements
                .activities()
                .iter()
                .map(|kind| {
                    let t_ij = region_activity_time(measurements, r, kind);
                    ActivityBreakdown {
                        kind,
                        seconds: t_ij,
                        fraction_of_region: if t_i > 0.0 { t_ij / t_i } else { 0.0 },
                        performed: performs(measurements, r, kind),
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
        .map(|kind| (kind, activity_time(measurements, kind)))
        .collect();
    ProgramProfile {
        total_seconds: total,
        regions,
        activity_totals,
    }
}

// ---- The three views and the pattern grid. ----

fn processor_view(measurements: &Measurements) -> Result<ProcessorView, AnalysisError> {
    if total_time(measurements) <= 0.0 {
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
                let v = activity_vector(measurements, r, ProcessorId::new(pi));
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
            (proc, d, processor_region_time(measurements, r, proc))
        }));
        id.push(row);
    }
    Ok(ProcessorView {
        id,
        most_imbalanced_per_region: most,
    })
}

fn activity_view(
    measurements: &Measurements,
    dispersion: DispersionKind,
) -> Result<ActivityView, AnalysisError> {
    let total = total_time(measurements);
    if total <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let k = measurements.activities().len();
    let mut id: Vec<Vec<Option<f64>>> = Vec::with_capacity(measurements.regions());
    for r in measurements.region_ids() {
        let mut row = Vec::with_capacity(k);
        for kind in measurements.activities().iter() {
            if performs(measurements, r, kind) {
                let slice = measurements
                    .processor_slice(r, kind)
                    .expect("performed activity has a slice");
                row.push(Some(dispersion_index(dispersion, slice)?));
            } else {
                row.push(None);
            }
        }
        id.push(row);
    }

    let mut summaries = Vec::new();
    for (col, kind) in measurements.activities().iter().enumerate() {
        let t_j = activity_time(measurements, kind);
        if t_j <= 0.0 {
            continue;
        }
        let mut weighted = 0.0;
        for r in measurements.region_ids() {
            if let Some(d) = id[r.index()][col] {
                let t_ij = region_activity_time(measurements, r, kind);
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

fn region_view(
    measurements: &Measurements,
    activity_view: &ActivityView,
) -> Result<RegionView, AnalysisError> {
    let total = total_time(measurements);
    if total <= 0.0 {
        return Err(AnalysisError::EmptyProgram);
    }
    let mut summaries = Vec::new();
    for r in measurements.region_ids() {
        let t_i = region_time(measurements, r);
        if t_i <= 0.0 {
            continue;
        }
        let mut weighted = 0.0;
        for (col, kind) in measurements.activities().iter().enumerate() {
            if let Some(d) = activity_view.id[r.index()][col] {
                let t_ij = region_activity_time(measurements, r, kind);
                weighted += t_ij / t_i * d;
            }
        }
        summaries.push(RegionSummary {
            region: r,
            name: measurements.region_info(r).name().to_string(),
            seconds: t_i,
            fraction_of_program: t_i / total,
            id: weighted,
            sid: t_i / total * weighted,
        });
    }
    Ok(RegionView { summaries })
}

fn pattern_grid(measurements: &Measurements, activity: ActivityKind) -> PatternGrid {
    let rows = measurements
        .region_ids()
        .filter(|&r| performs(measurements, r, activity))
        .map(|r| {
            let slice = measurements
                .processor_slice(r, activity)
                .expect("performed activity has a slice");
            PatternRow {
                region: r,
                name: measurements.region_info(r).name().to_string(),
                bins: classify_row(slice),
            }
        })
        .collect();
    PatternGrid { activity, rows }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use limba_model::{ActivitySet, MeasurementsBuilder, STANDARD_ACTIVITIES};
    use limba_stats::dispersion::DispersionIndex;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use super::*;

    /// splitmix64: the case's content generator, seeded by the runner.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// One time: zero of either sign, subnormal, smallest normal,
        /// a dyadic value, or an arbitrary one whose sums round.
        fn time(&mut self) -> f64 {
            match self.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::from_bits(1 + self.below((1 << 52) - 1)),
                3 => f64::MIN_POSITIVE,
                4 => (1 + self.below(64)) as f64 / 8.0,
                _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e3,
            }
        }
    }

    /// A matrix of the given shape whose cells mix the degenerate cases:
    /// zero columns (of either sign), all-equal columns, columns of
    /// arbitrary times, processors idle in a region, and, now and then,
    /// an all-equal program.
    fn measurements(p: usize, n: usize, extras: usize, seed: u64) -> Measurements {
        let extra = [
            &[][..],
            &[ActivityKind::Io],
            &[ActivityKind::MemoryAccess],
            &[ActivityKind::MemoryAccess, ActivityKind::Io],
        ][extras];
        let activities =
            ActivitySet::new(STANDARD_ACTIVITIES.into_iter().chain(extra.iter().copied()));
        let mut rng = Mix(seed);
        let uniform = (rng.below(8) == 0).then(|| rng.time());
        let mut b = MeasurementsBuilder::with_activities(p, activities.clone());
        for i in 0..n {
            let r = b.add_region(format!("r{i}"));
            let idle: Vec<bool> = (0..p).map(|_| rng.below(6) == 0).collect();
            for kind in activities.iter() {
                let column = rng.below(5);
                let equal = rng.time();
                for (proc, &idle) in idle.iter().enumerate() {
                    let t = match (uniform, column) {
                        (Some(t), _) => t,
                        _ if idle => 0.0,
                        (None, 0) => 0.0,
                        (None, 1) => -0.0,
                        (None, 2) => equal,
                        _ => rng.time(),
                    };
                    b.set(r, kind, proc, t).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }

    fn opt_bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    fn error<T>(r: &Result<T, AnalysisError>) -> Option<String> {
        r.as_ref().err().map(|e| format!("{e:?}"))
    }

    fn profile_bits(p: &ProgramProfile) -> Vec<String> {
        let mut out = vec![format!("{:x}", bits(p.total_seconds))];
        for r in &p.regions {
            out.push(format!(
                "{:?} {} {:x} {:x}",
                r.region,
                r.name,
                bits(r.seconds),
                bits(r.fraction_of_program)
            ));
            for b in &r.breakdown {
                out.push(format!(
                    "{:?} {:x} {:x} {}",
                    b.kind,
                    bits(b.seconds),
                    bits(b.fraction_of_region),
                    b.performed
                ));
            }
        }
        for &(kind, t) in &p.activity_totals {
            out.push(format!("{kind:?} {:x}", bits(t)));
        }
        out
    }

    type ProcessorBits = (Vec<Vec<Option<u64>>>, Vec<Option<(ProcessorId, u64, u64)>>);

    fn processor_bits(v: &ProcessorView) -> ProcessorBits {
        let id =
            v.id.iter()
                .map(|row| row.iter().map(|&d| opt_bits(d)).collect())
                .collect();
        let most = v
            .most_imbalanced_per_region
            .iter()
            .map(|m| m.map(|(p, d, t)| (p, bits(d), bits(t))))
            .collect();
        (id, most)
    }

    type ActivityBits = (Vec<Vec<Option<u64>>>, Vec<(ActivityKind, [u64; 4])>);

    fn activity_bits(v: &ActivityView) -> ActivityBits {
        let id =
            v.id.iter()
                .map(|row| row.iter().map(|&d| opt_bits(d)).collect())
                .collect();
        let summaries = v
            .summaries
            .iter()
            .map(|s| {
                let values = [s.seconds, s.fraction_of_program, s.id, s.sid].map(bits);
                (s.kind, values)
            })
            .collect();
        (id, summaries)
    }

    fn region_bits(v: &RegionView) -> Vec<(RegionId, String, [u64; 4])> {
        v.summaries
            .iter()
            .map(|s| {
                let values = [s.seconds, s.fraction_of_program, s.id, s.sid].map(bits);
                (s.region, s.name.clone(), values)
            })
            .collect()
    }

    /// Every output of the production paths against the scanning oracle.
    fn check(m: &Measurements) -> Result<(), TestCaseError> {
        for r in m.region_ids() {
            prop_assert_eq!(bits(m.region_time(r)), bits(region_time(m, r)));
            for kind in ActivityKind::ALL {
                prop_assert_eq!(
                    bits(m.region_activity_time(r, kind)),
                    bits(region_activity_time(m, r, kind))
                );
                prop_assert_eq!(m.performs(r, kind), performs(m, r, kind));
            }
            for (kind, column) in m.activities().iter().zip(m.region_columns(r)) {
                prop_assert_eq!(Some(column), m.processor_slice(r, kind));
                for d in DispersionKind::ALL {
                    prop_assert_eq!(
                        d.index(column).map(bits),
                        dispersion_index(d, column).map(bits)
                    );
                }
            }
            for proc in m.processor_ids() {
                prop_assert_eq!(
                    bits(m.processor_region_time(r, proc)),
                    bits(processor_region_time(m, r, proc))
                );
            }
        }
        for kind in ActivityKind::ALL {
            prop_assert_eq!(bits(m.activity_time(kind)), bits(activity_time(m, kind)));
            prop_assert_eq!(
                crate::patterns::pattern_grid(m, kind),
                pattern_grid(m, kind)
            );
        }
        prop_assert_eq!(bits(m.total_time()), bits(total_time(m)));
        prop_assert_eq!(
            profile_bits(&ProgramProfile::from_measurements(m)),
            profile_bits(&profile(m))
        );

        let (got, want) = (crate::views::processor_view(m), processor_view(m));
        prop_assert_eq!(error(&got), error(&want));
        if let (Ok(got), Ok(want)) = (&got, &want) {
            prop_assert_eq!(processor_bits(got), processor_bits(want));
        }
        for d in DispersionKind::ALL {
            let (got, want) = (crate::views::activity_view(m, d), activity_view(m, d));
            prop_assert_eq!(error(&got), error(&want));
            let (Ok(got), Ok(want)) = (got, want) else {
                continue;
            };
            prop_assert_eq!(activity_bits(&got), activity_bits(&want));
            prop_assert_eq!(
                got.most_imbalanced().map(|s| s.kind),
                want.most_imbalanced().map(|s| s.kind)
            );
            let (got, want) = (
                crate::views::region_view(m, &got).unwrap(),
                region_view(m, &want).unwrap(),
            );
            prop_assert_eq!(region_bits(&got), region_bits(&want));
            prop_assert_eq!(
                got.most_imbalanced_scaled().map(|s| s.region),
                want.most_imbalanced_scaled().map(|s| s.region)
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slice_walking_core_matches_the_scanning_oracle(
            p in 1usize..301,
            n in 1usize..10,
            extras in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            check(&measurements(p, n, extras, seed))?;
        }
    }

    #[test]
    fn degenerate_shapes_match_the_scanning_oracle() {
        for (p, n) in [(1, 1), (1, 9), (300, 1), (2, 2)] {
            for extras in 0..4 {
                for seed in 0..64 {
                    check(&measurements(p, n, extras, seed)).unwrap();
                }
            }
        }
    }
}
