//! Indices of dispersion.
//!
//! "Dissimilarities can be measured by different indices of dispersion,
//! such as, variance, coefficient of variation, Euclidean distance, mean
//! absolute deviation, maximum, sum of the elements of the data sets."
//!
//! Every index here first standardizes its input to sum one (see
//! [`standardize`](crate::standardize)) — on the fly, dividing each value
//! by the sum as it is read, so only [`Gini`] (which sorts) copies the
//! data — and all indices are therefore *relative*
//! measures of spread with value `0` exactly at the perfectly balanced
//! condition. The paper selects the Euclidean distance from the average —
//! [`EuclideanFromMean`] — as the index best suited for load-imbalance
//! studies; the others are provided for ablation and because the
//! methodology treats the index as a pluggable choice.
//!
//! All of these indices are Schur-convex functions of the standardized
//! data, so they respect the majorization partial order (see
//! [`majorization`](crate::majorization)): if `x ≺ y` then
//! `index(x) ≤ index(y)`.

use std::fmt;

use crate::standardize::UnitSum;
use crate::StatsError;

/// A relative index of dispersion over a non-negative data set.
///
/// Implementations standardize the data to sum one, then measure its spread
/// around the perfectly balanced point `(1/n, …, 1/n)`.
pub trait DispersionIndex {
    /// Human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Computes the index of an already checked data set.
    fn index_of(&self, data: &UnitSum<'_>) -> f64;

    /// Computes the index for `data`.
    ///
    /// # Errors
    ///
    /// Returns an error when `data` is empty, contains negative or
    /// non-finite values, or sums to zero (an all-idle data set has no
    /// relative spread).
    fn index(&self, data: &[f64]) -> Result<f64, StatsError> {
        Ok(self.index_of(&UnitSum::new(data)?))
    }
}

/// The paper's index: the Euclidean distance between the standardized times
/// and their common average,
/// `ID = sqrt( Σ_p (t̂_p − mean(t̂))² )` with `mean(t̂) = 1/n`.
///
/// For `n` elements the index ranges from `0` (perfect balance) to
/// `sqrt(1 − 1/n)` (all time on one element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EuclideanFromMean;

impl DispersionIndex for EuclideanFromMean {
    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let mean = 1.0 / data.len() as f64;
        data.iter()
            .map(|&v| (v / sum - mean).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

impl EuclideanFromMean {
    /// The largest value the index can take for `n` elements,
    /// `sqrt(1 − 1/n)`, attained when a single element holds all the time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_for(n: usize) -> f64 {
        assert!(n > 0, "need at least one element");
        (1.0 - 1.0 / n as f64).sqrt()
    }
}

/// Variance of the standardized data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Variance;

impl DispersionIndex for Variance {
    fn name(&self) -> &'static str {
        "variance"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let mean = 1.0 / data.len() as f64;
        data.iter().map(|&v| (v / sum - mean).powi(2)).sum::<f64>() / data.len() as f64
    }
}

/// Coefficient of variation: standard deviation over mean (computed on the
/// standardized data, where it equals the CV of the raw data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoefficientOfVariation;

impl DispersionIndex for CoefficientOfVariation {
    fn name(&self) -> &'static str {
        "cv"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let mean = 1.0 / data.len() as f64;
        let var = data.iter().map(|&v| (v / sum - mean).powi(2)).sum::<f64>() / data.len() as f64;
        var.sqrt() / mean
    }
}

/// Mean absolute deviation of the standardized data from its mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeanAbsoluteDeviation;

impl DispersionIndex for MeanAbsoluteDeviation {
    fn name(&self) -> &'static str {
        "mad"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let mean = 1.0 / data.len() as f64;
        data.iter().map(|&v| (v / sum - mean).abs()).sum::<f64>() / data.len() as f64
    }
}

/// Maximum of the standardized data set, shifted so perfect balance maps to
/// zero: `max(t̂) − 1/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxExcess;

impl DispersionIndex for MaxExcess {
    fn name(&self) -> &'static str {
        "max-excess"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let max = data
            .iter()
            .map(|&v| v / sum)
            .fold(f64::NEG_INFINITY, f64::max);
        max - 1.0 / data.len() as f64
    }
}

/// Range of the standardized data set: `max(t̂) − min(t̂)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Range;

impl DispersionIndex for Range {
    fn name(&self) -> &'static str {
        "range"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let x = data.iter().map(|&v| v / sum);
        let max = x.clone().fold(f64::NEG_INFINITY, f64::max);
        let min = x.fold(f64::INFINITY, f64::min);
        max - min
    }
}

/// Gini coefficient of the data set (half the relative mean absolute
/// difference), a classic majorization-respecting inequality measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gini;

impl DispersionIndex for Gini {
    fn name(&self) -> &'static str {
        "gini"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let n = data.len() as f64;
        let mut sorted: Vec<f64> = data.iter().map(|&v| v / sum).collect();
        sorted.sort_by(f64::total_cmp);
        // G = (2·Σ_i i·x_(i) − (n+1)) / n for unit-sum data, i counted from 1.
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 + 1.0) * v)
            .sum();
        (2.0 * weighted - (n + 1.0)) / n
    }
}

/// Theil's T entropy index: `(1/n) Σ (x/μ)·ln(x/μ)` over the
/// standardized data, with the `0·ln 0 = 0` convention. Zero at perfect
/// balance, `ln n` at total concentration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Theil;

impl DispersionIndex for Theil {
    fn name(&self) -> &'static str {
        "theil"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let n = data.len() as f64;
        data.iter()
            .map(|&v| {
                let r = v / sum * n; // x / mean
                if r > 0.0 {
                    r * r.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / n
    }
}

/// Atkinson index with inequality aversion `ε = 1/2`:
/// `1 − ( (1/n) Σ sqrt(x/μ) )²`. Zero at perfect balance, approaching 1
/// under total concentration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Atkinson;

impl DispersionIndex for Atkinson {
    fn name(&self) -> &'static str {
        "atkinson"
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        let (data, sum) = (data.data(), data.sum());
        let n = data.len() as f64;
        let mean_sqrt = data.iter().map(|&v| (v / sum * n).sqrt()).sum::<f64>() / n;
        1.0 - mean_sqrt * mean_sqrt
    }
}

/// Enumeration of the provided indices, for configuration and ablation.
///
/// # Example
///
/// ```
/// use limba_stats::dispersion::{DispersionIndex, DispersionKind};
/// let id = DispersionKind::Euclidean.index(&[1.0, 0.0]).unwrap();
/// assert!((id - (0.5f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispersionKind {
    /// [`EuclideanFromMean`] — the paper's choice.
    #[default]
    Euclidean,
    /// [`Variance`].
    Variance,
    /// [`CoefficientOfVariation`].
    Cv,
    /// [`MeanAbsoluteDeviation`].
    Mad,
    /// [`MaxExcess`].
    MaxExcess,
    /// [`Range`].
    Range,
    /// [`Gini`].
    Gini,
    /// [`Theil`].
    Theil,
    /// [`Atkinson`].
    Atkinson,
}

impl DispersionKind {
    /// All provided kinds.
    pub const ALL: [DispersionKind; 9] = [
        DispersionKind::Euclidean,
        DispersionKind::Variance,
        DispersionKind::Cv,
        DispersionKind::Mad,
        DispersionKind::MaxExcess,
        DispersionKind::Range,
        DispersionKind::Gini,
        DispersionKind::Theil,
        DispersionKind::Atkinson,
    ];
}

impl DispersionIndex for DispersionKind {
    fn name(&self) -> &'static str {
        match self {
            DispersionKind::Euclidean => EuclideanFromMean.name(),
            DispersionKind::Variance => Variance.name(),
            DispersionKind::Cv => CoefficientOfVariation.name(),
            DispersionKind::Mad => MeanAbsoluteDeviation.name(),
            DispersionKind::MaxExcess => MaxExcess.name(),
            DispersionKind::Range => Range.name(),
            DispersionKind::Gini => Gini.name(),
            DispersionKind::Theil => Theil.name(),
            DispersionKind::Atkinson => Atkinson.name(),
        }
    }

    fn index_of(&self, data: &UnitSum<'_>) -> f64 {
        match self {
            DispersionKind::Euclidean => EuclideanFromMean.index_of(data),
            DispersionKind::Variance => Variance.index_of(data),
            DispersionKind::Cv => CoefficientOfVariation.index_of(data),
            DispersionKind::Mad => MeanAbsoluteDeviation.index_of(data),
            DispersionKind::MaxExcess => MaxExcess.index_of(data),
            DispersionKind::Range => Range.index_of(data),
            DispersionKind::Gini => Gini.index_of(data),
            DispersionKind::Theil => Theil.index_of(data),
            DispersionKind::Atkinson => Atkinson.index_of(data),
        }
    }
}

impl fmt::Display for DispersionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Euclidean distance between two equal-length vectors — the building block
/// of the paper's processor view, where each processor's standardized
/// activity mix is compared with the average mix.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] when the slices differ in length
/// and [`StatsError::EmptyData`] when they are empty.
///
/// # Example
///
/// ```
/// let d = limba_stats::dispersion::euclidean_distance(&[0.0, 3.0], &[4.0, 0.0]).unwrap();
/// assert_eq!(d, 5.0);
/// ```
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(StatsError::EmptyData);
    }
    Ok(a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn all_indices_are_zero_at_perfect_balance() {
        let balanced = [3.0; 8];
        for kind in DispersionKind::ALL {
            let v = kind.index(&balanced).unwrap();
            assert!(v.abs() < EPS, "{kind} gave {v} on balanced data");
        }
    }

    #[test]
    fn euclidean_reaches_documented_maximum() {
        let mut data = vec![0.0; 16];
        data[0] = 7.0;
        let id = EuclideanFromMean.index(&data).unwrap();
        assert!((id - EuclideanFromMean::max_for(16)).abs() < EPS);
    }

    #[test]
    fn euclidean_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0, 10.0];
        let b: Vec<f64> = a.iter().map(|v| v * 123.456).collect();
        let ia = EuclideanFromMean.index(&a).unwrap();
        let ib = EuclideanFromMean.index(&b).unwrap();
        assert!((ia - ib).abs() < EPS);
    }

    #[test]
    fn concentration_on_fewer_processors_increases_euclidean() {
        // m processors sharing all work equally: ID = sqrt(1/m - 1/P).
        let p = 16;
        let mut last = -1.0;
        for m in (1..=p).rev() {
            let mut data = vec![0.0; p];
            for v in data.iter_mut().take(m) {
                *v = 1.0;
            }
            let id = EuclideanFromMean.index(&data).unwrap();
            let expected = (1.0 / m as f64 - 1.0 / p as f64).sqrt();
            assert!((id - expected).abs() < EPS, "m={m}: {id} vs {expected}");
            assert!(id > last);
            last = id;
        }
    }

    #[test]
    fn variance_is_squared_euclidean_over_n() {
        let data = [1.0, 4.0, 2.0, 9.0];
        let e = EuclideanFromMean.index(&data).unwrap();
        let v = Variance.index(&data).unwrap();
        assert!((v - e * e / data.len() as f64).abs() < EPS);
    }

    #[test]
    fn cv_matches_raw_cv() {
        let data = [2.0, 4.0, 6.0, 8.0];
        let mean = 5.0;
        let var = data.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        let raw_cv = var.sqrt() / mean;
        let cv = CoefficientOfVariation.index(&data).unwrap();
        assert!((cv - raw_cv).abs() < EPS);
    }

    #[test]
    fn theil_known_values() {
        // Perfect balance → 0; total concentration on one of n → ln n.
        assert!(Theil.index(&[2.0; 8]).unwrap().abs() < EPS);
        let mut conc = vec![0.0; 8];
        conc[3] = 5.0;
        assert!((Theil.index(&conc).unwrap() - 8.0f64.ln()).abs() < EPS);
        // Two-point distribution [3μ, μ]: T = (1/2)(1.5 ln 1.5 + 0.5 ln 0.5).
        let expected = 0.5 * (1.5 * 1.5f64.ln() + 0.5 * 0.5f64.ln());
        assert!((Theil.index(&[3.0, 1.0]).unwrap() - expected).abs() < EPS);
    }

    #[test]
    fn atkinson_known_values() {
        assert!(Atkinson.index(&[2.0; 8]).unwrap().abs() < EPS);
        // Total concentration on one of n: 1 − ((1/n)·sqrt(n))² = 1 − 1/n.
        let mut conc = vec![0.0; 4];
        conc[0] = 1.0;
        assert!((Atkinson.index(&conc).unwrap() - 0.75).abs() < EPS);
        // Bounded in [0, 1).
        let a = Atkinson.index(&[9.0, 1.0, 0.1, 0.0]).unwrap();
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn gini_known_values() {
        // Perfect inequality over n elements: G = (n-1)/n.
        let mut data = vec![0.0; 5];
        data[2] = 3.0;
        let g = Gini.index(&data).unwrap();
        assert!((g - 0.8).abs() < EPS);
        // Two equal halves of [0, x]: G = 1/4 for [0,0,1,1]? compute: sorted
        // x=[0,0,.5,.5], G = (2*(3*.5+4*.5)-5)/4 = (7-5)/4 = 0.5... use direct formula instead.
        let g2 = Gini.index(&[1.0, 1.0, 1.0, 3.0]).unwrap();
        assert!(g2 > 0.0 && g2 < 1.0);
    }

    #[test]
    fn range_and_max_excess() {
        let data = [0.0, 1.0, 3.0]; // standardized: 0, .25, .75
        assert!((Range.index(&data).unwrap() - 0.75).abs() < EPS);
        assert!((MaxExcess.index(&data).unwrap() - (0.75 - 1.0 / 3.0)).abs() < EPS);
    }

    #[test]
    fn mad_known_value() {
        let data = [0.0, 2.0]; // standardized 0,1; mean .5; MAD = .5
        assert!((MeanAbsoluteDeviation.index(&data).unwrap() - 0.5).abs() < EPS);
    }

    #[test]
    fn indices_reject_bad_input() {
        for kind in DispersionKind::ALL {
            assert!(kind.index(&[]).is_err());
            assert!(kind.index(&[0.0, 0.0]).is_err());
            assert!(kind.index(&[1.0, -1.0]).is_err());
        }
    }

    #[test]
    fn euclidean_distance_basics() {
        assert_eq!(euclidean_distance(&[0.0], &[0.0]).unwrap(), 0.0);
        assert!(matches!(
            euclidean_distance(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            euclidean_distance(&[], &[]),
            Err(StatsError::EmptyData)
        ));
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = DispersionKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DispersionKind::ALL.len());
    }
}
