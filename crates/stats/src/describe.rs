//! Descriptive statistics helpers.

use crate::StatsError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptyData`] for an empty slice.
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Percentile of `data` with linear interpolation between order statistics,
/// `p` in `[0, 100]`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyData`] for an empty slice and
/// [`StatsError::InvalidFraction`] when `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// let p50 = limba_stats::describe::percentile(&[1.0, 2.0, 3.0, 4.0], 50.0).unwrap();
/// assert_eq!(p50, 2.5);
/// ```
pub fn percentile(data: &[f64], p: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    if !(0.0..=100.0).contains(&p) || !p.is_finite() {
        return Err(StatsError::InvalidFraction { value: p });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Least-squares slope of `y` over `x` for a set of `(x, y)` points — the
/// trend engine behind the windowed imbalance-evolution detector and the
/// simulator's anticipatory balancing policy.
///
/// Returns `0.0` for fewer than two points or when all `x` coincide, so
/// degenerate windows read as "no trend" instead of an error.
///
/// # Example
///
/// ```
/// let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)];
/// assert_eq!(limba_stats::describe::least_squares_slope(&pts), 2.0);
/// ```
pub fn least_squares_slope(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if var == 0.0 {
        0.0
    } else {
        cov / var
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_data() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let d = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&d, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&d, 100.0).unwrap(), 50.0);
        assert_eq!(percentile(&d, 50.0).unwrap(), 30.0);
        assert_eq!(percentile(&d, 25.0).unwrap(), 20.0);
        assert_eq!(percentile(&d, 10.0).unwrap(), 14.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = percentile(&[3.0, 1.0, 2.0], 50.0).unwrap();
        assert_eq!(a, 2.0);
    }

    #[test]
    fn percentile_validates_p() {
        assert!(percentile(&[1.0], -1.0).is_err());
        assert!(percentile(&[1.0], 100.5).is_err());
        assert!(percentile(&[1.0], f64::NAN).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }
}
