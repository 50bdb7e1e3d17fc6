//! Standardization of wall-clock times.
//!
//! The first step of the paper's dissimilarity analysis: "the standardized
//! times are such that they sum to one, that is, they are obtained by
//! dividing the wall clock times by the corresponding sum". Standardization
//! makes every index of dispersion a *relative* measure, independent of the
//! absolute magnitude of the times.

use crate::StatsError;

/// Validates that every element is finite and non-negative.
///
/// # Errors
///
/// Returns [`StatsError::EmptyData`] for an empty slice and
/// [`StatsError::InvalidValue`] for the first offending element.
pub(crate) fn validate_nonnegative(data: &[f64]) -> Result<(), StatsError> {
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

/// Returns a copy of `data` scaled so its elements sum to one.
///
/// # Errors
///
/// Returns an error when `data` is empty, contains negative or non-finite
/// values, or sums to zero.
///
/// # Example
///
/// ```
/// let s = limba_stats::standardize::to_unit_sum(&[1.0, 3.0]).unwrap();
/// assert_eq!(s, vec![0.25, 0.75]);
/// ```
pub fn to_unit_sum(data: &[f64]) -> Result<Vec<f64>, StatsError> {
    let sum = unit_sum_divisor(data)?;
    Ok(data.iter().map(|&v| v / sum).collect())
}

/// The sum that [`to_unit_sum`] divides by, after the same checks: the
/// standardized `i`-th value is `data[i] / unit_sum_divisor(data)?`, bit
/// for bit, so callers can standardize on the fly without a copy.
///
/// # Errors
///
/// Same conditions as [`to_unit_sum`].
pub(crate) fn unit_sum_divisor(data: &[f64]) -> Result<f64, StatsError> {
    validate_nonnegative(data)?;
    let sum: f64 = data.iter().sum();
    if sum <= 0.0 {
        return Err(StatsError::ZeroSum);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardized_sums_to_one() {
        let s = to_unit_sum(&[2.0, 2.0, 4.0]).unwrap();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s, vec![0.25, 0.25, 0.5]);
    }

    #[test]
    fn zero_sum_is_rejected() {
        assert_eq!(to_unit_sum(&[0.0, 0.0]), Err(StatsError::ZeroSum));
    }

    #[test]
    fn empty_and_invalid_inputs_are_rejected() {
        assert_eq!(to_unit_sum(&[]), Err(StatsError::EmptyData));
        assert!(matches!(
            to_unit_sum(&[1.0, -1.0]),
            Err(StatsError::InvalidValue { .. })
        ));
        assert!(matches!(
            to_unit_sum(&[f64::INFINITY]),
            Err(StatsError::InvalidValue { .. })
        ));
    }
}
