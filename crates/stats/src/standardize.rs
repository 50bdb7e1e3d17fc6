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
    let checked = UnitSum::new(data)?;
    Ok(data.iter().map(|&v| v / checked.sum()).collect())
}

/// A data set checked for standardization, with the sum
/// [`to_unit_sum`] divides by: the standardized `i`-th value is
/// `data()[i] / sum()`, bit for bit, so callers can standardize on the
/// fly without a copy, and read the sum without taking it again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSum<'a> {
    data: &'a [f64],
    sum: f64,
}

impl<'a> UnitSum<'a> {
    /// Checks `data` and sums it left to right.
    ///
    /// # Errors
    ///
    /// Same conditions as [`to_unit_sum`]; [`StatsError::ZeroSum`] only
    /// once every value has passed.
    pub fn new(data: &'a [f64]) -> Result<UnitSum<'a>, StatsError> {
        validate_nonnegative(data)?;
        let sum: f64 = data.iter().sum();
        if sum <= 0.0 {
            return Err(StatsError::ZeroSum);
        }
        Ok(UnitSum { data, sum })
    }

    /// The checked values: non-empty, finite and non-negative.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Their sum, positive.
    pub fn sum(&self) -> f64 {
        self.sum
    }
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
        // Checked before the sum: a bad value wins over a zero sum.
        assert_eq!(
            UnitSum::new(&[0.0, -0.5]),
            Err(StatsError::InvalidValue { value: -0.5 })
        );
    }

    #[test]
    fn unit_sum_keeps_the_left_to_right_sum() {
        let data = [0.1, 0.2, 0.3];
        let checked = UnitSum::new(&data).unwrap();
        assert_eq!(checked.sum(), 0.1 + 0.2 + 0.3);
        assert_eq!(checked.data(), data);
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
