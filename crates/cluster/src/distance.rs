//! Distances and feature standardization.

use crate::ClusterError;

/// Squared Euclidean distance between two points of equal dimension.
///
/// # Panics
///
/// Panics in debug builds when dimensions differ; in release the shorter
/// dimension governs. Points coming from clustering entry points are
/// validated up front, which rules this out.
pub(crate) fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Validates a point set: non-empty, consistent dimension, finite values.
///
/// # Errors
///
/// Returns the corresponding [`ClusterError`] on the first violation.
pub(crate) fn validate_points(points: &[Vec<f64>]) -> Result<usize, ClusterError> {
    let first = points.first().ok_or(ClusterError::EmptyData)?;
    let dim = first.len();
    for p in points {
        if p.len() != dim {
            return Err(ClusterError::DimensionMismatch {
                expected: dim,
                found: p.len(),
            });
        }
        if p.iter().any(|v| !v.is_finite()) {
            return Err(ClusterError::NonFiniteCoordinate);
        }
    }
    Ok(dim)
}

/// Z-score standardizer fit on a point set, mapping each feature to zero
/// mean and unit variance. Features with zero variance are left centred
/// but unscaled.
///
/// Standardizing features before k-means keeps activities with large
/// absolute times (e.g. computation) from drowning out small ones.
///
/// # Example
///
/// ```
/// use limba_cluster::Standardizer;
/// let points = vec![vec![0.0, 100.0], vec![2.0, 300.0]];
/// let s = Standardizer::fit(&points).unwrap();
/// let t = s.transform(&points);
/// assert!((t[0][0] + 1.0).abs() < 1e-12);
/// assert!((t[1][1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Standardizer {
    /// Fits the standardizer on `points`.
    ///
    /// # Errors
    ///
    /// Same validation as clustering: non-empty, consistent, finite.
    pub fn fit(points: &[Vec<f64>]) -> Result<Self, ClusterError> {
        let dim = validate_points(points)?;
        let n = points.len() as f64;
        let mut means = vec![0.0; dim];
        for p in points {
            for (m, &v) in means.iter_mut().zip(p) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut scales = vec![0.0; dim];
        for p in points {
            for ((s, &m), &v) in scales.iter_mut().zip(&means).zip(p) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut scales {
            *s = (*s / n).sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Ok(Standardizer { means, scales })
    }

    /// Applies the fitted transform to `points`.
    pub fn transform(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points
            .iter()
            .map(|p| {
                p.iter()
                    .zip(self.means.iter().zip(&self.scales))
                    .map(|(&v, (&m, &s))| (v - m) / s)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_basics() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn validate_catches_problems() {
        assert_eq!(validate_points(&[]), Err(ClusterError::EmptyData));
        assert!(matches!(
            validate_points(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ClusterError::DimensionMismatch { .. })
        ));
        assert_eq!(
            validate_points(&[vec![f64::NAN]]),
            Err(ClusterError::NonFiniteCoordinate)
        );
        assert_eq!(validate_points(&[vec![1.0, 2.0]]), Ok(2));
    }

    #[test]
    fn standardizer_produces_zero_mean_unit_variance() {
        let pts = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(&pts).unwrap();
        let t = s.transform(&pts);
        let mean0: f64 = t.iter().map(|p| p[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        // Constant feature is centred but not blown up by zero variance.
        for p in &t {
            assert_eq!(p[1], 0.0);
        }
        assert_eq!(s.scales[1], 1.0);
        assert_eq!(s.means[0], 3.0);
    }
}
