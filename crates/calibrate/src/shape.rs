//! Imbalance shapes: how spread is distributed over processors.

use crate::CalibrateError;

/// The distribution family of an imbalanced cell.
///
/// A shape provides a mean-zero *direction* `d` over the processors; the
/// solver then scales it (`w_p = max(0, 1 + θ·d_p)`, renormalized to mean
/// one) until the Euclidean index of dispersion matches the target. The
/// positions are canonical (ascending); permutations applied afterwards
/// decide which processor takes which position.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A linear ramp: positions are evenly spread between light and
    /// heavy. The generic choice when the paper says nothing about the
    /// distribution's form.
    Ramp,
    /// Two clusters: the top `high` positions share one (heavy) value,
    /// the rest another. Reproduces the paper's Figure 1 observations
    /// ("the times spent … by five out of 16 processors belong to the
    /// upper 15% interval").
    Bimodal {
        /// Number of heavy positions.
        high: usize,
    },
    /// An explicit mean-zero direction (advanced use).
    Custom(Vec<f64>),
}

impl Shape {
    /// The mean-zero direction of this shape for `n` processors,
    /// ascending (light positions first).
    ///
    /// # Errors
    ///
    /// Returns [`CalibrateError::InvalidShape`] when the shape is
    /// degenerate for `n` (e.g. `high` not in `1..n`, or a custom
    /// direction of the wrong length or with nonzero mean).
    pub(crate) fn direction(&self, n: usize) -> Result<Vec<f64>, CalibrateError> {
        if n == 0 {
            return Err(CalibrateError::InvalidInput {
                detail: "need at least one processor".into(),
            });
        }
        match self {
            Shape::Ramp => {
                let mid = (n as f64 - 1.0) / 2.0;
                Ok((0..n).map(|p| p as f64 - mid).collect())
            }
            Shape::Bimodal { high } => {
                if *high == 0 || *high >= n {
                    return Err(CalibrateError::InvalidShape {
                        detail: format!("bimodal high count {high} must be in 1..{n}"),
                    });
                }
                let low = n - high;
                // Heavy positions at +1, light at -high/low: mean zero.
                let light = -(*high as f64) / low as f64;
                Ok((0..n).map(|p| if p >= low { 1.0 } else { light }).collect())
            }
            Shape::Custom(d) => {
                if d.len() != n {
                    return Err(CalibrateError::InvalidShape {
                        detail: format!("custom direction has length {}, need {n}", d.len()),
                    });
                }
                let mean = d.iter().sum::<f64>() / n as f64;
                if mean.abs() > 1e-9 {
                    return Err(CalibrateError::InvalidShape {
                        detail: format!("custom direction must have zero mean, got {mean}"),
                    });
                }
                if d.iter().any(|v| !v.is_finite()) {
                    return Err(CalibrateError::InvalidShape {
                        detail: "custom direction must be finite".into(),
                    });
                }
                Ok(d.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_direction_is_mean_zero_ascending() {
        let d = Shape::Ramp.direction(4).unwrap();
        assert_eq!(d, vec![-1.5, -0.5, 0.5, 1.5]);
        assert!(d.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn bimodal_direction_splits_high_low() {
        let d = Shape::Bimodal { high: 1 }.direction(4).unwrap();
        assert_eq!(d, vec![-1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0, 1.0]);
        assert!(d.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn degenerate_shapes_rejected() {
        assert!(Shape::Bimodal { high: 0 }.direction(4).is_err());
        assert!(Shape::Bimodal { high: 4 }.direction(4).is_err());
        assert!(Shape::Ramp.direction(0).is_err());
        assert!(Shape::Custom(vec![1.0, 2.0]).direction(3).is_err());
        assert!(Shape::Custom(vec![1.0, 1.0]).direction(2).is_err()); // nonzero mean
        assert!(Shape::Custom(vec![f64::NAN, 0.0]).direction(2).is_err());
    }

    #[test]
    fn custom_direction_passes_through() {
        let d = Shape::Custom(vec![-1.0, 0.0, 1.0]).direction(3).unwrap();
        assert_eq!(d, vec![-1.0, 0.0, 1.0]);
    }
}
