//! Ranking criteria for assessing the severity of dissimilarities.
//!
//! "Once the metrics to quantify dissimilarities have been defined, it is
//! necessary to select the criteria for their ranking. … Possible criteria
//! are the maximum of the indices of dispersion, the percentiles of their
//! distribution, or some predefined thresholds."

use crate::describe::percentile;
use crate::StatsError;

/// A criterion selecting which items of a scored collection are *severe*.
///
/// # Example
///
/// ```
/// use limba_stats::rank::RankingCriterion;
/// let scores = [0.1, 0.9, 0.4, 0.8];
/// // The single worst item.
/// assert_eq!(RankingCriterion::Maximum.select(&scores).unwrap(), vec![1]);
/// // Everything at or above a threshold, worst first.
/// assert_eq!(
///     RankingCriterion::Threshold(0.5).select(&scores).unwrap(),
///     vec![1, 3]
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RankingCriterion {
    /// Select only the item with the maximum index of dispersion.
    #[default]
    Maximum,
    /// Select the `k` items with the largest indices.
    TopK(usize),
    /// Select the items at or above the given percentile (in `[0, 100]`)
    /// of the score distribution.
    Percentile(f64),
    /// Select the items whose score is at or above a predefined threshold.
    Threshold(f64),
}

impl RankingCriterion {
    /// Returns the indices of the selected items, ordered by decreasing
    /// score (ties broken toward smaller indices).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyData`] when `scores` is empty and
    /// [`StatsError::InvalidFraction`] for an out-of-range percentile or a
    /// non-finite threshold.
    pub fn select(&self, scores: &[f64]) -> Result<Vec<usize>, StatsError> {
        if scores.is_empty() {
            return Err(StatsError::EmptyData);
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        match *self {
            RankingCriterion::Maximum => Ok(vec![order[0]]),
            RankingCriterion::TopK(k) => {
                order.truncate(k);
                Ok(order)
            }
            RankingCriterion::Percentile(p) => {
                let cut = percentile(scores, p)?;
                order.retain(|&i| scores[i] >= cut);
                Ok(order)
            }
            RankingCriterion::Threshold(t) => {
                if !t.is_finite() {
                    return Err(StatsError::InvalidFraction { value: t });
                }
                order.retain(|&i| scores[i] >= t);
                Ok(order)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCORES: [f64; 5] = [0.3, 0.1, 0.5, 0.5, 0.2];

    #[test]
    fn maximum_picks_single_worst() {
        // Tie between indices 2 and 3 → smaller index wins.
        assert_eq!(RankingCriterion::Maximum.select(&SCORES).unwrap(), vec![2]);
    }

    #[test]
    fn top_k_orders_descending() {
        assert_eq!(
            RankingCriterion::TopK(3).select(&SCORES).unwrap(),
            vec![2, 3, 0]
        );
        // k larger than the collection returns everything.
        assert_eq!(RankingCriterion::TopK(99).select(&SCORES).unwrap().len(), 5);
        assert!(RankingCriterion::TopK(0)
            .select(&SCORES)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn percentile_selects_upper_tail() {
        let sel = RankingCriterion::Percentile(80.0).select(&SCORES).unwrap();
        // 80th percentile of [0.1,0.2,0.3,0.5,0.5] = 0.5 → both 0.5 entries.
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn threshold_keeps_at_or_above() {
        assert_eq!(
            RankingCriterion::Threshold(0.3).select(&SCORES).unwrap(),
            vec![2, 3, 0]
        );
        assert!(RankingCriterion::Threshold(0.9)
            .select(&SCORES)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn invalid_inputs() {
        assert!(RankingCriterion::Maximum.select(&[]).is_err());
        assert!(RankingCriterion::Percentile(150.0).select(&SCORES).is_err());
        assert!(RankingCriterion::Threshold(f64::NAN)
            .select(&SCORES)
            .is_err());
    }
}
