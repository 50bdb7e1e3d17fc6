//! Comparing severity criteria.
//!
//! The paper's future work plans "to define and test new criteria for the
//! identification and localization of performance inefficiencies". This
//! module quantifies how much two criteria *agree* on the same scores —
//! if a cheap criterion selects (nearly) the same candidates as an
//! expensive one, the tool can default to the cheap one.

use limba_stats::rank::RankingCriterion;

use crate::AnalysisError;

/// Agreement between two criteria on one score set.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    /// Jaccard similarity of the two selections (`|A ∩ B| / |A ∪ B|`);
    /// `1.0` when both select exactly the same items, and by convention
    /// also when both select nothing.
    pub jaccard: f64,
    /// Whether the most severe item (if any) coincides.
    pub same_top: bool,
    /// Sizes of the two selections.
    pub sizes: (usize, usize),
}

/// Computes the agreement of two criteria on `scores`.
///
/// # Errors
///
/// Propagates selection errors (empty scores, invalid parameters).
pub fn criterion_agreement(
    scores: &[f64],
    a: RankingCriterion,
    b: RankingCriterion,
) -> Result<Agreement, AnalysisError> {
    let sa = a.select(scores)?;
    let sb = b.select(scores)?;
    let inter = sa.iter().filter(|i| sb.contains(i)).count();
    let union = sa.len() + sb.len() - inter;
    let jaccard = if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    };
    Ok(Agreement {
        jaccard,
        same_top: sa.first() == sb.first(),
        sizes: (sa.len(), sb.len()),
    })
}

/// Pairwise agreement of a set of criteria on one score set.
#[derive(Debug, Clone, PartialEq)]
pub struct CriteriaStudy {
    /// The labels of the compared criteria, in matrix order.
    pub labels: Vec<String>,
    /// `matrix[i][j]` = Jaccard agreement of criteria `i` and `j`.
    pub matrix: Vec<Vec<f64>>,
}

impl CriteriaStudy {
    /// The pair of distinct criteria with the lowest agreement, if any.
    pub fn most_divergent(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..self.matrix.len() {
            for j in i + 1..self.matrix.len() {
                let v = self.matrix[i][j];
                if best.map(|b| v < b.2).unwrap_or(true) {
                    best = Some((i, j, v));
                }
            }
        }
        best
    }
}

/// Runs the pairwise agreement study of `criteria` (given with display
/// labels) over `scores`.
///
/// # Errors
///
/// Propagates selection errors.
pub fn criteria_study(
    scores: &[f64],
    criteria: &[(String, RankingCriterion)],
) -> Result<CriteriaStudy, AnalysisError> {
    let n = criteria.len();
    let mut matrix = vec![vec![1.0; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let a = criterion_agreement(scores, criteria[i].1, criteria[j].1)?;
            matrix[i][j] = a.jaccard;
            matrix[j][i] = a.jaccard;
        }
    }
    Ok(CriteriaStudy {
        labels: criteria.iter().map(|(l, _)| l.clone()).collect(),
        matrix,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    const SCORES: [f64; 6] = [0.9, 0.1, 0.8, 0.2, 0.7, 0.05];

    #[test]
    fn identical_criteria_agree_fully() {
        let a = criterion_agreement(
            &SCORES,
            RankingCriterion::TopK(3),
            RankingCriterion::TopK(3),
        )
        .unwrap();
        assert_eq!(a.jaccard, 1.0);
        assert!(a.same_top);
        assert_eq!(a.sizes, (3, 3));
    }

    #[test]
    fn maximum_vs_topk_overlap() {
        let a = criterion_agreement(
            &SCORES,
            RankingCriterion::Maximum,
            RankingCriterion::TopK(3),
        )
        .unwrap();
        // Max selects {0}; top-3 {0, 2, 4}: Jaccard 1/3.
        assert!((a.jaccard - 1.0 / 3.0).abs() < 1e-12);
        assert!(a.same_top);
    }

    #[test]
    fn disjoint_selections_have_zero_jaccard() {
        let a = criterion_agreement(
            &SCORES,
            RankingCriterion::Maximum,
            RankingCriterion::Threshold(10.0), // selects nothing
        )
        .unwrap();
        assert_eq!(a.jaccard, 0.0);
        assert!(!a.same_top);
    }

    #[test]
    fn both_empty_counts_as_full_agreement() {
        let a = criterion_agreement(
            &SCORES,
            RankingCriterion::Threshold(5.0),
            RankingCriterion::Threshold(9.0),
        )
        .unwrap();
        assert_eq!(a.jaccard, 1.0);
        assert_eq!(a.sizes, (0, 0));
    }

    #[test]
    fn study_matrix_is_symmetric_with_unit_diagonal() {
        let criteria = vec![
            ("max".to_string(), RankingCriterion::Maximum),
            ("top3".to_string(), RankingCriterion::TopK(3)),
            ("p50".to_string(), RankingCriterion::Percentile(50.0)),
        ];
        let study = criteria_study(&SCORES, &criteria).unwrap();
        for i in 0..3 {
            assert_eq!(study.matrix[i][i], 1.0);
            for j in 0..3 {
                assert_eq!(study.matrix[i][j], study.matrix[j][i]);
            }
        }
        let (_, _, v) = study.most_divergent().unwrap();
        assert!(v <= 1.0);
    }

    #[test]
    fn empty_scores_propagate_errors() {
        assert!(
            criterion_agreement(&[], RankingCriterion::Maximum, RankingCriterion::Maximum).is_err()
        );
    }
}
