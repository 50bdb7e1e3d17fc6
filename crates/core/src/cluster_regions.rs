//! Clustering of code regions by their activity time vectors.
//!
//! "Each code region i is described by its wall clock times t_ij and is
//! represented in a K-dimensional space. Clustering partitions this space
//! into groups of code regions with homogeneous characteristics."

use limba_cluster::{KMeans, KMeansConfig, Standardizer};
use limba_model::{Measurements, RegionId};

use crate::AnalysisError;

/// How region feature vectors are scaled before clustering.
///
/// With raw `t_ij` features the heavy activities dominate the distances;
/// z-scoring gives every activity equal voice. The paper's reported
/// partition of its case study (loops {1, 2} vs. the rest) is the k-means
/// optimum under z-scored features, which is therefore the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureScaling {
    /// Cluster the raw `t_ij` vectors.
    Raw,
    /// Z-score each activity column first (default).
    #[default]
    ZScore,
}

/// Result of clustering the code regions.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionClustering {
    /// Number of clusters.
    pub k: usize,
    /// Cluster label of each region, in region order.
    pub assignments: Vec<usize>,
    /// Regions of each cluster, ordered by decreasing total cluster time
    /// (group 0 holds the heaviest regions).
    pub groups: Vec<Vec<RegionId>>,
    /// Within-cluster sum of squares of the fit.
    pub wcss: f64,
}

/// Clusters the regions of `measurements` into `k` groups by k-means on
/// their `t_ij` vectors, with a deterministic seed and the given feature
/// scaling.
///
/// # Errors
///
/// Propagates [`limba_cluster::ClusterError`] (e.g. `k` larger than the
/// number of regions).
pub fn cluster_regions(
    measurements: &Measurements,
    k: usize,
    seed: u64,
    scaling: FeatureScaling,
) -> Result<RegionClustering, AnalysisError> {
    let points: Vec<Vec<f64>> = measurements
        .region_ids()
        .map(|r| {
            measurements
                .activities()
                .iter()
                .map(|kind| measurements.region_activity_time(r, kind))
                .collect()
        })
        .collect();
    let points = match scaling {
        FeatureScaling::Raw => points,
        FeatureScaling::ZScore => Standardizer::fit(&points)?.transform(&points),
    };
    let result =
        KMeans::new(KMeansConfig::new(k).with_seed(seed).with_restarts(32)).fit(&points)?;

    // Order groups by decreasing total time so "group 0" is the heavy one.
    let mut groups: Vec<(f64, Vec<RegionId>)> = vec![(0.0, Vec::new()); result.k()];
    for (i, &label) in result.assignments.iter().enumerate() {
        let r = RegionId::new(i);
        groups[label].0 += measurements.region_time(r);
        groups[label].1.push(r);
    }
    let mut order: Vec<usize> = (0..result.k()).collect();
    order.sort_by(|&a, &b| groups[b].0.total_cmp(&groups[a].0));
    let relabel: Vec<usize> = {
        let mut relabel = vec![0; result.k()];
        for (new, &old) in order.iter().enumerate() {
            relabel[old] = new;
        }
        relabel
    };
    let assignments: Vec<usize> = result.assignments.iter().map(|&a| relabel[a]).collect();
    let groups: Vec<Vec<RegionId>> = order.into_iter().map(|old| groups[old].1.clone()).collect();

    Ok(RegionClustering {
        k: result.k(),
        assignments,
        groups,
        wcss: result.wcss,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_model::{ActivityKind, MeasurementsBuilder};

    /// Two heavy regions and three light ones.
    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(2);
        let weights = [10.0, 9.0, 1.0, 0.8, 0.5];
        for (i, w) in weights.iter().enumerate() {
            let r = b.add_region(format!("loop {}", i + 1));
            for p in 0..2 {
                b.record(r, ActivityKind::Computation, p, *w).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn heavy_regions_form_their_own_group() {
        let m = sample();
        let c = cluster_regions(&m, 2, 0, FeatureScaling::Raw).unwrap();
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[2], c.assignments[3]);
        assert_ne!(c.assignments[0], c.assignments[2]);
        // Group 0 holds the heavy regions.
        assert_eq!(c.assignments[0], 0);
        assert_eq!(c.assignments[2], 1);
        assert_eq!(c.groups[0].len(), 2);
        assert_eq!(c.groups[1].len(), 3);
    }

    #[test]
    fn k_larger_than_regions_fails() {
        let m = sample();
        assert!(cluster_regions(&m, 10, 0, FeatureScaling::default()).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = sample();
        let a = cluster_regions(&m, 2, 1, FeatureScaling::ZScore).unwrap();
        let b = cluster_regions(&m, 2, 1, FeatureScaling::ZScore).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_cluster_contains_everything() {
        let m = sample();
        let c = cluster_regions(&m, 1, 0, FeatureScaling::ZScore).unwrap();
        assert_eq!(c.groups.len(), 1);
        assert_eq!(c.groups[0].len(), 5);
    }
}
