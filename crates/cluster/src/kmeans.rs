//! Lloyd-style k-means with restarts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::distance::{squared_euclidean, validate_points};
use crate::{ClusterError, InitMethod};

/// Convergence tolerance on centroid movement: a restart stops once no
/// centroid moves farther than this.
const TOLERANCE: f64 = 1e-9;

/// Configuration of a k-means run.
///
/// # Example
///
/// ```
/// use limba_cluster::{InitMethod, KMeansConfig};
/// let cfg = KMeansConfig::new(3)
///     .with_seed(42)
///     .with_restarts(8)
///     .with_max_iterations(200)
///     .with_init(InitMethod::Forgy);
/// assert_eq!(cfg.k(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    k: usize,
    max_iterations: usize,
    restarts: usize,
    seed: u64,
    init: InitMethod,
}

impl KMeansConfig {
    /// Creates a configuration for `k` clusters with library defaults
    /// (100 iterations, 4 restarts, k-means++ init, seed 0).
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iterations: 100,
            restarts: 4,
            seed: 0,
            init: InitMethod::default(),
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sets the RNG seed, making the run deterministic.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration cap per restart.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n.max(1);
        self
    }

    /// Sets the number of independent restarts; the best run (lowest WCSS)
    /// wins.
    pub fn with_restarts(mut self, n: usize) -> Self {
        self.restarts = n.max(1);
        self
    }

    /// Sets the initialization method.
    pub fn with_init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index of each input point, in input order.
    pub assignments: Vec<usize>,
    /// Final centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Within-cluster sum of squared distances of the winning restart.
    pub wcss: f64,
    /// Iterations used by the winning restart.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

/// The k-means algorithm (Lloyd iterations, several restarts).
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    /// Clusters `points` into `k` groups.
    ///
    /// # Errors
    ///
    /// Returns an error when `points` is empty, inconsistent, non-finite,
    /// or `k` is zero or larger than the number of points.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<KMeansResult, ClusterError> {
        let dim = validate_points(points)?;
        let k = self.config.k;
        if k == 0 || k > points.len() {
            return Err(ClusterError::InvalidK {
                k,
                points: points.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut best: Option<KMeansResult> = None;
        for _ in 0..self.config.restarts {
            let run = self.run_once(points, dim, &mut rng);
            if best.as_ref().map(|b| run.wcss < b.wcss).unwrap_or(true) {
                best = Some(run);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    fn run_once(&self, points: &[Vec<f64>], dim: usize, rng: &mut StdRng) -> KMeansResult {
        let k = self.config.k;
        let mut centroids = self.config.init.choose(points, k, rng);
        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        for iter in 0..self.config.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            for (a, p) in assignments.iter_mut().zip(points) {
                *a = nearest(p, &centroids);
            }
            // Update step.
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (&a, p) in assignments.iter().zip(points) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            let mut movement: f64 = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its centroid, a standard empty-cluster repair.
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|a, b| {
                            squared_euclidean(a.1, &centroids[assignments[a.0]])
                                .total_cmp(&squared_euclidean(b.1, &centroids[assignments[b.0]]))
                        })
                        .map(|(i, _)| i)
                        .expect("points nonempty");
                    movement += squared_euclidean(&centroids[c], &points[far]);
                    centroids[c] = points[far].clone();
                    continue;
                }
                let new: Vec<f64> = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
                movement += squared_euclidean(&centroids[c], &new);
                centroids[c] = new;
            }
            if movement <= TOLERANCE {
                break;
            }
        }
        // Final assignment against the converged centroids.
        for (a, p) in assignments.iter_mut().zip(points) {
            *a = nearest(p, &centroids);
        }
        let wcss = assignments
            .iter()
            .zip(points)
            .map(|(&a, p)| squared_euclidean(p, &centroids[a]))
            .sum();
        KMeansResult {
            assignments,
            centroids,
            wcss,
            iterations,
        }
    }
}

fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_euclidean(point, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let r = KMeans::new(KMeansConfig::new(2).with_seed(11))
            .fit(&pts)
            .unwrap();
        // All even indices (first blob) share a label distinct from odds.
        let a = r.assignments[0];
        let b = r.assignments[1];
        assert_ne!(a, b);
        for i in (0..20).step_by(2) {
            assert_eq!(r.assignments[i], a);
        }
        for i in (1..20).step_by(2) {
            assert_eq!(r.assignments[i], b);
        }
        assert!(r.wcss < 1.0);
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let pts = vec![vec![0.0], vec![5.0], vec![9.0]];
        let r = KMeans::new(KMeansConfig::new(3).with_seed(3))
            .fit(&pts)
            .unwrap();
        assert!(r.wcss < 1e-18);
        let mut labels = r.assignments.clone();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let r = KMeans::new(KMeansConfig::new(1).with_seed(0))
            .fit(&pts)
            .unwrap();
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-12);
        assert_eq!(r.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let km = KMeans::new(KMeansConfig::new(2));
        assert_eq!(km.fit(&[]), Err(ClusterError::EmptyData));
        assert!(matches!(
            km.fit(&[vec![1.0]]),
            Err(ClusterError::InvalidK { .. })
        ));
        assert!(matches!(
            KMeans::new(KMeansConfig::new(0)).fit(&[vec![1.0]]),
            Err(ClusterError::InvalidK { .. })
        ));
        assert!(matches!(
            km.fit(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ClusterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = two_blobs();
        let a = KMeans::new(KMeansConfig::new(2).with_seed(5))
            .fit(&pts)
            .unwrap();
        let b = KMeans::new(KMeansConfig::new(2).with_seed(5))
            .fit(&pts)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_do_not_break_clustering() {
        let pts = vec![vec![1.0]; 6];
        let r = KMeans::new(KMeansConfig::new(2).with_seed(1))
            .fit(&pts)
            .unwrap();
        assert_eq!(r.assignments.len(), 6);
        assert!(r.wcss < 1e-18);
    }
}
