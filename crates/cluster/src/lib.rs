//! k-means clustering for code-region characterization.
//!
//! The paper summarizes the behaviour of code regions by clustering them in
//! the `K`-dimensional space of their per-activity wall-clock times: "Each
//! code region i is described by its wall clock times t_ij and is
//! represented in a K-dimensional space. Clustering partitions this space
//! into groups of code regions with homogeneous characteristics such that
//! the candidates for possible tuning are identified." The case study uses
//! the k-means algorithm of Hartigan's *Clustering Algorithms*.
//!
//! This crate implements Lloyd-style k-means with Forgy or k-means++
//! initialization, deterministic seeding, and the usual internal quality
//! measures (within-cluster sum of squares, silhouette, Calinski–Harabasz).
//!
//! # Example
//!
//! ```
//! use limba_cluster::{KMeans, KMeansConfig};
//!
//! // Two obvious groups on the line.
//! let points = vec![vec![0.0], vec![0.2], vec![10.0], vec![10.3]];
//! let result = KMeans::new(KMeansConfig::new(2).with_seed(7)).fit(&points).unwrap();
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_eq!(result.assignments[2], result.assignments[3]);
//! assert_ne!(result.assignments[0], result.assignments[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assess;
mod distance;
mod error;
mod init;
mod kmeans;

pub use assess::{calinski_harabasz, silhouette, within_cluster_sum_of_squares};
pub use distance::Standardizer;
pub use error::ClusterError;
pub use init::InitMethod;
pub use kmeans::{KMeans, KMeansConfig, KMeansResult};
