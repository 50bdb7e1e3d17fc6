//! Machine configuration.

use std::collections::HashMap;

use crate::{CollectiveAlgorithm, CollectiveKind, SimError};

/// Per-message CPU overhead `o` in seconds, on every machine.
pub(crate) const OVERHEAD: f64 = 5e-6;

/// Parameters of the simulated message-passing machine.
///
/// The point-to-point network follows a LogP-flavoured model: sending a
/// message of `n` bytes costs the sender a fixed per-message overhead
/// (5 µs) plus `n / bandwidth` of CPU time; the message reaches the
/// receiver one `latency` later. Messages larger than `eager_threshold`
/// use a rendezvous protocol: the transfer only starts once *both* sides
/// have reached their call, and the sender blocks until then.
///
/// # Example
///
/// ```
/// use limba_mpisim::MachineConfig;
/// let cfg = MachineConfig::new(16)
///     .with_latency(40e-6)
///     .with_bandwidth(40e6)
///     .with_cpu_speed(3, 0.8); // rank 3 is a slow node
/// assert_eq!(cfg.processors(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    processors: usize,
    cpu_speeds: Vec<f64>,
    latency: f64,
    bandwidth: f64,
    eager_threshold: u64,
    /// Per-directed-link `(src, dst)` overrides of `(latency, bandwidth)`.
    link_overrides: HashMap<(usize, usize), (f64, f64)>,
    /// Per-collective algorithm overrides; absent kinds use
    /// [`CollectiveKind::algorithm`].
    collective_overrides: HashMap<CollectiveKind, CollectiveAlgorithm>,
}

impl MachineConfig {
    /// Creates a machine of `processors` identical ranks with defaults
    /// loosely modelled on a mid-90s MPP interconnect (overhead 5 µs,
    /// latency 40 µs, bandwidth 40 MB/s, eager threshold 8 KiB).
    pub fn new(processors: usize) -> Self {
        MachineConfig {
            processors,
            cpu_speeds: vec![1.0; processors],
            latency: 40e-6,
            bandwidth: 40e6,
            eager_threshold: 8 * 1024,
            link_overrides: HashMap::new(),
            collective_overrides: HashMap::new(),
        }
    }

    /// Number of processors (MPI ranks).
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Wire latency `L` in seconds.
    pub(crate) fn latency(&self) -> f64 {
        self.latency
    }

    /// Link bandwidth `B` in bytes per second.
    pub(crate) fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Eager/rendezvous protocol switch point in bytes.
    pub(crate) fn eager_threshold(&self) -> u64 {
        self.eager_threshold
    }

    /// Relative CPU speed of `rank` (1.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn cpu_speed(&self, rank: usize) -> f64 {
        self.cpu_speeds[rank]
    }

    /// Sets the wire latency in seconds.
    pub fn with_latency(mut self, seconds: f64) -> Self {
        self.latency = seconds;
        self
    }

    /// Sets the link bandwidth in bytes per second.
    pub fn with_bandwidth(mut self, bytes_per_second: f64) -> Self {
        self.bandwidth = bytes_per_second;
        self
    }

    /// Sets the eager threshold in bytes.
    pub fn with_eager_threshold(mut self, bytes: u64) -> Self {
        self.eager_threshold = bytes;
        self
    }

    /// Sets the relative CPU speed of one rank.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn with_cpu_speed(mut self, rank: usize, speed: f64) -> Self {
        self.cpu_speeds[rank] = speed;
        self
    }

    /// Sets all relative CPU speeds at once.
    ///
    /// # Panics
    ///
    /// Panics when `speeds.len()` differs from the processor count.
    pub fn with_cpu_speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(
            speeds.len(),
            self.processors,
            "one speed per processor required"
        );
        self.cpu_speeds = speeds;
        self
    }

    /// Overrides the latency and bandwidth of the directed link
    /// `src → dst` (e.g. a degraded cable or a cross-switch hop).
    /// Collectives keep using the machine-wide parameters; only
    /// point-to-point traffic sees link overrides.
    ///
    /// # Panics
    ///
    /// Panics when either endpoint is out of range.
    pub fn with_link(mut self, src: usize, dst: usize, latency: f64, bandwidth: f64) -> Self {
        assert!(
            src < self.processors && dst < self.processors,
            "link endpoint out of range"
        );
        self.link_overrides.insert((src, dst), (latency, bandwidth));
        self
    }

    /// Whether any per-link overrides are present. The simulator's hot
    /// path skips the override lookup entirely on uniform machines and
    /// caches a dense link table otherwise.
    pub(crate) fn has_link_overrides(&self) -> bool {
        !self.link_overrides.is_empty()
    }

    /// The directed link pairs carrying an override, sorted — the
    /// machine's explicit network topology. Sorting makes the order
    /// deterministic (the overrides live in a `HashMap`), which the
    /// diffusion balancing policy depends on for its neighbor lists.
    pub(crate) fn link_override_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self.link_overrides.keys().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Latency of the directed link `src → dst`.
    pub(crate) fn link_latency(&self, src: usize, dst: usize) -> f64 {
        self.link_overrides
            .get(&(src, dst))
            .map(|&(l, _)| l)
            .unwrap_or(self.latency)
    }

    /// Bandwidth of the directed link `src → dst`.
    pub(crate) fn link_bandwidth(&self, src: usize, dst: usize) -> f64 {
        self.link_overrides
            .get(&(src, dst))
            .map(|&(_, b)| b)
            .unwrap_or(self.bandwidth)
    }

    /// Overrides the algorithm one collective kind is costed with.
    /// Collectives without an override keep their kind's standard
    /// algorithm; both engines cost collectives
    /// through the same [`collective_cost`](crate::collective_cost), so
    /// an override changes both identically.
    pub fn with_collective_algorithm(
        mut self,
        kind: CollectiveKind,
        algorithm: CollectiveAlgorithm,
    ) -> Self {
        self.collective_overrides.insert(kind, algorithm);
        self
    }

    /// The algorithm `kind` is costed with on this machine: the
    /// override when one was set, the kind's default otherwise.
    pub fn collective_algorithm(&self, kind: CollectiveKind) -> CollectiveAlgorithm {
        self.collective_overrides
            .get(&kind)
            .copied()
            .unwrap_or_else(|| kind.algorithm())
    }

    /// Transfer time for `bytes` over the default link, `bytes / B`.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth
    }

    /// Transfer time for `bytes` over the directed link `src → dst`.
    pub(crate) fn link_transfer_time(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        bytes as f64 / self.link_bandwidth(src, dst)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the machine has no
    /// processors, any timing parameter is non-positive or non-finite, or
    /// any CPU speed is non-positive.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.processors == 0 {
            return Err(SimError::InvalidConfig {
                detail: "machine needs at least one processor".into(),
            });
        }
        for (name, v) in [("latency", self.latency), ("bandwidth", self.bandwidth)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig {
                    detail: format!("{name} must be finite and positive, got {v}"),
                });
            }
        }
        for (rank, &s) in self.cpu_speeds.iter().enumerate() {
            if !s.is_finite() || s <= 0.0 {
                return Err(SimError::InvalidConfig {
                    detail: format!("cpu speed of rank {rank} must be positive, got {s}"),
                });
            }
        }
        for (&(src, dst), &(l, bw)) in &self.link_overrides {
            if !l.is_finite() || l <= 0.0 || !bw.is_finite() || bw <= 0.0 {
                return Err(SimError::InvalidConfig {
                    detail: format!(
                        "link {src}->{dst} must have positive latency and bandwidth, got ({l}, {bw})"
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    /// A 16-processor machine, matching the paper's case study.
    fn default() -> Self {
        MachineConfig::new(16)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn default_matches_paper_size() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.processors(), 16);
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = MachineConfig::new(4)
            .with_latency(2e-6)
            .with_bandwidth(1e9)
            .with_eager_threshold(1024)
            .with_cpu_speed(2, 0.5);
        assert_eq!(cfg.latency(), 2e-6);
        assert_eq!(cfg.bandwidth(), 1e9);
        assert_eq!(cfg.eager_threshold(), 1024);
        assert_eq!(cfg.cpu_speed(2), 0.5);
        assert_eq!(cfg.cpu_speed(0), 1.0);
        assert_eq!(cfg.transfer_time(1_000_000_000), 1.0);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(MachineConfig::new(0).validate().is_err());
        assert!(MachineConfig::new(2).with_latency(0.0).validate().is_err());
        assert!(MachineConfig::new(2)
            .with_bandwidth(-1.0)
            .validate()
            .is_err());
        assert!(MachineConfig::new(2)
            .with_cpu_speed(0, 0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn with_cpu_speeds_replaces_all() {
        let cfg = MachineConfig::new(2).with_cpu_speeds(vec![1.0, 2.0]);
        assert_eq!(cfg.cpu_speed(1), 2.0);
    }

    #[test]
    #[should_panic(expected = "one speed per processor")]
    fn with_cpu_speeds_wrong_len_panics() {
        let _ = MachineConfig::new(2).with_cpu_speeds(vec![1.0]);
    }

    #[test]
    fn link_overrides_apply_per_direction() {
        let cfg = MachineConfig::new(4)
            .with_latency(1e-5)
            .with_bandwidth(1e8)
            .with_link(0, 1, 5e-5, 2e7);
        assert_eq!(cfg.link_latency(0, 1), 5e-5);
        assert_eq!(cfg.link_bandwidth(0, 1), 2e7);
        // The reverse direction keeps the defaults.
        assert_eq!(cfg.link_latency(1, 0), 1e-5);
        assert_eq!(cfg.link_bandwidth(1, 0), 1e8);
        assert_eq!(cfg.link_transfer_time(0, 1, 2_000_000), 0.1);
        assert_eq!(cfg.link_transfer_time(1, 0, 1_000_000), 0.01);
        cfg.validate().unwrap();
        assert!(MachineConfig::new(2)
            .with_link(0, 1, 0.0, 1e6)
            .validate()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn link_endpoint_out_of_range_panics() {
        let _ = MachineConfig::new(2).with_link(0, 5, 1e-5, 1e6);
    }

    #[test]
    fn collective_algorithm_overrides_apply_per_kind() {
        let cfg = MachineConfig::new(8)
            .with_collective_algorithm(CollectiveKind::Allreduce, CollectiveAlgorithm::Ring);
        assert_eq!(
            cfg.collective_algorithm(CollectiveKind::Allreduce),
            CollectiveAlgorithm::Ring
        );
        // Kinds without an override keep their defaults.
        assert_eq!(
            cfg.collective_algorithm(CollectiveKind::Reduce),
            CollectiveAlgorithm::BinomialTree
        );
        cfg.validate().unwrap();
    }
}
