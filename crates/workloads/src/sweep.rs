//! Wavefront sweep workload (transport-sweep style).

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Nominal per-rank work per sweep direction, in seconds.
const CELL_WORK: f64 = 0.02;

/// Boundary payload passed to the next rank, in bytes.
const BOUNDARY_BYTES: u64 = 8 << 10;

/// Configuration of the wavefront sweep.
///
/// Each sweep propagates a dependency front along the rank chain: rank
/// `p` receives the upstream boundary from `p − 1`, computes its cells,
/// and forwards to `p + 1`; the reverse sweep then runs the other way.
/// Ranks near the ends idle while the front is elsewhere, so even a
/// perfectly balanced decomposition shows *structural* point-to-point
/// waiting — a different imbalance mechanism than uneven work.
///
/// # Example
///
/// ```
/// use limba_workloads::sweep::SweepConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = SweepConfig::new(6).with_sweeps(2).build_program()?;
/// assert_eq!(program.ranks(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    ranks: usize,
    sweeps: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl SweepConfig {
    /// Creates the workload with defaults (2 forward/backward sweep
    /// pairs, 20 ms per rank per sweep, 8 KiB boundary payloads).
    pub fn new(ranks: usize) -> Self {
        SweepConfig {
            ranks,
            sweeps: 2,
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the number of forward/backward sweep pairs.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        self.sweeps = sweeps.max(1);
        self
    }

    /// Sets the work-distribution injector.
    pub fn with_imbalance(mut self, imbalance: Imbalance) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the seed used by stochastic injectors.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the op program.
    ///
    /// # Errors
    ///
    /// Returns an error when the sweep has fewer than two ranks.
    pub fn build_program(&self) -> Result<Program, SimError> {
        if self.ranks < 2 {
            return Err(SimError::InvalidConfig {
                detail: "sweep needs at least two ranks".into(),
            });
        }
        let n = self.ranks;
        let w = self.imbalance.weights(n, self.seed);
        let mut pb = ProgramBuilder::new(n);
        let east = pb.add_region("sweep east");
        let west = pb.add_region("sweep west");
        for _ in 0..self.sweeps {
            pb.spmd(|rank, mut ops| {
                // Forward (east) sweep: 0 → n−1.
                ops.enter(east);
                if rank > 0 {
                    ops.recv(rank - 1);
                }
                ops.compute(CELL_WORK * w[rank]);
                if rank + 1 < n {
                    ops.send(rank + 1, BOUNDARY_BYTES);
                }
                ops.leave(east);
                // Backward (west) sweep: n−1 → 0.
                ops.enter(west);
                if rank + 1 < n {
                    ops.recv(rank + 1);
                }
                ops.compute(CELL_WORK * w[rank]);
                if rank > 0 {
                    ops.send(rank - 1, BOUNDARY_BYTES);
                }
                ops.leave(west);
            });
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_model::{ActivityKind, ProcessorId, RegionId};
    use limba_mpisim::{MachineConfig, Simulator};

    use super::*;

    fn simulate(cfg: &SweepConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn downstream_ranks_wait_for_the_front() {
        let out = simulate(&SweepConfig::new(6).with_sweeps(1));
        let m = out.reduce().unwrap().measurements;
        let east = RegionId::new(0);
        // In the east sweep the last rank waits the longest.
        let w1 = m.time(east, ActivityKind::PointToPoint, ProcessorId::new(1));
        let w5 = m.time(east, ActivityKind::PointToPoint, ProcessorId::new(5));
        assert!(w5 > w1, "downstream wait {w5} should exceed upstream {w1}");
    }

    #[test]
    fn makespan_scales_with_chain_length_not_just_work() {
        let short = simulate(&SweepConfig::new(2).with_sweeps(1));
        let long = simulate(&SweepConfig::new(8).with_sweeps(1));
        // Total work per rank is identical; the longer chain's critical
        // path is longer because the front must traverse it.
        assert!(long.stats.makespan > 3.0 * short.stats.makespan);
    }

    #[test]
    fn structural_imbalance_shows_without_any_injected_skew() {
        use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};
        let out = simulate(&SweepConfig::new(8).with_sweeps(1));
        let m = out.reduce().unwrap().measurements;
        let p2p = m
            .processor_slice(RegionId::new(0), ActivityKind::PointToPoint)
            .unwrap();
        // Everyone computes the same, yet p2p waits are highly dispersed.
        let id = EuclideanFromMean.index(p2p).unwrap();
        assert!(id > 0.1, "structural p2p dispersion {id} too small");
    }

    #[test]
    fn single_rank_rejected() {
        assert!(SweepConfig::new(1).build_program().is_err());
    }
}
