//! Parallel FFT-style workload: compute-heavy butterfly stages separated
//! by alltoall transposes.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Nominal per-rank work per butterfly stage, in seconds.
const STAGE_WORK: f64 = 0.04;

/// Per-destination payload of each transpose, in bytes.
const TRANSPOSE_BYTES: u64 = 64 << 10;

/// Iterations between checksum allreduces.
const CHECKSUM_EVERY: usize = 2;

/// Configuration of the FFT workload.
///
/// Per iteration every rank computes its local butterflies, joins a
/// global alltoall transpose, computes the second half, transposes back,
/// and periodically allreduces a checksum. Because the transpose is a
/// global collective, *any* compute imbalance turns into alltoall waiting
/// time — the classic pathology of transpose-based codes.
///
/// # Example
///
/// ```
/// use limba_workloads::fft::FftConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = FftConfig::new(8).with_iterations(3).build_program()?;
/// assert_eq!(program.ranks(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftConfig {
    ranks: usize,
    iterations: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl FftConfig {
    /// Creates the workload with defaults (2 iterations, 40 ms per
    /// butterfly stage, 64 KiB per-pair transpose payload, checksum every
    /// 2 iterations).
    pub fn new(ranks: usize) -> Self {
        FftConfig {
            ranks,
            iterations: 2,
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations.max(1);
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
    /// Returns an error when the workload has no ranks.
    pub fn build_program(&self) -> Result<Program, SimError> {
        if self.ranks == 0 {
            return Err(SimError::InvalidConfig {
                detail: "fft workload needs at least one rank".into(),
            });
        }
        let w = self.imbalance.weights(self.ranks, self.seed);
        let mut pb = ProgramBuilder::new(self.ranks);
        let butterfly = pb.add_region("butterfly stages");
        let transpose = pb.add_region("transpose");
        let checksum = pb.add_region("checksum");
        for iter in 0..self.iterations {
            pb.spmd(|rank, mut ops| {
                ops.enter(butterfly)
                    .compute(STAGE_WORK * w[rank])
                    .leave(butterfly);
                ops.enter(transpose)
                    .alltoall(TRANSPOSE_BYTES)
                    .leave(transpose);
                ops.enter(butterfly)
                    .compute(STAGE_WORK * w[rank])
                    .leave(butterfly);
                ops.enter(transpose)
                    .alltoall(TRANSPOSE_BYTES)
                    .leave(transpose);
                if (iter + 1) % CHECKSUM_EVERY == 0 {
                    ops.enter(checksum).allreduce(16).leave(checksum);
                }
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

    fn simulate(cfg: &FftConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn transpose_region_is_pure_collective() {
        let out = simulate(&FftConfig::new(8));
        let m = out.reduce().unwrap().measurements;
        let t = RegionId::new(1);
        assert!(m.performs(t, ActivityKind::Collective));
        assert!(!m.performs(t, ActivityKind::PointToPoint));
    }

    #[test]
    fn compute_skew_surfaces_as_transpose_waiting() {
        let balanced = simulate(&FftConfig::new(8));
        let skewed = simulate(&FftConfig::new(8).with_imbalance(Imbalance::Hotspot {
            rank: 3,
            factor: 3.0,
        }));
        let mb = balanced.reduce().unwrap().measurements;
        let ms = skewed.reduce().unwrap().measurements;
        let t = RegionId::new(1);
        // The hotspot rank arrives last, so everyone else waits: a light
        // rank's collective time grows under skew.
        let light_balanced = mb.time(t, ActivityKind::Collective, ProcessorId::new(0));
        let light_skewed = ms.time(t, ActivityKind::Collective, ProcessorId::new(0));
        assert!(light_skewed > 2.0 * light_balanced);
    }

    #[test]
    fn checksum_cadence_respected() {
        let out = simulate(&FftConfig::new(4).with_iterations(4));
        let m = out.reduce().unwrap().measurements;
        assert!(m.performs(RegionId::new(2), ActivityKind::Collective));
        assert_eq!(out.stats.collectives, 4 * 2 + 2); // 2 transposes/iter + 2 checksums
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(FftConfig::new(0).build_program().is_err());
    }
}
