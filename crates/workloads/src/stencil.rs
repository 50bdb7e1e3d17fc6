//! 2-D Jacobi stencil solver with halo exchanges.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::exchange::line_exchange;
use crate::Imbalance;

/// Nominal per-rank work per iteration, in seconds.
const CELL_WORK: f64 = 0.05;

/// Halo payload per exchange, in bytes.
const HALO_BYTES: u64 = 32 << 10;

/// Iterations between residual allreduces.
const RESIDUAL_EVERY: usize = 5;

/// Configuration of the 2-D stencil workload on a `px × py` rank grid.
///
/// Per iteration every rank exchanges halos with its grid neighbors
/// (row-wise then column-wise, phased and deadlock-free), computes its
/// subdomain, and every fifth iteration joins an allreduce on
/// the residual.
///
/// # Example
///
/// ```
/// use limba_workloads::stencil::StencilConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = StencilConfig::new(4, 2).with_iterations(5).build_program()?;
/// assert_eq!(program.ranks(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StencilConfig {
    px: usize,
    py: usize,
    iterations: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl StencilConfig {
    /// Creates a `px × py` stencil with defaults (10 iterations, 50 ms of
    /// work per rank-iteration, 32 KiB halos, residual every 5 iterations).
    pub fn new(px: usize, py: usize) -> Self {
        StencilConfig {
            px,
            py,
            iterations: 10,
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Total ranks `px × py`.
    pub(crate) fn ranks(&self) -> usize {
        self.px * self.py
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
    /// Returns an invalid-config style error via program validation when
    /// the grid is degenerate (zero ranks).
    pub fn build_program(&self) -> Result<Program, SimError> {
        let n = self.ranks();
        if n == 0 {
            return Err(SimError::InvalidConfig {
                detail: "stencil grid must have at least one rank".into(),
            });
        }
        let w = self.imbalance.weights(n, self.seed);
        let mut pb = ProgramBuilder::new(n);
        let exchange = pb.add_region("halo exchange");
        let compute = pb.add_region("stencil update");
        let residual = pb.add_region("residual");
        let (px, py) = (self.px, self.py);
        for iter in 0..self.iterations {
            pb.spmd(|rank, mut ops| {
                let (x, y) = (rank % px, rank / px);
                ops.enter(exchange);
                // Row-wise exchange: the rank's row is a line of px items.
                line_exchange(&mut ops, x, px, |p| y * px + p, HALO_BYTES);
                // Column-wise exchange.
                line_exchange(&mut ops, y, py, |p| p * px + x, HALO_BYTES);
                ops.leave(exchange);
                ops.enter(compute)
                    .compute(CELL_WORK * w[rank])
                    .leave(compute);
                if (iter + 1) % RESIDUAL_EVERY == 0 {
                    ops.enter(residual).allreduce(8).leave(residual);
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

    fn simulate(cfg: &StencilConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn runs_on_various_grids_without_deadlock() {
        for (px, py) in [(1, 1), (2, 1), (3, 2), (2, 3), (4, 4), (5, 3)] {
            let out = simulate(&StencilConfig::new(px, py).with_iterations(2));
            assert!(out.stats.makespan > 0.0);
        }
    }

    #[test]
    fn corner_ranks_send_fewer_messages_than_interior() {
        let cfg = StencilConfig::new(3, 3).with_iterations(1);
        let out = simulate(&cfg);
        let red = out.reduce().unwrap();
        use limba_model::CountKind;
        let r = RegionId::new(0);
        let corner = red
            .counts
            .count(r, CountKind::MessagesSent, ProcessorId::new(0));
        let center = red
            .counts
            .count(r, CountKind::MessagesSent, ProcessorId::new(4));
        assert_eq!(corner, 2.0);
        assert_eq!(center, 4.0);
    }

    #[test]
    fn residual_region_appears_every_five_iterations() {
        let out = simulate(&StencilConfig::new(2, 2).with_iterations(10));
        let m = out.reduce().unwrap().measurements;
        let res = RegionId::new(2);
        assert!(m.performs(res, ActivityKind::Collective));
        // 2 allreduces of 8 bytes each; all ranks spend equal nonzero time.
        let t = m.region_activity_time(res, ActivityKind::Collective);
        assert!(t > 0.0);
    }

    #[test]
    fn hotspot_rank_computes_longest() {
        let cfg = StencilConfig::new(2, 2).with_imbalance(Imbalance::Hotspot {
            rank: 3,
            factor: 4.0,
        });
        let out = simulate(&cfg);
        let m = out.reduce().unwrap().measurements;
        let comp = RegionId::new(1);
        let hot = m.time(comp, ActivityKind::Computation, ProcessorId::new(3));
        let cold = m.time(comp, ActivityKind::Computation, ProcessorId::new(0));
        assert!(hot > 3.0 * cold);
    }

    #[test]
    fn zero_rank_grid_rejected() {
        assert!(StencilConfig::new(0, 4).build_program().is_err());
    }
}
