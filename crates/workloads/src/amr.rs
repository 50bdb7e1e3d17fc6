//! AMR-style workload with *nested* code regions.
//!
//! Adaptive-mesh codes nest naturally: each time step contains a solve
//! phase (itself split into flux computation and state update) and an
//! I/O/bookkeeping phase. The refinement concentrates cells — and hence
//! work — on the ranks owning the refined patches, so the imbalance
//! hides *two levels down*, in the flux kernel. The hierarchical
//! drill-down of `limba_analysis::hierarchy` is built to find exactly
//! that.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Configuration of the nested AMR-style workload.
///
/// # Example
///
/// ```
/// use limba_workloads::{amr::AmrConfig, Imbalance};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = AmrConfig::new(8)
///     .with_steps(2)
///     .with_refinement(Imbalance::Hotspot { rank: 2, factor: 4.0 })
///     .build_program()?;
/// assert_eq!(program.ranks(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AmrConfig {
    ranks: usize,
    steps: usize,
    flux_work: f64,
    update_work: f64,
    io_work: f64,
    halo_bytes: u64,
    refinement: Imbalance,
    seed: u64,
}

impl AmrConfig {
    /// Creates the workload with defaults (2 steps, 60 ms flux / 30 ms
    /// update / 10 ms io per step, 16 KiB halos, no refinement skew).
    pub fn new(ranks: usize) -> Self {
        AmrConfig {
            ranks,
            steps: 2,
            flux_work: 0.06,
            update_work: 0.03,
            io_work: 0.01,
            halo_bytes: 16 << 10,
            refinement: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the number of time steps.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self
    }

    /// Sets the refinement-driven work distribution of the *flux* kernel
    /// (the update and I/O remain balanced — the point of the scenario).
    pub fn with_refinement(mut self, refinement: Imbalance) -> Self {
        self.refinement = refinement;
        self
    }

    /// Sets the seed used by stochastic injectors.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the op program with nested region markers:
    /// `time step → { solve → { flux, update }, io }`.
    ///
    /// # Errors
    ///
    /// Returns an error when the workload has no ranks.
    pub fn build_program(&self) -> Result<Program, SimError> {
        if self.ranks == 0 {
            return Err(SimError::InvalidConfig {
                detail: "amr workload needs at least one rank".into(),
            });
        }
        let n = self.ranks;
        let w = self.refinement.weights(n, self.seed);
        let mut pb = ProgramBuilder::new(n);
        let step = pb.add_region("time step");
        let solve = pb.add_region("solve");
        let flux = pb.add_region("flux");
        let update = pb.add_region("update");
        let io = pb.add_region("io");
        for _ in 0..self.steps {
            pb.spmd(|rank, mut ops| {
                ops.enter(step);
                ops.enter(solve);
                // Flux kernel: refinement-skewed work + halo exchange.
                ops.enter(flux).compute(self.flux_work * w[rank]);
                crate::exchange::chain_exchange(&mut ops, rank, n, self.halo_bytes);
                ops.leave(flux);
                // Update kernel: balanced.
                ops.enter(update).compute(self.update_work).leave(update);
                ops.leave(solve);
                // I/O phase: balanced, with a closing barrier.
                ops.enter(io).compute(self.io_work).barrier().leave(io);
                ops.leave(step);
            });
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_analysis::hierarchy::{drilldown, RegionTree};
    use limba_mpisim::{MachineConfig, Simulator};
    use limba_stats::dispersion::DispersionKind;
    use limba_trace::region_parents;

    use super::*;

    fn simulate(cfg: &AmrConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn trace_exposes_the_nested_structure() {
        let out = simulate(&AmrConfig::new(4));
        let parents = region_parents(&out.trace).unwrap();
        // step=0, solve=1, flux=2, update=3, io=4.
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(1), Some(0)]);
    }

    #[test]
    fn drilldown_localizes_the_refined_flux_kernel() {
        let out = simulate(&AmrConfig::new(8).with_refinement(Imbalance::Hotspot {
            rank: 5,
            factor: 5.0,
        }));
        let reduced = out.reduce().unwrap();
        let tree = RegionTree::from_parents(region_parents(&out.trace).unwrap()).unwrap();
        let dd = drilldown(&reduced.measurements, &tree, DispersionKind::Euclidean, 0.5).unwrap();
        let names: Vec<&str> = dd.path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["time step", "solve", "flux"], "path: {names:?}");
    }

    #[test]
    fn balanced_refinement_runs_cleanly() {
        let out = simulate(&AmrConfig::new(4).with_steps(3));
        assert!(out.stats.makespan > 0.0);
        out.trace.validate().unwrap();
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(AmrConfig::new(0).build_program().is_err());
    }
}
