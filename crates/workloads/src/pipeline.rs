//! Staged dataflow pipeline.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Nominal work per stage and item, in seconds.
const STAGE_WORK: f64 = 0.01;

/// Payload passed downstream per item, in bytes.
const ITEM_BYTES: u64 = 16 << 10;

/// Configuration of the pipeline workload.
///
/// Every rank is one pipeline stage; `items` work items stream through.
/// Stage 0 produces, interior stages transform, the last stage consumes.
/// Per-stage costs are scaled by the [`Imbalance`] injector, so a heavy
/// stage becomes the pipeline bottleneck — the classic imbalance pattern
/// where *every* stage's time is dominated by waiting for the slowest.
///
/// # Example
///
/// ```
/// use limba_workloads::pipeline::PipelineConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = PipelineConfig::new(4).with_items(10).build_program()?;
/// assert_eq!(program.ranks(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    stages: usize,
    items: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl PipelineConfig {
    /// Creates a pipeline of `stages` stages with defaults (8 items,
    /// 10 ms per stage, 16 KiB items).
    pub fn new(stages: usize) -> Self {
        PipelineConfig {
            stages,
            items: 8,
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the number of streamed items.
    pub fn with_items(mut self, items: usize) -> Self {
        self.items = items;
        self
    }

    /// Sets the per-stage cost injector.
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
    /// Returns an error when the pipeline has fewer than two stages.
    pub fn build_program(&self) -> Result<Program, SimError> {
        if self.stages < 2 {
            return Err(SimError::InvalidConfig {
                detail: "pipeline needs at least two stages".into(),
            });
        }
        let w = self.imbalance.weights(self.stages, self.seed);
        let mut pb = ProgramBuilder::new(self.stages);
        let stage = pb.add_region("stage");
        let last = self.stages - 1;
        pb.spmd(|rank, mut ops| {
            ops.enter(stage);
            for _ in 0..self.items {
                if rank > 0 {
                    ops.recv(rank - 1);
                }
                ops.compute(STAGE_WORK * w[rank]);
                if rank < last {
                    ops.send(rank + 1, ITEM_BYTES);
                }
            }
            ops.leave(stage);
        });
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_model::{ActivityKind, ProcessorId, RegionId};
    use limba_mpisim::{MachineConfig, Simulator};

    use super::*;

    fn simulate(cfg: &PipelineConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn items_flow_through_all_stages() {
        let out = simulate(&PipelineConfig::new(4).with_items(5));
        // 5 items × 3 hops.
        assert_eq!(out.stats.messages, 15);
    }

    #[test]
    fn bottleneck_stage_slows_everyone() {
        let balanced = simulate(&PipelineConfig::new(4).with_items(16));
        let skewed = simulate(&PipelineConfig::new(4).with_items(16).with_imbalance(
            Imbalance::Hotspot {
                rank: 1,
                factor: 4.0,
            },
        ));
        assert!(skewed.stats.makespan > balanced.stats.makespan * 1.3);
        // Downstream stages spend time blocked in point-to-point waits.
        let m = skewed.reduce().unwrap().measurements;
        let stage = RegionId::new(0);
        let wait2 = m.time(stage, ActivityKind::PointToPoint, ProcessorId::new(2));
        let comp2 = m.time(stage, ActivityKind::Computation, ProcessorId::new(2));
        assert!(wait2 > comp2, "stage after bottleneck should mostly wait");
    }

    #[test]
    fn single_stage_rejected() {
        assert!(PipelineConfig::new(1).build_program().is_err());
    }

    #[test]
    fn zero_items_is_a_valid_noop() {
        let out = simulate(&PipelineConfig::new(3).with_items(0));
        assert_eq!(out.stats.messages, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = PipelineConfig::new(5)
            .with_items(7)
            .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 });
        assert_eq!(simulate(&cfg).trace, simulate(&cfg).trace);
    }
}
