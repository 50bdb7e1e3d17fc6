//! Irregular particle-style workload with alltoall migration.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Nominal per-rank work per step, in seconds.
const STEP_WORK: f64 = 0.03;

/// Per-destination payload of each migration, in bytes.
const MIGRATION_BYTES: u64 = 2 << 10;

/// Configuration of the irregular (particle) workload.
///
/// Every step each rank advances its particle population (compute time
/// proportional to its share), migrates particles with an alltoall, and
/// synchronizes at a barrier. The population split across ranks comes
/// from the [`Imbalance`] injector, modelling clustered particles that a
/// uniform spatial decomposition distributes badly.
///
/// # Example
///
/// ```
/// use limba_workloads::{irregular::IrregularConfig, Imbalance};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = IrregularConfig::new(8)
///     .with_steps(3)
///     .with_imbalance(Imbalance::BlockSkew { heavy: 2, factor: 3.0 })
///     .build_program()?;
/// assert_eq!(program.ranks(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IrregularConfig {
    ranks: usize,
    steps: usize,
    imbalance: Imbalance,
    drift: Option<(Imbalance, f64)>,
    seed: u64,
}

impl IrregularConfig {
    /// Creates the workload for `ranks` ranks with defaults (4 steps,
    /// 30 ms nominal step work, 2 KiB per-pair migration payload).
    pub fn new(ranks: usize) -> Self {
        IrregularConfig {
            ranks,
            steps: 4,
            imbalance: Imbalance::default(),
            drift: None,
            seed: 0,
        }
    }

    /// Sets the number of simulation steps.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self
    }

    /// Sets the population injector.
    pub fn with_imbalance(mut self, imbalance: Imbalance) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the seed used by stochastic injectors.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes the population distribution *drift* toward `target` over the
    /// run: at step `s` the per-rank weights are the blend
    /// `(1 − a)·initial + a·target` with `a = min(1, rate·s)` — particles
    /// progressively clustering into one subdomain. Pair with
    /// `limba_trace::reduce_windows`-style evolution analysis to watch
    /// the imbalance grow.
    pub fn with_drift(mut self, target: Imbalance, rate: f64) -> Self {
        self.drift = Some((target, rate.max(0.0)));
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
                detail: "irregular workload needs at least one rank".into(),
            });
        }
        let base = self.imbalance.weights(self.ranks, self.seed);
        let target = self
            .drift
            .as_ref()
            .map(|(t, _)| t.weights(self.ranks, self.seed));
        let mut pb = ProgramBuilder::new(self.ranks);
        let advance = pb.add_region("advance particles");
        let migrate = pb.add_region("migrate");
        for step in 0..self.steps {
            let w: Vec<f64> = match (&target, self.drift.as_ref()) {
                (Some(target), Some((_, rate))) => {
                    let a = (rate * step as f64).min(1.0);
                    base.iter()
                        .zip(target)
                        .map(|(&b, &t)| (1.0 - a) * b + a * t)
                        .collect()
                }
                _ => base.clone(),
            };
            pb.spmd(|rank, mut ops| {
                ops.enter(advance)
                    .compute(STEP_WORK * w[rank])
                    .leave(advance);
                ops.enter(migrate)
                    .alltoall(MIGRATION_BYTES)
                    .barrier()
                    .leave(migrate);
            });
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_model::{ActivityKind, ProcessorId, RegionId};
    use limba_mpisim::{MachineConfig, Simulator};
    use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};

    use super::*;

    fn simulate(cfg: &IrregularConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn balanced_population_gives_near_zero_dispersion() {
        let out = simulate(&IrregularConfig::new(8));
        let m = out.reduce().unwrap().measurements;
        let s = m
            .processor_slice(RegionId::new(0), ActivityKind::Computation)
            .unwrap();
        let id = EuclideanFromMean.index(s).unwrap();
        assert!(id < 1e-9, "balanced run has dispersion {id}");
    }

    #[test]
    fn skewed_population_raises_dispersion_and_sync_wait() {
        let out = simulate(
            &IrregularConfig::new(8).with_imbalance(Imbalance::BlockSkew {
                heavy: 2,
                factor: 4.0,
            }),
        );
        let m = out.reduce().unwrap().measurements;
        let comp = m
            .processor_slice(RegionId::new(0), ActivityKind::Computation)
            .unwrap();
        let id = EuclideanFromMean.index(comp).unwrap();
        assert!(id > 0.05, "skewed run has dispersion only {id}");
        // Light ranks wait inside the alltoall (the first synchronizing
        // operation after the skewed compute); heavy ranks barely do.
        let heavy_wait = m.time(
            RegionId::new(1),
            ActivityKind::Collective,
            ProcessorId::new(0),
        );
        let light_wait = m.time(
            RegionId::new(1),
            ActivityKind::Collective,
            ProcessorId::new(7),
        );
        assert!(light_wait > heavy_wait, "{light_wait} vs {heavy_wait}");
    }

    #[test]
    fn alltoall_time_is_attributed_to_collective() {
        let out = simulate(&IrregularConfig::new(4));
        let m = out.reduce().unwrap().measurements;
        assert!(m.performs(RegionId::new(1), ActivityKind::Collective));
        assert!(m.performs(RegionId::new(1), ActivityKind::Synchronization));
    }

    #[test]
    fn drift_grows_imbalance_over_steps() {
        use limba_stats::dispersion::{DispersionIndex, EuclideanFromMean};
        let cfg = IrregularConfig::new(8).with_steps(6).with_drift(
            Imbalance::Hotspot {
                rank: 3,
                factor: 6.0,
            },
            0.2,
        );
        let out = simulate(&cfg);
        // Window the trace per step and watch the computation dispersion.
        let windows = limba_trace::reduce_windows(&out.trace, 6).unwrap();
        let ids: Vec<f64> = windows
            .iter()
            .filter_map(|w| {
                w.measurements
                    .processor_slice(RegionId::new(0), ActivityKind::Computation)
                    .and_then(|s| EuclideanFromMean.index(s).ok())
            })
            .collect();
        assert!(ids.len() >= 4);
        assert!(
            ids.last().unwrap() > &(ids[0] + 0.05),
            "imbalance did not grow: {ids:?}"
        );
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(IrregularConfig::new(0).build_program().is_err());
    }

    #[test]
    fn single_rank_runs() {
        let out = simulate(&IrregularConfig::new(1).with_steps(2));
        assert!(out.stats.makespan > 0.0);
    }
}
