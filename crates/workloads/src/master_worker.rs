//! Master–worker task farm.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::Imbalance;

/// Nominal work per task, in seconds.
const TASK_WORK: f64 = 0.02;

/// Payload the master sends with each task, in bytes.
const TASK_BYTES: u64 = 4 << 10;

/// Payload a worker returns per task, in bytes.
const RESULT_BYTES: u64 = 1 << 10;

/// Configuration of the master–worker workload.
///
/// Rank 0 is the master: it scatters `tasks` task descriptors round-robin
/// over the workers, then gathers one result per task. Workers receive,
/// compute, and send results back. Task compute times are scaled by the
/// [`Imbalance`] injector *over workers*, modelling uneven task costs that
/// a static round-robin assignment cannot balance.
///
/// # Example
///
/// ```
/// use limba_workloads::master_worker::MasterWorkerConfig;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = MasterWorkerConfig::new(5).with_tasks(12).build_program()?;
/// assert_eq!(program.ranks(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MasterWorkerConfig {
    ranks: usize,
    tasks: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl MasterWorkerConfig {
    /// Creates a farm of `ranks` ranks (1 master + `ranks − 1` workers)
    /// with defaults (2 tasks per worker, 20 ms per task, 4 KiB task
    /// payloads, 1 KiB results).
    pub fn new(ranks: usize) -> Self {
        MasterWorkerConfig {
            ranks,
            tasks: 2 * ranks.saturating_sub(1),
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the total number of tasks.
    pub fn with_tasks(mut self, tasks: usize) -> Self {
        self.tasks = tasks;
        self
    }

    /// Sets the per-worker cost injector.
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
    /// Returns an error when the farm has fewer than two ranks (a master
    /// needs at least one worker).
    pub fn build_program(&self) -> Result<Program, SimError> {
        if self.ranks < 2 {
            return Err(SimError::InvalidConfig {
                detail: "master-worker needs at least two ranks".into(),
            });
        }
        let workers = self.ranks - 1;
        let w = self.imbalance.weights(workers, self.seed);
        let mut pb = ProgramBuilder::new(self.ranks);
        let scatter = pb.add_region("task scatter");
        let work = pb.add_region("worker compute");
        let gather = pb.add_region("result gather");

        // Master: scatter every task, then gather every result, in
        // round-robin worker order.
        {
            let mut master = pb.rank(0);
            master.enter(scatter);
            for t in 0..self.tasks {
                let worker = 1 + t % workers;
                master.send(worker, TASK_BYTES);
            }
            master.leave(scatter);
            master.enter(gather);
            for t in 0..self.tasks {
                let worker = 1 + t % workers;
                master.recv(worker);
            }
            master.leave(gather);
        }
        // Workers: receive, compute, reply per assigned task.
        for worker in 1..self.ranks {
            let my_tasks = (0..self.tasks)
                .filter(|t| 1 + t % workers == worker)
                .count();
            let mut ops = pb.rank(worker);
            ops.enter(work);
            for _ in 0..my_tasks {
                ops.recv(0)
                    .compute(TASK_WORK * w[worker - 1])
                    .send(0, RESULT_BYTES);
            }
            ops.leave(work);
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_model::{ActivityKind, CountKind, ProcessorId, RegionId};
    use limba_mpisim::{MachineConfig, Simulator};

    use super::*;

    fn simulate(cfg: &MasterWorkerConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn all_tasks_complete() {
        let cfg = MasterWorkerConfig::new(4).with_tasks(9);
        let out = simulate(&cfg);
        let red = out.reduce().unwrap();
        // Master receives one result per task.
        let gathered = red.counts.count(
            RegionId::new(2),
            CountKind::MessagesReceived,
            ProcessorId::new(0),
        );
        assert_eq!(gathered, 9.0);
    }

    #[test]
    fn master_does_no_task_computation() {
        let out = simulate(&MasterWorkerConfig::new(3));
        let m = out.reduce().unwrap().measurements;
        let work = RegionId::new(1);
        assert_eq!(
            m.time(work, ActivityKind::Computation, ProcessorId::new(0)),
            0.0
        );
        assert!(m.time(work, ActivityKind::Computation, ProcessorId::new(1)) > 0.0);
    }

    #[test]
    fn slow_worker_dominates_makespan() {
        let even = simulate(&MasterWorkerConfig::new(5).with_tasks(16));
        let skewed = simulate(&MasterWorkerConfig::new(5).with_tasks(16).with_imbalance(
            Imbalance::Hotspot {
                rank: 0,
                factor: 4.0,
            },
        ));
        assert!(skewed.stats.makespan > even.stats.makespan * 1.3);
    }

    #[test]
    fn uneven_task_counts_are_handled() {
        // 7 tasks over 3 workers: 3/2/2 split.
        let out = simulate(&MasterWorkerConfig::new(4).with_tasks(7));
        assert!(out.stats.makespan > 0.0);
        assert_eq!(out.stats.messages, 14);
    }

    #[test]
    fn too_few_ranks_rejected() {
        assert!(MasterWorkerConfig::new(1).build_program().is_err());
    }

    #[test]
    fn zero_tasks_is_a_valid_noop() {
        let out = simulate(&MasterWorkerConfig::new(3).with_tasks(0));
        assert_eq!(out.stats.messages, 0);
    }
}
