//! Parallel replication sweeps.
//!
//! A replication sweep runs the same experiment `n` times with `n`
//! statistically independent seeds and collects every run's output. The
//! simulator itself is deterministic — randomness lives in the *program*
//! (workload generators take seeds) — so a sweep is parameterized by a
//! program-builder closure invoked once per replication with that
//! replication's index and derived seed.
//!
//! Determinism guarantees, locked by the workspace test-suite:
//!
//! * replication `i`'s seed is [`limba_par::derive_seed`]`(root, i)` — a
//!   pure function, so the seed set never depends on thread count or
//!   completion order;
//! * results are returned **in replication order** (slot-indexed, see
//!   [`limba_par::par_map`]), so the output `Vec` is identical whether
//!   the sweep ran on one thread or sixteen;
//! * one failing replication occupies its own `Err` slot and never
//!   aborts the rest of the sweep.

use crate::balance::BalancePlan;
use crate::engine::{SimOutput, Simulator};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::ops::Program;

/// One completed replication of a sweep.
#[derive(Debug, Clone)]
pub struct Replication {
    /// Index of this replication within the sweep, `0..n`.
    pub index: usize,
    /// The SplitMix64-derived seed the program was built with.
    pub seed: u64,
    /// The simulation output.
    pub output: SimOutput,
}

impl Simulator {
    /// Runs `replications` independent simulations on up to `jobs`
    /// worker threads (`0` = one per CPU) and returns the outputs in
    /// replication order.
    ///
    /// `build(index, seed)` constructs the program of each replication;
    /// the seed is derived from `root_seed` via SplitMix64, so distinct
    /// replications get statistically independent randomness while the
    /// whole sweep stays reproducible from the single root.
    ///
    /// Every replication is optionally perturbed by a fault plan and
    /// rebalanced by a balance plan (see
    /// [`Simulator::run_configured`]). Replication `i` runs under
    /// `plan.with_seed(derive_seed(plan.seed, i))` — the deterministic
    /// faults (slowdowns, link windows, crashes) are identical across
    /// the sweep while the message-loss pattern varies independently
    /// per replication, and likewise for the balance plan's seed — so
    /// the sweep reproduces from its root seeds at any `jobs` level,
    /// faulted, balanced, or neither.
    ///
    /// # Errors
    ///
    /// Failures are isolated per replication: a builder or simulation
    /// error lands as `Err` at that replication's position while every
    /// other replication still completes. An invalid plan fails every
    /// replication with [`SimError::InvalidFaultPlan`] or
    /// [`SimError::InvalidBalancePlan`].
    pub fn run_replications<F>(
        &self,
        replications: usize,
        root_seed: u64,
        jobs: usize,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        build: F,
    ) -> Vec<Result<Replication, SimError>>
    where
        F: Fn(usize, u64) -> Result<Program, SimError> + Sync,
    {
        let indices: Vec<usize> = (0..replications).collect();
        limba_par::par_map(jobs, &indices, |_, &index| {
            self.run_replication(index, root_seed, faults, balance, &build)
        })
    }

    /// Runs replication `index` of a sweep rooted at `root_seed`: the
    /// body [`Simulator::run_replications`] maps over its indices, for
    /// callers that schedule the replications themselves.
    ///
    /// # Errors
    ///
    /// A builder or simulation error, as for
    /// [`Simulator::run_replications`].
    pub fn run_replication<F>(
        &self,
        index: usize,
        root_seed: u64,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        build: F,
    ) -> Result<Replication, SimError>
    where
        F: FnOnce(usize, u64) -> Result<Program, SimError>,
    {
        let seed = limba_par::derive_seed(root_seed, index as u64);
        let program = build(index, seed)?;
        let rep_faults = faults.map(|plan| {
            plan.clone()
                .with_seed(limba_par::derive_seed(plan.seed, index as u64))
        });
        let rep_balance = balance.map(|plan| {
            plan.clone()
                .with_seed(limba_par::derive_seed(plan.seed(), index as u64))
        });
        let output =
            self.run_configured(&program, rep_faults.as_ref(), rep_balance.as_ref(), None)?;
        Ok(Replication {
            index,
            seed,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::{MachineConfig, ProgramBuilder};

    /// A two-rank program whose compute times depend on the seed.
    fn seeded_program(ranks: usize, seed: u64) -> Result<Program, SimError> {
        let mut pb = ProgramBuilder::new(ranks);
        let step = pb.add_region("step");
        for rank in 0..ranks {
            // Deterministic seed-dependent imbalance.
            let work = 1.0 + ((seed >> (rank % 8)) & 0xFF) as f64 / 256.0;
            pb.rank(rank)
                .enter(step)
                .compute(work)
                .barrier()
                .leave(step);
        }
        pb.build()
    }

    fn makespans(results: &[Result<Replication, SimError>]) -> Vec<f64> {
        results
            .iter()
            .map(|r| r.as_ref().unwrap().output.stats.makespan)
            .collect()
    }

    #[test]
    fn sweep_is_identical_across_thread_counts() {
        let sim = Simulator::new(MachineConfig::new(4));
        let reference =
            sim.run_replications(12, 42, 1, None, None, |_, seed| seeded_program(4, seed));
        assert_eq!(reference.len(), 12);
        for jobs in [2, 4, 8] {
            let sweep =
                sim.run_replications(12, 42, jobs, None, None, |_, seed| seeded_program(4, seed));
            assert_eq!(makespans(&sweep), makespans(&reference), "jobs={jobs}");
        }
    }

    #[test]
    fn replications_get_distinct_derived_seeds_in_order() {
        let sim = Simulator::new(MachineConfig::new(2));
        let sweep = sim.run_replications(8, 7, 3, None, None, |_, seed| seeded_program(2, seed));
        let mut seen = std::collections::BTreeSet::new();
        for (i, r) in sweep.iter().enumerate() {
            let r = r.as_ref().unwrap();
            assert_eq!(r.index, i);
            assert_eq!(r.seed, limba_par::derive_seed(7, i as u64));
            assert!(seen.insert(r.seed), "duplicate seed at {i}");
        }
    }

    #[test]
    fn one_failing_replication_does_not_abort_the_sweep() {
        let sim = Simulator::new(MachineConfig::new(2));
        let sweep = sim.run_replications(5, 0, 4, None, None, |index, seed| {
            if index == 2 {
                Err(SimError::BuildFailed {
                    detail: "synthetic failure".into(),
                })
            } else {
                seeded_program(2, seed)
            }
        });
        for (i, r) in sweep.iter().enumerate() {
            if i == 2 {
                assert!(matches!(r, Err(SimError::BuildFailed { .. })));
            } else {
                assert!(r.is_ok(), "replication {i} failed");
            }
        }
    }

    #[test]
    fn faulted_sweep_is_identical_across_thread_counts() {
        // A ring exchange so message-loss faults actually fire.
        fn ring_program(ranks: usize, seed: u64) -> Result<Program, SimError> {
            let mut pb = ProgramBuilder::new(ranks);
            let step = pb.add_region("step");
            for rank in 0..ranks {
                let work = 0.5 + ((seed >> (rank % 8)) & 0xFF) as f64 / 512.0;
                pb.rank(rank)
                    .enter(step)
                    .isend((rank + 1) % ranks, 256, 1)
                    .irecv((rank + ranks - 1) % ranks, 2)
                    .compute(work)
                    .wait(1)
                    .wait(2)
                    .barrier()
                    .leave(step);
            }
            pb.build()
        }
        let sim = Simulator::new(MachineConfig::new(4));
        let plan = crate::FaultPlan::new(13)
            .with_slowdown(1, 0.0, 0.4, 3.0)
            .with_message_loss(0.4, 3, 1e-3, 2.0);
        let reference =
            sim.run_replications(8, 42, 1, Some(&plan), None, |_, seed| ring_program(4, seed));
        let reports: Vec<_> = reference
            .iter()
            .map(|r| r.as_ref().unwrap().output.faults.clone())
            .collect();
        // Loss fired somewhere in the sweep and varies by replication seed.
        assert!(reports.iter().any(|f| f.retried_messages > 0));
        for jobs in [2, 8] {
            let sweep = sim.run_replications(8, 42, jobs, Some(&plan), None, |_, seed| {
                ring_program(4, seed)
            });
            assert_eq!(makespans(&sweep), makespans(&reference), "jobs={jobs}");
            for (r, want) in sweep.iter().zip(&reports) {
                assert_eq!(&r.as_ref().unwrap().output.faults, want, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn different_roots_give_different_sweeps() {
        let sim = Simulator::new(MachineConfig::new(4));
        let a = sim.run_replications(4, 1, 2, None, None, |_, seed| seeded_program(4, seed));
        let b = sim.run_replications(4, 2, 2, None, None, |_, seed| seeded_program(4, seed));
        assert_ne!(makespans(&a), makespans(&b));
    }
}
