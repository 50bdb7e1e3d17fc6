//! The CFD proxy application.
//!
//! A message-passing computational-fluid-dynamics proxy with the loop /
//! activity structure of the paper's case study: seven main loops, of
//! which (cf. Table 1)
//!
//! | loop | computation | point-to-point | collective | synchronization |
//! |------|-------------|----------------|------------|-----------------|
//! | 1 flux assembly      | heavy | – | heavy reduce | barrier |
//! | 2 pressure solve     | heavy | – | heavy reduce | – |
//! | 3 halo exchange x    | medium | heavy | – | – |
//! | 4 momentum update    | heavy | medium | – | – |
//! | 5 time integration   | heavy | light | medium reduce | barrier |
//! | 6 boundary conditions| light | light | – | barrier |
//! | 7 residual check     | light | – | light reduce | – |
//!
//! Per-rank computation is scaled by an [`Imbalance`] injector, so the
//! spread the methodology measures has known ground truth.

use limba_mpisim::{Program, ProgramBuilder, SimError};

use crate::exchange::chain_exchange;
use crate::Imbalance;

/// Names of the seven loops, in region-id order.
pub(crate) const LOOP_NAMES: [&str; 7] = [
    "loop 1", "loop 2", "loop 3", "loop 4", "loop 5", "loop 6", "loop 7",
];

/// Configuration of the CFD proxy.
///
/// # Example
///
/// ```
/// use limba_workloads::{cfd::CfdConfig, Imbalance};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = CfdConfig::new(16)
///     .with_iterations(3)
///     .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 })
///     .build_program()?;
/// assert_eq!(program.ranks(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CfdConfig {
    ranks: usize,
    iterations: usize,
    imbalance: Imbalance,
    seed: u64,
}

impl CfdConfig {
    /// Creates a configuration for `ranks` ranks with one iteration,
    /// nominal work scale, and no injected imbalance.
    pub fn new(ranks: usize) -> Self {
        CfdConfig {
            ranks,
            iterations: 1,
            imbalance: Imbalance::default(),
            seed: 0,
        }
    }

    /// Sets the number of outer time-step iterations.
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

    /// Builds the op program for the simulator.
    ///
    /// # Errors
    ///
    /// Propagates program-validation errors (none occur for valid
    /// configurations).
    pub fn build_program(&self) -> Result<Program, SimError> {
        let n = self.ranks;
        let w = self.imbalance.weights(n, self.seed);
        let mut pb = ProgramBuilder::new(n);
        let loops: Vec<_> = LOOP_NAMES.iter().map(|name| pb.add_region(*name)).collect();
        for _ in 0..self.iterations {
            pb.spmd(|rank, mut ops| {
                let wk = w[rank];
                // Loop 1: flux assembly — the core of the program. The
                // reduce absorbs the computation spread (imbalanced
                // collective); a small jittered fix-up before the barrier
                // makes synchronization short but highly imbalanced, the
                // paper's signature finding.
                ops.enter(loops[0]).compute(0.60 * wk).reduce(256 << 10);
                if rank != 0 && rank + 1 != n {
                    // Interior fix-up: boundary ranks skip it and sit in
                    // the barrier, concentrating the wait on few ranks.
                    ops.compute(0.010 * wk);
                }
                ops.barrier().leave(loops[0]);
                // Loop 2: pressure solve.
                ops.enter(loops[1])
                    .compute(0.40 * wk)
                    .reduce(224 << 10)
                    .leave(loops[1]);
                // Loop 3: halo exchange (x sweep) — heavy point-to-point
                // dominated by transfer time, hence fairly balanced.
                ops.enter(loops[2]).compute(0.26 * wk);
                chain_exchange(&mut ops, rank, n, 768 << 10);
                ops.leave(loops[2]);
                // Loop 4: momentum update — moderate messages behind a
                // big jittered compute, so waits make p2p imbalanced.
                ops.enter(loops[3]).compute(0.40 * wk);
                chain_exchange(&mut ops, rank, n, 128 << 10);
                ops.leave(loops[3]);
                // Loop 5: time integration — performs all four
                // activities; the exchange comes first (arrivals are
                // near-synchronized from loop 4), keeping its p2p share
                // small as in the paper.
                ops.enter(loops[4]);
                chain_exchange(&mut ops, rank, n, 2 << 10);
                ops.compute(0.38 * wk).reduce(16 << 10);
                if rank != 0 && rank + 1 != n {
                    ops.compute(0.004 * wk);
                }
                ops.barrier().leave(loops[4]);
                // Loop 6: boundary conditions — small but busy; the
                // exchange and barrier both absorb fresh spread.
                ops.enter(loops[5]).compute(0.018 * wk);
                chain_exchange(&mut ops, rank, n, 8 << 10);
                ops.barrier().leave(loops[5]);
                // Loop 7: residual check.
                ops.enter(loops[6])
                    .compute(0.014 * wk)
                    .reduce(1 << 10)
                    .leave(loops[6]);
            });
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use limba_model::{ActivityKind, ProcessorId, ProgramProfile, RegionId};
    use limba_mpisim::{MachineConfig, Simulator};

    use super::*;

    fn simulate(cfg: &CfdConfig) -> limba_mpisim::SimOutput {
        let program = cfg.build_program().unwrap();
        Simulator::new(MachineConfig::new(program.ranks()))
            .run(&program)
            .unwrap()
    }

    #[test]
    fn seven_loops_with_paper_activity_pattern() {
        let out = simulate(&CfdConfig::new(16));
        let m = out.reduce().unwrap().measurements;
        assert_eq!(m.regions(), 7);
        // Activity sparsity pattern of Table 1 (which loops perform what).
        let expect = [
            // (p2p, collective, sync)
            (false, true, true),  // loop 1
            (false, true, false), // loop 2
            (true, false, false), // loop 3
            (true, false, false), // loop 4
            (true, true, true),   // loop 5
            (true, false, true),  // loop 6
            (false, true, false), // loop 7
        ];
        for (i, &(p2p, coll, sync)) in expect.iter().enumerate() {
            let r = RegionId::new(i);
            assert!(
                m.performs(r, ActivityKind::Computation),
                "loop {} computes",
                i + 1
            );
            assert_eq!(
                m.performs(r, ActivityKind::PointToPoint),
                p2p,
                "loop {} p2p",
                i + 1
            );
            assert_eq!(
                m.performs(r, ActivityKind::Collective),
                coll,
                "loop {} coll",
                i + 1
            );
            assert_eq!(
                m.performs(r, ActivityKind::Synchronization),
                sync,
                "loop {} sync",
                i + 1
            );
        }
    }

    #[test]
    fn loop_1_is_heaviest_and_computation_dominant() {
        let out = simulate(&CfdConfig::new(16).with_iterations(2));
        let m = out.reduce().unwrap().measurements;
        let profile = ProgramProfile::from_measurements(&m);
        assert_eq!(profile.heaviest_region().unwrap().name, "loop 1");
        assert_eq!(
            profile.dominant_activity().unwrap().0,
            ActivityKind::Computation
        );
    }

    #[test]
    fn injected_skew_shows_up_in_computation_times() {
        let cfg = CfdConfig::new(8).with_imbalance(Imbalance::LinearSkew { spread: 0.6 });
        let out = simulate(&cfg);
        let m = out.reduce().unwrap().measurements;
        let r = RegionId::new(0);
        let t0 = m.time(r, ActivityKind::Computation, ProcessorId::new(0));
        let t7 = m.time(r, ActivityKind::Computation, ProcessorId::new(7));
        assert!(t7 > t0 * 1.5, "skew not visible: {t0} vs {t7}");
        // The compute laggard waits least in the reduce that follows (the
        // barrier right after it sees already-synchronized ranks).
        let s0 = m.time(r, ActivityKind::Collective, ProcessorId::new(0));
        let s7 = m.time(r, ActivityKind::Collective, ProcessorId::new(7));
        assert!(
            s0 > s7,
            "collective wait should mirror compute skew: {s0} vs {s7}"
        );
    }

    #[test]
    fn iterations_scale_times_linearly() {
        let m1 = simulate(&CfdConfig::new(4)).reduce().unwrap().measurements;
        let m3 = simulate(&CfdConfig::new(4).with_iterations(3))
            .reduce()
            .unwrap()
            .measurements;
        let r = RegionId::new(1);
        let a = m1.region_activity_time(r, ActivityKind::Computation);
        let b = m3.region_activity_time(r, ActivityKind::Computation);
        assert!((b / a - 3.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = CfdConfig::new(8)
            .with_imbalance(Imbalance::RandomJitter { amplitude: 0.3 })
            .with_seed(9);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn works_on_odd_and_small_rank_counts() {
        for ranks in [1, 2, 3, 5] {
            let out = simulate(&CfdConfig::new(ranks));
            assert!(out.stats.makespan > 0.0);
        }
    }
}
