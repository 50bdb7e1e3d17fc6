//! Collective operations and their cost models.

use std::fmt;

use crate::MachineConfig;

/// The collective operations the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// `MPI_REDUCE` to a root.
    Reduce,
    /// `MPI_ALLREDUCE`.
    Allreduce,
    /// `MPI_BCAST` from a root.
    Broadcast,
    /// `MPI_ALLTOALL` (`bytes` is the per-pair payload).
    Alltoall,
    /// `MPI_BARRIER`.
    Barrier,
    /// `MPI_GATHER` to a root (`bytes` is the per-rank contribution).
    Gather,
    /// `MPI_SCATTER` from a root (`bytes` is the per-rank share).
    Scatter,
    /// `MPI_ALLGATHER` (`bytes` is the per-rank contribution).
    Allgather,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
        };
        f.write_str(s)
    }
}

/// The algorithm a collective is costed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveAlgorithm {
    /// Binomial tree: `ceil(log2 P)` rounds, each one message deep
    /// (reduce, broadcast).
    BinomialTree,
    /// Recursive doubling: `ceil(log2 P)` rounds of pairwise exchanges
    /// (allreduce, dissemination barrier).
    RecursiveDoubling,
    /// Pairwise exchange: `P − 1` rounds, each exchanging the per-pair
    /// payload (alltoall).
    Pairwise,
    /// Binomial tree with the *total* payload crossing the root's link:
    /// `ceil(log2 P)` latency rounds plus `(P − 1) × bytes` of transfer
    /// (gather, scatter).
    BinomialScaled,
    /// Ring: `P − 1` rounds, each forwarding one rank's contribution
    /// (allgather).
    Ring,
}

impl CollectiveAlgorithm {
    /// Every algorithm the cost model knows, in a fixed order — the
    /// candidate set the advisor's collective-swap intervention
    /// enumerates.
    pub const ALL: [CollectiveAlgorithm; 5] = [
        CollectiveAlgorithm::BinomialTree,
        CollectiveAlgorithm::RecursiveDoubling,
        CollectiveAlgorithm::Pairwise,
        CollectiveAlgorithm::BinomialScaled,
        CollectiveAlgorithm::Ring,
    ];
}

impl fmt::Display for CollectiveAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveAlgorithm::BinomialTree => "binomial-tree",
            CollectiveAlgorithm::RecursiveDoubling => "recursive-doubling",
            CollectiveAlgorithm::Pairwise => "pairwise",
            CollectiveAlgorithm::BinomialScaled => "binomial-scaled",
            CollectiveAlgorithm::Ring => "ring",
        };
        f.write_str(s)
    }
}

impl CollectiveKind {
    /// The algorithm the simulator uses for this collective.
    pub(crate) fn algorithm(self) -> CollectiveAlgorithm {
        match self {
            CollectiveKind::Reduce | CollectiveKind::Broadcast => CollectiveAlgorithm::BinomialTree,
            CollectiveKind::Allreduce | CollectiveKind::Barrier => {
                CollectiveAlgorithm::RecursiveDoubling
            }
            CollectiveKind::Alltoall => CollectiveAlgorithm::Pairwise,
            CollectiveKind::Gather | CollectiveKind::Scatter => CollectiveAlgorithm::BinomialScaled,
            CollectiveKind::Allgather => CollectiveAlgorithm::Ring,
        }
    }
}

fn log2_ceil(p: usize) -> usize {
    debug_assert!(p > 0);
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// Time a collective of `kind` over `procs` ranks with `bytes` payload
/// takes once all ranks have arrived, under `config`'s network parameters.
///
/// The algorithm is the machine's choice for the kind
/// ([`MachineConfig::collective_algorithm`]), which defaults to the
/// kind's standard algorithm. Per round the cost is
/// `overhead + latency + bytes / bandwidth` (no payload term for
/// barriers, whichever algorithm costs them). A single-rank collective
/// is free.
pub fn collective_cost(
    kind: CollectiveKind,
    procs: usize,
    bytes: u64,
    config: &MachineConfig,
) -> f64 {
    if procs <= 1 {
        return 0.0;
    }
    let per_msg = crate::config::OVERHEAD + config.latency();
    let payload = if kind == CollectiveKind::Barrier {
        0.0
    } else {
        config.transfer_time(bytes)
    };
    match config.collective_algorithm(kind) {
        CollectiveAlgorithm::BinomialTree => log2_ceil(procs) as f64 * (per_msg + payload),
        CollectiveAlgorithm::RecursiveDoubling => log2_ceil(procs) as f64 * (per_msg + payload),
        CollectiveAlgorithm::Pairwise => (procs - 1) as f64 * (per_msg + payload),
        CollectiveAlgorithm::BinomialScaled => {
            log2_ceil(procs) as f64 * per_msg + (procs - 1) as f64 * payload
        }
        CollectiveAlgorithm::Ring => (procs - 1) as f64 * (per_msg + payload),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn cfg() -> MachineConfig {
        // Latency 5 µs plus the fixed 5 µs overhead: 10 µs per message.
        MachineConfig::new(16)
            .with_latency(5e-6)
            .with_bandwidth(1e8)
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(16), 4);
        assert_eq!(log2_ceil(17), 5);
    }

    #[test]
    fn barrier_cost_is_log_rounds_of_latency() {
        let c = collective_cost(CollectiveKind::Barrier, 16, 0, &cfg());
        assert!((c - 4.0 * 10e-6).abs() < 1e-12);
    }

    #[test]
    fn barrier_ignores_payload() {
        let a = collective_cost(CollectiveKind::Barrier, 8, 0, &cfg());
        let b = collective_cost(CollectiveKind::Barrier, 8, 1 << 20, &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_cost_scales_with_bytes() {
        let small = collective_cost(CollectiveKind::Reduce, 16, 1024, &cfg());
        let large = collective_cost(CollectiveKind::Reduce, 16, 1 << 20, &cfg());
        assert!(large > small);
        // 4 rounds × (10 µs + 1 MiB / 100 MB/s)
        let expected = 4.0 * (10e-6 + (1u64 << 20) as f64 / 1e8);
        assert!((large - expected).abs() < 1e-9);
    }

    #[test]
    fn alltoall_cost_is_linear_in_procs() {
        let p8 = collective_cost(CollectiveKind::Alltoall, 8, 4096, &cfg());
        let p16 = collective_cost(CollectiveKind::Alltoall, 16, 4096, &cfg());
        assert!((p16 / p8 - 15.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        for kind in [
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Broadcast,
            CollectiveKind::Alltoall,
            CollectiveKind::Barrier,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::Allgather,
        ] {
            assert_eq!(collective_cost(kind, 1, 1024, &cfg()), 0.0);
        }
    }

    #[test]
    fn gather_pays_total_payload_but_log_latency() {
        // 16 ranks, 1 KiB each: 4 latency rounds + 15 KiB of transfer.
        let c = collective_cost(CollectiveKind::Gather, 16, 1024, &cfg());
        let expected = 4.0 * 10e-6 + 15.0 * 1024.0 / 1e8;
        assert!((c - expected).abs() < 1e-12);
        assert_eq!(
            c,
            collective_cost(CollectiveKind::Scatter, 16, 1024, &cfg())
        );
    }

    #[test]
    fn allgather_is_ring_shaped() {
        let c = collective_cost(CollectiveKind::Allgather, 8, 2048, &cfg());
        let expected = 7.0 * (10e-6 + 2048.0 / 1e8);
        assert!((c - expected).abs() < 1e-12);
    }

    #[test]
    fn config_override_switches_the_cost_model() {
        // Allreduce costed as a ring: P−1 rounds instead of log2 P.
        let ring =
            cfg().with_collective_algorithm(CollectiveKind::Allreduce, CollectiveAlgorithm::Ring);
        let c = collective_cost(CollectiveKind::Allreduce, 16, 1024, &ring);
        let expected = 15.0 * (10e-6 + 1024.0 / 1e8);
        assert!((c - expected).abs() < 1e-12);
        // Other kinds on the same machine keep their defaults.
        assert_eq!(
            collective_cost(CollectiveKind::Reduce, 16, 1024, &ring),
            collective_cost(CollectiveKind::Reduce, 16, 1024, &cfg())
        );
        // Barriers stay payload-free under every algorithm.
        for algo in CollectiveAlgorithm::ALL {
            let b = cfg().with_collective_algorithm(CollectiveKind::Barrier, algo);
            assert_eq!(
                collective_cost(CollectiveKind::Barrier, 8, 1 << 20, &b),
                collective_cost(CollectiveKind::Barrier, 8, 0, &b)
            );
        }
    }

    #[test]
    fn algorithms_are_as_documented() {
        assert_eq!(
            CollectiveKind::Reduce.algorithm(),
            CollectiveAlgorithm::BinomialTree
        );
        assert_eq!(
            CollectiveKind::Allreduce.algorithm(),
            CollectiveAlgorithm::RecursiveDoubling
        );
        assert_eq!(
            CollectiveKind::Alltoall.algorithm(),
            CollectiveAlgorithm::Pairwise
        );
    }
}
