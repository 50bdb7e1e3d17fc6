//! Per-rank op programs and their builders.

use limba_model::RegionId;
use limba_trace::Event;

use crate::{CollectiveKind, SimError};

/// One operation of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Burn CPU for `seconds` of work at nominal speed (a slow node takes
    /// proportionally longer).
    Compute {
        /// Work in seconds at speed 1.0.
        seconds: f64,
    },
    /// Blocking send of `bytes` to `dst` (eager below the machine's
    /// threshold, rendezvous above).
    Send {
        /// Destination rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive of the next message from `src`.
    Recv {
        /// Source rank.
        src: usize,
    },
    /// Nonblocking send: the message is buffered and transferred in the
    /// background; [`Op::Wait`] on `handle` completes once the local
    /// buffer is free. (Buffered semantics: no rendezvous blocking.)
    Isend {
        /// Destination rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
        /// Request handle, unique among this rank's outstanding requests.
        handle: u32,
    },
    /// Nonblocking receive: posts the request; [`Op::Wait`] on `handle`
    /// blocks until the matching message arrives.
    Irecv {
        /// Source rank.
        src: usize,
        /// Request handle, unique among this rank's outstanding requests.
        handle: u32,
    },
    /// Completes an outstanding nonblocking request.
    Wait {
        /// Handle of the request to complete.
        handle: u32,
    },
    /// A collective over all ranks; every rank's `k`-th collective call
    /// must have the same kind.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload size (per pair for alltoall; ignored by barriers).
        bytes: u64,
    },
    /// Enter an instrumented code region.
    Enter {
        /// The region.
        region: RegionId,
    },
    /// Leave an instrumented code region.
    Leave {
        /// The region.
        region: RegionId,
    },
}

/// A complete program: region names plus one op list per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) region_names: Vec<String>,
    pub(crate) ranks: Vec<Vec<Op>>,
}

impl Program {
    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Region names in id order.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Op list of `rank`.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn ops(&self, rank: usize) -> &[Op] {
        &self.ranks[rank]
    }

    /// Total number of ops over all ranks.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(|r| r.len()).sum()
    }

    /// Nominal compute seconds (speed 1.0) of every `(region, rank)`
    /// cell and of every rank in total, from one walk of the program —
    /// the loads the advisor's proposals and predictions are built from.
    pub fn compute_cells(&self) -> ComputeCells {
        let n = self.ranks.len();
        let mut regions = vec![vec![0.0; n]; self.region_names.len()];
        let mut totals = Vec::with_capacity(n);
        let mut stack: Vec<RegionId> = Vec::new();
        for (p, ops) in self.ranks.iter().enumerate() {
            stack.clear();
            // Every op adds to the total, a non-compute op `+0.0`, from
            // `Sum`'s `-0.0` start: the bits of summing the rank's
            // per-op compute seconds, down to the sign of a zero.
            let mut total = -0.0;
            for op in ops {
                let mut seconds = 0.0;
                match op {
                    Op::Enter { region } => stack.push(*region),
                    Op::Leave { .. } => {
                        stack.pop();
                    }
                    Op::Compute { seconds: s } => {
                        seconds = *s;
                        let cell = stack.last().and_then(|r| regions.get_mut(r.index()));
                        if let Some(row) = cell {
                            row[p] += seconds;
                        }
                    }
                    _ => {}
                }
                total += seconds;
            }
            totals.push(total);
        }
        ComputeCells { regions, totals }
    }

    /// The program's collective call sequence as `(kind, bytes)` pairs,
    /// one per instance, with `bytes` the maximum payload any rank
    /// contributes — the value the engines cost the instance with.
    /// Empty for programs without collectives.
    pub fn collective_calls(&self) -> Vec<(CollectiveKind, u64)> {
        let Some(first) = self.ranks.first() else {
            return Vec::new();
        };
        let mut calls: Vec<(CollectiveKind, u64)> = first
            .iter()
            .filter_map(|op| match op {
                Op::Collective { kind, bytes } => Some((*kind, *bytes)),
                _ => None,
            })
            .collect();
        for ops in &self.ranks[1..] {
            for (i, bytes) in ops
                .iter()
                .filter_map(|op| match op {
                    Op::Collective { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .enumerate()
            {
                calls[i].1 = calls[i].1.max(bytes);
            }
        }
        calls
    }

    /// Returns a copy of the program with every compute op attributed
    /// to `region` (innermost attribution, as in
    /// [`compute_cells`](Program::compute_cells))
    /// scaled by its rank's entry in `factors` — the advisor's
    /// work-splitting transform. Communication, collectives, and
    /// compute in other regions are untouched, so the program's
    /// synchronization structure is preserved by construction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWork`] when a factor is negative or
    /// non-finite.
    ///
    /// # Panics
    ///
    /// Panics when `factors.len()` differs from the rank count.
    pub fn with_region_compute_scaled(
        &self,
        region: RegionId,
        factors: &[f64],
    ) -> Result<Program, SimError> {
        assert_eq!(
            factors.len(),
            self.ranks.len(),
            "one factor per rank required"
        );
        for &f in factors {
            if !f.is_finite() || f < 0.0 {
                return Err(SimError::InvalidWork { value: f });
            }
        }
        let mut out = self.clone();
        for (ops, &factor) in out.ranks.iter_mut().zip(factors) {
            let mut stack: Vec<RegionId> = Vec::new();
            for op in ops.iter_mut() {
                match op {
                    Op::Enter { region } => stack.push(*region),
                    Op::Leave { .. } => {
                        stack.pop();
                    }
                    Op::Compute { seconds } if stack.last() == Some(&region) => {
                        *seconds *= factor;
                    }
                    _ => {}
                }
            }
        }
        Ok(out)
    }

    /// Upper bound on the number of trace events one run of this
    /// program records, computed from op counts alone. The simulator
    /// pre-reserves the trace's event buffer with this, so recording
    /// never reallocates mid-run. The bound is tight up to waits that
    /// complete without blocking (they record nothing).
    pub fn event_capacity_hint(&self) -> usize {
        self.ranks
            .iter()
            .flat_map(|ops| ops.iter())
            .map(|op| match op {
                Op::Compute { .. } => 0,
                Op::Enter { .. } | Op::Leave { .. } => 1,
                // Irecv posts begin/end; a collective records a
                // begin/end pair on each rank's own op.
                Op::Irecv { .. } | Op::Collective { .. } => 2,
                // Every message contributes at most begin + transfer +
                // end on each side, budgeted on the op of that side
                // (a rendezvous receive records the sender's three
                // events too, but the matching Send recorded none).
                Op::Send { .. } | Op::Recv { .. } | Op::Isend { .. } | Op::Wait { .. } => 3,
            })
            .sum()
    }
}

/// A program's nominal compute seconds per `(region, rank)` cell and
/// per rank, from [`Program::compute_cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeCells {
    /// `regions[j][p]`: compute seconds rank `p` spends with region `j`
    /// as its innermost enclosing region — the attribution the trace
    /// reducer gives busy time. Compute outside any region, or inside a
    /// nested sub-region, is not in the cell. Each cell sums its ops in
    /// op order from `+0.0`.
    pub regions: Vec<Vec<f64>>,
    /// `totals[p]`: all of rank `p`'s compute seconds, in or outside
    /// regions, summed in op order.
    pub totals: Vec<f64>,
}

/// Builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use limba_mpisim::ProgramBuilder;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new(2);
/// let r = pb.add_region("exchange");
/// pb.rank(0).enter(r).compute(0.5).send(1, 1024).recv(1).leave(r);
/// pb.rank(1).enter(r).compute(0.6).recv(0).send(0, 1024).leave(r);
/// let program = pb.build()?;
/// assert_eq!(program.ranks(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    region_names: Vec<String>,
    ranks: Vec<Vec<Op>>,
}

impl ProgramBuilder {
    /// Creates a builder for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        ProgramBuilder {
            region_names: Vec::new(),
            ranks: vec![Vec::new(); ranks],
        }
    }

    /// Registers a code region, returning its id.
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        let id = RegionId::new(self.region_names.len());
        self.region_names.push(name.into());
        id
    }

    /// Returns the op-appending handle of `rank`.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn rank(&mut self, rank: usize) -> RankOps<'_> {
        assert!(rank < self.ranks.len(), "rank out of range");
        RankOps {
            ops: &mut self.ranks[rank],
        }
    }

    /// Applies `body` to every rank in turn — the SPMD style most
    /// message-passing programs are written in.
    pub fn spmd<F: FnMut(usize, RankOps<'_>)>(&mut self, mut body: F) {
        for rank in 0..self.ranks.len() {
            body(
                rank,
                RankOps {
                    ops: &mut self.ranks[rank],
                },
            );
        }
    }

    /// Validates and finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns an error when an op references an out-of-range rank, a rank
    /// messages itself, a send is larger than a trace event records
    /// ([`Event::MAX_MESSAGE_BYTES`]), compute work is invalid, or the ranks' collective
    /// call sequences disagree in length or kind.
    pub fn build(self) -> Result<Program, SimError> {
        let n = self.ranks.len();
        for (rank, ops) in self.ranks.iter().enumerate() {
            let mut outstanding: Vec<u32> = Vec::new();
            for op in ops {
                match *op {
                    Op::Compute { seconds } => {
                        if !seconds.is_finite() || seconds < 0.0 {
                            return Err(SimError::InvalidWork { value: seconds });
                        }
                    }
                    Op::Send { dst, bytes } | Op::Isend { dst, bytes, .. } => {
                        if bytes > Event::MAX_MESSAGE_BYTES {
                            return Err(SimError::MessageTooLarge { rank, bytes });
                        }
                        if dst >= n {
                            return Err(SimError::RankOutOfRange {
                                rank: dst,
                                ranks: n,
                            });
                        }
                        if dst == rank {
                            return Err(SimError::SelfMessage { rank });
                        }
                    }
                    Op::Recv { src } | Op::Irecv { src, .. } => {
                        if src >= n {
                            return Err(SimError::RankOutOfRange {
                                rank: src,
                                ranks: n,
                            });
                        }
                        if src == rank {
                            return Err(SimError::SelfMessage { rank });
                        }
                    }
                    Op::Collective { .. }
                    | Op::Enter { .. }
                    | Op::Leave { .. }
                    | Op::Wait { .. } => {}
                }
                match *op {
                    Op::Isend { handle, .. } | Op::Irecv { handle, .. } => {
                        if outstanding.contains(&handle) {
                            return Err(SimError::BadHandle {
                                rank,
                                handle,
                                detail: "handle already outstanding".into(),
                            });
                        }
                        outstanding.push(handle);
                    }
                    Op::Wait { handle } => match outstanding.iter().position(|&h| h == handle) {
                        Some(i) => {
                            outstanding.remove(i);
                        }
                        None => {
                            return Err(SimError::BadHandle {
                                rank,
                                handle,
                                detail: "wait on a handle with no outstanding request".into(),
                            })
                        }
                    },
                    _ => {}
                }
            }
            if let Some(&handle) = outstanding.first() {
                return Err(SimError::BadHandle {
                    rank,
                    handle,
                    detail: "request never waited on".into(),
                });
            }
        }
        // Collective sequences must agree across ranks.
        let sequences: Vec<Vec<CollectiveKind>> = self
            .ranks
            .iter()
            .map(|ops| {
                ops.iter()
                    .filter_map(|op| match op {
                        Op::Collective { kind, .. } => Some(*kind),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        if let Some(first) = sequences.first() {
            for (rank, seq) in sequences.iter().enumerate().skip(1) {
                if seq.len() != first.len() {
                    return Err(SimError::CollectiveMismatch {
                        instance: first.len().min(seq.len()),
                        detail: format!(
                            "rank 0 makes {} collective calls but rank {rank} makes {}",
                            first.len(),
                            seq.len()
                        ),
                    });
                }
                for (i, (a, b)) in first.iter().zip(seq).enumerate() {
                    if a != b {
                        return Err(SimError::CollectiveMismatch {
                            instance: i,
                            detail: format!("rank 0 calls {a} but rank {rank} calls {b}"),
                        });
                    }
                }
            }
        }
        Ok(Program {
            region_names: self.region_names,
            ranks: self.ranks,
        })
    }
}

/// Fluent op-appending handle for one rank (see [`ProgramBuilder::rank`]).
#[derive(Debug)]
pub struct RankOps<'a> {
    ops: &'a mut Vec<Op>,
}

impl RankOps<'_> {
    /// Appends a compute op of `seconds` nominal work.
    pub fn compute(&mut self, seconds: f64) -> &mut Self {
        self.ops.push(Op::Compute { seconds });
        self
    }

    /// Appends a blocking send.
    pub fn send(&mut self, dst: usize, bytes: u64) -> &mut Self {
        self.ops.push(Op::Send { dst, bytes });
        self
    }

    /// Appends a blocking receive.
    pub fn recv(&mut self, src: usize) -> &mut Self {
        self.ops.push(Op::Recv { src });
        self
    }

    /// Appends a nonblocking send under `handle`.
    pub fn isend(&mut self, dst: usize, bytes: u64, handle: u32) -> &mut Self {
        self.ops.push(Op::Isend { dst, bytes, handle });
        self
    }

    /// Appends a nonblocking receive under `handle`.
    pub fn irecv(&mut self, src: usize, handle: u32) -> &mut Self {
        self.ops.push(Op::Irecv { src, handle });
        self
    }

    /// Appends a wait completing the request under `handle`.
    pub fn wait(&mut self, handle: u32) -> &mut Self {
        self.ops.push(Op::Wait { handle });
        self
    }

    /// Appends an `MPI_GATHER`-style collective.
    pub fn gather(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Gather,
            bytes,
        });
        self
    }

    /// Appends an `MPI_SCATTER`-style collective.
    pub fn scatter(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Scatter,
            bytes,
        });
        self
    }

    /// Appends an `MPI_ALLGATHER`-style collective.
    pub fn allgather(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Allgather,
            bytes,
        });
        self
    }

    /// Appends an `MPI_REDUCE`-style collective.
    pub fn reduce(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Reduce,
            bytes,
        });
        self
    }

    /// Appends an `MPI_ALLREDUCE`-style collective.
    pub fn allreduce(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Allreduce,
            bytes,
        });
        self
    }

    /// Appends an `MPI_BCAST`-style collective.
    pub fn broadcast(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Broadcast,
            bytes,
        });
        self
    }

    /// Appends an `MPI_ALLTOALL`-style collective with `bytes` per pair.
    pub fn alltoall(&mut self, bytes: u64) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Alltoall,
            bytes,
        });
        self
    }

    /// Appends a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.ops.push(Op::Collective {
            kind: CollectiveKind::Barrier,
            bytes: 0,
        });
        self
    }

    /// Appends a region-enter marker.
    pub fn enter(&mut self, region: RegionId) -> &mut Self {
        self.ops.push(Op::Enter { region });
        self
    }

    /// Appends a region-leave marker.
    pub fn leave(&mut self, region: RegionId) -> &mut Self {
        self.ops.push(Op::Leave { region });
        self
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn builder_produces_expected_ops() {
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).compute(1.0).send(1, 10).leave(r);
        pb.rank(1).enter(r).recv(0).leave(r);
        let p = pb.build().unwrap();
        assert_eq!(p.ranks(), 2);
        assert_eq!(p.total_ops(), 7);
        assert_eq!(p.ops(0)[1], Op::Compute { seconds: 1.0 });
        assert_eq!(p.region_names(), ["r"]);
    }

    #[test]
    fn spmd_builds_all_ranks() {
        let mut pb = ProgramBuilder::new(4);
        pb.spmd(|rank, mut ops| {
            ops.compute(rank as f64);
        });
        let p = pb.build().unwrap();
        for rank in 0..4 {
            assert_eq!(p.ops(rank).len(), 1);
        }
    }

    #[test]
    fn validation_rejects_bad_programs() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).send(5, 10);
        assert!(matches!(pb.build(), Err(SimError::RankOutOfRange { .. })));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).send(0, 10);
        assert!(matches!(pb.build(), Err(SimError::SelfMessage { rank: 0 })));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(1).recv(1);
        assert!(matches!(pb.build(), Err(SimError::SelfMessage { rank: 1 })));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).compute(f64::NAN);
        assert!(matches!(pb.build(), Err(SimError::InvalidWork { .. })));
    }

    #[test]
    fn sends_larger_than_a_trace_event_holds_are_refused() {
        let max = Event::MAX_MESSAGE_BYTES;
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).send(1, max);
        pb.rank(1).recv(0);
        assert!(pb.build().is_ok());

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).compute(1.0).send(1, max + 1);
        pb.rank(1).recv(0);
        let err = pb.build().unwrap_err();
        assert!(matches!(
            err,
            SimError::MessageTooLarge { rank: 0, bytes } if bytes == max + 1
        ));
        assert!(err.to_string().contains("72057594037927936 bytes"));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).irecv(1, 7).wait(7);
        pb.rank(1).isend(0, u64::MAX, 3).wait(3);
        assert!(matches!(
            pb.build(),
            Err(SimError::MessageTooLarge {
                rank: 1,
                bytes: u64::MAX
            })
        ));

        // Collective sizes enter timing only, never a trace event.
        let mut pb = ProgramBuilder::new(2);
        pb.spmd(|_, mut ops| {
            ops.allreduce(u64::MAX);
        });
        assert!(pb.build().is_ok());
    }

    #[test]
    fn collective_sequences_must_agree() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).barrier();
        assert!(matches!(
            pb.build(),
            Err(SimError::CollectiveMismatch { .. })
        ));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).barrier();
        pb.rank(1).reduce(8);
        assert!(matches!(
            pb.build(),
            Err(SimError::CollectiveMismatch { .. })
        ));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).barrier().reduce(8);
        pb.rank(1).barrier().reduce(16); // byte mismatch allowed, max used
        assert!(pb.build().is_ok());
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn rank_handle_out_of_range_panics() {
        let mut pb = ProgramBuilder::new(1);
        let _ = pb.rank(3);
    }

    fn two_region_program() -> Program {
        let mut pb = ProgramBuilder::new(2);
        let outer = pb.add_region("outer");
        let inner = pb.add_region("inner");
        pb.rank(0)
            .enter(outer)
            .compute(1.0)
            .enter(inner)
            .compute(0.25)
            .leave(inner)
            .compute(2.0)
            .leave(outer)
            .compute(10.0); // outside any region
        pb.rank(1).enter(outer).compute(4.0).leave(outer).barrier();
        pb.rank(0).barrier();
        pb.build().unwrap()
    }

    #[test]
    fn compute_cells_attribute_to_innermost_region() {
        let cells = two_region_program().compute_cells();
        assert_eq!(cells.totals, vec![13.25, 4.0]);
        assert_eq!(cells.regions, vec![vec![3.0, 4.0], vec![0.25, 0.0]]);
    }

    /// The per-region walks [`Program::compute_cells`] replaced: one
    /// walk for the totals and one per region.
    mod reference {
        use super::*;

        pub(super) fn compute_seconds(program: &Program) -> Vec<f64> {
            program
                .ranks
                .iter()
                .map(|ops| {
                    ops.iter()
                        .map(|op| match op {
                            Op::Compute { seconds } => *seconds,
                            _ => 0.0,
                        })
                        .sum()
                })
                .collect()
        }

        pub(super) fn region_compute_seconds(program: &Program, region: RegionId) -> Vec<f64> {
            program
                .ranks
                .iter()
                .map(|ops| {
                    let mut stack: Vec<RegionId> = Vec::new();
                    let mut total = 0.0;
                    for op in ops {
                        match op {
                            Op::Enter { region } => stack.push(*region),
                            Op::Leave { .. } => {
                                stack.pop();
                            }
                            Op::Compute { seconds } if stack.last() == Some(&region) => {
                                total += seconds;
                            }
                            _ => {}
                        }
                    }
                    total
                })
                .collect()
        }
    }

    /// One op of a generated rank: enter region `j` (ids past the
    /// declared regions included), leave the innermost region, compute
    /// `seconds`, or a barrier.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Enter(usize),
        Leave,
        Compute(f64),
        Barrier,
    }

    fn build(regions: usize, ranks: &[Vec<Step>], barriers: usize) -> Program {
        let mut pb = ProgramBuilder::new(ranks.len());
        for j in 0..regions {
            pb.add_region(format!("r{j}"));
        }
        for (p, steps) in ranks.iter().enumerate() {
            let mut ops = pb.rank(p);
            for &step in steps {
                match step {
                    Step::Enter(j) => ops.enter(RegionId::new(j)),
                    Step::Leave => ops.leave(RegionId::new(0)),
                    Step::Compute(s) => ops.compute(s),
                    // Every rank calls the same number of collectives.
                    Step::Barrier => continue,
                };
            }
            for _ in 0..barriers {
                ops.barrier();
            }
        }
        pb.build().unwrap()
    }

    fn steps() -> impl proptest::strategy::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        const SECONDS: [f64; 8] = [0.0, -0.0, 0.1, 1.0 / 3.0, 1e-9, 1e6, 0.25, 5e-324];
        proptest::collection::vec((0u8..10, 0usize..6, 0..SECONDS.len()), 0..40).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, j, s)| match kind {
                    0 | 1 => Step::Enter(j),
                    2 | 3 => Step::Leave,
                    4 => Step::Barrier,
                    _ => Step::Compute(SECONDS[s]),
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn compute_cells_match_the_per_region_walks_bit_for_bit(
            regions in 0usize..5,
            ranks in proptest::collection::vec(steps(), 1..6),
            barriers in 0usize..2,
        ) {
            let program = build(regions, &ranks, barriers);
            let cells = program.compute_cells();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            proptest::prop_assert_eq!(
                bits(&cells.totals),
                bits(&reference::compute_seconds(&program))
            );
            proptest::prop_assert_eq!(cells.regions.len(), regions);
            for (j, row) in cells.regions.iter().enumerate() {
                let want = reference::region_compute_seconds(&program, RegionId::new(j));
                proptest::prop_assert_eq!(bits(row), bits(&want), "region {}", j);
            }
        }
    }

    #[test]
    fn collective_calls_take_the_max_payload() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).reduce(8).barrier();
        pb.rank(1).reduce(64).barrier();
        let p = pb.build().unwrap();
        assert_eq!(
            p.collective_calls(),
            vec![(CollectiveKind::Reduce, 64), (CollectiveKind::Barrier, 0)]
        );
    }

    #[test]
    fn region_compute_scaling_is_region_local() {
        let p = two_region_program();
        let scaled = p
            .with_region_compute_scaled(RegionId::new(0), &[0.5, 1.5])
            .unwrap();
        let cells = scaled.compute_cells();
        assert_eq!(cells.regions[0], vec![1.5, 6.0]);
        // Nested and out-of-region compute are untouched.
        assert_eq!(cells.regions[1], vec![0.25, 0.0]);
        assert_eq!(cells.totals, vec![0.25 + 1.5 + 10.0, 6.0]);
        assert!(matches!(
            p.with_region_compute_scaled(RegionId::new(0), &[1.0, f64::NAN]),
            Err(SimError::InvalidWork { .. })
        ));
    }
}
