//! The simulator execution core.
//!
//! Per-op semantics live in one shared executor ([`Exec`]); two
//! schedulers drive it:
//!
//! * **event-driven** (the default, [`Simulator::run`]) — an explicit
//!   ready-queue of runnable ranks plus wakeup bookkeeping indexed by
//!   what a rank is blocked on (a `(src, dst)` channel, the open
//!   collective instance, or a rendezvous match), so completing an op
//!   re-enqueues only the specific ranks it can unblock;
//! * **polling** ([`Simulator::run_polling_configured`]) — the original
//!   O(rounds × n) engine this one replaced, preserved verbatim in the
//!   [`crate::polling`] module (HashMap-keyed channels and all) as the
//!   reference implementation for the equivalence harness and the perf
//!   baseline the bench runner measures against.
//!
//! Both engines execute the exact same op sequence in the exact same
//! order, so their traces, statistics, and diagnostics are bit-identical
//! (see DESIGN.md, "Simulator scheduling", for the argument; the
//! equivalence harness under `tests/` locks it empirically).

use std::cell::Cell;
use std::collections::VecDeque;

use limba_model::ActivityKind;
use limba_trace::{
    Event, MaterializeSink, ReducedTrace, SalvagedTrace, Trace, TraceError, TraceSink,
};

use crate::arena::{ChannelIndex, HandleArena, SparseMap};
use crate::balance::{BalancePlan, BalanceReport, BalanceState, HostView};
use crate::collectives::collective_cost;
use crate::faults::{FaultPlan, FaultReport, FaultState};
use crate::{CollectiveKind, MachineConfig, Op, Program, SimError};

/// Maximum number of stuck ranks listed individually in a deadlock
/// report; the rest are summarized as a count so pathological deadlocks
/// on large machines don't allocate unboundedly.
const DEADLOCK_REPORT_CAP: usize = 8;

/// Formats the capped deadlock report from `(rank, pc)` pairs of stuck
/// ranks, in rank order. Shared by both schedulers so their diagnostics
/// are identical by construction.
pub(crate) fn format_deadlock_detail(
    program: &Program,
    stuck: impl Iterator<Item = (usize, usize)>,
) -> String {
    let stuck: Vec<(usize, usize)> = stuck.collect();
    let mut detail = stuck
        .iter()
        .take(DEADLOCK_REPORT_CAP)
        .map(|&(r, pc)| format!("rank {r} stuck at op {:?} (pc {pc})", program.ops(r)[pc]))
        .collect::<Vec<_>>()
        .join("; ");
    if stuck.len() > DEADLOCK_REPORT_CAP {
        use std::fmt::Write as _;
        let _ = write!(
            detail,
            "; ... and {} more stuck ranks",
            stuck.len() - DEADLOCK_REPORT_CAP
        );
    }
    detail
}

/// Cooperative interruption budget for a single simulation run,
/// checked inside both engines' scheduling loops.
///
/// All three limits are optional; the default budget is unlimited. A
/// tripped budget aborts the run with [`SimError::Interrupted`] and
/// discards all partial state — a budgeted run either completes
/// bit-identically to an unbudgeted one or produces no output at all,
/// which is what lets a supervisor re-run interrupted work later with
/// byte-identical results.
///
/// Op-count budgets are deterministic: both engines execute exactly the
/// same program ops, so `max_ops` either interrupts on every engine and
/// thread count or on none. Deadlines and cancellation are wall-clock
/// signals and inherently racy; they decide only *whether* a run
/// finishes, never what a finished run contains.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Abort after this many executed program ops.
    pub max_ops: Option<u64>,
    /// Abort once this wall-clock instant passes.
    pub deadline: Option<std::time::Instant>,
    /// Abort when this token is cancelled.
    pub cancel: Option<limba_par::CancelToken>,
}

/// How many executed ops pass between wall-clock/cancellation polls
/// (the op counter itself is checked on every op). The first op always
/// polls, so even tiny programs notice a pre-tripped token.
const BUDGET_POLL_INTERVAL: u64 = 16;

impl RunBudget {
    /// An unlimited budget: never interrupts.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Whether no limit is set at all.
    pub(crate) fn is_unlimited(&self) -> bool {
        self.max_ops.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Polls the budget after the `ops_done`-th executed op; returns the
    /// interruption error when a limit has fired.
    pub(crate) fn check(&self, ops_done: u64) -> Option<SimError> {
        if let Some(max) = self.max_ops {
            if ops_done > max {
                return Some(SimError::Interrupted {
                    detail: format!("op budget of {max} exhausted after {ops_done} ops"),
                });
            }
        }
        if ops_done % BUDGET_POLL_INTERVAL == 1 {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    return Some(SimError::Interrupted {
                        detail: format!("wall-clock deadline exceeded after {ops_done} ops"),
                    });
                }
            }
            if let Some(cancel) = &self.cancel {
                if cancel.is_cancelled() {
                    return Some(SimError::Interrupted {
                        detail: format!("cancelled after {ops_done} ops"),
                    });
                }
            }
        }
        None
    }
}

/// Summary statistics of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Per-rank completion time in seconds.
    pub rank_end_times: Vec<f64>,
    /// Latest completion time over all ranks (the run's makespan).
    pub makespan: f64,
    /// Total point-to-point messages delivered.
    pub messages: u64,
    /// Total point-to-point payload bytes delivered.
    pub bytes: u64,
    /// Number of collective operations completed.
    pub collectives: u64,
}

/// Output of a simulation: the recorded trace plus summary statistics.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The event trace of the run.
    pub trace: Trace,
    /// Summary statistics.
    pub stats: SimStats,
    /// What the fault plan did to this run; empty for unfaulted runs.
    pub faults: FaultReport,
    /// What the balance plan did to this run; inactive (`policy: None`)
    /// for unbalanced runs.
    pub balance: BalanceReport,
}

impl SimOutput {
    /// Reduces the trace to measurement matrices: the reduction
    /// [`SimOutput::reduce_checked`] salvages, without the per-rank
    /// coverage. On a well-formed trace it equals the strict
    /// [`limba_trace::reduce`] bit for bit; a fault-injected run whose
    /// crashed ranks left regions open is closed out at each rank's
    /// last event, as the salvage does. Use
    /// [`SimOutput::reduce_checked`] to see which ranks were cut short.
    ///
    /// # Errors
    ///
    /// Propagates reduction errors; a trace produced by the simulator
    /// always reduces, so failures indicate a bug.
    pub fn reduce(&self) -> Result<ReducedTrace, SimError> {
        Ok(limba_trace::reduce_checked(&self.trace)?.reduced)
    }

    /// [`SimOutput::reduce`] with per-rank coverage: it *salvages*
    /// truncated per-rank streams instead of erroring, and says which
    /// ranks it salvaged. Use when the trace did not come straight out
    /// of an unfaulted [`Simulator::run`] — it round-tripped through an
    /// untrusted file, or the run was fault-injected and some ranks
    /// crashed mid-region.
    ///
    /// The result carries per-rank coverage
    /// ([`limba_trace::RankCoverage`]) flagging every rank whose stream
    /// ended with regions still open, so downstream views can mark
    /// incomplete data instead of silently under-reporting it.
    ///
    /// # Errors
    ///
    /// Returns a structured [`limba_trace::TraceError`] naming the
    /// offending event index and rank when the trace is corrupt (not
    /// merely truncated), and propagates reduction errors.
    pub fn reduce_checked(&self) -> Result<SalvagedTrace, SimError> {
        Ok(limba_trace::reduce_checked(&self.trace)?)
    }
}

/// Output of a *streaming* simulation run: everything a [`SimOutput`]
/// carries except the trace itself, which was delivered incrementally
/// to the run's [`TraceSink`] instead of materialized. What remains is
/// O(ranks), so a streaming run's resident footprint is bounded by the
/// machine, not the event count.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// Summary statistics.
    pub stats: SimStats,
    /// What the fault plan did to this run; empty for unfaulted runs.
    pub faults: FaultReport,
    /// What the balance plan did to this run; inactive (`policy: None`)
    /// for unbalanced runs.
    pub balance: BalanceReport,
}

/// In-flight message on one `(src, dst)` channel.
#[derive(Debug, Clone, Copy)]
enum MsgInFlight {
    /// Sender already finished its side; payload arrives at `arrival`.
    Eager { arrival: f64, bytes: u64 },
    /// Sender is blocked waiting for the receiver (rendezvous protocol);
    /// it became ready at `sender_ready`.
    Rendezvous { sender_ready: f64, bytes: u64 },
}

/// Outstanding nonblocking request of one rank.
#[derive(Debug, Clone, Copy)]
enum Outstanding {
    /// Nonblocking send: the local buffer is free at this time.
    SendDone(f64),
    /// Nonblocking receive posted at this time, waiting for `src`.
    RecvPending { src: usize, posted: f64 },
}

/// Per-rank execution state, one flat entry per rank in a single
/// allocation. `pc` and `time` are what the scheduler reads and writes
/// on every op; the wakeup index ([`BlockedOn`]) and the blocking-
/// boundary bookkeeping ride in the same entry because every consumer
/// of those fields — checking whether a message's receiver is blocked,
/// resuming it, registering a rendezvous — is about to touch
/// `pc`/`time` on the same cache line anyway. Outstanding nonblocking
/// requests are pooled separately in a free-listed [`HandleArena`].
/// Total footprint is O(ranks + outstanding requests).
#[derive(Debug, Clone, Copy)]
struct RankHot {
    pc: usize,
    time: f64,
    /// The rank's planned fail-stop time, copied out of the fault plan
    /// at construction (`INFINITY` when none is scheduled), so the
    /// per-op crash boundary is one clock compare against a field on
    /// the line the scheduler already holds.
    crash_at: f64,
    /// What this rank is waiting on; `NOTHING` while runnable or done.
    blocked: BlockedOn,
    /// Set when a Recv was reached but could not complete (posted time).
    recv_posted: Option<f64>,
    /// Set when a Wait on a pending receive was reached but could not
    /// complete (the time the wait started).
    wait_started: Option<f64>,
    /// True when the current Send op is already queued as a rendezvous.
    send_registered: bool,
}

impl Default for RankHot {
    fn default() -> Self {
        RankHot {
            pc: 0,
            time: 0.0,
            crash_at: f64::INFINITY,
            blocked: BlockedOn::NOTHING,
            recv_posted: None,
            wait_started: None,
            send_registered: false,
        }
    }
}

#[derive(Debug)]
struct RankArena {
    hot: Vec<RankHot>,
}

/// What a blocked rank is waiting on — the wakeup index of the
/// event-driven scheduler, packed into four bytes. A rank blocks on at
/// most one thing at a time, so a per-rank slot doubles as the
/// per-resource waiter list; and only `dst` can ever wait on channel
/// `(src, dst)`, so the sender index alone identifies the channel. The
/// sentinels live above [`crate::MAX_PROCESSORS`], which caps real rank
/// indices far below them. Four bytes keep the slot inside
/// [`RankHot`]'s tail padding, so tracking it costs no memory at all.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockedOn(u32);

impl Default for BlockedOn {
    fn default() -> Self {
        BlockedOn::NOTHING
    }
}

impl BlockedOn {
    /// Runnable or finished: not waiting on anything.
    const NOTHING: BlockedOn = BlockedOn(u32::MAX);
    /// A registered rendezvous send waiting for the receiver to match.
    const MATCH: BlockedOn = BlockedOn(u32::MAX - 1);
    /// Waiting inside the open collective instance.
    const COLLECTIVE: BlockedOn = BlockedOn(u32::MAX - 2);
    /// Recorded as fail-stopped: never woken, never scheduled again.
    const CRASHED: BlockedOn = BlockedOn(u32::MAX - 3);

    /// Waiting for a message from `src`.
    fn channel(src: usize) -> BlockedOn {
        BlockedOn(src as u32)
    }
}

/// Outcome of attempting one op of one rank.
enum StepOutcome {
    /// The op completed; the rank may run its next op.
    Ran,
    /// The rank cannot progress until the given resource fires.
    Blocked(BlockedOn),
    /// The rank's program is finished.
    Done,
    /// The fault plan crashed the rank at this op boundary; it executes
    /// nothing further and its trace is truncated here.
    Crashed,
}

/// The one reusable collective instance. Collective call `k` completes
/// atomically for every rank before any rank can reach call `k + 1`, so
/// at most one instance is ever open; this slot recycles its arrival
/// buffer across instances (a free list of size one) instead of growing
/// a per-instance vector for the life of the run.
#[derive(Debug)]
struct CollectiveSlot {
    active: bool,
    kind: CollectiveKind,
    max_bytes: u64,
    /// Arrival time of each rank in the open instance; `arrivals[r]`
    /// doubles as the per-rank "already arrived" flag, so re-attempts
    /// stay idempotent without separate per-rank state.
    arrivals: Vec<Option<f64>>,
    arrived: usize,
    /// Running max of the arrival times — the instance's release time
    /// is ready when the last rank arrives, with no fold over
    /// `arrivals`. Arrival times are non-negative finite floats, so the
    /// running max is order-independent and bit-equal to the fold.
    ready: f64,
    /// Instances completed so far. Collectives complete atomically for
    /// every rank, so one global counter stands in for the per-rank
    /// counters (every rank has completed exactly this many), and
    /// doubles as the instance index in mismatch errors.
    completed: usize,
}

/// The scheduler's two rank rounds — the one being drained and the one
/// being filled — as a pair of fixed-universe bitsets over `u64` words
/// in a *single* allocation. Insert and remove are O(1) and
/// idempotent; draining in ascending order costs one `trailing_zeros`
/// scan per word, so advancing past a run of absent ranks reads one
/// word per 64 ranks where the polling engine pays a full re-attempt
/// per blocked rank. Round turnover flips a word offset instead of
/// swapping two sets.
#[derive(Debug)]
struct Rounds {
    /// `2 * per_round` bit-words: the current round's words start at
    /// `cur`, the next round's at `per_round - cur`.
    words: Vec<u64>,
    /// Words per round.
    per_round: usize,
    /// Word offset of the current round — `0` or `per_round`, flipped
    /// at each turnover.
    cur: usize,
    len_current: usize,
    len_next: usize,
}

impl Rounds {
    /// Builds the round pair for `n` ranks around a (possibly reused)
    /// word buffer, zeroing exactly the words a fresh pair would hold.
    fn with_words(mut words: Vec<u64>, n: usize) -> Self {
        let per_round = n.div_ceil(64);
        words.clear();
        words.resize(2 * per_round, 0);
        Rounds {
            words,
            per_round,
            cur: 0,
            len_current: 0,
            len_next: 0,
        }
    }

    /// Releases the word buffer for the next run to reuse.
    fn into_words(self) -> Vec<u64> {
        self.words
    }

    #[inline]
    fn next_base(&self) -> usize {
        self.per_round - self.cur
    }

    #[inline]
    fn insert_at(words: &mut [u64], base: usize, i: usize) -> bool {
        let (w, bit) = (base + i / 64, 1u64 << (i % 64));
        let new = words[w] & bit == 0;
        words[w] |= bit;
        new
    }

    fn insert_current(&mut self, i: usize) {
        if Self::insert_at(&mut self.words, self.cur, i) {
            self.len_current += 1;
        }
    }

    fn insert_next(&mut self, i: usize) {
        let base = self.next_base();
        if Self::insert_at(&mut self.words, base, i) {
            self.len_next += 1;
        }
    }

    /// Inserts every index in `[lo, hi)` into one round with whole-word
    /// masks — the bulk release path for collective completions, where
    /// all other ranks unblock at once and bit-at-a-time insertion
    /// would rescan the set n times. `into_next` picks the round.
    fn insert_range(&mut self, into_next: bool, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let base = if into_next {
            self.next_base()
        } else {
            self.cur
        };
        let len = if into_next {
            &mut self.len_next
        } else {
            &mut self.len_current
        };
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mask_lo = if w == first { !0u64 << (lo % 64) } else { !0 };
            let mask_hi = match hi - w * 64 {
                up if up >= 64 => !0,
                up => (1u64 << up) - 1,
            };
            let mask = mask_lo & mask_hi;
            let word = self.words[base + w];
            *len += (mask & !word).count_ones() as usize;
            self.words[base + w] = word | mask;
        }
    }

    fn current_is_empty(&self) -> bool {
        self.len_current == 0
    }

    fn next_is_empty(&self) -> bool {
        self.len_next == 0
    }

    /// Makes the (filled) next round current. Only called when the
    /// current round has drained, so the flip just moves the length.
    fn turnover(&mut self) {
        debug_assert_eq!(self.len_current, 0);
        self.cur = self.per_round - self.cur;
        self.len_current = self.len_next;
        self.len_next = 0;
    }

    /// The current round's members in ascending order, without removing
    /// them. The parallel scheduler snapshots each round's runnable set
    /// this way before fanning speculation out over worker threads.
    fn current_members(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len_current);
        let words = &self.words[self.cur..self.cur + self.per_round];
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                out.push(w * 64 + bit);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Removes and returns the current round's smallest member at or
    /// after `from`.
    fn pop_current_at_or_after(&mut self, from: usize) -> Option<usize> {
        if self.len_current == 0 {
            return None;
        }
        let words = &mut self.words[self.cur..self.cur + self.per_round];
        let mut w = from / 64;
        let mut word = match words.get(w) {
            Some(&word) => word & (!0u64 << (from % 64)),
            None => return None,
        };
        loop {
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                words[w] &= !(1u64 << bit);
                self.len_current -= 1;
                return Some(w * 64 + bit);
            }
            w += 1;
            word = match words.get(w) {
                Some(&word) => word,
                None => return None,
            };
        }
    }
}

/// A speculated run of purely-local ops, produced by a worker thread in
/// the parallel scheduler and replayed by the merge loop.
struct LocalPrefix {
    rank: usize,
    /// Snapshot the speculation started from. The merge loop applies
    /// the prefix only when the live state still matches — a validation
    /// that makes the fast path self-checking rather than trusted.
    pc0: usize,
    time0: f64,
    /// Program counter and clock after the prefix.
    pc: usize,
    time: f64,
    /// Trace events of the prefix, in program order.
    events: Vec<Event>,
}

/// Speculatively executes the longest prefix of purely-local ops of
/// `rank` starting from `(pc0, time0)`, against immutable state only.
///
/// *Local* means the op reads nothing another rank can influence and
/// writes nothing another rank can observe: `Enter`/`Leave` always
/// (they read the rank's own clock and emit its own events), `Compute`
/// when no balance plan is attached (balancing may migrate work across
/// ranks at compute boundaries, which is inherently cross-rank).
/// Message ops, collectives, and nonblocking completions all touch
/// shared channels or the collective slot, so speculation stops there
/// and leaves them to the sequential merge loop.
///
/// Fault plans stay exact: `compute_end` is a pure function of the
/// plan, and speculation stops *before* any op boundary where the crash
/// check would fire, so recording the crash (a mutation) happens in the
/// merge loop exactly where the sequential engine records it.
///
/// Returns `None` when the first op is already non-local.
fn speculate_local(
    program: &Program,
    config: &MachineConfig,
    faults: Option<&FaultState>,
    balance_active: bool,
    rank: usize,
    pc0: usize,
    time0: f64,
) -> Option<LocalPrefix> {
    let ops = program.ops(rank);
    let mut pc = pc0;
    let mut time = time0;
    let mut events = Vec::new();
    while pc < ops.len() {
        if let Some(fs) = faults {
            if fs.should_crash(rank, time) {
                break;
            }
        }
        match ops[pc] {
            Op::Enter { region } => {
                events.push(Event::enter(time, rank as u32, region));
            }
            Op::Leave { region } => {
                events.push(Event::leave(time, rank as u32, region));
            }
            Op::Compute { seconds } if !balance_active => {
                let duration = seconds / config.cpu_speed(rank);
                time = match faults {
                    None => time + duration,
                    Some(fs) => fs.compute_end(rank, time, duration),
                };
            }
            _ => break,
        }
        pc += 1;
    }
    if pc == pc0 {
        return None;
    }
    Some(LocalPrefix {
        rank,
        pc0,
        time0,
        pc,
        time,
        events,
    })
}

/// Where the executor's recorded events go: a [`TraceSink`], in frames
/// of `frame_events` events as rounds retire, so the engine holds at
/// most one frame at a time. Materializing a [`Trace`] is one sink
/// among the others ([`MaterializeSink`]).
///
/// Sink errors don't unwind through the hot path: they latch into
/// `failed`, recording stops, and the scheduler loops surface the
/// latched error as [`SimError::Trace`] at the next round boundary.
/// This is how a failing fold or tee (a full disk under a
/// `--stream-out` file, a window fold rejecting the stream) stops a
/// running simulation.
struct Recorder<'a> {
    /// Events of the frame being filled.
    buf: Vec<Event>,
    /// Flush threshold: events per emitted frame.
    frame_events: usize,
    sink: &'a mut dyn TraceSink,
    failed: Option<TraceError>,
}

impl Recorder<'_> {
    #[inline]
    fn push(&mut self, e: Event) {
        if self.failed.is_some() {
            return;
        }
        self.buf.push(e);
        self.flush_full();
    }

    #[inline]
    fn extend_events(&mut self, events: &[Event]) {
        if self.failed.is_some() {
            return;
        }
        self.buf.extend_from_slice(events);
        self.flush_full();
    }

    /// Hands a full frame to the sink, latching its error.
    #[inline]
    fn flush_full(&mut self) {
        if self.buf.len() >= self.frame_events {
            if let Err(err) = self.sink.events(&self.buf) {
                self.failed = Some(err);
            }
            self.buf.clear();
        }
    }

    /// The latched sink error, if any — checked by the scheduler loops
    /// at round boundaries to abort a run whose consumer failed.
    fn take_failure(&mut self) -> Option<TraceError> {
        self.failed.take()
    }

    /// Flushes the partial frame and finishes the sink.
    fn finish(&mut self) -> Result<(), TraceError> {
        if let Some(err) = self.failed.take() {
            return Err(err);
        }
        if !self.buf.is_empty() {
            self.sink.events(&self.buf)?;
            self.buf.clear();
        }
        self.sink.finish()
    }
}

/// The executor: rank arenas, flattened hot-path structures, and the
/// per-op semantics the event-driven scheduler drives. Every structure
/// here is sized by what the run actually touches — ranks, live
/// channels, outstanding requests — never by `ranks²`, which is what
/// lets a 64k-rank nearest-neighbour program fit in a few megabytes.
struct Exec<'a> {
    config: &'a MachineConfig,
    program: &'a Program,
    n: usize,
    /// Per-rank execution state, struct-of-arrays (see [`RankArena`]).
    arena: RankArena,
    /// Outstanding nonblocking requests of all ranks, pooled.
    handles: HandleArena<Outstanding>,
    /// Routing table: dense channel key `src * n + dst` → slot in
    /// `channel_pool`. Adaptive: a direct table (bounded at 256 KiB)
    /// for small machines, an open-addressed sparse map above — only
    /// channels that carry a message occupy a slot there, replacing
    /// the dense `Vec<u32>` index whose 4·n² bytes made 100k-rank
    /// machines unrepresentable. Lookups are pure functions of the
    /// key, so routing decisions cannot diverge between engines.
    channels: ChannelIndex,
    channel_pool: Vec<VecDeque<MsgInFlight>>,
    coll: CollectiveSlot,
    /// Memoized collective costs keyed `(kind, max_bytes)`. The
    /// participant set is always all ranks and the config is fixed per
    /// run, so the full key fits in the pair; programs reuse a handful
    /// of distinct collective shapes across thousands of calls, and a
    /// linear scan of this short list beats recomputing the cost model.
    coll_costs: Vec<(CollectiveKind, u64, f64)>,
    recorder: Recorder<'a>,
    stats: SimStats,
    /// The round pair: ready ranks of the running round (drained in
    /// ascending order) and ranks woken for the next one (woken by a
    /// rank at or after their own index), flipped at round turnover.
    rounds: Rounds,
    /// Lazily-filled per-link `(latency, bandwidth)` cache, keyed like
    /// `channels`; `Some` only when the machine has per-link overrides
    /// (the dense n² table it replaces was materialized up front).
    link_cache: Option<SparseMap<(f64, f64)>>,
    /// Active fault injection, `None` for unfaulted runs (and for empty
    /// plans, so the no-fault arithmetic stays bit-exact).
    faults: Option<FaultState>,
    /// Whether the fault plan schedules any crash at all; hoists the
    /// per-op and per-wakeup crash checks off the hot path of runs
    /// whose plans only slow or drop (the common chaos configuration).
    crash_possible: bool,
    /// Active dynamic balancing, `None` for unbalanced runs (the
    /// default compute arithmetic stays bit-exact).
    balance: Option<BalanceState>,
    /// Interruption budget, `None` for unbudgeted runs (no per-op
    /// bookkeeping on the default path).
    budget: Option<&'a RunBudget>,
    /// Program ops executed so far; drives the budget checks.
    ops_done: u64,
}

/// Arena buffers a finished run hands back for the next run on the
/// same thread to reuse. Reuse changes only where the buffers' memory
/// comes from, never what they hold: every field is restored to its
/// freshly-constructed state (empty, or default-filled to the new rank
/// count) before a run starts, so a scratch-backed run is bit-identical
/// to a cold one — the engine-triple differential harness exercises
/// exactly this, since it runs all three engines back to back on one
/// thread. What this buys is the setup half of short runs: per-rank
/// state, round words, routing tables, and handle lists arrive
/// pre-sized, so a truncated 16-rank fault run pays no allocator round
/// trips at all. Retained footprint is O(ranks + live channels +
/// outstanding ops) of the largest run seen on the thread.
struct Scratch {
    hot: Vec<RankHot>,
    round_words: Vec<u64>,
    channels: ChannelIndex,
    handles: HandleArena<Outstanding>,
    arrivals: Vec<Option<f64>>,
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

impl<'a> Exec<'a> {
    fn new(
        config: &'a MachineConfig,
        program: &'a Program,
        plan: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        sink: &'a mut dyn TraceSink,
        frame_events: usize,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let p = config.processors();
        if program.ranks() > p {
            return Err(SimError::RankOutOfRange {
                rank: program.ranks() - 1,
                ranks: p,
            });
        }
        let n = program.ranks();
        let faults = match plan {
            Some(plan) if !plan.is_empty() => {
                plan.validate(n)?;
                Some(FaultState::new(plan, n))
            }
            _ => None,
        };
        let balance = match balance {
            Some(plan) => {
                plan.validate()?;
                Some(BalanceState::new(plan, n, config))
            }
            None => None,
        };

        let crash_possible = faults.as_ref().is_some_and(|f| f.crash_planned());

        let (mut hot, round_words, channels, handles, arrivals) = match SCRATCH.with(|c| c.take()) {
            Some(s) => {
                let Scratch {
                    hot,
                    round_words,
                    mut channels,
                    mut handles,
                    mut arrivals,
                } = *s;
                channels.reset(n);
                handles.clear();
                arrivals.clear();
                (hot, round_words, channels, handles, arrivals)
            }
            None => (
                Vec::new(),
                Vec::new(),
                ChannelIndex::new(n),
                HandleArena::new(),
                Vec::new(),
            ),
        };
        hot.clear();
        hot.resize(n, RankHot::default());
        let mut arena = RankArena { hot };
        if let Some(fs) = faults.as_ref().filter(|_| crash_possible) {
            for (rank, hot) in arena.hot.iter_mut().enumerate() {
                hot.crash_at = fs.crash_time(rank);
            }
        }
        let rounds = Rounds::with_words(round_words, n);

        // The sink learns the run's shape up front; events follow in
        // frames. A planned crash truncates the run at a point the hint
        // cannot know, so the full-run reservation would be mostly dead
        // weight; the sink then grows on demand exactly like the polling
        // reference does (capacity never reaches the output).
        sink.begin(n, program.region_names())?;
        if !crash_possible {
            sink.reserve(program.event_capacity_hint());
        }
        let frame_events = frame_events.max(1);
        let recorder = Recorder {
            buf: Vec::with_capacity(frame_events),
            frame_events,
            sink,
            failed: None,
        };

        let link_cache = if config.has_link_overrides() {
            Some(SparseMap::new())
        } else {
            None
        };

        Ok(Exec {
            config,
            program,
            n,
            arena,
            handles,
            channels,
            channel_pool: Vec::new(),
            coll: CollectiveSlot {
                active: false,
                kind: CollectiveKind::Barrier,
                max_bytes: 0,
                // Sized lazily at the first instance: purely p2p
                // programs never pay the per-rank slot.
                arrivals,
                arrived: 0,
                ready: f64::NEG_INFINITY,
                completed: 0,
            },
            coll_costs: Vec::new(),
            recorder,
            stats: SimStats {
                rank_end_times: vec![0.0; n],
                makespan: 0.0,
                messages: 0,
                bytes: 0,
                collectives: 0,
            },
            rounds,
            link_cache,
            faults,
            crash_possible,
            balance,
            budget: None,
            ops_done: 0,
        })
    }

    /// Wire latency and bandwidth of the `src → dst` link. Configs
    /// without per-link overrides read the two machine-wide constants;
    /// configs with overrides fill a sparse per-link cache on first use
    /// (the values are pure functions of the config, so caching cannot
    /// change them).
    fn link_costs(&mut self, src: usize, dst: usize) -> (f64, f64) {
        let Some(cache) = &mut self.link_cache else {
            return (self.config.latency(), self.config.bandwidth());
        };
        let key = (src * self.n + dst) as u64;
        if let Some(costs) = cache.get(key) {
            return costs;
        }
        let costs = (
            self.config.link_latency(src, dst),
            self.config.link_bandwidth(src, dst),
        );
        cache.insert(key, costs);
        costs
    }

    /// Transfer time, wire latency, and loss/retry delay of the message
    /// whose transfer starts on `src → dst` at `at`. Fault-adjusted
    /// when a plan is active (consuming one loss-sequence number), the
    /// plain link costs otherwise.
    fn message_costs(&mut self, src: usize, dst: usize, at: f64, bytes: u64) -> (f64, f64, f64) {
        let (latency, bandwidth) = self.link_costs(src, dst);
        let transfer = bytes as f64 / bandwidth;
        match &mut self.faults {
            None => (transfer, latency, 0.0),
            Some(fs) => fs.message_costs(src, dst, at, transfer, latency),
        }
    }

    /// The cost of a `kind` collective over `max_bytes`, memoized in
    /// [`Exec::coll_costs`]. The participant count and machine are
    /// fixed for the run, so `(kind, max_bytes)` is the complete key.
    fn collective_cost_cached(&mut self, kind: CollectiveKind, max_bytes: u64) -> f64 {
        for &(k, b, cost) in &self.coll_costs {
            if k == kind && b == max_bytes {
                return cost;
            }
        }
        let cost = collective_cost(kind, self.program.ranks(), max_bytes, self.config);
        self.coll_costs.push((kind, max_bytes, cost));
        cost
    }

    /// Marks `w` runnable and enqueues it. A rank woken by `running`
    /// lands in the current round when its index is still ahead of the
    /// scan (`w > running` — the polling scan would have reached it
    /// later this round) and in the next round otherwise.
    fn wake(&mut self, w: usize, running: usize) {
        debug_assert_ne!(
            self.arena.hot[w].blocked,
            BlockedOn::CRASHED,
            "crashed ranks match no wake source"
        );
        self.arena.hot[w].blocked = BlockedOn::NOTHING;
        if w > running {
            self.rounds.insert_current(w);
        } else {
            // Ranks run in ascending order, so every later waker of `w`
            // this round is also ≥ w: once parked for the next round, a
            // rank stays there — exactly when the polling scan would
            // reach it again.
            self.rounds.insert_next(w);
        }
    }

    /// Head of the deque for dense channel key `ch`, if any.
    fn channel_front(&self, ch: usize) -> Option<MsgInFlight> {
        self.channels
            .get(ch)
            .and_then(|slot| self.channel_pool[slot as usize].front().copied())
    }

    /// The deque for dense channel key `ch`, allocating its pool slot on
    /// first use.
    fn channel_mut(&mut self, ch: usize) -> &mut VecDeque<MsgInFlight> {
        let slot = match self.channels.get(ch) {
            Some(slot) => slot as usize,
            None => {
                let slot = self.channel_pool.len();
                self.channel_pool.push(VecDeque::new());
                self.channels.insert(ch, slot as u32);
                slot
            }
        };
        &mut self.channel_pool[slot]
    }

    /// Appends a message to channel `src → dst` and wakes the receiver
    /// if it is blocked on exactly that channel.
    fn push_msg(&mut self, src: usize, dst: usize, msg: MsgInFlight, running: usize) {
        let ch = src * self.n + dst;
        self.channel_mut(ch).push_back(msg);
        if self.arena.hot[dst].blocked == BlockedOn::channel(src) {
            self.wake(dst, running);
        }
    }

    fn handle_get(&self, rank: usize, handle: u32) -> Result<Outstanding, SimError> {
        self.handles
            .get(rank, handle)
            .ok_or_else(|| SimError::no_request(rank, handle))
    }

    fn handle_remove(&mut self, rank: usize, handle: u32) {
        let removed = self.handles.remove(rank, handle);
        debug_assert!(removed, "validated: handle outstanding");
    }

    /// Capped report of every rank that cannot finish: the first
    /// [`DEADLOCK_REPORT_CAP`] stuck ranks in full, the rest as a count.
    fn deadlock_detail(&self) -> String {
        format_deadlock_detail(
            self.program,
            (0..self.n)
                .filter(|&r| self.arena.hot[r].pc < self.program.ops(r).len())
                .map(|r| (r, self.arena.hot[r].pc)),
        )
    }

    /// Executes `rank`'s maximal prefix of purely-local ops — compute,
    /// region enter/leave — with the program counter and local clock in
    /// locals, writing the pair back once at the end. These ops touch
    /// no shared state (the same classification [`speculate_local`]
    /// uses for the parallel engine), so batching them cannot reorder
    /// anything another rank observes; the arithmetic per op is
    /// identical to [`Exec::try_op`]'s, keeping the output bit-exact.
    /// Declines to run under balancing (which owns the compute
    /// boundary) or a budget (which counts interruptions per op), and
    /// stops short of a planned crash so `try_op` records it.
    fn advance_local(&mut self, rank: usize) {
        if self.balance.is_some() || self.budget.is_some() {
            return;
        }
        let ops = self.program.ops(rank);
        let RankHot {
            mut pc,
            mut time,
            crash_at,
            ..
        } = self.arena.hot[rank];
        let start = pc;
        // Loop invariants, hoisted so the per-op kernel is one divide
        // and one add off a register clock: the rank's speed is fixed
        // for the run, and the fault handle never changes mid-streak.
        // `crash_at` is `INFINITY` when no crash is planned, so the
        // per-op boundary check is one always-false clock compare in
        // the common case.
        let speed = self.config.cpu_speed(rank);
        let faults = self.faults.as_ref();
        while let Some(&op) = ops.get(pc) {
            if time >= crash_at {
                break;
            }
            match op {
                Op::Compute { seconds } => {
                    let duration = seconds / speed;
                    time = match faults {
                        None => time + duration,
                        Some(fs) => fs.compute_end(rank, time, duration),
                    };
                }
                Op::Enter { region } => {
                    self.recorder.push(Event::enter(time, rank as u32, region));
                }
                Op::Leave { region } => {
                    self.recorder.push(Event::leave(time, rank as u32, region));
                }
                _ => break,
            }
            pc += 1;
        }
        if pc != start {
            // Field writes, not a whole-struct store: a resumed rank
            // may still carry blocking-boundary bookkeeping (a posted
            // receive, a registered rendezvous) that must survive the
            // streak.
            let hot = &mut self.arena.hot[rank];
            hot.pc = pc;
            hot.time = time;
        }
    }

    /// Attempts the current op of `rank`. Idempotent while blocked:
    /// registration side effects (posting a receive, queueing a
    /// rendezvous, arriving at a collective) happen on the first
    /// attempt only.
    fn try_op(&mut self, rank: usize) -> Result<StepOutcome, SimError> {
        let ops = self.program.ops(rank);
        if self.arena.hot[rank].pc >= ops.len() {
            return Ok(StepOutcome::Done);
        }
        // Crash check at the op boundary: a rank whose local clock has
        // reached its planned crash time executes nothing further. The
        // clock of a blocked rank is frozen, so the decision is stable
        // across re-attempts and identical in both engines. Plans that
        // schedule no crash skip the lookup entirely (`crash_possible`
        // is fixed at construction, so the guard cannot diverge).
        if self.crash_possible {
            let now = self.arena.hot[rank].time;
            if now >= self.arena.hot[rank].crash_at {
                if let Some(fs) = &mut self.faults {
                    fs.record_crash(rank, now);
                }
                // Park the wakeup slot on the terminal sentinel: the
                // scheduler drops the rank from any later round with
                // one compare, and no wake path ever clears it (a
                // crashed rank matches no channel and arrives at no
                // collective).
                self.arena.hot[rank].blocked = BlockedOn::CRASHED;
                return Ok(StepOutcome::Crashed);
            }
        }
        let op = ops[self.arena.hot[rank].pc];
        let o = crate::config::OVERHEAD;
        let n = self.n;
        match op {
            Op::Compute { seconds } => {
                self.arena.hot[rank].time = match &mut self.balance {
                    // Balancing owns the compute boundary: it may migrate
                    // part of the op and integrates the fault-adjusted
                    // timing itself (identically in both engines).
                    Some(bs) => {
                        let host = HostView {
                            config: self.config,
                            faults: self.faults.as_ref(),
                        };
                        bs.compute(rank, self.arena.hot[rank].time, seconds, &host)
                    }
                    None => {
                        let duration = seconds / self.config.cpu_speed(rank);
                        match &self.faults {
                            None => self.arena.hot[rank].time + duration,
                            Some(fs) => fs.compute_end(rank, self.arena.hot[rank].time, duration),
                        }
                    }
                };
                self.arena.hot[rank].pc += 1;
                Ok(StepOutcome::Ran)
            }
            Op::Enter { region } => {
                self.recorder
                    .push(Event::enter(self.arena.hot[rank].time, rank as u32, region));
                self.arena.hot[rank].pc += 1;
                Ok(StepOutcome::Ran)
            }
            Op::Leave { region } => {
                self.recorder
                    .push(Event::leave(self.arena.hot[rank].time, rank as u32, region));
                self.arena.hot[rank].pc += 1;
                Ok(StepOutcome::Ran)
            }
            Op::Send { dst, bytes } => {
                if bytes <= self.config.eager_threshold() {
                    let begin = self.arena.hot[rank].time;
                    let (transfer, latency, loss_delay) =
                        self.message_costs(rank, dst, begin, bytes);
                    let end = begin + o + transfer;
                    self.recorder.push(Event::begin_activity(
                        begin,
                        rank as u32,
                        ActivityKind::PointToPoint,
                    ));
                    self.recorder
                        .push(Event::message_send(begin, rank as u32, dst as u32, bytes));
                    self.recorder.push(Event::end_activity(
                        end,
                        rank as u32,
                        ActivityKind::PointToPoint,
                    ));
                    // Lost transmissions retry in the transport after the
                    // local injection, delaying only the arrival.
                    let arrival = end + latency + loss_delay;
                    self.push_msg(rank, dst, MsgInFlight::Eager { arrival, bytes }, rank);
                    self.arena.hot[rank].time = end;
                    self.arena.hot[rank].pc += 1;
                    self.stats.messages += 1;
                    self.stats.bytes += bytes;
                    Ok(StepOutcome::Ran)
                } else {
                    if !self.arena.hot[rank].send_registered {
                        let msg = MsgInFlight::Rendezvous {
                            sender_ready: self.arena.hot[rank].time,
                            bytes,
                        };
                        self.arena.hot[rank].send_registered = true;
                        self.push_msg(rank, dst, msg, rank);
                    }
                    // Blocked until the receiver performs the match.
                    Ok(StepOutcome::Blocked(BlockedOn::MATCH))
                }
            }
            Op::Recv { src } => {
                let now = self.arena.hot[rank].time;
                let posted = *self.arena.hot[rank].recv_posted.get_or_insert(now);
                let ch = src * n + rank;
                let Some(head) = self.channel_front(ch) else {
                    return Ok(StepOutcome::Blocked(BlockedOn::channel(src)));
                };
                match head {
                    MsgInFlight::Eager { arrival, bytes } => {
                        self.channel_mut(ch).pop_front();
                        let end = (posted + o).max(arrival);
                        self.recorder.push(Event::begin_activity(
                            posted,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.recorder.push(Event::message_recv(
                            end,
                            rank as u32,
                            src as u32,
                            bytes,
                        ));
                        self.recorder.push(Event::end_activity(
                            end,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.arena.hot[rank].time = end;
                        self.arena.hot[rank].recv_posted = None;
                        self.arena.hot[rank].pc += 1;
                        Ok(StepOutcome::Ran)
                    }
                    MsgInFlight::Rendezvous {
                        sender_ready,
                        bytes,
                    } => {
                        self.channel_mut(ch).pop_front();
                        let sync = posted.max(sender_ready);
                        // A rendezvous sender is blocked until the
                        // transfer is acknowledged, so retry timeouts
                        // delay its completion too.
                        let (transfer, latency, loss_delay) =
                            self.message_costs(src, rank, sync, bytes);
                        let sender_done = sync + o + transfer + loss_delay;
                        let recv_done = sender_done + latency;
                        // Complete the blocked sender's side.
                        self.recorder.push(Event::begin_activity(
                            sender_ready,
                            src as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.recorder.push(Event::message_send(
                            sender_ready,
                            src as u32,
                            rank as u32,
                            bytes,
                        ));
                        self.recorder.push(Event::end_activity(
                            sender_done,
                            src as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.arena.hot[src].time = sender_done;
                        self.arena.hot[src].send_registered = false;
                        self.arena.hot[src].pc += 1;
                        self.wake(src, rank);
                        // Complete the receive.
                        self.recorder.push(Event::begin_activity(
                            posted,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.recorder.push(Event::message_recv(
                            recv_done,
                            rank as u32,
                            src as u32,
                            bytes,
                        ));
                        self.recorder.push(Event::end_activity(
                            recv_done,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        self.arena.hot[rank].time = recv_done;
                        self.arena.hot[rank].recv_posted = None;
                        self.arena.hot[rank].pc += 1;
                        self.stats.messages += 1;
                        self.stats.bytes += bytes;
                        Ok(StepOutcome::Ran)
                    }
                }
            }
            Op::Isend { dst, bytes, handle } => {
                // Buffered nonblocking send: the NIC takes over; the
                // local buffer frees after the injection completes.
                let begin = self.arena.hot[rank].time;
                let (transfer, latency, loss_delay) = self.message_costs(rank, dst, begin, bytes);
                let issue = begin + o;
                let buffer_free = issue + transfer;
                self.recorder.push(Event::begin_activity(
                    begin,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                self.recorder
                    .push(Event::message_send(begin, rank as u32, dst as u32, bytes));
                self.recorder.push(Event::end_activity(
                    issue,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                let arrival = buffer_free + latency + loss_delay;
                self.push_msg(rank, dst, MsgInFlight::Eager { arrival, bytes }, rank);
                self.handles
                    .insert(rank, handle, Outstanding::SendDone(buffer_free));
                self.arena.hot[rank].time = issue;
                self.arena.hot[rank].pc += 1;
                self.stats.messages += 1;
                self.stats.bytes += bytes;
                Ok(StepOutcome::Ran)
            }
            Op::Irecv { src, handle } => {
                let begin = self.arena.hot[rank].time;
                let posted = begin + o;
                self.recorder.push(Event::begin_activity(
                    begin,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                self.recorder.push(Event::end_activity(
                    posted,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                self.handles
                    .insert(rank, handle, Outstanding::RecvPending { src, posted });
                self.arena.hot[rank].time = posted;
                self.arena.hot[rank].pc += 1;
                Ok(StepOutcome::Ran)
            }
            Op::Wait { handle } => {
                let outstanding = self.handle_get(rank, handle)?;
                match outstanding {
                    Outstanding::SendDone(free) => {
                        let begin = self.arena.hot[rank].time;
                        let end = begin.max(free);
                        if end > begin {
                            self.recorder.push(Event::begin_activity(
                                begin,
                                rank as u32,
                                ActivityKind::PointToPoint,
                            ));
                            self.recorder.push(Event::end_activity(
                                end,
                                rank as u32,
                                ActivityKind::PointToPoint,
                            ));
                        }
                        self.handle_remove(rank, handle);
                        self.arena.hot[rank].time = end;
                        self.arena.hot[rank].pc += 1;
                        Ok(StepOutcome::Ran)
                    }
                    Outstanding::RecvPending { src, posted } => {
                        let now = self.arena.hot[rank].time;
                        let begin = *self.arena.hot[rank].wait_started.get_or_insert(now);
                        let ch = src * n + rank;
                        let Some(head) = self.channel_front(ch) else {
                            return Ok(StepOutcome::Blocked(BlockedOn::channel(src)));
                        };
                        match head {
                            MsgInFlight::Eager { arrival, bytes } => {
                                self.channel_mut(ch).pop_front();
                                let end = begin.max(arrival);
                                self.recorder.push(Event::begin_activity(
                                    begin,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.recorder.push(Event::message_recv(
                                    end,
                                    rank as u32,
                                    src as u32,
                                    bytes,
                                ));
                                self.recorder.push(Event::end_activity(
                                    end,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.handle_remove(rank, handle);
                                self.arena.hot[rank].wait_started = None;
                                self.arena.hot[rank].time = end;
                                self.arena.hot[rank].pc += 1;
                                Ok(StepOutcome::Ran)
                            }
                            MsgInFlight::Rendezvous {
                                sender_ready,
                                bytes,
                            } => {
                                self.channel_mut(ch).pop_front();
                                // The receive was posted at irecv time, so
                                // the rendezvous can start as soon as both
                                // sides are ready.
                                let sync = posted.max(sender_ready);
                                let (transfer, latency, loss_delay) =
                                    self.message_costs(src, rank, sync, bytes);
                                let sender_done = sync + o + transfer + loss_delay;
                                let recv_done = sender_done + latency;
                                self.recorder.push(Event::begin_activity(
                                    sender_ready,
                                    src as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.recorder.push(Event::message_send(
                                    sender_ready,
                                    src as u32,
                                    rank as u32,
                                    bytes,
                                ));
                                self.recorder.push(Event::end_activity(
                                    sender_done,
                                    src as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.arena.hot[src].time = sender_done;
                                self.arena.hot[src].send_registered = false;
                                self.arena.hot[src].pc += 1;
                                self.wake(src, rank);
                                let end = begin.max(recv_done);
                                self.recorder.push(Event::begin_activity(
                                    begin,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.recorder.push(Event::message_recv(
                                    end,
                                    rank as u32,
                                    src as u32,
                                    bytes,
                                ));
                                self.recorder.push(Event::end_activity(
                                    end,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                self.handle_remove(rank, handle);
                                self.arena.hot[rank].wait_started = None;
                                self.arena.hot[rank].time = end;
                                self.arena.hot[rank].pc += 1;
                                self.stats.messages += 1;
                                self.stats.bytes += bytes;
                                Ok(StepOutcome::Ran)
                            }
                        }
                    }
                }
            }
            Op::Collective { kind, bytes } => {
                if !self.coll.active {
                    self.coll.active = true;
                    self.coll.kind = kind;
                    self.coll.max_bytes = 0;
                    self.coll.ready = f64::NEG_INFINITY;
                    debug_assert_eq!(self.coll.arrived, 0);
                    if self.coll.arrivals.len() < n {
                        self.coll.arrivals.resize(n, None);
                    }
                }
                if self.coll.kind != kind {
                    return Err(SimError::CollectiveMismatch {
                        instance: self.coll.completed,
                        detail: format!(
                            "rank {rank} calls {kind} but instance is {}",
                            self.coll.kind
                        ),
                    });
                }
                if self.coll.arrivals[rank].is_none() {
                    let now = self.arena.hot[rank].time;
                    self.coll.arrivals[rank] = Some(now);
                    self.coll.ready = self.coll.ready.max(now);
                    self.coll.arrived += 1;
                    self.coll.max_bytes = self.coll.max_bytes.max(bytes);
                }
                if self.coll.arrived < self.program.ranks() {
                    return Ok(StepOutcome::Blocked(BlockedOn::COLLECTIVE));
                }
                // Everyone has arrived: release all participants.
                let ready = self.coll.ready;
                let cost = self.collective_cost_cached(kind, self.coll.max_bytes);
                let completion = ready + cost;
                let activity = if kind == CollectiveKind::Barrier {
                    ActivityKind::Synchronization
                } else {
                    ActivityKind::Collective
                };
                for r in 0..n {
                    let arrival = self.coll.arrivals[r]
                        .take()
                        .ok_or_else(|| SimError::not_arrived(self.coll.completed, r))?;
                    self.recorder
                        .push(Event::begin_activity(arrival, r as u32, activity));
                    self.recorder
                        .push(Event::end_activity(completion, r as u32, activity));
                    let hot = &mut self.arena.hot[r];
                    hot.time = completion;
                    hot.pc += 1;
                    hot.blocked = BlockedOn::NOTHING;
                }
                self.stats.collectives += 1;
                // Recycle the slot for the next instance (the arrival
                // buffer was drained by the `take`s above).
                self.coll.active = false;
                self.coll.arrived = 0;
                self.coll.completed += 1;
                // Completion provably finds every other rank blocked on
                // exactly this collective (`arrived == n`, and a rank
                // blocked elsewhere could not have arrived), so release
                // them wholesale instead of n-1 `wake` calls — the
                // wakeup slots were already cleared inside the per-rank
                // loop above. The range split reproduces wake's round
                // placement bit for bit: indices still ahead of the
                // scan join the current round, the rest park for the
                // next one.
                self.rounds.insert_range(false, rank + 1, n);
                self.rounds.insert_range(true, 0, rank);
                Ok(StepOutcome::Ran)
            }
        }
    }

    /// Seeds the first round with every rank that has ops to run,
    /// returning the count. When every rank participates — the common
    /// case — the set fills with whole-word masks instead of n single
    /// bit inserts.
    fn seed_runnable(&mut self) -> usize {
        let mut remaining = 0usize;
        for rank in 0..self.n {
            if self.arena.hot[rank].pc < self.program.ops(rank).len() {
                remaining += 1;
            }
        }
        if remaining == self.n {
            self.rounds.insert_range(false, 0, self.n);
        } else {
            for rank in 0..self.n {
                if self.arena.hot[rank].pc < self.program.ops(rank).len() {
                    self.rounds.insert_current(rank);
                }
            }
        }
        remaining
    }

    /// The event-driven scheduler: rounds over an explicit ready-queue.
    /// A round pops ranks in ascending order and runs each until it
    /// blocks or finishes; completions enqueue exactly the ranks they
    /// unblocked (same round when still ahead of the scan, next round
    /// otherwise). Deadlock is the state where work remains but both
    /// queues are empty — nothing can ever wake again — unless a fault
    /// plan crashed a rank, in which case the quiescent state is an
    /// *interrupted* run: the survivors were waiting on the dead rank,
    /// and their truncated traces are returned for salvage instead.
    fn run_event(&mut self) -> Result<(), SimError> {
        let mut remaining = self.seed_runnable();
        while remaining > 0 {
            if let Some(err) = self.recorder.take_failure() {
                return Err(SimError::Trace(err));
            }
            if self.rounds.current_is_empty() {
                if self.rounds.next_is_empty() {
                    if self.faults.as_ref().is_some_and(|f| f.any_crashed()) {
                        return Ok(());
                    }
                    return Err(SimError::Deadlock {
                        detail: self.deadlock_detail(),
                    });
                }
                self.rounds.turnover();
            }
            // Ascending scan; ranks woken mid-round with an index still
            // ahead of the cursor are picked up by the same scan.
            let mut cursor = 0usize;
            while let Some(rank) = self.rounds.pop_current_at_or_after(cursor) {
                cursor = rank;
                if self.arena.hot[rank].blocked == BlockedOn::CRASHED {
                    continue;
                }
                loop {
                    // Drain the purely-local prefix in registers, then
                    // run the op that actually interacts (or finishes).
                    self.advance_local(rank);
                    match self.try_op(rank)? {
                        StepOutcome::Ran => {
                            if let Some(budget) = self.budget {
                                self.ops_done += 1;
                                if let Some(interrupted) = budget.check(self.ops_done) {
                                    return Err(interrupted);
                                }
                            }
                        }
                        StepOutcome::Blocked(on) => {
                            self.arena.hot[rank].blocked = on;
                            break;
                        }
                        StepOutcome::Done => {
                            remaining -= 1;
                            break;
                        }
                        StepOutcome::Crashed => {
                            remaining -= 1;
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The rank-sharded parallel scheduler: the same round structure as
    /// [`Exec::run_event`], with a speculation pass fanned out over
    /// `jobs` worker threads at each round turnover.
    ///
    /// Each round, worker threads compute every runnable rank's *local
    /// prefix* — its longest run of ops that touch no shared state (see
    /// [`speculate_local`]) — from a snapshot of its `(pc, time)`. The
    /// merge loop then drains the round in the exact sequential order;
    /// when it pops a rank whose live state still matches the snapshot
    /// it splices the precomputed events in with one `memcpy`-shaped
    /// append and jumps the rank to the prefix end, then continues with
    /// the ordinary one-op-at-a-time loop for the non-local tail. No
    /// barrier separates merge from speculation results — prefixes are
    /// consumed by a single ascending pointer as pops arrive.
    ///
    /// Determinism argument: ranks sitting in `current` cannot have
    /// their `(pc, time)` mutated by earlier streaks of the same round
    /// (rendezvous and collective completions only advance *blocked*
    /// ranks), local ops emit only the rank's own events at times that
    /// are pure functions of the snapshot, and the splice point is
    /// validated against the live state before use. The output is
    /// therefore byte-identical to the sequential engine — which the
    /// engine-triple differential harness locks empirically.
    ///
    /// Budgeted runs fall back to the sequential scheduler: op-count
    /// budgets are defined in executed-op order, and the speculation
    /// pass would batch those increments.
    fn run_event_parallel(&mut self, jobs: usize) -> Result<(), SimError> {
        let jobs = limba_par::effective_jobs(jobs);
        if jobs <= 1 || self.budget.is_some() {
            return self.run_event();
        }
        let mut remaining = self.seed_runnable();
        while remaining > 0 {
            if let Some(err) = self.recorder.take_failure() {
                return Err(SimError::Trace(err));
            }
            if self.rounds.current_is_empty() {
                if self.rounds.next_is_empty() {
                    if self.faults.as_ref().is_some_and(|f| f.any_crashed()) {
                        return Ok(());
                    }
                    return Err(SimError::Deadlock {
                        detail: self.deadlock_detail(),
                    });
                }
                self.rounds.turnover();
            }
            // Speculation pass over a snapshot of the round's runnable
            // set. Ranks woken mid-round are not in the snapshot; the
            // merge loop simply runs them without a prefix.
            let runnable = self.rounds.current_members();
            let mut prefixes: Vec<LocalPrefix> = Vec::new();
            if runnable.len() > 1 {
                let snapshots: Vec<(usize, usize, f64)> = runnable
                    .iter()
                    .map(|&r| (r, self.arena.hot[r].pc, self.arena.hot[r].time))
                    .collect();
                let program = self.program;
                let config = self.config;
                let faults = self.faults.as_ref();
                let balance_active = self.balance.is_some();
                let shards = limba_par::shard_ranges(snapshots.len(), jobs);
                let sharded = limba_par::par_map(jobs, &shards, |_i, range| {
                    snapshots[range.clone()]
                        .iter()
                        .filter_map(|&(r, pc, t)| {
                            speculate_local(program, config, faults, balance_active, r, pc, t)
                        })
                        .collect::<Vec<_>>()
                });
                prefixes = sharded.into_iter().flatten().collect();
            }
            // Merge loop: identical to the sequential round drain, plus
            // prefix splicing. `prefixes` is in ascending rank order and
            // pops ascend, so one forward pointer pairs them up.
            let mut pfx = 0usize;
            let mut cursor = 0usize;
            while let Some(rank) = self.rounds.pop_current_at_or_after(cursor) {
                cursor = rank;
                if self.arena.hot[rank].blocked == BlockedOn::CRASHED {
                    continue;
                }
                while pfx < prefixes.len() && prefixes[pfx].rank < rank {
                    pfx += 1;
                }
                if pfx < prefixes.len() && prefixes[pfx].rank == rank {
                    let p = &prefixes[pfx];
                    pfx += 1;
                    if p.pc0 == self.arena.hot[rank].pc && p.time0 == self.arena.hot[rank].time {
                        self.recorder.extend_events(&p.events);
                        self.arena.hot[rank].pc = p.pc;
                        self.arena.hot[rank].time = p.time;
                    }
                }
                loop {
                    // Same fast local drain as the sequential engine:
                    // it covers the tail past a spliced prefix (or a
                    // rank speculation skipped) without per-op calls.
                    self.advance_local(rank);
                    match self.try_op(rank)? {
                        StepOutcome::Ran => {}
                        StepOutcome::Blocked(on) => {
                            self.arena.hot[rank].blocked = on;
                            break;
                        }
                        StepOutcome::Done => {
                            remaining -= 1;
                            break;
                        }
                        StepOutcome::Crashed => {
                            remaining -= 1;
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Ends the run: final statistics, the fault and balance reports,
    /// the scratch handback, and the last partial frame flushed into
    /// the finished sink.
    fn finish(mut self) -> Result<StreamOutput, SimError> {
        for (rank, &RankHot { time: t, .. }) in self.arena.hot.iter().enumerate() {
            self.stats.rank_end_times[rank] = t;
            self.stats.makespan = self.stats.makespan.max(t);
        }
        let faults = match &self.faults {
            Some(fs) => {
                fs.report((0..self.n).filter(|&r| self.arena.hot[r].pc < self.program.ops(r).len()))
            }
            None => FaultReport::default(),
        };
        let balance = match &self.balance {
            Some(bs) => bs.report(),
            None => BalanceReport::default(),
        };
        // Hand the arena buffers back to the thread's scratch stash so
        // the next run on this thread skips their setup allocations.
        // Everything above that reads them (stats, fault report) has
        // already run; the output is fully assembled from other state.
        let scratch = Scratch {
            hot: self.arena.hot,
            round_words: self.rounds.into_words(),
            channels: self.channels,
            handles: self.handles,
            arrivals: self.coll.arrivals,
        };
        SCRATCH.with(|c| c.set(Some(Box::new(scratch))));
        self.recorder.finish()?;
        Ok(StreamOutput {
            stats: self.stats,
            faults,
            balance,
        })
    }
}

/// Events per frame on the materializing runs: small enough that a
/// frame is still in cache when the sink copies it into the trace.
const FRAME_EVENTS: usize = 4096;

/// The simulator: runs a [`Program`] on a [`MachineConfig`].
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for the given machine.
    pub fn new(config: MachineConfig) -> Self {
        Simulator { config }
    }

    /// Runs `program` to completion with the event-driven scheduler,
    /// producing the trace and statistics — [`Simulator::run_configured`]
    /// with no plans and no budget.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid, the program
    /// references more ranks than the machine has, or the ranks deadlock
    /// (e.g. a receive whose matching send never happens).
    pub fn run(&self, program: &Program) -> Result<SimOutput, SimError> {
        self.run_configured(program, None, None, None)
    }

    /// Runs `program` with the event-driven scheduler under any
    /// combination of fault plan, balance plan, and interruption budget;
    /// `None` everywhere is [`Simulator::run`]. The engine has one
    /// recorder, the streaming one: this is
    /// [`Simulator::run_streaming_configured`] recording into a
    /// [`MaterializeSink`].
    ///
    /// * **Faults** (see [`FaultPlan`]): slowdown windows, link
    ///   degradation, message loss with retries, and rank crashes.
    ///   Crashed and interrupted ranks end the run with truncated traces
    ///   and are listed in [`SimOutput::faults`]; reduce such outputs
    ///   with [`SimOutput::reduce_checked`], which salvages partial
    ///   streams. An empty plan is bit-identical to no plan.
    /// * **Balance** (see [`BalancePlan`]): at every compute-op boundary
    ///   the attached policy may migrate work to less loaded ranks, with
    ///   deterministic migration costs and a profitability guard;
    ///   [`SimOutput::balance`] accounts every migration. A plan whose
    ///   policy never triggers is bit-identical to no plan.
    /// * **Budget** (see [`RunBudget`]): polled inside the scheduling
    ///   loop; when an op-count or wall-clock limit fires, or the
    ///   cancellation token trips, the run aborts with
    ///   [`SimError::Interrupted`] and produces nothing. A run that
    ///   completes under a budget is bit-identical to the same run
    ///   without one — the budget decides *whether* the run finishes,
    ///   never what a finished run contains.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], plus
    /// [`SimError::InvalidFaultPlan`] / [`SimError::InvalidBalancePlan`]
    /// for plans that fail [`FaultPlan::validate`] /
    /// [`BalancePlan::validate`], and [`SimError::Interrupted`] when the
    /// budget fires. A quiescent state with at least one crashed rank is
    /// an interrupted run, not a deadlock error.
    pub fn run_configured(
        &self,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        budget: Option<&RunBudget>,
    ) -> Result<SimOutput, SimError> {
        self.run_parallel_configured(program, faults, balance, budget, 1)
    }

    /// [`Simulator::run_configured`] on the deterministic parallel
    /// event engine: the sequential event scheduler's round structure
    /// with per-round speculation of purely-local op runs fanned out
    /// over `jobs` worker threads (0 = all CPUs, 1 = the sequential
    /// scheduler; see `limba-par`).
    ///
    /// The output is **byte-identical** to the sequential engine for
    /// every program, machine, plan, and thread count — parallelism here
    /// is a latency optimization, never a semantics knob. The
    /// engine-triple differential harness (polling × event × event-par)
    /// locks this. Budgeted runs fall back to the sequential scheduler
    /// (op budgets are defined in executed-op order), preserving exact
    /// budget semantics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_configured`].
    pub fn run_parallel_configured(
        &self,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        budget: Option<&RunBudget>,
        jobs: usize,
    ) -> Result<SimOutput, SimError> {
        let mut sink = MaterializeSink::new();
        let out = self.run_streaming_parallel_configured(
            program,
            faults,
            balance,
            budget,
            jobs,
            &mut sink,
            FRAME_EVENTS,
        )?;
        // A run that completes has finished its sink.
        let trace = sink.into_trace().ok_or_else(|| TraceError::Malformed {
            detail: "materialized run ended without finishing its sink".to_string(),
        })?;
        Ok(SimOutput {
            trace,
            stats: out.stats,
            faults: out.faults,
            balance: out.balance,
        })
    }

    /// The streaming counterpart of [`Simulator::run_configured`]: the
    /// identical simulation, but recorded events flow to `sink` in
    /// frames of `frame_events` events as rounds retire, instead of
    /// materializing into a [`Trace`]. The sink sees exactly the event
    /// sequence the materialized trace would hold, in recording order —
    /// so any streaming fold over it ([`limba_trace::stream`]) produces
    /// bit-identical results to reducing the materialized trace, which
    /// the stream-equivalence differential harness locks.
    ///
    /// Resident memory on the simulator side is O(ranks + one frame).
    /// Right after [`TraceSink::begin`] the engine hands the sink the
    /// program's event-count hint through [`TraceSink::reserve`]
    /// (skipped when the fault plan schedules a crash): the folds
    /// ignore it, and a [`MaterializeSink`] sizes its buffer once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_configured`], plus
    /// [`SimError::Trace`] carrying any error the sink returns — a
    /// failing (e.g. cancelled) consumer aborts the run at the next
    /// round boundary.
    pub fn run_streaming_configured(
        &self,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        budget: Option<&RunBudget>,
        sink: &mut dyn TraceSink,
        frame_events: usize,
    ) -> Result<StreamOutput, SimError> {
        self.run_streaming_parallel_configured(
            program,
            faults,
            balance,
            budget,
            1,
            sink,
            frame_events,
        )
    }

    /// The streaming counterpart of
    /// [`Simulator::run_parallel_configured`]: the parallel event
    /// engine recording into `sink`. Byte-identical event stream to
    /// [`Simulator::run_streaming_configured`] for every thread count
    /// (budgeted runs fall back to the sequential scheduler, exactly as
    /// the materialized path does).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_streaming_configured`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_streaming_parallel_configured(
        &self,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        budget: Option<&RunBudget>,
        jobs: usize,
        sink: &mut dyn TraceSink,
        frame_events: usize,
    ) -> Result<StreamOutput, SimError> {
        let mut exec = Exec::new(&self.config, program, faults, balance, sink, frame_events)?;
        // An unlimited budget takes the exact unbudgeted code path (no
        // per-op bookkeeping).
        exec.budget = budget.filter(|b| !b.is_unlimited());
        exec.run_event_parallel(jobs)?;
        exec.finish()
    }

    /// [`Simulator::run_configured`] on the polling reference engine —
    /// the original O(rounds × n) scan over `HashMap`-keyed channels
    /// that the event engine replaced, preserved verbatim in
    /// `crate::polling`. Bit-identical to the event engines in trace,
    /// statistics, diagnostics, fault report, and balance report; the
    /// equivalence harness holds the implementations against each
    /// other. Op-count budgets fire on exactly the same programs on
    /// both engines (both execute the same ops).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run_configured`].
    pub fn run_polling_configured(
        &self,
        program: &Program,
        faults: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
        budget: Option<&RunBudget>,
    ) -> Result<SimOutput, SimError> {
        let budget = budget.filter(|b| !b.is_unlimited());
        crate::polling::run(&self.config, program, faults, balance, budget)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::ProgramBuilder;
    use limba_model::ProcessorId;

    fn machine(n: usize) -> MachineConfig {
        MachineConfig::new(n)
            .with_latency(10e-6)
            .with_bandwidth(1e8)
            .with_eager_threshold(8192)
    }

    /// A small exchange-heavy program both budget tests share.
    fn budget_test_program(ranks: usize) -> Program {
        let mut pb = ProgramBuilder::new(ranks);
        let r = pb.add_region("step");
        pb.spmd(|rank, mut ops| {
            ops.enter(r)
                .compute(0.1 + 0.05 * rank as f64)
                .send((rank + 1) % ranks, 1024)
                .recv((rank + ranks - 1) % ranks)
                .barrier()
                .leave(r);
        });
        pb.build().unwrap()
    }

    #[test]
    fn generous_op_budget_is_bit_identical_to_unbudgeted() {
        let program = budget_test_program(4);
        let sim = Simulator::new(machine(4));
        let plain = sim.run(&program).unwrap();
        let budget = RunBudget {
            max_ops: Some(1_000_000),
            ..RunBudget::default()
        };
        let budgeted = sim
            .run_configured(&program, None, None, Some(&budget))
            .unwrap();
        assert_eq!(plain.trace, budgeted.trace);
        assert_eq!(plain.stats, budgeted.stats);
        let polled = sim
            .run_polling_configured(&program, None, None, Some(&budget))
            .unwrap();
        assert_eq!(plain.trace, polled.trace);
        assert_eq!(plain.stats, polled.stats);
    }

    #[test]
    fn op_budget_interrupts_both_engines_at_the_same_threshold() {
        let program = budget_test_program(4);
        let sim = Simulator::new(machine(4));
        // The smallest op budget that lets the run finish — found by
        // scanning upward — must be the same on both engines, and every
        // smaller budget must interrupt both with a named error. That is
        // what makes an op budget a deterministic, engine-independent
        // interruption point.
        let threshold = |budgeted: &dyn Fn(&RunBudget) -> Result<SimOutput, SimError>| -> u64 {
            let ceiling = program.total_ops() as u64 * 4;
            for max_ops in 0..=ceiling {
                let budget = RunBudget {
                    max_ops: Some(max_ops),
                    ..RunBudget::default()
                };
                match budgeted(&budget) {
                    Ok(_) => return max_ops,
                    Err(SimError::Interrupted { detail }) => {
                        assert!(detail.contains("op budget"), "{detail}")
                    }
                    Err(other) => panic!("unexpected error at max_ops={max_ops}: {other}"),
                }
            }
            panic!("no budget up to {ceiling} completed");
        };
        let event_threshold = threshold(&|b| sim.run_configured(&program, None, None, Some(b)));
        let polling_threshold =
            threshold(&|b| sim.run_polling_configured(&program, None, None, Some(b)));
        assert_eq!(event_threshold, polling_threshold);
        assert!(event_threshold > 0);
        // At the threshold both engines still agree bit-for-bit.
        let budget = RunBudget {
            max_ops: Some(event_threshold),
            ..RunBudget::default()
        };
        let event = sim
            .run_configured(&program, None, None, Some(&budget))
            .unwrap();
        let polling = sim
            .run_polling_configured(&program, None, None, Some(&budget))
            .unwrap();
        assert_eq!(event.trace, polling.trace);
        assert_eq!(event.stats, polling.stats);
    }

    #[test]
    fn cancelled_token_and_expired_deadline_interrupt_the_run() {
        let program = budget_test_program(4);
        let sim = Simulator::new(machine(4));
        let token = limba_par::CancelToken::new();
        token.cancel();
        let budget = RunBudget {
            cancel: Some(token),
            ..RunBudget::default()
        };
        assert!(matches!(
            sim.run_configured(&program, None, None, Some(&budget)),
            Err(SimError::Interrupted { .. })
        ));
        let budget = RunBudget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..RunBudget::default()
        };
        assert!(matches!(
            sim.run_polling_configured(&program, None, None, Some(&budget)),
            Err(SimError::Interrupted { .. })
        ));
        // An untripped token and a far-away deadline change nothing.
        let budget = RunBudget {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            cancel: Some(limba_par::CancelToken::new()),
            ..RunBudget::default()
        };
        let plain = sim.run(&program).unwrap();
        let budgeted = sim
            .run_configured(&program, None, None, Some(&budget))
            .unwrap();
        assert_eq!(plain.trace, budgeted.trace);
    }

    #[test]
    fn budgeted_run_honors_fault_plans_identically() {
        let program = budget_test_program(4);
        let sim = Simulator::new(machine(4));
        let plan = FaultPlan::new(11).with_slowdown(1, 0.0, 0.2, 2.0);
        let plain = sim
            .run_configured(&program, Some(&plan), None, None)
            .unwrap();
        let budget = RunBudget {
            max_ops: Some(1_000_000),
            ..RunBudget::default()
        };
        let budgeted = sim
            .run_configured(&program, Some(&plan), None, Some(&budget))
            .unwrap();
        assert_eq!(plain.trace, budgeted.trace);
        assert_eq!(plain.faults, budgeted.faults);
        let polled = sim
            .run_polling_configured(&program, Some(&plan), None, Some(&budget))
            .unwrap();
        assert_eq!(plain.trace, polled.trace);
    }

    #[test]
    fn compute_only_program_times_add_up() {
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).compute(1.0).compute(0.5).leave(r);
        pb.rank(1).enter(r).compute(2.0).leave(r);
        let out = Simulator::new(machine(2))
            .run(&pb.build().unwrap())
            .unwrap();
        assert!((out.stats.rank_end_times[0] - 1.5).abs() < 1e-12);
        assert!((out.stats.rank_end_times[1] - 2.0).abs() < 1e-12);
        assert!((out.stats.makespan - 2.0).abs() < 1e-12);
        let m = out.reduce().unwrap().measurements;
        assert!((m.time(r, ActivityKind::Computation, ProcessorId::new(0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slow_node_takes_proportionally_longer() {
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.spmd(|_, mut ops| {
            ops.enter(r).compute(1.0).leave(r);
        });
        let cfg = machine(2).with_cpu_speed(1, 0.5);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        assert!((out.stats.rank_end_times[0] - 1.0).abs() < 1e-12);
        assert!((out.stats.rank_end_times[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eager_send_recv_timing() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1000).leave(r);
        pb.rank(1).enter(r).recv(0).leave(r);
        let out = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();
        // Sender: o + 1000/B = 5e-6 + 1e-5 = 1.5e-5.
        assert!((out.stats.rank_end_times[0] - 1.5e-5).abs() < 1e-12);
        // Receiver posted at 0; arrival = 1.5e-5 + 1e-5 latency = 2.5e-5.
        assert!((out.stats.rank_end_times[1] - 2.5e-5).abs() < 1e-12);
        assert_eq!(out.stats.messages, 1);
        assert_eq!(out.stats.bytes, 1000);
    }

    #[test]
    fn largest_recordable_send_is_traced_exactly() {
        let max = Event::MAX_MESSAGE_BYTES;
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, max).leave(r);
        pb.rank(1).enter(r).recv(0).leave(r);
        let out = Simulator::new(machine(2))
            .run(&pb.build().unwrap())
            .unwrap();
        assert_eq!(out.stats.bytes, max);
        let traced: Vec<u64> = out
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.payload() {
                limba_trace::EventPayload::MessageSend { bytes, .. }
                | limba_trace::EventPayload::MessageRecv { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(traced, [max, max]);
    }

    #[test]
    fn late_receiver_pays_only_overhead() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1000).leave(r);
        pb.rank(1).enter(r).compute(1.0).recv(0).leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        // Message long arrived; receive costs just the overhead.
        assert!((out.stats.rank_end_times[1] - (1.0 + 5e-6)).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_blocks_sender_until_receiver_posts() {
        let cfg = machine(2); // eager threshold 8192
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1_000_000).leave(r);
        pb.rank(1).enter(r).compute(2.0).recv(0).leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        // Sync at 2.0; sender done at 2.0 + o + 0.01; receiver + latency.
        let sender_done = 2.0 + 5e-6 + 0.01;
        assert!((out.stats.rank_end_times[0] - sender_done).abs() < 1e-9);
        assert!((out.stats.rank_end_times[1] - (sender_done + 1e-5)).abs() < 1e-9);
        // Sender's point-to-point time includes the 2 s wait.
        let m = out.reduce().unwrap().measurements;
        let t = m.time(r, ActivityKind::PointToPoint, ProcessorId::new(0));
        assert!(t > 2.0, "sender p2p time {t} should include the wait");
    }

    #[test]
    fn message_order_is_fifo_per_channel() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 100).send(1, 200).leave(r);
        pb.rank(1).enter(r).recv(0).recv(0).leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        let reduced = out.reduce().unwrap();
        // Both messages received: counts show 2 messages, 300 bytes.
        use limba_model::CountKind;
        assert_eq!(
            reduced
                .counts
                .count(r, CountKind::MessagesReceived, ProcessorId::new(1)),
            2.0
        );
        assert_eq!(
            reduced
                .counts
                .count(r, CountKind::BytesReceived, ProcessorId::new(1)),
            300.0
        );
    }

    #[test]
    fn barrier_makes_everyone_wait_for_the_slowest() {
        let cfg = machine(4);
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("r");
        pb.spmd(|rank, mut ops| {
            ops.enter(r).compute(1.0 + rank as f64).barrier().leave(r);
        });
        let out = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();
        let cost = collective_cost(CollectiveKind::Barrier, 4, 0, &cfg);
        for t in &out.stats.rank_end_times {
            assert!((t - (4.0 + cost)).abs() < 1e-9);
        }
        // Rank 0 waited ~3 s in the barrier; rank 3 almost nothing.
        let m = out.reduce().unwrap().measurements;
        let w0 = m.time(r, ActivityKind::Synchronization, ProcessorId::new(0));
        let w3 = m.time(r, ActivityKind::Synchronization, ProcessorId::new(3));
        assert!(w0 > 2.9 && w0 < 3.1, "w0 = {w0}");
        assert!(w3 < 0.1, "w3 = {w3}");
        assert_eq!(out.stats.collectives, 1);
    }

    #[test]
    fn reduce_attributes_collective_time() {
        let cfg = machine(4);
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("r");
        pb.spmd(|_, mut ops| {
            ops.enter(r).reduce(4096).leave(r);
        });
        let out = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();
        let m = out.reduce().unwrap().measurements;
        let cost = collective_cost(CollectiveKind::Reduce, 4, 4096, &cfg);
        for p in 0..4 {
            let t = m.time(r, ActivityKind::Collective, ProcessorId::new(p));
            assert!((t - cost).abs() < 1e-12);
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).recv(1).leave(r);
        pb.rank(1).enter(r).recv(0).leave(r);
        let err = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
        assert!(err.to_string().contains("rank 0"));
    }

    #[test]
    fn deadlock_report_is_capped_on_large_machines() {
        // 12 stuck ranks: the report lists the first 8 and counts the rest.
        let n = 12;
        let cfg = machine(n);
        let mut pb = ProgramBuilder::new(n);
        let r = pb.add_region("r");
        pb.spmd(|rank, mut ops| {
            ops.enter(r).recv((rank + 1) % n).leave(r);
        });
        let err = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rank 7 stuck"), "msg: {msg}");
        assert!(!msg.contains("rank 8 stuck"), "msg: {msg}");
        assert!(msg.contains("and 4 more stuck ranks"), "msg: {msg}");
    }

    #[test]
    fn rendezvous_deadlock_detected_for_two_big_sends() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1 << 20).recv(1).leave(r);
        pb.rank(1).enter(r).send(0, 1 << 20).recv(0).leave(r);
        let err = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn eager_cross_sends_do_not_deadlock() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 100).recv(1).leave(r);
        pb.rank(1).enter(r).send(0, 100).recv(0).leave(r);
        Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
    }

    #[test]
    fn program_larger_than_machine_rejected() {
        let pb = ProgramBuilder::new(8);
        let program = pb.build().unwrap();
        assert!(matches!(
            Simulator::new(machine(4)).run(&program),
            Err(SimError::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn isend_overlaps_computation() {
        let cfg = machine(2);
        // Blocking version: send (big, rendezvous) then compute.
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1 << 20).compute(1.0).leave(r);
        pb.rank(1).enter(r).compute(1.0).recv(0).leave(r);
        let blocking = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();

        // Nonblocking version overlaps the transfer with the compute.
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0)
            .enter(r)
            .isend(1, 1 << 20, 7)
            .compute(1.0)
            .wait(7)
            .leave(r);
        pb.rank(1).enter(r).compute(1.0).recv(0).leave(r);
        let nonblocking = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();

        assert!(
            nonblocking.stats.makespan < blocking.stats.makespan,
            "nonblocking {} not faster than blocking {}",
            nonblocking.stats.makespan,
            blocking.stats.makespan
        );
    }

    #[test]
    fn irecv_wait_matches_early_and_late_messages() {
        let cfg = machine(2);
        // Message arrives before the wait: wait is (nearly) free.
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 100).leave(r);
        pb.rank(1)
            .enter(r)
            .irecv(0, 1)
            .compute(1.0)
            .wait(1)
            .leave(r);
        let out = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();
        assert!((out.stats.rank_end_times[1] - (1.0 + 5e-6)).abs() < 1e-7);

        // Message arrives after the wait: the wait blocks until arrival.
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).compute(2.0).send(1, 100).leave(r);
        pb.rank(1).enter(r).irecv(0, 1).wait(1).leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        assert!(out.stats.rank_end_times[1] > 2.0);
        out.trace.validate().unwrap();
    }

    #[test]
    fn irecv_wait_matches_rendezvous_sender() {
        let cfg = machine(2);
        let mut pb = ProgramBuilder::new(2);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 1 << 20).leave(r); // rendezvous size
        pb.rank(1)
            .enter(r)
            .irecv(0, 3)
            .compute(0.5)
            .wait(3)
            .leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        out.trace.validate().unwrap();
        // The rendezvous could start at the irecv post (~0), so the
        // sender finishes around o + transfer ≈ 0.01 s, well before the
        // receiver's wait at 0.5.
        assert!(out.stats.rank_end_times[0] < 0.1);
        assert_eq!(out.stats.messages, 1);
    }

    #[test]
    fn handle_misuse_is_rejected_at_build_time() {
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).isend(1, 10, 1).isend(1, 10, 1).wait(1).wait(1);
        assert!(matches!(pb.build(), Err(SimError::BadHandle { .. })));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).wait(9);
        assert!(matches!(pb.build(), Err(SimError::BadHandle { .. })));

        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).irecv(1, 2);
        assert!(matches!(pb.build(), Err(SimError::BadHandle { .. })));
    }

    #[test]
    fn gather_scatter_allgather_run_and_attribute_collective_time() {
        let cfg = machine(4);
        let mut pb = ProgramBuilder::new(4);
        let r = pb.add_region("r");
        pb.spmd(|_, mut ops| {
            ops.enter(r)
                .gather(1024)
                .scatter(1024)
                .allgather(512)
                .leave(r);
        });
        let out = Simulator::new(cfg.clone())
            .run(&pb.build().unwrap())
            .unwrap();
        let m = out.reduce().unwrap().measurements;
        let expected = collective_cost(CollectiveKind::Gather, 4, 1024, &cfg)
            + collective_cost(CollectiveKind::Scatter, 4, 1024, &cfg)
            + collective_cost(CollectiveKind::Allgather, 4, 512, &cfg);
        for p in 0..4 {
            let t = m.time(r, ActivityKind::Collective, ProcessorId::new(p));
            assert!((t - expected).abs() < 1e-12);
        }
        assert_eq!(out.stats.collectives, 3);
    }

    #[test]
    fn slow_link_delays_only_its_traffic() {
        // Rank 0 sends the same payload to ranks 1 and 2, but the 0→2
        // link is ten times slower.
        let cfg = machine(3).with_link(0, 2, 10e-5, 1e7);
        let mut pb = ProgramBuilder::new(3);
        let r = pb.add_region("r");
        pb.rank(0).enter(r).send(1, 4000).send(2, 4000).leave(r);
        pb.rank(1).enter(r).recv(0).leave(r);
        pb.rank(2).enter(r).recv(0).leave(r);
        let out = Simulator::new(cfg).run(&pb.build().unwrap()).unwrap();
        let m = out.reduce().unwrap().measurements;
        let t1 = m.time(r, ActivityKind::PointToPoint, ProcessorId::new(1));
        let t2 = m.time(r, ActivityKind::PointToPoint, ProcessorId::new(2));
        assert!(t2 > 3.0 * t1, "slow-link receiver {t2} vs fast {t1}");
    }

    #[test]
    fn link_overrides_are_validated() {
        let cfg = machine(2).with_link(0, 1, -1.0, 1e6);
        let mut pb = ProgramBuilder::new(2);
        pb.rank(0).compute(0.1);
        assert!(matches!(
            Simulator::new(cfg).run(&pb.build().unwrap()),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn trace_is_well_formed_and_deterministic() {
        let cfg = machine(4);
        let mut pb = ProgramBuilder::new(4);
        let a = pb.add_region("a");
        let b = pb.add_region("b");
        pb.spmd(|rank, mut ops| {
            ops.enter(a)
                .compute(0.1 * (rank + 1) as f64)
                .allreduce(512)
                .leave(a);
            ops.enter(b);
            if rank > 0 {
                ops.send(rank - 1, 2048);
            }
            if rank < 3 {
                ops.recv(rank + 1);
            }
            ops.barrier().leave(b);
        });
        let program = pb.build().unwrap();
        let out1 = Simulator::new(cfg.clone()).run(&program).unwrap();
        let out2 = Simulator::new(cfg).run(&program).unwrap();
        out1.trace.validate().unwrap();
        assert_eq!(out1.trace, out2.trace);
        assert_eq!(out1.stats, out2.stats);
    }

    #[test]
    fn event_and_polling_engines_are_bit_identical() {
        // A program exercising every blocking construct: eager and
        // rendezvous sends, nonblocking ring shifts, and collectives.
        let cfg = machine(5);
        let mut pb = ProgramBuilder::new(5);
        let r = pb.add_region("r");
        pb.spmd(|rank, mut ops| {
            ops.enter(r).compute(0.01 * (rank + 1) as f64);
            for parity in 0..2usize {
                if rank % 2 == parity {
                    if rank + 1 < 5 {
                        ops.send(rank + 1, 100_000).recv(rank + 1);
                    }
                } else if rank >= 1 {
                    ops.recv(rank - 1).send(rank - 1, 100_000);
                }
            }
            let right = (rank + 1) % 5;
            let left = (rank + 4) % 5;
            ops.isend(right, 64, 1)
                .irecv(left, 2)
                .compute(0.002)
                .wait(1)
                .wait(2)
                .allreduce(2048)
                .barrier()
                .leave(r);
        });
        let program = pb.build().unwrap();
        let sim = Simulator::new(cfg);
        let event = sim.run(&program).unwrap();
        let polling = sim
            .run_polling_configured(&program, None, None, None)
            .unwrap();
        assert_eq!(event.trace, polling.trace);
        assert_eq!(event.stats, polling.stats);
    }

    #[test]
    fn engines_agree_on_deadlock_diagnostics() {
        let cfg = machine(3);
        let mut pb = ProgramBuilder::new(3);
        let r = pb.add_region("r");
        pb.spmd(|rank, mut ops| {
            ops.enter(r).recv((rank + 1) % 3).leave(r);
        });
        let program = pb.build().unwrap();
        let sim = Simulator::new(cfg);
        let event = sim.run(&program).unwrap_err().to_string();
        let polling = sim
            .run_polling_configured(&program, None, None, None)
            .unwrap_err()
            .to_string();
        assert_eq!(event, polling);
    }
}
