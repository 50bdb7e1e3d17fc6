//! The original polling execution engine, preserved as the reference
//! implementation the event-driven core (see [`crate::engine`]) is
//! measured and equivalence-checked against.
//!
//! This is the engine as it stood before the event-driven rewrite —
//! `HashMap`-keyed channels, a growing collective-instance vector, an
//! unreserved trace buffer, and an O(rounds × n) scan that re-attempts
//! every rank each round — kept byte-for-byte where possible so the
//! bench runner's event-vs-polling comparison measures the rewrite, not
//! a strawman. The functional changes are the deadlock report, which
//! routes through the same capped formatter as the event engine so the
//! two produce identical diagnostics, and fault injection (see
//! [`crate::faults`]), which hooks the same op boundaries and cost
//! computations as the event engine so both honor a [`FaultPlan`]
//! bit-identically — faults are a first-class differential-testing
//! axis, not an event-engine-only feature.

use std::collections::{HashMap, VecDeque};

use limba_model::ActivityKind;
use limba_trace::{Event, TraceBuilder};

use crate::balance::{BalancePlan, BalanceReport, BalanceState, HostView};
use crate::collectives::collective_cost;
use crate::engine::{format_deadlock_detail, RunBudget, SimOutput, SimStats};
use crate::faults::{FaultPlan, FaultReport, FaultState};
use crate::{CollectiveKind, MachineConfig, Op, Program, SimError};

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

#[derive(Debug, Clone, Default)]
struct RankState {
    pc: usize,
    time: f64,
    /// Set when a Recv was reached but could not complete (posted time).
    recv_posted: Option<f64>,
    /// Set when a Wait on a pending receive was reached but could not
    /// complete (the time the wait started).
    wait_started: Option<f64>,
    /// True when the current Send op is already queued as a rendezvous.
    send_registered: bool,
    /// Set when waiting inside a collective (arrival time).
    collective_arrived: Option<f64>,
    /// Number of collective calls completed so far.
    collective_counter: usize,
    /// Outstanding nonblocking requests by handle.
    handles: HashMap<u32, Outstanding>,
}

#[derive(Debug)]
struct CollectiveInstance {
    kind: CollectiveKind,
    max_bytes: u64,
    arrivals: Vec<Option<f64>>,
    arrived: usize,
}

/// Runs `program` on `config` with the original polling engine,
/// optionally under a fault plan, a balance plan, and/or an
/// interruption budget.
pub(crate) fn run(
    config: &MachineConfig,
    program: &Program,
    plan: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
) -> Result<SimOutput, SimError> {
    Polling {
        config,
        faults: None,
        balance: None,
        budget,
        ops_done: 0,
    }
    .run(program, plan, balance)
}

struct Polling<'a> {
    config: &'a MachineConfig,
    faults: Option<FaultState>,
    /// Active dynamic balancing — the same shared-state hook the event
    /// engine uses, mutated at the same compute-op boundaries in the
    /// same global order, so decisions and timings are bit-identical.
    balance: Option<BalanceState>,
    /// Interruption budget, `None` for unbudgeted runs — polled on the
    /// same executed-op cadence as the event engine, so op-count
    /// budgets fire on exactly the same programs on both engines.
    budget: Option<&'a RunBudget>,
    ops_done: u64,
}

impl Polling<'_> {
    /// The original scheduling loop, verbatim apart from the fault
    /// hooks (crash checks, quiescence-with-crash handling, and the
    /// fault report on the output).
    pub(crate) fn run(
        &mut self,
        program: &Program,
        plan: Option<&FaultPlan>,
        balance: Option<&BalancePlan>,
    ) -> Result<SimOutput, SimError> {
        self.config.validate()?;
        let p = self.config.processors();
        if program.ranks() > p {
            return Err(SimError::RankOutOfRange {
                rank: program.ranks() - 1,
                ranks: p,
            });
        }
        let n = program.ranks();
        self.faults = match plan {
            Some(plan) if !plan.is_empty() => {
                plan.validate(n)?;
                Some(FaultState::new(plan, n))
            }
            _ => None,
        };
        self.balance = match balance {
            Some(plan) => {
                plan.validate()?;
                Some(BalanceState::new(plan, n, self.config))
            }
            None => None,
        };

        let mut builder = TraceBuilder::new(n);
        for name in program.region_names() {
            builder.add_region(name.clone());
        }

        let mut states = vec![RankState::default(); n];
        let mut channels: HashMap<(usize, usize), VecDeque<MsgInFlight>> = HashMap::new();
        let mut collectives: Vec<CollectiveInstance> = Vec::new();
        let mut stats = SimStats {
            rank_end_times: vec![0.0; n],
            makespan: 0.0,
            messages: 0,
            bytes: 0,
            collectives: 0,
        };

        loop {
            let mut progress = false;
            for rank in 0..n {
                while self.step(
                    rank,
                    program,
                    &mut states,
                    &mut channels,
                    &mut collectives,
                    &mut builder,
                    &mut stats,
                )? {
                    progress = true;
                    if let Some(budget) = self.budget {
                        self.ops_done += 1;
                        if let Some(interrupted) = budget.check(self.ops_done) {
                            return Err(interrupted);
                        }
                    }
                }
            }
            if states
                .iter()
                .enumerate()
                .all(|(r, s)| s.pc >= program.ops(r).len())
            {
                break;
            }
            if !progress {
                // Quiescence with a crashed rank is an interrupted run
                // (survivors were waiting on the dead rank), not a
                // deadlock — mirror the event engine exactly.
                if self.faults.as_ref().is_some_and(|f| f.any_crashed()) {
                    break;
                }
                let detail = format_deadlock_detail(
                    program,
                    states
                        .iter()
                        .enumerate()
                        .filter(|(r, s)| s.pc < program.ops(*r).len())
                        .map(|(r, s)| (r, s.pc)),
                );
                return Err(SimError::Deadlock { detail });
            }
        }

        for (rank, s) in states.iter().enumerate() {
            stats.rank_end_times[rank] = s.time;
            stats.makespan = stats.makespan.max(s.time);
        }
        let faults = match &self.faults {
            Some(fs) => fs.report((0..n).filter(|&r| states[r].pc < program.ops(r).len())),
            None => FaultReport::default(),
        };
        let balance_report = match &self.balance {
            Some(bs) => bs.report(),
            None => BalanceReport::default(),
        };
        Ok(SimOutput {
            trace: builder.build()?,
            stats,
            faults,
            balance: balance_report,
        })
    }

    /// Message transfer/latency/loss-delay for `src → dst` bytes with
    /// the transfer starting at `at` — the same hook the event engine
    /// uses, so fault decisions consume sequence numbers in the same
    /// channel-FIFO order on both engines.
    fn message_costs(&mut self, src: usize, dst: usize, at: f64, bytes: u64) -> (f64, f64, f64) {
        let transfer = self.config.link_transfer_time(src, dst, bytes);
        let latency = self.config.link_latency(src, dst);
        match &mut self.faults {
            None => (transfer, latency, 0.0),
            Some(fs) => fs.message_costs(src, dst, at, transfer, latency),
        }
    }

    /// Executes at most one op of `rank`. Returns `true` when progress was
    /// made (the op completed), `false` when the rank is blocked, done, or
    /// crashed.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        rank: usize,
        program: &Program,
        states: &mut [RankState],
        channels: &mut HashMap<(usize, usize), VecDeque<MsgInFlight>>,
        collectives: &mut Vec<CollectiveInstance>,
        builder: &mut TraceBuilder,
        stats: &mut SimStats,
    ) -> Result<bool, SimError> {
        let ops = program.ops(rank);
        if states[rank].pc >= ops.len() {
            return Ok(false);
        }
        // Crash check at the op boundary — same placement as the event
        // engine's `try_op`. A blocked rank's clock is frozen, so the
        // decision is stable across the polling re-attempts.
        if let Some(fs) = &mut self.faults {
            if fs.has_crashed(rank) {
                return Ok(false);
            }
            let now = states[rank].time;
            if fs.should_crash(rank, now) {
                fs.record_crash(rank, now);
                return Ok(false);
            }
        }
        let op = ops[states[rank].pc];
        let o = crate::config::OVERHEAD;
        match op {
            Op::Compute { seconds } => {
                states[rank].time = match &mut self.balance {
                    // Same balancing hook as the event engine's try_op:
                    // the shared state integrates migration and fault
                    // timing identically on both engines.
                    Some(bs) => {
                        let host = HostView {
                            config: self.config,
                            faults: self.faults.as_ref(),
                        };
                        bs.compute(rank, states[rank].time, seconds, &host)
                    }
                    None => {
                        let duration = seconds / self.config.cpu_speed(rank);
                        match &self.faults {
                            None => states[rank].time + duration,
                            Some(fs) => fs.compute_end(rank, states[rank].time, duration),
                        }
                    }
                };
                states[rank].pc += 1;
                Ok(true)
            }
            Op::Enter { region } => {
                builder.push(Event::enter(states[rank].time, rank as u32, region));
                states[rank].pc += 1;
                Ok(true)
            }
            Op::Leave { region } => {
                builder.push(Event::leave(states[rank].time, rank as u32, region));
                states[rank].pc += 1;
                Ok(true)
            }
            Op::Send { dst, bytes } => {
                if bytes <= self.config.eager_threshold() {
                    let begin = states[rank].time;
                    let (transfer, latency, loss_delay) =
                        self.message_costs(rank, dst, begin, bytes);
                    let end = begin + o + transfer;
                    builder.push(Event::begin_activity(
                        begin,
                        rank as u32,
                        ActivityKind::PointToPoint,
                    ));
                    builder.push(Event::message_send(begin, rank as u32, dst as u32, bytes));
                    builder.push(Event::end_activity(
                        end,
                        rank as u32,
                        ActivityKind::PointToPoint,
                    ));
                    channels
                        .entry((rank, dst))
                        .or_default()
                        .push_back(MsgInFlight::Eager {
                            arrival: end + latency + loss_delay,
                            bytes,
                        });
                    states[rank].time = end;
                    states[rank].pc += 1;
                    stats.messages += 1;
                    stats.bytes += bytes;
                    Ok(true)
                } else {
                    if !states[rank].send_registered {
                        channels.entry((rank, dst)).or_default().push_back(
                            MsgInFlight::Rendezvous {
                                sender_ready: states[rank].time,
                                bytes,
                            },
                        );
                        states[rank].send_registered = true;
                    }
                    // Blocked until the receiver performs the match.
                    Ok(false)
                }
            }
            Op::Recv { src } => {
                let posted = *states[rank].recv_posted.get_or_insert(states[rank].time);
                let Some(queue) = channels.get_mut(&(src, rank)) else {
                    return Ok(false);
                };
                let Some(&head) = queue.front() else {
                    return Ok(false);
                };
                match head {
                    MsgInFlight::Eager { arrival, bytes } => {
                        queue.pop_front();
                        let end = (posted + o).max(arrival);
                        builder.push(Event::begin_activity(
                            posted,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        builder.push(Event::message_recv(end, rank as u32, src as u32, bytes));
                        builder.push(Event::end_activity(
                            end,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        states[rank].time = end;
                        states[rank].recv_posted = None;
                        states[rank].pc += 1;
                        Ok(true)
                    }
                    MsgInFlight::Rendezvous {
                        sender_ready,
                        bytes,
                    } => {
                        queue.pop_front();
                        let sync = posted.max(sender_ready);
                        let (transfer, latency, loss_delay) =
                            self.message_costs(src, rank, sync, bytes);
                        let sender_done = sync + o + transfer + loss_delay;
                        let recv_done = sender_done + latency;
                        // Complete the blocked sender's side.
                        builder.push(Event::begin_activity(
                            sender_ready,
                            src as u32,
                            ActivityKind::PointToPoint,
                        ));
                        builder.push(Event::message_send(
                            sender_ready,
                            src as u32,
                            rank as u32,
                            bytes,
                        ));
                        builder.push(Event::end_activity(
                            sender_done,
                            src as u32,
                            ActivityKind::PointToPoint,
                        ));
                        states[src].time = sender_done;
                        states[src].send_registered = false;
                        states[src].pc += 1;
                        // Complete the receive.
                        builder.push(Event::begin_activity(
                            posted,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        builder.push(Event::message_recv(
                            recv_done,
                            rank as u32,
                            src as u32,
                            bytes,
                        ));
                        builder.push(Event::end_activity(
                            recv_done,
                            rank as u32,
                            ActivityKind::PointToPoint,
                        ));
                        states[rank].time = recv_done;
                        states[rank].recv_posted = None;
                        states[rank].pc += 1;
                        stats.messages += 1;
                        stats.bytes += bytes;
                        Ok(true)
                    }
                }
            }
            Op::Isend { dst, bytes, handle } => {
                // Buffered nonblocking send: the NIC takes over; the
                // local buffer frees after the injection completes.
                let begin = states[rank].time;
                let (transfer, latency, loss_delay) = self.message_costs(rank, dst, begin, bytes);
                let issue = begin + o;
                let buffer_free = issue + transfer;
                builder.push(Event::begin_activity(
                    begin,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                builder.push(Event::message_send(begin, rank as u32, dst as u32, bytes));
                builder.push(Event::end_activity(
                    issue,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                channels
                    .entry((rank, dst))
                    .or_default()
                    .push_back(MsgInFlight::Eager {
                        arrival: buffer_free + latency + loss_delay,
                        bytes,
                    });
                states[rank]
                    .handles
                    .insert(handle, Outstanding::SendDone(buffer_free));
                states[rank].time = issue;
                states[rank].pc += 1;
                stats.messages += 1;
                stats.bytes += bytes;
                Ok(true)
            }
            Op::Irecv { src, handle } => {
                let begin = states[rank].time;
                let posted = begin + o;
                builder.push(Event::begin_activity(
                    begin,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                builder.push(Event::end_activity(
                    posted,
                    rank as u32,
                    ActivityKind::PointToPoint,
                ));
                states[rank]
                    .handles
                    .insert(handle, Outstanding::RecvPending { src, posted });
                states[rank].time = posted;
                states[rank].pc += 1;
                Ok(true)
            }
            Op::Wait { handle } => {
                let outstanding = *states[rank]
                    .handles
                    .get(&handle)
                    .expect("validated: handle outstanding");
                match outstanding {
                    Outstanding::SendDone(free) => {
                        let begin = states[rank].time;
                        let end = begin.max(free);
                        if end > begin {
                            builder.push(Event::begin_activity(
                                begin,
                                rank as u32,
                                ActivityKind::PointToPoint,
                            ));
                            builder.push(Event::end_activity(
                                end,
                                rank as u32,
                                ActivityKind::PointToPoint,
                            ));
                        }
                        states[rank].handles.remove(&handle);
                        states[rank].time = end;
                        states[rank].pc += 1;
                        Ok(true)
                    }
                    Outstanding::RecvPending { src, posted } => {
                        let begin = *states[rank].wait_started.get_or_insert(states[rank].time);
                        let Some(queue) = channels.get_mut(&(src, rank)) else {
                            return Ok(false);
                        };
                        let Some(&head) = queue.front() else {
                            return Ok(false);
                        };
                        match head {
                            MsgInFlight::Eager { arrival, bytes } => {
                                queue.pop_front();
                                let end = begin.max(arrival);
                                builder.push(Event::begin_activity(
                                    begin,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                builder.push(Event::message_recv(
                                    end,
                                    rank as u32,
                                    src as u32,
                                    bytes,
                                ));
                                builder.push(Event::end_activity(
                                    end,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                states[rank].handles.remove(&handle);
                                states[rank].wait_started = None;
                                states[rank].time = end;
                                states[rank].pc += 1;
                                Ok(true)
                            }
                            MsgInFlight::Rendezvous {
                                sender_ready,
                                bytes,
                            } => {
                                queue.pop_front();
                                // The receive was posted at irecv time, so
                                // the rendezvous can start as soon as both
                                // sides are ready.
                                let sync = posted.max(sender_ready);
                                let (transfer, latency, loss_delay) =
                                    self.message_costs(src, rank, sync, bytes);
                                let sender_done = sync + o + transfer + loss_delay;
                                let recv_done = sender_done + latency;
                                builder.push(Event::begin_activity(
                                    sender_ready,
                                    src as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                builder.push(Event::message_send(
                                    sender_ready,
                                    src as u32,
                                    rank as u32,
                                    bytes,
                                ));
                                builder.push(Event::end_activity(
                                    sender_done,
                                    src as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                states[src].time = sender_done;
                                states[src].send_registered = false;
                                states[src].pc += 1;
                                let end = begin.max(recv_done);
                                builder.push(Event::begin_activity(
                                    begin,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                builder.push(Event::message_recv(
                                    end,
                                    rank as u32,
                                    src as u32,
                                    bytes,
                                ));
                                builder.push(Event::end_activity(
                                    end,
                                    rank as u32,
                                    ActivityKind::PointToPoint,
                                ));
                                states[rank].handles.remove(&handle);
                                states[rank].wait_started = None;
                                states[rank].time = end;
                                states[rank].pc += 1;
                                stats.messages += 1;
                                stats.bytes += bytes;
                                Ok(true)
                            }
                        }
                    }
                }
            }
            Op::Collective { kind, bytes } => {
                let instance = states[rank].collective_counter;
                if collectives.len() <= instance {
                    collectives.push(CollectiveInstance {
                        kind,
                        max_bytes: 0,
                        arrivals: vec![None; program.ranks()],
                        arrived: 0,
                    });
                }
                let inst = &mut collectives[instance];
                if inst.kind != kind {
                    return Err(SimError::CollectiveMismatch {
                        instance,
                        detail: format!("rank {rank} calls {kind} but instance is {}", inst.kind),
                    });
                }
                if states[rank].collective_arrived.is_none() {
                    states[rank].collective_arrived = Some(states[rank].time);
                    inst.arrivals[rank] = Some(states[rank].time);
                    inst.arrived += 1;
                    inst.max_bytes = inst.max_bytes.max(bytes);
                }
                if inst.arrived < program.ranks() {
                    return Ok(false);
                }
                // Everyone has arrived: release all participants.
                let ready = inst
                    .arrivals
                    .iter()
                    .map(|a| a.expect("all arrived"))
                    .fold(f64::NEG_INFINITY, f64::max);
                let cost = collective_cost(kind, program.ranks(), inst.max_bytes, self.config);
                let completion = ready + cost;
                let activity = if kind == CollectiveKind::Barrier {
                    ActivityKind::Synchronization
                } else {
                    ActivityKind::Collective
                };
                for (r, state) in states.iter_mut().enumerate() {
                    let arrival = collectives[instance].arrivals[r].expect("all arrived");
                    builder.push(Event::begin_activity(arrival, r as u32, activity));
                    builder.push(Event::end_activity(completion, r as u32, activity));
                    state.time = completion;
                    state.collective_arrived = None;
                    state.collective_counter += 1;
                    state.pc += 1;
                }
                stats.collectives += 1;
                Ok(true)
            }
        }
    }
}
