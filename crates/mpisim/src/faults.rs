//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] is a seeded, declarative description of the
//! perturbations one run suffers: per-rank slowdown windows, transient
//! per-link degradation, message loss with retry/timeout/exponential-
//! backoff semantics at the simulated MPI transport, and rank crashes
//! that truncate the crashed rank's trace. Plans are pure data — every
//! stochastic decision (does message `k` on channel `(src, dst)` lose
//! its `a`-th transmission attempt?) is a hash of the plan seed and the
//! message's logical coordinates, never of wall-clock state — so the
//! same plan perturbs the same program identically on every run, on
//! both execution engines, and at every worker-thread count.
//!
//! Injection points (see DESIGN.md, "Fault model", for the full
//! determinism argument):
//!
//! * **Slowdown windows** stretch `Op::Compute` durations by piecewise
//!   integration: inside `[start, end)` the rank computes at `1/factor`
//!   of its configured speed.
//! * **Link degradation** multiplies a directed link's latency and
//!   divides its bandwidth while the transfer *starts* inside
//!   `[start, end)`.
//! * **Message loss** charges each lost transmission attempt a timeout
//!   of `timeout · backoff^attempt` before the retransmission; after
//!   `max_retries` lost attempts the final attempt always succeeds, so
//!   loss perturbs timing without introducing artificial deadlocks.
//! * **Crashes** halt a rank at the first op boundary at or after its
//!   local clock reaches the crash time; events already recorded stay,
//!   so the rank's trace is truncated (possibly mid-region) and the
//!   analysis layers must salvage it (`limba_trace::reduce_checked`).
//!
//! Plans can be built programmatically ([`FaultPlan::new`] and the
//! `with_*` methods) or parsed from a small TOML subset
//! ([`FaultPlan::parse_toml`]) — the format `limba simulate --faults`
//! accepts.

use crate::SimError;

/// A compute slowdown applied to one rank inside a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// Rank being slowed.
    pub rank: usize,
    /// Window start (seconds, inclusive).
    pub start: f64,
    /// Window end (seconds, exclusive).
    pub end: f64,
    /// Compute-duration multiplier inside the window (> 1 slows).
    pub factor: f64,
}

/// Transient degradation of one directed link inside a time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending rank of the degraded link.
    pub src: usize,
    /// Receiving rank of the degraded link.
    pub dst: usize,
    /// Window start (seconds, inclusive).
    pub start: f64,
    /// Window end (seconds, exclusive).
    pub end: f64,
    /// Multiplier on the link's latency (≥ 1 degrades).
    pub latency_factor: f64,
    /// Divisor on the link's bandwidth (≥ 1 degrades).
    pub bandwidth_factor: f64,
}

/// Probabilistic message loss on matching channels, with the transport's
/// retry semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageLoss {
    /// Only messages from this rank are affected (`None` = any sender).
    pub src: Option<usize>,
    /// Only messages to this rank are affected (`None` = any receiver).
    pub dst: Option<usize>,
    /// Per-attempt loss probability in `[0, 1)`.
    pub rate: f64,
    /// Maximum retransmissions; the attempt after the last retry always
    /// succeeds, so programs never deadlock on lost messages.
    pub max_retries: u32,
    /// Base retransmission timeout in seconds.
    pub timeout: f64,
    /// Exponential backoff multiplier per retry (≥ 1).
    pub backoff: f64,
}

/// A fail-stop crash of one rank at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The rank that crashes.
    pub rank: usize,
    /// Local time at or after which the rank executes no further ops.
    pub time: f64,
}

/// A seeded, deterministic description of the faults one run suffers.
///
/// The default plan is empty and injects nothing; running with an empty
/// plan is bit-identical to running without one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-message loss decisions.
    pub seed: u64,
    /// Compute slowdown windows.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Transient link degradations.
    pub links: Vec<LinkFault>,
    /// Message-loss specs; the first spec matching a channel applies.
    pub losses: Vec<MessageLoss>,
    /// Rank crashes (at most one per rank).
    pub crashes: Vec<Crash>,
}

impl FaultPlan {
    /// Creates an empty plan with the given loss-decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a compute slowdown window.
    pub fn with_slowdown(mut self, rank: usize, start: f64, end: f64, factor: f64) -> Self {
        self.slowdowns.push(SlowdownWindow {
            rank,
            start,
            end,
            factor,
        });
        self
    }

    /// Adds a transient degradation of the directed link `src → dst`.
    pub fn with_link_fault(
        mut self,
        src: usize,
        dst: usize,
        start: f64,
        end: f64,
        latency_factor: f64,
        bandwidth_factor: f64,
    ) -> Self {
        self.links.push(LinkFault {
            src,
            dst,
            start,
            end,
            latency_factor,
            bandwidth_factor,
        });
        self
    }

    /// Adds a message-loss spec affecting every channel.
    pub fn with_message_loss(
        mut self,
        rate: f64,
        max_retries: u32,
        timeout: f64,
        backoff: f64,
    ) -> Self {
        self.losses.push(MessageLoss {
            src: None,
            dst: None,
            rate,
            max_retries,
            timeout,
            backoff,
        });
        self
    }

    /// Adds a fail-stop crash of `rank` at local time `time`.
    pub fn with_crash(mut self, rank: usize, time: f64) -> Self {
        self.crashes.push(Crash { rank, time });
        self
    }

    /// Returns `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty()
            && self.links.is_empty()
            && self.losses.is_empty()
            && self.crashes.is_empty()
    }

    /// Returns a copy of the plan with a different loss-decision seed —
    /// the knob replication sweeps turn to vary the loss pattern while
    /// keeping the deterministic slowdowns and crashes fixed.
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the plan against a machine of `ranks` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] when a fault references a
    /// rank outside the machine, a window is empty or non-finite, a
    /// factor is not positive, a loss rate falls outside `[0, 1)`, two
    /// slowdown windows of the same rank overlap, or a rank crashes
    /// twice.
    pub fn validate(&self, ranks: usize) -> Result<(), SimError> {
        let bad = |detail: String| Err(SimError::InvalidFaultPlan { detail });
        let check_rank = |what: &str, rank: usize| {
            if rank >= ranks {
                Err(SimError::InvalidFaultPlan {
                    detail: format!("{what} references rank {rank}, machine has {ranks}"),
                })
            } else {
                Ok(())
            }
        };
        let finite_window = |what: &str, start: f64, end: f64| {
            if !(start.is_finite() && end.is_finite() && start >= 0.0 && end > start) {
                Err(SimError::InvalidFaultPlan {
                    detail: format!("{what} window [{start}, {end}) is not a valid time window"),
                })
            } else {
                Ok(())
            }
        };
        for s in &self.slowdowns {
            check_rank("slowdown", s.rank)?;
            finite_window("slowdown", s.start, s.end)?;
            if !(s.factor.is_finite() && s.factor > 0.0) {
                return bad(format!("slowdown factor {} must be positive", s.factor));
            }
        }
        // Overlapping windows on one rank would make the piecewise
        // integration order-dependent; reject them outright.
        for (i, a) in self.slowdowns.iter().enumerate() {
            for b in &self.slowdowns[i + 1..] {
                if a.rank == b.rank && a.start < b.end && b.start < a.end {
                    return bad(format!(
                        "slowdown windows [{}, {}) and [{}, {}) overlap on rank {}",
                        a.start, a.end, b.start, b.end, a.rank
                    ));
                }
            }
        }
        for l in &self.links {
            check_rank("link fault", l.src)?;
            check_rank("link fault", l.dst)?;
            finite_window("link fault", l.start, l.end)?;
            if !(l.latency_factor.is_finite() && l.latency_factor > 0.0) {
                return bad(format!(
                    "link latency factor {} must be positive",
                    l.latency_factor
                ));
            }
            if !(l.bandwidth_factor.is_finite() && l.bandwidth_factor > 0.0) {
                return bad(format!(
                    "link bandwidth factor {} must be positive",
                    l.bandwidth_factor
                ));
            }
        }
        for l in &self.losses {
            if let Some(src) = l.src {
                check_rank("message loss", src)?;
            }
            if let Some(dst) = l.dst {
                check_rank("message loss", dst)?;
            }
            if !(l.rate.is_finite() && (0.0..1.0).contains(&l.rate)) {
                return bad(format!("loss rate {} must lie in [0, 1)", l.rate));
            }
            if !(l.timeout.is_finite() && l.timeout > 0.0) {
                return bad(format!("loss timeout {} must be positive", l.timeout));
            }
            if !(l.backoff.is_finite() && l.backoff >= 1.0) {
                return bad(format!("loss backoff {} must be at least 1", l.backoff));
            }
        }
        for c in &self.crashes {
            check_rank("crash", c.rank)?;
            if !(c.time.is_finite() && c.time >= 0.0) {
                return bad(format!(
                    "crash time {} must be finite and non-negative",
                    c.time
                ));
            }
        }
        for (i, a) in self.crashes.iter().enumerate() {
            if self.crashes[i + 1..].iter().any(|b| b.rank == a.rank) {
                return bad(format!("rank {} crashes more than once", a.rank));
            }
        }
        Ok(())
    }

    /// Parses a plan from the TOML subset `limba simulate --faults`
    /// accepts: an optional top-level `seed`, then any number of
    /// `[[slowdown]]`, `[[link]]`, `[[loss]]`, and `[[crash]]` tables
    /// with `key = value` numeric entries. `#` starts a comment.
    ///
    /// ```
    /// let plan = limba_mpisim::FaultPlan::parse_toml(r#"
    ///     seed = 7
    ///     [[slowdown]]
    ///     rank = 3
    ///     start = 0.5
    ///     end = 2.0
    ///     factor = 4.0
    ///     [[crash]]
    ///     rank = 1
    ///     time = 1.5
    /// "#).unwrap();
    /// assert_eq!(plan.slowdowns.len(), 1);
    /// assert_eq!(plan.crashes.len(), 1);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] naming the offending line
    /// on syntax errors, unknown tables or keys, and missing fields.
    pub fn parse_toml(text: &str) -> Result<FaultPlan, SimError> {
        parse_toml(text)
    }
}

/// Which table a parsed `key = value` line belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Section {
    Top,
    Slowdown,
    Link,
    Loss,
    Crash,
}

/// One table's accumulated fields, flushed when the next table opens.
#[derive(Default)]
struct Fields {
    entries: Vec<(String, f64)>,
}

impl Fields {
    fn get(&self, key: &str) -> Option<f64> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn require(&self, table: &str, key: &str, line: usize) -> Result<f64, SimError> {
        self.get(key).ok_or_else(|| SimError::InvalidFaultPlan {
            detail: format!("[[{table}]] ending before line {line} is missing `{key}`"),
        })
    }

    fn rank_field(&self, table: &str, key: &str, line: usize) -> Result<usize, SimError> {
        let v = self.require(table, key, line)?;
        if v.fract() != 0.0 || v < 0.0 {
            return Err(SimError::InvalidFaultPlan {
                detail: format!("[[{table}]] `{key}` must be a non-negative integer, got {v}"),
            });
        }
        Ok(v as usize)
    }
}

fn parse_toml(text: &str) -> Result<FaultPlan, SimError> {
    let err = |line: usize, detail: String| SimError::InvalidFaultPlan {
        detail: format!("line {line}: {detail}"),
    };
    let mut plan = FaultPlan::default();
    let mut section = Section::Top;
    let mut fields = Fields::default();

    // Flushes the open table into the plan when the next one starts.
    fn flush(
        plan: &mut FaultPlan,
        section: Section,
        fields: &Fields,
        line: usize,
    ) -> Result<(), SimError> {
        match section {
            Section::Top => {}
            Section::Slowdown => plan.slowdowns.push(SlowdownWindow {
                rank: fields.rank_field("slowdown", "rank", line)?,
                start: fields.require("slowdown", "start", line)?,
                end: fields.require("slowdown", "end", line)?,
                factor: fields.require("slowdown", "factor", line)?,
            }),
            Section::Link => plan.links.push(LinkFault {
                src: fields.rank_field("link", "src", line)?,
                dst: fields.rank_field("link", "dst", line)?,
                start: fields.require("link", "start", line)?,
                end: fields.require("link", "end", line)?,
                latency_factor: fields.get("latency_factor").unwrap_or(1.0),
                bandwidth_factor: fields.get("bandwidth_factor").unwrap_or(1.0),
            }),
            Section::Loss => plan.losses.push(MessageLoss {
                src: fields
                    .get("src")
                    .map(|_| fields.rank_field("loss", "src", line))
                    .transpose()?,
                dst: fields
                    .get("dst")
                    .map(|_| fields.rank_field("loss", "dst", line))
                    .transpose()?,
                rate: fields.require("loss", "rate", line)?,
                max_retries: fields.rank_field("loss", "max_retries", line)? as u32,
                timeout: fields.require("loss", "timeout", line)?,
                backoff: fields.get("backoff").unwrap_or(2.0),
            }),
            Section::Crash => plan.crashes.push(Crash {
                rank: fields.rank_field("crash", "rank", line)?,
                time: fields.require("crash", "time", line)?,
            }),
        }
        Ok(())
    }

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw.split_once('#') {
            Some((code, _)) => code.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(table) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            flush(&mut plan, section, &fields, lineno)?;
            fields = Fields::default();
            section = match table.trim() {
                "slowdown" => Section::Slowdown,
                "link" => Section::Link,
                "loss" => Section::Loss,
                "crash" => Section::Crash,
                other => return Err(err(lineno, format!("unknown table [[{other}]]"))),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        let parsed: f64 = value
            .parse()
            .map_err(|_| err(lineno, format!("`{key}` value {value:?} is not a number")))?;
        match (section, key) {
            (Section::Top, "seed") => {
                if parsed.fract() != 0.0 || parsed < 0.0 {
                    return Err(err(
                        lineno,
                        "seed must be a non-negative integer".to_string(),
                    ));
                }
                plan.seed = parsed as u64;
            }
            (Section::Top, other) => {
                return Err(err(lineno, format!("unknown top-level key `{other}`")))
            }
            _ => fields.entries.push((key.to_string(), parsed)),
        }
    }
    flush(&mut plan, section, &fields, text.lines().count() + 1)?;
    Ok(plan)
}

/// Report of what a fault plan actually did to one run. Attached to
/// every [`SimOutput`](crate::SimOutput); empty (the default) for runs
/// without faults. Both engines produce identical reports for the same
/// plan — the equivalence harness compares them alongside traces and
/// statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultReport {
    /// Ranks that crashed, `(rank, local time of the crash)`, ascending
    /// by rank. The crash time is the rank's clock when it halted, which
    /// is at or after the planned time (ops are atomic).
    pub crashes: Vec<(usize, f64)>,
    /// Ranks that could not finish because a crashed rank never produced
    /// a message or collective arrival they were waiting on. Ascending.
    pub interrupted: Vec<usize>,
    /// Total lost transmission attempts across all messages.
    pub dropped_attempts: u64,
    /// Messages that needed at least one retransmission.
    pub retried_messages: u64,
}

impl FaultReport {
    /// Returns `true` when no fault visibly affected the run's
    /// completion (timing perturbations may still have occurred).
    pub fn is_clean(&self) -> bool {
        self.crashes.is_empty()
            && self.interrupted.is_empty()
            && self.dropped_attempts == 0
            && self.retried_messages == 0
    }

    /// Ranks whose traces are truncated: crashed plus interrupted.
    pub fn incomplete_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.crashes.iter().map(|&(r, _)| r).collect();
        out.extend(self.interrupted.iter().copied());
        out.sort_unstable();
        out
    }
}

/// SplitMix64 finalizer: the bit mixer behind every loss decision (and,
/// via [`crate::balance`], every balancing tie-break).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` value for attempt `attempt` of message `seq` on
/// channel `(src, dst)` under `seed`. A pure function of its arguments:
/// the source of all loss determinism.
fn loss_unit(seed: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
    let mut h = mix(seed ^ 0x9e37_79b9_7f4a_7c15);
    h = mix(h ^ (src as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
    h = mix(h ^ (dst as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53));
    h = mix(h ^ seq);
    h = mix(h ^ u64::from(attempt));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-run mutable fault state shared (in structure, not instance) by
/// both engines. All methods are pure functions of the plan and the
/// per-channel message sequence counters; the counters advance in
/// channel-FIFO order, which both engines execute identically, so the
/// two engines observe identical fault decisions.
#[derive(Debug)]
pub(crate) struct FaultState {
    seed: u64,
    /// Per-rank slowdown windows `(start, end, factor)` sorted by start.
    slow: Vec<Vec<(f64, f64, f64)>>,
    /// Link faults, scanned linearly (plans are small).
    links: Vec<LinkFault>,
    /// Loss specs in plan order; first match wins.
    losses: Vec<MessageLoss>,
    /// Planned crash time per rank (`INFINITY` = never).
    crash_at: Vec<f64>,
    /// Actual crash time per rank, recorded at the halting op boundary.
    crashed: Vec<Option<f64>>,
    /// Ranks in `crashed` so far: the balancing layer rebuilds its
    /// alive set only when this moves.
    crash_count: usize,
    /// Next message sequence number per live channel, keyed
    /// `src * n + dst`. Sparse: a channel occupies a slot only once it
    /// carries a message, so this is O(live channels) where the dense
    /// table it replaced was a calloc'd 8·n² bytes.
    seq: crate::arena::SparseMap<u64>,
    n: usize,
    /// Running totals for the [`FaultReport`].
    pub dropped_attempts: u64,
    pub retried_messages: u64,
}

impl FaultState {
    pub(crate) fn new(plan: &FaultPlan, n: usize) -> Self {
        let mut slow: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); n];
        for s in &plan.slowdowns {
            slow[s.rank].push((s.start, s.end, s.factor));
        }
        for windows in &mut slow {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let mut crash_at = vec![f64::INFINITY; n];
        for c in &plan.crashes {
            crash_at[c.rank] = c.time;
        }
        FaultState {
            seed: plan.seed,
            slow,
            links: plan.links.clone(),
            losses: plan.losses.clone(),
            crash_at,
            crashed: vec![None; n],
            crash_count: 0,
            seq: crate::arena::SparseMap::new(),
            n,
            dropped_attempts: 0,
            retried_messages: 0,
        }
    }

    /// Should `rank` halt before executing an op at local time `now`?
    pub(crate) fn should_crash(&self, rank: usize, now: f64) -> bool {
        now >= self.crash_at[rank]
    }

    /// The planned crash time of `rank`, `INFINITY` when none — the
    /// engines' streak loops hoist this so the per-op crash check is a
    /// single clock compare.
    pub(crate) fn crash_time(&self, rank: usize) -> f64 {
        self.crash_at[rank]
    }

    /// Records the halting time of a crashed rank (idempotent).
    pub(crate) fn record_crash(&mut self, rank: usize, now: f64) {
        if self.crashed[rank].is_none() {
            self.crashed[rank] = Some(now);
            self.crash_count += 1;
        }
    }

    /// Ranks that have halted so far.
    pub(crate) fn crash_count(&self) -> usize {
        self.crash_count
    }

    /// `true` when `rank` has already halted.
    pub(crate) fn has_crashed(&self, rank: usize) -> bool {
        self.crashed[rank].is_some()
    }

    /// `true` when any rank has halted — the condition under which
    /// quiescence means "interrupted run" instead of deadlock.
    pub(crate) fn any_crashed(&self) -> bool {
        self.crash_count > 0
    }

    /// `true` when the plan schedules at least one crash. Constant for
    /// the life of the run; the engines hoist their per-op and per-pop
    /// crash checks behind it so crash-free fault plans (slowdowns,
    /// link faults, losses) pay nothing for them on the hot path.
    pub(crate) fn crash_planned(&self) -> bool {
        self.crash_at.iter().any(|t| t.is_finite())
    }

    /// End time of a compute burst of `duration` seconds starting at
    /// `begin` on `rank`, integrating piecewise through the rank's
    /// slowdown windows. Exact passthrough (`begin + duration`) when the
    /// rank has no windows.
    pub(crate) fn compute_end(&self, rank: usize, begin: f64, duration: f64) -> f64 {
        let windows = &self.slow[rank];
        if windows.is_empty() {
            return begin + duration;
        }
        let mut t = begin;
        let mut remaining = duration;
        for &(ws, we, f) in windows {
            if remaining <= 0.0 {
                break;
            }
            if we <= t {
                continue;
            }
            if ws > t {
                let free = ws - t;
                if remaining <= free {
                    return t + remaining;
                }
                remaining -= free;
                t = ws;
            }
            // Inside [t, we): progress at 1/f of nominal speed.
            let capacity = (we - t) / f;
            if remaining <= capacity {
                return t + remaining * f;
            }
            remaining -= capacity;
            t = we;
        }
        t + remaining
    }

    /// Adjusts a message's transfer time and latency for link faults
    /// active when the transfer starts at `at`, and adds the loss/retry
    /// delay for this channel's next message. Consumes one sequence
    /// number per call — call exactly once per delivered message, at
    /// its resolution point (eager push, or rendezvous match).
    pub(crate) fn message_costs(
        &mut self,
        src: usize,
        dst: usize,
        at: f64,
        transfer: f64,
        latency: f64,
    ) -> (f64, f64, f64) {
        let (mut transfer, mut latency) = (transfer, latency);
        for l in &self.links {
            if l.src == src && l.dst == dst && at >= l.start && at < l.end {
                latency *= l.latency_factor;
                transfer *= l.bandwidth_factor;
            }
        }
        let counter = self.seq.get_or_default((src * self.n + dst) as u64);
        let seq = *counter;
        *counter += 1;
        let mut delay = 0.0;
        if let Some(loss) = self
            .losses
            .iter()
            .find(|l| l.src.is_none_or(|s| s == src) && l.dst.is_none_or(|d| d == dst))
        {
            let mut attempt = 0u32;
            while attempt < loss.max_retries
                && loss_unit(self.seed, src, dst, seq, attempt) < loss.rate
            {
                delay += loss.timeout * loss.backoff.powi(attempt as i32);
                attempt += 1;
            }
            self.dropped_attempts += u64::from(attempt);
            if attempt > 0 {
                self.retried_messages += 1;
            }
        }
        (transfer, latency, delay)
    }

    /// Builds the report once the run reaches quiescence. `unfinished`
    /// yields every rank whose program did not complete (crashed ranks
    /// included); interrupted = unfinished minus crashed.
    pub(crate) fn report(&self, unfinished: impl Iterator<Item = usize>) -> FaultReport {
        let crashes: Vec<(usize, f64)> = self
            .crashed
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|t| (r, t)))
            .collect();
        let interrupted: Vec<usize> = unfinished.filter(|&r| self.crashed[r].is_none()).collect();
        FaultReport {
            crashes,
            interrupted,
            dropped_attempts: self.dropped_attempts,
            retried_messages: self.retried_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate(4).unwrap();
    }

    #[test]
    fn builder_round_trip_and_validation() {
        let plan = FaultPlan::new(9)
            .with_slowdown(2, 0.5, 1.5, 3.0)
            .with_link_fault(0, 1, 0.0, 2.0, 4.0, 8.0)
            .with_message_loss(0.1, 3, 1e-3, 2.0)
            .with_crash(3, 1.0);
        plan.validate(4).unwrap();
        assert!(!plan.is_empty());
        // Out-of-range ranks are rejected.
        assert!(matches!(
            plan.validate(3),
            Err(SimError::InvalidFaultPlan { .. })
        ));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let bad = [
            FaultPlan::new(0).with_slowdown(0, 1.0, 1.0, 2.0), // empty window
            FaultPlan::new(0).with_slowdown(0, 0.0, 1.0, 0.0), // zero factor
            FaultPlan::new(0)
                .with_slowdown(0, 0.0, 2.0, 2.0)
                .with_slowdown(0, 1.0, 3.0, 2.0), // overlap
            FaultPlan::new(0).with_message_loss(1.0, 1, 1e-3, 2.0), // rate = 1
            FaultPlan::new(0).with_message_loss(0.5, 1, 0.0, 2.0), // zero timeout
            FaultPlan::new(0).with_message_loss(0.5, 1, 1e-3, 0.5), // backoff < 1
            FaultPlan::new(0).with_crash(0, f64::NAN),
            FaultPlan::new(0).with_crash(0, 1.0).with_crash(0, 2.0), // double crash
            FaultPlan::new(0).with_link_fault(0, 1, 0.0, 1.0, -1.0, 1.0),
        ];
        for plan in bad {
            assert!(
                matches!(plan.validate(4), Err(SimError::InvalidFaultPlan { .. })),
                "plan {plan:?} should be invalid"
            );
        }
    }

    #[test]
    fn compute_end_integrates_piecewise() {
        let plan = FaultPlan::new(0).with_slowdown(0, 1.0, 2.0, 4.0);
        let fs = FaultState::new(&plan, 1);
        // Entirely before the window: unchanged.
        assert_eq!(fs.compute_end(0, 0.0, 0.5), 0.5);
        // 0.5 s free + 0.5 s of work inside the window at 1/4 speed:
        // window holds 0.25 s of work per second, so 0.5 s of work needs
        // 2 s of window — more than the 1 s window has. Work done inside:
        // 0.25 s; remaining 0.25 s after the window → end 2.25.
        let end = fs.compute_end(0, 0.5, 1.0);
        assert!((end - 2.25).abs() < 1e-12, "end = {end}");
        // Starting inside the window.
        let end = fs.compute_end(0, 1.5, 0.1);
        assert!((end - 1.9).abs() < 1e-12, "end = {end}");
        // After the window: unchanged.
        assert_eq!(fs.compute_end(0, 3.0, 1.0), 4.0);
    }

    #[test]
    fn compute_end_without_windows_is_exact_passthrough() {
        let fs = FaultState::new(&FaultPlan::new(0), 2);
        for (t0, d) in [(0.0, 1.0), (0.1, 1e-6), (123.456, 0.0)] {
            assert_eq!(fs.compute_end(1, t0, d), t0 + d);
        }
    }

    #[test]
    fn loss_decisions_are_deterministic_and_capped() {
        let plan = FaultPlan::new(11).with_message_loss(0.9, 4, 1e-3, 2.0);
        let mut a = FaultState::new(&plan, 2);
        let mut b = FaultState::new(&plan, 2);
        for _ in 0..64 {
            assert_eq!(
                a.message_costs(0, 1, 0.0, 1e-4, 1e-5),
                b.message_costs(0, 1, 0.0, 1e-4, 1e-5)
            );
        }
        // At rate 0.9 with 64 messages, retries must have occurred and
        // every message's attempts are capped at max_retries.
        assert!(a.retried_messages > 0);
        assert!(a.dropped_attempts <= 4 * 64);
        // Backoff sums are reproducible from the counters alone.
        assert_eq!(a.dropped_attempts, b.dropped_attempts);
    }

    #[test]
    fn link_faults_apply_only_inside_their_window() {
        let plan = FaultPlan::new(0).with_link_fault(0, 1, 1.0, 2.0, 3.0, 5.0);
        let mut fs = FaultState::new(&plan, 2);
        let (t, l, d) = fs.message_costs(0, 1, 1.5, 1e-4, 1e-5);
        assert!((t - 5e-4).abs() < 1e-15);
        assert!((l - 3e-5).abs() < 1e-15);
        assert_eq!(d, 0.0);
        // Outside the window and on other links: untouched.
        assert_eq!(fs.message_costs(0, 1, 2.5, 1e-4, 1e-5), (1e-4, 1e-5, 0.0));
        assert_eq!(fs.message_costs(1, 0, 1.5, 1e-4, 1e-5), (1e-4, 1e-5, 0.0));
    }

    #[test]
    fn toml_round_trip_parses_all_tables() {
        let text = r#"
            # chaos scenario
            seed = 42

            [[slowdown]]
            rank = 2
            start = 0.25
            end = 1.75   # transient
            factor = 3.5

            [[link]]
            src = 0
            dst = 3
            start = 0.0
            end = 9.0
            latency_factor = 10.0
            bandwidth_factor = 4.0

            [[loss]]
            rate = 0.05
            max_retries = 4
            timeout = 0.001
            backoff = 2.0

            [[loss]]
            src = 1
            dst = 2
            rate = 0.5
            max_retries = 2
            timeout = 0.01

            [[crash]]
            rank = 3
            time = 2.5
        "#;
        let plan = FaultPlan::parse_toml(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.slowdowns,
            vec![SlowdownWindow {
                rank: 2,
                start: 0.25,
                end: 1.75,
                factor: 3.5
            }]
        );
        assert_eq!(plan.links.len(), 1);
        assert_eq!(plan.losses.len(), 2);
        assert_eq!(plan.losses[1].src, Some(1));
        assert_eq!(plan.losses[1].backoff, 2.0); // default
        assert_eq!(plan.crashes, vec![Crash { rank: 3, time: 2.5 }]);
        plan.validate(4).unwrap();
    }

    #[test]
    fn toml_errors_name_the_line() {
        let err = FaultPlan::parse_toml("[[tornado]]")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 1"), "{err}");
        let err = FaultPlan::parse_toml("seed = banana")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a number"), "{err}");
        let err = FaultPlan::parse_toml("[[crash]]\nrank = 0")
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing `time`"), "{err}");
        let err = FaultPlan::parse_toml("just words").unwrap_err().to_string();
        assert!(err.contains("key = value"), "{err}");
    }

    #[test]
    fn fault_report_helpers() {
        let report = FaultReport {
            crashes: vec![(1, 0.5)],
            interrupted: vec![0, 3],
            dropped_attempts: 2,
            retried_messages: 1,
        };
        assert!(!report.is_clean());
        assert_eq!(report.incomplete_ranks(), vec![0, 1, 3]);
        assert!(FaultReport::default().is_clean());
    }
}
