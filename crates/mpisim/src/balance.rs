//! In-loop dynamic load balancing.
//!
//! The paper diagnoses load imbalance *post mortem*; this module lets
//! the simulator act on it *mid-run*. A [`BalancePlan`] attaches one
//! rebalancing policy to a simulation: at every `Op::Compute` boundary
//! the policy may migrate a fraction of the op's nominal work to less
//! loaded ranks, modeled in the timing domain — the donor's compute op
//! finishes when both its local remainder and the offloaded chunks
//! (including deterministic migration transfer costs) are done.
//!
//! Three policies are provided:
//!
//! * work stealing — threshold-triggered: a rank whose projected
//!   cumulative load exceeds `threshold ×` the mean sheds its excess to
//!   the least-loaded alive rank;
//! * diffusion — nearest-neighbor flow over the machine's network
//!   topology (the link-override graph when one is configured, a ring
//!   otherwise), after Demirel & Sbalzarini's diffusion scheme;
//! * anticipatory — driven by the windowed least-squares trend
//!   detector ([`limba_stats::describe::least_squares_slope`], the same
//!   engine behind the imbalance-evolution analysis): a rank whose load
//!   is *trending* away from the pack sheds work before the imbalance
//!   materializes, after Boulmier et al.'s informed criteria.
//!
//! # Determinism rules
//!
//! The hook contract mirrors the fault layer's shared `FaultState`
//! exactly:
//!
//! * decisions are pure functions of the plan and the shared per-run
//!   load accounts — no RNG stream; tie-breaks hash logical coordinates
//!   (seed, donor, donor's op count) through SplitMix64;
//! * both engines execute the same compute ops in the same global
//!   order, so the shared `BalanceState` observes identical decision
//!   sequences and the two engines stay bit-identical;
//! * each simulation is single-threaded, so replicated sweeps are
//!   `--jobs`-invariant by construction;
//! * every proposed migration passes a *profitability guard* — it is
//!   applied only if it strictly lowers the deciding op's completion
//!   time given current state — so enabling a policy never slows the
//!   op it fires on (declined proposals are counted, not applied);
//! * a policy that never fires is bit-identical to no policy at all:
//!   the no-migration arithmetic is the exact unbalanced expression.
//!
//! Migrations compose with fault plans: a crashed rank is never chosen
//! as a migration target, and work a rank donated before crashing was
//! executed exactly once on the target — accounted in the
//! [`BalanceReport`], never resurrected.
//!
//! # Cost
//!
//! The load accounts keep their aggregates current as loads change
//! rather than rescanning every rank per compute op: the alive set is
//! rebuilt only when a rank crashes, the warmup gate tracks the minimum
//! sample count and how many alive ranks sit at it, and the
//! least-loaded target is a query on a min tournament tree. Two sums
//! stay O(P) — the alive-mean load (once per stealing decision, and per
//! anticipatory trend sample) and the anticipatory mean op cost —
//! because they must round exactly like a left-to-right sum in rank
//! order, which no running total reproduces. Diffusion costs
//! O(degree + log P) per compute op, stealing O(log P) plus one sum.

use std::cmp::Ordering;

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::faults::{mix, FaultState};

/// Recent-sample capacity of the per-rank trend windows.
const WINDOW_CAP: usize = 16;

/// Default cap on the fraction of one compute op a policy may migrate.
pub const DEFAULT_MAX_FRACTION: f64 = 0.5;

/// Default migration payload model: bytes shipped per nominal second of
/// migrated work (state that must travel with the work).
pub const DEFAULT_PAYLOAD_BYTES_PER_SECOND: f64 = 1e6;

/// One proposed migration: `seconds` of nominal work to `target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Move {
    /// Receiving rank.
    target: usize,
    /// Nominal (pre-speed) seconds of work to move.
    seconds: f64,
}

/// A rebalancing policy: decides, at each compute-op boundary, which
/// chunks of the op's work should migrate where. The executor performs
/// the migrations (timing, accounting, profitability guard); the policy
/// only proposes.
///
/// Implementations must be pure functions of the [`LoadView`] — no
/// interior mutability, no ambient randomness — or the two engines
/// diverge and every differential test fails.
pub(crate) trait BalancePolicy {
    /// Short policy name used in reports, signatures, and TOML.
    fn name(&self) -> &'static str;

    /// Proposes migrations for the compute op of `nominal` seconds that
    /// `donor` is about to execute. Targets must be alive and distinct
    /// from the donor; proposals exceeding the op's work are clamped by
    /// the executor.
    fn decide(&self, donor: usize, nominal: f64, view: &dyn LoadView) -> Vec<Move>;
}

/// Threshold-triggered work stealing: when the donor's projected
/// cumulative load exceeds `threshold ×` the alive-mean, the excess
/// (capped at `max_fraction` of the op) moves to the least-loaded alive
/// rank, ties broken by a SplitMix64 hash of the decision coordinates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkStealing {
    /// Relative trigger: a projected load above `threshold × mean`
    /// sheds work. Must be ≥ 1.
    threshold: f64,
    /// Cap on the migrated fraction of one compute op, in `(0, 1]`.
    max_fraction: f64,
}

impl BalancePolicy for WorkStealing {
    fn name(&self) -> &'static str {
        "stealing"
    }

    fn decide(&self, donor: usize, nominal: f64, view: &dyn LoadView) -> Vec<Move> {
        if view.min_alive_samples() == 0 {
            return Vec::new(); // warmup: every rank establishes a baseline first
        }
        let n_alive = view.alive_count();
        if n_alive < 2 {
            return Vec::new();
        }
        let projected = view.load(donor) + nominal;
        let mean = view.mean_alive_load() + nominal / n_alive as f64;
        if projected <= self.threshold * mean {
            return Vec::new();
        }
        let seconds = (projected - mean).min(nominal * self.max_fraction);
        if seconds <= 0.0 {
            return Vec::new();
        }
        match view.least_loaded_alive(donor) {
            Some(target) => vec![Move { target, seconds }],
            None => Vec::new(),
        }
    }
}

/// Diffusion balancing over the machine's network topology: the donor
/// pushes `rate`-scaled flows toward every less-loaded alive neighbor,
/// proportional to the load difference — Demirel & Sbalzarini's scheme
/// restricted to one exchange per compute op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Diffusion {
    /// Diffusion coefficient in `(0, 1]`: the fraction of each pairwise
    /// load difference that flows per decision.
    rate: f64,
    /// Cap on the migrated fraction of one compute op, in `(0, 1]`.
    max_fraction: f64,
}

impl BalancePolicy for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn decide(&self, donor: usize, nominal: f64, view: &dyn LoadView) -> Vec<Move> {
        if view.min_alive_samples() == 0 {
            return Vec::new();
        }
        let neighbors: Vec<usize> = view
            .neighbors(donor)
            .iter()
            .copied()
            .filter(|&t| view.alive(t))
            .collect();
        if neighbors.is_empty() {
            return Vec::new();
        }
        let projected = view.load(donor) + nominal;
        let scale = self.rate / (neighbors.len() + 1) as f64;
        let mut moves: Vec<Move> = neighbors
            .into_iter()
            .filter(|&t| view.load(t) < projected)
            .map(|t| Move {
                target: t,
                seconds: scale * (projected - view.load(t)),
            })
            .filter(|m| m.seconds > nominal * 1e-12)
            .collect();
        let total: f64 = moves.iter().map(|m| m.seconds).sum();
        let cap = nominal * self.max_fraction;
        if total > cap {
            let shrink = cap / total;
            for m in &mut moves {
                m.seconds *= shrink;
            }
        }
        moves
    }
}

/// Anticipatory rebalancing: watches each rank's load *trend* through
/// the windowed least-squares slope detector and sheds the predicted
/// excess of a rank pulling away from the pack before the imbalance
/// materializes — Boulmier et al.'s informed/anticipatory criterion.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Anticipatory {
    /// Trend window length in compute-op samples, ≥ 2 (capped at 16).
    window: usize,
    /// Minimum predicted drift, relative to the mean per-op cost, that
    /// triggers a migration. ≥ 0; larger is more conservative.
    sensitivity: f64,
    /// Cap on the migrated fraction of one compute op, in `(0, 1]`.
    max_fraction: f64,
}

impl BalancePolicy for Anticipatory {
    fn name(&self) -> &'static str {
        "anticipatory"
    }

    fn decide(&self, donor: usize, nominal: f64, view: &dyn LoadView) -> Vec<Move> {
        let window = view.window(donor);
        if window.len() < self.window.min(WINDOW_CAP) {
            return Vec::new();
        }
        let slope = trend(window, self.window);
        let predicted_drift = slope * self.window as f64;
        let mean_op = view.mean_op_cost();
        if predicted_drift <= self.sensitivity * mean_op {
            return Vec::new();
        }
        let seconds = predicted_drift.min(nominal * self.max_fraction);
        if seconds <= 0.0 {
            return Vec::new();
        }
        match view.least_loaded_alive(donor) {
            Some(target) => vec![Move { target, seconds }],
            None => Vec::new(),
        }
    }
}

/// Least-squares slope of a rank's relative load (load minus the
/// alive-mean at sample time) over the last `take` samples of its trend
/// `window` — the windowed trend detector. Positive: the rank is
/// pulling away from the pack.
fn trend(window: &[f64], take: usize) -> f64 {
    let take = take.min(window.len());
    let points: Vec<(f64, f64)> = window[window.len() - take..]
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64, v))
        .collect();
    limba_stats::describe::least_squares_slope(&points)
}

/// The policy attached to a plan.
#[derive(Debug, Clone, PartialEq)]
enum PolicyKind {
    Stealing(WorkStealing),
    Diffusion(Diffusion),
    Anticipatory(Anticipatory),
}

/// A deterministic rebalancing plan: one rebalancing policy plus the
/// migration cost model, serializable to the same TOML subset as
/// [`crate::FaultPlan`]. Built via the policy constructors and `with_*`
/// modifiers; attach it to a run through the `balance` argument of
/// [`Simulator::run_configured`](crate::Simulator::run_configured) and
/// its parallel, streaming, and polling counterparts.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancePlan {
    seed: u64,
    /// Bytes shipped per nominal second of migrated work.
    payload_bytes_per_second: f64,
    kind: PolicyKind,
}

impl BalancePlan {
    /// A work-stealing plan with trigger `threshold` (≥ 1).
    pub fn stealing(seed: u64, threshold: f64) -> BalancePlan {
        BalancePlan {
            seed,
            payload_bytes_per_second: DEFAULT_PAYLOAD_BYTES_PER_SECOND,
            kind: PolicyKind::Stealing(WorkStealing {
                threshold,
                max_fraction: DEFAULT_MAX_FRACTION,
            }),
        }
    }

    /// A diffusion plan with coefficient `rate` in `(0, 1]`.
    pub fn diffusion(seed: u64, rate: f64) -> BalancePlan {
        BalancePlan {
            seed,
            payload_bytes_per_second: DEFAULT_PAYLOAD_BYTES_PER_SECOND,
            kind: PolicyKind::Diffusion(Diffusion {
                rate,
                max_fraction: DEFAULT_MAX_FRACTION,
            }),
        }
    }

    /// An anticipatory plan watching `window` samples with trigger
    /// `sensitivity`.
    pub fn anticipatory(seed: u64, window: usize, sensitivity: f64) -> BalancePlan {
        BalancePlan {
            seed,
            payload_bytes_per_second: DEFAULT_PAYLOAD_BYTES_PER_SECOND,
            kind: PolicyKind::Anticipatory(Anticipatory {
                window,
                sensitivity,
                max_fraction: DEFAULT_MAX_FRACTION,
            }),
        }
    }

    /// Replaces the tie-break seed (see `seed` in the TOML format).
    /// Replicated sweeps derive a per-replication seed exactly as fault
    /// plans do.
    pub fn with_seed(mut self, seed: u64) -> BalancePlan {
        self.seed = seed;
        self
    }

    /// Caps the fraction of one compute op a single decision may move.
    pub fn with_max_fraction(mut self, max_fraction: f64) -> BalancePlan {
        match &mut self.kind {
            PolicyKind::Stealing(p) => p.max_fraction = max_fraction,
            PolicyKind::Diffusion(p) => p.max_fraction = max_fraction,
            PolicyKind::Anticipatory(p) => p.max_fraction = max_fraction,
        }
        self
    }

    /// Sets the migration payload model: bytes shipped per nominal
    /// second of migrated work.
    pub fn with_payload_bytes_per_second(mut self, bytes: f64) -> BalancePlan {
        self.payload_bytes_per_second = bytes;
        self
    }

    /// The tie-break seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The attached policy's short name: `stealing`, `diffusion`, or
    /// `anticipatory`.
    pub fn policy_name(&self) -> &'static str {
        self.policy().name()
    }

    /// A compact parameter signature, e.g. `stealing:1.15:0.5` — stable
    /// input for advisor intervention signatures and checkpoints.
    pub fn signature(&self) -> String {
        match &self.kind {
            PolicyKind::Stealing(p) => format!("stealing:{}:{}", p.threshold, p.max_fraction),
            PolicyKind::Diffusion(p) => format!("diffusion:{}:{}", p.rate, p.max_fraction),
            PolicyKind::Anticipatory(p) => format!(
                "anticipatory:{}:{}:{}",
                p.window, p.sensitivity, p.max_fraction
            ),
        }
    }

    /// A human-readable one-liner, e.g. `stealing (threshold 1.15)`.
    pub fn summary(&self) -> String {
        match &self.kind {
            PolicyKind::Stealing(p) => format!("stealing (threshold {})", p.threshold),
            PolicyKind::Diffusion(p) => format!("diffusion (rate {})", p.rate),
            PolicyKind::Anticipatory(p) => format!(
                "anticipatory (window {}, sensitivity {})",
                p.window, p.sensitivity
            ),
        }
    }

    fn policy(&self) -> &dyn BalancePolicy {
        match &self.kind {
            PolicyKind::Stealing(p) => p,
            PolicyKind::Diffusion(p) => p,
            PolicyKind::Anticipatory(p) => p,
        }
    }

    /// The policy's migration cap: the largest fraction of one compute
    /// op that may migrate away. At least `1 − max_fraction` of every
    /// op always executes locally — the sound floor prediction models
    /// build on.
    pub fn max_fraction(&self) -> f64 {
        match &self.kind {
            PolicyKind::Stealing(p) => p.max_fraction,
            PolicyKind::Diffusion(p) => p.max_fraction,
            PolicyKind::Anticipatory(p) => p.max_fraction,
        }
    }

    /// Checks every parameter range. Called by the simulator before a
    /// run; call it yourself after [`BalancePlan::parse_toml`] on
    /// untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBalancePlan`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| Err(SimError::InvalidBalancePlan { detail });
        let fraction_ok = |f: f64| f.is_finite() && f > 0.0 && f <= 1.0;
        if !self.payload_bytes_per_second.is_finite() || self.payload_bytes_per_second < 0.0 {
            return bad(format!(
                "payload_bytes_per_second must be finite and >= 0, got {}",
                self.payload_bytes_per_second
            ));
        }
        if !fraction_ok(self.max_fraction()) {
            return bad(format!(
                "max_fraction must be in (0, 1], got {}",
                self.max_fraction()
            ));
        }
        match &self.kind {
            PolicyKind::Stealing(p) => {
                if !p.threshold.is_finite() || p.threshold < 1.0 {
                    return bad(format!(
                        "stealing threshold must be finite and >= 1, got {}",
                        p.threshold
                    ));
                }
            }
            PolicyKind::Diffusion(p) => {
                if !fraction_ok(p.rate) {
                    return bad(format!("diffusion rate must be in (0, 1], got {}", p.rate));
                }
            }
            PolicyKind::Anticipatory(p) => {
                if p.window < 2 {
                    return bad(format!(
                        "anticipatory window must be >= 2 samples, got {}",
                        p.window
                    ));
                }
                if !p.sensitivity.is_finite() || p.sensitivity < 0.0 {
                    return bad(format!(
                        "anticipatory sensitivity must be finite and >= 0, got {}",
                        p.sensitivity
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the plan to the TOML subset [`BalancePlan::parse_toml`]
    /// reads. Round-trips exactly: floats print in shortest-round-trip
    /// form.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "policy = \"{}\"", self.policy_name());
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(
            out,
            "payload_bytes_per_second = {}",
            self.payload_bytes_per_second
        );
        let _ = writeln!(out, "max_fraction = {}", self.max_fraction());
        match &self.kind {
            PolicyKind::Stealing(p) => {
                let _ = writeln!(out, "threshold = {}", p.threshold);
            }
            PolicyKind::Diffusion(p) => {
                let _ = writeln!(out, "rate = {}", p.rate);
            }
            PolicyKind::Anticipatory(p) => {
                let _ = writeln!(out, "window = {}", p.window);
                let _ = writeln!(out, "sensitivity = {}", p.sensitivity);
            }
        }
        out
    }

    /// Parses the flat `key = value` TOML subset: a required
    /// `policy = "<name>"` line plus numeric parameters, `#` comments
    /// and blank lines ignored. Unknown keys are rejected (typos should
    /// fail loudly, not silently no-op). Call
    /// [`BalancePlan::validate`] on the result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidBalancePlan`] naming the offending
    /// line for malformed input.
    pub fn parse_toml(text: &str) -> Result<BalancePlan, SimError> {
        let bad = |detail: String| SimError::InvalidBalancePlan { detail };
        let mut policy: Option<String> = None;
        let mut fields: Vec<(String, f64)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(cut) => &raw[..cut],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("line {}: expected `key = value`", idx + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "policy" {
                let name = value
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| {
                        bad(format!("line {}: policy must be a quoted string", idx + 1))
                    })?;
                policy = Some(name.to_string());
            } else {
                let number: f64 = value
                    .parse()
                    .map_err(|_| bad(format!("line {}: `{value}` is not a number", idx + 1)))?;
                fields.push((key.to_string(), number));
            }
        }
        let policy = policy.ok_or_else(|| bad("missing `policy = \"<name>\"`".to_string()))?;
        let mut take = |name: &str| -> Option<f64> {
            let at = fields.iter().position(|(k, _)| k == name)?;
            Some(fields.remove(at).1)
        };
        let seed = take("seed").unwrap_or(0.0) as u64;
        let payload = take("payload_bytes_per_second").unwrap_or(DEFAULT_PAYLOAD_BYTES_PER_SECOND);
        let max_fraction = take("max_fraction").unwrap_or(DEFAULT_MAX_FRACTION);
        let mut plan = match policy.as_str() {
            "stealing" => BalancePlan::stealing(seed, take("threshold").unwrap_or(1.15)),
            "diffusion" => BalancePlan::diffusion(seed, take("rate").unwrap_or(0.5)),
            "anticipatory" => {
                let window = take("window").unwrap_or(8.0) as usize;
                BalancePlan::anticipatory(seed, window, take("sensitivity").unwrap_or(0.25))
            }
            other => return Err(bad(format!("unknown policy `{other}`"))),
        };
        plan = plan
            .with_payload_bytes_per_second(payload)
            .with_max_fraction(max_fraction);
        if let Some((key, _)) = fields.first() {
            return Err(bad(format!("unknown key `{key}` for policy `{policy}`")));
        }
        Ok(plan)
    }

    /// The analytic load-smoothing this plan is predicted to achieve,
    /// used by the advisor's prediction model: per-rank effective loads
    /// in, smoothed loads out (total conserved). The real run decides
    /// migration by migration; this is the closed-form approximation of
    /// the steady state each policy drives toward.
    pub fn predicted_loads(&self, loads: &[f64], config: &MachineConfig) -> Vec<f64> {
        let n = loads.len();
        if n < 2 {
            return loads.to_vec();
        }
        let mean = loads.iter().sum::<f64>() / n as f64;
        match &self.kind {
            // Stealing trims every rank to threshold × mean and hands
            // the excess to below-cap ranks proportional to headroom.
            PolicyKind::Stealing(p) => {
                let cap = p.threshold * mean;
                let excess: f64 = loads.iter().map(|&l| (l - cap).max(0.0)).sum();
                let headroom: f64 = loads.iter().map(|&l| (cap - l).max(0.0)).sum();
                loads
                    .iter()
                    .map(|&l| {
                        if l > cap {
                            cap
                        } else if headroom > 0.0 {
                            l + excess * (cap - l) / headroom
                        } else {
                            l
                        }
                    })
                    .collect()
            }
            // One symmetric diffusion sweep over the topology.
            PolicyKind::Diffusion(p) => {
                let neighbors = topology_neighbors(config, n);
                let mut out = loads.to_vec();
                for (r, nbrs) in neighbors.iter().enumerate() {
                    for &t in nbrs {
                        if t <= r {
                            continue; // each undirected edge once
                        }
                        let deg = neighbors[r].len().max(neighbors[t].len());
                        let flow = p.rate * (loads[r] - loads[t]) / (deg + 1) as f64;
                        out[r] -= flow;
                        out[t] += flow;
                    }
                }
                out
            }
            // Anticipation converges close to the mean; the residual
            // models trigger latency and migration overhead.
            PolicyKind::Anticipatory(_) => {
                const EFFICIENCY: f64 = 0.85;
                loads.iter().map(|&l| l + EFFICIENCY * (mean - l)).collect()
            }
        }
    }
}

/// The neighbor lists the diffusion policy exchanges over: the
/// symmetric closure of the machine's link overrides when any exist, a
/// ring otherwise.
pub(crate) fn topology_neighbors(config: &MachineConfig, n: usize) -> Vec<Vec<usize>> {
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    if config.has_link_overrides() {
        for (src, dst) in config.link_override_pairs() {
            if src < n && dst < n && src != dst {
                if !neighbors[src].contains(&dst) {
                    neighbors[src].push(dst);
                }
                if !neighbors[dst].contains(&src) {
                    neighbors[dst].push(src);
                }
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
    } else if n > 1 {
        for (r, list) in neighbors.iter_mut().enumerate() {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            list.push(left.min(right));
            if left != right {
                list.push(left.max(right));
            }
        }
    }
    neighbors
}

/// What the rebalancing did to one run; attached to every
/// [`SimOutput`](crate::SimOutput) and empty (`policy: None`) for runs
/// without a balance plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BalanceReport {
    /// Name of the active policy, `None` when balancing was off.
    pub policy: Option<String>,
    /// Migrations applied (proposals that passed the guard).
    pub migrations: u64,
    /// Proposals declined by the profitability guard.
    pub declined: u64,
    /// Total nominal seconds migrated.
    pub moved_seconds: f64,
    /// Per-rank nominal seconds each rank executed from its *own*
    /// program. `local + donated` per rank equals the compute the rank's
    /// program actually reached — work is conserved across migrations.
    pub local_seconds: Vec<f64>,
    /// Per-rank nominal seconds given away.
    pub donated_seconds: Vec<f64>,
    /// Per-rank nominal seconds taken on for others.
    pub received_seconds: Vec<f64>,
}

impl BalanceReport {
    /// True when no balance plan was active.
    pub fn is_inactive(&self) -> bool {
        self.policy.is_none()
    }
}

/// The policy's read-only view of the shared load accounts at one
/// decision point. [`BalanceState`] answers every query from aggregates
/// it keeps current; the scanning implementation it replaced survives
/// in the tests as the oracle it must match bit for bit.
pub(crate) trait LoadView {
    /// Cumulative nominal seconds `rank` has executed so far (its own
    /// work plus received migrations).
    fn load(&self, rank: usize) -> f64;

    /// Whether `rank` has not crashed (always true without faults).
    fn alive(&self, rank: usize) -> bool;

    /// Alive ranks.
    fn alive_count(&self) -> usize;

    /// Smallest sample count over alive ranks (0 while any alive rank
    /// has yet to execute a compute op — the policies' warmup gate).
    fn min_alive_samples(&self) -> u64;

    /// Mean cumulative load over alive ranks.
    fn mean_alive_load(&self) -> f64;

    /// Mean nominal cost per compute op over the whole run so far.
    fn mean_op_cost(&self) -> f64;

    /// Topology neighbors of `rank` (see the diffusion policy docs).
    fn neighbors(&self, rank: usize) -> &[usize];

    /// `rank`'s trend window: its relative load (load − alive mean)
    /// after each of its recent compute ops, oldest first. Kept only
    /// under the anticipatory policy, the one that reads it.
    fn window(&self, rank: usize) -> &[f64];

    /// The least-loaded alive rank other than `donor`, ties broken by
    /// [`tie_break`] — a pure decision, not an RNG stream.
    fn least_loaded_alive(&self, donor: usize) -> Option<usize>;
}

/// The uniform `[0, 1)` value that picks among tied least-loaded
/// targets: a pure SplitMix64 hash of `(seed, donor, samples, 0)`,
/// where `samples` is the donor's compute-op count.
fn tie_break(seed: u64, donor: usize, samples: u64) -> f64 {
    let mut h = mix(seed ^ 0x517c_c1b7_2722_0a95);
    h = mix(h ^ (donor as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
    h = mix(h ^ samples);
    h = mix(h);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A tournament-tree node: the smallest load among its leaves and how
/// many leaves hold exactly that load.
type MinTies = (f64, usize);

/// The leaf of a dead rank, and of every padding leaf: never a tie.
const NO_TARGET: MinTies = (f64::INFINITY, 0);

fn merge(a: MinTies, b: MinTies) -> MinTies {
    match a.0.total_cmp(&b.0) {
        Ordering::Less => a,
        Ordering::Greater => b,
        Ordering::Equal => (a.0, a.1 + b.1),
    }
}

/// A min tournament tree over the alive ranks' loads, answering the
/// least-loaded-target query in O(log P).
///
/// Node 1 is the root, node `i`'s children are `2i` and `2i + 1`, and
/// rank `r`'s leaf is `leaves + r`. Ties compare bit-equal under
/// `total_cmp`, which agrees with `==` here: loads are sums of finite,
/// validated, non-negative seconds starting at `+0.0` (a `-0.0` op
/// leaves a `+0.0` load at `+0.0`), so no load is NaN or `-0.0`, the
/// only values on which the two comparisons differ.
#[derive(Debug)]
struct LoadTree {
    nodes: Vec<MinTies>,
    leaves: usize,
}

impl LoadTree {
    /// `n` alive ranks at load `+0.0`.
    fn new(n: usize) -> LoadTree {
        let leaves = n.next_power_of_two();
        let mut nodes = vec![NO_TARGET; 2 * leaves];
        nodes[leaves..leaves + n].fill((0.0, 1));
        for i in (1..leaves).rev() {
            nodes[i] = merge(nodes[2 * i], nodes[2 * i + 1]);
        }
        LoadTree { nodes, leaves }
    }

    /// Replaces `rank`'s leaf and re-merges its root path.
    fn set(&mut self, rank: usize, leaf: MinTies) {
        let mut i = self.leaves + rank;
        self.nodes[i] = leaf;
        while i > 1 {
            i /= 2;
            self.nodes[i] = merge(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// Among the `ties` leaves holding the smallest load once
    /// `excluded`'s leaf is set aside, the `pick(ties)`-th in rank
    /// order; `None` when no leaf remains.
    fn kth_least_excluding(
        &self,
        excluded: usize,
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<usize> {
        // Re-merge `excluded`'s root path without its leaf: `path[d]`
        // stands in for its ancestor at depth `d` (root 0, leaf `depth`).
        let depth = self.leaves.trailing_zeros() as usize;
        let leaf = self.leaves + excluded;
        let mut path = [NO_TARGET; usize::BITS as usize];
        for d in (0..depth).rev() {
            let sibling = (leaf >> (depth - d - 1)) ^ 1;
            path[d] = merge(path[d + 1], self.nodes[sibling]);
        }
        let (min, ties) = path[0];
        if ties == 0 {
            return None;
        }
        // Walk down to the k-th tied leaf, skipping left subtrees whole.
        let mut k = pick(ties);
        let mut node = 1;
        for (d, &on_path) in path[..=depth].iter().enumerate().skip(1) {
            let left = 2 * node;
            let (left_min, left_ties) = if leaf >> (depth - d) == left {
                on_path
            } else {
                self.nodes[left]
            };
            node = left + 1;
            if left_min.total_cmp(&min).is_eq() {
                if k < left_ties {
                    node = left;
                } else {
                    k -= left_ties;
                }
            }
        }
        Some(node - self.leaves)
    }
}

/// What the executor exposes to the balancing layer: machine speeds and
/// link costs, plus the fault-adjusted compute integration and
/// liveness. Both engines construct an identical view, which is what
/// keeps migration timing bit-identical between them.
pub(crate) struct HostView<'a> {
    pub(crate) config: &'a MachineConfig,
    pub(crate) faults: Option<&'a FaultState>,
}

impl HostView<'_> {
    fn speed(&self, rank: usize) -> f64 {
        self.config.cpu_speed(rank)
    }

    /// Wall-clock end of `duration` seconds of work on `rank` starting
    /// at `begin` — the exact expression the engines use, fault
    /// slowdown windows included.
    fn compute_end(&self, rank: usize, begin: f64, duration: f64) -> f64 {
        match self.faults {
            None => begin + duration,
            Some(fs) => fs.compute_end(rank, begin, duration),
        }
    }
}

/// Per-run mutable balancing state shared (in structure, not instance)
/// by both engines — the balancing counterpart of
/// [`FaultState`](crate::faults::FaultState). Created once per run from
/// a validated plan; all decisions are pure functions of this state,
/// which both engines mutate in the same global compute-op order.
///
/// The aggregates the policies query are kept current as loads change
/// (see the module's "Cost" section), so a compute op costs O(log P)
/// plus the sums a policy reads, not a scan of every rank per query.
#[derive(Debug)]
pub(crate) struct BalanceState {
    plan: BalancePlan,
    /// Cumulative nominal seconds executed per rank (own + received).
    load: Vec<f64>,
    /// Compute ops executed per rank.
    samples: Vec<u64>,
    /// Per-rank trend windows (see [`LoadView::window`]).
    windows: Vec<Vec<f64>>,
    /// When each rank's auxiliary server (spare cycles executing
    /// migrated chunks) is next free.
    aux_free: Vec<f64>,
    /// Liveness as of the last compute op; rebuilt only when the fault
    /// state's crash count moves past `crashes_seen`.
    alive: Vec<bool>,
    alive_count: usize,
    crashes_seen: usize,
    /// The warmup gate: the smallest sample count over alive ranks, and
    /// how many alive ranks sit at it. Samples only grow and the alive
    /// set only shrinks, so the minimum never falls; it is rescanned
    /// only when no alive rank is left at it or the alive set changes.
    min_samples: u64,
    at_min: usize,
    /// Alive ranks' loads, for the least-loaded-target query.
    targets: LoadTree,
    neighbors: Vec<Vec<usize>>,
    total_ops: u64,
    report: BalanceReport,
}

impl BalanceState {
    pub(crate) fn new(plan: &BalancePlan, n: usize, config: &MachineConfig) -> BalanceState {
        BalanceState {
            plan: plan.clone(),
            load: vec![0.0; n],
            samples: vec![0; n],
            windows: vec![Vec::new(); n],
            aux_free: vec![0.0; n],
            alive: vec![true; n],
            alive_count: n,
            crashes_seen: 0,
            min_samples: 0,
            at_min: n,
            targets: LoadTree::new(n),
            neighbors: topology_neighbors(config, n),
            total_ops: 0,
            report: BalanceReport {
                policy: Some(plan.policy_name().to_string()),
                local_seconds: vec![0.0; n],
                donated_seconds: vec![0.0; n],
                received_seconds: vec![0.0; n],
                ..BalanceReport::default()
            },
        }
    }

    /// Executes the compute op of `nominal` seconds that `rank` starts
    /// at `begin`: asks the policy for migrations, applies every
    /// proposal that passes the profitability guard, updates the load
    /// accounts, and returns the op's completion time.
    ///
    /// With no (accepted) proposals this returns the exact unbalanced
    /// expression `host.compute_end(rank, begin, nominal / speed)`.
    pub(crate) fn compute(
        &mut self,
        rank: usize,
        begin: f64,
        nominal: f64,
        host: &HostView<'_>,
    ) -> f64 {
        let n = self.load.len();
        self.sync_alive(host.faults);
        let proposals = if nominal > 0.0 && n > 1 {
            self.plan.policy().decide(rank, nominal, self)
        } else {
            Vec::new()
        };

        let o = host.config.overhead();
        let mut local = nominal;
        // Completion of already-accepted offloaded chunks (result
        // return included); the op ends at the max of this and the
        // local remainder.
        let mut results_due = f64::NEG_INFINITY;
        for m in proposals {
            let target = m.target;
            if target >= n || target == rank || !self.alive[target] {
                continue;
            }
            let seconds = m.seconds.min(local);
            if !seconds.is_finite() || seconds <= 0.0 {
                continue;
            }
            let current_end = host
                .compute_end(rank, begin, local / host.speed(rank))
                .max(results_due);
            let transfer = self.plan.payload_bytes_per_second * seconds
                / host.config.link_bandwidth(rank, target);
            let arrive = begin + o + host.config.link_latency(rank, target) + transfer;
            let start = arrive.max(self.aux_free[target]);
            let chunk_end = host.compute_end(target, start, seconds / host.speed(target));
            let returned = chunk_end + host.config.link_latency(target, rank);
            let candidate_end = host
                .compute_end(rank, begin, (local - seconds) / host.speed(rank))
                .max(results_due)
                .max(returned);
            if candidate_end < current_end {
                local -= seconds;
                self.aux_free[target] = chunk_end;
                results_due = results_due.max(returned);
                self.add_load(target, seconds);
                self.report.migrations += 1;
                self.report.moved_seconds += seconds;
                self.report.donated_seconds[rank] += seconds;
                self.report.received_seconds[target] += seconds;
            } else {
                self.report.declined += 1;
            }
        }

        let end = host
            .compute_end(rank, begin, local / host.speed(rank))
            .max(results_due);

        self.add_load(rank, local);
        self.report.local_seconds[rank] += local;
        self.add_sample(rank);
        self.total_ops += 1;
        // Record the rank's relative position for the trend detector.
        if matches!(self.plan.kind, PolicyKind::Anticipatory(_)) {
            let relative = self.load[rank] - self.mean_alive_load();
            let window = &mut self.windows[rank];
            if window.len() == WINDOW_CAP {
                window.remove(0);
            }
            window.push(relative);
        }

        end
    }

    /// The accumulated report.
    pub(crate) fn report(&self) -> BalanceReport {
        self.report.clone()
    }

    /// Drops ranks that crashed since the last compute op from the
    /// alive set, the target tree, and the warmup gate. O(1) unless a
    /// crash was recorded, and never rebuilt without a fault plan.
    fn sync_alive(&mut self, faults: Option<&FaultState>) {
        let Some(fs) = faults else { return };
        if fs.crash_count() == self.crashes_seen {
            return;
        }
        self.crashes_seen = fs.crash_count();
        for rank in 0..self.alive.len() {
            if self.alive[rank] && fs.has_crashed(rank) {
                self.alive[rank] = false;
                self.alive_count -= 1;
                self.targets.set(rank, NO_TARGET);
            }
        }
        self.rescan_min_samples();
    }

    fn rescan_min_samples(&mut self) {
        let alive = || (0..self.samples.len()).filter(|&r| self.alive[r]);
        let min = alive().map(|r| self.samples[r]).min().unwrap_or(0);
        let at_min = alive().filter(|&r| self.samples[r] == min).count();
        (self.min_samples, self.at_min) = (min, at_min);
    }

    fn add_load(&mut self, rank: usize, seconds: f64) {
        self.load[rank] += seconds;
        if self.alive[rank] {
            self.targets.set(rank, (self.load[rank], 1));
        }
    }

    fn add_sample(&mut self, rank: usize) {
        let was_at_min = self.alive[rank] && self.samples[rank] == self.min_samples;
        self.samples[rank] += 1;
        if was_at_min {
            self.at_min -= 1;
            if self.at_min == 0 {
                // Every alive rank has executed an op since the last
                // scan, which pays for this one.
                self.rescan_min_samples();
            }
        }
    }
}

impl LoadView for BalanceState {
    fn load(&self, rank: usize) -> f64 {
        self.load[rank]
    }

    fn alive(&self, rank: usize) -> bool {
        self.alive[rank]
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn min_alive_samples(&self) -> u64 {
        self.min_samples
    }

    // This sum and `mean_op_cost`'s stay scans: their bits are those of
    // a left-to-right sum in rank order, which no running total
    // reproduces.
    fn mean_alive_load(&self) -> f64 {
        if self.alive_count == 0 {
            return 0.0;
        }
        (0..self.load.len())
            .filter(|&r| self.alive[r])
            .map(|r| self.load[r])
            .sum::<f64>()
            / self.alive_count as f64
    }

    fn mean_op_cost(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        self.load.iter().sum::<f64>() / self.total_ops as f64
    }

    fn neighbors(&self, rank: usize) -> &[usize] {
        &self.neighbors[rank]
    }

    fn window(&self, rank: usize) -> &[f64] {
        &self.windows[rank]
    }

    fn least_loaded_alive(&self, donor: usize) -> Option<usize> {
        let draw = tie_break(self.plan.seed, donor, self.samples[donor]);
        self.targets
            .kth_least_excluding(donor, |ties| ((draw * ties as f64) as usize).min(ties - 1))
    }
}

/// The scanning load accounts the incremental [`BalanceState`]
/// replaced, kept as the oracle its tests compare against bit for bit:
/// every aggregate rescans every rank, at every compute op.
#[cfg(test)]
mod reference {
    use super::*;

    /// The policy's view of the scanning accounts at one decision point.
    pub(super) struct ScanView<'a> {
        donor: usize,
        seed: u64,
        load: &'a [f64],
        samples: &'a [u64],
        windows: &'a [Vec<f64>],
        neighbors: &'a [Vec<usize>],
        alive: &'a [bool],
        total_ops: u64,
    }

    impl ScanView<'_> {
        fn n(&self) -> usize {
            self.load.len()
        }

        fn unit(&self, k: u64) -> f64 {
            let mut h = mix(self.seed ^ 0x517c_c1b7_2722_0a95);
            h = mix(h ^ (self.donor as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
            h = mix(h ^ self.samples[self.donor]);
            h = mix(h ^ k);
            (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl LoadView for ScanView<'_> {
        fn load(&self, rank: usize) -> f64 {
            self.load[rank]
        }

        fn alive(&self, rank: usize) -> bool {
            self.alive[rank]
        }

        fn alive_count(&self) -> usize {
            self.alive.iter().filter(|&&a| a).count()
        }

        fn min_alive_samples(&self) -> u64 {
            (0..self.n())
                .filter(|&r| self.alive[r])
                .map(|r| self.samples[r])
                .min()
                .unwrap_or(0)
        }

        fn mean_alive_load(&self) -> f64 {
            let alive = self.alive_count();
            if alive == 0 {
                return 0.0;
            }
            (0..self.n())
                .filter(|&r| self.alive[r])
                .map(|r| self.load[r])
                .sum::<f64>()
                / alive as f64
        }

        fn mean_op_cost(&self) -> f64 {
            if self.total_ops == 0 {
                return 0.0;
            }
            self.load.iter().sum::<f64>() / self.total_ops as f64
        }

        fn neighbors(&self, rank: usize) -> &[usize] {
            &self.neighbors[rank]
        }

        fn window(&self, rank: usize) -> &[f64] {
            &self.windows[rank]
        }

        fn least_loaded_alive(&self, donor: usize) -> Option<usize> {
            let min = (0..self.n())
                .filter(|&r| r != donor && self.alive[r])
                .map(|r| self.load[r])
                .min_by(f64::total_cmp)?;
            let ties: Vec<usize> = (0..self.n())
                .filter(|&r| r != donor && self.alive[r] && self.load[r] == min)
                .collect();
            let pick = self.unit(0) * ties.len() as f64;
            Some(ties[(pick as usize).min(ties.len() - 1)])
        }
    }

    /// The scanning balancing state: liveness rebuilt, and the trend
    /// window updated, at every compute op.
    #[derive(Debug)]
    pub(super) struct ScanState {
        plan: BalancePlan,
        pub(super) load: Vec<f64>,
        pub(super) samples: Vec<u64>,
        pub(super) windows: Vec<Vec<f64>>,
        aux_free: Vec<f64>,
        alive: Vec<bool>,
        neighbors: Vec<Vec<usize>>,
        total_ops: u64,
        pub(super) report: BalanceReport,
    }

    impl ScanState {
        pub(super) fn new(plan: &BalancePlan, n: usize, config: &MachineConfig) -> ScanState {
            ScanState {
                plan: plan.clone(),
                load: vec![0.0; n],
                samples: vec![0; n],
                windows: vec![Vec::new(); n],
                aux_free: vec![0.0; n],
                alive: vec![true; n],
                neighbors: topology_neighbors(config, n),
                total_ops: 0,
                report: BalanceReport {
                    policy: Some(plan.policy_name().to_string()),
                    local_seconds: vec![0.0; n],
                    donated_seconds: vec![0.0; n],
                    received_seconds: vec![0.0; n],
                    ..BalanceReport::default()
                },
            }
        }

        /// The view a decision by `donor` sees.
        pub(super) fn view(&self, donor: usize) -> ScanView<'_> {
            ScanView {
                donor,
                seed: self.plan.seed,
                load: &self.load,
                samples: &self.samples,
                windows: &self.windows,
                neighbors: &self.neighbors,
                alive: &self.alive,
                total_ops: self.total_ops,
            }
        }

        pub(super) fn compute(
            &mut self,
            rank: usize,
            begin: f64,
            nominal: f64,
            host: &HostView<'_>,
        ) -> f64 {
            let n = self.load.len();
            for (r, slot) in self.alive.iter_mut().enumerate() {
                *slot = !host.faults.is_some_and(|fs| fs.has_crashed(r));
            }
            let proposals = if nominal > 0.0 && n > 1 {
                let view = self.view(rank);
                self.plan.policy().decide(rank, nominal, &view)
            } else {
                Vec::new()
            };

            let o = host.config.overhead();
            let mut local = nominal;
            let mut results_due = f64::NEG_INFINITY;
            for m in proposals {
                let target = m.target;
                if target >= n || target == rank || !self.alive[target] {
                    continue;
                }
                let seconds = m.seconds.min(local);
                if !seconds.is_finite() || seconds <= 0.0 {
                    continue;
                }
                let current_end = host
                    .compute_end(rank, begin, local / host.speed(rank))
                    .max(results_due);
                let transfer = self.plan.payload_bytes_per_second * seconds
                    / host.config.link_bandwidth(rank, target);
                let arrive = begin + o + host.config.link_latency(rank, target) + transfer;
                let start = arrive.max(self.aux_free[target]);
                let chunk_end = host.compute_end(target, start, seconds / host.speed(target));
                let returned = chunk_end + host.config.link_latency(target, rank);
                let candidate_end = host
                    .compute_end(rank, begin, (local - seconds) / host.speed(rank))
                    .max(results_due)
                    .max(returned);
                if candidate_end < current_end {
                    local -= seconds;
                    self.aux_free[target] = chunk_end;
                    results_due = results_due.max(returned);
                    self.load[target] += seconds;
                    self.report.migrations += 1;
                    self.report.moved_seconds += seconds;
                    self.report.donated_seconds[rank] += seconds;
                    self.report.received_seconds[target] += seconds;
                } else {
                    self.report.declined += 1;
                }
            }

            let end = host
                .compute_end(rank, begin, local / host.speed(rank))
                .max(results_due);

            self.load[rank] += local;
            self.report.local_seconds[rank] += local;
            self.samples[rank] += 1;
            self.total_ops += 1;
            let alive_count = self.alive.iter().filter(|&&a| a).count();
            let mean = if alive_count == 0 {
                0.0
            } else {
                (0..n)
                    .filter(|&r| self.alive[r])
                    .map(|r| self.load[r])
                    .sum::<f64>()
                    / alive_count as f64
            };
            let window = &mut self.windows[rank];
            if window.len() == WINDOW_CAP {
                window.remove(0);
            }
            window.push(self.load[rank] - mean);

            end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ScanState;
    use super::*;
    use crate::{FaultPlan, MachineConfig, ProgramBuilder, Simulator};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn skewed_program(ranks: usize, steps: usize) -> crate::Program {
        let mut pb = ProgramBuilder::new(ranks);
        let r = pb.add_region("loop");
        for _ in 0..steps {
            pb.spmd(|rank, mut ops| {
                ops.enter(r)
                    .compute(0.01 * (1.0 + rank as f64))
                    .barrier()
                    .leave(r);
            });
        }
        pb.build().unwrap()
    }

    fn plans() -> Vec<BalancePlan> {
        vec![
            BalancePlan::stealing(7, 1.1),
            BalancePlan::diffusion(7, 0.5),
            BalancePlan::anticipatory(7, 4, 0.25),
        ]
    }

    #[test]
    fn toml_round_trips_exactly() {
        for plan in plans() {
            let plan = plan
                .with_max_fraction(0.4)
                .with_payload_bytes_per_second(2e6);
            let reparsed = BalancePlan::parse_toml(&plan.to_toml()).unwrap();
            assert_eq!(plan, reparsed, "to_toml drifted:\n{}", plan.to_toml());
            reparsed.validate().unwrap();
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for (text, needle) in [
            ("", "missing `policy"),
            ("policy = stealing\n", "quoted"),
            ("policy = \"hurricane\"\n", "unknown policy"),
            ("policy = \"stealing\"\nthreshold = abc\n", "not a number"),
            ("policy = \"stealing\"\nrate = 0.5\n", "unknown key"),
            ("just words\n", "key = value"),
        ] {
            let err = BalancePlan::parse_toml(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_parameters() {
        for plan in [
            BalancePlan::stealing(0, 0.5),
            BalancePlan::stealing(0, f64::NAN),
            BalancePlan::diffusion(0, 0.0),
            BalancePlan::diffusion(0, 1.5),
            BalancePlan::anticipatory(0, 1, 0.25),
            BalancePlan::anticipatory(0, 8, -1.0),
            BalancePlan::stealing(0, 1.2).with_max_fraction(0.0),
            BalancePlan::stealing(0, 1.2).with_payload_bytes_per_second(f64::INFINITY),
        ] {
            assert!(plan.validate().is_err(), "{plan:?} should be invalid");
        }
        for plan in plans() {
            plan.validate().unwrap();
        }
    }

    #[test]
    fn topology_defaults_to_a_ring_and_honors_overrides() {
        let uniform = MachineConfig::new(4);
        assert_eq!(
            topology_neighbors(&uniform, 4),
            vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]]
        );
        // Two ranks: one neighbor each, not a duplicated pair.
        assert_eq!(topology_neighbors(&uniform, 2), vec![vec![1], vec![0]]);
        let star = MachineConfig::new(4)
            .with_link(0, 1, 1e-5, 1e8)
            .with_link(0, 2, 1e-5, 1e8)
            .with_link(3, 0, 1e-5, 1e8);
        assert_eq!(
            topology_neighbors(&star, 4),
            vec![vec![1, 2, 3], vec![0], vec![0], vec![0]]
        );
    }

    #[test]
    fn every_policy_improves_a_skewed_run() {
        let ranks = 8;
        let program = skewed_program(ranks, 12);
        let sim = Simulator::new(MachineConfig::new(ranks));
        let base = sim.run(&program).unwrap();
        assert!(base.balance.is_inactive());
        for plan in plans() {
            let out = sim
                .run_configured(&program, None, Some(&plan), None)
                .unwrap();
            assert!(
                out.stats.makespan < base.stats.makespan,
                "{} did not improve: {} vs {}",
                plan.policy_name(),
                out.stats.makespan,
                base.stats.makespan
            );
            assert!(out.balance.migrations > 0, "{}", plan.policy_name());
            assert!(out.balance.moved_seconds > 0.0);
            assert_eq!(out.balance.policy.as_deref(), Some(plan.policy_name()));
        }
    }

    #[test]
    fn migration_accounting_conserves_work() {
        let ranks = 6;
        let program = skewed_program(ranks, 10);
        let sim = Simulator::new(MachineConfig::new(ranks));
        for plan in plans() {
            let out = sim
                .run_configured(&program, None, Some(&plan), None)
                .unwrap();
            let b = &out.balance;
            let donated: f64 = b.donated_seconds.iter().sum();
            let received: f64 = b.received_seconds.iter().sum();
            assert!((donated - b.moved_seconds).abs() < 1e-9);
            assert!((received - b.moved_seconds).abs() < 1e-9);
            // Per rank: local + donated = the rank's own program compute.
            for rank in 0..ranks {
                let spec: f64 = program
                    .ops(rank)
                    .iter()
                    .filter_map(|op| match op {
                        crate::Op::Compute { seconds } => Some(*seconds),
                        _ => None,
                    })
                    .sum();
                let executed = b.local_seconds[rank] + b.donated_seconds[rank];
                assert!(
                    (executed - spec).abs() < 1e-9,
                    "rank {rank}: {executed} vs {spec}"
                );
            }
        }
    }

    #[test]
    fn never_triggering_policy_is_bit_identical_to_no_policy() {
        let program = skewed_program(4, 6);
        let sim = Simulator::new(MachineConfig::new(4));
        let base = sim.run(&program).unwrap();
        // A threshold no skew of this program can reach.
        let inert = BalancePlan::stealing(3, 100.0);
        let out = sim
            .run_configured(&program, None, Some(&inert), None)
            .unwrap();
        assert_eq!(base.trace, out.trace);
        assert_eq!(base.stats, out.stats);
        assert_eq!(out.balance.migrations, 0);
        assert_eq!(out.balance.moved_seconds, 0.0);
        // Active report, but nothing moved.
        assert_eq!(out.balance.policy.as_deref(), Some("stealing"));
    }

    #[test]
    fn balanced_runs_are_engine_and_rerun_deterministic() {
        let program = skewed_program(5, 8);
        let sim = Simulator::new(MachineConfig::new(5));
        for plan in plans() {
            let a = sim
                .run_configured(&program, None, Some(&plan), None)
                .unwrap();
            let b = sim
                .run_configured(&program, None, Some(&plan), None)
                .unwrap();
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.balance, b.balance);
            let polled = sim
                .run_polling_configured(&program, None, Some(&plan), None)
                .unwrap();
            assert_eq!(a.trace, polled.trace);
            assert_eq!(a.stats, polled.stats);
            assert_eq!(a.balance, polled.balance);
        }
    }

    #[test]
    fn crashed_ranks_are_never_chosen_as_targets() {
        use crate::FaultPlan;
        let ranks = 6;
        let program = skewed_program(ranks, 10);
        let sim = Simulator::new(MachineConfig::new(ranks));
        // Rank 0 (the least loaded, hence the steal magnet) crashes
        // before executing anything.
        let faults = FaultPlan::new(1).with_crash(0, 0.0);
        let plan = BalancePlan::stealing(7, 1.1);
        let out = sim
            .run_configured(&program, Some(&faults), Some(&plan), None)
            .unwrap();
        assert_eq!(out.balance.received_seconds[0], 0.0);
        assert_eq!(out.balance.local_seconds[0], 0.0);
        let polled = sim
            .run_polling_configured(&program, Some(&faults), Some(&plan), None)
            .unwrap();
        assert_eq!(out.trace, polled.trace);
        assert_eq!(out.balance, polled.balance);
    }

    #[test]
    fn work_donated_before_a_crash_stays_accounted() {
        use crate::FaultPlan;
        let ranks = 6;
        let program = skewed_program(ranks, 12);
        let sim = Simulator::new(MachineConfig::new(ranks));
        let horizon = sim.run(&program).unwrap().stats.makespan;
        // The heaviest rank donates for half the run, then fail-stops.
        let heavy = ranks - 1;
        let faults = FaultPlan::new(2).with_crash(heavy, horizon * 0.5);
        let plan = BalancePlan::stealing(7, 1.1);
        let out = sim
            .run_configured(&program, Some(&faults), Some(&plan), None)
            .unwrap();
        assert_eq!(out.faults.crashes.len(), 1);
        assert!(
            out.balance.donated_seconds[heavy] > 0.0,
            "donations before the crash are accounted: {:?}",
            out.balance
        );
        // Conservation holds even with the crash: everything donated
        // was received exactly once.
        let donated: f64 = out.balance.donated_seconds.iter().sum();
        let received: f64 = out.balance.received_seconds.iter().sum();
        assert!((donated - received).abs() < 1e-9);
        assert!((donated - out.balance.moved_seconds).abs() < 1e-9);
    }

    #[test]
    fn predicted_loads_conserve_total_and_reduce_spread() {
        let config = MachineConfig::new(4);
        let loads = [10.0, 2.0, 2.0, 2.0];
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        for plan in plans() {
            let smoothed = plan.predicted_loads(&loads, &config);
            let before: f64 = loads.iter().sum();
            let after: f64 = smoothed.iter().sum();
            assert!((before - after).abs() < 1e-9, "{}", plan.policy_name());
            assert!(
                spread(&smoothed) < spread(&loads),
                "{}: {smoothed:?}",
                plan.policy_name()
            );
        }
        // Degenerate sizes pass through.
        assert_eq!(plans()[0].predicted_loads(&[5.0], &config), vec![5.0]);
    }

    #[test]
    fn summaries_and_signatures_name_the_policy() {
        for plan in plans() {
            assert!(plan.summary().contains(plan.policy_name()));
            assert!(plan.signature().starts_with(plan.policy_name()));
        }
        assert_eq!(plans()[0].clone().with_seed(9).seed(), 9);
    }

    /// One step of an oracle run.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `rank` executes a compute op of `nominal` seconds — skipped
        /// once the rank has crashed, since the engines halt it.
        Compute(usize, f64),
        /// `rank` fail-stops at its current clock.
        Crash(usize),
    }

    /// Drives the incremental [`BalanceState`] and the scanning
    /// [`ScanState`] through `steps` and checks after every step:
    /// bit-equal op end times, loads, and samples; bit-equal trend
    /// windows under the anticipatory policy (the only one that keeps
    /// them); equal reports; and equal answers to every query for every
    /// donor.
    fn check_against_reference(
        plan: &BalancePlan,
        config: &MachineConfig,
        steps: &[Step],
    ) -> Result<(), TestCaseError> {
        let n = config.processors();
        let mut fast = BalanceState::new(plan, n, config);
        let mut scan = ScanState::new(plan, n, config);
        let crashes = steps.iter().any(|s| matches!(s, Step::Crash(_)));
        let mut faults = crashes.then(|| FaultState::new(&FaultPlan::new(0), n));
        let mut clock = vec![0.0f64; n];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Crash(rank) => {
                    if let Some(fs) = faults.as_mut() {
                        fs.record_crash(rank, clock[rank]);
                    }
                }
                Step::Compute(rank, nominal) => {
                    if faults.as_ref().is_some_and(|fs| fs.has_crashed(rank)) {
                        continue;
                    }
                    let host = HostView {
                        config,
                        faults: faults.as_ref(),
                    };
                    let end = fast.compute(rank, clock[rank], nominal, &host);
                    let want = scan.compute(rank, clock[rank], nominal, &host);
                    prop_assert_eq!(end.to_bits(), want.to_bits(), "step {} {:?}", i, step);
                    clock[rank] = end;
                }
            }
            prop_assert_eq!(bits(&fast.load), bits(&scan.load), "loads, step {}", i);
            prop_assert_eq!(&fast.samples, &scan.samples, "samples, step {}", i);
            if matches!(plan.kind, PolicyKind::Anticipatory(_)) {
                for (a, b) in fast.windows.iter().zip(&scan.windows) {
                    prop_assert_eq!(bits(a), bits(b), "windows, step {}", i);
                }
            }
            // Debug prints floats round-trip exactly, so equal text is
            // equal bits.
            prop_assert_eq!(
                format!("{:?}", fast.report),
                format!("{:?}", scan.report),
                "report, step {}",
                i
            );
            for donor in 0..n {
                let view = scan.view(donor);
                prop_assert_eq!(fast.alive(donor), view.alive(donor));
                prop_assert_eq!(
                    fast.least_loaded_alive(donor),
                    view.least_loaded_alive(donor),
                    "target for donor {} after step {}",
                    donor,
                    i
                );
            }
            let view = scan.view(0);
            prop_assert_eq!(fast.alive_count(), view.alive_count(), "step {}", i);
            prop_assert_eq!(fast.min_alive_samples(), view.min_alive_samples());
            prop_assert_eq!(
                fast.mean_alive_load().to_bits(),
                view.mean_alive_load().to_bits()
            );
            prop_assert_eq!(fast.mean_op_cost().to_bits(), view.mean_op_cost().to_bits());
        }
        Ok(())
    }

    /// Op sizes drawn from a short list, so equal loads (the tie-break
    /// cases) are common; both zeros included.
    const NOMINALS: [f64; 8] = [0.0, -0.0, 1e-3, 0.25, 0.25, 0.5, 1.0, 3.0];

    fn oracle_plan() -> impl Strategy<Value = BalancePlan> {
        (0u8..3, 0u64..4, 0usize..3, 0usize..2).prop_map(|(kind, seed, p, f)| {
            let plan = match kind {
                0 => BalancePlan::stealing(seed, [1.0, 1.1, 1.5][p]),
                1 => BalancePlan::diffusion(seed, [0.25, 0.5, 1.0][p]),
                _ => BalancePlan::anticipatory(seed, [2, 3, 8][p], [0.0, 0.25][f]),
            };
            plan.with_max_fraction([0.5, 1.0][f])
        })
    }

    fn oracle_steps(n: usize) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec((0u8..20, 0..n, 0..NOMINALS.len()), 1..160).prop_map(|raw| {
            raw.into_iter()
                .map(|(kind, rank, size)| match kind {
                    0 => Step::Crash(rank),
                    _ => Step::Compute(rank, NOMINALS[size]),
                })
                .collect()
        })
    }

    /// A uniform machine, one with a slow rank, or a star topology
    /// (diffusion's neighbor graph follows the link overrides).
    fn oracle_config(n: usize, variant: u8) -> MachineConfig {
        match variant {
            0 => MachineConfig::new(n),
            1 => MachineConfig::new(n).with_cpu_speed(0, 0.5),
            _ => (1..n).fold(MachineConfig::new(n), |c, r| c.with_link(0, r, 1e-4, 1e8)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn balance_state_matches_the_scanning_reference(
            (n, variant, plan, steps) in (1usize..20).prop_flat_map(|n| {
                (Just(n), 0u8..3, oracle_plan(), oracle_steps(n))
            })
        ) {
            check_against_reference(&plan, &oracle_config(n, variant), &steps)?;
        }
    }

    #[test]
    fn balance_state_matches_the_reference_on_edge_cases() {
        use Step::{Compute, Crash};
        let warmup = |n: usize, nominal: f64| (0..n).map(move |r| Compute(r, nominal));
        let rising = |rank: usize| (1..6).map(move |k| Compute(rank, k as f64));
        let cases: Vec<(&str, usize, Vec<Step>)> = vec![
            // Every rank ties right after warmup, so each donor's target
            // walk runs over the whole tree.
            (
                "all ranks tie after warmup",
                7,
                warmup(7, 0.5).chain(warmup(7, 2.0)).collect(),
            ),
            (
                "crash mid-run",
                6,
                warmup(6, 0.25)
                    .chain([Crash(0), Compute(5, 3.0), Crash(3)])
                    .chain(rising(5))
                    .chain(warmup(6, 0.5))
                    .collect(),
            ),
            (
                "every rank but the donor crashed",
                4,
                warmup(4, 0.5)
                    .chain([Crash(1), Crash(2), Crash(3)])
                    .chain(rising(0))
                    .collect(),
            ),
            ("one rank", 1, rising(0).collect()),
            (
                "two ranks",
                2,
                warmup(2, 0.25).chain(rising(0)).chain(rising(1)).collect(),
            ),
            (
                "zero-second and negative-zero ops",
                3,
                [0.0, -0.0, 0.0]
                    .into_iter()
                    .enumerate()
                    .map(|(r, s)| Compute(r, s))
                    .chain([Compute(1, -0.0), Compute(0, 1.0), Compute(2, -0.0)])
                    .chain(rising(1))
                    .collect(),
            ),
        ];
        let plans = (0..8).flat_map(|seed| {
            [
                BalancePlan::stealing(seed, 1.0).with_max_fraction(1.0),
                BalancePlan::diffusion(seed, 1.0),
                BalancePlan::anticipatory(seed, 2, 0.0),
            ]
        });
        for plan in plans {
            for (name, n, steps) in &cases {
                check_against_reference(&plan, &MachineConfig::new(*n), steps)
                    .unwrap_or_else(|e| panic!("{name}, {}: {e:?}", plan.signature()));
            }
        }
        // The sole survivor has nowhere to send work.
        let plan = BalancePlan::anticipatory(0, 2, 0.0);
        let config = MachineConfig::new(3);
        let mut faults = FaultState::new(&FaultPlan::new(0), 3);
        faults.record_crash(1, 0.0);
        faults.record_crash(2, 0.0);
        let host = HostView {
            config: &config,
            faults: Some(&faults),
        };
        let mut state = BalanceState::new(&plan, 3, &config);
        state.compute(0, 0.0, 1.0, &host);
        assert_eq!(state.alive_count(), 1);
        assert_eq!(state.least_loaded_alive(0), None);
    }
}
