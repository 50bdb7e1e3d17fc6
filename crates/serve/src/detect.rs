//! Online imbalance detection over a live trace stream.
//!
//! The offline methodology slices a *finished* run into windows and
//! tracks dispersion across them. A live stream has no makespan to
//! slice against, so the detector bins computation time into
//! **fixed-width** time windows as events arrive and retires a window
//! once every rank's clock has passed its end (the watermark) — at
//! which point the window's per-rank compute loads are final and can
//! be judged:
//!
//! * **onset** — the window's coefficient of variation crosses the
//!   configured threshold from below;
//! * **rising trend** — the least-squares slope of the last few
//!   retired windows' CVs exceeds the configured rate;
//! * **rank outliers** — ranks whose window load sits more than the
//!   configured number of standard deviations above the window mean.
//!
//! Attribution is not reimplemented: the detector drives one
//! [`SalvageWalker`] per rank — the same state machine behind
//! [`reduce_checked`](limba_trace::reduce_checked) and the streaming
//! salvage fold — and bins the computation intervals it emits. Alerts
//! are therefore a pure function of the event stream: replaying the
//! same bytes (after a reconnect or a server restart) reproduces the
//! identical alert sequence.
//!
//! Memory is bounded: O(`max_active` × ranks) for the open windows
//! plus O(1) walker state per rank. A straggling rank stalls the
//! watermark; when more than `max_active` windows accumulate behind
//! it, the oldest is force-retired so the bound holds. The bound is
//! enforced against hostile input too: decode rejects non-finite
//! timestamps, a single interval never materializes more than
//! `max_active` windows past the retirement cursor (the remainder is
//! attributed to the newest allowed window), and idle gaps longer
//! than `MAX_IDLE_RUN` windows are elided rather than retired one
//! zero-load stat at a time.

use std::collections::BTreeMap;
use std::fmt;

use limba_model::ActivityKind;
use limba_trace::{Attribution, Event, SalvageWalker, TraceError, TraceSink};

/// Formats a float for a JSON body: six decimal places, or `null` for
/// non-finite values (bare `NaN`/`inf` would make the object invalid
/// JSON).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

/// Longest run of consecutive idle (zero-load) windows retired
/// densely; anything longer is elided down to its tail so a single
/// absurd timestamp cannot force an unbounded number of zero-load
/// window stats. 1024 windows is ~4 minutes at the default 0.25 s
/// width — far past any idle gap a real trace produces.
const MAX_IDLE_RUN: usize = 1024;

/// Tuning knobs of the online detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Window width in trace seconds.
    pub window: f64,
    /// Coefficient-of-variation threshold whose upward crossing fires
    /// an [`Alert::Onset`].
    pub onset: f64,
    /// Retired windows the trend regression looks back over.
    pub trend_windows: usize,
    /// Least-squares CV slope (per window) at or above which an
    /// [`Alert::RisingTrend`] fires.
    pub trend_slope: f64,
    /// Standard deviations above the window mean at which a rank
    /// becomes an [`Alert::RankOutlier`].
    pub outlier_sigma: f64,
    /// Most open windows held before the oldest is force-retired —
    /// the detector's memory bound (× ranks).
    pub max_active: usize,
    /// Most rank-outlier alerts emitted per window (lowest ranks
    /// first), bounding alert volume on wide machines.
    pub max_outliers: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window: 0.25,
            onset: 0.15,
            trend_windows: 4,
            trend_slope: 0.01,
            outlier_sigma: 3.0,
            max_active: 32,
            max_outliers: 8,
        }
    }
}

/// One structured alert from the online detector.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// A window's compute-load CV crossed the onset threshold from
    /// below.
    Onset {
        /// Window index (time `window × width` onward).
        window: usize,
        /// The window's coefficient of variation.
        value: f64,
    },
    /// The CV of recent windows is rising faster than the configured
    /// slope.
    RisingTrend {
        /// Newest window of the regression.
        window: usize,
        /// Fitted CV slope per window.
        slope: f64,
        /// Windows the regression spanned.
        over: usize,
    },
    /// One rank's window load sits far above the window mean.
    RankOutlier {
        /// Window index.
        window: usize,
        /// The outlying rank.
        rank: u32,
        /// The rank's compute seconds in the window.
        load: f64,
        /// Mean compute seconds over all ranks in the window.
        mean: f64,
        /// How many standard deviations above the mean the rank sits.
        sigmas: f64,
    },
}

impl Alert {
    /// The alert as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        match self {
            Alert::Onset { window, value } => format!(
                "{{\"kind\":\"onset\",\"window\":{window},\"cv\":{}}}",
                json_f64(*value)
            ),
            Alert::RisingTrend {
                window,
                slope,
                over,
            } => format!(
                "{{\"kind\":\"rising-trend\",\"window\":{window},\"slope\":{},\"over\":{over}}}",
                json_f64(*slope)
            ),
            Alert::RankOutlier {
                window,
                rank,
                load,
                mean,
                sigmas,
            } => format!(
                "{{\"kind\":\"rank-outlier\",\"window\":{window},\"rank\":{rank},\
                 \"load\":{},\"mean\":{},\"sigmas\":{}}}",
                json_f64(*load),
                json_f64(*mean),
                if sigmas.is_finite() {
                    format!("{sigmas:.2}")
                } else {
                    "null".into()
                },
            ),
        }
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Alert::Onset { window, value } => {
                write!(f, "window {window}: imbalance onset (cv {value:.3})")
            }
            Alert::RisingTrend {
                window,
                slope,
                over,
            } => write!(
                f,
                "window {window}: rising imbalance trend (cv slope {slope:+.4}/window over {over})"
            ),
            Alert::RankOutlier {
                window,
                rank,
                load,
                mean,
                sigmas,
            } => write!(
                f,
                "window {window}: rank {rank} outlier ({load:.3} s vs mean {mean:.3} s, \
                 {sigmas:.1}σ above)"
            ),
        }
    }
}

/// Summary of one retired window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window index.
    pub window: usize,
    /// Total compute seconds over all ranks.
    pub compute: f64,
    /// Mean compute seconds per rank.
    pub mean: f64,
    /// Coefficient of variation of the per-rank loads (0 for idle
    /// windows).
    pub cv: f64,
    /// Rank with the largest load.
    pub busiest: u32,
    /// That rank's load in seconds.
    pub peak: f64,
}

impl WindowStat {
    /// The stat as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"window\":{},\"compute\":{},\"mean\":{},\"cv\":{},\
             \"busiest\":{},\"peak\":{}}}",
            self.window,
            json_f64(self.compute),
            json_f64(self.mean),
            json_f64(self.cv),
            self.busiest,
            json_f64(self.peak)
        )
    }
}

/// The live detector: a [`TraceSink`] fed incrementally as frames
/// decode, producing [`Alert`]s and per-window [`WindowStat`]s.
pub struct OnlineDetector {
    cfg: DetectorConfig,
    walkers: Vec<SalvageWalker>,
    /// Per-rank clock high-water mark (last event time).
    clocks: Vec<f64>,
    /// Open windows: index → per-rank compute seconds.
    active: BTreeMap<usize, Vec<f64>>,
    /// Next window index to retire (windows retire in order).
    next_retire: usize,
    /// Retired window summaries, ascending by index.
    stats: Vec<WindowStat>,
    alerts: Vec<Alert>,
    /// Whether the last retired window sat at or above the onset
    /// threshold (edge-triggering for [`Alert::Onset`]).
    above_onset: bool,
    /// Recording-order index of the next event (for error naming).
    index: usize,
    events: u64,
    makespan: f64,
    finished: bool,
}

impl OnlineDetector {
    /// Creates a detector; the stream's shape arrives via
    /// [`TraceSink::begin`].
    pub fn new(cfg: DetectorConfig) -> Self {
        OnlineDetector {
            cfg,
            walkers: Vec::new(),
            clocks: Vec::new(),
            active: BTreeMap::new(),
            next_retire: 0,
            stats: Vec::new(),
            alerts: Vec::new(),
            above_onset: false,
            index: 0,
            events: 0,
            makespan: 0.0,
            finished: false,
        }
    }

    /// Alerts emitted so far, in retirement order.
    pub(crate) fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Retired window summaries so far, ascending.
    pub(crate) fn stats(&self) -> &[WindowStat] {
        &self.stats
    }

    /// Events consumed so far. (Named to stay clear of
    /// [`TraceSink::events`].)
    pub(crate) fn events_seen(&self) -> u64 {
        self.events
    }

    /// Largest event timestamp seen so far.
    pub(crate) fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Ranks the stream declared (0 before `begin`).
    pub(crate) fn processors(&self) -> usize {
        self.walkers.len().max(self.clocks.len())
    }

    /// Bins one computation interval into the fixed-width windows it
    /// overlaps, never materializing more than `max_active` windows
    /// past the retirement cursor: an interval reaching further (a
    /// hostile or pathological timestamp — decode already rejects
    /// non-finite times, but finite ones can still be absurd) has its
    /// remainder attributed to the newest allowed window, so total
    /// binned time is conserved while memory stays O(`max_active` ×
    /// ranks).
    #[allow(clippy::too_many_arguments)]
    fn bin_interval(
        active: &mut BTreeMap<usize, Vec<f64>>,
        next_retire: usize,
        max_active: usize,
        procs: usize,
        width: f64,
        rank: usize,
        start: f64,
        end: f64,
    ) {
        // NaN-safe: bins only when `end` is strictly greater.
        if end.partial_cmp(&start) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        // Newest window index binning may materialize. `as usize`
        // saturates on huge floats, which `.min(cap)` then bounds.
        let cap = next_retire.saturating_add(max_active.max(1) - 1);
        let first = ((start / width).floor() as usize).min(cap);
        let last = ((end / width).floor() as usize).min(cap);
        for w in first..=last {
            // A window already retired (force-retired past a
            // straggler) drops late arrivals — the documented cost of
            // the memory bound.
            if w < next_retire {
                continue;
            }
            let lo = start.max(w as f64 * width);
            // The cap window absorbs whatever the clamp cut off.
            let hi = if w == cap {
                end
            } else {
                end.min((w + 1) as f64 * width)
            };
            if hi > lo {
                let loads = active.entry(w).or_insert_with(|| vec![0.0; procs]);
                loads[rank] += hi - lo;
            }
        }
    }

    /// Retires every window the watermark has passed, then enforces
    /// the `max_active` bound by force-retiring the oldest stragglers.
    ///
    /// Windows retire in dense index order (idle windows included) so
    /// the stat/alert sequence depends only on the event stream, not
    /// on where frame boundaries happened to fall — except past the
    /// `max_active` force-retire bound, where late arrivals behind a
    /// straggler are dropped, and across idle gaps longer than
    /// `MAX_IDLE_RUN`, which are elided (see `retire_below`).
    fn retire_ready(&mut self) {
        let watermark = self.clocks.iter().copied().fold(f64::INFINITY, f64::min);
        if watermark.is_finite() {
            // Windows strictly before `boundary` are final: every
            // rank's clock has passed their end. `as usize` saturates
            // on absurd (but finite) clocks; retire_below bounds the
            // work regardless.
            let boundary = (watermark / self.cfg.window).floor() as usize;
            self.retire_below(boundary);
        }
        while self.active.len() > self.cfg.max_active {
            let Some((&oldest, _)) = self.active.first_key_value() else {
                break;
            };
            self.retire(oldest);
        }
    }

    /// Retires every window strictly below `target` in ascending
    /// order. Idle windows between loaded ones retire as zero-load
    /// stats so indices stay dense — but a run of more than
    /// [`MAX_IDLE_RUN`] consecutive idle windows is elided down to its
    /// last `MAX_IDLE_RUN`: one hostile (finite but absurd) timestamp
    /// must not force billions of zero-load stats. The work per call is
    /// therefore bounded by the active set plus the elision cap, never
    /// by the raw magnitude of a timestamp.
    fn retire_below(&mut self, target: usize) {
        while self.next_retire < target {
            // The next loaded window before the target, if any; the
            // stretch up to it is all idle.
            let next_loaded = self
                .active
                .range(self.next_retire..)
                .next()
                .map(|(&w, _)| w)
                .filter(|&w| w < target)
                .unwrap_or(target);
            if next_loaded - self.next_retire > MAX_IDLE_RUN {
                self.next_retire = next_loaded - MAX_IDLE_RUN;
            }
            while self.next_retire < next_loaded {
                let w = self.next_retire;
                self.judge(w, None);
            }
            if next_loaded < target {
                let loads = self.active.remove(&next_loaded);
                self.judge(next_loaded, loads);
            }
        }
    }

    /// Retires all windows up to and including `upto`.
    fn retire(&mut self, upto: usize) {
        self.retire_below(upto);
        let w = upto.max(self.next_retire);
        let loads = self.active.remove(&w);
        self.judge(w, loads);
    }

    /// Computes one retired window's stats and alerts.
    fn judge(&mut self, window: usize, loads: Option<Vec<f64>>) {
        self.next_retire = window + 1;
        let procs = self.processors().max(1);
        let loads = loads.unwrap_or_default();
        let compute: f64 = loads.iter().sum();
        let mean = compute / procs as f64;
        let (mut busiest, mut peak) = (0u32, 0.0f64);
        let mut var = 0.0;
        for (rank, &load) in loads.iter().enumerate() {
            if load > peak {
                peak = load;
                busiest = rank as u32;
            }
            var += (load - mean) * (load - mean);
        }
        // Ranks beyond the loads vector (idle window) contribute the
        // full squared mean each.
        var += (procs - loads.len()) as f64 * mean * mean;
        var /= procs as f64;
        let std = var.sqrt();
        let cv = if mean > 0.0 { std / mean } else { 0.0 };
        self.stats.push(WindowStat {
            window,
            compute,
            mean,
            cv,
            busiest,
            peak,
        });

        if compute > 0.0 {
            if cv >= self.cfg.onset {
                if !self.above_onset {
                    self.alerts.push(Alert::Onset { window, value: cv });
                }
                self.above_onset = true;
            } else {
                self.above_onset = false;
            }
        }

        let k = self.cfg.trend_windows;
        if k >= 2 && self.stats.len() >= k {
            let tail = &self.stats[self.stats.len() - k..];
            let slope = least_squares_slope(tail.iter().map(|s| s.cv));
            if slope >= self.cfg.trend_slope {
                self.alerts.push(Alert::RisingTrend {
                    window,
                    slope,
                    over: k,
                });
            }
        }

        if std > 0.0 {
            let mut emitted = 0;
            for (rank, &load) in loads.iter().enumerate() {
                if emitted >= self.cfg.max_outliers {
                    break;
                }
                let sigmas = (load - mean) / std;
                if sigmas >= self.cfg.outlier_sigma {
                    self.alerts.push(Alert::RankOutlier {
                        window,
                        rank: rank as u32,
                        load,
                        mean,
                        sigmas,
                    });
                    emitted += 1;
                }
            }
        }
    }
}

/// Least-squares slope of `values` against their indices 0..n.
fn least_squares_slope(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    let n = values.len() as f64;
    if values.len() < 2 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y: f64 = values.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl TraceSink for OnlineDetector {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.walkers = (0..processors)
            .map(|proc| SalvageWalker::new(proc as u32, region_names.len()))
            .collect();
        self.clocks = vec![0.0; processors];
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        if self.walkers.len() != self.clocks.len() || self.clocks.is_empty() {
            return Err(TraceError::Malformed {
                detail: "events before begin".into(),
            });
        }
        let width = self.cfg.window;
        let max_active = self.cfg.max_active;
        let procs = self.clocks.len();
        for e in events {
            let index = self.index;
            self.index += 1;
            self.events += 1;
            // The stream decoder already rejects non-finite times;
            // this guards sinks fed from other producers.
            if !e.time.is_finite() {
                return Err(TraceError::MalformedEvent {
                    proc: e.proc,
                    index,
                    detail: format!("non-finite event timestamp {}", e.time),
                });
            }
            self.makespan = self.makespan.max(e.time);
            let rank = e.proc as usize;
            let Some(walker) = self.walkers.get_mut(rank) else {
                return Err(TraceError::MalformedEvent {
                    proc: e.proc,
                    index,
                    detail: format!("references processor {}, trace has {}", e.proc, procs),
                });
            };
            self.clocks[rank] = self.clocks[rank].max(e.time);
            let active = &mut self.active;
            let next_retire = self.next_retire;
            walker.step(index, e, &mut |attribution| {
                if let Attribution::Interval {
                    kind: ActivityKind::Computation,
                    start,
                    end,
                    ..
                } = attribution
                {
                    Self::bin_interval(
                        active,
                        next_retire,
                        max_active,
                        procs,
                        width,
                        rank,
                        start,
                        end,
                    );
                }
            })?;
        }
        self.retire_ready();
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        // Close every rank (truncation repair, same as salvage) so
        // trailing partial intervals are attributed, then retire
        // everything still open.
        let walkers = std::mem::take(&mut self.walkers);
        let width = self.cfg.window;
        let max_active = self.cfg.max_active;
        let procs = self.clocks.len().max(1);
        for walker in walkers {
            let rank = walker.proc() as usize;
            let active = &mut self.active;
            let next_retire = self.next_retire;
            walker.finish(&mut |attribution| {
                if let Attribution::Interval {
                    kind: ActivityKind::Computation,
                    start,
                    end,
                    ..
                } = attribution
                {
                    Self::bin_interval(
                        active,
                        next_retire,
                        max_active,
                        procs,
                        width,
                        rank,
                        start,
                        end,
                    );
                }
            });
        }
        while let Some((&oldest, _)) = self.active.first_key_value() {
            self.retire(oldest);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_trace::Event;

    fn feed(det: &mut OnlineDetector, events: &[Event]) {
        det.events(events).expect("well-formed");
    }

    /// Two ranks, rank 1 three times the compute of rank 0, in four
    /// 1-second windows.
    #[test]
    fn detects_onset_and_outliers() {
        let cfg = DetectorConfig {
            window: 1.0,
            onset: 0.3,
            trend_windows: 2,
            trend_slope: 10.0, // effectively off
            outlier_sigma: 0.9,
            ..DetectorConfig::default()
        };
        let mut det = OnlineDetector::new(cfg);
        det.begin(2, &["work".into()]).unwrap();
        let mut evs = Vec::new();
        for w in 0..4 {
            let t0 = w as f64;
            evs.push(Event::enter(t0, 0, 0.into()));
            evs.push(Event::leave(t0 + 0.2, 0, 0.into()));
            evs.push(Event::enter(t0, 1, 0.into()));
            evs.push(Event::leave(t0 + 0.8, 1, 0.into()));
        }
        feed(&mut det, &evs);
        det.finish().unwrap();
        assert_eq!(det.stats().len(), 4);
        let s0 = &det.stats()[0];
        assert!((s0.compute - 1.0).abs() < 1e-9, "{s0:?}");
        assert_eq!(s0.busiest, 1);
        assert!(det
            .alerts()
            .iter()
            .any(|a| matches!(a, Alert::Onset { window: 0, .. })));
        assert!(det
            .alerts()
            .iter()
            .any(|a| matches!(a, Alert::RankOutlier { rank: 1, .. })));
    }

    #[test]
    fn detects_rising_trend() {
        let cfg = DetectorConfig {
            window: 1.0,
            onset: 10.0, // off
            trend_windows: 3,
            trend_slope: 0.05,
            outlier_sigma: 100.0, // off
            ..DetectorConfig::default()
        };
        let mut det = OnlineDetector::new(cfg);
        det.begin(2, &["work".into()]).unwrap();
        let mut evs = Vec::new();
        // Rank 1's share grows every window: CV rises.
        for w in 0..5 {
            let t0 = w as f64;
            let skew = 0.1 + 0.15 * w as f64;
            evs.push(Event::enter(t0, 0, 0.into()));
            evs.push(Event::leave(t0 + 0.5 - skew / 2.0, 0, 0.into()));
            evs.push(Event::enter(t0, 1, 0.into()));
            evs.push(Event::leave(t0 + 0.5 + skew / 2.0, 1, 0.into()));
        }
        feed(&mut det, &evs);
        det.finish().unwrap();
        assert!(
            det.alerts()
                .iter()
                .any(|a| matches!(a, Alert::RisingTrend { .. })),
            "{:?}",
            det.alerts()
        );
    }

    /// The alert stream is a pure function of the event stream: one
    /// batch vs many batches vs replay produce identical alerts.
    #[test]
    fn alerts_are_deterministic_across_batching() {
        let cfg = DetectorConfig {
            window: 0.5,
            onset: 0.2,
            outlier_sigma: 1.0,
            ..DetectorConfig::default()
        };
        let mut evs = Vec::new();
        for w in 0..6 {
            let t0 = w as f64 * 0.5;
            for rank in 0..3u32 {
                evs.push(Event::enter(t0, rank, 0.into()));
                evs.push(Event::leave(t0 + 0.1 * (rank + 1) as f64, rank, 0.into()));
            }
        }
        let run = |chunk: usize| {
            let mut det = OnlineDetector::new(cfg.clone());
            det.begin(3, &["work".into()]).unwrap();
            for batch in evs.chunks(chunk) {
                det.events(batch).unwrap();
            }
            det.finish().unwrap();
            (det.alerts().to_vec(), det.stats().to_vec())
        };
        let whole = run(evs.len());
        for chunk in [1, 2, 5] {
            assert_eq!(run(chunk), whole);
        }
    }

    /// Hostile (finite but absurd) timestamps cannot blow the memory
    /// bound: binning clamps to the `max_active` cap with the
    /// remainder attributed to the newest allowed window, and the
    /// idle stretch up to the watermark is elided, so the call
    /// returns promptly with bounded state and conserved compute.
    #[test]
    fn absurd_timestamps_stay_bounded() {
        let cfg = DetectorConfig {
            window: 0.25,
            max_active: 8,
            ..DetectorConfig::default()
        };
        let mut det = OnlineDetector::new(cfg);
        det.begin(1, &["work".into()]).unwrap();
        // One computation interval claiming to last 1e18 seconds —
        // ~4e18 windows if binned naively.
        feed(
            &mut det,
            &[
                Event::enter(0.0, 0, 0.into()),
                Event::leave(1e18, 0, 0.into()),
            ],
        );
        assert!(det.active.len() <= 8, "active = {}", det.active.len());
        det.finish().unwrap();
        assert!(
            det.stats().len() <= 8 + MAX_IDLE_RUN + 2,
            "stats = {}",
            det.stats().len()
        );
        let total: f64 = det.stats().iter().map(|s| s.compute).sum();
        assert!((total - 1e18).abs() < 1e6, "compute not conserved: {total}");
    }

    /// Non-finite timestamps are rejected with a named error instead
    /// of poisoning the window arithmetic.
    #[test]
    fn non_finite_timestamps_are_rejected() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut det = OnlineDetector::new(DetectorConfig::default());
            det.begin(1, &["work".into()]).unwrap();
            let err = det.events(&[Event::enter(time, 0, 0.into())]).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
    }

    /// JSON bodies stay valid when a float goes non-finite: the value
    /// becomes `null`, never a bare `NaN`/`inf` token.
    #[test]
    fn json_handles_non_finite_floats() {
        assert_eq!(json_f64(1.5), "1.500000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        let alert = Alert::Onset {
            window: 3,
            value: f64::NAN,
        };
        assert_eq!(
            alert.to_json(),
            "{\"kind\":\"onset\",\"window\":3,\"cv\":null}"
        );
        let stat = WindowStat {
            window: 0,
            compute: f64::INFINITY,
            mean: 1.0,
            cv: 0.5,
            busiest: 2,
            peak: 4.0,
        };
        assert!(
            stat.to_json().contains("\"compute\":null"),
            "{}",
            stat.to_json()
        );
    }

    /// The memory bound: a straggling rank cannot hold unbounded
    /// windows open.
    #[test]
    fn straggler_cannot_grow_active_windows_unboundedly() {
        let cfg = DetectorConfig {
            window: 0.1,
            max_active: 4,
            ..DetectorConfig::default()
        };
        let mut det = OnlineDetector::new(cfg);
        det.begin(2, &["work".into()]).unwrap();
        // Rank 0 stays at t≈0 (stalls the watermark); rank 1 races
        // ahead through many windows.
        let mut evs = vec![Event::enter(0.0, 0, 0.into())];
        evs.push(Event::enter(0.0, 1, 0.into()));
        for i in 1..100 {
            let t = i as f64 * 0.1;
            evs.push(Event::leave(t, 1, 0.into()));
            evs.push(Event::enter(t, 1, 0.into()));
        }
        feed(&mut det, &evs);
        assert!(det.active.len() <= 4, "active = {}", det.active.len());
        det.finish().unwrap();
    }
}
