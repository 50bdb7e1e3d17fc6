//! Streamed simulate → reduce: the paper's post-mortem reduction of
//! each rank's events into the `t_ijp` matrix, computed while the
//! simulation runs instead of from a materialized trace.
//!
//! The materialized pipeline builds each stage's full output before the
//! next starts: simulate → [`Trace`] → tracefile → reduce. Here the
//! simulator hands each retired batch of events straight to the
//! reducing [`TraceSink`] folds, so a 64k-rank run is reduced (and,
//! optionally, windowed) while holding only one batch of events plus
//! the folds' per-rank state:
//!
//! * [`stream_reduce`] — the driver the CLI and examples use. It
//!   simulates once, folding the events into the salvaged reduction
//!   (whose activity columns grow as extras first appear) while a scan
//!   records the makespan, activity set and totals alongside. Only a
//!   windowed request simulates twice: the window width needs the
//!   makespan before the first event is folded, so a scan-only run
//!   comes first, and the deterministic simulator replays the
//!   identical event stream for the folds.
//! * [`stream_reduce_tee`] — the same, with an extra sink (e.g. a
//!   [`WriteSink`] persisting the chunked tracefile) fed the folding
//!   run's events alongside the folds.
//!
//! Results are **bit-identical** to the materialized path — the folds
//! drive the same per-rank attribution state machines over the same
//! per-rank event orders — which `tests/stream_equivalence.rs` locks
//! across workloads × fault plans × balance plans × frame sizes × job
//! counts.
//!
//! [`Trace`]: limba_trace::Trace
//! [`WriteSink`]: limba_trace::WriteSink

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::fmt;

use limba_model::ActivitySet;
use limba_mpisim::{BalancePlan, FaultPlan, Program, RunBudget, SimError, Simulator, StreamOutput};
use limba_trace::stream::StreamScan;
use limba_trace::{
    ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, TeeSink, TraceError, TraceSink, WindowSink,
};

/// Error of a streamed run.
#[derive(Debug)]
pub enum StreamError {
    /// The simulation failed.
    Sim(SimError),
    /// Folding the event stream failed, or the tee rejected it.
    Trace(TraceError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Sim(e) => write!(f, "simulation failed: {e}"),
            StreamError::Trace(e) => write!(f, "trace stream failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Sim(e) => Some(e),
            StreamError::Trace(e) => Some(e),
        }
    }
}

impl From<SimError> for StreamError {
    fn from(e: SimError) -> Self {
        StreamError::Sim(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

/// Tuning knobs of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Events per batch handed to the folds (the engine's flush
    /// threshold); also the frame size of a teed tracefile.
    pub frame_events: usize,
    /// Worker threads for the simulation engine (1 = sequential event
    /// engine, 0 = all CPUs; same meaning as everywhere else).
    pub jobs: usize,
    /// Fold into this many equal time windows as well (the streaming
    /// [`reduce_windows`](limba_trace::reduce_windows)).
    pub windows: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            frame_events: 4096,
            jobs: 1,
            windows: None,
        }
    }
}

/// Everything a streamed simulate→reduce run produces — without the
/// trace, which never existed in one piece.
#[derive(Debug, Clone)]
pub struct StreamedReduction {
    /// Simulation statistics and fault/balance reports.
    pub output: StreamOutput,
    /// The salvaged full reduction with per-rank coverage — identical
    /// to materializing the trace and calling
    /// [`reduce_checked`](limba_trace::reduce_checked).
    pub salvaged: SalvagedTrace,
    /// The windowed reductions, when [`StreamConfig::windows`] asked
    /// for them — identical to the materialized
    /// [`reduce_windows`](limba_trace::reduce_windows).
    pub windows: Option<Vec<ReducedTrace>>,
    /// The run's scan: makespan, activity set, event count — the same
    /// whether it rode along with the folds or ran first for windows.
    pub scan: StreamScan,
}

/// The streaming driver: simulate → salvaged (and optionally windowed)
/// reduction, never materializing the trace.
///
/// Without [`StreamConfig::windows`] the program is simulated once:
/// each batch of `frame_events` events goes straight into a
/// [`ScanSink`] and a standard-seeded [`SalvageSink`], which appends
/// the extra activities' columns as they first appear. With windows,
/// the [`WindowSink`] needs the makespan at construction, so an
/// O(1)-memory scan-only run comes first and the folds run on a
/// second; the simulator's determinism makes both see the identical
/// event stream.
///
/// The results are bit-identical to materializing the trace and
/// reducing it, per the differential harness.
///
/// # Errors
///
/// Simulation errors (including budget interruption and cancellation
/// via [`RunBudget`]) as [`StreamError::Sim`]; fold rejections and the
/// same degenerate window requests as
/// [`reduce_windows`](limba_trace::reduce_windows) as
/// [`StreamError::Trace`].
pub fn stream_reduce(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
    cfg: &StreamConfig,
) -> Result<StreamedReduction, StreamError> {
    stream_reduce_tee(sim, program, faults, balance, budget, cfg, None)
}

/// [`stream_reduce`] with an optional tee: the folding run feeds the
/// identical event stream into `tee` as well — e.g. a
/// [`WriteSink`](limba_trace::WriteSink) persisting the chunked
/// tracefile while the reduction folds it, still without ever
/// materializing the trace. A windowed request's scan-only run does
/// not touch the tee, so the tee sees the stream exactly once.
///
/// # Errors
///
/// As [`stream_reduce`]. An error from the tee aborts the simulation at
/// the next round boundary, like a fold error, and is returned as
/// [`StreamError::Trace`]; the tee is handed no events after it.
pub fn stream_reduce_tee(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
    cfg: &StreamConfig,
    tee: Option<&mut dyn TraceSink>,
) -> Result<StreamedReduction, StreamError> {
    let run = |sink: &mut dyn TraceSink| {
        sim.run_streaming_parallel_configured(
            program,
            faults,
            balance,
            budget,
            cfg.jobs,
            sink,
            cfg.frame_events,
        )
    };

    // Sink errors latch in the engine and surface as `SimError::Trace`;
    // they are the stream's failure, not the run's.
    let fold = |folds: &mut dyn TraceSink| {
        let result = match tee {
            Some(tee) => run(&mut TeeSink::new(tee, folds)),
            None => run(folds),
        };
        result.map_err(|e| match e {
            SimError::Trace(te) => StreamError::Trace(te),
            e => StreamError::Sim(e),
        })
    };

    let mut salvage = SalvageSink::new(ActivitySet::standard());
    let mut scan_sink = ScanSink::new();
    let (output, scan, windows) = match cfg.windows {
        // One run: the scan rides along with the salvage fold, which
        // grows its activity columns as extras appear.
        None => {
            let output = fold(&mut TeeSink::new(&mut scan_sink, &mut salvage))?;
            let scan = scan_sink.into_scan().ok_or_else(|| unfinished("scan"))?;
            (output, scan, None)
        }
        // The window width comes from the makespan: scan on a first
        // run, fold on a second.
        Some(w) => {
            run(&mut scan_sink)?;
            let scan = scan_sink.into_scan().ok_or_else(|| unfinished("scan"))?;
            let mut windowed = WindowSink::new(w, scan.makespan, scan.activities.clone())?;
            let output = fold(&mut TeeSink::new(&mut salvage, &mut windowed))?;
            let windows = windowed
                .into_windows()
                .ok_or_else(|| unfinished("window fold"))?;
            (output, scan, Some(windows))
        }
    };
    let salvaged = salvage
        .into_salvaged()
        .ok_or_else(|| unfinished("salvage fold"))?;
    Ok(StreamedReduction {
        output,
        salvaged,
        windows,
        scan,
    })
}

/// A sink left without its result after a successful run — which the
/// engine rules out by finishing every sink it completes a run on.
fn unfinished(sink: &str) -> StreamError {
    StreamError::Trace(TraceError::Malformed {
        detail: format!("{sink} pass ended before finish"),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use limba_mpisim::MachineConfig;

    fn machine(ranks: usize) -> Simulator {
        Simulator::new(MachineConfig::new(ranks))
    }

    fn sample_program(ranks: usize) -> Program {
        use limba_mpisim::ProgramBuilder;
        let mut b = ProgramBuilder::new(ranks);
        let work = b.add_region("work");
        b.spmd(|rank, mut ops| {
            ops.enter(work);
            ops.compute(1.0 + rank as f64 * 0.25);
            if ranks > 1 {
                let peer = (rank + 1) % ranks;
                ops.isend(peer, 1024, 0);
                ops.recv((rank + ranks - 1) % ranks);
                ops.wait(0);
            }
            ops.barrier();
            ops.leave(work);
        });
        b.build().expect("valid program")
    }

    #[test]
    fn streamed_reduction_matches_materialized() {
        let ranks = 8;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let materialized = sim.run(&program).expect("materialized run");
        let batch = materialized.reduce_checked().expect("batch reduce");
        let windows = limba_trace::reduce_windows(&materialized.trace, 4).expect("batch windows");

        for frame_events in [1, 7, 4096] {
            let cfg = StreamConfig {
                frame_events,
                windows: Some(4),
                ..StreamConfig::default()
            };
            let streamed = stream_reduce(&sim, &program, None, None, None, &cfg).expect("streamed");
            assert_eq!(streamed.output.stats, materialized.stats);
            assert_eq!(streamed.salvaged.coverage, batch.coverage);
            assert_eq!(
                streamed.salvaged.reduced.measurements,
                batch.reduced.measurements
            );
            assert_eq!(streamed.salvaged.reduced.counts, batch.reduced.counts);
            let streamed_windows = streamed.windows.expect("windows requested");
            assert_eq!(streamed_windows.len(), windows.len());
            for (s, b) in streamed_windows.iter().zip(&windows) {
                assert_eq!(s.measurements, b.measurements);
                assert_eq!(s.counts, b.counts);
            }
        }
    }

    #[test]
    fn the_teed_scan_equals_a_standalone_scan_pass() {
        let ranks = 6;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let mut alone = ScanSink::new();
        sim.run_streaming_parallel_configured(&program, None, None, None, 1, &mut alone, 5)
            .expect("scan run");
        let alone = alone.into_scan().expect("finished scan");
        for windows in [None, Some(3)] {
            let cfg = StreamConfig {
                frame_events: 5,
                windows,
                ..StreamConfig::default()
            };
            let scan = stream_reduce(&sim, &program, None, None, None, &cfg)
                .expect("streamed")
                .scan;
            assert_eq!(scan.makespan.to_bits(), alone.makespan.to_bits());
            assert_eq!(scan.activities, alone.activities);
            assert_eq!(scan.events, alone.events);
            assert_eq!(scan.processors, alone.processors);
            assert_eq!(scan.region_names, alone.region_names);
        }
    }

    #[test]
    fn a_failing_tee_aborts_the_run() {
        /// A tee that rejects the first batch of events and counts every
        /// batch it is handed.
        struct FailingTee {
            batches: usize,
        }
        impl TraceSink for FailingTee {
            fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
                Ok(())
            }
            fn events(&mut self, _: &[limba_trace::Event]) -> Result<(), TraceError> {
                self.batches += 1;
                Err(TraceError::Io(std::io::Error::other("tee gave up")))
            }
            fn finish(&mut self) -> Result<(), TraceError> {
                Ok(())
            }
        }

        let ranks = 4;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let cfg = StreamConfig {
            frame_events: 1,
            ..StreamConfig::default()
        };
        let mut tee = FailingTee { batches: 0 };
        let err = stream_reduce_tee(&sim, &program, None, None, None, &cfg, Some(&mut tee))
            .expect_err("the tee's failure must abort the run");
        assert!(
            matches!(err, StreamError::Trace(ref e) if e.to_string().contains("tee gave up")),
            "{err}"
        );
        assert_eq!(tee.batches, 1, "the tee was fed after it failed");
    }

    #[test]
    fn windowing_an_empty_run_fails_like_the_batch_path() {
        let sim = machine(1);
        let program = {
            let mut b = limba_mpisim::ProgramBuilder::new(1);
            b.rank(0);
            b.build().expect("empty program")
        };
        let cfg = StreamConfig {
            windows: Some(3),
            ..StreamConfig::default()
        };
        let err = stream_reduce(&sim, &program, None, None, None, &cfg).expect_err("no time");
        assert!(err.to_string().contains("spans no time"), "{err}");
    }
}
