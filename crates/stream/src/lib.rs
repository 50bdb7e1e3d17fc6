//! Streamed simulate → reduce: the paper's post-mortem reduction of
//! each rank's events into the `t_ijp` matrix, computed while the
//! simulation runs instead of from a materialized trace.
//!
//! The materialized pipeline builds each stage's full output before the
//! next starts: simulate → [`Trace`] → tracefile → reduce. Here the
//! simulator hands each retired batch of events to the reducing
//! [`TraceSink`] folds, which run on a second thread while it simulates
//! on ([`pipelined`]), so a 64k-rank run is reduced (and, optionally,
//! windowed) while holding at most five batches of events — the one the
//! simulator fills, two queued, one being folded and one being handed
//! over — plus the folds' per-rank state:
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
//!   run's events alongside the folds, on the same fold thread.
//! * [`pipelined`] — the two-thread pipeline under both: any producer
//!   on the calling thread, any `Send` sink on the fold thread.
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

pub use limba_trace::pipelined;

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
/// each batch of `frame_events` events goes to a [`ScanSink`] and a
/// standard-seeded [`SalvageSink`], which appends the extra
/// activities' columns as they first appear; they fold on a second
/// thread while the simulator runs on the calling one ([`pipelined`]).
/// With windows, the [`WindowSink`] needs the makespan at
/// construction, so an O(1)-memory scan-only run comes first, on the
/// calling thread alone, and the folds ride a second run; the
/// simulator's determinism makes both see the identical event stream.
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
/// [`StreamError::Trace`]; the tee is handed no events after it. A fold
/// or tee error is returned in preference to a simulation error of the
/// same run ([`pipelined`]'s precedence rule), and a panic in either is
/// re-raised on the caller.
pub fn stream_reduce_tee(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
    cfg: &StreamConfig,
    tee: Option<&mut (dyn TraceSink + Send)>,
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

    // The folds (and the tee) run on the pipeline's worker thread. A
    // sink's error wins over the run's; one that latched in the engine
    // surfaces as `SimError::Trace`, and is the stream's failure too.
    let fold = |folds: &mut (dyn TraceSink + Send)| {
        let result = match tee {
            Some(tee) => pipelined(&mut TeeSink::new(tee, folds), run),
            None => pipelined(folds, run),
        };
        match result? {
            Ok(output) => Ok(output),
            Err(SimError::Trace(te)) => Err(StreamError::Trace(te)),
            Err(e) => Err(StreamError::Sim(e)),
        }
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

    /// A fold that counts the batches it is handed, fails on batch
    /// `reject_at` and sleeps `pause` on each batch, so a fast producer
    /// has frames in flight.
    struct Probe {
        batches: usize,
        reject_at: Option<usize>,
        pause: std::time::Duration,
    }

    impl Probe {
        fn new(reject_at: Option<usize>) -> Self {
            Probe {
                batches: 0,
                reject_at,
                pause: std::time::Duration::ZERO,
            }
        }
    }

    impl TraceSink for Probe {
        fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
            Ok(())
        }
        fn events(&mut self, _: &[limba_trace::Event]) -> Result<(), TraceError> {
            self.batches += 1;
            std::thread::sleep(self.pause);
            if self.reject_at == Some(self.batches) {
                return Err(TraceError::Malformed {
                    detail: format!("fold rejected batch {}", self.batches),
                });
            }
            Ok(())
        }
        fn finish(&mut self) -> Result<(), TraceError> {
            Ok(())
        }
    }

    /// The serial path: the same folds as `stream_reduce_tee`'s
    /// unwindowed run, called by the engine on the simulating thread.
    fn serial(
        sim: &Simulator,
        program: &Program,
        budget: Option<&RunBudget>,
        cfg: &StreamConfig,
        tee: &mut dyn TraceSink,
    ) -> Result<StreamOutput, StreamError> {
        let mut scan = ScanSink::new();
        let mut salvage = SalvageSink::new(ActivitySet::standard());
        let folds = TeeSink::new(&mut scan, &mut salvage);
        sim.run_streaming_parallel_configured(
            program,
            None,
            None,
            budget,
            cfg.jobs,
            &mut TeeSink::new(tee, folds),
            cfg.frame_events,
        )
        .map_err(|e| match e {
            SimError::Trace(te) => StreamError::Trace(te),
            e => StreamError::Sim(e),
        })
    }

    /// `sample_program`, then every rank waits on its neighbour for a
    /// message nobody sends: a deadlock some rounds into the run.
    fn deadlocking_program(ranks: usize) -> Program {
        use limba_mpisim::ProgramBuilder;
        let mut b = ProgramBuilder::new(ranks);
        let work = b.add_region("work");
        let stuck = b.add_region("stuck");
        b.spmd(|rank, mut ops| {
            ops.enter(work);
            ops.compute(1.0 + rank as f64 * 0.25);
            ops.barrier();
            ops.leave(work);
            ops.enter(stuck);
            ops.recv((rank + 1) % ranks);
            ops.leave(stuck);
        });
        b.build().expect("valid program")
    }

    fn frame_by_frame() -> StreamConfig {
        StreamConfig {
            frame_events: 1,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn a_fold_rejecting_batch_k_fails_as_on_the_serial_path() {
        let ranks = 6;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let cfg = frame_by_frame();
        for k in [1, 2, 9, 20] {
            let mut tee = Probe::new(Some(k));
            let piped = stream_reduce_tee(&sim, &program, None, None, None, &cfg, Some(&mut tee))
                .expect_err("the fold rejects a batch");
            assert_eq!(
                tee.batches, k,
                "batch {k}: the fold was fed after it failed"
            );

            let mut tee = Probe::new(Some(k));
            let alone = serial(&sim, &program, None, &cfg, &mut tee).expect_err("serial");
            assert_eq!(tee.batches, k);
            assert_eq!(piped.to_string(), alone.to_string(), "batch {k}");
            assert!(piped.to_string().contains(&format!("batch {k}")), "{piped}");
        }
    }

    #[test]
    fn a_panicking_fold_re_raises_its_panic_on_the_caller() {
        struct Panics;
        impl TraceSink for Panics {
            fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
                Ok(())
            }
            fn events(&mut self, _: &[limba_trace::Event]) -> Result<(), TraceError> {
                panic!("the fold blew up");
            }
            fn finish(&mut self) -> Result<(), TraceError> {
                Ok(())
            }
        }
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        };

        let ranks = 4;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let cfg = frame_by_frame();
        let piped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_reduce_tee(&sim, &program, None, None, None, &cfg, Some(&mut Panics))
        }))
        .expect_err("the fold's panic reaches the caller");
        let alone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serial(&sim, &program, None, &cfg, &mut Panics)
        }))
        .expect_err("serial");
        assert_eq!(message(piped), "the fold blew up");
        assert_eq!(message(alone), "the fold blew up");
    }

    #[test]
    fn a_budget_interruption_with_frames_in_flight_keeps_its_diagnostic() {
        let ranks = 8;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let budget = RunBudget {
            max_ops: Some(30),
            ..RunBudget::default()
        };
        let expected = sim
            .run_configured(&program, None, None, Some(&budget))
            .expect_err("the budget interrupts the run");
        assert!(matches!(expected, SimError::Interrupted { .. }));

        let cfg = frame_by_frame();
        // A slow fold: the simulator runs ahead and fills the channel.
        let mut tee = Probe::new(None);
        tee.pause = std::time::Duration::from_millis(1);
        let piped = stream_reduce_tee(
            &sim,
            &program,
            None,
            None,
            Some(&budget),
            &cfg,
            Some(&mut tee),
        )
        .expect_err("interrupted");
        assert!(
            matches!(piped, StreamError::Sim(ref e) if e.to_string() == expected.to_string()),
            "{piped}"
        );

        // Every frame recorded before the interruption was folded.
        let mut alone = Probe::new(None);
        let err = serial(&sim, &program, Some(&budget), &cfg, &mut alone).expect_err("serial");
        assert_eq!(err.to_string(), piped.to_string());
        assert_eq!(tee.batches, alone.batches);
        assert!(tee.batches > 0);
    }

    /// A fold error and a simulation error in one run: the fold's error
    /// is returned (see `pipelined`'s precedence rule). The serial path
    /// agrees whenever the fold fails in an earlier round than the
    /// simulation, because it stops at the next round boundary; within
    /// one round it reports the simulation's.
    #[test]
    fn a_fold_error_takes_precedence_over_a_simulation_error() {
        let ranks = 4;
        let sim = machine(ranks);
        let program = deadlocking_program(ranks);
        let cfg = frame_by_frame();

        // Without a fold error the deadlock is returned unchanged.
        let expected = sim.run(&program).expect_err("the program deadlocks");
        assert!(matches!(expected, SimError::Deadlock { .. }));
        let mut tee = Probe::new(None);
        let piped = stream_reduce_tee(&sim, &program, None, None, None, &cfg, Some(&mut tee))
            .expect_err("deadlock");
        assert!(
            matches!(piped, StreamError::Sim(ref e) if e.to_string() == expected.to_string()),
            "{piped}"
        );
        let alone = serial(&sim, &program, None, &cfg, &mut Probe::new(None)).expect_err("serial");
        assert_eq!(alone.to_string(), piped.to_string());

        // A fold that fails on the first event: its error wins.
        let mut tee = Probe::new(Some(1));
        let piped = stream_reduce_tee(&sim, &program, None, None, None, &cfg, Some(&mut tee))
            .expect_err("the fold fails");
        assert!(matches!(piped, StreamError::Trace(_)), "{piped}");
        assert_eq!(tee.batches, 1);
        let alone =
            serial(&sim, &program, None, &cfg, &mut Probe::new(Some(1))).expect_err("serial");
        assert_eq!(alone.to_string(), piped.to_string());

        // Also when the simulation fails before the fold's error can
        // reach it: a budget that fires within the first round. The
        // serial path checks its sink's error only at round boundaries,
        // so there the interruption comes first; the pipelined run
        // cannot tell how far the simulator got, and takes the fold's.
        let budget = RunBudget {
            max_ops: Some(2),
            ..RunBudget::default()
        };
        let alone = serial(
            &sim,
            &program,
            Some(&budget),
            &cfg,
            &mut Probe::new(Some(1)),
        )
        .expect_err("serial");
        assert!(
            matches!(alone, StreamError::Sim(SimError::Interrupted { .. })),
            "{alone}"
        );
        let mut tee = Probe::new(Some(1));
        let piped = stream_reduce_tee(
            &sim,
            &program,
            None,
            None,
            Some(&budget),
            &cfg,
            Some(&mut tee),
        )
        .expect_err("both fail");
        assert!(
            piped.to_string().contains("fold rejected batch 1"),
            "{piped}"
        );
    }
}
