//! `stream-cfd64k`: `simulate cfd --ranks 65536 --imbalance jitter:0.2
//! --seed S --stream-reduce`, called as `stream_reduce` → analyze →
//! render. The simulator does most of the work (two passes today); no
//! tracefile is materialized or decoded.

use limba_mpisim::{MachineConfig, Program, Simulator};
use limba_trace::{stream::decode_all, stream::to_stream_bytes, SalvageSink, ScanSink};

use super::{cfd, offline_report, stream_report, timed, Case, FRAME_EVENTS, JITTER};
use crate::metrics::mib;
use crate::seams::TimedSink;
use crate::spans::Recorder;
use crate::{Layers, Options, Unit};

/// State of the stream workload.
pub struct StreamCase {
    ranks: usize,
    seed: u64,
    reps: usize,
    sim: Simulator,
    program: Program,
    /// The offline path's report for the same program: the stream
    /// report must match it byte for byte.
    expected: String,
}

impl Case for StreamCase {
    fn setup(opts: &Options) -> Result<Self, String> {
        let ranks = opts.size.cfd_ranks;
        let program = cfd(ranks, JITTER, opts.seed)?;
        let sim = Simulator::new(MachineConfig::new(ranks));
        let off = &mut Recorder::new(false);
        let materialized = sim
            .run_configured(&program, None, None, None)
            .map_err(|e| format!("simulate: {e}"))?;
        let bytes = limba_trace::binary::to_bytes(&materialized.trace);
        drop(materialized);
        let expected = offline_report(&bytes, off)?;
        drop(bytes);
        let mut case = StreamCase {
            ranks,
            seed: opts.seed,
            reps: opts.size.layer_reps,
            sim,
            program,
            expected,
        };
        case.unit(off)?;
        Ok(case)
    }

    fn unit(&mut self, rec: &mut Recorder) -> Result<Unit, String> {
        let t = std::time::Instant::now();
        let text = stream_report(&self.sim, &self.program, rec)?;
        let report_s = t.elapsed().as_secs_f64();
        if text != self.expected {
            return Err("stream report differs from the offline report of the same trace".into());
        }
        Ok(Unit {
            report_s,
            query_s: None,
            report_bytes: text.len(),
        })
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Layers) -> Result<(), String> {
        for _ in 0..self.reps {
            let root = rec.open("bench.layers");
            let program = timed(rec, "workloads.build", || {
                cfd(self.ranks, JITTER, self.seed)
            })?;

            let mut scan = TimedSink::new(ScanSink::new());
            timed(rec, "mpisim.event", || {
                self.sim.run_streaming_configured(
                    &program,
                    None,
                    None,
                    None,
                    &mut scan,
                    FRAME_EVENTS,
                )
            })
            .map_err(|e| format!("event engine: {e}"))?;
            out.insert("mpisim.events", scan.events as f64);
            out.insert("trace.frames", scan.frames as f64);
            let scan = scan.inner.into_scan().ok_or("scan pass did not finish")?;

            let mut par = ScanSink::new();
            timed(rec, "mpisim.event_par2", || {
                self.sim.run_streaming_parallel_configured(
                    &program,
                    None,
                    None,
                    None,
                    2,
                    &mut par,
                    FRAME_EVENTS,
                )
            })
            .map_err(|e| format!("event-par engine: {e}"))?;

            let materialized = timed(rec, "mpisim.materialize", || {
                self.sim.run_configured(&program, None, None, None)
            })
            .map_err(|e| format!("simulate: {e}"))?;
            let bytes = timed(rec, "trace.encode", || {
                to_stream_bytes(&materialized.trace, FRAME_EVENTS)
            })
            .map_err(|e| format!("encode: {e}"))?;
            drop(materialized);
            out.insert("trace.encoded_mib", mib(bytes.len() as u64));

            let mut fold = SalvageSink::new(scan.activities.clone());
            timed(rec, "trace.fold_salvage", || decode_all(&bytes, &mut fold))
                .map_err(|e| format!("salvage fold: {e}"))?;
            fold.into_salvaged().ok_or("salvage fold did not finish")?;
            rec.close(root);
        }
        Ok(())
    }
}
