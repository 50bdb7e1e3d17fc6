//! `offline-cfd64k`: the default post-mortem path. Setup encodes the
//! stream workload's program once in `simulate`'s default binary format
//! (v2); each unit decodes those bytes, reduces, analyzes and renders.
//! The decode and materialize layers do the work; the simulator none.

use limba_mpisim::{MachineConfig, Simulator};

use super::{cfd, offline_report, stream_report, timed, Case, JITTER};
use crate::spans::Recorder;
use crate::{Layers, Options, Unit};

/// State of the offline workload.
pub struct OfflineCase {
    ranks: usize,
    seed: u64,
    reps: usize,
    /// The v2 tracefile bytes.
    bytes: Vec<u8>,
    events: usize,
    /// The stream path's report for the same program.
    expected: String,
}

impl Case for OfflineCase {
    fn setup(opts: &Options) -> Result<Self, String> {
        let ranks = opts.size.cfd_ranks;
        let program = cfd(ranks, JITTER, opts.seed)?;
        let sim = Simulator::new(MachineConfig::new(ranks));
        let materialized = sim
            .run_configured(&program, None, None, None)
            .map_err(|e| format!("simulate: {e}"))?;
        let events = materialized.trace.events().len();
        let bytes = limba_trace::binary::to_bytes(&materialized.trace).to_vec();
        drop(materialized);
        let off = &mut Recorder::new(false);
        let expected = stream_report(&sim, &program, off)?;
        let mut case = OfflineCase {
            ranks,
            seed: opts.seed,
            reps: opts.size.layer_reps,
            bytes,
            events,
            expected,
        };
        case.unit(off)?;
        Ok(case)
    }

    fn unit(&mut self, rec: &mut Recorder) -> Result<Unit, String> {
        let t = std::time::Instant::now();
        let text = offline_report(&self.bytes, rec)?;
        let report_s = t.elapsed().as_secs_f64();
        if text != self.expected {
            return Err("offline report differs from the stream report of the same program".into());
        }
        Ok(Unit {
            report_s,
            query_s: None,
            report_bytes: text.len(),
        })
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Layers) -> Result<(), String> {
        for _ in 0..self.reps {
            timed(rec, "workloads.build", || {
                cfd(self.ranks, JITTER, self.seed)
            })?;
        }
        out.insert("mpisim.events", self.events as f64);
        Ok(())
    }
}
