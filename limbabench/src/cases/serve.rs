//! `serve-cfd4k`: an in-process `Server` under a closed loop — one
//! client, one connection at a time. Each unit pushes a 4096-rank CFD
//! trace (chunked v3, recorded in setup from four seeds, rotating over
//! four tenants), waits for the `Final` verdict, then asks
//! `EVOLUTION <tenant> <run> 8` about the previous completed run. The
//! server's state directory is created fresh by setup and deleted when
//! the case is dropped.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use limba_mpisim::{MachineConfig, Simulator};
use limba_serve::client::{query, PushStatus};
use limba_serve::replay::{complete_report, evolution_report};
use limba_serve::{DetectorConfig, OnlineDetector, PushSession, ServeConfig, Server};
use limba_trace::stream::decode_all;
use limba_trace::{SalvageSink, ScanSink, TraceSink, WindowSink, WriteSink};
use limba_vfs::{StdVfs, Vfs};

use super::{cfd, timed, Case, FRAME_EVENTS, JITTER};
use crate::metrics::mib;
use crate::seams::{CountingVfs, Recording, TimedSink, VfsSnapshot, VfsStats};
use crate::spans::Recorder;
use crate::{Layers, Options, Unit};

/// Distinct pushed traces, one per tenant.
const TENANTS: usize = 4;
/// Windows of every `EVOLUTION` query.
const WINDOWS: usize = 8;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// One pushed trace and the answers the server must give for it.
struct Input {
    recording: Recording,
    bytes: Vec<u8>,
    path: PathBuf,
    final_report: String,
    evolution: String,
}

/// Per-phase I/O totals of the traced run.
#[derive(Default)]
struct Io {
    cycles: u64,
    push: VfsSnapshot,
    query: VfsSnapshot,
}

/// State of the serve workload.
pub struct ServeCase {
    dir: PathBuf,
    server: Option<Server>,
    stats: Option<Arc<VfsStats>>,
    inputs: Vec<Input>,
    cycle: usize,
    reps: usize,
    io: Io,
}

impl Drop for ServeCase {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn add(a: VfsSnapshot, b: VfsSnapshot) -> VfsSnapshot {
    VfsSnapshot {
        syncs: a.syncs + b.syncs,
        sync: a.sync + b.sync,
        spool_written: a.spool_written + b.spool_written,
        spool_read: a.spool_read + b.spool_read,
    }
}

fn input(dir: &Path, ranks: usize, seed: u64, index: usize) -> Result<Input, String> {
    let program = cfd(ranks, JITTER, seed)?;
    let mut recording = Recording::default();
    Simulator::new(MachineConfig::new(ranks))
        .run_streaming_configured(&program, None, None, None, &mut recording, FRAME_EVENTS)
        .map_err(|e| format!("simulate: {e}"))?;
    let mut bytes = Vec::new();
    recording
        .replay(&mut WriteSink::new(&mut bytes))
        .map_err(|e| format!("encode: {e}"))?;
    let path = dir.join(format!("input-{index}.trc"));
    std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let final_report = complete_report(&StdVfs, &path).map_err(|e| format!("replay: {e}"))?;
    let evolution =
        evolution_report(&StdVfs, &path, WINDOWS).map_err(|e| format!("evolution: {e}"))?;
    Ok(Input {
        recording,
        bytes,
        path,
        final_report,
        evolution,
    })
}

impl Case for ServeCase {
    fn setup(opts: &Options) -> Result<Self, String> {
        let dir = opts.state_dir.join(format!(
            "serve-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut case = ServeCase {
            dir,
            server: None,
            stats: None,
            inputs: Vec::new(),
            cycle: 0,
            reps: opts.size.layer_reps,
            io: Io::default(),
        };
        for i in 0..TENANTS {
            let seed = opts.seed.wrapping_add(i as u64);
            case.inputs
                .push(input(&case.dir, opts.size.serve_ranks, seed, i)?);
        }
        let vfs: Arc<dyn Vfs> = if opts.traced {
            let counting = CountingVfs::new();
            case.stats = Some(counting.stats());
            Arc::new(counting)
        } else {
            Arc::new(StdVfs)
        };
        let cfg = ServeConfig {
            checkpoint_dir: Some(case.dir.join("state")),
            vfs,
            ..ServeConfig::default()
        };
        case.server =
            Some(Server::start("127.0.0.1:0", cfg).map_err(|e| format!("server start: {e}"))?);
        case.unit(&mut Recorder::new(false))?;
        case.io = Io::default();
        Ok(case)
    }

    fn unit(&mut self, rec: &mut Recorder) -> Result<Unit, String> {
        let addr = self.server.as_ref().ok_or("server is down")?.addr();
        let n = self.cycle;
        self.cycle += 1;
        let input = &self.inputs[n % TENANTS];
        let snap = |stats: &Option<Arc<VfsStats>>| stats.as_ref().map(|s| s.snapshot());
        let before = snap(&self.stats);

        let t = Instant::now();
        let s = rec.open("serve.push");
        let session = PushSession::connect(addr, &format!("t{}", n % TENANTS), &format!("r{n}"))
            .map_err(|e| format!("push r{n}: {e}"))?;
        let mut sent = None;
        let outcome = session
            .push_sink(|sink: &mut dyn TraceSink| {
                input.recording.replay(sink)?;
                sent = Some(Instant::now());
                Ok(())
            })
            .map_err(|e| format!("push r{n}: {e}"))?;
        let done = Instant::now();
        if let Some(sent) = sent {
            rec.record("serve.send", t, sent);
            rec.record("serve.verdict", sent, done);
        }
        rec.close(s);
        let report_s = done.duration_since(t).as_secs_f64();
        let pushed = snap(&self.stats);
        if outcome.status != PushStatus::Complete {
            return Err(format!("push r{n} ended {:?}", outcome.status));
        }
        if outcome.report != input.final_report {
            return Err(format!(
                "Final report of r{n} differs from the offline replay"
            ));
        }

        // The previous run is complete (the closed loop waited for it);
        // the first unit asks about its own run.
        let q = n.saturating_sub(1);
        let asked = &self.inputs[q % TENANTS];
        let t = Instant::now();
        let answer = timed(rec, "serve.query", || {
            query(addr, &format!("EVOLUTION t{} r{q} {WINDOWS}", q % TENANTS))
        })
        .map_err(|e| format!("EVOLUTION r{q}: {e}"))?;
        let query_s = t.elapsed().as_secs_f64();
        if answer != asked.evolution {
            return Err(format!(
                "EVOLUTION answer for r{q} differs from the offline replay"
            ));
        }

        if let (Some(before), Some(pushed), Some(after)) = (before, pushed, snap(&self.stats)) {
            self.io.cycles += 1;
            self.io.push = add(self.io.push, pushed.since(&before));
            self.io.query = add(self.io.query, after.since(&pushed));
        }
        Ok(Unit {
            report_s,
            query_s: Some(query_s),
            report_bytes: outcome.report.len(),
        })
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut Layers) -> Result<(), String> {
        let input = &self.inputs[0];
        for _ in 0..self.reps {
            let root = rec.open("bench.layers");
            let mut detector = TimedSink::new(OnlineDetector::new(DetectorConfig::default()));
            timed(rec, "serve.detect", || {
                decode_all(&input.bytes, &mut detector)
            })
            .map_err(|e| format!("detector: {e}"))?;

            let mut scan = TimedSink::new(ScanSink::new());
            timed(rec, "trace.decode_scan", || {
                decode_all(&input.bytes, &mut scan)
            })
            .map_err(|e| format!("scan: {e}"))?;
            out.insert("mpisim.events", scan.events as f64);
            out.insert("trace.frames", scan.frames as f64);
            let scan = scan.inner.into_scan().ok_or("scan did not finish")?;

            let mut fold = SalvageSink::new(scan.activities.clone());
            timed(rec, "trace.fold_salvage", || {
                decode_all(&input.bytes, &mut fold)
            })
            .map_err(|e| format!("salvage fold: {e}"))?;
            fold.into_salvaged().ok_or("salvage fold did not finish")?;

            let mut windows = WindowSink::new(WINDOWS, scan.makespan, scan.activities.clone())
                .map_err(|e| format!("window fold: {e}"))?;
            timed(rec, "trace.fold_window", || {
                decode_all(&input.bytes, &mut windows)
            })
            .map_err(|e| format!("window fold: {e}"))?;
            windows.into_windows().ok_or("window fold did not finish")?;

            timed(rec, "serve.replay_complete", || {
                complete_report(&StdVfs, &input.path)
            })
            .map_err(|e| format!("replay: {e}"))?;
            timed(rec, "serve.replay_evolution", || {
                evolution_report(&StdVfs, &input.path, WINDOWS)
            })
            .map_err(|e| format!("evolution: {e}"))?;
            rec.close(root);
        }

        let io = &self.io;
        if io.cycles > 0 {
            let per = |v: f64| v / io.cycles as f64;
            let syncs = io.push.syncs + io.query.syncs;
            out.insert("vfs.syncs", per(syncs as f64));
            out.insert(
                "vfs.sync_s",
                per((io.push.sync + io.query.sync).as_secs_f64()),
            );
            out.insert("vfs.write_mib", per(mib(io.push.spool_written)));
            out.insert("vfs.read_mib", per(mib(io.push.spool_read)));
            out.insert("vfs.query_read_mib", per(mib(io.query.spool_read)));
            if io.push.spool_written > 0 {
                out.insert(
                    "vfs.read_amplification",
                    io.push.spool_read as f64 / io.push.spool_written as f64,
                );
            }
        }
        Ok(())
    }
}
