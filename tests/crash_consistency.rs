//! The crash-consistency harness: every power-cut point and injected
//! disk fault across serve ingest, checkpointed sweeps, and streamed
//! trace output must leave the system in one of exactly two states —
//! a byte-identical resumed result or a named, resumable partial —
//! never a panic, a corrupt report, or a wedged tenant.
//!
//! The harness runs the real server on a loopback socket but points
//! its durable layer at [`MemVfs`], the in-memory pessimistic POSIX
//! crash model: file content survives a crash only up to its last
//! `sync`, and a file *name* survives only if its directory was
//! synced. [`FaultVfs`] layers deterministic ENOSPC / EIO /
//! short-write / failed-rename / power-cut faults on top. Reference
//! reports come from the offline materialized path, which the
//! stream- and serve-equivalence harnesses already lock.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use limba::analysis::Analyzer;
use limba::guard::Checkpoint;
use limba::mpisim::{MachineConfig, Simulator};
use limba::serve::client::{self, PushStatus};
use limba::serve::{replay, PushSession, ServeConfig, Server};
use limba::stats::dispersion::DispersionKind;
use limba::stats::rank::RankingCriterion;
use limba::trace::{DurableSink, SealScanner, TraceSink, WriteSink};
use limba::vfs::{FaultKind, FaultPlan, FaultVfs, MemVfs, Vfs};
use limba::workloads::{
    cfd::CfdConfig, master_worker::MasterWorkerConfig, stencil::StencilConfig, Imbalance,
};

/// A scratch directory for the *client-side* tracefiles (the pushed
/// inputs live on the real filesystem; everything durable the server
/// writes lives in a `MemVfs`).
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("limba-crash-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Encodes a simulated run as chunked-v3 bytes.
fn trace_bytes(workload: u8, ranks: usize, imbalance: Imbalance) -> Vec<u8> {
    let program = match workload {
        0 => CfdConfig::new(ranks)
            .with_iterations(1)
            .with_imbalance(imbalance)
            .build_program(),
        1 => {
            let cols = if ranks.is_multiple_of(2) { 2 } else { 1 };
            StencilConfig::new(ranks / cols, cols)
                .with_imbalance(imbalance)
                .build_program()
        }
        _ => MasterWorkerConfig::new(ranks)
            .with_tasks(ranks * 4)
            .with_imbalance(imbalance)
            .build_program(),
    }
    .expect("generated workloads build");
    let output = Simulator::new(MachineConfig::new(ranks))
        .run_configured(&program, None, None, None)
        .expect("simulation runs");
    let mut bytes = Vec::new();
    let mut sink = WriteSink::new(&mut bytes);
    sink.begin(output.trace.processors(), output.trace.region_names())
        .expect("begin");
    sink.events(output.trace.events()).expect("events");
    sink.finish().expect("finish");
    bytes
}

/// Re-encodes trace bytes with events framed in batches of `batch`,
/// so the container has many sealed chunk boundaries to truncate at.
fn chunked(bytes: &[u8], batch: usize) -> Vec<u8> {
    let trace = limba::trace::binary::from_bytes(bytes).expect("decode");
    let mut out = Vec::new();
    let mut sink = WriteSink::new(&mut out);
    sink.begin(trace.processors(), trace.region_names())
        .expect("begin");
    for frame in trace.events().chunks(batch.max(1)) {
        sink.events(frame).expect("events");
    }
    sink.finish().expect("finish");
    out
}

/// The offline reference report, through the materialized path with
/// the analyzer defaults the server pins.
fn offline_report(bytes: &[u8]) -> String {
    let trace = limba::trace::binary::from_bytes(bytes).expect("bytes decode");
    let salvaged = limba::trace::reduce_checked(&trace).expect("reduce");
    let report = Analyzer::new()
        .with_dispersion(DispersionKind::Euclidean)
        .with_criterion(RankingCriterion::Maximum)
        .with_cluster_k(2)
        .analyze_with_counts(&salvaged.reduced.measurements, &salvaged.reduced.counts)
        .expect("analyze");
    limba::viz::report::render_with_coverage(&report, &salvaged.coverage)
}

/// Writes `bytes` to a real file under `dir` and returns the path.
fn spool_to(dir: &Path, name: &str, bytes: &[u8]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write trace bytes");
    path
}

/// A `ServeConfig` whose durable layer is `vfs`, checkpointing under
/// a virtual `state/` directory inside it.
fn mem_config(vfs: Arc<dyn Vfs>) -> ServeConfig {
    ServeConfig {
        checkpoint_dir: Some(PathBuf::from("state")),
        vfs,
        ..ServeConfig::default()
    }
}

/// `--stream-out` durability: a power cut at *every* operation index
/// of the durable sink's life leaves either no stream file at all or
/// — only when `finish` returned Ok — a complete, byte-identical one.
/// Never a half-durable torn file that scans as complete.
#[test]
fn stream_out_power_cut_at_every_op_is_never_half_durable() {
    let reference = trace_bytes(0, 3, Imbalance::LinearSkew { spread: 0.5 });
    let trace = limba::trace::binary::from_bytes(&reference).expect("decode");
    let path = Path::new("streams/out.trc");

    let mut clean_run = false;
    for k in 0..10_000 {
        let mem = MemVfs::new();
        let fault = Arc::new(FaultVfs::new(
            Arc::new(mem.clone()),
            FaultPlan::new(FaultKind::PowerCut).at_op(k),
        ));
        let vfs: Arc<dyn Vfs> = fault.clone();
        let write = || -> Result<(), limba::trace::TraceError> {
            let mut sink = DurableSink::create(vfs.clone(), path)?;
            sink.begin(trace.processors(), trace.region_names())?;
            sink.events(trace.events())?;
            sink.finish()?;
            Ok(())
        };
        let outcome = write();
        mem.crash();
        match outcome {
            Ok(()) => {
                // The sink only reports success after syncing the file
                // and its directory entry: the bytes must survive.
                let survived = mem
                    .contents(path)
                    .expect("a finished stream file survives the power cut");
                assert_eq!(survived, reference, "survived stream diverges (op {k})");
                assert!(SealScanner::scan(&survived).complete);
            }
            Err(_) => {
                // Interrupted before the directory sync: the crash
                // must show no file at all — never a torn one whose
                // name is durable but whose bytes are not.
                assert!(
                    mem.contents(path).is_none(),
                    "power cut at op {k} left a half-durable stream file"
                );
            }
        }
        if !fault.is_dead() {
            // The cut point lies beyond the sink's whole operation
            // sequence: the run was clean, the sweep is exhaustive.
            assert!(outcome.is_ok());
            clean_run = true;
            break;
        }
    }
    assert!(clean_run, "power-cut sweep never reached a clean run");
}

/// A power cut between server lifetimes: completed runs survive
/// byte-identically, a cleanly-salvaged partial survives to its
/// synced offset exactly, and resuming it converges on the same
/// report an uninterrupted run would have produced.
#[test]
fn crash_restart_preserves_completed_runs_and_synced_partials() {
    let dir = scratch("crash-restart");
    let mem = MemVfs::new();
    let steady = trace_bytes(0, 4, Imbalance::LinearSkew { spread: 0.4 });
    let unlucky = trace_bytes(2, 5, Imbalance::RandomJitter { amplitude: 0.2 });
    let cut = unlucky.len() / 2;

    // First lifetime: one complete run, one salvaged partial.
    let first =
        Server::start("127.0.0.1:0", mem_config(Arc::new(mem.clone()))).expect("first server");
    let addr = first.addr().to_string();
    let steady_path = spool_to(&dir, "steady.trc", &steady);
    let outcome = PushSession::connect(&addr, "steady", "run")
        .expect("connect")
        .push_file(&steady_path)
        .expect("push");
    assert_eq!(outcome.status, PushStatus::Complete);
    assert_eq!(outcome.report, offline_report(&steady));
    let prefix_path = spool_to(&dir, "unlucky-prefix.trc", &unlucky[..cut]);
    let outcome = PushSession::connect(&addr, "unlucky", "run")
        .expect("connect")
        .push_file(&prefix_path)
        .expect("push prefix");
    assert_eq!(outcome.status, PushStatus::Salvaged);
    first.shutdown().expect("first shutdown");

    // The power cut: everything unsynced is gone.
    mem.crash();

    // Second lifetime over the same disk.
    let second =
        Server::start("127.0.0.1:0", mem_config(Arc::new(mem.clone()))).expect("second server");
    let addr = second.addr().to_string();
    let report = client::query(&addr, "REPORT steady run").expect("query after crash");
    assert_eq!(
        report,
        offline_report(&steady),
        "completed run diverges after the power cut"
    );

    let session = PushSession::connect(&addr, "unlucky", "run").expect("reconnect");
    assert_eq!(
        session.offset(),
        cut as u64,
        "the salvaged partial must survive the crash byte-exactly"
    );
    let full_path = spool_to(&dir, "unlucky-full.trc", &unlucky);
    let outcome = session.push_file(&full_path).expect("finish run");
    assert_eq!(outcome.status, PushStatus::Complete);
    assert_eq!(outcome.report, offline_report(&unlucky));
    second.shutdown().expect("second shutdown");
}

/// Graceful degradation: a disk fault scoped to one tenant's spool
/// turns that run into a named, resumable partial (the salvage
/// verdict names the disk), while a tenant pushed *after* the fault
/// fired still completes byte-identically to the offline analysis.
/// Restarting over the same disk with the fault cleared resumes the
/// degraded run and converges on the uninterrupted report.
#[test]
fn disk_faults_degrade_one_tenant_and_spare_the_rest() {
    let cases: [(&str, FaultPlan); 3] = [
        (
            "enospc",
            FaultPlan::new(FaultKind::Enospc)
                .after_bytes(256)
                .matching("unlucky"),
        ),
        (
            "eio",
            FaultPlan::new(FaultKind::Eio).at_op(1).matching("unlucky"),
        ),
        (
            "short-write",
            FaultPlan::new(FaultKind::ShortWrite)
                .at_op(1)
                .seeded(7)
                .matching("unlucky"),
        ),
    ];
    for (label, plan) in cases {
        let dir = scratch(&format!("faults-{label}"));
        let mem = MemVfs::new();
        let steady = trace_bytes(1, 4, Imbalance::LinearSkew { spread: 0.3 });
        let unlucky = trace_bytes(0, 4, Imbalance::RandomJitter { amplitude: 0.25 });

        let faulty: Arc<dyn Vfs> = Arc::new(FaultVfs::new(Arc::new(mem.clone()), plan));
        let server = Server::start("127.0.0.1:0", mem_config(faulty)).expect("server");
        let addr = server.addr().to_string();

        // The faulted tenant degrades to a salvaged partial whose
        // verdict names the disk — never an error or a hang.
        let unlucky_path = spool_to(&dir, "unlucky.trc", &unlucky);
        let outcome = PushSession::connect(&addr, "unlucky", "run")
            .expect("connect")
            .push_file(&unlucky_path)
            .expect("push survives the fault");
        assert_eq!(outcome.status, PushStatus::Salvaged, "{label}");
        assert!(
            outcome.report.contains("disk:"),
            "{label}: salvage verdict should name the disk fault: {}",
            outcome.report
        );

        // A tenant pushed after the fault fired is untouched.
        let steady_path = spool_to(&dir, "steady.trc", &steady);
        let outcome = PushSession::connect(&addr, "steady", "run")
            .expect("connect")
            .push_file(&steady_path)
            .expect("push");
        assert_eq!(outcome.status, PushStatus::Complete, "{label}");
        assert_eq!(outcome.report, offline_report(&steady), "{label}");

        // The degraded run still answers queries: no wedged tenant.
        let status = client::query(&addr, "STATUS").expect("status");
        assert!(status.contains("limba-serve"), "{label}: {status}");
        let runs = client::query(&addr, "RUNS unlucky").expect("runs");
        assert!(runs.contains("partial"), "{label}: {runs}");
        server.shutdown().expect("shutdown");

        // Fault cleared (new lifetime, plain MemVfs): the run resumes
        // from the durable prefix and converges byte-identically.
        let clean =
            Server::start("127.0.0.1:0", mem_config(Arc::new(mem.clone()))).expect("clean server");
        let addr = clean.addr().to_string();
        let session = PushSession::connect(&addr, "unlucky", "run").expect("reconnect");
        assert!(
            (session.offset() as usize) < unlucky.len(),
            "{label}: degraded run must stay resumable"
        );
        let full = spool_to(&dir, "unlucky-full.trc", &unlucky);
        let outcome = session.push_file(&full).expect("resume");
        assert_eq!(outcome.status, PushStatus::Complete, "{label}");
        assert_eq!(outcome.report, offline_report(&unlucky), "{label}");
        clean.shutdown().expect("clean shutdown");
    }
}

/// The recovery-scrub contract, exhaustively: truncate a valid spool
/// at **every byte offset** across its final chunk and trailer.
/// A clean truncation is not damage — the prefix stays resumable at
/// its raw length and its salvage replay still reports. With garbage
/// appended past the cut, the scanner never seals anything but a true
/// chunk boundary, and truncating back to that boundary always yields
/// a cleanly decodable, reportable prefix.
#[test]
fn every_truncation_of_the_final_chunk_stays_resumable() {
    let bytes = chunked(
        &trace_bytes(0, 3, Imbalance::LinearSkew { spread: 0.5 }),
        32,
    );
    let total = bytes.len();
    // The stream's sealed boundaries: cuts that decode to themselves.
    let boundaries: Vec<u64> = (1..=total)
        .filter(|&cut| SealScanner::scan(&bytes[..cut]).sealed == cut as u64)
        .map(|cut| cut as u64)
        .collect();
    assert!(
        boundaries.len() >= 5,
        "need several chunk boundaries to sweep, got {boundaries:?}"
    );
    // Sweep from the boundary that opens the final event chunk
    // through the trailer — every strict-prefix byte offset.
    let start = boundaries[boundaries.len() - 3] as usize;
    let mem = MemVfs::new();
    let vfs: &dyn Vfs = &mem;
    let spool = Path::new("sweep.trc");
    let mut damaged_cuts = 0usize;

    for cut in start + 1..total {
        // A clean truncation: torn, but not damaged — resumable at
        // its exact raw length, exactly where a reconnecting client
        // would be told to resume.
        let scan = SealScanner::scan(&bytes[..cut]);
        assert!(!scan.damaged, "clean prefix misread as damaged at {cut}");
        assert!(
            !scan.complete,
            "strict prefix cannot scan complete at {cut}"
        );
        assert_eq!(scan.total, cut as u64);
        assert!(scan.sealed <= cut as u64);
        assert!(
            boundaries.binary_search(&scan.sealed).is_ok(),
            "sealed offset {} at cut {cut} is not a chunk boundary",
            scan.sealed
        );
        let mut file = vfs.create(spool).expect("create");
        file.append(&bytes[..cut]).expect("append");
        drop(file);
        replay::partial_report(vfs, spool)
            .unwrap_or_else(|e| panic!("clean prefix at {cut} lost its salvage replay: {e}"));

        // The same prefix with a garbage tail. Chunk payloads are
        // only checksummed at the trailer, so garbage that happens to
        // parse as event records may seal a boundary *past* the cut
        // (the trailer checksum catches it at end-of-stream). The
        // invariant the scrub relies on is the fixed point: sealed is
        // always a boundary the bytes on disk decode cleanly up to.
        let mut corrupt = bytes[..cut].to_vec();
        corrupt.extend_from_slice(&[0xEE; 96]);
        let scan = SealScanner::scan(&corrupt);
        if scan.sealed <= cut as u64 {
            assert!(
                boundaries.binary_search(&scan.sealed).is_ok(),
                "garbage tail at cut {cut} sealed at non-boundary {}",
                scan.sealed
            );
        }
        if scan.damaged {
            damaged_cuts += 1;
            let healed = &corrupt[..scan.sealed as usize];
            let rescan = SealScanner::scan(healed);
            assert!(!rescan.damaged, "scrubbed spool still damaged at {cut}");
            assert_eq!(rescan.sealed, scan.sealed);
            let mut file = vfs.create(spool).expect("create");
            file.append(healed).expect("append");
            drop(file);
            replay::partial_report(vfs, spool)
                .unwrap_or_else(|e| panic!("scrubbed spool at {cut} fails to report: {e}"));
        }
    }
    assert!(
        damaged_cuts > 0,
        "the garbage sweep never produced a detectable torn tail"
    );
}

/// Checkpoint ratchet under power cuts: cut the power at every
/// operation index across a three-save sequence. After the crash the
/// loadable checkpoint is always one of the saved versions, never
/// older than the last save that reported success, and never a
/// half-written hybrid.
#[test]
fn checkpoint_power_cut_sweep_never_loses_a_completed_save() {
    let path = Path::new("guard/state.ckpt");
    let versions: Vec<Checkpoint> = (0u64..3)
        .map(|v| {
            let mut ckpt = Checkpoint::new("ratchet", 42);
            for id in 0..=v {
                ckpt.insert(id, vec![u8::try_from(v).unwrap_or(0) + 1; 8 + id as usize]);
            }
            ckpt
        })
        .collect();
    let images: Vec<Vec<u8>> = versions.iter().map(Checkpoint::to_bytes).collect();

    let mut clean_run = false;
    for k in 0..10_000 {
        let mem = MemVfs::new();
        let fault = Arc::new(FaultVfs::new(
            Arc::new(mem.clone()),
            FaultPlan::new(FaultKind::PowerCut).at_op(k),
        ));
        let mut last_ok: Option<usize> = None;
        for (i, version) in versions.iter().enumerate() {
            match version.save_atomic_vfs(fault.as_ref(), path) {
                Ok(()) => last_ok = Some(i),
                Err(_) => break,
            }
        }
        mem.crash();
        match Checkpoint::load_vfs(&mem, path, "ratchet", 42) {
            Ok(loaded) => {
                let image = loaded.to_bytes();
                let got = images
                    .iter()
                    .position(|v| *v == image)
                    .unwrap_or_else(|| panic!("crash at op {k} exposed a hybrid checkpoint"));
                if let Some(done) = last_ok {
                    assert!(
                        got >= done,
                        "crash at op {k} rolled back past completed save {done} to {got}"
                    );
                }
            }
            Err(_) => {
                assert!(
                    last_ok.is_none(),
                    "crash at op {k} lost completed save {last_ok:?}"
                );
            }
        }
        if !fault.is_dead() {
            assert_eq!(last_ok, Some(versions.len() - 1));
            clean_run = true;
            break;
        }
    }
    assert!(clean_run, "power-cut sweep never reached a clean run");
}

/// A failed rename mid-save leaves the *previous* checkpoint intact
/// and loadable after a crash — the atomic-replace contract.
#[test]
fn failed_rename_keeps_the_previous_checkpoint_loadable() {
    let path = Path::new("guard/state.ckpt");
    let mem = MemVfs::new();
    let mut old = Checkpoint::new("ratchet", 42);
    old.insert(1, b"stable".to_vec());
    old.save_atomic_vfs(&mem, path).expect("clean save");

    let mut new = Checkpoint::new("ratchet", 42);
    new.insert(1, b"doomed".to_vec());
    let fault = FaultVfs::new(Arc::new(mem.clone()), FaultPlan::new(FaultKind::RenameFail));
    new.save_atomic_vfs(&fault, path)
        .expect_err("the rename fault must surface");

    mem.crash();
    let loaded = Checkpoint::load_vfs(&mem, path, "ratchet", 42)
        .expect("previous checkpoint survives the failed replace");
    assert_eq!(loaded.get(1), Some(b"stable".as_slice()));
}
