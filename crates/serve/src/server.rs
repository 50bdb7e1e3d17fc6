//! The threaded ingestion server.
//!
//! Plain `std::net` + `std::thread`, no async runtime:
//!
//! * an **accept thread** takes connections and spawns one *session
//!   thread* each;
//! * a push session reads raw socket bytes and forwards them to its
//!   tenant's **shard worker** over a bounded [`sync_channel`] — when
//!   the shard falls behind, `send` blocks, the session stops reading,
//!   and TCP flow control throttles the client: ingestion memory is
//!   bounded end to end (channel depth × chunk per shard, plus fold
//!   state);
//! * each shard worker owns the decode/detect state for the runs
//!   hashed onto it, spools every byte to disk before folding it, and
//!   isolates fold panics with `catch_unwind` so one poisoned run
//!   cannot take down its shard;
//! * query sessions answer from the [`Registry`] and spool replay
//!   only — they never touch a shard, so monitoring cannot stall
//!   ingestion.
//!
//! **Durability.** The spool file is the source of truth: a run's
//! resume offset *is* its spool length, and every report — live,
//! salvaged, final — is a replay of those bytes. With a checkpoint
//! directory, run metadata also persists through a
//! [`limba_guard::Checkpoint`], so a killed server restarts knowing
//! every tenant's runs and resumes each one from its spooled offset;
//! because folds are deterministic, the resumed run converges to the
//! byte-identical final report the uninterrupted run would have
//! produced.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use limba_guard::codec::{ByteReader, ByteWriter};
use limba_guard::{config_fingerprint, Checkpoint};
use limba_par::{fnv1a, CancelToken};
use limba_trace::{SealScanner, StreamDecoder};
use limba_vfs::{StdVfs, Vfs, VfsFile};

use crate::detect::{DetectorConfig, OnlineDetector};
use crate::protocol::{self, Final, STATUS_ERROR, STATUS_OK, STATUS_REJECTED, STATUS_SALVAGED};
use crate::registry::{Registry, RunEntry, RunKey, RunStatus};
use crate::{replay, ServeError};

/// Socket read-buffer / shard-chunk size.
const CHUNK: usize = 64 * 1024;
/// How often blocked socket reads wake to check for shutdown.
const POLL: Duration = Duration::from_millis(250);
/// Checkpoint kind tag for the run-metadata file.
const META_KIND: &str = "limba-serve-meta";

/// Server tuning. `Default` gives a small single-host deployment.
#[derive(Clone)]
pub struct ServeConfig {
    /// Most distinct tenants admitted at once.
    pub max_tenants: usize,
    /// Most concurrent connections (push and query sessions combined);
    /// connections beyond the cap are dropped at accept, so idle
    /// sockets cannot exhaust session threads.
    pub max_sessions: usize,
    /// Shard worker threads (tenants hash onto shards).
    pub shards: usize,
    /// Bounded channel depth per shard — with the 64 KiB read chunk, the
    /// per-shard in-flight byte bound.
    pub depth: usize,
    /// How long a freshly accepted connection may sit idle before its
    /// handshake byte (or query line) arrives; a client that connects
    /// and goes silent is cut loose instead of holding a session
    /// thread forever.
    pub handshake_timeout: Duration,
    /// Online detector knobs applied to every run.
    pub detector: DetectorConfig,
    /// Durable state directory (spools + run metadata). `None` spools
    /// to a per-process temp directory: resume works across
    /// *reconnects* but not across server restarts.
    pub checkpoint_dir: Option<PathBuf>,
    /// Filesystem every durable artifact (spools, run metadata) goes
    /// through. [`StdVfs`] in production; tests and the
    /// `--io-faults` CLI flag substitute fault-injecting or in-memory
    /// implementations.
    pub vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_tenants", &self.max_tenants)
            .field("max_sessions", &self.max_sessions)
            .field("shards", &self.shards)
            .field("depth", &self.depth)
            .field("handshake_timeout", &self.handshake_timeout)
            .field("detector", &self.detector)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_tenants: 8,
            max_sessions: 64,
            shards: 2,
            depth: 8,
            handshake_timeout: Duration::from_secs(10),
            detector: DetectorConfig::default(),
            checkpoint_dir: None,
            vfs: Arc::new(StdVfs),
        }
    }
}

/// One message from a session to its shard worker.
enum ShardMsg {
    /// A session was admitted for `key`; `resume` replays the
    /// existing spool into fresh fold state first.
    Open { key: RunKey, resume: bool },
    /// Raw bytes off the socket, in arrival order.
    Chunk { key: RunKey, data: Vec<u8> },
    /// The stream ended (end chunk, half-close, or disconnect — the
    /// decoder state distinguishes them); reply with the verdict.
    End {
        key: RunKey,
        reply: std::sync::mpsc::SyncSender<Final>,
    },
}

/// State shared by every thread of one server.
struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    spool_dir: PathBuf,
    /// Run-metadata checkpoint, present with `checkpoint_dir`.
    meta: Option<(PathBuf, Mutex<Checkpoint>)>,
    cancel: CancelToken,
}

impl Shared {
    fn vfs(&self) -> &dyn Vfs {
        self.cfg.vfs.as_ref()
    }
}

/// A running ingestion server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
    /// Held so shards outlive sessions; dropped during shutdown to
    /// end-of-stream the shard channels.
    shard_txs: Vec<SyncSender<ShardMsg>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), recovers any checkpointed
    /// runs, and starts accepting.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shards = cfg.shards.max(1);

        let (spool_dir, meta) = match &cfg.checkpoint_dir {
            Some(dir) => {
                let spool_dir = dir.join("spool");
                cfg.vfs.create_dir_all(&spool_dir)?;
                let path = dir.join("serve-meta.ckpt");
                let ckpt = Checkpoint::load_or_new_vfs(
                    cfg.vfs.as_ref(),
                    &path,
                    META_KIND,
                    meta_fingerprint(),
                )
                .map_err(|e| ServeError::State(format!("checkpoint: {e}")))?;
                (spool_dir, Some((path, Mutex::new(ckpt))))
            }
            None => {
                let spool_dir = std::env::temp_dir().join(format!(
                    "limba-serve-{}-{}",
                    std::process::id(),
                    local.port()
                ));
                cfg.vfs.create_dir_all(&spool_dir)?;
                (spool_dir, None)
            }
        };

        let shared = Arc::new(Shared {
            cfg,
            registry: Registry::new(),
            spool_dir,
            meta,
            cancel: CancelToken::new(),
        });
        recover(&shared, shards)?;

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = sync_channel::<ShardMsg>(shared.cfg.depth.max(1));
            let sh = Arc::clone(&shared);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("limba-serve-shard-{i}"))
                    .spawn(move || shard_worker(sh, rx))
                    .map_err(ServeError::Io)?,
            );
            shard_txs.push(tx);
        }

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let sh = Arc::clone(&shared);
            let txs = shard_txs.clone();
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("limba-serve-accept".into())
                .spawn(move || accept_loop(sh, listener, txs, sessions))
                .map_err(ServeError::Io)?
        };

        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            shard_handles,
            shard_txs,
            sessions,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the token is cancelled (Ctrl-C handling or a
    /// `SHUTDOWN` query), polling at the shutdown granularity.
    pub fn wait_cancelled(&self) {
        while !self.shared.cancel.is_cancelled() {
            std::thread::sleep(POLL);
        }
    }

    /// Graceful shutdown: stop accepting, let every live session end
    /// its run (live runs become resumable partials), drain the
    /// shards, persist metadata.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shutdown_mut()
    }

    fn shutdown_mut(&mut self) -> Result<(), ServeError> {
        self.shared.cancel.cancel();
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let sessions = std::mem::take(&mut *lock(&self.sessions));
        for s in sessions {
            let _ = s.join();
        }
        // All sessions are done: dropping the server's tx clones
        // end-of-streams the shard channels.
        self.shard_txs.clear();
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
        // Belt and braces: anything still marked live (a session that
        // died without its End reaching the shard) is a valid partial.
        for key in self.shared.registry.demote_live() {
            save_meta(&self.shared, &key);
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _ = self.shutdown_mut();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn meta_fingerprint() -> u64 {
    config_fingerprint(META_KIND)
}

/// Stable spool filename for a run: readable prefix plus a hash of the
/// `tenant|run` pair ('|' cannot appear in names, so the hash is
/// collision-free across distinct runs even though '_' may appear in
/// either name).
fn spool_name(key: &RunKey) -> String {
    let tag = fnv1a(format!("{}|{}", key.tenant, key.run).as_bytes());
    format!("{}__{}-{tag:016x}.trc", key.tenant, key.run)
}

fn shard_of(tenant: &str, shards: usize) -> usize {
    (fnv1a(tenant.as_bytes()) % shards as u64) as usize
}

// ---------------------------------------------------------------------------
// Metadata persistence
// ---------------------------------------------------------------------------

fn encode_meta(key: &RunKey, entry: &RunEntry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(match entry.status {
        RunStatus::Live => 0,
        RunStatus::Partial => 1,
        RunStatus::Complete => 2,
        RunStatus::Failed => 3,
    });
    w.put_u64(entry.bytes);
    w.put_u64(entry.events);
    w.put_u32(entry.processors as u32);
    w.put_f64(entry.makespan);
    w.put_str(&key.tenant);
    w.put_str(&key.run);
    w.put_str(entry.error.as_deref().unwrap_or(""));
    w.into_bytes()
}

/// Decoded registry entry: key, status, bytes, events, processors,
/// makespan, error message.
type DecodedMeta = (RunKey, RunStatus, u64, u64, usize, f64, String);

fn decode_meta(payload: &[u8]) -> Result<DecodedMeta, String> {
    let mut r = ByteReader::new(payload);
    let status = match r.get_u8("status").map_err(|e| e.to_string())? {
        // A run that was live when the server died is a resumable
        // partial on recovery.
        0 | 1 => RunStatus::Partial,
        2 => RunStatus::Complete,
        _ => RunStatus::Failed,
    };
    let bytes = r.get_u64("bytes").map_err(|e| e.to_string())?;
    let events = r.get_u64("events").map_err(|e| e.to_string())?;
    let processors = r.get_u32("processors").map_err(|e| e.to_string())? as usize;
    let makespan = r.get_f64("makespan").map_err(|e| e.to_string())?;
    let tenant = r.get_str("tenant").map_err(|e| e.to_string())?;
    let run = r.get_str("run").map_err(|e| e.to_string())?;
    let error = r.get_str("error").map_err(|e| e.to_string())?;
    Ok((
        RunKey::new(&tenant, &run),
        status,
        bytes,
        events,
        processors,
        makespan,
        error,
    ))
}

/// Persists one run's registry entry into the metadata checkpoint
/// (no-op without a checkpoint directory).
fn save_meta(shared: &Shared, key: &RunKey) {
    let Some((path, meta)) = &shared.meta else {
        return;
    };
    let Some(entry) = shared.registry.get(key) else {
        return;
    };
    let id = fnv1a(format!("{}|{}", key.tenant, key.run).as_bytes());
    let mut ckpt = lock(meta);
    ckpt.insert(id, encode_meta(key, &entry));
    // Persistence is best-effort while serving; the spool remains the
    // source of truth and the next save retries.
    let _ = ckpt.save_atomic_vfs(shared.vfs(), path);
}

/// What a spool scrub concluded.
struct ScrubOutcome {
    /// The byte offset a resumed client may append from: the full
    /// spool length for a clean prefix (even one cut mid-chunk — the
    /// replayed decoder holds the mid-chunk state), or the last sealed
    /// chunk boundary after a damaged tail was cut away.
    resume: u64,
    /// The spool verified end to end as a complete stream.
    complete: bool,
}

/// Scrubs one spool: a crash or a faulting disk may have left a
/// *damaged* tail — bytes past the last sealed chunk boundary that do
/// not decode. Replaying such a spool would latch the fold and fail
/// the run, so the tail is cut back to the sealed boundary instead:
/// the run stays a resumable partial and the client regenerates the
/// rest. A tail that is merely truncated (a clean prefix of the
/// stream) is left alone — it resumes from its exact byte length.
///
/// Returns `None` when the spool cannot be read or repaired (the
/// caller falls back to checkpointed metadata or degrades the run).
fn scrub_spool(vfs: &dyn Vfs, spool: &Path) -> Option<ScrubOutcome> {
    if !vfs.exists(spool) {
        return Some(ScrubOutcome {
            resume: 0,
            complete: false,
        });
    }
    let scan = SealScanner::scan_file(vfs, spool).ok()?;
    if scan.damaged {
        vfs.truncate(spool, scan.sealed).ok()?;
        // Make the cut durable so a crash right after the scrub cannot
        // resurrect the damaged tail behind a promised resume offset.
        vfs.sync_path(spool).ok()?;
        return Some(ScrubOutcome {
            resume: scan.sealed,
            complete: false,
        });
    }
    Some(ScrubOutcome {
        resume: scan.total,
        complete: scan.complete,
    })
}

/// Rebuilds the registry from the metadata checkpoint at startup,
/// scrubbing every spool back to its last sealed boundary.
fn recover(shared: &Arc<Shared>, shards: usize) -> Result<(), ServeError> {
    let Some((_, meta)) = &shared.meta else {
        return Ok(());
    };
    let records: Vec<Vec<u8>> = lock(meta).iter().map(|(_, p)| p.to_vec()).collect();
    for payload in records {
        let (key, status, bytes, events, processors, makespan, error) = decode_meta(&payload)
            .map_err(|e| ServeError::State(format!("corrupt run metadata: {e}")))?;
        let spool = shared.spool_dir.join(spool_name(&key));
        // The scrubbed spool length on disk outranks the checkpointed
        // byte count: metadata is only saved at session boundaries,
        // while the spool grew with every chunk — and a power cut may
        // have torn its tail.
        let on_disk = scrub_spool(shared.vfs(), &spool);
        let mut entry = RunEntry::new(shard_of(&key.tenant, shards), spool);
        entry.status = match (&on_disk, status) {
            (Some(scrub), RunStatus::Partial) if scrub.resume == 0 => {
                // Nothing spooled survived; treat as never-seen by
                // skipping the entry entirely.
                continue;
            }
            // A run flagged Complete whose spool no longer verifies is
            // a resumable partial, not a silently corrupt "complete"
            // report.
            (Some(scrub), RunStatus::Complete) if !scrub.complete => RunStatus::Partial,
            _ => status,
        };
        entry.bytes = match &on_disk {
            Some(scrub) if scrub.resume > 0 => scrub.resume,
            _ => bytes,
        };
        entry.events = events;
        entry.processors = processors;
        entry.makespan = makespan;
        entry.error = if error.is_empty() { None } else { Some(error) };
        shared.registry.restore(key, entry);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Accept + sessions
// ---------------------------------------------------------------------------

fn accept_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    txs: Vec<SyncSender<ShardMsg>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.cancel.is_cancelled() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut held = lock(&sessions);
        // Reap finished sessions so the handle list stays bounded.
        held.retain(|h| !h.is_finished());
        // The session cap bounds thread count against connection
        // floods; admission control (tenants) is per-run, this is
        // per-socket. Excess connections are dropped — push clients
        // see a failed ack read, query clients an empty response.
        if held.len() >= shared.cfg.max_sessions.max(1) {
            drop(stream);
            continue;
        }
        // A read deadline from the very first byte: a client that
        // connects and goes silent cannot hold its session thread
        // (the push pump replaces this with its own poll timeout
        // once the handshake acks).
        let _ = stream.set_read_timeout(Some(shared.cfg.handshake_timeout));
        let sh = Arc::clone(&shared);
        let txs = txs.clone();
        let handle = std::thread::Builder::new()
            .name("limba-serve-session".into())
            .spawn(move || session(sh, stream, txs));
        if let Ok(h) = handle {
            held.push(h);
        }
    }
}

/// One connection: dispatch on the first byte — the handshake magic
/// starts a push session, anything else is a query line.
fn session(shared: Arc<Shared>, mut stream: TcpStream, txs: Vec<SyncSender<ShardMsg>>) {
    let mut first = [0u8; 1];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if first[0] == protocol::MAGIC[0] {
        push_session(&shared, stream, &txs);
    } else {
        query_session(&shared, stream, first[0]);
    }
}

fn push_session(shared: &Shared, mut stream: TcpStream, txs: &[SyncSender<ShardMsg>]) {
    let (tenant, run) = match protocol::read_handshake_rest(&mut stream) {
        Ok(names) => names,
        Err(e) => {
            let _ = protocol::write_ack(
                &mut stream,
                &protocol::Ack {
                    status: STATUS_REJECTED,
                    offset: 0,
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    let key = RunKey::new(&tenant, &run);
    if shared.cancel.is_cancelled() {
        let _ = protocol::write_ack(
            &mut stream,
            &protocol::Ack {
                status: STATUS_REJECTED,
                offset: 0,
                message: "server is shutting down".into(),
            },
        );
        return;
    }
    let shard = shard_of(&tenant, txs.len());
    let spool = shared.spool_dir.join(spool_name(&key));
    let admission = match shared
        .registry
        .admit(&key, shard, spool, shared.cfg.max_tenants.max(1))
    {
        Ok(a) => a,
        Err(e) => {
            // The client re-wraps the ack message in its own
            // `Rejected` display, so send the bare reason.
            let message = match e {
                ServeError::Rejected(m) => m,
                other => other.to_string(),
            };
            let _ = protocol::write_ack(
                &mut stream,
                &protocol::Ack {
                    status: STATUS_REJECTED,
                    offset: 0,
                    message,
                },
            );
            return;
        }
    };
    // The offset we are about to promise must be durable and sealed:
    // scrub any torn tail left by a crash or disk fault, then fsync,
    // *before* the client is told how many bytes to skip. Otherwise a
    // power cut after the ack could roll the spool back behind the
    // offset the client already skipped past.
    let mut offset = admission.offset;
    if admission.resume {
        let spool = shared.spool_dir.join(spool_name(&key));
        match scrub_spool(shared.vfs(), &spool).and_then(|scrub| {
            if scrub.resume > 0 {
                // Content and directory entry both durable: the
                // promised offset must survive a power cut the instant
                // the client acts on it.
                shared.vfs().sync_path(&spool).ok()?;
                shared.vfs().sync_dir(parent_dir(&spool)).ok()?;
            }
            Some(scrub.resume)
        }) {
            Some(sealed) => {
                offset = sealed;
                if sealed != admission.offset {
                    shared.registry.update(&key, |entry| entry.bytes = sealed);
                }
            }
            None => {
                // The spool cannot be made durable: degrade this run
                // back to a resumable partial instead of promising an
                // offset the disk may not honor.
                let error = ServeError::Disk {
                    path: spool.display().to_string(),
                    detail: "spool scrub/sync failed before resume".into(),
                };
                shared.registry.update(&key, |entry| {
                    entry.status = RunStatus::Partial;
                    entry.error = Some(error.to_string());
                });
                save_meta(shared, &key);
                let _ = protocol::write_ack(
                    &mut stream,
                    &protocol::Ack {
                        status: STATUS_REJECTED,
                        offset: 0,
                        message: error.to_string(),
                    },
                );
                return;
            }
        }
    }
    let tx = &txs[admission.shard];
    if tx
        .send(ShardMsg::Open {
            key: key.clone(),
            resume: admission.resume,
        })
        .is_err()
    {
        return;
    }
    save_meta(shared, &key);
    if protocol::write_ack(
        &mut stream,
        &protocol::Ack {
            status: STATUS_OK,
            offset,
            message: String::new(),
        },
    )
    .is_err()
    {
        // Client vanished before the ack: end the run immediately so
        // it degrades to a resumable partial.
        finish_run(shared, &key, tx);
        return;
    }

    // The pump: socket → shard. A full shard channel blocks `send`,
    // which stops `read`, which backpressures the client through TCP.
    let _ = stream.set_read_timeout(Some(POLL));
    let mut buf = vec![0u8; CHUNK];
    loop {
        if shared.cancel.is_cancelled() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if tx
                    .send(ShardMsg::Chunk {
                        key: key.clone(),
                        data: buf[..n].to_vec(),
                    })
                    .is_err()
                {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }

    if let Some(fin) = finish_run(shared, &key, tx) {
        let _ = protocol::write_final(&mut stream, &fin);
    }
}

/// Sends `End` for the run and waits for the shard's verdict.
fn finish_run(shared: &Shared, key: &RunKey, tx: &SyncSender<ShardMsg>) -> Option<Final> {
    let (reply_tx, reply_rx) = sync_channel(1);
    tx.send(ShardMsg::End {
        key: key.clone(),
        reply: reply_tx,
    })
    .ok()?;
    let fin = reply_rx.recv().ok()?;
    save_meta(shared, key);
    Some(fin)
}

// ---------------------------------------------------------------------------
// Shard workers
// ---------------------------------------------------------------------------

/// Why a run's ingest latched. The two classes degrade differently:
/// a fold failure means the *content* is bad (the run fails), a disk
/// failure means the *storage* is bad (the run stays resumable and
/// the client is told to retry later).
enum Failure {
    /// The trace content failed to decode/fold (including fold panics).
    Fold(String),
    /// Durable storage faulted under the run (ENOSPC, EIO, short
    /// write): the spooled prefix up to the last sealed boundary is
    /// still good, so the run degrades to Partial.
    Disk(String),
}

/// Live fold state for one run on its shard.
struct Ingest {
    decoder: StreamDecoder,
    detector: OnlineDetector,
    spool: Box<dyn VfsFile>,
    path: PathBuf,
    /// First failure (fold or disk); latches the run.
    failed: Option<Failure>,
    /// How many of the detector's alerts the registry already holds —
    /// `publish` appends only the suffix past this mark instead of
    /// re-cloning the whole history every chunk.
    published_alerts: usize,
    /// Same high-water mark for retired-window stats.
    published_windows: usize,
}

fn shard_worker(shared: Arc<Shared>, rx: Receiver<ShardMsg>) {
    let mut runs: HashMap<RunKey, Ingest> = HashMap::new();
    for msg in rx {
        match msg {
            ShardMsg::Open { key, resume } => {
                if let Err(e) = open_run(&shared, &mut runs, &key, resume) {
                    shared.registry.update(&key, |entry| {
                        entry.status = RunStatus::Failed;
                        entry.error = Some(e.to_string());
                    });
                }
            }
            ShardMsg::Chunk { key, data } => ingest_chunk(&shared, &mut runs, &key, &data),
            ShardMsg::End { key, reply } => {
                let fin = end_run(&shared, &mut runs, &key);
                let _ = reply.send(fin);
            }
        }
    }
}

fn open_run(
    shared: &Shared,
    runs: &mut HashMap<RunKey, Ingest>,
    key: &RunKey,
    resume: bool,
) -> Result<(), ServeError> {
    let path = shared
        .registry
        .get(key)
        .map(|e| e.spool)
        .unwrap_or_else(|| shared.spool_dir.join(spool_name(key)));
    let mut ingest = Ingest {
        decoder: StreamDecoder::new(),
        detector: OnlineDetector::new(shared.cfg.detector.clone()),
        spool: shared.vfs().open_append(&path)?,
        path: path.clone(),
        failed: None,
        published_alerts: 0,
        published_windows: 0,
    };
    if resume {
        // Deterministic folds: replaying the spooled prefix rebuilds
        // the exact decoder/detector state the previous session left,
        // so the continuation is byte-identical to an uninterrupted
        // stream.
        let mut file = shared.vfs().open_read(&path)?;
        let mut buf = vec![0u8; CHUNK];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            feed(&mut ingest, &buf[..n]);
            if ingest.failed.is_some() {
                break;
            }
        }
        publish(shared, key, &mut ingest);
    }
    runs.insert(key.clone(), ingest);
    Ok(())
}

/// Feeds bytes into the run's fold, isolating panics and latching the
/// first failure.
fn feed(ingest: &mut Ingest, data: &[u8]) {
    if ingest.failed.is_some() {
        return;
    }
    let Ingest {
        decoder, detector, ..
    } = ingest;
    match catch_unwind(AssertUnwindSafe(|| decoder.feed(data, detector))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => ingest.failed = Some(Failure::Fold(e.to_string())),
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            ingest.failed = Some(Failure::Fold(format!("ingestion fold panicked: {what}")));
        }
    }
}

/// Pushes the detector's current view into the registry. Alerts and
/// window stats are append-only over an ingest's lifetime, so only the
/// suffix past the published high-water mark is cloned — per-chunk
/// cost stays proportional to what the chunk produced, not to the
/// run's whole history.
fn publish(shared: &Shared, key: &RunKey, ingest: &mut Ingest) {
    let events = ingest.detector.events_seen();
    let processors = ingest.detector.processors();
    let makespan = ingest.detector.makespan();
    let new_alerts = ingest.detector.alerts()[ingest.published_alerts..].to_vec();
    let new_windows = ingest.detector.stats()[ingest.published_windows..].to_vec();
    // Nothing published yet for this ingest: a resumed run's registry
    // entry may hold state from the previous session, which the
    // replayed detector regenerates from byte zero.
    let fresh = ingest.published_alerts == 0 && ingest.published_windows == 0;
    ingest.published_alerts = ingest.detector.alerts().len();
    ingest.published_windows = ingest.detector.stats().len();
    let bytes = shared.vfs().len(&ingest.path).unwrap_or(0);
    shared.registry.update(key, |entry| {
        entry.bytes = bytes;
        entry.events = events;
        entry.processors = processors;
        entry.makespan = makespan;
        if fresh {
            entry.alerts.clear();
            entry.windows.clear();
        }
        entry.alerts.extend(new_alerts);
        entry.windows.extend(new_windows);
    });
}

fn ingest_chunk(shared: &Shared, runs: &mut HashMap<RunKey, Ingest>, key: &RunKey, data: &[u8]) {
    let Some(ingest) = runs.get_mut(key) else {
        return;
    };
    if ingest.failed.is_some() {
        // Latched: shed this run's load without touching disk or the
        // fold again. Other runs on the shard proceed normally.
        return;
    }
    // Spool before folding: the disk copy is the source of truth and
    // must contain every byte the client was allowed to send.
    if let Err(e) = ingest.spool.append(data) {
        // A short write may have appended a prefix that tears
        // mid-chunk; the scrub truncates it back to the last sealed
        // boundary on the next resume or restart.
        ingest.failed = Some(Failure::Disk(format!("spool write failed: {e}")));
        shared.registry.update(key, |entry| {
            entry.status = RunStatus::Partial;
            entry.error = Some(
                ServeError::Disk {
                    path: ingest.path.display().to_string(),
                    detail: format!("spool write failed: {e}"),
                }
                .to_string(),
            );
        });
        save_meta(shared, key);
        return;
    }
    feed(ingest, data);
    publish(shared, key, ingest);
}

fn end_run(shared: &Shared, runs: &mut HashMap<RunKey, Ingest>, key: &RunKey) -> Final {
    let Some(ingest) = runs.remove(key) else {
        return Final {
            status: STATUS_ERROR,
            body: format!("run {key} is not open on this shard"),
        };
    };
    let Ingest {
        decoder,
        path,
        failed,
        mut spool,
        ..
    } = ingest;

    match failed {
        Some(Failure::Fold(error)) => {
            drop(spool);
            shared.registry.update(key, |entry| {
                entry.status = RunStatus::Failed;
                entry.error = Some(error.clone());
            });
            return Final {
                status: STATUS_ERROR,
                body: error,
            };
        }
        Some(Failure::Disk(detail)) => {
            // Best effort: whatever prefix the failing disk still
            // holds is worth trying to pin down (the scrub re-seals
            // on resume or restart either way).
            let _ = spool.sync();
            let _ = shared.vfs().sync_dir(parent_dir(&path));
            drop(spool);
            // Storage faulted mid-run: the run is a resumable partial,
            // not a failure — the sealed spooled prefix is still good
            // and the client exits with the partial code, free to
            // retry once the disk recovers.
            let error = ServeError::Disk {
                path: path.display().to_string(),
                detail,
            };
            shared.registry.update(key, |entry| {
                entry.status = RunStatus::Partial;
                entry.error = Some(error.to_string());
            });
            let body = match replay::partial_report(shared.vfs(), &path) {
                Ok(report) => report,
                Err(e) => format!("no salvageable data yet: {e}\n"),
            };
            return Final {
                status: STATUS_SALVAGED,
                body: format!("{error}\n{body}"),
            };
        }
        None => {}
    }

    if decoder.is_done() {
        // The spool is about to become the durable artifact behind a
        // Complete verdict: fsync it (and its directory entry) first.
        // A sync failure degrades to a resumable partial — never a
        // "complete" run whose bytes may not survive a power cut.
        let durable = spool
            .sync()
            .and_then(|()| shared.vfs().sync_dir(parent_dir(&path)));
        drop(spool);
        if let Err(e) = durable {
            let error = ServeError::Disk {
                path: path.display().to_string(),
                detail: format!("spool sync failed: {e}"),
            };
            shared.registry.update(key, |entry| {
                entry.status = RunStatus::Partial;
                entry.error = Some(error.to_string());
            });
            let body = match replay::partial_report(shared.vfs(), &path) {
                Ok(report) => report,
                Err(e) => format!("no salvageable data yet: {e}\n"),
            };
            return Final {
                status: STATUS_SALVAGED,
                body: format!("{error}\n{body}"),
            };
        }
        match replay::complete_report(shared.vfs(), &path) {
            Ok(report) => {
                shared.registry.update(key, |entry| {
                    entry.status = RunStatus::Complete;
                    entry.report = Some(report.clone());
                });
                Final {
                    status: STATUS_OK,
                    body: report,
                }
            }
            Err(e) => {
                let error = format!("final analysis failed: {e}");
                shared.registry.update(key, |entry| {
                    entry.status = RunStatus::Failed;
                    entry.error = Some(error.clone());
                });
                Final {
                    status: STATUS_ERROR,
                    body: error,
                }
            }
        }
    } else {
        // Pin the partial down (content + directory entry) so the
        // spooled progress survives a power cut between sessions; a
        // sync failure is tolerable — the recovery scrub re-seals.
        let _ = spool.sync();
        let _ = shared.vfs().sync_dir(parent_dir(&path));
        drop(spool);
        // The stream stopped before its end chunk: salvage the spooled
        // prefix and leave the run resumable.
        shared.registry.update(key, |entry| {
            entry.status = RunStatus::Partial;
        });
        let body = match replay::partial_report(shared.vfs(), &path) {
            Ok(report) => report,
            Err(e) => format!("no salvageable data yet: {e}\n"),
        };
        Final {
            status: STATUS_SALVAGED,
            body,
        }
    }
}

/// The directory holding `path` (`"."` for bare filenames).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

fn query_session(shared: &Shared, mut stream: TcpStream, first: u8) {
    let line = match protocol::read_line_rest(first, &mut stream) {
        Ok(line) => line,
        Err(e) => {
            let _ = writeln!(stream, "error: {e}");
            return;
        }
    };
    let response = if line.eq_ignore_ascii_case("SHUTDOWN") {
        shared.cancel.cancel();
        // Unblock the accept loop so shutdown is prompt even with no
        // further connections.
        "shutting down\n".to_string()
    } else {
        match handle_query(shared, &line) {
            Ok(r) => r,
            Err(e) => format!("error: {e}\n"),
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Escapes a string for embedding in a JSON body: backslash, quote,
/// and all control characters (error messages carry newlines and tabs
/// from lower layers).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn find_run(shared: &Shared, tenant: &str, run: &str) -> Result<(RunKey, RunEntry), ServeError> {
    let key = RunKey::new(tenant, run);
    shared
        .registry
        .get(&key)
        .map(|e| (key.clone(), e))
        .ok_or_else(|| ServeError::State(format!("unknown run {key}")))
}

fn handle_query(shared: &Shared, line: &str) -> Result<String, ServeError> {
    let mut words = line.split_whitespace();
    let verb = words.next().unwrap_or("").to_ascii_uppercase();
    let args: Vec<&str> = words.collect();
    match (verb.as_str(), args.as_slice()) {
        ("STATUS", []) => {
            let all = shared.registry.all();
            let count = |s: RunStatus| all.iter().filter(|(_, st)| *st == s).count();
            Ok(format!(
                "limba-serve: {} tenants, {} runs ({} live, {} partial, {} complete, {} failed)\n",
                shared.registry.tenants().len(),
                all.len(),
                count(RunStatus::Live),
                count(RunStatus::Partial),
                count(RunStatus::Complete),
                count(RunStatus::Failed),
            ))
        }
        ("TENANTS", []) => {
            let mut out = String::new();
            for t in shared.registry.tenants() {
                out.push_str(&t);
                out.push('\n');
            }
            Ok(out)
        }
        ("RUNS", [tenant]) => {
            let rows = shared.registry.runs_of(tenant);
            if rows.is_empty() {
                return Err(ServeError::State(format!("unknown tenant {tenant}")));
            }
            let mut out = String::new();
            for (key, status, bytes, events) in rows {
                out.push_str(&format!("{} {} {bytes} {events}\n", key.run, status.name()));
            }
            Ok(out)
        }
        ("REPORT", [tenant, run]) => {
            let (_, entry) = find_run(shared, tenant, run)?;
            match entry.status {
                RunStatus::Complete => match entry.report {
                    // The cached (or regenerated) bytes are exactly
                    // what `limba analyze` prints for
                    // the spooled tracefile.
                    Some(report) => Ok(report),
                    None => replay::complete_report(shared.vfs(), &entry.spool),
                },
                RunStatus::Failed => Err(ServeError::State(format!(
                    "run failed: {}",
                    entry.error.as_deref().unwrap_or("unknown error")
                ))),
                RunStatus::Live | RunStatus::Partial => {
                    let mut out = format!(
                        "== {} report over {} spooled bytes ==\n",
                        entry.status.name(),
                        entry.bytes
                    );
                    out.push_str(&replay::partial_report(shared.vfs(), &entry.spool)?);
                    Ok(out)
                }
            }
        }
        ("DIGEST", [tenant, run]) => {
            let (key, entry) = find_run(shared, tenant, run)?;
            let alerts: Vec<String> = entry.alerts.iter().map(|a| a.to_json()).collect();
            let recent: Vec<String> = entry
                .windows
                .iter()
                .rev()
                .take(8)
                .rev()
                .map(|w| w.to_json())
                .collect();
            Ok(format!(
                "{{\"tenant\":\"{}\",\"run\":\"{}\",\"status\":\"{}\",\"bytes\":{},\
                 \"events\":{},\"processors\":{},\"makespan\":{},\"error\":{},\
                 \"alerts\":[{}],\"windows\":[{}]}}\n",
                json_escape(&key.tenant),
                json_escape(&key.run),
                entry.status.name(),
                entry.bytes,
                entry.events,
                entry.processors,
                crate::detect::json_f64(entry.makespan),
                match &entry.error {
                    Some(e) => format!("\"{}\"", json_escape(e)),
                    None => "null".into(),
                },
                alerts.join(","),
                recent.join(","),
            ))
        }
        ("ALERTS", [tenant, run]) => {
            let (_, entry) = find_run(shared, tenant, run)?;
            if entry.alerts.is_empty() {
                return Ok("no alerts\n".into());
            }
            let mut out = String::new();
            for a in &entry.alerts {
                out.push_str(&format!("{a}\n"));
            }
            Ok(out)
        }
        ("EVOLUTION", [tenant, run, windows]) => {
            let (_, entry) = find_run(shared, tenant, run)?;
            if entry.status != RunStatus::Complete {
                return Err(ServeError::State(
                    "evolution needs a complete run (live trend is in DIGEST)".into(),
                ));
            }
            let windows: usize = windows
                .parse()
                .map_err(|_| ServeError::Protocol(format!("bad window count {windows:?}")))?;
            if windows == 0 {
                return Err(ServeError::Protocol("window count must be positive".into()));
            }
            replay::evolution_report(shared.vfs(), &entry.spool, windows)
        }
        _ => Err(ServeError::Protocol(format!(
            "unknown query {line:?} (try STATUS, TENANTS, RUNS <t>, REPORT <t> <r>, \
             DIGEST <t> <r>, ALERTS <t> <r>, EVOLUTION <t> <r> <n>, SHUTDOWN)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn json_escape_covers_control_characters() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("line1\nline2\ttab\r"), "line1\\nline2\\ttab\\r");
        assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(json_escape("plain ünïcode"), "plain ünïcode");
    }
}
