//! Filesystem abstraction for durability under fire.
//!
//! Everything in the suite that claims to survive a crash — guard
//! checkpoints, serve spools and run metadata, streamed tracefile
//! writers — performs the same handful of filesystem operations:
//! create, append, read, rename, remove, fsync a file, fsync a
//! directory. This crate names that handful as the [`Vfs`] trait so
//! the durability-critical paths can be driven against three
//! interchangeable backends:
//!
//! * [`StdVfs`] — the real filesystem. `sync` maps to `sync_all`,
//!   `sync_dir` opens the directory and `sync_all`s it (the POSIX
//!   idiom that makes a rename or a new file durable on Linux).
//! * [`MemVfs`] — an in-memory filesystem implementing the *crash
//!   model* the POSIX contract actually guarantees: file content
//!   survives a power cut only up to the last file `sync`; a created
//!   or renamed *name* survives only after its parent directory was
//!   synced. [`MemVfs::crash`] discards everything else, so a test can
//!   cut the power at any point and restart the program on what a
//!   worst-case (but standards-compliant) disk would show.
//! * [`FaultVfs`] — a deterministic fault injector wrapping any other
//!   backend: seeded ENOSPC, EIO, short writes, failed renames, and
//!   power-cut points triggered by operation index, appended-byte
//!   budget, or path substring. Over [`MemVfs`] it drives the
//!   crash-consistency harness; over [`StdVfs`] it lets the CLI E2E
//!   tests fill a "disk" mid-ingest.
//!
//! The trait is deliberately tiny — it covers exactly the operations
//! whose ordering matters for crash consistency, nothing more. Code
//! that only ever reads (analysis, reports) keeps using `std::fs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::panic)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// An open file handle from a [`Vfs`].
pub trait VfsFile: Send {
    /// Appends `data` at the end of the file.
    ///
    /// # Errors
    ///
    /// Backend write failures; an injected fault may persist a prefix
    /// of `data` before failing (a short write).
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Reads from the current position, advancing it; returns the
    /// byte count, 0 at end of file.
    ///
    /// # Errors
    ///
    /// Backend read failures.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Flushes userspace buffers (no durability guarantee).
    ///
    /// # Errors
    ///
    /// Backend write failures.
    fn flush(&mut self) -> io::Result<()>;

    /// Forces the file's content to stable storage (`fsync`). After
    /// this returns, the *content* survives a power cut — the file's
    /// directory entry additionally needs [`Vfs::sync_dir`].
    ///
    /// # Errors
    ///
    /// Backend sync failures.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations whose ordering matters for crash
/// consistency. All methods take `&self`; implementations are
/// internally synchronized and handed around as `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync {
    /// Creates (or truncates) a file for writing.
    ///
    /// # Errors
    ///
    /// Backend open failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens a file for appending, creating it if missing.
    ///
    /// # Errors
    ///
    /// Backend open failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens a file for reading from the start.
    ///
    /// # Errors
    ///
    /// `NotFound` when missing, plus backend open failures.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Renames `from` onto `to` (atomically replacing `to`). The
    /// rename itself is durable only after the parent directory is
    /// synced.
    ///
    /// # Errors
    ///
    /// `NotFound` when `from` is missing, plus backend failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// `NotFound` when missing, plus backend failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Truncates the file to `len` bytes (used by the recovery scrub
    /// to cut a torn tail back to a sealed boundary).
    ///
    /// # Errors
    ///
    /// `NotFound` when missing, plus backend failures.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Forces the directory's entries to stable storage: after this,
    /// files created in / renamed into / removed from `dir` survive a
    /// power cut.
    ///
    /// # Errors
    ///
    /// Backend sync failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Creates the directory and its ancestors.
    ///
    /// # Errors
    ///
    /// Backend failures.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// The paths of the files directly inside `dir`, ascending.
    ///
    /// # Errors
    ///
    /// Backend failures.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// The file's current length in bytes.
    ///
    /// # Errors
    ///
    /// `NotFound` when missing.
    fn len(&self, path: &Path) -> io::Result<u64>;

    /// Whether the file currently exists.
    fn exists(&self, path: &Path) -> bool;

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// `NotFound` when missing, plus backend read failures.
    fn read_all(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = self.open_read(path)?;
        let mut out = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    /// Convenience: opens the file and syncs its content (`fsync` by
    /// path, for handles owned elsewhere).
    ///
    /// # Errors
    ///
    /// `NotFound` when missing, plus backend sync failures.
    fn sync_path(&self, path: &Path) -> io::Result<()> {
        self.open_append(path)?.sync()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

// ---------------------------------------------------------------------------
// StdVfs — the real filesystem
// ---------------------------------------------------------------------------

/// The real filesystem. `sync` is `File::sync_all`; `sync_dir` opens
/// the directory and `sync_all`s it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(data)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::Read;
        self.0.read(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        use std::io::Write;
        self.0.flush()
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::open(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX
        // idiom for making its entries durable (Linux supports it;
        // platforms that don't simply report the error).
        std::fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read_all(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

// ---------------------------------------------------------------------------
// MemVfs — the in-memory crash model
// ---------------------------------------------------------------------------

/// One in-memory file: the live content, the content snapshot at the
/// last file sync, and whether the *name* has reached the directory's
/// stable storage.
#[derive(Debug, Clone, Default)]
struct Node {
    data: Vec<u8>,
    synced: Vec<u8>,
    entry_durable: bool,
}

#[derive(Debug, Default)]
struct MemState {
    nodes: BTreeMap<PathBuf, Node>,
    /// Durable directory entries whose live file was renamed away or
    /// removed without a directory sync yet: a crash resurrects them
    /// with their last-synced content.
    ghosts: BTreeMap<PathBuf, Vec<u8>>,
}

/// An in-memory filesystem implementing the pessimistic POSIX crash
/// model. Clones share state, so the "disk" survives dropping and
/// rebuilding the program state around it; [`MemVfs::crash`] simulates
/// the power cut itself.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    state: Arc<Mutex<MemState>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MemVfs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// Simulates a power cut: every file's content rolls back to its
    /// last-synced snapshot; files whose directory entry was never
    /// synced vanish; ghost entries (durable names renamed away or
    /// removed without a directory sync) reappear with their
    /// last-synced content.
    pub fn crash(&self) {
        let mut st = lock(&self.state);
        let mut survivors: BTreeMap<PathBuf, Node> = BTreeMap::new();
        for (path, node) in std::mem::take(&mut st.nodes) {
            if node.entry_durable {
                survivors.insert(
                    path,
                    Node {
                        data: node.synced.clone(),
                        synced: node.synced,
                        entry_durable: true,
                    },
                );
            }
        }
        for (path, bytes) in std::mem::take(&mut st.ghosts) {
            survivors.entry(path).or_insert_with(|| Node {
                data: bytes.clone(),
                synced: bytes,
                entry_durable: true,
            });
        }
        st.nodes = survivors;
    }

    /// The file's current (volatile) content, for assertions.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        lock(&self.state).nodes.get(path).map(|n| n.data.clone())
    }
}

struct MemFile {
    state: Arc<Mutex<MemState>>,
    path: PathBuf,
    pos: usize,
}

impl VfsFile for MemFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut st = lock(&self.state);
        let node = st
            .nodes
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        node.data.extend_from_slice(data);
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let st = lock(&self.state);
        let node = st
            .nodes
            .get(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        let avail = node.data.len().saturating_sub(self.pos);
        let n = avail.min(buf.len());
        buf[..n].copy_from_slice(&node.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = lock(&self.state);
        let node = st
            .nodes
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        node.synced = node.data.clone();
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        // Truncation is volatile like any write: until the next sync,
        // a crash rolls back to the previous synced content; until the
        // next directory sync, a brand-new name vanishes on crash.
        let node = st.nodes.entry(path.to_path_buf()).or_default();
        node.data.clear();
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = lock(&self.state);
        st.nodes.entry(path.to_path_buf()).or_default();
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let st = lock(&self.state);
        if !st.nodes.contains_key(path) {
            return Err(not_found(path));
        }
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let node = st.nodes.remove(from).ok_or_else(|| not_found(from))?;
        // A durable old name survives the (not-yet-synced) rename as a
        // ghost: a crash before the directory sync shows the file
        // under its old name with its last-synced content.
        if node.entry_durable {
            st.ghosts.insert(from.to_path_buf(), node.synced.clone());
        }
        let overwritten = st
            .nodes
            .get(to)
            .filter(|old| old.entry_durable)
            .map(|old| old.synced.clone());
        if let Some(synced) = overwritten {
            st.ghosts.insert(to.to_path_buf(), synced);
        }
        st.nodes.insert(
            to.to_path_buf(),
            Node {
                data: node.data,
                // Content durability is per-inode and survives rename.
                synced: node.synced,
                entry_durable: false,
            },
        );
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        let node = st.nodes.remove(path).ok_or_else(|| not_found(path))?;
        if node.entry_durable {
            st.ghosts.insert(path.to_path_buf(), node.synced);
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut st = lock(&self.state);
        let node = st.nodes.get_mut(path).ok_or_else(|| not_found(path))?;
        node.data.truncate(len as usize);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = lock(&self.state);
        for (path, node) in st.nodes.iter_mut() {
            if path.parent() == Some(dir) {
                node.entry_durable = true;
            }
        }
        st.ghosts.retain(|path, _| path.parent() != Some(dir));
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        // Directories are implicit (and treated as durable): the
        // crash model under test is file content and entries, not
        // mkdir itself.
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = lock(&self.state);
        Ok(st
            .nodes
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let st = lock(&self.state);
        st.nodes
            .get(path)
            .map(|n| n.data.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.state).nodes.contains_key(path)
    }
}

// ---------------------------------------------------------------------------
// FaultVfs — deterministic fault injection
// ---------------------------------------------------------------------------

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — the disk is full. Sticky when triggered by an
    /// appended-byte budget (the disk stays full), one-shot when
    /// triggered by operation index.
    Enospc,
    /// `EIO` — a transient device error on the targeted operation.
    Eio,
    /// A short write: a seeded prefix of the data persists, then the
    /// operation fails with `EIO`.
    ShortWrite,
    /// The targeted rename fails (the classic torn atomic-replace).
    RenameFail,
    /// A power cut: the fault point and *every* operation after it
    /// fail, modeling the process dying mid-sequence. Pair with
    /// [`MemVfs::crash`] to model what the disk shows on reboot.
    PowerCut,
}

impl FaultKind {
    fn parse(s: &str) -> Result<FaultKind, String> {
        match s {
            "enospc" => Ok(FaultKind::Enospc),
            "eio" => Ok(FaultKind::Eio),
            "short" | "short-write" => Ok(FaultKind::ShortWrite),
            "rename" | "rename-fail" => Ok(FaultKind::RenameFail),
            "powercut" | "power-cut" => Ok(FaultKind::PowerCut),
            other => Err(format!(
                "unknown fault kind {other:?} (try enospc, eio, short-write, \
                 rename-fail, power-cut)"
            )),
        }
    }
}

/// When and where a [`FaultVfs`] fires. Parsed from a spec string:
///
/// ```text
/// KIND[:at=N][:after=N][:match=SUBSTR][:seed=N]
/// ```
///
/// `at=N` fires on the N-th matching operation (0-based, counting
/// every operation on matching paths); `after=N` fires once `N` bytes
/// have been appended to matching paths (and keeps failing — a full
/// disk); `match=SUBSTR` restricts the plan to paths containing the
/// substring; `seed` varies the persisted prefix of a short write.
/// With neither `at` nor `after`, `rename-fail` fires on the first
/// rename and every other kind on the first matching operation.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// What happens at the fault point.
    pub kind: FaultKind,
    /// Fire on this 0-based matching-operation index.
    pub at_op: Option<u64>,
    /// Fire once this many bytes have been appended to matching paths.
    pub after_bytes: Option<u64>,
    /// Only operations on paths containing this substring count.
    pub matches: Option<String>,
    /// Seed for the short-write prefix length.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan firing `kind` at its default trigger (see type docs).
    pub fn new(kind: FaultKind) -> Self {
        FaultPlan {
            kind,
            at_op: None,
            after_bytes: None,
            matches: None,
            seed: 0,
        }
    }

    /// Fires on the N-th matching operation.
    #[must_use]
    pub fn at_op(mut self, n: u64) -> Self {
        self.at_op = Some(n);
        self
    }

    /// Fires once `n` bytes were appended to matching paths.
    #[must_use]
    pub fn after_bytes(mut self, n: u64) -> Self {
        self.after_bytes = Some(n);
        self
    }

    /// Restricts the plan to paths containing `substr`.
    #[must_use]
    pub fn matching(mut self, substr: &str) -> Self {
        self.matches = Some(substr.to_string());
        self
    }

    /// Sets the short-write seed.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses the `KIND[:at=N][:after=N][:match=S][:seed=N]` spec.
    ///
    /// # Errors
    ///
    /// A description of the malformed part.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let kind = FaultKind::parse(parts.next().unwrap_or(""))?;
        let mut plan = FaultPlan::new(kind);
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault option {part:?} is not key=value"))?;
            match key {
                "at" => {
                    plan.at_op = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad operation index {value:?}"))?,
                    );
                }
                "after" => {
                    plan.after_bytes = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad byte budget {value:?}"))?,
                    );
                }
                "match" => plan.matches = Some(value.to_string()),
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                other => return Err(format!("unknown fault option {other:?}")),
            }
        }
        Ok(plan)
    }

    fn matches(&self, path: &Path) -> bool {
        match &self.matches {
            Some(s) => path.to_string_lossy().contains(s.as_str()),
            None => true,
        }
    }
}

/// The operation class a [`FaultVfs`] gate call describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Append,
    Read,
    Sync,
    Rename,
    Other,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    appended: u64,
    dead: bool,
}

/// Deterministic I/O fault injection over any [`Vfs`] backend. Clones
/// share the operation counters, so every handle the wrapped
/// filesystem hands out advances the same plan.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    plan: FaultPlan,
    state: Arc<Mutex<FaultState>>,
}

/// SplitMix64 — the suite's standard seed mixer, for short-write
/// prefix lengths.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn enospc() -> io::Error {
    // Raw ENOSPC so callers see the real "No space left on device".
    io::Error::from_raw_os_error(28)
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

fn power_cut() -> io::Error {
    io::Error::other("simulated power loss")
}

impl FaultVfs {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Self {
        FaultVfs {
            inner,
            plan,
            state: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    /// How many matching operations have been gated so far — run a
    /// scenario once fault-free to enumerate its fault sites.
    pub fn ops(&self) -> u64 {
        lock(&self.state).ops
    }

    /// Whether an injected power cut has fired (all operations fail
    /// from then on).
    pub fn is_dead(&self) -> bool {
        lock(&self.state).dead
    }

    /// Decides the fate of one operation: how many bytes of an append
    /// may proceed (the full `data_len` when nothing fires) and the
    /// error to surface after the allowed prefix, if any.
    fn gate(&self, path: &Path, op: OpKind, data_len: usize) -> (usize, Option<io::Error>) {
        let mut st = lock(&self.state);
        if st.dead {
            return (0, Some(power_cut()));
        }
        if !self.plan.matches(path) {
            return (data_len, None);
        }
        let index = st.ops;
        st.ops += 1;

        let fires = match (self.plan.at_op, self.plan.after_bytes) {
            (Some(n), _) => index == n,
            (None, Some(budget)) => {
                op == OpKind::Append && st.appended.saturating_add(data_len as u64) > budget
            }
            (None, None) => match self.plan.kind {
                FaultKind::RenameFail => op == OpKind::Rename,
                _ => index == 0,
            },
        };
        if !fires {
            if op == OpKind::Append {
                st.appended += data_len as u64;
            }
            return (data_len, None);
        }

        match self.plan.kind {
            FaultKind::Enospc => {
                // Byte-budget mode persists exactly up to the budget —
                // the disk filled mid-write.
                let allowed = match self.plan.after_bytes {
                    Some(budget) if op == OpKind::Append => {
                        (budget.saturating_sub(st.appended) as usize).min(data_len)
                    }
                    _ => 0,
                };
                st.appended += allowed as u64;
                (allowed, Some(enospc()))
            }
            FaultKind::Eio => (0, Some(eio())),
            FaultKind::ShortWrite => {
                let keep = if op == OpKind::Append && data_len > 0 {
                    (mix(self.plan.seed ^ index) % data_len as u64) as usize
                } else {
                    0
                };
                st.appended += keep as u64;
                (keep, Some(eio()))
            }
            FaultKind::RenameFail => {
                if op == OpKind::Rename {
                    (0, Some(eio()))
                } else {
                    if op == OpKind::Append {
                        st.appended += data_len as u64;
                    }
                    (data_len, None)
                }
            }
            FaultKind::PowerCut => {
                st.dead = true;
                (0, Some(power_cut()))
            }
        }
    }

    /// Gate for operations that carry no data: any allowed prefix is
    /// meaningless, only pass/fail matters.
    fn check(&self, path: &Path, op: OpKind) -> io::Result<()> {
        match self.gate(path, op, 0) {
            (_, Some(e)) => Err(e),
            (_, None) => Ok(()),
        }
    }
}

impl std::fmt::Debug for FaultVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultVfs")
            .field("plan", &self.plan)
            .finish()
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    vfs: FaultVfs,
}

impl VfsFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let (allowed, err) = self.vfs.gate(&self.path, OpKind::Append, data.len());
        // A short write persists its allowed prefix before the error
        // surfaces — exactly what a real torn write leaves on disk.
        if allowed > 0 {
            self.inner.append(&data[..allowed.min(data.len())])?;
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.vfs.check(&self.path, OpKind::Read)?;
        self.inner.read(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.vfs.check(&self.path, OpKind::Sync)?;
        self.inner.sync()
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(path, OpKind::Other)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.create(path)?,
            path: path.to_path_buf(),
            vfs: self.clone(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(path, OpKind::Other)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(path)?,
            path: path.to_path_buf(),
            vfs: self.clone(),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check(path, OpKind::Other)?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_read(path)?,
            path: path.to_path_buf(),
            vfs: self.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(to, OpKind::Rename)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check(path, OpKind::Other)?;
        self.inner.remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.check(path, OpKind::Other)?;
        self.inner.truncate(path, len)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.check(dir, OpKind::Sync)?;
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    // ---- MemVfs crash model ----

    #[test]
    fn unsynced_content_is_lost_on_crash() {
        let mem = MemVfs::new();
        let mut f = mem.create(&p("/d/a")).unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        f.append(b" world").unwrap();
        // No sync after the second append.
        mem.crash();
        assert_eq!(mem.read_all(&p("/d/a")).unwrap(), b"hello");
    }

    #[test]
    fn file_without_dir_sync_vanishes_on_crash() {
        let mem = MemVfs::new();
        let mut f = mem.create(&p("/d/a")).unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        // Content synced, but the directory entry never was.
        mem.crash();
        assert!(!mem.exists(&p("/d/a")));
    }

    #[test]
    fn rename_without_dir_sync_rolls_back_on_crash() {
        let mem = MemVfs::new();
        // A durable original.
        let mut f = mem.create(&p("/d/ckpt")).unwrap();
        f.append(b"old").unwrap();
        f.sync().unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        // Atomic-replace sequence, minus the final directory sync.
        let mut t = mem.create(&p("/d/ckpt.tmp")).unwrap();
        t.append(b"new").unwrap();
        t.sync().unwrap();
        mem.rename(&p("/d/ckpt.tmp"), &p("/d/ckpt")).unwrap();
        mem.crash();
        // The crash shows the *old* checkpoint — never a torn one.
        assert_eq!(mem.read_all(&p("/d/ckpt")).unwrap(), b"old");
        // With the directory sync, the rename is durable.
        let mut t = mem.create(&p("/d/ckpt.tmp")).unwrap();
        t.append(b"new").unwrap();
        t.sync().unwrap();
        mem.rename(&p("/d/ckpt.tmp"), &p("/d/ckpt")).unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        mem.crash();
        assert_eq!(mem.read_all(&p("/d/ckpt")).unwrap(), b"new");
    }

    #[test]
    fn removed_durable_file_reappears_without_dir_sync() {
        let mem = MemVfs::new();
        let mut f = mem.create(&p("/d/a")).unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        mem.remove_file(&p("/d/a")).unwrap();
        mem.crash();
        assert_eq!(mem.read_all(&p("/d/a")).unwrap(), b"x");
        // Removing *and* syncing the directory makes the unlink stick.
        mem.remove_file(&p("/d/a")).unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        mem.crash();
        assert!(!mem.exists(&p("/d/a")));
    }

    #[test]
    fn truncate_is_volatile_until_synced() {
        let mem = MemVfs::new();
        let mut f = mem.create(&p("/d/a")).unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        mem.sync_dir(&p("/d")).unwrap();
        mem.truncate(&p("/d/a"), 4).unwrap();
        assert_eq!(mem.len(&p("/d/a")).unwrap(), 4);
        mem.crash();
        assert_eq!(mem.read_all(&p("/d/a")).unwrap(), b"0123456789");
        mem.truncate(&p("/d/a"), 4).unwrap();
        mem.sync_path(&p("/d/a")).unwrap();
        mem.crash();
        assert_eq!(mem.read_all(&p("/d/a")).unwrap(), b"0123");
    }

    // ---- FaultVfs ----

    #[test]
    fn enospc_budget_persists_exactly_the_budget() {
        let mem = MemVfs::new();
        let vfs = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultPlan::parse("enospc:after=10").unwrap(),
        );
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.append(b"0123456").unwrap();
        let err = f.append(b"789abcd").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
        // The disk filled at exactly 10 bytes.
        assert_eq!(mem.len(&p("/d/a")).unwrap(), 10);
        // And stays full.
        assert!(f.append(b"x").is_err());
    }

    #[test]
    fn short_write_persists_a_seeded_prefix() {
        let mem = MemVfs::new();
        let vfs = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultPlan::parse("short:at=2:seed=7").unwrap(),
        );
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.append(b"full-write-ok").unwrap();
        let before = mem.len(&p("/d/a")).unwrap();
        let err = f.append(b"torn-write").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "{err}");
        let after = mem.len(&p("/d/a")).unwrap();
        assert!(
            after >= before && after < before + 10,
            "torn tail persisted"
        );
        // Deterministic: the same plan tears at the same byte.
        let mem2 = MemVfs::new();
        let vfs2 = FaultVfs::new(
            Arc::new(mem2.clone()),
            FaultPlan::parse("short:at=2:seed=7").unwrap(),
        );
        let mut f2 = vfs2.create(&p("/d/a")).unwrap();
        f2.append(b"full-write-ok").unwrap();
        let _ = f2.append(b"torn-write");
        assert_eq!(mem2.len(&p("/d/a")).unwrap(), after);
    }

    #[test]
    fn power_cut_kills_every_subsequent_operation() {
        let vfs = FaultVfs::new(
            Arc::new(MemVfs::new()),
            FaultPlan::new(FaultKind::PowerCut).at_op(2),
        );
        let mut f = vfs.create(&p("/d/a")).unwrap(); // op 0
        f.append(b"x").unwrap(); // op 1
        assert!(f.append(b"y").is_err()); // op 2: cut
        assert!(vfs.is_dead());
        assert!(vfs.create(&p("/d/b")).is_err());
        assert!(vfs.sync_dir(&p("/d")).is_err());
    }

    #[test]
    fn match_filter_scopes_the_fault_to_one_path() {
        let mem = MemVfs::new();
        let vfs = FaultVfs::new(
            Arc::new(mem.clone()),
            FaultPlan::parse("enospc:after=0:match=unlucky").unwrap(),
        );
        let mut ok = vfs.create(&p("/d/fine")).unwrap();
        ok.append(b"all good").unwrap();
        let mut bad = vfs.create(&p("/d/unlucky")).unwrap();
        assert!(bad.append(b"nope").is_err());
        assert_eq!(mem.read_all(&p("/d/fine")).unwrap(), b"all good");
    }

    #[test]
    fn rename_fail_hits_only_renames() {
        let mem = MemVfs::new();
        let vfs = FaultVfs::new(Arc::new(mem.clone()), FaultPlan::new(FaultKind::RenameFail));
        let mut f = vfs.create(&p("/d/a.tmp")).unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        assert!(vfs.rename(&p("/d/a.tmp"), &p("/d/a")).is_err());
        assert!(mem.exists(&p("/d/a.tmp")));
        assert!(!mem.exists(&p("/d/a")));
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("whatever").is_err());
        assert!(FaultPlan::parse("enospc:at=x").is_err());
        assert!(FaultPlan::parse("eio:bogus=1").is_err());
        assert!(FaultPlan::parse("eio:at").is_err());
        let plan = FaultPlan::parse("short-write:at=3:match=t0:seed=9").unwrap();
        assert_eq!(plan.kind, FaultKind::ShortWrite);
        assert_eq!(plan.at_op, Some(3));
        assert_eq!(plan.matches.as_deref(), Some("t0"));
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn std_vfs_round_trips_on_the_real_filesystem() {
        let dir = std::env::temp_dir().join(format!("limba-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = StdVfs;
        let path = dir.join("file.bin");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut g = vfs.open_append(&path).unwrap();
        g.append(b"def").unwrap();
        g.sync().unwrap();
        drop(g);
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read_all(&path).unwrap(), b"abcdef");
        assert_eq!(vfs.len(&path).unwrap(), 6);
        vfs.truncate(&path, 4).unwrap();
        assert_eq!(vfs.read_all(&path).unwrap(), b"abcd");
        let renamed = dir.join("file2.bin");
        vfs.rename(&path, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&path));
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec![renamed.clone()]);
        vfs.remove_file(&renamed).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
