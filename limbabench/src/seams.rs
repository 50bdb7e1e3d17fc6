//! Timing and counting wrappers at limba's public trait seams.
//!
//! [`TimedSink`] wraps any [`TraceSink`] and counts what a producer
//! feeds it; [`CountingVfs`] wraps [`StdVfs`] and counts what the serve
//! layer writes, reads and syncs. Both only observe: every call is
//! forwarded unchanged, so outputs are identical with or without them.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use limba_trace::{Event, TraceError, TraceSink};
use limba_vfs::{StdVfs, Vfs, VfsFile};

/// A [`TraceSink`] wrapper counting events and frames (`events` calls)
/// and the time spent inside the wrapped sink.
#[derive(Debug)]
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Events delivered.
    pub events: u64,
    /// `events` calls — one per decoded or emitted frame.
    pub frames: u64,
    /// Time inside the wrapped sink's methods.
    pub busy: Duration,
}

impl<S> TimedSink<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            events: 0,
            frames: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        let t = Instant::now();
        let r = self.inner.begin(processors, region_names);
        self.busy += t.elapsed();
        r
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.frames += 1;
        self.events += events.len() as u64;
        let t = Instant::now();
        let r = self.inner.events(events);
        self.busy += t.elapsed();
        r
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let t = Instant::now();
        let r = self.inner.finish();
        self.busy += t.elapsed();
        r
    }
}

/// A recorded trace stream: the `begin` arguments and every event
/// batch, replayable into any sink with the same frame boundaries.
#[derive(Debug, Default)]
pub struct Recording {
    processors: usize,
    region_names: Vec<String>,
    batches: Vec<Vec<Event>>,
}

impl Recording {
    /// Feeds the recorded stream into `sink`, frame for frame.
    ///
    /// # Errors
    ///
    /// Whatever the sink returns.
    pub fn replay(&self, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        sink.begin(self.processors, &self.region_names)?;
        for batch in &self.batches {
            sink.events(batch)?;
        }
        sink.finish()
    }
}

impl TraceSink for Recording {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.processors = processors;
        self.region_names = region_names.to_vec();
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.batches.push(events.to_vec());
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        Ok(())
    }
}

/// Totals a [`CountingVfs`] has seen.
#[derive(Debug, Default)]
pub struct VfsStats {
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    spool_written: AtomicU64,
    spool_read: AtomicU64,
}

/// A point-in-time copy of [`VfsStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VfsSnapshot {
    /// File and directory syncs.
    pub syncs: u64,
    /// Time spent in syncs.
    pub sync: Duration,
    /// Bytes appended to spool files.
    pub spool_written: u64,
    /// Bytes read back from spool files.
    pub spool_read: u64,
}

impl VfsSnapshot {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot {
            syncs: self.syncs - earlier.syncs,
            sync: self.sync.saturating_sub(earlier.sync),
            spool_written: self.spool_written - earlier.spool_written,
            spool_read: self.spool_read - earlier.spool_read,
        }
    }
}

impl VfsStats {
    /// Copies the current totals.
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot {
            syncs: self.syncs.load(Relaxed),
            sync: Duration::from_nanos(self.sync_ns.load(Relaxed)),
            spool_written: self.spool_written.load(Relaxed),
            spool_read: self.spool_read.load(Relaxed),
        }
    }

    fn timed_sync<T>(&self, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let t = Instant::now();
        let r = f();
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.syncs.fetch_add(1, Relaxed);
        r
    }
}

/// [`StdVfs`] with counters, handed to the server as `ServeConfig::vfs`.
#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: StdVfs,
    stats: Arc<VfsStats>,
}

impl CountingVfs {
    /// A counting wrapper over the real filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared counters.
    pub fn stats(&self) -> Arc<VfsStats> {
        Arc::clone(&self.stats)
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        // The server spools every run under `<checkpoint_dir>/spool/`.
        let spool = path
            .parent()
            .and_then(Path::file_name)
            .is_some_and(|d| d == "spool");
        Box::new(CountingFile {
            inner: file,
            stats: Arc::clone(&self.stats),
            spool,
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    stats: Arc<VfsStats>,
    spool: bool,
}

impl VfsFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        if self.spool {
            self.stats
                .spool_written
                .fetch_add(data.len() as u64, Relaxed);
        }
        self.inner.append(data)
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.spool {
            self.stats.spool_read.fetch_add(n as u64, Relaxed);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        let stats = Arc::clone(&self.stats);
        stats.timed_sync(|| self.inner.sync())
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_read(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.stats.timed_sync(|| self.inner.sync_dir(dir))
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
