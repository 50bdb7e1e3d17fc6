//! Durable trace writing and torn-tail detection.
//!
//! Two pieces sit here, both built on the streaming codec:
//!
//! * [`SealScanner`] — answers "how much of this (possibly torn) byte
//!   prefix is a *sealed* trace stream?". It drives a
//!   [`StreamDecoder`] over the bytes with a no-op sink and reports
//!   the last sealed boundary (the end of the header or of a complete
//!   chunk) plus whether the stream verified end to end. The serve
//!   layer's startup recovery scrub truncates a crash-torn spool back
//!   to this boundary instead of failing the tenant; a resumed client
//!   then regenerates and appends exactly the missing suffix.
//! * [`DurableSink`] — a [`TraceSink`] that writes the chunked-v3
//!   container through a [`Vfs`] and makes it durable on `finish`:
//!   the file is fsynced and its parent directory entry synced, so a
//!   power cut after `--stream-out` returns cannot lose or tear the
//!   tracefile. Mid-stream cuts leave a prefix the scanner can seal.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use limba_vfs::{Vfs, VfsFile};

use crate::stream::{StreamDecoder, StreamEncoder, TraceSink};
use crate::{Event, TraceError};

/// Scan chunk size for [`SealScanner::scan_file`].
const CHUNK: usize = 64 * 1024;

/// A sink that discards everything — the scanner only needs the
/// decoder's structural verdict, not the events.
struct NullSink;

impl TraceSink for NullSink {
    fn begin(&mut self, _processors: usize, _region_names: &[String]) -> Result<(), TraceError> {
        Ok(())
    }
    fn events(&mut self, _events: &[Event]) -> Result<(), TraceError> {
        Ok(())
    }
    fn finish(&mut self) -> Result<(), TraceError> {
        Ok(())
    }
}

/// What a [`SealScanner`] pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealScan {
    /// Byte offset of the last sealed boundary: a prefix of this
    /// length decodes cleanly and ends at a resume point. 0 when not
    /// even the header survived.
    pub sealed: u64,
    /// Total bytes examined.
    pub total: u64,
    /// The stream verified end to end (end chunk present, checksum
    /// good, no trailing bytes).
    pub complete: bool,
    /// The bytes past `sealed` were *structurally damaged* (bad tag,
    /// bad record, checksum mismatch, bytes after the end) rather
    /// than merely truncated mid-structure.
    pub damaged: bool,
}

/// Incremental torn-tail detector over a chunked-v3 (or materialized
/// v1–2) byte stream. Feed any byte split; structural damage stops the
/// scan without erroring — the verdict is in the final [`SealScan`].
#[derive(Default)]
pub struct SealScanner {
    decoder: StreamDecoder,
    total: u64,
    damaged: bool,
}

impl SealScanner {
    /// A scanner for one stream.
    pub(crate) fn new() -> Self {
        SealScanner::default()
    }

    /// Consumes the next bytes of the stream. Bytes after damage (or
    /// after a verified end) only count toward the total.
    pub(crate) fn feed(&mut self, chunk: &[u8]) {
        self.total += chunk.len() as u64;
        if self.damaged {
            return;
        }
        if self.decoder.feed(chunk, &mut NullSink).is_err() {
            self.damaged = true;
        }
    }

    /// The verdict over everything fed so far.
    pub(crate) fn finish(self) -> SealScan {
        SealScan {
            sealed: self.decoder.sealed(),
            total: self.total,
            complete: self.decoder.is_done()
                && !self.damaged
                && self.decoder.consumed() == self.total,
            damaged: self.damaged,
        }
    }

    /// One-shot scan of an in-memory byte slice.
    pub fn scan(bytes: &[u8]) -> SealScan {
        let mut scanner = SealScanner::new();
        scanner.feed(bytes);
        scanner.finish()
    }

    /// One-shot scan of a file through `vfs`, reading in bounded
    /// chunks.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be read (scan verdicts
    /// about *content* never error).
    pub fn scan_file(vfs: &dyn Vfs, path: &Path) -> Result<SealScan, TraceError> {
        let mut file = vfs.open_read(path)?;
        let mut scanner = SealScanner::new();
        let mut buf = vec![0u8; CHUNK];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(scanner.finish());
            }
            scanner.feed(&buf[..n]);
        }
    }
}

/// A [`TraceSink`] that writes the chunked-v3 container to a file
/// through a [`Vfs`] and seals it durably on `finish`: content fsync,
/// then parent-directory fsync. The crash contract: after `finish`
/// returns, the complete tracefile survives a power cut; a cut before
/// that leaves a prefix [`SealScanner`] can truncate to a sealed
/// boundary (or no file at all) — never a file that *looks* complete
/// but is not.
pub struct DurableSink {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    encoder: StreamEncoder,
}

impl DurableSink {
    /// Creates (truncates) `path` through `vfs`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be created.
    pub fn create(vfs: Arc<dyn Vfs>, path: &Path) -> Result<Self, TraceError> {
        let file = vfs.create(path)?;
        Ok(DurableSink {
            vfs,
            path: path.to_path_buf(),
            file,
            encoder: StreamEncoder::new(),
        })
    }
}

impl TraceSink for DurableSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        let header = self.encoder.header(processors, region_names)?;
        self.file.append(header.as_ref())?;
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let frame = self.encoder.frame(events);
        self.file.append(frame.as_ref())?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let end = self.encoder.finish();
        self.file.append(end.as_ref())?;
        // The durability point: content, then directory entry.
        self.file.sync()?;
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        self.vfs.sync_dir(dir)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::stream::WriteSink;
    use limba_vfs::MemVfs;

    /// A small two-chunk v3 stream.
    fn sample_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        {
            let mut sink = WriteSink::new(&mut out);
            sink.begin(2, &["work".into(), "halo".into()]).unwrap();
            let chunk1 = vec![
                Event::enter(0.0, 0, 0.into()),
                Event::leave(1.0, 0, 0.into()),
            ];
            let chunk2 = vec![
                Event::enter(0.0, 1, 0.into()),
                Event::leave(3.0, 1, 0.into()),
                Event::enter(3.0, 1, 1.into()),
                Event::leave(3.5, 1, 1.into()),
            ];
            sink.events(&chunk1).unwrap();
            sink.events(&chunk2).unwrap();
            sink.finish().unwrap();
        }
        out
    }

    #[test]
    fn complete_stream_seals_at_its_full_length() {
        let bytes = sample_bytes();
        let scan = SealScanner::scan(&bytes);
        assert!(scan.complete && !scan.damaged);
        assert_eq!(scan.sealed, bytes.len() as u64);
        assert_eq!(scan.total, bytes.len() as u64);
    }

    #[test]
    fn every_truncation_seals_at_a_decodable_boundary() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let scan = SealScanner::scan(&bytes[..cut]);
            assert!(!scan.complete, "cut {cut} claimed complete");
            assert!(!scan.damaged, "pure truncation at {cut} is not damage");
            assert!(scan.sealed <= cut as u64);
            // The sealed prefix must itself scan clean and seal at the
            // same boundary (truncating there is a fixed point).
            let again = SealScanner::scan(&bytes[..scan.sealed as usize]);
            assert_eq!(again.sealed, scan.sealed, "cut {cut} not a fixed point");
            assert_eq!(
                again.sealed, again.total,
                "cut {cut}: sealed prefix still torn"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_damage_but_keeps_the_seal() {
        let mut bytes = sample_bytes();
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(b"garbage");
        let scan = SealScanner::scan(&bytes);
        assert!(scan.damaged && !scan.complete);
        assert_eq!(scan.sealed, clean);
    }

    #[test]
    fn corrupt_tag_seals_at_the_previous_chunk() {
        let bytes = sample_bytes();
        // The first sealed boundary is the end of the header.
        let header = (1..bytes.len())
            .map(|cut| SealScanner::scan(&bytes[..cut]).sealed)
            .find(|&sealed| sealed > 0)
            .unwrap();
        // Corrupt one byte well past the header.
        let mut corrupt = bytes.clone();
        let hit = (header as usize) + 1; // inside the first chunk
        corrupt[hit] ^= 0xFF;
        let scan = SealScanner::scan(&corrupt);
        assert!(scan.sealed <= header || scan.damaged || !scan.complete);
        assert!(!scan.complete);
    }

    #[test]
    fn durable_sink_writes_byte_identical_v3_and_syncs() {
        let mem = MemVfs::new();
        let path = Path::new("/out/trace.trc");
        let mut sink = DurableSink::create(Arc::new(mem.clone()), path).unwrap();
        sink.begin(2, &["work".into(), "halo".into()]).unwrap();
        sink.events(&[
            Event::enter(0.0, 0, 0.into()),
            Event::leave(1.0, 0, 0.into()),
        ])
        .unwrap();
        sink.events(&[
            Event::enter(0.0, 1, 0.into()),
            Event::leave(3.0, 1, 0.into()),
            Event::enter(3.0, 1, 1.into()),
            Event::leave(3.5, 1, 1.into()),
        ])
        .unwrap();
        sink.finish().unwrap();
        assert_eq!(mem.read_all(path).unwrap(), sample_bytes());
        // Durability: the file survives a power cut after finish.
        mem.crash();
        assert_eq!(mem.read_all(path).unwrap(), sample_bytes());
    }

    #[test]
    fn durable_sink_without_finish_does_not_survive_a_crash_as_complete() {
        let mem = MemVfs::new();
        let path = Path::new("/out/trace.trc");
        let mut sink = DurableSink::create(Arc::new(mem.clone()), path).unwrap();
        sink.begin(1, &["work".into()]).unwrap();
        sink.events(&[
            Event::enter(0.0, 0, 0.into()),
            Event::leave(1.0, 0, 0.into()),
        ])
        .unwrap();
        // No finish → no sync. The crash model may drop the file
        // entirely; what it must never show is a complete stream.
        mem.crash();
        if let Ok(bytes) = mem.read_all(path) {
            assert!(!SealScanner::scan(&bytes).complete);
        }
    }
}
