//! Versioned, checksummed, atomically-written checkpoint files.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic        8 bytes  "LIMBACKP"
//! version      u16      1
//! kind         u64 length + utf-8   which command wrote this file
//! fingerprint  u64      hash of the run configuration
//! nentries     u64
//! entries      nentries × (u64 unit id, u64 length + payload bytes,
//!                          u64 payload FNV-1a)
//! checksum     u64      FNV-1a of every preceding byte
//! ```
//!
//! Three independent integrity layers, each with its own named error:
//! the whole-file checksum catches torn writes and bit rot
//! ([`GuardError::ChecksumMismatch`]); per-entry checksums localize
//! damage when only part of a file survives; and the kind +
//! fingerprint pair refuses payloads that belong to a different run
//! ([`GuardError::KindMismatch`], [`GuardError::FingerprintMismatch`]).
//!
//! Writes are atomic *and durable*: the file is assembled in
//! `<path>.tmp`, fsynced, renamed over the destination, and the parent
//! directory is fsynced — so a kill or power cut mid-save leaves
//! either the previous valid checkpoint or the new one, never a
//! half-written, zero-length, or vanished file. The supervisor saves
//! after *every* completed unit.
//!
//! Every disk touch goes through a [`Vfs`], so the same code runs
//! against the real filesystem ([`save_atomic`](Checkpoint::save_atomic)
//! uses [`StdVfs`]) and against the in-memory crash model +
//! fault injector the crash-consistency harness drives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use limba_par::fnv1a;
use limba_vfs::{StdVfs, Vfs};

use crate::codec::{ByteReader, ByteWriter};
use crate::GuardError;

const MAGIC: &[u8; 8] = b"LIMBACKP";
const VERSION: u16 = 1;
/// Smallest possible encoding of one entry (empty payload).
const MIN_ENTRY_BYTES: usize = 8 + 8 + 8;

fn io_error(path: &Path, source: std::io::Error) -> GuardError {
    GuardError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// An in-memory checkpoint: completed unit payloads keyed by unit id,
/// tagged with the run kind and configuration fingerprint they belong
/// to. Entries iterate in unit-id order, so serialization is
/// deterministic.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    kind: String,
    fingerprint: u64,
    entries: BTreeMap<u64, Vec<u8>>,
}

impl Checkpoint {
    /// An empty checkpoint for a run of `kind` under `fingerprint`.
    pub fn new(kind: &str, fingerprint: u64) -> Self {
        Checkpoint {
            kind: kind.to_string(),
            fingerprint,
            entries: BTreeMap::new(),
        }
    }

    /// Number of completed units stored.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Stores (or replaces) the payload of unit `id`.
    pub fn insert(&mut self, id: u64, payload: Vec<u8>) {
        self.entries.insert(id, payload);
    }

    /// The stored payload of unit `id`, if any.
    pub fn get(&self, id: u64) -> Option<&[u8]> {
        self.entries.get(&id).map(Vec::as_slice)
    }

    /// Iterates stored `(unit id, payload)` pairs in unit-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.entries.iter().map(|(&id, p)| (id, p.as_slice()))
    }

    /// Serializes the checkpoint to its on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_raw(&VERSION.to_le_bytes());
        w.put_str(&self.kind);
        w.put_u64(self.fingerprint);
        w.put_u64(self.entries.len() as u64);
        for (&id, payload) in &self.entries {
            w.put_u64(id);
            w.put_bytes(payload);
            w.put_u64(fnv1a(payload));
        }
        let checksum = fnv1a(w.as_slice());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Decodes a checkpoint from its on-disk byte format.
    ///
    /// # Errors
    ///
    /// [`GuardError::Corrupted`] for structural damage (bad magic,
    /// version, truncation, oversized count or length fields) and
    /// [`GuardError::ChecksumMismatch`] when the whole-file or a
    /// per-entry checksum disagrees with the bytes.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, GuardError> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(GuardError::Corrupted {
                detail: "file too short to be a checkpoint".into(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(GuardError::Corrupted {
                detail: "bad magic (not a limba checkpoint file)".into(),
            });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(GuardError::Corrupted {
                detail: format!("unsupported checkpoint version {version}"),
            });
        }
        // Verify the whole file before trusting any of its structure.
        let body_len = bytes.len() - 8;
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&bytes[body_len..]);
        let expected = u64::from_le_bytes(tail);
        let actual = fnv1a(&bytes[..body_len]);
        if expected != actual {
            return Err(GuardError::ChecksumMismatch { expected, actual });
        }

        let mut r = ByteReader::new(&bytes[10..body_len]);
        let kind = r.get_str("checkpoint kind")?;
        let fingerprint = r.get_u64("fingerprint")?;
        let nentries = r.get_u64("entry count")?;
        if nentries.saturating_mul(MIN_ENTRY_BYTES as u64) > r.remaining() as u64 {
            return Err(GuardError::Corrupted {
                detail: format!(
                    "entry count {nentries} exceeds what {} remaining bytes can hold",
                    r.remaining()
                ),
            });
        }
        let mut entries = BTreeMap::new();
        for _ in 0..nentries {
            let id = r.get_u64("entry id")?;
            let payload = r.get_bytes("entry payload")?;
            let recorded = r.get_u64("entry checksum")?;
            let computed = fnv1a(payload);
            if recorded != computed {
                return Err(GuardError::ChecksumMismatch {
                    expected: recorded,
                    actual: computed,
                });
            }
            entries.insert(id, payload.to_vec());
        }
        r.expect_end("checkpoint entries")?;
        Ok(Checkpoint {
            kind,
            fingerprint,
            entries,
        })
    }

    /// Reads and decodes the checkpoint at `path` through `vfs`,
    /// verifying it belongs to a run of `kind` under `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`GuardError::Corrupted`] for structural damage,
    /// [`GuardError::ChecksumMismatch`] when a checksum disagrees with
    /// the bytes, [`GuardError::Io`] for read failures, [`GuardError::KindMismatch`]
    /// and [`GuardError::FingerprintMismatch`] for files written by a
    /// different command or configuration.
    pub fn load_vfs(
        vfs: &dyn Vfs,
        path: &Path,
        kind: &str,
        fingerprint: u64,
    ) -> Result<Checkpoint, GuardError> {
        let bytes = vfs.read_all(path).map_err(|e| io_error(path, e))?;
        let checkpoint = Checkpoint::from_bytes(&bytes)?;
        if checkpoint.kind != kind {
            return Err(GuardError::KindMismatch {
                expected: kind.to_string(),
                found: checkpoint.kind,
            });
        }
        if checkpoint.fingerprint != fingerprint {
            return Err(GuardError::FingerprintMismatch {
                expected: fingerprint,
                found: checkpoint.fingerprint,
            });
        }
        Ok(checkpoint)
    }

    /// [`load_or_new_vfs`](Self::load_or_new_vfs) on the real
    /// filesystem.
    pub(crate) fn load_or_new(
        path: &Path,
        kind: &str,
        fingerprint: u64,
    ) -> Result<Checkpoint, GuardError> {
        Checkpoint::load_or_new_vfs(&StdVfs, path, kind, fingerprint)
    }

    /// Like [`load_vfs`](Self::load_vfs), but a missing file is a fresh
    /// start: returns an empty checkpoint instead of an error.
    ///
    /// # Errors
    ///
    /// Same as [`load_vfs`](Self::load_vfs).
    pub fn load_or_new_vfs(
        vfs: &dyn Vfs,
        path: &Path,
        kind: &str,
        fingerprint: u64,
    ) -> Result<Checkpoint, GuardError> {
        if vfs.exists(path) {
            Checkpoint::load_vfs(vfs, path, kind, fingerprint)
        } else {
            Ok(Checkpoint::new(kind, fingerprint))
        }
    }

    /// [`save_atomic_vfs`](Self::save_atomic_vfs) on the real
    /// filesystem.
    pub(crate) fn save_atomic(&self, path: &Path) -> Result<(), GuardError> {
        self.save_atomic_vfs(&StdVfs, path)
    }

    /// Writes the checkpoint through `vfs` atomically and durably: the
    /// bytes are assembled in a sibling `<path>.tmp` file, **fsynced**,
    /// renamed over `path`, and the parent directory is fsynced. An
    /// interrupted save — even a power cut — leaves either the
    /// previous checkpoint or the new one, never a torn or
    /// zero-length file (a rename is only guaranteed durable once the
    /// tmp content and the directory entry both reached disk).
    ///
    /// # Errors
    ///
    /// [`GuardError::Io`] for write, sync, or rename failures.
    pub fn save_atomic_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), GuardError> {
        let tmp: PathBuf = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".tmp");
            os.into()
        };
        {
            let mut file = vfs.create(&tmp).map_err(|e| io_error(&tmp, e))?;
            file.append(&self.to_bytes())
                .map_err(|e| io_error(&tmp, e))?;
            // Sync the tmp file *before* the rename: a rename can
            // reach disk ahead of the data it points at, leaving a
            // zero-length or torn checkpoint after power loss.
            file.sync().map_err(|e| io_error(&tmp, e))?;
        }
        vfs.rename(&tmp, path).map_err(|e| io_error(path, e))?;
        // And sync the directory so the rename itself is durable.
        vfs.sync_dir(parent_dir(path))
            .map_err(|e| io_error(path, e))
    }
}

/// The directory whose entry must be synced for `path` to be durable
/// (`.` for bare relative filenames).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new("sweep", 0xABCD);
        c.insert(0, b"alpha".to_vec());
        c.insert(3, b"".to_vec());
        c.insert(7, vec![0xFF; 100]);
        c
    }

    #[test]
    fn round_trips_through_bytes() {
        let c = sample();
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.kind, "sweep");
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(0), Some(&b"alpha"[..]));
        assert_eq!(back.get(3), Some(&b""[..]));
        assert_eq!(back.get(7), Some(&[0xFF; 100][..]));
        assert_eq!(back.get(1), None);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_with_a_named_error() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            match Checkpoint::from_bytes(&corrupt) {
                Err(GuardError::Corrupted { .. } | GuardError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_entry_count_is_rejected_quickly() {
        // Patch the entry count to u64::MAX and recompute the file
        // checksum so only the count bound can reject it.
        let c = Checkpoint::new("sweep", 1);
        let mut bytes = c.to_bytes();
        let body_len = bytes.len() - 8;
        // Layout: magic(8) version(2) kind len(8)+5 fingerprint(8) count(8).
        let count_at = 8 + 2 + 8 + 5 + 8;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        match Checkpoint::from_bytes(&bytes) {
            Err(GuardError::Corrupted { detail }) => {
                assert!(detail.contains("entry count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_enforces_kind_and_fingerprint() {
        let dir = std::env::temp_dir();
        let path = dir.join("limba-guard-ckpt-test.ckpt");
        sample().save_atomic(&path).unwrap();
        assert!(Checkpoint::load_vfs(&StdVfs, &path, "sweep", 0xABCD).is_ok());
        assert!(matches!(
            Checkpoint::load_vfs(&StdVfs, &path, "suite", 0xABCD),
            Err(GuardError::KindMismatch { .. })
        ));
        assert!(matches!(
            Checkpoint::load_vfs(&StdVfs, &path, "sweep", 0x1234),
            Err(GuardError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A power cut at *every* operation of the save sequence leaves
    /// the previous checkpoint loadable with its old content — the
    /// atomic-replace discipline (sync tmp, rename, sync dir) has no
    /// window where the old file is gone and the new one not durable.
    #[test]
    fn power_cut_at_every_save_operation_preserves_the_old_checkpoint() {
        use limba_vfs::{FaultKind, FaultPlan, FaultVfs, MemVfs};
        use std::sync::Arc;

        let path = Path::new("/ckpt/state.ckpt");
        // Count the operations one full save performs.
        let probe = FaultVfs::new(
            Arc::new(MemVfs::new()),
            FaultPlan::new(FaultKind::Eio).at_op(u64::MAX),
        );
        sample().save_atomic_vfs(&probe, path).unwrap();
        let ops = probe.ops();
        assert!(ops >= 5, "save should create+append+sync+rename+syncdir");

        for cut in 0..ops {
            let mem = MemVfs::new();
            // A durable first checkpoint.
            let old = sample();
            old.save_atomic_vfs(&mem, path).unwrap();
            // Power cut at operation `cut` of the second save.
            let faulty = FaultVfs::new(
                Arc::new(mem.clone()),
                FaultPlan::new(FaultKind::PowerCut).at_op(cut),
            );
            let mut newer = sample();
            newer.insert(99, b"late".to_vec());
            assert!(newer.save_atomic_vfs(&faulty, path).is_err());
            mem.crash();
            let back = Checkpoint::load_vfs(&mem, path, "sweep", 0xABCD)
                .unwrap_or_else(|e| panic!("cut at op {cut}: {e}"));
            // Either the old or the new checkpoint — never torn.
            assert!(
                back.to_bytes() == old.to_bytes() || back.to_bytes() == newer.to_bytes(),
                "cut at op {cut} left a third state"
            );
        }
    }

    #[test]
    fn load_or_new_treats_missing_file_as_fresh() {
        let path = std::env::temp_dir().join("limba-guard-ckpt-missing.ckpt");
        std::fs::remove_file(&path).ok();
        let c = Checkpoint::load_or_new(&path, "sweep", 9).unwrap();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn atomic_save_replaces_previous_content() {
        let path = std::env::temp_dir().join("limba-guard-ckpt-atomic.ckpt");
        let mut c = Checkpoint::new("sweep", 5);
        c.insert(1, b"one".to_vec());
        c.save_atomic(&path).unwrap();
        c.insert(2, b"two".to_vec());
        c.save_atomic(&path).unwrap();
        let back = Checkpoint::load_vfs(&StdVfs, &path, "sweep", 5).unwrap();
        assert_eq!(back.len(), 2);
        // No stray temp file left behind.
        let tmp = path.with_extension("ckpt.tmp");
        assert!(!tmp.exists());
        std::fs::remove_file(&path).ok();
    }
}
