//! Checkpoint-backed [`VerifyCache`]: makes `limba advise` resumable at
//! candidate-verification granularity.
//!
//! Verification is the expensive part of an advise run — each surviving
//! candidate costs a full simulation plus an analysis pass. This
//! cache persists every completed [`Verification`] to a guard
//! [`Checkpoint`] as it lands, so an interrupted run resumes by
//! replaying the stored verifications and simulating only the
//! remainder. Verification is deterministic, so a replayed entry is
//! bit-identical to a recomputation and the resumed advice renders
//! byte-identically.
//!
//! Entries are keyed by `fnv1a(signature)` with the full signature
//! stored inside the payload; a lookup whose stored signature differs
//! from the queried one (a hash collision, or a foreign file) is
//! treated as a miss, never returned wrong.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use limba_advisor::{Verification, VerifyCache};
use limba_par::{fnv1a, CancelToken};

use crate::checkpoint::Checkpoint;
use crate::codec::{ByteReader, ByteWriter};
use crate::GuardError;

/// The checkpoint kind this cache writes. The suffix names the entry
/// layout, so a checkpoint written under an older layout is refused
/// with [`GuardError::KindMismatch`] instead of being misread.
pub const VERIFY_KIND: &str = "advise-verify/2";

/// A [`VerifyCache`] that persists verifications to a checkpoint file.
///
/// Saves happen after every `put`; save failures are swallowed (the
/// cache keeps serving from memory) and surfaced out-of-band through
/// [`take_save_error`](Self::take_save_error), matching the trait's
/// contract that a failed `put` only costs a future hit.
#[derive(Debug)]
pub struct CheckpointVerifyCache {
    path: PathBuf,
    state: Mutex<CacheState>,
    hits: AtomicUsize,
    puts: AtomicUsize,
    /// Trip `interrupt.1` once `interrupt.0` fresh puts have landed —
    /// the deterministic interruption hook the kill-resume tests use.
    interrupt: Option<(usize, CancelToken)>,
}

#[derive(Debug)]
struct CacheState {
    checkpoint: Checkpoint,
    save_error: Option<GuardError>,
}

impl CheckpointVerifyCache {
    /// Opens (resuming) or creates the cache at `path` for a run whose
    /// configuration hashes to `fingerprint`.
    ///
    /// # Errors
    ///
    /// The usual checkpoint-loading errors: [`GuardError::Io`],
    /// `Corrupted`, `ChecksumMismatch`, `KindMismatch`,
    /// `FingerprintMismatch`.
    pub fn open(path: &Path, fingerprint: u64, resume: bool) -> Result<Self, GuardError> {
        let checkpoint = if resume {
            Checkpoint::load_or_new(path, VERIFY_KIND, fingerprint)?
        } else {
            Checkpoint::new(VERIFY_KIND, fingerprint)
        };
        Ok(CheckpointVerifyCache {
            path: path.to_path_buf(),
            state: Mutex::new(CacheState {
                checkpoint,
                save_error: None,
            }),
            hits: AtomicUsize::new(0),
            puts: AtomicUsize::new(0),
            interrupt: None,
        })
    }

    /// Trips `token` once `after` fresh verifications have been stored.
    /// Used by tests to interrupt an advise run at a deterministic
    /// point; the tripped token stops the advisor's verification stage
    /// cooperatively.
    pub fn with_interrupt_after(mut self, after: usize, token: CancelToken) -> Self {
        self.interrupt = Some((after, token));
        self
    }

    /// Number of verifications replayed from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of fresh verifications stored so far.
    pub fn puts(&self) -> usize {
        self.puts.load(Ordering::Relaxed)
    }

    /// Number of verifications currently stored.
    pub fn len(&self) -> usize {
        self.lock().checkpoint.len()
    }

    /// Whether no verifications are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first checkpoint save failure, if any, clearing it.
    pub fn take_save_error(&self) -> Option<GuardError> {
        self.lock().save_error.take()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Encodes a verification with its signature for collision detection.
fn encode_entry(signature: &str, v: &Verification) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(signature);
    w.put_f64(v.event_makespan);
    w.put_f64(v.measured_gain);
    w.put_u8(u8::from(v.within_bounds));
    w.put_u8(u8::from(v.mispredicted));
    match &v.heaviest_region {
        Some(name) => {
            w.put_u8(1);
            w.put_str(name);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

/// Decodes an entry, returning the stored signature alongside the
/// verification so the caller can reject collisions.
fn decode_entry(bytes: &[u8]) -> Result<(String, Verification), GuardError> {
    let mut r = ByteReader::new(bytes);
    let signature = r.get_str("verification signature")?;
    let event_makespan = r.get_f64("event makespan")?;
    let measured_gain = r.get_f64("measured gain")?;
    let within_bounds = r.get_u8("within-bounds flag")? != 0;
    let mispredicted = r.get_u8("mispredicted flag")? != 0;
    let heaviest_region = match r.get_u8("heaviest-region tag")? {
        0 => None,
        1 => Some(r.get_str("heaviest region")?),
        tag => {
            return Err(GuardError::Corrupted {
                detail: format!("unknown heaviest-region tag {tag}"),
            })
        }
    };
    r.expect_end("verification entry")?;
    Ok((
        signature,
        Verification {
            event_makespan,
            measured_gain,
            within_bounds,
            mispredicted,
            heaviest_region,
        },
    ))
}

impl VerifyCache for CheckpointVerifyCache {
    fn get(&self, signature: &str) -> Option<Verification> {
        let key = fnv1a(signature.as_bytes());
        let state = self.lock();
        let bytes = state.checkpoint.get(key)?;
        let (stored_signature, verification) = decode_entry(bytes).ok()?;
        if stored_signature != signature {
            // FNV collision: the stored entry belongs to a different
            // candidate. Treat as a miss rather than answer wrongly.
            return None;
        }
        drop(state);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(verification)
    }

    fn put(&self, signature: &str, verification: &Verification) {
        let key = fnv1a(signature.as_bytes());
        let bytes = encode_entry(signature, verification);
        let mut state = self.lock();
        state.checkpoint.insert(key, bytes);
        if let Err(e) = state.checkpoint.save_atomic(&self.path) {
            if state.save_error.is_none() {
                state.save_error = Some(e);
            }
        }
        drop(state);
        let stored = self.puts.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((after, token)) = &self.interrupt {
            if stored >= *after {
                token.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample(gain: f64) -> Verification {
        Verification {
            event_makespan: 1.25,
            measured_gain: gain,
            within_bounds: true,
            mispredicted: false,
            heaviest_region: Some("loop 1".into()),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("limba-guard-vc-{name}.ckpt"))
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let cache = CheckpointVerifyCache::open(&path, 7, false).unwrap();
        assert!(cache.get("combo-a").is_none());
        cache.put("combo-a", &sample(0.5));
        cache.put("combo-b", &sample(-0.0)); // negative zero must survive
        assert_eq!(cache.puts(), 2);

        let reopened = CheckpointVerifyCache::open(&path, 7, true).unwrap();
        assert_eq!(reopened.len(), 2);
        let a = reopened.get("combo-a").unwrap();
        assert_eq!(a, sample(0.5));
        let b = reopened.get("combo-b").unwrap();
        assert_eq!(b.measured_gain.to_bits(), (-0.0f64).to_bits());
        assert_eq!(reopened.hits(), 2);
        assert!(reopened.get("combo-c").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_open_ignores_existing_file() {
        let path = temp_path("fresh");
        std::fs::remove_file(&path).ok();
        let cache = CheckpointVerifyCache::open(&path, 7, false).unwrap();
        cache.put("combo-a", &sample(0.5));
        let fresh = CheckpointVerifyCache::open(&path, 7, false).unwrap();
        assert!(fresh.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_different_fingerprint() {
        let path = temp_path("fingerprint");
        std::fs::remove_file(&path).ok();
        let cache = CheckpointVerifyCache::open(&path, 7, false).unwrap();
        cache.put("combo-a", &sample(0.5));
        let err = CheckpointVerifyCache::open(&path, 8, true).unwrap_err();
        assert!(
            matches!(err, GuardError::FingerprintMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_the_previous_entry_layout() {
        // The first layout stored a second makespan after the first;
        // its checkpoints carry the unversioned kind.
        let path = temp_path("old-layout");
        std::fs::remove_file(&path).ok();
        let mut old = Checkpoint::new("advise-verify", 7);
        let mut w = ByteWriter::new();
        w.put_str("combo-a");
        for x in [1.25, 1.25, 0.5] {
            w.put_f64(x);
        }
        w.put_u8(1);
        w.put_u8(0);
        w.put_u8(0);
        old.insert(fnv1a(b"combo-a"), w.into_bytes());
        old.save_atomic(&path).unwrap();
        let err = CheckpointVerifyCache::open(&path, 7, true).unwrap_err();
        assert!(
            matches!(&err, GuardError::KindMismatch { expected, found }
                if expected == VERIFY_KIND && found == "advise-verify"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn none_heaviest_region_round_trips() {
        let path = temp_path("none-region");
        std::fs::remove_file(&path).ok();
        let cache = CheckpointVerifyCache::open(&path, 1, false).unwrap();
        let mut v = sample(0.0);
        v.heaviest_region = None;
        cache.put("combo", &v);
        let reopened = CheckpointVerifyCache::open(&path, 1, true).unwrap();
        assert_eq!(reopened.get("combo").unwrap().heaviest_region, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupt_hook_trips_after_n_puts() {
        let path = temp_path("interrupt");
        std::fs::remove_file(&path).ok();
        let token = CancelToken::new();
        let cache = CheckpointVerifyCache::open(&path, 1, false)
            .unwrap()
            .with_interrupt_after(2, token.clone());
        cache.put("a", &sample(0.1));
        assert!(!token.is_cancelled());
        cache.put("b", &sample(0.2));
        assert!(token.is_cancelled());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_errors_are_swallowed_and_reported_out_of_band() {
        // A path whose parent directory does not exist: every save fails.
        let path = std::env::temp_dir()
            .join("limba-guard-no-such-dir")
            .join("cache.ckpt");
        let cache = CheckpointVerifyCache::open(&path, 1, false).unwrap();
        cache.put("a", &sample(0.1));
        // The in-memory cache still serves the entry.
        assert!(cache.get("a").is_some());
        let err = cache.take_save_error().unwrap();
        assert!(matches!(err, GuardError::Io { .. }), "{err}");
        assert!(cache.take_save_error().is_none());
    }
}
