//! Deterministic parallel execution primitives.
//!
//! Everything in the limba suite that fans work across threads goes
//! through this crate, and everything here shares one design rule:
//! **results are a pure function of the inputs, never of the thread
//! count or the scheduling order.** That is what lets the test suite
//! prove that `--jobs 1`, `--jobs 4`, and `--jobs N` produce
//! byte-identical reports.
//!
//! The rule is enforced structurally:
//!
//! * [`par_map`] assigns every item an output *slot* by input index.
//!   Threads race only over *which* item they grab next (an atomic
//!   counter, i.e. bounded work-stealing over a shared queue); the
//!   result always lands in its own slot, so the returned `Vec` is in
//!   input order no matter how the work interleaved.
//! * There are no parallel reductions. Anything order-sensitive (float
//!   accumulation, error selection) happens sequentially over the
//!   slotted results.
//! * Random streams are never shared. [`derive_seed`] gives replication
//!   `i` its own statistically independent SplitMix64-derived seed from
//!   a root seed, so a seed-sweep is the same set of runs whether it
//!   executes on one thread or sixteen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub(crate) mod cancel;

pub use cancel::CancelToken;

/// Resolves a requested job count: `0` means "one job per available CPU",
/// anything else is taken literally.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `0..len` into at most `shards` contiguous, near-equal ranges
/// (sizes differ by at most one, larger shards first). The partition is
/// a pure function of `(len, shards)` — independent of thread count and
/// call order — so deterministic engines can fan sharded work out and
/// merge it back in a fixed order.
///
/// `shards == 0` is treated as 1; `len == 0` yields no ranges.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// One step of the SplitMix64 generator (Steele, Lea, Flood 2014).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of replication `index` under `root`: the `index`-th jump of
/// a SplitMix64 stream started at `root`, mixed once more so adjacent
/// indices share no low-bit structure.
///
/// The mapping is pure — independent of thread count, call order, and
/// platform — which makes seed-sweeps reproducible by construction.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut state = root ^ 0x6A09_E667_F3BC_C909; // √2 offset: keep root 0 non-degenerate
    state = state.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// Incremental FNV-1a (64-bit) state: feed bytes in any chunking, the
/// digest is a pure function of the concatenated stream. The one
/// FNV-1a in the suite — trace checksums, checkpoint checksums,
/// configuration fingerprints, and report digests all fold through it,
/// so a checksum computed over a materialized buffer and one computed
/// frame by frame agree by construction. Stable across platforms; not
/// for anything adversarial.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis: the digest of no bytes.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `data` into the running digest.
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every byte fed so far.
    pub fn digest(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over one byte slice: [`Fnv`] fed once.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(data);
    fnv.digest()
}

/// Applies `f` to every item, using up to `jobs` worker threads, and
/// returns the results **in input order**.
///
/// `jobs == 0` uses one job per available CPU ([`effective_jobs`]);
/// `jobs == 1` (or a batch of one) runs inline with no threads at all,
/// so the single-threaded path is exactly the plain sequential loop.
/// Work is distributed dynamically: each worker claims the next
/// unclaimed index from an atomic counter, which balances uneven item
/// costs without affecting where results land.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let result = f(index, &items[index]);
                *slots[index].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

/// A [`par_map`] that stops claiming new items once `cancel` trips.
///
/// Items already being processed when the token trips still complete
/// and land in their slots; items never started come back as `None`.
/// The *completed* slots are exactly what [`par_map`] would have
/// produced for those indices — cancellation changes *which* items ran,
/// never *what* an item produced — so a supervisor can checkpoint the
/// `Some` slots and re-run only the `None`s later with byte-identical
/// results.
///
/// With an untripped token this is equivalent to [`par_map`] (every
/// slot is `Some`).
pub fn par_map_cancellable<T, R, F>(
    jobs: usize,
    items: &[T],
    cancel: &CancelToken,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if cancel.is_cancelled() {
                    None
                } else {
                    Some(f(i, t))
                }
            })
            .collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if cancel.is_cancelled() {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let result = f(index, &items[index]);
                *slots[index].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock"))
        .collect()
}

/// Runs two closures, concurrently when `parallel` is true, and returns
/// both results. The pairing `(a, b)` is positional, so the result is
/// identical either way.
pub(crate) fn join<A, B, FA, FB>(parallel: bool, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if !parallel {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(fb);
        let a = fa();
        let b = handle.join().expect("join closure panicked");
        (a, b)
    })
}

/// Four-way fork-join: runs the four closures concurrently when
/// `parallel` is set, sequentially otherwise, and returns their results
/// in argument order.
#[allow(clippy::type_complexity)]
pub fn join4<A, B, C, D, FA, FB, FC, FD>(
    parallel: bool,
    fa: FA,
    fb: FB,
    fc: FC,
    fd: FD,
) -> (A, B, C, D)
where
    A: Send,
    B: Send,
    C: Send,
    D: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
    FC: FnOnce() -> C + Send,
    FD: FnOnce() -> D + Send,
{
    let ((a, b), (c, d)) = join(
        parallel,
        move || join(parallel, fa, fb),
        move || join(parallel, fc, fd),
    );
    (a, b, c, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Chunking is invisible to the incremental state.
        let mut fnv = Fnv::new();
        fnv.update(b"foo");
        fnv.update(b"");
        fnv.update(b"bar");
        assert_eq!(fnv.digest(), fnv1a(b"foobar"));
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            let got = par_map(jobs, &items, |_, &x| x * 3);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_passes_matching_indices() {
        let items = vec![10u64, 20, 30, 40, 50];
        let got = par_map(3, &items, |i, &x| (i, x));
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30), (3, 40), (4, 50)]);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(4, &[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(4, &[9u8], |_, &x| x), vec![9]);
    }

    #[test]
    fn par_map_is_identical_across_thread_counts_under_skewed_load() {
        // Heavily skewed per-item cost shuffles completion order; output
        // order must not care.
        let items: Vec<u64> = (0..64).collect();
        let reference = par_map(1, &items, |_, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * x
        });
        for jobs in [2, 4, 16] {
            let got = par_map(jobs, &items, |_, &x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * x
            });
            assert_eq!(got, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn cancellable_par_map_without_cancellation_matches_par_map() {
        let items: Vec<usize> = (0..97).collect();
        let token = CancelToken::new();
        for jobs in [1, 3, 8] {
            let got = par_map_cancellable(jobs, &items, &token, |_, &x| x + 1);
            let want: Vec<Option<usize>> = items.iter().map(|&x| Some(x + 1)).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn cancelled_before_start_produces_only_none() {
        let items: Vec<usize> = (0..32).collect();
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1, 4] {
            let got = par_map_cancellable(jobs, &items, &token, |_, &x| x);
            assert!(got.iter().all(Option::is_none), "jobs={jobs}");
        }
    }

    #[test]
    fn mid_run_cancellation_keeps_completed_slots_correct() {
        let items: Vec<usize> = (0..64).collect();
        let token = CancelToken::new();
        let trip_at = 10usize;
        let got = par_map_cancellable(1, &items, &token, |i, &x| {
            if i + 1 == trip_at {
                token.cancel();
            }
            x * 2
        });
        // Sequential path: exactly the first `trip_at` items ran.
        for (i, slot) in got.iter().enumerate() {
            if i < trip_at {
                assert_eq!(*slot, Some(i * 2));
            } else {
                assert_eq!(*slot, None);
            }
        }
    }

    #[test]
    fn join_matches_sequential() {
        assert_eq!(join(false, || 1, || 2), join(true, || 1, || 2));
        assert_eq!(join4(true, || 1, || 2, || 3, || 4), (1, 2, 3, 4));
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            assert!(seen.insert(derive_seed(42, i)), "collision at {i}");
        }
        // Pure function: same inputs, same seed, forever.
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cpus() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn shard_ranges_partitions_exactly() {
        for len in [0usize, 1, 2, 7, 64, 65, 1000] {
            for shards in [0usize, 1, 2, 3, 8, 64, 2000] {
                let ranges = shard_ranges(len, shards);
                // Contiguous cover of 0..len, in order, no empty shard.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} shards={shards}");
                    assert!(r.end > r.start, "len={len} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} shards={shards}");
                if len > 0 {
                    assert_eq!(ranges.len(), shards.clamp(1, len));
                    // Near-equal: sizes differ by at most one.
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "len={len} shards={shards}");
                }
            }
        }
    }
}
