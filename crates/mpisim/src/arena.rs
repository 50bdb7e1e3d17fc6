//! Flat arena structures backing the simulator's hot state.
//!
//! Everything here exists to make engine memory scale
//! O(ranks + live channels + outstanding ops) instead of O(ranks²):
//!
//! * [`SparseMap`] — an open-addressed hash table from `u64` keys to
//!   small `Copy` values, probed with a SplitMix64-mixed key. It
//!   replaces the dense `src * n + dst` channel index (4·n² bytes
//!   before the first op executed) and the dense per-channel fault
//!   sequence table (8·n² bytes). Only channels that actually carry a
//!   message ever occupy a slot, so a 64k-rank nearest-neighbour
//!   program allocates a few hundred kilobytes where the dense tables
//!   needed tens of gigabytes.
//! * [`HandleArena`] — outstanding nonblocking requests of all ranks
//!   pooled in one free-listed entry arena threaded by per-rank
//!   intrusive lists, so per-rank `Vec`s (one allocation per rank that
//!   ever posts a request) collapse into a single growable block.
//!
//! Both structures are deterministic: lookups are pure functions of the
//! keys, nothing ever iterates a table in probe order, and the values
//! stored are bit-identical to what the dense structures held — which
//! is what keeps the event engine's output byte-equal to the polling
//! reference after the swap.

/// Sentinel for an unoccupied [`SparseMap`] slot. Keys are channel
/// indices or similar small products, so `u64::MAX` can never collide
/// with a real key (debug-asserted on insert).
const EMPTY_KEY: u64 = u64::MAX;

/// Sentinel link terminating a [`HandleArena`] list.
const NIL: u32 = u32::MAX;

/// The SplitMix64 finalizer: the same mixing function the fault layer
/// uses for loss decisions, reused here to spread structured keys
/// (`src * n + dst` products) uniformly over the table.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An open-addressed hash map from `u64` keys to `Copy` values with
/// linear probing, power-of-two capacity, and no deletion (the engine
/// never retires a live channel mid-run; the whole table drops with the
/// run). Starts empty — a run that never communicates allocates
/// nothing.
#[derive(Debug, Clone)]
pub(crate) struct SparseMap<V> {
    /// Slot keys; `EMPTY_KEY` marks a free slot. Length is always a
    /// power of two (or zero before first insert).
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

impl<V: Copy + Default> SparseMap<V> {
    pub(crate) fn new() -> Self {
        SparseMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }

    /// Number of occupied slots (distinct keys ever inserted).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index of `key`'s slot, or of the empty slot where it would go.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        debug_assert!(!self.keys.is_empty());
        let mask = self.keys.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY_KEY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.slot_of(key);
        if self.keys[i] == key {
            Some(self.vals[i])
        } else {
            None
        }
    }

    /// Empties the map while keeping its table for reuse: all slots
    /// return to `EMPTY_KEY`, so lookups and inserts behave exactly as
    /// on a fresh map (stale values are unreachable once their keys
    /// are gone, and nothing ever iterates slots in probe order).
    pub(crate) fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }

    /// Inserts or overwrites `key`.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key");
        self.grow_if_needed();
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY_KEY {
            self.keys[i] = key;
            self.len += 1;
        }
        self.vals[i] = value;
    }

    /// Mutable reference to `key`'s value, inserting the default first
    /// when the key is new.
    pub(crate) fn get_or_default(&mut self, key: u64) -> &mut V {
        debug_assert_ne!(key, EMPTY_KEY, "sentinel key");
        self.grow_if_needed();
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY_KEY {
            self.keys[i] = key;
            self.vals[i] = V::default();
            self.len += 1;
        }
        &mut self.vals[i]
    }

    /// Keeps the load factor at or below 3/4, rehashing into a doubled
    /// table when an insert would cross it.
    fn grow_if_needed(&mut self) {
        if self.keys.is_empty() {
            self.keys = vec![EMPTY_KEY; 16];
            self.vals = vec![V::default(); 16];
            return;
        }
        if (self.len + 1) * 4 <= self.keys.len() * 3 {
            return;
        }
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        let cap = old_keys.len() * 2;
        self.keys = vec![EMPTY_KEY; cap];
        self.vals = vec![V::default(); cap];
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                let i = self.slot_of(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// Rank count at or below which [`ChannelIndex`] routes through a
/// direct-indexed dense table instead of a [`SparseMap`]. The dense
/// table is `4·n²` bytes — at this bound, 256 KiB, a cache-resident
/// constant — and turns the per-message lookup into a single indexed
/// load, which is what the throughput benchmarks at 16–256 ranks are
/// paced by. Above the bound the table would grow quadratically, so
/// routing switches to the sparse map and memory stays
/// O(live channels).
const DENSE_ROUTING_MAX_RANKS: usize = 256;

/// Routing table from dense channel key `src * n + dst` to a slot in
/// the engine's channel pool. Adaptive representation: machines up to
/// [`DENSE_ROUTING_MAX_RANKS`] ranks use a direct table (bounded at
/// 256 KiB, single-load lookups; stored as `slot + 1` with 0 = never
/// used, so the table is a calloc'd zero-fill whose pages are never
/// touched for channels the communication pattern skips), larger
/// machines an open-addressed [`SparseMap`] (O(live channels)
/// memory). The dense table is itself allocated only at the first
/// insert — a program that never sends a message pays nothing, and
/// `get` on the empty table falls out of the bounds check. Both
/// representations are pure functions of the key, so routing cannot
/// diverge between engines — or between rank counts straddling the
/// threshold.
#[derive(Debug)]
pub(crate) enum ChannelIndex {
    /// `slots[ch]` is the pool slot plus one; 0 marks a channel that
    /// has never carried a message. Empty until the first insert;
    /// `ranks` remembers the table side length for that allocation.
    Dense {
        slots: Vec<u32>,
        ranks: usize,
    },
    Sparse(SparseMap<u32>),
}

impl ChannelIndex {
    pub(crate) fn new(ranks: usize) -> Self {
        if ranks <= DENSE_ROUTING_MAX_RANKS {
            ChannelIndex::Dense {
                slots: Vec::new(),
                ranks,
            }
        } else {
            ChannelIndex::Sparse(SparseMap::new())
        }
    }

    /// Restores the freshly-constructed state for a machine of `ranks`
    /// ranks, keeping whatever backing table the previous run grew when
    /// the representation tier matches (the dense table refills lazily
    /// from its cleared, capacity-retaining vector; the sparse map
    /// clears in place).
    pub(crate) fn reset(&mut self, ranks: usize) {
        match self {
            ChannelIndex::Dense { slots, ranks: r } if ranks <= DENSE_ROUTING_MAX_RANKS => {
                slots.clear();
                *r = ranks;
            }
            ChannelIndex::Sparse(map) if ranks > DENSE_ROUTING_MAX_RANKS => map.clear(),
            other => *other = ChannelIndex::new(ranks),
        }
    }

    /// The pool slot of channel `ch`, if one was ever assigned.
    #[inline]
    pub(crate) fn get(&self, ch: usize) -> Option<u32> {
        match self {
            ChannelIndex::Dense { slots, .. } => slots.get(ch)?.checked_sub(1),
            ChannelIndex::Sparse(map) => map.get(ch as u64),
        }
    }

    /// Assigns pool slot `slot` to channel `ch`.
    pub(crate) fn insert(&mut self, ch: usize, slot: u32) {
        debug_assert_ne!(slot, u32::MAX, "sentinel slot");
        match self {
            ChannelIndex::Dense { slots, ranks } => {
                if slots.is_empty() {
                    slots.resize(*ranks * *ranks, 0);
                }
                slots[ch] = slot + 1;
            }
            ChannelIndex::Sparse(map) => map.insert(ch as u64, slot),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HandleEntry<V> {
    handle: u32,
    value: V,
    /// Next entry of the same rank, or [`NIL`].
    next: u32,
}

/// All ranks' outstanding nonblocking requests in one free-listed
/// arena. Each rank owns an intrusive singly-linked list threaded
/// through [`HandleEntry::next`]; removed entries return to a free list
/// for reuse, so the arena's high-water mark is the peak number of
/// simultaneously outstanding requests across the whole run — not the
/// rank count, and not the total request count.
#[derive(Debug)]
pub(crate) struct HandleArena<V> {
    entries: Vec<HandleEntry<V>>,
    /// Head of each rank's list ([`NIL`] = none outstanding). Grown
    /// lazily to the highest rank that ever registers a request, so
    /// programs without nonblocking ops allocate nothing here.
    heads: Vec<u32>,
    /// Head of the free list ([`NIL`] = arena full).
    free: u32,
}

impl<V: Copy> HandleArena<V> {
    pub(crate) fn new() -> Self {
        HandleArena {
            entries: Vec::new(),
            heads: Vec::new(),
            free: NIL,
        }
    }

    /// Empties the arena while keeping both backing vectors for reuse
    /// — the freshly-constructed state with capacity retained.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.heads.clear();
        self.free = NIL;
    }

    /// Head of `rank`'s list; ranks beyond the lazily grown table have
    /// no outstanding requests by construction.
    fn head(&self, rank: usize) -> u32 {
        self.heads.get(rank).copied().unwrap_or(NIL)
    }

    /// Registers `handle` for `rank`. Handle uniqueness per rank is the
    /// program builder's invariant ([`crate::SimError::BadHandle`]), so
    /// no duplicate check is repeated here.
    pub(crate) fn insert(&mut self, rank: usize, handle: u32, value: V) {
        if self.heads.len() <= rank {
            self.heads.resize(rank + 1, NIL);
        }
        let entry = HandleEntry {
            handle,
            value,
            next: self.heads[rank],
        };
        let index = if self.free != NIL {
            let i = self.free as usize;
            self.free = self.entries[i].next;
            self.entries[i] = entry;
            i
        } else {
            self.entries.push(entry);
            self.entries.len() - 1
        };
        self.heads[rank] = index as u32;
    }

    /// The outstanding request `handle` of `rank`, if registered.
    pub(crate) fn get(&self, rank: usize, handle: u32) -> Option<V> {
        let mut i = self.head(rank);
        while i != NIL {
            let e = &self.entries[i as usize];
            if e.handle == handle {
                return Some(e.value);
            }
            i = e.next;
        }
        None
    }

    /// Unregisters `handle` of `rank`, returning its entry to the free
    /// list. Returns whether the handle was present.
    pub(crate) fn remove(&mut self, rank: usize, handle: u32) -> bool {
        let mut prev = NIL;
        let mut i = self.head(rank);
        while i != NIL {
            let e = self.entries[i as usize];
            if e.handle == handle {
                if prev == NIL {
                    self.heads[rank] = e.next;
                } else {
                    self.entries[prev as usize].next = e.next;
                }
                self.entries[i as usize].next = self.free;
                self.free = i;
                return true;
            }
            prev = i;
            i = e.next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn sparse_map_round_trips_values() {
        let mut m: SparseMap<u32> = SparseMap::new();
        assert_eq!(m.get(7), None);
        assert_eq!(m.len(), 0);
        for i in 0..1000u64 {
            m.insert(i * 65_537, i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 65_537), Some(i as u32), "key {i}");
        }
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn sparse_map_overwrites_and_defaults() {
        let mut m: SparseMap<u64> = SparseMap::new();
        m.insert(42, 1);
        m.insert(42, 2);
        assert_eq!(m.get(42), Some(2));
        assert_eq!(m.len(), 1);
        *m.get_or_default(99) += 5;
        *m.get_or_default(99) += 5;
        assert_eq!(m.get(99), Some(10));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn sparse_map_survives_growth_with_clustered_keys() {
        // Sequential keys (worst case for a weak hash) across several
        // rehashes.
        let mut m: SparseMap<u64> = SparseMap::new();
        for k in 0..10_000u64 {
            m.insert(k, k * 3);
        }
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some(k * 3));
        }
    }

    #[test]
    fn channel_index_agrees_across_representations() {
        // The same insert/get sequence through both representations —
        // the threshold must never change what a lookup returns.
        let n = 16usize;
        let mut dense = ChannelIndex::new(n);
        let mut sparse = ChannelIndex::Sparse(SparseMap::new());
        assert!(matches!(dense, ChannelIndex::Dense { .. }));
        assert!(matches!(
            ChannelIndex::new(DENSE_ROUTING_MAX_RANKS + 1),
            ChannelIndex::Sparse(_)
        ));
        let channels = [0usize, 5, 17, n * n - 1, 42];
        for (slot, &ch) in channels.iter().enumerate() {
            assert_eq!(dense.get(ch), None);
            assert_eq!(sparse.get(ch), None);
            dense.insert(ch, slot as u32);
            sparse.insert(ch, slot as u32);
        }
        for (slot, &ch) in channels.iter().enumerate() {
            assert_eq!(dense.get(ch), Some(slot as u32));
            assert_eq!(sparse.get(ch), Some(slot as u32));
        }
        assert_eq!(dense.get(1), None);
        assert_eq!(sparse.get(1), None);
    }

    #[test]
    fn handle_arena_reuses_freed_entries() {
        let mut a: HandleArena<u64> = HandleArena::new();
        a.insert(0, 1, 10);
        a.insert(0, 2, 20);
        a.insert(3, 1, 30);
        assert_eq!(a.get(0, 1), Some(10));
        assert_eq!(a.get(0, 2), Some(20));
        assert_eq!(a.get(3, 1), Some(30));
        assert_eq!(a.get(1, 1), None);
        assert!(a.remove(0, 1));
        assert!(!a.remove(0, 1));
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.get(0, 2), Some(20));
        let before = a.entries.len();
        a.insert(2, 9, 90); // takes the freed slot
        assert_eq!(a.entries.len(), before);
        assert_eq!(a.get(2, 9), Some(90));
    }

    #[test]
    fn handle_arena_peak_is_outstanding_not_total() {
        let mut a: HandleArena<u8> = HandleArena::new();
        for round in 0..100u32 {
            a.insert(0, round, 0);
            assert!(a.remove(0, round));
        }
        assert_eq!(a.entries.len(), 1, "one slot recycled 100 times");
    }
}
