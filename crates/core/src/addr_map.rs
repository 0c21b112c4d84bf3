//! The `AddrMap`: ACR's on-chip ⟨memory address, Slice⟩ association buffer.
//!
//! Section III-A: each `ASSOC-ADDR` records a ⟨memory address, Slice
//! address⟩ pair together with the Slice's captured input operands (the
//! operand buffer is folded into the record). Associations must remain
//! valid "as long as the established checkpoint for the corresponding
//! interval remains in memory", i.e. for the two most recent checkpoints —
//! so entries are *versioned by epoch*: a lookup for checkpoint `k`
//! returns the association describing the value the address held at `k`
//! (the latest association created before `k`), and an uncovered store
//! writes a *tombstone* version that invalidates the association from that
//! point on.
//!
//! Capacity is bounded per core (Slices are confined to thread-local data,
//! so each core owns its associations); when a core's budget is exhausted,
//! new associations are dropped and the corresponding values are simply
//! checkpointed — ACR degrades gracefully to the baseline.
//!
//! # Data layout
//!
//! This sits on the per-store hot path, so the map is an open-addressed
//! FNV-1a-keyed index (linear probing, power-of-two slot count) over an
//! entry arena. Each entry inlines the common case of one or two live
//! versions and spills longer histories to a boxed side slice. A version
//! is 16 bytes and an entry 64: epoch and core are narrowed to 32 and 16
//! bits, and captured Slice inputs live out of line in a slab of live
//! captures (exact-length runs of one `u64` arena, recycled through
//! per-length free lists), so tombstones carry no input buffer and a run
//! released by prune, rollback or an in-place supersede is reused by the
//! next capture of the same length. Entries are never removed from the
//! arena: pruning an address empties its version list, which is
//! observationally identical to absence, and the entry (plus its index
//! slot) is reused if the address is touched again. See DESIGN.md §14 for
//! the invariants and why determinism is structural here rather than
//! sort-on-iterate.

use std::sync::Arc;

use acr_isa::{SliceId, MAX_SLICE_INPUTS};
use acr_mem::WordAddr;
use acr_trace::{Fnv1a, MetricsRegistry};

/// `AddrMap` sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrMapConfig {
    /// Live associations each core may hold. The paper argues a small
    /// buffer suffices because the number of unique addresses updated per
    /// interval is bounded by the checkpoint period (Section III-C).
    pub capacity_per_core: usize,
}

impl Default for AddrMapConfig {
    fn default() -> Self {
        AddrMapConfig {
            capacity_per_core: 16 * 1024,
        }
    }
}

/// What a version says about its address's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VersionKind {
    /// A live association: the value is the output of `slice` over the
    /// version's captured inputs.
    Live,
    /// Tombstone: an uncovered store genuinely killed the association.
    Dead,
    /// Tombstone forced by a capacity eviction (the association existed
    /// but had to be dropped). Drives the omission-decision ledger's
    /// `logged:addrmap-evicted` vs `logged:not-recomputable` split.
    Evicted,
}

/// One association version (16 bytes; its captured inputs live in the
/// map's [`Captures`] slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Version {
    /// Epoch in which the version was created (the association describes
    /// the address's value from then until the next version).
    epoch: u32,
    /// The associated Slice (live versions only).
    slice: SliceId,
    /// Start of the captured inputs in the capture slab (live only).
    capture: u32,
    /// Owning core.
    core: u16,
    /// Number of captured inputs (live only).
    inputs: u8,
    kind: VersionKind,
}

/// Epochs count checkpoints, so 32 bits hold any run the simulator can
/// finish; versions store them narrowed.
fn epoch32(epoch: u64) -> u32 {
    u32::try_from(epoch).expect("checkpoint epoch exceeds 32 bits")
}

/// Core indices are bounded by the 64-bit core masks; versions store them
/// in 16 bits.
fn core16(core: u32) -> u16 {
    u16::try_from(core).expect("core index exceeds 16 bits")
}

impl Version {
    fn tombstone(epoch: u32, core: u16, evicted: bool) -> Self {
        Version {
            epoch,
            core,
            slice: SliceId(0),
            capture: 0,
            inputs: 0,
            kind: if evicted {
                VersionKind::Evicted
            } else {
                VersionKind::Dead
            },
        }
    }

    #[inline]
    fn is_live(&self) -> bool {
        self.kind == VersionKind::Live
    }
}

/// The slab of live captured inputs: one `u64` arena carved into runs of
/// exactly each capture's length. A released run goes on its length's
/// free list and is reused by the next capture of that length, so the
/// arena stays bounded by the peak live input volume. Offsets are never
/// observable (readers resolve them through their version), so reuse
/// order cannot perturb results.
#[derive(Debug, Clone, Default)]
struct Captures {
    words: Vec<u64>,
    free: [Vec<u32>; MAX_SLICE_INPUTS + 1],
}

impl Captures {
    /// Stores `inputs`, returning its offset.
    fn alloc(&mut self, inputs: &[u64]) -> u32 {
        let n = inputs.len();
        if n == 0 {
            return 0;
        }
        if let Some(at) = self.free[n].pop() {
            self.words[at as usize..at as usize + n].copy_from_slice(inputs);
            at
        } else {
            let at = self.words.len();
            self.words.extend_from_slice(inputs);
            at as u32
        }
    }

    /// Returns the capture of live version `v` to its free list.
    fn release(&mut self, v: &Version) {
        if v.is_live() && v.inputs > 0 {
            self.free[usize::from(v.inputs)].push(v.capture);
        }
    }

    /// The captured inputs of live version `v`.
    #[inline]
    fn get(&self, v: &Version) -> &[u64] {
        let at = v.capture as usize;
        &self.words[at..at + usize::from(v.inputs)]
    }

    /// Overwrites this slab with a frozen one, reusing its storage.
    fn thaw(&mut self, frozen: &FrozenArena) {
        self.words.clear();
        for chunk in &frozen.words {
            self.words.extend_from_slice(chunk);
        }
        for (mine, theirs) in self.free.iter_mut().zip(&frozen.free) {
            mine.clear();
            mine.extend_from_slice(theirs);
        }
    }
}

/// Entries per shared block of a snapshot's arena.
const FROZEN_ENTRIES: usize = 16;

/// Words per shared chunk of a snapshot's capture slab (512 B).
const FROZEN_WORDS: usize = 64;

/// The entry arena and capture slab of an [`AddrMap::snapshot`], frozen
/// in fixed-size shared pieces. A piece equal to the same piece of an
/// earlier snapshot shares that piece's allocation: between nearby
/// checkpoint commits much of the arena and nearly all captures are
/// unchanged.
#[derive(Debug, Clone)]
struct FrozenArena {
    entries: Vec<Arc<FrozenBlock>>,
    words: Vec<Arc<[u64]>>,
    free: [Vec<u32>; MAX_SLICE_INPUTS + 1],
}

/// [`FROZEN_ENTRIES`] consecutive arena entries (fewer at the end),
/// packed: each entry's key and history length, and the histories back
/// to back — no unused inline version slots and no spill pointers, so a
/// frozen entry costs 12 bytes plus 16 per version instead of 64.
#[derive(Debug, PartialEq, Eq)]
struct FrozenBlock {
    keys: Box<[WordAddr]>,
    lens: Box<[u32]>,
    versions: Box<[Version]>,
}

impl FrozenBlock {
    fn pack(entries: &[Entry]) -> Self {
        FrozenBlock {
            keys: entries.iter().map(|e| e.key).collect(),
            lens: entries.iter().map(|e| e.versions.len).collect(),
            versions: entries.iter().flat_map(|e| e.versions.iter()).collect(),
        }
    }

    /// Whether the block packs exactly `entries`.
    fn holds(&self, entries: &[Entry]) -> bool {
        self.keys.len() == entries.len()
            && entries.iter().zip(&self.keys[..]).all(|(e, &k)| e.key == k)
            && entries
                .iter()
                .zip(&self.lens[..])
                .all(|(e, &n)| e.versions.len == n)
            && entries
                .iter()
                .flat_map(|e| e.versions.iter())
                .eq(self.versions.iter().copied())
    }

    fn unpack_into(&self, out: &mut Vec<Entry>) {
        let mut at = 0;
        for (&key, &n) in self.keys.iter().zip(&self.lens[..]) {
            let end = at + n as usize;
            out.push(Entry {
                key,
                versions: VersionList::from_slice(&self.versions[at..end]),
            });
            at = end;
        }
    }
}

/// `words` in chunks of [`FROZEN_WORDS`], each shared with the same
/// chunk of `prev` when equal and copied otherwise.
fn freeze_words(words: &[u64], prev: &[Arc<[u64]>]) -> Vec<Arc<[u64]>> {
    words
        .chunks(FROZEN_WORDS)
        .enumerate()
        .map(|(i, chunk)| match prev.get(i) {
            Some(old) if old[..] == *chunk => Arc::clone(old),
            _ => Arc::from(chunk),
        })
        .collect()
}

/// `entries` in blocks of [`FROZEN_ENTRIES`], each shared with the same
/// block of `prev` when equal and packed otherwise.
fn freeze_entries(entries: &[Entry], prev: &[Arc<FrozenBlock>]) -> Vec<Arc<FrozenBlock>> {
    entries
        .chunks(FROZEN_ENTRIES)
        .enumerate()
        .map(|(i, chunk)| match prev.get(i) {
            Some(old) if old.holds(chunk) => Arc::clone(old),
            _ => Arc::new(FrozenBlock::pack(chunk)),
        })
        .collect()
}

/// A live association as seen by readers: the Slice and its captured
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assoc<'a> {
    pub slice: SliceId,
    pub inputs: &'a [u64],
}

/// Versions an entry holds before spilling to the heap. Profiling the
/// golden campaigns shows the overwhelming majority of addresses carry one
/// or two live versions (current association + one tombstone or
/// predecessor), so two inline slots cover the hot path.
const INLINE_VERSIONS: usize = 2;

/// Placeholder for unused inline slots; never observable because reads are
/// bounded by `len`.
const DEAD_VERSION: Version = Version {
    epoch: 0,
    core: 0,
    slice: SliceId(0),
    capture: 0,
    inputs: 0,
    kind: VersionKind::Dead,
};

/// An address's version history, newest last (push order is chronological
/// because same-epoch updates supersede in place).
#[derive(Debug, Clone)]
struct VersionList {
    inline: [Version; INLINE_VERSIONS],
    /// Versions past the inline ones, exactly sized: spills are rare and
    /// short, so an entry pays one pointer for them and a spilling push
    /// reallocates.
    spill: Option<Box<[Version]>>,
    len: u32,
}

impl VersionList {
    const fn new() -> Self {
        VersionList {
            inline: [DEAD_VERSION; INLINE_VERSIONS],
            spill: None,
            len: 0,
        }
    }

    /// A list holding exactly `versions`, oldest first.
    fn from_slice(versions: &[Version]) -> Self {
        let mut list = VersionList::new();
        let inline = versions.len().min(INLINE_VERSIONS);
        list.inline[..inline].copy_from_slice(&versions[..inline]);
        list.spill = (versions.len() > INLINE_VERSIONS).then(|| versions[INLINE_VERSIONS..].into());
        list.len = versions.len() as u32;
        list
    }

    /// The versions, oldest first.
    fn iter(&self) -> impl Iterator<Item = Version> + '_ {
        (0..self.len()).map(|i| *self.get(i))
    }

    #[inline]
    fn spill(&self) -> &[Version] {
        self.spill.as_deref().unwrap_or(&[])
    }

    #[inline]
    fn spill_mut(&mut self) -> &mut [Version] {
        self.spill.as_deref_mut().unwrap_or(&mut [])
    }

    /// Resizes the spill to `n` versions, appending `extra` if given.
    fn respill(&mut self, n: usize, extra: Option<Version>) {
        let mut spill = self.spill.take().map(Vec::from).unwrap_or_default();
        spill.truncate(n);
        spill.extend(extra);
        self.spill = (!spill.is_empty()).then(|| spill.into_boxed_slice());
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn get(&self, i: usize) -> &Version {
        debug_assert!(i < self.len());
        if i < INLINE_VERSIONS {
            &self.inline[i]
        } else {
            &self.spill()[i - INLINE_VERSIONS]
        }
    }

    #[inline]
    fn set(&mut self, i: usize, v: Version) {
        debug_assert!(i < self.len());
        if i < INLINE_VERSIONS {
            self.inline[i] = v;
        } else {
            self.spill_mut()[i - INLINE_VERSIONS] = v;
        }
    }

    #[inline]
    fn last_mut(&mut self) -> Option<&mut Version> {
        let i = self.len().checked_sub(1)?;
        Some(if i < INLINE_VERSIONS {
            &mut self.inline[i]
        } else {
            &mut self.spill_mut()[i - INLINE_VERSIONS]
        })
    }

    #[inline]
    fn push(&mut self, v: Version) {
        let i = self.len();
        if i < INLINE_VERSIONS {
            self.inline[i] = v;
        } else {
            self.respill(i - INLINE_VERSIONS, Some(v));
        }
        self.len += 1;
    }

    /// The latest version with `epoch < bound`, scanning newest-first.
    /// Histories are short (inline in the common case), so a linear
    /// reverse scan beats a binary search.
    #[inline]
    fn latest_before(&self, bound: u64) -> Option<&Version> {
        for i in (0..self.len()).rev() {
            let v = self.get(i);
            if u64::from(v.epoch) < bound {
                return Some(v);
            }
        }
        None
    }

    /// In-place compaction keeping versions `f` accepts, preserving order.
    /// The write cursor never passes the read cursor, so spill writes land
    /// on still-occupied capacity.
    fn retain(&mut self, mut f: impl FnMut(&Version) -> bool) {
        let mut w = 0usize;
        for i in 0..self.len() {
            let v = *self.get(i);
            if f(&v) {
                if w != i {
                    self.set(w, v);
                }
                w += 1;
            }
        }
        self.respill(w.saturating_sub(INLINE_VERSIONS), None);
        self.len = w as u32;
    }

    fn clear(&mut self) {
        self.spill = None;
        self.len = 0;
    }
}

/// One arena entry: an address and its version history. An entry with an
/// empty history is *dead* — behaviour-identical to the address being
/// absent — and is revived in place when the address is touched again.
#[derive(Debug, Clone)]
struct Entry {
    key: WordAddr,
    versions: VersionList,
}

/// Empty-slot sentinel in the open-addressed index.
const EMPTY_SLOT: u32 = u32::MAX;

/// One slot of the open-addressed index. The key is duplicated here so a
/// probe chain walks only this compact (16-byte) array; the fat `Entry`
/// arena is touched exactly once, after the match. Emptiness is carried by
/// `idx == EMPTY_SLOT` (a key of 0 is a valid address).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    idx: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        key: 0,
        idx: EMPTY_SLOT,
    };
}

/// Initial index size (power of two).
const INITIAL_SLOTS: usize = 64;

#[inline]
fn hash_addr(addr: WordAddr) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(addr.byte());
    h.finish()
}

/// Usage counters (for capacity ablations and energy accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddrMapUsage {
    /// Association versions inserted.
    pub inserted: u64,
    /// Insertions dropped because the owning core was at capacity.
    pub rejected_capacity: u64,
    /// Tombstones written by uncovered stores.
    pub tombstones: u64,
    /// Subset of `tombstones` written by capacity evictions rather than
    /// uncovered stores.
    pub evicted_tombstones: u64,
    /// Peak live associations across all cores.
    pub peak_live: usize,
}

impl AddrMapUsage {
    /// Publishes the counters into the unified metrics registry under
    /// `ckpt.addrmap.*` (set-semantics, so refreshes are idempotent):
    ///
    /// * `ckpt.addrmap.inserted` — association versions inserted (count);
    /// * `ckpt.addrmap.rejected_capacity` — insertions dropped at
    ///   capacity (count);
    /// * `ckpt.addrmap.tombstones` — tombstone versions written (count);
    /// * `ckpt.addrmap.evicted_tombstones` — tombstones forced by
    ///   capacity evictions (count, subset of `tombstones`);
    /// * `ckpt.addrmap.peak_live` — peak live associations across all
    ///   cores (associations).
    pub fn metrics(&self, reg: &mut MetricsRegistry) {
        reg.set("ckpt.addrmap.inserted", self.inserted);
        reg.set("ckpt.addrmap.rejected_capacity", self.rejected_capacity);
        reg.set("ckpt.addrmap.tombstones", self.tombstones);
        reg.set("ckpt.addrmap.evicted_tombstones", self.evicted_tombstones);
        reg.set("ckpt.addrmap.peak_live", self.peak_live as u64);
    }
}

/// What the `AddrMap` knows about the value `addr` held at a checkpoint —
/// the classification behind the omission-decision ledger's reason codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    /// A live association describes the value: recomputable via `slice`
    /// on `core`.
    Live {
        /// The associated Slice.
        slice: SliceId,
        /// The owning core.
        core: u32,
    },
    /// The association was invalidated by a later uncovered store.
    Dead,
    /// The association was dropped by a capacity eviction.
    Evicted,
    /// No version covers the epoch (the address never had an association
    /// old enough).
    Absent,
}

/// The versioned association buffer — see the module-level notes at
/// the top of this file.
#[derive(Debug, Clone)]
pub struct AddrMap {
    cfg: AddrMapConfig,
    /// Open-addressed index: key + arena entry index per slot. Empty in a
    /// [`AddrMap::snapshot`], which keeps only the arena.
    slots: Vec<Slot>,
    /// Entry arena in first-touch order. Entries are never removed (dead
    /// entries have an empty version list), so indices in `slots` stay
    /// valid for the map's lifetime.
    entries: Vec<Entry>,
    /// Captured inputs of the live versions.
    captures: Captures,
    /// A [`AddrMap::snapshot`]'s arena and captures, which it holds here
    /// in shared chunks instead of in `entries` and `captures` (`None`
    /// in a live map).
    frozen: Option<Box<FrozenArena>>,
    live_per_core: Vec<usize>,
    usage: AddrMapUsage,
}

impl AddrMap {
    /// Creates an empty map for `num_cores` cores.
    pub fn new(cfg: AddrMapConfig, num_cores: usize) -> Self {
        AddrMap {
            cfg,
            slots: vec![Slot::EMPTY; INITIAL_SLOTS],
            entries: Vec::new(),
            captures: Captures::default(),
            frozen: None,
            live_per_core: vec![0; num_cores],
            usage: AddrMapUsage::default(),
        }
    }

    /// A compact copy of the map's complete state for prefix sharing: the
    /// entry arena (packed) and capture slab in shared pieces, without the
    /// index,
    /// which [`AddrMap::restore`] re-derives from the arena. Chunks equal
    /// to those of `prev` — an earlier snapshot of the same run — share
    /// their allocation. Only valid as a `restore` argument (or as a
    /// later snapshot's `prev`).
    pub fn snapshot(&self, prev: Option<&AddrMap>) -> AddrMap {
        let prev = prev.and_then(|p| p.frozen.as_deref());
        let frozen = FrozenArena {
            entries: freeze_entries(&self.entries, prev.map_or(&[], |p| &p.entries)),
            words: freeze_words(&self.captures.words, prev.map_or(&[], |p| &p.words)),
            free: self.captures.free.clone(),
        };
        AddrMap {
            cfg: self.cfg,
            slots: Vec::new(),
            entries: Vec::new(),
            captures: Captures::default(),
            frozen: Some(Box::new(frozen)),
            live_per_core: self.live_per_core.clone(),
            usage: self.usage,
        }
    }

    /// Rewinds the map to `snap`, taken by [`AddrMap::snapshot`], and
    /// rebuilds the index at the size the map's own growth would have
    /// reached for that many entries (the index size is a host detail —
    /// no reader depends on it). Reuses this map's storage.
    ///
    /// # Panics
    ///
    /// Panics if `snap` is not a snapshot.
    pub fn restore(&mut self, snap: &AddrMap) {
        let frozen = snap.frozen.as_deref().expect("restore takes a snapshot");
        self.cfg = snap.cfg;
        self.entries.clear();
        for block in &frozen.entries {
            block.unpack_into(&mut self.entries);
        }
        self.captures.thaw(frozen);
        self.live_per_core.clone_from(&snap.live_per_core);
        self.usage = snap.usage;
        let mut len = INITIAL_SLOTS;
        while self.entries.len() * 8 > len * 7 {
            len *= 2;
        }
        self.slots.clear();
        self.slots.resize(len, Slot::EMPTY);
        self.reindex();
    }

    /// Usage counters.
    pub fn usage(&self) -> AddrMapUsage {
        self.usage
    }

    /// Live associations currently held by `core`.
    pub fn live(&self, core: u32) -> usize {
        self.live_per_core[core as usize]
    }

    /// Live associations across all cores.
    pub fn total_live(&self) -> usize {
        self.live_per_core.iter().sum()
    }

    /// The per-core capacity bound every `live(core)` must respect.
    pub fn capacity_per_core(&self) -> usize {
        self.cfg.capacity_per_core
    }

    /// The aggregate capacity bound (`capacity_per_core × num_cores`).
    pub fn total_capacity(&self) -> usize {
        self.cfg.capacity_per_core * self.live_per_core.len()
    }

    /// Finds the arena entry for `addr`, if it was ever touched.
    #[inline]
    fn find(&self, addr: WordAddr) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash_addr(addr) as usize & mask;
        loop {
            let s = self.slots[slot];
            if s.idx == EMPTY_SLOT {
                return None;
            }
            if s.key == addr.byte() {
                return Some(s.idx as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Finds or materialises the arena entry for `addr`.
    fn find_or_insert(&mut self, addr: WordAddr) -> usize {
        // Keep the load factor below 7/8 counting every arena entry (dead
        // ones still occupy index slots so they can be revived in place).
        if (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash_addr(addr) as usize & mask;
        loop {
            let s = self.slots[slot];
            if s.idx == EMPTY_SLOT {
                let idx = self.entries.len();
                self.slots[slot] = Slot {
                    key: addr.byte(),
                    idx: idx as u32,
                };
                self.entries.push(Entry {
                    key: addr,
                    versions: VersionList::new(),
                });
                return idx;
            }
            if s.key == addr.byte() {
                return s.idx as usize;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index and re-seats every entry. Probe order after a
    /// grow depends only on the entry keys and the new size, never on
    /// lookup history, so growth cannot perturb observable behaviour.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots = vec![Slot::EMPTY; new_len];
        self.reindex();
    }

    /// Seats every arena entry in the (empty) index, in arena order.
    fn reindex(&mut self) {
        let mask = self.slots.len() - 1;
        for (idx, entry) in self.entries.iter().enumerate() {
            let mut slot = hash_addr(entry.key) as usize & mask;
            while self.slots[slot].idx != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = Slot {
                key: entry.key.byte(),
                idx: idx as u32,
            };
        }
    }

    fn note_peak(&mut self) {
        let total: usize = self.live_per_core.iter().sum();
        if total > self.usage.peak_live {
            self.usage.peak_live = total;
        }
    }

    /// Records an uncovered store to `addr`: from `epoch` on, the
    /// address's value is not recomputable. A tombstone is only needed if
    /// a (non-tombstone) association exists.
    #[inline]
    pub(crate) fn record_store(&mut self, core: u32, addr: WordAddr, epoch: u64) {
        // Fast path: stores to never-associated addresses (the vast
        // majority) cost one probe and no mutation.
        let Some(idx) = self.find(addr) else { return };
        if self.entries[idx].versions.is_empty() {
            return;
        }
        self.tombstone_at(idx, core16(core), epoch32(epoch), false);
    }

    /// Writes a tombstone version into entry `idx`. `evicted` marks
    /// capacity evictions (vs. genuine invalidation by an uncovered
    /// store). Eviction tombstones materialise an entry for a previously
    /// unknown address (the caller uses `find_or_insert`) so a later
    /// first update can still be attributed to the eviction, while plain
    /// uncovered stores to unknown addresses stay free.
    fn tombstone_at(&mut self, idx: usize, core: u16, epoch: u32, evicted: bool) {
        let versions = &mut self.entries[idx].versions;
        match versions.last_mut() {
            Some(last) if !last.is_live() => {
                // Already dead from an earlier (or equal) epoch on; a
                // later uncovered store changes nothing.
            }
            Some(last) if last.epoch == epoch => {
                // Same-epoch association superseded within the
                // interval: it can never be looked up (lookups target
                // strictly older epochs), so replace in place.
                self.live_per_core[usize::from(last.core)] -= 1;
                self.captures.release(last);
                *last = Version::tombstone(epoch, core, evicted);
                self.usage.tombstones += 1;
                if evicted {
                    self.usage.evicted_tombstones += 1;
                }
            }
            _ => {
                versions.push(Version::tombstone(epoch, core, evicted));
                self.usage.tombstones += 1;
                if evicted {
                    self.usage.evicted_tombstones += 1;
                }
            }
        }
    }

    /// Records an `ASSOC-ADDR`: the value stored to `addr` in `epoch` is
    /// the output of `slice` over `inputs`. Returns `false` if dropped for
    /// capacity.
    pub(crate) fn record_assoc(
        &mut self,
        core: u32,
        addr: WordAddr,
        epoch: u64,
        slice: SliceId,
        inputs: &[u64],
    ) -> bool {
        debug_assert!(inputs.len() <= MAX_SLICE_INPUTS);
        let (owner, epoch) = (core16(core), epoch32(epoch));
        if self.live_per_core[core as usize] >= self.cfg.capacity_per_core {
            self.usage.rejected_capacity += 1;
            // The association (if any) no longer describes the new value;
            // the eviction-flagged tombstone lets a later first update be
            // attributed to the capacity limit rather than the program.
            let idx = self.find_or_insert(addr);
            self.tombstone_at(idx, owner, epoch, true);
            return false;
        }
        let idx = self.find_or_insert(addr);
        let versions = &mut self.entries[idx].versions;
        let version = Version {
            epoch,
            core: owner,
            slice,
            capture: 0,
            inputs: inputs.len() as u8,
            kind: VersionKind::Live,
        };
        let slot = match versions.last_mut() {
            Some(last) if last.epoch == epoch => {
                // Supersede the same-interval version in place.
                if last.is_live() {
                    self.live_per_core[usize::from(last.core)] -= 1;
                    self.captures.release(last);
                }
                *last = version;
                last
            }
            _ => {
                versions.push(version);
                versions.last_mut().expect("just pushed")
            }
        };
        slot.capture = self.captures.alloc(inputs);
        self.live_per_core[core as usize] += 1;
        self.usage.inserted += 1;
        self.note_peak();
        true
    }

    /// The association describing the value `addr` held at checkpoint
    /// `epoch` — the latest version created strictly before `epoch`.
    /// Returns `None` if that version is a tombstone or absent.
    pub(crate) fn lookup_for_epoch(&self, addr: WordAddr, epoch: u64) -> Option<Assoc<'_>> {
        let idx = self.find(addr)?;
        let v = self.entries[idx].versions.latest_before(epoch)?;
        v.is_live().then(|| Assoc {
            slice: v.slice,
            inputs: self.captures.get(v),
        })
    }

    /// Owning core of the association usable for `epoch`, if any.
    pub(crate) fn owner_for_epoch(&self, addr: WordAddr, epoch: u64) -> Option<u32> {
        let idx = self.find(addr)?;
        self.entries[idx]
            .versions
            .latest_before(epoch)
            .filter(|v| v.is_live())
            .map(|v| u32::from(v.core))
    }

    /// Classifies what the map knows about the value `addr` held at
    /// checkpoint `epoch` — the version lookup `lookup_for_epoch`
    /// performs, with tombstones split by cause. Read-only (ledger
    /// attribution; never charges simulated time).
    pub fn classify_for_epoch(&self, addr: WordAddr, epoch: u64) -> AssocState {
        let Some(idx) = self.find(addr) else {
            return AssocState::Absent;
        };
        match self.entries[idx].versions.latest_before(epoch) {
            None => AssocState::Absent,
            Some(v) => match v.kind {
                VersionKind::Live => AssocState::Live {
                    slice: v.slice,
                    core: u32::from(v.core),
                },
                VersionKind::Evicted => AssocState::Evicted,
                VersionKind::Dead => AssocState::Dead,
            },
        }
    }

    /// Prunes versions no longer reachable once epoch `sealed` is sealed:
    /// recovery can only target checkpoints `sealed` and `sealed + 1`, so
    /// per address we keep every version with `epoch >= sealed` plus the
    /// latest older one. Pruned live versions return their captures to
    /// the slab.
    pub(crate) fn prune(&mut self, sealed: u64) {
        let live = &mut self.live_per_core;
        let captures = &mut self.captures;
        for entry in &mut self.entries {
            let versions = &mut entry.versions;
            if versions.is_empty() {
                continue;
            }
            let mut keep_from = 0;
            for i in (0..versions.len()).rev() {
                if u64::from(versions.get(i).epoch) < sealed {
                    keep_from = i;
                    break;
                }
            }
            if keep_from > 0 {
                let mut i = 0;
                versions.retain(|v| {
                    let keep = i >= keep_from;
                    if !keep && v.is_live() {
                        live[usize::from(v.core)] -= 1;
                        captures.release(v);
                    }
                    i += 1;
                    keep
                });
            }
            // Drop addresses whose only remaining version is an old
            // tombstone (the entry goes dead; absence and deadness are
            // indistinguishable to every reader).
            if versions.len() == 1 {
                let v = versions.get(0);
                if !v.is_live() && u64::from(v.epoch) < sealed {
                    versions.clear();
                }
            }
        }
    }

    /// Rollback: recovery restored checkpoint `safe_epoch` for the cores
    /// in `victim_mask`; versions they created in the undone epochs
    /// (`epoch >= safe_epoch`) describe stores that never happened.
    pub(crate) fn rollback(&mut self, safe_epoch: u64, victim_mask: u64) {
        let live = &mut self.live_per_core;
        let captures = &mut self.captures;
        for entry in &mut self.entries {
            entry.versions.retain(|v| {
                let undone = u64::from(v.epoch) >= safe_epoch && victim_mask >> v.core & 1 == 1;
                if undone && v.is_live() {
                    live[usize::from(v.core)] -= 1;
                    captures.release(v);
                }
                !undone
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wa(i: u64) -> WordAddr {
        WordAddr::new(i * 8)
    }

    fn map(cap: usize) -> AddrMap {
        AddrMap::new(
            AddrMapConfig {
                capacity_per_core: cap,
            },
            2,
        )
    }

    #[test]
    fn assoc_visible_only_for_later_epochs() {
        let mut m = map(100);
        assert!(m.record_assoc(0, wa(1), 3, SliceId(7), &[10]));
        // Value stored in epoch 3 describes the state at checkpoints 4, 5…
        assert!(m.lookup_for_epoch(wa(1), 3).is_none());
        let a = m.lookup_for_epoch(wa(1), 4).unwrap();
        assert_eq!(a.slice, SliceId(7));
        assert_eq!(m.owner_for_epoch(wa(1), 4), Some(0));
    }

    #[test]
    fn tombstone_invalidates_from_its_epoch() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 3, SliceId(7), &[]);
        m.record_store(1, wa(1), 5);
        // Checkpoint 4 and 5 still see the association (store was in
        // epoch 5, after checkpoints 4 and 5 were... checkpoint 5 opens
        // epoch 5, so the value at checkpoint 5 predates the store).
        assert!(m.lookup_for_epoch(wa(1), 4).is_some());
        assert!(m.lookup_for_epoch(wa(1), 5).is_some());
        // Checkpoint 6 sees the overwritten (unknown) value.
        assert!(m.lookup_for_epoch(wa(1), 6).is_none());
    }

    #[test]
    fn same_epoch_supersede_keeps_single_version() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 3, SliceId(1), &[1]);
        m.record_store(0, wa(1), 3); // overwritten in the same interval
        m.record_assoc(0, wa(1), 3, SliceId(2), &[2]);
        let a = m.lookup_for_epoch(wa(1), 4).unwrap();
        assert_eq!(a.slice, SliceId(2));
        assert_eq!(m.live(0), 1);
    }

    #[test]
    fn capacity_rejection_degrades_to_baseline() {
        let mut m = map(2);
        assert!(m.record_assoc(0, wa(1), 0, SliceId(1), &[]));
        assert!(m.record_assoc(0, wa(2), 0, SliceId(1), &[]));
        assert!(!m.record_assoc(0, wa(3), 0, SliceId(1), &[]));
        assert_eq!(m.usage().rejected_capacity, 1);
        assert!(m.lookup_for_epoch(wa(3), 1).is_none());
        // Capacity is per core: core 1 still has room.
        assert!(m.record_assoc(1, wa(4), 0, SliceId(1), &[]));
    }

    #[test]
    fn capacity_rejection_invalidates_stale_assoc() {
        let mut m = map(1);
        assert!(m.record_assoc(0, wa(1), 0, SliceId(1), &[5]));
        // New store to the same address in a later epoch, but the map is
        // full: the old association must not survive describing the new
        // value.
        assert!(!m.record_assoc(0, wa(1), 1, SliceId(2), &[6]));
        assert!(m.lookup_for_epoch(wa(1), 2).is_none());
        // The old association still describes epoch 1's opening value.
        assert!(m.lookup_for_epoch(wa(1), 1).is_some());
    }

    #[test]
    fn prune_keeps_reachable_versions() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 0, SliceId(1), &[]);
        m.record_assoc(0, wa(1), 2, SliceId(2), &[]);
        m.record_assoc(0, wa(2), 0, SliceId(3), &[]);
        m.prune(2); // checkpoints 2 and 3 remain restorable
                    // wa(1)@epoch0 is the latest version below 2 → kept.
        assert_eq!(m.lookup_for_epoch(wa(1), 2).unwrap().slice, SliceId(1));
        assert_eq!(m.lookup_for_epoch(wa(1), 3).unwrap().slice, SliceId(2));
        assert_eq!(m.lookup_for_epoch(wa(2), 2).unwrap().slice, SliceId(3));
        assert_eq!(m.live(0), 3);
        m.prune(4);
        // Only the latest version per address survives.
        assert_eq!(m.live(0), 2);
    }

    #[test]
    fn rollback_drops_undone_victim_versions() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 1, SliceId(1), &[]);
        m.record_assoc(0, wa(2), 3, SliceId(2), &[]);
        m.record_assoc(1, wa(3), 3, SliceId(3), &[]);
        m.rollback(2, 0b01); // core 0 rolls back to checkpoint 2
        assert!(m.lookup_for_epoch(wa(1), 2).is_some()); // epoch 1 < 2 kept
        assert!(m.lookup_for_epoch(wa(2), 4).is_none()); // undone
        assert!(m.lookup_for_epoch(wa(3), 4).is_some()); // non-victim kept
        assert_eq!(m.live(0), 1);
        assert_eq!(m.live(1), 1);
    }

    #[test]
    fn tombstone_on_unknown_address_is_free() {
        let mut m = map(100);
        m.record_store(0, wa(9), 1);
        assert_eq!(m.usage().tombstones, 0);
        assert!(m.lookup_for_epoch(wa(9), 2).is_none());
    }

    #[test]
    fn classification_splits_tombstones_by_cause() {
        let mut m = map(1);
        // Live association.
        m.record_assoc(0, wa(1), 0, SliceId(1), &[4]);
        assert_eq!(
            m.classify_for_epoch(wa(1), 1),
            AssocState::Live {
                slice: SliceId(1),
                core: 0
            }
        );
        // Uncovered store kills it → Dead.
        m.record_store(0, wa(1), 1);
        assert_eq!(m.classify_for_epoch(wa(1), 2), AssocState::Dead);
        // Capacity eviction on a fresh address → Evicted (entry is
        // materialised even though the address was never associated).
        m.record_assoc(1, wa(2), 0, SliceId(1), &[]); // fills core 1
        m.record_assoc(1, wa(3), 0, SliceId(2), &[]); // rejected
        assert_eq!(m.classify_for_epoch(wa(3), 1), AssocState::Evicted);
        // Never-seen address → Absent.
        assert_eq!(m.classify_for_epoch(wa(9), 1), AssocState::Absent);
        let u = m.usage();
        assert_eq!(u.rejected_capacity, 1);
        assert_eq!(u.evicted_tombstones, 1);
        assert!(u.tombstones >= 2);
    }

    #[test]
    fn usage_metrics_publish_under_ckpt_addrmap_keys() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 0, SliceId(1), &[]);
        m.record_store(0, wa(1), 1);
        let mut reg = acr_trace::MetricsRegistry::new();
        m.usage().metrics(&mut reg);
        assert_eq!(reg.get("ckpt.addrmap.inserted"), Some(1));
        assert_eq!(reg.get("ckpt.addrmap.tombstones"), Some(1));
        assert_eq!(reg.get("ckpt.addrmap.evicted_tombstones"), Some(0));
        assert_eq!(reg.get("ckpt.addrmap.peak_live"), Some(1));
    }

    #[test]
    fn peak_live_tracks_high_water_mark() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 0, SliceId(1), &[]);
        m.record_assoc(1, wa(2), 0, SliceId(1), &[]);
        assert_eq!(m.usage().peak_live, 2);
        m.prune(10);
        // Peak is sticky.
        assert_eq!(m.usage().peak_live, 2);
    }

    #[test]
    fn index_survives_growth_past_initial_capacity() {
        // Insert far more distinct addresses than INITIAL_SLOTS to force
        // several index growths, then verify every association resolves.
        let mut m = AddrMap::new(
            AddrMapConfig {
                capacity_per_core: 1 << 20,
            },
            1,
        );
        let n = 1000u64;
        for i in 0..n {
            assert!(m.record_assoc(0, wa(i), 0, SliceId(i as u32), &[i]));
        }
        for i in 0..n {
            let a = m.lookup_for_epoch(wa(i), 1).unwrap();
            assert_eq!(a.slice, SliceId(i as u32));
            assert_eq!(a.inputs, &[i]);
        }
        assert_eq!(m.live(0), n as usize);
    }

    #[test]
    fn dead_entries_are_revived_in_place() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 0, SliceId(1), &[]);
        m.record_store(0, wa(1), 1);
        m.prune(5); // the address's only version is an old tombstone → dead
        assert_eq!(m.classify_for_epoch(wa(1), 6), AssocState::Absent);
        assert_eq!(m.live(0), 0);
        // Touching the address again reuses the dead entry.
        assert!(m.record_assoc(0, wa(1), 7, SliceId(2), &[3]));
        assert_eq!(m.lookup_for_epoch(wa(1), 8).unwrap().slice, SliceId(2));
        assert_eq!(m.live(0), 1);
    }

    #[test]
    fn versions_keep_inputs_out_of_line() {
        // 16-byte versions (inputs live in the capture slab) and 64-byte
        // entries with two inline versions.
        assert_eq!(std::mem::size_of::<Version>(), 16);
        assert_eq!(std::mem::size_of::<Entry>(), 64);
    }

    #[test]
    fn pruned_captures_are_reused() {
        let mut m = map(100);
        m.record_assoc(0, wa(1), 0, SliceId(1), &[1, 2]);
        m.record_assoc(0, wa(2), 0, SliceId(2), &[3, 4, 5]);
        m.record_assoc(0, wa(1), 1, SliceId(3), &[6, 7]);
        let arena = m.captures.words.len();
        m.prune(3); // drops wa(1)@0; its two-word capture goes free
        m.record_assoc(0, wa(3), 3, SliceId(4), &[8, 9]);
        assert_eq!(m.captures.words.len(), arena, "freed run reused");
        assert_eq!(m.lookup_for_epoch(wa(3), 4).unwrap().inputs, &[8, 9]);
        assert_eq!(m.lookup_for_epoch(wa(1), 4).unwrap().inputs, &[6, 7]);
        assert_eq!(m.lookup_for_epoch(wa(2), 4).unwrap().inputs, &[3, 4, 5]);
    }

    #[test]
    fn snapshot_restore_round_trips_without_the_index() {
        let mut m = map(100);
        for i in 0..200u64 {
            m.record_assoc(
                (i % 2) as u32,
                wa(i),
                i / 50,
                SliceId(i as u32),
                &[i, i + 1],
            );
        }
        m.record_store(0, wa(4), 3);
        // A history longer than the inline versions.
        for e in 0..6u64 {
            if e % 2 == 0 {
                m.record_assoc(0, wa(300), e, SliceId(e as u32), &[e]);
            } else {
                m.record_store(0, wa(300), e);
            }
        }
        let snap = m.snapshot(None);
        assert!(snap.slots.is_empty() && snap.entries.is_empty());
        let mut w = map(100);
        w.record_assoc(1, wa(999), 0, SliceId(9), &[9]);
        w.restore(&snap);
        for i in (0..200u64).chain([300]) {
            for e in 0..7 {
                assert_eq!(
                    w.classify_for_epoch(wa(i), e),
                    m.classify_for_epoch(wa(i), e)
                );
                assert_eq!(w.lookup_for_epoch(wa(i), e), m.lookup_for_epoch(wa(i), e));
            }
        }
        assert_eq!(w.classify_for_epoch(wa(999), 1), AssocState::Absent);
        assert_eq!(w.slots.len(), m.slots.len(), "index sized as growth would");
        assert_eq!((w.live(0), w.live(1)), (m.live(0), m.live(1)));
        assert_eq!(w.usage(), m.usage());
    }

    #[test]
    fn snapshots_share_unchanged_chunks_with_an_earlier_one() {
        let mut m = map(1000);
        for i in 0..100u64 {
            m.record_assoc(0, wa(i), 0, SliceId(i as u32), &[i; 3]);
        }
        let first = m.snapshot(None);
        // Touch one entry in the second arena chunk and add new ones.
        m.record_store(0, wa(20), 1);
        for i in 100..120u64 {
            m.record_assoc(1, wa(i), 1, SliceId(7), &[i]);
        }
        let second = m.snapshot(Some(&first));
        let (a, b) = (
            first.frozen.as_deref().unwrap(),
            second.frozen.as_deref().unwrap(),
        );
        for (i, (x, y)) in a.entries.iter().zip(&b.entries).enumerate() {
            assert_eq!(Arc::ptr_eq(x, y), i != 1 && i != 6, "entry chunk {i}");
        }
        assert!(Arc::ptr_eq(&a.words[0], &b.words[0]), "captures unchanged");
        // Sharing changes nothing a restored map answers.
        let mut w = map(1000);
        w.restore(&second);
        for i in 0..130u64 {
            for e in 0..3 {
                assert_eq!(w.lookup_for_epoch(wa(i), e), m.lookup_for_epoch(wa(i), e));
                assert_eq!(
                    w.classify_for_epoch(wa(i), e),
                    m.classify_for_epoch(wa(i), e)
                );
            }
        }
        assert_eq!(w.usage(), m.usage());
    }

    #[test]
    fn spilled_histories_stay_ordered() {
        // More versions than the inline capacity: epochs 0..6 on one
        // address, alternating assoc/tombstone, then check every epoch's
        // view.
        let mut m = map(100);
        for e in 0..6u64 {
            if e % 2 == 0 {
                m.record_assoc(0, wa(1), e, SliceId(e as u32), &[e]);
            } else {
                m.record_store(0, wa(1), e);
            }
        }
        for k in 1..=6u64 {
            let state = m.classify_for_epoch(wa(1), k);
            // Latest version before k has epoch k-1.
            if (k - 1) % 2 == 0 {
                assert_eq!(
                    state,
                    AssocState::Live {
                        slice: SliceId((k - 1) as u32),
                        core: 0
                    },
                    "epoch {k}"
                );
            } else {
                assert_eq!(state, AssocState::Dead, "epoch {k}");
            }
        }
    }
}
