//! The emulated kernel page cache.
//!
//! Unlike the macroscopic model of the [`pagecache`] crate (variable-size data
//! blocks, one per I/O operation), the emulator tracks cache occupancy per
//! file at page granularity, and implements the kernel behaviours the paper
//! identifies as the source of its residual simulation error:
//!
//! * a **background dirty threshold** (`vm.dirty_background_ratio`): writeback
//!   starts well before the dirty ratio is hit, so dirty data drains faster
//!   than in the macroscopic model;
//! * **writer throttling** (`balance_dirty_pages`): when the dirty ratio is
//!   exceeded the writer itself writes back down to the background threshold;
//! * **eviction protection of files being written**: the kernel "tends to not
//!   evict pages that belong to files being currently written" (paper §IV-A).
//!
//! This emulator plays the role of the *real cluster node* in our
//! reproduction: simulators are evaluated by their error against it.
//!
//! # Mechanism vs. policy
//!
//! Like `pagecache::lru`, this module is *mechanism*: the file slab, the
//! page accounting, the resident/durability range ledgers, and the victim
//! indexes. The *decisions* — in what order files are picked as eviction
//! victims, whether a file gets a second chance, and how re-accessed files
//! are classified — are delegated to the [`ReplacementPolicy`] configured via
//! [`KernelTuning::eviction_policy`]. Because the emulator tracks occupancy
//! per file (not per block), it consumes the trait's *file-granular* hooks,
//! driven off a per-file [`FileMeta`] stored in each slab slot: `file_admit`
//! on inserts, `file_touch` on re-accesses, `file_rank` as the
//! victim-ordering prefix, `file_second_chance` during the protection pass of
//! [`KernelCache::evict`] and `file_on_evict` when a file's pages are fully
//! reclaimed. Writeback order stays policy-independent: it is a durability
//! concern (oldest dirty data first), not a replacement decision. The default
//! [`TwoList`](pagecache::EvictionPolicy::TwoList) policy ranks every file 0
//! and grants no second chances, reproducing the historical behaviour
//! exactly.
//!
//! # Victim indexes
//!
//! Eviction and writeback take their victims from two ordered indexes
//! (`BTreeMap`s from victim-order key to slab slot), so each victim costs
//! O(log F) for F indexed files:
//!
//! | index | members | key | used by |
//! |---|---|---|---|
//! | clean | files with clean bytes > `EPS` | `(file_rank, last_access, file)` | [`KernelCache::evict`], [`KernelCache::evict_group`] |
//! | dirty | files with dirty bytes > `EPS` | `(oldest_dirty, file)` | [`KernelCache::write_back`], [`KernelCache::write_back_group`] |
//!
//! `file_rank` reads nothing but the file's own [`FileMeta`], so a key
//! changes only where a slot's pages, `last_access` or `meta` change: the
//! inserts, [`KernelCache::touch`], the eviction passes (evicted bytes and the
//! second-chance hook), the writebacks and `fsync`. Each of those sites calls
//! `State::reindex`, which moves the slot's entries when its keys or its
//! membership changed; invalidation and crashes drop them. A walk never
//! mutates the index it walks — the slots it changed are re-keyed when the
//! call ends — so every call visits exactly the candidates, in exactly the
//! order, of the collect-and-sort it replaced. That sort survives as the
//! reference of the debug oracle and the differential tests.
//!
//! Expired-dirty writeback walks the intrusive has-dirty chain instead: it
//! sums `f64` dirty byte counts in chain order, and any other summation order
//! would move predictions in the last bits. Chain order is defined as if
//! every writeback call unlinked the members without dirty bytes: a member
//! that holds none across a writeback call re-enters at the tail when it is
//! dirtied again. The indexed writebacks do not walk the chain, so they only
//! count their calls (`State::dirty_prunes`) and each member records when it
//! lost its dirty bytes (`FileSlot::stale_since`);
//! [`KernelCache::write_back_expired`] unlinks such members as it walks.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Unbounded};
use std::rc::Rc;

use des::{JoinHandle, SimContext, SimTime};
use pagecache::{
    CacheContentSnapshot, FileId, FileMeta, MemorySample, MemoryTrace, ReplacementPolicy,
};
use storage_model::{Disk, MemoryDevice};

use crate::tuning::KernelTuning;

const EPS: f64 = 1e-6;

/// Slot index into the file slab. `NIL` terminates a chain.
const NIL: u32 = u32::MAX;

/// Clean-index key: eviction order `(policy rank, last access, file name)`.
type CleanKey = (u32, SimTime, FileId);

/// Dirty-index key: writeback order `(oldest dirty time, file name)`.
type DirtyKey = (SimTime, FileId);

/// Sorted, disjoint, half-open byte ranges: the emulator's record of *which*
/// offsets of a file are resident in the cache. The float aggregates of
/// [`FilePages`] remain the source of truth for *totals* (thresholds,
/// eviction targets); the range set refines them with true page positions so
/// offset-granular reads know exactly which bytes must come from disk. The
/// two views are kept consistent (`total() == FilePages::cached()`): range
/// inserts only add uncovered bytes, and eviction trims ranges by the
/// evicted amount, lowest offsets first (the least recently used end under
/// the sequential-access assumption the macroscopic model also makes).
#[derive(Debug, Default, Clone)]
struct RangeSet {
    spans: Vec<(f64, f64)>,
}

impl RangeSet {
    /// Total resident bytes. Consumed by the debug oracle only, hence unused
    /// in release builds.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn total(&self) -> f64 {
        self.spans.iter().map(|(a, b)| b - a).sum()
    }

    /// Bytes of `[a, b)` that are resident.
    fn covered_len(&self, a: f64, b: f64) -> f64 {
        self.spans
            .iter()
            .map(|&(sa, sb)| (sb.min(b) - sa.max(a)).max(0.0))
            .sum()
    }

    /// The sub-ranges of `[a, b)` that are *not* resident, in offset order.
    fn gaps(&self, a: f64, b: f64) -> Vec<(f64, f64)> {
        let mut gaps = Vec::new();
        let mut cursor = a;
        for &(sa, sb) in &self.spans {
            if sb <= cursor {
                continue;
            }
            if sa >= b {
                break;
            }
            if sa > cursor + EPS {
                gaps.push((cursor, sa.min(b)));
            }
            cursor = cursor.max(sb);
            if cursor >= b {
                break;
            }
        }
        if cursor < b - EPS {
            gaps.push((cursor, b));
        }
        gaps
    }

    /// Adds `[a, b)`, merging overlapping or touching spans.
    fn insert(&mut self, a: f64, b: f64) {
        if b - a <= EPS {
            return;
        }
        let mut merged = (a, b);
        let mut out = Vec::with_capacity(self.spans.len() + 1);
        let mut iter = self.spans.iter().peekable();
        while let Some(&&(sa, sb)) = iter.peek() {
            if sb < a - EPS {
                out.push((sa, sb));
                iter.next();
            } else {
                break;
            }
        }
        while let Some(&&(sa, sb)) = iter.peek() {
            if sa <= b + EPS {
                merged.0 = merged.0.min(sa);
                merged.1 = merged.1.max(sb);
                iter.next();
            } else {
                break;
            }
        }
        out.push(merged);
        out.extend(iter);
        self.spans = out;
    }

    /// Removes `amount` bytes from the lowest offsets.
    fn trim_front(&mut self, mut amount: f64) {
        let mut drop_to = 0;
        for span in self.spans.iter_mut() {
            if amount <= EPS {
                break;
            }
            let len = span.1 - span.0;
            if len <= amount + EPS {
                amount -= len;
                drop_to += 1;
            } else {
                span.0 += amount;
                amount = 0.0;
            }
        }
        self.spans.drain(..drop_to);
    }

    /// End offset of the highest resident span (0 when empty). The
    /// amount-based legacy insert APIs append here, so sequential whole-file
    /// traffic lays its pages down at the true offsets.
    fn high_water(&self) -> f64 {
        self.spans.last().map_or(0.0, |&(_, b)| b)
    }
}

/// One prev/next pair of the intrusive has-dirty chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// Endpoints of the has-dirty chain.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            head: NIL,
            tail: NIL,
        }
    }
}

/// Per-file cache occupancy, split by LRU list and dirtiness.
#[derive(Debug, Default, Clone, Copy)]
struct FilePages {
    inactive_clean: f64,
    inactive_dirty: f64,
    active_clean: f64,
    active_dirty: f64,
    last_access: SimTime,
    oldest_dirty: Option<SimTime>,
    write_open: bool,
}

impl FilePages {
    fn cached(&self) -> f64 {
        self.inactive_clean + self.inactive_dirty + self.active_clean + self.active_dirty
    }

    fn dirty(&self) -> f64 {
        self.inactive_dirty + self.active_dirty
    }

    fn clean(&self) -> f64 {
        self.inactive_clean + self.active_clean
    }

    /// Marks up to `amount` dirty bytes clean (inactive first). Returns the
    /// amount cleaned.
    fn clean_dirty(&mut self, amount: f64) -> f64 {
        let from_inactive = self.inactive_dirty.min(amount);
        self.inactive_dirty -= from_inactive;
        self.inactive_clean += from_inactive;
        let from_active = self.active_dirty.min(amount - from_inactive);
        self.active_dirty -= from_active;
        self.active_clean += from_active;
        if self.dirty() <= EPS {
            self.oldest_dirty = None;
        }
        from_inactive + from_active
    }

    /// Removes up to `amount` clean bytes (inactive first, then active).
    /// Returns the amount removed.
    fn evict_clean(&mut self, amount: f64) -> f64 {
        let from_inactive = self.inactive_clean.min(amount);
        self.inactive_clean -= from_inactive;
        let from_active = self.active_clean.min(amount - from_inactive);
        self.active_clean -= from_active;
        from_inactive + from_active
    }

    /// Promotes up to `amount` bytes from the inactive to the active list
    /// (clean first), modelling a second access.
    fn promote(&mut self, amount: f64) {
        let clean = self.inactive_clean.min(amount);
        self.inactive_clean -= clean;
        self.active_clean += clean;
        let dirty = self.inactive_dirty.min(amount - clean);
        self.inactive_dirty -= dirty;
        self.active_dirty += dirty;
    }
}

/// Aggregate counters of the emulator.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelCacheCounters {
    /// Bytes written back by the background writeback threads.
    pub background_writeback: f64,
    /// Bytes written back synchronously by throttled writers.
    pub throttled_writeback: f64,
    /// Bytes evicted under memory pressure.
    pub evicted: f64,
    /// Bytes read from disk by the readahead model ahead of demand.
    pub prefetched: f64,
    /// Seconds writers spent blocked in `balance_dirty_pages`-style
    /// throttling (synchronous threshold writeback plus pacing stalls).
    pub throttle_stall_seconds: f64,
}

/// Host-cost counters of the victim walks: how often eviction and writeback
/// ran and how many candidate files they visited. Plain integer counts that
/// no prediction reads; a visited-per-call figure that grows with the
/// number of cached files marks a return to whole-cache scans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanCounters {
    /// Calls of [`KernelCache::evict`] and [`KernelCache::evict_group`].
    pub evict_calls: u64,
    /// Candidate files visited by those calls, skipped ones included.
    pub evict_visited: u64,
    /// Calls of [`KernelCache::write_back`] and
    /// [`KernelCache::write_back_group`].
    pub write_back_calls: u64,
    /// Candidate files visited by those calls.
    pub write_back_visited: u64,
}

/// Cursor of one victim walk: the last key visited in an index, or (for the
/// reference order of the differential tests) the position in a sorted list.
struct Walk<K> {
    at: Option<K>,
    pos: usize,
}

impl<K: Ord + Clone> Walk<K> {
    fn new() -> Self {
        Walk { at: None, pos: 0 }
    }

    /// The next slot of `sorted` when given, else of `index` after the last
    /// visited key. O(log F).
    fn next(&mut self, index: &BTreeMap<K, u32>, sorted: Option<&[u32]>) -> Option<u32> {
        if let Some(order) = sorted {
            self.pos += 1;
            return order.get(self.pos - 1).copied();
        }
        let (key, &i) = match &self.at {
            None => index.iter().next(),
            Some(at) => index.range((Excluded(at), Unbounded)).next(),
        }?;
        self.at = Some(key.clone());
        Some(i)
    }
}

/// One file's slab slot: its page accounting, its victim-index keys and its
/// link in the has-dirty chain (same per-file chain idea as `pagecache::lru`).
#[derive(Debug, Clone)]
struct FileSlot {
    file: FileId,
    pages: FilePages,
    /// Per-file policy metadata (reference bit, hotness, generation) consumed
    /// by the file-granular [`ReplacementPolicy`] hooks.
    meta: FileMeta,
    /// Which byte offsets of the file are resident (`total()` always equals
    /// `pages.cached()`).
    resident: RangeSet,
    /// Which byte offsets were written but have not yet reached the disk —
    /// the durability ledger consumed by [`KernelCache::crash_discard`].
    /// Grown by every dirty insert, cleared by per-file writeback (`fsync`),
    /// and trimmed lowest-offset-first by partial writeback (the same
    /// deterministic approximation the resident set uses for eviction). An
    /// independent record, not asserted against the position-blind float
    /// aggregates: overlapping rewrites inflate the aggregates but not the
    /// ledger.
    dirty: RangeSet,
    /// `(rank, last_access)` of the slot's clean-index entry, `None` when
    /// the file holds no clean bytes.
    clean_key: Option<(u32, SimTime)>,
    /// Oldest-dirty time of the slot's dirty-index entry, `None` when the
    /// file holds no dirty bytes.
    dirty_key: Option<SimTime>,
    /// Link in the has-dirty chain.
    link: Link,
    /// Whether the slot is a member of the has-dirty chain.
    linked: bool,
    /// For a chain member without dirty bytes: `State::dirty_prunes` when it
    /// lost them. A writeback call since then counts as having unlinked it.
    stale_since: Option<u64>,
}

/// Incrementally maintained byte totals of one cache group (tenant) — the
/// emulator-side memcg analogue of `pagecache`'s group aggregates.
#[derive(Debug, Default, Clone, Copy)]
struct GroupBytes {
    cached: f64,
    dirty: f64,
}

struct State {
    /// File -> slab slot, hashed on [`FileId`] identity (O(1) per lookup).
    /// Victim selection goes through the victim indexes instead of scanning
    /// this map; the enumerations ([`KernelCache::cached_per_file`],
    /// [`KernelCache::crash_discard`]) sort by file name.
    index: HashMap<FileId, u32>,
    slots: Vec<Option<FileSlot>>,
    free_slots: Vec<u32>,
    /// Eviction order over exactly the files holding clean bytes.
    clean_index: BTreeMap<CleanKey, u32>,
    /// Writeback order over exactly the files holding dirty bytes.
    dirty_index: BTreeMap<DirtyKey, u32>,
    /// Has-dirty chain: a superset of the files with dirty pages, in
    /// first-dirtied order, pruned lazily by [`KernelCache::write_back_expired`].
    chain: Chain,
    /// Writeback calls so far; each counts as unlinking the chain members
    /// without dirty bytes (see the module docs).
    dirty_prunes: u64,
    scans: ScanCounters,
    /// Drive the victim walks from the reference sort instead of the indexes
    /// (differential tests only).
    #[cfg(test)]
    reference: bool,
    /// Every `(victim, bytes)` step of the eviction and writeback walks, in
    /// order (differential tests only).
    #[cfg(test)]
    victims: Vec<(FileId, f64)>,
    anonymous: f64,
    /// Incrementally maintained sum of `FilePages::cached` over all files,
    /// so that [`KernelCache::cached`] (polled on every simulated request) is
    /// O(1) instead of a scan over the file table.
    cached_total: f64,
    /// Incrementally maintained sum of `FilePages::dirty` over all files.
    dirty_total: f64,
    /// Cache-group (tenant) assignment per file. Configuration, not cache
    /// state: assignments survive eviction and crashes.
    group_of: HashMap<FileId, u32>,
    /// Per-group byte totals, mirrored at every site that moves
    /// `cached_total` / `dirty_total` (verified by the debug oracle).
    group_bytes: HashMap<u32, GroupBytes>,
    trace: MemoryTrace,
    counters: KernelCacheCounters,
    /// Replacement policy: decides victim-file ordering, second chances and
    /// re-access classification via the file-granular trait hooks. The
    /// mechanism (slab, chains, ledgers) above is policy-independent.
    policy: Box<dyn ReplacementPolicy>,
    stop: bool,
}

impl State {
    fn slot(&self, i: u32) -> &FileSlot {
        self.slots[i as usize].as_ref().expect("vacant file slot")
    }

    fn slot_mut(&mut self, i: u32) -> &mut FileSlot {
        self.slots[i as usize].as_mut().expect("vacant file slot")
    }

    fn pages(&self, file: &FileId) -> Option<&FilePages> {
        self.index.get(file).map(|&i| &self.slot(i).pages)
    }

    /// Returns the slab slot of `file`, creating an empty one if needed.
    fn ensure_slot(&mut self, file: &FileId) -> u32 {
        if let Some(&i) = self.index.get(file) {
            return i;
        }
        let slot = FileSlot {
            file: file.clone(),
            pages: FilePages::default(),
            meta: FileMeta::default(),
            resident: RangeSet::default(),
            dirty: RangeSet::default(),
            clean_key: None,
            dirty_key: None,
            link: UNLINKED,
            linked: false,
            stale_since: None,
        };
        let i = match self.free_slots.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                let i = (self.slots.len() - 1) as u32;
                assert!(i != NIL, "file slab exhausted u32 index space");
                i
            }
        };
        self.index.insert(file.clone(), i);
        i
    }

    /// Body of [`KernelCache::insert_clean_range`] at time `now`.
    fn insert_clean(&mut self, file: &FileId, start: f64, end: f64, now: SimTime) -> f64 {
        let i = self.ensure_slot(file);
        let added = {
            let st = &mut *self;
            let slot = st.slots[i as usize].as_mut().expect("vacant file slot");
            let added = (end - start) - slot.resident.covered_len(start, end);
            slot.resident.insert(start, end);
            slot.pages.inactive_clean += added;
            slot.pages.last_access = now;
            st.policy.file_admit(&slot.file, &mut slot.meta);
            added
        };
        self.reindex(i);
        if added > EPS {
            self.cached_total += added;
            self.group_adjust(file, added, 0.0);
        }
        added
    }

    /// Body of [`KernelCache::insert_dirty_range`] at time `now`.
    fn insert_dirty(&mut self, file: &FileId, start: f64, end: f64, now: SimTime) {
        let i = self.ensure_slot(file);
        // A member that held no dirty bytes across a writeback call counts
        // as unlinked by it, so it re-enters at the tail.
        if self
            .slot(i)
            .stale_since
            .is_some_and(|e| self.dirty_prunes > e)
        {
            self.unlink(i);
        }
        let (added, redirtied) = {
            let st = &mut *self;
            let slot = st.slots[i as usize].as_mut().expect("vacant file slot");
            st.policy.file_admit(&slot.file, &mut slot.meta);
            let overlap = slot.resident.covered_len(start, end);
            let added = (end - start) - overlap;
            slot.resident.insert(start, end);
            slot.dirty.insert(start, end);
            let pages = &mut slot.pages;
            pages.inactive_dirty += added;
            // Overlapped pages turn dirty where they sit; pages of the
            // overlap that were already dirty need no accounting change.
            let redirty_inactive = pages.inactive_clean.min(overlap);
            pages.inactive_clean -= redirty_inactive;
            pages.inactive_dirty += redirty_inactive;
            let redirty_active = pages.active_clean.min(overlap - redirty_inactive);
            pages.active_clean -= redirty_active;
            pages.active_dirty += redirty_active;
            pages.last_access = now;
            if pages.oldest_dirty.is_none() {
                pages.oldest_dirty = Some(now);
            }
            (added, redirty_inactive + redirty_active)
        };
        self.link(i);
        self.reindex(i);
        self.cached_total += added;
        self.dirty_total += added + redirtied;
        self.group_adjust(file, added, added + redirtied);
    }

    /// Brings slot `i`'s victim-index entries in line with its page state:
    /// inserts, re-keys or removes each entry as membership and key demand.
    /// O(log F); a no-op when nothing changed. Called after every mutation
    /// of a slot's pages, `last_access` or policy metadata.
    fn reindex(&mut self, i: u32) {
        let st = &mut *self;
        let slot = st.slots[i as usize].as_mut().expect("vacant file slot");
        let clean = (slot.pages.clean() > EPS)
            .then(|| (st.policy.file_rank(&slot.meta), slot.pages.last_access));
        if clean != slot.clean_key {
            if let Some((rank, t)) = slot.clean_key {
                st.clean_index.remove(&(rank, t, slot.file.clone()));
            }
            if let Some((rank, t)) = clean {
                st.clean_index.insert((rank, t, slot.file.clone()), i);
            }
            slot.clean_key = clean;
        }
        let dirty = (slot.pages.dirty() > EPS).then(|| dirty_time(&slot.pages));
        if dirty != slot.dirty_key {
            if let Some(t) = slot.dirty_key {
                st.dirty_index.remove(&(t, slot.file.clone()));
            }
            if let Some(t) = dirty {
                st.dirty_index.insert((t, slot.file.clone()), i);
            }
            slot.dirty_key = dirty;
        }
        if slot.linked && dirty.is_none() {
            slot.stale_since.get_or_insert(st.dirty_prunes);
        } else {
            slot.stale_since = None;
        }
    }

    /// Drops slot `i` from both victim indexes and the has-dirty chain.
    fn deindex(&mut self, i: u32) {
        self.unlink(i);
        let slot = self.slot_mut(i);
        let file = slot.file.clone();
        let (clean, dirty) = (slot.clean_key.take(), slot.dirty_key.take());
        if let Some((rank, t)) = clean {
            self.clean_index.remove(&(rank, t, file.clone()));
        }
        if let Some(t) = dirty {
            self.dirty_index.remove(&(t, file));
        }
    }

    /// Links slot `i` at the tail of the has-dirty chain (no-op if already a
    /// member). O(1).
    fn link(&mut self, i: u32) {
        if self.slot(i).linked {
            return;
        }
        let tail = self.chain.tail;
        {
            let s = self.slot_mut(i);
            s.linked = true;
            s.link = Link {
                prev: tail,
                next: NIL,
            };
        }
        if tail != NIL {
            self.slot_mut(tail).link.next = i;
        } else {
            self.chain.head = i;
        }
        self.chain.tail = i;
    }

    /// Unlinks slot `i` from the has-dirty chain (no-op if not a member).
    /// O(1).
    fn unlink(&mut self, i: u32) {
        if !self.slot(i).linked {
            return;
        }
        let Link { prev, next } = self.slot(i).link;
        if prev != NIL {
            self.slot_mut(prev).link.next = next;
        } else {
            self.chain.head = next;
        }
        if next != NIL {
            self.slot_mut(next).link.prev = prev;
        } else {
            self.chain.tail = prev;
        }
        let s = self.slot_mut(i);
        s.link = UNLINKED;
        s.linked = false;
        s.stale_since = None;
    }

    /// The has-dirty chain members that hold dirty bytes, in chain order,
    /// unlinking the ones that no longer do. O(chain length); only
    /// [`KernelCache::write_back_expired`] needs the chain order, because
    /// it sums `f64` byte counts in it.
    fn chain_candidates(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = self.chain.head;
        while i != NIL {
            let next = self.slot(i).link.next;
            if self.slot(i).pages.dirty() > EPS {
                out.push(i);
            } else {
                self.unlink(i);
            }
            i = next;
        }
        out
    }

    /// Reclaims up to `amount` clean bytes, walking the clean index from the
    /// front: files of other groups (when `group` is set) and `exclude` are
    /// skipped. The first pass also skips files being written (when
    /// `protect` is set) and grants reference-bit second chances; a second
    /// pass without those skips runs only if the first fell short. Returns
    /// the evicted amount. O(log F) per visited file.
    fn reclaim(
        &mut self,
        amount: f64,
        exclude: Option<&FileId>,
        group: Option<u32>,
        protect: bool,
    ) -> f64 {
        #[cfg(test)]
        let reference = self.reference.then(|| self.reference_clean_order());
        #[cfg(not(test))]
        let reference: Option<Vec<u32>> = None;
        self.scans.evict_calls += 1;
        let use_ref = self.policy.uses_reference_bits();
        let mut evicted = 0.0;
        // Slots whose keys may have changed; re-keyed once the walks end so
        // that the index a walk iterates stays frozen for the whole call.
        let mut touched = Vec::new();
        // First pass: respect the write-open protection (and, under a
        // reference-bit policy, grant referenced files one second chance);
        // second pass: ignore both if we are still short (the kernel will
        // reclaim those pages too under sufficient pressure).
        for respect_protection in [true, false] {
            let mut walk = Walk::new();
            loop {
                if evicted >= amount - EPS {
                    break;
                }
                let Some(i) = walk.next(&self.clean_index, reference.as_deref()) else {
                    break;
                };
                self.scans.evict_visited += 1;
                let st = &mut *self;
                let slot = st.slots[i as usize].as_mut().expect("vacant file slot");
                if exclude.is_some_and(|f| f == &slot.file)
                    || group.is_some_and(|g| st.group_of.get(&slot.file) != Some(&g))
                    || (respect_protection && protect && slot.pages.write_open)
                {
                    continue;
                }
                if respect_protection && use_ref && st.policy.file_second_chance(&mut slot.meta) {
                    touched.push(i);
                    continue;
                }
                let removed = slot.pages.evict_clean(amount - evicted);
                if removed > EPS {
                    // Keep the range view in sync: reclaimed pages leave from
                    // the lowest offsets (the LRU end under sequential
                    // access).
                    slot.resident.trim_front(removed);
                    if slot.pages.cached() <= EPS {
                        st.policy.file_on_evict(&slot.file, &slot.meta);
                    }
                    let f = slot.file.clone();
                    st.group_adjust(&f, -removed, 0.0);
                }
                if removed > 0.0 {
                    touched.push(i);
                    #[cfg(test)]
                    self.victims.push((self.slot(i).file.clone(), removed));
                }
                evicted += removed;
            }
            if evicted >= amount - EPS || (!protect && !use_ref) {
                break;
            }
        }
        for i in touched {
            self.reindex(i);
        }
        self.counters.evicted += evicted;
        self.cached_total = (self.cached_total - evicted).max(0.0);
        evicted
    }

    /// Marks up to `amount` dirty bytes clean, oldest dirty file first,
    /// walking the dirty index from the front and skipping files of other
    /// groups when `group` is set. The caller counts the bytes and simulates
    /// the disk write. Returns the amount cleaned. O(log F) per visited
    /// file.
    fn flush(&mut self, amount: f64, group: Option<u32>) -> f64 {
        #[cfg(test)]
        let reference = self.reference.then(|| {
            // The reference prunes the chain for real (see `dirty_prunes`).
            self.chain_candidates();
            self.reference_dirty_order()
        });
        #[cfg(not(test))]
        let reference: Option<Vec<u32>> = None;
        self.scans.write_back_calls += 1;
        self.dirty_prunes += 1;
        let mut flushed = 0.0;
        let mut touched = Vec::new();
        let mut walk = Walk::new();
        loop {
            if flushed >= amount - EPS {
                break;
            }
            let Some(i) = walk.next(&self.dirty_index, reference.as_deref()) else {
                break;
            };
            self.scans.write_back_visited += 1;
            if group.is_some_and(|g| self.group_of.get(&self.slot(i).file) != Some(&g)) {
                continue;
            }
            let slot = self.slot_mut(i);
            let cleaned = slot.pages.clean_dirty(amount - flushed);
            flushed += cleaned;
            if cleaned > 0.0 {
                // Partial writeback cleans the durability ledger from the
                // lowest offsets (deterministic approximation).
                slot.dirty.trim_front(cleaned);
                let f = slot.file.clone();
                self.group_adjust(&f, 0.0, -cleaned);
                touched.push(i);
                #[cfg(test)]
                self.victims.push((f, cleaned));
            }
        }
        for i in touched {
            self.reindex(i);
        }
        self.dirty_total = (self.dirty_total - flushed).max(0.0);
        flushed
    }

    /// Applies byte deltas to the cache-group aggregates of `file` (no-op
    /// for ungrouped files). Negative deltas saturate at zero, matching the
    /// clamping of the global totals.
    fn group_adjust(&mut self, file: &FileId, d_cached: f64, d_dirty: f64) {
        let Some(&g) = self.group_of.get(file) else {
            return;
        };
        let gb = self.group_bytes.entry(g).or_default();
        gb.cached = (gb.cached + d_cached).max(0.0);
        gb.dirty = (gb.dirty + d_dirty).max(0.0);
    }

    /// Scan-based oracle for the incremental totals, the victim indexes and
    /// the has-dirty chain; compiled into debug builds only. O(F).
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(self.index.len() + self.free_slots.len(), self.slots.len());
            let (mut cached, mut dirty) = (0.0, 0.0);
            let mut group_scan: HashMap<u32, GroupBytes> = HashMap::new();
            let (mut clean_members, mut dirty_members) = (0, 0);
            for (file, &i) in &self.index {
                let s = self.slot(i);
                debug_assert!(&s.file == file, "file {file}: slot holds {}", s.file);
                let (file_cached, file_dirty) = (s.pages.cached(), s.pages.dirty());
                cached += file_cached;
                dirty += file_dirty;
                // Group aggregates must match a scan through the assignment
                // map.
                if let Some(&g) = self.group_of.get(file) {
                    let gb = group_scan.entry(g).or_default();
                    gb.cached += file_cached;
                    gb.dirty += file_dirty;
                }
                // The resident ranges and the float aggregates must describe
                // the same number of bytes, and the spans must be sorted and
                // disjoint.
                let resident = s.resident.total();
                debug_assert!(
                    (resident - file_cached).abs() <= 1e-3 + 1e-6 * file_cached.abs(),
                    "file {file}: resident ranges {resident} != cached bytes {file_cached}"
                );
                for w in s.resident.spans.windows(2) {
                    debug_assert!(
                        w[0].1 <= w[1].0 + EPS,
                        "file {file}: overlapping/unsorted resident spans"
                    );
                }
                // The recorded victim-index keys must match the slot state.
                let clean = (s.pages.clean() > EPS)
                    .then(|| (self.policy.file_rank(&s.meta), s.pages.last_access));
                debug_assert_eq!(s.clean_key, clean, "file {file}: stale clean-index key");
                let dirty_key = (file_dirty > EPS).then(|| dirty_time(&s.pages));
                debug_assert_eq!(s.dirty_key, dirty_key, "file {file}: stale dirty-index key");
                clean_members += usize::from(clean.is_some());
                dirty_members += usize::from(dirty_key.is_some());
                // Every file with dirty bytes must be a has-dirty chain
                // member (the chain may conservatively hold more; it is
                // pruned lazily), and the members without are marked.
                debug_assert!(
                    file_dirty <= EPS || s.linked,
                    "file {file} holds dirty bytes but is not in the has-dirty chain"
                );
                debug_assert_eq!(
                    s.stale_since.is_some(),
                    s.linked && dirty_key.is_none(),
                    "file {file}: wrong stale mark"
                );
            }
            debug_assert!(
                (self.cached_total - cached).abs() <= EPS + 1e-9 * cached.abs(),
                "cached_total {} != scan {}",
                self.cached_total,
                cached
            );
            debug_assert!(
                (self.dirty_total - dirty).abs() <= EPS + 1e-9 * dirty.abs(),
                "dirty_total {} != scan {}",
                self.dirty_total,
                dirty
            );
            for (&g, gb) in &self.group_bytes {
                let sc = group_scan.get(&g).copied().unwrap_or_default();
                debug_assert!(
                    (gb.cached - sc.cached).abs() <= EPS + 1e-9 * sc.cached.abs(),
                    "group {g} cached {} != scan {}",
                    gb.cached,
                    sc.cached
                );
                debug_assert!(
                    (gb.dirty - sc.dirty).abs() <= EPS + 1e-9 * sc.dirty.abs(),
                    "group {g} dirty {} != scan {}",
                    gb.dirty,
                    sc.dirty
                );
            }
            // Each index holds one entry per qualifying file, under the key
            // its slot records, and consecutive entries are strictly ordered
            // by the reference comparator: iteration order equals the
            // reference sort of exactly the qualifying files.
            debug_assert_eq!(self.clean_index.len(), clean_members);
            debug_assert_eq!(self.dirty_index.len(), dirty_members);
            let mut prev = None;
            for ((rank, t, file), &i) in &self.clean_index {
                let s = self.slot(i);
                debug_assert!(&s.file == file && s.clean_key == Some((*rank, *t)));
                let key = self.reference_clean_key(i);
                debug_assert!(prev < Some(key), "clean index out of reference order");
                prev = Some(key);
            }
            let mut prev = None;
            for ((t, file), &i) in &self.dirty_index {
                let s = self.slot(i);
                debug_assert!(&s.file == file && s.dirty_key == Some(*t));
                let key = self.reference_dirty_key(i);
                debug_assert!(prev < Some(key), "dirty index out of reference order");
                prev = Some(key);
            }
            // The has-dirty chain is structurally sound.
            let mut seen = 0usize;
            let mut prev = NIL;
            let mut i = self.chain.head;
            while i != NIL {
                let s = self.slot(i);
                debug_assert!(s.linked);
                debug_assert_eq!(s.link.prev, prev);
                prev = i;
                i = s.link.next;
                seen += 1;
                debug_assert!(seen <= self.slots.len(), "chain cycle");
            }
            debug_assert_eq!(self.chain.tail, prev);
        }
    }
}

/// Writeback-order time of a file: when its oldest dirty byte was written.
fn dirty_time(pages: &FilePages) -> SimTime {
    pages.oldest_dirty.unwrap_or(pages.last_access)
}

/// The slow reference the victim indexes replaced: collect every qualifying
/// file and sort. Backs the debug oracle and the differential tests.
#[cfg(any(test, debug_assertions))]
impl State {
    /// Eviction-order key of slot `i`, computed afresh from its state.
    fn reference_clean_key(&self, i: u32) -> (u32, SimTime, &FileId) {
        let s = self.slot(i);
        (self.policy.file_rank(&s.meta), s.pages.last_access, &s.file)
    }

    /// Writeback-order key of slot `i`, computed afresh from its state.
    fn reference_dirty_key(&self, i: u32) -> (SimTime, &FileId) {
        let s = self.slot(i);
        (dirty_time(&s.pages), &s.file)
    }

    /// Every file holding clean bytes, in eviction order.
    #[cfg(test)]
    fn reference_clean_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = self
            .index
            .values()
            .copied()
            .filter(|&i| self.slot(i).pages.clean() > EPS)
            .collect();
        order.sort_by(|&a, &b| {
            self.reference_clean_key(a)
                .cmp(&self.reference_clean_key(b))
        });
        order
    }

    /// Every file holding dirty bytes, in writeback order.
    #[cfg(test)]
    fn reference_dirty_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = self
            .index
            .values()
            .copied()
            .filter(|&i| self.slot(i).pages.dirty() > EPS)
            .collect();
        order.sort_by(|&a, &b| {
            self.reference_dirty_key(a)
                .cmp(&self.reference_dirty_key(b))
        });
        order
    }
}

/// The emulated kernel page cache of one host.
#[derive(Clone)]
pub struct KernelCache {
    ctx: SimContext,
    tuning: KernelTuning,
    memory: MemoryDevice,
    disk: Disk,
    state: Rc<RefCell<State>>,
}

impl KernelCache {
    /// Creates an emulated page cache.
    ///
    /// # Panics
    /// Panics if the tunables are invalid.
    pub fn new(ctx: &SimContext, tuning: KernelTuning, memory: MemoryDevice, disk: Disk) -> Self {
        tuning.validate().expect("invalid kernel tuning");
        KernelCache {
            ctx: ctx.clone(),
            tuning,
            memory,
            disk,
            state: Rc::new(RefCell::new(State {
                index: HashMap::new(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                clean_index: BTreeMap::new(),
                dirty_index: BTreeMap::new(),
                chain: Chain::default(),
                dirty_prunes: 0,
                scans: ScanCounters::default(),
                #[cfg(test)]
                reference: false,
                #[cfg(test)]
                victims: Vec::new(),
                anonymous: 0.0,
                cached_total: 0.0,
                dirty_total: 0.0,
                group_of: HashMap::new(),
                group_bytes: HashMap::new(),
                trace: MemoryTrace::new(),
                counters: KernelCacheCounters::default(),
                policy: tuning.eviction_policy.build(),
                stop: false,
            })),
        }
    }

    /// The kernel tunables.
    pub fn tuning(&self) -> &KernelTuning {
        &self.tuning
    }

    /// The disk dirty pages are written back to.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The memory bus.
    pub fn memory(&self) -> &MemoryDevice {
        &self.memory
    }

    /// Total cached bytes. O(1): maintained incrementally by every mutation.
    pub fn cached(&self) -> f64 {
        self.state.borrow().cached_total
    }

    /// Total dirty bytes. O(1): maintained incrementally by every mutation.
    pub fn dirty(&self) -> f64 {
        self.state.borrow().dirty_total
    }

    /// Anonymous application memory.
    pub fn anonymous(&self) -> f64 {
        self.state.borrow().anonymous
    }

    /// Free memory (total minus cache minus anonymous, clamped at zero).
    pub fn free_memory(&self) -> f64 {
        (self.tuning.total_memory - self.cached() - self.anonymous()).max(0.0)
    }

    /// Memory available to the page cache (total minus anonymous).
    pub fn available_memory(&self) -> f64 {
        (self.tuning.total_memory - self.anonymous()).max(0.0)
    }

    /// Cached bytes of one file.
    pub fn cached_amount(&self, file: &FileId) -> f64 {
        self.state
            .borrow()
            .pages(file)
            .map(FilePages::cached)
            .unwrap_or(0.0)
    }

    /// Cached bytes per file.
    pub fn cached_per_file(&self) -> BTreeMap<FileId, f64> {
        let s = self.state.borrow();
        s.index
            .iter()
            .map(|(k, &i)| (k, &s.slot(i).pages))
            .filter(|(_, p)| p.cached() > EPS)
            .map(|(k, p)| (k.clone(), p.cached()))
            .collect()
    }

    /// Aggregate counters.
    pub fn counters(&self) -> KernelCacheCounters {
        self.state.borrow().counters
    }

    /// Host-cost counters of the eviction and writeback victim walks.
    pub fn scan_counters(&self) -> ScanCounters {
        self.state.borrow().scans
    }

    /// Records readahead disk traffic (bytes actually read ahead of demand).
    pub fn note_prefetch(&self, bytes: f64) {
        if bytes > 0.0 {
            self.state.borrow_mut().counters.prefetched += bytes;
        }
    }

    /// Records time a writer spent blocked in dirty-page throttling.
    pub fn note_throttle_stall(&self, seconds: f64) {
        if seconds > 0.0 {
            self.state.borrow_mut().counters.throttle_stall_seconds += seconds;
        }
    }

    /// Registers anonymous application memory.
    pub fn use_anonymous_memory(&self, amount: f64) {
        if amount > 0.0 {
            self.state.borrow_mut().anonymous += amount;
        }
    }

    /// Releases anonymous application memory (saturating at zero).
    pub fn release_anonymous_memory(&self, amount: f64) {
        if amount > 0.0 {
            let mut s = self.state.borrow_mut();
            s.anonymous = (s.anonymous - amount).max(0.0);
        }
    }

    /// Marks a file as being written (protected from eviction) or not.
    pub fn set_write_open(&self, file: &FileId, open: bool) {
        let mut s = self.state.borrow_mut();
        let i = s.ensure_slot(file);
        s.slot_mut(i).pages.write_open = open;
    }

    /// Drops all cached pages of a file.
    pub fn invalidate_file(&self, file: &FileId) -> f64 {
        let mut s = self.state.borrow_mut();
        let Some(i) = s.index.remove(file) else {
            return 0.0;
        };
        s.deindex(i);
        let pages = s.slots[i as usize]
            .take()
            .expect("indexed slot is live")
            .pages;
        s.free_slots.push(i);
        s.cached_total = (s.cached_total - pages.cached()).max(0.0);
        s.dirty_total = (s.dirty_total - pages.dirty()).max(0.0);
        s.group_adjust(file, -pages.cached(), -pages.dirty());
        s.debug_validate();
        pages.cached()
    }

    /// Assigns `file` to cache group `group` (a tenant, in memcg terms), or
    /// clears the assignment with `None`. The file's resident and dirty
    /// bytes move to the new group's aggregates; future cache traffic for
    /// the file is attributed there. Assignments survive eviction and
    /// crashes — they are configuration, not cache state.
    pub fn set_file_group(&self, file: &FileId, group: Option<u32>) {
        let mut s = self.state.borrow_mut();
        let (cached, dirty) = s
            .pages(file)
            .map(|p| (p.cached(), p.dirty()))
            .unwrap_or((0.0, 0.0));
        if let Some(&old) = s.group_of.get(file) {
            if let Some(gb) = s.group_bytes.get_mut(&old) {
                gb.cached = (gb.cached - cached).max(0.0);
                gb.dirty = (gb.dirty - dirty).max(0.0);
            }
        }
        match group {
            Some(g) => {
                s.group_of.insert(file.clone(), g);
                let gb = s.group_bytes.entry(g).or_default();
                gb.cached += cached;
                gb.dirty += dirty;
            }
            None => {
                s.group_of.remove(file);
            }
        }
        s.debug_validate();
    }

    /// Cached bytes (clean + dirty) currently attributed to a cache group.
    pub fn group_cached(&self, group: u32) -> f64 {
        self.state
            .borrow()
            .group_bytes
            .get(&group)
            .map_or(0.0, |gb| gb.cached)
    }

    /// Dirty bytes currently attributed to a cache group.
    pub fn group_dirty(&self, group: u32) -> f64 {
        self.state
            .borrow()
            .group_bytes
            .get(&group)
            .map_or(0.0, |gb| gb.dirty)
    }

    /// Evicts up to `amount` bytes of clean pages belonging to one cache
    /// group. Same victim ordering and protection passes as
    /// [`KernelCache::evict`], restricted to the group's files.
    pub fn evict_group(&self, amount: f64, group: u32) -> f64 {
        if amount <= EPS {
            return 0.0;
        }
        let mut s = self.state.borrow_mut();
        let evicted = s.reclaim(
            amount,
            None,
            Some(group),
            self.tuning.protect_files_being_written,
        );
        s.debug_validate();
        evicted
    }

    /// Writes back up to `amount` bytes of one cache group's dirty pages,
    /// oldest dirty file first, simulating the disk writes. Counted as
    /// throttled (synchronous) writeback. Returns the amount written back.
    pub async fn write_back_group(&self, amount: f64, group: u32) -> f64 {
        if amount <= EPS {
            return 0.0;
        }
        let flushed = {
            let mut s = self.state.borrow_mut();
            let flushed = s.flush(amount, Some(group));
            s.counters.throttled_writeback += flushed;
            s.debug_validate();
            flushed
        };
        if flushed > EPS {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Enforces memcg-style limits on one cache group: writes back the
    /// group's dirty pages above `max_dirty`, evicts its clean pages above
    /// `max_bytes`, and — if the group still exceeds its cap because the
    /// overflow is dirty — flushes and evicts that remainder too. Disk write
    /// time is simulated. Returns `(evicted, flushed)` byte totals.
    pub async fn enforce_group_limits(
        &self,
        group: u32,
        max_bytes: f64,
        max_dirty: f64,
    ) -> (f64, f64) {
        let mut flushed = 0.0;
        let over_dirty = self.group_dirty(group) - max_dirty;
        if over_dirty > EPS {
            flushed += self.write_back_group(over_dirty, group).await;
        }
        let mut evicted = 0.0;
        let over = self.group_cached(group) - max_bytes;
        if over > EPS {
            evicted += self.evict_group(over, group);
        }
        let still_over = self.group_cached(group) - max_bytes;
        if still_over > EPS {
            flushed += self.write_back_group(still_over, group).await;
            let rest = self.group_cached(group) - max_bytes;
            if rest > EPS {
                evicted += self.evict_group(rest, group);
            }
        }
        (evicted, flushed)
    }

    /// Evicts up to `amount` bytes of clean pages, lowest-ranked and
    /// least-recently-used file first, skipping files currently being written
    /// (if the corresponding tunable is enabled) and `exclude`. Returns the
    /// evicted amount.
    ///
    /// Victims come from the front of the clean index, ordered by
    /// `(policy rank, last_access, file name)`, so the call costs O(log F)
    /// per visited file, not a sort of every cached file. The default
    /// [`TwoList`](pagecache::EvictionPolicy::TwoList) policy ranks every
    /// file 0, reproducing the historical `(last_access, file name)`
    /// selection order exactly.
    pub fn evict(&self, amount: f64, exclude: Option<&FileId>) -> f64 {
        if amount <= EPS {
            return 0.0;
        }
        let mut s = self.state.borrow_mut();
        let evicted = s.reclaim(
            amount,
            exclude,
            None,
            self.tuning.protect_files_being_written,
        );
        s.debug_validate();
        evicted
    }

    /// Writes back up to `amount` bytes of dirty pages, oldest dirty file
    /// first (ties broken by file name), and simulates the disk writes.
    /// Returns the amount written back.
    ///
    /// Victims come from the front of the dirty index, ordered by
    /// `(oldest_dirty, file name)`: O(log F) per visited file.
    pub async fn write_back(&self, amount: f64, throttled: bool) -> f64 {
        if amount <= EPS {
            return 0.0;
        }
        let flushed = {
            let mut s = self.state.borrow_mut();
            let flushed = s.flush(amount, None);
            if throttled {
                s.counters.throttled_writeback += flushed;
            } else {
                s.counters.background_writeback += flushed;
            }
            s.debug_validate();
            flushed
        };
        if flushed > EPS {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// Writes back every dirty page older than the expiration age.
    pub async fn write_back_expired(&self) -> f64 {
        let now = self.ctx.now();
        if self.dirty() <= EPS {
            return 0.0;
        }
        let amount = {
            // Walk only the has-dirty chain members (pruning stale ones),
            // summing in chain order.
            let mut s = self.state.borrow_mut();
            let candidates = s.chain_candidates();
            candidates
                .iter()
                .map(|&i| &s.slot(i).pages)
                .filter(|p| {
                    p.oldest_dirty
                        .map(|t| now.duration_since(t) > self.tuning.dirty_expire)
                        .unwrap_or(false)
                })
                .map(FilePages::dirty)
                .sum::<f64>()
        };
        self.write_back(amount, false).await
    }

    /// Adds clean pages of a file that were just read from disk. A corollary
    /// of [`KernelCache::insert_clean_range`] at the file's resident
    /// high-water mark (sequential whole-file traffic lands at its true
    /// offsets).
    pub fn insert_clean(&self, file: &FileId, bytes: f64) {
        let start = self.resident_high_water(file);
        self.insert_clean_range(file, start, start + bytes);
    }

    /// Adds dirty pages of a file that were just written by an application.
    /// A corollary of [`KernelCache::insert_dirty_range`] at the file's
    /// resident high-water mark.
    pub fn insert_dirty(&self, file: &FileId, bytes: f64) {
        let start = self.resident_high_water(file);
        self.insert_dirty_range(file, start, start + bytes);
    }

    /// Bytes of `[start, end)` of `file` that are resident in the cache.
    pub fn resident_len(&self, file: &FileId, start: f64, end: f64) -> f64 {
        let s = self.state.borrow();
        s.index
            .get(file)
            .map_or(0.0, |&i| s.slot(i).resident.covered_len(start, end))
    }

    /// The sub-ranges of `[start, end)` of `file` that are *not* resident, in
    /// offset order — the disk-read plan of a range read. Callers capture
    /// this *before* any reclaim they trigger, so the bytes they insert
    /// afterwards are exactly the bytes they read from disk.
    pub fn uncovered(&self, file: &FileId, start: f64, end: f64) -> Vec<(f64, f64)> {
        let s = self.state.borrow();
        s.index.get(file).map_or_else(
            || vec![(start, end)],
            |&i| s.slot(i).resident.gaps(start, end),
        )
    }

    /// End offset of the file's highest resident span (0 when nothing is
    /// cached).
    pub fn resident_high_water(&self, file: &FileId) -> f64 {
        let s = self.state.borrow();
        s.index
            .get(file)
            .map_or(0.0, |&i| s.slot(i).resident.high_water())
    }

    /// Adds the *non-resident* part of `[start, end)` of `file` as clean
    /// pages just read from disk. Already-resident bytes are left untouched
    /// (the caller served them from the cache), so the float aggregates and
    /// the range view grow by the same amount. Returns the number of bytes
    /// actually inserted.
    pub fn insert_clean_range(&self, file: &FileId, start: f64, end: f64) -> f64 {
        if end - start <= EPS {
            return 0.0;
        }
        let mut s = self.state.borrow_mut();
        let added = s.insert_clean(file, start, end, self.ctx.now());
        s.debug_validate();
        added
    }

    /// Adds `[start, end)` of `file` as dirty pages just written by an
    /// application. Non-resident bytes enter the cache as new inactive dirty
    /// pages; bytes that were already resident are *re-dirtied* in place
    /// (clean pages move to the dirty share, already-dirty pages stay
    /// dirty), so rewriting the same record does not inflate the cache.
    pub fn insert_dirty_range(&self, file: &FileId, start: f64, end: f64) {
        if end - start <= EPS {
            return;
        }
        let mut s = self.state.borrow_mut();
        s.insert_dirty(file, start, end, self.ctx.now());
        s.debug_validate();
    }

    /// Writes back every dirty page of one file (`fsync`), simulating the
    /// disk write. O(1) bookkeeping via the file's slab slot. Counted as
    /// throttled (synchronous) writeback. Returns the amount written back.
    pub async fn write_back_file(&self, file: &FileId) -> f64 {
        let flushed = {
            let mut s = self.state.borrow_mut();
            let Some(&i) = s.index.get(file) else {
                return 0.0;
            };
            let dirty = s.slot(i).pages.dirty();
            if dirty <= EPS {
                return 0.0;
            }
            let cleaned = s.slot_mut(i).pages.clean_dirty(dirty);
            // Every written position of the file is now on disk.
            s.slot_mut(i).dirty = RangeSet::default();
            s.reindex(i);
            s.counters.throttled_writeback += cleaned;
            s.dirty_total = (s.dirty_total - cleaned).max(0.0);
            s.group_adjust(file, 0.0, -cleaned);
            s.debug_validate();
            cleaned
        };
        if flushed > EPS {
            self.disk.write(flushed).await;
        }
        flushed
    }

    /// The byte ranges of `file` that were written but have not yet reached
    /// the disk — the durability ledger a crash turns into lost data.
    /// Sorted and disjoint; empty for fully written-back (or unknown) files.
    pub fn dirty_ranges(&self, file: &FileId) -> Vec<(f64, f64)> {
        let s = self.state.borrow();
        s.index
            .get(file)
            .map_or_else(Vec::new, |&i| s.slot(i).dirty.spans.clone())
    }

    /// Simulated power loss: drops every cached page and all anonymous
    /// memory, and returns each file's lost dirty byte ranges (sorted by
    /// file name). The trace and counters survive — they describe the run,
    /// not the volatile state. Takes no simulated time.
    pub fn crash_discard(&self) -> Vec<(FileId, Vec<(f64, f64)>)> {
        let mut s = self.state.borrow_mut();
        let entries: Vec<(FileId, u32)> = s.index.iter().map(|(k, &i)| (k.clone(), i)).collect();
        let mut lost = Vec::new();
        for (file, i) in entries {
            let slot = s.slots[i as usize].take().expect("indexed slot is live");
            if !slot.dirty.spans.is_empty() {
                lost.push((file, slot.dirty.spans));
            }
        }
        lost.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        s.index.clear();
        s.slots.clear();
        s.free_slots.clear();
        s.clean_index.clear();
        s.dirty_index.clear();
        s.chain = Chain::default();
        s.anonymous = 0.0;
        s.cached_total = 0.0;
        s.dirty_total = 0.0;
        // Group *aggregates* are volatile cache state and reset with it; the
        // group *assignments* are configuration and survive the crash.
        s.group_bytes.clear();
        s.debug_validate();
        lost
    }

    /// Records a second access to `bytes` of a file: promotes them from the
    /// inactive to the active list and notifies the replacement policy
    /// (reference bit / hotness / generation stamp, depending on the policy).
    pub fn touch(&self, file: &FileId, bytes: f64) {
        if bytes <= EPS {
            return;
        }
        let now = self.ctx.now();
        let mut s = self.state.borrow_mut();
        let st = &mut *s;
        if let Some(&i) = st.index.get(file) {
            let slot = st.slots[i as usize].as_mut().expect("vacant file slot");
            slot.pages.promote(bytes);
            slot.pages.last_access = now;
            st.policy.file_touch(&slot.file, &mut slot.meta);
            st.reindex(i);
        }
    }

    /// The dirty threshold in bytes (`dirty_ratio * available memory`).
    pub fn dirty_threshold(&self) -> f64 {
        self.tuning.dirty_ratio * self.available_memory()
    }

    /// The background writeback threshold in bytes.
    pub fn background_threshold(&self) -> f64 {
        self.tuning.dirty_background_ratio * self.available_memory()
    }

    /// Records a memory sample into the trace and returns it.
    pub fn sample(&self) -> MemorySample {
        let now = self.ctx.now();
        let cached = self.cached();
        let dirty = self.dirty();
        let anonymous = self.anonymous();
        let sample = MemorySample {
            time: now,
            total: self.tuning.total_memory,
            used: (cached + anonymous).min(self.tuning.total_memory),
            cached,
            dirty,
            anonymous,
        };
        self.state.borrow_mut().trace.push(sample.clone());
        sample
    }

    /// The memory profile collected so far.
    pub fn trace(&self) -> MemoryTrace {
        self.state.borrow().trace.clone()
    }

    /// Labelled snapshot of the cache content per file.
    pub fn cache_content_snapshot(&self, label: impl Into<String>) -> CacheContentSnapshot {
        CacheContentSnapshot {
            label: label.into(),
            time: self.ctx.now().as_secs(),
            per_file: self.cached_per_file(),
        }
    }

    /// Spawns the background writeback threads (kupdate/flusher): every
    /// `writeback_interval` seconds they write back expired dirty pages, plus
    /// everything above the background dirty threshold.
    pub fn spawn_writeback_threads(&self) -> JoinHandle<()> {
        let cache = self.clone();
        self.ctx
            .clone()
            .spawn(async move { cache.run_writeback_loop().await })
    }

    /// Body of the background writeback loop.
    pub async fn run_writeback_loop(&self) {
        loop {
            if self.state.borrow().stop {
                break;
            }
            let start = self.ctx.now();
            self.write_back_expired().await;
            let over_background = self.dirty() - self.background_threshold();
            if over_background > EPS {
                self.write_back(over_background, false).await;
            }
            let elapsed = self.ctx.now().duration_since(start);
            if elapsed < self.tuning.writeback_interval {
                self.ctx
                    .sleep(self.tuning.writeback_interval - elapsed)
                    .await;
            }
        }
    }

    /// Asks the background writeback loop to exit at its next wakeup.
    pub fn stop(&self) {
        self.state.borrow_mut().stop = true;
    }
}

#[cfg(test)]
mod index_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use pagecache::EvictionPolicy;
    use storage_model::{units::MB, DeviceSpec};

    fn setup(total_mb: f64) -> (Simulation, KernelCache) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(2764.0 * MB, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "d",
            DeviceSpec::asymmetric(510.0 * MB, 420.0 * MB, 0.0, f64::INFINITY),
        );
        let cache = KernelCache::new(&ctx, KernelTuning::with_memory(total_mb * MB), memory, disk);
        (sim, cache)
    }

    fn setup_policy(total_mb: f64, policy: EvictionPolicy) -> (Simulation, KernelCache) {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory =
            MemoryDevice::new(&ctx, DeviceSpec::symmetric(2764.0 * MB, 0.0, f64::INFINITY));
        let disk = Disk::new(
            &ctx,
            "d",
            DeviceSpec::asymmetric(510.0 * MB, 420.0 * MB, 0.0, f64::INFINITY),
        );
        let cache = KernelCache::new(
            &ctx,
            KernelTuning::with_memory(total_mb * MB).with_eviction_policy(policy),
            memory,
            disk,
        );
        (sim, cache)
    }

    #[test]
    fn group_aggregates_follow_inserts_writeback_and_eviction() {
        let (sim, cache) = setup(10_000.0);
        cache.set_file_group(&"a".into(), Some(1));
        cache.set_file_group(&"b".into(), Some(2));
        cache.insert_clean(&"a".into(), 100.0 * MB);
        cache.insert_clean(&"shared".into(), 50.0 * MB); // ungrouped
        let c = cache.clone();
        let h = sim.spawn(async move {
            c.insert_dirty(&"b".into(), 80.0 * MB);
            approx(c.group_cached(1), 100.0 * MB);
            approx(c.group_cached(2), 80.0 * MB);
            approx(c.group_dirty(2), 80.0 * MB);
            // Group writeback cleans only group 2.
            let flushed = c.write_back_group(f64::INFINITY, 2).await;
            approx(flushed, 80.0 * MB);
            approx(c.group_dirty(2), 0.0);
            approx(c.group_cached(2), 80.0 * MB);
            // Group eviction reclaims only group 1.
            let evicted = c.evict_group(f64::INFINITY, 1);
            approx(evicted, 100.0 * MB);
            approx(c.group_cached(1), 0.0);
            approx(c.cached_amount(&"shared".into()), 50.0 * MB);
            approx(c.cached_amount(&"b".into()), 80.0 * MB);
        });
        sim.run();
        assert!(h.is_finished());
    }

    #[test]
    fn enforce_group_limits_caps_cached_and_dirty_bytes() {
        let (sim, cache) = setup(10_000.0);
        cache.set_file_group(&"t".into(), Some(9));
        cache.insert_clean(&"t".into(), 300.0 * MB);
        let c = cache.clone();
        let h = sim.spawn(async move {
            c.insert_dirty(&"t2".into(), 200.0 * MB);
            c.set_file_group(&"t2".into(), Some(9));
            // 500 MB cached / 200 MB dirty; cap at 250 / 50.
            let (evicted, flushed) = c.enforce_group_limits(9, 250.0 * MB, 50.0 * MB).await;
            approx(flushed, 150.0 * MB);
            approx(evicted, 250.0 * MB);
            approx(c.group_cached(9), 250.0 * MB);
            approx(c.group_dirty(9), 50.0 * MB);
        });
        sim.run();
        assert!(h.is_finished());
    }

    #[test]
    fn group_assignment_survives_crash_but_aggregates_reset() {
        let (_sim, cache) = setup(10_000.0);
        cache.set_file_group(&"f".into(), Some(3));
        cache.insert_clean(&"f".into(), 100.0 * MB);
        approx(cache.group_cached(3), 100.0 * MB);
        cache.crash_discard();
        approx(cache.group_cached(3), 0.0);
        // The file still belongs to group 3 after the crash.
        cache.insert_clean(&"f".into(), 40.0 * MB);
        approx(cache.group_cached(3), 40.0 * MB);
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn accounting_and_thresholds() {
        let (_sim, cache) = setup(1000.0);
        cache.insert_clean(&"f".into(), 100.0 * MB);
        cache.insert_dirty(&"g".into(), 50.0 * MB);
        cache.use_anonymous_memory(200.0 * MB);
        approx(cache.cached(), 150.0 * MB);
        approx(cache.dirty(), 50.0 * MB);
        approx(cache.free_memory(), 650.0 * MB);
        approx(cache.available_memory(), 800.0 * MB);
        approx(cache.dirty_threshold(), 160.0 * MB);
        approx(cache.background_threshold(), 80.0 * MB);
        approx(cache.cached_amount(&"f".into()), 100.0 * MB);
        assert_eq!(cache.cached_per_file().len(), 2);
    }

    #[test]
    fn dirty_ledger_tracks_unflushed_positions() {
        let (sim, cache) = setup(1000.0);
        cache.insert_dirty_range(&"f".into(), 0.0, 50.0 * MB);
        cache.insert_dirty_range(&"f".into(), 80.0 * MB, 100.0 * MB);
        assert_eq!(
            cache.dirty_ranges(&"f".into()),
            vec![(0.0, 50.0 * MB), (80.0 * MB, 100.0 * MB)]
        );
        // fsync clears the ledger entirely.
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.write_back_file(&"f".into()).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 70.0 * MB);
        assert!(cache.dirty_ranges(&"f".into()).is_empty());
        // Redirtying after the flush starts a fresh ledger.
        cache.insert_dirty_range(&"f".into(), 10.0 * MB, 20.0 * MB);
        assert_eq!(
            cache.dirty_ranges(&"f".into()),
            vec![(10.0 * MB, 20.0 * MB)]
        );
    }

    #[test]
    fn partial_writeback_trims_the_ledger_from_the_front() {
        let (sim, cache) = setup(1000.0);
        cache.insert_dirty_range(&"f".into(), 0.0, 100.0 * MB);
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.write_back(40.0 * MB, false).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 40.0 * MB);
        assert_eq!(
            cache.dirty_ranges(&"f".into()),
            vec![(40.0 * MB, 100.0 * MB)]
        );
    }

    #[test]
    fn crash_discard_returns_lost_ranges_and_resets_state() {
        let (sim, cache) = setup(1000.0);
        cache.insert_clean(&"clean".into(), 100.0 * MB);
        cache.insert_dirty_range(&"wal".into(), 0.0, 30.0 * MB);
        cache.insert_dirty_range(&"logged".into(), 0.0, 10.0 * MB);
        cache.use_anonymous_memory(50.0 * MB);
        // A written-back file has nothing to lose.
        let h = sim.spawn({
            let cache = cache.clone();
            async move { cache.write_back_file(&"logged".into()).await }
        });
        sim.run();
        approx(h.try_take_result().unwrap(), 10.0 * MB);
        let lost = cache.crash_discard();
        assert_eq!(lost, vec![("wal".into(), vec![(0.0, 30.0 * MB)])]);
        approx(cache.cached(), 0.0);
        approx(cache.dirty(), 0.0);
        approx(cache.anonymous(), 0.0);
        assert!(cache.cached_per_file().is_empty());
        // The cache keeps working after the reset.
        cache.insert_clean(&"fresh".into(), 10.0 * MB);
        approx(cache.cached(), 10.0 * MB);
    }

    #[test]
    fn crash_discard_lists_files_in_name_order() {
        let (_sim, cache) = setup(1000.0);
        let names = ["m", "b", "zz", "a", "z", "ab", "c0", "c"];
        for name in names {
            cache.insert_dirty_range(&name.into(), 0.0, MB);
        }
        let lost: Vec<String> = cache
            .crash_discard()
            .iter()
            .map(|(f, _)| f.to_string())
            .collect();
        let mut sorted: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        sorted.sort();
        assert_eq!(lost, sorted);
    }

    #[test]
    fn eviction_protects_files_being_written() {
        let (_sim, cache) = setup(1000.0);
        cache.insert_clean(&"protected".into(), 100.0 * MB);
        cache.set_write_open(&"protected".into(), true);
        cache.insert_clean(&"victim".into(), 100.0 * MB);
        let evicted = cache.evict(100.0 * MB, None);
        approx(evicted, 100.0 * MB);
        approx(cache.cached_amount(&"protected".into()), 100.0 * MB);
        approx(cache.cached_amount(&"victim".into()), 0.0);
        // Under stronger pressure even protected files are reclaimed
        // (second pass).
        let evicted = cache.evict(100.0 * MB, None);
        approx(evicted, 100.0 * MB);
        approx(cache.cached_amount(&"protected".into()), 0.0);
    }

    #[test]
    fn eviction_is_lru_ordered_and_skips_dirty() {
        let (sim, cache) = setup(1000.0);
        let ctx = sim.context();
        let c = cache.clone();
        sim.spawn(async move {
            c.insert_clean(&"old".into(), 50.0 * MB);
            ctx.sleep(1.0).await;
            c.insert_clean(&"new".into(), 50.0 * MB);
            c.insert_dirty(&"dirty".into(), 50.0 * MB);
            let evicted = c.evict(60.0 * MB, None);
            approx(evicted, 60.0 * MB);
            // The older file went first.
            approx(c.cached_amount(&"old".into()), 0.0);
            approx(c.cached_amount(&"new".into()), 40.0 * MB);
            // Dirty data is never evicted.
            approx(c.cached_amount(&"dirty".into()), 50.0 * MB);
        });
        sim.run();
    }

    #[test]
    fn write_back_cleans_and_writes_to_disk() {
        let (sim, cache) = setup(10_000.0);
        let h = sim.spawn({
            let cache = cache.clone();
            async move {
                cache.insert_dirty(&"f".into(), 420.0 * MB);
                let flushed = cache.write_back(420.0 * MB, true).await;
                (flushed, cache.dirty())
            }
        });
        sim.run();
        let (flushed, dirty) = h.try_take_result().unwrap();
        approx(flushed, 420.0 * MB);
        approx(dirty, 0.0);
        approx(sim.now().as_secs(), 1.0); // 420 MB at 420 MB/s write bandwidth
        approx(cache.counters().throttled_writeback, 420.0 * MB);
        // Data stays cached (clean) after writeback.
        approx(cache.cached(), 420.0 * MB);
    }

    #[test]
    fn background_writeback_starts_at_background_threshold() {
        let (sim, cache) = setup(1000.0);
        cache.spawn_writeback_threads();
        let c = cache.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            // 150 MB dirty > 10 % of 1000 MB: the background thread writes
            // back the 50 MB excess at its next wakeup even though nothing is
            // expired and the 20 % dirty ratio is not reached.
            c.insert_dirty(&"f".into(), 150.0 * MB);
            ctx.sleep(10.0).await;
            assert!(c.dirty() <= c.background_threshold() + 1.0);
            c.stop();
        });
        sim.run();
        assert!(cache.counters().background_writeback >= 49.0 * MB);
    }

    #[test]
    fn expired_dirty_data_is_written_back() {
        let (sim, cache) = setup(10_000.0);
        cache.spawn_writeback_threads();
        let c = cache.clone();
        let ctx = sim.context();
        sim.spawn(async move {
            // 100 MB dirty, under both thresholds: only expiration flushes it.
            c.insert_dirty(&"f".into(), 100.0 * MB);
            ctx.sleep(20.0).await;
            approx(c.dirty(), 100.0 * MB);
            ctx.sleep(20.0).await;
            approx(c.dirty(), 0.0);
            c.stop();
        });
        sim.run();
    }

    #[test]
    fn touch_promotes_to_active_list() {
        let (_sim, cache) = setup(1000.0);
        cache.insert_clean(&"f".into(), 100.0 * MB);
        cache.touch(&"f".into(), 60.0 * MB);
        // Promoted pages are protected from the first eviction pass only by
        // LRU order; total stays the same.
        approx(cache.cached_amount(&"f".into()), 100.0 * MB);
        let s = cache.state.borrow();
        let pages = s.pages(&"f".into()).unwrap();
        approx(pages.active_clean, 60.0 * MB);
        approx(pages.inactive_clean, 40.0 * MB);
    }

    #[test]
    fn clock_policy_gives_referenced_files_a_second_chance() {
        let (_sim, cache) = setup_policy(1000.0, EvictionPolicy::Clock);
        cache.insert_clean(&"a".into(), 50.0 * MB);
        cache.insert_clean(&"b".into(), 50.0 * MB);
        // The re-access sets `a`'s reference bit.
        cache.touch(&"a".into(), 10.0 * MB);
        approx(cache.evict(50.0 * MB, None), 50.0 * MB);
        // `a` would be first in name order but is spared once; `b` goes.
        approx(cache.cached_amount(&"a".into()), 50.0 * MB);
        approx(cache.cached_amount(&"b".into()), 0.0);
        // The second chance is consumed: the next eviction reclaims `a`.
        approx(cache.evict(50.0 * MB, None), 50.0 * MB);
        approx(cache.cached_amount(&"a".into()), 0.0);
    }

    #[test]
    fn two_q_reinserted_files_outrank_one_shot_scans() {
        let (_sim, cache) = setup_policy(1000.0, EvictionPolicy::TwoQ);
        cache.insert_clean(&"hot".into(), 50.0 * MB);
        // Fully reclaimed once: the file enters the ghost queue.
        approx(cache.evict(50.0 * MB, None), 50.0 * MB);
        // The re-insert is a ghost hit, classifying the file as hot (Am).
        cache.insert_clean(&"hot".into(), 50.0 * MB);
        cache.insert_clean(&"scan".into(), 50.0 * MB);
        approx(cache.evict(50.0 * MB, None), 50.0 * MB);
        // The one-shot scan ranks below the ghost-hit file and goes first.
        approx(cache.cached_amount(&"hot".into()), 50.0 * MB);
        approx(cache.cached_amount(&"scan".into()), 0.0);
    }

    #[test]
    fn mglru_policy_evicts_older_generations_first() {
        let (_sim, cache) = setup_policy(1000.0, EvictionPolicy::MglruGen);
        cache.insert_clean(&"z_old".into(), 50.0 * MB);
        cache.insert_clean(&"a_filler".into(), 1.0 * MB);
        // Enough touches to advance the generation counter past one aging
        // period, so later admissions carry a younger stamp.
        for _ in 0..40 {
            cache.touch(&"a_filler".into(), 1.0);
        }
        cache.insert_clean(&"a_young".into(), 50.0 * MB);
        approx(cache.evict(50.0 * MB, None), 50.0 * MB);
        // Without generation ranks the name tie-break would reclaim
        // `a_young` first; the older stamp of `z_old` outweighs it.
        approx(cache.cached_amount(&"z_old".into()), 0.0);
        approx(cache.cached_amount(&"a_young".into()), 50.0 * MB);
    }

    #[test]
    fn invalidate_and_release() {
        let (_sim, cache) = setup(1000.0);
        cache.insert_clean(&"f".into(), 100.0 * MB);
        cache.use_anonymous_memory(50.0 * MB);
        approx(cache.invalidate_file(&"f".into()), 100.0 * MB);
        approx(cache.cached(), 0.0);
        cache.release_anonymous_memory(500.0 * MB);
        approx(cache.anonymous(), 0.0);
        let snap = cache.cache_content_snapshot("end");
        assert_eq!(snap.per_file.len(), 0);
    }

    /// Tiny xorshift PRNG (no external dependencies; same generator family
    /// as the harness dispatcher).
    pub(super) struct XorShift(u64);

    impl XorShift {
        pub(super) fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A value in `[0, bound)`.
        pub(super) fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }

    /// Naive per-page model of a [`RangeSet`]: a `HashSet` of resident page
    /// indices. All driver operations are page-aligned, so every f64 value
    /// involved is an exact integer and comparisons can be byte-exact.
    #[derive(Default)]
    struct NaivePages(std::collections::HashSet<u64>);

    const PROP_PAGE: f64 = 4096.0;

    impl NaivePages {
        fn insert(&mut self, a: u64, b: u64) {
            self.0.extend(a..b);
        }

        /// Removes `k` pages from the lowest offsets.
        fn trim_front(&mut self, k: u64) {
            let mut pages: Vec<u64> = self.0.iter().copied().collect();
            pages.sort_unstable();
            for p in pages.into_iter().take(k as usize) {
                self.0.remove(&p);
            }
        }

        fn covered(&self, a: u64, b: u64) -> u64 {
            (a..b).filter(|p| self.0.contains(p)).count() as u64
        }

        /// Maximal uncovered page runs within `[a, b)`, as byte ranges.
        fn gaps(&self, a: u64, b: u64) -> Vec<(f64, f64)> {
            let mut out = Vec::new();
            let mut run_start = None;
            for p in a..b {
                match (self.0.contains(&p), run_start) {
                    (false, None) => run_start = Some(p),
                    (true, Some(s)) => {
                        out.push((s as f64 * PROP_PAGE, p as f64 * PROP_PAGE));
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = run_start {
                out.push((s as f64 * PROP_PAGE, b as f64 * PROP_PAGE));
            }
            out
        }

        fn total(&self) -> u64 {
            self.0.len() as u64
        }

        fn high_water(&self) -> f64 {
            self.0
                .iter()
                .max()
                .map_or(0.0, |&p| (p + 1) as f64 * PROP_PAGE)
        }
    }

    /// Property test: 12k randomized page-aligned insert/trim/query ops on a
    /// [`RangeSet`] must agree byte-exactly with the naive per-page model —
    /// total coverage, covered length of arbitrary ranges, the uncovered-gap
    /// plan, and the high-water mark, after every single op.
    #[test]
    fn range_set_matches_naive_page_model() {
        const PAGES: u64 = 512;
        const OPS: usize = 12_000;
        let mut rng = XorShift::new(0x9e3779b97f4a7c15);
        let mut rs = RangeSet::default();
        let mut naive = NaivePages::default();
        for op in 0..OPS {
            match rng.below(4) {
                0 | 1 => {
                    // Insert a random page range (inserts dominate so the
                    // set stays populated).
                    let a = rng.below(PAGES);
                    let b = (a + 1 + rng.below(64)).min(PAGES);
                    rs.insert(a as f64 * PROP_PAGE, b as f64 * PROP_PAGE);
                    naive.insert(a, b);
                }
                2 => {
                    // Trim a random number of pages from the front
                    // (occasionally more than are resident).
                    let k = rng.below(96);
                    rs.trim_front(k as f64 * PROP_PAGE);
                    naive.trim_front(k);
                }
                _ => {
                    // Zero-length insert: must be a no-op.
                    let a = rng.below(PAGES);
                    rs.insert(a as f64 * PROP_PAGE, a as f64 * PROP_PAGE);
                }
            }
            // Byte-exact coverage.
            assert_eq!(
                rs.total(),
                naive.total() as f64 * PROP_PAGE,
                "op {op}: total"
            );
            assert_eq!(rs.high_water(), naive.high_water(), "op {op}: high water");
            // A random query range (possibly empty, possibly past the end).
            let qa = rng.below(PAGES + 32);
            let qb = qa + rng.below(128);
            let (fa, fb) = (qa as f64 * PROP_PAGE, qb as f64 * PROP_PAGE);
            assert_eq!(
                rs.covered_len(fa, fb),
                naive.covered(qa, qb.min(PAGES)).min(qb - qa) as f64 * PROP_PAGE,
                "op {op}: covered_len({qa}, {qb})"
            );
            assert_eq!(
                rs.gaps(fa, fb),
                naive.gaps(qa, qb),
                "op {op}: gaps({qa}, {qb})"
            );
            // Structural invariants: sorted, disjoint, non-empty spans.
            for w in rs.spans.windows(2) {
                assert!(w[0].1 < w[1].0, "op {op}: touching/unsorted spans");
            }
            assert!(rs.spans.iter().all(|&(a, b)| b > a), "op {op}: empty span");
        }
    }

    #[test]
    #[should_panic(expected = "invalid kernel tuning")]
    fn invalid_tuning_rejected() {
        let sim = Simulation::new();
        let ctx = sim.context();
        let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(MB, 0.0, f64::INFINITY));
        let disk = Disk::new(&ctx, "d", DeviceSpec::symmetric(MB, 0.0, f64::INFINITY));
        let mut tuning = KernelTuning::with_memory(1000.0 * MB);
        tuning.dirty_background_ratio = 0.9;
        let _ = KernelCache::new(&ctx, tuning, memory, disk);
    }
}
