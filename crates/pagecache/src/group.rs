//! Cache groups (tenants): the memcg-style ledger and limit algorithm shared
//! by both cache models.
//!
//! A cache group is a set of files whose cached and dirty bytes are counted
//! together and capped together, like the page counters of a memory cgroup.
//! Each cache model keeps one [`CacheGroups`] ledger and feeds it at the
//! sites where its own per-file byte totals move, so a group's totals are
//! O(1) to poll. Reclaiming a group's bytes needs no separate walk: the
//! model runs its ordinary eviction and flush walks with a [`Scope::Group`]
//! candidate filter. [`GroupLimits::enforce_group_limits`] is the one limit
//! algorithm on top of those walks.

use std::collections::HashMap;

use crate::block::FileId;
use crate::lru::EPSILON;

/// Byte totals of one cache group.
#[derive(Debug, Default, Clone, Copy)]
struct GroupBytes {
    /// Cached bytes of the group's files (clean + dirty).
    cached: f64,
    /// Dirty bytes of the group's files.
    dirty: f64,
}

/// The file → group assignments and the per-group cached and dirty byte
/// totals of one cache.
///
/// Assignments are configuration, not cache state: they survive eviction of
/// the file and crashes. The totals are cache state, kept by the owning
/// model through [`CacheGroups::adjust`] and checked by its debug oracle
/// through [`CacheGroups::check_scan`].
#[derive(Debug, Default, Clone)]
pub struct CacheGroups {
    of: HashMap<FileId, u32>,
    bytes: HashMap<u32, GroupBytes>,
}

impl CacheGroups {
    /// The group `file` is assigned to, if any. O(1) expected.
    pub fn group_of(&self, file: &FileId) -> Option<u32> {
        self.of.get(file).copied()
    }

    /// Assigns `file` to `group`, or clears its assignment with `None`.
    /// `cached` and `dirty` are the bytes of the file the cache holds now;
    /// they move from the old group's totals to the new group's, so the
    /// order of assignment and I/O does not matter.
    pub fn assign(&mut self, file: &FileId, group: Option<u32>, cached: f64, dirty: f64) {
        if let Some(old) = self.of.get(file) {
            if let Some(gb) = self.bytes.get_mut(old) {
                gb.cached = (gb.cached - cached).max(0.0);
                gb.dirty = (gb.dirty - dirty).max(0.0);
            }
        }
        match group {
            Some(g) => {
                self.of.insert(file.clone(), g);
                let gb = self.bytes.entry(g).or_default();
                gb.cached += cached;
                gb.dirty += dirty;
            }
            None => {
                self.of.remove(file);
            }
        }
    }

    /// Applies byte deltas of `file` to its group's totals; a no-op for an
    /// ungrouped file. The totals saturate at zero, like the caches' global
    /// totals.
    #[inline]
    pub fn adjust(&mut self, file: &FileId, d_cached: f64, d_dirty: f64) {
        let Some(&g) = self.of.get(file) else {
            return;
        };
        let gb = self.bytes.entry(g).or_default();
        gb.cached = (gb.cached + d_cached).max(0.0);
        gb.dirty = (gb.dirty + d_dirty).max(0.0);
    }

    /// Cached bytes (clean + dirty) of `group`. O(1).
    pub fn cached(&self, group: u32) -> f64 {
        self.bytes.get(&group).map_or(0.0, |g| g.cached)
    }

    /// Dirty bytes of `group`. O(1).
    pub fn dirty(&self, group: u32) -> f64 {
        self.bytes.get(&group).map_or(0.0, |g| g.dirty)
    }

    /// Zeroes every group's totals (the cache lost its contents in a
    /// crash); the assignments stay.
    pub fn reset_bytes(&mut self) {
        self.bytes.clear();
    }

    /// Whether a walk limited to `scope` may take bytes of `file`.
    #[inline]
    pub fn admits(&self, scope: Scope<'_>, file: &FileId) -> bool {
        match scope {
            Scope::Except(exclude) => exclude != Some(file),
            Scope::Group(g) => self.of.get(file) == Some(&g),
        }
    }

    /// Checks the totals against a full scan of the cache: `scan` yields
    /// `(file, cached, dirty)` byte amounts, in any split (per block or per
    /// file). Every group's total must match the sum over its assigned files
    /// within the cache's epsilon, and a group without scanned bytes must be
    /// at zero. The scan-based oracle of both cache models.
    pub fn check_scan<'a>(
        &self,
        scan: impl IntoIterator<Item = (&'a FileId, f64, f64)>,
    ) -> Result<(), String> {
        let mut sums: HashMap<u32, GroupBytes> = HashMap::new();
        for (file, cached, dirty) in scan {
            if let Some(&g) = self.of.get(file) {
                let gb = sums.entry(g).or_default();
                gb.cached += cached;
                gb.dirty += dirty;
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() <= EPSILON + 1e-9 * b.abs();
        for (&g, expected) in &sums {
            let actual = self.bytes.get(&g).copied().unwrap_or_default();
            if !close(actual.cached, expected.cached) || !close(actual.dirty, expected.dirty) {
                return Err(format!(
                    "group {g}: counters (cached {}, dirty {}) != scan ({}, {})",
                    actual.cached, actual.dirty, expected.cached, expected.dirty
                ));
            }
        }
        for (&g, gb) in &self.bytes {
            if !sums.contains_key(&g) && (gb.cached > EPSILON || gb.dirty > EPSILON) {
                return Err(format!(
                    "group {g}: counters ({}, {}) but no bytes in the scan",
                    gb.cached, gb.dirty
                ));
            }
        }
        Ok(())
    }
}

/// Which files an eviction or flush walk may take bytes from.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    /// Every file except the given one, if any (the global walks).
    Except(Option<&'a FileId>),
    /// Only the files of one cache group (the memcg-style walks).
    Group(u32),
}

/// A cache model that can hold a cache group under memcg-style limits. The
/// model supplies the group totals and its group-scoped eviction and flush;
/// the limit algorithm, [`GroupLimits::enforce_group_limits`], is shared.
///
/// The futures are `!Send`, like every future of the single-threaded DES
/// engine.
#[allow(async_fn_in_trait)]
pub trait GroupLimits {
    /// Cached bytes (clean + dirty) currently attributed to `group`.
    fn group_cached(&self, group: u32) -> f64;

    /// Dirty bytes currently attributed to `group`.
    fn group_dirty(&self, group: u32) -> f64;

    /// Evicts up to `amount` bytes of clean data of `group`, in the model's
    /// eviction order. Takes no simulated time. Returns the bytes evicted.
    fn evict_group(&self, amount: f64, group: u32) -> f64;

    /// Writes back up to `amount` bytes of dirty data of `group`, in the
    /// model's writeback order, simulating the disk write. Returns the
    /// bytes written back.
    async fn flush_group(&self, amount: f64, group: u32) -> f64;

    /// Enforces memcg-style limits on `group`: first writes back its dirty
    /// data above `max_dirty`, then evicts its clean data above
    /// `max_bytes`; if the group still exceeds its cap because the overflow
    /// is dirty, that remainder is written back and evicted too. Disk write
    /// time is simulated. Returns `(evicted, flushed)` byte totals.
    async fn enforce_group_limits(&self, group: u32, max_bytes: f64, max_dirty: f64) -> (f64, f64) {
        let mut flushed = 0.0;
        let over_dirty = self.group_dirty(group) - max_dirty;
        if over_dirty > EPSILON {
            flushed += self.flush_group(over_dirty, group).await;
        }
        let mut evicted = 0.0;
        let over = self.group_cached(group) - max_bytes;
        if over > EPSILON {
            evicted += self.evict_group(over, group);
        }
        // Whatever is still above the cap must be dirty: clean it, then
        // evict again.
        let still_over = self.group_cached(group) - max_bytes;
        if still_over > EPSILON {
            flushed += self.flush_group(still_over, group).await;
            let rest = self.group_cached(group) - max_bytes;
            if rest > EPSILON {
                evicted += self.evict_group(rest, group);
            }
        }
        (evicted, flushed)
    }
}
