//! Data blocks: the unit of cached data in the simulation model.
//!
//! The Linux kernel tracks individual 4 KiB pages in its LRU lists. Simulating
//! lists of pages would be prohibitively slow for data-intensive workloads
//! (hundreds of gigabytes), so the paper introduces the *data block*: a set of
//! file pages cached by the same I/O operation, described only by its size,
//! timestamps and dirty flag (§III-A-1, Fig. 2). Blocks can be split
//! arbitrarily, which is how partial flushes, evictions and reads are
//! modelled.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use des::SimTime;

/// Identifier of a simulated file: an interned name. Cheap to clone (a
/// reference-count bump).
///
/// Names are interned in a per-thread table, so every `FileId` of one name
/// created on a thread shares one allocation. Identity is therefore the
/// pointer:
///
/// * `Eq` and `Hash` use the pointer only — O(1), without touching the name
///   bytes, which makes hashed maps keyed by `FileId` as cheap as maps keyed
///   by an integer. Debug builds assert on every comparison that pointer
///   equality agrees with name equality (the slow reference next to the
///   fast path).
/// * `Ord` is the name order (with an O(1) `Equal` for the same pointer).
///   Ordered maps, victim-index keys and tie-breaks keyed by `FileId`
///   therefore iterate in file-name order, which does not depend on
///   allocation addresses and so keeps every prediction reproducible.
///
/// `FileId` is `Rc`-based and never crosses threads: a simulation creates
/// and compares its ids on the thread that runs it.
#[derive(Debug, Clone)]
pub struct FileId(Rc<str>);

thread_local! {
    static NAMES: RefCell<Interner> = RefCell::new(Interner::default());
}

/// The per-thread name table behind [`FileId::new`].
#[derive(Default)]
struct Interner {
    /// One strong reference per interned name; a name whose count is 1 is
    /// held by no `FileId` any more.
    names: HashSet<Rc<str>>,
    /// Table size at which unused names are next swept out, so the table
    /// stays within twice the live names (amortised O(1) per intern).
    sweep_at: usize,
}

impl Interner {
    fn intern(&mut self, name: &str) -> Rc<str> {
        if let Some(rc) = self.names.get(name) {
            return Rc::clone(rc);
        }
        if self.names.len() >= self.sweep_at {
            self.names.retain(|rc| Rc::strong_count(rc) > 1);
            self.sweep_at = (2 * self.names.len()).max(1024);
        }
        let rc: Rc<str> = Rc::from(name);
        self.names.insert(Rc::clone(&rc));
        rc
    }
}

impl PartialEq for FileId {
    fn eq(&self, other: &Self) -> bool {
        let same = Rc::ptr_eq(&self.0, &other.0);
        debug_assert_eq!(
            same,
            self.0 == other.0,
            "file ids '{}' and '{}': interned identity disagrees with the names",
            self.0,
            other.0
        );
        same
    }
}

impl Eq for FileId {}

impl Hash for FileId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The pointer, matching `PartialEq` (one name, one pointer).
        std::ptr::hash(Rc::as_ptr(&self.0).cast::<u8>(), state);
    }
}

impl PartialOrd for FileId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FileId {
    fn cmp(&self, other: &Self) -> Ordering {
        if Rc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl FileId {
    /// The file identifier of a name, interned in this thread's table.
    pub fn new(name: impl AsRef<str>) -> Self {
        FileId(NAMES.with(|names| names.borrow_mut().intern(name.as_ref())))
    }

    /// The file name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for FileId {
    fn from(s: &str) -> Self {
        FileId::new(s)
    }
}

impl From<String> for FileId {
    fn from(s: String) -> Self {
        FileId::new(s)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A contiguous amount of cached data belonging to one file, as stored in the
/// simulated LRU lists (paper Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DataBlock {
    /// The file this data belongs to.
    pub file: FileId,
    /// Amount of cached data in bytes.
    pub size: f64,
    /// Virtual time at which the block (or its dirty ancestor) entered the
    /// cache. Used by the periodical flusher to detect expired dirty data.
    pub entry_time: SimTime,
    /// Virtual time of the last access; LRU lists are ordered by this field.
    pub last_access: SimTime,
    /// Whether the data has not yet been persisted to disk.
    pub dirty: bool,
}

impl DataBlock {
    /// Creates a clean block cached at `now` (a block created by reading
    /// uncached data from disk).
    pub fn clean(file: FileId, size: f64, now: SimTime) -> Self {
        debug_assert!(size > 0.0, "blocks must have positive size");
        DataBlock {
            file,
            size,
            entry_time: now,
            last_access: now,
            dirty: false,
        }
    }

    /// Creates a dirty block written to the cache at `now`.
    pub fn dirty(file: FileId, size: f64, now: SimTime) -> Self {
        debug_assert!(size > 0.0, "blocks must have positive size");
        DataBlock {
            file,
            size,
            entry_time: now,
            last_access: now,
            dirty: true,
        }
    }

    /// Splits off the first `amount` bytes into a new block that keeps this
    /// block's timestamps and dirty flag; `self` keeps the remainder.
    ///
    /// # Panics
    /// Panics (debug) if `amount` is not strictly between 0 and `self.size`.
    pub fn split_off(&mut self, amount: f64) -> DataBlock {
        debug_assert!(
            amount > 0.0 && amount < self.size,
            "split amount {amount} out of range (block size {})",
            self.size
        );
        self.size -= amount;
        DataBlock {
            file: self.file.clone(),
            size: amount,
            entry_time: self.entry_time,
            last_access: self.last_access,
            dirty: self.dirty,
        }
    }

    /// Whether the dirty data in this block is older than `expire` seconds at
    /// time `now` (and should therefore be written back by the periodical
    /// flusher).
    pub fn is_expired(&self, now: SimTime, expire: f64) -> bool {
        self.dirty && now.duration_since(self.entry_time) > expire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_equality_and_display() {
        let a = FileId::new("file1");
        let b: FileId = "file1".into();
        let c: FileId = String::from("file2").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "file1");
        assert_eq!(c.name(), "file2");
    }

    /// Deterministic xorshift64 PRNG for the seeded name draws.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn hash_of(id: &FileId) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        h.finish()
    }

    /// The identity contract against the names, over seeded random names
    /// from a small alphabet (so that equal names, shared prefixes and
    /// prefix-of relations all occur often).
    #[test]
    fn file_id_identity_matches_the_names() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let names: Vec<String> = (0..400)
            .map(|_| {
                let len = 1 + rng.next() % 4;
                (0..len)
                    .map(|_| char::from(b'a' + (rng.next() % 3) as u8))
                    .collect()
            })
            .collect();
        let ids: Vec<FileId> = names
            .iter()
            .enumerate()
            .map(|(i, name)| match i % 3 {
                0 => FileId::new(name),
                1 => FileId::from(name.as_str()),
                _ => FileId::from(name.clone()),
            })
            .collect();
        for _ in 0..20_000 {
            let i = (rng.next() % names.len() as u64) as usize;
            let j = (rng.next() % names.len() as u64) as usize;
            let (a, b) = (&ids[i], &ids[j]);
            assert_eq!(a == b, names[i] == names[j], "{a} vs {b}");
            assert_eq!(a.cmp(b), names[i].cmp(&names[j]), "{a} vs {b}");
            assert_eq!(a.partial_cmp(b), Some(names[i].cmp(&names[j])));
            if a == b {
                assert_eq!(hash_of(a), hash_of(b));
            }
            let copy = a.clone();
            assert_eq!(&copy, a);
            assert_eq!(hash_of(&copy), hash_of(a));
            assert_eq!(FileId::from(names[i].as_str()), *a);
            assert_eq!(FileId::from(names[i].clone()), *a);
            assert_eq!(a.name(), names[i]);
        }
    }

    /// Names no id holds any more are swept from the table; a name created
    /// again afterwards is still equal to its live copies.
    #[test]
    fn file_id_identity_survives_table_sweeps() {
        let keep = FileId::new("sweep/keep");
        for round in 0..4 {
            let dropped: Vec<FileId> = (0..3000)
                .map(|i| FileId::new(format!("sweep/{round}/{i}")))
                .collect();
            drop(dropped);
            assert_eq!(FileId::new("sweep/keep"), keep);
            assert_eq!(hash_of(&FileId::from("sweep/keep")), hash_of(&keep));
        }
        let again = FileId::new("sweep/0/7");
        assert_eq!(again, FileId::from(String::from("sweep/0/7")));
        assert_ne!(again, keep);
    }

    #[test]
    fn clean_and_dirty_constructors() {
        let t = SimTime::from_secs(10.0);
        let c = DataBlock::clean("f".into(), 100.0, t);
        assert!(!c.dirty);
        assert_eq!(c.entry_time, t);
        assert_eq!(c.last_access, t);
        let d = DataBlock::dirty("f".into(), 100.0, t);
        assert!(d.dirty);
    }

    #[test]
    fn split_preserves_metadata() {
        let entry = SimTime::from_secs(5.0);
        let mut blk = DataBlock {
            file: "f1".into(),
            size: 100.0,
            entry_time: entry,
            last_access: SimTime::from_secs(8.0),
            dirty: true,
        };
        let head = blk.split_off(30.0);
        assert_eq!(head.size, 30.0);
        assert_eq!(blk.size, 70.0);
        assert_eq!(head.entry_time, entry);
        assert_eq!(head.last_access, SimTime::from_secs(8.0));
        assert!(head.dirty);
        assert_eq!(head.file, blk.file);
    }

    #[test]
    fn expiration() {
        let blk = DataBlock::dirty("f".into(), 10.0, SimTime::from_secs(0.0));
        assert!(!blk.is_expired(SimTime::from_secs(10.0), 30.0));
        assert!(blk.is_expired(SimTime::from_secs(31.0), 30.0));
        let clean = DataBlock::clean("f".into(), 10.0, SimTime::from_secs(0.0));
        assert!(!clean.is_expired(SimTime::from_secs(100.0), 30.0));
    }
}
