//! Tests of the victim indexes: a differential test of the index walks
//! against the collect-and-sort reference they replaced, and a
//! deterministic guard against whole-cache scans.

use super::tests::XorShift;
use super::*;
use des::Simulation;
use pagecache::EvictionPolicy;
use storage_model::{units::MB, DeviceSpec};

const PAGE: f64 = 4096.0;

fn cache(sim: &Simulation, policy: EvictionPolicy, protect: bool) -> KernelCache {
    let ctx = sim.context();
    let memory = MemoryDevice::new(&ctx, DeviceSpec::symmetric(2764.0 * MB, 0.0, f64::INFINITY));
    let disk = Disk::new(
        &ctx,
        "d",
        DeviceSpec::asymmetric(510.0 * MB, 420.0 * MB, 0.0, f64::INFINITY),
    );
    let mut tuning = KernelTuning::with_memory(1000.0 * MB).with_eviction_policy(policy);
    tuning.protect_files_being_written = protect;
    // Short expiry, so that the replays' sleeps expire dirty data often.
    tuning.dirty_expire = 1.0;
    KernelCache::new(&ctx, tuning, memory, disk)
}

/// The has-dirty chain members holding dirty bytes, in chain order: the
/// summation order of expired writeback.
fn dirty_chain(s: &State) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = s.chain.head;
    while i != NIL {
        let slot = s.slot(i);
        if slot.pages.dirty() > EPS {
            out.push(slot.file.to_string());
        }
        i = slot.link.next;
    }
    out
}

/// What the walks of one replay did, op by op, plus coverage counts.
struct Replay {
    log: Vec<String>,
    evict_steps: usize,
    write_back_steps: usize,
    expired_bytes: f64,
}

/// Replays a seeded stream of `ops` random cache operations over 40 files
/// and logs, per op, its return value, every `(victim, bytes)` step of the
/// eviction and writeback walks it ran, the has-dirty chain order and each
/// file's clean and dirty bytes — every `f64` as its bit pattern. With
/// `reference` set the walks follow the collect-and-sort reference order
/// (and the reference's eager pruning of the has-dirty chain) instead of the
/// indexes.
fn replay(policy: EvictionPolicy, protect: bool, seed: u64, ops: usize, reference: bool) -> Replay {
    let sim = Simulation::new();
    let ctx = sim.context();
    let cache = cache(&sim, policy, protect);
    cache.state.borrow_mut().reference = reference;
    let out = Rc::new(RefCell::new(Replay {
        log: Vec::with_capacity(ops),
        evict_steps: 0,
        write_back_steps: 0,
        expired_bytes: 0.0,
    }));
    let task = {
        let (cache, out) = (cache.clone(), out.clone());
        sim.spawn(async move {
            let mut rng = XorShift::new(seed);
            let files: Vec<FileId> = (0..40).map(|k| FileId::new(format!("f{k:02}"))).collect();
            for op in 0..ops {
                let file = &files[rng.below(files.len() as u64) as usize];
                let start = rng.below(2048) as f64 * PAGE;
                let len = (1 + rng.below(512)) as f64 * PAGE;
                let amount = if rng.below(16) == 0 {
                    f64::INFINITY
                } else {
                    (1 + rng.below(4096)) as f64 * PAGE
                };
                let group = rng.below(3) as u32;
                let flag = rng.below(4) == 0;
                let (kind, result) = match rng.below(20) {
                    0..=3 => ("insert_clean_range", cache.insert_clean_range(file, start, start + len)),
                    4 => {
                        cache.insert_clean(file, len);
                        ("insert_clean", 0.0)
                    }
                    5 | 6 => {
                        cache.insert_dirty_range(file, start, start + len / 2.0);
                        ("insert_dirty_range", 0.0)
                    }
                    7 | 8 => {
                        cache.touch(file, len);
                        ("touch", 0.0)
                    }
                    9 => {
                        cache.set_write_open(file, !flag);
                        ("set_write_open", 0.0)
                    }
                    10 => {
                        cache.set_file_group(file, (group > 0).then_some(group));
                        ("set_file_group", 0.0)
                    }
                    11 | 12 => ("evict", cache.evict(amount, flag.then_some(file))),
                    13 => ("evict_group", cache.evict_group(amount, group)),
                    14 => ("write_back", cache.write_back(amount, flag).await),
                    15 => ("write_back_group", cache.write_back_group(amount, group).await),
                    16 => ("write_back_file", cache.write_back_file(file).await),
                    17 => {
                        let expired = cache.write_back_expired().await;
                        out.borrow_mut().expired_bytes += expired;
                        ("write_back_expired", expired)
                    }
                    18 if flag && rng.below(16) == 0 => {
                        let lost = cache.crash_discard();
                        ("crash_discard", lost.len() as f64)
                    }
                    18 => ("invalidate_file", cache.invalidate_file(file)),
                    _ => {
                        ctx.sleep(rng.below(8) as f64 * 0.75).await;
                        ("sleep", 0.0)
                    }
                };
                let mut s = cache.state.borrow_mut();
                let victims: Vec<(String, u64)> = s
                    .victims
                    .drain(..)
                    .map(|(f, bytes)| (f.to_string(), bytes.to_bits()))
                    .collect();
                let mut files: Vec<(String, u64, u64)> = s
                    .index
                    .iter()
                    .map(|(f, &i)| {
                        let p = &s.slot(i).pages;
                        (f.to_string(), p.clean().to_bits(), p.dirty().to_bits())
                    })
                    .collect();
                // The file table is hashed: compare it in name order.
                files.sort_unstable();
                let line = format!(
                    "op {op} {kind} {file} -> {:x}; victims {victims:?}; chain {:?}; files {files:?}",
                    result.to_bits(),
                    dirty_chain(&s),
                );
                drop(s);
                let mut o = out.borrow_mut();
                match kind {
                    "evict" | "evict_group" => o.evict_steps += victims.len(),
                    "write_back" | "write_back_group" => o.write_back_steps += victims.len(),
                    _ => {}
                }
                o.log.push(line);
            }
        })
    };
    sim.run();
    assert!(task.is_finished(), "replay task did not finish");
    drop(task);
    drop(cache);
    Rc::try_unwrap(out)
        .ok()
        .expect("replay log still shared")
        .into_inner()
}

/// The index walks pick bit-identical victims, amounts and results to the
/// collect-and-sort reference over 10k-op randomized streams, under every
/// eviction policy, with and without write-open protection.
#[test]
fn victim_indexes_match_the_reference_sort_under_every_policy() {
    for (p, policy) in EvictionPolicy::ALL.into_iter().enumerate() {
        for protect in [true, false] {
            let seed = 0x5eed_0000 + 2 * p as u64 + u64::from(protect);
            let fast = replay(policy, protect, seed, 10_000, false);
            let slow = replay(policy, protect, seed, 10_000, true);
            if let Some((a, b)) = fast.log.iter().zip(&slow.log).find(|(a, b)| a != b) {
                panic!("{policy:?} protect={protect}: index walk diverged from the reference\n index:     {a}\n reference: {b}");
            }
            assert_eq!(fast.log.len(), slow.log.len());
            // The stream must reach every walk, not just agree trivially.
            assert!(
                fast.evict_steps > 500,
                "{policy:?}: {} evict steps",
                fast.evict_steps
            );
            assert!(
                fast.write_back_steps > 200,
                "{policy:?}: {} write-back steps",
                fast.write_back_steps
            );
            assert!(fast.expired_bytes > 0.0, "{policy:?}: no expired writeback");
        }
    }
}

/// Complexity guard without timing: on a cache holding 20k resident files,
/// each eviction and each writeback visits a constant number of candidate
/// files. A walk that scans every cached file again turns this into a
/// failure on any machine.
#[test]
fn victim_walks_visit_a_constant_number_of_files_per_call() {
    const RESIDENT: usize = 20_000;
    const CALLS: usize = 1_000;
    let sim = Simulation::new();
    let cache = cache(&sim, EvictionPolicy::TwoList, true);
    {
        // Fill through the state directly: the public inserts re-run the
        // O(F) debug oracle on every call, which makes a 20k-file fill
        // quadratic in debug builds. The oracle runs once on the result.
        let mut s = cache.state.borrow_mut();
        for k in 0..RESIDENT + CALLS {
            let t = SimTime::from_secs(k as f64);
            s.insert_clean(&FileId::new(format!("c{k:06}")), 0.0, MB, t);
        }
        for k in 0..CALLS {
            let t = SimTime::from_secs(k as f64);
            s.insert_dirty(&FileId::new(format!("d{k:06}")), 0.0, MB, t);
        }
        s.debug_validate();
    }
    let before = cache.scan_counters();
    let task = sim.spawn({
        let cache = cache.clone();
        async move {
            for _ in 0..CALLS {
                assert_eq!(cache.evict(MB, None), MB);
                assert_eq!(cache.write_back(MB, true).await, MB);
            }
        }
    });
    sim.run();
    assert!(task.is_finished());
    assert!(cache.cached_per_file().len() >= RESIDENT);
    let after = cache.scan_counters();
    let calls = (after.evict_calls - before.evict_calls) as usize;
    let visited = (after.evict_visited - before.evict_visited) as usize;
    assert_eq!(calls, CALLS);
    assert!(
        visited <= 2 * calls,
        "{visited} files visited by {calls} evictions"
    );
    let calls = (after.write_back_calls - before.write_back_calls) as usize;
    let visited = (after.write_back_visited - before.write_back_visited) as usize;
    assert_eq!(calls, CALLS);
    assert!(
        visited <= 2 * calls,
        "{visited} files visited by {calls} writebacks"
    );
}
