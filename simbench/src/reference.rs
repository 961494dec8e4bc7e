//! A fixed reference computation that measures how fast the host runs right
//! now, so host-time metrics can be expressed in reference seconds.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! third over minutes as neighbours load the host; a whole run can land in a
//! slow or a fast stretch. The reference is timed before and after every
//! measured repetition and the repetition's host time is scaled by
//! `NOMINAL_S / reference time`: a host running at half speed doubles both,
//! and the scaled time stays put. The reference is benchmark-owned code and
//! never calls the simulator, so a change to the simulator moves the scaled
//! metrics exactly as much as the raw ones.
//!
//! It mixes the three kinds of work the simulator's host time is made of:
//! an ordered map and a binary heap (the engine's timers, the LRU lists),
//! hashed lookups with small boxed allocations (the caches' file maps, the
//! engine's boxed futures), and integer and float arithmetic (flow
//! integration). Its working set of about 12 MB is deliberate: contention
//! from neighbours slows cache- and memory-bound code more than code that
//! stays in the core's caches, and a reference with a small working set
//! tracked the simulator's slowdowns only partly. It runs on the measuring
//! thread, so it sees the same vCPU's speed; a reference in a child process
//! (possibly on the other vCPU) tracked worse.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds a reference run takes, about its median on the machine the
/// benchmark's figures were first measured on (a 2.1 GHz Intel Xeon vCPU of
/// a shared 2-vCPU VM). Scaled metrics read as host time on that machine.
pub const NOMINAL_S: f64 = 0.17;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Ordered-map inserts and range lookups interleaved with heap pushes and
/// pops, then one sort of every drawn key.
fn ordered(state: &mut u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut keys = Vec::with_capacity(150_000);
    let mut acc = 0u64;
    for i in 0..150_000u64 {
        map.insert(xorshift(state) % 400_000, i);
        heap.push(std::cmp::Reverse(xorshift(state) % 1_000_000));
        if i % 3 == 0 {
            if let Some(std::cmp::Reverse(t)) = heap.pop() {
                acc = acc.wrapping_add(t);
            }
        }
        if let Some((_, v)) = map.range(xorshift(state) % 400_000..).next() {
            acc = acc.wrapping_add(*v);
        }
        keys.push(xorshift(state));
    }
    keys.sort_unstable();
    acc.wrapping_add(keys[keys.len() / 2])
}

/// Replacing and looking up boxed slices of 1 to 24 words in a hash map with
/// a fixed hasher (the standard `RandomState` would vary per process).
fn hashed(state: &mut u64) -> u64 {
    let mut map: HashMap<u64, Box<[u64]>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for _ in 0..300_000 {
        let key = xorshift(state) % 50_000;
        let len = (xorshift(state) % 24) as usize + 1;
        if let Some(old) = map.insert(key, vec![key; len].into_boxed_slice()) {
            acc = acc.wrapping_add(old[0]);
        }
        if let Some(v) = map.get(&(xorshift(state) % 50_000)) {
            acc = acc.wrapping_add(v[v.len() - 1]);
        }
    }
    acc
}

/// A linear congruential stream folded into a float sum.
fn arithmetic() -> u64 {
    let (mut x, mut sum) = (black_box(1u64), 0f64);
    for i in 0..40_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        sum += (x >> 40) as f64 * 1e-9;
    }
    x ^ sum.to_bits()
}

/// Share of a repetition's host time spent on the reference runs after it.
/// One run is a good sample after a repetition of a second or two; after a
/// ten-second repetition a single run that hits a hiccup would mis-scale the
/// whole repetition, so longer repetitions are followed by more runs.
const SHARE: f64 = 0.05;

/// Median host seconds of the reference runs that follow a repetition of
/// `repetition_s` host seconds: enough runs to take about `SHARE` of it, at
/// least one.
pub fn measure(repetition_s: f64) -> f64 {
    let runs = ((SHARE * repetition_s / NOMINAL_S).ceil() as usize).max(1);
    crate::median(&(0..runs).map(|_| run()).collect::<Vec<_>>())
}

/// Host seconds of one reference run.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    black_box(ordered(&mut state) ^ hashed(&mut state) ^ arithmetic());
    start.elapsed().as_secs_f64()
}
