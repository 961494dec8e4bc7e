//! # `bench` — benchmark harness
//!
//! Criterion benchmark for the simulator itself: `pagecache_micro`,
//! micro-benchmarks of the LRU list operations, the kernel emulator's
//! victim selection, fair bandwidth sharing, the discrete-event engine,
//! traffic generation and a replicated fleet. `scripts/bench.sh` runs it
//! and writes `BENCH_*.json`.
//!
//! Simulation cost is measured elsewhere: `experiments::simtime` and the
//! `fig8` binary regenerate the paper's Fig. 8 (wall-clock time vs number
//! of concurrent instances), and `simbench/` measures requests simulated
//! per host second end to end.
//!
//! Run with `cargo bench -p bench`.
