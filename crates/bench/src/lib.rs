//! # `bench` — benchmark harness
//!
//! Criterion benchmarks for the simulator itself:
//!
//! * `sim_time` — regenerates Fig. 8 (simulation wall-clock time vs number of
//!   concurrent application instances, local and NFS, cacheless and cached);
//! * `pagecache_micro` — micro-benchmarks of the LRU list operations, the
//!   kernel emulator's victim selection and the discrete-event engine;
//! * `ablations` — ablations of three modelling choices of the page-cache
//!   model (block coalescing via chunk size, dirty ratio, sharing policy).
//!
//! Run with `cargo bench -p bench`.
