//! # `experiments` — reproduction of every table and figure of the paper
//!
//! Each experiment of *"Modeling the Linux page cache for accurate simulation
//! of data-intensive applications"* (CLUSTER 2021) is available both as a
//! library function (used by the test suite and by the benchmark harness) and
//! as a binary that prints the corresponding table or figure data:
//!
//! | Artefact | Function | Binary |
//! |---|---|---|
//! | Table I (synthetic app parameters) | [`workflow::ApplicationSpec::synthetic_cpu_time`] | `table1` |
//! | Table II (Nighres parameters) | [`workflow::ApplicationSpec::nighres`] | `table2` |
//! | Table III (bandwidths) | [`platform::paper_platform`] | `table3` |
//! | Fig. 4a (Exp 1 errors) | [`exp1::run_exp1`] | `fig4a` |
//! | Fig. 4b (memory profiles) | [`exp1::run_exp1`] | `fig4b` |
//! | Fig. 4c (cache contents) | [`exp1::run_exp1`] | `fig4c` |
//! | Fig. 5 (Exp 2, concurrent, local) | [`exp_concurrent::run_exp2`] | `fig5` |
//! | Fig. 6 (Exp 4, Nighres) | [`exp4::run_exp4`] | `fig6` |
//! | Fig. 7 (Exp 3, concurrent, NFS) | [`exp_concurrent::run_exp3`] | `fig7` |
//! | Fig. 8 (simulation time) | [`simtime::run_simulation_time_measurement`] | `fig8` |
//!
//! Ground truth is provided by the `kernel-emu` crate (its crate docs give the
//! rationale for emulating the paper's real cluster); "paper-scale" runs use the full 250 GiB node
//! and 20–100 GB files, while tests use proportionally scaled-down inputs.

#![warn(missing_docs)]

pub mod exp1;
pub mod exp4;
pub mod exp_concurrent;
pub mod figures;
pub mod platform;
pub mod simtime;
pub mod table;

pub use exp1::{run_exp1, run_exp1_for_size, Exp1SizeResult, PhaseTiming};
pub use exp4::{run_exp4, Exp4Result, NighresPhase};
pub use exp_concurrent::{run_exp2, run_exp3, ConcurrencyPoint, ConcurrencySweep};
pub use platform::{
    concurrency_sweep, exp1_file_sizes, paper_platform, scaled_platform, EXP2_FILE_SIZE,
};
pub use simtime::{
    linear_fit, run_simulation_time_measurement, LinearFit, SimTimePoint, SimTimeResult,
};
