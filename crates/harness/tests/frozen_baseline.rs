//! The proof obligation of a scenario-adding PR: regenerating
//! `baselines/golden.json` (new scenarios add metrics) must not move any
//! **pre-existing** prediction. `baselines/golden_pr13.json` is the frozen
//! snapshot of the full 45-scenario baseline (it holds, bit-identically,
//! every metric of the earlier frozen snapshots taken before the readahead
//! model, fault injection, the network tier and the traffic tier, and the
//! four `traffic_*` scenarios, both tenant-cap scenarios among them); every
//! metric it pins must come out of today's registry bit-identical.
//!
//! CI runs the same check via `sweep --check --check-frozen
//! baselines/golden_pr13.json`; this test keeps it enforced under plain
//! `cargo test` too.

use harness::{compare_intersection_exact, parse, registry, run_sweep, SweepConfig};

const FROZEN: &str = include_str!("../../../baselines/golden_pr13.json");

#[test]
fn pre_existing_golden_metrics_are_bit_identical() {
    let frozen = parse(FROZEN).expect("frozen baseline parses");
    let results = run_sweep(
        &registry(),
        &SweepConfig {
            threads: 4,
            seed: 0,
            filter: None,
            shards: 0,
        },
    );
    assert!(results.all_ok(), "{:?}", results.failures());
    // Round-trip through text, as the real gate does with files on disk.
    let doc = parse(&results.to_json(false).render_pretty()).unwrap();
    let drifts = compare_intersection_exact(&frozen, &doc).unwrap();
    assert!(
        drifts.is_empty(),
        "pre-existing metrics moved or vanished:\n{}",
        drifts
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
