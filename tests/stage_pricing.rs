//! Which cells reach the `sync` and `collective` stage tables.
//!
//! Analytical collectives are priced inline, so an analytical cell
//! leaves both tables untouched; a flow-routed cell goes through the
//! two-level `sync` → `collective` path. The tables' counters are
//! process-global, so this file holds exactly one `#[test]`: its binary
//! runs nothing else, and the counter deltas are deterministic.

use mcdla::core::stages::stage_stats;
use mcdla::core::{FabricTopology, Scenario, SystemDesign};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;

/// `(hits, misses)` of one stage table.
fn traffic(stage: &str) -> (u64, u64) {
    let s = stage_stats()
        .into_iter()
        .find(|s| s.stage == stage)
        .unwrap_or_else(|| panic!("no stage table named {stage}"));
    (s.hits, s.misses)
}

#[test]
fn only_flow_routed_cells_reach_the_sync_and_collective_tables() {
    let analytical = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    )
    .with_devices(64)
    .with_batch(512);

    let (sync0, coll0) = (traffic("sync"), traffic("collective"));
    assert_eq!(analytical.simulate(), analytical.simulate_monolithic());
    assert_eq!(
        (traffic("sync"), traffic("collective")),
        (sync0, coll0),
        "an analytical cell must price its collectives inline"
    );

    let routed = analytical.with_topology(FabricTopology::Ring);
    assert_eq!(routed.simulate(), routed.simulate_monolithic());
    let (sync1, coll1) = (traffic("sync"), traffic("collective"));
    assert_eq!(sync1, (sync0.0, sync0.1 + 1), "one sync miss per new plan");
    assert!(
        coll1.1 > coll0.1,
        "a sync miss reads through the collectives"
    );

    assert_eq!(routed.simulate(), routed.simulate_monolithic());
    assert_eq!(
        traffic("sync"),
        (sync1.0 + 1, sync1.1),
        "a repeat hits sync"
    );
    assert_eq!(traffic("collective"), coll1, "a sync hit skips collectives");
}
