//! Golden-report harness: the paper-default 96-cell grid is pinned by a
//! committed JSON snapshot (`tests/golden/paper_default.json`) carrying
//! each cell's scenario digest and simulated numbers, plus the headline
//! harmonic-mean speedup. With the scenario space opened up to
//! thousands of scale-out cells, these snapshots are what keeps the
//! paper-default numbers from drifting silently: the ~2.84x headline
//! becomes one of many pinned values instead of the only one. A second
//! snapshot (`tests/golden/routed.json`) pins the flow-routed prices:
//! every design on AlexNet and RnnGru, both strategies, all five fabric
//! topologies, at 8 and 32 devices.
//!
//! Regenerating after an *intentional* model change:
//!
//! ```console
//! $ MCDLA_BLESS=1 cargo test --test golden_reports
//! $ git diff tests/golden/   # review every changed cell, then commit
//! ```
//!
//! On main, regeneration must produce a zero diff.

use std::path::{Path, PathBuf};

use mcdla::core::scenario::global_runner;
use mcdla::core::{experiment, ScenarioGrid};
use mcdla::dnn::Benchmark;
use mcdla::interconnect::FabricTopology;
use serde::{json, Value};

fn golden_path(grid: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{grid}.json"))
}

/// Renders `grid` into the golden snapshot value. The cell order is the
/// grid's deterministic expansion order; every field is a pure function
/// of the simulator, so two runs of the same code produce byte-identical
/// snapshots. `headline` is appended when the grid has one.
fn current_golden(name: &str, grid: &ScenarioGrid, headline: Option<f64>) -> Value {
    let scenarios = grid.scenarios();
    let runs = global_runner().run_grid(&scenarios);
    let cells: Vec<Value> = scenarios
        .iter()
        .zip(&runs)
        .map(|(s, r)| {
            Value::Map(vec![
                ("label".into(), Value::Str(s.label())),
                ("digest".into(), Value::Str(format!("{:016x}", s.digest()))),
                (
                    "iteration_time".into(),
                    serde::Serialize::to_value(&r.iteration_time),
                ),
                ("performance".into(), Value::F64(r.performance())),
            ])
        })
        .collect();
    let mut fields = vec![
        (
            "generated_by".into(),
            Value::Str("MCDLA_BLESS=1 cargo test --test golden_reports".into()),
        ),
        ("grid".into(), Value::Str(name.into())),
    ];
    if let Some(h) = headline {
        fields.push(("headline_speedup".into(), Value::F64(h)));
    }
    fields.push(("cells".into(), Value::Seq(cells)));
    Value::Map(fields)
}

/// The routed grid: every design on one CNN and one RNN, both
/// strategies, every flow-routed topology, inside one backplane (8
/// devices) and across four islands (32).
fn routed_grid() -> ScenarioGrid {
    ScenarioGrid::paper_default()
        .benchmarks(&[Benchmark::AlexNet, Benchmark::RnnGru])
        .topologies(&FabricTopology::ALL)
        .device_counts(&[8, 32])
}

fn bless_requested() -> bool {
    std::env::var("MCDLA_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `current` against the committed `tests/golden/{grid}.json`,
/// or rewrites that file when `MCDLA_BLESS=1`.
fn check_snapshot(grid: &str, current: &Value) {
    let path = golden_path(grid);
    let current = format!("{}\n", json::to_string_pretty(current));

    if bless_requested() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("blessed {} ({} bytes)", path.display(), current.len());
        return;
    }

    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             generate it with `MCDLA_BLESS=1 cargo test --test golden_reports`",
            path.display()
        )
    });

    // Structured diff first, so a drift names the offending cells
    // instead of dumping two 30 KB strings.
    let committed_value = json::parse(&committed).expect("golden snapshot is valid JSON");
    let current_value = json::parse(&current).expect("current snapshot serializes");
    let cells_of = |v: &Value| -> Vec<Value> {
        v.get("cells")
            .and_then(|c| c.as_seq())
            .expect("snapshot has a cells array")
            .to_vec()
    };
    let want = cells_of(&committed_value);
    let got = cells_of(&current_value);
    assert_eq!(
        want.len(),
        got.len(),
        "{grid} grid changed size: committed {} cells, current {} \
         (if intentional, re-bless with MCDLA_BLESS=1)",
        want.len(),
        got.len()
    );
    let mut drifted = Vec::new();
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            drifted.push(format!(
                "  {}:\n    committed: {}\n    current:   {}",
                w.get("label").and_then(|l| l.as_str()).unwrap_or("?"),
                json::to_string(w),
                json::to_string(g),
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} of {} {grid} cells drifted from the golden snapshot:\n{}\n\
         if this change is intentional, regenerate with \
         `MCDLA_BLESS=1 cargo test --test golden_reports` and commit the diff",
        drifted.len(),
        want.len(),
        drifted.join("\n")
    );
    assert_eq!(
        committed_value.get("headline_speedup"),
        current_value.get("headline_speedup"),
        "headline harmonic-mean speedup drifted from the golden snapshot"
    );
    // Belt and braces: the snapshot is byte-stable end to end.
    assert_eq!(
        committed, current,
        "{grid} snapshot bytes differ (field order or formatting changed); \
         re-bless with MCDLA_BLESS=1 if intentional"
    );
}

#[test]
fn paper_default_grid_matches_the_golden_snapshot() {
    let grid = ScenarioGrid::paper_default();
    let headline = experiment::headline_speedup();
    check_snapshot(
        "paper_default",
        &current_golden("paper_default", &grid, Some(headline)),
    );
}

#[test]
fn routed_grid_matches_the_golden_snapshot() {
    let grid = routed_grid();
    assert_eq!(grid.len(), 240);
    check_snapshot("routed", &current_golden("routed", &grid, None));
}

#[test]
fn golden_digests_discriminate_every_cell() {
    // The digest is the join key consumers use to pair streamed cells
    // with golden entries — it must be unique across the default grid.
    let scenarios = ScenarioGrid::paper_default().scenarios();
    let mut digests: Vec<u64> = scenarios.iter().map(|s| s.digest()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), scenarios.len());
}

#[test]
fn golden_headline_stays_in_the_paper_band() {
    // The snapshot pins the exact value; this keeps the *meaning*
    // honest too (paper: 2.8x, our calibration: ~2.84x).
    let headline = experiment::headline_speedup();
    assert!(
        (2.7..=3.0).contains(&headline),
        "headline speedup {headline} left the paper's band"
    );
}
