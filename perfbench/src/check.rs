//! The correctness gate: references the timed outputs must equal.
//!
//! - The 96 paper-default cells must equal the committed golden
//!   snapshot (`tests/golden/paper_default.json`: `iteration_time`,
//!   `performance`).
//! - Sampled cells and responses must equal, byte for byte, the same
//!   encoding of `Scenario::simulate_monolithic` — the engine rebuilt
//!   from scratch with no stage table touched.
//!
//! `--corrupt-reference` perturbs every reference, which must make the
//! run fail: the benchmark's self-test uses it to show the gate bites.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use mcdla_core::{IterationReport, Scenario, TimedRun};
use serde::Value;

static CORRUPT: AtomicBool = AtomicBool::new(false);

pub fn corrupt_references() {
    CORRUPT.store(true, Ordering::Relaxed);
}

fn corrupt(mut reference: String) -> String {
    if CORRUPT.load(Ordering::Relaxed) {
        reference.push(' ');
    }
    reference
}

/// Golden cells by scenario digest: `(iteration_time JSON, performance)`.
pub struct Golden(HashMap<String, (String, f64)>);

impl Golden {
    pub fn load(root: &Path) -> Result<Golden, String> {
        let path = root.join("tests/golden/paper_default.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc =
            serde::json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let cells = doc
            .get("cells")
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("{}: no `cells` array", path.display()))?;
        let mut map = HashMap::new();
        for c in cells {
            let field = |k: &str| c.get(k).ok_or_else(|| format!("golden cell without `{k}`"));
            let digest = field("digest")?
                .as_str()
                .ok_or("golden digest is not a string")?;
            let time = serde::json::to_string(field("iteration_time")?);
            let perf = field("performance")?
                .as_f64()
                .ok_or("golden performance is not a number")?;
            map.insert(digest.to_owned(), (corrupt(time), perf));
        }
        if map.len() != 96 {
            return Err(format!(
                "golden snapshot has {} cells, expected 96",
                map.len()
            ));
        }
        Ok(Golden(map))
    }

    /// Compares the cells whose digests the golden snapshot names;
    /// returns `(checked, mismatches, first mismatch)`.
    pub fn compare(&self, runs: &[(Scenario, IterationReport)]) -> (u64, u64, String) {
        let mut checked = 0;
        let mut bad = 0;
        let mut first = String::new();
        for (s, r) in runs {
            let Some((time, perf)) = self.0.get(&format!("{:016x}", s.digest())) else {
                continue;
            };
            checked += 1;
            let got_time = serde::json::to_string(&r.iteration_time);
            if &got_time != time || r.performance().to_bits() != perf.to_bits() {
                bad += 1;
                if first.is_empty() {
                    first = format!(
                        "{}: iteration_time {got_time} vs golden {time}, performance {} vs {perf}",
                        s.label(),
                        r.performance()
                    );
                }
            }
        }
        (checked, bad, first)
    }
}

/// The `mcdla sweep --ndjson` line the monolithic engine gives a cell.
pub fn reference_ndjson(s: &Scenario) -> String {
    corrupt(mcdla_bench::reports::sweep_cell_line(&TimedRun {
        scenario: *s,
        report: s.simulate_monolithic(),
        wall: std::time::Duration::ZERO,
        cached: false,
    }))
}

/// The `POST /simulate` body the monolithic engine gives a cell.
pub fn reference_simulate_body(s: &Scenario, cached: bool) -> String {
    let cell = mcdla_serve::cell_value(s, &s.simulate_monolithic(), cached);
    corrupt(serde::json::to_string_pretty(&cell))
}

/// The `/grid?stream=1` line the monolithic engine gives a cell.
pub fn reference_grid_line(s: &Scenario, cached: bool) -> String {
    let cell = mcdla_serve::cell_value(s, &s.simulate_monolithic(), cached);
    corrupt(serde::json::to_string(&cell))
}

/// Tallies `(got, want)` pairs; returns `(checked, mismatches, first)`.
pub fn tally(pairs: impl Iterator<Item = (String, String, String)>) -> (u64, u64, String) {
    let mut checked = 0;
    let mut bad = 0;
    let mut first = String::new();
    for (label, got, want) in pairs {
        checked += 1;
        if got != want {
            bad += 1;
            if first.is_empty() {
                let at = got
                    .bytes()
                    .zip(want.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(got.len().min(want.len()));
                first =
                    format!("{label}: output differs from the monolithic reference at byte {at}");
            }
        }
    }
    (checked, bad, first)
}
