//! `mcdla bench-report`: collates every committed `BENCH_*.json` into
//! one trajectory table — the headline metric of each benchmark family,
//! side by side, so a reviewer can read the repo's performance story
//! without opening six JSON files.
//!
//! The collator is deliberately schema-light: it walks each file with a
//! path lookup and skips families whose file is absent or whose field
//! moved, reporting `—` instead of failing, so the report keeps working
//! as benchmark schemas grow.

use std::path::Path;

use serde::Value;

use crate::render_table;

/// One headline row pulled out of a benchmark file.
#[derive(Debug)]
pub struct Headline {
    /// Which `BENCH_*.json` the row came from.
    pub file: &'static str,
    /// Human label for the metric.
    pub metric: &'static str,
    /// The extracted value, if the file and field were present.
    pub value: Option<f64>,
    /// How to print it.
    pub unit: Unit,
    /// The roadmap floor the value is gated on, when one exists.
    pub floor: Option<f64>,
}

/// Print formats for headline values.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// Operations (or requests) per second, scaled to k/M.
    PerSec,
    /// Milliseconds.
    Millis,
    /// A 0..1 fraction printed as a percentage.
    Ratio,
    /// A speedup multiple (`5.72x`).
    SpeedupX,
}

fn fmt_value(value: f64, unit: Unit) -> String {
    match unit {
        Unit::PerSec => {
            if value >= 1e6 {
                format!("{:.2}M/s", value / 1e6)
            } else if value >= 1e3 {
                format!("{:.1}k/s", value / 1e3)
            } else {
                format!("{value:.1}/s")
            }
        }
        Unit::Millis => format!("{value:.2} ms"),
        Unit::Ratio => format!("{:.1}%", value * 100.0),
        Unit::SpeedupX => format!("{value:.2}x"),
    }
}

/// Navigates a JSON map path.
fn get<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut current = value;
    for key in path {
        let Value::Map(entries) = current else {
            return None;
        };
        current = &entries.iter().find(|(k, _)| k == key)?.1;
    }
    Some(current)
}

fn num(value: &Value) -> Option<f64> {
    match value {
        Value::F64(n) => Some(*n),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn lookup(root: Option<&Value>, path: &[&str]) -> Option<f64> {
    root.and_then(|v| get(v, path)).and_then(num)
}

/// `mcdla sweep`'s throughput: every cell it emitted over the sweep's
/// wall time (`None` when either field is missing or no time elapsed).
fn sweep_cells_per_sec(scenarios: Option<&Value>) -> Option<f64> {
    let cells = lookup(scenarios, &["cells_total"])?;
    let wall_ms = lookup(scenarios, &["total_wall_ms"]).filter(|&ms| ms > 0.0)?;
    Some(cells / (wall_ms / 1e3))
}

/// The headline metrics of every benchmark family, extracted from the
/// parsed `BENCH_*.json` bodies (`None` for a file that is absent).
fn headlines(files: &[(&'static str, Option<Value>)]) -> Vec<Headline> {
    let file = |name: &str| -> Option<&Value> {
        files
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_ref())
    };
    let service = file("BENCH_service.json");
    let store = file("BENCH_store.json");
    let stages = file("BENCH_stages.json");
    let scenarios = file("BENCH_scenarios.json");
    let cluster = file("BENCH_cluster.json");
    let fabric = file("BENCH_fabric.json");
    let obs = file("BENCH_obs.json");
    vec![
        Headline {
            file: "BENCH_service.json",
            metric: "cached req/s (serial)",
            value: lookup(service, &["cached", "requests_per_sec"]),
            unit: Unit::PerSec,
            floor: None,
        },
        Headline {
            file: "BENCH_service.json",
            metric: "cached req/s (pipelined)",
            value: lookup(service, &["cached_pipelined", "requests_per_sec"]),
            unit: Unit::PerSec,
            floor: None,
        },
        Headline {
            file: "BENCH_service.json",
            metric: "cold simulate",
            value: lookup(service, &["cold_simulate_ms"]),
            unit: Unit::Millis,
            floor: None,
        },
        Headline {
            file: "BENCH_service.json",
            metric: "pressure hit rate",
            value: lookup(service, &["capacity_pressure", "hit_rate"]),
            unit: Unit::Ratio,
            floor: None,
        },
        Headline {
            file: "BENCH_store.json",
            metric: "store min get/s under pressure",
            value: lookup(store, &["min_get_per_sec"]),
            unit: Unit::PerSec,
            floor: Some(1e6),
        },
        Headline {
            file: "BENCH_stages.json",
            metric: "stage-memo speedup (knob grid)",
            value: lookup(stages, &["knob_grid", "speedup"]),
            unit: Unit::SpeedupX,
            floor: Some(5.0),
        },
        Headline {
            file: "BENCH_scenarios.json",
            metric: "sweep cells/s",
            value: sweep_cells_per_sec(scenarios),
            unit: Unit::PerSec,
            floor: None,
        },
        Headline {
            file: "BENCH_cluster.json",
            metric: "fleet scaling 4w/1w (pressure)",
            value: lookup(cluster, &["scaling", "pressure_4w_over_1w"]),
            unit: Unit::SpeedupX,
            floor: Some(2.0),
        },
        Headline {
            file: "BENCH_fabric.json",
            metric: "fabric vs analytic max rel err",
            value: lookup(fabric, &["agreement", "max_rel_err"]),
            unit: Unit::Ratio,
            floor: None,
        },
        Headline {
            file: "BENCH_obs.json",
            metric: "sampler overhead (pipelined)",
            value: lookup(obs, &["overhead_ratio"]),
            unit: Unit::Ratio,
            floor: None,
        },
    ]
}

/// Reads every known `BENCH_*.json` under `dir` and extracts headlines.
pub fn collect(dir: &Path) -> Vec<Headline> {
    const FILES: &[&str] = &[
        "BENCH_service.json",
        "BENCH_store.json",
        "BENCH_stages.json",
        "BENCH_scenarios.json",
        "BENCH_cluster.json",
        "BENCH_fabric.json",
        "BENCH_obs.json",
    ];
    let parsed: Vec<(&'static str, Option<Value>)> = FILES
        .iter()
        .map(|name| {
            let body = std::fs::read_to_string(dir.join(name)).ok();
            (*name, body.and_then(|b| serde::json::parse(&b).ok()))
        })
        .collect();
    headlines(&parsed)
}

/// The human-readable trajectory table.
pub fn report_text(rows: &[Headline]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|h| {
            vec![
                h.file.to_string(),
                h.metric.to_string(),
                h.value.map_or_else(|| "—".into(), |v| fmt_value(v, h.unit)),
                match (h.value, h.floor) {
                    (Some(v), Some(floor)) => {
                        if v >= floor {
                            format!("≥ {} ok", fmt_value(floor, h.unit))
                        } else {
                            format!("BELOW {}", fmt_value(floor, h.unit))
                        }
                    }
                    (None, _) => "missing".into(),
                    (Some(_), None) => String::new(),
                },
            ]
        })
        .collect();
    render_table(
        "Benchmark trajectory (committed BENCH_*.json)",
        &["file", "metric", "value", "gate"],
        &table,
    )
}

/// The same table as a machine-readable JSON document.
pub fn report_json(rows: &[Headline]) -> Value {
    Value::Map(vec![(
        "headlines".into(),
        Value::Seq(
            rows.iter()
                .map(|h| {
                    let mut entry = vec![
                        ("file".to_string(), Value::Str(h.file.into())),
                        ("metric".to_string(), Value::Str(h.metric.into())),
                        ("value".to_string(), h.value.map_or(Value::Null, Value::F64)),
                    ];
                    if let Some(floor) = h.floor {
                        entry.push(("floor".into(), Value::F64(floor)));
                        entry.push((
                            "meets_floor".into(),
                            Value::Bool(h.value.is_some_and(|v| v >= floor)),
                        ));
                    }
                    Value::Map(entry)
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headlines_extract_known_fields_and_tolerate_missing_files() {
        let service = serde::json::parse(
            r#"{"cached": {"requests_per_sec": 77000.0},
                "cached_pipelined": {"requests_per_sec": 174000.0},
                "cold_simulate_ms": 55.0,
                "capacity_pressure": {"hit_rate": 0.52}}"#,
        )
        .unwrap();
        let rows = headlines(&[
            ("BENCH_service.json", Some(service)),
            ("BENCH_store.json", None),
        ]);
        let cached = rows
            .iter()
            .find(|h| h.metric == "cached req/s (serial)")
            .unwrap();
        assert_eq!(cached.value, Some(77000.0));
        let store = rows.iter().find(|h| h.file == "BENCH_store.json").unwrap();
        assert_eq!(store.value, None);
    }

    #[test]
    fn sweep_headline_is_cells_per_second() {
        let sweep = |body: &str| {
            let rows = headlines(&[("BENCH_scenarios.json", serde::json::parse(body).ok())]);
            let row = rows.into_iter().find(|h| h.metric == "sweep cells/s");
            row.unwrap().value
        };
        assert_eq!(
            sweep(r#"{"cells_total": 96, "total_wall_ms": 48.0}"#),
            Some(2000.0)
        );
        assert_eq!(sweep(r#"{"cells_total": 96, "total_wall_ms": 0.0}"#), None);
        assert_eq!(sweep(r#"{"cells_total": 96}"#), None);
    }

    #[test]
    fn text_report_flags_floors_and_missing_values() {
        let rows = vec![
            Headline {
                file: "BENCH_stages.json",
                metric: "stage-memo speedup (knob grid)",
                value: Some(5.7),
                unit: Unit::SpeedupX,
                floor: Some(5.0),
            },
            Headline {
                file: "BENCH_stages.json",
                metric: "below floor",
                value: Some(3.0),
                unit: Unit::SpeedupX,
                floor: Some(5.0),
            },
            Headline {
                file: "BENCH_obs.json",
                metric: "sampler overhead (pipelined)",
                value: None,
                unit: Unit::Ratio,
                floor: None,
            },
        ];
        let text = report_text(&rows);
        assert!(text.contains("5.70x"), "{text}");
        assert!(text.contains("≥ 5.00x ok"), "{text}");
        assert!(text.contains("BELOW 5.00x"), "{text}");
        assert!(text.contains("missing"), "{text}");
    }

    #[test]
    fn json_report_carries_floor_verdicts() {
        let rows = vec![Headline {
            file: "BENCH_store.json",
            metric: "store min get/s under pressure",
            value: Some(4.2e6),
            unit: Unit::PerSec,
            floor: Some(1e6),
        }];
        let text = serde::json::to_string(&report_json(&rows));
        assert!(text.contains("\"meets_floor\":true"), "{text}");
        assert!(text.contains("\"floor\":1000000.0"), "{text}");
    }

    #[test]
    fn collator_reads_the_committed_benchmarks() {
        // The repo commits these files, so running from the workspace
        // root should populate most rows.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let rows = collect(&dir);
        assert_eq!(rows.len(), 10);
        let populated = rows.iter().filter(|h| h.value.is_some()).count();
        assert!(populated >= 6, "only {populated} headline rows populated");
    }
}
