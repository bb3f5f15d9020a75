//! The fleet bench behind `mcdla cluster-bench`: spins up in-process
//! fleets of 1/2/4 workers behind a gateway and measures what a fleet
//! is *for*, packaging the result as `BENCH_cluster.json`.
//!
//! Two workloads, measured at every fleet size:
//!
//! * **Hot path** — the full 96-cell paper matrix, fully warmed, then
//!   hammered through the gateway over keep-alive connections: cached
//!   req/s and p50/p99 latency, plus streamed-grid cells/s. This prices
//!   the gateway hop; on a box with enough cores it also shows worker
//!   parallelism.
//! * **Capacity pressure** — the headline scaling story and the CI
//!   gate. A working set of [`PRESSURE_WORKING_SET`] distinct cells is
//!   served by workers whose stores are bounded to
//!   [`PRESSURE_CACHE_CAP`] cells each. One worker can hold only a
//!   quarter of the set, so ~3/4 of uniform-random requests re-simulate
//!   (the single-node baseline `serve-bench` commits to
//!   `BENCH_service.json` under the same workload); four workers hold
//!   nearly the whole set across their consistent-hash slices (slices
//!   aren't perfectly even, so the fullest worker still evicts a
//!   little) and answer ~90 % from cache. Aggregate cache capacity is the fleet resource that scales
//!   on *any* machine — including single-core CI boxes where wall-clock
//!   parallelism cannot.

use std::time::Instant;

use mcdla_cluster::{spawn_local_fleet, FleetConfig};
use mcdla_core::{Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_obs::Histogram;
use mcdla_parallel::ParallelStrategy;
use mcdla_serve::client::Connection;
use serde::{Serialize, Value};

use crate::render_table;

/// Distinct cells in the capacity-pressure working set.
pub const PRESSURE_WORKING_SET: usize = 128;

/// Per-worker store bound for the pressure workload: a quarter of the
/// working set, so one worker thrashes and four hold everything.
pub const PRESSURE_CACHE_CAP: usize = 32;

/// The shared capacity-pressure working set — identical in
/// `serve-bench` (the committed single-node baseline) and
/// `cluster-bench` (the fleet measurement), so the scaling ratio
/// compares like with like. Distinct global batch sizes make distinct
/// cells of near-identical simulation cost. The cells are deliberately
/// **expensive** ones — 4096-device scale-out ResNet (§VI fabric, ~2 ms
/// each) — because the capacity story is about what a miss costs: a
/// cheap-to-recompute working set doesn't need a bigger cache, a 4096-
/// device sweep does.
pub fn pressure_cells() -> Vec<Scenario> {
    (0..PRESSURE_WORKING_SET)
        .map(|i| {
            Scenario::new(
                SystemDesign::McDlaBwAware,
                Benchmark::ResNet,
                ParallelStrategy::DataParallel,
            )
            .with_devices(4096)
            .with_batch(8192 + i as u64)
        })
        .collect()
}

/// Requests per thread for the pressure phase, derived from the hot
/// phase's count: misses cost ~2 ms each, so a quarter of the hot
/// request count keeps the thrashing single-node run to a few seconds
/// while still measuring thousands of requests.
pub(crate) fn pressure_requests(requests_per_thread: usize) -> usize {
    (requests_per_thread / 4).max(50)
}

/// One load phase's measurement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load {
    pub requests_per_sec: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
}

impl Load {
    pub(crate) fn to_value(self) -> Value {
        Value::Map(vec![
            ("requests_per_sec".into(), Value::F64(self.requests_per_sec)),
            ("latency_p50_us".into(), Value::F64(self.latency_p50_us)),
            ("latency_p99_us".into(), Value::F64(self.latency_p99_us)),
        ])
    }
}

/// Hammers `POST /simulate` at `addr` from `threads` persistent
/// connections, `per_thread` requests each, bodies drawn
/// deterministically (seeded LCG per thread) from `bodies`. Latencies
/// are accumulated into one shared lock-free [`Histogram`] (no
/// per-request `Vec` growth, no post-hoc sort) and the percentiles read
/// off its snapshot.
///
/// # Panics
///
/// Panics when a connection or request fails — a bench environment
/// problem, not a measurement.
pub(crate) fn hammer(addr: &str, bodies: &[String], threads: usize, per_thread: usize) -> Load {
    let hist = Histogram::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let hist = &hist;
            scope.spawn(move || {
                let mut conn = Connection::open(addr).expect("open bench connection");
                let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15 ^ (t as u64).wrapping_mul(0xdead_beef);
                for _ in 0..per_thread {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let body = &bodies[((lcg >> 33) as usize) % bodies.len()];
                    let t0 = Instant::now();
                    let resp = conn
                        .request("POST", "/simulate", Some(body))
                        .expect("bench simulate");
                    hist.observe_duration(t0.elapsed());
                    assert!(resp.is_ok(), "bench simulate failed: {}", resp.body);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let snap = hist.snapshot();
    Load {
        requests_per_sec: (threads * per_thread) as f64 / wall.max(1e-9),
        latency_p50_us: snap.quantile(0.5) * 1e6,
        latency_p99_us: snap.quantile(0.99) * 1e6,
    }
}

/// The `mcdla cluster-bench` result.
#[derive(Debug)]
pub struct ClusterBenchResult {
    /// Pretty-printed JSON payload (the `BENCH_cluster.json` content).
    pub json: String,
    /// Human-readable summary table.
    pub summary: String,
    /// Capacity-pressure req/s at 4 workers over 1 worker.
    pub pressure_scaling: f64,
    /// Capacity-pressure req/s at 4 workers (the CI-gated number,
    /// compared against the committed single-node baseline).
    pub pressure_rps_4w: f64,
}

struct FleetRun {
    workers: usize,
    hot: Load,
    stream_cells: usize,
    stream_cells_per_sec: f64,
    pressure: Load,
    pressure_hit_rate: f64,
}

/// One `(hits, misses)` reading of the fleet via `GET /cluster/stats`.
fn fleet_hits_misses(conn: &mut Connection) -> (u64, u64) {
    let resp = conn
        .request("GET", "/cluster/stats", None)
        .expect("cluster stats");
    assert!(resp.is_ok(), "cluster stats failed: {}", resp.body);
    let parsed = serde::json::parse(&resp.body).expect("cluster stats JSON");
    let get = |path: &[&str]| -> u64 {
        let mut v = &parsed;
        for key in path {
            let Value::Map(entries) = v else { return 0 };
            match entries.iter().find(|(k, _)| k == key) {
                Some((_, inner)) => v = inner,
                None => return 0,
            }
        }
        match v {
            Value::U64(n) => *n,
            _ => 0,
        }
    };
    (get(&["fleet", "hits"]), get(&["fleet", "misses"]))
}

fn run_fleet(workers: usize, client_threads: usize, requests_per_thread: usize) -> FleetRun {
    // --- Hot path: unbounded stores, fully warmed paper matrix. ---
    let fleet = spawn_local_fleet(&FleetConfig {
        workers,
        worker_threads: client_threads + 1,
        cache_cap: None,
        gateway_threads: client_threads + 2,
        probe_interval: None,
        ..FleetConfig::default()
    })
    .expect("spawn hot fleet");
    let addr = fleet.gateway_addr().to_string();
    let mut probe = Connection::open(&addr).expect("open probe connection");

    // Warm every worker's slice of the matrix, and collect the cell
    // bodies the hammer cycles over.
    let warm = probe
        .request("POST", "/grid", Some("{}"))
        .expect("warm grid");
    assert!(warm.is_ok(), "warm grid failed: {}", warm.body);
    let parsed = serde::json::parse(&warm.body).expect("warm grid JSON");
    let Value::Map(entries) = &parsed else {
        panic!("grid answer is not an object")
    };
    let Some((_, Value::Seq(cells))) = entries.iter().find(|(k, _)| k == "cells") else {
        panic!("grid answer has no cells")
    };
    let bodies: Vec<String> = cells
        .iter()
        .map(|cell| {
            let Value::Map(cell) = cell else {
                panic!("cell is not an object")
            };
            let (_, scenario) = cell
                .iter()
                .find(|(k, _)| k == "scenario")
                .expect("cell scenario");
            serde::json::to_string(scenario)
        })
        .collect();

    let hot = hammer(&addr, &bodies, client_threads, requests_per_thread);

    // Streamed grid, fully cached: sustained cells/s through the
    // gateway's scatter-gather merge.
    let t0 = Instant::now();
    let stream = probe
        .request_stream("POST", "/grid?stream=1", Some("{}"))
        .expect("grid stream");
    assert_eq!(stream.status, 200, "grid stream rejected");
    let lines = stream.collect_lines().expect("clean stream");
    let stream_wall = t0.elapsed().as_secs_f64();
    let stream_cells = lines.len();
    let stream_cells_per_sec = stream_cells as f64 / stream_wall.max(1e-9);
    drop(probe);
    fleet.shutdown();

    // --- Capacity pressure: bounded stores, working set 4x one bound. ---
    let fleet = spawn_local_fleet(&FleetConfig {
        workers,
        worker_threads: client_threads + 1,
        cache_cap: Some(PRESSURE_CACHE_CAP),
        gateway_threads: client_threads + 2,
        probe_interval: None,
        ..FleetConfig::default()
    })
    .expect("spawn pressure fleet");
    let addr = fleet.gateway_addr().to_string();
    let mut probe = Connection::open(&addr).expect("open probe connection");
    let pressure_bodies: Vec<String> = pressure_cells()
        .iter()
        .map(serde::json::to_string)
        .collect();
    // One warm pass so every resident slot is filled before measuring.
    let cells_body = serde::json::to_string(&Value::Map(vec![(
        "cells".into(),
        Value::Seq(pressure_cells().iter().map(|s| s.to_value()).collect()),
    )]));
    let warm = probe
        .request("POST", "/grid", Some(&cells_body))
        .expect("pressure warm grid");
    assert!(warm.is_ok(), "pressure warm failed: {}", warm.body);
    let (hits_before, misses_before) = fleet_hits_misses(&mut probe);
    let pressure = hammer(
        &addr,
        &pressure_bodies,
        client_threads,
        pressure_requests(requests_per_thread),
    );
    let (hits_after, misses_after) = fleet_hits_misses(&mut probe);
    drop(probe);
    fleet.shutdown();
    let hits = hits_after.saturating_sub(hits_before);
    let misses = misses_after.saturating_sub(misses_before);
    let pressure_hit_rate = mcdla_obs::hit_rate(hits as f64, misses as f64);

    FleetRun {
        workers,
        hot,
        stream_cells,
        stream_cells_per_sec,
        pressure,
        pressure_hit_rate,
    }
}

/// Runs the 1/2/4-worker fleet sweep.
///
/// # Panics
///
/// Panics when a fleet cannot bind loopback ports or a request fails —
/// a bench environment problem, not a measurement.
pub fn cluster_bench(client_threads: usize, requests_per_thread: usize) -> ClusterBenchResult {
    let client_threads = client_threads.max(1);
    let requests_per_thread = requests_per_thread.max(1);
    let runs: Vec<FleetRun> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| run_fleet(workers, client_threads, requests_per_thread))
        .collect();

    let one = &runs[0];
    let four = runs.iter().find(|r| r.workers == 4).expect("4-worker run");
    let pressure_scaling = four.pressure.requests_per_sec / one.pressure.requests_per_sec.max(1e-9);
    let hot_scaling = four.hot.requests_per_sec / one.hot.requests_per_sec.max(1e-9);

    let payload = Value::Map(vec![
        (
            "generated_by".into(),
            Value::Str("mcdla cluster-bench".into()),
        ),
        ("client_threads".into(), Value::U64(client_threads as u64)),
        (
            "requests_per_thread".into(),
            Value::U64(requests_per_thread as u64),
        ),
        (
            "pressure".into(),
            Value::Map(vec![
                (
                    "working_set".into(),
                    Value::U64(PRESSURE_WORKING_SET as u64),
                ),
                (
                    "cache_cap_per_worker".into(),
                    Value::U64(PRESSURE_CACHE_CAP as u64),
                ),
            ]),
        ),
        (
            "runs".into(),
            Value::Seq(
                runs.iter()
                    .map(|run| {
                        Value::Map(vec![
                            ("workers".into(), Value::U64(run.workers as u64)),
                            ("cached".into(), run.hot.to_value()),
                            (
                                "grid_stream".into(),
                                Value::Map(vec![
                                    ("cells".into(), Value::U64(run.stream_cells as u64)),
                                    ("cells_per_sec".into(), Value::F64(run.stream_cells_per_sec)),
                                ]),
                            ),
                            (
                                "capacity_pressure".into(),
                                match run.pressure.to_value() {
                                    Value::Map(mut entries) => {
                                        entries.push((
                                            "fleet_hit_rate".into(),
                                            Value::F64(run.pressure_hit_rate),
                                        ));
                                        Value::Map(entries)
                                    }
                                    other => other,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "scaling".into(),
            Value::Map(vec![
                ("pressure_4w_over_1w".into(), Value::F64(pressure_scaling)),
                ("cached_4w_over_1w".into(), Value::F64(hot_scaling)),
            ]),
        ),
    ]);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for run in &runs {
        rows.push(vec![
            format!("{} worker(s): cached via gateway", run.workers),
            format!(
                "{:.0} req/s (p50 {:.1} us, p99 {:.1} us)",
                run.hot.requests_per_sec, run.hot.latency_p50_us, run.hot.latency_p99_us
            ),
        ]);
        rows.push(vec![
            format!(
                "{} worker(s): streamed grid ({} cells)",
                run.workers, run.stream_cells
            ),
            format!("{:.0} cells/s", run.stream_cells_per_sec),
        ]);
        rows.push(vec![
            format!("{} worker(s): capacity pressure", run.workers),
            format!(
                "{:.0} req/s (hit rate {:.0}%, p99 {:.1} us)",
                run.pressure.requests_per_sec,
                run.pressure_hit_rate * 100.0,
                run.pressure.latency_p99_us
            ),
        ]);
    }
    rows.push(vec![
        "pressure scaling 4w / 1w".into(),
        format!("{pressure_scaling:.2}x"),
    ]);
    let summary = render_table(
        &format!(
            "cluster-bench (loopback fleet; pressure = {PRESSURE_WORKING_SET}-cell working set, \
             {PRESSURE_CACHE_CAP}-cell store per worker)"
        ),
        &["metric", "value"],
        &rows,
    );

    ClusterBenchResult {
        json: serde::json::to_string_pretty(&payload),
        summary,
        pressure_scaling,
        pressure_rps_4w: four.pressure.requests_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_cells_are_distinct_and_valid() {
        let cells = pressure_cells();
        assert_eq!(cells.len(), PRESSURE_WORKING_SET);
        for cell in &cells {
            cell.validate().expect("pressure cell validates");
        }
        let digests: std::collections::BTreeSet<u64> = cells.iter().map(|c| c.digest()).collect();
        assert_eq!(
            digests.len(),
            PRESSURE_WORKING_SET,
            "cells must be distinct"
        );
        // The working set must overflow one worker's bound 4x, and fit
        // exactly into a 4-worker fleet.
        assert_eq!(PRESSURE_WORKING_SET, 4 * PRESSURE_CACHE_CAP);
    }

    #[test]
    fn a_tiny_fleet_sweep_measures_and_scales_capacity() {
        // A deliberately small run (debug build, shared CI cores): the
        // release-build scaling gate lives in CI against the committed
        // JSON; here we only require the machinery to work end to end.
        let result = cluster_bench(2, 60);
        assert!(result.json.contains("capacity_pressure"));
        assert!(result.json.contains("grid_stream"));
        assert!(result.summary.contains("pressure scaling"));
        assert!(result.pressure_rps_4w > 0.0);
    }
}
