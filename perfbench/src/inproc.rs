//! The in-process workloads, `sweep` and `routed`: grids streamed
//! through `Runner::run_grid_streaming` over a fresh unbounded
//! `ResultStore` with two runner threads, each cell NDJSON-encoded as
//! `mcdla sweep --ndjson` does.
//!
//! A traced run drives the same cells through `Runner::run` from two
//! benchmark threads instead, so each call wears a benchmark span, and
//! turns on the engine's stage histograms.

use std::collections::{BTreeMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mcdla_bench::reports::sweep_cell_line;
use mcdla_core::{
    stages, FabricTopology, IterationSim, ResultStore, Runner, Scenario, ScenarioGrid, StageStats,
    SystemDesign, TimedRun,
};
use mcdla_dnn::Benchmark;
use mcdla_obs::HistogramSnapshot;
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::Bytes;

use crate::check::{self, Golden};
use crate::layers::{self, Layers};
use crate::report::{cpu_seconds, peak_rss_mb, quantile, sorted, Outcome, Section};
use crate::rng::Rng;
use crate::spans::{self, Span};
use crate::Ctx;

const RUNNER_THREADS: usize = 2;
/// The channel depth `mcdla sweep --ndjson` gives its stream.
const STREAM_BUFFER: usize = 2 * RUNNER_THREADS;

/// Runs `cells` on the runner's two threads and hands each finished
/// cell to `sink` in completion order, until the cells run out or
/// `deadline` passes. Returns the number of cells handed over.
fn execute(
    runner: &Runner,
    cells: Vec<Scenario>,
    deadline: Option<Instant>,
    traced: bool,
    mut sink: impl FnMut(TimedRun),
) -> usize {
    let past = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    let mut n = 0;
    if !traced {
        // Dropping the stream early cancels the remaining cells.
        for run in runner.run_grid_streaming(cells, STREAM_BUFFER) {
            sink(run);
            n += 1;
            if past(deadline) {
                break;
            }
        }
        return n;
    }
    let parent = Span::enter("grid.stream");
    let parent_id = parent.id();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::sync_channel::<TimedRun>(STREAM_BUFFER);
    std::thread::scope(|scope| {
        for _ in 0..RUNNER_THREADS {
            let tx = tx.clone();
            let (next, stop, cells) = (&next, &stop, &cells);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(s) = cells.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let start = Instant::now();
                    let report = {
                        let _span = Span::enter_under("engine.run", parent_id);
                        runner.run(*s)
                    };
                    let run = TimedRun {
                        scenario: *s,
                        report,
                        wall: start.elapsed(),
                        cached: false,
                    };
                    if tx.send(run).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for run in rx.iter() {
            sink(run);
            n += 1;
            if past(deadline) {
                stop.store(true, Ordering::Relaxed);
                break;
            }
        }
        // Unblock threads waiting on a full channel before joining.
        drop(rx);
    });
    n
}

/// Deterministic 1-in-`every` cell sample, keyed by the cell itself.
fn sampled(s: &Scenario, every: u64) -> bool {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish().is_multiple_of(every)
}

/// The knobs one sweep pass applies to the 96-cell paper matrix.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    devices: Option<usize>,
    batch: Option<u64>,
    compression: Option<f64>,
}

impl Knobs {
    const PAPER: Knobs = Knobs {
        devices: None,
        batch: None,
        compression: None,
    };

    /// Devices 1–256, a global batch in 256..16632 (≥ every device
    /// count, so data-parallel cells stay valid), compression off half
    /// the time.
    fn draw(rng: &mut Rng) -> Knobs {
        Knobs {
            devices: Some(1 << rng.below(9)),
            batch: Some(256 + 8 * rng.below(2048)),
            compression: rng.pick(&[None, None, Some(1.5), Some(2.0), Some(4.0)]),
        }
    }
}

fn expand(knobs: &[Knobs]) -> Vec<Scenario> {
    let matrix = ScenarioGrid::paper_default().scenarios();
    let mut out = Vec::with_capacity(knobs.len() * matrix.len());
    for k in knobs {
        for s in &matrix {
            let mut s = *s;
            s.devices = k.devices;
            s.batch = k.batch;
            s.overrides.compression = k.compression;
            out.push(s);
        }
    }
    out
}

/// Device counts of the routed grid: an odd number of levels, so the
/// median cell sits inside one level rather than on a boundary.
const ROUTED_DEVICES: [usize; 5] = [8, 16, 32, 48, 64];

/// The routed grid: the 5 topologies × 8–64 devices, each crossed with
/// every (design, benchmark, strategy) exactly once, so no (design,
/// devices, topology, benchmark, strategy) cell repeats. Cells come in
/// rounds holding one cell of every (topology, devices) pair, so any
/// prefix of the list has the same mix of fabric sizes.
///
/// Flow-routed cells differ in cost by two orders of magnitude, so
/// which cells a time-bounded run reaches must not depend on the seed:
/// the rounds are fixed (slot `i` of round `r` takes tuple `r + 7i` of
/// one fixed order), and the seed draws each cell's global batch and
/// the order of cells within each round.
fn routed_cells(seed: u64, tiny: bool) -> Vec<Scenario> {
    let mut rng = Rng::fork(seed, 2);
    let devices: &[usize] = if tiny {
        &ROUTED_DEVICES[..2]
    } else {
        &ROUTED_DEVICES
    };
    let mut tuples = Vec::new();
    for d in SystemDesign::ALL {
        for b in Benchmark::ALL {
            for st in ParallelStrategy::ALL {
                tuples.push((d, b, st));
            }
        }
    }
    Rng::new(0).shuffle(&mut tuples);
    let slots: Vec<(FabricTopology, usize)> = FabricTopology::ALL
        .iter()
        .flat_map(|&t| devices.iter().map(move |&d| (t, d)))
        .collect();
    let mut cells = Vec::new();
    for r in 0..tuples.len() {
        let mut round: Vec<Scenario> = slots
            .iter()
            .enumerate()
            .map(|(i, &(topo, dev))| {
                let (d, b, st) = tuples[(r + 7 * i) % tuples.len()];
                Scenario::new(d, b, st)
                    .with_devices(dev)
                    .with_batch(rng.pick(&[512, 1024, 2048, 4096]))
                    .with_topology(topo)
            })
            .collect();
        rng.shuffle(&mut round);
        cells.extend(round);
    }
    cells
}

/// Set-up, timed in a fresh process: plan the run's inputs, validate
/// them, and stream the 96 paper-default cells through a new runner —
/// the lazy engine set-up a fresh `mcdla sweep` pays before it settles.
pub fn setup_probe(ctx: &Ctx) -> Result<(), String> {
    let planned = match ctx.workload.as_str() {
        "routed" => routed_cells(ctx.seed, ctx.tiny),
        _ => {
            let mut rng = Rng::fork(ctx.seed, 1);
            let knobs: Vec<Knobs> = (0..16).map(|_| Knobs::draw(&mut rng)).collect();
            expand(&knobs)
        }
    };
    for s in &planned {
        s.validate()?;
    }
    let runner = Runner::with_store(RUNNER_THREADS, Arc::new(ResultStore::unbounded()));
    let mut bytes = 0;
    let cells = ScenarioGrid::paper_default().scenarios();
    execute(&runner, cells, None, false, |run| {
        bytes += sweep_cell_line(&run).len();
    });
    std::hint::black_box(bytes);
    Ok(())
}

fn stage_hists() -> BTreeMap<String, HistogramSnapshot> {
    stages::stage_latency()
        .into_iter()
        .map(|(name, snap)| (name.to_owned(), snap))
        .collect()
}

fn hist_delta(
    after: &BTreeMap<String, HistogramSnapshot>,
    before: &BTreeMap<String, HistogramSnapshot>,
) -> BTreeMap<String, HistogramSnapshot> {
    after
        .iter()
        .map(|(k, v)| {
            let d = match before.get(k) {
                Some(b) => v.delta(b),
                None => v.clone(),
            };
            (k.clone(), d)
        })
        .collect()
}

/// What the timed section of an in-process run produced.
#[derive(Default)]
struct Timed {
    cells: u64,
    elapsed: Duration,
    wall_us: Vec<f64>,
    ndjson_bytes: u64,
    /// Sampled cells with the NDJSON line they produced.
    samples: Vec<(Scenario, String)>,
    golden: Vec<(Scenario, mcdla_core::IterationReport)>,
    store_hits: u64,
    store_misses: u64,
    store_evictions: u64,
    store_dedup_waits: u64,
    /// CPU seconds of this process in the timed section.
    cpu_s: f64,
    /// Read as soon as the timed section ends, before the checks.
    peak_rss_mb: f64,
}

impl Timed {
    /// Consumes one finished cell: encode it, time it, keep what the
    /// checks need.
    fn take(&mut self, run: &TimedRun, sink: &mut Vec<u8>, sample_every: u64, keep_paper: bool) {
        let line = {
            let _span = Span::enter("ndjson.encode");
            sweep_cell_line(run)
        };
        sink.extend_from_slice(line.as_bytes());
        sink.push(b'\n');
        self.cells += 1;
        self.wall_us.push(run.wall.as_secs_f64() * 1e6);
        if keep_paper && run.scenario.devices.is_none() {
            self.golden.push((run.scenario, run.report.clone()));
        }
        if self.samples.is_empty() || sampled(&run.scenario, sample_every) {
            self.samples.push((run.scenario, line));
        }
    }

    fn add_store(&mut self, store: &ResultStore) {
        let st = store.stats();
        self.store_hits += st.hits;
        self.store_misses += st.misses;
        self.store_evictions += st.evictions;
        self.store_dedup_waits += st.dedup_waits;
    }
}

pub fn sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let golden = Golden::load(&ctx.root)?;
    let mut rng = Rng::fork(ctx.seed, 1);
    let knobs_per_pass = if ctx.tiny { 2 } else { 16 };
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut pass = |knobs: &[Knobs], timed: &mut Timed, traced: bool, keep_paper: bool| {
        let _span = Span::enter("sweep.pass");
        let runner = Runner::with_store(RUNNER_THREADS, Arc::new(ResultStore::unbounded()));
        sink.clear();
        execute(&runner, expand(knobs), None, traced, |run| {
            timed.take(&run, &mut sink, 128, keep_paper);
        });
        timed.ndjson_bytes += sink.len() as u64;
        timed.add_store(runner.store());
    };

    // Warm the stage tables up to their steady churn before timing, on
    // knobs of their own so the timed inputs never depend on how many
    // warm-up passes fit.
    let mut warm_rng = Rng::fork(ctx.seed, 4);
    let warm_until = Instant::now() + Duration::from_secs_f64((ctx.seconds / 8.0).min(1.0));
    while Instant::now() < warm_until {
        let knobs: Vec<Knobs> = (0..knobs_per_pass)
            .map(|_| Knobs::draw(&mut warm_rng))
            .collect();
        pass(&knobs, &mut Timed::default(), false, false);
    }

    let (stats0, hists0) = (stages::stage_stats(), stage_hists());
    let mut timed = Timed::default();
    let cpu0 = cpu_seconds("self")?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut passes = 0u64;
    let mut measured = Vec::new();
    while passes == 0 || Instant::now() < deadline {
        let mut knobs: Vec<Knobs> = (0..knobs_per_pass).map(|_| Knobs::draw(&mut rng)).collect();
        if passes == 0 {
            // The first timed pass carries the golden paper matrix.
            knobs[0] = Knobs::PAPER;
        }
        pass(&knobs, &mut timed, ctx.traced, passes == 0);
        measured.extend(knobs);
        passes += 1;
    }
    timed.elapsed = start.elapsed();
    timed.cpu_s = cpu_seconds("self")? - cpu0;
    timed.peak_rss_mb = peak_rss_mb("self")?;
    let (stats1, hists1) = (stages::stage_stats(), stage_hists());
    let ran = expand(&measured);

    let mut out = Outcome {
        attempted: timed.cells,
        ..Outcome::default()
    };
    let (n, bad, first) = golden.compare(&timed.golden);
    out.check(
        "golden paper-default cells",
        n,
        bad + 96u64.saturating_sub(n),
        first,
    );
    let (n, bad, first) = monolithic_check(&timed.samples);
    out.check("sampled cells vs simulate_monolithic", n, bad, first);

    let traffic = stage_key_traffic(&ran, &stats1);
    out.detail("passes", passes as f64, "count");
    out.detail("ndjson_bytes", timed.ndjson_bytes as f64, "bytes");
    report_common(ctx, &mut out, &timed, "cells_per_s");
    for (name, distinct, cap) in &traffic {
        out.detail(
            &format!("traffic.{name}.distinct_keys"),
            *distinct as f64,
            "count",
        );
        out.detail(&format!("traffic.{name}.cap"), *cap as f64, "count");
    }
    if ctx.traced {
        let mut l = Layers::default();
        in_process_layers(
            &mut l,
            &timed,
            &stats0,
            &stats1,
            &hist_delta(&hists1, &hists0),
        );
        for (name, distinct, cap) in &traffic {
            if *cap > 0 {
                l.set(
                    &format!("traffic.{name}.keys_over_cap"),
                    *distinct as f64 / *cap as f64,
                );
            }
        }
        fabric_probe(&mut l, &ran, ctx.seed);
        l.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        l.emit(&mut out);
    }
    Ok(out)
}

pub fn routed(ctx: &Ctx) -> Result<Outcome, String> {
    let cells = routed_cells(ctx.seed, ctx.tiny);
    let runner = Runner::with_store(RUNNER_THREADS, Arc::new(ResultStore::unbounded()));
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut timed = Timed::default();
    let mut ran = Vec::new();
    let (stats0, hists0) = (stages::stage_stats(), stage_hists());
    let cpu0 = cpu_seconds("self")?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    // Timed to the last cell taken: cancelled cells still in flight are
    // joined after that, untimed.
    let (mut last, mut cpu_last) = (start, Ok(cpu0));
    execute(&runner, cells, Some(deadline), ctx.traced, |run| {
        timed.take(&run, &mut sink, 64, false);
        ran.push(run.scenario);
        last = Instant::now();
        if last >= deadline {
            cpu_last = cpu_seconds("self");
        }
    });
    timed.elapsed = last - start;
    timed.cpu_s = cpu_last? - cpu0;
    timed.peak_rss_mb = peak_rss_mb("self")?;
    timed.ndjson_bytes = sink.len() as u64;
    timed.add_store(runner.store());
    let (stats1, hists1) = (stages::stage_stats(), stage_hists());

    let mut out = Outcome {
        attempted: timed.cells,
        ..Outcome::default()
    };
    let (n, bad, first) = monolithic_check(&timed.samples);
    out.check("sampled routed cells vs simulate_monolithic", n, bad, first);
    let fabrics: HashSet<_> = ran.iter().map(fabric_key).collect();
    out.detail("traffic.routed_fabrics", fabrics.len() as f64, "count");
    out.detail("ndjson_bytes", timed.ndjson_bytes as f64, "bytes");
    report_common(ctx, &mut out, &timed, "cells_per_s");
    if ctx.traced {
        let mut l = Layers::default();
        in_process_layers(
            &mut l,
            &timed,
            &stats0,
            &stats1,
            &hist_delta(&hists1, &hists0),
        );
        l.set("traffic.routed_fabrics", fabrics.len() as f64);
        fabric_probe(&mut l, &ran, ctx.seed);
        l.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        l.emit(&mut out);
    }
    Ok(out)
}

fn monolithic_check(samples: &[(Scenario, String)]) -> (u64, u64, String) {
    let _span = Span::enter("check.monolithic");
    check::tally(
        samples
            .iter()
            .map(|(s, line)| (s.label(), line.clone(), check::reference_ndjson(s))),
    )
}

/// The end-to-end metrics (untraced) and the run's headline details.
fn report_common(ctx: &Ctx, out: &mut Outcome, timed: &Timed, headline: &str) {
    let secs = timed.elapsed.as_secs_f64();
    out.detail(headline, timed.cells as f64 / secs, "1/s");
    out.detail("cells", timed.cells as f64, "count");
    out.end_to_end(
        ctx.traced,
        ctx.setup_s,
        Section {
            ops: timed.cells,
            elapsed_s: secs,
            cpu_s: timed.cpu_s,
            latency_us: timed.wall_us.clone(),
            peak_rss_mb: timed.peak_rss_mb,
        },
    );
}

/// Engine, stage and store layers of an in-process traced run.
fn in_process_layers(
    l: &mut Layers,
    timed: &Timed,
    stats0: &[StageStats],
    stats1: &[StageStats],
    hists: &BTreeMap<String, HistogramSnapshot>,
) {
    l.stage_counters(stats0, stats1);
    l.stage_latency(hists);
    let all = spans::all();
    let run_us = sorted(spans::durations(&all, "engine.run"));
    l.set("engine.run.p50_us", quantile(&run_us, 0.5));
    l.set("engine.run.p99_us", quantile(&run_us, 0.99));
    let total: f64 = run_us.iter().sum();
    if total > 0.0 {
        let stage_us = layers::stage_time_us(hists);
        l.set(
            "engine.unattributed_share",
            ((total - stage_us) / total).max(0.0),
        );
    }
    let lookups = timed.store_hits + timed.store_misses;
    l.set(
        "store.hit_rate",
        timed.store_hits as f64 / lookups.max(1) as f64,
    );
    l.set("store.misses", timed.store_misses as f64);
    l.set("store.evictions", timed.store_evictions as f64);
    l.set("store.dedup_waits", timed.store_dedup_waits as f64);
}

type FabricKey = (SystemDesign, usize, Option<FabricTopology>);

fn fabric_key(s: &Scenario) -> FabricKey {
    (s.design, s.config().devices, s.topology)
}

/// Times `CommFabric::collective_time` on each distinct fabric the run
/// used, for the collective kinds and sizes its cells' plans issue (up
/// to two cells and four distinct collectives per fabric, within a
/// fixed time budget).
fn fabric_probe(l: &mut Layers, ran: &[Scenario], seed: u64) {
    let _probe = Span::enter("fabric.probe");
    let mut by_fabric: BTreeMap<String, Vec<Scenario>> = BTreeMap::new();
    for s in ran {
        let cells = by_fabric.entry(format!("{:?}", fabric_key(s))).or_default();
        if cells.len() < 2 && !cells.iter().any(|c| c.benchmark == s.benchmark) {
            cells.push(*s);
        }
    }
    let mut fabrics: Vec<Vec<Scenario>> = by_fabric.into_values().collect();
    Rng::fork(seed, 3).shuffle(&mut fabrics);
    let budget = Instant::now() + Duration::from_secs(3);
    let mut times = Vec::new();
    'fabrics: for cells in fabrics {
        for s in cells {
            let cfg = s.config();
            let net = s.benchmark.build();
            let sim = IterationSim::new(cfg.clone(), &net, s.strategy);
            if sim.fabric().ring_shapes().is_empty() || sim.plan().workers < 2 {
                continue;
            }
            let mut ops: Vec<_> = sim
                .plan()
                .fuse_buckets(cfg.sync_bucket_bytes)
                .iter()
                .map(|op| (op.kind, op.bytes))
                .collect();
            ops.sort_by_key(|&(k, b)| (format!("{k:?}"), b));
            ops.dedup();
            for (kind, bytes) in ops.into_iter().take(4) {
                let start = Instant::now();
                {
                    let _span = Span::enter("fabric.collective");
                    std::hint::black_box(sim.fabric().collective_time(kind, Bytes::new(bytes)));
                }
                times.push(start.elapsed().as_secs_f64() * 1e6);
                if Instant::now() >= budget {
                    break 'fabrics;
                }
            }
        }
    }
    let times = sorted(times);
    l.set("fabric.collective.p50_us", quantile(&times, 0.5));
    l.set("fabric.collective.p99_us", quantile(&times, 0.99));
    l.set("fabric.collectives", times.len() as f64);
}

/// Distinct keys the run's cells give the three capped stage tables
/// (key axes as documented in `crates/core/src/stages.rs`), with each
/// table's capacity: `(table, distinct, cap)`.
fn stage_key_traffic(ran: &[Scenario], stats: &[StageStats]) -> Vec<(&'static str, usize, u64)> {
    let cap = |name: &str| {
        stats
            .iter()
            .find(|s| s.stage == name)
            .and_then(|s| s.capacity)
            .unwrap_or(0)
    };
    let mut timing = HashSet::new();
    let mut schedule = HashSet::new();
    let mut sync = HashSet::new();
    for s in ran {
        let cfg = s.config();
        let worker_batch = match s.strategy {
            ParallelStrategy::DataParallel => cfg.global_batch / cfg.devices as u64,
            ParallelStrategy::ModelParallel => cfg.global_batch,
        };
        let device = (s.generation, s.overrides.device_model);
        timing.insert((s.benchmark, device, worker_batch));
        schedule.insert((s.benchmark, worker_batch, s.design.virtualizes()));
        let plan_batch = match s.strategy {
            ParallelStrategy::DataParallel => 0,
            ParallelStrategy::ModelParallel => cfg.global_batch,
        };
        sync.insert((
            (
                s.design,
                cfg.devices,
                device,
                s.overrides.pcie_gen4,
                s.topology,
            ),
            (s.benchmark, s.strategy, cfg.devices, plan_batch),
        ));
    }
    vec![
        ("layer_timing", timing.len(), cap("layer_timing")),
        ("schedule", schedule.len(), cap("schedule")),
        ("sync", sync.len(), cap("sync")),
    ]
}
