//! The fleet workloads. Load is a closed loop: two client threads, each
//! on its own keep-alive connection, send the next request only after
//! the previous answer — the way scripts, the gateway and `mcdla top`
//! call the service.
//!
//! - `serve`: Zipf-popular `POST /simulate` straight to worker 0, then
//!   the same mix through the gateway.
//! - `grid`: cold `POST /grid?stream=1` through the gateway, which
//!   scatters each grid over both workers.
//!
//! The key space of each `serve` phase exceeds the workers'
//! `--cache-cap`, so hits, misses, inserts and evictions interleave.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mcdla_core::{Scenario, StageStats, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_obs::HistogramSnapshot;
use mcdla_parallel::ParallelStrategy;
use mcdla_serve::client::{Connection, Timeouts};
use serde::Value;

use crate::check;
use crate::fleet::{self, Fleet, Node};
use crate::layers::Layers;
use crate::report::{median, quantile, sorted, Outcome, Section};
use crate::rng::{Rng, Zipf};
use crate::spans::Span;
use crate::Ctx;

const CLIENT_THREADS: usize = 2;
/// Worker result-store bound.
const CACHE_CAP: usize = 1024;
/// Distinct `/simulate` keys per workload (8× the cache bound).
const KEYS: usize = 8192;
const ZIPF_S: f64 = 1.25;
/// Every `KEEP_EVERY`-th answer per client thread is kept and checked
/// against the monolithic engine.
const KEEP_EVERY: u64 = 64;

fn timeouts() -> Timeouts {
    Timeouts::all(Duration::from_secs(30))
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

pub fn fleet_workload(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mcdla = ctx
        .mcdla
        .clone()
        .ok_or("the fleet workloads need --mcdla <path to the mcdla binary>")?;
    let cap = if ctx.tiny { 64 } else { CACHE_CAP };
    // Set-up is timed five times; the fifth fleet is the one measured.
    let mut setups = Vec::new();
    for _ in 0..4 {
        let warmup = Fleet::start(&mcdla, &ctx.out_dir, cap, ctx.traced)?;
        setups.push(warmup.setup_s);
    }
    let fleet = Fleet::start(&mcdla, &ctx.out_dir, cap, ctx.traced)?;
    setups.push(fleet.setup_s);
    ctx.setup_s = median(setups);
    match ctx.workload.as_str() {
        "grid" => grid(ctx, &fleet),
        _ => serve(ctx, &fleet, cap),
    }
}

/// `keys` distinct seeded cells: any design, benchmark and strategy,
/// 1–256 devices, 64 batch sizes, compression on or off.
fn key_space(seed: u64, salt: u64, keys: usize) -> Vec<Scenario> {
    let mut rng = Rng::fork(seed, salt);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(keys);
    while out.len() < keys {
        let mut s = Scenario::new(
            rng.pick(&SystemDesign::ALL),
            rng.pick(&Benchmark::ALL),
            rng.pick(&ParallelStrategy::ALL),
        )
        .with_devices(1 << rng.below(9))
        .with_batch(256 + 8 * rng.below(64));
        if rng.below(2) == 1 {
            s = s.with_compression(2.0);
        }
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Call {
    id: String,
    key: usize,
    rtt_us: f64,
    ok: bool,
    cached: bool,
}

#[derive(Debug, Default)]
struct ThreadLog {
    calls: Vec<Call>,
    /// `(key index, cached, body)` of kept answers.
    kept: Vec<(usize, bool, String)>,
    errors: Vec<String>,
}

/// Closed-loop `POST /simulate` traffic from one client thread until
/// `until`.
fn simulate_client(
    addr: &str,
    bodies: &[String],
    zipf: &Zipf,
    mut rng: Rng,
    tag: &str,
    until: Instant,
) -> ThreadLog {
    let mut log = ThreadLog::default();
    let mut conn: Option<Connection> = None;
    let mut n: u64 = 0;
    while Instant::now() < until {
        let key = zipf.sample(&mut rng);
        let id = format!("pb{tag}x{n}");
        n += 1;
        let start = Instant::now();
        let answer = {
            let _span = Span::enter("client.simulate");
            let c = match conn.as_mut() {
                Some(c) => Ok(c),
                None => Connection::open_with(addr, timeouts()).map(|c| conn.insert(c)),
            };
            c.and_then(|c| {
                c.request_with(
                    "POST",
                    "/simulate",
                    &[("X-Mcdla-Request-Id", &id)],
                    Some(&bodies[key]),
                )
            })
        };
        let rtt_us = start.elapsed().as_secs_f64() * 1e6;
        match answer {
            Ok(r) if r.status == 200 => {
                let cached = r.body.contains("\"cached\": true");
                if n % KEEP_EVERY == 1 {
                    log.kept.push((key, cached, r.body));
                }
                log.calls.push(Call {
                    id,
                    key,
                    rtt_us,
                    ok: true,
                    cached,
                });
            }
            other => {
                let why = match other {
                    Ok(r) => format!("HTTP {}", r.status),
                    Err(e) => {
                        conn = None;
                        e
                    }
                };
                log.errors.push(why);
                log.calls.push(Call {
                    id,
                    key,
                    rtt_us,
                    ok: false,
                    cached: false,
                });
            }
        }
    }
    log
}

fn run_clients<T: Send, F>(f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let f = &f;
                scope.spawn(move || f(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn warm_seconds(ctx: &Ctx) -> f64 {
    (ctx.seconds / 8.0).min(1.0)
}

/// One closed-loop `POST /simulate` phase: a warm-up, then `seconds`
/// of timed traffic over its own seeded key space.
struct Phase {
    keys: Vec<Scenario>,
    logs: Vec<ThreadLog>,
    elapsed: f64,
    /// Fleet CPU seconds spent in the timed part.
    cpu: f64,
    started_ms: u64,
    /// Fleet counters around the timed part (traced runs only).
    snapshots: Option<(Snapshot, Snapshot)>,
}

impl Phase {
    fn run(
        ctx: &Ctx,
        fleet: &Fleet,
        target: &Node,
        salt: u64,
        seconds: f64,
    ) -> Result<Phase, String> {
        let keys = key_space(ctx.seed, salt, if ctx.tiny { 256 } else { KEYS });
        let bodies: Vec<String> = keys.iter().map(serde::json::to_string).collect();
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        let clients = |salt: u64, secs: f64| {
            let until = Instant::now() + Duration::from_secs_f64(secs);
            run_clients(|t| {
                let rng = Rng::fork(ctx.seed, salt + t as u64);
                let tag = format!("{salt}t{t}");
                simulate_client(&target.addr, &bodies, &zipf, rng, &tag, until)
            })
        };
        clients(salt + 100, warm_seconds(ctx));
        let before = Snapshot::take(fleet, ctx.traced)?;
        let cpu0 = fleet.cpu_seconds()?;
        let start = Instant::now();
        let started_ms = unix_ms();
        let logs = clients(salt + 200, seconds);
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = fleet.cpu_seconds()? - cpu0;
        let snapshots = match before {
            Some(b) => Some((b, Snapshot::take(fleet, true)?.expect("traced snapshot"))),
            None => None,
        };
        Ok(Phase {
            keys,
            logs,
            elapsed,
            cpu,
            started_ms,
            snapshots,
        })
    }

    fn calls(&self) -> impl Iterator<Item = &Call> {
        self.logs.iter().flat_map(|l| &l.calls)
    }

    /// Sorted round trips of answered requests, optionally only warm
    /// (`Some(true)`) or cold ones.
    fn rtt(&self, cached: Option<bool>) -> Vec<f64> {
        sorted(
            self.calls()
                .filter(|c| c.ok && cached.is_none_or(|w| c.cached == w))
                .map(|c| c.rtt_us)
                .collect(),
        )
    }

    fn requests_per_s(&self) -> f64 {
        self.calls().count() as f64 / self.elapsed
    }

    /// Each thread's newest answered requests: still in the flight
    /// recorders when the phase ends.
    fn recent(&self) -> Vec<&Call> {
        self.logs
            .iter()
            .flat_map(|l| &l.calls[l.calls.len().saturating_sub(1500)..])
            .filter(|c| c.ok)
            .collect()
    }

    /// Counts the phase's requests and checks its kept answers against
    /// the monolithic engine.
    fn account(&self, out: &mut Outcome, what: &str) {
        out.attempted += self.calls().count() as u64;
        out.failed += self.calls().filter(|c| !c.ok).count() as u64;
        if let Some(e) = self.logs.iter().flat_map(|l| &l.errors).next() {
            eprintln!("perfbench: first failed {what} request: {e}");
        }
        let (n, bad, first) = {
            let _span = Span::enter("check.monolithic");
            check::tally(
                self.logs
                    .iter()
                    .flat_map(|l| &l.kept)
                    .map(|(k, cached, body)| {
                        let s = &self.keys[*k];
                        (
                            s.label(),
                            body.clone(),
                            check::reference_simulate_body(s, *cached),
                        )
                    }),
            )
        };
        out.check(
            &format!("sampled {what} /simulate answers vs simulate_monolithic"),
            n,
            bad,
            first,
        );
    }

    /// The per-tier latency details (`simulate_*`, `gateway_*`).
    fn details(&self, out: &mut Outcome, prefix: &str) {
        let (warm, cold) = (self.rtt(Some(true)), self.rtt(Some(false)));
        out.detail(&format!("{prefix}_warm_p50_us"), quantile(&warm, 0.5), "us");
        out.detail(
            &format!("{prefix}_warm_p99_us"),
            quantile(&warm, 0.99),
            "us",
        );
        out.detail(&format!("{prefix}_cold_p50_us"), quantile(&cold, 0.5), "us");
        out.detail(&format!("{prefix}_cold_p90_us"), quantile(&cold, 0.9), "us");
        out.detail(
            &format!("{prefix}_warm_requests"),
            warm.len() as f64,
            "count",
        );
        out.detail(
            &format!("{prefix}_cold_requests"),
            cold.len() as f64,
            "count",
        );
    }
}

/// The `serve` workload: the timed phase goes straight to worker 0 and
/// gives the end-to-end metrics; a second phase, half as long, sends the
/// same kind of traffic (its own keys) through the gateway. The gateway
/// phase is reported, not gated: its three-process round trip swings
/// several-fold with host load, too far for any bound.
fn serve(ctx: &Ctx, fleet: &Fleet, cap: usize) -> Result<Outcome, String> {
    let direct = Phase::run(ctx, fleet, &fleet.workers[0], 10, ctx.seconds)?;
    let peak_rss = fleet.peak_rss_mb()?;
    let gateway = Phase::run(ctx, fleet, &fleet.gateway, 20, ctx.seconds / 2.0)?;

    let mut out = Outcome::default();
    direct.account(&mut out, "direct");
    gateway.account(&mut out, "gateway");
    out.detail("requests_per_s", direct.requests_per_s(), "1/s");
    direct.details(&mut out, "simulate");
    out.detail("gateway_requests_per_s", gateway.requests_per_s(), "1/s");
    gateway.details(&mut out, "gateway");
    let all = direct.rtt(None);
    let hit_share = direct.rtt(Some(true)).len() as f64 / all.len().max(1) as f64;
    let requested: HashSet<usize> = direct.calls().map(|c| c.key).collect();
    let ws_over_cap = requested.len() as f64 / cap as f64;
    out.detail("traffic.hit_share", hit_share, "ratio");
    out.detail("traffic.keys", direct.keys.len() as f64, "count");
    out.detail("traffic.keys_requested", requested.len() as f64, "count");
    out.detail("traffic.cache_cap_per_worker", cap as f64, "count");
    out.detail("traffic.working_set_over_cap", ws_over_cap, "ratio");
    out.end_to_end(
        ctx.traced,
        ctx.setup_s,
        Section {
            ops: direct.calls().count() as u64,
            elapsed_s: direct.elapsed,
            cpu_s: direct.cpu,
            latency_us: all,
            peak_rss_mb: peak_rss,
        },
    );

    if ctx.traced {
        let mut l = Layers::default();
        l.set("traffic.working_set_over_cap", ws_over_cap);
        l.set("traffic.hit_share", hit_share);
        let (before, after) = direct.snapshots.as_ref().expect("traced snapshots");
        fleet_layers(&mut l, before, after);
        if let Some((before, after)) = &gateway.snapshots {
            l.set(
                "cluster.retries",
                fleet::num(&after.gateway, "gateway/retries")
                    - fleet::num(&before.gateway, "gateway/retries"),
            );
        }
        l.set("serve.healthz.p50_us", healthz_p50(&fleet.workers[0])?);
        let answered: Vec<&Call> = direct.calls().filter(|c| c.ok).collect();
        request_layers(
            &mut l,
            fleet,
            &answered,
            &direct.recent(),
            direct.started_ms,
        )?;
        cluster_layers(&mut l, fleet, &gateway.recent());
        l.set(
            "cluster.gateway_overhead.p50_us",
            quantile(&gateway.rtt(Some(true)), 0.5) - quantile(&direct.rtt(Some(true)), 0.5),
        );
        l.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        l.emit(&mut out);
    }
    Ok(out)
}

/// Counters and histograms of the fleet at one instant.
struct Snapshot {
    workers: Vec<Value>,
    gateway: Value,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The fleet's counters, when the run is traced.
    fn take(fleet: &Fleet, traced: bool) -> Result<Option<Snapshot>, String> {
        if !traced {
            return Ok(None);
        }
        Ok(Some(Snapshot {
            workers: fleet.worker_stats()?,
            gateway: fleet.gateway.get_json("/cluster/stats")?,
            hists: fleet.stage_hists()?,
        }))
    }
}

/// Store, stage and loop counters from the fleet's own endpoints.
fn fleet_layers(l: &mut Layers, before: &Snapshot, after: &Snapshot) {
    let _span = Span::enter("trace.fleet_counters");
    let delta = |path: &str| fleet::sum(&after.workers, path) - fleet::sum(&before.workers, path);
    let (hits, misses) = (delta("store/hits"), delta("store/misses"));
    l.set("store.hit_rate", hits / (hits + misses).max(1.0));
    l.set("store.misses", misses);
    l.set("store.evictions", delta("store/evictions"));
    l.set("store.dedup_waits", delta("store/dedup_waits"));
    l.set("serve.shed", delta("connections/shed"));
    l.set(
        "serve.request_timeouts",
        delta("connections/request_timeouts"),
    );
    let s0: Vec<StageStats> = fleet::stage_stats(&before.workers);
    let s1: Vec<StageStats> = fleet::stage_stats(&after.workers);
    l.stage_counters(&s0, &s1);
    let hists: BTreeMap<String, HistogramSnapshot> = after
        .hists
        .iter()
        .map(|(k, v)| {
            let d = before
                .hists
                .get(k)
                .map_or_else(|| v.clone(), |b| v.delta(b));
            (k.clone(), d)
        })
        .collect();
    l.stage_latency(&hists);
}

/// Median round trip of `GET /healthz` on one keep-alive connection:
/// the serving loop's floor.
fn healthz_p50(node: &Node) -> Result<f64, String> {
    let _span = Span::enter("trace.healthz");
    let mut conn = Connection::open_with(&node.addr, timeouts())?;
    let mut rtt = Vec::new();
    for _ in 0..2000 {
        let start = Instant::now();
        let r = conn.request("GET", "/healthz", None)?;
        rtt.push(start.elapsed().as_secs_f64() * 1e6);
        if r.status != 200 {
            return Err(format!("/healthz answered {}", r.status));
        }
    }
    Ok(median(rtt))
}

/// A request's wide event (`MCDLA_LOG=debug`).
#[derive(Debug, Clone, Copy)]
struct Event {
    queue_us: f64,
    total_us: f64,
    bytes: f64,
}

/// Wide events of one process's log, by request id, for `endpoint`
/// requests logged at or after `since_ms`.
fn wide_events(log: &Path, endpoint: &str, since_ms: u64) -> Result<Vec<(String, Event)>, String> {
    let text =
        std::fs::read_to_string(log).map_err(|e| format!("reading {}: {e}", log.display()))?;
    let needle = format!("\"endpoint\":\"{endpoint}\"");
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| l.contains("\"msg\":\"request\"") && l.contains(&needle))
    {
        let Ok(v) = serde::json::parse(line) else {
            continue;
        };
        if (fleet::num(&v, "ts_ms") as u64) < since_ms {
            continue;
        }
        let id = v.get("id").and_then(Value::as_str).unwrap_or("").to_owned();
        out.push((
            id,
            Event {
                queue_us: fleet::num(&v, "queue_us"),
                total_us: fleet::num(&v, "total_us"),
                bytes: fleet::num(&v, "bytes"),
            },
        ));
    }
    Ok(out)
}

/// Span durations (µs) of one recorded trace, by span name, plus the
/// engine time its stage spans cover.
#[derive(Debug, Default)]
struct TraceSpans {
    by_name: HashMap<String, f64>,
    engine_us: Vec<f64>,
    stage_us: f64,
    upstream_us: Vec<f64>,
}

fn trace_spans(doc: &Value) -> TraceSpans {
    let mut t = TraceSpans::default();
    let spans = doc.get("spans").and_then(Value::as_seq).unwrap_or(&[]);
    for s in spans {
        let name = s.get("name").and_then(Value::as_str).unwrap_or("");
        let dur = fleet::num(s, "dur_us");
        *t.by_name.entry(name.to_owned()).or_default() += dur;
        if name == "engine.simulate" {
            t.engine_us.push(dur);
        } else if name.starts_with("stage.") || name == "engine.assemble" {
            t.stage_us += dur;
        } else if name.starts_with("gateway.upstream.") {
            t.upstream_us.push(dur);
        }
    }
    t
}

fn fetch_trace(node: &Node, id: &str) -> Option<TraceSpans> {
    node.get_json(&format!("/debug/trace/{id}"))
        .ok()
        .map(|doc| trace_spans(&doc))
}

/// Per-request layers of the direct phase: worker wide events and
/// recorded traces joined to the client's round trips by request id.
fn request_layers(
    l: &mut Layers,
    fleet: &Fleet,
    calls: &[&Call],
    recent: &[&Call],
    since_ms: u64,
) -> Result<(), String> {
    let _span = Span::enter("trace.requests");
    let mut events: HashMap<String, Event> = HashMap::new();
    for w in &fleet.workers {
        let log = w.log.as_ref().ok_or("traced fleet without logs")?;
        events.extend(wide_events(log, "simulate", since_ms)?);
    }
    let (mut queue, mut server, mut wire, mut bytes) = (vec![], vec![], vec![], vec![]);
    for c in calls {
        if let Some(e) = events.get(&c.id) {
            queue.push(e.queue_us);
            server.push(e.total_us);
            bytes.push(e.bytes);
            wire.push(c.rtt_us - e.total_us);
        }
    }
    let (mut store, mut engine) = (vec![], vec![]);
    let (mut unattributed, mut rtt_sum, mut engine_sum, mut stage_sum) = (0.0, 0.0, 0.0, 0.0);
    for c in recent {
        let Some(e) = events.get(&c.id) else {
            continue;
        };
        let Some(t) = fetch_trace(&fleet.workers[0], &c.id) else {
            continue;
        };
        let store_us = t
            .by_name
            .get("store.get_or_compute")
            .copied()
            .unwrap_or(0.0);
        store.push(store_us);
        engine.extend(&t.engine_us);
        engine_sum += t.engine_us.iter().sum::<f64>();
        stage_sum += t.stage_us;
        unattributed += (e.total_us - e.queue_us - store_us).max(0.0);
        rtt_sum += c.rtt_us;
    }
    let p = |v: Vec<f64>, q: f64| quantile(&sorted(v), q);
    l.set("serve.queue.p50_us", p(queue.clone(), 0.5));
    l.set("serve.queue.p99_us", p(queue, 0.99));
    l.set("serve.server.p50_us", p(server, 0.5));
    l.set("serve.wire.p50_us", p(wire, 0.5));
    l.set("serve.response_bytes", p(bytes, 0.5));
    l.set("store.get_or_compute.p50_us", p(store, 0.5));
    l.set("engine.run.p50_us", p(engine.clone(), 0.5));
    l.set("engine.run.p99_us", p(engine, 0.99));
    if engine_sum > 0.0 {
        l.set(
            "engine.unattributed_share",
            ((engine_sum - stage_sum) / engine_sum).max(0.0),
        );
    }
    if rtt_sum > 0.0 {
        l.set("serve.unattributed_share", unattributed / rtt_sum);
    }
    Ok(())
}

/// Gateway spans (route, pool checkout, upstream) of the gateway
/// phase's newest requests.
fn cluster_layers(l: &mut Layers, fleet: &Fleet, recent: &[&Call]) {
    let _span = Span::enter("trace.cluster");
    let (mut route, mut pool, mut upstream) = (vec![], vec![], vec![]);
    for c in recent {
        if let Some(t) = fetch_trace(&fleet.gateway, &c.id) {
            route.push(t.by_name.get("gateway.route").copied().unwrap_or(0.0));
            pool.push(t.by_name.get("pool.checkout").copied().unwrap_or(0.0));
            upstream.extend(&t.upstream_us);
        }
    }
    let upstream = sorted(upstream);
    l.set("cluster.route.p50_us", median(route));
    l.set("cluster.pool_checkout.p50_us", median(pool));
    l.set("cluster.upstream.p50_us", quantile(&upstream, 0.5));
    l.set("cluster.upstream.p99_us", quantile(&upstream, 0.99));
}

/// One `grid` request: the 48-cell paper matrix of one strategy at one
/// (devices, batch, compression).
#[derive(Debug)]
struct GridSpec {
    body: String,
    strategy: ParallelStrategy,
    devices: usize,
    batch: u64,
    compression: Option<f64>,
}

impl GridSpec {
    const CELLS: usize = 48;

    fn cells(&self) -> Vec<Scenario> {
        mcdla_core::ScenarioGrid::paper_default()
            .strategies(&[self.strategy])
            .scenarios()
            .into_iter()
            .map(|mut s| {
                s.devices = Some(self.devices);
                s.batch = Some(self.batch);
                s.overrides.compression = self.compression;
                s
            })
            .collect()
    }
}

/// `count` seeded, pairwise distinct grids, so every cell is cold.
fn grid_specs(seed: u64, count: usize) -> Vec<GridSpec> {
    let mut rng = Rng::fork(seed, 50);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let devices: usize = 1 << rng.below(9);
        let batch = 256 + rng.below(1 << 16);
        let compression = rng.pick(&[None, Some(1.5), Some(2.0), Some(4.0)]);
        let strategy = rng.pick(&ParallelStrategy::ALL);
        if !seen.insert((devices, batch, compression.map(f64::to_bits), strategy)) {
            continue;
        }
        let overrides = match compression {
            Some(c) => format!("{{\"compression\":{c}}}"),
            None => "{}".to_owned(),
        };
        let body = format!(
            "{{\"strategies\":[\"{}\"],\"devices\":[{devices}],\"batches\":[{batch}],\"overrides\":[{overrides}]}}",
            strategy.wire_name()
        );
        out.push(GridSpec {
            body,
            strategy,
            devices,
            batch,
            compression,
        });
    }
    out
}

#[derive(Debug, Default)]
struct GridLog {
    rtt_us: Vec<f64>,
    lines: u64,
    attempted: u64,
    failed: u64,
    /// `(grid index, lines)` of kept grids.
    kept: Vec<(usize, Vec<String>)>,
    errors: Vec<String>,
}

/// Closed-loop streamed grids from one client thread, taking grid
/// indices from a shared counter so no grid repeats.
fn grid_client(
    addr: &str,
    grids: &[GridSpec],
    next: &std::sync::atomic::AtomicUsize,
    until: Instant,
) -> GridLog {
    let mut log = GridLog::default();
    let mut conn: Option<Connection> = None;
    while Instant::now() < until {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(spec) = grids.get(i) else {
            log.failed += 1;
            log.errors.push("ran out of distinct grids".into());
            break;
        };
        log.attempted += 1;
        let start = Instant::now();
        let lines = {
            let _span = Span::enter("client.grid");
            let c = match conn.as_mut() {
                Some(c) => Ok(c),
                None => Connection::open_with(addr, timeouts()).map(|c| conn.insert(c)),
            };
            c.and_then(|c| {
                let r = c.request_stream("POST", "/grid?stream=1", Some(&spec.body))?;
                if r.status != 200 {
                    return Err(format!("HTTP {}", r.status));
                }
                r.collect_lines()
            })
        };
        let rtt_us = start.elapsed().as_secs_f64() * 1e6;
        match lines {
            Ok(lines) if lines.len() == GridSpec::CELLS => {
                log.rtt_us.push(rtt_us);
                log.lines += lines.len() as u64;
                if i.is_multiple_of(16) {
                    log.kept.push((i, lines));
                }
            }
            Ok(lines) => {
                log.failed += 1;
                log.errors.push(format!(
                    "grid {i}: {} lines for {} cells",
                    lines.len(),
                    GridSpec::CELLS
                ));
            }
            Err(e) => {
                conn = None;
                log.failed += 1;
                log.errors.push(e);
            }
        }
    }
    log
}

/// The `grid` workload.
fn grid(ctx: &Ctx, fleet: &Fleet) -> Result<Outcome, String> {
    // Warm-up and timed grids come from disjoint halves of one list, so
    // the timed inputs never depend on how many warm-up grids fit.
    let specs = grid_specs(ctx.seed, 20_000);
    let (grids, warm) = specs.split_at(specs.len() / 2);
    let phase = |grids: &[GridSpec], secs: f64| {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let until = Instant::now() + Duration::from_secs_f64(secs);
        run_clients(|_| grid_client(&fleet.gateway.addr, grids, &next, until))
    };
    phase(warm, warm_seconds(ctx));
    let before = Snapshot::take(fleet, ctx.traced)?;
    let cpu0 = fleet.cpu_seconds()?;
    let start = Instant::now();
    let started_ms = unix_ms();
    let logs = phase(grids, ctx.seconds);
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = fleet.cpu_seconds()? - cpu0;
    let peak_rss = fleet.peak_rss_mb()?;
    let after = Snapshot::take(fleet, ctx.traced)?;

    let mut out = Outcome {
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        ..Outcome::default()
    };
    if let Some(e) = logs.iter().flat_map(|l| &l.errors).next() {
        eprintln!("perfbench: first failed grid: {e}");
    }
    // Every streamed grid must hold exactly its cells: counted on every
    // grid above, and for kept grids the digests must match one to one
    // and sampled lines must equal the monolithic engine's byte for byte.
    let kept: Vec<&(usize, Vec<String>)> = logs.iter().flat_map(|l| &l.kept).collect();
    let mut set_bad = 0;
    let mut first = String::new();
    let mut pairs = Vec::new();
    for (i, lines) in &kept {
        let cells = grids[*i].cells();
        let want: HashMap<String, &Scenario> = cells
            .iter()
            .map(|s| (format!("\"digest\":\"{:016x}\"", s.digest()), s))
            .collect();
        let mut seen = HashSet::new();
        for (j, line) in lines.iter().enumerate() {
            let hit = want.iter().find(|(d, _)| line.contains(d.as_str()));
            match hit {
                Some((d, s)) if seen.insert(d.clone()) => {
                    if j % 12 == 0 {
                        let cached = line.contains("\"cached\":true");
                        pairs.push((
                            s.label(),
                            line.clone(),
                            check::reference_grid_line(s, cached),
                        ));
                    }
                }
                _ => {
                    set_bad += 1;
                    if first.is_empty() {
                        first =
                            format!("grid {i}: line {j} names no requested cell, or repeats one");
                    }
                }
            }
        }
    }
    let cells_checked: u64 = kept.iter().map(|(_, l)| l.len() as u64).sum();
    out.check(
        "streamed grids hold exactly their cells",
        cells_checked,
        set_bad,
        first,
    );
    let (n, bad, first) = {
        let _span = Span::enter("check.monolithic");
        check::tally(pairs.into_iter())
    };
    out.check("sampled grid lines vs simulate_monolithic", n, bad, first);

    let lines: u64 = logs.iter().map(|l| l.lines).sum();
    let rtt = sorted(logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect());
    let cells_per_s = lines as f64 / elapsed;
    out.detail("grid_stream_cells_per_s", cells_per_s, "1/s");
    out.detail("grids", rtt.len() as f64, "count");
    out.detail("cells_per_grid", GridSpec::CELLS as f64, "count");
    out.end_to_end(
        ctx.traced,
        ctx.setup_s,
        Section {
            ops: lines,
            elapsed_s: elapsed,
            cpu_s: cpu,
            latency_us: rtt.clone(),
            peak_rss_mb: peak_rss,
        },
    );

    if let (Some(before), Some(after)) = (&before, &after) {
        let mut l = Layers::default();
        fleet_layers(&mut l, before, after);
        l.set(
            "cluster.retries",
            fleet::num(&after.gateway, "gateway/retries")
                - fleet::num(&before.gateway, "gateway/retries"),
        );
        l.set("serve.healthz.p50_us", healthz_p50(&fleet.gateway)?);
        grid_layers(&mut l, fleet, &rtt, started_ms)?;
        l.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        l.emit(&mut out);
    }
    Ok(out)
}

/// Per-request layers of the `grid` workload. Streamed grids carry
/// gateway-generated ids, so wide events are taken by time window and
/// the wire share compares medians rather than joined pairs.
fn grid_layers(l: &mut Layers, fleet: &Fleet, rtt: &[f64], since_ms: u64) -> Result<(), String> {
    let _span = Span::enter("trace.requests");
    let mut worker: Vec<Event> = Vec::new();
    for w in &fleet.workers {
        let log = w.log.as_ref().ok_or("traced fleet without logs")?;
        worker.extend(
            wide_events(log, "grid", since_ms)?
                .into_iter()
                .map(|(_, e)| e),
        );
    }
    let log = fleet
        .gateway
        .log
        .as_ref()
        .ok_or("traced fleet without logs")?;
    let gateway: Vec<Event> = wide_events(log, "grid", since_ms)?
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    let pick = |v: &[Event], f: fn(&Event) -> f64| sorted(v.iter().map(f).collect());
    let queue = pick(&worker, |e| e.queue_us);
    l.set("serve.queue.p50_us", quantile(&queue, 0.5));
    l.set("serve.queue.p99_us", quantile(&queue, 0.99));
    l.set(
        "serve.server.p50_us",
        quantile(&pick(&worker, |e| e.total_us), 0.5),
    );
    l.set(
        "serve.response_bytes",
        quantile(&pick(&gateway, |e| e.bytes), 0.5),
    );
    let gw_total = pick(&gateway, |e| e.total_us);
    l.set(
        "serve.wire.p50_us",
        quantile(rtt, 0.5) - quantile(&gw_total, 0.5),
    );

    let listing = fleet
        .gateway
        .get_json("/debug/requests?endpoint=grid&limit=200")?;
    let ids: Vec<String> = listing
        .get("requests")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| r.get("id").and_then(Value::as_str).map(str::to_owned))
        .collect();
    let mut pool = Vec::new();
    for id in &ids {
        if let Some(t) = fetch_trace(&fleet.gateway, id) {
            pool.extend(t.by_name.get("pool.checkout").copied());
        }
    }
    l.set("cluster.pool_checkout.p50_us", median(pool));
    Ok(())
}
