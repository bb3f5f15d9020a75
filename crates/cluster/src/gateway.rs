//! The cluster gateway: an HTTP server (the worker's tier skeleton, see
//! [`mcdla_serve::tier`]) that owns a [`Router`]
//! over the worker fleet and exposes the single-node endpoints at fleet
//! scale — `POST /simulate` with retry + failover, scatter-gather
//! `POST /grid` (buffered and `?stream=1`), `GET /cluster/stats`
//! aggregation, and Prometheus `GET /metrics`. Locally answered
//! endpoints run on the loop thread; anything that talks to a backend
//! detaches to the bounded worker pool (and sheds 429 beyond the
//! admission queue).

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mcdla_obs::Sample;
use mcdla_serve::client::Timeouts;
use mcdla_serve::http::{finish_chunked, write_chunk, write_chunked_head_with, Request};
use mcdla_serve::metrics::{Metric, MetricsBuilder};
use mcdla_serve::tier::{self, Bound, Core, Lane, Outcome, Running, StreamOutcome, Tier, Window};
use mcdla_serve::trace::{self, REQUEST_ID_HEADER};
use mcdla_serve::{
    parse_scenario, GridRequest, ServeConfig, Server, ServerHandle, MAX_GRID_CELLS,
    MAX_STREAM_CELLS,
};
use serde::Value;

use crate::json::{get, FleetRings};
use crate::merge::{partition_pending, scatter_buffered};
use crate::router::Router;

/// Idle keep-alive client connections are dropped after this long
/// (same bound as the worker).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Admission-queue bound: fleet-bound requests waiting beyond the
/// worker pool; the next one is answered 429 + `Retry-After`.
const QUEUE_DEPTH: usize = 128;

/// Everything `mcdla gateway` configures.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size: concurrent gateway→fleet round trips
    /// (forwards, scatters, stats scrapes). Client connection I/O is
    /// not bounded by this — the event loop multiplexes every
    /// connection.
    pub threads: usize,
    /// Worker addresses (`host:port`), in stable index order.
    pub backends: Vec<String>,
    /// Deadlines for gateway→worker requests.
    pub timeouts: Timeouts,
    /// Background health-probe period (`None` disables the prober;
    /// health is then tracked passively from request outcomes only).
    pub probe_interval: Option<Duration>,
    /// Telemetry sampling cadence in milliseconds. `None` defers to
    /// `MCDLA_SAMPLE_MS` (default 1s); `Some(0)` disables the sampler.
    pub sample_ms: Option<u64>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7900".to_owned(),
            threads: 8,
            backends: Vec::new(),
            timeouts: Timeouts::default(),
            probe_interval: Some(Duration::from_secs(2)),
            sample_ms: None,
        }
    }
}

/// The gateway tier: the router over the worker fleet.
#[derive(Debug)]
struct GatewayTier {
    router: Router,
}

/// Tier counters one sampler tick snapshots.
#[derive(Debug)]
struct FleetTick {
    failovers: u64,
    retries: u64,
    workers_up: u64,
}

/// A bound-but-not-yet-serving gateway.
#[derive(Debug)]
pub struct Gateway {
    bound: Bound<GatewayTier>,
    probe_interval: Option<Duration>,
}

/// Handle to a running gateway: resolved address, router view, clean
/// shutdown.
#[derive(Debug)]
pub struct GatewayHandle {
    running: Running<GatewayTier>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener and builds the router over the backends.
    pub fn bind(config: &GatewayConfig) -> Result<Gateway, String> {
        let loop_config =
            tier::loop_config(config.threads, QUEUE_DEPTH, READ_TIMEOUT, READ_TIMEOUT)?;
        let router = Router::new(config.backends.iter().cloned(), config.timeouts)?;
        Ok(Gateway {
            bound: Bound::bind(
                GatewayTier { router },
                &config.addr,
                loop_config,
                config.sample_ms,
            )?,
            probe_interval: config.probe_interval,
        })
    }

    /// The resolved listen address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.bound.local_addr()
    }

    /// The routing core (topology + worker health).
    pub fn router(&self) -> &Router {
        &self.bound.core().tier().router
    }

    /// Starts the event loop and worker pool (and the health prober) in
    /// background threads and returns a handle.
    pub fn spawn(self) -> std::io::Result<GatewayHandle> {
        let running = self.bound.spawn()?;
        let prober = match self.probe_interval {
            Some(interval) => Some(
                std::thread::Builder::new()
                    .name("mcdla-gateway-probe".to_owned())
                    .spawn({
                        let core = running.core().clone();
                        move || probe_loop(&core, interval)
                    })?,
            ),
            None => None,
        };
        Ok(GatewayHandle { running, prober })
    }

    /// Runs the gateway on background threads and parks the calling
    /// thread until they exit — the `mcdla gateway` entry point (it
    /// runs until the process is killed).
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.join();
        Ok(())
    }
}

impl GatewayHandle {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    /// The routing core (topology + worker health).
    pub fn router(&self) -> &Router {
        &self.running.core().tier().router
    }

    /// Parks the caller until the event loop and the prober exit.
    fn join(self) {
        self.running.join();
        if let Some(p) = self.prober {
            let _ = p.join();
        }
    }

    /// Stops the event loop and worker pool and joins every thread
    /// (including the prober). In-flight responses finish first; idle
    /// keep-alive connections close immediately — the loop owns them,
    /// so no thread is parked in a blocking read anywhere.
    pub fn shutdown(self) {
        self.running.shutdown();
        if let Some(p) = self.prober {
            let _ = p.join();
        }
    }
}

/// The background health prober: probes every worker each `interval`,
/// waking often enough that shutdown never waits a full period.
fn probe_loop(core: &Core<GatewayTier>, interval: Duration) {
    let router = &core.tier().router;
    let tick = Duration::from_millis(50).min(interval);
    let mut last = Instant::now();
    // First probe immediately: a fleet spawned against a dead backend
    // should learn so before the first request.
    router.probe_all();
    while !core.shutting_down() {
        std::thread::sleep(tick);
        if last.elapsed() >= interval {
            last = Instant::now();
            router.probe_all();
            // Probes may take a while against black-holed workers; check
            // the flag right after rather than sleeping first.
        }
    }
}

/// An error body carrying the request id, so a client holding a 502 can
/// quote the id that `/debug/requests` will list.
fn error_with_rid(status: u16, message: &str, rid: &str) -> Outcome {
    let mut outcome = Outcome::error(status, message);
    outcome.body = trace::graft_json(&outcome.body, "request_id", Value::Str(rid.to_owned()));
    outcome
}

/// Locally answered endpoints (health, metrics, debug, 405/404) run on
/// the loop thread; anything that makes a gateway→fleet round trip
/// detaches to the worker pool.
impl Tier for GatewayTier {
    const SERVICE: &'static str = "mcdla-gateway";
    const TARGET: &'static str = "gateway";
    const PREFIX: &'static str = "mcdla_gateway";
    const ENDPOINTS: &'static [&'static str] = &[
        "healthz",
        "cluster_stats",
        "metrics",
        "simulate",
        "grid",
        "debug",
    ];
    const GET_ROUTES: &'static [(&'static str, &'static str)] = &[
        ("/cluster/stats", "cluster_stats"),
        ("/cluster/history", "cluster_stats"),
    ];
    const COUNTERS_AT: &'static str = "gateway";
    /// The router's counters and per-worker families; `worker_up` is
    /// the health belief, never a scrape.
    const METRICS: &'static [Metric] = &[
        Metric::counter("gateway.failovers", "failovers_total")
            .help("Requests or grid slices answered by a non-owner worker."),
        Metric::counter("gateway.retries", "retries_total")
            .help("Stale pooled-connection retries across all workers."),
        Metric::gauge("workers[].up", "worker_up")
            .help("Health belief per worker (1 = up).")
            .by("worker", "addr"),
        Metric::counter("workers[].answered", "worker_answered_total")
            .help("Requests each worker answered for this gateway.")
            .by("worker", "addr"),
        Metric::counter("workers[].failures", "worker_failures_total")
            .help("Errors observed against each worker (connect/read failures and 5xx).")
            .by("worker", "addr"),
    ];

    type Tick = FleetTick;

    /// The loop thread must never block on a backend round trip.
    fn lane(&self, request: &Request, path: &str, _traced: bool) -> Lane {
        match (request.method.as_str(), path) {
            ("POST", "/simulate" | "/grid") | ("GET", "/cluster/stats" | "/cluster/history") => {
                Lane::Pool
            }
            _ => Lane::Inline,
        }
    }

    fn route(
        &self,
        core: &Core<Self>,
        request: &Request,
        path: &str,
        query: Option<&str>,
        rid: &str,
    ) -> Option<Outcome> {
        Some(match path {
            "/cluster/stats" => {
                Outcome::ok(serde::json::to_string_pretty(&self.cluster_stats(core)))
            }
            "/cluster/history" => Outcome::ok(serde::json::to_string_pretty(
                &self.cluster_history(core, query),
            )),
            "/simulate" => self.simulate(&request.body, rid),
            "/grid" => self.grid(&request.body, rid),
            _ => return None,
        })
    }

    /// Scatter-gather streaming: open one `?stream=1` sub-stream per
    /// owning worker (every worker starts computing immediately), then
    /// forward each worker's NDJSON lines — verbatim bytes — in
    /// worker-index order.
    ///
    /// * Worker unreachable **at open time** (before the gateway's 200
    ///   head): its slice fails over to the next replicas; if no worker
    ///   can take a slice, the whole request is a buffered 502.
    /// * Worker failure **mid-stream** (truncated sub-stream, short cell
    ///   count, or a non-200 sub-stream head): the gateway closes its
    ///   own response without the terminal chunk and drops the remaining
    ///   worker connections, which cancels their outstanding cells.
    fn stream_grid(
        &self,
        body: &[u8],
        writer: &mut TcpStream,
        keep_alive: bool,
        rid: &str,
    ) -> StreamOutcome {
        let scenarios = match GridRequest::parse(body, MAX_STREAM_CELLS) {
            Ok(s) => s,
            Err(outcome) => return StreamOutcome::Rejected(outcome),
        };
        let router = &self.router;
        // Every early exit after the head closes without the terminal chunk.
        let cut = |bytes: u64| StreamOutcome::Streamed {
            cached: None,
            bytes,
            clean: false,
        };

        // Duplicate cells are computed once: only canonical indices reach
        // the fleet, and the gateway re-emits the canonical line for each
        // duplicate, so the client still gets one line per input cell.
        let canon = crate::merge::canonical_indices(&scenarios);
        let keys = crate::merge::routing_keys(&scenarios);
        let dups = crate::merge::duplicates_by_digest(&scenarios, &canon);

        // Open phase: partition and start every sub-stream, failing slices
        // over while nothing has been written to the client yet.
        let mut opened: Vec<(crate::pool::PooledConn<'_>, Vec<usize>, usize)> = Vec::new();
        let mut pending: Vec<usize> = (0..scenarios.len()).filter(|&i| canon[i] == i).collect();
        let mut excluded: BTreeSet<usize> = BTreeSet::new();
        let mut failures: Vec<String> = Vec::new();
        while !pending.is_empty() {
            let parts = match partition_pending(router, &scenarios, &keys, &pending, &excluded) {
                Ok(parts) => parts,
                Err(e) => {
                    let message = if failures.is_empty() {
                        e.message
                    } else {
                        format!("{}: {}", e.message, failures.join("; "))
                    };
                    return StreamOutcome::Rejected(Outcome::error(e.status, &message));
                }
            };
            let mut next_pending = Vec::new();
            for part in parts {
                let worker = &router.workers()[part.worker];
                // Streams always ride a fresh connection: a stale pooled
                // keep-alive would fail only at first read — after the 200
                // head is out and failover is no longer possible.
                let attempt = worker.pool().connect_fresh().and_then(|mut conn| {
                    conn.get()
                        .start_stream("POST", "/grid?stream=1", Some(&part.body))
                        .map(|()| conn)
                });
                match attempt {
                    Ok(conn) => opened.push((conn, part.indices, part.worker)),
                    Err(e) => {
                        worker.mark_down(&e);
                        failures.push(format!("worker {} ({}): {e}", part.worker, worker.addr()));
                        excluded.insert(part.worker);
                        next_pending.extend(part.indices);
                    }
                }
            }
            if !next_pending.is_empty() {
                router.failovers.fetch_add(1, Ordering::Relaxed);
            }
            next_pending.sort_unstable();
            pending = next_pending;
        }

        if write_chunked_head_with(writer, 200, &[(REQUEST_ID_HEADER, rid)], keep_alive).is_err() {
            return cut(0);
        }

        // Drain phase: worker-index-ordered partitions, lines forwarded as
        // raw bytes (cell payloads stay byte-identical to the worker's).
        let mut bytes = 0u64;
        for (mut conn, indices, worker_idx) in opened {
            let worker = &router.workers()[worker_idx];
            let mut stream = match conn.get().read_stream() {
                Ok(stream) => stream,
                Err(e) => {
                    worker.mark_down(&e);
                    return cut(bytes);
                }
            };
            if stream.status != 200 {
                worker.failures.fetch_add(1, Ordering::Relaxed);
                stream.abandon();
                return cut(bytes);
            }
            let mut lines = 0usize;
            loop {
                match stream.next_line() {
                    Some(Ok(mut line)) => {
                        // One copy for the canonical cell plus one per
                        // duplicate the gateway held back from the fleet.
                        // Workers stream in completion order, so the line
                        // names its cell by digest, not by position.
                        let copies = 1 + if dups.is_empty() {
                            0
                        } else {
                            crate::merge::line_digest(&line)
                                .and_then(|d| dups.get(&d))
                                .map_or(0, |&n| n)
                        };
                        line.push('\n');
                        for _ in 0..copies {
                            if write_chunk(writer, line.as_bytes()).is_err() {
                                // Client went away: abandoning (not
                                // draining) closes the worker connection,
                                // cancelling its remaining cells.
                                stream.abandon();
                                return cut(bytes);
                            }
                            bytes += line.len() as u64;
                        }
                        lines += 1;
                    }
                    Some(Err(e)) => {
                        worker.mark_down(&format!("sub-stream died: {e}"));
                        stream.abandon();
                        return cut(bytes);
                    }
                    None => break,
                }
            }
            drop(stream);
            if lines != indices.len() {
                // A clean terminal chunk with missing cells is a protocol
                // violation; the client must not see it as a complete grid.
                worker.mark_down(&format!(
                    "sub-stream ended cleanly after {lines} of {} cells",
                    indices.len()
                ));
                return cut(bytes);
            }
            worker.answered.fetch_add(1, Ordering::Relaxed);
            // `conn` drops here un-parked — fresh-per-stream policy.
        }
        StreamOutcome::Streamed {
            cached: None,
            bytes,
            clean: finish_chunked(writer).is_ok(),
        }
    }

    fn capture(&self) -> FleetTick {
        FleetTick {
            failovers: self.router.failovers.load(Ordering::Relaxed),
            retries: self.router.retries(),
            workers_up: self.router.up_count() as u64,
        }
    }

    fn series(w: &Window<'_, FleetTick>, out: &mut Sample) {
        let (now, then) = (&w.now.tier, &w.prev.tier);
        w.requests(out);
        w.connections(out);
        out.push(
            "fleet.failovers_per_s",
            w.rate(now.failovers, then.failovers),
        );
        out.push("fleet.retries_per_s", w.rate(now.retries, then.retries));
        out.push("fleet.workers_up", now.workers_up as f64);
        w.process(out);
    }

    fn healthz(&self, fields: &mut Vec<(String, Value)>) {
        fields.push((
            "workers".into(),
            Value::U64(self.router.workers().len() as u64),
        ));
        fields.push((
            "workers_up".into(),
            Value::U64(self.router.up_count() as u64),
        ));
    }

    /// `/cluster/stats` as the gateway knows it without a scrape: no
    /// `fleet` block, and each worker entry carries the health belief as
    /// `up` and no `stats`.
    fn stats(&self, core: &Core<Self>) -> Value {
        self.stats_value(core, None, self.workers_value(None, true).0)
    }

    fn histograms(&self, b: &mut MetricsBuilder) {
        b.family(
            "mcdla_gateway_upstream_seconds",
            "Gateway->worker round-trip latency per upstream worker, seconds.",
            "histogram",
        );
        for worker in self.router.workers() {
            b.histogram(
                "mcdla_gateway_upstream_seconds",
                &[("worker", worker.addr())],
                &worker.latency.snapshot(),
            );
        }
    }

    /// Fetches the answering worker's recorded trace for `rid` as the
    /// `upstream` block of a gateway trace: `[{worker, addr, trace}]`.
    /// A worker that cannot produce the trace yields `"trace": null`
    /// rather than failing the response.
    fn upstream_trace(&self, worker: usize, rid: &str) -> Value {
        let w = &self.router.workers()[worker];
        let trace = w
            .pool()
            .request("GET", &format!("/debug/trace/{rid}"), None)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| serde::json::parse(&r.body).ok())
            .unwrap_or(Value::Null);
        Value::Seq(vec![Value::Map(vec![
            ("worker".into(), Value::U64(worker as u64)),
            ("addr".into(), Value::Str(w.addr().to_owned())),
            ("trace".into(), trace),
        ])])
    }
}

impl GatewayTier {
    /// `POST /simulate`: validate locally (the same 400s a worker would
    /// answer), then forward the client's body verbatim along the
    /// scenario key's failover chain. A worker's 2xx/4xx answer passes
    /// through byte-for-byte; worker-unreachable becomes a 502 naming
    /// the workers.
    fn simulate(&self, body: &[u8], rid: &str) -> Outcome {
        let scenario = match parse_scenario(body) {
            Ok(s) => s,
            Err(outcome) => return outcome,
        };
        let key = mcdla_core::key_hash(&scenario);
        let text = std::str::from_utf8(body).expect("validated utf-8 above");
        match self.router.forward_with(
            key,
            "POST",
            "/simulate",
            &[(REQUEST_ID_HEADER, rid)],
            Some(text),
        ) {
            Ok((worker, response)) => Outcome {
                status: response.status,
                upstream: Some(worker),
                ..Outcome::ok(response.body)
            },
            Err(e) => error_with_rid(e.status, &e.message, rid),
        }
    }

    /// `POST /grid` (buffered): expand, partition by owner,
    /// scatter-gather, merge back into single-node cell order.
    fn grid(&self, body: &[u8], rid: &str) -> Outcome {
        let scenarios = match GridRequest::parse(body, MAX_GRID_CELLS) {
            Ok(s) => s,
            Err(outcome) => return outcome,
        };
        match scatter_buffered(&self.router, &scenarios) {
            Ok(cells) => Outcome::ok(serde::json::to_string_pretty(&Value::Map(vec![
                ("count".into(), Value::U64(cells.len() as u64)),
                ("cells".into(), Value::Seq(cells)),
            ]))),
            Err(e) => error_with_rid(e.status, &e.message, rid),
        }
    }

    /// The `workers[]` entries: `index`, `addr`, the gateway's
    /// `answered`/`failures` counters for the worker (with `counters`),
    /// then `up`. A `scrape` of `(path, key)` sends `GET {path}` to every
    /// worker and appends `key` → the parsed body (`null` if it does not
    /// parse) or an `error`; without one, `up` is the router's health
    /// belief. Returns the entries and how many workers answered 200.
    fn workers_value(&self, scrape: Option<(&str, &str)>, counters: bool) -> (Vec<Value>, u64) {
        let mut entries = Vec::new();
        let mut up = 0u64;
        for (i, worker) in self.router.workers().iter().enumerate() {
            let mut entry = vec![
                ("index".into(), Value::U64(i as u64)),
                ("addr".into(), Value::Str(worker.addr().to_owned())),
            ];
            if counters {
                let count = |n: &AtomicU64| Value::U64(n.load(Ordering::Relaxed));
                entry.push(("answered".into(), count(&worker.answered)));
                entry.push(("failures".into(), count(&worker.failures)));
            }
            let Some((path, key)) = scrape else {
                entry.push(("up".into(), Value::Bool(worker.is_up())));
                entries.push(Value::Map(entry));
                continue;
            };
            match worker.pool().request("GET", path, None) {
                Ok(response) if response.status == 200 => {
                    worker.mark_up();
                    up += 1;
                    let body = serde::json::parse(&response.body).unwrap_or(Value::Null);
                    entry.push(("up".into(), Value::Bool(true)));
                    entry.push((key.into(), body));
                }
                Ok(response) => {
                    entry.push(("up".into(), Value::Bool(worker.is_up())));
                    entry.push((
                        "error".into(),
                        Value::Str(format!("{key} answered HTTP {}", response.status)),
                    ));
                }
                Err(e) => {
                    worker.mark_down(&e);
                    entry.push(("up".into(), Value::Bool(false)));
                    entry.push(("error".into(), Value::Str(e)));
                }
            }
            entries.push(Value::Map(entry));
        }
        (entries, up)
    }

    /// `GET /cluster/history`: the gateway's own retained series plus
    /// one `GET /metrics/history` scrape of every worker, with
    /// fleet-wide aggregates. Rings align from the tail (see
    /// [`crate::json`]) over the window every reachable worker has
    /// retained; each fleet sample is stamped with the newest worker
    /// stamp it folds in. `?last=` is forwarded to the workers;
    /// `?series=` filters only the gateway's own block (the fleet
    /// aggregate always needs the store series).
    fn cluster_history(&self, core: &Core<Self>, query: Option<&str>) -> Value {
        let (filter, last) = trace::history_query(query);
        let router = &self.router;
        let path = match last {
            Some(n) => format!("/metrics/history?last={n}"),
            None => "/metrics/history".to_owned(),
        };
        let (workers, up) = self.workers_value(Some((&path, "history")), false);
        let histories: Vec<&Value> = workers
            .iter()
            .filter_map(|w| w.get("history"))
            .filter(|h| !matches!(h, Value::Null))
            .collect();
        let fleet = FleetRings::fold(&histories);
        let floats = |v: Vec<f64>| Value::Seq(v.into_iter().map(Value::F64).collect());
        Value::Map(vec![
            ("service".into(), Value::Str(Self::SERVICE.into())),
            (
                "gateway".into(),
                core.history_value(filter.as_deref(), last),
            ),
            (
                "fleet".into(),
                Value::Map(vec![
                    ("workers".into(), Value::U64(router.workers().len() as u64)),
                    ("up".into(), Value::U64(up)),
                    (
                        "samples".into(),
                        Value::U64(fleet.timestamps_ms.len() as u64),
                    ),
                    (
                        "timestamps_ms".into(),
                        Value::Seq(fleet.timestamps_ms.into_iter().map(Value::U64).collect()),
                    ),
                    (
                        "series".into(),
                        Value::Map(vec![
                            ("req_per_s".into(), floats(fleet.req_per_s)),
                            ("store.hits_per_s".into(), floats(fleet.hits_per_s)),
                            ("store.misses_per_s".into(), floats(fleet.misses_per_s)),
                            ("store.hit_rate".into(), floats(fleet.hit_rate)),
                        ]),
                    ),
                ]),
            ),
            ("workers".into(), Value::Seq(workers)),
        ])
    }

    /// `GET /cluster/stats`: gateway counters plus one `GET /stats`
    /// scrape of every worker, with fleet-wide store totals.
    fn cluster_stats(&self, core: &Core<Self>) -> Value {
        let (workers, reachable) = self.workers_value(Some(("/stats", "stats")), true);
        let router = &self.router;
        let mut fleet = vec![
            ("workers".into(), Value::U64(router.workers().len() as u64)),
            ("up".into(), Value::U64(reachable)),
        ];
        fleet.extend(FLEET_TOTALS.map(|key| {
            let total = workers
                .iter()
                .filter_map(|w| get(w, &["stats", "store", key])?.as_u64())
                .sum();
            (key.to_owned(), Value::U64(total))
        }));
        self.stats_value(core, Some(Value::Map(fleet)), workers)
    }

    /// The `/cluster/stats` layout: identity, the `gateway` counters,
    /// `fleet` (when scraped), then `workers`.
    fn stats_value(&self, core: &Core<Self>, fleet: Option<Value>, workers: Vec<Value>) -> Value {
        let router = &self.router;
        let failovers = router.failovers.load(Ordering::Relaxed);
        let gateway = vec![
            ("requests".into(), core.requests_value()),
            ("connections".into(), core.connections_value()),
            ("failovers".into(), Value::U64(failovers)),
            ("retries".into(), Value::U64(router.retries())),
        ];
        let mut fields = core.identity();
        fields.push(("gateway".into(), Value::Map(gateway)));
        fields.extend(fleet.map(|fleet| ("fleet".into(), fleet)));
        fields.push(("workers".into(), Value::Seq(workers)));
        Value::Map(fields)
    }
}

/// The worker `/stats` store counters `/cluster/stats` sums fleet-wide.
const FLEET_TOTALS: [&str; 4] = ["entries", "hits", "misses", "evictions"];

/// A whole local fleet: `n` in-process workers on ephemeral loopback
/// ports plus a gateway routing across them. This is what
/// `mcdla cluster --workers N`, `cluster-bench`, and the integration
/// tests spawn.
#[derive(Debug)]
pub struct LocalFleet {
    /// The worker handles, in topology index order.
    pub workers: Vec<ServerHandle>,
    /// The gateway handle.
    pub gateway: GatewayHandle,
}

/// What [`spawn_local_fleet`] configures.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker count.
    pub workers: usize,
    /// Simulation worker-pool threads per worker node.
    pub worker_threads: usize,
    /// Result-store capacity per worker (`None` = unbounded).
    pub cache_cap: Option<usize>,
    /// Per-worker snapshot prefix: worker `i` persists to
    /// `{prefix}.w{i}.json`.
    pub snapshot_prefix: Option<std::path::PathBuf>,
    /// Gateway listen address (`127.0.0.1:0` for ephemeral).
    pub gateway_addr: String,
    /// Gateway worker-pool threads (concurrent fleet round trips).
    pub gateway_threads: usize,
    /// Gateway→worker deadlines.
    pub timeouts: Timeouts,
    /// Gateway health-probe period.
    pub probe_interval: Option<Duration>,
    /// Telemetry sampling cadence for every node (worker and gateway),
    /// in milliseconds. `None` defers to `MCDLA_SAMPLE_MS`; `Some(0)`
    /// disables sampling fleet-wide.
    pub sample_ms: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            worker_threads: 4,
            cache_cap: None,
            snapshot_prefix: None,
            gateway_addr: "127.0.0.1:0".to_owned(),
            gateway_threads: 8,
            timeouts: Timeouts::default(),
            probe_interval: Some(Duration::from_secs(2)),
            sample_ms: None,
        }
    }
}

/// The per-worker snapshot path for a fleet prefix.
pub fn worker_snapshot_path(prefix: &std::path::Path, index: usize) -> std::path::PathBuf {
    let mut name = prefix.as_os_str().to_owned();
    name.push(format!(".w{index}.json"));
    std::path::PathBuf::from(name)
}

/// Spawns an in-process fleet: workers on ephemeral ports, then a
/// gateway over them.
pub fn spawn_local_fleet(config: &FleetConfig) -> Result<LocalFleet, String> {
    if config.workers == 0 {
        return Err("a fleet needs at least one worker (got `--workers 0`)".into());
    }
    let mut workers = Vec::with_capacity(config.workers);
    let mut backends = Vec::with_capacity(config.workers);
    for i in 0..config.workers {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: config.worker_threads,
            cache_cap: config.cache_cap,
            snapshot: config
                .snapshot_prefix
                .as_deref()
                .map(|prefix| worker_snapshot_path(prefix, i)),
            sample_ms: config.sample_ms,
            ..ServeConfig::default()
        })?;
        let handle = server
            .spawn()
            .map_err(|e| format!("spawning worker {i}: {e}"))?;
        backends.push(handle.addr().to_string());
        workers.push(handle);
    }
    let gateway = Gateway::bind(&GatewayConfig {
        addr: config.gateway_addr.clone(),
        threads: config.gateway_threads,
        backends,
        timeouts: config.timeouts,
        probe_interval: config.probe_interval,
        sample_ms: config.sample_ms,
    })?;
    let gateway = gateway
        .spawn()
        .map_err(|e| format!("spawning gateway: {e}"))?;
    Ok(LocalFleet { workers, gateway })
}

impl LocalFleet {
    /// The gateway's resolved address.
    pub fn gateway_addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    /// Worker addresses in topology order.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// Parks the caller while the fleet serves — the `mcdla cluster`
    /// entry point (it runs until the process is killed).
    pub fn run(self) {
        self.gateway.join();
        for worker in self.workers {
            worker.shutdown();
        }
    }

    /// Shuts down the gateway, then every worker.
    pub fn shutdown(self) {
        self.gateway.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
    }
}
