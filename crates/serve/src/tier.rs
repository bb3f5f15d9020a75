//! The serving-tier skeleton both `mcdla-serve` (the worker) and
//! `mcdla-cluster`'s gateway are built on.
//!
//! [`Core`] owns everything a tier has in common: the shutdown flag,
//! event-loop counters, start time, per-endpoint request counters,
//! flight recorder, latency histograms, slow-request threshold, and the
//! retained history with its sampler. It implements the event loop's
//! [`Service`] once: the loop-thread fast path, the pool-worker path,
//! the catch-unwind guards, the `?trace=1` graft, the wide event, 429
//! shedding, wire errors, the shared routes (`/healthz`, `/metrics`,
//! `/metrics/history`, `/debug/requests`, `/debug/trace/<id>`) and the
//! 405/404 answers.
//!
//! A [`Tier`] supplies only what differs: its service name, log target
//! and metric prefix, its endpoint label table, its own routes and
//! `stream_grid`, its stats value and the table of counter and gauge
//! families read out of it, and its extra `/healthz` fields, histogram
//! families and history series. Dispatch is static (`Core<T>` is
//! generic over the tier), so the worker's loop-thread `/simulate` hit
//! path pays no virtual call.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdla_obs::log::LogValue;
use mcdla_obs::{
    rss_bytes, unix_ms, FlightRecorder, Histogram, HistogramSnapshot, History, Sample, Sampler,
    TraceRecord, TraceScope,
};
use serde::{Deserialize, Value};

use crate::accept::{spawn_event_loop, FastAnswer, LoopConfig, LoopHandle, LoopStats, Service};
use crate::http::{
    error_body, query_flag, query_param, split_target, write_response_with, Request, WireError,
};
use crate::metrics::{at, Metric, MetricsBuilder, CONTENT_TYPE};
use crate::trace::{self, REQUEST_ID_HEADER};

/// What one serving tier plugs into the shared [`Core`].
pub trait Tier: Sized + Send + Sync + std::fmt::Debug + 'static {
    /// Service name in bodies, traces and wide events (`mcdla-serve`).
    const SERVICE: &'static str;
    /// Log target of the tier's wide events (`serve`).
    const TARGET: &'static str;
    /// Metric-family prefix (`mcdla`).
    const PREFIX: &'static str;
    /// Endpoint labels in counter and histogram order. Counters append
    /// `errors`, histograms append `other`.
    const ENDPOINTS: &'static [&'static str];
    /// The tier's own `GET` routes and the label each counts under.
    const GET_ROUTES: &'static [(&'static str, &'static str)];
    /// Where [`Tier::stats`] keeps the `requests` and `connections` maps
    /// (`""`: the top level).
    const COUNTERS_AT: &'static str;
    /// The tier's counter and gauge families, read out of
    /// [`Tier::stats`] after the event-loop families.
    const METRICS: &'static [Metric];

    /// Tier counters one sampler tick snapshots.
    type Tick: Send + 'static;

    /// Where a request runs: inline on the loop thread, on the pool,
    /// or already answered by a tier fast path (a cache hit).
    fn lane(&self, request: &Request, path: &str, traced: bool) -> Lane;

    /// Handles one of the tier's routes (`GET_ROUTES`, `POST /simulate`,
    /// `POST /grid`); the method is already checked and the request
    /// counted. `None` answers 404.
    fn route(
        &self,
        core: &Core<Self>,
        request: &Request,
        path: &str,
        query: Option<&str>,
        rid: &str,
    ) -> Option<Outcome>;

    /// Streams `POST /grid?stream=1` as chunked NDJSON.
    fn stream_grid(
        &self,
        body: &[u8],
        writer: &mut TcpStream,
        keep_alive: bool,
        rid: &str,
    ) -> StreamOutcome;

    /// Snapshots the tier counters its history series derive from.
    fn capture(&self) -> Self::Tick;

    /// Declares the whole history series list, in order, each series
    /// with the statement that computes it (see [`Window`]).
    fn series(window: &Window<'_, Self::Tick>, out: &mut Sample);

    /// Appends tier fields to the `/healthz` body.
    fn healthz(&self, _fields: &mut Vec<(String, Value)>) {}

    /// The tier's own numbers as its stats body keys them: what
    /// `/metrics` reads. Never makes a round trip to another process.
    fn stats(&self, core: &Core<Self>) -> Value;

    /// Tier histogram families, rendered after `request_seconds`.
    fn histograms(&self, _b: &mut MetricsBuilder) {}

    /// Runs after an answer that computed at least one cell.
    fn computed(&self) {}

    /// The `upstream` block a traced answer from `worker` grafts.
    fn upstream_trace(&self, _worker: usize, _rid: &str) -> Value {
        Value::Null
    }
}

/// The uptime gauge, read from the `uptime_seconds` every stats body
/// opens with (see [`Core::identity`]).
const UPTIME: Metric =
    Metric::gauge("uptime_seconds", "uptime_seconds").help("Seconds since this server started.");

/// The request and event-loop families, read from the `requests` and
/// `connections` maps at [`Tier::COUNTERS_AT`].
const LOOP_METRICS: &[Metric] = &[
    Metric::counter("requests[]", "requests_total")
        .help("Requests handled, by endpoint (`errors` counts 4xx/5xx answers).")
        .by("endpoint", ""),
    Metric::gauge("connections.open", "open_connections")
        .help("Connections attached to the event loop right now."),
    Metric::counter("connections.accepted", "accepted_connections_total")
        .help("Connections accepted since start."),
    Metric::counter("connections.shed", "requests_shed_total")
        .help("Requests answered 429 because the admission queue was full."),
    Metric::counter("connections.request_timeouts", "request_timeouts_total")
        .help("Requests answered 408 after stalling mid-head or mid-body."),
    Metric::counter("connections.idle_closed", "idle_connections_closed_total")
        .help("Idle keep-alive connections closed silently."),
];

/// Where the loop thread sends a request (see [`Tier::lane`]).
#[derive(Debug)]
pub enum Lane {
    /// Route it on the loop thread.
    Inline,
    /// Detach it to the worker pool.
    Pool,
    /// The tier answered it already; it counts under its endpoint.
    Answered(Outcome),
}

/// A routed request's answer, before the shared response tail.
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Response content type (JSON everywhere except `/metrics`).
    pub content_type: &'static str,
    /// Cache disposition for the wide event: `Some(true)` served from
    /// the store, `Some(false)` computed (which runs
    /// [`Tier::computed`]), `None` where there is no cache.
    pub cached: Option<bool>,
    /// The worker that answered a gateway forward (its sub-trace is
    /// grafted into a traced answer).
    pub upstream: Option<usize>,
}

impl Outcome {
    /// A 200 JSON answer.
    pub fn ok(body: String) -> Self {
        Outcome::text(body, "application/json")
    }

    /// A 200 answer of another content type.
    pub fn text(body: String, content_type: &'static str) -> Self {
        Outcome {
            status: 200,
            body,
            content_type,
            cached: None,
            upstream: None,
        }
    }

    /// An `{"error": ...}` answer.
    pub fn error(status: u16, message: &str) -> Self {
        Outcome {
            status,
            ..Outcome::ok(error_body(message))
        }
    }
}

/// Parses a JSON request body, answering 400 on bad UTF-8 or JSON.
pub fn parse_body<T: Deserialize>(body: &[u8], what: &str) -> Result<T, Outcome> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Outcome::error(400, &format!("{what} body is not valid utf-8")))?;
    serde::json::from_str(text).map_err(|e| Outcome::error(400, &format!("bad {what} JSON: {e}")))
}

/// How `POST /grid?stream=1` ended.
#[derive(Debug)]
pub enum StreamOutcome {
    /// Rejected before any chunk was written: answered as a buffered
    /// error response.
    Rejected(Outcome),
    /// The 200 head went out. `clean` is false when the client or an
    /// upstream failed mid-stream — the connection then closes without
    /// the terminal chunk.
    Streamed {
        /// Cache disposition, as [`Outcome::cached`].
        cached: Option<bool>,
        /// Payload bytes written (cell lines, not chunk framing).
        bytes: u64,
        /// Whether the terminal chunk went out.
        clean: bool,
    },
}

/// Builds the event-loop configuration, rejecting an empty pool.
pub fn loop_config(
    threads: usize,
    queue_depth: usize,
    idle_timeout: Duration,
    request_timeout: Duration,
) -> Result<LoopConfig, String> {
    if threads == 0 {
        return Err("thread count must be >= 1 (got `0`)".into());
    }
    Ok(LoopConfig {
        workers: threads,
        queue_depth: queue_depth.max(1),
        idle_timeout,
        request_timeout,
    })
}

/// The endpoint table: per label a request counter and a latency
/// histogram, pre-registered so the request path never touches a map.
/// Paths outside the table observe into `other`; `errors` counts every
/// 4xx/5xx answer.
#[derive(Debug)]
struct Endpoints {
    rows: Box<[(&'static str, AtomicU64, Histogram)]>,
    other: Histogram,
    errors: AtomicU64,
}

impl Endpoints {
    fn new(labels: &[&'static str]) -> Self {
        Endpoints {
            rows: labels
                .iter()
                .map(|&l| (l, AtomicU64::new(0), Histogram::new()))
                .collect(),
            other: Histogram::new(),
            errors: AtomicU64::new(0),
        }
    }

    fn row(&self, label: &str) -> Option<&(&'static str, AtomicU64, Histogram)> {
        self.rows.iter().find(|(l, ..)| *l == label)
    }

    fn count(&self, label: &str) {
        if let Some((_, count, _)) = self.row(label) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn observe(&self, label: &str, seconds: f64) {
        self.row(label)
            .map_or(&self.other, |(.., h)| h)
            .observe(seconds);
    }

    /// `(endpoint, count)` pairs in label order, `errors` last.
    fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.rows
            .iter()
            .map(|(l, c, _)| (*l, c.load(Ordering::Relaxed)))
            .chain([("errors", self.errors.load(Ordering::Relaxed))])
    }

    /// `(endpoint, latency)` pairs in label order, `other` last.
    fn latency(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.rows
            .iter()
            .map(|(l, _, h)| (*l, h.snapshot()))
            .chain([("other", self.other.snapshot())])
            .collect()
    }
}

/// The per-tier state and the shared request path (see module docs).
#[derive(Debug)]
pub struct Core<T> {
    tier: T,
    shutdown: AtomicBool,
    loop_stats: Arc<LoopStats>,
    started: Instant,
    endpoints: Endpoints,
    /// The last `MCDLA_TRACE_CAP` completed request traces.
    recorder: FlightRecorder,
    /// Retained series, fed by the sampler.
    history: History,
}

/// The histogram/trace label for a request path.
fn endpoint_label<T: Tier>(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/metrics" | "/metrics/history" => "metrics",
        "/simulate" => "simulate",
        "/grid" => "grid",
        p if p.starts_with("/debug/") => "debug",
        p => T::GET_ROUTES
            .iter()
            .find(|(route, _)| *route == p)
            .map_or("other", |(_, label)| label),
    }
}

impl<T: Tier> Core<T> {
    /// The tier-specific state.
    pub fn tier(&self) -> &T {
        &self.tier
    }

    /// Whether shutdown has begun.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// This tier's flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The `service`, `uptime_seconds` and `build` fields every
    /// `/healthz` and stats body opens with.
    pub fn identity(&self) -> Vec<(String, Value)> {
        vec![
            ("service".into(), Value::Str(T::SERVICE.into())),
            (
                "uptime_seconds".into(),
                Value::F64(self.started.elapsed().as_secs_f64()),
            ),
            ("build".into(), trace::build_value()),
        ]
    }

    /// The request counters as a JSON map.
    pub fn requests_value(&self) -> Value {
        Value::Map(
            self.endpoints
                .counts()
                .map(|(name, count)| (name.into(), Value::U64(count)))
                .collect(),
        )
    }

    /// The event-loop connection counters as a JSON map.
    pub fn connections_value(&self) -> Value {
        let s = &self.loop_stats;
        Value::Map(vec![
            ("open".into(), Value::U64(s.open())),
            ("accepted".into(), Value::U64(s.accepted())),
            ("shed".into(), Value::U64(s.shed())),
            ("request_timeouts".into(), Value::U64(s.request_timeouts())),
            ("idle_closed".into(), Value::U64(s.idle_closed())),
        ])
    }

    /// This tier's `/metrics/history` body.
    pub fn history_value(&self, filter: Option<&[&str]>, last: Option<usize>) -> Value {
        trace::history_value(T::SERVICE, &self.history.dump(filter, last))
    }

    fn keep_alive(&self, request: &Request) -> bool {
        request.keep_alive && !self.shutting_down()
    }

    fn tick(&self) -> Tick<T::Tick> {
        Tick {
            at: Instant::now(),
            errors: self.endpoints.errors.load(Ordering::Relaxed),
            open: self.loop_stats.open(),
            shed: self.loop_stats.shed(),
            timeouts: self.loop_stats.request_timeouts(),
            uptime_s: self.started.elapsed().as_secs_f64(),
            latency: self.endpoints.latency(),
            tier: self.tier.capture(),
        }
    }

    /// Closes a request's trace scope: endpoint latency histogram and
    /// flight-recorder admission. The call site emits the wide event.
    fn finish_trace(
        &self,
        scope: TraceScope,
        rid: &str,
        endpoint: &'static str,
        status: u16,
    ) -> Arc<TraceRecord> {
        let record = scope.finish(rid.to_owned(), endpoint, status);
        self.endpoints
            .observe(endpoint, record.total_us as f64 / 1e6);
        self.recorder.record(record)
    }

    /// Emits the per-request *wide event*: one flat JSON line carrying
    /// the whole request story — id, endpoint, status, cache
    /// disposition, queue + service micros, response bytes — through
    /// the leveled [`mcdla_obs::log`] pipeline (see
    /// [`trace::wide_event_level`]). `extra` carries ending-specific
    /// fields (`stream`, `clean`, `panic`, the gateway's `worker`).
    fn wide_event(
        &self,
        rec: &TraceRecord,
        cached: Option<bool>,
        queue_us: u64,
        bytes: u64,
        extra: &[(&str, LogValue)],
    ) {
        let level = trace::wide_event_level(rec.status);
        if !mcdla_obs::log::log_enabled(level) {
            return;
        }
        let cache = match cached {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "none",
        };
        let mut fields: Vec<(&str, LogValue)> = vec![
            ("id", rec.id.as_str().into()),
            ("service", T::SERVICE.into()),
            ("endpoint", rec.endpoint.as_str().into()),
            ("status", rec.status.into()),
            ("cache", cache.into()),
            ("queue_us", queue_us.into()),
            ("total_us", rec.total_us.into()),
            ("bytes", bytes.into()),
        ];
        fields.extend(extra.iter().cloned());
        mcdla_obs::log::log(level, T::TARGET, "request", &fields);
    }

    /// The shared response tail: error counting, trace finish, the
    /// `?trace=1` graft, the wide event, serialization, and the
    /// computed-cells hook. Returns whether the write succeeded.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        writer: &mut impl Write,
        rid: &str,
        endpoint: &'static str,
        scope: TraceScope,
        outcome: Outcome,
        queue_us: u64,
        keep_alive: bool,
        traced: bool,
        extra: &[(&str, LogValue)],
    ) -> bool {
        if outcome.status >= 400 {
            self.endpoints.error();
        }
        let record = self.finish_trace(scope, rid, endpoint, outcome.status);
        let body = if traced && outcome.status < 400 && outcome.content_type == "application/json" {
            let mut tv = trace::trace_value(T::SERVICE, &record);
            if let (Value::Map(entries), Some(worker)) = (&mut tv, outcome.upstream) {
                entries.push(("upstream".into(), self.tier.upstream_trace(worker, rid)));
            }
            trace::graft_json(&outcome.body, "trace", tv)
        } else {
            outcome.body
        };
        let worker;
        let extra = match outcome.upstream {
            Some(w) => {
                worker = [("worker", LogValue::from(w as u64))];
                &worker[..]
            }
            None => extra,
        };
        self.wide_event(&record, outcome.cached, queue_us, body.len() as u64, extra);
        let wrote = write_response_with(
            writer,
            outcome.status,
            outcome.content_type,
            &[(REQUEST_ID_HEADER, rid)],
            &body,
            keep_alive,
        )
        .is_ok();
        if outcome.cached == Some(false) {
            self.tier.computed();
        }
        wrote
    }

    /// Routes a request, answering 500 if a handler panics (a panic
    /// must not take the loop thread or a pool worker with it).
    fn route_guarded(&self, request: &Request, rid: &str) -> Outcome {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.route(request, rid)))
            .unwrap_or_else(|_| Outcome::error(500, "internal error handling the request"))
    }

    /// The shared routes, the method check, and request counting; the
    /// tier's own routes are delegated to [`Tier::route`].
    fn route(&self, request: &Request, rid: &str) -> Outcome {
        let (path, query) = split_target(&request.path);
        let post_only = matches!(path, "/simulate" | "/grid");
        let get_only = matches!(
            path,
            "/healthz" | "/metrics" | "/metrics/history" | "/debug/requests"
        ) || path.starts_with("/debug/trace/")
            || T::GET_ROUTES.iter().any(|(route, _)| *route == path);
        match (request.method.as_str(), post_only, get_only) {
            ("POST", true, _) | ("GET", _, true) => {}
            (_, true, _) => {
                return Outcome::error(405, "use POST with a JSON body on this endpoint")
            }
            (_, _, true) => return Outcome::error(405, "use GET on this endpoint"),
            _ => return not_found(path),
        }
        self.endpoints.count(endpoint_label::<T>(path));
        match path {
            "/healthz" => {
                let mut fields = vec![("status".into(), Value::Str("ok".into()))];
                fields.extend(self.identity());
                self.tier.healthz(&mut fields);
                Outcome::ok(serde::json::to_string(&Value::Map(fields)))
            }
            "/metrics" => Outcome::text(self.metrics_text(), CONTENT_TYPE),
            "/metrics/history" => {
                let (filter, last) = trace::history_query(query);
                Outcome::ok(serde::json::to_string_pretty(
                    &self.history_value(filter.as_deref(), last),
                ))
            }
            "/debug/requests" => {
                Outcome::ok(serde::json::to_string_pretty(&trace::debug_requests_value(
                    T::SERVICE,
                    &self.recorder,
                    query_param(query, "sort"),
                    query_param(query, "endpoint"),
                    query_param(query, "limit"),
                )))
            }
            p if p.starts_with("/debug/trace/") => {
                let id = p.trim_start_matches("/debug/trace/");
                match self.recorder.lookup(id) {
                    Some(rec) => Outcome::ok(serde::json::to_string_pretty(&trace::trace_value(
                        T::SERVICE,
                        &rec,
                    ))),
                    None => {
                        Outcome::error(404, &format!("no trace recorded for request id `{id}`"))
                    }
                }
            }
            _ => self
                .tier
                .route(self, request, path, query, rid)
                .unwrap_or_else(|| not_found(path)),
        }
    }

    /// Renders `GET /metrics`: the shared families around the tier's.
    fn metrics_text(&self) -> String {
        let p = T::PREFIX;
        let stats = self.tier.stats(self);
        let mut b = MetricsBuilder::new();
        let up = format!("{p}_up");
        b.family(&up, "Whether this server is serving.", "gauge")
            .sample(&up, &[], 1.0);
        b.table(p, &[UPTIME], &stats);
        b.family(
            "mcdla_build_info",
            "Build metadata as labels (constant 1).",
            "gauge",
        );
        b.sample(
            "mcdla_build_info",
            &[
                ("version", mcdla_obs::build_version()),
                ("build", mcdla_obs::build_id()),
            ],
            1.0,
        );
        if let Some(counters) = at(&stats, T::COUNTERS_AT) {
            b.table(p, LOOP_METRICS, counters);
        }
        b.table(p, T::METRICS, &stats);
        let seconds = format!("{p}_request_seconds");
        b.family(
            &seconds,
            "Request latency by endpoint, seconds.",
            "histogram",
        );
        for (endpoint, snap) in self.endpoints.latency() {
            b.histogram(&seconds, &[("endpoint", endpoint)], &snap);
        }
        self.tier.histograms(&mut b);
        b.finish()
    }

    /// Runs `POST /grid?stream=1` on a pool worker: the tier streams,
    /// this records the outcome (one wide event per ending).
    fn stream(
        &self,
        request: &Request,
        writer: &mut TcpStream,
        rid: &str,
        scope: TraceScope,
        queue_us: u64,
        keep_alive: bool,
    ) -> bool {
        self.endpoints.count("grid");
        let streamed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.tier
                .stream_grid(&request.body, writer, keep_alive, rid)
        }));
        let stream = ("stream", LogValue::from(true));
        match streamed {
            Ok(StreamOutcome::Rejected(outcome)) => {
                let extra = [stream];
                self.respond(
                    writer, rid, "grid", scope, outcome, queue_us, keep_alive, false, &extra,
                ) && keep_alive
            }
            Ok(StreamOutcome::Streamed {
                cached,
                bytes,
                clean,
            }) => {
                let record = self.finish_trace(scope, rid, "grid", 200);
                self.wide_event(
                    &record,
                    cached,
                    queue_us,
                    bytes,
                    &[stream, ("clean", clean.into())],
                );
                if cached == Some(false) {
                    self.tier.computed();
                }
                let _ = writer.flush();
                clean && keep_alive
            }
            // A panic after the 200 head cannot be answered; closing
            // without the terminal chunk is how the client learns the
            // stream died (the worker thread itself survives).
            Err(_) => {
                self.endpoints.error();
                let record = self.finish_trace(scope, rid, "grid", 500);
                self.wide_event(
                    &record,
                    None,
                    queue_us,
                    0,
                    &[stream, ("panic", true.into())],
                );
                false
            }
        }
    }
}

fn not_found(path: &str) -> Outcome {
    Outcome::error(404, &format!("no such endpoint `{path}`"))
}

impl<T: Tier> Service for Core<T> {
    fn fast(&self, request: &Request) -> Option<FastAnswer> {
        let (path, query) = split_target(&request.path);
        let traced = query_flag(query, "trace");
        let scope = TraceScope::begin();
        let lane = self.tier.lane(request, path, traced);
        if let Lane::Pool = lane {
            return None;
        }
        let endpoint = endpoint_label::<T>(path);
        let rid = trace::request_trace_id(request);
        let outcome = match lane {
            Lane::Answered(outcome) => {
                self.endpoints.count(endpoint);
                outcome
            }
            _ => self.route_guarded(request, &rid),
        };
        let keep_alive = self.keep_alive(request);
        let mut bytes = Vec::new();
        self.respond(
            &mut bytes,
            &rid,
            endpoint,
            scope,
            outcome,
            0,
            keep_alive,
            traced,
            &[],
        );
        Some(FastAnswer { bytes, keep_alive })
    }

    fn handle(&self, request: &Request, writer: &mut TcpStream, queued: Duration) -> bool {
        let keep_alive = self.keep_alive(request);
        let (path, query) = split_target(&request.path);
        let rid = trace::request_trace_id(request);
        let queue_us = queued.as_micros().min(u128::from(u64::MAX)) as u64;
        let scope = TraceScope::begin();
        if request.method == "POST" && path == "/grid" && query_flag(query, "stream") {
            return self.stream(request, writer, &rid, scope, queue_us, keep_alive);
        }
        let outcome = self.route_guarded(request, &rid);
        let traced = query_flag(query, "trace");
        self.respond(
            writer,
            &rid,
            endpoint_label::<T>(path),
            scope,
            outcome,
            queue_us,
            keep_alive,
            traced,
            &[],
        ) && keep_alive
    }

    /// The 429 + `Retry-After` answer, recorded like any other request
    /// (error counter, latency histogram, trace, wide event).
    fn shed(&self, request: &Request) -> FastAnswer {
        self.endpoints.error();
        let (path, _) = split_target(&request.path);
        let rid = trace::request_trace_id(request);
        let record = self.finish_trace(TraceScope::begin(), &rid, endpoint_label::<T>(path), 429);
        self.wide_event(&record, None, 0, 0, &[]);
        let keep_alive = self.keep_alive(request);
        let mut bytes = Vec::new();
        let _ = write_response_with(
            &mut bytes,
            429,
            "application/json",
            &[("retry-after", "1"), (REQUEST_ID_HEADER, &rid)],
            &error_body("request queue is full; retry shortly"),
            keep_alive,
        );
        FastAnswer { bytes, keep_alive }
    }

    fn wire_error(&self, error: &WireError) -> Vec<u8> {
        self.endpoints.error();
        trace::wire_error_answer(T::TARGET, T::SERVICE, error)
    }
}

/// One sampler tick's snapshot of every monotone counter the history
/// series derive from; consecutive ticks difference into a [`Window`].
#[derive(Debug)]
pub struct Tick<X> {
    at: Instant,
    errors: u64,
    open: u64,
    shed: u64,
    timeouts: u64,
    uptime_s: f64,
    latency: Vec<(&'static str, HistogramSnapshot)>,
    /// The tier's own counters.
    pub tier: X,
}

/// Two consecutive ticks: the window history series are computed over.
/// The shared series blocks are methods, so a tier's [`Tier::series`]
/// interleaves them with its own in one ordered list.
#[derive(Debug)]
pub struct Window<'a, X> {
    /// The newer tick.
    pub now: &'a Tick<X>,
    /// The older tick.
    pub prev: &'a Tick<X>,
    dt: f64,
}

impl<'a, X> Window<'a, X> {
    fn new(now: &'a Tick<X>, prev: &'a Tick<X>) -> Self {
        let dt = now.at.duration_since(prev.at).as_secs_f64().max(1e-3);
        Window { now, prev, dt }
    }

    /// The per-second rate of a monotone counter over the window.
    pub fn rate(&self, now: u64, then: u64) -> f64 {
        now.saturating_sub(then) as f64 / self.dt
    }

    /// `req_per_s`, `err_per_s`, then `{endpoint}.req_per_s`,
    /// `.p50_ms` and `.p99_ms` per endpoint label.
    pub fn requests(&self, out: &mut Sample) {
        let windows: Vec<(&str, HistogramSnapshot)> = self
            .now
            .latency
            .iter()
            .zip(&self.prev.latency)
            .map(|((label, now), (_, then))| (*label, now.delta(then)))
            .collect();
        let total: u64 = windows.iter().map(|(_, w)| w.count()).sum();
        out.push("req_per_s", total as f64 / self.dt);
        out.push("err_per_s", self.rate(self.now.errors, self.prev.errors));
        for (label, w) in &windows {
            out.push(
                format_args!("{label}.req_per_s"),
                w.count() as f64 / self.dt,
            );
            out.push(format_args!("{label}.p50_ms"), w.quantile(0.5) * 1e3);
            out.push(format_args!("{label}.p99_ms"), w.quantile(0.99) * 1e3);
        }
    }

    /// `conns.open`, `conns.shed_per_s`, `conns.timeouts_per_s`.
    pub fn connections(&self, out: &mut Sample) {
        out.push("conns.open", self.now.open as f64);
        out.push("conns.shed_per_s", self.rate(self.now.shed, self.prev.shed));
        out.push(
            "conns.timeouts_per_s",
            self.rate(self.now.timeouts, self.prev.timeouts),
        );
    }

    /// `rss_bytes`, `uptime_seconds`.
    pub fn process(&self, out: &mut Sample) {
        out.push("rss_bytes", rss_bytes().unwrap_or(0) as f64);
        out.push("uptime_seconds", self.now.uptime_s);
    }
}

/// A bound-but-not-yet-serving tier.
#[derive(Debug)]
pub struct Bound<T> {
    listener: TcpListener,
    loop_config: LoopConfig,
    core: Arc<Core<T>>,
    /// Resolved sampler cadence (`None` = sampling off).
    sample_ms: Option<u64>,
}

impl<T: Tier> Bound<T> {
    /// Binds `addr` and builds the shared state around `tier`.
    /// `sample_ms`: `None` reads `MCDLA_SAMPLE_MS`, `Some(0)` disables
    /// the sampler, `Some(n)` ticks every `n` ms.
    pub fn bind(
        tier: T,
        addr: &str,
        loop_config: LoopConfig,
        sample_ms: Option<u64>,
    ) -> Result<Bound<T>, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        // Span recording is process-global and off by default (batch
        // sweeps skip the instrumentation); a serving process turns it
        // on for request traces and stage latency histograms.
        mcdla_obs::set_enabled(true);
        let sample_ms = match sample_ms {
            Some(0) => None,
            Some(n) => Some(n),
            None => mcdla_obs::sample_ms_from_env(),
        };
        let mut core = Core {
            tier,
            shutdown: AtomicBool::new(false),
            loop_stats: Arc::new(LoopStats::default()),
            started: Instant::now(),
            endpoints: Endpoints::new(T::ENDPOINTS),
            recorder: FlightRecorder::from_env(),
            history: History::new(1, 0, |_| {}),
        };
        // The series list is whatever `T::series` pushes: run it once.
        let tick = core.tick();
        core.history = History::new(
            mcdla_obs::DEFAULT_HISTORY_CAP,
            sample_ms.unwrap_or(0),
            |out| T::series(&Window::new(&tick, &tick), out),
        );
        Ok(Bound {
            listener,
            loop_config,
            core: Arc::new(core),
            sample_ms,
        })
    }

    /// The resolved listen address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state.
    pub fn core(&self) -> &Arc<Core<T>> {
        &self.core
    }

    /// Starts the event loop, the worker pool and the sampler.
    pub fn spawn(self) -> std::io::Result<Running<T>> {
        let addr = self.listener.local_addr()?;
        let event_loop = spawn_event_loop(
            self.listener,
            self.core.clone(),
            &self.loop_config,
            self.core.loop_stats.clone(),
        )?;
        let sampler = self.sample_ms.map(|interval_ms| {
            let core = self.core.clone();
            let mut previous = core.tick();
            Sampler::spawn(interval_ms, move || {
                let current = core.tick();
                core.history.record(unix_ms(), |out| {
                    T::series(&Window::new(&current, &previous), out)
                });
                previous = current;
            })
        });
        Ok(Running {
            addr,
            core: self.core,
            event_loop,
            sampler,
        })
    }
}

/// A running tier: its address, shared state, and clean shutdown.
#[derive(Debug)]
pub struct Running<T> {
    addr: SocketAddr,
    core: Arc<Core<T>>,
    event_loop: LoopHandle,
    /// The background telemetry sampler (absent when sampling is off).
    sampler: Option<Sampler>,
}

impl<T: Tier> Running<T> {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub fn core(&self) -> &Arc<Core<T>> {
        &self.core
    }

    /// Stops the sampler, the event loop and the worker pool, joining
    /// every thread. In-flight responses finish first; idle keep-alive
    /// connections close immediately.
    pub fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(sampler) = self.sampler {
            sampler.stop();
        }
        self.event_loop.shutdown();
    }

    /// Parks the caller until the event loop exits.
    pub fn join(self) {
        self.event_loop.join();
    }
}
