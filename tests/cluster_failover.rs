//! Failover semantics under real process death: workers run as child
//! `mcdla serve` processes and die by SIGKILL — no graceful shutdown, no
//! connection draining — while an in-process gateway routes across them.
//!
//! Pinned here:
//! * kill -9 the owner **mid-simulate traffic**: the gateway answers
//!   point queries via retry + next-replica failover, bit-identically;
//! * kill -9 a worker **mid-stream**: the gateway honors the
//!   close-without-terminal-chunk contract (the client sees truncation,
//!   never a silent clean end);
//! * gateway grid output is cell-for-cell identical to a single node
//!   (modulo `cached`).
//! * `mcdla cluster` (workers and gateway in one child process) answers
//!   `POST /simulate` with the report `mcdla simulate` prints.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mcdla::cluster::{Gateway, GatewayConfig, Topology};
use mcdla::core::Scenario;
use mcdla::serve::client::{request_once, Connection, Timeouts};
use serde::Value;

/// A worker child process; SIGKILLed on drop so failed tests never leak
/// servers.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerProc {
    /// Spawns `mcdla serve` on an ephemeral port and waits for it to
    /// answer `/healthz`.
    fn spawn() -> WorkerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mcdla"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mcdla serve");
        // `mcdla serve` prints `mcdla-serve listening on HOST:PORT (...)`
        // before entering the accept loop.
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("worker banner line")
            .expect("read worker banner");
        let addr = banner
            .split_whitespace()
            .find(|tok| {
                tok.contains(':')
                    && tok
                        .split(':')
                        .nth(1)
                        .is_some_and(|p| p.parse::<u16>().is_ok())
            })
            .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
            .to_owned();
        let deadline = Instant::now() + Duration::from_secs(20);
        let probe_timeouts = Timeouts::all(Duration::from_millis(500));
        loop {
            if let Ok(resp) = mcdla::serve::client::request_once_with(
                &addr,
                "GET",
                "/healthz",
                None,
                probe_timeouts,
            ) {
                if resp.is_ok() {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "worker at {addr} never became healthy"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        WorkerProc { child, addr }
    }

    /// SIGKILL — the process dies mid-whatever-it-was-doing.
    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL worker");
        self.child.wait().expect("reap worker");
    }
}

fn spawn_gateway(backends: Vec<String>) -> mcdla::cluster::GatewayHandle {
    Gateway::bind(&GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        backends,
        // Short deadlines keep the failover path snappy in tests; a
        // kill -9'd loopback worker answers connects with RST anyway.
        timeouts: Timeouts::all(Duration::from_secs(30)),
        probe_interval: None,
        ..GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway")
}

fn report_of(body: &str) -> String {
    let Value::Map(entries) = serde::json::parse(body).expect("cell JSON") else {
        panic!("cell is not an object")
    };
    let report = entries
        .into_iter()
        .find(|(k, _)| k == "report")
        .expect("cell has a report")
        .1;
    serde::json::to_string(&report)
}

#[test]
fn kill9_owner_mid_traffic_point_queries_fail_over() {
    let mut workers = [WorkerProc::spawn(), WorkerProc::spawn()];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends.clone());
    let addr = gateway.addr().to_string();

    let cell = Scenario::default().with_batch(640);
    let body = serde::json::to_string(&cell);
    let owner = Topology::new(backends).unwrap().owner_of(&cell);

    // Warm through the gateway: the owner computes the cell.
    let warm = request_once(&addr, "POST", "/simulate", Some(&body)).expect("warm");
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert!(warm.body.contains("\"cached\": false"));

    // SIGKILL the owner, then keep querying: every answer must arrive
    // via the surviving replica — recomputed, bit-identical report.
    workers[owner].kill9();
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    for round in 0..3 {
        let resp = conn
            .request("POST", "/simulate", Some(&body))
            .expect("failover simulate");
        assert_eq!(resp.status, 200, "round {round}: {}", resp.body);
        assert_eq!(
            report_of(&warm.body),
            report_of(&resp.body),
            "round {round}"
        );
    }
    // The survivor answered from its own cache after the first recompute.
    let last = conn.request("POST", "/simulate", Some(&body)).unwrap();
    assert!(last.body.contains("\"cached\": true"));
    gateway.shutdown();
}

#[test]
fn kill9_worker_mid_stream_truncates_the_merged_stream() {
    let mut workers = [WorkerProc::spawn(), WorkerProc::spawn()];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends);
    let addr = gateway.addr().to_string();

    // A grid big and slow enough (heavier nets, a devices axis) that
    // neither worker can finish its slice before the kill lands. The
    // gateway drains worker 0's sub-stream first, so killing worker 0
    // right after the first merged lines guarantees pending cells die
    // with it.
    let grid = r#"{"benchmarks": ["VggE", "GoogLeNet", "ResNet"], "devices": [2, 4, 6, 8]}"#;
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let mut stream = conn
        .request_stream("POST", "/grid?stream=1", Some(grid))
        .expect("open merged stream");
    assert_eq!(stream.status, 200);

    let first = stream
        .next_line()
        .expect("at least one line")
        .expect("clean first line");
    assert!(first.contains("\"report\""), "not a cell line: {first}");
    workers[0].kill9();

    // Drain the rest: the stream must END IN AN ERROR (truncation), and
    // must never pretend to be a complete grid.
    let mut lines = 1usize;
    let mut truncated = false;
    while let Some(line) = stream.next_line() {
        match line {
            Ok(_) => lines += 1,
            Err(e) => {
                truncated = true;
                assert!(e.contains("truncated"), "error does not say truncated: {e}");
                break;
            }
        }
    }
    let total_cells = 6 * 3 * 2 * 4;
    assert!(
        truncated,
        "stream ended cleanly with {lines}/{total_cells} cells after a worker was SIGKILLed"
    );
    assert!(lines < total_cells, "somehow saw every cell");
    gateway.shutdown();
}

#[test]
fn kill9_then_gateway_grid_still_matches_a_single_node() {
    let mut workers = [
        WorkerProc::spawn(),
        WorkerProc::spawn(),
        WorkerProc::spawn(),
    ];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends);
    let addr = gateway.addr().to_string();

    // Take a worker out *before* the request: the buffered scatter must
    // fail its slice over and still assemble the full grid.
    workers[1].kill9();
    let body = r#"{"benchmarks": ["AlexNet"]}"#;
    let via_gateway = request_once(&addr, "POST", "/grid", Some(body)).expect("gateway grid");
    assert_eq!(via_gateway.status, 200, "{}", via_gateway.body);

    // Reference: one surviving worker, asked directly.
    let via_single =
        request_once(&workers[0].addr, "POST", "/grid", Some(body)).expect("single grid");
    assert_eq!(via_single.status, 200);

    let cells = |body: &str| -> Vec<String> {
        let Value::Map(entries) = serde::json::parse(body).unwrap() else {
            panic!("grid answer is not an object")
        };
        let Some((_, Value::Seq(cells))) = entries.into_iter().find(|(k, _)| k == "cells") else {
            panic!("no cells")
        };
        cells
            .iter()
            .map(|cell| {
                let Value::Map(entries) = cell else {
                    panic!("cell is not an object")
                };
                let kept: Vec<(String, Value)> = entries
                    .iter()
                    .filter(|(k, _)| k != "cached")
                    .cloned()
                    .collect();
                serde::json::to_string(&Value::Map(kept))
            })
            .collect()
    };
    assert_eq!(cells(&via_gateway.body), cells(&via_single.body));
    gateway.shutdown();
}

#[test]
fn mcdla_cluster_serves_what_mcdla_simulate_computes() {
    // `mcdla cluster` runs the workers and the gateway in one process
    // and prints one banner per node, the gateway's last.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcdla"))
        .args(["cluster", "--workers", "2", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mcdla cluster");
    let stdout = child.stdout.take().expect("child stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .map(|line| line.expect("read cluster banner"))
        .find(|line| line.starts_with("mcdla-gateway listening on "))
        .expect("gateway banner line");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in banner `{banner}`"))
        .to_owned();
    // SIGKILLed on drop, like the worker children.
    let cluster = WorkerProc { child, addr };

    let body = r#"{"design":"McDlaBwAware","benchmark":"AlexNet","strategy":"DataParallel"}"#;
    let via_gateway =
        request_once(&cluster.addr, "POST", "/simulate", Some(body)).expect("simulate via cluster");
    assert_eq!(via_gateway.status, 200, "{}", via_gateway.body);
    let cli = Command::new(env!("CARGO_BIN_EXE_mcdla"))
        .args(["simulate", "--body", body])
        .output()
        .expect("run mcdla simulate");
    assert!(cli.status.success(), "mcdla simulate failed");
    let cli_body = String::from_utf8(cli.stdout).expect("utf-8 stdout");
    assert_eq!(report_of(&via_gateway.body), report_of(&cli_body));
}
