//! The fleet under test: two `mcdla serve` workers and one
//! `mcdla gateway`, each a separate process of the release binary (an
//! in-process fleet would share one set of stage tables, which no
//! deployment does). Every process is killed and reaped when its
//! handle drops, so a failing run leaves nothing behind.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mcdla_core::StageStats;
use mcdla_obs::{HistogramSnapshot, BUCKETS};
use mcdla_serve::client::{self, Timeouts};
use serde::Value;

use crate::report::{cpu_seconds, peak_rss_mb};

const WORKER_THREADS: usize = 2;

/// One running process of the fleet.
pub struct Node {
    pub name: String,
    pub addr: String,
    /// Its stderr (the structured log), when the run is traced.
    pub log: Option<PathBuf>,
    child: Child,
    /// Held open so the process never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Node {
    fn spawn(
        mcdla: &Path,
        out_dir: &Path,
        name: &str,
        args: &[String],
        traced: bool,
    ) -> Result<Node, String> {
        let mut cmd = Command::new(mcdla);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped());
        // The fleet sees only the settings chosen here.
        for (k, _) in std::env::vars() {
            if k.starts_with("MCDLA_") {
                cmd.env_remove(k);
            }
        }
        let log = if traced {
            // Per-request wide events, none dropped, and a flight
            // recorder deep enough to hold the traces fetched later.
            cmd.env("MCDLA_LOG", "debug")
                .env("MCDLA_LOG_LIMIT", "0")
                .env("MCDLA_TRACE_CAP", "16384");
            let path = out_dir.join(format!("{name}.log"));
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            cmd.stderr(file);
            Some(path)
        } else {
            cmd.env("MCDLA_LOG", "info").stderr(Stdio::null());
            None
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {} {name}: {e}", mcdla.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The process prints its listen address once bound; end of file
        // means it exited first.
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let node = Node {
            name: name.to_owned(),
            addr: addr.unwrap_or_default(),
            log,
            child,
            _stdout: stdout,
        };
        match read {
            Ok(_) if !node.addr.is_empty() => Ok(node),
            Ok(_) => Err(format!("{name} printed no listen address: {line:?}")),
            Err(e) => Err(format!("reading {name} output: {e}")),
        }
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match client::request_once_with(&self.addr, "GET", "/healthz", None, quick()) {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err(format!("{} never answered /healthz", self.name));
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        let r = client::request_once_with(&self.addr, "GET", path, None, quick())?;
        if r.status != 200 {
            return Err(format!("{} GET {path}: HTTP {}", self.name, r.status));
        }
        Ok(r.body)
    }

    pub fn get_json(&self, path: &str) -> Result<Value, String> {
        serde::json::parse(&self.get(path)?).map_err(|e| format!("{} GET {path}: {e}", self.name))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn quick() -> Timeouts {
    Timeouts::all(Duration::from_secs(10))
}

/// Two workers and a gateway routing across them.
pub struct Fleet {
    pub workers: Vec<Node>,
    pub gateway: Node,
    /// Seconds from the first spawn until every process answered
    /// `/healthz`.
    pub setup_s: f64,
}

impl Fleet {
    pub fn start(
        mcdla: &Path,
        out_dir: &Path,
        cache_cap: usize,
        traced: bool,
    ) -> Result<Fleet, String> {
        let start = Instant::now();
        let mut workers = Vec::new();
        for i in 0..2 {
            let args: Vec<String> = [
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &WORKER_THREADS.to_string(),
                "--cache-cap",
                &cache_cap.to_string(),
            ]
            .map(str::to_owned)
            .to_vec();
            workers.push(Node::spawn(
                mcdla,
                out_dir,
                &format!("w{i}"),
                &args,
                traced,
            )?);
        }
        let backends = workers
            .iter()
            .map(|w| w.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let args: Vec<String> = ["gateway", "--addr", "127.0.0.1:0", "--backends", &backends]
            .map(str::to_owned)
            .to_vec();
        let gateway = Node::spawn(mcdla, out_dir, "gateway", &args, traced)?;
        for n in workers.iter().chain([&gateway]) {
            n.wait_healthy()?;
        }
        Ok(Fleet {
            workers,
            gateway,
            setup_s: start.elapsed().as_secs_f64(),
        })
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.workers.iter().chain([&self.gateway])
    }

    /// CPU seconds used so far, summed over every process of the fleet.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        self.nodes()
            .map(|n| cpu_seconds(&n.child.id().to_string()))
            .sum()
    }

    /// Peak resident set summed over every process of the fleet.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.nodes().map(Node::peak_rss_mb).sum()
    }

    /// Every worker's `/stats` document.
    pub fn worker_stats(&self) -> Result<Vec<Value>, String> {
        self.workers.iter().map(|w| w.get_json("/stats")).collect()
    }

    /// Every worker's stage-section histograms, summed per section.
    pub fn stage_hists(&self) -> Result<BTreeMap<String, HistogramSnapshot>, String> {
        let mut out: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for w in &self.workers {
            for (stage, h) in parse_stage_hists(&w.get("/metrics")?) {
                let acc = out.entry(stage).or_insert(HistogramSnapshot {
                    buckets: [0; BUCKETS],
                    sum_seconds: 0.0,
                });
                for (a, b) in acc.buckets.iter_mut().zip(h.buckets) {
                    *a += b;
                }
                acc.sum_seconds += h.sum_seconds;
            }
        }
        Ok(out)
    }
}

/// A numeric field at a `/`-separated path of a JSON document (0 when
/// absent).
pub fn num(v: &Value, path: &str) -> f64 {
    path.split('/')
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Sum of a numeric field over several documents.
pub fn sum(docs: &[Value], path: &str) -> f64 {
    docs.iter().map(|d| num(d, path)).sum()
}

/// The per-stage counters of `/stats` documents (one entry per stage
/// per document).
pub fn stage_stats(docs: &[Value]) -> Vec<StageStats> {
    let mut out = Vec::new();
    for d in docs {
        let Some(stages) = d
            .get("store")
            .and_then(|s| s.get("stages"))
            .and_then(Value::as_seq)
        else {
            continue;
        };
        for s in stages {
            out.push(StageStats {
                stage: s
                    .get("stage")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                hits: num(s, "hits") as u64,
                misses: num(s, "misses") as u64,
                evictions: num(s, "evictions") as u64,
                entries: num(s, "entries") as u64,
                capacity: s.get("capacity").and_then(Value::as_u64),
                hit_rate: num(s, "hit_rate"),
            });
        }
    }
    out
}

/// Parses the `mcdla_stage_seconds` histograms out of a Prometheus
/// exposition (cumulative `le` buckets back to per-bucket counts).
fn parse_stage_hists(text: &str) -> BTreeMap<String, HistogramSnapshot> {
    let mut cumulative: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("mcdla_stage_seconds_") else {
            continue;
        };
        let Some((kind, rest)) = rest.split_once("{stage=\"") else {
            continue;
        };
        let Some((stage, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(value) = rest.rsplit(' ').next() else {
            continue;
        };
        match kind {
            "bucket" => cumulative
                .entry(stage.to_owned())
                .or_default()
                .push(value.parse().unwrap_or(0)),
            "sum" => {
                sums.insert(stage.to_owned(), value.parse().unwrap_or(0.0));
            }
            _ => {}
        }
    }
    cumulative
        .into_iter()
        .filter(|(_, c)| c.len() == BUCKETS)
        .map(|(stage, c)| {
            let mut buckets = [0u64; BUCKETS];
            let mut prev = 0;
            for (b, now) in buckets.iter_mut().zip(c) {
                *b = now.saturating_sub(prev);
                prev = now;
            }
            let sum_seconds = sums.get(&stage).copied().unwrap_or(0.0);
            (
                stage,
                HistogramSnapshot {
                    buckets,
                    sum_seconds,
                },
            )
        })
        .collect()
}
