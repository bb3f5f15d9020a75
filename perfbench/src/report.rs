//! What one run reports: the metrics of its mode, informational
//! details, the correctness checks, and the final JSON line.

use serde::Value;

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check over the timed outputs.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub checked: u64,
    pub mismatches: u64,
    pub detail: String,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (cells, requests, streamed grids).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// The metrics of this run's mode: end-to-end when untraced,
    /// per-layer when traced.
    pub metrics: Vec<Reading>,
    /// Values printed for reading but not gated (the workload's own
    /// names for its headline numbers, traffic properties).
    pub details: Vec<Reading>,
    pub checks: Vec<Check>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Reading {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push(Reading {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a check; every mismatch also counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, checked: u64, mismatches: u64, detail: String) {
        self.failed += mismatches;
        self.checks.push(Check {
            name: name.to_owned(),
            checked,
            mismatches,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .checks
                .iter()
                .all(|c| c.mismatches == 0 && c.checked > 0)
    }

    pub fn to_json(&self) -> String {
        let readings = |rs: &[Reading]| {
            Value::Map(
                rs.iter()
                    .map(|r| {
                        (
                            r.name.clone(),
                            Value::Map(vec![
                                ("value".into(), Value::F64(r.value)),
                                ("unit".into(), Value::Str(r.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let checks = Value::Seq(
            self.checks
                .iter()
                .map(|c| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(c.name.clone())),
                        ("checked".into(), Value::U64(c.checked)),
                        ("mismatches".into(), Value::U64(c.mismatches)),
                        ("detail".into(), Value::Str(c.detail.clone())),
                    ])
                })
                .collect(),
        );
        serde::json::to_string(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), readings(&self.metrics)),
            ("details".into(), readings(&self.details)),
            ("checks".into(), checks),
        ]))
    }
}

/// What one timed section did, for the end-to-end metrics.
#[derive(Debug)]
pub struct Section {
    /// Units of work finished (cells, requests, streamed cells).
    pub ops: u64,
    pub elapsed_s: f64,
    /// CPU seconds the measured program spent in the section.
    pub cpu_s: f64,
    /// Latency of each unit of work the caller sees, in µs.
    pub latency_us: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Records a timed section. Host CPU time per unit of work is the
    /// gated metric: on the shared 2-vCPU hosts this runs on, wall-clock
    /// throughput and latency of the request workloads swing several-fold
    /// with host load while CPU time per operation stays put, so the wall
    /// figures are reported as details.
    pub fn end_to_end(&mut self, traced: bool, setup_s: f64, section: Section) {
        let latency = sorted(section.latency_us);
        let cpu_us_per_op = section.cpu_s * 1e6 / section.ops.max(1) as f64;
        self.detail(
            "throughput_per_s",
            section.ops as f64 / section.elapsed_s,
            "1/s",
        );
        self.detail("latency_p50_us", quantile(&latency, 0.5), "us");
        self.detail("latency_p99_us", quantile(&latency, 0.99), "us");
        self.detail("cpu_us_per_op", cpu_us_per_op, "us");
        self.detail("measured_s", section.elapsed_s, "s");
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.detail("error_rate", error_rate, "ratio");
        if !traced {
            self.metric("cpu_us_per_op", cpu_us_per_op, "us");
            self.metric("setup_s", setup_s, "s");
            self.metric("peak_rss_mb", section.peak_rss_mb, "MB");
        }
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid` may be
/// `"self"`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// CPU time (user + system, all threads) a process has used, in
/// seconds; `pid` may be `"self"`. Linux reports it in clock ticks of
/// 1/100 s (`USER_HZ`).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok((tick()? + tick()?) / 100.0)
}
