//! The per-layer metrics of a traced run, one fixed list for every
//! workload. A layer a workload bypasses reads 0 there; README.md maps
//! each metric to the workload that exercises it and the end-to-end
//! metric it should move.

use std::collections::BTreeMap;

use mcdla_core::StageStats;
use mcdla_obs::HistogramSnapshot;

use crate::report::Outcome;

/// Stage tables with hit/miss/eviction counters, in display order.
pub const STAGE_TABLES: [&str; 7] = [
    "fabric",
    "network",
    "layer_timing",
    "plan",
    "schedule",
    "collective",
    "sync",
];

/// Timed engine sections: the six spanned tables plus `assemble`.
pub const STAGE_SECTIONS: [&str; 7] = [
    "fabric",
    "network",
    "layer_timing",
    "plan",
    "schedule",
    "sync",
    "assemble",
];

/// Every per-layer metric the benchmark itself computes, with its unit.
/// (`obs.trace_overhead` and its base come from comparing two runs, so
/// `run.py` adds them.)
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for s in STAGE_TABLES {
        v.push((format!("stages.{s}.hit_rate"), "ratio"));
        v.push((format!("stages.{s}.misses"), "count"));
        v.push((format!("stages.{s}.evictions"), "count"));
    }
    for s in STAGE_SECTIONS {
        v.push((format!("stages.{s}.p50_us"), "us"));
        v.push((format!("stages.{s}.p99_us"), "us"));
    }
    let fixed: [(&str, &'static str); 32] = [
        ("engine.run.p50_us", "us"),
        ("engine.run.p99_us", "us"),
        ("engine.unattributed_share", "ratio"),
        ("fabric.collective.p50_us", "us"),
        ("fabric.collective.p99_us", "us"),
        ("fabric.collectives", "count"),
        ("store.hit_rate", "ratio"),
        ("store.misses", "count"),
        ("store.evictions", "count"),
        ("store.dedup_waits", "count"),
        ("store.get_or_compute.p50_us", "us"),
        ("serve.healthz.p50_us", "us"),
        ("serve.queue.p50_us", "us"),
        ("serve.queue.p99_us", "us"),
        ("serve.server.p50_us", "us"),
        ("serve.wire.p50_us", "us"),
        ("serve.response_bytes", "bytes"),
        ("serve.shed", "count"),
        ("serve.request_timeouts", "count"),
        ("serve.unattributed_share", "ratio"),
        ("cluster.gateway_overhead.p50_us", "us"),
        ("cluster.route.p50_us", "us"),
        ("cluster.pool_checkout.p50_us", "us"),
        ("cluster.upstream.p50_us", "us"),
        ("cluster.upstream.p99_us", "us"),
        ("cluster.retries", "count"),
        ("traffic.layer_timing.keys_over_cap", "ratio"),
        ("traffic.schedule.keys_over_cap", "ratio"),
        ("traffic.sync.keys_over_cap", "ratio"),
        ("traffic.routed_fabrics", "count"),
        ("traffic.working_set_over_cap", "ratio"),
        ("traffic.hit_share", "ratio"),
    ];
    v.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    v.push(("error_rate".into(), "ratio"));
    v
}

/// Collects per-layer values by name; [`Layers::emit`] writes the full
/// list, 0 for every layer this workload did not reach.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            names().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name.to_owned(), value);
    }

    /// Stage-table counters as deltas between two snapshots (summed
    /// over every process the snapshots cover).
    pub fn stage_counters(&mut self, before: &[StageStats], after: &[StageStats]) {
        for s in STAGE_TABLES {
            let pick = |v: &[StageStats]| {
                v.iter()
                    .filter(|x| x.stage == s)
                    .fold((0u64, 0u64, 0u64), |a, x| {
                        (a.0 + x.hits, a.1 + x.misses, a.2 + x.evictions)
                    })
            };
            let (h0, m0, e0) = pick(before);
            let (h1, m1, e1) = pick(after);
            let (hits, misses) = (h1.saturating_sub(h0), m1.saturating_sub(m0));
            let lookups = hits + misses;
            self.set(
                &format!("stages.{s}.hit_rate"),
                if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
            );
            self.set(&format!("stages.{s}.misses"), misses as f64);
            self.set(
                &format!("stages.{s}.evictions"),
                e1.saturating_sub(e0) as f64,
            );
        }
    }

    /// Stage-section latency quantiles from histogram deltas.
    pub fn stage_latency(&mut self, hists: &BTreeMap<String, HistogramSnapshot>) {
        for s in STAGE_SECTIONS {
            if let Some(h) = hists.get(s) {
                self.set(&format!("stages.{s}.p50_us"), h.quantile(0.5) * 1e6);
                self.set(&format!("stages.{s}.p99_us"), h.quantile(0.99) * 1e6);
            }
        }
    }

    pub fn emit(self, out: &mut Outcome) {
        for (name, unit) in names() {
            let value = self.0.get(&name).copied().unwrap_or(0.0);
            out.metric(&name, value, unit);
        }
    }
}

/// Total time the stage sections recorded, in µs (their histogram
/// sums): the engine time the stage spans attribute.
pub fn stage_time_us(hists: &BTreeMap<String, HistogramSnapshot>) -> f64 {
    hists.values().map(|h| h.sum_seconds * 1e6).sum()
}
