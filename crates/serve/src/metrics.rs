//! Prometheus text-exposition rendering (format version 0.0.4) for the
//! worker's and the gateway's `GET /metrics` endpoints — counters,
//! gauges, and (since the `mcdla-obs` layer) latency histograms.
//!
//! Counters and gauges are declared once, as [`Metric`] rows keyed by
//! their path in the tier's stats [`Value`] (the `/stats` body), and
//! [`MetricsBuilder::table`] reads their numbers out of that value.

use mcdla_obs::HistogramSnapshot;
use serde::Value;

/// The `content-type` a Prometheus scrape expects.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// One counter or gauge family, declared against a tier's stats
/// [`Value`]: `/metrics` reads the number at `path` out of the same
/// value `/stats` serves, so the two cannot drift apart. `path` is a
/// dotted key path; one `[]` segment in it (`store.stages[].hits`) fans
/// out over the array (or map) there, one sample per element, labelled
/// as [`Metric::by`] says. `name` follows the tier's metric prefix.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    path: &'static str,
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    label: (&'static str, &'static str),
}

impl Metric {
    /// A monotone counter family at `path`; add its `# HELP` text with
    /// [`Metric::help`].
    pub const fn counter(path: &'static str, name: &'static str) -> Self {
        Metric {
            path,
            name,
            help: "",
            kind: "counter",
            label: ("", ""),
        }
    }

    /// A gauge family at `path`.
    pub const fn gauge(path: &'static str, name: &'static str) -> Self {
        Metric {
            kind: "gauge",
            ..Metric::counter(path, name)
        }
    }

    /// Sets the `# HELP` text.
    pub const fn help(self, help: &'static str) -> Self {
        Metric { help, ..self }
    }

    /// Labels each sample of a `[]` path `label="<element's key>"` (a
    /// map entry by its own key).
    pub const fn by(self, label: &'static str, key: &'static str) -> Self {
        Metric {
            label: (label, key),
            ..self
        }
    }
}

/// The value at a dotted path (`""` is `value` itself).
pub(crate) fn at<'a>(value: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.')
        .filter(|key| !key.is_empty())
        .try_fold(value, |v, key| v.get(key))
}

/// The number at a dotted path: any JSON number, or a boolean as 1/0.
fn number(value: &Value, path: &str) -> Option<f64> {
    match at(value, path)? {
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        v => v.as_f64(),
    }
}

/// Accumulates one exposition document: `# HELP`/`# TYPE` headers
/// followed by sample lines, family by family.
#[derive(Debug, Default)]
pub struct MetricsBuilder {
    out: String,
}

impl MetricsBuilder {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a metric family: emits its `# HELP` and `# TYPE` lines.
    /// Follow with [`MetricsBuilder::sample`] calls for the same name.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// One sample line. `labels` are `(name, value)` pairs; label values
    /// are escaped per the exposition format.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        // Counters and gauges here are integral or seconds; `{}` prints
        // both without exponent noise.
        self.out.push_str(&format!("{value}"));
        self.out.push('\n');
        self
    }

    /// Renders each row of `table` as the family `{prefix}_{name}`,
    /// reading its numbers out of `stats`. A `[]` path emits one
    /// labelled sample per element; a `null` number omits its family
    /// (or, under `[]`, its sample).
    pub fn table(&mut self, prefix: &str, table: &[Metric], stats: &Value) -> &mut Self {
        for m in table {
            let name = format!("{prefix}_{}", m.name);
            let Some((head, tail)) = m.path.split_once("[]") else {
                if let Some(v) = number(stats, m.path) {
                    self.family(&name, m.help, m.kind).sample(&name, &[], v);
                }
                continue;
            };
            let (label, key) = m.label;
            let elements: Vec<(&str, &Value)> = match at(stats, head) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|e| (e.get(key).and_then(Value::as_str).unwrap_or(""), e))
                    .collect(),
                Some(Value::Map(entries)) => entries.iter().map(|(k, e)| (k.as_str(), e)).collect(),
                _ => continue,
            };
            self.family(&name, m.help, m.kind);
            for (value, element) in elements {
                if let Some(v) = number(element, tail) {
                    self.sample(&name, &[(label, value)], v);
                }
            }
        }
        self
    }

    /// One series of a `histogram` family: cumulative
    /// `{name}_bucket{le=...}` lines in ascending `le` order (ending at
    /// `le="+Inf"`, whose count equals `{name}_count`), then `{name}_sum`
    /// and `{name}_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) -> &mut Self {
        let bucket = format!("{name}_bucket");
        for (bound, cum) in snap.cumulative() {
            let le = fmt_le(bound);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket, &with_le, cum as f64);
        }
        self.sample(&format!("{name}_sum"), labels, snap.sum_seconds);
        self.sample(&format!("{name}_count"), labels, snap.count() as f64)
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Formats a bucket bound as Prometheus expects: plain decimal for
/// finite bounds, the literal `+Inf` for the overflow bucket.
fn fmt_le(bound: f64) -> String {
    if bound.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{bound}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_labels_and_escapes() {
        let mut b = MetricsBuilder::new();
        b.family("x_total", "things", "counter");
        b.sample("x_total", &[("endpoint", "simulate")], 3.0);
        b.sample("x_total", &[("endpoint", "a\"b\\c")], 1.5);
        b.family("up", "liveness", "gauge").sample("up", &[], 1.0);
        let text = b.finish();
        assert!(text.contains("# HELP x_total things\n# TYPE x_total counter\n"));
        assert!(text.contains("x_total{endpoint=\"simulate\"} 3\n"));
        assert!(text.contains("x_total{endpoint=\"a\\\"b\\\\c\"} 1.5\n"));
        assert!(text.ends_with("up 1\n"));
    }

    #[test]
    fn tables_fan_out_arrays_and_omit_nulls() {
        let stats = serde::json::parse(
            r#"{"store": {"hits": 3, "capacity": null, "up": true,
                "stages": [{"stage": "fabric", "hits": 5}, {"stage": "plan", "hits": 0}],
                "requests": {"simulate": 2, "errors": 1}}}"#,
        )
        .unwrap();
        let mut b = MetricsBuilder::new();
        b.table(
            "p",
            &[
                Metric::counter("store.hits", "hits_total").help("h"),
                Metric::gauge("store.capacity", "capacity").help("c"),
                Metric::gauge("store.up", "up").help("u"),
                Metric::counter("store.stages[].hits", "stage_hits_total")
                    .help("s")
                    .by("stage", "stage"),
                Metric::counter("store.requests[]", "requests_total")
                    .help("r")
                    .by("endpoint", ""),
            ],
            &stats,
        );
        assert_eq!(
            b.finish(),
            "# HELP p_hits_total h\n# TYPE p_hits_total counter\np_hits_total 3\n\
             # HELP p_up u\n# TYPE p_up gauge\np_up 1\n\
             # HELP p_stage_hits_total s\n# TYPE p_stage_hits_total counter\n\
             p_stage_hits_total{stage=\"fabric\"} 5\np_stage_hits_total{stage=\"plan\"} 0\n\
             # HELP p_requests_total r\n# TYPE p_requests_total counter\n\
             p_requests_total{endpoint=\"simulate\"} 2\np_requests_total{endpoint=\"errors\"} 1\n"
        );
    }

    #[test]
    fn histograms_render_cumulative_ordered_buckets() {
        let h = mcdla_obs::Histogram::new();
        h.observe(3e-6);
        h.observe(3e-6);
        h.observe(0.3);
        h.observe(1e9); // +Inf bucket
        let mut b = MetricsBuilder::new();
        b.family("lat_seconds", "latency", "histogram");
        b.histogram("lat_seconds", &[("endpoint", "simulate")], &h.snapshot());
        let text = b.finish();
        assert!(text.contains("# TYPE lat_seconds histogram\n"));
        // Parse the bucket lines back out and check the contract.
        let buckets: Vec<(f64, f64)> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket{"))
            .map(|l| {
                let le_raw = l.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let le = if le_raw == "+Inf" {
                    f64::INFINITY
                } else {
                    le_raw.parse().unwrap()
                };
                let count: f64 = l.rsplit(' ').next().unwrap().parse().unwrap();
                (le, count)
            })
            .collect();
        assert_eq!(buckets.len(), mcdla_obs::BUCKETS);
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must ascend: {w:?}");
            assert!(w[0].1 <= w[1].1, "buckets must be cumulative: {w:?}");
        }
        let (inf_bound, inf_count) = buckets[buckets.len() - 1];
        assert!(inf_bound.is_infinite());
        assert!(text.contains("lat_seconds_count{endpoint=\"simulate\"} 4\n"));
        assert_eq!(inf_count, 4.0, "+Inf bucket equals _count");
        assert!(text.contains("lat_seconds_sum{endpoint=\"simulate\"} "));
        // Label escaping holds inside histogram label sets too.
        let mut b = MetricsBuilder::new();
        b.histogram("esc_seconds", &[("worker", "a\"b\\c")], &h.snapshot());
        assert!(b
            .finish()
            .contains("esc_seconds_sum{worker=\"a\\\"b\\\\c\"} "));
    }
}
