//! JSON navigation and the tail-aligned fleet aggregate, shared by the
//! gateway's `/cluster/stats` + `/cluster/history` and the `mcdla top`
//! console.
//!
//! Workers sample on independent clocks, so fleet rings align **from
//! the tail**: sample `j` of a fleet ring folds the `j`-th-from-last
//! sample of every worker ring.

use serde::Value;

/// Navigates a JSON map path.
pub(crate) fn get<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |current, key| current.get(key))
}

/// The numbers of the array at `path`, as floats (empty when absent).
pub(crate) fn ring(value: &Value, path: &[&str]) -> Vec<f64> {
    match get(value, path) {
        Some(Value::Seq(points)) => points.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// A named series out of a `/metrics/history` body (newest last).
pub(crate) fn series(history: &Value, name: &str) -> Vec<f64> {
    ring(history, &["series", name])
}

/// Folds the newest `len` samples of every ring element-wise from the
/// tail, starting at 0; rings shorter than `len` are skipped.
fn fold_tails(rings: &[Vec<f64>], len: usize, f: fn(f64, f64) -> f64) -> Vec<f64> {
    (0..len)
        .map(|j| {
            rings
                .iter()
                .filter(|r| r.len() >= len)
                .map(|r| r[r.len() - len + j])
                .fold(0.0, f)
        })
        .collect()
}

/// The fleet aggregate of worker `/metrics/history` bodies over the
/// window every worker has retained (its shortest timestamp ring). Each
/// sample is stamped with the newest worker stamp it folds in; rates
/// are sums, and `hit_rate` is the ratio of the sums — which stays
/// duplication-invariant when in-process workers report one shared
/// stage table.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct FleetRings {
    pub timestamps_ms: Vec<u64>,
    pub req_per_s: Vec<f64>,
    pub hits_per_s: Vec<f64>,
    pub misses_per_s: Vec<f64>,
    pub hit_rate: Vec<f64>,
}

impl FleetRings {
    pub(crate) fn fold(histories: &[&Value]) -> FleetRings {
        let rings =
            |path: &[&str]| -> Vec<Vec<f64>> { histories.iter().map(|h| ring(h, path)).collect() };
        let stamps = rings(&["timestamps_ms"]);
        let len = stamps.iter().map(Vec::len).min().unwrap_or(0);
        let sum = |name: &str| fold_tails(&rings(&["series", name]), len, |a, b| a + b);
        let (hits_per_s, misses_per_s) = (sum("store.hits_per_s"), sum("store.misses_per_s"));
        FleetRings {
            timestamps_ms: fold_tails(&stamps, len, f64::max)
                .into_iter()
                .map(|t| t as u64)
                .collect(),
            req_per_s: sum("req_per_s"),
            hit_rate: hits_per_s
                .iter()
                .zip(&misses_per_s)
                .map(|(&h, &m)| mcdla_obs::hit_rate(h, m))
                .collect(),
            hits_per_s,
            misses_per_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_rings_align_from_the_tail() {
        let history = |stamps: &str, req: &str, hits: &str, misses: &str| {
            serde::json::parse(&format!(
                r#"{{"timestamps_ms": {stamps}, "series": {{"req_per_s": {req},
                    "store.hits_per_s": {hits}, "store.misses_per_s": {misses}}}}}"#
            ))
            .unwrap()
        };
        let a = history("[1000, 2000, 3000]", "[1, 2, 3]", "[0, 1, 3]", "[1, 1, 1]");
        let b = history("[2500, 3500]", "[10, 20]", "[1, 1]", "[1, 0]");
        // The shortest ring wins: the overlap is each worker's last two
        // samples, stamped with the newer stamp of each pair.
        let fleet = FleetRings::fold(&[&a, &b]);
        assert_eq!(fleet.timestamps_ms, vec![2500, 3500]);
        assert_eq!(fleet.req_per_s, vec![12.0, 23.0]);
        assert_eq!(fleet.hit_rate, vec![0.5, 0.8]);
        assert_eq!(FleetRings::fold(&[]), FleetRings::default());
    }
}
