//! Retained time-series telemetry: fixed-capacity per-series rings.
//!
//! A [`History`] holds one ring of sample timestamps plus one parallel
//! ring of `f64` values per named series, all bounded by the same
//! capacity (the servers use [`DEFAULT_HISTORY_CAP`], 600 samples — ten
//! minutes at the default 1 s cadence). The series set is fixed at construction:
//! every tick appends exactly one value per series, so the rings stay
//! aligned and a reader can zip any series against the shared
//! timestamp column.
//!
//! Each series is declared by the statement that computes its value
//! (`out.push("conns.open", v)`, see [`Sample`]): construction runs
//! the same fill code once to learn the names, so a name can never
//! drift away from its value.
//!
//! Writers (the sampler thread) and readers (the `/metrics/history`
//! handler) share one mutex; at a 1 Hz sample rate contention is
//! unmeasurable.

use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::Mutex;

/// Retained samples per series in the servers' histories.
pub const DEFAULT_HISTORY_CAP: usize = 600;

/// A point-in-time copy of a [`History`]: the shared timestamp column
/// plus the selected series, aligned index-for-index.
#[derive(Debug, Clone)]
pub struct HistoryDump {
    /// Sample timestamps, unix milliseconds, oldest first.
    pub timestamps_ms: Vec<u64>,
    /// `(name, values)` per selected series; every `values` vector has
    /// the same length as `timestamps_ms`.
    pub series: Vec<(String, Vec<f64>)>,
    /// The configured retention bound (samples per series).
    pub capacity: usize,
    /// The sampler cadence that feeds this history, in milliseconds.
    pub interval_ms: u64,
}

/// One history sample under construction: each [`Sample::push`]
/// declares a series and its value for this tick, in record order.
#[derive(Debug)]
pub struct Sample {
    /// Collected series names — only while [`History::new`] learns the
    /// series set; recording ticks never format a name.
    names: Option<Vec<String>>,
    values: Vec<f64>,
}

impl Sample {
    /// Declares one series and its value for this tick. `name` is only
    /// rendered once, when the history is built (`format_args!` keeps
    /// per-label names allocation-free on every later tick).
    pub fn push(&mut self, name: impl Display, value: f64) {
        if let Some(names) = &mut self.names {
            names.push(name.to_string());
        }
        self.values.push(value);
    }
}

struct Inner {
    timestamps_ms: VecDeque<u64>,
    values: Vec<VecDeque<f64>>,
}

/// Bounded, named time-series rings (see module docs). Shared between
/// the sampler thread and HTTP readers behind `&self`.
pub struct History {
    names: Vec<String>,
    capacity: usize,
    interval_ms: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for History {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("History")
            .field("names", &self.names.len())
            .field("capacity", &self.capacity)
            .field("interval_ms", &self.interval_ms)
            .field("len", &self.len())
            .finish()
    }
}

impl History {
    /// A history retaining `capacity` samples (clamped to at least 1)
    /// of the series `declare` pushes, in push order. `declare` is the
    /// same fill code later passed to [`History::record`] (its values
    /// are discarded here). `interval_ms` is advertised in dumps so
    /// readers can convert sample counts to wall time.
    pub fn new(capacity: usize, interval_ms: u64, declare: impl FnOnce(&mut Sample)) -> History {
        let mut sample = Sample {
            names: Some(Vec::new()),
            values: Vec::new(),
        };
        declare(&mut sample);
        let names = sample.names.unwrap_or_default();
        let capacity = capacity.max(1);
        let values = names.iter().map(|_| VecDeque::new()).collect();
        History {
            names,
            capacity,
            interval_ms,
            inner: Mutex::new(Inner {
                timestamps_ms: VecDeque::new(),
                values,
            }),
        }
    }

    /// Number of samples currently retained.
    fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("history poisoned")
            .timestamps_ms
            .len()
    }

    /// Appends one sample: a timestamp plus the values `fill` pushes,
    /// one per series.
    ///
    /// # Panics
    ///
    /// Panics if `fill` pushes a different number of values than the
    /// series set declared at construction — a wiring bug (the fill
    /// code's shape depends on data), not a runtime condition.
    pub fn record(&self, timestamp_ms: u64, fill: impl FnOnce(&mut Sample)) {
        let mut sample = Sample {
            names: None,
            values: Vec::with_capacity(self.names.len()),
        };
        fill(&mut sample);
        assert_eq!(
            sample.values.len(),
            self.names.len(),
            "history sample arity must match the registered series"
        );
        let mut inner = self.inner.lock().expect("history poisoned");
        inner.timestamps_ms.push_back(timestamp_ms);
        if inner.timestamps_ms.len() > self.capacity {
            inner.timestamps_ms.pop_front();
        }
        for (ring, &v) in inner.values.iter_mut().zip(&sample.values) {
            ring.push_back(v);
            if ring.len() > self.capacity {
                ring.pop_front();
            }
        }
    }

    /// Copies out the retained samples, oldest first. `filter` selects
    /// series by exact name (`None` = all, unknown names are ignored);
    /// `last` keeps only the newest N samples.
    pub fn dump(&self, filter: Option<&[&str]>, last: Option<usize>) -> HistoryDump {
        let inner = self.inner.lock().expect("history poisoned");
        let len = inner.timestamps_ms.len();
        let keep = last.unwrap_or(len).min(len);
        let skip = len - keep;
        let timestamps_ms: Vec<u64> = inner.timestamps_ms.iter().skip(skip).copied().collect();
        let series = self
            .names
            .iter()
            .zip(&inner.values)
            .filter(|(name, _)| filter.is_none_or(|f| f.contains(&name.as_str())))
            .map(|(name, ring)| (name.clone(), ring.iter().skip(skip).copied().collect()))
            .collect();
        HistoryDump {
            timestamps_ms,
            series,
            capacity: self.capacity,
            interval_ms: self.interval_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two series, `a = v` and `b = -v`, declared by their pushes.
    fn fill(v: f64) -> impl FnOnce(&mut Sample) {
        move |out| {
            out.push("a", v);
            out.push(format_args!("{}", "b"), -v);
        }
    }

    fn history() -> History {
        History::new(4, 1000, fill(0.0))
    }

    #[test]
    fn rings_stay_aligned_and_bounded() {
        let h = history();
        for i in 0..10u64 {
            h.record(i * 1000, fill(i as f64));
        }
        assert_eq!(h.len(), 4);
        let d = h.dump(None, None);
        assert_eq!(d.timestamps_ms, vec![6000, 7000, 8000, 9000]);
        assert_eq!(d.series.len(), 2);
        assert_eq!((d.series[0].0.as_str(), d.series[1].0.as_str()), ("a", "b"));
        assert_eq!(d.series[0].1, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(d.series[1].1, vec![-6.0, -7.0, -8.0, -9.0]);
        assert_eq!(d.capacity, 4);
        assert_eq!(d.interval_ms, 1000);
    }

    #[test]
    fn dump_filters_series_and_truncates_to_last() {
        let h = history();
        for i in 0..3u64 {
            h.record(i, fill(i as f64));
        }
        let d = h.dump(Some(&["b", "nope"]), Some(2));
        assert_eq!(d.timestamps_ms, vec![1, 2]);
        assert_eq!(d.series.len(), 1);
        assert_eq!(d.series[0].0, "b");
        assert_eq!(d.series[0].1, vec![-1.0, -2.0]);
        // `last` larger than retention answers everything.
        assert_eq!(h.dump(None, Some(99)).timestamps_ms.len(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_is_a_wiring_bug() {
        history().record(0, |out| out.push("a", 1.0));
    }
}
