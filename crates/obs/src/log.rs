//! Leveled, rate-limited structured logging: one JSON object per line
//! on stderr.
//!
//! `MCDLA_LOG` selects the level — `error|warn|info|debug|off`, default
//! `info` — for every target. Targets are short static strings
//! (`"serve"`, `"gateway"`, `"cluster"`) carried on each line.
//!
//! Every line is a flat JSON object: `ts_ms`, `level`, `target`, `msg`,
//! then the caller's fields in order. Lines are emitted with a single
//! `eprintln!`, so concurrent writers interleave only at line
//! granularity.
//!
//! A global token window caps emission at `MCDLA_LOG_LIMIT` lines per
//! second (default 500, `0` = unlimited). Overflow is dropped, counted,
//! and confessed by a `log_dropped` warn line when the next window
//! opens — a log flood degrades to a rate, never to unbounded stderr.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error,
    /// Degraded but self-healing conditions.
    Warn,
    /// Operator-relevant lifecycle events; the default.
    Info,
    /// Per-request wide events and other high-volume detail.
    Debug,
}

impl Level {
    fn rank(self) -> u8 {
        match self {
            Level::Error => 1,
            Level::Warn => 2,
            Level::Info => 3,
            Level::Debug => 4,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Default emission cap, lines per second.
pub const DEFAULT_LOG_LIMIT: u64 = 500;

/// A typed field value for structured lines. Built via `From`, so call
/// sites read `("cells", loaded.into())`.
#[derive(Debug, Clone)]
pub enum LogValue {
    /// A string field (JSON-escaped on emission).
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field (non-finite values emit as `null`).
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for LogValue {
    fn from(v: &str) -> LogValue {
        LogValue::Str(v.to_string())
    }
}
impl From<String> for LogValue {
    fn from(v: String) -> LogValue {
        LogValue::Str(v)
    }
}
impl From<u64> for LogValue {
    fn from(v: u64) -> LogValue {
        LogValue::U64(v)
    }
}
impl From<usize> for LogValue {
    fn from(v: usize) -> LogValue {
        LogValue::U64(v as u64)
    }
}
impl From<u32> for LogValue {
    fn from(v: u32) -> LogValue {
        LogValue::U64(u64::from(v))
    }
}
impl From<u16> for LogValue {
    fn from(v: u16) -> LogValue {
        LogValue::U64(u64::from(v))
    }
}
impl From<i64> for LogValue {
    fn from(v: i64) -> LogValue {
        LogValue::I64(v)
    }
}
impl From<f64> for LogValue {
    fn from(v: f64) -> LogValue {
        LogValue::F64(v)
    }
}
impl From<bool> for LogValue {
    fn from(v: bool) -> LogValue {
        LogValue::Bool(v)
    }
}

/// Parses an `MCDLA_LOG` level into the most verbose rank it admits.
/// Unknown levels fall back to `info`.
fn parse_rank(spec: &str) -> u8 {
    match spec.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => 0,
        "error" => 1,
        "warn" | "warning" => 2,
        "debug" | "trace" => 4,
        _ => 3,
    }
}

fn max_rank() -> u8 {
    static RANK: OnceLock<u8> = OnceLock::new();
    *RANK.get_or_init(|| parse_rank(&std::env::var("MCDLA_LOG").unwrap_or_default()))
}

fn limit() -> u64 {
    static LIMIT: OnceLock<u64> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        std::env::var("MCDLA_LOG_LIMIT")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_LOG_LIMIT)
    })
}

/// Whether a line at `level` would be emitted (cheap; use to skip
/// field construction on hot paths).
pub fn log_enabled(level: Level) -> bool {
    level.rank() <= max_rank()
}

/// Appends `s` to `out` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one structured line (without emitting it). Public so tests
/// and the wide-event path can pin the exact wire shape.
pub fn format_line(
    ts_ms: u64,
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, LogValue)],
) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.label());
    out.push_str("\",\"target\":");
    push_json_str(&mut out, target);
    out.push_str(",\"msg\":");
    push_json_str(&mut out, msg);
    for (key, value) in fields {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        match value {
            LogValue::Str(s) => push_json_str(&mut out, s),
            LogValue::U64(v) => out.push_str(&v.to_string()),
            LogValue::I64(v) => out.push_str(&v.to_string()),
            LogValue::F64(v) if v.is_finite() => out.push_str(&format!("{v:.6}")),
            LogValue::F64(_) => out.push_str("null"),
            LogValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// A per-second emission window; the global limiter plus any test
/// instance. Lock-free: the window rolls via compare-exchange.
#[derive(Debug, Default)]
pub struct RateWindow {
    window_s: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl RateWindow {
    /// A fresh window.
    pub const fn new() -> RateWindow {
        RateWindow {
            window_s: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Charges one line at time `now_s` against `limit` lines/sec.
    /// Returns `(admit, drops_to_confess)`: when a new window opens,
    /// the previous window's drop count is handed to the caller to
    /// report.
    pub fn admit(&self, now_s: u64, limit: u64) -> (bool, u64) {
        if limit == 0 {
            return (true, 0);
        }
        let current = self.window_s.load(Ordering::Relaxed);
        let mut confess = 0;
        if now_s != current
            && self
                .window_s
                .compare_exchange(current, now_s, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            confess = self.dropped.swap(0, Ordering::Relaxed);
            self.emitted.store(0, Ordering::Relaxed);
        }
        if self.emitted.fetch_add(1, Ordering::Relaxed) < limit {
            (true, confess)
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            (false, confess)
        }
    }
}

static GLOBAL_WINDOW: RateWindow = RateWindow::new();

/// Emits one structured line if `level` passes the `MCDLA_LOG` filter
/// and the rate limiter admits it.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    if !log_enabled(level) {
        return;
    }
    let ts_ms = crate::sampler::unix_ms();
    let (admit, confess) = GLOBAL_WINDOW.admit(ts_ms / 1000, limit());
    if confess > 0 {
        eprintln!(
            "{}",
            format_line(
                ts_ms,
                Level::Warn,
                "obs",
                "log_dropped",
                &[
                    ("dropped", confess.into()),
                    ("limit_per_sec", limit().into())
                ],
            )
        );
    }
    if admit {
        eprintln!("{}", format_line(ts_ms, level, target, msg, fields));
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_with_an_info_default() {
        assert_eq!(parse_rank(" Warn "), Level::Warn.rank());
        assert_eq!(parse_rank("debug"), Level::Debug.rank());
        assert_eq!(parse_rank("error"), Level::Error.rank());
        // Unknown levels fall back to info; empty spec is info.
        assert_eq!(parse_rank("verbose"), Level::Info.rank());
        assert_eq!(parse_rank(""), Level::Info.rank());
        assert!(parse_rank("off") < Level::Error.rank());
    }

    #[test]
    fn lines_are_valid_flat_json() {
        let line = format_line(
            1723000000123,
            Level::Info,
            "serve",
            "snapshot \"warmed\"\n",
            &[
                ("cells", 1024usize.into()),
                ("path", "/tmp/a\\b.json".into()),
                ("rate", 0.5f64.into()),
                ("nan", f64::NAN.into()),
                ("neg", LogValue::I64(-3)),
                ("ok", true.into()),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1723000000123,\"level\":\"info\",\"target\":\"serve\",\
             \"msg\":\"snapshot \\\"warmed\\\"\\n\",\"cells\":1024,\
             \"path\":\"/tmp/a\\\\b.json\",\"rate\":0.500000,\"nan\":null,\
             \"neg\":-3,\"ok\":true}"
        );
    }

    #[test]
    fn rate_window_caps_and_confesses_drops() {
        let w = RateWindow::new();
        let mut admitted = 0;
        for _ in 0..10 {
            if w.admit(100, 4).0 {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4);
        // Rolling into the next second confesses the 6 drops exactly once.
        let (ok, confess) = w.admit(101, 4);
        assert!(ok);
        assert_eq!(confess, 6);
        let (ok, confess) = w.admit(101, 4);
        assert!(ok);
        assert_eq!(confess, 0);
        // Unlimited never drops.
        let unlimited = RateWindow::new();
        for _ in 0..1000 {
            assert!(unlimited.admit(7, 0).0);
        }
    }
}
