//! The benchmark's own spans: recorded around each call the benchmark
//! makes into a layer (name, start, end, parent), kept in memory, and
//! written out when the run ends. Nothing here runs inside the program
//! under test; disabled (untraced) runs pay one atomic load per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU32::new(0),
        next_thread: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    recorder().on.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<(u32, &'static str, Option<u32>, Instant)>,
}

impl Span {
    /// Opens a span whose parent is the innermost open span on this
    /// thread.
    pub fn enter(name: &'static str) -> Span {
        let parent = STACK.with(|s| s.borrow().last().copied());
        Span::enter_under(name, parent)
    }

    /// Opens a span under an explicit parent — for work a span on
    /// another thread caused.
    pub fn enter_under(name: &'static str, parent: Option<u32>) -> Span {
        if !enabled() {
            return Span { open: None };
        }
        let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Span {
            open: Some((id, name, parent, Instant::now())),
        }
    }

    pub fn id(&self) -> Option<u32> {
        self.open.map(|(id, ..)| id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, name, parent, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let rec = recorder();
        let ns = |t: Instant| t.duration_since(rec.epoch).as_nanos() as u64;
        let span = SpanRec {
            id,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            thread: THREAD.with(|t| *t),
        };
        rec.spans.lock().expect("span list lock").push(span);
    }
}

/// Every span recorded so far.
pub fn all() -> Vec<SpanRec> {
    recorder().spans.lock().expect("span list lock").clone()
}

/// Durations (µs) of every span with this name.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_us)
        .collect()
}

/// Per span name: `(count, total µs, self µs)`, where a span's self time
/// is its duration minus the time its children cover. Children on
/// other threads can overlap one another, so self time is clamped at 0.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_us: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += (s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// Writes every span as one JSON array per line:
/// `[id, name, parent|null, start_ns, end_ns, thread]`.
pub fn write(path: &std::path::Path, spans: &[SpanRec]) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "[{},\"{}\",{},{},{},{}]",
            s.id, s.name, parent, s.start_ns, s.end_ns, s.thread
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
