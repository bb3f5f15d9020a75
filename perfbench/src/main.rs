//! The repository benchmark's measuring program. `perfbench/run.py`
//! builds it and the `mcdla` binary, then runs
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR --mcdla BIN
//! ```
//!
//! and prints one JSON object as the last line of stdout: `correct`,
//! `attempted`, `failed`, the run's `metrics` (end-to-end when
//! untraced, per-layer when traced), ungated `details`, and the
//! correctness `checks`. Every run is a fresh process, because the
//! engine's stage tables and span switch are process-global.
//!
//! Workloads (see README.md for why each was chosen):
//! `sweep` and `routed` run in process; `serve` and `grid` drive a
//! fleet of `mcdla serve` workers and an `mcdla gateway`.

mod check;
mod fleet;
mod inproc;
mod layers;
mod load;
mod report;
mod rng;
mod spans;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small inputs, for the self-test.
    pub tiny: bool,
    /// The repository checkout (goldens are read from here).
    pub root: PathBuf,
    /// Where logs and the span file go.
    pub out_dir: PathBuf,
    /// The `mcdla` release binary the fleet workloads run.
    pub mcdla: Option<PathBuf>,
    /// Median set-up time, measured before the run.
    pub setup_s: f64,
}

const WORKLOADS: [&str; 4] = ["sweep", "routed", "serve", "grid"];

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        tiny: false,
        root: PathBuf::from("."),
        out_dir: PathBuf::from(".bench_out"),
        mcdla: None,
        setup_s: 0.0,
    };
    let mut probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => ctx.traced = value()? == "1",
            "--root" => ctx.root = PathBuf::from(value()?),
            "--out-dir" => ctx.out_dir = PathBuf::from(value()?),
            "--mcdla" => ctx.mcdla = Some(PathBuf::from(value()?)),
            "--tiny" => ctx.tiny = true,
            "--corrupt-reference" => check::corrupt_references(),
            "--setup-probe" => probe = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            ctx.workload
        ));
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((ctx, probe))
}

/// Median wall time of `runs` fresh set-up probe processes.
fn in_process_setup_s(ctx: &Ctx, runs: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..runs {
        let start = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", &ctx.workload])
            .args(["--seed", &ctx.seed.to_string()])
            .arg("--root")
            .arg(&ctx.root)
            .args(ctx.tiny.then_some("--tiny"))
            .status()
            .map_err(|e| format!("running set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe failed: {status}"));
        }
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(report::median(times))
}

fn run() -> Result<i32, String> {
    let (mut ctx, probe) = parse_args()?;
    if probe {
        inproc::setup_probe(&ctx)?;
        return Ok(0);
    }
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
    if ctx.traced {
        spans::enable();
        // The engine's stage histograms; the fleet processes switch
        // theirs on themselves.
        mcdla_obs::set_enabled(true);
    }
    let outcome = {
        let _root = spans::Span::enter("run");
        match ctx.workload.as_str() {
            "sweep" | "routed" => {
                ctx.setup_s = in_process_setup_s(&ctx, 9)?;
                if ctx.workload == "sweep" {
                    inproc::sweep(&ctx)?
                } else {
                    inproc::routed(&ctx)?
                }
            }
            _ => load::fleet_workload(&mut ctx)?,
        }
    };
    if ctx.traced {
        let all = spans::all();
        let path = ctx.out_dir.join(format!("spans-{}.jsonl", ctx.workload));
        spans::write(&path, &all)?;
        for (name, (count, total, own)) in spans::self_times(&all) {
            eprintln!(
                "span {name:<20} count {count:>8}  total {total:>14.1} us  self {own:>14.1} us"
            );
        }
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.correct() { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
