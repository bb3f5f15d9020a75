#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program and the `mcdla`
release binary from source, runs one workload in a fresh process, and
prints one JSON object as the last line of stdout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10  # every workload
    python3 perfbench/run.py --self-test                           # tiny runs + gate check

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics; a traced run first repeats the workload untraced
so `obs.trace_overhead` compares the two. A run whose outputs are wrong
prints `"correct": false` and exits 1; a run that cannot build or measure
prints no result and exits 2. Human-readable details go to stderr.

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); logs and
span files to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
WORKLOADS = ["sweep", "routed", "serve", "grid"]


class Failure(Exception):
    pass


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest():
    """Hash of every file the two builds read. A checkout without `.git`
    makes the `mcdla-obs` build script rerun on every cargo invocation,
    which recompiles most of the workspace, so the build is skipped when
    this digest matches the last successful one."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ["crates", "src", "perfbench"]:
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.relative_to(ROOT).parts)
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    binaries = (target / "release" / "perfbench", target / "release" / "mcdla")
    stamp = target / "perfbench.stamp"
    if all(b.is_file() for b in binaries) and stamp.is_file() \
            and stamp.read_text() == source_digest():
        return binaries
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--bin", "mcdla"],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise Failure(f"`{' '.join(cmd)}` timed out")
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-6000:])
            raise Failure(f"`{' '.join(cmd)}` failed with exit code {r.returncode}")
    # Digest after building: cargo may have rewritten perfbench/Cargo.lock.
    stamp.write_text(source_digest())
    return binaries


def measure(binaries, workload, seed, seconds, trace, extra=()):
    """Runs the measuring program once in its own process group and
    returns (exit code, its JSON result)."""
    perfbench, mcdla = binaries
    cmd = [str(perfbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", str(ROOT),
           "--out-dir", str(ROOT / ".bench_out"), "--mcdla", str(mcdla), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        # Two of these make a traced run, which must end within 180 s.
        out, _ = proc.communicate(timeout=45 + 3 * seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise Failure(f"{workload} run exceeded its time limit")
    finally:
        # The fleet processes share the group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise Failure(f"{workload} run failed with exit code {proc.returncode}")
    return proc.returncode, json.loads(lines[-1])


def show(workload, result):
    for name, r in sorted(result.get("details", {}).items()):
        print(f"  {workload:8} {name:40} {r['value']:>16.6g} {r['unit']}", file=sys.stderr)
    for c in result.get("checks", []):
        state = "ok" if c["mismatches"] == 0 and c["checked"] > 0 else "FAILED"
        print(f"  {workload:8} check {c['name']}: {c['checked']} checked, "
              f"{c['mismatches']} mismatched {state} {c['detail']}", file=sys.stderr)


def run_one(binaries, workload, seed, seconds, trace, extra=()):
    """One run of a workload; returns (exit code, the JSON result to print)."""
    code, result = measure(binaries, workload, seed, seconds, trace, extra)
    show(workload, result)
    attempted, failed, correct = result["attempted"], result["failed"], result["correct"]
    metrics = dict(result["metrics"])
    if trace:
        # The untraced twin gives the base of the tracing overhead.
        base_code, base = measure(binaries, workload, seed, seconds, 0, extra)
        base_tp = base["details"]["throughput_per_s"]["value"]
        traced_tp = result["details"]["throughput_per_s"]["value"]
        metrics["obs.trace_overhead"] = {"value": traced_tp / base_tp, "unit": "ratio"}
        metrics["obs.trace_overhead.base_per_s"] = {"value": base_tp, "unit": "1/s"}
        print(f"  {workload:8} obs.trace_overhead = traced {traced_tp:.6g}/s "
              f"÷ untraced {base_tp:.6g}/s = {traced_tp / base_tp:.4f}", file=sys.stderr)
        attempted += base["attempted"]
        failed += base["failed"]
        correct = correct and base["correct"]
        code = max(code, base_code)
    want = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra_names = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise Failure(f"{workload}: metrics differ from BENCHMARK.json: missing {missing}, "
                      f"unexpected {extra_names}, wrong units {wrong}")
    return code, {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}


# The end-to-end numbers under the names the workloads give them.
HEADLINES = {
    "sweep": ["cells_per_s"],
    "routed": ["cells_per_s"],
    "serve": ["requests_per_s", "simulate_warm_p50_us", "simulate_warm_p99_us",
              "simulate_cold_p50_us", "simulate_cold_p90_us", "gateway_requests_per_s",
              "gateway_warm_p50_us", "gateway_warm_p99_us", "gateway_cold_p50_us"],
    "grid": ["grid_stream_cells_per_s"],
}


def run_all(binaries, seed, seconds):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        _, result = measure(binaries, w, seed, seconds, 0)
        show(w, result)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        d = result["details"]
        for name, r in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = r
        rows += [(w, n, r["value"], r["unit"]) for n, r in result["metrics"].items()]
        rows += [(w, n, d[n]["value"], d[n]["unit"])
                 for n in ["error_rate", "throughput_per_s", "latency_p50_us", "latency_p99_us"]
                 + HEADLINES[w]]
    print(f"{'workload':9} {'metric':26} {'value':>16} unit")
    for w, name, value, unit in rows:
        print(f"{w:9} {name:26} {value:>16.6g} {unit}")
    return (0 if total["correct"] else 1), total


def self_test(binaries):
    """Tiny runs of every workload in both modes must emit every
    BENCHMARK.json metric with its unit; corrupted references must fail
    the correctness gate."""
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            try:
                code, result = run_one(binaries, w, 7, 1, trace, ["--tiny"])
                if code != 0 or not result["correct"]:
                    problems.append(f"{w} trace={trace}: outputs judged wrong")
            except Failure as e:
                problems.append(f"{w} trace={trace}: {e}")
    for w in WORKLOADS:
        code, result = measure(binaries, w, 7, 1, 0, ["--tiny", "--corrupt-reference"])
        if code != 1 or result["correct"] or result["failed"] == 0:
            problems.append(f"{w}: a corrupted reference did not fail the run")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(f"self-test: {'FAILED' if problems else 'passed'}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        binaries = build()
        if args.self_test:
            return self_test(binaries)
        if not args.workload:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        if args.workload == "all":
            code, result = run_all(binaries, args.seed, seconds)
        else:
            code, result = run_one(binaries, args.workload, args.seed, seconds, args.trace)
    except (Failure, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
