"""heisenfourier benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --runs 3

Run from the root of a checkout; the package is imported from its src.
Each run starts fresh worker processes (perfbench/workloads.py) with the
BLAS thread count pinned before numpy loads: a few that only set up, for
the set-up time, then one that sets up, measures and checks.  Lines before
the last describe the run; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  --workload all runs every workload
--runs times in fresh processes and prints each metric's run-set summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("transform", "dualconv", "suites")
SETUP_PROBES = 14
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


RUN_ERRORS = (WorkerError, subprocess.SubprocessError, OSError, KeyError, ValueError)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEISENFOURIER_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(workload: str, seed: int, seconds: float, mode: str, env: dict, deadline: float):
    """Start one worker; return (seconds from start to ready, result or None)."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "probe" and last is None):
        raise WorkerError(f"{workload} worker ({mode}) exited with code {code}")
    return ready, (json.loads(last) if last else None)


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name == "trace.span_coverage":
        return "ratio"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: int, root: Path) -> tuple:
    """One run in fresh workers: the result object and every metric it shows.

    The shown metrics, {name: (value, unit)}, are printed one to a line; the
    result holds those of them that BENCHMARK.json lists.
    """
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        _, res = run_worker(workload, seed, seconds, "trace", env, deadline)
        shown = {name: (value, unit_of(name)) for name, value in res["layers"].items()}
        listed = spec["per_layer"]
        for name, (value, unit) in shown.items():
            print(f"layer {name} {value!r} {unit}")
        print(f"absent layers: {', '.join(res['absent']) or 'none'}")
    else:
        setups = [
            run_worker(workload, seed, seconds, "probe", env, deadline)[0]
            for _ in range(SETUP_PROBES)
        ]
        ready, res = run_worker(workload, seed, seconds, "run", env, deadline)
        setups.append(ready)
        shown = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (res["wall_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        # shown but not bounded: each is either specific to one workload, 0 at
        # the baseline, or set by the seeded input
        shown.update((name, tuple(pair)) for name, pair in res["op_metrics"].items())
        shown["fail_ratio"] = (len(res["failed"]) / res["checks"], "ratio")
        shown["defect_ratio"] = (res["defect_ratio"], "ratio")
        listed = spec["end_to_end"]
        for name, (value, unit) in shown.items():
            print(f"metric {name} {value!r} {unit}")
        print(f"passes {res['passes']}, checks {res['checks']}, failed {res['failed'] or 'none'}")
    print(json.dumps({"environment": res["environment"]}))
    result = {
        "correct": not res["failed"] and res["checks"] > 0,
        "attempted": res["checks"],
        "failed": len(res["failed"]),
        "metrics": {
            m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in listed
        },
    }
    return result, shown


def run_set_summary(name: str, values: list, unit: str) -> str:
    """Median, the highest percentile with at least ten runs beyond it, count, spread."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    # runs beyond a percentile are those worse than it; for a rate, lower is worse
    worse_low = unit.startswith("1/")
    tail = ""
    if n >= 11:
        pct = (100 * (n - 10)) // n
        value = ordered[10] if worse_low else ordered[n - 11]
        tail = f"  p{pct}{'(low)' if worse_low else ''} {value:.6g}"
    spread = ""
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        spread = f"  iqr/median {(q3 - q1) / median:.3f}" if median else ""
    runs = " ".join(f"{v:.4g}" for v in values)
    return f"{name:24s} {unit:6s} median {median:.6g}{tail}  n={n}{spread}  runs: {runs}"


def run_all(args, root: Path) -> int:
    status = 0
    for workload in WORKLOADS:
        series: dict = {}
        for seed in range(args.seed, args.seed + args.runs):
            print(f"-- {workload} seed {seed}", flush=True)
            try:
                result, shown = run_one(workload, seed, args.seconds, args.trace, root)
            except RUN_ERRORS as err:
                print(f"{workload} seed {seed}: benchmark failed: {err}", file=sys.stderr)
                status = 1
                continue
            for name, (value, unit) in shown.items():
                series.setdefault((name, unit), []).append(value)
            if not result["correct"]:
                status = 1
        print(f"== {workload}")
        for (name, unit), values in series.items():
            print(run_set_summary(name, values, unit))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heisenfourier" / "__init__.py").is_file():
        print("run from the root of a heisenfourier checkout (src/heisenfourier missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    try:
        result, _ = run_one(args.workload, args.seed, args.seconds, args.trace, root)
    except RUN_ERRORS as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
