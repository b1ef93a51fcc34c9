"""One benchmark worker process: set up a workload, time it, check it.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --mode MODE

run.py starts this with PYTHONPATH pointing at the checkout's src and the
BLAS thread count pinned.  The worker prints "ready" once set-up is done;
with --mode probe it stops there.  With --mode run or trace it then runs
passes over the workload's fixed list of ops while the next pass is
expected to end within S timed seconds (at least one pass), checks every
op outside the timed region, and prints one JSON line of raw results.  In
trace mode the set-up and exactly one last pass are traced, so the
per-layer totals do not depend on how many passes fit in S seconds, and
the run also measures its own tracing overhead.

Inputs come from the public API only (GaussianPoly, Poly3, sample_family)
with the scales below; family parameters are drawn from the seed within
ranges fixed in this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

OUT_DIR = Path(".perfbench-out")

# every public function the trace wraps; a name the package no longer has is
# reported as absent, with zero calls
LAYERS = (
    "grid.schatten_norm",
    "grid.fractional_shift_op",
    "group.sample_family",
    "schrodinger.rep_matrix",
    "schrodinger.fourier_coefficient",
    "schrodinger.forward_field",
    "plancherel.inverse_transform_grid",
    "plancherel.plancherel_defect",
    "plancherel.a_norm",
    "plancherel.m_norm",
    "plancherel.w_norm",
    "fusion.dual_convolution",
    "fusion.intertwiner",
    "fusion.theta1",
    "derivation.multiplier_defect",
    "derivation.boundedness_check",
    "derivation.module_norm_check",
    "liealg.find_h3",
)
# the layers every workload calls, in set-up or in its traced pass.  Only
# their metrics go into BENCHMARK.json's per-layer list: every metric of
# any other layer reads exactly 0 on some workload, so it is only printed.
EVERY_WORKLOAD = ("grid.schatten_norm", "group.sample_family", "schrodinger.forward_field")
ALLOC_LAYERS = (
    "schrodinger.forward_field",
    "plancherel.inverse_transform_grid",
    "fusion.dual_convolution",
)
NODE_COUNTERS = ("schrodinger.forward_field.nodes", "plancherel.inverse_transform_grid.nodes")
# the largest single call; the node counters are totals over calls
PER_CALL_COUNTERS = (
    "fusion.dual_convolution.pair_terms",
    "fusion.dual_convolution.distinct_ratios",
)


def lattice_pairs(k_max: int) -> list:
    """Pair terms (j, m) with j, m and j + m on the punctured lattice -K..K."""
    ks = [k for k in range(-k_max, k_max + 1) if k]
    return [(j, k - j) for k in ks for j in ks if k != j and abs(k - j) <= k_max]


def _dualconv_counts(field_f, *args, **kwargs) -> dict:
    pairs = lattice_pairs(field_f.tgrid.k_max)
    return {
        "pair_terms": len(pairs),
        "distinct_ratios": len({Fraction(m, j + m) for j, m in pairs}),
    }


COUNTERS = {
    "schrodinger.forward_field": lambda f, tgrid, *a, **k: {"nodes": tgrid.n_nodes},
    "plancherel.inverse_transform_grid": lambda F, *a, **k: {"nodes": F.tgrid.n_nodes},
    "fusion.dual_convolution": _dualconv_counts,
}


def install_tracer() -> Tracer:
    import heisenfourier
    import heisenfourier.cli  # noqa: F401  loads every module of the package

    tracer = Tracer()
    tracer.install(heisenfourier, LAYERS, COUNTERS, ALLOC_LAYERS)
    return tracer


@contextmanager
def traced(tracer: Optional[Tracer], run_id: str):
    """Trace the block's calls as run run_id, with tracemalloc on; no-op for None."""
    if tracer is None:
        yield
        return
    tracer.run_id = run_id
    tracemalloc.start()
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False
        tracemalloc.stop()


def nuclear(mats: np.ndarray) -> np.ndarray:
    """Trace norm of each matrix of a stack, from numpy's own SVD."""
    return np.array([np.linalg.norm(m, "nuc") for m in mats])


class Check:
    """One op's check.  ratio is defect / bound, None for pass-or-fail checks."""

    def __init__(self, name: str, passed: bool, value: Optional[float] = None, bound: float = 1.0):
        self.name = name
        self.ratio = None if value is None else float(value) / bound
        ok = self.ratio is None or (math.isfinite(self.ratio) and self.ratio <= 1.0)
        self.passed = bool(passed and ok)


class Workload:
    traced_pass = False

    def __init__(self, seed: int):
        self.seed = seed

    def final_checks(self) -> list:
        return []

    def op_metrics(self, ops: dict) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# transform: the large-carrier transform path with one warm plan


class Transform(Workload):
    N, HALF_WIDTH = 256, 8.0
    BOX, COUNTS = (5.2, 5.2, 3.2), (128, 384, 44)
    DELTA, K_MAX = 0.125, 32
    POOL = 3
    TOL = 1e-2
    # The constant term sets the round-trip defect, because the punctured
    # lattice drops t = 0: at 0.015 the defect is about 0.75 of TOL, at 0.03
    # it exceeds TOL.  It stays fixed; the seed varies the widths and an
    # x*z term, which is odd in z.
    SHIFT = 0.015

    def family(self, index: int):
        from heisenfourier.group import GaussianPoly, Poly3

        rng = np.random.default_rng([self.seed, index])
        sigma = (rng.uniform(0.65, 0.75), rng.uniform(0.9, 1.1), rng.uniform(0.47, 0.53))
        poly = Poly3({(0, 0, 1): 1.0, (0, 0, 0): self.SHIFT, (1, 0, 1): rng.uniform(-0.3, 0.3)})
        return GaussianPoly(poly, tuple(float(s) for s in sigma))

    def setup(self) -> None:
        from heisenfourier.field import TGrid
        from heisenfourier.grid import GridSpec1D
        from heisenfourier.group import sample_family
        from heisenfourier.schrodinger import forward_field

        self.grid = GridSpec1D(self.N, self.HALF_WIDTH)
        self.tgrid = TGrid(self.DELTA, self.K_MAX)
        self.pool = [
            sample_family(self.family(i), self.BOX, self.COUNTS, with_dz=False)
            for i in range(self.POOL)
        ]
        # builds the shared plan and warms BLAS on a two-node lattice
        forward_field(self.pool[0], TGrid(self.DELTA, 1), self.grid)

    def run_pass(self, index: int) -> dict:
        from heisenfourier.plancherel import inverse_transform_grid, plancherel_defect
        from heisenfourier.schrodinger import forward_field

        f = self.pool[index % self.POOL]
        t0 = time.perf_counter()
        field = forward_field(f, self.tgrid, self.grid)
        t1 = time.perf_counter()
        recon = inverse_transform_grid(field, self.BOX, self.COUNTS, self.grid)
        t2 = time.perf_counter()
        defect = plancherel_defect(f, self.tgrid, self.grid)
        t3 = time.perf_counter()
        self._last = (f, field, recon, defect)
        return {"forward": [t1 - t0], "inverse": [t2 - t1], "isometry": [t3 - t2]}

    def check_pass(self) -> list:
        f, field, recon, defect = self._last
        self._last = None
        cell = math.prod(2.0 * h / n for h, n in zip(self.BOX, self.COUNTS))
        mass = float(np.sum(np.abs(f.samples) ** 2)) * cell
        frob = np.linalg.norm(field.mats, axis=(1, 2)) ** 2
        lattice = float(np.sum(self.DELTA * frob / np.abs(self.tgrid.nodes)))
        own = abs(lattice - mass) / mass
        roundtrip = float(np.max(np.abs(recon - f.samples)) / np.max(np.abs(f.samples)))
        agrees = abs(defect - own) <= 1e-8 * own + 1e-14
        return [
            Check("forward_plancherel_sum", True, own, self.TOL),
            Check("inverse_roundtrip", True, roundtrip, self.TOL),
            Check("plancherel_defect", agrees, defect, self.TOL),
        ]

    def final_checks(self) -> list:
        """The fast coefficient path against the literal per-sample sum."""
        from heisenfourier.grid import GridSpec1D
        from heisenfourier.group import sample_family
        from heisenfourier.schrodinger import fourier_coefficient

        small = sample_family(self.family(0), (1.5, 1.5, 1.5), (4, 4, 4), with_dz=False)
        grid = GridSpec1D(8, 2.0)
        fast = fourier_coefficient(small, 0.75, grid, method="fast")
        direct = fourier_coefficient(small, 0.75, grid, method="direct")
        gap = float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))
        return [Check("fast_vs_direct_coefficient", True, gap, 1e-10)]

    def op_metrics(self, ops: dict) -> dict:
        nodes = self.tgrid.n_nodes
        return {
            f"{op}_nodes_per_s": [nodes / statistics.median(ops[op]), "1/s"]
            for op in ("forward", "inverse", "isometry")
        }


# ---------------------------------------------------------------------------
# dualconv: the refined dual-convolution scale


class DualConv(Workload):
    N, HALF_WIDTH = 32, 4.4
    BOX, COUNTS = (2.0, 2.9, 5.6), (22, 56, 40)
    DELTA, K_MAX = 1.0 / 16, 32
    TOL_SKIP = 1e-10
    TOL = 5e-2
    # left and right factors: widths and z frequency, each varied by the seed
    FACTORS = (((0.5, 0.8, 1.6), 0.45), ((0.55, 0.75, 1.6), 0.38))

    def family(self, index: int):
        from heisenfourier.group import GaussianPoly, Poly3

        rng = np.random.default_rng([self.seed, index])
        widths, z_freq = self.FACTORS[index]
        sigma = tuple(float(s * rng.uniform(0.95, 1.05)) for s in widths)
        return GaussianPoly(Poly3.const(1.0), sigma, z_freq=float(z_freq + rng.uniform(-0.03, 0.03)))

    def setup(self) -> None:
        from heisenfourier.field import TGrid
        from heisenfourier.fusion import dual_convolution
        from heisenfourier.grid import GridSpec1D
        from heisenfourier.group import sample_family
        from heisenfourier.schrodinger import forward_field

        self.grid = GridSpec1D(self.N, self.HALF_WIDTH)
        self.tgrid = TGrid(self.DELTA, self.K_MAX)
        self.f1, self.f2 = (sample_family(self.family(i), self.BOX, self.COUNTS) for i in (0, 1))
        self.F = forward_field(self.f1, self.tgrid, self.grid)
        self.G = forward_field(self.f2, self.tgrid, self.grid)
        # warms BLAS and the grid's shear stack on a two-node lattice
        small = TGrid(self.DELTA, 1)
        dual_convolution(
            forward_field(self.f1, small, self.grid),
            forward_field(self.f2, small, self.grid),
            self.grid,
            tol_skip=self.TOL_SKIP,
        )
        self.direct = None

    def run_pass(self, index: int) -> dict:
        from heisenfourier.fusion import dual_convolution

        t0 = time.perf_counter()
        fg = dual_convolution(self.F, self.G, self.grid, tol_skip=self.TOL_SKIP)
        t1 = time.perf_counter()
        gf = dual_convolution(self.G, self.F, self.grid, tol_skip=self.TOL_SKIP)
        t2 = time.perf_counter()
        self._last = (fg, gf)
        return {"convolve": [t1 - t0, t2 - t1]}

    def check_pass(self) -> list:
        from heisenfourier.schrodinger import forward_field

        fg, gf = self._last
        self._last = None
        if self.direct is None:
            self.direct = forward_field(self.f1 * self.f2, self.tgrid, self.grid).mats
        scale = float(np.max(nuclear(self.direct)))
        comm = float(np.sum(nuclear(fg.mats - gf.mats)) / np.sum(nuclear(fg.mats)))
        return [
            Check("product_gap_fg", True, np.max(nuclear(self.direct - fg.mats)) / scale, self.TOL),
            Check("product_gap_gf", True, np.max(nuclear(self.direct - gf.mats)) / scale, self.TOL),
            Check("commutativity", True, comm, self.TOL),
        ]

    def op_metrics(self, ops: dict) -> dict:
        return {"convolve_s": [statistics.median(ops["convolve"]), "s"]}


# ---------------------------------------------------------------------------
# suites: cold, small-scale, many-path work through the command line


class Suites(Workload):
    # suite -> number of checks its report holds
    EXPECTED = {
        "group": 5,
        "representation": 3,
        "fusion": 14,
        "derivation": 9,
        "inequalities": 4,
        "lie": 6,
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = dict(os.environ, HEISENFOURIER_SEED=str(seed))
        self.tmp = OUT_DIR / f"suites-{os.getpid()}"
        self.reports: list = []
        self.suite_s: dict = {name: [] for name in self.EXPECTED}

    def _cli(self, args, summary: Optional[Path] = None) -> tuple:
        if summary is None:
            cmd = [sys.executable, "-m", "heisenfourier.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(summary), *args]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, timeout=170)
        return done.returncode, time.perf_counter() - t0

    def setup(self) -> None:
        # the first start in a checkout also compiles the package's bytecode
        if self._cli(["--help"])[0] != 0:
            raise RuntimeError("heisenfourier.cli --help failed")

    def run_pass(self, index: int) -> dict:
        self.tmp.mkdir(parents=True, exist_ok=True)
        self._last = []
        for suite in self.EXPECTED:
            out = self.tmp / f"{suite}.jsonl"
            out.unlink(missing_ok=True)
            summary = self.tmp / f"{suite}.trace.json" if self.traced_pass else None
            code, secs = self._cli(["verify", suite, "--out", str(out)], summary)
            if summary is None:
                self.suite_s[suite].append(secs)
            self._last.append((suite, code, out, summary, index))
        return {}

    def check_pass(self) -> list:
        checks = []
        for suite, code, out, summary, index in self._last:
            expected = self.EXPECTED[suite]
            lines = [json.loads(x) for x in out.read_text().splitlines()] if out.exists() else []
            records = [r for r in lines if "check" in r]
            whole = code == 0 and lines and lines[-1].get("status") == "pass"
            if whole and len(records) == expected:
                checks.extend(self._record_check(suite, r) for r in records)
            else:
                # a failed run fails every check the suite should have made
                checks.extend(Check(f"{suite}.run", False) for _ in range(expected))
            if summary is not None and summary.exists():
                data = json.loads(summary.read_text())
                self.reports.append((f"suites:{self.seed}:pass{index}:{suite}", data))
        return checks

    @staticmethod
    def _record_check(suite: str, record: dict) -> Check:
        name = f"{suite}.{record['check']}"
        tol, value, passed = record["tol"], record["value"], record["passed"]
        # a defect check passes when value < tol; gain and witness checks pass
        # when value >= tol and have no defect ratio
        if tol is not None and tol > 0 and (value < tol) == passed:
            return Check(name, passed, value, tol)
        return Check(name, passed)

    def final_checks(self) -> list:
        if self.tmp.exists():
            for path in self.tmp.iterdir():
                path.unlink()
            self.tmp.rmdir()
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {"transform": Transform, "dualconv": DualConv, "suites": Suites}


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((x.split(":", 1)[1].strip() for x in fh if x.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
    }


def cli_startup_s() -> float:
    """Median wall time of three `python -m heisenfourier.cli --help` runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "heisenfourier.cli", "--help"],
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(reports: list, traced_wall: float) -> dict:
    """Flat per-layer metrics from one or more tracer reports."""
    layers = [r["layers"] for r in reports]
    counters = [r["counters"] for r in reports]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = sum(x.get(name, {}).get("calls", 0) for x in layers)
        out[f"{name}.self_s"] = sum(x.get(name, {}).get("self_s", 0.0) for x in layers)
    for name in ALLOC_LAYERS:
        out[f"{name}.peak_alloc_mb"] = max(
            (x.get(name, {}).get("peak_alloc_mb", 0.0) for x in layers), default=0.0
        )
    for key in NODE_COUNTERS:
        out[key] = sum(c.get(key, 0) for c in counters)
    for key in PER_CALL_COUNTERS:
        out[key] = max((r["counter_peaks"].get(key, 0) for r in reports), default=0)
    covered = sum(r["top_level_s"] for r in reports)
    out["trace.span_coverage"] = covered / traced_wall if traced_wall else 0.0
    return out


def next_pass(walls: dict, seconds: float, tracing: bool) -> Optional[bool]:
    """Whether the next pass is traced, or None when the run is over.

    Untraced passes come first, at least one, while the next one and, when
    tracing, the traced pass after it are expected to end within the timed
    seconds.  A traced run then ends with exactly one traced pass.
    """
    untraced = walls[False]
    if walls[True]:
        return None
    if not untraced:
        return False
    ahead = statistics.median(untraced) * (2 if tracing else 1)
    if sum(untraced) + ahead <= seconds:
        return False
    return True if tracing else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    tracing = args.mode == "trace"
    # the suites workload traces inside its command-line children instead
    tracer = install_tracer() if tracing and args.workload != "suites" else None
    run_prefix = f"{args.workload}:{args.seed}:"
    with traced(tracer, run_prefix + "setup"):
        wl.setup()
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    checks, ops = [], {}
    walls = {False: [], True: []}
    while (traced_pass := next_pass(walls, args.seconds, tracing)) is not None:
        index = len(walls[False])
        wl.traced_pass = traced_pass
        with traced(tracer if traced_pass else None, f"{run_prefix}pass{index}"):
            t0 = time.perf_counter()
            op_times = wl.run_pass(index)
            walls[traced_pass].append(time.perf_counter() - t0)
        if not traced_pass:
            for op, secs in op_times.items():
                ops.setdefault(op, []).extend(secs)
        checks.extend(wl.check_pass())
    checks.extend(wl.final_checks())

    ratios = [c.ratio for c in checks if c.ratio is not None]
    result = {
        "wall_s": statistics.median(walls[False]),
        "passes": len(walls[False]),
        "peak_rss_mb": wl.peak_rss_mb(),
        "op_metrics": wl.op_metrics(ops),
        "checks": len(checks),
        "failed": sorted(c.name for c in checks if not c.passed),
        "defect_ratio": max(ratios) if ratios else None,
        "environment": environment(args.seed),
    }
    if tracing:
        if tracer is not None:
            reports = [tracer.report(run_prefix + "pass")]
            spans = reports[0]["spans"]
        else:
            reports = [data for _, data in wl.reports]
            spans = [dict(s, run=run) for run, data in wl.reports for s in data["spans"]]
        traced_wall = walls[True][0]
        layers = layer_metrics(reports, traced_wall)
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        layers["cli.startup_s"] = cli_startup_s()
        if isinstance(wl, Suites):
            for suite, secs in wl.suite_s.items():
                layers[f"cli.verify.{suite}_s"] = statistics.median(secs)
        result["layers"] = layers
        result["absent"] = sorted({name for r in reports for name in r["absent"]})
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
