"""Tests of the benchmark tracer on a toy package, with a hand-driven clock."""

import json
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, covered_length  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def toy():
    """Package toypkg: core defines leaf and outer; user imports leaf by name."""
    clock = {"t": 0.0}
    pkg = types.ModuleType("toypkg")
    core = types.ModuleType("toypkg.core")
    user = types.ModuleType("toypkg.user")

    def leaf(step):
        clock["t"] += step
        return step

    def outer():
        clock["t"] += 1.0
        core.leaf(5.0)
        clock["t"] += 2.0
        core.leaf(5.0)
        clock["t"] += 3.0

    core.leaf, core.outer = leaf, outer
    user.leaf = leaf
    modules = {"toypkg": pkg, "toypkg.core": core, "toypkg.user": user}
    sys.modules.update(modules)
    yield pkg, core, user, clock
    for name in modules:
        sys.modules.pop(name, None)


def test_self_time_subtracts_children(toy):
    pkg, core, user, clock = toy
    tracer = Tracer(clock=lambda: clock["t"])
    tracer.install(pkg, ["core.outer", "core.leaf"])
    tracer.enabled = True
    core.outer()
    summary = tracer.summary()
    assert summary["core.outer"] == {"calls": 1, "self_s": 6.0}
    assert summary["core.leaf"] == {"calls": 2, "self_s": 10.0}
    outer_span = tracer.spans[0]
    assert outer_span.end - outer_span.start == 16.0
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.top_level_seconds() == 16.0


def test_names_imported_elsewhere_are_wrapped_and_counted(toy):
    pkg, core, user, clock = toy
    tracer = Tracer(clock=lambda: clock["t"])
    tracer.install(pkg, ["core.leaf"], counters={"core.leaf": lambda step: {"steps": step}})
    tracer.enabled = True
    assert user.leaf(2.0) == 2.0
    user.leaf(3.0)
    tracer.enabled = False
    user.leaf(7.0)
    assert tracer.summary() == {"core.leaf": {"calls": 2, "self_s": 5.0}}
    assert tracer.counters == {"core.leaf.steps": 5.0}
    assert tracer.counter_peaks == {"core.leaf.steps": 3.0}


def test_absent_name_is_recorded_not_raised(toy):
    pkg, core, user, clock = toy
    tracer = Tracer(clock=lambda: clock["t"])
    tracer.install(pkg, ["core.gone", "missing.fn", "core.leaf"])
    assert tracer.absent == ["core.gone", "missing.fn"]
    tracer.enabled = True
    core.outer()
    assert tracer.report()["absent"] == ["core.gone", "missing.fn"]
    assert list(tracer.summary()) == ["core.leaf"]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_alloc_peak_is_recorded_while_tracemalloc_runs(toy):
    pkg, core, user, clock = toy
    core.grow = lambda n: len(bytearray(n))
    tracer = Tracer(clock=lambda: clock["t"])
    tracer.install(pkg, ["core.grow"], alloc=["core.grow"])
    tracer.enabled = True
    core.grow(1 << 20)
    assert "peak_alloc_mb" not in tracer.summary()["core.grow"]
    tracemalloc.start()
    try:
        core.grow(4 << 20)
    finally:
        tracemalloc.stop()
    assert 4.0 <= tracer.summary()["core.grow"]["peak_alloc_mb"] < 4.5


@pytest.mark.parametrize("pass_s", [0.5, 8.0, 10.6, 17.0, 40.0])
def test_a_traced_run_ends_with_exactly_one_traced_pass(pass_s):
    """However long a pass takes, so per-layer totals do not depend on speed."""
    from workloads import next_pass

    for tracing in (False, True):
        walls = {False: [], True: []}
        while (traced_pass := next_pass(walls, 35.0, tracing)) is not None:
            walls[traced_pass].append(pass_s)
        assert len(walls[True]) == int(tracing)
        assert len(walls[False]) == max(1, int(35.0 // pass_s) - int(tracing))


def test_benchmark_file_lists_the_layer_metrics_every_workload_measures():
    from workloads import ALLOC_LAYERS, EVERY_WORKLOAD, NODE_COUNTERS, PER_CALL_COUNTERS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    expected = {f"{n}.{k}" for n in EVERY_WORKLOAD for k in ("calls", "self_s")}
    expected |= {f"{n}.peak_alloc_mb" for n in ALLOC_LAYERS if n in EVERY_WORKLOAD}
    expected |= {
        key for key in NODE_COUNTERS + PER_CALL_COUNTERS if key.rpartition(".")[0] in EVERY_WORKLOAD
    }
    expected |= {"cli.startup_s", "trace.span_coverage", "trace.overhead_s"}
    assert names == expected
