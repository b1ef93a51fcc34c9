import os
import sys
import threading

import numpy as np
import pytest

from heisenfourier import schrodinger, split
from heisenfourier.derivation import derivation_nodes
from heisenfourier.field import TGrid
from heisenfourier.grid import GridSpec1D
from heisenfourier.group import GaussianPoly, Poly3, sample_family
from heisenfourier.plancherel import (
    adjoint_pairing_sides,
    inverse_transform_grid,
    plancherel_defect,
)
from heisenfourier.schrodinger import forward_field

F_ODD = GaussianPoly(Poly3({(0, 0, 1): 1.0, (1, 0, 1): 0.2}), (0.6, 0.6, 0.5))
G_PAIR = GaussianPoly(Poly3({(0, 0, 0): 1.0, (0, 1, 0): 0.3}), (0.7, 0.8, 0.6))
BOX = (5.0, 5.0, 4.0)
COUNTS = (24, 28, 32)
# y count 2 * 13: the coarse and fine split of the P table's y axis has
# steps of 2 (COUNTS' 28 splits by 4)
COUNTS_2P = (24, 26, 32)
GRID = GridSpec1D(32, 3.2)
# five |t| groups: uneven shares for two and three workers
TG = TGrid(0.25, 5)


def _transform_results(counts):
    f = sample_family(F_ODD, BOX, counts)
    g = sample_family(G_PAIR, BOX, counts)
    field = forward_field(f, TG, GRID)
    return {
        "forward": field.mats,
        "inverse": inverse_transform_grid(field, BOX, counts, GRID),
        "defect": plancherel_defect(f, TG, GRID),
        "pairing": adjoint_pairing_sides(g, field, GRID),
        "derivation": derivation_nodes(f, TG, GRID),
    }


def test_transform_bits_do_not_depend_on_the_worker_count(monkeypatch):
    runs = {counts: [] for counts in (COUNTS, COUNTS_2P)}
    # a short switch interval interleaves the workers finely, so a write
    # to another node's slot would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for counts, box_runs in runs.items():
            for workers in (1, 2, 3):
                monkeypatch.setattr(split, "_worker_count", lambda n_items, w=workers: w)
                box_runs.append(_transform_results(counts))
    finally:
        sys.setswitchinterval(interval)
    for serial, *rest in runs.values():
        for other in rest:
            assert np.array_equal(other["forward"], serial["forward"])
            assert np.array_equal(other["inverse"], serial["inverse"])
            assert other["defect"] == serial["defect"]
            assert other["pairing"][0] == serial["pairing"][0]
            assert other["pairing"][1] == serial["pairing"][1]
            for mine, want in zip(other["derivation"], serial["derivation"]):
                assert np.array_equal(mine, want)


def test_a_transform_raises_a_worker_error_after_every_worker_stops(monkeypatch):
    f = sample_family(F_ODD, BOX, COUNTS)
    field = forward_field(f, TG, GRID)
    caller = threading.current_thread()
    phase_tables = schrodinger._phase_tables

    def failing_off_the_caller(t, *tables):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        phase_tables(t, *tables)

    monkeypatch.setattr(split, "_worker_count", lambda n_items: 2)
    monkeypatch.setattr(schrodinger, "_phase_tables", failing_off_the_caller)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="worker failed"):
        forward_field(f, TG, GRID)
    assert set(threading.enumerate()) == before
    with pytest.raises(RuntimeError, match="worker failed"):
        inverse_transform_grid(field, BOX, COUNTS, GRID)
    with pytest.raises(RuntimeError, match="worker failed"):
        derivation_nodes(f, TG, GRID)
    assert set(threading.enumerate()) == before


def test_a_one_group_transform_starts_no_thread(monkeypatch):
    f = sample_family(F_ODD, BOX, COUNTS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    started = []
    start = threading.Thread.start

    def counted_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    field = forward_field(f, TGrid(0.125, 1), GRID)
    inverse_transform_grid(field, BOX, COUNTS, GRID)
    assert started == []
    forward_field(f, TGrid(0.125, 2), GRID)
    assert len(started) == 1


def test_derivation_builds_each_phase_table_pair_once(monkeypatch):
    f = sample_family(F_ODD, BOX, COUNTS)
    calls = []
    phase_tables = schrodinger._phase_tables

    def counted(t, *tables):
        calls.append(t)
        phase_tables(t, *tables)

    monkeypatch.setattr(schrodinger, "_phase_tables", counted)
    derivation_nodes(f, TG, GRID)
    # at each |t| group's first node, which is -|t| in lattice order
    assert sorted(calls) == sorted(set(-np.abs(TG.nodes)))


def test_transform_scratch_is_the_table_pair_and_the_node_buffers(monkeypatch):
    """A worker's scratch is P, E and what each node writes; the
    exponentials that build a |t| group's tables are temporaries."""
    f = sample_family(F_ODD, BOX, COUNTS)
    nx, ny, _ = COUNTS
    n = GRID.n_points
    run_split = schrodinger.run_split
    handed = []

    def recorded(items, work, scratch):
        handed.append([(a.shape, a.dtype) for a in scratch()])
        return run_split(items, work, scratch)

    monkeypatch.setattr(schrodinger, "run_split", recorded)
    field = forward_field(f, TG, GRID)
    inverse_transform_grid(field, BOX, COUNTS, GRID)
    tables = [(nx, ny), (ny, n)]
    forward = tables + [(nx, ny), (n, n), (nx, n)]  # XY, S, A
    inverse = tables + [(n, n), (nx, n)]  # G, D
    assert handed == [[(sh, np.dtype(complex)) for sh in want] for want in (forward, inverse)]


def test_run_split_deals_round_robin_with_scratch_from_the_caller(monkeypatch):
    monkeypatch.setattr(split, "_worker_count", lambda n_items: 3)
    caller = threading.current_thread()
    made_by, seen = [], {}

    def scratch():
        made_by.append(threading.current_thread())
        return (len(made_by),)

    def work(share, tag):
        seen[tag] = (share, threading.current_thread() is caller)

    split.run_split(range(7), work, scratch)
    assert made_by == [caller] * 3
    assert seen == {1: ([0, 3, 6], True), 2: ([1, 4], False), 3: ([2, 5], False)}


def test_run_split_runs_an_empty_list_once_on_the_caller():
    shares = []
    split.run_split([], lambda share: shares.append((share, threading.current_thread())), tuple)
    assert shares == [([], threading.current_thread())]
