import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heisenfourier import fusion, split
from heisenfourier.cli import LADDERS, _FUSION_RATIOS, _RESIDUAL_PAIRS
from heisenfourier.field import OperatorField, TGrid
from heisenfourier.fusion import (
    _dense_w,
    _exact_ratio,
    _theta_term,
    dual_convolution,
    intertwiner,
    partial_trace_second,
    theta1,
)
from heisenfourier.grid import GridSpec1D, schatten_norm
from heisenfourier.group import GaussianPoly, Poly3, sample_family
from heisenfourier.schrodinger import forward_field

RNG = np.random.default_rng(2048)

DC_LEFT = GaussianPoly(Poly3.const(1.0), (0.5, 0.8, 1.6), z_freq=0.45)
DC_RIGHT = GaussianPoly(Poly3.const(1.0), (0.55, 0.75, 1.6), z_freq=0.38)
DC_BOX = (2.0, 2.9, 5.6)
DC_COUNTS = (22, 42, 40)


def _unit(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a / np.linalg.norm(a)


def test_exact_ratio_is_rational():
    assert _exact_ratio(0.25, 0.125) == Fraction(1, 3)
    assert _exact_ratio(0.375, -0.0625) == Fraction(-0.0625) / Fraction(0.3125)
    assert _exact_ratio(1.0, 1.0) == Fraction(1, 2)


@pytest.mark.parametrize("r, s", _FUSION_RATIOS + _RESIDUAL_PAIRS + ((0.25, -0.375),))
@pytest.mark.parametrize("n", [8, 16, 32])
def test_intertwiner_equals_the_dense_product(n, r, s):
    assert _intertwiner_gap(n, r, s, np.random.default_rng(n)) < 1e-13


def _intertwiner_gap(n, r, s, rng):
    """max |W v - dense W v| / max |dense W v| for a random v at half-width 4."""
    grid = GridSpec1D(n, 4.0)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = (_dense_w(_exact_ratio(r, s), grid) @ v.ravel()).reshape(n, n)
    return np.max(np.abs(intertwiner(r, s, grid, v) - dense)) / np.max(np.abs(dense))


# k / 2**p, k nonzero: r + s is exact, and zero only when s == -r
DYADIC = st.builds(lambda k, p: k / 2**p, st.integers(-64, 64).filter(bool), st.integers(0, 6))


@settings(max_examples=40)
@given(n=st.sampled_from([8, 16]), r=DYADIC, s=DYADIC, seed=st.integers(0, 2**32 - 1))
def test_intertwiner_equals_the_dense_product_for_dyadic_pairs(n, r, s, seed):
    assume(r + s != 0)
    assert _intertwiner_gap(n, r, s, np.random.default_rng(seed)) < 1e-13


def test_the_fusion_ladders_largest_grid_passes_the_phase_overflow_check():
    grid = LADDERS["fusion"].scales[-1]
    assert grid.n_points == 1024
    # the suite's largest shift: ratio -1 moves by up to the half-width
    assert abs(np.linalg.norm(intertwiner(2.0, -1.0, grid, _unit(1024))) - 1.0) < 1e-12


def test_intertwiner_rejects_degenerate_pairs():
    grid = GridSpec1D(16, 4.0)
    v = np.eye(16)
    for r, s in ((0.25, -0.25), (0.0, 0.25), (0.25, 0.0), (math.nan, 0.25)):
        with pytest.raises(ValueError):
            intertwiner(r, s, grid, v)
    with pytest.raises(ValueError):
        intertwiner(0.25, 0.25, grid, np.eye(8))


# the suite's ratios c = s/(r+s) are 1/2, -1/2 and -1; (0.25, 0.125) gives
# 1/3 and (0.25, -0.375), with r + s < 0, gives 3.  (0.375, 0.125) gives 1/4
# and (0.125, -0.375) 3/2: c * delta is an integer for some frequency gaps
# delta, where the Dirichlet weight K_c peaks exactly at a node.
# (-0.5, 0.125) gives -1/3, a c < 0 that is not a half-integer
@pytest.mark.parametrize(
    "r, s",
    _FUSION_RATIOS
    + ((0.25, 0.125), (0.25, -0.375), (0.375, 0.125), (0.125, -0.375), (-0.5, 0.125)),
)
# the theta term does not depend on the half-width (the test below), so
# N = 32 runs at one of them
@pytest.mark.parametrize("n, half_width", [(8, 3.0), (8, 4.0), (16, 3.0), (16, 4.0), (32, 4.0)])
def test_theta_term_equals_literal_partial_trace(n, half_width, r, s):
    grid = GridSpec1D(n, half_width)
    a, b = _unit(n), _unit(n)
    ratio = _exact_ratio(r, s)
    w = _dense_w(ratio, grid)
    wh = w.conj().T
    big = w @ np.kron(a, b) @ wh
    literal = partial_trace_second(big, n)
    fused = _theta_term(ratio, grid, a, b)
    assert np.max(np.abs(fused - literal)) < 1e-12
    # the contraction is trace preserving and trace-norm contractive; W is
    # unitary, so ||big||_1 = ||a||_1 ||b||_1 without an SVD of big
    assert abs(np.trace(literal) - np.trace(a) * np.trace(b)) < 1e-12
    assert np.max(np.abs(wh @ w - np.eye(n * n))) < 1e-12
    assert schatten_norm(literal, 1) <= schatten_norm(a, 1) * schatten_norm(b, 1) + 1e-9


@pytest.mark.parametrize("ratio", [Fraction(1, 3), Fraction(3, 2), Fraction(-1, 2)])
def test_theta_term_does_not_depend_on_the_half_width(ratio):
    """The shear phases meet only in products phi_n(u) conj(phi_n(v)), whose
    angle 2 pi c (k_u - k_v) (n - N/2) / N has no half-width in it; so the
    literal W, the oracle, agrees across half-widths up to roundoff."""
    for n in (16, 32):
        a, b = _unit(n), _unit(n)
        narrow = _theta_term(ratio, GridSpec1D(n, 3.0), a, b)
        wide = _theta_term(ratio, GridSpec1D(n, 4.0), a, b)
        assert np.array_equal(narrow, wide)
        gap = _dense_w(ratio, GridSpec1D(n, 3.0)) - _dense_w(ratio, GridSpec1D(n, 4.0))
        assert np.max(np.abs(gap)) < 1e-13


def test_partial_trace_adjoint_identity():
    n = 8
    grid = GridSpec1D(n, 3.0)
    a, b, c = _unit(n), _unit(n), _unit(n)
    w = _dense_w(_exact_ratio(0.125, 0.25), grid)
    big = w @ np.kron(a, b) @ w.conj().T
    reduced = partial_trace_second(big, n)
    lhs = np.trace(c @ reduced)
    rhs = np.trace(np.kron(c, np.eye(n)) @ big)
    assert abs(lhs - rhs) < 1e-10


def test_composed_action_matches_analytic_kernel():
    """W applied to a separable Gaussian reproduces the composed two-point
    kernel f(u - k/2) g(u + k/2) for the balanced ratio."""
    n = 16
    grid = GridSpec1D(n, 6.25)
    w = _dense_w(_exact_ratio(1.0, 1.0), grid)
    u = grid.nodes
    fvec = np.outer(
        np.exp(-(u**2) / (2 * 1.2**2)), np.exp(-(u**2) / (2 * 1.2**2))
    )
    scale = np.linalg.norm(fvec.ravel())
    uu, kk = u[:, None], u[None, :]
    comp = np.exp(-((uu - 0.5 * kk) ** 2) / (2 * 1.2**2)) * np.exp(
        -((uu + 0.5 * kk) ** 2) / (2 * 1.2**2)
    )
    got = (w @ fvec.ravel()).reshape(n, n)
    assert np.max(np.abs(got - comp)) / scale < 1e-3


def _dc_fields():
    grid = GridSpec1D(16, 2.2)
    tg = TGrid(0.125, 16)
    f1 = sample_family(DC_LEFT, DC_BOX, DC_COUNTS)
    f2 = sample_family(DC_RIGHT, DC_BOX, DC_COUNTS)
    return forward_field(f1, tg, grid), forward_field(f2, tg, grid), grid, tg


def test_theta1_zero_paths():
    F, G, grid, tg = _dc_fields()
    zero = np.zeros((16, 16))
    # r + s = 0 is outside the fusion domain
    assert np.array_equal(theta1(F, G, 2, -2, grid), zero)
    # the unstored node 0 and nodes beyond the stored range contribute nothing
    for j, m in ((0, 3), (3, 0), (17, 1), (1, -17), (128, 1)):
        assert np.array_equal(theta1(F, G, j, m, grid), zero)
    live = theta1(F, G, 3, 2, grid)
    assert schatten_norm(live, 1) > 0.0


@pytest.mark.parametrize(
    "j, m, name",
    [(3.0, 2, "j"), (np.float64(3.0), 2, "j"), (True, 2, "j"), (3, 0.25, "m"), (3, np.bool_(True), "m")],
)
def test_theta1_takes_integer_indices_only(j, m, name):
    F, G, grid, tg = _dc_fields()
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        theta1(F, G, j, m, grid)


def test_theta1_is_the_theta_term_of_its_node_pair():
    """Every pair of stored nodes with j + m != 0, bit for bit, read by position."""
    F, G, grid, tg = _dc_fields()
    for pos_j, j in enumerate(tg.ks):
        for pos_m, m in enumerate(tg.ks):
            if j + m == 0:
                continue
            want = _theta_term(Fraction(m, j + m), grid, F.mats[pos_j], G.mats[pos_m])
            assert np.array_equal(theta1(F, G, j, m, grid), want)
    assert np.array_equal(theta1(F, G, np.int64(-5), np.int32(7), grid), theta1(F, G, -5, 7, grid))


def test_theta1_trace_norm_bound():
    F, G, grid, tg = _dc_fields()
    for j, m in ((3, 3), (4, 2), (-2, 4)):
        term = theta1(F, G, j, m, grid)
        lhs = schatten_norm(term, 1)
        rhs = schatten_norm(F.at_k(j), 1) * schatten_norm(G.at_k(m), 1)
        assert lhs <= rhs + 1e-9


def test_dual_convolution_theta_bounds_majorize():
    F, G, grid, tg = _dc_fields()
    FG, bounds = dual_convolution(F, G, grid, with_theta_bounds=True)
    for pos, k in enumerate(tg.ks):
        assert schatten_norm(FG.at_k(k), 1) <= bounds[pos] + 1e-9


def test_dual_convolution_skip_mass_is_bounded():
    from heisenfourier.plancherel import a_norm

    F, G, grid, tg = _dc_fields()
    exact = dual_convolution(F, G, grid)
    skipped = dual_convolution(F, G, grid, tol_skip=1e-3)
    budget = 1e-3 * a_norm(F) * a_norm(G) / tg.delta
    for pos in range(tg.n_nodes):
        gap = schatten_norm(exact.mats[pos] - skipped.mats[pos], 1)
        assert gap <= budget
    with pytest.raises(ValueError):
        dual_convolution(F, G, grid, tol_skip=-1.0)


def test_dual_convolution_takes_no_svd_at_tol_skip_zero(monkeypatch):
    """tol_skip = 0 keeps every term, so it takes none of the trace norms
    behind the cut."""
    F, G, grid, tg = _dc_fields()
    want = dual_convolution(F, G, grid)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD taken at tol_skip = 0")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert np.array_equal(dual_convolution(F, G, grid, tol_skip=0.0).mats, want.mats)
    with pytest.raises(AssertionError, match="SVD taken"):
        dual_convolution(F, G, grid, tol_skip=1e-10)


def _rank_one_field(tg, n, scales, rng):
    """Positive rank-one nodes v v*, |v| = 1, scaled so node i has trace norm scales[i]."""
    mats = []
    for scale in scales:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        mats.append(scale * np.outer(v, v.conj()))
    return OperatorField(tg, np.array(mats))


@pytest.mark.parametrize(
    "k_max, tol, old_excess", [(4, 1e-3, 3.9), (8, 1e-3, 6.3), (8, 1e-6, 13.3)]
)
def test_dual_convolution_skip_mass_is_bounded_per_pair_term(k_max, tol, old_excess):
    """Each skipped term is at most tol * max||F||_1 * max||G||_1, and a node
    has up to n_k of them.  Here every product of two small nodes is skipped
    and the terms are positive, so they add up without cancelling: the node
    gap reaches several times tol * a_norm(F) * a_norm(G) / Delta, and stays
    below n_k times it."""
    from heisenfourier.plancherel import a_norm

    n = 8
    grid = GridSpec1D(n, 3.0)
    tg = TGrid(0.25, k_max)
    rng = np.random.default_rng(k_max)
    scales = [1.0] + [0.99 * math.sqrt(tol)] * (tg.n_nodes - 1)
    F = _rank_one_field(tg, n, scales, rng)
    G = _rank_one_field(tg, n, scales, rng)
    exact = dual_convolution(F, G, grid)
    skipped = dual_convolution(F, G, grid, tol_skip=tol)
    budget = tol * a_norm(F) * a_norm(G) / tg.delta
    worst = 0.0
    for pos_k, k in enumerate(tg.ks):
        n_k = sum(tg.index_of(k - j) is not None for j in tg.ks)
        gap = schatten_norm(exact.mats[pos_k] - skipped.mats[pos_k], 1)
        assert gap <= n_k * budget
        worst = max(worst, gap / budget)
    assert worst > old_excess


def test_dual_convolution_equals_the_literal_pair_sum():
    n = 8
    grid = GridSpec1D(n, 3.0)
    tg = TGrid(0.25, 2)
    F = OperatorField(tg, np.array([_unit(n) for _ in tg.ks]))
    G = OperatorField(tg, np.array([_unit(n) for _ in tg.ks]))
    fused = dual_convolution(F, G, grid)
    for k in tg.ks:
        literal = np.zeros((n, n), dtype=complex)
        for j in tg.ks:
            m = k - j
            if tg.index_of(m) is None:
                continue
            w = _dense_w(Fraction(m, k), grid)
            big = w @ np.kron(F.at_k(j), G.at_k(m)) @ w.conj().T
            literal += tg.delta * partial_trace_second(big, n)
        assert np.max(np.abs(fused.at_k(k) - literal)) < 1e-12


@pytest.mark.parametrize("tol_skip", [0.0, 1e-3])
def test_dual_convolution_equals_the_per_term_sum(tol_skip):
    """The buffered lattice loop against a plain sum of fresh _theta_term calls."""
    F, G, grid, tg = _dc_fields()
    fused, bounds = dual_convolution(
        F, G, grid, tol_skip=tol_skip, with_theta_bounds=True
    )
    plain = dual_convolution(F, G, grid, tol_skip=tol_skip)
    tn_f = [schatten_norm(m, 1) for m in F.mats]
    tn_g = [schatten_norm(m, 1) for m in G.mats]
    cut = tol_skip * max(tn_f) * max(tn_g)
    kept = skipped = 0
    scale = np.max(np.abs(fused.mats))
    for pos_k, k in enumerate(tg.ks):
        want = np.zeros((grid.n_points, grid.n_points), dtype=complex)
        bound = 0.0
        for pos_j, j in enumerate(tg.ks):
            pos_m = tg.index_of(k - j)
            if pos_m is None:
                continue
            if tn_f[pos_j] * tn_g[pos_m] <= cut:
                skipped += 1
                continue
            kept += 1
            term = tg.delta * _theta_term(
                Fraction(k - j, k), grid, F.mats[pos_j], G.mats[pos_m]
            )
            want += term
            bound += schatten_norm(term, 1)
        assert np.max(np.abs(fused.mats[pos_k] - want)) < 1e-13 * scale
        assert abs(bounds[pos_k] - bound) <= 1e-12 * bound
    assert np.array_equal(plain.mats, fused.mats)
    # at 1e-3 some terms are skipped, so the comparison covers the skip rule
    assert kept > 0 and (skipped > 0) == (tol_skip > 0)


def _per_term_sum(F, G, grid, tol_skip):
    """Field and bounds as the plain lattice-order sum of fresh _theta_term calls."""
    tg = F.tgrid
    n = grid.n_points
    tn_f = [schatten_norm(m, 1) for m in F.mats]
    tn_g = [schatten_norm(m, 1) for m in G.mats]
    cut = tol_skip * max(tn_f) * max(tn_g)
    mats = np.zeros((tg.n_nodes, n, n), dtype=complex)
    bounds = np.zeros(tg.n_nodes)
    for pos_k, k in enumerate(tg.ks):
        for pos_j, j in enumerate(tg.ks):
            pos_m = tg.index_of(k - j)
            if pos_m is None or tol_skip > 0 and tn_f[pos_j] * tn_g[pos_m] <= cut:
                continue
            term = tg.delta * _theta_term(
                Fraction(k - j, k), grid, F.mats[pos_j], G.mats[pos_m]
            )
            mats[pos_k] += term
            bounds[pos_k] += schatten_norm(term, 1)
    return mats, bounds


# node scales 1, 1e-3 and 0, and tol_skip 1e-2: the trace-norm products of
# nonzero nodes sit near 100, 0.1 or 1e-4 times the cut, never at it.  A
# field takes the first 2 k_max scales of its list.
_SCALES = st.lists(st.sampled_from([0.0, 1e-3, 1.0]), min_size=8, max_size=8)


@settings(max_examples=30)
@given(
    n=st.sampled_from([8, 16]),
    k_max=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scales_f=_SCALES,
    scales_g=_SCALES,
    tol_skip=st.sampled_from([0.0, 1e-2]),
)
@example(
    n=8, k_max=3, seed=0, scales_f=[1.0, 1e-3, 0.0] * 3, scales_g=[1e-3, 1.0] * 4, tol_skip=1e-2
)
@example(
    n=16, k_max=4, seed=1, scales_f=[1.0] * 8, scales_g=[0.0, 1e-3, 1.0, 1.0] * 2, tol_skip=0.0
)
def test_dual_convolution_equals_the_per_term_sum_for_any_fields(
    n, k_max, seed, scales_f, scales_g, tol_skip
):
    tg = TGrid(0.25, k_max)
    grid = GridSpec1D(n, 3.0)
    rng = np.random.default_rng(seed)
    F, G = (
        OperatorField(tg, [scale * _unit(n, rng) for scale in scales[: tg.n_nodes]])
        for scales in (scales_f, scales_g)
    )
    want, want_bounds = _per_term_sum(F, G, grid, tol_skip)
    fused, bounds = dual_convolution(F, G, grid, tol_skip=tol_skip, with_theta_bounds=True)
    plain = dual_convolution(F, G, grid, tol_skip=tol_skip)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(fused.mats - want)) <= 1e-13 * scale
    assert np.all(np.abs(bounds - want_bounds) <= 1e-13 * want_bounds)
    assert np.array_equal(plain.mats, fused.mats)


def test_dual_convolution_results_share_no_buffer():
    F, G, grid, tg = _dc_fields()
    f_mats, g_mats = F.mats.copy(), G.mats.copy()
    first, first_bounds = dual_convolution(F, G, grid, with_theta_bounds=True)
    second, second_bounds = dual_convolution(F, G, grid, with_theta_bounds=True)
    assert np.array_equal(first.mats, second.mats)
    assert np.array_equal(first_bounds, second_bounds)
    assert not np.shares_memory(first.mats, second.mats)
    assert not np.shares_memory(first_bounds, second_bounds)
    for out in (first.mats, second.mats):
        assert not np.shares_memory(out, F.mats)
        assert not np.shares_memory(out, G.mats)
    assert np.array_equal(F.mats, f_mats) and np.array_equal(G.mats, g_mats)


@pytest.mark.parametrize("tol_skip", [0.0, 1e-3])
def test_dual_convolution_bits_do_not_depend_on_the_worker_count(monkeypatch, tol_skip):
    F, G, grid, tg = _dc_fields()
    runs = []
    # a short switch interval interleaves the workers finely, so a lost
    # update to a shared row would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(split, "_worker_count", lambda n_items, w=workers: w)
            field, bounds = dual_convolution(
                F, G, grid, tol_skip=tol_skip, with_theta_bounds=True
            )
            runs.append((field.mats, bounds))
    finally:
        sys.setswitchinterval(interval)
    (mats, bounds), rest = runs[0], runs[1:]
    for other_mats, other_bounds in rest:
        assert np.array_equal(other_mats, mats)
        assert np.array_equal(other_bounds, bounds)


@pytest.mark.parametrize("n", [8, 32])
def test_theta_kernel_weights_are_the_literal_dirichlet_sums(n):
    """weights(c) writes W[e, j, d] = K_c(d - c delta_j), delta_0 = -e and
    delta_1 = N - e, with K_c(x) = (1/N) sum_t exp(2 pi i t x / N) over t
    = -N/2 .. N/2 - 1, for ratios built one after another on one kernel,
    and leaves the constant dft table as __init__ set it."""
    kernel = fusion._ThetaKernel(n)
    dft = kernel.dft.copy()
    t = np.arange(-(n // 2), n // 2)
    e, d = np.arange(n)[:, None], np.arange(n)[None, :]
    for c in (1 / 3, -1 / 2, 3 / 2, 17 / 31, -5 / 7):
        kernel.weights(c)
        for j, delta in enumerate((-e, n - e)):
            x = d - c * delta
            literal = np.mean(np.exp(2j * np.pi * t * x[..., None] / n), axis=-1)
            assert np.max(np.abs(kernel.w[:, j, :] - literal)) < 1e-13
        assert np.array_equal(kernel.dft, dft)


@pytest.mark.parametrize("tol_skip", [0.0, 1e-3])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_dual_convolution_builds_each_ratio_once_per_worker(monkeypatch, workers, tol_skip):
    F, G, grid, tg = _dc_fields()
    weights, run_split = fusion._ThetaKernel.weights, fusion.run_split
    builds, owned = {}, {}
    # a worker is keyed by its share, not by its thread's ident: a thread
    # that finishes before the next one starts may hand its ident on
    local = threading.local()

    def counted_weights(self, c):
        builds[local.worker] = builds.get(local.worker, 0) + 1
        return weights(self, c)

    def recorded_split(items, work, scratch):
        def recorded_work(share, *args):
            local.worker = id(share)
            owned[local.worker] = {tg.ks[pos] for pair in share for pos in pair}
            return work(share, *args)

        return run_split(items, recorded_work, scratch)

    monkeypatch.setattr(split, "_worker_count", lambda n_items: workers)
    monkeypatch.setattr(fusion._ThetaKernel, "weights", counted_weights)
    monkeypatch.setattr(fusion, "run_split", recorded_split)
    dual_convolution(F, G, grid, tol_skip=tol_skip)
    tn_f = [schatten_norm(m, 1) for m in F.mats]
    tn_g = [schatten_norm(m, 1) for m in G.mats]
    cut = tol_skip * max(tn_f) * max(tn_g)
    ratios = {}
    for pos_j, j in enumerate(tg.ks):
        for pos_m, m in enumerate(tg.ks):
            if tg.index_of(j + m) is not None and tn_f[pos_j] * tn_g[pos_m] > cut:
                ratios.setdefault(j + m, set()).add(Fraction(m, j + m))
    assert len(owned) == workers and builds.keys() <= owned.keys()
    assert sorted(k for ks in owned.values() for k in ks) == sorted(tg.ks)
    for me, ks in owned.items():
        # k and -k always share a worker
        assert ks == {-k for k in ks}
        assert builds.get(me, 0) == len(set().union(*(ratios.get(k, set()) for k in ks)))
    if workers == 1 and tol_skip == 0.0:
        lattice = {
            Fraction(m, j + m) for j in tg.ks for m in tg.ks if tg.index_of(j + m) is not None
        }
        assert sum(builds.values()) == len(lattice)


def test_dual_convolution_raises_a_worker_error_after_every_worker_stops(monkeypatch):
    F, G, grid, tg = _dc_fields()
    caller = threading.current_thread()
    term = fusion._ThetaKernel.term

    def term_failing_off_the_caller(*args):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        return term(*args)

    monkeypatch.setattr(split, "_worker_count", lambda n_items: 2)
    monkeypatch.setattr(fusion._ThetaKernel, "term", term_failing_off_the_caller)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="worker failed"):
        dual_convolution(F, G, grid)
    assert set(threading.enumerate()) == before


def test_worker_count_is_capped_at_the_node_count(monkeypatch):
    # the dual convolution's split is the shared helper's
    assert fusion.run_split is split.run_split
    assert split._worker_count(1) == 1
    assert 1 <= split._worker_count(4096) <= (os.cpu_count() or 1)
    # without sched_getaffinity the count falls back to os.cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert split._worker_count(64) == 3
    assert split._worker_count(2) == 2


def test_dual_convolution_checks_lattice_compatibility():
    F, G, grid, tg = _dc_fields()
    other = OperatorField(TGrid(0.25, 16), np.zeros((32, 16, 16)))
    with pytest.raises(ValueError):
        dual_convolution(F, other, grid)
