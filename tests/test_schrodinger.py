import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisenfourier.cli import SCALES
from heisenfourier.field import OperatorField, TGrid
from heisenfourier.grid import GridSpec1D, circulant_view, schatten_norm, shift_kernel
from heisenfourier.group import (
    GaussianPoly,
    GroupElement,
    Poly3,
    SampledFunction3D,
    box_axes,
    mul,
    sample_family,
)
from heisenfourier.schrodinger import (
    _box_tables,
    _check_phases,
    _coefficient_direct,
    _phase_tables,
    _z_sums,
    forward_field,
    fourier_coefficient,
    inverse_transform_grid,
    node_terms,
    rep_matrix,
)

RNG = np.random.default_rng(515)

CANON = GaussianPoly(Poly3({(0, 0, 1): 1.0, (0, 0, 0): 0.015}), (0.7, 1.0, 0.5))
BOX = (5.2, 5.2, 3.2)


def test_rep_rejects_zero_and_nonfinite_t():
    grid = GridSpec1D(8, 2.0)
    g = GroupElement(0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        rep_matrix(0.0, g, grid)
    with pytest.raises(ValueError):
        rep_matrix(math.inf, g, grid)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rep_rejects_nonfinite_coordinates(axis, bad):
    coords = [0.1, 0.2, 0.3]
    coords[axis] = bad
    with pytest.raises(ValueError, match="coordinates must be finite"):
        rep_matrix(0.5, GroupElement(*coords), GridSpec1D(8, 2.0))


@pytest.mark.parametrize(
    "t, g, phase",
    [
        (1e300, (0.0, 1e10, 0.0), "modulation"),
        (1e200, (0.0, 1e200, 0.0), "modulation"),
        (1e300, (0.0, 0.0, 1e10), "central"),
        (1e300, (1e10, 1.0, 0.0), "central"),
    ],
)
def test_rep_refuses_phases_that_overflow_before_numpy_warns(t, g, phase):
    """t*y overflowed the modulation, and numpy gave a NaN matrix with only
    a RuntimeWarning; 2*pi*t*z overflowed the central phase, and cmath
    raised a bare "math domain error"."""
    grid = GridSpec1D(8, 2.0)
    names_both = re.escape(f"t = {t!r} and {g!r} overflow the {phase}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=names_both):
            rep_matrix(t, GroupElement(*g), grid)
        # with t 1e120 times smaller every argument is a large finite float
        assert np.all(np.isfinite(rep_matrix(t * 1e-120, GroupElement(*g), grid)))


def test_rep_checks_numpy_scalar_inputs_in_python_floats():
    """_coefficient_direct and plancherel.inverse_transform pass numpy
    scalars, whose products overflowed in numpy with a RuntimeWarning
    before the check could raise; the matrix does not change."""
    grid = GridSpec1D(8, 2.0)
    g = (np.float64(-1.125),) * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (1e308, np.float64(1e308)):
            with pytest.raises(ValueError, match=re.escape("(-1.125, -1.125, -1.125) overflow")):
                rep_matrix(t, g, grid)
    g = GroupElement(*(np.float64(c) for c in (0.3, -0.7, 0.45)))
    assert np.array_equal(rep_matrix(np.float64(0.625), g, grid), rep_matrix(0.625, g, grid))
    assert np.array_equal(rep_matrix(0.625, g, grid), rep_matrix(0.625, (0.3, -0.7, 0.45), grid))


def test_rep_central_elements_are_phases():
    grid = GridSpec1D(16, 3.0)
    t, c = 0.75, -1.3
    m = rep_matrix(t, GroupElement(0.0, 0.0, c), grid)
    want = np.exp(2j * np.pi * t * c) * np.eye(16)
    assert np.max(np.abs(m - want)) < 1e-15


def test_rep_factors_into_shift_and_modulation():
    grid = GridSpec1D(16, 3.0)
    t = -0.625
    x, y = 0.37, -0.82
    m_shift = rep_matrix(t, GroupElement(x, 0.0, 0.0), grid)
    assert np.max(np.abs(m_shift - circulant_view(shift_kernel(grid, x)))) < 1e-14
    m_mod = rep_matrix(t, GroupElement(0.0, y, 0.0), grid)
    modulation = np.diag(np.exp(-2j * np.pi * t * y * grid.nodes))
    assert np.max(np.abs(m_mod - modulation)) < 1e-14


@pytest.mark.parametrize("n", [16, 128, 512])
@pytest.mark.parametrize("t, g", [(0.5, (0.37, -0.82, 1.1)), (-1.25, (-2.0, 0.6875, -0.3))])
def test_rep_matrix_equals_the_literal_gather(literal_rep_matrix, n, t, g):
    # bit for bit; 128 and 512 are past numpy's in-place threshold for
    # temporaries, 16 below it
    grid = GridSpec1D(n, 10.0)
    assert np.array_equal(rep_matrix(t, GroupElement(*g), grid), literal_rep_matrix(t, g, grid))


def test_rep_is_unitary():
    grid = GridSpec1D(32, 4.0)
    eye = np.eye(32)
    for t in (0.25, -1.5):
        for _ in range(3):
            g = GroupElement(*map(float, RNG.standard_normal(3)))
            m = rep_matrix(t, g, grid)
            assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-13


def test_rep_homomorphism_on_smooth_vectors():
    grid = GridSpec1D(256, 10.0)
    v = np.exp(-grid.nodes**2 / (2 * 0.22**2)).astype(complex)
    v /= np.linalg.norm(v)
    raw = RNG.integers(-64, 64, size=(4, 3), endpoint=True) / 64.0
    g1, g2 = (GroupElement(*map(float, row)) for row in raw[:2])
    for t in (0.5, -1.25):
        lhs = rep_matrix(t, g1, grid) @ rep_matrix(t, g2, grid) @ v
        rhs = rep_matrix(t, mul(g1, g2), grid) @ v
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_coefficient_fast_matches_direct():
    f = sample_family(CANON, (3.0, 3.0, 2.0), (8, 8, 6))
    grid = GridSpec1D(16, 2.5)
    for t in (0.375, -1.0):
        fast = fourier_coefficient(f, t, grid)
        direct = fourier_coefficient(f, t, grid, method="direct")
        scale = schatten_norm(direct, np.inf)
        assert schatten_norm(fast - direct, np.inf) / scale < 1e-10
    with pytest.raises(ValueError):
        fourier_coefficient(f, 0.375, grid, method="magic")
    with pytest.raises(ValueError):
        fourier_coefficient(f, 0.0, grid)


@pytest.mark.parametrize(
    "ts", [TGrid(0.375, 1), TGrid(0.25, 2), TGrid(0.125, 3), TGrid(0.5, 3)]
)
def test_plan_coefficients_match_direct_on_any_node_list(ts):
    """Every node of a lattice: the term sees each once, under its own
    position, equal to the literal per-sample sum at that node.  The
    samples have no symmetry, so a wrong sign in the x or y phases shows."""
    rng = np.random.default_rng(41)
    samples = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    f = SampledFunction3D((1.5, 1.5, 1.5), (4, 4, 4), samples)
    grid = GridSpec1D(8, 2.0)
    got = []
    node_terms(f, ts, grid, lambda k, coef: got.append((k, coef)))
    assert sorted(k for k, _ in got) == list(range(ts.n_nodes))
    for k, coef in got:
        direct = _coefficient_direct(f, ts.nodes[k], grid)
        assert np.max(np.abs(coef - direct)) / np.max(np.abs(direct)) < 1e-10


@settings(max_examples=30)
@given(
    tg=st.builds(TGrid, st.floats(0.0625, 0.5), st.integers(1, 3)),
    complex_samples=st.lists(st.booleans(), min_size=1, max_size=2),
    counts=st.tuples(*[st.sampled_from((2, 4))] * 3),
    half=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(tg=TGrid(0.25, 1), complex_samples=[True, True], counts=(4, 4, 4), half=1.5, seed=0)
@example(tg=TGrid(0.125, 3), complex_samples=[True], counts=(4, 2, 4), half=1.0, seed=1)
@example(tg=TGrid(0.25, 2), complex_samples=[False], counts=(4, 4, 4), half=1.5, seed=0)
@example(tg=TGrid(0.5, 3), complex_samples=[True, False], counts=(4, 2, 4), half=1.0, seed=1)
def test_node_terms_match_direct_sums(tg, complex_samples, counts, half, seed):
    """Every node's value under its own position, for one or two functions
    per pass, equal to the literal per-sample sums.  Real samples with no
    symmetry take one x/y product per node pair and conjugate it for k,
    while a complex function takes its own at every node; either matches
    fourier_coefficient's one-pair lattice at that node."""
    rng = np.random.default_rng(seed)
    box = (half, 1.25 * half, 0.75 * half)
    fs = tuple(
        SampledFunction3D(
            box, counts, rng.standard_normal(counts) + (1j * rng.standard_normal(counts) if c else 0)
        )
        for c in complex_samples
    )
    grid = GridSpec1D(8, 2.0)
    got = node_terms(fs if len(fs) > 1 else fs[0], tg, grid, lambda k, *coefs: np.stack(coefs))
    assert got.shape == (tg.n_nodes, len(fs), 8, 8)
    for k, t in enumerate(tg.nodes):
        for coef, f in zip(got[k], fs):
            direct = _coefficient_direct(f, t, grid)
            assert np.max(np.abs(coef - direct)) / np.max(np.abs(direct)) < 1e-10
            alone = fourier_coefficient(f, t, grid)
            assert np.max(np.abs(coef - alone)) / np.max(np.abs(alone)) < 1e-13


@settings(max_examples=40)
@given(
    counts=st.tuples(*[st.integers(1, 96).map(lambda k: 2 * k)] * 2, st.just(2)),
    n=st.sampled_from([2**k for k in range(3, 10)]),
    half=st.floats(0.5, 8.0),
    width=st.floats(1.0, 10.0),
    t=st.floats(1 / 64, 8.0) | st.floats(-8.0, -1 / 64),
)
@example(counts=(2, 2, 2), n=8, half=1.0, width=2.0, t=0.5)
@example(counts=(94, 134, 2), n=512, half=6.0, width=10.0, t=8.0)
@example(counts=(144, 94, 2), n=64, half=3.0, width=4.0, t=1 / 64)
@example(counts=(134, 144, 2), n=128, half=5.2, width=5.6, t=2.0)
@example(counts=(128, 384, 44), n=256, half=5.2, width=8.0, t=4.0)
@example(counts=(128, 384, 44), n=256, half=5.2, width=8.0, t=-4.0)
def test_phase_tables_match_the_literal_exponentials(counts, n, half, width, t):
    """P = exp(i*pi*t*outer(xs, ys)) and E = exp(-2*pi*i*t*outer(ys, nodes))
    from their coarse and fine factors, within 4 roundoffs of the largest
    argument (of 1 when every argument is small, for the one complex
    multiply).  Counts 2 and 2*prime split with steps of 1 and 2.  t takes
    either sign, as a |t| group builds its tables at its first node."""
    grid = GridSpec1D(n, width)
    xs, ys, _ = box_axes((half, half, 1.0), counts)
    _, _, factors = _box_tables(grid, xs, ys)
    P = np.empty((len(xs), len(ys)), dtype=complex)
    E = np.empty((len(ys), n), dtype=complex)
    _phase_tables(t, factors, P, E)
    for table, c, a, b in ((P, 1j * np.pi * t, xs, ys), (E, -2j * np.pi * t, ys, grid.nodes)):
        arg = c * np.outer(a, b)
        literal = np.exp(arg)
        bound = 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(arg)))
        assert np.max(np.abs(table - literal)) <= bound


@pytest.mark.parametrize("n, width", [(8, 2.0), (256, 8.0)])
def test_box_tables_split_the_kernel_into_real_rows_and_a_nyquist_column(n, width):
    """rows + outer(nyquist, s) / N, s = (-1)^j, is the shift kernel of
    each x to roundoff of the row's largest entry, with rows float64 and
    nyquist exp(i*pi*x/h), the phase of the unpaired frequency, to a few
    roundoffs of its argument.  The shifts are fractional, and whole grid
    steps, whose kernels are unit vectors."""
    grid = GridSpec1D(n, width)
    h = grid.spacing
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.uniform(-2.0 * width, 2.0 * width, 9), h * np.arange(-3, 4)])
    rows, nyquist, _ = _box_tables(grid, xs, np.zeros(2))
    assert rows.dtype == np.float64 and rows.shape == (len(xs), n)
    kernel = shift_kernel(grid, xs)
    split = rows + np.outer(nyquist, (-1.0) ** np.arange(n)) / n
    scale = np.max(np.abs(kernel), axis=1)
    assert np.all(np.max(np.abs(split - kernel), axis=1) <= 1e-15 * scale)
    arg = np.pi * xs / h
    bound = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(arg))
    assert np.all(np.abs(nyquist - np.exp(1j * arg)) <= bound)


def test_node_terms_reject_mixed_boxes():
    f = sample_family(CANON, (1.5, 1.5, 1.5), (4, 4, 4))
    grid = GridSpec1D(8, 2.0)
    for other in (
        sample_family(CANON, (1.5, 1.5, 1.0), (4, 4, 4)),
        sample_family(CANON, (1.5, 1.5, 1.5), (4, 4, 2)),
    ):
        with pytest.raises(ValueError, match="one box"):
            node_terms((f, other), TGrid(0.5, 1), grid, lambda k, a, b: 0.0)


@pytest.mark.parametrize(
    "fs, ts, message",
    [
        ((), TGrid(0.5, 1), "at least one function in fs"),
        (None, TGrid(0.5, 1).nodes, "tgrid must be a TGrid, got ndarray"),
    ],
)
def test_node_terms_reject_empty_fs_and_non_list_ts(fs, ts, message):
    """A node list, such as a lattice's nodes, is not a lattice."""
    f = sample_family(CANON, (1.5, 1.5, 1.5), (4, 4, 4))
    with pytest.raises(ValueError, match=message):
        node_terms(f if fs is None else fs, ts, GridSpec1D(8, 2.0), lambda k, *coefs: 0.0)


@pytest.mark.parametrize(
    "bad, message",
    [
        (0.0, "must be nonzero"),
        (-0.0, "must be nonzero"),
        (math.nan, "finite, got nan"),
        (math.inf, "finite, got inf"),
        (-math.inf, "finite, got -inf"),
    ],
)
def test_node_lists_reject_zero_and_nonfinite_nodes(bad, message):
    """fourier_coefficient's t is checked with rep_matrix's messages on
    either path."""
    f = sample_family(CANON, (1.5, 1.5, 1.5), (4, 4, 4))
    grid = GridSpec1D(8, 2.0)
    for method in ("fast", "direct"):
        with pytest.raises(ValueError, match=message):
            fourier_coefficient(f, bad, grid, method=method)


@pytest.mark.parametrize(
    "tg, box, grid, phases",
    [
        (TGrid(5e307, 2), (1.5, 1.5, 1.5), GridSpec1D(8, 2.0), "pi*t*x*y"),
        (TGrid(5.0, 2), (1.5, 1.5, 1.5), GridSpec1D(8, 1e307), "2*pi*t*y*w"),
        (TGrid(5.0, 2), (1.5, 1.5, 1e307), GridSpec1D(8, 2.0), "2*pi*t*z"),
    ],
)
def test_transforms_refuse_a_lattice_whose_phases_overflow(tg, box, grid, phases):
    """Both drivers, and fourier_coefficient's fast path through a one-pair
    lattice, raise before numpy forms a phase: the P, E or z table of the
    outermost node overflowed, and the fast transform returned NaN where
    the direct path refused.  With the nodes 1e120 times smaller every
    argument is a large finite float."""
    f = SampledFunction3D(box, (4, 4, 4), RNG.standard_normal((4, 4, 4)))
    field = OperatorField(tg, np.zeros((tg.n_nodes, 8, 8)))
    names_all = re.escape(f"{tg!r} overflows the phases {phases} of the box {box!r}")
    names_all += ".*" + re.escape(repr(grid))
    t = tg.k_max * tg.delta
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=names_all):
            forward_field(f, tg, grid)
        with pytest.raises(ValueError, match=names_all):
            inverse_transform_grid(field, box, (4, 4, 4), grid)
        with pytest.raises(ValueError, match=re.escape(f"overflows the phases {phases}")):
            fourier_coefficient(f, t, grid)
        small = TGrid(tg.delta * 1e-120, tg.k_max)
        assert np.all(np.isfinite(forward_field(f, small, grid).mats))
        field = OperatorField(small, field.mats)
        assert np.all(np.isfinite(inverse_transform_grid(field, box, (4, 4, 4), grid)))


def test_every_ladder_level_passes_the_phase_overflow_check():
    for ladder, levels in SCALES.items():
        for scales in levels:
            if not isinstance(scales, tuple):
                continue  # a carrier alone, with no transform
            box, counts, tg, grid = scales
            xs, ys, zs = box_axes(box, counts)
            _, _, factors = _box_tables(grid, xs, ys)
            _check_phases(tg, factors, zs, box, grid)


def test_coefficient_is_linear():
    box = (3.0, 3.0, 2.0)
    counts = (12, 12, 8)
    f = sample_family(CANON, box, counts)
    g = sample_family(GaussianPoly(Poly3.const(1.0), (0.8, 0.9, 0.6)), box, counts)
    grid = GridSpec1D(16, 2.5)
    t = 0.625
    from heisenfourier.group import SampledFunction3D

    combo = SampledFunction3D(box, counts, 2.0 * f.samples + 3j * g.samples)
    lhs = fourier_coefficient(combo, t, grid)
    rhs = 2.0 * fourier_coefficient(f, t, grid) + 3j * fourier_coefficient(g, t, grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trace_norms_symmetric_in_t_for_real_functions():
    f = sample_family(CANON, BOX, (32, 48, 24))
    grid = GridSpec1D(32, 3.2)
    for t in (0.25, 0.875):
        plus = schatten_norm(fourier_coefficient(f, t, grid), 1)
        minus = schatten_norm(fourier_coefficient(f, -t, grid), 1)
        assert abs(plus - minus) < 1e-10 * max(1.0, plus)


def test_narrow_bump_acts_as_identity_on_smooth_vectors():
    """pi_t of a unit-mass bump at the origin converges to the identity,
    second order in the bump width."""
    grid = GridSpec1D(32, 4.0)
    v = np.exp(-grid.nodes**2 / (2 * 0.8**2)).astype(complex)
    v /= np.linalg.norm(v)
    defects = {}
    for sig in (0.06, 0.03):
        bump = GaussianPoly(Poly3.const(1.0), (sig, sig, sig))
        fb = sample_family(bump, (12 * sig,) * 3, (16, 16, 16))
        mass = (2 * math.pi) ** 1.5 * sig**3
        coef = fourier_coefficient(fb, 0.5, grid) / mass
        defects[sig] = np.linalg.norm(coef @ v - v)
    assert defects[0.06] < 5e-2
    assert defects[0.06] / defects[0.03] > 3.0


def test_forward_field_absorbs_the_measure():
    f = sample_family(CANON, (3.0, 3.0, 2.0), (12, 12, 8))
    grid = GridSpec1D(16, 2.5)
    tg = TGrid(0.25, 3)
    F = forward_field(f, tg, grid)
    for pos, t in enumerate(tg.nodes):
        want = abs(t) * fourier_coefficient(f, t, grid)
        assert np.max(np.abs(F.mats[pos] - want)) < 1e-14


def test_forward_field_is_node_terms_scaled_by_abs_t():
    f = sample_family(CANON, (3.0, 3.0, 2.0), (12, 12, 8))
    grid = GridSpec1D(16, 2.5)
    tg = TGrid(0.25, 3)
    ts = tg.nodes
    want = node_terms(f, tg, grid, lambda k, coef: abs(ts[k]) * coef)
    assert np.array_equal(forward_field(f, tg, grid).mats, want)


def test_real_z_sums_match_the_complex_product():
    """The real product on the float view of the z table against the
    complex product of the samples cast to complex.  Both are bit for bit
    equal on some BLAS builds, but the two GEMMs may block their sums
    differently, so the comparison is to a tolerance."""
    f = sample_family(CANON, BOX, (16, 24, 44))
    zs = f.axes[2]
    ez = np.exp(np.outer(zs, 2j * np.pi * TGrid(0.125, 32).nodes))
    want = f.samples.reshape(16 * 24, 44).astype(complex) @ ez
    got = _z_sums(f.samples, ez)
    assert got.dtype == complex and got.shape == want.shape
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-15
    g = SampledFunction3D(BOX, (16, 24, 44), f.samples * (1.0 + 0.5j))
    assert np.array_equal(_z_sums(g.samples, ez), g.samples.reshape(16 * 24, 44) @ ez)


def test_real_forward_field_makes_no_complex_copy_of_its_samples():
    """A complex copy of float64 samples takes twice their bytes.  Here the
    samples outweigh everything else forward_field holds, so with such a
    copy its peak would pass field + z table + scratch + samples.nbytes.
    scratch counts each worker's buffers, the table pair, the x/y product
    and its output and the (N, N) complex buffer whose float view the real
    circulant product writes, with the coefficient that a node gathers
    from it, for the two workers that the two |t| groups allow, and the
    box tables, counted at the bytes of complex kernel rows and of a
    complex (N, N) array, which the real rows and the integer gather
    table do not reach."""
    counts, n = (32, 32, 128), 8
    f = sample_family(CANON, BOX, counts)
    assert f.samples.dtype == np.float64
    grid, tg = GridSpec1D(n, 2.5), TGrid(0.25, 2)
    nx, ny, nz = counts
    k = tg.n_nodes
    field = k * n * n * 16
    z_table = (nx * ny * k + 2 * nz * k) * 16
    scratch = 2 * (2 * nx * ny + ny * n + 2 * n * n + nx * n) * 16 + (nx * n + n * n) * 16
    assert field + z_table + scratch < f.samples.nbytes
    tracemalloc.start()
    try:
        forward_field(f, tg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field + z_table + scratch + f.samples.nbytes
