import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenfourier.grid import (
    GridSpec1D,
    circulant_index,
    circulant_view,
    schatten_norm,
    schatten_norms,
    shift_kernel,
    shift_phases,
    singular_values,
)
from heisenfourier.schrodinger import rep_matrix

RNG = np.random.default_rng(91)


def test_grid_rejects_bad_sizes():
    for n in (0, 4, 12, 24):
        with pytest.raises(ValueError):
            GridSpec1D(n, 4.0)
    with pytest.raises(ValueError):
        GridSpec1D(16, 0.0)
    with pytest.raises(ValueError):
        GridSpec1D(16, math.inf)


@pytest.mark.parametrize("n", [True, np.bool_(True), 8.0, np.float64(8.0), "8"])
def test_grid_n_points_must_be_an_integer(n):
    with pytest.raises(ValueError, match="n_points"):
        GridSpec1D(n, 2.0)


@pytest.mark.parametrize("half_width", [True, np.bool_(True), "2.0", 2.0j, None])
def test_grid_half_width_must_be_a_real_number(half_width):
    with pytest.raises(ValueError, match="half_width"):
        GridSpec1D(8, half_width)


@pytest.mark.parametrize("half_width", [1e-308, 1e-310, 1e-320, 5e-324, 1e308, 1.7e308])
def test_grid_refuses_a_half_width_whose_spacing_or_frequencies_overflow(half_width):
    """The small widths overflow the frequencies N/(4L), the large ones the
    spacing 2L/N; either gave rep_matrix a non-finite matrix."""
    with pytest.raises(ValueError, match="half_width"):
        GridSpec1D(8, half_width)


@pytest.mark.parametrize("half_width", [1e-300, 1e307])
def test_extreme_finite_grids_give_finite_representations(half_width):
    grid = GridSpec1D(8, half_width)
    assert np.all(np.isfinite(grid.nodes)) and np.all(np.isfinite(grid.frequencies))
    assert np.all(np.isfinite(rep_matrix(1.0, (0.5, 0.0, 0.0), grid)))


@pytest.mark.parametrize("half_width, x", [(1.2e-308, 0.5), (1e-300, 1e10)])
def test_shifts_whose_phases_overflow_are_refused_before_numpy_warns(half_width, x):
    """Both grids pass GridSpec1D, but 2*pi*x*N/(4L) passes the largest
    float, and numpy's exp gave NaN phases with only a RuntimeWarning."""
    grid = GridSpec1D(8, half_width)
    names_both = re.escape(f"shift {x!r} overflows") + ".*" + re.escape(repr(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=names_both):
            rep_matrix(1.0, (x, 0.0, 0.0), grid)
        with pytest.raises(ValueError, match=re.escape(f"shift {x!r}")):
            shift_phases(grid, [[0.0, -x], [x / 2, x / 4]])
    assert np.all(np.isfinite(shift_phases(grid, 0.0)))


def test_grid_stores_numpy_reals_as_python_floats():
    grid = GridSpec1D(8, np.float32(2.0))
    assert type(grid.half_width) is float
    assert grid == GridSpec1D(8, 2.0) == GridSpec1D(8, 2)
    assert grid.spacing == 0.5


def test_grid_accepts_numpy_integers_as_python_ints():
    grid = GridSpec1D(np.int64(8), 2.0)
    assert type(grid.n_points) is int
    assert grid == GridSpec1D(8, 2.0)


def test_nodes_cover_the_interval():
    grid = GridSpec1D(8, 2.0)
    assert grid.spacing == 0.5
    assert grid.nodes[0] == -2.0
    assert grid.nodes[-1] == 1.5
    assert np.all(np.diff(grid.nodes) == 0.5)


def test_frequencies_match_fftfreq():
    grid = GridSpec1D(16, 2.0)
    assert np.array_equal(grid.frequencies, np.fft.fftfreq(16, d=grid.spacing))


def test_shift_by_one_step_is_the_cyclic_permutation():
    # at a lattice shift the band-limited interpolant passes through samples
    grid = GridSpec1D(16, 3.0)
    op = circulant_view(shift_kernel(grid, grid.spacing))
    perm = np.roll(np.eye(16), 1, axis=0)
    assert np.max(np.abs(op - perm)) < 1e-13


def test_fractional_shifts_compose_and_are_unitary():
    grid = GridSpec1D(32, 4.0)
    a, b = 0.37, -1.234
    s = circulant_view(shift_kernel(grid, a))
    lhs = s @ circulant_view(shift_kernel(grid, b))
    rhs = circulant_view(shift_kernel(grid, a + b))
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    assert np.max(np.abs(s.conj().T @ s - np.eye(32))) < 1e-13


def test_shift_rejects_non_finite():
    grid = GridSpec1D(8, 1.0)
    with pytest.raises(ValueError):
        shift_kernel(grid, math.nan)
    with pytest.raises(ValueError):
        shift_kernel(grid, [0.5, math.inf])


def _literal_shift(grid, x):
    # the shift as written: diagonal phases conjugated by the DFT of the identity
    phase = np.exp(-2j * np.pi * grid.frequencies * x)
    eye = np.eye(grid.n_points, dtype=complex)
    return np.fft.ifft(phase[:, None] * np.fft.fft(eye, axis=0), axis=0)


@pytest.mark.parametrize("n", [8, 16, 256])
def test_circulant_kernels_match_the_literal_shift(n):
    grid = GridSpec1D(n, 3.0)
    h = grid.spacing
    # on the grid, off the grid, negative, and beyond the box width 2L
    shifts = np.array([0.0, h, -3 * h, 0.37, -1.234, 7.9, -13.05])
    stack = circulant_view(shift_kernel(grid, shifts))
    assert stack.shape == (shifts.size, n, n)
    for x, op in zip(shifts, stack):
        want = _literal_shift(grid, x)
        assert np.max(np.abs(op - want)) < 1e-13
        assert np.max(np.abs(circulant_view(shift_kernel(grid, x)) - want)) < 1e-13


@settings(max_examples=60)
@given(
    n=st.sampled_from([2**k for k in range(3, 9)]),
    half_width=st.floats(0.25, 32.0),
    x=st.floats(-64.0, 64.0),
)
def test_circulant_shift_is_the_literal_shift_for_any_grid(n, half_width, x):
    """Both paths round the phase argument 2*pi*xi*x in a different order,
    so their gap grows with its largest value, 2*pi*|x|*N/(4L)."""
    grid = GridSpec1D(n, half_width)
    arg = 2 * math.pi * abs(x) * n / (4 * half_width)
    bound = 2 * np.finfo(float).eps * (max(1.0, arg) + math.log2(n))
    gap = np.max(np.abs(circulant_view(shift_kernel(grid, x)) - _literal_shift(grid, x)))
    assert gap <= bound


@pytest.mark.parametrize("n", [8, 16, 256])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_circulant_equals_the_index_table_gather(n, lead):
    # the strided view against the literal gather through (m - j) mod n
    kernel = RNG.standard_normal(lead + (n,)) + 1j * RNG.standard_normal(lead + (n,))
    mats = circulant_view(kernel)
    assert np.array_equal(mats, np.take(kernel, circulant_index(n), axis=-1))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("half_width", [3.0, 4.0])
def test_node_shifts_are_index_rolls(n, half_width):
    # shifting by -w_m = (N/2 - m) h moves whole grid steps, which the
    # fusion theta term relies on to replace its shear stack by a gather
    grid = GridSpec1D(n, half_width)
    stack = circulant_view(shift_kernel(grid, -grid.nodes))
    eye = np.eye(n)
    for m, op in enumerate(stack):
        assert np.max(np.abs(op - np.roll(eye, n // 2 - m, axis=0))) < 1e-13


def _char_poly_singular_values(a):
    """Singular values from the characteristic polynomial of a*a; no SVD."""
    h = a.conj().T @ a
    tr = np.trace(h).real
    tr2 = np.trace(h @ h).real
    det = np.linalg.det(h).real
    c2 = 0.5 * (tr * tr - tr2)
    roots = np.roots([1.0, -tr, c2, -det])
    return np.sqrt(np.sort(np.abs(roots.real))[::-1])


def test_singular_values_against_char_poly_oracle():
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    got = singular_values(a)
    want = _char_poly_singular_values(a)
    assert np.max(np.abs(got - want)) < 1e-10


def test_singular_values_input_checks():
    with pytest.raises(ValueError):
        singular_values(np.zeros((3, 4)))
    bad = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        singular_values(bad)


def test_schatten_norm_relations():
    a = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
    assert schatten_norm(a, 1) >= np.linalg.norm(a, "fro") >= schatten_norm(a, math.inf)
    b = RNG.standard_normal((8, 8))
    gap = schatten_norm(a + b, 1) - schatten_norm(a, 1) - schatten_norm(b, 1)
    assert gap <= 1e-12


def test_schatten_norm_unitary_invariance():
    grid = GridSpec1D(8, 2.0)
    q = circulant_view(shift_kernel(grid, 0.59))
    a = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
    for p in (1, math.inf):
        assert abs(schatten_norm(q @ a, p) - schatten_norm(a, p)) < 1e-10


def test_schatten_norm_rejects_other_p():
    for p in (2, 3):
        with pytest.raises(ValueError, match="1 or inf"):
            schatten_norm(np.eye(3), p)


@given(
    shape=st.tuples(st.integers(0, 4), st.integers(1, 6)),
    p=st.sampled_from((1, math.inf)),
    seed=st.integers(0, 2**32 - 1),
)
def test_schatten_norms_is_schatten_norm_per_matrix(shape, p, seed):
    rng = np.random.default_rng(seed)
    count, n = shape
    mats = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    want = np.array([schatten_norm(m, p) for m in mats])
    assert np.array_equal(schatten_norms(mats, p), want)


def test_kron_index_convention():
    # rows (i, j) -> i*dim(b) + j, the order partial_trace_second contracts
    a = np.diag([1.0, 2.0])
    got = np.kron(a, np.eye(2))
    assert np.array_equal(got, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_trace_norm_multiplicative():
    a = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    b = RNG.standard_normal((7, 7)) + 1j * RNG.standard_normal((7, 7))
    lhs = schatten_norm(np.kron(a, b), 1)
    rhs = schatten_norm(a, 1) * schatten_norm(b, 1)
    assert abs(lhs - rhs) / rhs < 1e-10
