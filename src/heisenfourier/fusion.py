"""Coefficient fusion: intertwiners, the theta maps, dual convolution.

For r + s != 0 the matrix gamma(r, s) = [[r/(r+s), s/(r+s)], [-1, 1]]
relates the tensor product of the representations at parameters r and s
to the representation at r + s: composing a two-variable function with
gamma^{-1} intertwines pi_r (x) pi_s with pi_{r+s} (x) 1.  On the
N^2-dimensional tensor carrier that composition is realized here through
the exact factorization

    gamma^{-1} = [[1, 0], [1, 1]] @ [[1, -s/(r+s)], [0, 1]]

into two unit shears.  Each shear is a stack of band-limited fractional
shifts of one variable, indexed by the grid nodes of the other, so the
discrete W is a product of two block-diagonal unitaries and carries no
normalization defect of its own.  Accuracy degrades only through content
pushed past the window or the frequency band, which shows up in the
intertwining residual, never in unitarity.

Point sampling the composed function on the product grid and projecting
onto the carrier band gives an alternative W whose unitarity defect
measures whether the grid resolves the shear at all; half-integer shears
alias colliding frequency pairs into exact rank collapse there (defect
1).  intertwiner() reports that defect as a sampling diagnostic next to
the exact-shear matrix.

theta1 and dual_convolution never materialize W.  For a separable input
kron(A, B) the partial trace fuses into the shear conjugation, and each
shear is cheap in its own basis: the second-variable shear moves by
whole grid steps, so it is a gather of B, and the first-variable shear
is diagonal in the DFT basis, so its conjugation is a phase weighting
between FFTs.  A term costs O(N^3 log N) and builds no shift stack.
_dense_w keeps the literal W, from grid's circulant shifts, as the
oracle for that contraction.

dual_convolution runs every term through one kernel, _theta_dft, in two
O(N^3) work buffers allocated once per call.  The gather of B depends
only on the G node, so it runs once per G node, not once per term.  Each
term then multiplies, FFTs and phase-weights inside the buffers and
leaves its N x N matrix in the DFT basis.  The map back from the DFT
basis is linear, so the terms are summed there and each output node
takes one final 2-d FFT.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .field import OperatorField, TGrid
from .grid import GridSpec1D, circulant, schatten_norm, shift_kernel, shift_phases
from .schrodinger import forward_field

_DOMAIN_MSG = "fusion needs r, s, r + s all nonzero"


def _in_domain(r: float, s: float) -> bool:
    if not (math.isfinite(r) and math.isfinite(s)):
        return False
    return r != 0.0 and s != 0.0 and r + s != 0.0


def gamma(r: float, s: float) -> np.ndarray:
    """Change-of-variables matrix [[r/(r+s), s/(r+s)], [-1, 1]], det 1."""
    if not _in_domain(r, s):
        raise ValueError(_DOMAIN_MSG + f", got r={r}, s={s}")
    tot = r + s
    return np.array([[r / tot, s / tot], [-1.0, 1.0]])


class IntertwinerResult(NamedTuple):
    matrix: np.ndarray
    sampling_defect: float
    near_singular: bool


def _exact_ratio(r: float, s: float) -> Fraction:
    return Fraction(s) / (Fraction(r) + Fraction(s))


def _dense_w(ratio: Fraction, grid: GridSpec1D) -> np.ndarray:
    """W[(u,n),(p,q)] = TU[n][u,p] * TL[p][n,q], rows (i,j) -> i*N+j.

    The literal W from dense shift stacks, the oracle for _theta_term.
    """
    n = grid.n_points
    tu = circulant(shift_kernel(grid, float(ratio) * grid.nodes))
    tl = circulant(shift_kernel(grid, -grid.nodes))
    w = np.einsum("nup,pnq->unpq", tu, tl, optimize=True)
    return np.ascontiguousarray(w.reshape(n * n, n * n))


def _eval_weights(points: np.ndarray, grid: GridSpec1D) -> np.ndarray:
    """Rows evaluate a carrier vector at off-grid points by band interpolation."""
    a = np.exp(2j * np.pi * np.outer(points, grid.frequencies))
    b = np.exp(-2j * np.pi * np.outer(grid.frequencies, grid.nodes))
    return (a @ b) / grid.n_points


def _sampled_composition(ratio: Fraction, grid: GridSpec1D) -> np.ndarray:
    """Composition with gamma^{-1} sampled on a doubled grid, band-projected.

    Sampling on the N x N grid itself aliases colliding frequency pairs
    for half-integer shears; the double-then-project route keeps those
    directions distinct, at the cost of a contraction.
    """
    n = grid.n_points
    fine = GridSpec1D(2 * n, grid.half_width)
    rr = float(ratio)
    hh = np.repeat(fine.nodes, 2 * n)
    kk = np.tile(fine.nodes, 2 * n)
    cu = _eval_weights(hh - kk * rr, grid).reshape(2 * n, 2 * n, n)
    cv = _eval_weights(hh + kk * (1.0 - rr), grid).reshape(2 * n, 2 * n, n)
    ph1 = np.exp(2j * np.pi * np.outer(grid.nodes, grid.frequencies))
    ph2 = np.exp(-2j * np.pi * np.outer(grid.frequencies, fine.nodes))
    pd = (ph1 @ ph2) / (2 * n)
    x = np.empty((2 * n, n, n * n), dtype=complex)
    for a in range(2 * n):
        cuv = (cu[a, :, :, None] * cv[a, :, None, :]).reshape(2 * n, n * n)
        x[a] = pd @ cuv
    w = pd @ x.reshape(2 * n, n * n * n)
    return w.reshape(n * n, n * n)


def _sampling_defect(ratio: Fraction, grid: GridSpec1D) -> float:
    w = _sampled_composition(ratio, grid)
    gram = np.linalg.eigvalsh(w.conj().T @ w)
    return float(np.max(np.abs(gram - 1.0)))


def intertwiner(
    r: float, s: float, grid: GridSpec1D, delta_dom: float = 0.0
) -> IntertwinerResult:
    """Unitary intertwiner between pi_r (x) pi_s and pi_{r+s} (x) 1.

    matrix is the exact two-shear composition unitary on the tensor
    carrier, unitary to roundoff for every admissible (r, s).
    sampling_defect is ||Ws* Ws - I||_inf for the band-projected
    point-sampled composition Ws on the same grid, reported as a
    diagnostic of how well the grid resolves the shear; it does not
    enter the returned matrix.  near_singular flags |r + s| below
    delta_dom.

    Raises ValueError for non-finite input or when any of r, s, r + s
    is zero.  The shear matrix itself only degenerates at r + s == 0,
    but the representations being fused need nonzero parameters.
    """
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ValueError(f"fusion parameters must be finite, got r={r}, s={s}")
    if not _in_domain(r, s):
        raise ValueError(_DOMAIN_MSG + f", got r={r}, s={s}")
    if not (math.isfinite(delta_dom) and delta_dom >= 0):
        raise ValueError(f"delta_dom must be finite and >= 0, got {delta_dom}")
    ratio = _exact_ratio(r, s)
    matrix = _dense_w(ratio, grid)
    defect = _sampling_defect(ratio, grid)
    return IntertwinerResult(matrix, defect, bool(abs(r + s) < delta_dom))


def partial_trace_second(big: np.ndarray, dim_first: int) -> np.ndarray:
    """Trace out the second tensor factor, row order (i, j) -> i*dim2 + j."""
    big = np.asarray(big)
    if big.ndim != 2 or big.shape[0] != big.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {big.shape}")
    dim = big.shape[0]
    if dim_first <= 0 or dim % dim_first != 0:
        raise ValueError(f"dimension {dim} does not factor through {dim_first}")
    dim2 = dim // dim_first
    return np.einsum("ijkj->ik", big.reshape(dim_first, dim2, dim_first, dim2))


def _gather_index(size: int) -> np.ndarray:
    """Flat indices of b[r(n, m), r(n, p)], r(n, m) = (n + m - N/2) mod N.

    TL[m] shifts by (N/2 - m) h, whole grid steps, so the slices
    (TL[m] b TL[p]*)[n, n] over n are this one gather of b.
    """
    ar = np.arange(size)
    r = (ar[:, None] + ar - size // 2) % size
    return r[:, :, None] * size + r[:, None, :]


def _theta_dft(
    ratio: Fraction, grid: GridSpec1D, a: np.ndarray, bg: np.ndarray, e: np.ndarray
) -> np.ndarray:
    """The theta term of (a, b) in the DFT basis, worked out in buffer e.

    bg is np.take(b, _gather_index(N)), so e_n = a o bg[n] are the slices
    E_n.  TU[n] is F^-1 diag(phi_n) F, so sum_n TU[n] E_n TU[n]* is
    F^-1 s F with s = sum_n phi_n phi_n^H o F E_n F^-1; this returns s,
    a fresh N x N array, and _from_dft maps it back.  e is overwritten.
    """
    phi = shift_phases(grid, float(ratio) * grid.nodes)
    np.multiply(a, bg, out=e)
    np.fft.fft(e, axis=1, out=e)
    np.fft.ifft(e, axis=2, out=e)
    np.multiply(e, phi.conj()[:, None, :], out=e)
    # s[u] = phi[:, u] @ e[:, u, :], one matrix-vector product per row u
    return np.matmul(phi.T[:, None, :], e.transpose(1, 0, 2))[:, 0, :]


def _from_dft(s: np.ndarray) -> np.ndarray:
    """F^-1 s F over the last two axes: a unitary conjugation."""
    return np.fft.fft(np.fft.ifft(s, axis=-2), axis=-1)


def _theta_term(
    ratio: Fraction, grid: GridSpec1D, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """partial_trace_second(W kron(a, b) W*) without materializing W."""
    bg = np.take(b, _gather_index(grid.n_points))
    return _from_dft(_theta_dft(ratio, grid, a, bg, np.empty(bg.shape, complex)))


def _check_pair(
    field_f: OperatorField, field_g: OperatorField, grid: GridSpec1D
) -> None:
    if not field_f.same_lattice(field_g):
        raise ValueError("fields live on different lattices")
    if field_f.dim != grid.n_points:
        raise ValueError(
            f"field dimension {field_f.dim} does not match grid {grid.n_points}"
        )


def theta1(
    field_f: OperatorField,
    field_g: OperatorField,
    r_node: float,
    s_node: float,
    grid: GridSpec1D,
) -> np.ndarray:
    """Fused coefficient ptrace_2(W (F(r) kron G(s)) W*) at one node pair.

    Returns the zero matrix when (r_node, s_node) falls off the shared
    punctured lattice, off the domain (r, s, r + s all nonzero), or
    where a factor vanishes.
    """
    _check_pair(field_f, field_g, grid)
    n = grid.n_points
    zero = np.zeros((n, n), dtype=complex)
    if not _in_domain(r_node, s_node):
        return zero
    j = field_f.tgrid.lattice_k(r_node)
    m = field_g.tgrid.lattice_k(s_node)
    if j is None or m is None or j + m == 0:
        return zero
    if field_f.tgrid.index_of(j) is None or field_g.tgrid.index_of(m) is None:
        return zero
    return _theta_term(
        Fraction(m, j + m), grid, field_f.at_k(j), field_g.at_k(m)
    )


def dual_convolution(
    field_f: OperatorField,
    field_g: OperatorField,
    grid: GridSpec1D,
    tol_skip: float = 0.0,
    with_theta_bounds: bool = False,
):
    """Dual convolution (F # G)(t_k) = sum_j Delta * theta1(F, G, t_j, t_k - t_j).

    The inner sum runs over lattice pairs (j, k - j) with both indices on
    the punctured lattice.  Pairs whose trace-norm product falls below
    tol_skip times the product of the largest node trace norms are
    skipped; the total skipped mass per node is below tol_skip *
    a_norm(F) * a_norm(G) / Delta.

    With with_theta_bounds=True returns (field, bounds) where bounds[i] =
    sum_j Delta * ||theta1(...)||_1 over the same terms, the node-wise
    triangle-inequality majorant of the result.

    Cost: the loop runs over the G node m outside and the F node j
    inside.  Each G node is gathered once into a work buffer; each term
    is one multiply, two N^2-batched length-N FFTs and one phase-weighted
    sum over n, all in a second work buffer, and adds its DFT-basis
    matrix to its output node.  One final 2-d FFT per output node maps
    the sums back.  The two buffers (2 N^3 complex) and the gather index
    are allocated once per call.  The bounds take one SVD per term, of
    its DFT-basis matrix.
    """
    _check_pair(field_f, field_g, grid)
    if not (math.isfinite(tol_skip) and tol_skip >= 0):
        raise ValueError(f"tol_skip must be finite and >= 0, got {tol_skip}")
    tg = field_f.tgrid
    n = grid.n_points
    tn_f = np.array([schatten_norm(m, 1) for m in field_f.mats])
    tn_g = np.array([schatten_norm(m, 1) for m in field_g.mats])
    cut = tol_skip * tn_f.max() * tn_g.max()
    index = _gather_index(n)
    bg = np.empty((n, n, n), dtype=complex)
    e = np.empty_like(bg)
    table = np.zeros((tg.n_nodes, n, n), dtype=complex)
    bounds = np.zeros(tg.n_nodes)
    for pos_m, m in enumerate(tg.ks):
        np.take(field_g.mats[pos_m], index, out=bg)
        for pos_j, j in enumerate(tg.ks):
            pos_k = tg.index_of(j + m)
            if pos_k is None or tn_f[pos_j] * tn_g[pos_m] <= cut:
                continue
            s = _theta_dft(Fraction(m, j + m), grid, field_f.mats[pos_j], bg, e)
            table[pos_k] += s
            if with_theta_bounds:
                # _from_dft is a unitary conjugation, so it keeps the trace norm
                bounds[pos_k] += schatten_norm(s, 1)
    result = OperatorField(tg, tg.delta * _from_dft(table))
    if with_theta_bounds:
        return result, tg.delta * bounds
    return result


def product_coefficient_defect(
    f1, f2, tgrid: TGrid, grid: GridSpec1D, tol_skip: float = 0.0
) -> float:
    """Relative defect of |t| pi_t(f1 f2) against (F1 # F2)(t) over the lattice.

    Both sides are compared in trace norm node by node; the defect is the
    largest node trace-norm gap divided by the largest node trace norm of
    the direct side.  Raises ValueError when the direct side vanishes
    identically while the convolution side does not.
    """
    f_one = forward_field(f1, tgrid, grid)
    f_two = forward_field(f2, tgrid, grid)
    direct = forward_field(f1 * f2, tgrid, grid)
    fused = dual_convolution(f_one, f_two, grid, tol_skip=tol_skip)
    gaps = np.array(
        [schatten_norm(a - b, 1) for a, b in zip(direct.mats, fused.mats)]
    )
    scale = max(schatten_norm(m, 1) for m in direct.mats)
    if scale == 0.0:
        if float(gaps.max()) == 0.0:
            return 0.0
        raise ValueError("product coefficients vanish but the convolution does not")
    return float(gaps.max()) / scale
