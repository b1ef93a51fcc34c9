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

W is never materialized outside the oracle.  Each shear is cheap in its
own basis: the second-variable shear moves by whole grid steps, so it is
a gather (_roll_index), and the first-variable shear is diagonal in the
DFT basis, so it is a phase weighting between FFTs (_shear_phases).
intertwiner() applies W to an N x N array with one gather and two
batched FFTs, O(N^2 log N).  theta1 and dual_convolution fuse the same
two steps into the partial trace of W kron(A, B) W*, where the gather
acts on B: O(N^3 log N) per term and no shift stack.  _dense_w keeps the
literal N^2 x N^2 W, from grid's circulant shifts, as the oracle for
both.

dual_convolution runs every term through one kernel, _theta_dft, and
splits the output nodes across the CPUs the process may run on through
split.run_split: one thread per CPU, each with its own two O(N^3) work
buffers, allocated once per call.  The gather of B depends only on the
G node, so each worker runs it once per G node, not once per term.  Each
term then multiplies, FFTs and phase-weights inside the buffers and
leaves its N x N matrix in the DFT basis.  The map back from the DFT
basis is linear, so the terms are summed there and each output node
takes one final 2-d FFT.  A node belongs to one worker, which adds its
terms in the serial order, so the result has the same bits on any core
count.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .field import OperatorField
from .grid import GridSpec1D, circulant, schatten_norm, schatten_norms, shift_kernel, shift_phases
from .split import run_split

_DOMAIN_MSG = "fusion needs r, s, r + s all nonzero"


def _in_domain(r: float, s: float) -> bool:
    if not (math.isfinite(r) and math.isfinite(s)):
        return False
    return r != 0.0 and s != 0.0 and r + s != 0.0


def _exact_ratio(r: float, s: float) -> Fraction:
    return Fraction(s) / (Fraction(r) + Fraction(s))


def _dense_w(ratio: Fraction, grid: GridSpec1D) -> np.ndarray:
    """W[(u,n),(p,q)] = TU[n][u,p] * TL[p][n,q], rows (i,j) -> i*N+j.

    The literal W from dense shift stacks, the oracle for intertwiner
    and _theta_term.
    """
    n = grid.n_points
    tu = circulant(shift_kernel(grid, float(ratio) * grid.nodes))
    tl = circulant(shift_kernel(grid, -grid.nodes))
    w = np.einsum("nup,pnq->unpq", tu, tl, optimize=True)
    return np.ascontiguousarray(w.reshape(n * n, n * n))


def _roll_index(size: int) -> np.ndarray:
    """r[n, p] = (n + p - N/2) mod N, so TL[p][n, q] = [q == r[n, p]].

    TL[p] shifts by (N/2 - p) h, whole grid steps, so it is a gather.
    """
    ar = np.arange(size)
    return (ar[:, None] + ar - size // 2) % size


def _shear_phases(ratio: Fraction, grid: GridSpec1D) -> np.ndarray:
    """phi with TU[n] = F^-1 diag(phi[n]) F, the shift by ratio * w_n."""
    return shift_phases(grid, float(ratio) * grid.nodes)


def intertwiner(r: float, s: float, grid: GridSpec1D, v: np.ndarray) -> np.ndarray:
    """W v for the unitary intertwiner between pi_r (x) pi_s and pi_{r+s} (x) 1.

    v is an N x N array on the tensor carrier, entry [p, q] the
    coefficient of e_p (x) e_q, and the result, a fresh N x N array, is
    _dense_w(ratio, grid) @ v.ravel() reshaped, without building W: the
    gather y[p, n] = v[p, r[n, p]] with r = _roll_index(N), then the
    first shear column by column in the DFT basis.  O(N^2 log N).

    Raises ValueError for non-finite input, when any of r, s, r + s is
    zero, or when v is not N x N.  The shear itself only degenerates at
    r + s == 0, but the representations being fused need nonzero
    parameters.
    """
    if not (math.isfinite(r) and math.isfinite(s)):
        raise ValueError(f"fusion parameters must be finite, got r={r}, s={s}")
    if not _in_domain(r, s):
        raise ValueError(_DOMAIN_MSG + f", got r={r}, s={s}")
    n = grid.n_points
    v = np.asarray(v)
    if v.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} array, got shape {v.shape}")
    phi = _shear_phases(_exact_ratio(r, s), grid)
    y = np.take_along_axis(v, _roll_index(n), axis=1)
    return np.fft.ifft(phi.T * np.fft.fft(y, axis=0), axis=0)


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
    """Flat indices of b[r[n, m], r[n, p]], r = _roll_index(N).

    The slices (TL[m] b TL[p]*)[n, n] over n are this one gather of b.
    """
    r = _roll_index(size)
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
    phi = _shear_phases(ratio, grid)
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

    Cost: the output nodes are dealt round-robin by split.run_split, one
    thread per CPU, at most one per node; worker w owns the nodes with
    pos_k % workers == w and the calling thread runs worker 0.  Each
    worker walks the G nodes m in ascending order and gathers each into
    its own work buffer once; each of its terms is one multiply, two
    N^2-batched length-N FFTs and one phase-weighted sum over n, in its
    second work buffer, and adds its DFT-basis matrix to its output node.
    Every node so takes its terms in the serial order, m ascending, and
    the result and bounds have the same bits on any core count.  One
    final 2-d FFT per output node maps the sums back.  The buffers, 2 N^3
    complex per worker, and the gather index are allocated once per call,
    in the calling thread.  The bounds take one SVD per term, of its
    DFT-basis matrix.  An exception in a worker is raised here once every
    worker has stopped.
    """
    _check_pair(field_f, field_g, grid)
    if not (math.isfinite(tol_skip) and tol_skip >= 0):
        raise ValueError(f"tol_skip must be finite and >= 0, got {tol_skip}")
    tg = field_f.tgrid
    n = grid.n_points
    tn_f = schatten_norms(field_f.mats, 1)
    tn_g = schatten_norms(field_g.mats, 1)
    cut = tol_skip * tn_f.max() * tn_g.max()
    terms = []
    for pos_m, m in enumerate(tg.ks):
        for pos_j, j in enumerate(tg.ks):
            pos_k = tg.index_of(j + m)
            if pos_k is None or tn_f[pos_j] * tn_g[pos_m] <= cut:
                continue
            terms.append((pos_m, pos_j, pos_k, Fraction(m, j + m)))
    index = _gather_index(n)
    table = np.zeros((tg.n_nodes, n, n), dtype=complex)
    bounds = np.zeros(tg.n_nodes)

    def run(nodes, bg, e):
        """Add the terms of one worker's nodes, pos_m ascending, into their rows."""
        mine = set(nodes)
        gathered = None
        for pos_m, pos_j, pos_k, ratio in terms:
            if pos_k not in mine:
                continue
            if pos_m != gathered:
                # every index is in range; mode="clip" fills bg directly,
                # where the default mode gathers into a temporary first
                np.take(field_g.mats[pos_m], index, out=bg, mode="clip")
                gathered = pos_m
            s = _theta_dft(ratio, grid, field_f.mats[pos_j], bg, e)
            table[pos_k] += s
            if with_theta_bounds:
                # _from_dft is a unitary conjugation, so it keeps the trace norm
                bounds[pos_k] += schatten_norm(s, 1)

    run_split(
        range(tg.n_nodes),
        run,
        lambda: (np.empty((n, n, n), dtype=complex), np.empty((n, n, n), dtype=complex)),
    )
    result = OperatorField(tg, tg.delta * _from_dft(table))
    if with_theta_bounds:
        return result, tg.delta * bounds
    return result
