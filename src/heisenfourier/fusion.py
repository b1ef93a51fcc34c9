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
DFT basis, so it is a phase weighting between FFTs (shift_phases).
intertwiner() applies W to an N x N array with one gather and two
batched FFTs, O(N^2 log N).  _dense_w keeps the literal N^2 x N^2 W,
from circulant views of grid's shift kernels, as the oracle for
intertwiner and for the theta term.

The theta term s = partial_trace_second(W kron(a, b) W*), which theta1
and dual_convolution sum, takes no FFT of its own.  Write x^ = F x F^-1
(fft over rows, ifft over columns), k_u for the signed frequency index
of u and c = s/(r+s).  The gather shifts b along its diagonal by n - N/2
whole steps, and the shear phases meet only in the products
phi_n(u) conj(phi_n(v)) = exp(-2 pi i c (k_u - k_v) (n - N/2) / N), so
the sum over the grid nodes n collapses into a Dirichlet weight.  In
the DFT basis

    s^[u, u+e] = sum_d K_c(d - c delta) (alpha_(e+d) (*) beta_d)[u]

with alpha_g[p] = a^[p, p+g] and beta_d[q] = b^[q, q-d] (indices mod
N), (*) the circular convolution, delta = k_u - k_(u+e), which is -e or
N - e, and

    K_c(x) = (1/N) sum_{t = -N/2}^{N/2 - 1} exp(2 pi i t x / N),

which depends on N and c only: the half-width drops out.  With alpha~_g
and beta~_d the FFTs of the diagonals over p, a term is the two rows

    R[e, j, w] = sum_d K_c(d - c delta_j) alpha~_(e+d)[w] beta~_d[w],

one per value delta_j of delta, and s^ is one ifft of R over w with the
row j picked per (u, e).  _ThetaKernel builds both Dirichlet rows from
one N x N exponential table and one (N, N) @ (N, 2N) GEMM, once per ratio,
then per term multiplies the Hankel view alpha~_(e+d) by beta~_d (N^3
multiplies) and contracts over d in one batched (N, 2, N) @ (N, N, N)
matmul: per term N^3 multiplies and 2 N^3 complex multiply-adds, and no
FFT.

dual_convolution splits the output nodes across the CPUs the process
may run on through split.run_split, one thread and one _ThetaKernel per
CPU, dealt by |k|: the mirror terms (j, m) and (-j, -m) have the same
ratio, so nodes k and -k share a worker.  The calling thread computes
the diagonals alpha~ of every F node and beta~ of every G node once per
call and sorts the terms once by ratio, and each worker builds the rows
of a ratio once, for all its terms at that ratio.  The map from R to the
output is linear, so each node sums its terms' rows and takes one ifft,
one row pick and one 2-d FFT at the end.  A node belongs to one worker,
which adds its terms in the one global ratio order, so the result has
the same bits on any core count.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import OperatorField
from .grid import GridSpec1D, as_count, circulant_view, schatten_norm
from .grid import shift_kernel, shift_phases
from .split import run_split

_DOMAIN_MSG = "fusion needs r, s, r + s all nonzero"


def _exact_ratio(r: float, s: float) -> Fraction:
    return Fraction(s) / (Fraction(r) + Fraction(s))


def _dense_w(ratio: Fraction, grid: GridSpec1D) -> np.ndarray:
    """W[(u,n),(p,q)] = TU[n][u,p] * TL[p][n,q], rows (i,j) -> i*N+j.

    The literal W from circulant shift stacks, the oracle for intertwiner
    and _theta_term.
    """
    n = grid.n_points
    tu = circulant_view(shift_kernel(grid, float(ratio) * grid.nodes))
    tl = circulant_view(shift_kernel(grid, -grid.nodes))
    w = np.einsum("nup,pnq->unpq", tu, tl, optimize=True)
    return np.ascontiguousarray(w.reshape(n * n, n * n))


def _roll_index(size: int) -> np.ndarray:
    """r[n, p] = (n + p - N/2) mod N, so TL[p][n, q] = [q == r[n, p]].

    TL[p] shifts by (N/2 - p) h, whole grid steps, so it is a gather.
    """
    ar = np.arange(size)
    return (ar[:, None] + ar - size // 2) % size


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
    if r == 0.0 or s == 0.0 or r + s == 0.0:
        raise ValueError(_DOMAIN_MSG + f", got r={r}, s={s}")
    n = grid.n_points
    v = np.asarray(v)
    if v.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} array, got shape {v.shape}")
    phi = shift_phases(grid, float(_exact_ratio(r, s)) * grid.nodes)
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


class _ThetaKernel:
    """One worker's theta-term kernel at carrier size N: constants and buffers.

    weights(c) builds the two Dirichlet rows of the ratio c, W[e, j, d] =
    K_c(d - c delta_j), into w and keeps them for every later term until
    the next call.  term(alpha~, beta~) copies alpha~ into the Hankel buffer
    A[e, d, w] = alpha~[(e + d) mod N, w] and returns the term's two delta
    rows R[e, j, w] = sum_d W[e, j, d] A[e, d, w] beta~[d, w] in its own
    buffer, and dft_basis(R) maps rows, of one term or of a sum of terms,
    to the DFT-basis matrix s.  The rows are one GEMM of the exponential
    table X[e, t] = exp(2 pi i c e t / N) with the (N, 2N) operand [dft |
    shift o dft], dft[t, d] = exp(2 pi i t d / N) / N the constant table set
    in __init__ and shift[t] = exp(-2 pi i c t) the shift of c delta by c
    N; X and the operand are temporaries of the call, and w is the only
    buffer it writes.  The rows depend on N and c only, so a caller that
    takes its terms grouped by ratio builds them once per ratio.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.t = np.arange(-(n // 2), n // 2)
        self.et = (2j * np.pi / n) * np.outer(np.arange(n), self.t)
        self.dft = np.ascontiguousarray(np.exp(self.et.T)) / n
        k = np.fft.fftfreq(n, 1.0 / n).astype(int)
        u, v = np.ogrid[:n, :n]
        # s[u, v] = S[e, j, u] with e = v - u and j = 1 where k_u - k_v = N - e
        self.select = ((v - u) % n, (k[u] - k[v] + (v - u) % n) // n, u)
        self.w = np.empty((n, 2, n), dtype=complex)
        self.q = np.empty((n, n, n), dtype=complex)
        self.rows = np.empty((n, 2, n), dtype=complex)
        self.twice = np.empty((2 * n, n), dtype=complex)
        self.hankel = sliding_window_view(self.twice, n, axis=0)[:n].transpose(0, 2, 1)

    def weights(self, c: float) -> None:
        """Build the Dirichlet rows of the ratio c for the next terms."""
        shift = np.exp(-2j * np.pi * c * self.t)
        operand = np.concatenate((self.dft, shift[:, None] * self.dft), axis=1)
        np.matmul(np.exp(self.et * c), operand, out=self.w.reshape(self.n, 2 * self.n))

    def term(self, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """The rows R at the built ratio, alpha = _diagonals(a, 1) and beta =
        _diagonals(b, -1); overwritten by the next call."""
        self.twice[: self.n] = alpha
        self.twice[self.n :] = alpha
        np.multiply(self.hankel, beta, out=self.q)
        return np.matmul(self.w, self.q, out=self.rows)

    def dft_basis(self, rows: np.ndarray) -> np.ndarray:
        """s[u, u + e] = ifft(R)[e, j, u], j the row of delta = k_u - k_(u+e)."""
        return np.fft.ifft(rows, axis=-1)[self.select]


def _diagonals(x: np.ndarray, sign: int) -> np.ndarray:
    """fft over p of the diagonals xh[..., p, p + sign * g], one row per g,
    of xh = F x F^-1: alpha~ for sign = 1, beta~ for sign = -1."""
    n = x.shape[-1]
    xh = np.fft.ifft(np.fft.fft(x, axis=-2), axis=-1)
    p = np.arange(n)
    # the gather puts the stack axis innermost in memory; the terms read
    # one node's N x N block, so it is copied node-major first
    diagonals = np.ascontiguousarray(xh[..., p, (p + sign * p[:, None]) % n])
    return np.fft.fft(diagonals, axis=-1)


def _from_dft(s: np.ndarray) -> np.ndarray:
    """F^-1 s F over the last two axes: a unitary conjugation."""
    return np.fft.fft(np.fft.ifft(s, axis=-2), axis=-1)


def _theta_term(
    ratio: Fraction, grid: GridSpec1D, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """partial_trace_second(W kron(a, b) W*) without materializing W."""
    kernel = _ThetaKernel(grid.n_points)
    kernel.weights(float(ratio))
    return _from_dft(kernel.dft_basis(kernel.term(_diagonals(a, 1), _diagonals(b, -1))))


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
    j: int,
    m: int,
    grid: GridSpec1D,
) -> np.ndarray:
    """Fused coefficient ptrace_2(W (F(t_j) kron G(t_m)) W*) at the node pair (j, m).

    j and m are integer lattice indices, t_j = j * delta; a float or a
    bool is a ValueError that names it.  Returns the zero matrix when
    j + m == 0 or when either index is off the stored lattice.
    """
    _check_pair(field_f, field_g, grid)
    j = as_count("j", j)
    m = as_count("m", m)
    tg = field_f.tgrid
    if j + m == 0 or tg.index_of(j) is None or tg.index_of(m) is None:
        return np.zeros((grid.n_points, grid.n_points), dtype=complex)
    return _theta_term(Fraction(m, j + m), grid, field_f.at_k(j), field_g.at_k(m))


def dual_convolution(
    field_f: OperatorField,
    field_g: OperatorField,
    grid: GridSpec1D,
    tol_skip: float = 0.0,
    with_theta_bounds: bool = False,
):
    """Dual convolution (F # G)(t_k) = sum_j Delta * theta1(F, G, j, k - j).

    The inner sum runs over lattice pairs (j, k - j) with both indices on
    the punctured lattice.  Pairs whose trace-norm product falls below
    tol_skip times the product of the largest node trace norms are
    skipped.  Each skipped term has trace norm at most that cut, and a
    node k has n_k pair terms, so its skipped mass is at most n_k *
    tol_skip * a_norm(F) * a_norm(G) / Delta; without the factor n_k the
    bound fails when many small terms are skipped at one node.

    With with_theta_bounds=True returns (field, bounds) where bounds[i] =
    sum_j Delta * ||theta1(...)||_1 over the same terms, the node-wise
    triangle-inequality majorant of the result.

    Cost: the output nodes are dealt by split.run_split in pairs (-k, k),
    |k| ascending, one thread per CPU, at most one per pair; worker w owns
    the pairs with (|k| - 1) % workers == w and the calling thread runs
    worker 0.  The calling thread computes the FFT'd diagonals alpha~ of
    every F node and beta~ of every G node once, and sorts the kept terms
    once by their exact ratio m/k, as the reduced integer pair.  Each
    worker walks that list, builds a ratio's Dirichlet rows once for its
    terms at that ratio (one N x N exponential table and one (N, N) @ (N,
    2N) GEMM; 969 builds in one worker for the 2,976 lattice terms at K =
    32), and runs each term as a copy of its alpha~ into the Hankel
    buffer, N^3 multiplies and one GEMM of 2 N^3 complex multiply-adds,
    with no FFT (see the module docstring for the identity); it adds the
    term's (N, 2, N) rows into its output node's accumulator.  A node has
    one term per ratio, so it takes its terms in the one order of their
    reduced pairs, and the result and bounds have the same bits on any
    core count.  Once its terms are done, a worker maps each of its nodes
    back with one ifft over the rows, the pick of the delta row and one
    2-d FFT.  The diagonals, 2 N^2 complex per node, the accumulator, as
    much again, the output table and each worker's kernel, one N^3 and a
    few N^2 buffers, are allocated once per call, in the calling thread.
    The bounds take one ifft and one SVD per term, of its DFT-basis
    matrix.  An exception in a worker is raised here once every worker
    has stopped.
    """
    _check_pair(field_f, field_g, grid)
    if not (math.isfinite(tol_skip) and tol_skip >= 0):
        raise ValueError(f"tol_skip must be finite and >= 0, got {tol_skip}")
    tg = field_f.tgrid
    n = grid.n_points
    tn_f = schatten_norm(field_f.mats, 1)
    tn_g = schatten_norm(field_g.mats, 1)
    cut = tol_skip * tn_f.max() * tn_g.max()
    # each term keyed by its ratio m/k as the reduced integer pair with k > 0,
    # so that, sorted, the terms of one ratio sit together, in one order for
    # every worker count
    terms = []
    for pos_j, j in enumerate(tg.ks):
        for pos_m, m in enumerate(tg.ks):
            k = j + m
            pos_k = tg.index_of(k)
            if pos_k is None or tn_f[pos_j] * tn_g[pos_m] <= cut:
                continue
            g = math.gcd(m, k) if k > 0 else -math.gcd(m, k)
            terms.append(((m // g, k // g), pos_j, pos_m, pos_k))
    terms.sort()
    alpha = _diagonals(field_f.mats, 1)
    beta = _diagonals(field_g.mats, -1)
    sums = np.zeros((tg.n_nodes, n, 2, n), dtype=complex)
    table = np.empty((tg.n_nodes, n, n), dtype=complex)
    bounds = np.zeros(tg.n_nodes)

    def run(share, kernel):
        """Add the terms of one worker's node pairs, by ratio, into their rows."""
        mine = {pos_k for pair in share for pos_k in pair}
        built = None
        for ratio, pos_j, pos_m, pos_k in terms:
            if pos_k not in mine:
                continue
            if ratio != built:
                kernel.weights(ratio[0] / ratio[1])
                built = ratio
            term = kernel.term(alpha[pos_j], beta[pos_m])
            sums[pos_k] += term
            if with_theta_bounds:
                # _from_dft is a unitary conjugation, so it keeps the trace norm
                bounds[pos_k] += schatten_norm(kernel.dft_basis(term), 1)
        for pos_k in mine:
            table[pos_k] = _from_dft(kernel.dft_basis(sums[pos_k]))

    # nodes k and -k share their terms' ratios, so they share a worker
    pairs = [(tg.index_of(-k), tg.index_of(k)) for k in range(1, tg.k_max + 1)]
    run_split(pairs, run, lambda: (_ThetaKernel(n),))
    table *= tg.delta
    result = OperatorField(tg, table)
    if with_theta_bounds:
        return result, tg.delta * bounds
    return result
