"""Schrodinger representation matrices and the group Fourier transform.

For t != 0 the representation of a group element (x, y, z) acts on the
periodic carrier grid as

    pi_t(x,y,z) = exp(2*pi*i*t*z + pi*i*t*y*x) * M_{t*y} * T_x,

with T_x the band-limited shift and M_beta the modulation from grid.py.
The ordering is fixed by the group law: translate first, then modulate,
then the central phase.  M and T do not commute; do not reorder.

Matrices built here approximate integral kernels scaled by the carrier
spacing.  With that normalization, matrix traces, Frobenius norms and
singular values approximate their continuum counterparts directly, with
no leftover grid factors.  Errors enter only through aliasing, so test
functions must decay to numerical noise inside their sample box and the
operators they generate must stay band-limited within the carrier.

Transforms over a frequency lattice go through one _TransformPlan per
(grid, box) pair, which handles every node of the lattice in one call.
The z axis is one matrix product for all nodes in each direction.  The
forward pass streams its coefficients one node at a time, so no stack of
node matrices is held beyond the caller's own.  The x and y axes cost two
phase tables per |t|: the tables of -t are those of t conjugated.
fourier_coefficient's "direct" path and plancherel.inverse_transform are
the literal per-sample and per-point oracles for the two directions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .field import OperatorField, TGrid
from .grid import GridSpec1D, circulant_index, fractional_shift_op, shift_kernel
from .group import GroupElement, SampledFunction3D, box_axes


def rep_matrix(t: float, g, grid: GridSpec1D) -> np.ndarray:
    if t == 0:
        raise ValueError("representation parameter t must be nonzero")
    if not math.isfinite(t):
        raise ValueError(f"representation parameter must be finite, got {t}")
    x, y, z = g
    phase = cmath.exp(2j * math.pi * t * z + 1j * math.pi * t * y * x)
    mod = np.exp(-2j * np.pi * (t * y) * grid.nodes)
    # diagonal modulation as a row scaling of the shift
    return phase * (mod[:, None] * fractional_shift_op(grid, x))


class _TransformPlan:
    """Transforms over a list of K frequency nodes on one (grid, box) pair.

    The shift T_x at each x node is circulant, so the plan keeps only its
    kernel row: an (nx, N) table, plus the (N, N) circulant index table
    that both the forward and the inverse formula gather through.

    Each direction applies the z axis once for all K nodes: coefficients
    as one (nx*ny, nz) @ (nz, K) product, invert as one (nx*ny, K) @
    (K, nz) product.  The x and y axes go node by node through two phase
    tables, P (nx, ny) and E (ny, N).  The tables of -t are the complex
    conjugates of those of t, so nodes are visited grouped by |t| and one
    pair of tables serves both signs.  Results are keyed by the node's
    position k in the list, whatever the visiting order.
    """

    def __init__(self, grid: GridSpec1D, box, counts):
        self.grid = grid
        self.xs, self.ys, self.zs = box_axes(box, counts)
        self.kernel = shift_kernel(grid, self.xs)
        self.idx = circulant_index(grid.n_points)

    def _phase_tables(self, t: float):
        P = np.exp(1j * np.pi * t * np.outer(self.xs, self.ys))
        E = np.exp(-2j * np.pi * t * np.outer(self.ys, self.grid.nodes))
        return P, E

    def _node_tables(self, ts):
        """(k, P, E) for every node ts[k], grouped by |t|."""
        groups = {}
        for k, t in enumerate(ts):
            groups.setdefault(abs(t), []).append(k)
        for abs_t, ks in groups.items():
            P, E = self._phase_tables(abs_t)
            for k in ks:
                if ts[k] < 0:
                    yield k, np.conj(P), np.conj(E)
                else:
                    yield k, P, E

    def coefficients(self, samples: np.ndarray, ts, cell_volume: float):
        """Yield (k, quadrature of f(v)*pi_{ts[k]}(v) over the box), one node at a time.

        The z sums of all nodes come from one product; each coefficient is
        then sum_i A[i, m] T_i[m, n] = (A^T @ kernel)[m, (m - n) mod N].
        """
        ts = np.asarray(ts, dtype=float)
        nx, ny, nz = samples.shape
        ez = np.exp(np.outer(self.zs, 2j * np.pi * ts))
        fz = samples.reshape(nx * ny, nz) @ ez
        for k, P, E in self._node_tables(ts):
            A = (fz[:, k].reshape(nx, ny) * P) @ E
            out = np.take_along_axis(A.T @ self.kernel, self.idx, axis=1)
            out *= cell_volume
            yield k, out

    def invert(self, mats: np.ndarray, ts, weights) -> np.ndarray:
        """Samples of v -> sum_k weights[k] Tr[mats[k] pi_{ts[k]}(v)^dagger] on the box.

        sum_n mat[m, n] conj(T_i[m, n])
            = sum_j conj(kernel[i, j]) mat[m, (m - j) mod N];
        the conjugated phase tables of t are the tables of -t.
        """
        ts = np.asarray(ts, dtype=float)
        nx, ny, nz = len(self.xs), len(self.ys), len(self.zs)
        ckernel = np.conj(self.kernel)
        table = np.empty((len(ts), nx * ny), dtype=complex)
        for k, P, E in self._node_tables(-ts):
            D = ckernel @ np.take_along_axis(mats[k], self.idx, axis=1).T
            table[k] = (P * (D @ E.T)).ravel()
        ez = np.asarray(weights)[:, None] * np.exp(np.outer(-2j * np.pi * ts, self.zs))
        return (table.T @ ez).reshape(nx, ny, nz)


def fourier_coefficient(
    f: SampledFunction3D, t: float, grid: GridSpec1D, method: str = "fast"
) -> np.ndarray:
    """Discrete pi_t(f): rectangle-rule sum of f(v)*rep_matrix(t, v) over the box.

    method "fast" factors the sum through a partial z transform and the
    circulant shift kernels; "direct" is the literal per-sample sum kept
    as the reference path.  Both produce the same quadrature.
    """
    if t == 0:
        raise ValueError("representation parameter t must be nonzero")
    if not math.isfinite(t):
        raise ValueError(f"representation parameter must be finite, got {t}")
    if method == "fast":
        plan = _TransformPlan(grid, f.box, f.counts)
        [(_, coef)] = plan.coefficients(f.samples, [t], f.cell_volume)
        return coef
    if method == "direct":
        return _coefficient_direct(f, t, grid)
    raise ValueError(f"unknown method {method!r}")


def _coefficient_direct(f: SampledFunction3D, t: float, grid: GridSpec1D):
    xs, ys, zs = f.axes
    out = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            for k, z in enumerate(zs):
                out += f.samples[i, j, k] * rep_matrix(t, GroupElement(x, y, z), grid)
    out *= f.cell_volume
    return out


def forward_field(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D):
    """The measure-absorbed transform: node matrix |t_k| * pi_{t_k}(f)."""
    plan = _TransformPlan(grid, f.box, f.counts)
    n = grid.n_points
    ts = tgrid.nodes
    mats = np.empty((tgrid.n_nodes, n, n), dtype=complex)
    for k, coef in plan.coefficients(f.samples, ts, f.cell_volume):
        mats[k] = abs(ts[k]) * coef
    return OperatorField(tgrid, mats)
