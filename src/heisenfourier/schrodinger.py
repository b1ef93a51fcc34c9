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
    """Shared precomputation for all frequencies over one (grid, box) pair.

    The shift T_x at each x node is circulant, so the plan keeps only its
    kernel row: an (nx, N) table, plus the (N, N) circulant index table
    that both the forward and the inverse formula gather through.
    Everything frequency-dependent is a cheap phase table.
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

    def coefficient(self, samples: np.ndarray, t: float, cell_volume: float):
        """Quadrature of f(v)*pi_t(v) over the box, z summed first.

        sum_i A[i, m] T_i[m, n] = (A^T @ kernel)[m, (m - n) mod N].
        """
        fz = samples @ np.exp(2j * np.pi * t * self.zs)
        P, E = self._phase_tables(t)
        A = (fz * P) @ E
        out = np.take_along_axis(A.T @ self.kernel, self.idx, axis=1)
        out *= cell_volume
        return out

    def invert_node(self, mat: np.ndarray, t: float) -> np.ndarray:
        """Samples of v -> Tr[mat * pi_t(v)^dagger] on the whole box.

        sum_n mat[m, n] conj(T_i[m, n])
            = sum_j conj(kernel[i, j]) mat[m, (m - j) mod N].
        """
        D = np.conj(self.kernel) @ np.take_along_axis(mat, self.idx, axis=1).T
        P, E = self._phase_tables(t)
        vxy = np.conj(P) * (D @ np.conj(E).T)
        ez = np.exp(-2j * np.pi * t * self.zs)
        return vxy[:, :, None] * ez[None, None, :]


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
        return plan.coefficient(f.samples, t, f.cell_volume)
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
    mats = np.empty((tgrid.n_nodes, n, n), dtype=complex)
    for pos, t in enumerate(tgrid.nodes):
        mats[pos] = abs(t) * plan.coefficient(f.samples, t, f.cell_volume)
    return OperatorField(tgrid, mats)
