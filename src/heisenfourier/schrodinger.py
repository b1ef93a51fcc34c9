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
The z axis is one matrix product for all nodes in each direction, in
the calling thread.  The x and y axes cost two phase tables per |t|: the
tables of -t are those of t conjugated.  The |t| groups are split across
the process's CPUs, one worker thread each, and every node is computed
whole by one worker, so the bits do not depend on the core count.
node_terms(fs, ts, grid, term) gives term(k, *coefs) for every node k,
in node order, with term run on the worker threads; only forward_field
keeps the coefficients, written straight into the field's node slots.
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
from .split import run_split


def rep_matrix(t: float, g, grid: GridSpec1D) -> np.ndarray:
    if t == 0:
        raise ValueError("representation parameter t must be nonzero")
    if not math.isfinite(t):
        raise ValueError(f"representation parameter must be finite, got {t}")
    x, y, z = g
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise ValueError(f"group element coordinates must be finite, got {tuple(g)}")
    phase = cmath.exp(2j * math.pi * t * z + 1j * math.pi * t * y * x)
    mod = np.exp(-2j * np.pi * (t * y) * grid.nodes)
    # diagonal modulation as a row scaling of the shift
    return phase * (mod[:, None] * fractional_shift_op(grid, x))


class _TransformPlan:
    """Transforms over a list of K frequency nodes on one (grid, box) pair.

    The shift T_x at each x node is circulant, so the plan keeps only its
    kernel row: an (nx, N) table, plus the (N, N) table of flat circulant
    positions that both the forward and the inverse formula gather through.

    Each direction applies the z axis once for all K nodes, in the
    calling thread: coefficients as one (nx*ny, nz) @ (nz, K) product per
    sample array, invert as one (nx*ny, K) @ (K, nz) product.  The x and
    y axes go node by node through two phase tables, P (nx, ny) and
    E (ny, N).  The tables of -t are the complex conjugates of those of
    t, so nodes are grouped by |t| and one pair of tables serves both
    signs.  The |t| groups are dealt round-robin to one worker thread per
    CPU (split.run_split); a worker builds the tables of each of its
    groups and computes that group's nodes.  Every node is computed
    whole by one worker, with the same operations as on one core, so no
    bit depends on the core count.  Results are keyed by the node's
    position k in the list, whatever the visiting order.
    """

    def __init__(self, grid: GridSpec1D, box, counts):
        self.grid = grid
        self.xs, self.ys, self.zs = box_axes(box, counts)
        self.kernel = shift_kernel(grid, self.xs)
        n = grid.n_points
        # flat positions of mat[m, (m - j) mod N], for np.take into a buffer
        self.gather = circulant_index(n) + n * np.arange(n)[:, None]
        self.xy = np.outer(self.xs, self.ys)
        self.yw = np.outer(self.ys, grid.nodes)

    def _phase_tables(self, t: float, P: np.ndarray, E: np.ndarray) -> None:
        """Write the tables of t into P (nx, ny) and E (ny, N)."""
        np.exp(np.multiply(1j * np.pi * t, self.xy, out=P), out=P)
        np.exp(np.multiply(-2j * np.pi * t, self.yw, out=E), out=E)

    def _split(self, ts, node, shapes) -> None:
        """node(k, P, E, *buffers) with the tables of ts[k] for every k, on the workers.

        buffers are complex work arrays of the given shapes.  The tables and
        buffers of every worker are allocated in the calling thread:
        worker-side allocations would sit in per-thread malloc arenas and
        raise peak RSS.
        """
        groups = {}
        for k, t in enumerate(ts):
            groups.setdefault(abs(t), []).append(k)
        shapes = (self.xy.shape, self.yw.shape) * 2 + tuple(shapes)

        def work(share, P, E, conj_P, conj_E, *buffers):
            for abs_t, ks in share:
                self._phase_tables(abs_t, P, E)
                if any(ts[k] < 0 for k in ks):
                    np.conj(P, out=conj_P)
                    np.conj(E, out=conj_E)
                for k in ks:
                    if ts[k] < 0:
                        node(k, conj_P, conj_E, *buffers)
                    else:
                        node(k, P, E, *buffers)

        run_split(
            groups.items(), work, lambda: [np.empty(sh, dtype=complex) for sh in shapes]
        )

    def coefficients(self, samples: tuple, ts, cell_volume: float, each) -> None:
        """each(k, coef_1, coef_2, ...): the quadrature of f(v)*pi_{ts[k]}(v)
        over the box for every node, one coefficient per (nx, ny, nz) array
        of samples, all from one pair of phase tables.

        each runs on the worker threads, several at once, and must write
        only the caller's slot k; the coefficients are fresh arrays it may
        keep.  The plan holds no stack of node matrices.

        The z sums of all nodes come from one product per array; each
        coefficient is then sum_i A[i, m] T_i[m, n] = (A^T @ kernel)[m, (m - n) mod N].
        """
        ts = np.asarray(ts, dtype=float)
        nx, ny, nz = samples[0].shape
        n = self.grid.n_points
        ez = np.exp(np.outer(self.zs, 2j * np.pi * ts))
        fzs = [s.reshape(nx * ny, nz) @ ez for s in samples]

        def node(k, P, E, xy, A, S):
            coefs = []
            for fz in fzs:
                np.matmul(np.multiply(fz[:, k].reshape(nx, ny), P, out=xy), E, out=A)
                np.matmul(A.T, self.kernel, out=S)
                out = np.take(S, self.gather)
                out *= cell_volume
                coefs.append(out)
            each(k, *coefs)

        self._split(ts, node, ((nx, ny), (nx, n), (n, n)))

    def invert(self, mats: np.ndarray, ts, delta: float) -> np.ndarray:
        """Samples of v -> sum_k delta Tr[mats[k] pi_{ts[k]}(v)^dagger] on the box.

        sum_n mat[m, n] conj(T_i[m, n])
            = sum_j conj(kernel[i, j]) mat[m, (m - j) mod N];
        the conjugated phase tables of t are the tables of -t.  Each
        worker fills the table rows of its own nodes.
        """
        ts = np.asarray(ts, dtype=float)
        nx, ny, nz = len(self.xs), len(self.ys), len(self.zs)
        n = self.grid.n_points
        ckernel = np.conj(self.kernel)
        table = np.empty((len(ts), nx * ny), dtype=complex)

        def node(k, P, E, G, D, X):
            np.take(mats[k], self.gather, out=G, mode="clip")
            np.matmul(ckernel, G.T, out=D)
            np.matmul(D, E.T, out=X)
            # the operand order of a complex product sets its last bits
            np.multiply(X, P, out=table[k].reshape(nx, ny))

        self._split(-ts, node, ((n, n), (nx, n), (nx, ny)))
        ez = delta * np.exp(np.outer(-2j * np.pi * ts, self.zs))
        return (table.T @ ez).reshape(nx, ny, nz)


def node_terms(fs, ts, grid: GridSpec1D, term) -> np.ndarray:
    """np.array([term(k, *coefs) for every k]) in node order, coefs the
    bare coefficients pi_{ts[k]}(f) of each f in fs, from one plan pass.

    fs is one sampled function or a tuple of them on one box.  term runs
    on the worker threads, several at once; it returns node k's value and
    writes nothing shared.
    """
    fs = (fs,) if isinstance(fs, SampledFunction3D) else tuple(fs)
    if not all(fs[0].same_grid(g) for g in fs[1:]):
        raise ValueError("node terms need functions sampled on one box")
    values = [None] * len(ts)

    def each(k, *coefs):
        values[k] = term(k, *coefs)

    plan = _TransformPlan(grid, fs[0].box, fs[0].counts)
    plan.coefficients(tuple(f.samples for f in fs), ts, fs[0].cell_volume, each)
    return np.array(values)


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
        return node_terms(f, [t], grid, lambda k, coef: coef)[0]
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

    def each(k, coef):
        np.multiply(abs(ts[k]), coef, out=mats[k])

    plan.coefficients((f.samples,), ts, f.cell_volume, each)
    return OperatorField(tgrid, mats)
