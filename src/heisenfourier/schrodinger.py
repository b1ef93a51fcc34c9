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

The transform has one driver per direction: node_terms for the forward
coefficients of any node list, inverse_transform_grid for the inverse of
a field on a box.  Each applies the z axis for all nodes in one matrix
product in the calling thread (for the forward transform of a real f,
whose samples are float64, a real product on the float view of the z
table), then the x and y axes node by node, with the |t| groups split
across the CPUs (_split).  A worker's scratch is one pair of phase
tables, built at a group's first node and conjugated in place where the
sign of t changes, and the buffers each node writes.  Each table is the
product of the temporary exponentials of a coarse and a fine factor of
its uniform axis (_phase_tables), so an R x C table costs R * (C/q + q)
complex exponentials, q near sqrt(C).  A forward node costs an (nx, ny)
@ (ny, N) x/y product and the circulant stage, an (N, nx) @ (nx, N)
product and a gather; for a real f pi_{-t}(f) differs from conj pi_t(f)
only through the kernel's unpaired Nyquist term, so a real f takes one
x/y product per |t| and -t reuses its conjugate, while the circulant
stage stays per node.  forward_field is node_terms with a term that
writes |t|*coef into the field's node slot, so the field is held once.
fourier_coefficient's "direct" path and plancherel.inverse_transform are
the literal per-sample and per-point oracles for the two directions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .field import OperatorField, TGrid
from .grid import GridSpec1D, circulant_view, shift_kernel
from .group import GroupElement, SampledFunction3D, box_axes
from .split import run_split


def _check_t(t) -> None:
    if t == 0:
        raise ValueError("representation parameter t must be nonzero")
    if not math.isfinite(t):
        raise ValueError(f"representation parameter must be finite, got {t}")


def rep_matrix(t: float, g, grid: GridSpec1D) -> np.ndarray:
    """pi_t(g) on the carrier grid.  The largest modulation argument
    2*pi*|t*y|*L and the central argument 2*pi*t*z + pi*t*y*x must be
    finite; both are checked in Python floats, in the order numpy and
    cmath form them, before either computes a phase."""
    _check_t(t)
    x, y, z = g
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise ValueError(f"group element coordinates must be finite, got {tuple(g)}")
    if not math.isfinite(2.0 * math.pi * abs(t * y) * grid.half_width):
        raise ValueError(
            f"t = {t} and {tuple(g)} overflow the modulation phases 2*pi*t*y*w of the grid {grid}"
        )
    if not math.isfinite(2.0 * math.pi * t * z + math.pi * t * y * x):
        raise ValueError(f"t = {t} and {tuple(g)} overflow the central phase 2*pi*t*z + pi*t*y*x")
    phase = cmath.exp(2j * math.pi * t * z + 1j * math.pi * t * y * x)
    mod = np.exp(-2j * np.pi * (t * y) * grid.nodes)
    # diagonal modulation as a row scaling of the shift T_x, read from
    # T_x's strided view into one fresh array.  The order of a complex
    # product sets its last bits, so phase stays the left operand of a
    # temporary: numpy then multiplies a temporary of 256 KiB or more in
    # place as temporary * phase, and smaller ones as phase * temporary.
    return phase * (mod[:, None] * circulant_view(shift_kernel(grid, x)))


def _coarse_fine(a, b) -> tuple:
    """outer(a, b) for a uniform b as a coarse and a fine factor,
    outer(a, b[::q]) and outer(a, b[:q] - b[0]), by

        b[q*i + j] = b[q*i] + (b[j] - b[0]),

    q the largest divisor of len(b) not above its square root.  The
    factors are complex, so the workers' products need no cast: numpy
    buffers a cast in the worker's own malloc arena, which raises peak RSS."""
    n = len(b)
    q = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return np.outer(a, b[::q]).astype(complex), np.outer(a, b[:q] - b[0]).astype(complex)


def _box_tables(grid: GridSpec1D, xs, ys) -> tuple:
    """The t-free tables of a box: the shift kernel rows (nx, N), as T_x
    is circulant; the flat positions of mat[m, (m - j) mod N] (N, N) that
    both directions gather through; and the coarse and fine factors of
    xy = outer(xs, ys) and yw = outer(ys, grid.nodes) (_coarse_fine)
    whose exponentials the phase tables multiply."""
    n = grid.n_points
    gather = circulant_view(np.arange(n)) + n * np.arange(n)[:, None]
    factors = (_coarse_fine(xs, ys), _coarse_fine(ys, grid.nodes))
    return shift_kernel(grid, xs), gather, factors


def _phase_tables(t: float, factors, P: np.ndarray, E: np.ndarray) -> None:
    """Write the tables of t, exp(i*pi*t*xy) into P (nx, ny) and
    exp(-2*pi*i*t*yw) into E (ny, N).

    Each table is the broadcast product of the exponentials of its coarse
    and fine factors, temporaries of this call: at the plancherel level-2
    scales (128 x 384 samples, N = 256) that is 17,408 complex
    exponentials per pair of tables instead of 147,456.  Neither factor's
    argument exceeds the table's, so each entry differs from the literal
    exponential by a few roundoffs times the largest argument, as the
    literal's own rounding of the argument does."""
    for table, c, (coarse, fine) in zip((P, E), (1j * np.pi * t, -2j * np.pi * t), factors):
        out = table.reshape(coarse.shape + (-1,))
        np.multiply(np.exp(c * coarse)[:, :, None], np.exp(c * fine)[:, None, :], out=out)


def _split(ts, factors, node, shapes) -> None:
    """node(k, prev, P, E, *buffers) with the tables of ts[k] for every k, on the workers.

    One pair of tables serves each |t| group: built at its first node, it
    is conjugated in place before a node whose sign differs from the one
    before, as the tables of -t are those of t conjugated.  run_split's
    workers compute every group whole and in node order, so no bit
    depends on the core count.  prev is the node of k's group that ran
    just before k on the same buffers, or None for the group's first
    node, so a node may reuse what prev left in them.  The tables, which
    a group's nodes share, and the complex buffers of the given shapes,
    which each node writes, are run_split's scratch.
    """
    groups = {}
    for k, t in enumerate(ts):
        groups.setdefault(abs(t), []).append(k)
    shapes = [(len(c), c.shape[1] * f.shape[1]) for c, f in factors] + list(shapes)

    def work(share, P, E, *buffers):
        for ks in share:
            _phase_tables(ts[ks[0]], factors, P, E)
            for prev, k in zip([None] + ks[:-1], ks):
                if prev is not None and (ts[prev] < 0) != (ts[k] < 0):
                    np.conj(P, out=P)
                    np.conj(E, out=E)
                node(k, prev, P, E, *buffers)

    run_split(groups.values(), work, lambda: [np.empty(sh, dtype=complex) for sh in shapes])


def _z_sums(samples: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """samples.reshape(nx*ny, nz) @ ez, the (nx*ny, K) z sums of every node.

    Real samples multiply the interleaved float view of ez, (nz, 2K), in
    one real product whose rows are the complex sums re, im, re, ...: half
    the real flops of the complex product, and no complex copy of the
    samples, which numpy's implicit cast would make."""
    flat = samples.reshape(-1, samples.shape[-1])
    if np.iscomplexobj(flat):
        return flat @ ez
    return (flat @ ez.view(float)).view(complex)


def node_terms(fs, ts, grid: GridSpec1D, term) -> np.ndarray:
    """np.array([term(k, *coefs) for every k]) in node order, coefs the
    bare coefficients pi_{ts[k]}(f) of each f in fs, from one pass.

    fs is one sampled function or a non-empty tuple of them on one box;
    ts is a 1-d list of nonzero finite nodes.  term runs on the worker
    threads, several at once; it returns node k's value and writes
    nothing but its own slot k.  The coefficients are fresh arrays it
    may keep.

    The z sums of all nodes come from one (nx*ny, nz) @ (nz, K) product
    per function, in the calling thread (_z_sums); each coefficient is
    then sum_i A[i, m] T_i[m, n] = (A^T @ kernel)[m, (m - n) mod N], with
    A = (fz_k * P) @ E, fz_k the z sums of node k as an (nx, ny) array
    and P, E the x/y phase tables of ts[k].  The samples' dtype decides
    the path.  A real f, float64 samples, takes its z sums as one real
    (nx*ny, nz) @ (nz, 2K) product on the interleaved float view of the
    z table, with no complex copy of the samples.  Its z sums and the
    tables of -t are those of t conjugated, and so is A: a real f takes
    one (nx, ny) @ (ny, N) product per |t| group, computed by the
    group's first node and used by each later node as it is (same t) or
    conjugated in place (-t).  The circulant stage stays per node, as
    the kernel's unpaired Nyquist term breaks the symmetry.  A complex
    f, such as d_z f, takes the complex z product and the x/y product at
    every node.
    """
    fs = (fs,) if isinstance(fs, SampledFunction3D) else tuple(fs)
    if not fs:
        raise ValueError("node terms need at least one function in fs")
    if not all(fs[0].same_grid(g) for g in fs[1:]):
        raise ValueError("node terms need functions sampled on one box")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"ts must be a 1-d list of nodes, got shape {ts.shape}")
    for t in ts:
        _check_t(t)
    xs, ys, zs = fs[0].axes
    kernel, gather, factors = _box_tables(grid, xs, ys)
    nx, ny, nz = fs[0].counts
    n = grid.n_points
    cell_volume = fs[0].cell_volume
    ez = np.exp(np.outer(zs, 2j * np.pi * ts))
    fzs = [_z_sums(f.samples, ez) for f in fs]
    reals = [not np.iscomplexobj(f.samples) for f in fs]
    values = [None] * len(ts)

    def node(k, prev, P, E, XY, S, *As):
        coefs = []
        for fz, real, A in zip(fzs, reals, As):
            if not real or prev is None:
                np.matmul(np.multiply(fz[:, k].reshape(nx, ny), P, out=XY), E, out=A)
            elif (ts[prev] < 0) != (ts[k] < 0):
                # A still holds the product of -ts[k]
                np.conj(A, out=A)
            np.matmul(A.T, kernel, out=S)
            out = np.take(S, gather)
            out *= cell_volume
            coefs.append(out)
        values[k] = term(k, *coefs)

    _split(ts, factors, node, ((nx, ny), (n, n)) + ((nx, n),) * len(fs))
    return np.array(values)


def inverse_transform_grid(F: OperatorField, box, counts, grid: GridSpec1D) -> np.ndarray:
    """Samples of v -> sum_k delta Tr[F(t_k) pi_{t_k}(v)^dagger] on the box.

    Same quadrature as plancherel.inverse_transform, the pointwise oracle.
    The x and y axes go node by node through

        sum_n mat[m, n] conj(T_i[m, n])
            = sum_j conj(kernel[i, j]) mat[m, (m - j) mod N]

    and the conjugated phase tables of t, which are the tables of -t;
    the z axis is one (nx*ny, K) @ (K, nz) product for the whole lattice.
    """
    if F.dim != grid.n_points:
        raise ValueError("field dimension does not match the carrier grid")
    xs, ys, zs = box_axes(box, counts)
    kernel, gather, factors = _box_tables(grid, xs, ys)
    ts = F.tgrid.nodes
    nx, ny, nz = len(xs), len(ys), len(zs)
    n = grid.n_points
    ckernel = np.conj(kernel)
    table = np.empty((len(ts), nx * ny), dtype=complex)

    def node(k, prev, P, E, G, D):
        np.take(F.mats[k], gather, out=G, mode="clip")
        np.matmul(ckernel, G.T, out=D)
        X = np.matmul(D, E.T, out=table[k].reshape(nx, ny))
        # the operand order of a complex product sets its last bits
        np.multiply(X, P, out=X)

    _split(-ts, factors, node, ((n, n), (nx, n)))
    ez = F.tgrid.delta * np.exp(np.outer(-2j * np.pi * ts, zs))
    return (table.T @ ez).reshape(nx, ny, nz)


def fourier_coefficient(
    f: SampledFunction3D, t: float, grid: GridSpec1D, method: str = "fast"
) -> np.ndarray:
    """Discrete pi_t(f): rectangle-rule sum of f(v)*rep_matrix(t, v) over the box.

    method "fast" factors the sum through a partial z transform and the
    circulant shift kernels; "direct" is the literal per-sample sum kept
    as the reference path.  Both produce the same quadrature.
    """
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
    ts = tgrid.nodes
    mats = np.empty((tgrid.n_nodes, grid.n_points, grid.n_points), dtype=complex)

    def term(k, coef):
        # written in place and not returned, so the field is held once
        np.multiply(abs(ts[k]), coef, out=mats[k])

    node_terms(f, ts, grid, term)
    return OperatorField(tgrid, mats)
