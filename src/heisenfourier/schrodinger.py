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
coefficients on a lattice, inverse_transform_grid for the inverse of a
field on a box.  Each applies the z axis for all nodes in one matrix
product in the calling thread (for the forward transform of a real f,
whose samples are float64, a real product on the float view of the z
table), then the x and y axes node by node, with the lattice's (-k, k)
pairs split across the CPUs (_split).  A worker's scratch is one pair of
phase tables, built at a pair's -k node and conjugated in place for its
k node, and the buffers each node writes.  Each table is the product of
the temporary exponentials of a coarse and a fine factor of its uniform
axis (_phase_tables), so an R x C table costs R * (C/q + q) complex
exponentials, q near sqrt(C).  Each shift kernel is a real Dirichlet
(periodic-sinc) row plus the rank-one term of the one unpaired Nyquist
frequency (_box_tables), so the circulant stage of either direction is
one real product on the float view of a complex operand, half the flops
of the complex product, and a rank-one update.  A forward node costs an
(nx, ny) @ (ny, N) complex x/y product, an (N, nx) @ (nx, 2N) real
circulant product, a gather and the Nyquist term; for a real f the two
products of k are those of -k conjugated, so they run once per pair and
its k node conjugates them in place.  An inverse node costs a gather, an
(nx, N) @ (N, 2N) real product with the Nyquist term and an (nx, N) @
(N, ny) complex product.  forward_field is node_terms with a term that
writes |t|*coef into the field's node slot, so the field is held once.
fourier_coefficient's "direct" path and plancherel.inverse_transform are
the literal per-sample and per-point oracles for the two directions.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .field import OperatorField, TGrid
from .grid import GridSpec1D, circulant_view, shift_kernel, shift_phases
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
    t = float(t)
    _check_t(t)
    x, y, z = map(float, g)
    if not all(math.isfinite(c) for c in (x, y, z)):
        raise ValueError(f"group element coordinates must be finite, got {tuple(g)}")
    if not math.isfinite(2.0 * math.pi * abs(t * y) * grid.half_width):
        raise ValueError(
            f"t = {t} and {(x, y, z)} overflow the modulation phases 2*pi*t*y*w of the grid {grid}"
        )
    if not math.isfinite(2.0 * math.pi * t * z + math.pi * t * y * x):
        raise ValueError(f"t = {t} and {(x, y, z)} overflow the central phase 2*pi*t*z + pi*t*y*x")
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
    """The t-free tables of a box: the shift kernels of xs split as

        shift_kernel(grid, xs) = rows + outer(nyquist, s) / N,  s = (-1)^j,

    rows (nx, N) the real Dirichlet (periodic-sinc) kernels of the paired
    frequencies, whose phases are Hermitian once the Nyquist bin is
    zeroed, and nyquist (nx,) that bin, exp(i*pi*x/h), the phase of the
    one unpaired frequency -N/(4L); and the coarse and fine factors of
    xy = outer(xs, ys) and yw = outer(ys, grid.nodes) (_coarse_fine)
    whose exponentials the phase tables multiply.  The rows are the real
    part of an ifft, as shift_kernel's are, not an irfft: a process's
    first irfft maps 0.3 to 0.8 MB more of numpy's FFT."""
    n = grid.n_points
    phases = shift_phases(grid, xs)
    nyquist = phases[:, n // 2].copy()
    phases[:, n // 2] = 0.0
    factors = (_coarse_fine(xs, ys), _coarse_fine(ys, grid.nodes))
    return np.fft.ifft(phases, axis=-1).real.copy(), nyquist, factors


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


def _check_phases(tgrid: TGrid, factors, zs, box, grid: GridSpec1D) -> None:
    """The largest phase arguments of a lattice on a box, those of its
    outermost node, must be finite: pi*t*x*y of the P tables, 2*pi*t*y*w
    of the E tables and 2*pi*t*z of the z table.  Each is checked in
    Python floats, in the order numpy forms it from the factors of
    _box_tables and the z axis, before numpy computes a phase."""
    t = tgrid.k_max * tgrid.delta
    xy, yw = (max(float(np.max(np.abs(a))) for a in pair) for pair in factors)
    z = float(np.max(np.abs(zs)))
    for name, arg in (
        ("pi*t*x*y", math.pi * t * xy),
        ("2*pi*t*y*w", 2.0 * math.pi * t * yw),
        ("2*pi*t*z", 2.0 * math.pi * t * z),
    ):
        if not math.isfinite(arg):
            raise ValueError(
                f"{tgrid} overflows the phases {name} of the box {box} on the carrier {grid}"
            )


def _split(tgrid: TGrid, factors, node, shapes) -> None:
    """node(j, first, P, E, *buffers) with the tables of tgrid.nodes[j] for every j, on the workers.

    run_split deals tgrid.pairs.  A pair's worker builds the tables of
    its -k node, runs that node with first True, conjugates the tables in
    place, which makes them the tables of k, and runs the k node with
    first False on the same buffers, so it may reuse what the -k node
    left in them.  Each pair is computed whole, in one worker, so no bit
    depends on the core count.  The tables and the complex buffers of the
    given shapes, which each node writes, are run_split's scratch.
    """
    shapes = [(len(c), c.shape[1] * f.shape[1]) for c, f in factors] + list(shapes)

    def work(share, P, E, *buffers):
        for neg, pos in share:
            _phase_tables(tgrid.nodes[neg], factors, P, E)
            node(neg, True, P, E, *buffers)
            np.conj(P, out=P)
            np.conj(E, out=E)
            node(pos, False, P, E, *buffers)

    run_split(tgrid.pairs, work, lambda: [np.empty(sh, dtype=complex) for sh in shapes])


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


def node_terms(fs, tgrid: TGrid, grid: GridSpec1D, term) -> np.ndarray:
    """np.array([term(k, *coefs) for every k]) in lattice order, coefs
    the bare coefficients pi_{t_k}(f) of each f in fs at the node t_k =
    tgrid.nodes[k], from one pass.

    fs is one sampled function or a non-empty tuple of them on one box.
    term runs on the worker threads, several at once; it returns node
    k's value and writes nothing but its own slot k.  The coefficients
    are fresh arrays it may keep.  A lattice whose phases overflow on
    the box is a ValueError (_check_phases).

    The z sums of all nodes come from one (nx*ny, nz) @ (nz, K) product
    per function, in the calling thread (_z_sums); each coefficient is
    then sum_i A[i, m] T_i[m, n] = (A^T @ kernel)[m, (m - n) mod N], with
    A = (fz_k * P) @ E, fz_k the z sums of node k as an (nx, ny) array
    and P, E the x/y phase tables of t_k.  With the kernel split as in
    _box_tables that is R[(m - n) mod N, m] + (u*s)[m] s[n] / N, where
    R = rows^T @ A is one real (N, nx) @ (nx, 2N) product on A's float
    view, written into the float view of an (N, N) complex buffer, and
    u = nyquist @ A; the cell volume scales rows and nyquist once per
    call.  The samples' dtype decides the path.  A real f,
    float64 samples, takes its z sums as one real product on the
    interleaved float view of the z table, with no complex copy of the
    samples.  Its z sums and the tables of k are those of -k conjugated,
    and so are A and, as the rows are real, R: a real f takes the complex
    (nx, ny) @ (ny, N) product and the real one once per pair, at its -k
    node, and the k node conjugates them in place, then costs a gather, u
    and the rank-one term.  A complex f, such as d_z f, takes the complex
    z product and both x products at every node.
    """
    fs = (fs,) if isinstance(fs, SampledFunction3D) else tuple(fs)
    if not fs:
        raise ValueError("node terms need at least one function in fs")
    if not all(fs[0].same_grid(g) for g in fs[1:]):
        raise ValueError("node terms need functions sampled on one box")
    if not isinstance(tgrid, TGrid):
        raise ValueError(f"tgrid must be a TGrid, got {type(tgrid).__name__}")
    ts = tgrid.nodes
    xs, ys, zs = fs[0].axes
    rows, nyquist, factors = _box_tables(grid, xs, ys)
    _check_phases(tgrid, factors, zs, fs[0].box, grid)
    nx, ny, nz = fs[0].counts
    n = grid.n_points
    # the quadrature weight rides on the kernel, not on each coefficient
    rows *= fs[0].cell_volume
    nyquist *= fs[0].cell_volume / n
    # flat positions of R[(m - n) mod N, m]
    gather = n * circulant_view(np.arange(n)) + np.arange(n)[:, None]
    ez = np.exp(np.outer(zs, 2j * np.pi * ts))
    fzs = [_z_sums(f.samples, ez) for f in fs]
    reals = [not np.iscomplexobj(f.samples) for f in fs]
    values = [None] * len(ts)

    def node(k, first, P, E, XY, *buffers):
        coefs = []
        for fz, real, R, A in zip(fzs, reals, buffers[::2], buffers[1::2]):
            if first or not real:
                np.matmul(np.multiply(fz[:, k].reshape(nx, ny), P, out=XY), E, out=A)
                np.matmul(rows.T, A.view(float), out=R.view(float))
            else:
                # A and R still hold the products of -t_k
                np.conj(A, out=A)
                np.conj(R, out=R)
            out = np.take(R, gather)
            u = nyquist @ A
            # (u*s)[m] s[n] with s = (-1)^n, in place on the columns of each sign
            u[1::2] *= -1.0
            out[:, 0::2] += u[:, None]
            out[:, 1::2] -= u[:, None]
            coefs.append(out)
        values[k] = term(k, *coefs)

    _split(tgrid, factors, node, ((nx, ny),) + ((n, n), (nx, n)) * len(fs))
    return np.array(values)


def inverse_transform_grid(F: OperatorField, box, counts, grid: GridSpec1D) -> np.ndarray:
    """Samples of v -> sum_k delta Tr[F(t_k) pi_{t_k}(v)^dagger] on the box.

    Same quadrature as plancherel.inverse_transform, the pointwise oracle.
    The x and y axes go node by node through

        D[i, m] = sum_n mat[m, n] conj(T_i[m, n])
                = sum_j conj(kernel[i, j]) mat[m, (m - j) mod N]
                = (rows @ G)[i, m] + conj(nyquist[i]) (s @ G)[m] / N,

    with G[j, m] = mat[m, (m - j) mod N] gathered in that transposed
    layout, so that rows @ G is one real (nx, N) @ (N, 2N) product on
    G's float view (_box_tables), and the conjugated phase tables of t,
    which are the tables of -t: D @ E^T, an (nx, N) @ (N, ny) complex
    product, times P, so the tables of node j serve its mirror 2K - 1 - j.
    The z axis is one (nx*ny, K) @ (K, nz) product for the whole lattice.
    A lattice whose phases overflow on the box is a ValueError
    (_check_phases).
    """
    if F.dim != grid.n_points:
        raise ValueError("field dimension does not match the carrier grid")
    xs, ys, zs = box_axes(box, counts)
    rows, nyquist, factors = _box_tables(grid, xs, ys)
    _check_phases(F.tgrid, factors, zs, box, grid)
    ts = F.tgrid.nodes
    nx, ny, nz = len(xs), len(ys), len(zs)
    n = grid.n_points
    # flat positions of mat[m, (m - j) mod N] at [j, m], in C order, as
    # np.take reads a transposed index more slowly
    gather = (circulant_view(np.arange(n)) + n * np.arange(n)[:, None]).T.copy()
    signs = np.resize([1.0, -1.0], n)
    cnyquist = np.conj(nyquist) / n
    table = np.empty((len(ts), nx * ny), dtype=complex)

    def node(j, first, P, E, G, D):
        np.take(F.mats[-1 - j], gather, out=G, mode="clip")
        np.matmul(rows, G.view(float), out=D.view(float))
        D += np.multiply.outer(cnyquist, (signs @ G.view(float)).view(complex))
        X = np.matmul(D, E.T, out=table[-1 - j].reshape(nx, ny))
        # the operand order of a complex product sets its last bits
        np.multiply(X, P, out=X)

    _split(F.tgrid, factors, node, ((n, n), (nx, n)))
    ez = F.tgrid.delta * np.exp(np.outer(-2j * np.pi * ts, zs))
    return (table.T @ ez).reshape(nx, ny, nz)


def fourier_coefficient(
    f: SampledFunction3D, t: float, grid: GridSpec1D, method: str = "fast"
) -> np.ndarray:
    """Discrete pi_t(f): rectangle-rule sum of f(v)*rep_matrix(t, v) over the box.

    method "fast" factors the sum through a partial z transform and the
    circulant shift kernels, as node_terms does on the one-pair lattice
    TGrid(|t|, 1), whose node int(t > 0) is t; "direct" is the literal
    per-sample sum kept as the reference path.  Both produce the same
    quadrature.
    """
    if method == "fast":
        _check_t(t)
        return node_terms(f, TGrid(abs(t), 1), grid, lambda k, coef: coef)[int(t > 0)]
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

    node_terms(f, tgrid, grid, term)
    return OperatorField(tgrid, mats)
