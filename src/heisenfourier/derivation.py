"""Normalized z-derivative and the norm inequalities built on it.

d_z is -(1/(2 pi i)) d/dz, the scaling under which the transform turns
differentiation into multiplication by the node parameter t.  Closed-form
derivatives travel with sampled families and are preferred; inputs without
one fall back to DFT differentiation along the z-axis, which assumes the
samples decay to ~0 at the z faces.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

from .field import TGrid
from .grid import GridSpec1D, schatten_norm
from .group import SampledFunction3D
from .plancherel import a_norm, coefficient_norms, node_sum, w_norm
from .schrodinger import _TransformPlan, forward_field

_DZ_SCALE = 1j / (2.0 * math.pi)

BOUNDARY_TOL = 1e-12


def d_z(f: SampledFunction3D) -> SampledFunction3D:
    """-(1/(2 pi i)) df/dz on the same grid; records which path produced it."""
    if f.dz_samples is not None:
        out = _DZ_SCALE * f.dz_samples
        method = "analytic"
    else:
        n_z = f.counts[2]
        if n_z < 8:
            raise ValueError(f"spectral z-derivative needs n_z >= 8, got {n_z}")
        dz_step = f.spacings[2]
        freqs = np.fft.fftfreq(n_z, d=dz_step)
        # (i/2pi) * (2 pi i nu) = -nu
        out = np.fft.ifft(-freqs * np.fft.fft(f.samples, axis=2), axis=2)
        method = "spectral"
    fam = None
    if f.family is not None:
        fam = type(f.family)(
            f.family.dz_poly().scale(_DZ_SCALE),
            f.family.sigma,
            f.family.center,
            f.family.z_freq,
        )
    return SampledFunction3D(f.box, f.counts, out, None, fam, dz_method=method)


def multiplier_defect(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Max over nodes of ||pi_t(d_z f) - t pi_t(f)||_inf, relatively normalized.

    The comparison integrates by parts, so it is only meaningful when f is
    numerically supported inside the box; a boundary above BOUNDARY_TOL
    triggers a warning rather than an error.
    """
    edge = f.boundary_max()
    if edge > BOUNDARY_TOL:
        warnings.warn(
            f"boundary samples reach {edge:.2e}; multiplier comparison "
            "assumes numerically compact support",
            stacklevel=2,
        )
    df = d_z(f)
    plan = _TransformPlan(grid, f.box, f.counts)
    ts = tgrid.nodes
    worst = 0.0
    pairs = zip(
        plan.coefficients(df.samples, ts, f.cell_volume),
        plan.coefficients(f.samples, ts, f.cell_volume),
    )
    for (k, lhs), (_, base) in pairs:
        t = ts[k]
        gap = schatten_norm(lhs - t * base, np.inf)
        scale = max(1.0, abs(t) * schatten_norm(base, np.inf))
        worst = max(worst, gap / scale)
    return worst


def leibniz_defect(f: SampledFunction3D, g: SampledFunction3D) -> float:
    """sup |d_z(fg) - f d_z g - g d_z f| over samples, all closed form."""
    if not f.same_grid(g):
        raise ValueError("leibniz comparison requires identical grids")
    prod = f * g
    if prod.dz_samples is None:
        raise ValueError("closed-form product derivative unavailable for this pair")
    lhs = d_z(prod).samples
    rhs = f.samples * d_z(g).samples + g.samples * d_z(f).samples
    return float(np.max(np.abs(lhs - rhs)))


class BoundednessResult(NamedTuple):
    lhs: float
    rhs: float
    node_gap: float
    passed: bool
    node_norms: np.ndarray


def boundedness_check(
    f: SampledFunction3D,
    tgrid: TGrid,
    grid: GridSpec1D,
    tol_slack: float = 1e-9,
) -> BoundednessResult:
    """w_norm(d_z f) <= a_norm(F_f), plus the node-wise chain behind it.

    node_gap is the worst ||pi_t(d_z f)||_inf - ||F_f(t)||_1 over nodes; the
    aggregate inequality is that chain summed, so both are reported.
    node_norms holds the per-node ||pi_t(d_z f)||_inf in lattice order.
    """
    left = coefficient_norms(d_z(f), tgrid, grid, np.inf)
    right = np.array([schatten_norm(mat, 1) for mat in forward_field(f, tgrid, grid).mats])
    # the lattice sums of the two node chains: w_norm(d_z f) and a_norm(F_f)
    lhs = float(tgrid.delta * node_sum(left))
    rhs = float(tgrid.delta * node_sum(right))
    node_gap = float(np.max(left - right))
    return BoundednessResult(lhs, rhs, node_gap, lhs <= rhs + tol_slack, left)


class ModuleNormResult(NamedTuple):
    lhs: float
    rhs: float
    rel_excess: float
    passed: bool


def module_norm_check(
    f: SampledFunction3D,
    h: SampledFunction3D,
    tgrid: TGrid,
    grid: GridSpec1D,
    tol_rel: float = 5e-2,
    tol_abs: float = 1e-9,
) -> ModuleNormResult:
    """w_norm(f h) <= a_norm(F_f) w_norm(h) within a quadrature budget.

    Unlike the boundedness chain this crosses three independent transforms,
    so the tolerance is relative; rel_excess is the measured overshoot
    (0 when the inequality holds outright) and shrinks under refinement.
    """
    if not f.same_grid(h):
        raise ValueError("module inequality requires identical grids")
    lhs = w_norm(f * h, tgrid, grid)
    rhs = a_norm(forward_field(f, tgrid, grid)) * w_norm(h, tgrid, grid)
    if rhs == 0.0:
        return ModuleNormResult(lhs, rhs, 0.0 if lhs == 0.0 else math.inf, lhs == 0.0)
    rel_excess = max(0.0, (lhs - rhs) / rhs)
    return ModuleNormResult(lhs, rhs, rel_excess, lhs <= rhs * (1.0 + tol_rel) + tol_abs)
