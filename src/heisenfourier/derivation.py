"""Normalized z-derivative, its Fourier multiplier and the node terms of its norms.

d_z is -(1/(2 pi i)) d/dz, the scaling under which the transform turns
differentiation into multiplication by the node parameter t.  The closed
form of a sampled family is preferred; inputs without one fall back to DFT
differentiation along the z-axis, which assumes the samples decay to ~0 at
the z faces.
"""

import math
import warnings

import numpy as np

from .field import TGrid
from .grid import GridSpec1D, schatten_norm, singular_values
from .group import SampledFunction3D
from .schrodinger import node_terms

_DZ_SCALE = 1j / (2.0 * math.pi)

BOUNDARY_TOL = 1e-12


def d_z(f: SampledFunction3D) -> SampledFunction3D:
    """-(1/(2 pi i)) df/dz as samples on the same grid, with no family:
    closed form when f carries a family, spectral otherwise."""
    if f.family is not None:
        out = _DZ_SCALE * f.family.dz_eval_grid(*f.axes)
    else:
        n_z = f.counts[2]
        if n_z < 8:
            raise ValueError(f"spectral z-derivative needs n_z >= 8, got {n_z}")
        freqs = np.fft.fftfreq(n_z, d=f.spacings[2])
        # (i/2pi) * (2 pi i nu) = -nu
        out = np.fft.ifft(-freqs * np.fft.fft(f.samples, axis=2), axis=2)
    return SampledFunction3D(f.box, f.counts, out)


def derivation_nodes(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D):
    """Per-node terms of the derivation checks, from a pass over f and one over d_z f.

    Returns three arrays in lattice order:
      - the multiplier gap ||pi_t(d_z f) - t pi_t(f)||_inf, relatively
        normalized by max(1, |t| ||pi_t(f)||_inf)
      - ||pi_t(d_z f)||_inf, the terms of w_norm(d_z f)
      - |t| ||pi_t(f)||_1, the terms of a_norm(F_f), from the same SVD
        of pi_t(f) as the operator norm in the gap's normalization

    The first node_terms pass keeps f's bare coefficients as one
    (2K, N, N) stack (1.0 MiB at derivation level 1); d_z f's reads it.

    The multiplier comparison integrates by parts, so it is only meaningful
    when f is numerically supported inside the box; a boundary above
    BOUNDARY_TOL triggers a warning rather than an error.
    """
    edge = f.boundary_max()
    if edge > BOUNDARY_TOL:
        warnings.warn(
            f"boundary samples reach {edge:.2e}; multiplier comparison "
            "assumes numerically compact support",
            stacklevel=2,
        )
    ts = tgrid.nodes
    coefs = node_terms(f, tgrid, grid, lambda k, coef: coef)

    def term(k, lhs):
        t, coef = ts[k], coefs[k]
        sv = singular_values(coef)
        scale = max(1.0, abs(t) * float(sv[0]))
        gap = schatten_norm(lhs - t * coef, np.inf) / scale
        return gap, schatten_norm(lhs, np.inf), abs(t) * float(np.sum(sv))

    gap, dz_norm, trace_norm = node_terms(d_z(f), tgrid, grid, term).T
    return gap, dz_norm, trace_norm


def leibniz_defect(f: SampledFunction3D, g: SampledFunction3D) -> float:
    """sup |d_z(fg) - f d_z g - g d_z f| over samples, all closed form."""
    if not f.same_grid(g):
        raise ValueError("leibniz comparison requires identical grids")
    prod = f * g
    if prod.family is None:
        raise ValueError("closed-form product derivative unavailable for this pair")
    lhs = d_z(prod).samples
    rhs = f.samples * d_z(g).samples + g.samples * d_z(f).samples
    return float(np.max(np.abs(lhs - rhs)))
