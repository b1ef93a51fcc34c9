"""Inverse Fourier transform over the frequency lattice and field norms.

The inverse transform evaluates

    sum_k delta * Tr[F(t_k) * pi_{t_k}(g)^dagger]

for a stored field F.  Because fields follow the measure-absorbed
convention (node matrices carry the |t| density), the weights are plain
delta.  Norms implemented here: the lattice L1 norm of trace norms
(a_norm, the Fourier-algebra norm of the inverse transform), the L1 norm
of operator norms of the bare coefficients (w_norm), and the sup of
trace norms (m_norm).
"""

from __future__ import annotations

import numpy as np

from .field import OperatorField, TGrid, load_field, save_field, zero_field
from .grid import GridSpec1D, schatten_norm
from .group import SampledFunction3D, check_map
from .schrodinger import _TransformPlan, fourier_coefficient, rep_matrix

__all__ = [
    "TGrid",
    "OperatorField",
    "zero_field",
    "save_field",
    "load_field",
    "inverse_transform",
    "inverse_transform_grid",
    "a_norm",
    "w_norm",
    "m_norm",
    "plancherel_defect",
    "adjoint_pairing_sides",
    "adjoint_pairing_defect",
]


def inverse_transform(F: OperatorField, g, grid: GridSpec1D) -> complex:
    """Value of the inverse transform of F at one group element."""
    if F.dim != grid.n_points:
        raise ValueError("field dimension does not match the carrier grid")
    total = 0.0 + 0.0j
    for pos, t in enumerate(F.tgrid.nodes):
        rep = rep_matrix(t, g, grid)
        total += F.tgrid.delta * np.einsum("mn,mn->", F.mats[pos], np.conj(rep))
    return complex(total)


def inverse_transform_grid(
    F: OperatorField, box, counts, grid: GridSpec1D
) -> np.ndarray:
    """Inverse transform sampled on a whole box grid in one pass.

    Same quadrature as inverse_transform node by node, vectorized over
    the sample points; used by the round-trip and pairing checks.
    """
    if F.dim != grid.n_points:
        raise ValueError("field dimension does not match the carrier grid")
    plan = _TransformPlan(grid, box, counts)
    out = np.zeros(tuple(counts), dtype=complex)
    for pos, t in enumerate(F.tgrid.nodes):
        out += F.tgrid.delta * plan.invert_node(F.mats[pos], t)
    return out


def a_norm(F: OperatorField) -> float:
    """Lattice L1 norm of trace norms; the Fourier-algebra norm."""
    total = 0.0
    for pos in range(F.tgrid.n_nodes):
        total += schatten_norm(F.mats[pos], 1)
    return F.tgrid.delta * total


def m_norm(G: OperatorField) -> float:
    """Sup over nodes of the trace norm."""
    best = 0.0
    for pos in range(G.tgrid.n_nodes):
        best = max(best, schatten_norm(G.mats[pos], 1))
    return best


def w_norm(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Lattice L1 norm of operator norms of the bare coefficients pi_t(f)."""
    total = 0.0
    for t in tgrid.nodes:
        total += schatten_norm(fourier_coefficient(f, t, grid), np.inf)
    return tgrid.delta * total


def plancherel_defect(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Relative gap between the lattice Plancherel sum and the L2 mass of f."""
    rhs = f.l2_norm_sq()
    if rhs == 0.0:
        raise ValueError("relative defect undefined for the zero function")
    plan = _TransformPlan(grid, f.box, f.counts)
    lhs = 0.0
    for t in tgrid.nodes:
        coef = plan.coefficient(f.samples, t, f.cell_volume)
        lhs += tgrid.delta * abs(t) * schatten_norm(coef, 2) ** 2
    return abs(lhs - rhs) / rhs


def adjoint_pairing_sides(
    g: SampledFunction3D, F: OperatorField, grid: GridSpec1D
) -> tuple:
    """Both sides of the adjoint relation.

    Left: rectangle-rule sum of g * (inverse transform of F) over the box.
    Right: sum_k delta * Tr[pi_{t_k}(g-check) * F(t_k)].
    """
    values = inverse_transform_grid(F, g.box, g.counts, grid)
    lhs = complex(np.sum(g.samples * values) * g.cell_volume)
    gc = check_map(g)
    plan = _TransformPlan(grid, gc.box, gc.counts)
    rhs = 0.0 + 0.0j
    for pos, t in enumerate(F.tgrid.nodes):
        coef = plan.coefficient(gc.samples, t, gc.cell_volume)
        rhs += F.tgrid.delta * np.einsum("mn,nm->", coef, F.mats[pos])
    return lhs, complex(rhs)


def adjoint_pairing_defect(
    g: SampledFunction3D, F: OperatorField, grid: GridSpec1D
) -> float:
    lhs, rhs = adjoint_pairing_sides(g, F, grid)
    return abs(lhs - rhs)
