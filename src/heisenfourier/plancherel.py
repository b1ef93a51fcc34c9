"""Inverse Fourier transform over the frequency lattice and field norms.

The inverse transform evaluates

    sum_k delta * Tr[F(t_k) * pi_{t_k}(g)^dagger]

for a stored field F.  Because fields follow the measure-absorbed
convention (node matrices carry the |t| density), the weights are plain
delta.  inverse_transform is the literal pointwise sum, kept as the
oracle; inverse_transform_grid fills the whole box through one
_TransformPlan.invert call, which applies the z axis once for the whole
lattice.

Every lattice sum over bare coefficients (plancherel_defect, w_norm,
coefficient_norms, the adjoint pairing) takes them from one
_TransformPlan.coefficients call, whose callback stores each node's term
in the node's own slot on the worker threads, and adds the node terms in
lattice order (node_sum).  The Plancherel left side
sum_k delta |t_k| ||pi_{t_k}(f)||_2^2 uses the Frobenius norm, which is
the Hilbert-Schmidt norm exactly, with no SVD.

Norms implemented here: the lattice L1 norm of trace norms (a_norm, the
Fourier-algebra norm of the inverse transform), the L1 norm of operator
norms of the bare coefficients (w_norm), and the sup of trace norms
(m_norm).
"""

from __future__ import annotations

import numpy as np

from .field import OperatorField, TGrid
from .grid import GridSpec1D, schatten_norm
from .group import SampledFunction3D, check_map
from .schrodinger import _TransformPlan, rep_matrix

__all__ = [
    "inverse_transform",
    "inverse_transform_grid",
    "a_norm",
    "w_norm",
    "coefficient_norms",
    "node_sum",
    "m_norm",
    "plancherel_defect",
    "adjoint_pairing_sides",
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

    Same quadrature as inverse_transform, vectorized over the sample
    points and the lattice; used by the round-trip and pairing checks.
    """
    if F.dim != grid.n_points:
        raise ValueError("field dimension does not match the carrier grid")
    plan = _TransformPlan(grid, box, counts)
    return plan.invert(F.mats, F.tgrid.nodes, F.tgrid.delta)


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


def node_sum(terms):
    """Left-to-right sum of per-node terms in storage order.

    Plans visit the nodes grouped by |t|.  Collecting the terms first and
    adding them in lattice order, as a plain loop over the nodes would,
    keeps every lattice sum independent of that visiting order.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def coefficient_norms(
    f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D, p: float
) -> np.ndarray:
    """Schatten p-norm of the bare coefficient pi_t(f) at every node, in node order."""
    plan = _TransformPlan(grid, f.box, f.counts)
    norms = np.empty(tgrid.n_nodes)

    def each(k, coef):
        norms[k] = schatten_norm(coef, p)

    plan.coefficients(f.samples, tgrid.nodes, f.cell_volume, each)
    return norms


def w_norm(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Lattice L1 norm of operator norms of the bare coefficients pi_t(f)."""
    return float(tgrid.delta * node_sum(coefficient_norms(f, tgrid, grid, np.inf)))


def plancherel_defect(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Relative gap between the lattice Plancherel sum and the L2 mass of f."""
    rhs = f.l2_norm_sq()
    if rhs == 0.0:
        raise ValueError("relative defect undefined for the zero function")
    plan = _TransformPlan(grid, f.box, f.counts)
    ts = tgrid.nodes
    terms = np.empty(tgrid.n_nodes)

    def each(k, coef):
        terms[k] = tgrid.delta * abs(ts[k]) * np.linalg.norm(coef) ** 2

    plan.coefficients(f.samples, ts, f.cell_volume, each)
    return float(abs(node_sum(terms) - rhs) / rhs)


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
    terms = np.empty(F.tgrid.n_nodes, dtype=complex)

    def each(k, coef):
        terms[k] = F.tgrid.delta * np.einsum("mn,nm->", coef, F.mats[k])

    plan.coefficients(gc.samples, F.tgrid.nodes, gc.cell_volume, each)
    return lhs, complex(node_sum(terms))
