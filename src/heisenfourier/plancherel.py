"""Inverse Fourier transform over the frequency lattice and field norms.

The inverse transform evaluates

    sum_k delta * Tr[F(t_k) * pi_{t_k}(g)^dagger]

for a stored field F.  Because fields follow the measure-absorbed
convention (node matrices carry the |t| density), the weights are plain
delta.  inverse_transform is the literal pointwise sum, kept as the
oracle of schrodinger.inverse_transform_grid, which fills a whole box in
one pass and is exported from here too.

Every lattice sum takes its per-node terms as one array in node order,
whichever worker computed each term, and adds them left to right with
the builtin sum: over bare coefficients (plancherel_defect, w_norm, the
adjoint pairing) from one schrodinger.node_terms pass, over stored
fields from one grid.schatten_norm call on their stack of node
matrices.  The Plancherel left side sum_k delta |t_k| ||pi_{t_k}(f)||_2^2
uses the Frobenius norm, which is the Hilbert-Schmidt norm exactly, with
no SVD.

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
from .schrodinger import inverse_transform_grid, node_terms, rep_matrix

__all__ = [
    "inverse_transform",
    "inverse_transform_grid",
    "a_norm",
    "w_norm",
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


def a_norm(F: OperatorField) -> float:
    """Lattice L1 norm of trace norms; the Fourier-algebra norm."""
    return float(F.tgrid.delta * sum(schatten_norm(F.mats, 1)))


def m_norm(G: OperatorField) -> float:
    """Sup over nodes of the trace norm."""
    return float(np.max(schatten_norm(G.mats, 1)))


def w_norm(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Lattice L1 norm of operator norms of the bare coefficients pi_t(f)."""
    terms = node_terms(f, tgrid, grid, lambda k, coef: schatten_norm(coef, np.inf))
    return float(tgrid.delta * sum(terms))


def plancherel_defect(f: SampledFunction3D, tgrid: TGrid, grid: GridSpec1D) -> float:
    """Relative gap between the lattice Plancherel sum and the L2 mass of f."""
    rhs = f.l2_norm_sq()
    if rhs == 0.0:
        raise ValueError("relative defect undefined for the zero function")
    ts = tgrid.nodes

    def term(k, coef):
        return tgrid.delta * abs(ts[k]) * np.linalg.norm(coef) ** 2

    terms = node_terms(f, tgrid, grid, term)
    return float(abs(sum(terms) - rhs) / rhs)


def adjoint_pairing_sides(
    g: SampledFunction3D, F: OperatorField, grid: GridSpec1D
) -> tuple:
    """Both sides of the adjoint relation.

    Left: rectangle-rule sum of g * (inverse transform of F) over the box.
    Right: sum_k delta * Tr[pi_{t_k}(g-check) * F(t_k)].
    """
    values = inverse_transform_grid(F, g.box, g.counts, grid)
    lhs = complex(np.sum(g.samples * values) * g.cell_volume)

    def term(k, coef):
        return F.tgrid.delta * np.einsum("mn,nm->", coef, F.mats[k])

    terms = node_terms(check_map(g), F.tgrid, grid, term)
    return lhs, complex(sum(terms))
