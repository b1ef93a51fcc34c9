import math

import numpy as np
import pytest

from heisenfourier.derivation import (
    BOUNDARY_TOL,
    d_z,
    derivation_nodes,
    leibniz_defect,
)
from heisenfourier.field import TGrid
from heisenfourier.grid import GridSpec1D, schatten_norm
from heisenfourier.group import GaussianPoly, Poly3, SampledFunction3D, sample_family
from heisenfourier.plancherel import a_norm, w_norm
from heisenfourier.schrodinger import _coefficient_direct, forward_field, node_terms

F_ODD = GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.6, 0.6, 0.5))
G_PARTNER = GaussianPoly(Poly3({(0, 0, 2): 0.5, (0, 0, 0): 0.2}), (0.55, 0.7, 0.65))
H_OFFCENTER = GaussianPoly(
    Poly3({(1, 0, 0): 0.4, (0, 0, 0): 1.0}), (0.7, 0.65, 0.6), (0.2, -0.3, 0.15)
)
BOX = (5.0, 5.0, 4.0)
COUNTS = (40, 40, 32)
GRID = GridSpec1D(32, 3.2)
TG = TGrid(0.25, 8)


def test_dz_prefers_the_analytic_path():
    f = sample_family(F_ODD, BOX, COUNTS)
    df = d_z(f)
    # the closed form is evaluated, not carried on
    assert df.family is None
    want = (1j / (2 * math.pi)) * F_ODD.dz_eval_grid(*f.axes)
    assert np.array_equal(df.samples, want)


def test_dz_spectral_fallback_agrees_with_analytic():
    f = sample_family(F_ODD, BOX, COUNTS)
    # with_dz=False leaves the family off, so d_z has no closed form to use
    plain = sample_family(F_ODD, BOX, COUNTS, with_dz=False)
    assert plain.family is None and np.array_equal(plain.samples, f.samples)
    spectral = d_z(plain)
    assert spectral.family is None
    assert np.max(np.abs(spectral.samples - d_z(f).samples)) < 1e-6


def test_dz_spectral_handles_modulated_functions():
    fam = GaussianPoly(Poly3.const(1.0), (0.6, 0.6, 0.7), z_freq=-1.0)
    f = sample_family(fam, BOX, (40, 40, 40))
    plain = SampledFunction3D(f.box, f.counts, f.samples.copy())
    assert np.max(np.abs(d_z(f).samples - d_z(plain).samples)) < 1e-6


def test_dz_is_linear_and_homogeneous():
    f = sample_family(F_ODD, BOX, COUNTS)
    g = sample_family(G_PARTNER, BOX, COUNTS)
    combo = SampledFunction3D(BOX, COUNTS, 2.0 * f.samples - 1.5j * g.samples)
    lhs = d_z(combo).samples
    plain_f = SampledFunction3D(BOX, COUNTS, f.samples.copy())
    plain_g = SampledFunction3D(BOX, COUNTS, g.samples.copy())
    rhs = 2.0 * d_z(plain_f).samples - 1.5j * d_z(plain_g).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dz_rejects_tiny_z_grids():
    f = SampledFunction3D((1.0, 1.0, 1.0), (8, 8, 6), np.zeros((8, 8, 6)))
    with pytest.raises(ValueError):
        d_z(f)


def test_multiplier_gap_zero_function():
    f = SampledFunction3D((1.0, 1.0, 1.0), (8, 8, 8), np.zeros((8, 8, 8)))
    assert np.max(derivation_nodes(f, TGrid(0.5, 2), GridSpec1D(8, 2.0))[0]) == 0.0


def test_multiplier_gap_small_for_compact_functions():
    f = sample_family(F_ODD, BOX, COUNTS)
    assert f.boundary_max() < BOUNDARY_TOL
    assert np.max(derivation_nodes(f, TG, GRID)[0]) < 1e-6


def test_multiplier_gap_warns_on_boundary_mass():
    f = sample_family(F_ODD, (1.5, 1.5, 1.0), (10, 10, 8))
    with pytest.warns(UserWarning):
        derivation_nodes(f, TGrid(0.5, 2), GridSpec1D(8, 2.0))


def test_leibniz_identity_on_the_closed_form_family():
    f = sample_family(F_ODD, BOX, COUNTS)
    g = sample_family(G_PARTNER, BOX, COUNTS)
    assert leibniz_defect(f, g) < 1e-12
    # f twice: d(f^2) = 2 f df
    assert leibniz_defect(f, f) < 1e-12


def test_leibniz_requires_closed_form_products():
    f = sample_family(F_ODD, BOX, COUNTS)
    h = sample_family(H_OFFCENTER, BOX, COUNTS)
    with pytest.raises(ValueError):
        leibniz_defect(f, h)
    g = sample_family(G_PARTNER, BOX, (40, 40, 30))
    with pytest.raises(ValueError):
        leibniz_defect(f, g)


def test_derivation_nodes_match_the_separate_transforms():
    f = sample_family(F_ODD, BOX, COUNTS)
    gap, dz_norm, trace_norm = derivation_nodes(f, TG, GRID)

    def norms(g, p):
        return node_terms(g, TG, GRID, lambda k, coef: schatten_norm(coef, p))

    assert np.array_equal(dz_norm, norms(d_z(f), np.inf))
    # |t| ||pi_t(f)||_1 from the one SVD of pi_t(f), bit for bit; the trace
    # norms of forward_field's node matrices |t| pi_t(f) differ in last bits
    assert np.array_equal(trace_norm, np.abs(TG.nodes) * norms(f, 1))
    field = forward_field(f, TG, GRID)
    direct = [schatten_norm(m, 1) for m in field.mats]
    assert np.max(np.abs(trace_norm - direct)) <= 1e-14 * np.max(direct)
    # a second pass gives the same bits
    assert np.array_equal(gap, derivation_nodes(f, TG, GRID)[0])


def test_derivation_nodes_match_the_literal_sums():
    """The three arrays rebuilt at every node from the per-sample sums of
    d_z f and f, within the fast-vs-direct tolerance relative to each
    node's norms.  The carrier's band N/(4L) is 1, so band * h_x is 0.75;
    the small box reaches the boundary warning."""
    f = sample_family(F_ODD, (1.5, 1.5, 1.5), (4, 4, 4))
    tg, grid = TGrid(0.25, 3), GridSpec1D(8, 2.0)
    with pytest.warns(UserWarning, match="boundary samples"):
        gap, dz_norm, trace_norm = derivation_nodes(f, tg, grid)
    df = d_z(f)
    for k, t in enumerate(tg.nodes):
        lhs = _coefficient_direct(df, t, grid)
        coef = _coefficient_direct(f, t, grid)
        dz, op = schatten_norm(lhs, np.inf), abs(t) * schatten_norm(coef, np.inf)
        trace = abs(t) * schatten_norm(coef, 1)
        scale = max(1.0, op)
        want = schatten_norm(lhs - t * coef, np.inf) / scale
        assert abs(gap[k] - want) <= 1e-10 * max(dz, op) / scale
        assert abs(dz_norm[k] - dz) <= 1e-10 * dz
        assert abs(trace_norm[k] - trace) <= 1e-10 * trace


def test_derivation_nodes_bound_chain():
    f = sample_family(F_ODD, BOX, COUNTS)
    _, dz_norm, trace_norm = derivation_nodes(f, TG, GRID)
    # ||pi_t(d_z f)||_inf <= || |t| pi_t(f) ||_1 node by node, up to quadrature
    assert np.max(dz_norm - trace_norm) <= 1e-6
    # summed over the lattice: w_norm(d_z f) <= a_norm(F_f)
    assert w_norm(d_z(f), TG, GRID) <= a_norm(forward_field(f, TG, GRID)) + 1e-9

