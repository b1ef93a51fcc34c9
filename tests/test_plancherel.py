import numpy as np
import pytest

from heisenfourier.field import OperatorField, TGrid
from heisenfourier.grid import GridSpec1D, schatten_norm
from heisenfourier.group import GaussianPoly, GroupElement, Poly3, box_axes, sample_family
from heisenfourier.plancherel import (
    a_norm,
    adjoint_pairing_sides,
    inverse_transform,
    inverse_transform_grid,
    m_norm,
    plancherel_defect,
    w_norm,
)
from heisenfourier.schrodinger import forward_field, fourier_coefficient

CANON = GaussianPoly(Poly3({(0, 0, 1): 1.0, (0, 0, 0): 0.015}), (0.7, 1.0, 0.5))
PARTNER = GaussianPoly(
    Poly3({(1, 0, 1): 0.7, (0, 0, 1): 1.0, (0, 0, 0): 0.1}),
    (0.8, 0.55, 0.45),
    center=(0.3, -0.4, 0.1),
)
BOX = (5.2, 5.2, 3.2)


def test_norms_on_hand_built_fields():
    tg = TGrid(0.5, 2)
    mats = np.zeros((4, 2, 2), dtype=complex)
    mats[0] = np.diag([3.0, 1.0])
    mats[1] = np.diag([0.0, 2.0])
    mats[2] = np.diag([1.0, -1.0])
    mats[3] = np.diag([4.0, 0.0])
    F = OperatorField(tg, mats)
    assert a_norm(F) == pytest.approx(0.5 * (4.0 + 2.0 + 2.0 + 4.0))
    assert m_norm(F) == pytest.approx(4.0)
    assert a_norm(OperatorField(tg, np.zeros_like(mats))) == 0.0


def test_norm_scaling():
    tg = TGrid(0.25, 3)
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    F = OperatorField(tg, mats)
    assert a_norm(OperatorField(tg, -2.0 * mats)) == pytest.approx(2.0 * a_norm(F))
    assert m_norm(OperatorField(tg, 0.5j * mats)) == pytest.approx(0.5 * m_norm(F))


def test_w_norm_positive_homogeneous():
    box = (3.0, 3.0, 2.0)
    counts = (12, 12, 8)
    grid = GridSpec1D(16, 2.5)
    tg = TGrid(0.25, 3)
    f = sample_family(CANON, box, counts)
    from heisenfourier.group import SampledFunction3D

    doubled = SampledFunction3D(box, counts, 2.0 * f.samples)
    assert w_norm(doubled, tg, grid) == pytest.approx(2.0 * w_norm(f, tg, grid))


def test_plancherel_defect_rejects_zero_function():
    from heisenfourier.group import SampledFunction3D

    f = SampledFunction3D((1.0, 1.0, 1.0), (4, 4, 4), np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        plancherel_defect(f, TGrid(0.25, 2), GridSpec1D(8, 2.0))


def test_plancherel_defect_small_at_reference_scales():
    f = sample_family(CANON, BOX, (64, 96, 44))
    defect = plancherel_defect(f, TGrid(0.125, 32), GridSpec1D(64, 4.0))
    assert defect < 1e-2


def test_plancherel_defect_equals_the_literal_schatten_sum():
    from heisenfourier.group import SampledFunction3D

    # no symmetry in the samples, so a wrong sign in any phase table shows
    rng = np.random.default_rng(43)
    f = SampledFunction3D((1.5, 1.5, 1.5), (4, 4, 4), rng.standard_normal((4, 4, 4)))
    grid = GridSpec1D(8, 2.0)
    tg = TGrid(0.25, 3)
    lhs = sum(
        tg.delta * abs(t) * schatten_norm(fourier_coefficient(f, t, grid, method="direct"), 2) ** 2
        for t in tg.nodes
    )
    rhs = f.l2_norm_sq()
    assert abs(plancherel_defect(f, tg, grid) - abs(lhs - rhs) / rhs) < 1e-12


def test_inverse_on_positive_nodes_matches_pointwise():
    f = sample_family(CANON, BOX, (32, 48, 24))
    grid = GridSpec1D(32, 3.2)
    tg = TGrid(0.25, 4)
    F = forward_field(f, tg, grid)
    F.mats[: tg.k_max] = 0.0
    box, counts = (1.0, 1.0, 0.8), (4, 4, 4)
    vals = inverse_transform_grid(F, box, counts, grid)
    xs, ys, zs = box_axes(box, counts)
    for i, j, k in np.ndindex(*counts):
        point = inverse_transform(F, GroupElement(xs[i], ys[j], zs[k]), grid)
        assert abs(point - vals[i, j, k]) < 1e-12


def test_inverse_transform_point_matches_grid_version():
    f = sample_family(CANON, BOX, (32, 48, 24))
    grid = GridSpec1D(32, 3.2)
    F = forward_field(f, TGrid(0.25, 8), grid)
    box = (1.0, 1.0, 0.8)
    counts = (4, 4, 4)
    vals = inverse_transform_grid(F, box, counts, grid)
    xs, ys, zs = box_axes(box, counts)
    for i, j, k in ((0, 1, 0), (3, 2, 3), (1, 0, 2)):
        point = inverse_transform(F, GroupElement(xs[i], ys[j], zs[k]), grid)
        assert abs(point - vals[i, j, k]) < 1e-12


def test_inverse_transform_checks_dimensions():
    F = OperatorField(TGrid(0.25, 2), np.zeros((4, 8, 8), dtype=complex))
    with pytest.raises(ValueError):
        inverse_transform(F, GroupElement(0.0, 0.0, 0.0), GridSpec1D(16, 2.0))
    with pytest.raises(ValueError):
        inverse_transform_grid(F, (1.0, 1.0, 1.0), (4, 4, 4), GridSpec1D(16, 2.0))
    for box, counts, field in (((1.0, 1.0, 1.0), (4, 4), "counts"), ((1.0, 1.0), (4, 4, 4), "box")):
        with pytest.raises(ValueError, match=f"{field} must have three"):
            inverse_transform_grid(F, box, counts, GridSpec1D(8, 2.0))


def test_adjoint_pairing_sides_agree_at_reference_scales():
    grid = GridSpec1D(64, 4.0)
    f = sample_family(CANON, BOX, (64, 96, 44))
    g = sample_family(PARTNER, BOX, (64, 96, 44))
    F = forward_field(f, TGrid(0.125, 32), grid)
    lhs, rhs = adjoint_pairing_sides(g, F, grid)
    assert abs(lhs - rhs) / abs(lhs) < 1e-3
