import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heisenfourier.cli import CANONICAL_FAMILY, DC_LEFT
from heisenfourier.derivation import leibniz_defect
from heisenfourier.field import TGrid
from heisenfourier.grid import GridSpec1D
from heisenfourier.group import (
    GaussianPoly,
    GroupElement,
    IDENTITY,
    Poly3,
    box_axes,
    check_map,
    inv,
    mul,
    sample_family,
    SampledFunction3D,
)
from heisenfourier.schrodinger import node_terms

RNG = np.random.default_rng(402)


def test_mul_known_value():
    g = mul(GroupElement(1.0, 2.0, 0.0), GroupElement(3.0, -1.0, 0.5))
    assert g == GroupElement(4.0, 1.0, -3.0)


def test_inverse_is_exact_for_arbitrary_floats():
    for _ in range(50):
        g = GroupElement(*RNG.standard_normal(3))
        assert mul(g, inv(g)) == IDENTITY
        assert mul(inv(g), g) == IDENTITY


def test_associativity_exact_on_dyadics():
    raw = RNG.integers(-64, 64, size=(30, 3), endpoint=True) / 64.0
    els = [GroupElement(*map(float, row)) for row in raw]
    for i in range(0, 30, 3):
        g1, g2, g3 = els[i : i + 3]
        assert mul(mul(g1, g2), g3) == mul(g1, mul(g2, g3))


def test_center_commutes_exactly():
    g = GroupElement(0.3, -1.7, 0.9)
    z = GroupElement(0.0, 0.0, 2.31)
    assert mul(g, z) == mul(z, g)


# k / 2**p with |k| <= 2**8: every product and sum of the group law, and of
# two of them composed, needs far fewer than 53 bits, so it is exact
DYADIC = st.builds(lambda k, p: k / 2**p, st.integers(-(2**8), 2**8), st.integers(0, 8))
ELEMENT = st.builds(GroupElement, DYADIC, DYADIC, DYADIC)


def _exact_mul(g1, g2):
    (a1, b1, c1), (a2, b2, c2) = (map(Fraction, g) for g in (g1, g2))
    return (a1 + a2, b1 + b2, (a1 * b2 - a2 * b1) / 2 + c1 + c2)


@given(g1=ELEMENT, g2=ELEMENT, g3=ELEMENT, c=DYADIC)
def test_group_law_is_exact_on_dyadic_rationals(g1, g2, g3, c):
    assert tuple(map(Fraction, mul(g1, g2))) == _exact_mul(g1, g2)
    assert mul(mul(g1, g2), g3) == mul(g1, mul(g2, g3))
    assert mul(g1, IDENTITY) == g1 == mul(IDENTITY, g1)
    assert mul(g1, inv(g1)) == IDENTITY == mul(inv(g1), g1)
    central = GroupElement(0.0, 0.0, c)
    assert mul(g1, central) == mul(central, g1) == GroupElement(g1.x, g1.y, g1.z + c)


def test_poly_arithmetic():
    p = Poly3({(1, 0, 0): 2.0, (0, 0, 1): 1.0})
    q = Poly3({(0, 1, 0): 1.0})
    prod = p * q
    assert prod.coeffs == {(1, 1, 0): 2.0, (0, 1, 1): 1.0}
    s = p + p
    assert s.coeffs == {(1, 0, 0): 4.0, (0, 0, 1): 2.0}
    assert p.dz().coeffs == {(0, 0, 0): 1.0}
    assert Poly3({(0, 0, 2): 3.0}).dz().coeffs == {(0, 0, 1): 6.0}


def test_poly_coefficients_stay_real_when_possible():
    p = Poly3({(0, 0, 0): complex(2.0, 0.0)})
    assert isinstance(p.coeffs[(0, 0, 0)], float)
    q = Poly3({(0, 0, 0): 1j})
    assert isinstance(q.coeffs[(0, 0, 0)], complex)
    xs = np.array([0.5])
    assert p.eval_grid(xs, xs, xs).dtype == float
    assert q.eval_grid(xs, xs, xs).dtype == complex


def test_poly_drops_zero_coefficients():
    assert Poly3({(1, 0, 0): 0.0}).coeffs == {}


def test_gaussian_eval_matches_direct_formula():
    fam = GaussianPoly(
        Poly3({(1, 0, 1): 0.5, (0, 0, 0): 1.0}),
        (0.7, 1.1, 0.5),
        center=(0.2, -0.1, 0.3),
    )
    xs = np.array([-0.4, 0.9])
    ys = np.array([0.1])
    zs = np.array([0.5, -1.2])
    got = fam.eval_grid(xs, ys, zs)
    for i, x in enumerate(xs):
        for k, z in enumerate(zs):
            want = (0.5 * x * z + 1.0) * math.exp(
                -((x - 0.2) ** 2) / (2 * 0.49)
                - (0.1 + 0.1) ** 2 / (2 * 1.21)
                - ((z - 0.3) ** 2) / (2 * 0.25)
            )
            assert abs(got[i, 0, k] - want) < 1e-14


def test_gaussian_modulation_factor():
    fam = GaussianPoly(Poly3.const(1.0), (1.0, 1.0, 1.0), z_freq=0.75)
    plain = GaussianPoly(Poly3.const(1.0), (1.0, 1.0, 1.0))
    xs = np.array([0.0])
    zs = np.array([0.4, -0.9])
    got = fam.eval_grid(xs, xs, zs)
    want = plain.eval_grid(xs, xs, zs) * np.exp(-2j * np.pi * 0.75 * zs)
    assert np.max(np.abs(got - want)) < 1e-15


def test_gaussian_dz_matches_finite_differences():
    for fam in (
        GaussianPoly(Poly3({(0, 0, 1): 1.0, (2, 0, 0): 0.3}), (0.7, 1.0, 0.5)),
        GaussianPoly(Poly3.const(1.0), (0.6, 0.6, 0.7), z_freq=-1.0),
    ):
        xs = np.array([0.3])
        ys = np.array([-0.2])
        h = 1e-5
        for z in (0.15, -0.8):
            up = fam.eval_grid(xs, ys, np.array([z + h]))[0, 0, 0]
            dn = fam.eval_grid(xs, ys, np.array([z - h]))[0, 0, 0]
            want = (up - dn) / (2 * h)
            got = fam.dz_eval_grid(xs, ys, np.array([z]))[0, 0, 0]
            assert abs(got - want) < 1e-8


def test_gaussian_product_combines_widths_and_freqs():
    f1 = GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.5, 0.8, 1.6), z_freq=0.45)
    f2 = GaussianPoly(Poly3.const(2.0), (0.55, 0.75, 1.6), z_freq=0.38)
    prod = f1 * f2
    assert prod.z_freq == pytest.approx(0.83)
    want_sx = 1.0 / math.sqrt(1 / 0.25 + 1 / 0.3025)
    assert prod.sigma[0] == pytest.approx(want_sx)
    xs = np.array([0.2])
    zs = np.array([0.6])
    lhs = prod.eval_grid(xs, xs, zs)
    rhs = f1.eval_grid(xs, xs, zs) * f2.eval_grid(xs, xs, zs)
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_gaussian_product_requires_shared_center():
    f1 = GaussianPoly(Poly3.const(1.0), (1.0, 1.0, 1.0))
    f2 = GaussianPoly(Poly3.const(1.0), (1.0, 1.0, 1.0), center=(0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        f1 * f2


def test_gaussian_rejects_bad_widths():
    with pytest.raises(ValueError):
        GaussianPoly(Poly3.const(1.0), (0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        GaussianPoly(Poly3.const(1.0), (1.0, 1.0, 1.0), z_freq=math.inf)


def test_box_axes_symmetric_under_negation():
    xs, ys, zs = box_axes((2.0, 1.0, 1.5), (8, 4, 6))
    for ax in (xs, ys, zs):
        assert np.max(np.abs(ax + ax[::-1])) == 0.0
    with pytest.raises(ValueError):
        box_axes((2.0, 1.0, 1.5), (7, 4, 6))
    with pytest.raises(ValueError):
        box_axes((2.0, -1.0, 1.5), (8, 4, 6))


def test_sampled_shape_validation():
    with pytest.raises(ValueError):
        SampledFunction3D((1.0, 1.0, 1.0), (4, 4, 4), np.zeros((4, 4, 2)))
    with pytest.raises(ValueError):
        SampledFunction3D((1.0, 1.0, 1.0), (2, 2, 2), np.full((2, 2, 2), np.inf))
    # the grid is checked at construction: a negative half-width gives a
    # negative cell volume, so a negative l2_norm_sq, and odd counts no axes
    with pytest.raises(ValueError, match="box half-widths must be positive"):
        SampledFunction3D((-1.0, 1.0, 1.0), (4, 4, 4), np.ones((4, 4, 4)))
    with pytest.raises(ValueError, match="counts must be positive even integers"):
        SampledFunction3D((1.0, 1.0, 1.0), (3, 3, 3), np.ones((3, 3, 3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("half", [1e200, 1e-120], ids=["inf", "zero"])
def test_a_box_whose_cell_volume_is_not_a_positive_finite_float_is_refused(half):
    """A cell volume of inf would make forward_field overflow in its box
    tables; one of 0.0 would give an all-zero field with no warning, which
    plancherel_defect would call the zero function."""
    box = (half,) * 3
    with pytest.raises(ValueError, match=re.escape(f"box {box!r} with counts (4, 4, 4)")):
        SampledFunction3D(box, (4, 4, 4), np.ones((4, 4, 4)))


@pytest.mark.parametrize(
    "box, counts, message",
    [
        ((1.0, 1.0, 1.0), (4, 4), "counts must have three entries"),
        ((1.0, 1.0), (4, 4, 4), "box must have three half-widths"),
        ((1.0, 1.0, 1.0, 1.0), (4, 4, 4, 4), "box must have three half-widths"),
    ],
)
def test_box_axes_and_its_callers_need_three_dimensions(box, counts, message):
    """zip would truncate a longer box or counts to the shorter one."""
    with pytest.raises(ValueError, match=message):
        box_axes(box, counts)
    with pytest.raises(ValueError, match=message):
        sample_family(CANONICAL_FAMILY, box, counts)
    if len(box) == len(counts):
        with pytest.raises(ValueError, match=message):
            SampledFunction3D(box, counts, np.ones(counts))


@pytest.mark.parametrize(
    "sigma, center, message",
    [
        ((1.0, 1.0), (0.0, 0.0, 0.0), "sigma must be three positive finite widths"),
        ((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0), "sigma must be three positive finite widths"),
        ((1.0, math.nan, 1.0), (0.0, 0.0, 0.0), "sigma must be three positive finite widths"),
        ((1.0, 1.0, 0.0), (0.0, 0.0, 0.0), "sigma must be three positive finite widths"),
        ((1.0, 1.0, 1.0), (0.0, math.nan, 0.0), "center must be three finite coordinates"),
        ((1.0, 1.0, 1.0), (0.0, 0.0, math.inf), "center must be three finite coordinates"),
        ((1.0, 1.0, 1.0), (0.0, 0.0), "center must be three finite coordinates"),
    ],
)
def test_gaussian_family_needs_three_finite_widths_and_center_coordinates(
    sigma, center, message
):
    with pytest.raises(ValueError, match=message):
        GaussianPoly(Poly3.const(1.0), sigma, center)


def test_samples_are_float64_exactly_when_every_sample_is_real():
    box, counts = (1.0, 1.0, 1.0), (2, 2, 2)
    real = RNG.standard_normal(counts)
    f = SampledFunction3D(box, counts, real)
    assert f.samples.dtype == np.float64 and np.array_equal(f.samples, real)
    assert SampledFunction3D(box, counts, np.ones(counts, dtype=int)).samples.dtype == np.float64
    zero_imag = SampledFunction3D(box, counts, real + 0j)
    assert zero_imag.samples.dtype == np.float64 and zero_imag.samples.flags.c_contiguous
    assert np.array_equal(zero_imag.samples, real)
    mixed = real + 0j
    mixed[1, 0, 1] += 1e-300j
    g = SampledFunction3D(box, counts, mixed)
    assert g.samples.dtype == np.complex128 and np.array_equal(g.samples, mixed)
    for bad in (np.full(counts, "1"), np.full(counts, None, dtype=object)):
        with pytest.raises(ValueError, match="samples must be numeric"):
            SampledFunction3D(box, counts, bad)


def test_real_families_sample_as_float64_and_modulated_ones_as_complex128():
    box, counts = (2.0, 2.0, 2.0), (4, 6, 8)
    assert sample_family(CANONICAL_FAMILY, box, counts).samples.dtype == np.float64
    assert sample_family(DC_LEFT, box, counts).samples.dtype == np.complex128


def test_product_keeps_family_only_for_shared_centers():
    box = (2.0, 2.0, 2.0)
    counts = (8, 8, 8)
    f = sample_family(GaussianPoly(Poly3.const(1.0), (0.5, 0.5, 0.5)), box, counts)
    g = sample_family(
        GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.6, 0.5, 0.7)), box, counts
    )
    prod = f * g
    assert prod.family == f.family * g.family
    assert np.max(np.abs(prod.samples - f.samples * g.samples)) == 0.0
    h = sample_family(
        GaussianPoly(Poly3.const(1.0), (0.5, 0.5, 0.5), center=(0.3, 0.0, 0.0)),
        box,
        counts,
    )
    mixed = f * h
    assert mixed.family is None


def test_grids_from_lists_and_tuples_are_one_grid():
    box, counts = (1.5, 1.5, 1.5), (8, 8, 8)
    f = sample_family(GaussianPoly(Poly3.const(1.0), (0.5, 0.6, 0.4)), box, counts)
    fam = GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.6, 0.5, 0.7))
    g = sample_family(fam, box, counts)
    g_list = SampledFunction3D(list(box), list(counts), g.samples, fam)
    assert (g_list.box, g_list.counts) == (box, counts)
    assert f.same_grid(g_list) and g_list.same_grid(f)
    assert np.array_equal((f * g_list).samples, (f * g).samples)
    assert (f * g_list).family == f.family * fam
    tg, grid = TGrid(0.25, 2), GridSpec1D(8, 2.0)

    def coefs(h):
        return node_terms(h, tg, grid, lambda k, coef: coef)

    assert np.array_equal(coefs(g_list), coefs(g))
    assert leibniz_defect(f, g_list) == leibniz_defect(f, g)


def test_sampled_grid_fields_take_only_numbers_of_their_kind():
    zeros = np.zeros((4, 4, 4))
    for counts in ((4.0, 4, 4), (4, True, 4), (4, 4, "4")):
        with pytest.raises(ValueError, match="counts must be an integer"):
            SampledFunction3D((1.0, 1.0, 1.0), counts, zeros)
    for box in ((1.0, "1", 1.0), (1.0, 1.0, 1j)):
        with pytest.raises(ValueError, match="box must be a real number"):
            SampledFunction3D(box, (4, 4, 4), zeros)
    f = SampledFunction3D((1, np.float32(1.0), 1.0), (np.int64(4), 4, 4), zeros)
    assert f.box == (1.0, 1.0, 1.0) and f.counts == (4, 4, 4)
    assert all(type(h) is float for h in f.box) and all(type(n) is int for n in f.counts)


def test_product_requires_matching_grids():
    f = sample_family(GaussianPoly(Poly3.const(1.0), (0.5, 0.5, 0.5)), (2.0, 2.0, 2.0), (8, 8, 8))
    g = sample_family(GaussianPoly(Poly3.const(1.0), (0.5, 0.5, 0.5)), (2.0, 2.0, 2.0), (8, 8, 6))
    with pytest.raises(ValueError):
        f * g


def test_l2_norm_matches_quadrature():
    fam = GaussianPoly(Poly3.const(1.0), (0.4, 0.4, 0.4))
    f = sample_family(fam, (2.4, 2.4, 2.4), (24, 24, 24))
    # separable Gaussian: ||f||^2 = prod_a sigma_a sqrt(pi)
    want = (0.4 * math.sqrt(math.pi)) ** 3
    assert abs(f.l2_norm_sq() - want) / want < 1e-10


def test_check_map_is_an_exact_involution():
    fam = GaussianPoly(
        Poly3({(1, 0, 1): 0.7, (0, 0, 0): 0.1}), (0.8, 0.55, 0.45), (0.3, -0.4, 0.1)
    )
    f = sample_family(fam, (2.0, 2.0, 1.5), (8, 10, 6))
    back = check_map(check_map(f))
    assert np.array_equal(back.samples, f.samples)
    # the check map returns samples only; no caller reads a reflected family
    assert check_map(f).family is None


def test_check_map_evaluates_at_inverse():
    fam = GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.7, 1.0, 0.5), (0.2, 0.1, -0.3))
    f = sample_family(fam, (2.0, 2.0, 1.5), (8, 8, 6))
    fc = check_map(f)
    xs, ys, zs = f.axes
    want = fam.eval_grid(-xs, -ys, -zs)
    assert np.max(np.abs(fc.samples - want)) < 1e-15


def test_boundary_max_sees_all_faces():
    samples = np.zeros((4, 4, 4))
    samples[3, 1, 2] = 7.0
    f = SampledFunction3D((1.0, 1.0, 1.0), (4, 4, 4), samples)
    assert f.boundary_max() == 7.0
