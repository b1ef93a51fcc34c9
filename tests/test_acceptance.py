"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Each criterion re-asserts its headline tolerances literally, on top of the
structured records produced by the verification suites.
"""

import time

import numpy as np

from heisenfourier.cli import (
    RunConfig,
    derivation_suite,
    dualconv_suite,
    fusion_suite,
    group_suite,
    inequalities_suite,
    inversion_suite,
    lie_suite,
    plancherel_suite,
    representation_suite,
)

CFG = RunConfig()

_CACHE = {}


def _by_name(records):
    return {r.name: r for r in records}


def _inversion_records():
    """Criteria 3 and 4 read the same ladder; compute it once."""
    if "inversion" not in _CACHE:
        _CACHE["inversion"] = _by_name(inversion_suite(CFG))
    return _CACHE["inversion"]


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num}: {status} - {label} ({detail})")
    assert ok, f"criterion {num} failed: {label}: {detail}"


def test_criterion_1_group_and_representation():
    t0 = time.perf_counter()
    group = group_suite(CFG)
    rep = _by_name(representation_suite(CFG))
    exact = all(r.passed and r.value == 0.0 for r in group)
    unit = rep["unitarity"].value
    hom = rep["homomorphism"].value
    gain = rep["homomorphism_doubling_gain"].value
    ok = exact and unit < 1e-12 and hom < 1e-6 and gain >= 4.0
    _report(
        1,
        "group exactness, unitarity, homomorphism",
        ok,
        f"unitarity {unit:.2e}, homomorphism {hom:.2e}, "
        f"doubling gain {gain:.3g}, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_2_plancherel_isometry():
    t0 = time.perf_counter()
    recs = plancherel_suite(CFG)
    levels = [r.value for r in recs if r.name.startswith("isometry_defect_level")]
    decreasing = all(a > b for a, b in zip(levels, levels[1:]))
    ok = levels[0] < 1e-2 and len(levels) >= 3 and decreasing
    _report(
        2,
        "Plancherel isometry with refinement decay",
        ok,
        "defects " + " > ".join(f"{v:.2e}" for v in levels)
        + f", {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_3_inversion_roundtrip():
    t0 = time.perf_counter()
    recs = _inversion_records()
    levels = [recs[f"roundtrip_level{i}"].value for i in range(3)]
    decreasing = all(a > b for a, b in zip(levels, levels[1:]))
    convention = recs["a_norm_convention"].value
    ok = levels[0] < 1e-2 and decreasing and convention == 0.0
    _report(
        3,
        "inversion round-trip and a_norm convention",
        ok,
        "sup-rel " + " > ".join(f"{v:.2e}" for v in levels)
        + f", convention gap {convention:.1e}, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_4_adjoint_relation():
    t0 = time.perf_counter()
    recs = _inversion_records()
    levels = [recs[f"adjoint_pairing_level{i}"].value for i in range(3)]
    decreasing = all(a > b for a, b in zip(levels, levels[1:]))
    ok = levels[0] < 1e-2 and decreasing
    _report(
        4,
        "adjoint pairing with refinement decay",
        ok,
        "rel " + " > ".join(f"{v:.2e}" for v in levels)
        + f", {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_fusion():
    t0 = time.perf_counter()
    recs = _by_name(fusion_suite(CFG))
    unit = recs["intertwiner_unitarity"].value
    residuals = [r for name, r in recs.items() if name.startswith("residual_r")]
    gains = [r for name, r in recs.items() if name.startswith("residual_gain_")]
    ptrace_ok = (
        recs["partial_trace_preserves_trace"].value < 1e-12
        and recs["trace_norm_contraction_slack"].value <= 1e-9
        and recs["partial_trace_adjoint_identity"].value < 1e-10
        and recs["partial_trace_fused_vs_literal"].passed
    )
    ok = (
        unit < 1e-12
        and all(r.value < 0.05 for r in residuals)
        and all(g.value > 1.0 for g in gains)
        and ptrace_ok
        and recs["composed_action_oracle"].passed
    )
    worst = max(r.value for r in residuals)
    _report(
        5,
        "fusion intertwiner and partial-trace identities",
        ok,
        f"unitarity {unit:.2e}, worst residual {worst:.3f} at N=16, "
        f"all gains > 1, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_6_dual_convolution():
    t0 = time.perf_counter()
    recs = _by_name(dualconv_suite(CFG))
    prod = recs["product_identity"].value
    comm = recs["commutativity"].value
    remark = recs["remark_identity_nodewise"].value
    refined_ok = recs["product_identity_refined"].passed and recs[
        "remark_identity_refined"
    ].passed
    ok = prod < 5e-2 and comm < 5e-2 and remark < 5e-2 and refined_ok
    _report(
        6,
        "dual convolution product identity",
        ok,
        f"product {prod:.3f}, commutativity {comm:.3f}, remark {remark:.3f}, "
        f"refinement gain {recs['product_identity_refined'].value:.1f}, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_7_exact_inequalities():
    t0 = time.perf_counter()
    recs = inequalities_suite(CFG)
    worst = max(r.value for r in recs)
    ok = all(r.passed for r in recs) and worst <= 1e-9
    _report(
        7,
        "discrete norm inequalities hold with 1e-9 slack",
        ok,
        f"worst slack {worst:.2e} over {len(recs)} inequalities, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_8_derivation_chain():
    t0 = time.perf_counter()
    recs = _by_name(derivation_suite(CFG))
    mult = recs["multiplier_identity"].value
    leib = recs["leibniz_identity"].value
    witness = recs["nonvanishing_witness"].value
    bound_ok = recs["w_norm_bound_slack"].passed
    module_ok = (
        recs["module_inequality"].passed and recs["module_inequality_refined"].passed
    )
    ok = (
        mult < 1e-6
        and leib < 1e-12
        and witness >= 1e-3
        and bound_ok
        and module_ok
        and recs["spectral_vs_analytic"].passed
    )
    _report(
        8,
        "derivation multiplier, Leibniz, norm bounds",
        ok,
        f"multiplier {mult:.2e}, leibniz {leib:.2e}, witness {witness:.3f}, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_9_lie_suite():
    t0 = time.perf_counter()
    recs = lie_suite(CFG)
    ok = all(r.passed for r in recs) and all(r.value == 0.0 for r in recs)
    _report(
        9,
        "exact Lie-algebra corpus with embedding oracle",
        ok,
        f"{len(recs)} exact checks, {time.perf_counter() - t0:.2f}s",
    )
