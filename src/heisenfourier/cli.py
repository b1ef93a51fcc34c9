"""Suite orchestration: verification reports, convergence tables, named transforms.

Commands (run as python -m heisenfourier.cli):

    verify <suite> [--out REPORT]
    converge <ladder> --levels N [--out CSV]
    lie find-h3 <structure-file>
    transform --function NAME --out FIELD_FILE

Suites: group, representation, plancherel, inversion, fusion, dualconv,
derivation, inequalities, lie, all; run_suite returns their CheckRecords.
Ladders: representation, plancherel, inversion, fusion, dualconv,
derivation; convergence_rows yields each level of levels() as CSV rows as
soon as it is done, and a level past the ladder's last scale is a capacity stop.
Exit code 0 when every check passes, 1 on a failed check or capacity
stop, 2 on usage or configuration errors.

The one run setting is the seed of the random group elements, set through
the environment as HEISENFOURIER_SEED; every scale, family and tolerance is
a constant of its ladder.  Reports are JSON lines; a fixed seed gives
byte-identical reports apart from the wall-time fields.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .derivation import d_z, derivation_nodes, leibniz_defect
from .field import TGrid, save_field
from .fusion import (
    _dense_w,
    _exact_ratio,
    _theta_term,
    dual_convolution,
    intertwiner,
    partial_trace_second,
    theta1,
)
from .grid import CapacityError, GridSpec1D, schatten_norm
from .group import (
    GaussianPoly,
    GroupElement,
    IDENTITY,
    Poly3,
    SampledFunction3D,
    check_map,
    inv,
    mul,
    sample_family,
)
from .liealg import BUNDLED, bracket, bundled_structure, find_h3, load_structure, lower_central_series
from .liealg import _basis_of_full_space
from .plancherel import (
    a_norm,
    adjoint_pairing_sides,
    inverse_transform_grid,
    m_norm,
    plancherel_defect,
    w_norm,
)
from .schrodinger import forward_field, node_terms, rep_matrix

ENV_PREFIX = "HEISENFOURIER_"

# the headline tolerance of each suite; individually pinned constants
# (unitarity 1e-12, Leibniz 1e-12, exact-slack 1e-9) sit in the checks
TOL = {
    "representation": 1e-6,
    "plancherel": 1e-2,
    "inversion": 1e-2,
    "fusion": 5e-2,
    "dualconv": 5e-2,
    "derivation": 1e-6,
    "inequalities": 1e-9,
}


@dataclass(frozen=True)
class RunConfig:
    """The one run setting: the seed of the random group elements that the
    group, representation and fusion suites draw."""

    seed: int = 20260816


def load_config(env: dict) -> RunConfig:
    """The default config with HEISENFOURIER_SEED from env applied.

    Any other HEISENFOURIER_* variable is an unknown key, so a removed
    setting fails loudly instead of being ignored.
    """
    settings = {}
    for name, raw in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key != "seed":
            raise ValueError(f"unknown config key {key!r}")
        try:
            seed = int(raw)
        except ValueError:
            seed = -1
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {raw!r}")
        settings[key] = seed
    return RunConfig(**settings)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckRecord:
    suite: str
    name: str
    value: float
    tol: Optional[float]
    passed: bool
    seconds: float
    extra: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        # numpy scalars leak in from norm computations; JSON rejects them
        self.value = float(self.value)
        self.tol = None if self.tol is None else float(self.tol)
        self.passed = bool(self.passed)
        self.seconds = float(self.seconds)
        self.extra = {
            key: val.item() if hasattr(val, "item") else val
            for key, val in self.extra.items()
        }


SCHEMA = 1


def report_lines(cfg: RunConfig, records) -> list[str]:
    """The JSON-lines report: config header, one line per record, status tail."""
    failures = sum(not r.passed for r in records)
    lines = [json.dumps({"schema": SCHEMA, "config": asdict(cfg)}, sort_keys=True)]
    for r in records:
        body = {
            "suite": r.suite,
            "check": r.name,
            "value": r.value,
            "tol": r.tol,
            "passed": r.passed,
            "extra": r.extra,
            "seconds": round(r.seconds, 3),
        }
        lines.append(json.dumps(body, sort_keys=True))
    status = {"status": "fail" if failures else "pass", "checks": len(records), "failures": failures}
    lines.append(json.dumps(status, sort_keys=True))
    return lines


def summary(records) -> str:
    """One PASS/FAIL line per record and an overall line."""
    out = []
    for r in records:
        flag = "PASS" if r.passed else "FAIL"
        tol = f" tol {r.tol:.3g}" if r.tol is not None else ""
        out.append(f"[{flag}] {r.suite}.{r.name}: {r.value:.6g}{tol}")
    status = "pass" if all(r.passed for r in records) else "FAIL"
    out.append(f"overall: {status} ({len(records)} checks)")
    return "\n".join(out)


def check(name: str, value, tol=None, passed=None, **extra):
    """One report row of a suite.

    By default the check passes when value < tol, or, without a tol, when
    the value is exactly 0; any other rule is passed in as `passed`.
    """
    if passed is None:
        passed = value < tol if tol is not None else value == 0.0
    return name, value, tol, passed, extra


def gain(coarse: float, fine: float) -> float:
    """coarse / fine, a refinement's gain: inf when only fine is 0, 1.0 when both are."""
    if fine == 0.0:
        return math.inf if coarse > 0.0 else 1.0
    return coarse / fine


def refinement(name: str, pairs, floor: float = 1.0, **extra):
    """A refinement's row: the least gain of its (coarse, fine) pairs, passing above floor."""
    worst = min(gain(coarse, fine) for coarse, fine in pairs)
    return check(name, worst, floor, worst > floor, **extra)


def _suite(name: str):
    """Collect a generator of check rows into the suite's records.

    Each record is booked the wall time since the previous one, so the work
    done before a row, levels included, is charged to that row.
    """

    def collect(rows_fn):
        @functools.wraps(rows_fn)
        def run(cfg: RunConfig) -> list[CheckRecord]:
            records = []
            last = time.perf_counter()
            for check_name, value, tol, passed, extra in rows_fn(cfg):
                now = time.perf_counter()
                records.append(
                    CheckRecord(name, check_name, value, tol, passed, now - last, extra)
                )
                last = now
            return records

        return run

    return collect


# ---------------------------------------------------------------------------
# shared test functions


CANONICAL_FAMILY = GaussianPoly(
    Poly3({(0, 0, 1): 1.0, (0, 0, 0): 0.015}), (0.7, 1.0, 0.5)
)

PARTNER_FAMILY = GaussianPoly(
    Poly3({(1, 0, 1): 0.7, (0, 0, 1): 1.0, (0, 0, 0): 0.1}),
    (0.8, 0.55, 0.45),
    center=(0.3, -0.4, 0.1),
)

DC_LEFT = GaussianPoly(Poly3.const(1.0), (0.5, 0.8, 1.6), z_freq=0.45)
DC_RIGHT = GaussianPoly(Poly3.const(1.0), (0.55, 0.75, 1.6), z_freq=0.38)
DC_WINDOW = ((1.4, 1.2, 1.2), (12, 10, 10))

DERIV_FAMILY = GaussianPoly(Poly3({(0, 0, 1): 1.0}), (0.6, 0.6, 0.5))
DERIV_LEIBNIZ_PARTNER = GaussianPoly(
    Poly3({(0, 0, 2): 0.5, (0, 0, 0): 0.2}), (0.55, 0.7, 0.65)
)
DERIV_MODULE_PARTNER = GaussianPoly(
    Poly3({(1, 0, 0): 0.4, (0, 0, 0): 1.0}), (0.7, 0.65, 0.6), (0.2, -0.3, 0.15)
)

_REP_TS = (0.25, -0.5, 1.0, -1.75, 2.0)

GSET = (
    GroupElement(1.0, 1.0, 1.0),
    GroupElement(0.6, -0.8, 0.35),
    GroupElement(-1.0, 0.5, -0.7),
    GroupElement(0.2, 0.9, -1.0),
)


class Ladder(NamedTuple):
    """A refinement ladder: its scales, coarsest first; level(cfg, scale), the
    dict of values at one scale; and the names of those that converge reports."""

    scales: tuple
    level: Callable
    values: tuple


def levels(name: str, cfg: RunConfig, count: Optional[int] = None):
    """The level dicts of one ladder, coarsest first: the first count, or
    all of them.  Past the ladder's last scale, the capacity stop."""
    ladder = LADDERS[name]
    for scale in ladder.scales[:count]:
        yield ladder.level(cfg, scale)
    if count is not None and count > len(ladder.scales):
        raise CapacityError(f"{name} ladder is defined for {len(ladder.scales)} levels")


def _dyadic_elements(rng, count: int) -> list[GroupElement]:
    raw = rng.integers(-64, 64, size=(count, 3), endpoint=True) / 64.0
    return [GroupElement(*(float(v) for v in row)) for row in raw]


# ---------------------------------------------------------------------------
# suites


def _max_gap(pairs) -> float:
    """Largest coordinate gap over (left, right) pairs of group elements."""
    return max(abs(a - b) for left, right in pairs for a, b in zip(left, right))


@_suite("group")
def group_suite(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    els = _dyadic_elements(rng, 120)
    triples = zip(els[0::3], els[1::3], els[2::3])
    yield check(
        "associativity",
        _max_gap((mul(mul(a, b), c), mul(a, mul(b, c))) for a, b, c in triples),
    )
    yield check("inverse", _max_gap((mul(g, inv(g)), IDENTITY) for g in els[:40]))
    zs = [GroupElement(0.0, 0.0, float(rng.standard_normal())) for _ in range(40)]
    pairs = ((mul(z, g), mul(g, z)) for g, z in zip(els[:40], zs))
    yield check("center_commutes", _max_gap(pairs))
    yield check(
        "identity",
        _max_gap(
            pair
            for g in els[:40]
            for pair in ((mul(IDENTITY, g), g), (mul(g, IDENTITY), g))
        ),
    )
    f = sample_family(CANONICAL_FAMILY, (2.0, 2.0, 1.5), (8, 8, 6))
    back = check_map(check_map(f))
    gap = float(np.max(np.abs(back.samples - f.samples)))
    yield check("check_map_involution", gap)


def _rep_level(cfg: RunConfig, grid: GridSpec1D) -> dict:
    """Homomorphism defect of pi_t on a narrow Gaussian at one carrier."""
    els = _dyadic_elements(np.random.default_rng(cfg.seed), 20)
    v = np.exp(-grid.nodes**2 / (2 * 0.22**2)).astype(complex)
    v /= np.linalg.norm(v)
    hom = 0.0
    for t in _REP_TS:
        for g1, g2 in zip(els[0::2], els[1::2]):
            m1 = rep_matrix(t, g1, grid)
            m2 = rep_matrix(t, g2, grid)
            m12 = rep_matrix(t, mul(g1, g2), grid)
            hom = max(hom, float(np.linalg.norm(m1 @ (m2 @ v) - m12 @ v)))
    return {"homomorphism": hom}


@_suite("representation")
def representation_suite(cfg: RunConfig):
    # unitarity is a property of each carrier, not a refinement defect: the
    # Gram matrices at the base carrier, of the first element of each pair
    grid = LADDERS["representation"].scales[0]
    els = _dyadic_elements(np.random.default_rng(cfg.seed), 20)
    n = grid.n_points
    mats = (rep_matrix(t, g1, grid) for t in _REP_TS for g1 in els[0::2])
    unit = max(float(np.max(np.abs(m.conj().T @ m - np.eye(n)))) for m in mats)
    yield check("unitarity", unit, 1e-12)
    hom, hom_ref = (level["homomorphism"] for level in levels("representation", cfg, 2))
    yield check("homomorphism", hom, TOL["representation"])
    yield refinement("homomorphism_doubling_gain", [(hom, hom_ref)], 4.0, defect_512=hom_ref)


def _ladder(name: str, chain, tol: float):
    """Rows <name>_level<i>, the first against tol, and <name>_decreasing,
    the least gain between neighbouring levels.

    Consumes the level dicts as it reports them and returns them, so a
    suite can read a second value of the same levels.
    """
    seen = []
    for i, level in enumerate(chain):
        seen.append(level)
        if i == 0:
            yield check(f"{name}_level0", level[name], tol)
        else:
            yield check(f"{name}_level{i}", level[name], passed=True)
    yield refinement(f"{name}_decreasing", itertools.pairwise(level[name] for level in seen))
    return seen


def _plancherel_level(cfg: RunConfig, scale) -> dict:
    box, counts, tgrid, grid = scale
    f = sample_family(CANONICAL_FAMILY, box, counts)
    return {"isometry_defect": plancherel_defect(f, tgrid, grid)}


@_suite("plancherel")
def plancherel_suite(cfg: RunConfig):
    yield from _ladder("isometry_defect", levels("plancherel", cfg), TOL["plancherel"])


def _inversion_level(cfg: RunConfig, scales) -> dict:
    """The adjoint pairing at the pair's first scales, the round trip at its second."""
    (box, counts, tgrid, grid), roundtrip = scales
    lhs, rhs = adjoint_pairing_sides(
        sample_family(PARTNER_FAMILY, box, counts),
        forward_field(sample_family(CANONICAL_FAMILY, box, counts), tgrid, grid),
        grid,
    )
    box, counts, tgrid, grid = roundtrip
    f = sample_family(CANONICAL_FAMILY, box, counts)
    recon = inverse_transform_grid(forward_field(f, tgrid, grid), box, counts, grid)
    return {
        "roundtrip": float(np.max(np.abs(recon - f.samples)) / np.max(np.abs(f.samples))),
        "adjoint_pairing": abs(lhs - rhs) / abs(lhs),
    }


@_suite("inversion")
def inversion_suite(cfg: RunConfig):
    tol = TOL["inversion"]
    seen = yield from _ladder("roundtrip", levels("inversion", cfg), tol)
    # a_norm of the base round trip's forward field against delta * sum_k
    # || |t_k| pi_{t_k}(f) ||_1, from a node_terms pass of its own, so a
    # defect in forward_field or a_norm moves the gap
    _, (box, counts, tgrid, grid) = LADDERS["inversion"].scales[0]
    f = sample_family(CANONICAL_FAMILY, box, counts)
    ts = tgrid.nodes
    terms = node_terms(f, tgrid, grid, lambda k, coef: schatten_norm(abs(ts[k]) * coef, 1))
    gap = abs(a_norm(forward_field(f, tgrid, grid)) - tgrid.delta * sum(terms))
    yield check("a_norm_convention", gap)
    yield from _ladder("adjoint_pairing", seen, tol)


_FUSION_RATIOS = ((1.0, 1.0), (0.125, 0.125), (0.1875, -0.0625), (2.0, -1.0))
_RESIDUAL_PAIRS = ((0.25, 0.125), (0.125, 0.125), (0.375, -0.0625))


def _gaussian_pair(grid: GridSpec1D, sigma: float) -> np.ndarray:
    """The separable Gaussian exp(-(u^2 + k^2) / (2 sigma^2)) on the grid."""
    bump = np.exp(-(grid.nodes**2) / (2 * sigma**2))
    return np.outer(bump, bump)


def _intertwine_residual(r: float, s: float, grid: GridSpec1D) -> float:
    v = _gaussian_pair(grid, 0.8)
    wv = intertwiner(r, s, grid, v)
    nv = np.linalg.norm(v)
    worst = 0.0
    for g in GSET:
        ar = rep_matrix(r, g, grid)
        as_ = rep_matrix(s, g, grid)
        at = rep_matrix(r + s, g, grid)
        lhs = intertwiner(r, s, grid, ar @ v @ as_.T)
        worst = max(worst, float(np.linalg.norm(lhs - at @ wv)) / nv)
    return worst


def _composition_oracle(n: int) -> float:
    grid = GridSpec1D(n, 6.25)
    fvec = _gaussian_pair(grid, 1.2)
    scale = np.linalg.norm(fvec)
    u = grid.nodes
    uu = u[:, None]
    kk = u[None, :]
    comp = np.exp(-((uu - 0.5 * kk) ** 2) / (2 * 1.2**2)) * np.exp(
        -((uu + 0.5 * kk) ** 2) / (2 * 1.2**2)
    )
    got = intertwiner(1.0, 1.0, grid, fvec)
    return float(np.max(np.abs(got - comp)) / scale)


def _fusion_level(cfg: RunConfig, grid: GridSpec1D) -> dict:
    residuals = [_intertwine_residual(r, s, grid) for r, s in _RESIDUAL_PAIRS]
    return {
        "residuals": residuals,
        "residual_max": max(residuals),
        "composed_action_oracle": _composition_oracle(grid.n_points),
    }


@_suite("fusion")
def fusion_suite(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    # W of the matrix-free path, column by column: column i is W e_i
    grid0 = LADDERS["fusion"].scales[0]
    n = grid0.n_points
    eye = np.eye(n * n)
    unit = 0.0
    for r, s in _FUSION_RATIOS:
        w = np.stack(
            [intertwiner(r, s, grid0, e.reshape(n, n)).ravel() for e in eye], axis=1
        )
        unit = max(unit, float(np.max(np.abs(w.conj().T @ w - eye))))
    yield check("intertwiner_unitarity", unit, 1e-12)

    grid8 = GridSpec1D(8, 3.0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ratio8 = _exact_ratio(0.25, 0.125)
    w8 = _dense_w(ratio8, grid8)
    big = w8 @ np.kron(a, b) @ w8.conj().T
    contracted = partial_trace_second(big, 8)
    fused = _theta_term(ratio8, grid8, a, b)
    yield check(
        "partial_trace_fused_vs_literal", float(np.max(np.abs(fused - contracted))), 1e-12
    )
    yield check(
        "partial_trace_preserves_trace",
        abs(np.trace(contracted) - np.trace(a) * np.trace(b)),
        1e-12,
    )
    slack = schatten_norm(contracted, 1) - schatten_norm(big, 1)
    yield check("trace_norm_contraction_slack", slack, 1e-9, slack <= 1e-9)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    c /= np.linalg.norm(c)
    lhs = np.trace(c @ contracted)
    rhs = np.trace(np.kron(c, np.eye(8)) @ big)
    yield check("partial_trace_adjoint_identity", abs(lhs - rhs), 1e-10)

    base, refined = levels("fusion", cfg, 2)
    oracle = base["composed_action_oracle"]
    yield check("composed_action_oracle", oracle, 1e-3)
    yield refinement("composed_action_doubling_gain", [(oracle, refined["composed_action_oracle"])])

    tol = TOL["fusion"]
    for (r, s), res, res_ref in zip(_RESIDUAL_PAIRS, base["residuals"], refined["residuals"]):
        label = f"r{r:+.4f}_s{s:+.4f}".replace(".", "p")
        yield check(f"residual_{label}", res, tol)
        yield refinement(f"residual_gain_{label}", [(res, res_ref)], residual_n32=res_ref)

    v = _gaussian_pair(grid0, 0.8)
    gap = 0.0
    for r, s in _RESIDUAL_PAIRS:
        dense = (_dense_w(_exact_ratio(r, s), grid0) @ v.ravel()).reshape(v.shape)
        diff = np.max(np.abs(intertwiner(r, s, grid0, v) - dense))
        gap = max(gap, float(diff / np.max(np.abs(dense))))
    yield check("intertwiner_matrix_free_vs_dense", gap, 1e-12)


def _dc_fields(scale):
    """The carrier, DC_LEFT and DC_RIGHT sampled at one scale, and their
    forward fields F and G."""
    box, counts, tgrid, grid = scale
    f1 = sample_family(DC_LEFT, box, counts)
    f2 = sample_family(DC_RIGHT, box, counts)
    return grid, f1, f2, forward_field(f1, tgrid, grid), forward_field(f2, tgrid, grid)


def _dc_level(cfg: RunConfig, scale) -> dict:
    grid, f1, f2, F, G = _dc_fields(scale)
    FG = dual_convolution(F, G, grid)
    GF = dual_convolution(G, F, grid)
    direct = forward_field(f1 * f2, F.tgrid, grid)
    wbox, wcounts = DC_WINDOW
    lhs = inverse_transform_grid(FG, wbox, wcounts, grid)
    rhs = inverse_transform_grid(direct, wbox, wcounts, grid)
    prod = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    comm = a_norm(FG - GF) / a_norm(FG)
    gaps = schatten_norm(direct.mats - FG.mats, 1)
    remark = float(np.max(gaps) / np.max(schatten_norm(direct.mats, 1)))
    return {"product_identity": prod, "commutativity": comm, "remark_identity": remark}


@_suite("dualconv")
def dualconv_suite(cfg: RunConfig):
    tol = TOL["dualconv"]
    base, refined = levels("dualconv", cfg, 2)
    prod, remark = base["product_identity"], base["remark_identity"]
    yield check("product_identity", prod, tol)
    yield check("commutativity", base["commutativity"], tol)
    yield check("remark_identity_nodewise", remark, tol)
    yield refinement(
        "product_identity_refined",
        [(prod, refined["product_identity"])],
        commutativity=refined["commutativity"],
        remark=refined["remark_identity"],
    )
    yield refinement("remark_identity_refined", [(remark, refined["remark_identity"])])


_THETA1_PAIRS = ((3, 3), (4, 2), (3, -2), (-2, 4), (5, 3))


@_suite("inequalities")
def inequalities_suite(cfg: RunConfig):
    tol = TOL["inequalities"]
    grid, _, _, F, G = _dc_fields(LADDERS["dualconv"].scales[0])
    FG, bounds = dual_convolution(F, G, grid, with_theta_bounds=True)
    worst = float(np.max(schatten_norm(FG.mats, 1) - bounds))
    yield check("theta2_nodewise_slack", worst, tol, worst <= tol)
    slack = m_norm(FG) - a_norm(F) * m_norm(G)
    yield check("m_norm_module_slack", slack, tol, slack <= tol)
    slack = a_norm(FG) - a_norm(F) * a_norm(G)
    yield check("a_norm_submultiplicative_slack", slack, tol, slack <= tol)
    worst = max(
        schatten_norm(theta1(F, G, j, m, grid), 1)
        - schatten_norm(F.at_k(j), 1) * schatten_norm(G.at_k(m), 1)
        for j, m in _THETA1_PAIRS
    )
    yield check("theta1_trace_norm_slack", worst, tol, worst <= tol)


def _deriv_level(cfg: RunConfig, scale) -> dict:
    """The odd family at one scale: the multiplier, both sides of
    w_norm(d_z f) <= a_norm(F_f) and of the module inequality
    w_norm(f h) <= a_norm(F_f) w_norm(h)."""
    box, counts, tg, carrier = scale
    f = sample_family(DERIV_FAMILY, box, counts)
    h = sample_family(DERIV_MODULE_PARTNER, box, counts)
    gap, dz_norm, trace_norm = derivation_nodes(f, tg, carrier)
    a_norm_f = float(tg.delta * sum(trace_norm))
    module_lhs = w_norm(f * h, tg, carrier)
    module_rhs = a_norm_f * w_norm(h, tg, carrier)
    return {
        "f": f,
        "multiplier_identity": float(np.max(gap)),
        "dz_norm": dz_norm,
        "w_norm_dz": float(tg.delta * sum(dz_norm)),
        "a_norm": a_norm_f,
        "node_gap": float(np.max(dz_norm - trace_norm)),
        "module_lhs": module_lhs,
        "module_rhs": module_rhs,
        "module_rel_excess": max(0.0, (module_lhs - module_rhs) / module_rhs),
    }


@_suite("derivation")
def derivation_suite(cfg: RunConfig):
    tol = TOL["derivation"]
    deriv = levels("derivation", cfg, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = next(deriv)
    f, mult = base["f"], base["multiplier_identity"]
    yield check("multiplier_identity", mult, tol)
    # the same samples without the family take the spectral path
    plain = SampledFunction3D(f.box, f.counts, f.samples)
    gap = float(np.max(np.abs(d_z(f).samples - d_z(plain).samples)))
    yield check("spectral_vs_analytic", gap, tol)
    box, counts, tg, carrier = LADDERS["derivation"].scales[0]
    g = sample_family(DERIV_LEIBNIZ_PARTNER, box, counts)
    yield check("leibniz_identity", leibniz_defect(f, g), 1e-12)

    lhs, rhs = base["w_norm_dz"], base["a_norm"]
    yield check("nonvanishing_witness", lhs, 1e-3, lhs >= 1e-3)
    # share of the lattice sum carried by the outermost nodes t = +-K*delta;
    # small means the finite t-window already holds the whole norm
    per_node = base["dz_norm"]
    tail = float((per_node[0] + per_node[-1]) / sum(per_node))
    yield check("w_norm_tail_fraction", tail, tol)
    # the aggregate bound, and the node-wise chain behind it up to the
    # multiplier's quadrature error
    yield check(
        "w_norm_bound_slack",
        lhs - rhs,
        passed=lhs <= rhs + 1e-9 and base["node_gap"] <= 1e-9 + mult,
    )

    # three independent transforms meet here, so the budget is relative
    def module_holds(level):
        return level["module_lhs"] <= level["module_rhs"] * (1.0 + 5e-2) + 1e-9

    excess = base["module_rel_excess"]
    yield check(
        "module_inequality",
        excess,
        5e-2,
        module_holds(base),
        lhs=base["module_lhs"],
        rhs=base["module_rhs"],
    )
    refined = next(deriv)
    excess_ref = refined["module_rel_excess"]
    yield check(
        "module_inequality_refined",
        excess_ref,
        passed=module_holds(refined) and excess_ref <= max(excess, 1e-9),
    )

    small = sample_family(DERIV_FAMILY, (4.0, 4.0, 2.5), (32, 32, 20))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "boundary samples reach", UserWarning)
        d_small = float(np.max(derivation_nodes(small, tg, carrier)[0]))
    yield refinement("boundary_decay_gain", [(d_small, mult)])


_LIE_EXPECTED = {
    "abelian2": {"dims": (2, 0), "degree": 1},
    "h3": {"dims": (3, 1, 0), "degree": 2},
    "n4": {"dims": (4, 2, 1, 0), "degree": 3},
    "upper4": {"dims": (6, 3, 1, 0), "degree": 3},
    "h5": {"dims": (5, 1, 0), "degree": 2},
}


def _basis_pair_h3(L) -> bool:
    """Exhaustive search: do two basis vectors e_i, e_j span an h3 copy?

    Independent of find_h3 apart from the bracket itself: no central
    series, no span tests, every pair tried.
    """
    for e, f in itertools.combinations(_basis_of_full_space(L.dim), 2):
        z = bracket(L, e, f)
        if any(z) and not any(bracket(L, e, z)) and not any(bracket(L, f, z)):
            return True
    return False


@_suite("lie")
def lie_suite(cfg: RunConfig):
    for name in BUNDLED:
        L = bundled_structure(name)
        flag = lower_central_series(L)
        degree = flag.nilpotency_degree
        nil = degree is not None
        expected = _LIE_EXPECTED[name]
        shape_ok = flag.dims == expected["dims"] and nil and degree == expected["degree"]
        emb = find_h3(L) if degree >= 2 else None
        # [x, z] = [y, z] = 0 follow from z commuting with every basis vector
        relations_ok = emb is None or (
            any(emb.z)
            and bracket(L, emb.x, emb.y) == emb.z
            and not any(c for e in _basis_of_full_space(L.dim) for c in bracket(L, e, emb.z))
        )
        oracle_ok = (emb is not None) == _basis_pair_h3(L)
        ok = shape_ok and relations_ok and oracle_ok
        yield check(
            f"corpus_{name}", 0.0 if ok else 1.0, dims=list(flag.dims), degree=degree
        )
    try:
        find_h3(bundled_structure("abelian2"))
        missed = 1.0
    except ValueError:
        missed = 0.0
    yield check("abelian_rejected", missed)


SUITES = {
    "group": group_suite,
    "representation": representation_suite,
    "plancherel": plancherel_suite,
    "inversion": inversion_suite,
    "fusion": fusion_suite,
    "dualconv": dualconv_suite,
    "derivation": derivation_suite,
    "inequalities": inequalities_suite,
    "lie": lie_suite,
}


def run_suite(name: str, cfg: RunConfig) -> list[CheckRecord]:
    """The records of one suite, or of every suite in order for "all"."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else (name,)
    return [record for suite in names for record in SUITES[suite](cfg)]


# ---------------------------------------------------------------------------
# ladders and convergence tables


# each ladder's scales, coarsest first.  A scale is (box, counts, t-grid,
# carrier), or a bare carrier for a representation or fusion level.  An
# inversion scale is the pair (adjoint-pairing scales, plancherel scales), for
# neither check converges at the other's scales: the adjoint pairing at the
# plancherel scales reads 1.737e-5, 6.893e-5, 3.770e-5, which does not
# decrease, and the round trip at the adjoint-pairing scales, where delta
# stays 0.125, stalls on the dropped t = 0 term at 7.842e-3, 7.531e-3, 7.530e-3.
_PLANCHEREL_SCALES = (
    ((5.2, 5.2, 3.2), (64, 96, 44), TGrid(0.125, 32), GridSpec1D(64, 4.0)),
    ((5.2, 5.2, 3.2), (96, 192, 44), TGrid(0.0625, 64), GridSpec1D(128, 4.0 * math.sqrt(2.0))),
    ((5.2, 5.2, 3.2), (128, 384, 44), TGrid(0.03125, 128), GridSpec1D(256, 8.0)),
)
_ADJOINT_PAIRING_SCALES = (
    ((5.2, 5.2, 3.2), (64, 96, 44), TGrid(0.125, 32), GridSpec1D(64, 4.0)),
    ((5.2, 5.2, 3.2), (112, 136, 44), TGrid(0.125, 32), GridSpec1D(128, 4.0 * math.sqrt(2.0))),
    ((5.2, 5.2, 3.2), (192, 192, 44), TGrid(0.125, 32), GridSpec1D(256, 8.0)),
)
_DUALCONV_SCALES = (
    ((2.0, 2.9, 5.6), (22, 42, 40), TGrid(0.125, 16), GridSpec1D(16, 2.2)),
    ((2.0, 2.9, 5.6), (22, 56, 40), TGrid(0.0625, 32), GridSpec1D(32, 4.4)),
)
_DERIVATION_SCALES = (
    ((5.0, 5.0, 4.0), (40, 40, 32), TGrid(0.25, 8), GridSpec1D(32, 3.2)),
    ((5.0, 5.0, 4.0), (56, 56, 44), TGrid(0.25, 8), GridSpec1D(64, 3.2)),
)

LADDERS = {
    "representation": Ladder(
        tuple(GridSpec1D(n, 10.0) for n in (256, 512, 1024)), _rep_level, ("homomorphism",)
    ),
    "plancherel": Ladder(_PLANCHEREL_SCALES, _plancherel_level, ("isometry_defect",)),
    "inversion": Ladder(
        tuple(zip(_ADJOINT_PAIRING_SCALES, _PLANCHEREL_SCALES)),
        _inversion_level,
        ("roundtrip", "adjoint_pairing"),
    ),
    "fusion": Ladder(
        tuple(GridSpec1D(n, 4.0) for n in (16, 32, 64, 128, 256, 512, 1024)),
        _fusion_level,
        ("residual_max", "composed_action_oracle"),
    ),
    "dualconv": Ladder(_DUALCONV_SCALES, _dc_level, ("product_identity", "remark_identity")),
    "derivation": Ladder(_DERIVATION_SCALES, _deriv_level, ("multiplier_identity", "module_rel_excess")),
}


def convergence_rows(ladder: str, cfg: RunConfig, count: int):
    """CSV rows defect-vs-level with successive improvement ratios.

    Yields the header, then each level's rows as soon as that level is
    done; a count past the ladder's scales raises the capacity stop of
    levels() after the rows of the levels before it.
    """
    if count < 2:
        raise ValueError("levels must be at least 2")
    if ladder not in LADDERS:
        raise ValueError(f"unknown ladder {ladder!r}")
    names = LADDERS[ladder].values
    yield "suite,check,level,value,gain_vs_prev"
    prev: dict[str, float] = {}
    for level, values in enumerate(levels(ladder, cfg, count)):
        for name in names:
            value = values[name]
            ratio = f"{gain(prev[name], value):.6g}" if name in prev else ""
            prev[name] = value
            yield f"{ladder},{name},{level},{value:.9e},{ratio}"


# ---------------------------------------------------------------------------
# entry point


# transform --function NAME: the family and the ladder whose first scale
# samples it; the partner's adjoint-pairing base scales are the plancherel base
# scales
_NAMED_FUNCTIONS = {
    "canonical": (CANONICAL_FAMILY, "plancherel"),
    "partner": (PARTNER_FAMILY, "plancherel"),
    "dc-left": (DC_LEFT, "dualconv"),
    "dc-right": (DC_RIGHT, "dualconv"),
    "derivation-odd": (DERIV_FAMILY, "derivation"),
}


def _open_out(path: Optional[str]):
    # opened before any work, so a bad path fails at once
    return open(path, "w") if path else contextlib.nullcontext()


def _cmd_verify(args, cfg: RunConfig) -> int:
    with _open_out(args.out) as fh:
        records = run_suite(args.suite, cfg)
        print(summary(records))
        if fh:
            fh.write("\n".join(report_lines(cfg, records)) + "\n")
    return 0 if all(r.passed for r in records) else 1


def _cmd_converge(args, cfg: RunConfig) -> int:
    with _open_out(args.out) as fh:
        try:
            for row in convergence_rows(args.suite, cfg, args.levels):
                print(row, flush=True)
                if fh:
                    fh.write(row + "\n")
                    fh.flush()
        except CapacityError as stop:
            print(f"capacity stop: {stop}", file=sys.stderr)
            return 1
    return 0


def _cmd_lie(args, cfg: RunConfig) -> int:
    L = load_structure(args.structure_file)
    try:
        emb = find_h3(L)
    except ValueError as err:
        print(f"no embedding: {err}", file=sys.stderr)
        return 1
    for label, vec in (("X", emb.x), ("Y", emb.y), ("Z", emb.z)):
        coords = ", ".join(str(c) for c in vec)
        print(f"{label} = ({coords})")
    print("relations: [X,Y] = Z, [X,Z] = 0, [Y,Z] = 0 verified exactly")
    return 0


def _cmd_transform(args, cfg: RunConfig) -> int:
    if args.function not in _NAMED_FUNCTIONS:
        raise ValueError(f"unknown function {args.function!r}; have {', '.join(_NAMED_FUNCTIONS)}")
    family, ladder = _NAMED_FUNCTIONS[args.function]
    box, counts, tgrid, grid = LADDERS[ladder].scales[0]
    field = forward_field(sample_family(family, box, counts), tgrid, grid)
    save_field(field, args.out)
    print(f"wrote {field.tgrid.n_nodes} nodes of dimension {field.dim} to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heisenfourier", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--out", help="write the JSON-lines report here")
    p_verify.set_defaults(run=_cmd_verify)

    p_conv = sub.add_parser("converge", help="defect-vs-refinement table")
    p_conv.add_argument("suite", choices=tuple(LADDERS))
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--out", help="write the CSV table here")
    p_conv.set_defaults(run=_cmd_converge)

    p_lie = sub.add_parser("lie", help="lie-algebra utilities")
    lie_sub = p_lie.add_subparsers(dest="lie_command", required=True)
    p_find = lie_sub.add_parser("find-h3", help="extract an h3 copy")
    p_find.add_argument("structure_file")
    p_find.set_defaults(run=_cmd_lie)

    p_tr = sub.add_parser("transform", help="write a named forward field")
    p_tr.add_argument("--function", required=True)
    p_tr.add_argument("--out", required=True, help="write the field to this file")
    p_tr.set_defaults(run=_cmd_transform)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(os.environ)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        return args.run(args, cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
