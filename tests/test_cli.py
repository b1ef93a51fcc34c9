import json
import math
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

import heisenfourier.cli as cli
import heisenfourier.derivation as derivation
import heisenfourier.fusion as fusion
import heisenfourier.liealg as liealg
import heisenfourier.plancherel as plancherel
import heisenfourier.schrodinger as schrodinger
from heisenfourier.cli import (
    CheckRecord,
    RunConfig,
    TOL,
    convergence_rows,
    derivation_suite,
    fusion_suite,
    group_suite,
    inequalities_suite,
    lie_suite,
    load_config,
    main,
    report_lines,
    representation_suite,
    run_suite,
    summary,
)
from heisenfourier.derivation import d_z, derivation_nodes
from heisenfourier.field import OperatorField, load_field
from heisenfourier.grid import CapacityError, schatten_norm
from heisenfourier.group import SampledFunction3D, sample_family
from heisenfourier.liealg import H3Embedding, bracket, bundled_structure
from heisenfourier.plancherel import a_norm, w_norm
from heisenfourier.schrodinger import forward_field, node_terms


def test_default_config_validates():
    assert load_config({}) == RunConfig()
    assert asdict(RunConfig()) == {"seed": 20260816}


def test_config_rejects_bad_values():
    for raw in ("-3", "1.5", "seven", ""):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {raw!r}"):
            load_config({"HEISENFOURIER_SEED": raw})


def test_load_config_precedence():
    # HEISENFOURIER_SEED overrides the default; unprefixed variables are not read
    assert load_config({"HEISENFOURIER_SEED": "9", "SEED": "3"}) == RunConfig(seed=9)
    assert load_config({"SEED": "3"}) == RunConfig()
    assert load_config({"HEISENFOURIER_SEED": "0"}) == RunConfig(seed=0)


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key 'mystery'"):
        load_config({"HEISENFOURIER_MYSTERY": "3"})


# settings of earlier versions, now constants of the ladders that read them;
# setting one must fail loudly instead of being ignored
REMOVED_KEYS = {
    "n_points": "64",
    "half_width": "4.0",
    "counts": "64,96,44",
    "delta": "0.125",
    "k_max": "32",
    "box": "5.2,5.2,3.2",
    "fam_sigma": "0.7,1.0,0.5",
    "fam_shift": "0.015",
    "dc_n_points": "16",
    "dc_half_width": "2.2",
    "dc_delta": "0.125",
    "dc_k_max": "16",
    "dc_box": "2.0,2.9,5.6",
    "dc_counts": "22,42,40",
    **{f"tol_{suite}": str(tol) for suite, tol in TOL.items()},
}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_removed_config_keys_are_unknown(monkeypatch, capsys, key):
    monkeypatch.setenv(f"HEISENFOURIER_{key.upper()}", REMOVED_KEYS[key])
    assert main(["verify", "group"]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_file_flag_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\n")
    for argv in (
        ["--config", str(path), "verify", "group"],
        ["verify", "group", "--config", str(path)],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()


def test_seed_reaches_the_report_header(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.jsonl"
    monkeypatch.setenv("HEISENFOURIER_SEED", "11")
    assert main(["verify", "group", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == '{"config": {"seed": 11}, "schema": 1}'
    capsys.readouterr()


def test_records_coerce_numpy_scalars():
    rec = CheckRecord(
        "s",
        "n",
        np.float64(0.5),
        np.float64(1.0),
        np.bool_(True),
        np.float64(0.1),
        {"aux": np.float64(2.0)},
    )
    assert isinstance(rec.value, float)
    assert isinstance(rec.passed, bool)
    assert isinstance(rec.extra["aux"], float)
    json.dumps(rec.extra)


def test_report_json_lines_are_deterministic():
    cfg = RunConfig()
    records = [
        CheckRecord("group", "a", 0.0, None, True, 0.123),
        CheckRecord("group", "b", 0.5, 1.0, True, 0.456),
    ]
    lines = report_lines(cfg, records)
    again = report_lines(cfg, records)
    assert lines == again
    head = json.loads(lines[0])
    assert head["schema"] == 1
    assert [json.loads(line)["seconds"] for line in lines[1:3]] == [0.123, 0.456]
    tail = json.loads(lines[-1])
    assert tail == {"status": "pass", "checks": 2, "failures": 0}
    assert summary(records).splitlines()[-1] == "overall: pass (2 checks)"
    records.append(CheckRecord("group", "c", 2.0, 1.0, False, 0.0))
    assert json.loads(report_lines(cfg, records)[-1]) == {
        "status": "fail",
        "checks": 3,
        "failures": 1,
    }
    assert summary(records).splitlines()[-2:] == [
        "[FAIL] group.c: 2 tol 1",
        "overall: FAIL (3 checks)",
    ]


def test_suite_rows_default_rules_and_timing(monkeypatch):
    clock = [10.0]
    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])

    @cli._suite("toy")
    def toy(cfg):
        clock[0] += 1.0
        yield cli.check("below_tol", 0.5, 1.0)
        clock[0] += 2.0
        yield cli.check("at_tol", 1.0, 1.0)
        yield cli.check("exact", 0.0)
        clock[0] += 0.5
        yield cli.check("tiny", 1e-300)
        yield cli.check("forced_pass", 2.0, 1.0, passed=True, aux=np.float64(3.0))
        clock[0] += 0.25
        yield cli.check("forced_fail", 0.0, passed=False)

    records = toy(RunConfig())
    assert [(r.suite, r.name, r.tol, r.passed) for r in records] == [
        ("toy", "below_tol", 1.0, True),
        ("toy", "at_tol", 1.0, False),
        ("toy", "exact", None, True),
        ("toy", "tiny", None, False),
        ("toy", "forced_pass", 1.0, True),
        ("toy", "forced_fail", None, False),
    ]
    assert records[4].extra == {"aux": 3.0}
    assert type(records[4].extra["aux"]) is float
    assert all(r.extra == {} for i, r in enumerate(records) if i != 4)
    assert [r.seconds for r in records] == [1.0, 2.0, 0.0, 0.5, 0.0, 0.25]
    assert sum(r.seconds for r in records) == clock[0] - 10.0


def test_refinement_rows_take_the_least_gain_over_a_floor():
    assert cli.gain(3.0, 1.5) == 2.0
    assert cli.gain(1e-3, 0.0) == math.inf
    assert cli.gain(0.0, 0.0) == 1.0
    assert cli.gain(0.0, 1e-3) == 0.0
    assert cli.refinement("r", [(8.0, 4.0), (4.0, 1.0)]) == ("r", 2.0, 1.0, True, {})
    # a gain at the floor, and a level that stays at 0, is no refinement
    assert cli.refinement("r", [(8.0, 2.0)], 4.0, aux=1.0) == ("r", 4.0, 4.0, False, {"aux": 1.0})
    assert not cli.refinement("r", [(1.0, 0.0), (0.0, 0.0)])[3]


@pytest.mark.parametrize(
    "defects, gain, passed, column",
    [
        ((2.0**-8, 2.0**-10, 0.0), 4.0, True, ["", "4", "inf"]),
        ((2.0**-10, 0.0, 0.0), 1.0, False, ["", "inf", "1"]),
    ],
    ids=["reaches_zero", "stays_at_zero"],
)
def test_a_level_that_reaches_zero_gives_a_clean_row(monkeypatch, defects, gain, passed, column):
    """A refined level that reads exactly 0 is an infinite gain, so the
    decreasing row reads the least gain of the other pairs and converge's
    column reads inf; a level that stays at 0 is no gain, and the row
    fails."""

    ladder = cli.LADDERS["plancherel"]._replace(
        scales=defects, level=lambda cfg, defect: {"isometry_defect": defect}
    )
    monkeypatch.setitem(cli.LADDERS, "plancherel", ladder)
    row = cli.plancherel_suite(RunConfig())[-1]
    assert row.name == "isometry_defect_decreasing"
    assert (row.value, row.tol, row.passed) == (gain, 1.0, passed)
    rows = list(convergence_rows("plancherel", RunConfig(), 3))[1:]
    assert [line.split(",")[4] for line in rows] == column


# check names in report order, for the suites whose counts the benchmark pins
CHECK_NAMES = {
    "group": [
        "associativity",
        "inverse",
        "center_commutes",
        "identity",
        "check_map_involution",
    ],
    "representation": ["unitarity", "homomorphism", "homomorphism_doubling_gain"],
    "fusion": [
        "intertwiner_unitarity",
        "partial_trace_fused_vs_literal",
        "partial_trace_preserves_trace",
        "trace_norm_contraction_slack",
        "partial_trace_adjoint_identity",
        "composed_action_oracle",
        "composed_action_doubling_gain",
        "residual_r+0p2500_s+0p1250",
        "residual_gain_r+0p2500_s+0p1250",
        "residual_r+0p1250_s+0p1250",
        "residual_gain_r+0p1250_s+0p1250",
        "residual_r+0p3750_s-0p0625",
        "residual_gain_r+0p3750_s-0p0625",
        "intertwiner_matrix_free_vs_dense",
    ],
    "derivation": [
        "multiplier_identity",
        "spectral_vs_analytic",
        "leibniz_identity",
        "nonvanishing_witness",
        "w_norm_tail_fraction",
        "w_norm_bound_slack",
        "module_inequality",
        "module_inequality_refined",
        "boundary_decay_gain",
    ],
    "inequalities": [
        "theta2_nodewise_slack",
        "m_norm_module_slack",
        "a_norm_submultiplicative_slack",
        "theta1_trace_norm_slack",
    ],
    "lie": [
        "corpus_abelian2",
        "corpus_h3",
        "corpus_n4",
        "corpus_upper4",
        "corpus_h5",
        "abelian_rejected",
    ],
}


def _names(records, suite):
    assert all(r.suite == suite for r in records)
    return [r.name for r in records]


def test_group_suite_is_exact():
    records = group_suite(RunConfig())
    assert _names(records, "group") == CHECK_NAMES["group"]
    for rec in records:
        assert rec.passed
        assert rec.value == 0.0


def test_lie_suite_passes():
    records = lie_suite(RunConfig())
    assert _names(records, "lie") == CHECK_NAMES["lie"]
    assert all(r.passed for r in records)


def test_representation_and_inequality_rows(monkeypatch):
    records = inequalities_suite(RunConfig())
    assert _names(records, "inequalities") == CHECK_NAMES["inequalities"]
    assert all(r.passed for r in records)
    # the refined carrier is too slow for a unit test; a stub level pins the
    # rows and the > 4 doubling-gain rule, and unitarity runs at the base
    # carrier
    defects = {256: 2.0**-24, 512: 2.0**-26}
    ladder = cli.LADDERS["representation"]._replace(
        level=lambda cfg, grid: {"homomorphism": defects[grid.n_points]}
    )
    monkeypatch.setitem(cli.LADDERS, "representation", ladder)
    records = representation_suite(RunConfig())
    assert _names(records, "representation") == CHECK_NAMES["representation"]
    assert records[0].passed and records[0].value < 1e-12
    assert records[2].value == 4.0 and not records[2].passed
    assert records[2].extra == {"defect_512": 2.0**-26}
    defects[512] = 2.0**-27
    assert representation_suite(RunConfig())[2].passed


def test_lie_corpus_requires_a_central_z(monkeypatch):
    # upper4's basis is E12, E13, E14, E23, E24, E34: (E12, E23, E13)
    # satisfies the h3 relations, but E13 does not commute with E34
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    fake = H3Embedding(e[0], e[3], e[1])
    upper4 = bundled_structure("upper4")
    assert bracket(upper4, fake.x, fake.y) == fake.z
    assert not any(bracket(upper4, fake.x, fake.z) + bracket(upper4, fake.y, fake.z))
    assert any(bracket(upper4, e[5], fake.z))

    real = cli.find_h3
    monkeypatch.setattr(cli, "find_h3", lambda L: fake if L.dim == 6 else real(L))
    records = {r.name: r for r in lie_suite(RunConfig())}
    assert not records["corpus_upper4"].passed
    assert all(r.passed for name, r in records.items() if name != "corpus_upper4")


def test_lie_suite_builds_each_series_once_outside_find_h3(monkeypatch):
    """One lower central series per bundled algebra, and one in each
    find_h3 call: for the four algebras of degree 2 or more and for
    abelian_rejected."""
    builds = []
    real = liealg.lower_central_series

    def counted(L):
        builds.append(L.dim)
        return real(L)

    monkeypatch.setattr(liealg, "lower_central_series", counted)
    monkeypatch.setattr(cli, "lower_central_series", counted)
    assert all(r.passed for r in list(lie_suite(RunConfig())))
    assert len(builds) == 10


def _ladder_column(rows, check):
    return [row.split(",")[3] for row in rows[1:] if row.split(",")[1] == check]


def test_derivation_suite_ignores_only_the_boundary_warning(monkeypatch):
    """The boundary-decay pass ignores derivation_nodes' boundary warning and
    nothing else: a numpy RuntimeWarning there still fails the suite."""

    def noisy(f, tgrid, grid):
        if f.boundary_max() > derivation.BOUNDARY_TOL:
            warnings.warn("overflow encountered in a planted product", RuntimeWarning)
        return derivation_nodes(f, tgrid, grid)

    monkeypatch.setattr(cli, "derivation_nodes", noisy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="planted product"):
            derivation_suite(RunConfig())


def test_derivation_suite_and_ladder_share_one_source():
    cfg = RunConfig()
    table = list(convergence_rows("derivation", cfg, 2))
    records = derivation_suite(cfg)
    assert _names(records, "derivation") == CHECK_NAMES["derivation"]
    recs = {r.name: r for r in records}
    module = [recs["module_inequality"].value, recs["module_inequality_refined"].value]
    assert _ladder_column(table, "module_rel_excess") == [f"{v:.9e}" for v in module]
    multiplier = f"{recs['multiplier_identity'].value:.9e}"
    assert _ladder_column(table, "multiplier_identity")[0] == multiplier

    # each row reads the one pass of derivation_nodes; the values are those
    # of the separate transforms, bit for bit, with a_norm(F_f) summed from
    # |t| ||pi_t(f)||_1 as derivation_nodes forms it
    box, counts, tg, grid = cli.LADDERS["derivation"].scales[0]
    f = sample_family(cli.DERIV_FAMILY, box, counts)
    h = sample_family(cli.DERIV_MODULE_PARTNER, box, counts)
    w_dz = w_norm(d_z(f), tg, grid)
    trace_norms = node_terms(f, tg, grid, lambda k, coef: schatten_norm(coef, 1))
    a_f = float(tg.delta * sum(np.abs(tg.nodes) * trace_norms))
    assert abs(a_f - a_norm(forward_field(f, tg, grid))) <= 1e-14 * a_f
    assert recs["nonvanishing_witness"].value == w_dz
    assert recs["w_norm_bound_slack"].value == w_dz - a_f
    assert recs["module_inequality"].extra == {
        "lhs": w_norm(f * h, tg, grid),
        "rhs": a_f * w_norm(h, tg, grid),
    }
    # the level-1 multiplier that only converge reports
    box1, counts1, tg1, grid1 = cli.LADDERS["derivation"].scales[1]
    assert (box1, tg1) == (box, tg)
    assert counts1 == (56, 56, 44) and grid1.n_points == 2 * grid.n_points
    f1 = sample_family(cli.DERIV_FAMILY, box1, counts1)
    multiplier1 = float(np.max(derivation_nodes(f1, tg, grid1)[0]))
    assert _ladder_column(table, "multiplier_identity")[1] == f"{multiplier1:.9e}"


def test_fusion_suite_and_ladder_share_one_source():
    cfg = RunConfig()
    table = list(convergence_rows("fusion", cfg, 2))
    records = fusion_suite(cfg)
    assert _names(records, "fusion") == CHECK_NAMES["fusion"]
    recs = {r.name: r for r in records}
    oracle = f"{recs['composed_action_oracle'].value:.9e}"
    assert _ladder_column(table, "composed_action_oracle")[0] == oracle
    worst = max(r.value for name, r in recs.items() if name.startswith("residual_r"))
    assert _ladder_column(table, "residual_max")[0] == f"{worst:.9e}"


def test_fusion_ladder_runs_past_the_dense_w_size():
    """W is applied matrix-free, so the ladder reaches N = 128, where the
    dense W would have 2^28 entries, and its first two levels are the
    values that verify reports."""
    cfg = RunConfig()
    table = list(convergence_rows("fusion", cfg, 4))
    recs = {r.name: r for r in fusion_suite(cfg)}
    gains = [r for name, r in recs.items() if name.startswith("residual_gain_")]
    oracle = recs["composed_action_oracle"].value
    want = {
        "residual_max": [
            max(r.value for name, r in recs.items() if name.startswith("residual_r")),
            max(r.extra["residual_n32"] for r in gains),
        ],
        "composed_action_oracle": [
            oracle, oracle / recs["composed_action_doubling_gain"].value
        ],
    }
    for check_name, values in want.items():
        column = [float(v) for v in _ladder_column(table, check_name)]
        assert len(column) == 4
        assert column[:2] == pytest.approx(values, rel=1e-9)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("sorcery", RunConfig())


def test_convergence_table_shapes_and_errors():
    cfg = RunConfig()
    with pytest.raises(ValueError):
        next(convergence_rows("fusion", cfg, 1))
    for suite in ("sorcery", "group", "inequalities", "lie"):
        with pytest.raises(ValueError):
            next(convergence_rows(suite, cfg, 2))
    rows = [row.split(",") for row in convergence_rows("fusion", cfg, 2)]
    assert rows[0] == ["suite", "check", "level", "value", "gain_vs_prev"]
    assert [row[:3] for row in rows[1:]] == [
        ["fusion", check, level]
        for level in "01"
        for check in ("residual_max", "composed_action_oracle")
    ]
    # no predecessor at level 0; level 1 is compared with it
    assert [row[4] for row in rows[1:3]] == ["", ""]
    for base, refined in zip(rows[1:3], rows[3:5]):
        assert refined[4] == f"{float(base[3]) / float(refined[3]):.6g}"


@pytest.mark.parametrize("suite", ["group", "inequalities", "lie"])
def test_converge_accepts_only_the_ladders(capsys, suite):
    with pytest.raises(SystemExit) as info:
        main(["converge", suite, "--levels", "2"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _toy_ladder(monkeypatch, name, level=lambda cfg, n: {"defect": 1.0 / n}):
    """Stub a ladder with two scales, 1 and 2, and the one value defect."""
    ladder = cli.LADDERS[name]._replace(scales=(1, 2), level=level, values=("defect",))
    monkeypatch.setitem(cli.LADDERS, name, ladder)


def test_convergence_capacity_stop_carries_partial_rows(monkeypatch):
    _toy_ladder(monkeypatch, "dualconv")
    rows = convergence_rows("dualconv", RunConfig(), 9)
    assert next(rows) == "suite,check,level,value,gain_vs_prev"
    assert next(rows).endswith(",")  # no predecessor at level 0
    assert next(rows).endswith(",2")  # improvement ratio vs level 0
    with pytest.raises(CapacityError, match="^dualconv ladder is defined for 2 levels$"):
        next(rows)


def test_converge_writes_the_completed_rows_before_a_capacity_stop(
    tmp_path, monkeypatch, capsys
):
    _toy_ladder(monkeypatch, "dualconv")
    out = tmp_path / "table.csv"
    assert main(["converge", "dualconv", "--levels", "9", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == "suite,check,level,value,gain_vs_prev"
    assert len(rows) == 3
    assert rows[1].endswith(",")
    assert rows[2].endswith(",2")
    assert out.read_text() == captured.out
    assert captured.err == "capacity stop: dualconv ladder is defined for 2 levels\n"


def test_converge_prints_each_level_as_soon_as_it_is_done(tmp_path, monkeypatch, capsys):
    out = tmp_path / "table.csv"
    level0 = "suite,check,level,value,gain_vs_prev\nfusion,defect,0,1.000000000e+00,\n"

    def toy(cfg, n):
        if n == 2:
            # level 0's rows are on stdout and in --out before level 1 starts
            assert capsys.readouterr().out == level0
            assert out.read_text() == level0
        return {"defect": 1.0 / n}

    _toy_ladder(monkeypatch, "fusion", toy)
    assert main(["converge", "fusion", "--levels", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "fusion,defect,1,5.000000000e-01,2\n"
    assert out.read_text() == level0 + "fusion,defect,1,5.000000000e-01,2\n"


# the number of scales of each ladder
LADDER_LENGTHS = {
    "representation": 3,
    "plancherel": 3,
    "inversion": 3,
    "fusion": 7,
    "dualconv": 2,
    "derivation": 2,
}


@pytest.mark.parametrize("suite", sorted(LADDER_LENGTHS))
def test_each_ladder_stops_at_its_first_undefined_level(monkeypatch, suite):
    """levels() runs the level function once per scale, in order, and
    raises the capacity stop instead of a level past the last one."""
    calls = []
    ladder = cli.LADDERS[suite]
    monkeypatch.setitem(cli.LADDERS, suite, ladder._replace(level=lambda cfg, s: calls.append(s)))
    n = LADDER_LENGTHS[suite]
    with pytest.raises(CapacityError) as info:
        list(cli.levels(suite, RunConfig(), n + 1))
    assert str(info.value) == f"{suite} ladder is defined for {n} levels"
    assert len(calls) == n and all(a is b for a, b in zip(calls, ladder.scales))


def test_rep_level_matches_the_literal_rep_matrix(monkeypatch, literal_rep_matrix):
    """The report values of the representation suite at its base carrier,
    from the strided circulant and from the index-table gather, bit for
    bit."""
    ladder = cli.LADDERS["representation"]
    monkeypatch.setitem(cli.LADDERS, "representation", ladder._replace(scales=ladder.scales[:1] * 2))
    fast = [r.value for r in representation_suite(RunConfig())]
    monkeypatch.setattr(cli, "rep_matrix", literal_rep_matrix)
    assert [r.value for r in representation_suite(RunConfig())] == fast


def test_main_verify_and_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HEISENFOURIER_SEED", raising=False)
    out = tmp_path / "report.json"
    assert main(["verify", "group", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: pass" in text
    lines = out.read_text().splitlines()
    assert lines[0] == '{"config": {"seed": 20260816}, "schema": 1}'
    assert json.loads(lines[-1])["status"] == "pass"
    monkeypatch.setenv("HEISENFOURIER_SEED", "7")
    assert main(["verify", "group"]) == 0
    capsys.readouterr()


def test_main_lie_find_h3(tmp_path, capsys):
    path = tmp_path / "h3.alg"
    path.write_text("3\n1 2 3 1\n")
    assert main(["lie", "find-h3", str(path)]) == 0
    out = capsys.readouterr().out
    assert "X = (1, 0, 0)" in out
    abelian = tmp_path / "ab.alg"
    abelian.write_text("2\n")
    assert main(["lie", "find-h3", str(abelian)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("line", ["1 2 x 1", "1 2 3 abc", "1 2 3 1/0"])
def test_main_lie_malformed_lines_exit_2_naming_the_file(tmp_path, capsys, line):
    path = tmp_path / "bad.alg"
    path.write_text(f"3\n{line}\n")
    assert main(["lie", "find-h3", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: malformed line {line!r}\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("1 4 3 1", "basis index out of range in (1, 4)"),
        ("1 2 3 1\n2 1 3 5", "inconsistent antisymmetric pair at (2, 1, 3)"),
    ],
)
def test_main_lie_inconsistent_structure_exits_2_naming_the_file(tmp_path, capsys, lines, message):
    path = tmp_path / "bad.alg"
    path.write_text(f"3\n{lines}\n")
    assert main(["lie", "find-h3", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_main_file_errors_exit_2_with_a_message(tmp_path, capsys):
    assert main(["lie", "find-h3", str(tmp_path / "no-such.alg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    repeated = tmp_path / "repeated.alg"
    repeated.write_text("3\n1 2 3 1\n1 2 3 5\n")
    assert main(["lie", "find-h3", str(repeated)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeated entry (1, 2, 3)" in captured.err
    out = tmp_path / "no" / "such" / "report.jsonl"
    assert main(["verify", "group", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_checks_the_out_path_before_any_work(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("ran although --out cannot be written")

    monkeypatch.setitem(cli.SUITES, "group", never)
    monkeypatch.setitem(cli.LADDERS, "fusion", cli.LADDERS["fusion"]._replace(level=never))
    out = str(tmp_path / "no" / "such" / "out")
    assert main(["verify", "group", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["converge", "fusion", "--levels", "2", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_transform_writes_a_loadable_field(tmp_path, capsys):
    out = tmp_path / "derivation-odd.field"
    code = main(
        [
            "transform",
            "--function",
            "derivation-odd",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    F = load_field(out)
    assert F.tgrid.n_nodes == 16
    assert F.dim == 32
    capsys.readouterr()


def test_partner_base_scales_are_the_plancherel_base_scales():
    """transform --function partner samples the partner at the plancherel
    base scales, which are the base scales of the adjoint pairing."""
    base = cli.LADDERS["plancherel"].scales[0]
    assert cli.LADDERS["inversion"].scales[0] == (base, base)


# transform --function NAME: the family and the ladder whose first scale
# samples it
TRANSFORM_FAMILIES = {
    "canonical": (cli.CANONICAL_FAMILY, "plancherel"),
    "partner": (cli.PARTNER_FAMILY, "plancherel"),
    "dc-left": (cli.DC_LEFT, "dualconv"),
    "dc-right": (cli.DC_RIGHT, "dualconv"),
    "derivation-odd": (cli.DERIV_FAMILY, "derivation"),
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_FAMILIES))
def test_transform_writes_the_base_level_field_of_its_ladder(tmp_path, capsys, name):
    family, suite = TRANSFORM_FAMILIES[name]
    box, counts, tgrid, grid = cli.LADDERS[suite].scales[0]
    want = forward_field(sample_family(family, box, counts), tgrid, grid)
    out = tmp_path / f"{name}.field"
    assert main(["transform", "--function", name, "--out", str(out)]) == 0
    got = load_field(out)
    assert got.tgrid == want.tgrid
    assert got.mats.tobytes() == want.mats.tobytes()
    again = tmp_path / "again.field"
    assert main(["transform", "--function", name, "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_transform_into_a_directory_is_a_usage_error_that_names_it(tmp_path, capsys):
    assert main(["transform", "--function", "canonical", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_main_transform_rejects_unknown_functions(tmp_path, capsys):
    code = main(["transform", "--function", "nope", "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


def _scaled_forward_field(monkeypatch):
    def scaled(f, tgrid, grid):
        F = forward_field(f, tgrid, grid)
        return OperatorField(F.tgrid, F.mats * (1 + 1e-3))

    monkeypatch.setattr(cli, "forward_field", scaled)


def _conjugated_xy_phase(monkeypatch):
    """The transform's exp(i pi t xy) table conjugated: a representation
    that rep_matrix does not build."""
    real = schrodinger._phase_tables

    def conjugated(t, factors, P, E):
        real(t, factors, P, E)
        np.conj(P, out=P)

    monkeypatch.setattr(schrodinger, "_phase_tables", conjugated)


def _negated_d_z(monkeypatch):
    def negated(f):
        g = d_z(f)
        return SampledFunction3D(g.box, g.counts, -g.samples)

    monkeypatch.setattr(derivation, "d_z", negated)
    monkeypatch.setattr(cli, "d_z", negated)


def _swapped_fusion_ratio(monkeypatch):
    def swapped(r, s):
        return Fraction(r) / (Fraction(r) + Fraction(s))

    monkeypatch.setattr(fusion, "_exact_ratio", swapped)
    monkeypatch.setattr(cli, "_exact_ratio", swapped)


def _scaled_coefficients(monkeypatch):
    """Every coefficient pi_t(f) that node_terms hands to a term scaled by
    1 + 1e-3, in each module that calls it."""
    real = schrodinger.node_terms

    def scaled(fs, tgrid, grid, term):
        return real(fs, tgrid, grid, lambda k, *coefs: term(k, *(c * (1 + 1e-3) for c in coefs)))

    for module in (schrodinger, plancherel, derivation, cli):
        monkeypatch.setattr(module, "node_terms", scaled)


def _shifted_weight(monkeypatch):
    """The Plancherel weight |t| read as |t| + 1e-4 in forward_field and in
    plancherel_defect."""

    def shifted_field(f, tgrid, grid):
        F = forward_field(f, tgrid, grid)
        weights = (np.abs(tgrid.nodes) + 1e-4) / np.abs(tgrid.nodes)
        return OperatorField(F.tgrid, F.mats * weights[:, None, None])

    def shifted_defect(f, tgrid, grid):
        weights = tgrid.delta * (np.abs(tgrid.nodes) + 1e-4)
        terms = node_terms(f, tgrid, grid, lambda k, coef: weights[k] * np.linalg.norm(coef) ** 2)
        mass = f.l2_norm_sq()
        return float(abs(sum(terms) - mass) / mass)

    monkeypatch.setattr(cli, "forward_field", shifted_field)
    monkeypatch.setattr(cli, "plancherel_defect", shifted_defect)


# one-line defects, each planted by monkeypatching: the suites that must
# catch it, and every row, as suite.check, that fails with the ladders at
# their first two levels
PLANTED_DEFECTS = {
    "forward_field_scaled_1e-3": (
        _scaled_forward_field,
        ("inversion",),
        {"inversion.a_norm_convention"},
    ),
    "xy_phase_conjugated": (
        _conjugated_xy_phase,
        ("inversion",),
        {"inversion.adjoint_pairing_level0", "inversion.adjoint_pairing_decreasing"},
    ),
    "d_z_negated": (
        _negated_d_z,
        ("derivation",),
        {"derivation.multiplier_identity", "derivation.boundary_decay_gain"},
    ),
    "fusion_ratio_swapped": (
        _swapped_fusion_ratio,
        ("fusion",),
        {
            "fusion.residual_r+0p2500_s+0p1250",
            "fusion.residual_r+0p3750_s-0p0625",
            "fusion.residual_gain_r+0p3750_s-0p0625",
        },
    ),
    "coefficients_scaled_1e-3": (
        _scaled_coefficients,
        ("plancherel", "inversion"),
        {"plancherel.isometry_defect_decreasing"},
    ),
    "plancherel_weight_shifted_1e-4": (
        _shifted_weight,
        ("plancherel", "inversion"),
        {"plancherel.isometry_defect_decreasing", "inversion.a_norm_convention"},
    ),
}


@pytest.fixture
def base_levels(monkeypatch):
    """Every ladder trimmed to its first two scales."""
    for name, ladder in cli.LADDERS.items():
        monkeypatch.setitem(cli.LADDERS, name, ladder._replace(scales=ladder.scales[:2]))


@pytest.mark.parametrize("defect", sorted(PLANTED_DEFECTS))
def test_a_planted_defect_fails_its_rows(monkeypatch, base_levels, defect):
    plant, suites, rows = PLANTED_DEFECTS[defect]
    plant(monkeypatch)
    records = [r for suite in suites for r in cli.SUITES[suite](RunConfig())]
    assert {f"{r.suite}.{r.name}" for r in records if not r.passed} == rows


def test_a_norm_convention_fails_on_a_scaled_forward_field(monkeypatch, base_levels):
    """forward_field's output scaled by 1 + 1e-3 passed every check of
    verify all; the convention row sets a_norm of the round trip's field
    against trace norms from a transform pass of its own, so it reads the
    relative defect times a_norm."""

    def convention_row():
        (row,) = [r for r in cli.inversion_suite(RunConfig()) if r.name == "a_norm_convention"]
        return row

    honest = convention_row()
    assert honest.value == 0.0 and honest.passed
    _scaled_forward_field(monkeypatch)
    assert 4e-4 < convention_row().value < 5e-4
