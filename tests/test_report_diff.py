import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def _row(suite, check, value, tol=None, passed=True, extra=None, seconds=0.1):
    return {
        "check": check,
        "extra": extra or {},
        "passed": passed,
        "seconds": seconds,
        "suite": suite,
        "tol": tol,
        "value": value,
    }


def _write(path, rows):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return str(path)


OLD = [
    {"config": {"seed": 1}, "schema": 1},
    _row("inversion", "roundtrip_level0", 0.0078420218, tol=0.01),
    _row("inversion", "adjoint_pairing_level0", 2.5e-3),
    _row("group", "inverse", 0.0),
    _row("group", "associativity", 0.0),
    _row("fusion", "gone", 1.0),
    {"checks": 5, "failures": 0, "status": "pass"},
]
NEW = [
    {"config": {"seed": 1}, "schema": 1},
    _row("inversion", "roundtrip_level0", 0.0078420218, tol=0.01, seconds=9.0),
    _row("inversion", "adjoint_pairing_level0", 0.002500000000025),
    _row("group", "inverse", 1e-16),
    _row("group", "associativity", 0.5, passed=False, extra={"n": 2}),
    _row("fusion", "added", 1.0),
    {"checks": 5, "failures": 1, "status": "fail"},
]


def test_moved_gives_each_numeric_value_move_its_relative_size(tmp_path):
    old = report_diff._records(_write(tmp_path / "old.jsonl", OLD))
    new = report_diff._records(_write(tmp_path / "new.jsonl", NEW))
    lines = report_diff.moved(old, new)
    assert lines[0] == (
        "inversion.adjoint_pairing_level0: value 0.0025 -> 0.002500000000025 (rel 1.0e-11)"
    )
    assert lines[1] == "group.inverse: value 0.0 -> 1e-16 (rel inf)"
    assert lines[2] == (
        "group.associativity: value 0.0 -> 0.5 (rel inf); passed true -> false; "
        'extra {} -> {"n": 2}'
    )
    assert lines[3].startswith("fusion.gone: {") and lines[3].endswith("-> null")
    assert lines[4].startswith('checks: {"checks": 5, "failures": 0')
    assert lines[5].startswith("fusion.added: null -> {")
    assert len(lines) == 6


def test_main_ends_with_the_count_and_exits_zero(tmp_path, capsys):
    old = _write(tmp_path / "old.jsonl", OLD)
    new = _write(tmp_path / "new.jsonl", NEW)
    assert report_diff.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6 report line(s) moved"
    assert report_diff.main([old, old]) == 0
    assert capsys.readouterr().out == "0 report line(s) moved\n"
