"""The row comparison of ``scripts/compare_reports.py``, on canned
reports; no report is run here."""

import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def report(*rows, name="prolong-bracket-axioms E"):
    checks = [{"name": name, "pass": all(row["pass"] for row in rows), "rows": list(rows)}]
    return json.dumps({"model": "m", "checks": checks}).encode()


def row(index, residual, witness=None, passed=True):
    out = {"check": "cyclic-sum", "index": [0, index], "residual": residual, "pass": passed}
    if witness is not None:
        out["witness"] = {"x1": witness}
    return out


def test_same_reports_have_no_differences():
    a = report(row(0, 1e-15, 0.5), row(1, 0.0))
    assert compare_reports.report_differences(a, a) == []


def test_largest_residual_move_and_moved_witnesses():
    a = report(row(0, 1e-15, 0.5), row(1, 2e-14, 0.25), row(2, 3e-15, 1.0), row(3, 0.0))
    b = report(row(0, 1e-15, 0.75), row(1, 2.5e-14, 0.25), row(2, 1e-15, -1.0), row(3, 0.0))
    assert compare_reports.report_differences(a, b) == [
        "prolong-bracket-axioms E: 3 rows differ, 0 pass flags changed, "
        "largest residual move 5e-15, 2 witnesses moved"
    ]


def test_a_nan_move_is_the_largest():
    a = report(row(0, 1.0, 0.5, passed=False), row(1, float("nan"), 0.5, passed=False))
    b = report(row(0, 3.0, 0.5, passed=False), row(1, 1e-15, 0.5))
    assert compare_reports.report_differences(a, b) == [
        "prolong-bracket-axioms E: 2 rows differ, 1 pass flags changed, "
        "largest residual move nan, 0 witnesses moved"
    ]


def test_text_that_is_no_report_has_no_row_differences():
    assert compare_reports.report_differences(b"error: x", b"error: y") == []
