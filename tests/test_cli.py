import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from algebroids.cli import main
from algebroids.verify import PLAN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def classical_with_lagrangian(models_dir, tmp_path, lagrangian):
    """A copy of the classical model with ``L = lagrangian``: its path
    and the line of ``L``."""
    text = (models_dir / "classical.model").read_text(encoding="utf-8")
    line = text.splitlines().index("L = 1/2*(y1^2 + y2^2)") + 1
    path = tmp_path / "changed.model"
    path.write_text(text.replace("L = 1/2*(y1^2 + y2^2)", f"L = {lagrangian}"), encoding="utf-8")
    return str(path), line


class TestValidate:
    def test_valid_models_exit_zero(self, capsys, models_dir):
        for name in ("classical", "lie_algebroid", "generalized"):
            code, out, err = run(capsys, "validate", str(models_dir / f"{name}.model"))
            assert code == 0, (name, out, err)

    def test_broken_model_exits_one_with_report(self, capsys, models_dir):
        code, out, _ = run(capsys, "validate", str(models_dir / "broken_compatibility.model"))
        assert code == 1
        assert "FAIL anchor-compatibility" in out
        payload = json.loads(out.splitlines()[-1])
        assert payload["pass"] is False

    def test_negative_model_exits_two(self, capsys, models_dir):
        code, _, err = run(capsys, "validate", str(models_dir / "negative" / "bad_block.model"))
        assert code == 2
        assert "bad-block" in err

    @pytest.mark.parametrize("name", ["log_anchor", "sqrt_anchor"])
    def test_domain_error_exits_two_with_its_point(self, capsys, models_dir, name):
        code, out, err = run(capsys, "report-all", str(models_dir / "domain" / f"{name}.model"), "--seed", "3")
        assert code == 2 and out == ""
        assert err == (
            "error: domain error: math domain error at point {'k1': -1.4627630026527756, 'k2': -1.8074344342170527}\n"
        )

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.model")
        assert code == 2
        assert err

    def test_json_mode_emits_json_only(self, capsys, models_dir):
        code, out, _ = run(capsys, "validate", "--json", str(models_dir / "classical.model"))
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True


def classical_with_auto_inverse(models_dir, tmp_path, entries):
    """A copy of the classical model whose bundle E has g entries
    ``entries`` and ``ginv = auto``: its path and the line of ``ginv``."""
    text = (models_dir / "classical.model").read_text(encoding="utf-8")
    g = "".join(f"g[{k // 2 + 1}][{k % 2 + 1}] = {e}\n" for k, e in enumerate(entries))
    text = text.replace("g = identity", g + "ginv = auto", 1)
    path = tmp_path / "singular.model"
    path.write_text(text, encoding="utf-8")
    return str(path), text.splitlines().index("ginv = auto") + 1


COMMANDS = [("validate",), ("report-all",), ("lift", "u"), ("lift", "u", "--gh")]


class TestSingularMorphism:
    """``ginv = auto`` of a g whose determinant builds to 0, or vanishes at
    every point of the model's sampler, is refused when the model loads,
    so every command exits 2 with that one line."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_two_with_one_line(self, capsys, models_dir, tmp_path, command):
        path, line = classical_with_auto_inverse(models_dir, tmp_path, ("1", "2", "2", "4"))
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert code == 2 and out == ""
        assert err == (
            f"error: [bad-value] ginv = auto: g of bundle E has determinant 0, so it has no inverse (line {line})\n"
        )

    @pytest.mark.parametrize("command", COMMANDS)
    def test_vanishing_at_every_point_exits_two_with_one_line(self, capsys, models_dir, tmp_path, command):
        # x1*x1 - x1*x1 does not build to 0: add cancels no terms.
        path, line = classical_with_auto_inverse(models_dir, tmp_path, ("x1",) * 4)
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert code == 2 and out == ""
        assert err == (
            "error: [bad-value] ginv = auto: g of bundle E has a determinant that vanishes at every sampled point,"
            f" so it has no inverse (line {line})\n"
        )

    def test_overflowing_inverse_exits_two_with_one_line(self, capsys, models_dir, tmp_path):
        # Building det g folds the constant 1e200*1e200.
        path, line = classical_with_auto_inverse(models_dir, tmp_path, ("1e200*x1", "0", "0", "1e200"))
        code, out, err = run(capsys, "validate", path)
        assert code == 2 and out == ""
        assert err == (
            "error: [bad-value] ginv = auto: the symbolic inverse of g of bundle E overflows:"
            f" constants must be finite, got inf (line {line})\n"
        )

    def test_vanishing_on_a_line_still_loads(self, capsys, models_dir, tmp_path):
        path, _ = classical_with_auto_inverse(models_dir, tmp_path, ("x1", "0", "0", "1"))
        code, out, err = run(capsys, "lift", path, "u")
        assert (code, err) == (0, "")
        assert "x1^(-1)" in out


class TestLiftAndBracket:
    def test_complete_lift_output(self, capsys, models_dir):
        code, out, _ = run(capsys, "lift", str(models_dir / "classical.model"), "u", "--complete")
        assert code == 0
        assert out.strip() == "x1*d_x1 + y1*dot_y1"

    def test_vertical_lift_output(self, capsys, models_dir):
        code, out, _ = run(capsys, "lift", str(models_dir / "classical.model"), "u", "--vertical")
        assert code == 0
        assert out.strip() == "x1*dot_y1"

    def test_prolonged_output(self, capsys, models_dir):
        code, out, _ = run(capsys, "lift", str(models_dir / "classical.model"), "u", "--gh")
        assert code == 0
        assert out.strip() == "x1*td_1 + y1*dot_td_y1"

    def test_dual_section_lift(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "lift", str(models_dir / "classical.model"), "ustar", "--vertical"
        )
        assert code == 0
        assert out.strip() == "x2*dot_p2"

    def test_unknown_section_exits_two(self, capsys, models_dir):
        code, _, err = run(capsys, "lift", str(models_dir / "classical.model"), "nope")
        assert code == 2 and "no section named" in err

    def test_algebroid_section_not_liftable(self, capsys, models_dir):
        code, _, err = run(capsys, "lift", str(models_dir / "classical.model"), "z")
        assert code == 2 and "not of the expected kind" in err

    def test_bracket_json(self, capsys, models_dir):
        code, out, _ = run(
            capsys, "bracket", str(models_dir / "classical.model"), "w", "w", "--json"
        )
        assert code == 0
        assert "bracket" in json.loads(out)


class TestLegendreCommand:
    def test_forward_euclidean(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "legendre",
            str(models_dir / "classical.model"),
            "--forward",
            "--at",
            "x1=0,y1=3,y2=-1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"] == {"p1": 3.0, "p2": -1.0}
        assert payload["iterations"] == 1
        assert payload["point"]["x2"] == 0.0  # unset coordinates default to zero

    def test_backward_diagonal(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "legendre",
            str(models_dir / "diag_quadratic.model"),
            "--backward",
            "--at",
            "p1=2,p2=1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"]["y1"] == pytest.approx(1.0)
        assert payload["image"]["y2"] == pytest.approx(1.0)

    def test_backward_solve_whose_start_overflows(self, capsys, models_dir):
        # Newton's default start, the target, has the residual 2*9e307 - 9e307 = inf.
        code, out, _ = run(
            capsys, "legendre", str(models_dir / "diag_quadratic.model"), "--backward", "--at", "p1=9e307"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["image"] == {"y1": 4.5e307, "y2": 0.0}
        assert payload["residual"] == 0.0

    def test_bad_point_exits_two(self, capsys, models_dir):
        code, _, err = run(
            capsys, "legendre", str(models_dir / "classical.model"), "--at", "z9=1"
        )
        assert code == 2 and "unknown coordinate" in err

    def test_repeated_coordinate_exits_two(self, capsys, models_dir):
        code, out, err = run(
            capsys, "legendre", str(models_dir / "classical.model"), "--at", "x1=1,x1=2,y1=1"
        )
        assert code == 2 and out == ""
        assert err == "error: coordinate 'x1' given twice\n"

    def test_non_finite_point_exits_two(self, capsys, models_dir):
        for model, at in (("classical.model", "x1=nan"), ("quartic.model", "x1=nan,y1=inf")):
            code, out, err = run(capsys, "legendre", str(models_dir / model), "--at", at)
            assert code == 2 and out == "", (model, out)
            assert "must be finite" in err and err.count("\n") == 1

    def test_evaluation_error_exits_two(self, capsys, models_dir):
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--at", "y1=1e200")
        assert code == 2 and out == ""
        assert "domain error" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "at, y",
        [("p1=1e200,p2=1", "'y1': 1e+200, 'y2': 1.0"), ("p1=1e308,p2=1e308", "'y1': 1e+308, 'y2': 1e+308")],
        ids=["p1=1e200", "p1=p2=1e308"],
    )
    def test_error_at_the_solve_start_names_the_start(self, capsys, models_dir, at, y):
        # The Hessian 3*y1^2 raises at the start, the target read as a
        # fiber point, which the user did not give as one.
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--backward", "--at", at)
        assert code == 2 and out == ""
        assert err == (
            "error: domain error: math range error at the fiber solve's start,"
            f" the target read as a fiber point: {{'x1': 0.0, 'x2': 0.0, {y}}}\n"
        )

    def test_newton_error_at_the_solve_start_names_the_start(self, capsys, models_dir, tmp_path):
        # The Hessian 2 + 3.75*(y1 + x1)^0.5 values at the start, but its
        # derivative 1.875*(y1 + x1)^(-0.5), which the Newton step needs,
        # fails there.
        text = (models_dir / "generalized.model").read_text(encoding="utf-8")
        path = tmp_path / "changed.model"
        path.write_text(text.replace("L = 1/2*(1 + x1^2)*y1^2", "L = y1^2 + (y1 + x1)^2.5"), encoding="utf-8")
        code, out, err = run(capsys, "legendre", str(path), "--backward", "--at", "x1=-0.5,p1=0.5")
        assert code == 2 and out == ""
        assert err == (
            "error: domain error: math domain error at the fiber solve's start,"
            " the target read as a fiber point: {'x1': -0.5, 'y1': 0.5}\n"
        )

    def test_overflowing_image_exits_two_with_one_line(self, models_dir):
        # A fresh interpreter, so that a numpy warning would reach stderr.
        at = "x1=0,x2=0,y1=1e150,y2=1e-150"
        done = run_cli_fresh("legendre", str(models_dir / "quartic.model"), "--forward", "--at", at)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: overflow to non-finite value") and done.stderr.count("\n") == 1

    def test_non_finite_image_exits_two(self, capsys, models_dir):
        # The Hessian is constant, so only the contraction overflows.
        code, out, err = run(capsys, "legendre", str(models_dir / "diag_quadratic.model"), "--at", "y1=1e308")
        assert code == 2 and out == ""
        assert err == "error: overflow to non-finite value: the Legendre image of the point is not finite\n"

    def test_tiny_fiber_component_solves(self, capsys, models_dir):
        at = "x1=0,x2=0,y1=-0.000633552529,y2=-0.809259391"
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--forward", "--at", at)
        assert code == 0 and err == ""
        assert json.loads(out)["iterations"] == 21

    def test_failed_solve_exits_two(self, capsys, models_dir):
        # The tiny fiber component's target lies far below the solver's
        # tolerance, and no halving of the Newton step lowers the residual.
        at = "x1=0,x2=0,y1=1e-8,y2=-0.809259391"
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--forward", "--at", at)
        assert code == 2 and out == ""
        assert "no convergence" in err and err.count("\n") == 1

    def test_hamiltonian_only_failed_solve_exits_two(self, capsys, models_dir, tmp_path):
        path = quartic_hamiltonian_only(models_dir, tmp_path)
        at = "x1=0,x2=0,p1=1e-8,p2=-0.809259391"
        code, out, err = run(capsys, "legendre", path, "--backward", "--at", at)
        assert code == 2 and out == ""
        assert "no convergence" in err and err.count("\n") == 1

    def test_hamiltonian_only_backward_payload(self, capsys, models_dir, tmp_path):
        path = quartic_hamiltonian_only(models_dir, tmp_path)
        code, out, err = run(capsys, "legendre", path, "--backward", "--at", "x1=0.5,p1=1.5,p2=-0.75", "--json")
        assert code == 0 and err == ""
        assert out == (
            '{"checks":[],"point":{"x1":0.5,"x2":0,"p1":1.5,"p2":-0.75},'
            '"image":{"y1":10.125,"y2":-1.265625},"residual":1.1102230246251565e-15,"iterations":10}\n'
        )

    def test_dual_bundle_of_another_rank_exits_two(self, capsys, tmp_path):
        # E of rank 2 beside an Edual of rank 1.
        path = tmp_path / "unequal_ranks.model"
        path.write_text(
            "[base M]\ndim = 1\n[base N]\ndim = 1\n[algebroid]\nrank = 1\nrho[1][1] = 1\n"
            "[bundle E]\nrank = 2\n[bundle Edual]\nrank = 1\n"
            "[lagrangian]\nL = 1/2*(y1^2 + y2^2)\n[hamiltonian]\nH = 1/2*p1^2\n"
        )
        code, out, err = run(capsys, "legendre", str(path), "--backward", "--at", "x1=0,p1=1")
        assert code == 2 and out == ""
        assert err.startswith("error: [dimension-mismatch] bundle Edual has rank 1") and err.count("\n") == 1


def quartic_hamiltonian_only(models_dir, tmp_path):
    """The path of a copy of the quartic model whose Lagrangian
    ``1/4*(y1^4 + y2^4)`` is replaced by the Hamiltonian ``1/4*(p1^4 + p2^4)``."""
    text = (models_dir / "quartic.model").read_text()
    text = text.replace("[lagrangian]\nL = 1/4*(y1^4 + y2^4)", "[hamiltonian]\nH = 1/4*(p1^4 + p2^4)")
    path = tmp_path / "hamiltonian_only.model"
    path.write_text(text)
    return str(path)


class TestCheckCommands:
    def test_lift_brackets_alias(self, capsys, models_dir):
        for command in ("check-theorem18", "check-lift-brackets"):
            code, out, _ = run(
                capsys, command, str(models_dir / "generalized.model"), "--pairs", "2"
            )
            assert code == 0
            assert "lift-brackets" in out

    @pytest.mark.parametrize("command", ["check-theorem18", "check-lift-brackets"])
    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_no_pairs_exits_two(self, capsys, models_dir, command, pairs):
        """Zero pairs would give reports without rows that pass."""
        code, out, err = run(capsys, command, str(models_dir / "classical.model"), "--pairs", pairs, "--json")
        assert code == 2 and out == ""
        assert err == f"error: --pairs must be at least 1, got {pairs}\n"

    def test_duality_equivalent(self, capsys, models_dir):
        code, out, _ = run(capsys, "check-duality", str(models_dir / "classical.model"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "equivalent"
        assert payload["pass"] is True
        row = payload["checks"][0]["rows"][0]
        assert set(row) == {"check", "index", "residual", "pass"}

    def test_duality_mismatched(self, capsys, models_dir):
        code, out, _ = run(capsys, "check-duality", str(models_dir / "mismatched.model"), "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "not-equivalent"

    def test_duality_needs_both_functions(self, capsys, models_dir):
        code, _, err = run(capsys, "check-duality", str(models_dir / "quartic.model"))
        assert code == 2 and "hamiltonian" in err

    def test_report_all_generalized(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "report-all",
            str(models_dir / "generalized.model"),
            "--json",
            "--points",
            "40",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        names = {check["name"] for check in payload["checks"]}
        assert "anchor-compatibility" in names
        assert any(name.startswith("lift-brackets") for name in names)
        assert "derivative-oracle" in names

    def test_sampler_overrides(self, capsys, models_dir):
        code, out, _ = run(
            capsys,
            "validate",
            str(models_dir / "classical.model"),
            "--json",
            "--seed",
            "5",
            "--points",
            "17",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [("--points", "0"), ("--points", "-3"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")],
    )
    def test_bad_sampler_flags_exit_two(self, capsys, models_dir, flags):
        code, out, err = run(capsys, "report-all", str(models_dir / "classical.model"), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("report-all", "classical.model"), ("lift", "generalized.model", "u")])
    def test_negative_seed_exits_two_naming_the_flag(self, capsys, models_dir, argv):
        command, model, *rest = argv
        code, out, err = run(capsys, command, str(models_dir / model), *rest, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed must be at least 0, got -1\n"

    def test_degenerate_model_sampler_exits_two(self, capsys, models_dir, tmp_path):
        text = (models_dir / "classical.model").read_text()
        path = tmp_path / "infinite_tol.model"
        path.write_text(text.replace("tol = 1e-8", "tol = inf"))
        code, out, err = run(capsys, "report-all", str(path))
        assert code == 2 and out == ""
        assert "bad-value" in err and err.count("\n") == 1

    def test_overflowing_constant_exits_two(self, capsys, models_dir, tmp_path):
        path, line = classical_with_lagrangian(models_dir, tmp_path, "1e308*10*y1^2")
        code, out, err = run(capsys, "validate", path)
        assert code == 2 and out == ""
        assert err.startswith("error: [expression-syntax]") and err.count("\n") == 1
        assert f"(line {line})" in err

    def test_unallocatable_point_count_exits_two(self, capsys, models_dir):
        # 1e14 points of two coordinates need 1.42 PiB, more than any
        # address space, so the allocation fails at once.
        code, out, err = run(capsys, "validate", str(models_dir / "classical.model"), "--points", "100000000000000")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "allocate" in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["lift"]) == 2
        capsys.readouterr()

    def test_calls_leave_nothing_to_the_collector(self, capsys, models_dir):
        """Once main has built its parser, neither reports nor a usage
        error leave anything in a cycle: under DEBUG_SAVEALL, a
        collection after them finds no object of any type."""
        main(["lift"])
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            codes = [
                main(["report-all", str(models_dir / f"{name}.model"), "--json"])
                for name in ("classical", "generalized", "lie_algebroid")
            ]
            codes.append(main(["lift"]))
            gc.collect()
            found = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        capsys.readouterr()
        assert codes == [0, 0, 0, 2]
        assert found == []

    def test_parser_is_built_at_the_first_call_only(self):
        """Importing the CLI builds no parser; main builds one at its
        first call and reuses it, and build_parser gives a new one."""
        done = run_python("-c", COUNT_PARSERS)
        assert done.stdout.splitlines() == ["0", "True True", "True"], done.stderr

    @pytest.mark.parametrize(
        "argv",
        [["report-all", "generalized.model", "--json"], ["legendre", "quartic.model", "--backward", "--at", "p1=1,p2=2"]],
        ids=["report-all", "legendre"],
    )
    def test_repeated_calls_print_what_a_new_interpreter_prints(self, capsys, models_dir, argv):
        argv = [argv[0], str(models_dir / argv[1]), *argv[2:]]
        fresh = run_cli_fresh(*argv)
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    @pytest.mark.parametrize("flag, value", [("--points", "0"), ("--points", "-3"), ("--seed", "-1")], ids=["0", "-3", "seed-1"])
    def test_survey_script_rejects_no_points(self, flag, value):
        done = run_survey(flag, value, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: {flag} must be at least") and done.stderr.count("\n") == 1

    def test_survey_script_passes_every_model_but_mismatched(self):
        done = run_survey("--points", "20", timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        for path in sorted(pathlib.Path(__file__).resolve().parent.parent.glob("models/*.model")):
            if not path.name.startswith("broken"):
                verdict = "FAIL" if path.name == "mismatched.model" else "PASS"
                assert f"== {path.name}  [{verdict}]" in done.stdout


class TestOnePlan:
    """The check commands run named checks of one plan, which report-all
    runs whole, and print one report shape."""

    @pytest.mark.parametrize("name", ["classical", "generalized", "mismatched"])
    def test_check_commands_print_report_all_reports(self, capsys, models_dir, name):
        path = str(models_dir / f"{name}.model")
        _, out, _ = run(capsys, "report-all", path, "--json", "--seed", "5")
        full = json.loads(out)
        named = {check["name"]: check for check in full["checks"]}
        for command, *flags in (("validate",), ("check-lift-brackets", "--pairs", "3"), ("check-duality",)):
            code, out, _ = run(capsys, command, path, *flags, "--json", "--seed", "5")
            payload = json.loads(out)
            assert payload["checks"], command
            for check in payload["checks"]:
                assert check == named[check["name"]], (command, check["name"])
            assert code == (0 if payload["pass"] else 1)
        assert payload["verdict"] == full["verdict"]

    def test_check_that_applies_to_nothing(self, capsys, models_dir, tmp_path):
        text = (models_dir / "classical.model").read_text(encoding="utf-8")
        path = tmp_path / "unanchored.model"
        path.write_text(text.replace("g = identity\n", ""), encoding="utf-8")
        code, out, err = run(capsys, "check-lift-brackets", str(path))
        assert code == 2 and out == ""
        assert err == "error: the model has no anchored bundle with fiber morphism\n"
        code, out, _ = run(capsys, "report-all", str(path), "--json")
        assert code == 0
        bundle_checks = {check.name for check in PLAN if check.scope == "bundle"}
        assert not [c["name"] for c in json.loads(out)["checks"] if c["name"].split()[0] in bundle_checks]


class TestJsonValidityEverywhere:
    ALL_MODELS = (
        "classical.model",
        "lie_algebroid.model",
        "generalized.model",
        "diag_quadratic.model",
        "quartic.model",
        "mismatched.model",
        "broken_compatibility.model",
    )

    def test_validate_json_on_every_model(self, capsys, models_dir):
        for model in self.ALL_MODELS:
            main(["validate", str(models_dir / model), "--json", "--points", "25"])
            json.loads(capsys.readouterr().out)

    def test_check_commands_emit_valid_json(self, capsys, models_dir):
        commands = [
            ("check-lift-brackets", "classical.model"),
            ("check-lift-brackets", "lie_algebroid.model"),
            ("check-lift-brackets", "generalized.model"),
            ("check-duality", "classical.model"),
            ("check-duality", "generalized.model"),
            ("check-duality", "mismatched.model"),
            ("report-all", "generalized.model"),
        ]
        for command, model in commands:
            argv = [command, str(models_dir / model), "--json", "--points", "25"]
            if command == "check-lift-brackets":
                argv += ["--pairs", "2"]
            main(argv)
            json.loads(capsys.readouterr().out)

    def test_lift_bracket_legendre_json(self, capsys, models_dir):
        path = str(models_dir / "classical.model")
        for argv in (
            ["lift", path, "u", "--json"],
            ["lift", path, "u", "--vertical", "--gh", "--json"],
            ["bracket", path, "w", "w", "--json"],
            ["legendre", path, "--forward", "--at", "y1=1", "--json"],
            ["legendre", path, "--backward", "--at", "p1=1", "--json"],
        ):
            assert main(argv) == 0
            json.loads(capsys.readouterr().out)

    def test_control_characters_in_section_name(self, capsys, models_dir, tmp_path):
        name = "u\x01\x1b"
        text = (models_dir / "classical.model").read_text(encoding="utf-8")
        path = tmp_path / "control.model"
        path.write_text(text.replace("[section u]", f"[section {name}]"), encoding="utf-8")
        assert main(["lift", str(path), name, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["section"] == name

    def test_negative_corpus_exit_codes(self, capsys, models_dir):
        for path in sorted((models_dir / "negative").glob("*.model")):
            code = main(["validate", str(path)])
            capsys.readouterr()
            assert code == 2, path.name


def run_survey(*argv, timeout):
    """Run ``scripts/survey_models.py`` in a new interpreter."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, str(root / "scripts" / "survey_models.py"), *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)


def run_python(*args):
    """Run a new interpreter with ``args``, at its default recursion limit."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def run_cli_fresh(*argv):
    """Run the CLI in a new interpreter, at its default recursion limit."""
    return run_python("-m", "algebroids.cli", *argv)


# Counts the parsers made: none at import, some at main's first call,
# none at its second; build_parser makes a new one at every call.
COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from algebroids import cli
print(len(built))
cli.main(["lift"])
first = len(built)
cli.main(["lift"])
print(first > 0, len(built) == first)
print(cli.build_parser() is not cli.build_parser())
"""


class TestLargeHessian:
    def test_report_all_has_no_traceback(self, models_dir, tmp_path):
        """Fiber Hessian entries of 1e200 are finite; the regularity test
        must not overflow on them."""
        text = (models_dir / "classical.model").read_text(encoding="utf-8")
        text = text.replace("L = 1/2*(y1^2 + y2^2)", "L = 1/2*1e200*(y1^2 + y2^2)")
        text = text.replace("H = 1/2*(p1^2 + p2^2)", "H = 1/2*1e-200*(p1^2 + p2^2)")
        path = tmp_path / "large_hessian.model"
        path.write_text(text, encoding="utf-8")
        done = run_cli_fresh("report-all", str(path), "--json")
        assert done.returncode in (0, 1) and done.stderr == ""
        assert isinstance(json.loads(done.stdout), dict)


class TestDeepNesting:
    DEPTH = 30000

    def test_deeply_parenthesized_model_validates(self, models_dir, tmp_path):
        lagrangian = "(" * self.DEPTH + "1/2*(y1^2 + y2^2)" + ")" * self.DEPTH
        path, _ = classical_with_lagrangian(models_dir, tmp_path, lagrangian)
        done = run_cli_fresh("validate", path)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_wide_lagrangian_validates(self, models_dir, tmp_path):
        """A 3,000-term sum is one program entry, so building the fiber
        function's evaluators needs no recursion."""
        lagrangian = " + ".join(f"x1^{k}*y1^2" for k in range(1, 3001))
        path, _ = classical_with_lagrangian(models_dir, tmp_path, lagrangian)
        done = run_cli_fresh("validate", path)
        assert done.returncode == 0, done.stderr[-2000:]
        assert "Traceback" not in done.stderr

    def test_unclosed_parentheses_exit_two(self, models_dir, tmp_path):
        path, _ = classical_with_lagrangian(models_dir, tmp_path, "(" * self.DEPTH)
        done = run_cli_fresh("validate", path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: [expression-syntax]") and done.stderr.count("\n") == 1


BUNDLED_TEXTS = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.model"))
}
HOSTILE_VALUES = ("nan", "1e400", "-0", "((((", "x1^", "")
EDITS = st.tuples(
    st.sampled_from(("drop", "duplicate", "swap", "value")),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(HOSTILE_VALUES),
)


def mutate(text, edits):
    """``text`` with each edit applied in turn: drop, duplicate or swap
    lines, or put a hostile value after a line's ``=``."""
    lines = text.splitlines()
    for op, i, j, value in edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            valued = [k for k, line in enumerate(lines) if "=" in line]
            if valued:
                k = valued[i % len(valued)]
                lines[k] = lines[k].split("=", 1)[0] + "= " + value
    return "\n".join(lines) + "\n"


class TestModelTextFuzz:
    """Mutated bundled models end in exit 0, 1 or 2, never in a
    traceback, and exit 2 prints one line."""

    @given(st.sampled_from(sorted(BUNDLED_TEXTS)), st.lists(EDITS, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_mutated_models_validate_without_traceback(self, tmp_path_factory, name, edits):
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_text(mutate(BUNDLED_TEXTS[name], edits), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
