import json
import os
import pathlib
import subprocess
import sys

import pytest

from algebroids.cli import main


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

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.model")
        assert code == 2
        assert err

    def test_json_mode_emits_json_only(self, capsys, models_dir):
        code, out, _ = run(capsys, "validate", "--json", str(models_dir / "classical.model"))
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True


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

    def test_bad_point_exits_two(self, capsys, models_dir):
        code, _, err = run(
            capsys, "legendre", str(models_dir / "classical.model"), "--at", "z9=1"
        )
        assert code == 2 and "unknown coordinate" in err

    def test_non_finite_point_exits_two(self, capsys, models_dir):
        for model, at in (("classical.model", "x1=nan"), ("quartic.model", "x1=nan,y1=inf")):
            code, out, err = run(capsys, "legendre", str(models_dir / model), "--at", at)
            assert code == 2 and out == "", (model, out)
            assert "must be finite" in err and err.count("\n") == 1

    def test_evaluation_error_exits_two(self, capsys, models_dir):
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--at", "y1=1e200")
        assert code == 2 and out == ""
        assert "domain error" in err and err.count("\n") == 1

    def test_failed_solve_exits_two(self, capsys, models_dir):
        at = "x1=0,x2=0,y1=-0.000633552529,y2=-0.809259391"
        code, out, err = run(capsys, "legendre", str(models_dir / "quartic.model"), "--forward", "--at", at)
        assert code == 2 and out == ""
        assert "no convergence" in err and err.count("\n") == 1

    def test_hamiltonian_only_failed_solve_exits_two(self, capsys, models_dir, tmp_path):
        text = (models_dir / "quartic.model").read_text()
        text = text.replace("[lagrangian]\nL = 1/4*(y1^4 + y2^4)", "[hamiltonian]\nH = 1/4*(p1^4 + p2^4)")
        path = tmp_path / "hamiltonian_only.model"
        path.write_text(text)
        at = "x1=0,x2=0,p1=-0.000633552529,p2=-0.809259391"
        code, out, err = run(capsys, "legendre", str(path), "--backward", "--at", at)
        assert code == 2 and out == ""
        assert "no convergence" in err and err.count("\n") == 1


class TestCheckCommands:
    def test_lift_brackets_alias(self, capsys, models_dir):
        for command in ("check-theorem18", "check-lift-brackets"):
            code, out, _ = run(
                capsys, command, str(models_dir / "generalized.model"), "--pairs", "2"
            )
            assert code == 0
            assert "lift-brackets" in out

    def test_duality_equivalent(self, capsys, models_dir):
        code, out, _ = run(capsys, "check-duality", str(models_dir / "classical.model"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "equivalent"
        row = payload["checks"][0]["rows"][0]
        assert set(row) == {"equationFamily", "indexTuple", "worstResidual", "pass"}

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

    def test_usage_error_exits_two(self, capsys):
        assert main(["lift"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_survey_script_rejects_no_points(self, points):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "survey_models.py"), "--points", points],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


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


def run_cli_fresh(*argv):
    """Run the CLI in a new interpreter, at its default recursion limit."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-m", "algebroids.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


class TestDeepNesting:
    DEPTH = 30000

    def test_deeply_parenthesized_model_validates(self, models_dir, tmp_path):
        lagrangian = "(" * self.DEPTH + "1/2*(y1^2 + y2^2)" + ")" * self.DEPTH
        path, _ = classical_with_lagrangian(models_dir, tmp_path, lagrangian)
        done = run_cli_fresh("validate", path)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_unclosed_parentheses_exit_two(self, models_dir, tmp_path):
        path, _ = classical_with_lagrangian(models_dir, tmp_path, "(" * self.DEPTH)
        done = run_cli_fresh("validate", path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: [expression-syntax]") and done.stderr.count("\n") == 1
