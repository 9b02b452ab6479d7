import json
import pathlib

import pytest

from algebroids import (
    Sampler,
    equivalent,
    format_model,
    load_model,
    mul,
    parse,
    parse_model,
    var,
)
from algebroids.modelio import ModelError, emit_report, symbolic_inverse

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

NEGATIVE_EXPECTATIONS = {
    "structure_inconsistent.model": "structure-inconsistent",
    "unknown_variable.model": "unknown-variable",
    "dimension_mismatch.model": "dimension-mismatch",
    "duplicate_key.model": "duplicate-key",
    "expression_syntax.model": "expression-syntax",
    "unknown_function.model": "unknown-function",
    "bad_block.model": "bad-block",
    "missing_key.model": "missing-key",
    "duplicate_block.model": "duplicate-block",
    "bad_value.model": "bad-value",
    "missing_block.model": "missing-block",
    "ginv_auto_too_large.model": "ginv-auto-too-large",
    "unknown_bundle.model": "unknown-bundle",
}


class TestParsing:
    def test_minimal_classical_model(self):
        model = parse_model(
            """
            [base M]
            dim = 1
            [base N]
            dim = 1
            [algebroid]
            rank = 1
            rho[1][1] = 1
            [bundle E]
            rank = 1
            g = identity
            """
        )
        assert model.algebroid.rank == 1
        assert model.bundles["E"].g[0][0] == parse("1")
        assert model.sampler.points == 100

    def test_unspecified_entries_default_to_zero(self):
        model = parse_model(
            """
            [base M]
            dim = 2
            [base N]
            dim = 2
            [algebroid]
            rank = 2
            rho[1][1] = 1
            """
        )
        assert str(model.algebroid.rho[1][0]) == "0"
        assert str(model.algebroid.L(0, 1, 0)) == "0"

    def test_consistent_double_entry_accepted(self):
        model = parse_model(
            """
            [base M]
            dim = 1
            [base N]
            dim = 1
            [algebroid]
            rank = 2
            L[1,2]^1 = k1
            L[2,1]^1 = -k1
            """
        )
        assert model.algebroid.L(0, 1, 0) == var("k1")

    def test_maps_default_to_identity(self, classical):
        h = classical.algebroid.h
        assert h.forward == (var("x1"), var("x2"))

    def test_ginv_auto_matches_declared_inverse(self, generalized):
        bundle = generalized.bundles["E"]
        sampler = Sampler(points=30, seed=2)
        product = mul(bundle.g[0][0], bundle.g_inv[0][0])
        assert equivalent(product, parse("1"), sampler)

    def test_sampler_block(self, classical):
        assert classical.sampler.points == 100
        assert classical.sampler.seed == 0
        assert classical.tol == 1e-8

    def test_prolonged_section_block(self, classical):
        w = classical.sections["w"]
        assert w.horizontal[0] == parse("x1 + y1")
        assert str(w.vertical[0]) == "0"

    def test_unrecognized_block_rejected(self):
        text = """
        [base M]
        dim = 1
        [base N]
        dim = 1
        [algebroid]
        rank = 1
        [bundle X]
        rank = 1
        """
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert err.value.code == "bad-block"


SAMPLER_BASE = """
[base M]
dim = 1
[base N]
dim = 1
[algebroid]
rank = 1
rho[1][1] = 1
[sampler]
"""


class TestSamplerBlock:
    @pytest.mark.parametrize(
        "entry",
        [
            "tol = inf",
            "tol = nan",
            "tol = -1",
            "domain = -inf inf",
            "domain = -2 inf",
            "domain x1 = -inf 0",
        ],
    )
    def test_degenerate_entry_is_a_bad_value(self, entry):
        with pytest.raises(ModelError) as err:
            parse_model(SAMPLER_BASE + entry + "\n")
        assert err.value.code == "bad-value"

    def test_zero_tol_is_accepted(self):
        model = parse_model(SAMPLER_BASE + "tol = 0\ndomain x1 = -1 0.5\n")
        assert model.tol == 0.0
        assert model.sampler.ranges == {"x1": (-1.0, 0.5)}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [p.name for p in sorted(MODELS.glob("*.model"))],
    )
    def test_print_parse_idempotent(self, name):
        model = load_model(MODELS / name)
        text1 = format_model(model)
        text2 = format_model(parse_model(text1))
        assert text1 == text2


class TestNegativeCorpus:
    @pytest.mark.parametrize("name,code", sorted(NEGATIVE_EXPECTATIONS.items()))
    def test_rejected_with_documented_code(self, name, code):
        path = MODELS / "negative" / name
        with pytest.raises(ModelError) as err:
            load_model(path)
        assert err.value.code == code

    def test_every_negative_file_is_covered(self):
        names = {p.name for p in (MODELS / "negative").glob("*.model")}
        assert names == set(NEGATIVE_EXPECTATIONS)


class TestExpressionErrors:
    def test_overflowing_constant_is_an_expression_syntax_error(self, tmp_path):
        text = (MODELS / "classical.model").read_text(encoding="utf-8")
        line = text.splitlines().index("L = 1/2*(y1^2 + y2^2)") + 1
        path = tmp_path / "overflow.model"
        path.write_text(text.replace("L = 1/2*(y1^2 + y2^2)", "L = 1e308*10*y1^2"), encoding="utf-8")
        with pytest.raises(ModelError) as err:
            load_model(path)
        assert err.value.code == "expression-syntax"
        assert err.value.line == line
        assert "constant overflow" in str(err.value)


class TestSymbolicInverse:
    def test_two_by_two(self):
        sampler = Sampler(points=25, seed=4)
        g = ((parse("1 + x1^2"), parse("x1")), (parse("0"), parse("2")))
        ginv = symbolic_inverse(g)
        for i in range(2):
            for j in range(2):
                total = parse("0")
                for k in range(2):
                    total = total + mul(g[i][k], ginv[k][j])
                assert equivalent(total, parse("1") if i == j else parse("0"), sampler)


class TestReportEmission:
    def test_empty(self):
        assert emit_report([]) == '{"checks":[]}'

    def test_single_pass_check(self):
        text = emit_report([{"check": "demo", "pass": True, "residual": 0.5}])
        data = json.loads(text)
        assert data["checks"][0]["pass"] is True
        assert data["checks"][0]["residual"] == 0.5

    def test_failing_check_includes_witness(self, sampler, broken):
        from algebroids import check_compatibility

        report = check_compatibility(broken.algebroid, sampler)
        text = emit_report([report])
        data = json.loads(text)
        failing = [row for row in data["checks"][0]["rows"] if not row["pass"]]
        assert failing and "witness" in failing[0]

    def test_seventeen_significant_digits(self):
        text = emit_report([], {"value": 0.1})
        assert "0.10000000000000001" in text

    def test_control_characters_round_trip(self):
        text = "".join(map(chr, range(32))) + '\x7f"\\u\u00e9'
        assert json.loads(emit_report([], {"section": text})) == {"checks": [], "section": text}

    def test_valid_json_round_trip(self):
        payload = emit_report([], {"nested": {"a": [1, 2.5, None, True, "s"]}})
        assert json.loads(payload) == {"checks": [], "nested": {"a": [1, 2.5, None, True, "s"]}}
