import json
import pathlib
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from algebroids import (
    Sampler,
    equivalent,
    format_model,
    load_model,
    mul,
    neg,
    parse,
    parse_model,
    to_string,
    var,
)
from algebroids.modelio import ModelError, emit_report, symbolic_inverse
from algebroids.verify import run_checks

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

    @pytest.mark.parametrize(
        "entries",
        [
            ("L[1,2]^1 = k1",),
            ("L[2,1]^1 = -k1",),
            ("L[1,2]^1 = k1", "L[2,1]^1 = -k1"),
            ("L[2,1]^1 = -k1", "L[1,2]^1 = k1"),
        ],
        ids=["12-only", "21-only", "12-then-21", "21-then-12"],
    )
    def test_consistent_double_entry_accepted(self, entries):
        # Either entry, or both, is stored once, under a < b.
        model = parse_model(
            "[base M]\ndim = 1\n[base N]\ndim = 1\n[algebroid]\nrank = 2\n" + "\n".join(entries)
        )
        assert list(model.algebroid.structure.items()) == [((0, 1, 0), var("k1"))]
        assert model.algebroid.L(0, 1, 0) == var("k1")
        assert model.algebroid.L(1, 0, 0) == neg(var("k1"))

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

    def test_dual_bundle_of_another_rank_rejected(self):
        # The dual of E has E's rank.
        text = """[base M]
        dim = 1
        [base N]
        dim = 1
        [algebroid]
        rank = 1
        rho[1][1] = 1
        [bundle E]
        rank = 2
        [bundle Edual]
        rank = 1
        [lagrangian]
        L = 1/2*(y1^2 + y2^2)
        [hamiltonian]
        H = 1/2*p1^2
        """
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert err.value.code == "dimension-mismatch"
        assert err.value.line == 11


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
            # Finite bounds whose width hi - lo overflows.
            "domain = -1e308 1e308",
            "domain x1 = -1e308 1e308",
        ],
    )
    def test_degenerate_entry_is_a_bad_value(self, entry):
        with pytest.raises(ModelError) as err:
            parse_model(SAMPLER_BASE + entry + "\n")
        assert err.value.code == "bad-value"
        assert err.value.line == 10

    def test_zero_tol_is_accepted(self):
        model = parse_model(SAMPLER_BASE + "tol = 0\ndomain x1 = -1 0.5\n")
        assert model.tol == 0.0
        assert model.sampler.ranges == {"x1": (-1.0, 0.5)}

    @pytest.mark.parametrize("name", ["zz9", "y1"])
    def test_domain_of_unknown_coordinate_is_rejected(self, name):
        # With no [bundle E], y1 names no coordinate either.
        with pytest.raises(ModelError) as err:
            parse_model(SAMPLER_BASE + f"domain {name} = 0 1\n")
        assert err.value.code == "unknown-variable"
        assert err.value.line == 10

    def test_domain_may_name_base_and_fiber_coordinates(self):
        text = SAMPLER_BASE.replace("[sampler]", "[bundle E]\nrank = 1\n[sampler]")
        model = parse_model(text + "domain k1 = 0 1\ndomain y1 = 1 2\n")
        assert model.sampler.ranges == {"k1": (0.0, 1.0), "y1": (1.0, 2.0)}


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


SINGULAR_G = """[base M]
dim = 2
[base N]
dim = 2
[algebroid]
rank = 2
rho[1][1] = 1
rho[2][2] = 1
[bundle E]
rank = 2
g[1][1] = {g11}
g[1][2] = {g12}
g[2][1] = {g21}
g[2][2] = {g22}
ginv = auto
"""


def singular_g(g11, g12="2", g21="2", g22="4"):
    return SINGULAR_G.format(g11=g11, g12=g12, g21=g21, g22=g22)


class TestAutoInverseOfSingularMorphism:
    def test_constant_zero_determinant_is_a_bad_value(self):
        with pytest.raises(ModelError) as err:
            parse_model(singular_g("1"))
        assert err.value.code == "bad-value"
        assert err.value.line == 15
        assert "bundle E" in str(err.value) and "ginv = auto" in str(err.value)

    def test_determinant_zero_at_some_points_loads(self):
        # det = 4*x1 - 4 vanishes only on the line x1 = 1.
        model = parse_model(singular_g("x1"))
        assert model.bundles["E"].g_inv is not None

    @pytest.mark.parametrize(
        "entries",
        [("x1", "x1", "x1", "x1"), ("x1", "2*x1", "x2", "2*x2"), ("sin(x1)", "cos(x1)", "2*sin(x1)", "2*cos(x1)")],
        ids=["all-x1", "proportional-columns", "proportional-rows"],
    )
    def test_determinant_zero_at_every_sampled_point_is_a_bad_value(self, entries):
        # None of these determinants builds to the constant 0.
        with pytest.raises(ModelError) as err:
            parse_model(singular_g(*entries))
        assert err.value.code == "bad-value"
        assert err.value.line == 15
        assert str(err.value) == (
            "[bad-value] ginv = auto: g of bundle E has a determinant that vanishes at every sampled point,"
            " so it has no inverse (line 15)"
        )

    def test_determinant_zero_on_a_line_loads(self):
        model = parse_model(singular_g("x1", "0", "0", "1"))
        assert model.bundles["E"].g_inv[0][0] is parse("x1^(-1)")

    def test_point_that_fails_to_evaluate_proves_nothing(self):
        # det = sqrt(x1)*sqrt(x1) - sqrt(x1)*sqrt(x1) is 0 wherever x1 >= 0,
        # and fails to evaluate at the sampled points where x1 < 0.
        text = singular_g(*["sqrt(x1)"] * 4)
        assert parse_model(text).bundles["E"].g_inv is not None
        with pytest.raises(ModelError) as err:
            parse_model(text + "[sampler]\ndomain x1 = 0.5 2\n")
        assert err.value.code == "bad-value" and "vanishes at every sampled point" in str(err.value)

    def test_determinant_regular_at_the_centre_of_the_box_loads(self):
        # det = exp(-1e8*x1^2) is 1 at x1 = 0, the centre of the sampler's
        # box, but negligible at every drawn point, so it vanishes only at
        # some points.
        text = singular_g("1", "1", "1", "1 + exp(-100000000*x1^2)")
        sampler = Sampler()
        points = sampler.columns(("x1", "x2"))
        assert np.all(np.exp(-1e8 * points[:, 0] ** 2) <= 1e-12)
        assert parse_model(text).bundles["E"].g_inv is not None

    def test_failure_at_the_centre_of_the_box_proves_nothing(self):
        # log(x1^2) fails at x1 = 0 only, and no drawn point is 0.
        with pytest.raises(ModelError) as err:
            parse_model(singular_g(*["log(x1^2)"] * 4))
        assert err.value.code == "bad-value" and "vanishes at every sampled point" in str(err.value)

    def test_determinant_that_overflows_proves_nothing(self):
        # Each entry is finite, but their product, the determinant, is not.
        model = parse_model(singular_g("exp(400 + x1)", "0", "0", "exp(400 + x2)"))
        assert model.bundles["E"].g_inv is not None

    def test_symbolic_inverse_refuses_a_zero_determinant(self):
        with pytest.raises(ZeroDivisionError):
            symbolic_inverse(((parse("1"), parse("2")), (parse("2"), parse("4"))))


def reference_emit_json(obj) -> str:
    """The JSON text of ``obj`` written one value at a time, the
    emitter's rule before check reports and rows had a format string."""
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{encode_basestring_ascii(str(k))}:{reference_emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(reference_emit_json, obj)) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if hasattr(obj, "to_jsonable"):
        return reference_emit_json(obj.to_jsonable())
    raise TypeError(f"cannot serialize {obj!r}")


def emitted(checks, extra=None) -> str:
    """``emit_report(checks, extra)``, which must be the reference
    emitter's text of the same payload, byte for byte."""
    text = emit_report(checks, extra)
    assert text == reference_emit_json({"checks": list(checks), **(extra or {})})
    return text


class TestReportEmission:
    @pytest.mark.parametrize(
        "path",
        [*sorted(MODELS.glob("*.model")), MODELS.parent / "benchmark" / "models" / "rotation.model"],
        ids=lambda p: p.stem,
    )
    def test_reports_emit_as_the_reference_does(self, path):
        model = load_model(path)
        reports, extra = run_checks(model, replace(model.sampler, seed=1), model.tol)
        emitted(reports, {**extra, "pass": all(r.passed for r in reports)})
        for report in reports:
            emitted([report, *report.rows])

    def test_empty(self):
        assert emitted([]) == '{"checks":[]}'

    def test_single_pass_check(self):
        text = emitted([{"check": "demo", "pass": True, "residual": 0.5}])
        data = json.loads(text)
        assert data["checks"][0]["pass"] is True
        assert data["checks"][0]["residual"] == 0.5

    def test_failing_check_includes_witness(self, sampler, broken):
        from algebroids import check_compatibility

        report = check_compatibility(broken.algebroid, sampler)
        text = emitted([report])
        data = json.loads(text)
        failing = [row for row in data["checks"][0]["rows"] if not row["pass"]]
        assert failing and "witness" in failing[0]

    def test_seventeen_significant_digits(self):
        text = emitted([], {"value": 0.1})
        assert "0.10000000000000001" in text

    def test_control_characters_round_trip(self):
        text = "".join(map(chr, range(32))) + '\x7f"\\u\u00e9'
        assert json.loads(emitted([], {"section": text})) == {"checks": [], "section": text}

    def test_valid_json_round_trip(self):
        class Key(str):
            pass

        payload = emitted([], {"nested": {"a": [1, 2.5, None, True, "s"], Key("k"): np.float64(0.1)}})
        assert payload == '{"checks":[],"nested":{"a":[1,2.5,null,true,"s"],"k":0.10000000000000001}}'
        assert json.loads(payload) == {"checks": [], "nested": {"a": [1, 2.5, None, True, "s"], "k": 0.1}}


class TestMorphismKeyOrientation:
    """The fiber index comes first in a primal ``g`` and in a dual
    ``ginv``; the algebroid index comes first in the other two."""

    ENTRIES = "g[1][1] = 1\ng[1][2] = x1\ng[2][2] = 2\nginv[1][1] = 1\nginv[1][2] = -x1/2\nginv[2][2] = 1/2\n"

    @staticmethod
    def matrices(model):
        return {
            (name, key): [[to_string(e) for e in row] for row in matrix]
            for name, bundle in model.bundles.items()
            for key, matrix in (("g", bundle.g), ("ginv", bundle.g_inv))
        }

    def test_both_variances(self):
        text = (MODELS / "classical.model").read_text(encoding="utf-8")
        model = parse_model(text.replace("rank = 2\ng = identity\n", "rank = 2\n" + self.ENTRIES))
        got = self.matrices(model)
        assert got["E", "g"] == [["1", "0"], ["x1", "2"]]
        assert got["Edual", "g"] == [["1", "x1"], ["0", "2"]]
        for bundle in model.bundles.values():
            assert bundle.check_morphism_inverse(model.sampler).passed
        assert self.matrices(parse_model(format_model(model))) == got
