import pathlib

import numpy as np
import pytest

from algebroids import (
    GeneralizedLieAlgebroid,
    Sampler,
    SmoothMap,
    add,
    check_anchor_morphism,
    check_compatibility,
    check_jacobi,
    check_leibniz,
    coords,
    equivalent,
    identity_map,
    load_model,
    mul,
    parse,
    var,
)
from algebroids.algebroid import random_polynomial, random_section
from algebroids.expr import ZERO, neg


def classical_2d():
    M, N = coords("M", "x", 2), coords("N", "k", 2)
    return GeneralizedLieAlgebroid(
        M, N, identity_map(M, N), identity_map(N, M), 2,
        ((add(1.0), add()), (add(), add(1.0))), {},
    )


def epsilon_algebra():
    M, N = coords("M", "x", 3), coords("N", "k", 3)
    zero = tuple(tuple(add() for _ in range(3)) for _ in range(3))
    struct = {(0, 1, 2): add(1.0), (1, 2, 0): add(1.0), (0, 2, 1): add(-1.0)}
    return GeneralizedLieAlgebroid(
        M, N, identity_map(M, N), identity_map(N, M), 3, zero, struct
    )


def line_algebroid(rho):
    M, N = coords("M", "x", 1), coords("N", "k", 1)
    return GeneralizedLieAlgebroid(
        M, N, identity_map(M, N), identity_map(N, M), 1, ((rho,),), {}
    )


class TestAnchorAction:
    def test_classical_reduces_to_partial_derivative(self, sampler):
        alg = classical_2d()
        got = alg.anchor_action(alg.basis_section(0), parse("k1^2"))
        assert equivalent(got, parse("2*k1"), sampler)

    def test_zero_anchor_annihilates(self):
        alg = epsilon_algebra()
        got = alg.anchor_action(alg.basis_section(0), parse("k1*k2"))
        assert got == add()

    def test_multiplicative_anchor(self):
        alg = line_algebroid(var("k1"))
        got = alg.anchor_action(alg.basis_section(0), var("k1"))
        sampler = Sampler(points=10, seed=2)
        assert equivalent(got, var("k1"), sampler)


class TestBracket:
    def test_constant_sections_hit_structure_functions(self, sampler):
        alg = epsilon_algebra()
        got = alg.bracket(alg.basis_section(0), alg.basis_section(1))
        assert [str(c) for c in got.coefficients] == ["0", "0", "1"]

    def test_cross_product_table(self):
        alg = epsilon_algebra()
        table = {}
        for a in range(3):
            for b in range(3):
                br = alg.bracket(alg.basis_section(a), alg.basis_section(b))
                table[(a, b)] = tuple(float(str(c)) for c in br.coefficients)
        # brute-force cross products of basis vectors
        for a in range(3):
            for b in range(3):
                e_a, e_b = np.eye(3)[a], np.eye(3)[b]
                assert table[(a, b)] == pytest.approx(tuple(np.cross(e_a, e_b)))

    def test_tangent_case_matches_vector_field_bracket(self, sampler):
        alg = line_algebroid(add(1.0))
        u = alg.section((var("k1"),))
        v = alg.section((mul(var("k1"), var("k1")),))
        got = alg.bracket(u, v)
        # [x d, x^2 d] = x^2 d
        assert equivalent(got.coefficients[0], parse("k1^2"), sampler)

    def test_antisymmetry_on_random_sections(self, sampler, lie_algebroid):
        alg = lie_algebroid.algebroid
        rng = np.random.default_rng(5)
        u, v = random_section(alg, rng), random_section(alg, rng)
        forward = alg.bracket(u, v)
        backward = alg.bracket(v, u)
        for a, b in zip(forward.coefficients, backward.coefficients):
            assert equivalent(a, mul(-1.0, b), sampler)

    def test_additivity(self, sampler, lie_algebroid):
        alg = lie_algebroid.algebroid
        rng = np.random.default_rng(6)
        u, v, w = (random_section(alg, rng) for _ in range(3))
        lhs = alg.bracket(u + v, w)
        rhs = alg.bracket(u, w) + alg.bracket(v, w)
        for a, b in zip(lhs.coefficients, rhs.coefficients):
            assert equivalent(a, b, sampler)


class TestCompatibility:
    def test_classical_passes_exactly(self, sampler):
        report = check_compatibility(classical_2d(), sampler)
        assert report.passed and report.worst_residual == 0.0

    def test_shear_anchor_with_unit_structure(self, sampler):
        M, N = coords("M", "x", 2), coords("N", "k", 2)
        alg = GeneralizedLieAlgebroid(
            M, N, identity_map(M, N), identity_map(N, M), 2,
            ((add(1.0), add()), (var("k1"), add())), {(0, 1, 0): add(1.0)},
        )
        assert check_compatibility(alg, sampler).passed

    def test_missing_structure_fails_at_half(self, sampler, broken):
        report = check_compatibility(broken.algebroid, sampler)
        assert not report.passed
        assert report.worst_residual >= 0.5


class TestJacobiLeibniz:
    def test_epsilon_algebra_jacobi(self, sampler):
        assert check_jacobi(epsilon_algebra(), sampler).passed

    def test_anchor_only_jacobi(self, sampler):
        alg = line_algebroid(var("k1"))
        assert check_jacobi(alg, sampler).passed

    def test_rank3_single_structure_entry_cyclic_sum(self, sampler):
        # zero anchor, one nonconstant entry: the cyclic sum reduces to
        # a bracket of a scaled frame section with the frame, which the
        # zero anchor kills; verified against the explicit table.
        M, N = coords("M", "x", 3), coords("N", "k", 3)
        zero = tuple(tuple(add() for _ in range(3)) for _ in range(3))
        alg = GeneralizedLieAlgebroid(
            M, N, identity_map(M, N), identity_map(N, M), 3, zero,
            {(0, 1, 2): var("k1")},
        )
        t = [alg.basis_section(a) for a in range(3)]
        cyc = (
            alg.bracket(t[0], alg.bracket(t[1], t[2]))
            + alg.bracket(t[1], alg.bracket(t[2], t[0]))
            + alg.bracket(t[2], alg.bracket(t[0], t[1]))
        )
        for c in cyc.coefficients:
            assert equivalent(c, add(), sampler)
        assert check_jacobi(alg, sampler).passed

    def test_constant_scale_reduces_to_linearity(self, sampler, lie_algebroid):
        alg = lie_algebroid.algebroid
        rng = np.random.default_rng(8)
        u, v = random_section(alg, rng), random_section(alg, rng)
        lhs = alg.bracket(u, v.scaled(add(3.0)))
        rhs = alg.bracket(u, v).scaled(add(3.0))
        for a, b in zip(lhs.coefficients, rhs.coefficients):
            assert equivalent(a, b, sampler)

    def test_leibniz_all_models(self, sampler, all_valid_models):
        for name, model in all_valid_models.items():
            assert check_leibniz(model.algebroid, sampler).passed, name

    def test_leibniz_generalized_tolerance(self, generalized):
        sampler = Sampler(points=100, seed=3)
        report = check_leibniz(generalized.algebroid, sampler)
        assert report.worst_residual <= 1e-8

    def test_anchor_is_bracket_morphism(self, sampler, all_valid_models):
        for name, model in all_valid_models.items():
            assert check_anchor_morphism(model.algebroid, sampler).passed, name


class TestConstruction:
    def test_non_antisymmetric_rejected(self):
        M, N = coords("M", "x", 2), coords("N", "k", 2)
        rho = ((add(1.0), add()), (add(), add(1.0)))
        # L(2, 1, 1) must be -L(1, 2, 1).
        structure = {(0, 1, 0): add(1.0), (1, 0, 0): add(1.0)}
        with pytest.raises(ValueError, match="antisymmetry violated"):
            GeneralizedLieAlgebroid(M, N, identity_map(M, N), identity_map(N, M), 2, rho, structure)

    def test_nonzero_diagonal_rejected(self):
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        with pytest.raises(ValueError, match="antisymmetric"):
            GeneralizedLieAlgebroid(
                M, N, identity_map(M, N), identity_map(N, M), 1,
                ((add(1.0),),), {(0, 0, 0): add(1.0)},
            )

    def test_anchor_must_live_on_n(self):
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        with pytest.raises(ValueError, match="N coordinates"):
            GeneralizedLieAlgebroid(
                M, N, identity_map(M, N), identity_map(N, M), 1, ((var("x1"),),), {}
            )

    def test_smooth_map_inverse_check(self, sampler):
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        good = SmoothMap(M, N, (parse("x1+1"),), (parse("k1-1"),))
        assert good.check_inverse(sampler).passed
        bad = SmoothMap(M, N, (parse("x1+1"),), (parse("k1+1"),))
        assert not bad.check_inverse(sampler).passed


MODEL_FILES = sorted((pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.model")) + [
    pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "models" / "rotation.model"
]


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda path: path.stem)
def test_anchor_and_structure_pulled_to_m_once(path):
    alg = load_model(path).algebroid
    for a in range(alg.rank):
        for i in range(alg.base_m.dim):
            assert alg.rho_m[a][i] is alg.h.pull(alg.rho[a][i])
        for b in range(alg.rank):
            for g in range(alg.rank):
                stored = alg.structure.get((min(a, b), max(a, b), g), ZERO)
                assert alg.L(a, b, g) is (ZERO if a == b else stored if a < b else neg(stored))
                assert alg.L_m(a, b, g) is alg.h.pull(alg.L(a, b, g))


def test_random_polynomial_uses_declared_variables():
    rng = np.random.default_rng(0)
    poly = random_polynomial(("k1", "k2"), rng)
    from algebroids import free_variables

    assert free_variables(poly) <= {"k1", "k2"}


def reference_random_polynomial(variables, rng, degree=2):
    """random_polynomial with every coefficient drawn by ``rng.uniform(-1, 1)``,
    one at a time."""
    import itertools

    terms = [add(round(float(rng.uniform(-1, 1)), 3))]
    for v in variables:
        terms.append(mul(round(float(rng.uniform(-1, 1)), 3), var(v)))
    if degree >= 2:
        for u, v in itertools.combinations_with_replacement(variables, 2):
            if rng.random() < 0.5:
                terms.append(mul(round(float(rng.uniform(-1, 1)), 3), var(u), var(v)))
    return add(*terms)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("variables", [(), ("k1",), ("x1", "x2", "y1", "y2")], ids=["none", "one", "four"])
def test_random_polynomial_matches_uniform_draws(variables, degree):
    # The same polynomial, and the generator left in the same state.
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_polynomial(variables, rng, degree) is reference_random_polynomial(variables, ref, degree)
        assert rng.random() == ref.random()
