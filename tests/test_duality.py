import itertools

import numpy as np
import pytest

from algebroids import (
    AnchoredBundle,
    CheckReport,
    GeneralizedLieAlgebroid,
    Hamiltonian,
    Lagrangian,
    LegendrePair,
    ProlongSection,
    Sampler,
    add,
    basis_section,
    bracket_commutation,
    bracket_prolong,
    check_lift_transport,
    coords,
    differentiate,
    equivalent,
    identity_map,
    legendre_equivalence,
    morphism_conditions,
    mul,
    neg,
    parse,
    tangent_legendre,
    transformed_section,
    var,
    vertical_lift,
    vertical_lift_function,
)
from algebroids.prolong import random_prolong_section
from algebroids.reporting import residual_row


@pytest.fixture(scope="module")
def euclid_pair():
    import pathlib

    from algebroids import load_model

    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    model = load_model(models / "classical.model")
    return LegendrePair(model.lagrangian, model.hamiltonian)


@pytest.fixture(scope="module")
def mismatched_pair():
    import pathlib

    from algebroids import load_model

    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    model = load_model(models / "mismatched.model")
    return LegendrePair(model.lagrangian, model.hamiltonian)


def zero_anchor_pair():
    M, N = coords("M", "x", 2), coords("N", "k", 2)
    zero = tuple(tuple(add() for _ in range(2)) for _ in range(2))
    alg = GeneralizedLieAlgebroid(M, N, identity_map(M, N), identity_map(N, M), 2, zero, {})
    ident = tuple(tuple(add(1.0) if i == j else add() for j in range(2)) for i in range(2))
    E = AnchoredBundle(alg, 2, "primal", ident, ident)
    Ed = AnchoredBundle(alg, 2, "dual", ident, ident)
    return LegendrePair(
        Lagrangian(E, parse("1/2*(y1^2 + y2^2)")),
        Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)")),
    )


class TestTangentApplications:
    def test_vertical_frame_maps_to_dual_vertical_frame(self, euclid_pair):
        got = tangent_legendre(euclid_pair, vertical_lift(basis_section(euclid_pair.primal, 0)), "lagrangian")
        assert str(got) == "dot_td_p1"

    def test_horizontal_frame_passes_when_mixed_hessian_vanishes(self, euclid_pair):
        td_1 = ProlongSection(euclid_pair.primal, (add(1.0), add()), (add(), add()))
        got = tangent_legendre(euclid_pair, td_1, "lagrangian")
        assert str(got) == "td_1"

    def test_zero_maps_to_zero(self, euclid_pair):
        E = euclid_pair.primal
        zero = E.section((add(), add()))
        got = tangent_legendre(euclid_pair, vertical_lift(zero), "lagrangian")
        assert str(got) == "0"

    def test_dual_direction_frame(self, euclid_pair):
        got = tangent_legendre(euclid_pair, vertical_lift(basis_section(euclid_pair.dual, 0)), "hamiltonian")
        assert str(got) == "dot_td_y1"

    def test_composition_is_identity(self, euclid_pair, sampler):
        rng = np.random.default_rng(3)
        Z = random_prolong_section(euclid_pair.primal, rng)
        back = tangent_legendre(euclid_pair, tangent_legendre(euclid_pair, Z, "lagrangian"), "hamiltonian")
        for a, b in zip(back.horizontal + back.vertical, Z.horizontal + Z.vertical):
            assert equivalent(a, b, sampler)

    def test_horizontal_image_depends_only_on_horizontal_input(self, euclid_pair, sampler):
        rng = np.random.default_rng(4)
        Z = random_prolong_section(euclid_pair.primal, rng)
        got = tangent_legendre(euclid_pair, Z, "lagrangian")
        for alpha in range(2):
            assert equivalent(
                got.horizontal[alpha], euclid_pair.to_dual(Z.horizontal[alpha]), sampler
            )


def classical_reduced_conditions(
    pair: LegendrePair, sampler: Sampler, tol: float = 1e-10
) -> CheckReport:
    """The reduced equation families for identity anchor and base maps,
    written directly in the mixed and fiber Hessians of the Lagrangian.
    Agrees with :func:`morphism_conditions` on classical models."""
    L = pair.lagrangian
    m = pair.primal.algebroid.base_m.dim
    r = pair.primal.rank
    xs = pair.primal.algebroid.base_m.variables
    ps = pair.dual.fiber_variables
    A = [[pair.to_dual(L.mixed[i][b]) for b in range(r)] for i in range(m)]
    B = [[pair.to_dual(L.hessian[a][b]) for b in range(r)] for a in range(r)]
    report = CheckReport("legendre-morphism-conditions-classical")
    for i, j in itertools.combinations(range(m), 2):
        for k in range(r):
            rhs = add(
                differentiate(A[j][k], xs[i]),
                neg(differentiate(A[i][k], xs[j])),
                *[mul(A[i][h], differentiate(A[j][k], ps[h])) for h in range(r)],
                *[neg(mul(A[j][h], differentiate(A[i][k], ps[h]))) for h in range(r)],
            )
            residual_row(report, "anchored-anchored", (i + 1, j + 1, k + 1), add(), rhs, sampler, tol)
    for i in range(m):
        for j in range(r):
            for k in range(r):
                rhs = add(
                    differentiate(B[j][k], xs[i]),
                    *[mul(A[i][h], differentiate(B[j][k], ps[h])) for h in range(r)],
                    *[neg(mul(B[j][h], differentiate(A[i][k], ps[h]))) for h in range(r)],
                )
                residual_row(report, "anchored-fiber", (i + 1, j + 1, k + 1), add(), rhs, sampler, tol)
    for i, j in itertools.combinations(range(r), 2):
        for k in range(r):
            rhs = add(
                *[mul(B[i][h], differentiate(B[j][k], ps[h])) for h in range(r)],
                *[neg(mul(B[j][h], differentiate(B[i][k], ps[h]))) for h in range(r)],
            )
            residual_row(report, "fiber-fiber", (i + 1, j + 1, k + 1), add(), rhs, sampler, tol)
    return report


class TestMorphismConditions:
    def test_euclidean_all_families_zero(self, euclid_pair, sampler):
        for side in ("lagrangian", "hamiltonian"):
            report = morphism_conditions(euclid_pair, side, sampler, tol=1e-10)
            assert report.passed
            assert report.worst_residual == 0.0

    def test_classical_reduced_agrees_with_general(self, euclid_pair, sampler):
        general = morphism_conditions(euclid_pair, "lagrangian", sampler, tol=1e-10)
        reduced = classical_reduced_conditions(euclid_pair, sampler, tol=1e-10)
        assert reduced.passed == general.passed
        assert abs(reduced.worst_residual - general.worst_residual) <= 1e-10

    def test_reduced_check_on_nonconstant_hessian(self, sampler):
        # a genuine transform pair with base-dependent fiber metric:
        # L = phi(x) y^2 / 2, H = p^2 / (2 phi(x))
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        alg = GeneralizedLieAlgebroid(
            M, N, identity_map(M, N), identity_map(N, M), 1, ((add(1.0),),), {}
        )
        E = AnchoredBundle(alg, 1, "primal", ((add(1.0),),), ((add(1.0),),))
        Ed = AnchoredBundle(alg, 1, "dual", ((add(1.0),),), ((add(1.0),),))
        pair = LegendrePair(
            Lagrangian(E, parse("1/2*(1 + x1^2)*y1^2")),
            Hamiltonian(Ed, parse("1/2*p1^2/(1 + x1^2)")),
        )
        general = morphism_conditions(pair, "lagrangian", sampler, tol=1e-8)
        reduced = classical_reduced_conditions(pair, sampler, tol=1e-8)
        assert general.passed == reduced.passed
        eq = legendre_equivalence(pair, sampler, tol_conditions=1e-8)
        assert eq.equivalent

    def test_mismatched_families_trivially_hold(self, mismatched_pair, sampler):
        # constant primal Hessian makes every family vanish identically;
        # rejection must come from bracket commutation instead
        for side in ("lagrangian", "hamiltonian"):
            assert morphism_conditions(mismatched_pair, side, sampler, tol=1e-10).passed

    def test_families_nontrivial_yet_insufficient(self, lie_algebroid, sampler):
        # nonzero structure functions with a nonzero mixed Hessian: the
        # anchored-anchored family carries live terms on both sides and
        # still balances, while the tangent application fails bracket
        # commutation (the fundamental function is not 2-homogeneous),
        # so the frame conditions alone cannot decide equivalence
        from algebroids import Hamiltonian, Lagrangian, mul
        from algebroids.duality import _sides
        from algebroids.expr import max_residual

        E, Ed = lie_algebroid.bundles["E"], lie_algebroid.bundles["Edual"]
        pair = LegendrePair(
            Lagrangian(E, parse("1/2*(y1^2 + y2^2) + x1*y1")),
            Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)")),
        )
        source, _, fn, transport = _sides(pair, "lagrangian")
        alg = source.algebroid
        rho = alg.rho_m
        lhs = add(
            *[
                mul(vertical_lift_function(source, alg.L(0, 1, g)), rho[g][k], fn.mixed[k][0])
                for g in range(2)
                for k in range(2)
            ]
        )
        magnitude, _ = max_residual(lhs, add(), sampler)
        assert magnitude > 0.1  # the family is not vacuous here
        for side in ("lagrangian", "hamiltonian"):
            assert morphism_conditions(pair, side, sampler, tol=1e-10).passed
        assert not bracket_commutation(pair, "lagrangian", sampler, tol=1e-8).passed
        assert not legendre_equivalence(pair, sampler).equivalent


class TestBracketCommutation:
    def test_euclidean_commutes(self, euclid_pair, sampler):
        for side in ("lagrangian", "hamiltonian"):
            assert bracket_commutation(euclid_pair, side, sampler, tol=1e-8).passed

    def test_mismatched_fails(self, mismatched_pair, sampler):
        report = bracket_commutation(mismatched_pair, "lagrangian", sampler, tol=1e-8)
        assert not report.passed
        assert report.worst_residual > 1e-2

    def test_explicit_witness_sections(self, mismatched_pair, sampler):
        # Z = y1 dot-frame-2, W = y2 dot-frame-1 exhibits the failure
        pair = mismatched_pair
        E = pair.primal
        Z = vertical_lift(basis_section(E, 1)).scaled(var("y1"))
        W = vertical_lift(basis_section(E, 0)).scaled(var("y2"))
        lhs = tangent_legendre(pair, bracket_prolong(Z, W), "lagrangian")
        rhs = bracket_prolong(tangent_legendre(pair, Z, "lagrangian"), tangent_legendre(pair, W, "lagrangian"))
        gaps = [
            not equivalent(a, b, sampler)
            for a, b in zip(lhs.vertical, rhs.vertical)
        ]
        assert any(gaps)


class TestEquivalenceVerdict:
    def test_euclidean_classical(self, euclid_pair, sampler):
        verdict = legendre_equivalence(euclid_pair, sampler)
        assert verdict.equivalent
        for report in verdict.reports:
            assert report.worst_residual <= 1e-10

    def test_mismatched_rejected(self, mismatched_pair, sampler):
        assert not legendre_equivalence(mismatched_pair, sampler).equivalent

    def test_zero_anchor_pair_equivalent(self, sampler):
        assert legendre_equivalence(zero_anchor_pair(), sampler).equivalent

    def test_shifted_base_pair_equivalent(self, generalized, sampler):
        # non-identity base isomorphism with a base-dependent fiber metric
        pair = LegendrePair(generalized.lagrangian, generalized.hamiltonian)
        verdict = legendre_equivalence(pair, sampler)
        assert verdict.equivalent
        for report in verdict.reports:
            assert report.worst_residual <= 1e-10


class TestLiftTransport:
    def test_vertical_constant_section(self, euclid_pair, sampler):
        u = euclid_pair.primal.section((add(0.7), add(-0.3)))
        report = check_lift_transport(euclid_pair, u, "vertical", "lagrangian", sampler)
        assert report.implication == "confirmed"
        assert report.premise.worst_residual == 0.0
        assert report.conclusions.worst_residual == 0.0

    def test_complete_constant_section(self, euclid_pair, sampler):
        u = euclid_pair.primal.section((add(1.0), add(2.0)))
        report = check_lift_transport(euclid_pair, u, "complete", "lagrangian", sampler)
        assert report.implication == "confirmed"

    def test_dual_side_constant_section(self, euclid_pair, sampler):
        u = euclid_pair.dual.section((add(0.4), add(1.1)))
        for which in ("vertical", "complete"):
            report = check_lift_transport(euclid_pair, u, which, "hamiltonian", sampler)
            assert report.implication == "confirmed"

    def test_premise_failure_reported_not_applicable(self, sampler):
        # non-quadratic fiber dependence: the transported Hessian along
        # the fiber map differs from the Hessian along the section
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        alg = GeneralizedLieAlgebroid(
            M, N, identity_map(M, N), identity_map(N, M), 1, ((add(1.0),),), {}
        )
        E = AnchoredBundle(alg, 1, "primal", ((add(1.0),),), ((add(1.0),),))
        Ed = AnchoredBundle(alg, 1, "dual", ((add(1.0),),), ((add(1.0),),))
        pair = LegendrePair(
            Lagrangian(E, parse("1/2*y1^2 + 1/6*y1^3")),
            Hamiltonian(Ed, parse("1/2*p1^2")),
        )
        u = E.section((var("x1"),))
        report = check_lift_transport(pair, u, "vertical", "lagrangian", sampler)
        assert report.implication == "not-applicable"
        assert not report.premise.passed

    @pytest.mark.parametrize("section, side", [("u", "lagrangian"), ("ustar", "hamiltonian")])
    def test_classical_model_sections(self, classical, section, side):
        # Each model section on its own bundle, at the model's own sampler.
        pair = LegendrePair(classical.lagrangian, classical.hamiltonian)
        for which in ("vertical", "complete"):
            report = check_lift_transport(pair, classical.sections[section], which, side, classical.sampler)
            assert report.implication == "confirmed"
            assert report.premise.worst_residual == report.conclusions.worst_residual == 0.0

    def test_generalized_model_section(self, generalized):
        pair = LegendrePair(generalized.lagrangian, generalized.hamiltonian)
        u, sampler = generalized.sections["u"], generalized.sampler
        assert check_lift_transport(pair, u, "vertical", "lagrangian", sampler).implication == "confirmed"
        # The two bundles' fiber morphisms differ, so the complete premise fails.
        complete = check_lift_transport(pair, u, "complete", "lagrangian", sampler)
        assert complete.implication == "not-applicable"
        assert complete.premise.worst_residual == pytest.approx(0.829, abs=1e-3)

    def test_transformed_section_values(self, euclid_pair):
        u = euclid_pair.primal.section((var("x1"), add(2.0)))
        w = transformed_section(euclid_pair, u, "lagrangian")
        assert [str(c) for c in w.coefficients] == ["x1", "2"]

    def test_mismatched_fiber_morphisms_block_complete_premise(self, generalized, sampler):
        # the two bundles carry different fiber morphisms, so the pushed
        # images disagree and the complete-lift premise cannot hold,
        # while the vertical premise is insensitive to them
        pair = LegendrePair(generalized.lagrangian, generalized.hamiltonian)
        u = pair.primal.section((add(0.8),))
        vertical = check_lift_transport(pair, u, "vertical", "lagrangian", sampler)
        assert vertical.implication == "confirmed"
        complete = check_lift_transport(pair, u, "complete", "lagrangian", sampler)
        assert complete.implication == "not-applicable"
        assert complete.premise.worst_residual > 0.1
