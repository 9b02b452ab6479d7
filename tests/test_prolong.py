import numpy as np
import pytest

from algebroids import (
    GeneralizedLieAlgebroid,
    AnchoredBundle,
    ProlongSection,
    Sampler,
    add,
    basis_section,
    bracket_prolong,
    almost_tangent,
    complete_lift_function,
    complete_lift_vf,
    coords,
    differentiate,
    equivalent,
    hat_form,
    identity_map,
    k_coefficients,
    k_coefficients_via_bracket,
    max_residual,
    mul,
    neg,
    one_form,
    parse,
    pull_from_algebroid,
    push_to_algebroid,
    rho_tilde,
    var,
    vertical_lift,
    vertical_lift_function,
    vertical_lift_vf,
)
from algebroids.algebroid import random_polynomial
from algebroids.prolong import MissingMorphismError, VectorFieldOnE, random_bundle_section, random_prolong_section
from algebroids.verify import (
    complete_lift_conditions_report,
    function_lift_rules_report,
    lift_bracket_report,
    prolong_bracket_axioms_report,
    tangent_structure_report,
)


def horizontal_basis(bundle, alpha):
    """The anchored frame section ``td_alpha``."""
    unit = tuple(add(1.0) if i == alpha else add() for i in range(bundle.algebroid.rank))
    return ProlongSection(bundle, unit, (add(),) * bundle.rank)


def line_bundle(rho, g_expr=None, h_fwd=None, h_inv=None, variance="primal"):
    M, N = coords("M", "x", 1), coords("N", "k", 1)
    if h_fwd is None:
        h = identity_map(M, N)
        eta = identity_map(N, M)
    else:
        from algebroids import SmoothMap

        h = SmoothMap(M, N, (h_fwd,), (h_inv,))
        eta = SmoothMap(N, M, (h_inv,), (h_fwd,))
    alg = GeneralizedLieAlgebroid(M, N, h, eta, 1, ((rho,),), {})
    if g_expr is None:
        g = ((add(1.0),),)
        ginv = ((add(1.0),),)
    else:
        g = ((g_expr[0],),)
        ginv = ((g_expr[1],),)
    return AnchoredBundle(alg, 1, variance, g, ginv)


@pytest.fixture(scope="module")
def bundles():
    import pathlib

    from algebroids import load_model

    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    out = {}
    for name in ("classical", "lie_algebroid", "generalized"):
        model = load_model(models / f"{name}.model")
        out[name] = tuple(model.bundles[k] for k in ("E", "Edual") if k in model.bundles)
    return out


class TestAnchorOfProlongation:
    def test_vertical_frame_passes_through(self, bundles):
        E = bundles["classical"][0]
        vf = rho_tilde(vertical_lift(basis_section(E, 0)))
        assert str(vf) == "dot_y1"

    def test_classical_horizontal_frame(self, bundles):
        E = bundles["classical"][0]
        vf = rho_tilde(horizontal_basis(E, 0))
        assert str(vf) == "d_x1"
        # Both printers skip zero terms, print a unit coefficient as the
        # bare basis name and bracket a sum, a negation or a negative
        # constant, but not a product.
        for coefficients, vf_text, section_text in (
            (
                ("1", "-2", "x1 + y1", "-x2"),
                "d_x1 + (-2)*d_x2 + (x1 + y1)*dot_y1 + (-x2)*dot_y2",
                "td_1 + (-2)*td_2 + (x1 + y1)*dot_td_y1 + (-x2)*dot_td_y2",
            ),
            (("x1*y2", "0", "0", "1"), "x1*y2*d_x1 + dot_y2", "x1*y2*td_1 + dot_td_y2"),
            (("0", "0", "0", "0"), "0", "0"),
        ):
            base, fiber = [parse(c) for c in coefficients[:2]], [parse(c) for c in coefficients[2:]]
            assert str(VectorFieldOnE(E, tuple(base), tuple(fiber))) == vf_text
            assert str(ProlongSection(E, tuple(base), tuple(fiber))) == section_text

    def test_multiplicative_anchor_pulls_through_base(self):
        E = line_bundle(var("k1"))
        vf = rho_tilde(horizontal_basis(E, 0))
        assert str(vf) == "x1*d_x1"


class TestProlongationBracket:
    def test_horizontal_frame_hits_structure(self, bundles, sampler):
        E = bundles["lie_algebroid"][0]
        got = bracket_prolong(horizontal_basis(E, 0), horizontal_basis(E, 1))
        want = vertical_lift_function(E, parse("1 - k1"))
        assert equivalent(got.horizontal[0], want, sampler)
        assert equivalent(got.horizontal[1], add(), sampler)
        for v in got.vertical:
            assert equivalent(v, add(), sampler)

    def test_mixed_frame_vanishes(self, bundles, sampler):
        E = bundles["lie_algebroid"][0]
        got = bracket_prolong(horizontal_basis(E, 0), vertical_lift(basis_section(E, 1)))
        for c in got.horizontal + got.vertical:
            assert equivalent(c, add(), sampler)

    def test_classical_case_matches_vector_field_bracket(self, bundles, sampler):
        # identity anchor: the prolonged bracket must agree with the
        # coordinate bracket of the projected vector fields
        E = bundles["classical"][0]
        rng = np.random.default_rng(2)
        Z = random_prolong_section(E, rng)
        W = random_prolong_section(E, rng)
        got = rho_tilde(bracket_prolong(Z, W))
        a, b = rho_tilde(Z), rho_tilde(W)
        names = E.total_variables
        coeffs_a = a.d_base + a.d_fiber
        coeffs_b = b.d_base + b.d_fiber
        want = []
        for j in range(len(names)):
            terms = []
            for i, v in enumerate(names):
                terms.append(mul(coeffs_a[i], differentiate(coeffs_b[j], v)))
                terms.append(mul(-1.0, coeffs_b[i], differentiate(coeffs_a[j], v)))
            want.append(add(*terms))
        for got_c, want_c in zip(got.d_base + got.d_fiber, want):
            assert equivalent(got_c, want_c, sampler)

    def test_axioms_on_all_models(self, bundles, sampler):
        for name, (E, *_) in bundles.items():
            report = prolong_bracket_axioms_report(E, sampler, 1e-8, trials=1)
            assert report.passed, (name, report.worst_row())


class TestFunctionLifts:
    def test_vertical_composes_base_isomorphism(self, bundles):
        E = bundles["generalized"][0]
        assert vertical_lift_function(E, parse("k1^2")) == parse("(x1+1)^2")

    def test_vertical_constant(self, bundles):
        E = bundles["generalized"][0]
        assert vertical_lift_function(E, add(3.0)) == add(3.0)

    def test_complete_classical_coordinate(self, bundles, sampler):
        E = bundles["classical"][0]
        assert equivalent(complete_lift_function(E, var("k1")), var("y1"), sampler)

    def test_complete_classical_square(self, bundles, sampler):
        E = bundles["classical"][0]
        got = complete_lift_function(E, parse("k1^2"))
        assert equivalent(got, parse("2*x1*y1"), sampler)

    def test_complete_of_constant_vanishes(self, bundles):
        E = bundles["lie_algebroid"][0]
        assert complete_lift_function(E, add(5.0)) == add()


class TestSectionLifts:
    def test_vertical_frame_section(self, bundles):
        E = bundles["classical"][0]
        assert str(vertical_lift_vf(basis_section(E, 0))) == "dot_y1"
        assert str(vertical_lift(basis_section(E, 0))) == "dot_td_y1"

    def test_vertical_scaled_section(self, bundles):
        E = bundles["classical"][0]
        u = E.section((var("x1"), add()))
        assert str(vertical_lift_vf(u)) == "x1*dot_y1"

    def test_dual_vertical_frame(self, bundles):
        Ed = bundles["classical"][1]
        assert str(vertical_lift_vf(basis_section(Ed, 0))) == "dot_p1"

    def test_classical_complete_lift_formula(self, sampler):
        # one-dimensional classical case: the complete lift of x d/dx
        E = line_bundle(add(1.0))
        u = E.section((var("x1"),))
        uc = complete_lift_vf(u)
        assert equivalent(uc.d_base[0], var("x1"), sampler)
        assert equivalent(uc.d_fiber[0], var("y1"), sampler)

    def test_zero_section_lifts_to_zero(self, bundles):
        E = bundles["lie_algebroid"][0]
        uc = complete_lift_vf(E.section((add(), add())))
        assert str(uc) == "0"

    def test_classical_display(self, bundles, sampler):
        # identity anchor and fiber morphism: base part carries the
        # coefficients, fiber part their derivatives
        E = bundles["classical"][0]
        rng = np.random.default_rng(3)
        u = random_bundle_section(E, rng)
        uc = complete_lift_vf(u)
        xs = E.algebroid.base_m.variables
        for i in range(2):
            assert equivalent(uc.d_base[i], u.coefficients[i], sampler, tol=1e-10)
        for a in range(2):
            want = add(*[mul(var(f"y{j + 1}"), differentiate(u.coefficients[a], xs[j])) for j in range(2)])
            assert equivalent(uc.d_fiber[a], want, sampler, tol=1e-10)

    def test_lie_algebroid_display(self, bundles, sampler):
        # identity fiber morphism with general anchor and structure
        E = bundles["lie_algebroid"][0]
        alg = E.algebroid
        rng = np.random.default_rng(4)
        u = random_bundle_section(E, rng)
        uc = complete_lift_vf(u)
        xs = alg.base_m.variables
        rho_m = [[alg.h.pull(alg.rho[a][i]) for i in range(2)] for a in range(2)]
        for i in range(2):
            want = add(*[mul(u.coefficients[a], rho_m[a][i]) for a in range(2)])
            assert equivalent(uc.d_base[i], want, sampler, tol=1e-10)
        for a in range(2):
            pieces = []
            for b in range(2):
                inner = add(
                    *[mul(rho_m[b][i], differentiate(u.coefficients[a], xs[i])) for i in range(2)],
                    *[mul(u.coefficients[d], alg.h.pull(alg.L(b, d, a))) for d in range(2)],
                )
                pieces.append(mul(var(f"y{b + 1}"), inner))
            assert equivalent(uc.d_fiber[a], add(*pieces), sampler, tol=1e-10)

    def test_missing_morphism_raises(self):
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        alg = GeneralizedLieAlgebroid(M, N, identity_map(M, N), identity_map(N, M), 1, ((add(1.0),),), {})
        bare = AnchoredBundle(alg, 1, "primal", None, None)
        with pytest.raises(MissingMorphismError):
            complete_lift_vf(bare.section((var("x1"),)))


class TestKCoefficients:
    def test_lie_algebroid_closed_form(self, bundles, sampler):
        # identity fiber morphism: anchored derivative plus structure term
        E = bundles["lie_algebroid"][0]
        alg = E.algebroid
        rng = np.random.default_rng(5)
        u = random_bundle_section(E, rng)
        K = k_coefficients(u)
        u_n = [alg.h.push(c) for c in u.coefficients]
        ks = alg.base_n.variables
        for gamma in range(2):
            for a in range(2):
                want = add(
                    *[mul(-1.0, alg.rho[a][i], differentiate(u_n[gamma], ks[i])) for i in range(2)],
                    *[mul(u_n[b], alg.L(b, a, gamma)) for b in range(2)],
                )
                assert equivalent(K[gamma][a], want, sampler, tol=1e-10)

    def test_constant_section_flat_structure(self):
        E = line_bundle(var("k1"))
        K = k_coefficients(E.section((add(2.0),)))
        assert str(K[0][0]) == "0"

    def test_dual_route_oracle(self, bundles):
        sampler = Sampler(points=20, seed=13)
        for name, bs in bundles.items():
            for bundle in bs:
                rng = np.random.default_rng(6)
                u = random_bundle_section(bundle, rng)
                closed = k_coefficients(u)
                direct = k_coefficients_via_bracket(u)
                for gamma in range(bundle.algebroid.rank):
                    for a in range(bundle.rank):
                        assert equivalent(closed[gamma][a], direct[gamma][a], sampler, tol=1e-10), name

    def test_nonconstant_morphism_example(self):
        sampler = Sampler(points=20, seed=14)
        E = line_bundle(add(1.0), g_expr=(parse("1 + x1^2"), parse("1/(1 + x1^2)")))
        u = E.section((var("x1"),))
        closed = k_coefficients(u)[0][0]
        direct = k_coefficients_via_bracket(u)[0][0]
        assert equivalent(closed, direct, sampler, tol=1e-10)


class TestHatAndTangentStructure:
    def test_hat_of_frame_form(self, bundles):
        E = bundles["classical"][0]
        assert hat_form(E, one_form(E.space, (add(1.0), add()))) == var("y1")

    def test_hat_scales(self, bundles):
        E = bundles["classical"][0]
        om = one_form(E.space, (var("x1"), add()))
        assert hat_form(E, om) == mul(var("y1"), var("x1"))

    def test_hat_of_zero(self, bundles):
        E = bundles["classical"][0]
        assert hat_form(E, one_form(E.space, (add(), add()))) == add()

    def test_vertical_input_killed(self, bundles, sampler):
        E = bundles["generalized"][0]
        J = almost_tangent(vertical_lift(basis_section(E, 0)))
        for c in J.horizontal + J.vertical:
            assert equivalent(c, add(), sampler)

    def test_identity_morphism_swaps_frames(self, bundles):
        E = bundles["classical"][0]
        J = almost_tangent(horizontal_basis(E, 0))
        assert str(J) == "dot_td_y1"

    def test_structure_reports(self, bundles, sampler):
        for name, bs in bundles.items():
            for bundle in bs:
                report = tangent_structure_report(bundle, sampler, 1e-10, trials=3)
                assert report.passed, (name, report.worst_row())


ROTATION_MODEL = """
[base M]
dim = 3
[base N]
dim = 3
[algebroid]
rank = 3
rho[1][2] = k3
rho[1][3] = -k2
rho[2][1] = -k3
rho[2][3] = k1
rho[3][1] = k2
rho[3][2] = -k1
L[1,2]^3 = 1
L[2,3]^1 = 1
L[1,3]^2 = -1
[bundle E]
rank = 3
g[1][1] = 1 + x1^2
g[2][2] = 2
g[3][3] = 1
g[1][2] = x2
ginv = auto
[bundle Edual]
rank = 3
g[1][1] = 1
g[2][2] = 1 + x2^2
g[3][3] = 2
ginv = auto
[sampler]
points = 60
seed = 0
"""


@pytest.fixture(scope="module")
def rotation_model():
    from algebroids import parse_model

    return parse_model(ROTATION_MODEL)


class TestRankThreeRotationModel:
    """Rotation-action structure at rank three with nonconstant,
    non-diagonal fiber morphisms inverted by adjugate: the only
    configuration combining nonzero structure functions with a
    non-identity fiber morphism."""

    def test_axioms(self, rotation_model):
        from algebroids.verify import axiom_reports

        model = rotation_model
        for report in axiom_reports(model, model.sampler, 1e-8):
            assert report.passed, report.worst_row()

    def test_lift_identities_both_variances(self, rotation_model):
        model = rotation_model
        for bundle in model.bundles.values():
            for report in (
                complete_lift_conditions_report(bundle, model.sampler, 1e-8, trials=2),
                lift_bracket_report(bundle, model.sampler, 1e-8, trials=2),
                tangent_structure_report(bundle, model.sampler, 1e-10, trials=2),
            ):
                assert report.passed, report.worst_row()

    def test_k_oracle(self, rotation_model):
        from algebroids.verify import k_oracle_report

        model = rotation_model
        for bundle in model.bundles.values():
            report = k_oracle_report(bundle, model.sampler, trials=2)
            assert report.passed, report.worst_row()


def swap_bundle():
    """A bundle over a chart map that swaps the two names: k1 = x2, k2 = x1."""
    from algebroids import SmoothMap

    M, N = coords("M", "x", 2), coords("N", "k", 2)
    x1, x2, k1, k2 = var("x1"), var("x2"), var("k1"), var("k2")
    h = SmoothMap(M, N, (x2, x1), (k2, k1))
    rho = ((parse("k1*k2"), parse("sin(k1)")), (parse("k2^2"), add(1.0)))
    alg = GeneralizedLieAlgebroid(M, N, h, h.inverted(), 2, rho, {(0, 1, 0): parse("k1 - k2"), (0, 1, 1): k1})
    g = ((parse("1 + x1^2"), x2), (add(), add(1.0)))
    ginv = ((parse("1/(1 + x1^2)"), parse("-x2/(1 + x1^2)")), (add(), add(1.0)))
    return AnchoredBundle(alg, 2, "primal", g, ginv)


def general_route(bundle):
    """The same bundle, with its chart map h not known as a renaming."""
    import dataclasses

    alg = bundle.algebroid
    h = dataclasses.replace(alg.h)
    object.__setattr__(h, "renaming", None)
    alg = dataclasses.replace(alg, h=h)
    return dataclasses.replace(bundle, algebroid=alg)


class TestRenamingCharts:
    """A chart map whose components are variables that undo each other
    is a renaming; the anchor action then differentiates on N, and
    builds the very nodes of the general route."""

    def test_detected(self, classical, generalized, rotation_model):
        from algebroids import SmoothMap

        assert classical.algebroid.h.renaming == ("k1", "k2")
        assert classical.algebroid.eta.renaming == ("x1", "x2")
        assert rotation_model.algebroid.h.renaming == ("k1", "k2", "k3")
        assert swap_bundle().algebroid.h.renaming == ("k2", "k1")
        assert generalized.algebroid.h.renaming is None
        assert generalized.algebroid.eta.renaming is None
        M, N = coords("M", "x", 2), coords("N", "k", 2)
        x1, x2, k1, k2 = var("x1"), var("x2"), var("k1"), var("k2")
        # Variables both ways, but not each other's inverse.
        for forward, inverse in (((x2, x1), (k1, k2)), ((x1, x1), (k1, k2)), ((x1, x2), (k1, x2)), ((k1, k2), (x1, x2))):
            assert SmoothMap(M, N, forward, inverse).renaming is None

    def test_same_nodes_as_the_general_route(self, classical, rotation_model):
        rng = np.random.default_rng(21)
        bundles = [*classical.bundles.values(), *rotation_model.bundles.values(), swap_bundle()]
        for bundle in bundles:
            general = general_route(bundle)
            alg, alg_general = bundle.algebroid, general.algebroid
            assert alg.h.renaming is not None and alg_general.h.renaming is None
            for _ in range(2):
                u = random_bundle_section(bundle, rng)
                z = push_to_algebroid(u)
                f = random_polynomial(alg.base_n.variables, rng)
                got = alg.anchor_action(z, f)
                assert got is alg_general.anchor_action(alg_general.section(z.coefficients), f)


def k_on_n_route(u):
    """K built on N: push gu and g to N and differentiate there, by the N
    coordinates on a renaming chart, else by the M coordinates before
    pushing."""
    bundle = u.bundle
    alg = bundle.algebroid
    h = alg.h
    p, m = alg.rank, alg.base_m.dim
    gu = [add(*[mul(bundle.g[alpha][c], u.coefficients[c]) for c in range(bundle.rank)]) for alpha in range(p)]
    gu_n = [h.push(e) for e in gu]
    g_n = [[h.push(bundle.g[alpha][a]) for a in range(bundle.rank)] for alpha in range(p)]
    xs = alg.base_m.variables
    if h.renaming is not None:
        dg_n = [[[differentiate(g, k) for k in h.renaming] for g in row] for row in g_n]
        dgu_n = [[differentiate(e, k) for k in h.renaming] for e in gu_n]
    else:
        dg_n = [[[h.push(differentiate(g, x)) for x in xs] for g in row] for row in bundle.g]
        dgu_n = [[h.push(differentiate(e, x)) for x in xs] for e in gu]
    return tuple(
        tuple(
            add(
                *[mul(gu_n[beta], alg.rho[beta][j], dg_n[gamma][a][j]) for beta in range(p) for j in range(m)],
                *[neg(mul(g_n[alpha][a], alg.rho[alpha][i], dgu_n[gamma][i])) for alpha in range(p) for i in range(m)],
                *[mul(gu_n[alpha], g_n[beta][a], alg.L(alpha, beta, gamma)) for alpha in range(p) for beta in range(p)],
            )
            for a in range(bundle.rank)
        )
        for gamma in range(p)
    )


def lifted_route_fiber(u):
    """Fiber components of the complete lift with each entry of
    :func:`k_on_n_route` pulled back to M."""
    bundle = u.bundle
    K_m = [[vertical_lift_function(bundle, k) for k in row] for row in k_on_n_route(u)]
    return tuple(
        add(
            *[
                neg(mul(bundle.fiber_var(a), K_m[gamma][a], bundle.g_inv[b][gamma]))
                for a in range(bundle.rank)
                for gamma in range(bundle.algebroid.rank)
            ]
        )
        for b in range(bundle.rank)
    )


def exp_chart_bundle():
    """A line bundle over the nonlinear chart map k1 = exp(x1)."""
    return line_bundle(parse("1 + k1"), g_expr=(parse("1 + x1^2"), parse("1/(1 + x1^2)")), h_fwd=parse("exp(x1)"), h_inv=parse("log(k1)"))


class TestKOnM:
    """K is built once on M; k_coefficients is its push to N."""

    def test_renaming_charts_build_the_nodes_of_the_n_route(self, classical, rotation_model):
        rng = np.random.default_rng(22)
        for bundle in (*classical.bundles.values(), *rotation_model.bundles.values(), swap_bundle()):
            assert bundle.algebroid.h.renaming is not None
            for _ in range(2):
                u = random_bundle_section(bundle, rng)
                got = complete_lift_vf(u).d_fiber
                assert all(a is b for a, b in zip(got, lifted_route_fiber(u), strict=True))
                K, K_n = k_coefficients(u), k_on_n_route(u)
                assert all(a is b for row, row_n in zip(K, K_n, strict=True) for a, b in zip(row, row_n, strict=True))

    def test_other_charts_agree_by_sampling(self, generalized):
        rng = np.random.default_rng(23)
        for bundle in (*generalized.bundles.values(), exp_chart_bundle()):
            alg = bundle.algebroid
            assert alg.h.renaming is None
            # log(k1) needs k1 > 0 on N.
            n_sampler = Sampler(points=40, seed=3, ranges={"k1": (0.2, 3.0)})
            m_sampler = Sampler(points=40, seed=3)
            for _ in range(2):
                u = random_bundle_section(bundle, rng)
                for got, want in zip(complete_lift_vf(u).d_fiber, lifted_route_fiber(u), strict=True):
                    assert max_residual(got, want, m_sampler, bundle.total_variables)[0] <= 1e-12
                for row, row_n in zip(k_coefficients(u), k_on_n_route(u), strict=True):
                    for got, want in zip(row, row_n, strict=True):
                        assert max_residual(got, want, n_sampler, alg.base_n.variables)[0] <= 1e-12

    def test_exp_chart_lift_has_no_round_trip_wrappers(self):
        bundle = exp_chart_bundle()
        u = bundle.section((var("x1"),))
        assert "log(exp(x1))" in str(lifted_route_fiber(u)[0])
        assert "log" not in str(complete_lift_vf(u).d_fiber[0])

    def test_missing_morphism_raises(self):
        M, N = coords("M", "x", 1), coords("N", "k", 1)
        alg = GeneralizedLieAlgebroid(M, N, identity_map(M, N), identity_map(N, M), 1, ((add(1.0),),), {})
        bare = AnchoredBundle(alg, 1, "primal", None, None)
        for build in (k_coefficients, complete_lift_vf):
            with pytest.raises(MissingMorphismError):
                build(bare.section((var("x1"),)))


class TestLiftIdentities:
    def test_complete_lift_conditions(self, bundles, sampler):
        for name, bs in bundles.items():
            for bundle in bs:
                report = complete_lift_conditions_report(bundle, sampler, 1e-8, trials=3)
                assert report.passed, (name, report.worst_row())

    def test_complete_lift_conditions_can_fail(self, bundles, sampler, monkeypatch):
        # A wrong base part of the lift breaks the projection rows, a
        # wrong fiber part the Lie derivative rows.
        from algebroids import verify

        def doubled_base(u):
            uc = complete_lift_vf(u)
            return VectorFieldOnE(uc.bundle, tuple(mul(2.0, c) for c in uc.d_base), uc.d_fiber)

        def shifted_fiber(u):
            uc = complete_lift_vf(u)
            return VectorFieldOnE(uc.bundle, uc.d_base, (add(uc.d_fiber[0], 1.0),) + uc.d_fiber[1:])

        for lift, failing in (
            (doubled_base, "projects-to-anchored-image"),
            (shifted_fiber, "acts-as-lie-derivative-on-hats"),
        ):
            monkeypatch.setattr(verify, "complete_lift_vf", lift)
            for name, bs in bundles.items():
                for bundle in bs:
                    report = complete_lift_conditions_report(bundle, sampler, 1e-8, trials=2)
                    passed = [row.passed for row in report.rows if row.name == failing]
                    assert passed and not any(passed), (name, lift.__name__)

    def test_lift_brackets(self, bundles, sampler):
        for name, bs in bundles.items():
            for bundle in bs:
                report = lift_bracket_report(bundle, sampler, 1e-8, trials=3)
                assert report.passed, (name, report.worst_row())

    def test_function_lift_rules(self, bundles, sampler):
        for name, bs in bundles.items():
            for bundle in bs:
                report = function_lift_rules_report(bundle, sampler, 1e-8, trials=2)
                assert report.passed, (name, report.worst_row())

    def test_pull_push_round_trip(self, bundles, sampler):
        for name, bs in bundles.items():
            for bundle in bs:
                rng = np.random.default_rng(7)
                u = random_bundle_section(bundle, rng)
                back = pull_from_algebroid(bundle, push_to_algebroid(u))
                for a, b in zip(back.coefficients, u.coefficients):
                    assert equivalent(a, b, sampler), name
