"""The builders that contract with the anchor, the structure functions or
a fiber morphism sum over each table's nonzero list.  A skipped entry
only skips a product that folds to ZERO, and add drops ZERO terms, so
each builder must return the very node (``is``) of the dense sum over
every index.  The dense sums are written out here, over small random
algebroids and bundles whose tables carry random zero patterns."""

import itertools
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import expr as E
from algebroids import algebroid as A
from algebroids import duality as D
from algebroids import parse_model
from algebroids import prolong as P
from algebroids import reporting as R
from algebroids.algebroid import GeneralizedLieAlgebroid, SectionF, SmoothMap, coords, identity_map
from algebroids.algebroid import random_polynomial
from algebroids.exterior import pushforward_section
from algebroids.legendre import legendre_fiber_exprs

add, mul, neg, differentiate = E.add, E.mul, E.neg, E.differentiate
MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def sparse_entry(rng, variables):
    """ZERO, a constant (whose derivatives are ZERO) or a polynomial."""
    kind = int(rng.integers(3))
    if kind == 0:
        return E.ZERO
    if kind == 1:
        return add(round(float(rng.uniform(-2, 2)), 3))
    return random_polynomial(variables, rng, 1)


def sparse_table(rng, variables, rows, cols):
    return tuple(tuple(sparse_entry(rng, variables) for _ in range(cols)) for _ in range(rows))


def random_setup(seed, rank, dim, renaming):
    """An algebroid of ``rank`` over ``dim``-dimensional charts, its primal
    bundle with a sparse morphism, and the generator that built them.  A
    renaming h takes differentiation's short cut in the anchor action;
    a scaling h pulls and pushes."""
    rng = np.random.default_rng(seed)
    M, N = coords("M", "x", dim), coords("N", "k", dim)
    if renaming:
        h, eta = identity_map(M, N), identity_map(N, M)
    else:
        forward = tuple(mul(2.0, x) for x in M.vars())
        inverse = tuple(mul(0.5, k) for k in N.vars())
        h, eta = SmoothMap(M, N, forward, inverse), SmoothMap(N, M, inverse, forward)
    rho = sparse_table(rng, N.variables, rank, dim)
    structure = {
        (a, b, g): sparse_entry(rng, N.variables)
        for a in range(rank)
        for b in range(a + 1, rank)
        for g in range(rank)
    }
    alg = GeneralizedLieAlgebroid(M, N, h, eta, rank, rho, structure)
    g = sparse_table(rng, M.variables, rank, rank)
    g_inv = sparse_table(rng, M.variables, rank, rank)
    return alg, P.AnchoredBundle(alg, rank, "primal", g, g_inv), rng


SETUPS = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans())


def sparse_section(rng, variables, size):
    return tuple(sparse_entry(rng, variables) for _ in range(size))


def dense_anchor_action(alg, z, f):
    h = alg.h
    pushed = [h.push(differentiate(h.pull(f), x)) for x in alg.base_m.variables]
    return add(
        *[mul(z.coefficients[a], add(*[mul(alg.rho[a][i], d) for i, d in enumerate(pushed)])) for a in range(alg.rank)]
    )


def dense_gu(bundle, coefficients):
    ranks = range(bundle.rank)
    return tuple(add(*[mul(bundle.g[alpha][c], coefficients[c]) for c in ranks]) for alpha in ranks)


def dense_k(bundle, gu):
    alg, ranks = bundle.algebroid, range(bundle.rank)
    xs, dims = alg.base_m.variables, range(alg.base_m.dim)
    g, rho = bundle.g, alg.rho_m
    dg = [[[differentiate(e, x) for x in xs] for e in row] for row in g]
    dgu = [[differentiate(e, x) for x in xs] for e in gu]
    return tuple(
        tuple(
            add(
                *[mul(gu[beta], rho[beta][j], dg[gamma][a][j]) for beta in ranks for j in dims],
                *[neg(mul(g[alpha][a], rho[alpha][i], dgu[gamma][i])) for alpha in ranks for i in dims],
                *[mul(gu[alpha], g[beta][a], alg.L_m(alpha, beta, gamma)) for alpha in ranks for beta in ranks],
            )
            for a in ranks
        )
        for gamma in ranks
    )


def dense_rho_tilde(Z):
    alg = Z.bundle.algebroid
    return tuple(
        add(*[mul(Z.horizontal[alpha], alg.rho_m[alpha][i]) for alpha in range(alg.rank)])
        for i in range(alg.base_m.dim)
    )


def record_rows(module, build, rule="_residual_row"):
    """The (lhs, rhs) pair of every residual row ``build()`` decides
    through ``module``'s name ``rule`` for the row rule."""
    rows = []
    with mock.patch.object(module, rule, lambda report, name, idx, lhs, rhs, *rest: rows.append((lhs, rhs))):
        build()
    return rows


def assert_same_nodes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g is w


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for (lhs, rhs), (want_lhs, want_rhs) in zip(got, want):
        assert lhs is want_lhs and rhs is want_rhs


class TestAlgebroidContractions:
    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_anchor_action(self, setup):
        alg, _, rng = random_setup(*setup)
        z = SectionF(alg, sparse_section(rng, alg.base_n.variables, alg.rank))
        f = random_polynomial(alg.base_n.variables, rng)
        assert alg.anchor_action(z, f) is dense_anchor_action(alg, z, f)

    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_bracket(self, setup):
        alg, _, rng = random_setup(*setup)
        u, v = (SectionF(alg, sparse_section(rng, alg.base_n.variables, alg.rank)) for _ in range(2))
        ranks = range(alg.rank)
        want = [
            add(
                dense_anchor_action(alg, u, v.coefficients[g]),
                neg(dense_anchor_action(alg, v, u.coefficients[g])),
                *[mul(u.coefficients[a], v.coefficients[b], alg.L(a, b, g)) for a in ranks for b in ranks],
            )
            for g in ranks
        ]
        assert_same_nodes(alg.bracket(u, v).coefficients, want)

    @given(SETUPS)
    @settings(max_examples=30, deadline=None)
    def test_check_compatibility(self, setup):
        alg, _, _ = random_setup(*setup)
        p, m, rho = alg.rank, alg.base_m.dim, alg.rho_m
        xs = alg.base_m.variables
        want = [
            (
                add(*[mul(alg.L_m(a, b, g), rho[g][k]) for g in range(p)]),
                add(
                    *[mul(rho[a][i], differentiate(rho[b][k], xs[i])) for i in range(m)],
                    *[neg(mul(rho[b][j], differentiate(rho[a][k], xs[j]))) for j in range(m)],
                ),
            )
            for a in range(p)
            for b in range(a + 1, p)
            for k in range(m)
        ]
        assert_same_rows(record_rows(A, lambda: A.check_compatibility(alg, E.Sampler(points=2))), want)

    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_pushforward_section(self, setup):
        alg, bundle, rng = random_setup(*setup)
        for morphism in (bundle.morphism(), bundle.inverse_morphism()):
            coefficients = sparse_section(rng, morphism.source.base.variables, morphism.source.rank)
            want = tuple(
                morphism.base_map.push(
                    add(*[mul(row[a], coefficients[a]) for a in range(morphism.source.rank)])
                )
                for row in morphism.components
            )
            assert_same_nodes(pushforward_section(morphism, coefficients), want)


class TestProlongContractions:
    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_gu_and_k(self, setup):
        _, bundle, rng = random_setup(*setup)
        u = P.Section(bundle, sparse_section(rng, bundle.algebroid.base_m.variables, bundle.rank))
        gu = P._gu(u)
        assert_same_nodes(gu, dense_gu(bundle, u.coefficients))
        for row, want in zip(P._k_on_m(bundle, gu), dense_k(bundle, gu)):
            assert_same_nodes(row, want)

    @given(SETUPS)
    @settings(max_examples=30, deadline=None)
    def test_complete_lift(self, setup):
        _, bundle, rng = random_setup(*setup)
        u = P.Section(bundle, sparse_section(rng, bundle.algebroid.base_m.variables, bundle.rank))
        gu = dense_gu(bundle, u.coefficients)
        K, ranks = dense_k(bundle, gu), range(bundle.rank)
        vertical = [
            add(*[neg(mul(bundle.fiber_var(a), K[gamma][a], bundle.g_inv[b][gamma])) for a in ranks for gamma in ranks])
            for b in ranks
        ]
        lift = P.complete_lift(u)
        assert_same_nodes(lift.horizontal, gu)
        assert_same_nodes(lift.vertical, vertical)

    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_complete_lift_function(self, setup):
        alg, bundle, rng = random_setup(*setup)
        f = random_polynomial(alg.base_n.variables, rng)
        d = [differentiate(alg.h.pull(f), x) for x in alg.base_m.variables]
        want = add(
            *[
                mul(
                    bundle.fiber_var(a),
                    add(
                        *[
                            mul(bundle.g[alpha][a], alg.rho_m[alpha][i], d[i])
                            for alpha in range(alg.rank)
                            for i in range(alg.base_m.dim)
                        ]
                    ),
                )
                for a in range(bundle.rank)
            ]
        )
        assert P.complete_lift_function(bundle, f) is want

    @given(SETUPS)
    @settings(max_examples=30, deadline=None)
    def test_rho_tilde_apply_and_bracket(self, setup):
        alg, bundle, rng = random_setup(*setup)
        Z, W = (P.random_prolong_section(bundle, rng) for _ in range(2))
        rz, rw = P.rho_tilde(Z), P.rho_tilde(W)
        assert_same_nodes(rz.d_base, dense_rho_tilde(Z))
        assert rz.d_fiber is Z.vertical

        def dense_apply(field, f):
            coefficients = field.d_base + field.d_fiber
            return add(*[mul(c, differentiate(f, x)) for c, x in zip(coefficients, bundle.total_variables)])

        # A function that leaves out some fiber and base coordinates.
        f = random_polynomial(bundle.total_variables[::2], rng)
        assert rz.apply(f) is dense_apply(rz, f)
        ranks = range(alg.rank)
        want = [
            add(
                dense_apply(rz, W.horizontal[g]),
                neg(dense_apply(rw, Z.horizontal[g])),
                *[mul(Z.horizontal[a], W.horizontal[b], alg.L_m(a, b, g)) for a in ranks for b in ranks],
            )
            for g in ranks
        ]
        assert_same_nodes(P.bracket_prolong(Z, W).horizontal, want)

    @given(SETUPS)
    @settings(max_examples=40, deadline=None)
    def test_inverse_morphism_sites(self, setup):
        alg, bundle, rng = random_setup(*setup)
        ranks = range(bundle.rank)
        Z = P.random_prolong_section(bundle, rng)
        want = [add(*[mul(bundle.g_inv[b][alpha], Z.horizontal[alpha]) for alpha in ranks]) for b in ranks]
        assert_same_nodes(P.almost_tangent(Z).vertical, want)
        w = SectionF(alg, sparse_section(rng, alg.base_n.variables, alg.rank))
        pulled = [alg.h.pull(c) for c in w.coefficients]
        want = [add(*[mul(pulled[alpha], bundle.g_inv[b][alpha]) for alpha in ranks]) for b in ranks]
        assert_same_nodes(P.pull_from_algebroid(bundle, w).coefficients, want)

    @given(SETUPS)
    @settings(max_examples=30, deadline=None)
    def test_check_morphism_inverse(self, setup):
        _, bundle, _ = random_setup(*setup)
        g, g_inv, ranks = bundle.g, bundle.g_inv, range(bundle.rank)
        want = [add(*[mul(g_inv[b][alpha], g[alpha][a]) for alpha in ranks]) for b in ranks for a in ranks]
        want += [add(*[mul(g_inv[a][beta], g[alpha][a]) for a in ranks]) for alpha in ranks for beta in ranks]
        got = record_rows(P, lambda: bundle.check_morphism_inverse(E.Sampler(points=2)))
        assert_same_nodes([lhs for lhs, _ in got], want)


# lie_algebroid.model carries nonzero structure functions and a sparse
# anchor; these fundamental functions give it a nonzero mixed Hessian.
FUNDAMENTAL = """
[lagrangian]
L = 1/2*(1 + x1^2)*y1^2 + 1/2*y2^2

[hamiltonian]
H = 1/2*p1^2/(1 + x1^2) + 1/2*p2^2
"""


@pytest.mark.parametrize("name", ["classical", "mismatched", "lie_algebroid"])
@pytest.mark.parametrize("side", ["lagrangian", "hamiltonian"])
def test_duality_contractions(name, side):
    """The fiber map, the transformed section and the tangent
    application, each against its dense sum; the morphism conditions as
    the brackets of the frame sections, which match their dense sums up
    to summation order."""
    text = (MODELS / f"{name}.model").read_text()
    model = parse_model(text if "[lagrangian]" in text else text + FUNDAMENTAL)
    pair = D.LegendrePair(model.lagrangian, model.hamiltonian)
    source, target, fn, transport = D._sides(pair, side)
    alg = source.algebroid
    p, r, m = alg.rank, source.rank, alg.base_m.dim
    rho, xs, target_fiber = alg.rho_m, alg.base_m.variables, target.fiber_variables

    def dense_vertical(Z):
        return [
            transport(
                add(
                    *[mul(rho[alpha][i], Z.horizontal[alpha], fn.mixed[i][b]) for alpha in range(p) for i in range(m)],
                    *[mul(Z.vertical[a], fn.hessian[a][b]) for a in range(r)],
                )
            )
            for b in range(r)
        ]

    ranks = range(r)
    fiber = [E.var(y) for y in fn.fiber_vars]
    want = [add(*[mul(fiber[a], fn.hessian[a][b]) for a in ranks]) for b in ranks]
    assert_same_nodes(legendre_fiber_exprs(fn), want)
    rng = np.random.default_rng(3)
    u = P.Section(source, sparse_section(rng, xs, r))
    along = dict(zip(fn.fiber_vars, u.coefficients))
    want = [add(*[mul(u.coefficients[a], E.substitute(fn.hessian[a][b], along)) for a in ranks]) for b in ranks]
    assert_same_nodes(D.transformed_section(pair, u, side).coefficients, want)
    Z = P.random_prolong_section(source, rng)
    assert_same_nodes(D.tangent_legendre(pair, Z, side).vertical, dense_vertical(Z))
    anchored = [P.ProlongSection(source, alg.basis_section(a).coefficients, (add(),) * r) for a in range(p)]
    fibers = [P.vertical_lift(P.basis_section(source, a)) for a in ranks]
    # The frame sections, whose ZERO entries the sums skip.
    for Z in anchored + fibers:
        assert_same_nodes(D.tangent_legendre(pair, Z, side).vertical, dense_vertical(Z))
    # Each row is a component of T[X, Y] against [TX, TY] for a pair of
    # frame sections: horizontal rows for anchored pairs only.
    pairs = [(X, Y, True) for X, Y in itertools.combinations(anchored, 2)]
    pairs += [(X, Y, False) for X in anchored for Y in fibers]
    pairs += [(X, Y, False) for X, Y in itertools.combinations(fibers, 2)]
    want = []
    for X, Y, horizontal in pairs:
        lhs = D.tangent_legendre(pair, P.bracket_prolong(X, Y), side)
        rhs = P.bracket_prolong(D.tangent_legendre(pair, X, side), D.tangent_legendre(pair, Y, side))
        want += list(zip(lhs.horizontal, rhs.horizontal)) if horizontal else []
        want += list(zip(lhs.vertical, rhs.vertical))
    got = record_rows(R, lambda: D.morphism_conditions(pair, side, E.Sampler(points=2)), "residual_row")
    assert_same_rows(got, want)
    # The same rows as dense sums over the images V of the anchored frame
    # and U of the fiber frame agree up to summation order.
    V = [dense_vertical(Z) for Z in anchored]
    U = [dense_vertical(Z) for Z in fibers]
    dense = []
    for alpha, beta in itertools.combinations(range(p), 2):
        dense += [(transport(alg.L_m(alpha, beta, g)), alg.L_m(alpha, beta, g)) for g in range(p)]
        for b in range(r):
            lhs = transport(
                add(*[mul(alg.L_m(alpha, beta, g), rho[g][k], fn.mixed[k][b]) for g in range(p) for k in range(m)])
            )
            rhs = add(
                *[mul(rho[alpha][i], differentiate(V[beta][b], xs[i])) for i in range(m)],
                *[neg(mul(rho[beta][j], differentiate(V[alpha][b], xs[j]))) for j in range(m)],
                *[mul(V[alpha][a], differentiate(V[beta][b], target_fiber[a])) for a in range(r)],
                *[neg(mul(V[beta][a], differentiate(V[alpha][b], target_fiber[a]))) for a in range(r)],
            )
            dense.append((lhs, rhs))
    for alpha in range(p):
        for b in range(r):
            for a in range(r):
                rhs = add(
                    *[mul(rho[alpha][i], differentiate(U[b][a], xs[i])) for i in range(m)],
                    *[mul(V[alpha][c], differentiate(U[b][a], target_fiber[c])) for c in range(r)],
                    *[neg(mul(U[b][c], differentiate(V[alpha][a], target_fiber[c]))) for c in range(r)],
                )
                dense.append((add(), rhs))
    for a, b in itertools.combinations(range(r), 2):
        for c in range(r):
            rhs = add(
                *[mul(U[a][d], differentiate(U[b][c], target_fiber[d])) for d in range(r)],
                *[neg(mul(U[b][d], differentiate(U[a][c], target_fiber[d]))) for d in range(r)],
            )
            dense.append((add(), rhs))
    assert len(got) == len(dense)
    for row, dense_row in zip(got, dense):
        for got_side, dense_side in zip(row, dense_row):
            assert E.max_residual(got_side, dense_side, model.sampler)[0] <= 1e-12
