"""Tangent applications of the Legendre morphisms and the duality
checks between the generalized tangent bundles of a bundle and its
dual.

A pair couples a symbolic Lagrangian on the primal bundle with a
symbolic Hamiltonian on the dual bundle over the same algebroid.  Both
fiber maps are then explicit substitutions (fiber contracted with the
partner's fiber Hessian), so every composition below is exact and the
reported residuals are pure identity gaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .expr import Expr, Sampler, add, differentiate, is_zero, mul, neg, substitute
from .legendre import Hamiltonian, Lagrangian, legendre_fiber_exprs
from .prolong import (
    AnchoredBundle,
    ProlongSection,
    Section,
    bracket_prolong,
    complete_lift,
    random_prolong_section,
    vertical_lift,
)
from .reporting import CheckReport, residual_row, residual_rows

Side = Literal["lagrangian", "hamiltonian"]


@dataclass(frozen=True)
class LegendrePair:
    """A Lagrangian and a Hamiltonian over the same base and algebroid,
    with the induced fiber substitutions in both directions."""

    lagrangian: Lagrangian
    hamiltonian: Hamiltonian

    def __post_init__(self):
        E, Ed = self.lagrangian.bundle, self.hamiltonian.bundle
        if E.algebroid != Ed.algebroid:
            raise ValueError("the two bundles must share one algebroid")
        if E.rank != Ed.rank:
            raise ValueError("the two bundles must have equal rank")

    @property
    def primal(self) -> AnchoredBundle:
        return self.lagrangian.bundle

    @property
    def dual(self) -> AnchoredBundle:
        return self.hamiltonian.bundle

    def phi_h_substitution(self) -> dict[str, Expr]:
        """y^b as a function on the dual total space."""
        fiber = legendre_fiber_exprs(self.hamiltonian)
        return dict(zip(self.lagrangian.fiber_vars, fiber))

    def phi_l_substitution(self) -> dict[str, Expr]:
        """p_b as a function on the primal total space."""
        fiber = legendre_fiber_exprs(self.lagrangian)
        return dict(zip(self.hamiltonian.fiber_vars, fiber))

    def to_dual(self, f: Expr) -> Expr:
        """Compose a function on the primal total space with the fiber
        map out of the dual side."""
        return substitute(f, self.phi_h_substitution())

    def to_primal(self, f: Expr) -> Expr:
        return substitute(f, self.phi_l_substitution())


def _anchored_rho(bundle: AnchoredBundle) -> list[list[Expr]]:
    """(anchor o h o projection), on the total space; x-only."""
    alg = bundle.algebroid
    return [
        [bundle.lift_from_n(alg.rho[alpha][i]) for i in range(alg.base_m.dim)]
        for alpha in range(alg.rank)
    ]


def _sides(pair: LegendrePair, side: Side):
    if side == "lagrangian":
        return pair.primal, pair.dual, pair.lagrangian, pair.to_dual
    return pair.dual, pair.primal, pair.hamiltonian, pair.to_primal


def _tangent_legendre(pair: LegendrePair, Z: ProlongSection, side: Side) -> ProlongSection:
    source, target, fn, transport = _sides(pair, side)
    if Z.bundle != source:
        raise ValueError(f"section must live on the {source.variance} bundle")
    rho = _anchored_rho(source)
    m = source.algebroid.base_m.dim
    p = source.algebroid.rank
    r = source.rank
    horizontal = tuple(transport(Z.horizontal[alpha]) for alpha in range(p))
    vertical = []
    for b in range(r):
        pieces = []
        for alpha in range(p):
            for i in range(m):
                if is_zero(rho[alpha][i]) or is_zero(fn.mixed[i][b]):
                    continue
                pieces.append(mul(rho[alpha][i], Z.horizontal[alpha], fn.mixed[i][b]))
        for a in range(r):
            if is_zero(Z.vertical[a]) or is_zero(fn.hessian[a][b]):
                continue
            pieces.append(mul(Z.vertical[a], fn.hessian[a][b]))
        vertical.append(transport(add(*pieces)))
    return ProlongSection(target, horizontal, tuple(vertical))


def tangent_legendre_l(pair: LegendrePair, Z: ProlongSection) -> ProlongSection:
    """Tangent application of the Lagrangian's Legendre morphism:
    horizontal coefficients transport through the fiber map, vertical
    output collects the mixed- and fiber-Hessian contractions."""
    return _tangent_legendre(pair, Z, "lagrangian")


def tangent_legendre_h(pair: LegendrePair, Z: ProlongSection) -> ProlongSection:
    """Mirror of :func:`tangent_legendre_l` for the Hamiltonian side."""
    return _tangent_legendre(pair, Z, "hamiltonian")


# ---------------------------------------------------------------------------
# Morphism conditions for the basis brackets


def morphism_conditions(
    pair: LegendrePair, side: Side, sampler: Sampler, tol: float = 1e-10
) -> CheckReport:
    """The four equation families equivalent to the tangent application
    preserving the brackets of the frame sections.

    Family 1 transports the structure functions; family 2 comes from the
    anchored-anchored bracket, family 3 from anchored-fiber, family 4
    from fiber-fiber.
    """
    source, target, fn, transport = _sides(pair, side)
    alg = source.algebroid
    p, r, m = alg.rank, source.rank, alg.base_m.dim
    rho = _anchored_rho(source)
    xs = alg.base_m.variables
    target_fiber = target.fiber_variables
    # P[alpha][b]: vertical image of the anchored frame; Q[a][b]: of the fiber frame.
    P = [
        [
            transport(add(*[mul(rho[alpha][i], fn.mixed[i][b]) for i in range(m)]))
            for b in range(r)
        ]
        for alpha in range(p)
    ]
    Q = [[transport(fn.hessian[a][b]) for b in range(r)] for a in range(r)]
    report = CheckReport(f"legendre-morphism-conditions-{side}")
    struct_lift = {
        (a, b, g): source.lift_from_n(alg.L(a, b, g))
        for a in range(p)
        for b in range(p)
        for g in range(p)
    }
    for alpha, beta in itertools.combinations(range(p), 2):
        for gamma in range(p):
            lhs = transport(struct_lift[(alpha, beta, gamma)])
            rhs = target.lift_from_n(alg.L(alpha, beta, gamma))
            residual_row(report, "structure-transport", (alpha + 1, beta + 1, gamma + 1), lhs, rhs, sampler, tol)
        for b in range(r):
            lhs = transport(
                add(
                    *[
                        mul(
                            struct_lift[(alpha, beta, gamma)],
                            rho[gamma][k],
                            fn.mixed[k][b],
                        )
                        for gamma in range(p)
                        for k in range(m)
                    ]
                )
            )
            rhs = add(
                *[mul(rho[alpha][i], differentiate(P[beta][b], xs[i])) for i in range(m)],
                *[neg(mul(rho[beta][j], differentiate(P[alpha][b], xs[j]))) for j in range(m)],
                *[mul(P[alpha][a], differentiate(P[beta][b], target_fiber[a])) for a in range(r)],
                *[neg(mul(P[beta][a], differentiate(P[alpha][b], target_fiber[a]))) for a in range(r)],
            )
            residual_row(report, "anchored-anchored", (alpha + 1, beta + 1, b + 1), lhs, rhs, sampler, tol)
    for alpha in range(p):
        for b in range(r):
            for a in range(r):
                rhs = add(
                    *[mul(rho[alpha][i], differentiate(Q[b][a], xs[i])) for i in range(m)],
                    *[mul(P[alpha][c], differentiate(Q[b][a], target_fiber[c])) for c in range(r)],
                    *[neg(mul(Q[b][c], differentiate(P[alpha][a], target_fiber[c]))) for c in range(r)],
                )
                residual_row(report, "anchored-fiber", (alpha + 1, b + 1, a + 1), add(), rhs, sampler, tol)
    for a, b in itertools.combinations(range(r), 2):
        for c in range(r):
            rhs = add(
                *[mul(Q[a][d], differentiate(Q[b][c], target_fiber[d])) for d in range(r)],
                *[neg(mul(Q[b][d], differentiate(Q[a][c], target_fiber[d]))) for d in range(r)],
            )
            residual_row(report, "fiber-fiber", (a + 1, b + 1, c + 1), add(), rhs, sampler, tol)
    return report


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


# ---------------------------------------------------------------------------
# Bracket commutation on random sections


def bracket_commutation(
    pair: LegendrePair,
    side: Side,
    sampler: Sampler,
    tol: float = 1e-8,
    trials: int = 3,
) -> CheckReport:
    """Tangent application of a bracket against the bracket of the
    tangent applications, on random polynomial sections."""
    source = _sides(pair, side)[0]
    report = CheckReport(f"bracket-commutation-{side}")
    rng = np.random.default_rng(sampler.seed + 404)
    for trial in range(trials):
        Z = random_prolong_section(source, rng, degree=1)
        W = random_prolong_section(source, rng, degree=1)
        lhs = _tangent_legendre(pair, bracket_prolong(Z, W), side)
        rhs = bracket_prolong(_tangent_legendre(pair, Z, side), _tangent_legendre(pair, W, side))
        residual_rows(report, "horizontal", (trial,), lhs.horizontal, rhs.horizontal, sampler, tol)
        residual_rows(report, "vertical", (trial,), lhs.vertical, rhs.vertical, sampler, tol)
    return report


# ---------------------------------------------------------------------------
# Lift transport (conditional statements)


@dataclass(frozen=True)
class LiftCompatibilityReport:
    """Premise and conclusions of a lift-transport statement, with the
    implication status: 'confirmed', 'violated', or 'not-applicable'
    when the premise fails."""

    premise: CheckReport
    conclusions: CheckReport

    @property
    def implication(self) -> str:
        if not self.premise.passed:
            return "not-applicable"
        return "confirmed" if self.conclusions.passed else "violated"

    def to_jsonable(self) -> dict:
        return {
            "premise": self.premise.to_jsonable(),
            "conclusions": self.conclusions.to_jsonable(),
            "implication": self.implication,
        }


def transformed_section(pair: LegendrePair, u: Section, side: Side) -> Section:
    """Image of a section under the Legendre morphism: contraction with
    the fiber Hessian evaluated along the section."""
    source, target, fn, _ = _sides(pair, side)
    if u.bundle != source:
        raise ValueError("section must live on the source bundle")
    along = dict(zip(fn.fiber_vars, u.coefficients))
    coeffs = []
    for b in range(source.rank):
        coeffs.append(
            add(
                *[
                    mul(u.coefficients[a], substitute(fn.hessian[a][b], along))
                    for a in range(source.rank)
                ]
            )
        )
    return Section(target, tuple(coeffs))


def check_lift_transport(
    pair: LegendrePair,
    u: Section,
    which: Literal["vertical", "complete"],
    side: Side,
    sampler: Sampler,
    tol: float = 1e-8,
) -> LiftCompatibilityReport:
    """Does the tangent application send a lifted section to the same
    lift of the transformed section, and do the displayed per-part
    equalities hold."""
    source, target, fn, transport = _sides(pair, side)
    w = transformed_section(pair, u, side)
    premise = CheckReport(f"lift-transport-premise-{which}-{side}")
    conclusions = CheckReport(f"lift-transport-conclusions-{which}-{side}")
    if which == "vertical":
        got = _tangent_legendre(pair, vertical_lift(u), side)
        want = vertical_lift(w)
        residual_rows(premise, "vertical-image", (), got.vertical, want.vertical, sampler, tol)
        along = dict(zip(fn.fiber_vars, u.coefficients))
        for a in range(source.rank):
            residual_row(conclusions, "section-transport", (a + 1,), transport(u.coefficients[a]), u.coefficients[a], sampler, tol)
            got_row = [transport(entry) for entry in fn.hessian[a]]
            want_row = [substitute(entry, along) for entry in fn.hessian[a]]
            residual_rows(conclusions, "hessian-transport", (a + 1,), got_row, want_row, sampler, tol)
    else:
        got = _tangent_legendre(pair, complete_lift(u), side)
        want = complete_lift(w)
        residual_rows(premise, "horizontal-image", (), got.horizontal, want.horizontal, sampler, tol)
        residual_rows(premise, "vertical-image", (), got.vertical, want.vertical, sampler, tol)
        # displayed equalities: anchored-image transport and the
        # fiber-contracted bracket-coefficient transport
        residual_rows(conclusions, "pushed-section-transport", (), want.horizontal, got.horizontal, sampler, tol)
        residual_rows(conclusions, "bracket-coefficient-transport", (), want.vertical, got.vertical, sampler, tol)
    return LiftCompatibilityReport(premise, conclusions)


# ---------------------------------------------------------------------------
# Equivalence verdict


@dataclass(frozen=True)
class EquivalenceReport:
    conditions_l: CheckReport
    conditions_h: CheckReport
    commutation_l: CheckReport
    commutation_h: CheckReport

    @property
    def equivalent(self) -> bool:
        return (
            self.conditions_l.passed
            and self.conditions_h.passed
            and self.commutation_l.passed
            and self.commutation_h.passed
        )

    def reports(self) -> list[CheckReport]:
        return [self.conditions_l, self.conditions_h, self.commutation_l, self.commutation_h]

    def to_jsonable(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "reports": [r.to_jsonable() for r in self.reports()],
        }


def legendre_equivalence(
    pair: LegendrePair,
    sampler: Sampler,
    tol_conditions: float = 1e-10,
    tol_brackets: float = 1e-8,
    trials: int = 3,
) -> EquivalenceReport:
    """Equivalent when both tangent applications satisfy the frame
    conditions and commute with brackets on random sections.  The frame
    conditions alone are necessary, not sufficient, hence the extra
    bracket requirement."""
    return EquivalenceReport(
        morphism_conditions(pair, "lagrangian", sampler, tol_conditions),
        morphism_conditions(pair, "hamiltonian", sampler, tol_conditions),
        bracket_commutation(pair, "lagrangian", sampler, tol_brackets, trials),
        bracket_commutation(pair, "hamiltonian", sampler, tol_brackets, trials),
    )
