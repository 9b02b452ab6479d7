"""Tangent applications of the Legendre morphisms and the duality
checks between the generalized tangent bundles of a bundle and its
dual.

A pair couples a symbolic Lagrangian on the primal bundle with a
symbolic Hamiltonian on the dual bundle over the same algebroid.  Both
fiber maps are then explicit substitutions (fiber contracted with the
partner's fiber Hessian), so every composition below is exact and the
reported residuals are pure identity gaps.

Each formula is written once for both sides: its ``side`` argument,
``"lagrangian"`` or ``"hamiltonian"``, names the fundamental function
whose Legendre morphism applies (:func:`tangent_legendre` for the
tangent application), and the other side's fiber map transports
coefficients onto the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .expr import MINUS_ONE, ZERO, Expr, Sampler, add, contract, differentiate, substitute
from .legendre import FiberFunction, Hamiltonian, Lagrangian, legendre_fiber_exprs
from .prolong import (
    AnchoredBundle,
    ProlongSection,
    Section,
    basis_section,
    bracket_prolong,
    complete_lift,
    random_prolong_section,
    vertical_lift,
)
from .reporting import CheckReport, residual_row, residual_rows

Side = Literal["lagrangian", "hamiltonian"]
LIFT_TRANSPORT_TOL = 1e-8


def _compose(f: Expr, fn: FiberFunction, other: FiberFunction) -> Expr:
    """``f``, a function on ``fn``'s total space, composed with the fiber
    map of ``other``, which lands there."""
    return substitute(f, dict(zip(fn.fiber_vars, legendre_fiber_exprs(other))))


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

    def to_dual(self, f: Expr) -> Expr:
        """Compose a function on the primal total space with the fiber
        map out of the dual side."""
        return _compose(f, self.lagrangian, self.hamiltonian)

    def to_primal(self, f: Expr) -> Expr:
        return _compose(f, self.hamiltonian, self.lagrangian)


def _sides(pair: LegendrePair, side: Side):
    if side == "lagrangian":
        return pair.primal, pair.dual, pair.lagrangian, pair.to_dual
    return pair.dual, pair.primal, pair.hamiltonian, pair.to_primal


def tangent_legendre(pair: LegendrePair, Z: ProlongSection, side: Side) -> ProlongSection:
    """Tangent application of the Legendre morphism of ``side``'s
    fundamental function: horizontal coefficients transport through the
    fiber map, vertical output collects the mixed- and fiber-Hessian
    contractions."""
    source, target, fn, transport = _sides(pair, side)
    if Z.bundle != source:
        raise ValueError(f"section must live on the {source.variance} bundle")
    alg = source.algebroid
    r = source.rank
    horizontal = tuple(transport(Z.horizontal[alpha]) for alpha in range(alg.rank))
    # The sums run over the anchor's nonzero list and skip the ZERO entries
    # of Z and of the mixed and fiber Hessians.
    zh, zv, mixed, hessian = Z.horizontal, Z.vertical, fn.mixed, fn.hessian
    vertical = tuple(
        transport(
            contract(
                itertools.chain(
                    (
                        (e, zh[alpha], mixed[i][b])
                        for alpha, i, e in alg.rho_m_nonzero
                        if zh[alpha] is not ZERO and mixed[i][b] is not ZERO
                    ),
                    ((zv[a], hessian[a][b]) for a in range(r) if zv[a] is not ZERO and hessian[a][b] is not ZERO),
                )
            )
        )
        for b in range(r)
    )
    return ProlongSection(target, horizontal, vertical)


# ---------------------------------------------------------------------------
# Morphism conditions for the basis brackets


def _derivative_terms(triples, *lead: Expr):
    """The factors ``(*lead, c, differentiate(f, name))`` of each ``(c, f,
    name)`` in ``triples`` whose ``c`` and derivative are not ZERO; with
    ``lead = (MINUS_ONE,)``, :func:`contract` negates each term."""
    for c, f, name in triples:
        if c is not ZERO:
            d = differentiate(f, name)
            if d is not ZERO:
                yield (*lead, c, d)


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
    p, r = alg.rank, source.rank
    # The anchor's zero entries build no product and no derivative.
    nz = alg.rho_m_nonzero
    xs = alg.base_m.variables
    target_fiber = target.fiber_variables
    # P[alpha][b]: vertical image of the anchored frame; Q[a][b]: of the fiber frame.
    anchored = [ProlongSection(source, alg.basis_section(alpha).coefficients, (add(),) * r) for alpha in range(p)]
    P = [tangent_legendre(pair, Z, side).vertical for Z in anchored]
    Q = [tangent_legendre(pair, vertical_lift(basis_section(source, a)), side).vertical for a in range(r)]
    report = CheckReport(f"legendre-morphism-conditions-{side}")
    for alpha, beta in itertools.combinations(range(p), 2):
        for gamma in range(p):
            lhs = transport(alg.L_m(alpha, beta, gamma))
            rhs = alg.L_m(alpha, beta, gamma)
            residual_row(report, "structure-transport", (alpha + 1, beta + 1, gamma + 1), lhs, rhs, sampler, tol)
        for b in range(r):
            lhs = transport(
                contract(
                    (e, rk, fn.mixed[k][b])
                    for a2, b2, gamma, e in alg.L_m_nonzero
                    if (a2, b2) == (alpha, beta)
                    for g, k, rk in nz
                    if g == gamma and fn.mixed[k][b] is not ZERO
                )
            )
            rhs = contract(
                itertools.chain(
                    _derivative_terms((e, P[beta][b], xs[i]) for c, i, e in nz if c == alpha),
                    _derivative_terms(((e, P[alpha][b], xs[j]) for c, j, e in nz if c == beta), MINUS_ONE),
                    _derivative_terms((P[alpha][a], P[beta][b], target_fiber[a]) for a in range(r)),
                    _derivative_terms(((P[beta][a], P[alpha][b], target_fiber[a]) for a in range(r)), MINUS_ONE),
                )
            )
            residual_row(report, "anchored-anchored", (alpha + 1, beta + 1, b + 1), lhs, rhs, sampler, tol)
    for alpha in range(p):
        for b in range(r):
            for a in range(r):
                rhs = contract(
                    itertools.chain(
                        _derivative_terms((e, Q[b][a], xs[i]) for c, i, e in nz if c == alpha),
                        _derivative_terms((P[alpha][c], Q[b][a], target_fiber[c]) for c in range(r)),
                        _derivative_terms(((Q[b][c], P[alpha][a], target_fiber[c]) for c in range(r)), MINUS_ONE),
                    )
                )
                residual_row(report, "anchored-fiber", (alpha + 1, b + 1, a + 1), add(), rhs, sampler, tol)
    for a, b in itertools.combinations(range(r), 2):
        for c in range(r):
            rhs = contract(
                itertools.chain(
                    _derivative_terms((Q[a][d], Q[b][c], target_fiber[d]) for d in range(r)),
                    _derivative_terms(((Q[b][d], Q[a][c], target_fiber[d]) for d in range(r)), MINUS_ONE),
                )
            )
            residual_row(report, "fiber-fiber", (a + 1, b + 1, c + 1), add(), rhs, sampler, tol)
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
        Z = random_prolong_section(source, rng)
        W = random_prolong_section(source, rng)
        lhs = tangent_legendre(pair, bracket_prolong(Z, W), side)
        rhs = bracket_prolong(tangent_legendre(pair, Z, side), tangent_legendre(pair, W, side))
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
    coeffs = (
        contract(
            (u.coefficients[a], substitute(fn.hessian[a][b], along))
            for a in range(source.rank)
            if fn.hessian[a][b] is not ZERO
        )
        for b in range(source.rank)
    )
    return Section(target, tuple(coeffs))


def check_lift_transport(
    pair: LegendrePair,
    u: Section,
    which: Literal["vertical", "complete"],
    side: Side,
    sampler: Sampler,
) -> LiftCompatibilityReport:
    """Does the tangent application send a lifted section to the same
    lift of the transformed section, and do the displayed per-part
    equalities hold."""
    tol = LIFT_TRANSPORT_TOL
    source, target, fn, transport = _sides(pair, side)
    w = transformed_section(pair, u, side)
    premise = CheckReport(f"lift-transport-premise-{which}-{side}")
    conclusions = CheckReport(f"lift-transport-conclusions-{which}-{side}")
    if which == "vertical":
        got = tangent_legendre(pair, vertical_lift(u), side)
        want = vertical_lift(w)
        residual_rows(premise, "vertical-image", (), got.vertical, want.vertical, sampler, tol)
        along = dict(zip(fn.fiber_vars, u.coefficients))
        for a in range(source.rank):
            residual_row(conclusions, "section-transport", (a + 1,), transport(u.coefficients[a]), u.coefficients[a], sampler, tol)
            got_row = [transport(entry) for entry in fn.hessian[a]]
            want_row = [substitute(entry, along) for entry in fn.hessian[a]]
            residual_rows(conclusions, "hessian-transport", (a + 1,), got_row, want_row, sampler, tol)
    else:
        got = tangent_legendre(pair, complete_lift(u), side)
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
    """The frame conditions of both sides, then the bracket commutation
    of both sides."""

    reports: list[CheckReport]

    @property
    def equivalent(self) -> bool:
        return all(report.passed for report in self.reports)


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
    # The checks run in report order, so where several raise, the first
    # in that order is the error seen.
    sides = ("lagrangian", "hamiltonian")
    return EquivalenceReport(
        [morphism_conditions(pair, side, sampler, tol_conditions) for side in sides]
        + [bracket_commutation(pair, side, sampler, tol_brackets, trials) for side in sides]
    )
