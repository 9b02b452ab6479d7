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
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .expr import ZERO, Expr, Sampler, add, contract, substitute
from .legendre import Hamiltonian, Lagrangian, legendre_fiber_exprs
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


@dataclass(frozen=True)
class LegendrePair:
    """A Lagrangian and a Hamiltonian over the same base and algebroid,
    with the induced fiber substitutions in both directions, built when
    the pair is made: :meth:`to_dual` puts the Hamiltonian's fiber map in for
    the primal fiber coordinates, :meth:`to_primal` the Lagrangian's in
    for the dual ones."""

    lagrangian: Lagrangian
    hamiltonian: Hamiltonian
    dual_substitution: dict = field(init=False, repr=False, compare=False)
    primal_substitution: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        E, Ed = self.lagrangian.bundle, self.hamiltonian.bundle
        if E.algebroid != Ed.algebroid:
            raise ValueError("the two bundles must share one algebroid")
        if E.rank != Ed.rank:
            raise ValueError("the two bundles must have equal rank")
        L, H = self.lagrangian, self.hamiltonian
        object.__setattr__(self, "dual_substitution", dict(zip(L.fiber_vars, legendre_fiber_exprs(H))))
        object.__setattr__(self, "primal_substitution", dict(zip(H.fiber_vars, legendre_fiber_exprs(L))))

    @property
    def primal(self) -> AnchoredBundle:
        return self.lagrangian.bundle

    @property
    def dual(self) -> AnchoredBundle:
        return self.hamiltonian.bundle

    def to_dual(self, f: Expr) -> Expr:
        """Compose a function on the primal total space with the fiber
        map out of the dual side."""
        return substitute(f, self.dual_substitution)

    def to_primal(self, f: Expr) -> Expr:
        return substitute(f, self.primal_substitution)


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
# Morphism conditions for the frame brackets


def morphism_conditions(
    pair: LegendrePair, side: Side, sampler: Sampler, tol: float = 1e-10
) -> CheckReport:
    """The tangent application preserving the brackets of the frame
    sections: for each pair X, Y of them, ``T[X, Y]`` against
    ``[TX, TY]``.

    The horizontal rows of anchored pairs transport the structure
    functions; the vertical rows of anchored-anchored, anchored-fiber and
    fiber-fiber pairs are the other three families.  Where one section
    is a fiber frame section, both horizontal sides are ZERO, so those
    rows are left out.
    """
    source = _sides(pair, side)[0]
    alg, r = source.algebroid, source.rank
    anchored = [ProlongSection(source, alg.basis_section(alpha).coefficients, (add(),) * r) for alpha in range(alg.rank)]
    fibers = [vertical_lift(basis_section(source, a)) for a in range(r)]
    # Each frame section with its tangent image, built once.
    anchored, fibers = ([(Z, tangent_legendre(pair, Z, side)) for Z in frame] for frame in (anchored, fibers))
    report = CheckReport(f"legendre-morphism-conditions-{side}")

    def compare(index, first, second, horizontal, vertical):
        (X, TX), (Y, TY) = first, second
        lhs = tangent_legendre(pair, bracket_prolong(X, Y), side)
        rhs = bracket_prolong(TX, TY)
        if horizontal is not None:
            residual_rows(report, horizontal, index, lhs.horizontal, rhs.horizontal, sampler, tol)
        residual_rows(report, vertical, index, lhs.vertical, rhs.vertical, sampler, tol)

    for (alpha, A), (beta, B) in itertools.combinations(enumerate(anchored, 1), 2):
        compare((alpha, beta), A, B, "structure-transport", "anchored-anchored")
    for alpha, A in enumerate(anchored, 1):
        for b, B in enumerate(fibers, 1):
            compare((alpha, b), A, B, None, "anchored-fiber")
    for (a, A), (b, B) in itertools.combinations(enumerate(fibers, 1), 2):
        compare((a, b), A, B, None, "fiber-fiber")
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
    """Image of a section under the Legendre morphism: the fiber map
    substituted along the section."""
    source, target, fn, _ = _sides(pair, side)
    if u.bundle != source:
        raise ValueError("section must live on the source bundle")
    along = dict(zip(fn.fiber_vars, u.coefficients))
    return Section(target, tuple(substitute(e, along) for e in legendre_fiber_exprs(fn)))


def check_lift_transport(
    pair: LegendrePair,
    u: Section,
    which: Literal["vertical", "complete"],
    side: Side,
    sampler: Sampler,
) -> LiftCompatibilityReport:
    """Does the tangent application send a lifted section to the same
    lift of the transformed section, and, for the vertical lift, do the
    displayed per-part equalities hold.  Those of the complete lift are
    its premise rows, so its conclusions hold no row."""
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
