"""The generalized tangent bundle of an anchored (dual) vector bundle.

An anchored bundle couples a rank-r bundle over M to a generalized Lie
algebroid through an invertible fiber morphism with components on M.
Primal bundles carry fiber coordinates y1..yr, dual bundles p1..pr; the
two variances share every formula, differing only in fiber naming, so
one implementation covers both.

Functions on the total space reuse the base coordinate names plus the
fiber names, so composing with the projection is a no-op embedding and
composing with (h o projection) is substitution through h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .algebroid import GeneralizedLieAlgebroid, SectionF, random_polynomial
from .expr import (
    Const,
    Expr,
    Neg,
    Sampler,
    Sum,
    add,
    differentiate,
    free_variables,
    is_zero,
    mul,
    neg,
    var,
)
from .exterior import BundleMorphism, FormQ, VectorBundle
from .reporting import CheckReport, residual_row as _residual_row

Variance = Literal["primal", "dual"]


class MissingMorphismError(ValueError):
    pass


@dataclass(frozen=True)
class AnchoredBundle:
    """Vector bundle over M anchored into an algebroid by fiber
    components ``g[alpha][b]`` with declared inverse ``g_inv[b][alpha]``
    (both on M).  The declared inverse is verified by sampling, never
    computed symbolically here."""

    algebroid: GeneralizedLieAlgebroid
    rank: int
    variance: Variance = "primal"
    g: tuple[tuple[Expr, ...], ...] | None = None
    g_inv: tuple[tuple[Expr, ...], ...] | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("bundle rank must be positive")
        if self.variance not in ("primal", "dual"):
            raise ValueError(f"unknown variance {self.variance!r}")
        if (self.g is None) != (self.g_inv is None):
            raise ValueError("g and g_inv must be supplied together")
        if self.g is not None:
            p = self.algebroid.rank
            if self.rank != p:
                raise ValueError(
                    "an invertible fiber morphism needs bundle rank equal to the algebroid rank"
                )
            if len(self.g) != p or any(len(row) != self.rank for row in self.g):
                raise ValueError("g must be algebroid-rank x bundle-rank")
            if len(self.g_inv) != self.rank or any(len(row) != p for row in self.g_inv):
                raise ValueError("g_inv must be bundle-rank x algebroid-rank")
            mvars = set(self.algebroid.base_m.variables)
            for matrix in (self.g, self.g_inv):
                for row in matrix:
                    for entry in row:
                        bad = free_variables(entry) - mvars
                        if bad:
                            raise ValueError(
                                f"morphism components must use base coordinates, got {sorted(bad)}"
                            )

    # -- coordinates -------------------------------------------------------

    @property
    def fiber_prefix(self) -> str:
        return "y" if self.variance == "primal" else "p"

    @property
    def fiber_variables(self) -> tuple[str, ...]:
        return tuple(f"{self.fiber_prefix}{a + 1}" for a in range(self.rank))

    @property
    def total_variables(self) -> tuple[str, ...]:
        return self.algebroid.base_m.variables + self.fiber_variables

    @property
    def name(self) -> str:
        return "E" if self.variance == "primal" else "Edual"

    @property
    def space(self) -> VectorBundle:
        return VectorBundle(self.algebroid.base_m, self.rank, self.name)

    @property
    def algebroid_space(self) -> VectorBundle:
        return VectorBundle(self.algebroid.base_n, self.algebroid.rank, "F")

    def fiber_var(self, a: int) -> Expr:
        return var(self.fiber_variables[a])

    def lift_from_n(self, f: Expr) -> Expr:
        """f on N -> f composed with (h o projection), on the total space."""
        return self.algebroid.h.pull(f)

    # -- the fiber morphism --------------------------------------------------

    def _need_g(self):
        if self.g is None:
            raise MissingMorphismError("this operation needs the fiber morphism components")

    def morphism(self) -> BundleMorphism:
        self._need_g()
        return BundleMorphism(self.space, self.algebroid_space, self.algebroid.h, self.g)

    def inverse_morphism(self) -> BundleMorphism:
        self._need_g()
        h = self.algebroid.h
        comps = tuple(
            tuple(h.push(self.g_inv[b][alpha]) for alpha in range(self.algebroid.rank))
            for b in range(self.rank)
        )
        return BundleMorphism(self.algebroid_space, self.space, h.inverted(), comps)

    def section(self, coefficients: Sequence[Expr]) -> "Section":
        return Section(self, tuple(coefficients))

    def check_morphism_inverse(self, sampler: Sampler, tol: float = 1e-8) -> CheckReport:
        self._need_g()
        report = CheckReport(f"fiber-morphism-inverse {self.name}")
        p = self.algebroid.rank
        for b in range(self.rank):
            for a in range(self.rank):
                acc = add(*[mul(self.g_inv[b][alpha], self.g[alpha][a]) for alpha in range(p)])
                want = add(1.0) if a == b else add()
                _residual_row(report, "ginv-g", (b + 1, a + 1), acc, want, sampler, tol)
        for alpha in range(p):
            for beta in range(p):
                acc = add(*[mul(self.g_inv[a][beta], self.g[alpha][a]) for a in range(self.rank)])
                want = add(1.0) if alpha == beta else add()
                _residual_row(report, "g-ginv", (alpha + 1, beta + 1), acc, want, sampler, tol)
        return report


@dataclass(frozen=True)
class Section:
    """Section of the anchored bundle: coefficients on M."""

    bundle: AnchoredBundle
    coefficients: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.bundle.rank:
            raise ValueError("coefficient count must equal the bundle rank")
        mvars = set(self.bundle.algebroid.base_m.variables)
        for c in self.coefficients:
            bad = free_variables(c) - mvars
            if bad:
                raise ValueError(f"section coefficients must use base coordinates, got {sorted(bad)}")

    def __add__(self, other: "Section") -> "Section":
        return Section(
            self.bundle,
            tuple(add(a, b) for a, b in zip(self.coefficients, other.coefficients)),
        )

    def scaled(self, f: Expr) -> "Section":
        return Section(self.bundle, tuple(mul(f, c) for c in self.coefficients))


def basis_section(bundle: AnchoredBundle, a: int) -> Section:
    return Section(bundle, tuple(add(1.0) if i == a else add() for i in range(bundle.rank)))


def _coeff_str(coeff: Expr, basis: str) -> str:
    text = str(coeff)
    if text == "1":
        return basis
    needs_parens = isinstance(coeff, (Sum, Neg)) or (
        isinstance(coeff, Const) and coeff.value < 0
    )
    if needs_parens:
        return f"({text})*{basis}"
    return f"{text}*{basis}"


@dataclass(frozen=True)
class VectorFieldOnE:
    """Vector field on the total space in the coordinate frame
    (base directions, fiber directions)."""

    bundle: AnchoredBundle
    d_base: tuple[Expr, ...]
    d_fiber: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.d_base) != self.bundle.algebroid.base_m.dim:
            raise ValueError("base component count must match the base dimension")
        if len(self.d_fiber) != self.bundle.rank:
            raise ValueError("fiber component count must match the bundle rank")

    def apply(self, f: Expr) -> Expr:
        """Act as a derivation on a function on the total space."""
        pieces = []
        for coeff, x in zip(self.d_base, self.bundle.algebroid.base_m.variables):
            if is_zero(coeff):
                continue
            d = differentiate(f, x)
            if not is_zero(d):
                pieces.append(mul(coeff, d))
        for coeff, y in zip(self.d_fiber, self.bundle.fiber_variables):
            if is_zero(coeff):
                continue
            d = differentiate(f, y)
            if not is_zero(d):
                pieces.append(mul(coeff, d))
        return add(*pieces)

    def __add__(self, other: "VectorFieldOnE") -> "VectorFieldOnE":
        return VectorFieldOnE(
            self.bundle,
            tuple(add(a, b) for a, b in zip(self.d_base, other.d_base)),
            tuple(add(a, b) for a, b in zip(self.d_fiber, other.d_fiber)),
        )

    def __str__(self):
        parts = []
        for coeff, x in zip(self.d_base, self.bundle.algebroid.base_m.variables):
            if not is_zero(coeff):
                parts.append(_coeff_str(coeff, f"d_{x}"))
        for coeff, y in zip(self.d_fiber, self.bundle.fiber_variables):
            if not is_zero(coeff):
                parts.append(_coeff_str(coeff, f"dot_{y}"))
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ProlongSection:
    """Section of the generalized tangent bundle: coefficients over the
    anchored frame (horizontal) and the fiber frame (vertical), all on
    the total space."""

    bundle: AnchoredBundle
    horizontal: tuple[Expr, ...]
    vertical: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.horizontal) != self.bundle.algebroid.rank:
            raise ValueError("horizontal component count must match the algebroid rank")
        if len(self.vertical) != self.bundle.rank:
            raise ValueError("vertical component count must match the bundle rank")
        allowed = set(self.bundle.total_variables)
        for c in self.horizontal + self.vertical:
            bad = free_variables(c) - allowed
            if bad:
                raise ValueError(f"coefficients must use total-space coordinates, got {sorted(bad)}")

    def __add__(self, other: "ProlongSection") -> "ProlongSection":
        return ProlongSection(
            self.bundle,
            tuple(add(a, b) for a, b in zip(self.horizontal, other.horizontal)),
            tuple(add(a, b) for a, b in zip(self.vertical, other.vertical)),
        )

    def scaled(self, f: Expr) -> "ProlongSection":
        return ProlongSection(
            self.bundle,
            tuple(mul(f, c) for c in self.horizontal),
            tuple(mul(f, c) for c in self.vertical),
        )

    def __str__(self):
        parts = []
        for alpha, coeff in enumerate(self.horizontal):
            if not is_zero(coeff):
                parts.append(_coeff_str(coeff, f"td_{alpha + 1}"))
        for coeff, y in zip(self.vertical, self.bundle.fiber_variables):
            if not is_zero(coeff):
                parts.append(_coeff_str(coeff, f"dot_td_{y}"))
        return " + ".join(parts) if parts else "0"


def horizontal_basis(bundle: AnchoredBundle, alpha: int) -> ProlongSection:
    return ProlongSection(
        bundle,
        tuple(add(1.0) if i == alpha else add() for i in range(bundle.algebroid.rank)),
        tuple(add() for _ in range(bundle.rank)),
    )


def vertical_basis(bundle: AnchoredBundle, a: int) -> ProlongSection:
    return ProlongSection(
        bundle,
        tuple(add() for _ in range(bundle.algebroid.rank)),
        tuple(add(1.0) if i == a else add() for i in range(bundle.rank)),
    )


# ---------------------------------------------------------------------------
# Anchor and bracket


def rho_tilde(Z: ProlongSection) -> VectorFieldOnE:
    """Anchor of the generalized tangent bundle: horizontal coefficients
    contract with (anchor o h o projection), vertical pass through."""
    bundle = Z.bundle
    alg = bundle.algebroid
    d_base = []
    for i in range(alg.base_m.dim):
        pieces = []
        for alpha in range(alg.rank):
            rho_e = alg.rho[alpha][i]
            if is_zero(rho_e) or is_zero(Z.horizontal[alpha]):
                continue
            pieces.append(mul(Z.horizontal[alpha], bundle.lift_from_n(rho_e)))
        d_base.append(add(*pieces))
    return VectorFieldOnE(bundle, tuple(d_base), Z.vertical)


def bracket_prolong(Z: ProlongSection, W: ProlongSection) -> ProlongSection:
    """Bracket on the generalized tangent bundle: anchored derivations of
    the coefficients plus the structure-function contraction."""
    if Z.bundle != W.bundle:
        raise ValueError("brackets need sections of the same bundle")
    bundle = Z.bundle
    alg = bundle.algebroid
    rz = rho_tilde(Z)
    rw = rho_tilde(W)
    horizontal = []
    for g in range(alg.rank):
        pieces = [rz.apply(W.horizontal[g]), neg(rw.apply(Z.horizontal[g]))]
        for a in range(alg.rank):
            for b in range(alg.rank):
                if a == b:
                    continue
                struct = alg.L(a, b, g)
                if is_zero(struct):
                    continue
                pieces.append(
                    mul(Z.horizontal[a], W.horizontal[b], bundle.lift_from_n(struct))
                )
        horizontal.append(add(*pieces))
    vertical = [
        add(rz.apply(W.vertical[a]), neg(rw.apply(Z.vertical[a])))
        for a in range(bundle.rank)
    ]
    return ProlongSection(bundle, tuple(horizontal), tuple(vertical))


# ---------------------------------------------------------------------------
# Lifts


def vertical_lift_function(bundle: AnchoredBundle, f: Expr, on: str = "N") -> Expr:
    """Pull a function on N (through h) or on M (as is) up to the total
    space."""
    if on == "N":
        return bundle.lift_from_n(f)
    if on == "M":
        return f
    raise ValueError("on must be 'N' or 'M'")


def complete_lift_function(bundle: AnchoredBundle, f: Expr) -> Expr:
    """Fiber-weighted anchored derivative of a function on N."""
    bundle._need_g()
    alg = bundle.algebroid
    f_lift = bundle.lift_from_n(f)
    d = [differentiate(f_lift, x) for x in alg.base_m.variables]
    pieces = []
    for a in range(bundle.rank):
        inner = []
        for alpha in range(alg.rank):
            if is_zero(bundle.g[alpha][a]):
                continue
            for i in range(alg.base_m.dim):
                if is_zero(d[i]) or is_zero(alg.rho[alpha][i]):
                    continue
                inner.append(
                    mul(bundle.g[alpha][a], bundle.lift_from_n(alg.rho[alpha][i]), d[i])
                )
        if inner:
            pieces.append(mul(bundle.fiber_var(a), add(*inner)))
    return add(*pieces)


def vertical_lift_vf(u: Section) -> VectorFieldOnE:
    """Vertical lift as a vector field on the total space."""
    bundle = u.bundle
    return VectorFieldOnE(
        bundle,
        tuple(add() for _ in range(bundle.algebroid.base_m.dim)),
        u.coefficients,
    )


def vertical_lift(u: Section) -> ProlongSection:
    """Vertical lift into the generalized tangent bundle."""
    bundle = u.bundle
    return ProlongSection(
        bundle,
        tuple(add() for _ in range(bundle.algebroid.rank)),
        u.coefficients,
    )


def _gu(u: Section) -> tuple[Expr, ...]:
    """``gu[alpha] = sum_c g[alpha][c] u^c``: the image of the section
    through the fiber morphism, still on M."""
    bundle = u.bundle
    return tuple(
        add(*[mul(bundle.g[alpha][c], u.coefficients[c]) for c in range(bundle.rank)])
        for alpha in range(bundle.algebroid.rank)
    )


def push_to_algebroid(u: Section) -> SectionF:
    """Image of the section through the fiber morphism, on N."""
    bundle = u.bundle
    bundle._need_g()
    h = bundle.algebroid.h
    return SectionF(bundle.algebroid, tuple(h.push(e) for e in _gu(u)))


def pull_from_algebroid(bundle: AnchoredBundle, w: SectionF) -> Section:
    """Image of an algebroid section through the inverse morphism, on M."""
    bundle._need_g()
    h = bundle.algebroid.h
    coeffs = []
    for b in range(bundle.rank):
        coeffs.append(
            add(
                *[
                    mul(h.pull(w.coefficients[alpha]), bundle.g_inv[b][alpha])
                    for alpha in range(bundle.algebroid.rank)
                ]
            )
        )
    return Section(bundle, tuple(coeffs))


def k_coefficients(u: Section) -> tuple[tuple[Expr, ...], ...]:
    """Bracket coefficients of the pushed section against the pushed
    frame, in closed form; ``K[gamma][a]`` lives on N."""
    bundle = u.bundle
    bundle._need_g()
    alg = bundle.algebroid
    h = alg.h
    p, m = alg.rank, alg.base_m.dim
    xs = alg.base_m.variables
    gu = _gu(u)
    gu_n = push_to_algebroid(u).coefficients
    g_n = [[h.push(bundle.g[alpha][a]) for a in range(bundle.rank)] for alpha in range(p)]
    dg_n = [
        [[h.push(differentiate(bundle.g[gamma][a], xs[j])) for j in range(m)] for a in range(bundle.rank)]
        for gamma in range(p)
    ]
    dgu_n = [[h.push(differentiate(gu[gamma], xs[i])) for i in range(m)] for gamma in range(p)]
    out = []
    for gamma in range(p):
        row = []
        for a in range(bundle.rank):
            pieces = []
            for beta in range(p):
                for j in range(m):
                    if is_zero(alg.rho[beta][j]) or is_zero(dg_n[gamma][a][j]):
                        continue
                    pieces.append(mul(gu_n[beta], alg.rho[beta][j], dg_n[gamma][a][j]))
            for alpha in range(p):
                for i in range(m):
                    if is_zero(alg.rho[alpha][i]) or is_zero(dgu_n[gamma][i]):
                        continue
                    pieces.append(neg(mul(g_n[alpha][a], alg.rho[alpha][i], dgu_n[gamma][i])))
            for alpha in range(p):
                for beta in range(p):
                    struct = alg.L(alpha, beta, gamma)
                    if is_zero(struct):
                        continue
                    pieces.append(mul(gu_n[alpha], g_n[beta][a], struct))
            row.append(add(*pieces))
        out.append(tuple(row))
    return tuple(out)


def k_coefficients_via_bracket(u: Section) -> tuple[tuple[Expr, ...], ...]:
    """Same coefficients from the defining bracket; independent route
    kept as an oracle."""
    bundle = u.bundle
    alg = bundle.algebroid
    pushed = push_to_algebroid(u)
    out: list[list[Expr]] = [[None] * bundle.rank for _ in range(alg.rank)]  # type: ignore[list-item]
    for a in range(bundle.rank):
        frame = push_to_algebroid(basis_section(bundle, a))
        br = alg.bracket(pushed, frame)
        for gamma in range(alg.rank):
            out[gamma][a] = br.coefficients[gamma]
    return tuple(tuple(row) for row in out)


def complete_lift_vf(u: Section) -> VectorFieldOnE:
    """Complete lift as a vector field on the total space: anchored image
    horizontally, fiber-contracted bracket coefficients vertically."""
    bundle = u.bundle
    bundle._need_g()
    alg = bundle.algebroid
    K = k_coefficients(u)
    gu = _gu(u)
    d_base = []
    for i in range(alg.base_m.dim):
        pieces = []
        for alpha in range(alg.rank):
            if is_zero(gu[alpha]) or is_zero(alg.rho[alpha][i]):
                continue
            pieces.append(mul(gu[alpha], bundle.lift_from_n(alg.rho[alpha][i])))
        d_base.append(add(*pieces))
    d_fiber = []
    for b in range(bundle.rank):
        pieces = []
        for a in range(bundle.rank):
            for gamma in range(alg.rank):
                if is_zero(K[gamma][a]) or is_zero(bundle.g_inv[b][gamma]):
                    continue
                pieces.append(
                    neg(
                        mul(
                            bundle.fiber_var(a),
                            bundle.lift_from_n(K[gamma][a]),
                            bundle.g_inv[b][gamma],
                        )
                    )
                )
        d_fiber.append(add(*pieces))
    return VectorFieldOnE(bundle, tuple(d_base), tuple(d_fiber))


def complete_lift(u: Section) -> ProlongSection:
    """Complete lift into the generalized tangent bundle."""
    vf = complete_lift_vf(u)
    return ProlongSection(u.bundle, _gu(u), vf.d_fiber)


def hat_form(bundle: AnchoredBundle, omega: FormQ) -> Expr:
    """Fiber-linear function attached to a one-form."""
    if omega.degree != 1 or omega.bundle != bundle.space:
        raise ValueError("hat takes a one-form on this bundle")
    return add(
        *[mul(bundle.fiber_var(a), omega.coeff((a,))) for a in range(bundle.rank)]
    )


def almost_tangent(Z: ProlongSection) -> ProlongSection:
    """Tangent structure: horizontal directions to vertical through the
    inverse fiber morphism; vertical directions to zero."""
    bundle = Z.bundle
    bundle._need_g()
    vertical = []
    for b in range(bundle.rank):
        vertical.append(
            add(
                *[
                    mul(bundle.g_inv[b][alpha], Z.horizontal[alpha])
                    for alpha in range(bundle.algebroid.rank)
                ]
            )
        )
    return ProlongSection(
        bundle,
        tuple(add() for _ in range(bundle.algebroid.rank)),
        tuple(vertical),
    )


# ---------------------------------------------------------------------------
# Randomized data for checks


def random_bundle_section(
    bundle: AnchoredBundle, rng: np.random.Generator, degree: int = 2
) -> Section:
    return Section(
        bundle,
        tuple(
            random_polynomial(bundle.algebroid.base_m.variables, rng, degree)
            for _ in range(bundle.rank)
        ),
    )


def random_prolong_section(
    bundle: AnchoredBundle, rng: np.random.Generator, degree: int = 2
) -> ProlongSection:
    return ProlongSection(
        bundle,
        tuple(
            random_polynomial(bundle.total_variables, rng, degree)
            for _ in range(bundle.algebroid.rank)
        ),
        tuple(
            random_polynomial(bundle.total_variables, rng, degree)
            for _ in range(bundle.rank)
        ),
    )
