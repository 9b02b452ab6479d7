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

from dataclasses import dataclass, field
from itertools import chain
from typing import Literal, Sequence

import numpy as np

from .algebroid import GeneralizedLieAlgebroid, SectionF, random_polynomial
from .expr import (
    MINUS_ONE,
    Const,
    Expr,
    Neg,
    PointSet,
    Sampler,
    Sum,
    ZERO,
    add,
    contract,
    differentiate,
    free_variables,
    is_zero,
    mul,
    neg,
    nonzero,
    var,
)
from .exterior import BundleMorphism, FormQ, VectorBundle, algebroid_bundle, pushforward_section
from .reporting import CheckReport, residual_row as _residual_row

Variance = Literal["primal", "dual"]


class MissingMorphismError(ValueError):
    pass


@dataclass(frozen=True)
class AnchoredBundle:
    """Vector bundle over M anchored into an algebroid by fiber
    components ``g[alpha][b]`` with declared inverse ``g_inv[b][alpha]``
    (both on M).  The declared inverse is verified by sampling, never
    computed symbolically here.  The :func:`~algebroids.expr.nonzero`
    lists of both, and the derivatives ``g_d[alpha][b][j]`` of g by the
    M coordinates, are built once, here (empty without a morphism)."""

    algebroid: GeneralizedLieAlgebroid
    rank: int
    variance: Variance = "primal"
    g: tuple[tuple[Expr, ...], ...] | None = None
    g_inv: tuple[tuple[Expr, ...], ...] | None = None
    # The coordinate names, set once by __post_init__.
    fiber_variables: tuple[str, ...] = field(init=False, repr=False, compare=False)
    total_variables: tuple[str, ...] = field(init=False, repr=False, compare=False)
    g_nonzero: tuple = field(init=False, repr=False, compare=False)
    g_inv_nonzero: tuple = field(init=False, repr=False, compare=False)
    g_d: tuple = field(init=False, repr=False, compare=False)

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
        fiber = tuple(f"{self.fiber_prefix}{a + 1}" for a in range(self.rank))
        object.__setattr__(self, "fiber_variables", fiber)
        object.__setattr__(self, "total_variables", self.algebroid.base_m.variables + fiber)
        object.__setattr__(self, "g_nonzero", nonzero(self.g or ()))
        object.__setattr__(self, "g_inv_nonzero", nonzero(self.g_inv or ()))
        xs = self.algebroid.base_m.variables
        g_d = tuple(tuple(tuple(differentiate(e, x) for x in xs) for e in row) for row in self.g or ())
        object.__setattr__(self, "g_d", g_d)

    # -- coordinates -------------------------------------------------------

    @property
    def fiber_prefix(self) -> str:
        return "y" if self.variance == "primal" else "p"

    @property
    def name(self) -> str:
        return "E" if self.variance == "primal" else "Edual"

    @property
    def space(self) -> VectorBundle:
        return VectorBundle(self.algebroid.base_m, self.rank, self.name)

    def fiber_var(self, a: int) -> Expr:
        return var(self.fiber_variables[a])

    # -- the fiber morphism --------------------------------------------------

    def _need_g(self):
        if self.g is None:
            raise MissingMorphismError("this operation needs the fiber morphism components")

    def morphism(self) -> BundleMorphism:
        self._need_g()
        return BundleMorphism(self.space, algebroid_bundle(self.algebroid), self.algebroid.h, self.g)

    def inverse_morphism(self) -> BundleMorphism:
        self._need_g()
        h = self.algebroid.h
        comps = tuple(
            tuple(h.push(self.g_inv[b][alpha]) for alpha in range(self.algebroid.rank))
            for b in range(self.rank)
        )
        return BundleMorphism(algebroid_bundle(self.algebroid), self.space, h.inverted(), comps)

    def section(self, coefficients: Sequence[Expr]) -> "Section":
        return Section(self, tuple(coefficients))

    def check_morphism_inverse(self, sampler: Sampler, tol: float = 1e-8) -> CheckReport:
        self._need_g()
        report = CheckReport(f"fiber-morphism-inverse {self.name}")
        p = self.algebroid.rank
        for b in range(self.rank):
            for a in range(self.rank):
                acc = contract((e, self.g[alpha][a]) for c, alpha, e in self.g_inv_nonzero if c == b)
                want = add(1.0) if a == b else add()
                _residual_row(report, "ginv-g", (b + 1, a + 1), acc, want, sampler, tol)
        for alpha in range(p):
            for beta in range(p):
                acc = contract((e, self.g[alpha][a]) for a, c, e in self.g_inv_nonzero if c == beta)
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


def _frame_str(coefficients: Sequence[Expr], frame: Sequence[str]) -> str:
    """The nonzero ``coeff*basis`` terms joined by `` + ``, ``0`` when
    there are none.  A unit coefficient prints as the bare basis name; a
    sum, a negation or a negative constant goes in parentheses."""
    parts = []
    for coeff, basis in zip(coefficients, frame):
        if is_zero(coeff):
            continue
        text = str(coeff)
        if text == "1":
            parts.append(basis)
        elif isinstance(coeff, (Sum, Neg)) or (isinstance(coeff, Const) and coeff.value < 0):
            parts.append(f"({text})*{basis}")
        else:
            parts.append(f"{text}*{basis}")
    return " + ".join(parts) if parts else "0"


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
        # A zero coefficient, or a variable that f does not hold, skips a
        # whole differentiation.
        return contract(
            (coeff, differentiate(f, x))
            for coeff, x in zip(self.d_base + self.d_fiber, self.bundle.total_variables)
            if x in f.free and not is_zero(coeff)
        )

    def apply_column(self, f: Expr, points: PointSet) -> np.ndarray:
        """The column of ``apply(f)`` over ``points``, to rounding, with no
        derivative built: the tangent of ``f`` along the nonzero
        coefficients."""
        field = tuple((x, c) for c, x in zip(self.d_base + self.d_fiber, self.bundle.total_variables) if c is not ZERO)
        return points.tangent(f, field)

    def __add__(self, other: "VectorFieldOnE") -> "VectorFieldOnE":
        return VectorFieldOnE(
            self.bundle,
            tuple(add(a, b) for a, b in zip(self.d_base, other.d_base)),
            tuple(add(a, b) for a, b in zip(self.d_fiber, other.d_fiber)),
        )

    def __str__(self):
        xs, ys = self.bundle.algebroid.base_m.variables, self.bundle.fiber_variables
        return _frame_str(self.d_base + self.d_fiber, [f"d_{x}" for x in xs] + [f"dot_{y}" for y in ys])


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
        frame = [f"td_{alpha + 1}" for alpha in range(len(self.horizontal))]
        return _frame_str(self.horizontal + self.vertical, frame + [f"dot_td_{y}" for y in self.bundle.fiber_variables])


# ---------------------------------------------------------------------------
# Anchor and bracket


def rho_tilde(Z: ProlongSection) -> VectorFieldOnE:
    """Anchor of the generalized tangent bundle: horizontal coefficients
    contract with (anchor o h o projection), vertical pass through."""
    alg = Z.bundle.algebroid
    # A zero horizontal coefficient builds no product.
    terms = [(j, Z.horizontal[alpha], r) for alpha, j, r in alg.rho_m_nonzero if Z.horizontal[alpha] is not ZERO]
    d_base = tuple(contract((c, r) for j, c, r in terms if j == i) for i in range(alg.base_m.dim))
    return VectorFieldOnE(Z.bundle, d_base, Z.vertical)


def _bracket_parts(Z: ProlongSection, W: ProlongSection) -> list[tuple[list, Expr, Expr]]:
    """The bracket on the generalized tangent bundle, written once: for
    each component of ``[Z, W]``, horizontal then vertical, the triple
    ``(terms, f, g)`` of the component ``contract(terms) + rho_tilde(Z)(f)
    - rho_tilde(W)(g)``.  ``terms`` are the structure-function products,
    none for a vertical component."""
    if Z.bundle != W.bundle:
        raise ValueError("brackets need sections of the same bundle")
    alg = Z.bundle.algebroid
    horizontal = [
        ([(Z.horizontal[a], W.horizontal[b], e) for a, b, c, e in alg.L_m_nonzero if c == g], W.horizontal[g], Z.horizontal[g])
        for g in range(alg.rank)
    ]
    return horizontal + [([], f, g) for f, g in zip(W.vertical, Z.vertical)]


def bracket_prolong(Z: ProlongSection, W: ProlongSection) -> ProlongSection:
    """Bracket on the generalized tangent bundle: anchored derivations of
    the coefficients plus the structure-function contraction."""
    parts = _bracket_parts(Z, W)
    rz, rw = rho_tilde(Z), rho_tilde(W)
    components = [contract(terms, rz.apply(f), neg(rw.apply(g))) for terms, f, g in parts]
    rank = Z.bundle.algebroid.rank
    return ProlongSection(Z.bundle, tuple(components[:rank]), tuple(components[rank:]))


def bracket_prolong_columns(Z: ProlongSection, W: ProlongSection, points: PointSet) -> list[np.ndarray]:
    """The components of :func:`bracket_prolong` as columns over
    ``points``, horizontal then vertical, equal to rounding.  The
    contraction is built and valued; each derivation is valued in forward
    mode (:meth:`VectorFieldOnE.apply_column`), so no derivative tree is
    built.  Where valuing the built component would raise, the column is
    NaN or infinite."""
    parts = _bracket_parts(Z, W)
    rz, rw = rho_tilde(Z), rho_tilde(W)
    return [points.column(contract(terms)) + rz.apply_column(f, points) - rw.apply_column(g, points) for terms, f, g in parts]


# ---------------------------------------------------------------------------
# Lifts


def vertical_lift_function(bundle: AnchoredBundle, f: Expr) -> Expr:
    """f on N composed with (h o projection), on the total space."""
    return bundle.algebroid.h.pull(f)


def complete_lift_function(bundle: AnchoredBundle, f: Expr) -> Expr:
    """Fiber-weighted anchored derivative of a function on N."""
    bundle._need_g()
    alg = bundle.algebroid
    f_lift = vertical_lift_function(bundle, f)
    d = [differentiate(f_lift, x) for x in alg.base_m.variables]
    g = bundle.g
    return contract(
        (bundle.fiber_var(a), contract((g[c][a], r, d[i]) for c, i, r in alg.rho_m_nonzero if g[c][a] is not ZERO))
        for a in range(bundle.rank)
    )


def vertical_lift_vf(u: Section) -> VectorFieldOnE:
    """Vertical lift as a vector field on the total space: the anchor of
    the prolonged vertical lift."""
    return rho_tilde(vertical_lift(u))


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
        contract((e, u.coefficients[c]) for a, c, e in bundle.g_nonzero if a == alpha)
        for alpha in range(bundle.algebroid.rank)
    )


def push_to_algebroid(u: Section) -> SectionF:
    """Image of the section through the fiber morphism, on N."""
    return SectionF(u.bundle.algebroid, pushforward_section(u.bundle.morphism(), u.coefficients))


def pull_from_algebroid(bundle: AnchoredBundle, w: SectionF) -> Section:
    """Image of an algebroid section through the inverse morphism, on M."""
    bundle._need_g()
    pulled = [bundle.algebroid.h.pull(c) for c in w.coefficients]
    coeffs = (contract((pulled[a], e) for c, a, e in bundle.g_inv_nonzero if c == b) for b in range(bundle.rank))
    return Section(bundle, tuple(coeffs))


def _k_on_m(bundle: AnchoredBundle, gu: tuple[Expr, ...]) -> tuple[tuple[Expr, ...], ...]:
    """Bracket coefficients of a pushed section against the pushed frame,
    in closed form and pulled to M: ``K[gamma][a]`` from the section's
    image ``gu = _gu(u)``, ``g``, the pulled anchor and structure
    functions, and derivatives by the M coordinates; those of ``g`` are
    the bundle's ``g_d``."""
    alg = bundle.algebroid
    xs = alg.base_m.variables
    g, dg, rho, L = bundle.g, bundle.g_d, alg.rho_m_nonzero, alg.L_m_nonzero
    dgu = [[differentiate(e, x) for x in xs] for e in gu]
    # Each sum runs over the anchor's or the structure functions' nonzero
    # list and skips the entries of g, or of its derivatives, that are ZERO.
    return tuple(
        tuple(
            contract(
                chain(
                    ((gu[beta], r, dg[gamma][a][j]) for beta, j, r in rho if dg[gamma][a][j] is not ZERO),
                    ((MINUS_ONE, g[alpha][a], r, dgu[gamma][i]) for alpha, i, r in rho if g[alpha][a] is not ZERO),
                    ((gu[alpha], g[beta][a], e) for alpha, beta, c, e in L if c == gamma and g[beta][a] is not ZERO),
                )
            )
            for a in range(bundle.rank)
        )
        for gamma in range(alg.rank)
    )


def k_coefficients(u: Section) -> tuple[tuple[Expr, ...], ...]:
    """Bracket coefficients of the pushed section against the pushed
    frame, in closed form; ``K[gamma][a]`` lives on N.  They are the
    coefficients :func:`complete_lift_vf` builds on M, pushed to N."""
    u.bundle._need_g()
    h = u.bundle.algebroid.h
    return tuple(tuple(h.push(k) for k in row) for row in _k_on_m(u.bundle, _gu(u)))


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


def complete_lift(u: Section) -> ProlongSection:
    """Complete lift into the generalized tangent bundle: the section's
    image through the fiber morphism horizontally, fiber-contracted
    bracket coefficients vertically."""
    bundle = u.bundle
    bundle._need_g()
    gu = _gu(u)
    K_m = _k_on_m(bundle, gu)
    vertical = tuple(
        contract(
            (MINUS_ONE, bundle.fiber_var(a), K_m[gamma][a], e)
            for a in range(bundle.rank)
            for c, gamma, e in bundle.g_inv_nonzero
            if c == b
        )
        for b in range(bundle.rank)
    )
    return ProlongSection(bundle, gu, vertical)


def complete_lift_vf(u: Section) -> VectorFieldOnE:
    """Complete lift as a vector field on the total space: the anchor of
    the prolonged complete lift."""
    return rho_tilde(complete_lift(u))


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
    vertical = tuple(
        contract((e, Z.horizontal[alpha]) for c, alpha, e in bundle.g_inv_nonzero if c == b)
        for b in range(bundle.rank)
    )
    return ProlongSection(bundle, tuple(add() for _ in range(bundle.algebroid.rank)), vertical)


# ---------------------------------------------------------------------------
# Randomized data for checks


def random_bundle_section(bundle: AnchoredBundle, rng: np.random.Generator) -> Section:
    return Section(
        bundle,
        tuple(
            random_polynomial(bundle.algebroid.base_m.variables, rng)
            for _ in range(bundle.rank)
        ),
    )


def random_prolong_section(
    bundle: AnchoredBundle, rng: np.random.Generator
) -> ProlongSection:
    return ProlongSection(
        bundle,
        tuple(
            random_polynomial(bundle.total_variables, rng, 1)
            for _ in range(bundle.algebroid.rank)
        ),
        tuple(
            random_polynomial(bundle.total_variables, rng, 1)
            for _ in range(bundle.rank)
        ),
    )
