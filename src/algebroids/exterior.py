"""Differential forms on a vector bundle, wedge product, pull-backs
along bundle morphisms, and the two covariant Lie derivatives.

A form keeps only its nonzero coefficients, keyed by strictly
increasing index tuples; a lookup at an arbitrary tuple resolves the
permutation sign and reads a missing coefficient as zero.  The
operations loop over every increasing index tuple, which the small
ranks met in practice keep cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .algebroid import CoordSystem, GeneralizedLieAlgebroid, SectionF, SmoothMap
from .expr import Expr, add, contract, free_variables, is_zero, mul, neg, nonzero


@dataclass(frozen=True)
class VectorBundle:
    """A trivialized rank-r bundle over one chart."""

    base: CoordSystem
    rank: int
    name: str = ""

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("bundle rank must be positive")


def _sorted_key(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the ascending tuple and the
    permutation sign (0 when an index repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


@dataclass(frozen=True)
class FormQ:
    """Antisymmetric q-linear form; ``coeffs`` maps strictly increasing
    index tuples to coefficient expressions on the base chart."""

    bundle: VectorBundle
    degree: int
    coeffs: Mapping[tuple[int, ...], Expr]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[tuple[int, ...], Expr] = {}
        for key, value in self.coeffs.items():
            key = tuple(key)
            if len(key) != self.degree:
                raise ValueError(f"index tuple {key} does not match degree {self.degree}")
            if any(not 0 <= i < self.bundle.rank for i in key):
                raise ValueError(f"index out of range in {key}")
            if list(key) != sorted(key) or len(set(key)) != len(key):
                raise ValueError(f"coefficients must be keyed by strictly increasing tuples, got {key}")
            if not is_zero(value):
                clean[key] = value
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, indices: Sequence[int]) -> Expr:
        key, sign = _sorted_key(indices)
        if sign == 0:
            return add()
        value = self.coeffs.get(key, add())
        return value if sign > 0 else neg(value)

    def map_coeffs(self, fn) -> "FormQ":
        return FormQ(self.bundle, self.degree, {k: fn(v) for k, v in self.coeffs.items()})

    def __add__(self, other: "FormQ") -> "FormQ":
        if other.degree != self.degree or other.bundle != self.bundle:
            raise ValueError("can only add forms of the same degree on the same bundle")
        keys = set(self.coeffs) | set(other.coeffs)
        return FormQ(
            self.bundle,
            self.degree,
            {k: add(self.coeffs.get(k, add()), other.coeffs.get(k, add())) for k in keys},
        )

    def scaled(self, f: Expr) -> "FormQ":
        return self.map_coeffs(lambda v: mul(f, v))


def function_form(bundle: VectorBundle, f: Expr) -> FormQ:
    return FormQ(bundle, 0, {(): f})


def one_form(bundle: VectorBundle, coefficients: Sequence[Expr]) -> FormQ:
    if len(coefficients) != bundle.rank:
        raise ValueError("one-form needs one coefficient per fiber direction")
    return FormQ(bundle, 1, {(a,): c for a, c in enumerate(coefficients)})


def wedge(omega: FormQ, theta: FormQ) -> FormQ:
    """Exterior product via the shuffle sum."""
    if omega.bundle != theta.bundle:
        raise ValueError("wedge requires forms on the same bundle")
    q, r = omega.degree, theta.degree
    if q == 0:
        return theta.scaled(omega.coeff(()))
    if r == 0:
        return omega.scaled(theta.coeff(()))
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(omega.bundle.rank), q + r):
        pieces = []
        for positions in itertools.combinations(range(q + r), q):
            rest = tuple(i for i in range(q + r) if i not in positions)
            # sign of the shuffle moving the selected positions to the front
            sign = (-1) ** (sum(positions) - q * (q - 1) // 2)
            left = omega.coeff(tuple(key[i] for i in positions))
            right = theta.coeff(tuple(key[i] for i in rest))
            term = mul(left, right)
            pieces.append(term if sign > 0 else neg(term))
        out[key] = add(*pieces)
    return FormQ(omega.bundle, q + r, out)


@dataclass(frozen=True)
class BundleMorphism:
    """Fiberwise-linear bundle map over an invertible base map.

    ``components[alpha][a]`` (on the source base) sends source fiber
    direction a to target direction alpha; ``components_nonzero`` is
    their :func:`~algebroids.expr.nonzero` list.
    """

    source: VectorBundle
    target: VectorBundle
    base_map: SmoothMap
    components: tuple[tuple[Expr, ...], ...]
    components_nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_map.domain != self.source.base or self.base_map.codomain != self.target.base:
            raise ValueError("base map must run from the source base to the target base")
        if len(self.components) != self.target.rank or any(
            len(row) != self.source.rank for row in self.components
        ):
            raise ValueError("components must be target-rank x source-rank")
        src_vars = set(self.source.base.variables)
        for row in self.components:
            for entry in row:
                bad = free_variables(entry) - src_vars
                if bad:
                    raise ValueError(
                        f"morphism components must use source base coordinates, got {sorted(bad)}"
                    )
        object.__setattr__(self, "components_nonzero", nonzero(self.components))


def pushforward_section(morphism: BundleMorphism, coefficients: Sequence[Expr]) -> tuple[Expr, ...]:
    """Image coefficients on the target base: contract with the fiber
    components, then transport through the inverse base map."""
    if len(coefficients) != morphism.source.rank:
        raise ValueError("section length must match the source rank")
    return tuple(
        morphism.base_map.push(contract((e, coefficients[a]) for b, a, e in morphism.components_nonzero if b == alpha))
        for alpha in range(morphism.target.rank)
    )


def pullback_form(morphism: BundleMorphism, omega: FormQ) -> FormQ:
    """Pull a form on the target bundle back to the source bundle."""
    if omega.bundle != morphism.target:
        raise ValueError("form must live on the morphism target")
    if omega.degree == 0:
        return function_form(morphism.source, morphism.base_map.pull(omega.coeff(())))
    q = omega.degree
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(morphism.source.rank), q):
        pieces = []
        for alphas in itertools.product(range(morphism.target.rank), repeat=q):
            factors = [morphism.components[alphas[j]][key[j]] for j in range(q)]
            pieces.append(mul(*factors, morphism.base_map.pull(omega.coeff(alphas))))
        out[key] = add(*pieces)
    return FormQ(morphism.source, q, out)


def algebroid_bundle(algebroid: GeneralizedLieAlgebroid) -> VectorBundle:
    return VectorBundle(algebroid.base_n, algebroid.rank, "F")


def lie_derivative(
    algebroid: GeneralizedLieAlgebroid, z: SectionF, theta: FormQ
) -> FormQ:
    """Covariant Lie derivative along a section: anchor derivative of the
    evaluated form minus the bracket corrections in each slot."""
    if theta.bundle != algebroid_bundle(algebroid):
        raise ValueError("form must live on the algebroid bundle")
    if theta.degree == 0:
        return function_form(theta.bundle, algebroid.anchor_action(z, theta.coeff(())))
    brackets = [
        algebroid.bracket(z, algebroid.basis_section(a)).coefficients
        for a in range(algebroid.rank)
    ]
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(algebroid.rank), theta.degree):
        out[key] = add(
            algebroid.anchor_action(z, theta.coeff(key)),
            *[
                neg(mul(brackets[a][g], theta.coeff(key[:slot] + (g,) + key[slot + 1 :])))
                for slot, a in enumerate(key)
                for g in range(algebroid.rank)
            ],
        )
    return FormQ(theta.bundle, theta.degree, out)


def gh_lie_derivative(
    algebroid: GeneralizedLieAlgebroid,
    morphism: BundleMorphism,
    inverse_morphism: BundleMorphism,
    u: Sequence[Expr],
    omega: FormQ,
) -> FormQ:
    """Lie derivative conjugated through an invertible bundle morphism
    into the algebroid: pull the form over, derive along the pushed
    section, pull back."""
    if omega.bundle != morphism.source:
        raise ValueError("form must live on the morphism source")
    z = SectionF(algebroid, pushforward_section(morphism, u))
    theta = pullback_form(inverse_morphism, omega)
    derived = lie_derivative(algebroid, z, theta)
    return pullback_form(morphism, derived)
