"""Generalized Lie algebroids over a pair of diffeomorphic charts.

The object is a rank-p vector bundle over the chart N together with an
anchor into vector fields over the chart M, transported through an
isomorphism h: M -> N and its partner eta: N -> M.  Anchor components
and structure functions are expressions in the N coordinates; every
composition with h or its inverse is realized by substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    MINUS_ONE,
    ZERO,
    Expr,
    Sampler,
    Var,
    add,
    contract,
    differentiate,
    free_variables,
    is_zero,
    mul,
    neg,
    nonzero,
    substitute,
    var,
)
from .reporting import CheckReport, residual_row as _residual_row, residual_rows as _residual_rows


@dataclass(frozen=True)
class CoordSystem:
    """A named chart with an ordered tuple of coordinate variables."""

    name: str
    variables: tuple[str, ...]

    def __post_init__(self):
        if len(self.variables) < 1:
            raise ValueError("coordinate systems need at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate coordinate names in {self.name}")

    @property
    def dim(self) -> int:
        return len(self.variables)

    def vars(self) -> tuple[Expr, ...]:
        return tuple(var(v) for v in self.variables)


def coords(name: str, prefix: str, dim: int) -> CoordSystem:
    return CoordSystem(name, tuple(f"{prefix}{i + 1}" for i in range(dim)))


@dataclass(frozen=True)
class SmoothMap:
    """A chart isomorphism with an explicitly supplied inverse.

    ``forward[j]`` expresses codomain coordinate j in domain variables;
    ``inverse[i]`` expresses domain coordinate i in codomain variables.
    The inverse-pair property is verified numerically, never derived.

    ``renaming`` is set when the map only renames coordinates: every
    component in both directions is a variable, and the two directions
    undo each other.  Then ``renaming[i]`` is the codomain name of domain
    coordinate i, and pulling, differentiating by domain coordinate i and
    pushing back is differentiating by ``renaming[i]``: the constructors
    never look at names, so both build the very same nodes.
    """

    domain: CoordSystem
    codomain: CoordSystem
    forward: tuple[Expr, ...]
    inverse: tuple[Expr, ...]
    renaming: tuple[str, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.forward) != self.codomain.dim:
            raise ValueError("forward component count must match codomain dimension")
        if len(self.inverse) != self.domain.dim:
            raise ValueError("inverse component count must match domain dimension")
        xs = self.domain.variables
        names = tuple(e.name if type(e) is Var else None for e in self.inverse)
        # forward[j] names some x_i, whose inverse component names k_j back.
        renames = len(xs) == len(self.forward) and all(
            type(e) is Var and e.name in xs and names[xs.index(e.name)] == k
            for e, k in zip(self.forward, self.codomain.variables)
        )
        object.__setattr__(self, "renaming", names if renames else None)

    def pull(self, f: Expr) -> Expr:
        """f on the codomain -> f composed with the map, on the domain."""
        mapping = dict(zip(self.codomain.variables, self.forward))
        return substitute(f, mapping)

    def push(self, f: Expr) -> Expr:
        """f on the domain -> f composed with the inverse, on the codomain."""
        mapping = dict(zip(self.domain.variables, self.inverse))
        return substitute(f, mapping)

    def inverted(self) -> "SmoothMap":
        return SmoothMap(self.codomain, self.domain, self.inverse, self.forward)

    def check_inverse(self, sampler: Sampler, tol: float = 1e-8) -> CheckReport:
        report = CheckReport(f"inverse-pair {self.domain.name}->{self.codomain.name}")
        for i, xname in enumerate(self.domain.variables):
            roundtrip = self.pull(self.inverse[i])
            _residual_row(report, "inverse-then-forward", (xname,), roundtrip, var(xname), sampler, tol)
        for j, kname in enumerate(self.codomain.variables):
            roundtrip = self.push(self.forward[j])
            _residual_row(report, "forward-then-inverse", (kname,), roundtrip, var(kname), sampler, tol)
        return report


def identity_map(domain: CoordSystem, codomain: CoordSystem) -> SmoothMap:
    if domain.dim != codomain.dim:
        raise ValueError("identity map needs equal dimensions")
    return SmoothMap(domain, codomain, domain.vars(), codomain.vars())


@dataclass(frozen=True)
class GeneralizedLieAlgebroid:
    """Charts, chart isomorphisms, anchor components and structure
    functions of a generalized Lie algebroid.

    ``rho[alpha][i]`` and the structure functions live on N.  Structure
    storage keeps only alpha < beta entries; antisymmetry holds by
    construction and alpha == beta entries are forced to zero.  Both are
    pulled to M through h once, here: ``rho_m[alpha][i]`` is
    ``h.pull(rho[alpha][i])`` and ``L_m(a, b, g)`` is ``h.pull(L(a, b, g))``.
    The full antisymmetric table behind ``L`` is also built once, here,
    and so is the :func:`~algebroids.expr.nonzero` list of each table.
    """

    base_m: CoordSystem
    base_n: CoordSystem
    h: SmoothMap
    eta: SmoothMap
    rank: int
    rho: tuple[tuple[Expr, ...], ...]
    structure: Mapping[tuple[int, int, int], Expr] = field(default_factory=dict)
    rho_m: tuple[tuple[Expr, ...], ...] = field(init=False, repr=False, compare=False)
    _structure: tuple = field(init=False, repr=False, compare=False)
    _structure_m: tuple = field(init=False, repr=False, compare=False)
    rho_nonzero: tuple = field(init=False, repr=False, compare=False)
    rho_m_nonzero: tuple = field(init=False, repr=False, compare=False)
    L_nonzero: tuple = field(init=False, repr=False, compare=False)
    L_m_nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_m.dim != self.base_n.dim:
            raise ValueError("the two base charts must have equal dimension")
        if self.h.domain != self.base_m or self.h.codomain != self.base_n:
            raise ValueError("h must map the M chart to the N chart")
        if self.eta.domain != self.base_n or self.eta.codomain != self.base_m:
            raise ValueError("eta must map the N chart to the M chart")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if len(self.rho) != self.rank or any(len(row) != self.base_m.dim for row in self.rho):
            raise ValueError("rho must be rank x dim(M)")
        nvars = set(self.base_n.variables)
        for row in self.rho:
            for entry in row:
                bad = free_variables(entry) - nvars
                if bad:
                    raise ValueError(f"anchor entries must use N coordinates only, got {sorted(bad)}")
        canon: dict[tuple[int, int, int], Expr] = {}
        for (a, b, g), value in self.structure.items():
            for idx in (a, b, g):
                if not 0 <= idx < self.rank:
                    raise ValueError(f"structure index {idx} out of range")
            bad = free_variables(value) - nvars
            if bad:
                raise ValueError(f"structure entries must use N coordinates only, got {sorted(bad)}")
            if a == b:
                if not is_zero(value):
                    raise ValueError("structure functions must be antisymmetric: diagonal entries must vanish")
                continue
            key, entry = ((a, b, g), value) if a < b else ((b, a, g), neg(value))
            if key in canon and canon[key] != entry:
                raise ValueError(f"inconsistent structure entries for {key}: antisymmetry violated")
            canon[key] = entry
        object.__setattr__(self, "structure", canon)
        full = {**canon, **{(b, a, g): neg(entry) for (a, b, g), entry in canon.items()}}
        pull, ranks = self.h.pull, range(self.rank)
        table = tuple(tuple(tuple(full.get((a, b, g), ZERO) for g in ranks) for b in ranks) for a in ranks)
        object.__setattr__(self, "_structure", table)
        object.__setattr__(self, "rho_m", tuple(tuple(pull(e) for e in row) for row in self.rho))
        object.__setattr__(
            self, "_structure_m", tuple(tuple(tuple(pull(e) for e in row) for row in plane) for plane in table)
        )
        for name, entries in (("rho", self.rho), ("rho_m", self.rho_m), ("L", table), ("L_m", self._structure_m)):
            object.__setattr__(self, f"{name}_nonzero", nonzero(entries))

    # -- accessors ---------------------------------------------------------

    def L(self, a: int, b: int, g: int) -> Expr:
        """Structure function for [t_a, t_b] in the t_g slot (on N)."""
        return self._structure[a][b][g]

    def L_m(self, a: int, b: int, g: int) -> Expr:
        """``L(a, b, g)`` pulled to M through h."""
        return self._structure_m[a][b][g]

    def basis_section(self, alpha: int) -> "SectionF":
        coeffs = tuple(add(1.0) if i == alpha else add() for i in range(self.rank))
        return SectionF(self, coeffs)

    def section(self, coefficients: Sequence[Expr]) -> "SectionF":
        return SectionF(self, tuple(coefficients))

    # -- calculus ----------------------------------------------------------

    def anchor_action(self, z: "SectionF", f: Expr) -> Expr:
        """Derivation of functions on N induced by the section ``z``:
        pull f to M through h, differentiate, contract with the anchor,
        push back through the inverse of h."""
        bad = free_variables(f) - set(self.base_n.variables)
        if bad:
            raise ValueError(f"anchor action expects a function on N, got variables {sorted(bad)}")
        h = self.h
        if h.renaming is not None:
            pushed = [differentiate(f, k) for k in h.renaming]
        else:
            f_on_m = h.pull(f)
            pushed = [h.push(differentiate(f_on_m, xi)) for xi in self.base_m.variables]
        # A variable f does not hold builds no product either.
        terms = [(a, r, pushed[i]) for a, i, r in self.rho_nonzero if pushed[i] is not ZERO]
        # Nor does a zero coefficient of z, or a zero anchor sum.
        pairs = (
            (c, contract((r, d) for a, r, d in terms if a == alpha))
            for alpha, c in enumerate(z.coefficients)
            if c is not ZERO
        )
        return contract(pair for pair in pairs if pair[1] is not ZERO)

    def bracket(self, u: "SectionF", v: "SectionF") -> "SectionF":
        """Section bracket: anchor derivations of the coefficients plus
        the structure-function contraction."""
        return SectionF(
            self,
            tuple(
                contract(
                    ((u.coefficients[a], v.coefficients[b], e) for a, b, c, e in self.L_nonzero if c == g),
                    self.anchor_action(u, v.coefficients[g]),
                    neg(self.anchor_action(v, u.coefficients[g])),
                )
                for g in range(self.rank)
            ),
        )


@dataclass(frozen=True)
class SectionF:
    """Section of the algebroid bundle: coefficient expressions on N."""

    algebroid: GeneralizedLieAlgebroid
    coefficients: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.algebroid.rank:
            raise ValueError("coefficient count must equal the algebroid rank")

    def __add__(self, other: "SectionF") -> "SectionF":
        return SectionF(
            self.algebroid,
            tuple(add(a, b) for a, b in zip(self.coefficients, other.coefficients)),
        )

    def scaled(self, f: Expr) -> "SectionF":
        return SectionF(self.algebroid, tuple(mul(f, c) for c in self.coefficients))


# ---------------------------------------------------------------------------
# Axiom checks

# Random sections (or triples of them) that each randomized axiom check draws.
AXIOM_TRIALS = 3


def check_compatibility(
    algebroid: GeneralizedLieAlgebroid, sampler: Sampler, tol: float = 1e-8
) -> CheckReport:
    """Anchor compatibility: the structure-function contraction of the
    anchor equals the commutator of anchor derivatives, everything
    composed with h so both sides live on M."""
    report = CheckReport("anchor-compatibility")
    p, m = algebroid.rank, algebroid.base_m.dim
    rho_m, nz = algebroid.rho_m, algebroid.rho_m_nonzero
    xs = algebroid.base_m.variables
    for a in range(p):
        for b in range(a + 1, p):
            for k in range(m):
                lhs = contract((e, rho_m[g][k]) for a2, b2, g, e in algebroid.L_m_nonzero if (a2, b2) == (a, b))
                rhs = contract(
                    itertools.chain(
                        ((r, differentiate(rho_m[b][k], xs[i])) for c, i, r in nz if c == a),
                        ((MINUS_ONE, r, differentiate(rho_m[a][k], xs[j])) for c, j, r in nz if c == b),
                    )
                )
                _residual_row(report, "compatibility", (a + 1, b + 1, k + 1), lhs, rhs, sampler, tol)
    return report


def random_polynomial(
    variables: Sequence[str], rng: np.random.Generator, degree: int = 2
) -> Expr:
    """Random small polynomial with coefficients in [-1, 1], each -1 + 2u
    for a uniform draw u, as ``rng.uniform(-1, 1)`` computes it: the
    constant and linear ones from one block of draws, then a coin for
    each quadratic term and, where it lands, that term's coefficient."""

    def coefficient(u: float) -> float:
        return round(-1.0 + 2.0 * u, 3)

    constant, *linear = map(coefficient, rng.random(1 + len(variables)).tolist())
    terms = [add(constant)] + [mul(c, var(v)) for c, v in zip(linear, variables)]
    if degree >= 2:
        for u, v in itertools.combinations_with_replacement(variables, 2):
            if rng.random() < 0.5:
                terms.append(mul(coefficient(rng.random()), var(u), var(v)))
    return add(*terms)


def random_section(
    algebroid: GeneralizedLieAlgebroid, rng: np.random.Generator
) -> SectionF:
    return SectionF(
        algebroid,
        tuple(
            random_polynomial(algebroid.base_n.variables, rng)
            for _ in range(algebroid.rank)
        ),
    )


def check_jacobi(
    algebroid: GeneralizedLieAlgebroid,
    sampler: Sampler,
    tol: float = 1e-8,
) -> CheckReport:
    """Cyclic bracket sum over random polynomial sections."""
    report = CheckReport("jacobi")
    rng = np.random.default_rng(sampler.seed + 101)
    zero = (add(),) * algebroid.rank
    for trial in range(AXIOM_TRIALS):
        u = random_section(algebroid, rng)
        v = random_section(algebroid, rng)
        w = random_section(algebroid, rng)
        total = (
            algebroid.bracket(u, algebroid.bracket(v, w))
            + algebroid.bracket(v, algebroid.bracket(w, u))
            + algebroid.bracket(w, algebroid.bracket(u, v))
        )
        _residual_rows(report, "jacobi-cyclic-sum", (trial,), total.coefficients, zero, sampler, tol)
    return report


def check_leibniz(
    algebroid: GeneralizedLieAlgebroid,
    sampler: Sampler,
    tol: float = 1e-8,
) -> CheckReport:
    """[u, f v] = f [u, v] + (anchor action of u on f) v for random data."""
    report = CheckReport("leibniz")
    rng = np.random.default_rng(sampler.seed + 202)
    for trial in range(AXIOM_TRIALS):
        u = random_section(algebroid, rng)
        v = random_section(algebroid, rng)
        f = random_polynomial(algebroid.base_n.variables, rng)
        lhs = algebroid.bracket(u, v.scaled(f))
        rhs = algebroid.bracket(u, v).scaled(f) + v.scaled(algebroid.anchor_action(u, f))
        _residual_rows(report, "leibniz", (trial,), lhs.coefficients, rhs.coefficients, sampler, tol)
    return report


def check_anchor_morphism(
    algebroid: GeneralizedLieAlgebroid,
    sampler: Sampler,
    tol: float = 1e-8,
) -> CheckReport:
    """The anchor action takes brackets to commutators of derivations."""
    report = CheckReport("anchor-morphism")
    rng = np.random.default_rng(sampler.seed + 303)
    for trial in range(AXIOM_TRIALS):
        u = random_section(algebroid, rng)
        v = random_section(algebroid, rng)
        f = random_polynomial(algebroid.base_n.variables, rng)
        lhs = algebroid.anchor_action(algebroid.bracket(u, v), f)
        rhs = add(
            algebroid.anchor_action(u, algebroid.anchor_action(v, f)),
            neg(algebroid.anchor_action(v, algebroid.anchor_action(u, f))),
        )
        _residual_row(report, "anchor-morphism", (trial,), lhs, rhs, sampler, tol)
    return report


def check_antisymmetry(
    algebroid: GeneralizedLieAlgebroid, sampler: Sampler, tol: float = 1e-8
) -> CheckReport:
    """Structure antisymmetry holds by storage; recorded for reports."""
    report = CheckReport("structure-antisymmetry")
    for a in range(algebroid.rank):
        for b in range(a, algebroid.rank):
            for g in range(algebroid.rank):
                lhs, rhs = algebroid.L(a, b, g), neg(algebroid.L(b, a, g))
                _residual_row(report, "antisymmetry", (a + 1, b + 1, g + 1), lhs, rhs, sampler, tol)
    return report
