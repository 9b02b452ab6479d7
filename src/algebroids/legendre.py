"""Fundamental functions on an anchored bundle and its dual: fiber
derivatives, regularity, the fiber-Hessian Legendre morphisms, the
Newton-based Legendre transformations, and homogeneity diagnostics.

The transform of a symbolic fundamental function is a numeric evaluator
backed by the fiber solver; a symbolic result is available only when a
closed-form fiber solution is registered by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    Binding,
    Expr,
    Sampler,
    add,
    compiled,
    compiled_many,
    differentiate,
    free_variables,
    mul,
    substitute,
    var,
    worst_gap,
)
from .prolong import AnchoredBundle
from .reporting import CheckReport

HESSIAN_DET_FLOOR = 1e-12
CHOLESKY_PIVOT_TOL = 1e-10
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# Step halvings tried per Newton iteration before the solve gives up.
MAX_HALVINGS = 60
FIBER_FLOOR = 0.1


class SingularJacobianError(RuntimeError):
    def __init__(self, message: str, last_iterate: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class NewtonConvergenceError(RuntimeError):
    def __init__(self, message: str, last_iterate: np.ndarray, iterations: int, residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class NewtonResult:
    solution: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class HessianResult:
    matrix: np.ndarray
    inverse: np.ndarray | None
    regular: bool


class FiberFunction:
    """A fundamental function on the total space of an anchored bundle,
    with cached symbolic fiber derivatives and one compiled program each
    for its value, gradient, Hessian and Newton Jacobian."""

    variance = "primal"

    def __init__(self, bundle: AnchoredBundle, expression: Expr):
        if bundle.variance != self.variance:
            raise ValueError(f"expected a {self.variance} bundle")
        allowed = set(bundle.total_variables)
        bad = free_variables(expression) - allowed
        if bad:
            raise ValueError(f"unexpected variables {sorted(bad)} in fundamental function")
        self.bundle = bundle
        self.expr = expression
        self.base_vars = bundle.algebroid.base_m.variables
        self.fiber_vars = bundle.fiber_variables
        r = bundle.rank
        self.rank = r
        self.grad = tuple(differentiate(expression, v) for v in self.fiber_vars)
        self.hessian = tuple(
            tuple(differentiate(self.grad[a], self.fiber_vars[b]) for b in range(r))
            for a in range(r)
        )
        self.mixed = tuple(
            tuple(
                differentiate(differentiate(expression, x), self.fiber_vars[b])
                for b in range(r)
            )
            for x in self.base_vars
        )
        self.hessian_fiber_d = tuple(
            tuple(
                tuple(differentiate(self.hessian[a][b], self.fiber_vars[c]) for c in range(r))
                for b in range(r)
            )
            for a in range(r)
        )
        self._fn = compiled(expression)
        self._grad_fn = compiled_many(self.grad)
        self._hess_fn = compiled_many(e for row in self.hessian for e in row)
        # Entry J[row, col] of the Newton Jacobian is H[col][row] plus
        # sum_a fiber[a] * dH[a][row][col]: its r + 1 terms in turn.
        self._newton_fn = compiled_many(
            e for row in range(r) for col in range(r)
            for e in (self.hessian[col][row], *(self.hessian_fiber_d[a][row][col] for a in range(r)))
        )

    def binding(self, x: Sequence[float], fiber: Sequence[float]) -> dict[str, float]:
        out = dict(zip(self.base_vars, map(float, x)))
        out.update(zip(self.fiber_vars, map(float, fiber)))
        return out

    def value(self, x: Sequence[float], fiber: Sequence[float]) -> float:
        return self._fn(self.binding(x, fiber))

    def gradient(self, x: Sequence[float], fiber: Sequence[float]) -> np.ndarray:
        return np.array(self._grad_fn(self.binding(x, fiber)))

    def hessian_at(self, x: Sequence[float], fiber: Sequence[float]) -> np.ndarray:
        return np.array(self._hess_fn(self.binding(x, fiber))).reshape(self.rank, self.rank)

    def fiber_hessian(self, x: Sequence[float], fiber: Sequence[float]) -> HessianResult:
        """Fiber Hessian with inverse and a determinant-based regularity
        flag; the inverse is absent when the determinant is negligible."""
        matrix = self.hessian_at(x, fiber)
        # Scaled to entries of at most 1 so that no power of the scale
        # can overflow; the entries themselves are finite.
        scale = max(1.0, float(np.abs(matrix).max()))
        if abs(float(np.linalg.det(matrix / scale))) <= HESSIAN_DET_FLOOR:
            return HessianResult(matrix, None, False)
        return HessianResult(matrix, np.linalg.inv(matrix), True)

    def _newton_jacobian(self, b: Binding, fiber: list[float]) -> list[list[float]]:
        r = self.rank
        terms = iter(self._newton_fn(b))
        J = []
        for row in range(r):
            cells = []
            for col in range(r):
                acc = next(terms)
                for a in range(r):
                    acc += fiber[a] * next(terms)
                cells.append(acc)
            J.append(cells)
        return J


class Lagrangian(FiberFunction):
    """Fundamental function in base and primal-fiber coordinates."""

    variance = "primal"


class Hamiltonian(FiberFunction):
    """Fundamental function in base and dual-fiber coordinates."""

    variance = "dual"


# ---------------------------------------------------------------------------
# Legendre bundle morphisms


def legendre_fiber_exprs(f: FiberFunction) -> tuple[Expr, ...]:
    """Symbolic fiber map of the Legendre morphism: contraction of the
    fiber coordinates with the fiber Hessian."""
    return tuple(
        add(*[mul(var(f.fiber_vars[a]), f.hessian[a][b]) for a in range(f.rank)])
        for b in range(f.rank)
    )


def phi_l(f: FiberFunction, x: Sequence[float], fiber: Sequence[float]) -> np.ndarray:
    """Legendre morphism of a fundamental function: base fixed, fiber
    contracted with the fiber Hessian.  The same map serves a Lagrangian
    (``phi_l``) and a Hamiltonian (``phi_h``)."""
    hessian = f.hessian_at(x, fiber)
    # An overflowing image is the caller's to report, not numpy's to warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(fiber, dtype=float) @ hessian


phi_h = phi_l


# ---------------------------------------------------------------------------
# Fiber solver


def _max_abs(v: Sequence[float]) -> float:
    """Largest absolute entry, 0.0 for none; a NaN counts as the
    largest, as with ``np.max``."""
    out = 0.0
    for e in v:
        e = abs(e)
        if e != e:
            return e
        if e > out:
            out = e
    return out


def _lu_factor(a: list[list[float]]) -> tuple[float, list[list[float]], list[int]]:
    """LU factorization with partial pivoting of the square matrix ``a``
    (a list of rows, overwritten): returns its determinant, the rows of
    L (below the diagonal, unit diagonal implied) and U packed in one
    matrix, and the row swapped with each row in turn.

    The determinant is computed as ``np.linalg.det`` computes it from
    LAPACK's factorization, sign * exp(sum log|pivot|), so it is 0.0 at
    a zero pivot and NaN at a NaN or infinite one.  At a zero pivot the
    factorization stops, and its factors must not be solved with."""
    n = len(a)
    swaps = []
    sign, logdet = 1.0, 0.0
    for k in range(n):
        # The first entry of largest magnitude; a NaN is the pivot only
        # where it stands on the diagonal.
        p, best = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > best:
                p, best = i, abs(a[i][k])
        swaps.append(p)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return 0.0, a, swaps
        sign *= pivot / abs(pivot)
        logdet += math.log(abs(pivot))
        for i in range(k + 1, n):
            row = a[i]
            l = row[k] = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= l * pivot_row[j]
    try:
        return sign * math.exp(logdet), a, swaps
    except OverflowError:
        return sign * math.inf, a, swaps


def _lu_solve(lu: list[list[float]], swaps: list[int], b: Sequence[float]) -> list[float]:
    """Solution of a x = b from :func:`_lu_factor`'s factors of a."""
    x = list(b)
    n = len(x)
    for k, p in enumerate(swaps):
        x[k], x[p] = x[p], x[k]
    for i in range(n):
        row = lu[i]
        for j in range(i):
            x[i] -= row[j] * x[j]
    for i in reversed(range(n)):
        row = lu[i]
        for j in range(n - 1, i, -1):
            x[i] -= row[j] * x[j]
        x[i] /= row[i]
    return x


def _solve_fiber_system(
    f: FiberFunction,
    x: Sequence[float],
    target: Sequence[float],
    start: Sequence[float] | None,
    tol: float,
    maxiter: int,
) -> NewtonResult:
    """Newton iteration on fiber*Hessian(fiber) = target with step
    halving; the start defaults to the target (identity preconditioner).
    Each iteration takes the longest halved step that lowers the max-norm
    residual, and raises :class:`NewtonConvergenceError` when none does.
    The iteration runs on Python floats, which round as numpy's float64
    scalars do; one LU factorization per sweep gives both the singular
    test and the step."""
    x = list(map(float, x))
    target = list(map(float, target))
    fiber = list(map(float, target if start is None else start))
    threshold = tol * (1.0 + _max_abs(target))
    r = f.rank

    def residual(vec: list[float]) -> list[float]:
        h = f._hess_fn(f.binding(x, vec))
        return [sum(vec[a] * h[a * r + c] for a in range(r)) - target[c] for c in range(r)]

    res = residual(fiber)
    for iterations in range(1, maxiter + 1):
        norm = _max_abs(res)
        if norm <= threshold:
            return NewtonResult(np.array(fiber), iterations, norm)
        det, lu, swaps = _lu_factor(f._newton_jacobian(f.binding(x, fiber), fiber))
        if not math.isfinite(det) or abs(det) < 1e-300:
            raise SingularJacobianError(
                "singular Newton Jacobian in fiber solve", np.array(fiber), iterations
            )
        step = _lu_solve(lu, swaps, res)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = [v - scale * s for v, s in zip(fiber, step)]
            cres = residual(candidate)
            if _max_abs(cres) < norm:
                fiber, res = candidate, cres
                break
            scale *= 0.5
        else:
            # The full step instead can throw a tiny fiber component out
            # past the reach of the remaining iterations.
            raise NewtonConvergenceError(
                f"no convergence: none of {MAX_HALVINGS} halvings of the Newton step lowers the residual",
                np.array(fiber),
                iterations,
                norm,
            )
    raise NewtonConvergenceError(
        f"no convergence within {maxiter} iterations",
        np.array(fiber),
        maxiter,
        _max_abs(res),
    )


def solve_fiber(
    L: Lagrangian,
    x: Sequence[float],
    p: Sequence[float],
    y0: Sequence[float] | None = None,
    tol: float = NEWTON_TOL,
    maxiter: int = NEWTON_MAX_ITER,
) -> NewtonResult:
    """Solve the momentum equations for the primal fiber point."""
    return _solve_fiber_system(L, x, p, y0, tol, maxiter)


def solve_fiber_h(
    H: Hamiltonian,
    x: Sequence[float],
    y: Sequence[float],
    p0: Sequence[float] | None = None,
    tol: float = NEWTON_TOL,
    maxiter: int = NEWTON_MAX_ITER,
) -> NewtonResult:
    """Solve the velocity equations for the dual fiber point."""
    return _solve_fiber_system(H, x, y, p0, tol, maxiter)


# ---------------------------------------------------------------------------
# Legendre transformations


class LagrangianTransform:
    """Numeric Hamiltonian obtained from a Lagrangian: evaluates
    p.y - L(x, y) at the solved fiber point."""

    def __init__(self, lagrangian: Lagrangian, tol: float = NEWTON_TOL, maxiter: int = NEWTON_MAX_ITER):
        self.lagrangian = lagrangian
        self.tol = tol
        self.maxiter = maxiter

    def solve(self, x: Sequence[float], p: Sequence[float], y0=None) -> NewtonResult:
        return solve_fiber(self.lagrangian, x, p, y0, self.tol, self.maxiter)

    def __call__(self, x: Sequence[float], p: Sequence[float]) -> float:
        result = self.solve(x, p)
        p = np.asarray(p, dtype=float)
        return float(p @ result.solution) - self.lagrangian.value(x, result.solution)

    def hamiltonian(self, dual_bundle: AnchoredBundle, fiber_solution: Sequence[Expr]) -> Hamiltonian:
        """Symbolic transform for a caller-registered closed-form fiber
        solution y(x, p)."""
        if len(fiber_solution) != self.lagrangian.rank:
            raise ValueError("need one fiber expression per fiber coordinate")
        mapping = dict(zip(self.lagrangian.fiber_vars, fiber_solution))
        total = add(
            *[
                mul(var(dual_bundle.fiber_variables[a]), fiber_solution[a])
                for a in range(self.lagrangian.rank)
            ]
        )
        h_expr = add(total, mul(-1.0, substitute(self.lagrangian.expr, mapping)))
        return Hamiltonian(dual_bundle, h_expr)


class HamiltonianTransform:
    """Numeric Lagrangian obtained from a Hamiltonian, or the exact
    double transform of a :class:`LagrangianTransform` (which reuses the
    forward Legendre morphism as the stationarity solution)."""

    def __init__(self, source: Hamiltonian | LagrangianTransform, tol: float = NEWTON_TOL, maxiter: int = NEWTON_MAX_ITER):
        self.source = source
        self.tol = tol
        self.maxiter = maxiter

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        y = np.asarray(y, dtype=float)
        if isinstance(self.source, LagrangianTransform):
            p = phi_l(self.source.lagrangian, x, y)
            return float(y @ p) - self.source(x, p)
        result = solve_fiber_h(self.source, x, y, None, self.tol, self.maxiter)
        return float(y @ result.solution) - self.source.value(x, result.solution)


def legendre_transform(L: Lagrangian, tol: float = NEWTON_TOL, maxiter: int = NEWTON_MAX_ITER) -> LagrangianTransform:
    return LagrangianTransform(L, tol, maxiter)


def legendre_transform_h(
    H: Hamiltonian | LagrangianTransform, tol: float = NEWTON_TOL, maxiter: int = NEWTON_MAX_ITER
) -> HamiltonianTransform:
    return HamiltonianTransform(H, tol, maxiter)


# ---------------------------------------------------------------------------
# Checks


def _fiber_points(f: FiberFunction, sampler: Sampler, floor: float = FIBER_FLOOR):
    names = f.base_vars + f.fiber_vars
    for point in sampler.sample_with_floor(names, f.fiber_vars, floor):
        x = np.array([point[v] for v in f.base_vars])
        fiber = np.array([point[v] for v in f.fiber_vars])
        yield x, fiber


def check_round_trip(L: Lagrangian, H: Hamiltonian, sampler: Sampler, tol: float = 1e-8) -> CheckReport:
    """Both compositions of the two Legendre morphisms against the
    identity, plus the Hessian-inverse matching conditions."""
    report = CheckReport("legendre-round-trip")

    def direction(f: FiberFunction, g: FiberFunction):
        """(gap, point) pairs of g's morphism after f's, and of f's inverse
        Hessian against g's at the image, skipping singular points."""
        back_pairs, hessian_pairs = [], []
        for x, v in _fiber_points(f, sampler):
            w = phi_l(f, x, v)
            back = phi_l(g, x, w)
            back_pairs.append((float(np.abs(back - v).max()) / (1.0 + float(np.abs(v).max())), f.binding(x, v)))
            hess = f.fiber_hessian(x, v)
            if hess.regular:
                hessian_pairs.append((float(np.abs(hess.inverse - g.hessian_at(x, w)).max()), f.binding(x, v)))
        return back_pairs, hessian_pairs

    ll, lt = direction(L, H)
    hh, ht = direction(H, L)
    for name, pairs in (
        ("phiH-after-phiL", ll),
        ("phiL-after-phiH", hh),
        ("L-inverse-hessian-matches-H", lt),
        ("H-inverse-hessian-matches-L", ht),
    ):
        worst, index = worst_gap([gap for gap, _ in pairs])
        report.add(name, (), worst, tol, None if index is None else pairs[index][1])
    return report


def _is_positive_definite(matrix: np.ndarray) -> bool:
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    pivot_floor = CHOLESKY_PIVOT_TOL * max(1.0, float(np.abs(matrix).max()))
    return bool(np.min(np.diag(factor)) ** 2 > pivot_floor)


@dataclass(frozen=True)
class HomogeneityReport:
    """Outcome of the fiberwise homogeneity and convexity diagnostics."""

    degree: float
    euler_worst: float
    euler_ok: bool
    hessian_positive_definite: bool
    regular: bool
    witness: dict[str, float] | None

    @property
    def verdict(self) -> bool:
        return self.euler_ok and self.hessian_positive_definite and self.regular

    def to_jsonable(self) -> dict:
        return {
            "degree": self.degree,
            "eulerResidual": self.euler_worst,
            "eulerHolds": self.euler_ok,
            "hessianPositiveDefinite": self.hessian_positive_definite,
            "regular": self.regular,
            "verdict": self.verdict,
        }


def check_homogeneity(
    f: FiberFunction, sampler: Sampler, degree: float = 2.0, tol: float = 1e-8
) -> HomogeneityReport:
    """Euler identity fiber.grad = degree * f plus positive-definiteness
    of the fiber Hessian, sampled away from the zero section."""
    pairs = []  # (gap, point)
    pd = True
    regular = True
    for x, fiber in _fiber_points(f, sampler):
        value = f.value(x, fiber)
        euler = float(fiber @ f.gradient(x, fiber)) - degree * value
        pairs.append((abs(euler) / (1.0 + abs(degree * value)), f.binding(x, fiber)))
        hess = f.fiber_hessian(x, fiber)
        regular = regular and hess.regular
        pd = pd and _is_positive_definite(hess.matrix)
    worst, index = worst_gap([gap for gap, _ in pairs])
    witness = None if index is None else pairs[index][1]
    return HomogeneityReport(degree, worst, worst <= tol, pd, regular, witness)
