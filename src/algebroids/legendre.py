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
    ZERO,
    EvaluationError,
    Expr,
    Sampler,
    add,
    compiled,
    compiled_many,
    contract,
    differentiate,
    evaluate_columns,
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
# The degree of the Euler identity that check_homogeneity tests, and
# its tolerance.
HOMOGENEITY_DEGREE = 2.0
HOMOGENEITY_TOL = 1e-8
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


class NewtonResult:
    """A converged fiber solve: the fiber point, the sweeps it took and
    its max-norm residual."""

    __slots__ = ("solution", "iterations", "residual")

    def __init__(self, solution: np.ndarray, iterations: int, residual: float):
        self.solution = solution
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class HessianResult:
    matrix: np.ndarray
    inverse: np.ndarray | None
    regular: bool


class FiberFunction:
    """A fundamental function on the total space of an anchored bundle,
    with cached symbolic fiber derivatives and one compiled program each
    for its value, Hessian and Newton Jacobian.  Where no root of the
    Newton program reads a fiber coordinate, as where the fiber Hessian
    depends on the base point only, the fiber solve runs that program
    once per solve, not at each fiber point it visits."""

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
        # The roots of the Hessian and Newton programs.  Entry J[row, col]
        # of the Newton Jacobian is H[col][row] plus
        # sum_a fiber[a] * dH[a][row][col]: its r + 1 terms in turn.
        self._roots = (
            tuple(e for row in self.hessian for e in row),
            tuple(
                e for row in range(r) for col in range(r)
                for e in (self.hessian[col][row], *(self.hessian_fiber_d[a][row][col] for a in range(r)))
            ),
        )
        # Whether no root of the Newton program reads a fiber coordinate,
        # so that it gives at every fiber point over a base point what it
        # gives at one.
        self._fiber_free = all(e.free.isdisjoint(self.fiber_vars) for e in self._roots[1])
        names = self.base_vars + self.fiber_vars
        self._fn = compiled(expression, names)
        self._hess_fn, self._newton_fn = (compiled_many(roots, names) for roots in self._roots)

    def _row(self, x: Sequence[float], fiber: Sequence[float]) -> list[float]:
        """The row of the point (x, fiber), its base values, then its fiber
        values, as floats; a point of another shape raises ValueError."""
        if len(x) != len(self.base_vars) or len(fiber) != self.rank:
            raise ValueError(
                f"expected {len(self.base_vars)} base and {self.rank} fiber values,"
                f" got {len(x)} and {len(fiber)}"
            )
        return [*map(float, x), *map(float, fiber)]

    def value(self, x: Sequence[float], fiber: Sequence[float]) -> float:
        return self._fn(self._row(x, fiber))

    def hessian_at(self, x: Sequence[float], fiber: Sequence[float]) -> np.ndarray:
        return np.array(self._hess_fn(self._row(x, fiber))).reshape(self.rank, self.rank)

    def fiber_hessian(self, x: Sequence[float], fiber: Sequence[float]) -> HessianResult:
        """Fiber Hessian with inverse and a determinant-based regularity
        flag; the inverse is absent when the determinant is negligible."""
        matrix = self.hessian_at(x, fiber)
        if not _regular(matrix[None])[0]:
            return HessianResult(matrix, None, False)
        return HessianResult(matrix, np.linalg.inv(matrix), True)


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
        contract((var(f.fiber_vars[a]), f.hessian[a][b]) for a in range(f.rank) if f.hessian[a][b] is not ZERO)
        for b in range(f.rank)
    )


def phi_l(f: FiberFunction, x: Sequence[float], fiber: Sequence[float]) -> np.ndarray:
    """Legendre morphism of a fundamental function, a Lagrangian or a
    Hamiltonian: base fixed, fiber contracted with the fiber Hessian."""
    hessian = f.hessian_at(x, fiber)
    # An overflowing image is the caller's to report, not numpy's to warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(fiber, dtype=float) @ hessian


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


def _lu_solve(a: list[list[float]], b: list[float]) -> tuple[float, list[float] | None]:
    """The determinant of the square matrix ``a`` (a list of rows) and
    the solution of a x = b, both overwritten, from one pass of LU
    factorization with partial pivoting that swaps and eliminates ``b``
    with the rows, then back substitution.

    The determinant is the product of the pivots, negated at each row
    swap (Golub & Van Loan, *Matrix Computations*, 4th ed., 3.2): 0.0
    at a zero pivot, where the solution is None, and not finite at a
    NaN or infinite pivot.  Up to rank 2 it is the pivots' product
    rounded once, so a threshold test of it, such as the solver's 1e-300
    floor, decides as one of ``np.linalg.det``'s sign * exp(sum
    log|pivot|) does except within rounding of the threshold; from rank
    3 a partial product can underflow or overflow where the whole does
    not."""
    n = len(a)
    det = 1.0
    for k in range(n):
        # The first entry of largest magnitude; a NaN is the pivot only
        # where it stands on the diagonal.
        p, best = k, abs(a[k][k])
        for i in range(k + 1, n):
            if abs(a[i][k]) > best:
                p, best = i, abs(a[i][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            b[k], b[p] = b[p], b[k]
            det = -det
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return 0.0, None
        det *= pivot
        bk = b[k]
        for i in range(k + 1, n):
            row = a[i]
            l = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= l * pivot_row[j]
            b[i] -= l * bk
    for i in reversed(range(n)):
        row = a[i]
        for j in range(n - 1, i, -1):
            b[i] -= row[j] * b[j]
        b[i] /= row[i]
    return det, b


def _newton_step(values: list[float], fiber: list[float], res: list[float]) -> list[float] | None:
    """The Newton step at ``fiber`` for the residual ``res``, from the
    Newton program's ``values`` there, or None where the Jacobian is
    singular: its determinant is not finite or below 1e-300 in
    magnitude.  At the rank r = len(res), entry J[row, col] is the first
    of its r + 1 values plus sum_a fiber[a] times the others in turn.
    Ranks 1 and 2 run straight-line code that does what the loops and
    :func:`_lu_solve` do, operation for operation; from rank 3 the loops
    run."""
    r = len(res)
    if r == 2:
        f0, f1 = fiber[0], fiber[1]
        a00 = values[0] + f0 * values[1] + f1 * values[2]
        a01 = values[3] + f0 * values[4] + f1 * values[5]
        a10 = values[6] + f0 * values[7] + f1 * values[8]
        a11 = values[9] + f0 * values[10] + f1 * values[11]
        b0, b1 = res
        # The rows swap only where the second pivot candidate is
        # strictly larger, so a NaN there never swaps.
        if abs(a10) > abs(a00):
            a00, a01, a10, a11, b0, b1 = a10, a11, a00, a01, b1, b0
            det = -a00
        else:
            det = a00
        if a00 == 0.0:
            return None
        l = a10 / a00
        a11 -= l * a01
        if a11 == 0.0:
            return None
        det *= a11
        if not math.isfinite(det) or abs(det) < 1e-300:
            return None
        x1 = (b1 - l * b0) / a11
        return [(b0 - a01 * x1) / a00, x1]
    if r == 1:
        # The one pivot is the determinant; a zero one fails the floor.
        a00 = values[0] + fiber[0] * values[1]
        if not math.isfinite(a00) or abs(a00) < 1e-300:
            return None
        return [res[0] / a00]
    terms = iter(values)
    jacobian = []
    for _ in range(r):
        cells = []
        for _ in range(r):
            acc = next(terms)
            for v in fiber:
                acc += v * next(terms)
            cells.append(acc)
        jacobian.append(cells)
    det, step = _lu_solve(jacobian, list(res))
    return None if not math.isfinite(det) or abs(det) < 1e-300 else step


def _valued(
    hessian,
    newton,
    x: list[float],
    vec: list[float],
    target: list[float],
    r: int,
    fixed: list[float] | None = None,
) -> tuple[list[float] | None, list[float]]:
    """The Newton program's values at the fiber point ``vec`` over ``x``
    and the residual sum_a vec[a] * H[a][c] - target[c] read from their
    Hessian entries.  ``fixed``, where not None, is those values, from a
    run at another fiber point over ``x`` of a program that reads no fiber
    coordinate, and no program runs.  Where the Newton program raises,
    its values are None, and the Hessian program alone values the
    residual, or raises."""
    h = fixed
    if h is None:
        row = x + vec
        try:
            h = newton(row)
        except EvaluationError:
            pass
    if h is None:
        values, h, a_step, c_step = None, hessian(row), r, 1
    elif r == 2:
        # The loop below, unrolled.  Its int 0 start adds as +0.0 does,
        # so products that are all -0.0 still sum to +0.0.
        return h, [
            0.0 + vec[0] * h[0] + vec[1] * h[3] - target[0],
            0.0 + vec[0] * h[6] + vec[1] * h[9] - target[1],
        ]
    elif r == 1:
        return h, [0.0 + vec[0] * h[0] - target[0]]
    else:
        # The first term of Newton entry J[c, a] is H[a][c].
        values, a_step, c_step = h, r + 1, r * (r + 1)
    # Entry a*a_step + c*c_step of h is H[a][c]; each sum runs as sum()
    # runs it, from int 0.
    res = []
    for c in range(r):
        acc = 0
        k = c * c_step
        for a in range(r):
            acc += vec[a] * h[k]
            k += a_step
        res.append(acc - target[c])
    return values, res


def _start_error(err: EvaluationError) -> EvaluationError:
    """``err``, raised at the fiber solve's start, reworded: the caller
    gave the target, not this point."""
    start = type(err)(f"{err.reason} at the fiber solve's start, the target read as a fiber point: {err.point!r}")
    start.point = err.point
    return start


def _solve_fiber_system(
    f: FiberFunction,
    x: Sequence[float],
    target: Sequence[float],
) -> NewtonResult:
    """Newton iteration on fiber*Hessian(fiber) = target with step
    halving, started at the target (identity preconditioner).
    Each iteration takes the longest halved step that lowers the max-norm
    residual, and raises :class:`NewtonConvergenceError` when none does.
    The iteration runs on Python floats, which round as numpy's float64
    scalars do; one call of :func:`_newton_step` per sweep assembles the
    Jacobian and gives both the singular test and the step.  One run of
    the Newton program values each point visited: its Hessian entries
    give the residual there, and its values the Jacobian once the point
    is accepted.  Where that program reads no fiber coordinate, its run
    at the start, if it succeeds, values every later point too."""
    row = f._row(x, target)
    m, r = len(f.base_vars), f.rank
    x, target = row[:m], row[m:]
    threshold = NEWTON_TOL * (1.0 + _max_abs(target))
    hessian, newton = f._hess_fn, f._newton_fn

    fiber = target
    try:
        values, res = _valued(hessian, newton, x, fiber, target, r)
    except EvaluationError as err:
        raise _start_error(err) from err
    # Where the run at the start raised, each later point keeps its own,
    # so that an error names the point it was raised at.
    fixed = values if f._fiber_free else None
    norm = _max_abs(res)
    if not math.isfinite(norm):
        # No halved step lowers a residual that overflows: start instead
        # from the target solved with the Hessian at the start.
        h = hessian(x + fiber)
        det, candidate = _lu_solve([[h[a * r + c] for a in range(r)] for c in range(r)], list(target))
        if math.isfinite(det) and det != 0.0:
            cvalues, cres = _valued(hessian, newton, x, candidate, target, r, fixed)
            cnorm = _max_abs(cres)
            if math.isfinite(cnorm):
                fiber, values, res, norm = candidate, cvalues, cres, cnorm
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        if norm <= threshold:
            return NewtonResult(np.array(fiber), iterations, norm)
        if values is None:
            # Raises the error that the Newton program raised here.
            try:
                values = newton(x + fiber)
            except EvaluationError as err:
                if fiber is not target:
                    raise
                raise _start_error(err) from err
        step = _newton_step(values, fiber, res)
        if step is None:
            raise SingularJacobianError(
                "singular Newton Jacobian in fiber solve", np.array(fiber), iterations
            )
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            candidate = [v - scale * s for v, s in zip(fiber, step)]
            cvalues, cres = _valued(hessian, newton, x, candidate, target, r, fixed)
            cnorm = _max_abs(cres)
            if cnorm < norm:
                fiber, values, res, norm = candidate, cvalues, cres, cnorm
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
        f"no convergence within {NEWTON_MAX_ITER} iterations",
        np.array(fiber),
        NEWTON_MAX_ITER,
        norm,
    )


def solve_fiber(
    L: Lagrangian,
    x: Sequence[float],
    p: Sequence[float],
) -> NewtonResult:
    """Solve the momentum equations for the primal fiber point."""
    return _solve_fiber_system(L, x, p)


def solve_fiber_h(
    H: Hamiltonian,
    x: Sequence[float],
    y: Sequence[float],
) -> NewtonResult:
    """Solve the velocity equations for the dual fiber point."""
    return _solve_fiber_system(H, x, y)


# ---------------------------------------------------------------------------
# Legendre transformations


class LegendreTransform:
    """Numeric Legendre transform of a fundamental function, or of another
    transform, valued on the other side from its source: fiber.v -
    source(x, v) at the source's fiber point v that matches ``fiber``
    under the Legendre morphism of the fundamental function at the root.
    Where the source lives on the root's side, the fiber solver inverts
    that morphism; where it lives on the other side, v is the morphism's
    image of ``fiber``, so a transform of a transform is exact."""

    def __init__(self, source: FiberFunction | LegendreTransform):
        self.source = source
        self.root = source.root if isinstance(source, LegendreTransform) else source
        self.variance = "dual" if source.variance == "primal" else "primal"

    def value(self, x: Sequence[float], fiber: Sequence[float]) -> float:
        fiber = np.asarray(fiber, dtype=float)
        f = self.root
        if self.variance == f.variance:
            other = phi_l(f, x, fiber)
        else:
            solve = solve_fiber if f.variance == "primal" else solve_fiber_h
            other = solve(f, x, fiber).solution
        return float(fiber @ other) - self.source.value(x, other)

    __call__ = value

    def symbolic(self, bundle: AnchoredBundle, fiber_solution: Sequence[Expr]) -> FiberFunction:
        """Symbolic transform of a fundamental function, on ``bundle`` of
        the other side, for a caller-registered closed-form solution of the
        source's fiber point in ``bundle``'s coordinates."""
        source = self.source
        if isinstance(source, LegendreTransform):
            raise ValueError("only the transform of a fundamental function has a symbolic form")
        if len(fiber_solution) != source.rank:
            raise ValueError("need one fiber expression per fiber coordinate")
        mapping = dict(zip(source.fiber_vars, fiber_solution))
        total = add(*[mul(var(bundle.fiber_variables[a]), fiber_solution[a]) for a in range(source.rank)])
        cls = Lagrangian if self.variance == "primal" else Hamiltonian
        return cls(bundle, add(total, mul(-1.0, substitute(source.expr, mapping))))


def legendre_transform(f: FiberFunction | LegendreTransform) -> LegendreTransform:
    return LegendreTransform(f)


# ---------------------------------------------------------------------------
# Checks


def _fiber_columns(f: FiberFunction, sampler: Sampler) -> np.ndarray:
    """The sampled points of ``f``'s checks, one row per point: base, then
    fiber coordinates, kept off the zero section."""
    return sampler.columns_with_floor(f.base_vars + f.fiber_vars, f.fiber_vars, FIBER_FLOOR)


def _hessians(f: FiberFunction, points: np.ndarray) -> np.ndarray:
    """``f``'s fiber Hessian at each row of ``points``, as an (n, r, r)
    stack, valued as :meth:`FiberFunction.hessian_at` values it, with its
    errors."""
    entries = [e for row in f.hessian for e in row]
    columns = evaluate_columns(entries, f.base_vars + f.fiber_vars, points)
    return np.stack(columns, axis=-1).reshape(len(points), f.rank, f.rank)


def _regular(hessians: np.ndarray) -> np.ndarray:
    """The regularity flag of :meth:`FiberFunction.fiber_hessian`, one per
    matrix of a stack of finite Hessians: the determinant of the matrix
    scaled to entries of at most 1, so that no power of the scale can
    overflow, is above the floor."""
    scale = np.maximum(1.0, np.abs(hessians).max(axis=(1, 2)))
    return ~(np.abs(np.linalg.det(hessians / scale[:, None, None])) <= HESSIAN_DET_FLOOR)


def _contract(fiber: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Row ``k`` of ``fiber`` times matrix ``k`` of the stack, as
    :func:`phi_l` contracts one point; stacked matmul rounds as the
    per-point one does."""
    # An overflowing image is the caller's to report, not numpy's to warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.ascontiguousarray(fiber)[:, None, :] @ matrices)[:, 0, :]


def check_round_trip(L: Lagrangian, H: Hamiltonian, sampler: Sampler, tol: float = 1e-8) -> CheckReport:
    """Both compositions of the two Legendre morphisms against the
    identity, plus the Hessian-inverse matching conditions."""
    report = CheckReport("legendre-round-trip")

    def direction(f: FiberFunction, g: FiberFunction):
        """(gaps, witnesses) of g's morphism after f's, and of f's inverse
        Hessian against g's at the image, skipping singular points.  Each
        Hessian is valued in one column pass per point set; an error is
        the one a loop valuing f and then g at each point in turn meets
        first."""
        names = f.base_vars + f.fiber_vars
        points = _fiber_columns(f, sampler)
        failure = None
        try:
            hf = _hessians(f, points)
        except EvaluationError as err:
            # g is valued at the rows before the one f fails at, first.
            failure = err
            points = points[: [dict(zip(names, row)) for row in points.tolist()].index(err.point)]
            hf = _hessians(f, points)
        m = len(f.base_vars)
        x, v = points[:, :m], points[:, m:]
        w = _contract(v, hf)
        hg = _hessians(g, np.hstack((x, w)))
        if failure is not None:
            try:
                raise failure
            finally:
                # No cycle between this frame and the error's traceback.
                del failure
        witnesses = [dict(zip(names, row)) for row in points.tolist()]
        with np.errstate(over="ignore", invalid="ignore"):
            back = _contract(w, hg)
            back_gaps = np.abs(back - v).max(axis=1) / (1.0 + np.abs(v).max(axis=1))
        regular = _regular(hf)
        hessian_gaps = np.abs(np.linalg.inv(hf[regular]) - hg[regular]).max(axis=(1, 2))
        return (back_gaps, witnesses), (hessian_gaps, [witnesses[k] for k in np.flatnonzero(regular)])

    ll, lt = direction(L, H)
    hh, ht = direction(H, L)
    for name, (gaps, witnesses) in (
        ("phiH-after-phiL", ll),
        ("phiL-after-phiH", hh),
        ("L-inverse-hessian-matches-H", lt),
        ("H-inverse-hessian-matches-L", ht),
    ):
        worst, index = worst_gap(gaps)
        report.add(name, (), worst, tol, None if index is None else witnesses[index])
    return report


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


def check_homogeneity(f: FiberFunction, sampler: Sampler) -> HomogeneityReport:
    """Euler identity fiber.grad = degree * f plus positive-definiteness
    of the fiber Hessian, sampled away from the zero section.  Value,
    gradient and Hessian are valued in one column pass."""
    names = f.base_vars + f.fiber_vars
    points = _fiber_columns(f, sampler)
    r, n = f.rank, len(points)
    value, *rest = evaluate_columns((f.expr, *f.grad, *(e for row in f.hessian for e in row)), names, points)
    gradient = np.stack(rest[:r], axis=-1)
    hessians = np.stack(rest[r:], axis=-1).reshape(n, r, r)
    fiber = points[:, len(f.base_vars):]
    with np.errstate(over="ignore", invalid="ignore"):
        euler = _contract(fiber, gradient[:, :, None])[:, 0] - HOMOGENEITY_DEGREE * value
        gaps = np.abs(euler) / (1.0 + np.abs(HOMOGENEITY_DEGREE * value))
    worst, index = worst_gap(gaps)
    witness = None if index is None else dict(zip(names, points[index].tolist()))
    try:
        factors = np.linalg.cholesky(hessians)
    except np.linalg.LinAlgError:
        # Some matrix of the stack has no Cholesky factor.
        pd = False
    else:
        pivot_floor = CHOLESKY_PIVOT_TOL * np.maximum(1.0, np.abs(hessians).max(axis=(1, 2)))
        pd = bool((np.diagonal(factors, axis1=1, axis2=2).min(axis=1) ** 2 > pivot_floor).all())
    regular = bool(_regular(hessians).all())
    return HomogeneityReport(HOMOGENEITY_DEGREE, worst, worst <= HOMOGENEITY_TOL, pd, regular, witness)
