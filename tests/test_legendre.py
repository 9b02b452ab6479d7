import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import (
    CheckReport,
    EvaluationError,
    Hamiltonian,
    Lagrangian,
    NewtonConvergenceError,
    NewtonResult,
    Sampler,
    SingularJacobianError,
    check_homogeneity,
    check_round_trip,
    evaluate,
    legendre_transform,
    load_model,
    parse,
    phi_l,
    solve_fiber,
    solve_fiber_h,
    var,
)
from algebroids import legendre
from algebroids.expr import compiled_many, worst_gap
from algebroids.legendre import (
    CHOLESKY_PIVOT_TOL,
    FIBER_FLOOR,
    HomogeneityReport,
    _lu_solve,
    _max_abs,
    _newton_step,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def binding(f, x, fiber):
    """The point (x, fiber) of ``f`` by name: base names, then fiber
    names."""
    out = dict(zip(f.base_vars, map(float, x)))
    out.update(zip(f.fiber_vars, map(float, fiber)))
    return out


def by_name(roots, b):
    """The point driver's values of ``roots`` at the binding ``b``, from a
    program built over the names that ``b`` binds."""
    return compiled_many(roots, b)(list(b.values()))
CUBE_ROOT_4_OVER_3 = 1.1006424163623729  # real root of 3 y^3 = 4
CUBE_ROOT_4 = 1.5874010519681994


@pytest.fixture(scope="module")
def spaces():
    import pathlib

    from algebroids import load_model

    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    model = load_model(models / "classical.model")
    return model.bundles["E"], model.bundles["Edual"]


class TestFiberHessian:
    def test_euclidean_identity(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        out = lag.fiber_hessian((0, 0), (1, 1))
        assert out.regular
        assert out.matrix == pytest.approx(np.eye(2))
        assert out.inverse == pytest.approx(np.eye(2))

    def test_anisotropic_diagonal(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("y1^2 + 1/2*y2^2"))
        out = lag.fiber_hessian((0, 0), (1, 1))
        assert out.matrix == pytest.approx(np.diag([2.0, 1.0]))
        assert out.inverse == pytest.approx(np.diag([0.5, 1.0]))

    def test_offdiagonal_involution(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("y1*y2"))
        out = lag.fiber_hessian((0.3, -1), (2, 5))
        assert out.regular
        assert out.matrix == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert out.inverse == pytest.approx(out.matrix)

    def test_singular_hessian_flagged(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*y1^2"))
        out = lag.fiber_hessian((0, 0), (1, 1))
        assert not out.regular
        assert out.inverse is None

    def test_variance_enforced(self, spaces):
        E, Ed = spaces
        with pytest.raises(ValueError):
            Lagrangian(Ed, parse("1/2*p1^2"))
        with pytest.raises(ValueError):
            Hamiltonian(E, parse("1/2*y1^2"))


class TestFiberMaps:
    def test_euclidean_is_identity_on_fibers(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        assert phi_l(lag, (0.2, 0.4), (3, -1)) == pytest.approx([3.0, -1.0])

    def test_diagonal_contraction(self, spaces):
        E, Ed = spaces
        lag = Lagrangian(E, parse("y1^2 + 1/2*y2^2"))
        assert phi_l(lag, (0, 0), (1, 1)) == pytest.approx([2.0, 1.0])
        ham = Hamiltonian(Ed, parse("1/4*p1^2 + 1/2*p2^2"))
        assert phi_l(ham, (0, 0), (2, 1)) == pytest.approx([1.0, 1.0])

    def test_homogeneous_map_equals_fiber_gradient(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        x, y = (0.5, -0.2), (1.2, 0.7)
        assert phi_l(lag, x, y) == pytest.approx([evaluate(g, binding(lag, x, y)) for g in lag.grad])


class TestFiberSolve:
    def test_euclidean_single_sweep(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        out = solve_fiber(lag, (0, 0), (3, -1))
        assert out.solution == pytest.approx([3.0, -1.0])
        assert out.iterations == 1

    def test_diagonal_two_sweeps(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("y1^2 + 1/2*y2^2"))
        out = solve_fiber(lag, (0, 0), (2, 1))
        assert out.solution == pytest.approx([1.0, 1.0])
        assert out.iterations <= 2

    def test_quartic_scalar_root(self, spaces):
        # fiber map of the quartic: 3 y^3 = target, solved per component
        E, _ = spaces
        lag = Lagrangian(E, parse("1/4*(y1^4 + y2^4)"))
        out = solve_fiber(lag, (0, 0), (4, 4))
        assert out.solution == pytest.approx([CUBE_ROOT_4_OVER_3] * 2, rel=1e-9)
        assert out.iterations <= 15

    def test_residual_contract(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/4*(y1^4 + y2^4)"))
        p = (2.5, -1.5)
        out = solve_fiber(lag, (0, 0), p)
        got = phi_l(lag, (0, 0), out.solution)
        assert np.abs(got - np.asarray(p)).max() <= 1e-10 * (1 + np.abs(p).max())

    def test_singular_jacobian_reported_with_iterate(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/4*(y1^4 + y2^4)"))
        with pytest.raises(SingularJacobianError) as err:
            solve_fiber(lag, (0, 0), (4, 0))
        assert err.value.last_iterate is not None

    def test_no_convergence_reported(self, spaces, monkeypatch):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/4*(y1^4 + y2^4)"))
        monkeypatch.setattr(legendre, "NEWTON_MAX_ITER", 2)
        with pytest.raises(NewtonConvergenceError, match="within 2 iterations") as err:
            solve_fiber(lag, (0, 0), (4, 1))
        assert err.value.iterations == 2

    def test_dual_solve(self, spaces):
        _, Ed = spaces
        ham = Hamiltonian(Ed, parse("1/4*p1^2 + 1/2*p2^2"))
        out = solve_fiber_h(ham, (0, 0), (1, 1))
        assert out.solution == pytest.approx([2.0, 1.0])

    def test_overflowing_step_is_no_convergence(self, spaces):
        # The residual at the default start, the target, overflows in y1,
        # so the solve starts instead from the target solved with the
        # Hessian there, which solves this quadratic system exactly.
        E, _ = spaces
        lag = Lagrangian(E, parse("1e300*y1^2 + y2^2"))
        assert solve_fiber(lag, (0, 0), (1e300, 1)).solution.tolist() == [0.5, 0.5]
        # Here the solution's y2 = 5e599 overflows, so that start does too,
        # and no halved step lowers the infinite residual.
        lag = Lagrangian(E, parse("1e300*y1^2 + 1e-300*y2^2"))
        with pytest.raises(NewtonConvergenceError) as err:
            solve_fiber(lag, (0, 0), (1e300, 1e300))
        assert err.value.iterations == 1
        assert err.value.last_iterate.tolist() == [1e300, 1e300]

    @pytest.mark.parametrize("target", [(1e300, -1e300), (float("nan"), 1.0)])
    def test_non_finite_jacobian_is_singular(self, spaces, target):
        # An overflowing determinant and a NaN Jacobian entry.
        E, _ = spaces
        lag = Lagrangian(E, parse("1e300*y1*y2 + y1^2 + y2^2"))
        with pytest.raises(SingularJacobianError) as err:
            solve_fiber(lag, (0, 0), target)
        assert err.value.iterations == 1
        assert isinstance(err.value.last_iterate, np.ndarray)

    def test_solution_is_a_float_array(self, spaces):
        E, _ = spaces
        out = solve_fiber(Lagrangian(E, parse("1/4*(y1^4 + y2^4)")), (0, 0), (2.5, -1.5))
        assert isinstance(out.solution, np.ndarray) and out.solution.dtype == np.float64

    def test_newton_result_contract(self, spaces):
        E, _ = spaces
        out = solve_fiber(Lagrangian(E, parse("1/2*(y1^2 + y2^2)")), (0, 0), (2.5, -1.5))
        assert type(out) is NewtonResult is legendre.NewtonResult
        assert (out.solution.tolist(), out.iterations, out.residual) == ([2.5, -1.5], 1, 0.0)
        assert not hasattr(out, "__dict__")
        with pytest.raises(AttributeError):
            out.extra = 1

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_positive_definite_quadratics(self, spaces, entries, target):
        # any quadratic with positive-definite fiber matrix solves in at
        # most two sweeps and reproduces the linear solution
        E, _ = spaces
        a, b, c = (round(v, 3) for v in entries)
        A = np.array([[1.0 + a * a, a * b], [a * b, 1.0 + b * b + abs(c)]])
        expr = parse(
            f"1/2*({A[0, 0]}*y1^2 + {A[1, 1]}*y2^2) + {A[0, 1]}*y1*y2"
        )
        lag = Lagrangian(E, expr)
        p = np.array([round(v, 3) for v in target])
        out = solve_fiber(lag, (0.0, 0.0), p)
        assert out.iterations <= 2
        assert out.solution == pytest.approx(np.linalg.solve(A, p), abs=1e-8)


def numpy_singular(a):
    """The solver's singular test on numpy's determinant."""
    with np.errstate(all="ignore"):
        det = float(np.linalg.det(a))
    return not np.isfinite(det) or abs(det) < 1e-300


def ref_lu_factor(a):
    """LU factorization with partial pivoting of the square matrix ``a``
    (a list of rows, overwritten): its determinant, sign * exp(sum
    log|pivot|) as ``np.linalg.det`` computes it, the rows of L (below
    the diagonal, unit diagonal implied) and U packed in one matrix, and
    the row swapped with each row in turn.  At a zero pivot it stops and
    gives 0.0; its factors must not be solved with then."""
    n = len(a)
    swaps = []
    sign, logdet = 1.0, 0.0
    for k in range(n):
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


def ref_lu_solve(lu, swaps, b):
    """Solution of a x = b from :func:`ref_lu_factor`'s factors of a."""
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


def ref_newton_jacobian(r, values, fiber):
    """The rank-``r`` Newton Jacobian at ``fiber`` from the Newton
    program's ``values`` there: J[row, col] is H[col][row] plus
    sum_a fiber[a] * dH[a][row][col], its r + 1 values in turn."""
    terms = iter(values)
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


def ref_newton_step(values, fiber, res):
    """The reference's Newton step, or None at its singular test."""
    det, lu, swaps = ref_lu_factor(ref_newton_jacobian(len(res), values, fiber))
    if not math.isfinite(det) or abs(det) < 1e-300:
        return None
    return ref_lu_solve(lu, swaps, res)


def ref_residual(h, vec, target, r, a_step, c_step):
    """The residual sum_a vec[a] * H[a][c] - target[c] read as the
    solver's loop reads it from the program values ``h``, where entry
    a*a_step + c*c_step is H[a][c]: each sum runs as sum() runs it, from
    int 0."""
    res = []
    for c in range(r):
        acc = 0
        k = c * c_step
        for a in range(r):
            acc += vec[a] * h[k]
            k += a_step
        res.append(acc - target[c])
    return res


def newton_values(a):
    """Newton program values whose Jacobian at the zero fiber point is
    the square matrix ``a``."""
    return [v for row in a for e in row for v in (e, *[0.0] * len(a))]


def lu_singular(a):
    """The solver's singular test on the kernel's determinant of ``a``."""
    r = len(a)
    return _newton_step(newton_values(np.asarray(a).tolist()), [0.0] * r, [1.0] * r) is None


def ref_singular(a):
    det, _, _ = ref_lu_factor(np.asarray(a).tolist())
    return not np.isfinite(det) or abs(det) < 1e-300


class TestLUKernel:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_numpy_on_seeded_matrices(self, r):
        rng = np.random.default_rng(100 + r)
        for _ in range(200):
            a = rng.standard_normal((r, r)) * np.exp(rng.uniform(-3.0, 3.0, (r, r)))
            b = rng.standard_normal(r)
            det, x = _lu_solve(a.tolist(), b.tolist())
            assert det == pytest.approx(np.linalg.det(a), rel=1e-10)
            want = np.linalg.solve(a, b)
            tol = 1e-12 * np.linalg.cond(a) * (1.0 + np.abs(want).max())
            assert np.abs(np.array(x) - want).max() <= tol

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_step_matches_reference_bit_for_bit(self, r):
        # Swapping and eliminating the right-hand side with the rows runs
        # the reference's forward substitution in its order.  Every other
        # draw makes some Jacobian entries a signed zero or a subnormal:
        # their first value is one, and the values fiber[a] multiplies are
        # signed zeros.
        rng = np.random.default_rng(300 + r)
        specials = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308)
        singular = set()
        for i in range(200):
            values = (rng.standard_normal(r * r * (r + 1)) * np.exp(rng.uniform(-3.0, 3.0, r * r * (r + 1)))).tolist()
            fiber, res = rng.standard_normal(r).tolist(), rng.standard_normal(r).tolist()
            if i % 2:
                for cell in rng.choice(r * r, rng.integers(1, r * r + 1), replace=False):
                    k = cell * (r + 1)
                    values[k : k + r + 1] = [specials[rng.integers(len(specials))], *rng.choice([0.0, -0.0], r).tolist()]
            want = ref_newton_step(values, fiber, res)
            got = _newton_step(values, fiber, res)
            assert (None if got is None else hexes(got)) == (None if want is None else hexes(want))
            if i % 2:
                singular.add(want is None)
            else:
                assert want is not None
        # Subnormal pivots are singular; from rank 2 signed zeros off the
        # pivots leave a step.
        assert singular == ({True} if r == 1 else {True, False})

    def test_pivot_tie_keeps_the_rows(self):
        # |J[1, 0]| == |J[0, 0]|: the rows swap only where it is larger.
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            a[1, 0] = -a[0, 0]
            res = rng.standard_normal(2).tolist()
            want = ref_newton_step(newton_values(a.tolist()), [0.0, 0.0], res)
            assert hexes(_newton_step(newton_values(a.tolist()), [0.0, 0.0], res)) == hexes(want)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_residual_read_matches_the_loop_bit_for_bit(self, r):
        # Newton values with signed zeros, subnormals, infinities and
        # NaN, at fiber points and targets with signed zeros: a sum whose
        # products are all -0.0 starts from int 0 and so ends at +0.0.
        rng = np.random.default_rng(500 + r)
        specials = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, math.inf, -math.inf, math.nan)

        def draw(n, pool):
            out = rng.standard_normal(n).tolist()
            for k in np.flatnonzero(rng.random(n) < 0.4):
                out[k] = pool[rng.integers(len(pool))]
            return out

        def failing(row):
            raise EvaluationError("domain error: math domain error", {})

        for _ in range(300):
            values = draw(r * r * (r + 1), specials)
            vec, target = draw(r, (0.0, -0.0)), draw(r, (0.0, -0.0))
            got_values, got = legendre._valued(failing, lambda row: values, [], vec, target, r)
            assert got_values is values
            assert hexes(got) == hexes(ref_residual(values, vec, target, r, r + 1, r * (r + 1)))
            # Where the Newton program raises, the Hessian program's values.
            h = values[: r * r]
            got_values, got = legendre._valued(lambda row: h, failing, [], vec, target, r)
            assert got_values is None
            assert hexes(got) == hexes(ref_residual(h, vec, target, r, r, 1))

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [1.0, np.nan], [2.0, np.nan, -3.0], [np.inf, np.nan]])
    def test_nan_is_the_largest_entry(self, v):
        # As with np.max; Python's max would drop a NaN after the first entry.
        assert np.isnan(np.abs(v).max()) and np.isnan(_max_abs(v))

    def test_max_abs(self):
        assert _max_abs([]) == 0.0
        assert _max_abs([-3.0, 2.0, -0.0]) == 3.0
        assert _max_abs([1.0, -np.inf]) == np.inf

    def test_row_swap(self):
        a = np.array([[1e-3, 1.0, 2.0], [1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        rows = a.tolist()
        third = rows[2]
        b = [1.0, 2.0, 3.0]
        det, x = _lu_solve(rows, list(b))
        # The rows are swapped in place: the third is the first pivot row.
        assert rows[0] is third
        assert det == pytest.approx(np.linalg.det(a), rel=1e-12)
        assert x == pytest.approx(np.linalg.solve(a, b), rel=1e-12)

    @pytest.mark.parametrize(
        "a",
        [
            [[0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, 2.0], [2.0, 4.0]],
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
        ],
    )
    def test_exact_zero_pivot_gives_zero(self, a):
        assert np.linalg.det(np.array(a)) == 0.0
        assert _lu_solve([list(row) for row in a], [1.0] * len(a)) == (0.0, None)

    @pytest.mark.parametrize(
        "a, singular",
        [
            ([[1e-150, 0.0], [0.0, 1e-151]], True),
            ([[1e-150, 0.0], [0.0, 1e-149]], False),
            ([[1e200, 0.0], [0.0, 1e200]], True),
            ([[1e200, 0.0], [0.0, 1e100]], False),
            # From rank 3 the running product of the pivots can underflow
            # or overflow where the log sum does not.
            (np.diag([1e-200, 1e-200, 1e200]).tolist(), True),
            (np.diag([1e200, 1e200, 1e-200]).tolist(), True),
        ],
    )
    def test_extreme_determinants(self, a, singular):
        a = np.array(a)
        assert lu_singular(a) is singular
        # numpy and the log sum decide alike: at rank 2 as the kernel
        # does, at these rank-3 pivots not.
        assert numpy_singular(a) is ref_singular(a) is (singular if len(a) <= 2 else not singular)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_non_finite_entries_decide_as_numpy(self, r):
        rng = np.random.default_rng(200 + r)
        specials = (np.nan, np.inf, -np.inf)
        for _ in range(100):
            a = rng.standard_normal((r, r))
            for _ in range(rng.integers(1, r + 1)):
                a[rng.integers(r), rng.integers(r)] = specials[rng.integers(3)]
            if rng.random() < 0.3:
                a[:, rng.integers(r)] = 0.0
            assert lu_singular(a) is numpy_singular(a), a.tolist()


# (x, fiber point) pairs of the quartic model with one tiny fiber
# component, where a full Newton step after failed halvings used to
# throw that component out to about 1e9.
TINY_COMPONENT_POINTS = (
    ((0.25148674696807305, -0.9517172060921748), (-0.0006335525294218769, -0.8092593911529846)),
    ((0.8462014501146409, -0.13232356825612035), (1.8389560759148185, 0.00023203640609636977)),
    ((-0.9802622984722804, -0.8229347930547024), (-0.00034480387515056776, -0.003180360377507796)),
    ((0.007177073363783926, -0.01471327051998017), (2.5344266412208327e-05, 1.2607156030427262)),
)


class TestQuarticFiberSolve:
    @pytest.fixture(scope="class")
    def quartic(self):
        return load_model(MODELS / "quartic.model").lagrangian

    @pytest.mark.parametrize("x, y", TINY_COMPONENT_POINTS)
    def test_tiny_fiber_component_converges(self, quartic, x, y):
        target = phi_l(quartic, x, y)
        out = solve_fiber(quartic, x, target)
        image = phi_l(quartic, x, out.solution)
        assert np.abs(image - target).max() <= 1e-10 * (1.0 + np.abs(target).max())

    def test_matches_scipy_root(self, quartic):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20)
        for _ in range(40):
            x = rng.uniform(-2.0, 2.0, 2)
            # Components away from 0, where the fiber map is well conditioned.
            y = rng.uniform(0.05, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
            target = phi_l(quartic, x, y)
            ours = solve_fiber(quartic, x, target).solution
            ref = optimize.root(lambda v: phi_l(quartic, x, v) - target, target, method="lm")
            assert ref.success, (x, y)
            assert ours == pytest.approx(ref.x, abs=1e-7)


def reference_solve(f, x, target):
    """The fiber solver that values each residual with the Hessian
    program and each Jacobian with one more run of the Newton program:
    the specification the solver must meet bit for bit, errors
    included."""
    x = list(map(float, x))
    target = list(map(float, target))
    fiber = target
    threshold = legendre.NEWTON_TOL * (1.0 + _max_abs(target))
    r = f.rank

    def residual(vec):
        h = by_name(f._roots[0], binding(f, x, vec))
        return [sum(vec[a] * h[a * r + c] for a in range(r)) - target[c] for c in range(r)]

    def at_start(err):
        # The start is the target read as a fiber point, and the error
        # says so rather than naming it as a point the caller gave.
        start = type(err)(f"{err.reason} at the fiber solve's start, the target read as a fiber point: {err.point!r}")
        start.point = err.point
        return start

    try:
        res = residual(fiber)
    except EvaluationError as err:
        raise at_start(err) from err
    if not math.isfinite(_max_abs(res)):
        h = by_name(f._roots[0], binding(f, x, fiber))
        det, lu, swaps = ref_lu_factor([[h[a * r + c] for a in range(r)] for c in range(r)])
        if math.isfinite(det) and det != 0.0:
            candidate = ref_lu_solve(lu, swaps, target)
            cres = residual(candidate)
            if math.isfinite(_max_abs(cres)):
                fiber, res = candidate, cres
    for iterations in range(1, legendre.NEWTON_MAX_ITER + 1):
        norm = _max_abs(res)
        if norm <= threshold:
            return legendre.NewtonResult(np.array(fiber), iterations, norm)
        try:
            jacobian_values = by_name(f._roots[1], binding(f, x, fiber))
        except EvaluationError as err:
            if fiber is not target:
                raise
            raise at_start(err) from err
        step = ref_newton_step(jacobian_values, fiber, res)
        if step is None:
            raise SingularJacobianError("singular Newton Jacobian in fiber solve", np.array(fiber), iterations)
        scale = 1.0
        for _ in range(legendre.MAX_HALVINGS):
            candidate = [v - scale * s for v, s in zip(fiber, step)]
            cres = residual(candidate)
            if _max_abs(cres) < norm:
                fiber, res = candidate, cres
                break
            scale *= 0.5
        else:
            raise NewtonConvergenceError(
                f"no convergence: none of {legendre.MAX_HALVINGS} halvings of the Newton step lowers the residual",
                np.array(fiber),
                iterations,
                norm,
            )
    raise NewtonConvergenceError(
        f"no convergence within {legendre.NEWTON_MAX_ITER} iterations",
        np.array(fiber),
        legendre.NEWTON_MAX_ITER,
        _max_abs(res),
    )


def hexes(v):
    return [float(e).hex() for e in np.asarray(v, dtype=float).ravel()]


def outcome(solve, f, x, target):
    """What ``solve`` gives, by ``float.hex``: solution, iterations and
    residual, or the error's class, message, iterations, last iterate
    and residual."""
    try:
        out = solve(f, x, target)
    except (EvaluationError, NewtonConvergenceError, SingularJacobianError) as err:
        iterate = getattr(err, "last_iterate", None)
        residual = getattr(err, "residual", None)
        return (
            type(err),
            str(err),
            getattr(err, "iterations", None),
            None if iterate is None else hexes(iterate),
            None if residual is None else float(residual).hex(),
        )
    return hexes(out.solution), out.iterations, float(out.residual).hex()


def solver_for(f):
    return solve_fiber if f.variance == "primal" else solve_fiber_h


def seeded_solves(f, seed, n=40):
    """(x, target) pairs: the Legendre images of seeded fiber points, as
    the benchmark draws them, and seeded targets taken as they are."""
    rng = np.random.default_rng(seed)
    m, r = len(f.base_vars), f.rank
    xs = rng.uniform(-2.0, 2.0, (2 * n, m))
    fibers = rng.uniform(0.05, 2.0, (n, r)) * rng.choice([-1.0, 1.0], (n, r))
    out = []
    for x, fiber in zip(xs[:n], fibers):
        out.append((x.tolist(), phi_l(f, x, fiber).tolist()))
    out += [(x.tolist(), rng.uniform(-3.0, 3.0, r).tolist()) for x in xs[n:]]
    return out


def bundled_fiber_functions():
    for path in sorted(MODELS.glob("*.model")):
        model = load_model(path)
        for kind, f in (("L", model.lagrangian), ("H", model.hamiltonian)):
            if f is not None:
                yield f"{path.stem}.{kind}", f


BUNDLED_FIBER_FUNCTIONS = dict(bundled_fiber_functions())


class TestReferenceSolver:
    """The solver gives what the reference solver gives, bit for bit."""

    def assert_same(self, f, x, target):
        want = outcome(reference_solve, f, x, target)
        assert outcome(solver_for(f), f, x, target) == want, (x, target)
        return want

    def test_nine_bundled_functions(self):
        assert len(BUNDLED_FIBER_FUNCTIONS) == 9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("key", sorted(BUNDLED_FIBER_FUNCTIONS))
    def test_bundled_functions_at_seeded_points(self, key, seed):
        f = BUNDLED_FIBER_FUNCTIONS[key]
        for x, target in seeded_solves(f, seed):
            self.assert_same(f, x, target)

    def test_tiny_components_and_far_targets(self):
        quartic = BUNDLED_FIBER_FUNCTIONS["quartic.L"]
        for x, y in TINY_COMPONENT_POINTS:
            self.assert_same(quartic, x, phi_l(quartic, x, y))
        # The momenta of FAR_TARGETS in scripts/compare_reports.py: the
        # first ends after the iteration limit, the second in a range
        # error of the Hessian at the start.
        kinds = [self.assert_same(quartic, (0.0, 0.0), p)[0] for p in ((1e20, 1.0), (1e200, 1.0))]
        assert kinds == [NewtonConvergenceError, EvaluationError]

    def test_overflowing_start(self):
        diag = BUNDLED_FIBER_FUNCTIONS["diag_quadratic.L"]
        assert self.assert_same(diag, (0.0, 0.0), (9e307, 0.0)) == ([(4.5e307).hex(), (0.0).hex()], 1, (0.0).hex())

    @pytest.mark.parametrize("rank", [2, 3])
    def test_cross_terms(self, rank):
        # Every bundled Hessian is diagonal; these are not.  The second
        # of each rank reads no fiber coordinate but does read x1, so
        # the solve values every point with its run at the start.
        from algebroids import parse_model

        texts = {
            2: (
                "1/2*(y1^2 + 2*y2^2) + x1*y1*y2 + y1^4/4 + y1^2*y2^2/2",
                "1/2*(1 + x1^2)*y1^2 + x1*y1*y2 + (1 + sin(x1)^2)*y2^2",
            ),
            3: (
                "1/2*(y1^2 + 2*y2^2 + 3*y3^2) + x1*y1*y2 + y3^4/4 + y1*y2*y3/5",
                "1/2*(2 + x1^2)*y1^2 + x1*y1*y2 + cos(x1)*y2*y3 + (3 + x1)*y3^2 + y1*y3/5",
            ),
        }[rank]
        functions = []
        for text in texts:
            model = parse_model(
                f"[base M]\ndim = 1\n[base N]\ndim = 1\n[algebroid]\nrank = {rank}\nrho[1][1] = 1\n"
                f"[bundle E]\nrank = {rank}\n[lagrangian]\nL = {text}\n"
            )
            functions.append(model.lagrangian)
        assert [f._fiber_free for f in functions] == [False, True]
        for f in functions:
            assert f.hessian[0][1] != f.hessian[0][0]
            for x, target in seeded_solves(f, 3):
                self.assert_same(f, x, target)

    def test_where_the_newton_program_fails(self):
        # The derivative of the Hessian, 1.875*(y1 + x1)^(-0.5), fails
        # where y1 = -x1, and the Hessian there is 2.
        line = load_model(MODELS / "generalized.model").bundles["E"]
        lag = Lagrangian(line, parse("y1^2 + (y1 + x1)^2.5"))
        assert self.assert_same(lag, (0.0,), (0.0,)) == ([(0.0).hex()], 1, (0.0).hex())
        # Unsolved at the start, the target: the Jacobian there fails,
        # and the error names the start.
        assert self.assert_same(lag, (-0.5,), (0.5,))[:2] == (
            EvaluationError,
            "domain error: math domain error at the fiber solve's start,"
            " the target read as a fiber point: {'x1': -0.5, 'y1': 0.5}",
        )
        for target in (2.5, -1.0, 0.3):
            self.assert_same(lag, (0.0,), (target,))
        # A Newton program that reads no fiber coordinate and fails at the
        # base point fails at the start, and the error names it.
        flat = Lagrangian(line, parse("1/2*log(x1)*y1^2"))
        assert flat._fiber_free
        assert self.assert_same(flat, (-1.0,), (0.5,))[:2] == (
            EvaluationError,
            "domain error: math domain error at the fiber solve's start,"
            " the target read as a fiber point: {'x1': -1.0, 'y1': 0.5}",
        )
        # Its Hessian, log(x1), is singular at x1 = 1.
        assert self.assert_same(flat, (1.0,), (0.5,))[0] is SingularJacobianError
        for x in (0.5, 3.0):
            self.assert_same(flat, (x,), (0.5,))


def counted(monkeypatch, f, name):
    """Count the runs of program ``name`` of ``f`` from here on."""
    runs = []
    program = getattr(f, name)

    def run(row):
        runs.append(row)
        return program(row)

    monkeypatch.setattr(f, name, run)
    return runs


class TestProgramRuns:
    @pytest.fixture
    def line(self):
        return load_model(MODELS / "generalized.model").bundles["E"]

    def test_one_newton_run_per_point(self, monkeypatch):
        # The Hessian of generalized.L reads no fiber coordinate, so the
        # run at the start values the second point too.
        lag = load_model(MODELS / "generalized.model").lagrangian
        newton, hessian = counted(monkeypatch, lag, "_newton_fn"), counted(monkeypatch, lag, "_hess_fn")
        out = solve_fiber(lag, (0.5,), (0.8,))
        assert out.iterations == 2
        assert (len(newton), len(hessian)) == (1, 0)

    def test_one_newton_run_per_valued_point_where_the_hessian_reads_the_fiber(self, monkeypatch):
        quartic = load_model(MODELS / "quartic.model").lagrangian
        assert not quartic._fiber_free
        x, y = TINY_COMPONENT_POINTS[0]
        target = phi_l(quartic, x, y)
        newton, hessian = counted(monkeypatch, quartic, "_newton_fn"), counted(monkeypatch, quartic, "_hess_fn")
        points = []
        valued = legendre._valued

        def spy(hessian, newton, x, vec, *rest):
            points.append(x + vec)
            return valued(hessian, newton, x, vec, *rest)

        monkeypatch.setattr(legendre, "_valued", spy)
        out = solve_fiber(quartic, x, target)
        # The start, then each halving candidate, one run each.
        assert len(points) > out.iterations
        assert (newton, hessian) == (points, [])

    def test_hessian_program_where_the_newton_program_fails(self, line, monkeypatch):
        # 1.875*y1^(-0.5), the derivative of the Hessian, fails at y1 = 0,
        # where the Hessian is 2.
        lag = Lagrangian(line, parse("y1^2 + y1^2.5"))
        with pytest.raises(EvaluationError):
            lag._newton_fn([0.0, 0.0])
        hessian = counted(monkeypatch, lag, "_hess_fn")
        out = solve_fiber(lag, (0.0,), (0.0,))
        assert (out.solution.tolist(), out.iterations, out.residual) == ([0.0], 1, 0.0)
        assert len(hessian) == 1

    def test_rank_one_root(self, line):
        lag = Lagrangian(line, parse("y1^2 + y1^2.5"))
        out = solve_fiber(lag, (0.0,), (2.5,))
        assert (out.solution.tolist(), out.iterations) == ([0.5288639435315003], 6)


class TestTransforms:
    def test_euclidean_pair(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        H = legendre_transform(lag)
        assert H((0, 0), (3, -1)) == pytest.approx(5.0)

    def test_potential_changes_sign(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2) + x1^2"))
        H = legendre_transform(lag)
        # H = p^2/2 - x1^2 at p = y
        assert H((1.0, 0.0), (2.0, 0.0)) == pytest.approx(2.0 - 1.0)

    def test_symbolic_transform_when_solution_registered(self, spaces):
        E, Ed = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        H = legendre_transform(lag).symbolic(Ed, (var("p1"), var("p2")))
        sampler = Sampler(points=30, seed=5)
        from algebroids import equivalent

        assert equivalent(H.expr, parse("1/2*(p1^2 + p2^2)"), sampler)

    def test_double_transform_recovers_lagrangian(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2) + x1^2 + 1/4*y1^4"))
        back = legendre_transform(legendre_transform(lag))
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-2, 2, size=2)
            assert back(x, y) == pytest.approx(lag.value(x, y), abs=1e-8)

    def test_hamiltonian_transform(self, spaces):
        _, Ed = spaces
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)"))
        lag = legendre_transform(ham)
        assert lag((0, 0), (3, -1)) == pytest.approx(5.0)

    def test_double_transform_recovers_hamiltonian(self, spaces):
        _, Ed = spaces
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2) + x1^2 + 1/4*p1^4"))
        back = legendre_transform(legendre_transform(ham))
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            assert back(x, p) == pytest.approx(ham.value(x, p), abs=1e-8)

    def test_symbolic_transform_of_hamiltonian(self, spaces):
        E, Ed = spaces
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)"))
        lag = legendre_transform(ham).symbolic(E, (var("y1"), var("y2")))
        from algebroids import equivalent

        assert isinstance(lag, Lagrangian)
        assert equivalent(lag.expr, parse("1/2*(y1^2 + y2^2)"), Sampler(points=30, seed=5))

    def test_symbolic_transform_of_a_transform_is_refused(self, spaces):
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        back = legendre_transform(legendre_transform(lag))
        with pytest.raises(ValueError, match="only the transform of a fundamental function has a symbolic form"):
            back.symbolic(E, (var("y1"), var("y2")))

    def test_homogeneous_pair_composes_to_identity_on_values(self, spaces):
        # for the fiberwise 2-homogeneous example the transform evaluated
        # along the fiber map returns the original values
        E, _ = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        H = legendre_transform(lag)
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            y = rng.uniform(-2, 2, size=2)
            p = phi_l(lag, x, y)
            assert H(x, p) == pytest.approx(lag.value(x, y), abs=1e-10)

    def test_homogeneous_dual_side_composes_to_identity_on_values(self, spaces):
        # mirror statement for a fiberwise 2-homogeneous dual function
        _, Ed = spaces
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2) + 1/4*p1*p2"))
        L = legendre_transform(ham)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            y = phi_l(ham, x, p)
            assert L(x, y) == pytest.approx(ham.value(x, p), abs=1e-8)

    def test_inhomogeneous_composition_misses_by_potential(self, spaces):
        # with an added potential the composed value differs by twice the
        # potential at generic base points
        import pathlib

        from algebroids import load_model

        models = pathlib.Path(__file__).resolve().parent.parent / "models"
        E1 = load_model(models / "generalized.model").bundles["E"]
        # use a plain classical line bundle instead: potential example
        from algebroids import AnchoredBundle, GeneralizedLieAlgebroid, add, coords, identity_map

        M, N = coords("M", "x", 1), coords("N", "k", 1)
        alg = GeneralizedLieAlgebroid(M, N, identity_map(M, N), identity_map(N, M), 1, ((add(1.0),),), {})
        E = AnchoredBundle(alg, 1, "primal", ((add(1.0),),), ((add(1.0),),))
        lag = Lagrangian(E, parse("1/2*y1^2 + x1^2"))
        H = legendre_transform(lag)
        x, y = (1.5,), (0.8,)
        p = phi_l(lag, x, y)
        gap = H(x, p) - lag.value(x, y)
        assert abs(gap) >= 1.5**2
        assert gap == pytest.approx(-2 * 1.5**2)


class TestRoundTrip:
    def test_euclidean(self, spaces, sampler):
        E, Ed = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)"))
        report = check_round_trip(lag, ham, sampler)
        assert report.passed
        assert report.worst_residual == 0.0

    def test_diagonal(self, spaces, sampler):
        E, Ed = spaces
        lag = Lagrangian(E, parse("y1^2 + 1/2*y2^2"))
        ham = Hamiltonian(Ed, parse("1/4*p1^2 + 1/2*p2^2"))
        report = check_round_trip(lag, ham, sampler)
        assert report.passed
        inverse_rows = [r for r in report.rows if r.name == "L-inverse-hessian-matches-H"]
        assert inverse_rows and inverse_rows[0].passed

    def test_mismatched_fails(self, spaces, sampler):
        E, Ed = spaces
        lag = Lagrangian(E, parse("1/2*(y1^2 + y2^2)"))
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2) + p1^3"))
        report = check_round_trip(lag, ham, sampler)
        assert not report.passed
        assert report.worst_residual > 1e-3


class TestHomogeneity:
    def test_euclidean_accepted(self, spaces, sampler):
        E, _ = spaces
        report = check_homogeneity(Lagrangian(E, parse("1/2*(y1^2 + y2^2)")), sampler)
        assert report.verdict
        assert report.euler_worst == pytest.approx(0.0, abs=1e-14)

    def test_base_coupling_rejected(self, spaces, sampler):
        E, _ = spaces
        report = check_homogeneity(Lagrangian(E, parse("1/2*(y1^2 + y2^2) + x1*y1")), sampler)
        assert not report.verdict
        assert not report.euler_ok
        assert report.euler_worst > 1e-3

    def test_indefinite_rejected(self, spaces, sampler):
        E, _ = spaces
        report = check_homogeneity(Lagrangian(E, parse("1/2*(y1^2 - y2^2)")), sampler)
        assert report.euler_ok
        assert not report.hessian_positive_definite
        assert not report.verdict

    def test_dual_side_accepted(self, spaces, sampler):
        _, Ed = spaces
        report = check_homogeneity(Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)")), sampler)
        assert report.verdict

    def test_samples_stay_off_zero_section(self, spaces, sampler):
        E, _ = spaces
        report = check_homogeneity(Lagrangian(E, parse("1/2*(y1^2 + y2^2)")), sampler)
        assert report.witness is None or max(
            abs(report.witness["y1"]), abs(report.witness["y2"])
        ) >= 0.1


def reference_points(f, sampler):
    """The points of the Legendre checks, one at a time."""
    m = len(f.base_vars)
    for row in sampler.columns_with_floor(f.base_vars + f.fiber_vars, f.fiber_vars, FIBER_FLOOR):
        yield row[:m], row[m:]


def is_positive_definite(matrix):
    """The per-matrix test that check_homogeneity applies to a stack."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    pivot_floor = CHOLESKY_PIVOT_TOL * max(1.0, float(np.abs(matrix).max()))
    return bool(np.min(np.diag(factor)) ** 2 > pivot_floor)


def reference_round_trip(L, H, sampler, tol=1e-8):
    """check_round_trip as a loop over the points, with per-point numpy
    algebra: the specification the column checks must meet bit for bit."""
    report = CheckReport("legendre-round-trip")

    def direction(f, g):
        back_pairs, hessian_pairs = [], []
        for x, v in reference_points(f, sampler):
            w = phi_l(f, x, v)
            back = phi_l(g, x, w)
            back_pairs.append((float(np.abs(back - v).max()) / (1.0 + float(np.abs(v).max())), binding(f, x, v)))
            hess = f.fiber_hessian(x, v)
            if hess.regular:
                hessian_pairs.append((float(np.abs(hess.inverse - g.hessian_at(x, w)).max()), binding(f, x, v)))
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


def reference_homogeneity(f, sampler, degree=2.0, tol=1e-8):
    """check_homogeneity as a loop over the points."""
    pairs = []
    pd = regular = True
    for x, fiber in reference_points(f, sampler):
        value = f.value(x, fiber)
        gradient = np.array([evaluate(g, binding(f, x, fiber)) for g in f.grad])
        euler = float(fiber @ gradient) - degree * value
        pairs.append((abs(euler) / (1.0 + abs(degree * value)), binding(f, x, fiber)))
        hess = f.fiber_hessian(x, fiber)
        regular = regular and hess.regular
        pd = pd and is_positive_definite(hess.matrix)
    worst, index = worst_gap([gap for gap, _ in pairs])
    witness = None if index is None else pairs[index][1]
    return HomogeneityReport(degree, worst, worst <= tol, pd, regular, witness)


def raised(check, *args):
    """(class, message, point) of the error ``check(*args)`` raises."""
    with pytest.raises(EvaluationError) as info:
        check(*args)
    return type(info.value), str(info.value), info.value.point


class TestColumnChecks:
    """The column checks give what the per-point loops give: the same
    rows, residuals and witnesses bit for bit, and the same errors."""

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("name", sorted(path.stem for path in MODELS.glob("*.model")))
    def test_bundled_models_match_the_loops(self, name, seed):
        model = load_model(MODELS / f"{name}.model")
        sampler = dataclasses.replace(model.sampler, seed=seed)
        L, H = model.lagrangian, model.hamiltonian
        if L is not None and H is not None:
            assert repr(check_round_trip(L, H, sampler).rows) == repr(reference_round_trip(L, H, sampler).rows)
        for f in (L, H):
            if f is not None:
                assert repr(check_homogeneity(f, sampler)) == repr(reference_homogeneity(f, sampler))

    def test_rank_one_and_three(self):
        from algebroids import parse_model

        for rank, text in ((1, "y1^4/4 + x1^2*y1^2"), (3, "1/2*(y1^2 + 2*y2^2 + 3*y3^2) + x1*y1*y2 + y3^4/4")):
            model = parse_model(
                f"[base M]\ndim = 1\n[base N]\ndim = 1\n[algebroid]\nrank = {rank}\nrho[1][1] = 1\n"
                f"[bundle E]\nrank = {rank}\n[bundle Edual]\nrank = {rank}\n[lagrangian]\nL = {text}\n"
            )
            L = model.lagrangian
            H = Hamiltonian(model.bundles["Edual"], parse(text.replace("y", "p")))
            sampler = Sampler(points=80, seed=4)
            assert repr(check_round_trip(L, H, sampler).rows) == repr(reference_round_trip(L, H, sampler).rows)
            for f in (L, H):
                assert repr(check_homogeneity(f, sampler)) == repr(reference_homogeneity(f, sampler))

    def test_domain_error_in_the_hessian(self, spaces):
        E, Ed = spaces
        # The Hessian entry sqrt(x1 + 1.5) fails at the rows with x1 < -1.5.
        lag = Lagrangian(E, parse("1/2*sqrt(x1 + 1.5)*y1^2 + 1/2*y2^2"))
        ham = Hamiltonian(Ed, parse("1/2*(p1^2 + p2^2)"))
        sampler = Sampler(points=60, seed=7)
        want = raised(reference_round_trip, lag, ham, sampler)
        assert want[2]["x1"] < -1.5 and "domain error" in want[1]
        assert raised(check_round_trip, lag, ham, sampler) == want
        assert raised(check_homogeneity, lag, sampler) == raised(reference_homogeneity, lag, sampler)

    @pytest.mark.parametrize("f_edge, g_edge, first", [(-1.8, -1.0, "g"), (-1.0, -1.8, "f")])
    def test_first_failing_row_decides(self, spaces, f_edge, g_edge, first):
        E, Ed = spaces
        # f fails where x1 < f_edge; g, valued at the image, where x1 < g_edge.
        lag = Lagrangian(E, parse(f"1/2*sqrt(x1 - ({f_edge}))*y1^2 + 1/2*y2^2"))
        ham = Hamiltonian(Ed, parse(f"1/2*sqrt(x1 - ({g_edge}))*p1^2 + 1/2*p2^2"))
        sampler = Sampler(points=60, seed=7)
        rows = sampler.columns_with_floor(lag.base_vars + lag.fiber_vars, lag.fiber_vars, FIBER_FLOOR)
        # Both fail somewhere, the one with the higher edge first.
        assert (rows[:, 0] < -1.8).any()
        want = raised(reference_round_trip, lag, ham, sampler)
        assert -1.8 < want[2]["x1"] < -1
        # g's point is an image point, in dual fiber names.
        assert ("p1" in want[2]) == (first == "g")
        assert raised(check_round_trip, lag, ham, sampler) == want

    def test_one_indefinite_hessian_in_the_stack(self, spaces):
        E, _ = spaces
        # Indefinite only where x1 < -1.9: a few rows of the stack.
        lag = Lagrangian(E, parse("1/2*(x1 + 1.9)*y1^2 + 1/2*y2^2"))
        sampler = Sampler(points=100, seed=7)
        rows = sampler.columns_with_floor(lag.base_vars + lag.fiber_vars, lag.fiber_vars, FIBER_FLOOR)
        assert 1 <= (rows[:, 0] < -1.9).sum() <= 5
        report = check_homogeneity(lag, sampler)
        assert report.to_jsonable()["hessianPositiveDefinite"] is False
        assert repr(report) == repr(reference_homogeneity(lag, sampler))


@pytest.mark.parametrize("name", sorted(path.stem for path in MODELS.glob("*.model")))
def test_programs_equal_per_entry_evaluate(name):
    """The flat Hessian and Newton programs give, entry for entry and
    bit for bit, what evaluating each symbolic derivative does."""
    model = load_model(MODELS / f"{name}.model")
    for f in (model.lagrangian, model.hamiltonian):
        if f is None:
            continue
        r = f.rank
        for point in Sampler(points=15, seed=2).sample(f.base_vars + f.fiber_vars):
            x = [point[v] for v in f.base_vars]
            fiber = np.array([point[v] for v in f.fiber_vars])
            b = binding(f, x, fiber)
            want = [[evaluate(f.hessian[a][c], b).hex() for c in range(r)] for a in range(r)]
            assert [[v.hex() for v in row] for row in f.hessian_at(x, fiber).tolist()] == want
            want = []
            for row in range(r):
                for col in range(r):
                    acc = evaluate(f.hessian[col][row], b)
                    for a in range(r):
                        acc += fiber[a] * evaluate(f.hessian_fiber_d[a][row][col], b)
                    want.append(float(acc).hex())
            values = f._newton_fn([*x, *fiber])
            assert [v.hex() for row in ref_newton_jacobian(r, values, fiber.tolist()) for v in row] == want
            # The solver reads H[a][c] from entry (c*r + a)*(r + 1).
            hessian = [[values[(c * r + a) * (r + 1)].hex() for c in range(r)] for a in range(r)]
            assert hessian == [[v.hex() for v in row] for row in f.hessian_at(x, fiber).tolist()]
            assert f.value(x, fiber) == evaluate(f.expr, b)


WRONG_SHAPES = {
    "short_base_point": ((0.5,), (1.0, 2.0)),
    "long_base_point": ((0.5, 0.25, 9.0), (1.0, 2.0)),
    "short_fiber": ((0.5, 0.25), (1.0,)),
    "long_fiber": ((0.5, 0.25), (1.0, 2.0, 9.0)),
}


QUARTIC, CLASSICAL_H = BUNDLED_FIBER_FUNCTIONS["quartic.L"], BUNDLED_FIBER_FUNCTIONS["classical.H"]
# Each entry point that takes a point of a fundamental function, as a
# call of (x, fiber); for the solvers the fiber is the target.
ENTRY_POINTS = {
    "value": QUARTIC.value,
    "hessian_at": QUARTIC.hessian_at,
    "fiber_hessian": QUARTIC.fiber_hessian,
    "phi_l": lambda x, fiber: phi_l(QUARTIC, x, fiber),
    "solve_fiber": lambda x, fiber: solve_fiber(QUARTIC, x, fiber),
    "solve_fiber_h": lambda x, fiber: solve_fiber_h(CLASSICAL_H, x, fiber),
    "LegendreTransform.value": legendre_transform(QUARTIC).value,
    "LegendreTransform.value_of_a_transform": legendre_transform(legendre_transform(CLASSICAL_H)).value,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
def test_points_of_another_shape_are_refused(shape, entry):
    """A point is m base values, then r fiber values: any other length
    raises one ValueError naming the expected and the given counts."""
    x, fiber = WRONG_SHAPES[shape]
    message = f"expected 2 base and 2 fiber values, got {len(x)} and {len(fiber)}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ENTRY_POINTS[entry](x, fiber)


def test_over_long_target_is_refused():
    """A target with a value past the rank is refused: counted in the
    stopping threshold NEWTON_TOL * (1 + max|target|), the 1e12 would
    pass the unsolved target, residual 22, after one sweep, and the
    transform would read 27.5 where it is 2.5 at (1, 2)."""
    with pytest.raises(ValueError, match="got 2 and 3"):
        solve_fiber(QUARTIC, (0.5, 0.25), (1.0, 2.0, 1e12))
    solved = solve_fiber(QUARTIC, (0.5, 0.25), (1.0, 2.0))
    assert solved.residual <= legendre.NEWTON_TOL * 3.0
    assert phi_l(QUARTIC, (0.5, 0.25), solved.solution) == pytest.approx([1.0, 2.0])
    transform = legendre_transform(BUNDLED_FIBER_FUNCTIONS["classical.L"])
    with pytest.raises(ValueError, match="got 2 and 3"):
        transform.value((0.5, 0.5), (1.0, 2.0, 5.0))
    assert transform.value((0.5, 0.5), (1.0, 2.0)) == pytest.approx(2.5)


def test_points_of_the_functions_shape_build_no_program(spaces, monkeypatch):
    """The value, Hessian and Newton programs are built once, with the
    function: valuing and solving at its points builds none."""
    E, _ = spaces
    lag = Lagrangian(E, parse("1/4*(y1^4 + y2^4) + x1^2*y1^2"))
    built = []
    for name in ("compiled", "compiled_many"):

        def counted_build(roots, names, build=getattr(legendre, name), name=name):
            built.append(name)
            return build(roots, names)

        monkeypatch.setattr(legendre, name, counted_build)
    x, fiber = (0.5, 0.25), (1.0, 2.0)
    lag.value(x, fiber)
    lag.hessian_at(x, fiber)
    solve_fiber(lag, x, fiber)
    assert built == []
