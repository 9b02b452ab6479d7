import functools
import gc
import operator
import pathlib

import numpy as np
import pytest

from algebroids import expr as E
from algebroids import load_model, parse_model
from algebroids import verify
from algebroids.prolong import bracket_prolong, random_prolong_section
from algebroids.reporting import CheckReport, residual_row
from algebroids.verify import PLAN, cyclic_sum_rows, derivative_oracle_report, model_expressions, run_checks

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
BUNDLED = sorted(path.stem for path in MODELS.glob("*.model"))
ROTATION = MODELS.parent / "benchmark" / "models" / "rotation.model"


def reference_oracle_rows(model, sampler, tol=1e-5):
    """The per-point oracle loop: each symbolic partial and its central
    difference at every sampled point, then the one witness rule."""
    rows = []
    for name, expression in model_expressions(model):
        names = sorted(E.free_variables(expression))
        if not names:
            continue
        points = sampler.sample(tuple(names))
        for v in names:
            d = E.differentiate(expression, v)
            gaps = [
                E.relative_gap(E.evaluate(d, point), E.central_difference(expression, v, point))
                for point in points
            ]
            worst, index = E.worst_gap(gaps)
            rows.append((f"d/d{v} {name}", worst, worst <= tol, None if index is None else points[index]))
    return rows


@pytest.mark.parametrize("name", BUNDLED)
def test_column_oracle_equals_per_point_loop(name):
    model = load_model(MODELS / f"{name}.model")
    sampler = E.Sampler(points=40, seed=5)
    report = derivative_oracle_report(model, sampler)
    got = [(row.name, row.residual, row.passed, row.witness) for row in report.rows]
    assert got == reference_oracle_rows(model, sampler)


@pytest.mark.parametrize(
    "entry",
    [
        # x + step leaves sqrt's domain at some points, x - step at others.
        "sqrt(-k1) + sqrt(k1 + 0.000003) + log(-k2)",
        # x + step stays in the domain; x - step leaves it at some points,
        # and k2 + step leaves log's at every point.
        "sqrt(k1 + 0.000003) + log(-k2)",
    ],
)
def test_column_oracle_raises_the_point_drivers_first_error(entry):
    """Sampled within DIFFERENCE_STEP of 0, the shifted copies of an anchor
    entry leave the domain of sqrt or log.  The oracle raises the error,
    point and all, that the point driver meets first when it values the
    copies hi_0, lo_0, hi_1, lo_1 in turn, each at every sampled point."""
    text = (MODELS / "classical.model").read_text().replace("rho[1][1] = 1", f"rho[1][1] = {entry}")
    ranges = "domain k1 = -0.0000025 -0.0000005\ndomain k2 = -0.0000005 -0.0000001"
    text = text.replace("domain = -2 2", f"domain = -2 2\n{ranges}")
    model = parse_model(text)
    name, expression = model_expressions(model)[0]
    assert name == "rho[1][1]"
    names = tuple(sorted(E.free_variables(expression)))
    want = None
    for v in names:
        for step in (E.DIFFERENCE_STEP, -E.DIFFERENCE_STEP):
            for point in model.sampler.sample(names):
                try:
                    E.evaluate(expression, {**point, v: point[v] + step})
                except E.EvaluationError as err:
                    want = want or (str(err), err.point)
    assert want is not None
    with pytest.raises(E.EvaluationError) as err:
        derivative_oracle_report(model, model.sampler)
    assert (str(err.value), err.value.point) == want


def test_plan_calls_suites_by_module_name(classical, monkeypatch):
    """A wrapper set on a suite's module name after import is the one the
    plan calls, as a per-layer tracer installs it."""
    calls = []
    for check in PLAN:
        suite = getattr(verify, check.suite)
        monkeypatch.setattr(verify, check.suite, lambda *a, _s=suite, _n=check.name: calls.append(_n) or _s(*a))
    sampler = E.Sampler(points=10, seed=1)
    reports, extra = run_checks(classical, sampler, classical.tol, trials=1)
    # Each of the two bundles runs the six bundle checks in turn.
    bundle_names = [check.name for check in PLAN if check.scope == "bundle"]
    assert calls == ["axioms", *bundle_names, *bundle_names, "derivative-oracle", "legendre", "duality"]
    assert set(extra) == {"homogeneity", "verdict"}


def test_unknown_check_name_is_refused(classical):
    with pytest.raises(ValueError, match="unknown checks"):
        run_checks(classical, classical.sampler, classical.tol, ["lift-bracket"])


def test_no_collection_while_a_suite_builds():
    """A suite runs in a shared_walks block, which pauses the cyclic
    collector: a gc.callbacks counter sees no collection while the block's
    tables live, and some in the same suite run outside a block."""
    model = load_model(ROTATION)
    bundle = model.bundles["E"]
    seen = []

    def count(phase, info):
        if phase == "start":
            seen.append(E._WALKS.get() is not None)

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        report = verify.prolong_bracket_axioms_report(bundle, model.sampler, model.tol)
        inside = [live for live in seen if live]
        seen.clear()
        verify.prolong_bracket_axioms_report.__wrapped__(bundle, model.sampler, model.tol)
    finally:
        gc.callbacks.remove(count)
    assert report.passed
    assert inside == []
    assert len(seen) > 0


@pytest.mark.parametrize(
    "path, error",
    [(ROTATION, None), (MODELS / "domain" / "log_anchor.model", E.EvaluationError)],
    ids=["rotation", "log_anchor"],
)
def test_checks_leave_nothing_to_the_collector(path, error):
    """Nodes form a DAG and the tables go with the block, so the checks,
    passing or raising, leave nothing in a cycle for the collector: under
    DEBUG_SAVEALL, neither a collection during the checks nor one after
    them finds an object of any type."""
    model = load_model(path)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        if error is None:
            run_checks(model, model.sampler, model.tol)
        else:
            with pytest.raises(error):
                run_checks(model, model.sampler, model.tol)
        gc.collect()
        found = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert found == []


def cyclic_pairs(bundle, sampler, trial):
    """The (X, [Y, U]) pairs of one trial's cyclic sum, drawn as the
    prolonged bracket check draws them."""
    rng = np.random.default_rng(sampler.seed + 5005)
    for _ in range(trial + 1):
        Z, W, V = (random_prolong_section(bundle, rng) for _ in range(3))
    return ((Z, bracket_prolong(W, V)), (W, bracket_prolong(V, Z)), (V, bracket_prolong(Z, W)))


def built_cyclic_rows(report, trial, pairs, sampler, tol):
    """The symbolic route: the cyclic sum built, each component sampled."""
    total = functools.reduce(operator.add, (bracket_prolong(X, B) for X, B in pairs))
    for idx, component in enumerate(total.horizontal + total.vertical):
        residual_row(report, "cyclic-sum", (trial, idx), component, E.add(), sampler, tol)


@pytest.mark.parametrize("name", ["log_anchor", "sqrt_anchor"])
def test_valued_cyclic_sum_raises_the_built_sums_error(name):
    """Where the anchor leaves its domain, the valued rows raise the error,
    point and all, that the built sum raises."""
    model = load_model(MODELS / "domain" / f"{name}.model")
    for bundle in model.bundles.values():
        pairs = cyclic_pairs(bundle, model.sampler, 0)
        errors = []
        for route in (cyclic_sum_rows, built_cyclic_rows):
            with pytest.raises(E.EvaluationError) as err, E.shared_walks():
                route(CheckReport("cyclic"), 0, pairs, model.sampler, model.tol)
            errors.append((str(err.value), err.value.point))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("seed", range(1, 11))
def test_broken_compatibility_fails_the_same_cyclic_rows(broken, seed):
    """The valued rows fail where the built sum's rows fail."""
    bundle = broken.bundles["E"]
    sampler = E.Sampler(points=broken.sampler.points, seed=seed)
    report = verify.prolong_bracket_axioms_report(bundle, sampler, broken.tol)
    built = CheckReport("built")
    for trial in range(2):
        with E.shared_walks():
            built_cyclic_rows(built, trial, cyclic_pairs(bundle, sampler, trial), sampler, broken.tol)
    failed = [row.indices for row in report.rows if row.name == "cyclic-sum" and not row.passed]
    assert failed and not report.passed
    assert failed == [row.indices for row in built.rows if not row.passed]
