import gc
import pathlib

import pytest

from algebroids import expr as E
from algebroids import load_model, parse_model
from algebroids import verify
from algebroids.verify import PLAN, derivative_oracle_report, model_expressions, run_checks

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
