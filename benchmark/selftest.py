"""Self-test of the benchmark harness: each check accepts the program's
real answers and rejects perturbed ones.

    python3 benchmark/selftest.py

Run from the root of a checkout; exits 0 when every test holds.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.chdir(ROOT)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from refclock import R0, RefClock  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads run.py knows")
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER,
        "BENCHMARK.json per_layer matches the metrics the traced run prints",
    )
    expect(
        [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "op_p50_ms", "peak_rss_mb"],
        "BENCHMARK.json end_to_end lists the four end-to-end metrics",
    )


def test_clock() -> None:
    clock = RefClock()
    clock.sample_at.extend([0.0, 1.0, 2.0])
    clock.sample_s.extend([R0, 2 * R0, 2 * R0])
    expect(abs(clock.scaled(1.0, 2.0) - 0.5) < 1e-12, "a machine at half speed halves the scaled time")
    expect(abs(clock.scaled(0.0, 1.0) - 1.0 / 1.5) < 1e-12, "between samples the mean loop time is used")
    expect(abs(clock.scaled(2.5, 3.0) - 0.25) < 1e-12, "after the last sample its loop time is used")


def test_node_counts() -> None:
    from algebroids import parse

    x = parse("x1")
    s = x + x  # Sum(x1, x1): identity-shared child
    e = parse("x1*x2 + x1*x2")  # two structurally equal, identity-distinct products
    expect(spans.tree_nodes([s]) == 3 and spans.dag_nodes([s]) == 2, "tree and DAG sizes of x1 + x1")
    expect(spans.distinct_nodes([e]) == 4 and spans.dag_nodes([e]) >= 4, "structurally distinct nodes of x1*x2 + x1*x2")


def report_output(model: str, seed: int) -> tuple[int, str]:
    from algebroids.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["report-all", run.model_path(model), "--json", "--seed", str(seed)])
    return code, out.getvalue()


def perturbed(stdout: str, change) -> str:
    payload = json.loads(stdout)
    change(payload)
    return json.dumps(payload)


def first_row(payload: dict, report: str, check: str | None = None) -> dict:
    rep = next(r for r in payload["checks"] if r["name"] == report)
    return next(row for row in rep["rows"] if check is None or row["check"] == check)


def test_report_checks() -> None:
    texts = {m: run.read(run.model_path(m)) for m in ("classical", "mismatched", "broken_compatibility")}
    real = {m: report_output(m, 7) for m in texts}
    for m, (code, stdout) in real.items():
        problems = checks.check_report(m, texts[m], code, stdout)
        expect(not problems, f"{m}: the real report is accepted {problems[:2]}")

    def rejects(model: str, label: str, change, code: int | None = None) -> None:
        real_code, stdout = real[model]
        problems = checks.check_report(model, texts[model], real_code if code is None else code, perturbed(stdout, change))
        expect(bool(problems), f"{model}: rejects {label}")

    def fail_row(p):
        row = first_row(p, "lift-brackets E")
        row["pass"], row["residual"] = False, 1.0
        next(r for r in p["checks"] if r["name"] == "lift-brackets E")["pass"] = False

    rejects("classical", "a failing lift-bracket row", fail_row)
    rejects("classical", "a flipped verdict", lambda p: p.update(verdict="not-equivalent"))
    rejects("classical", "a missing report", lambda p: p["checks"].pop())
    rejects("classical", "exit code 1", lambda p: None, code=1)
    rejects("mismatched", "an equivalent verdict", lambda p: p.update(verdict="equivalent"))
    rejects("mismatched", "a passing round-trip row", lambda p: first_row(p, "legendre-round-trip").update({"pass": True}))

    def compat(value):
        def change(p):
            first_row(p, "anchor-compatibility", "compatibility")["residual"] = value
        return change

    rejects("broken_compatibility", "a compatibility residual of 0.5000000001", compat(0.5000000001))

    def jacobi_pass(p):
        rep = next(r for r in p["checks"] if r["name"] == "jacobi")
        for row in rep["rows"]:
            row["pass"] = True
        rep["pass"] = True

    rejects("broken_compatibility", "a Jacobi report that passes", jacobi_pass)


def test_solve_checks() -> None:
    import algebroids

    maps = run.fiber_maps()
    job = run.solve_job(3, maps)
    models = {key: algebroids.load_model(run.model_path(key.split(".")[0])) for key in maps}
    rng = np.random.default_rng(0)
    for key, fmap in maps.items():
        model = models[key]
        fn = model.lagrangian if key.endswith(".L") else model.hamiltonian
        solve = algebroids.solve_fiber if key.endswith(".L") else algebroids.solve_fiber_h
        ops = [op for op in job["ops"] if op["fn"] == key and not op["known_fault"]][:40]
        x = np.array([op["x"] for op in ops])
        target = np.array([op["target"] for op in ops])
        sol = np.array([solve(fn, op["x"], op["target"]).solution for op in ops])
        expect(bool(fmap.check(x, target, sol).all()), f"{key}: the program's solutions are accepted")
        bumped = sol * (1.0 + 1e-6 * rng.choice([-1.0, 1.0], sol.shape))
        expect(not fmap.check(x, target, bumped).any(), f"{key}: solutions off by 1e-6 relative are rejected")
    # The same through run.check_solves, on a round laid out as the worker does.
    ops = [op for key in maps for op in [o for o in job["ops"] if o["fn"] == key][:3]]
    ops += [op for op in job["ops"] if op["known_fault"]]
    solutions, errors = [], []
    for index, op in enumerate(ops):
        model = models[op["fn"]]
        fn = model.lagrangian if op["fn"].endswith(".L") else model.hamiltonian
        solve = algebroids.solve_fiber if op["fn"].endswith(".L") else algebroids.solve_fiber_h
        try:
            solutions += solve(fn, op["x"], op["target"]).solution.tolist()
        except algebroids.NewtonConvergenceError as err:
            errors.append([index, type(err).__name__, str(err)])
            solutions += [float("nan")] * len(op["target"])
    rnd = {"outputs": {"solutions": solutions, "errors": errors}}
    problems, failed, notes = run.check_solves({"ops": ops}, [rnd], maps)
    expect(
        not problems and not notes and failed == len(run.KNOWN_FAULT_POINTS),
        f"check_solves accepts a real round; the {len(run.KNOWN_FAULT_POINTS)} known-fault quartic points fail ({failed})",
    )
    solutions[0] += 1e-6
    problems, _, _ = run.check_solves({"ops": ops}, [{"outputs": {"solutions": solutions, "errors": errors}}], maps)
    expect(len(problems) == 1, "check_solves rejects a round with one perturbed solution")


def main() -> int:
    test_benchmark_json()
    test_clock()
    test_node_counts()
    test_report_checks()
    test_solve_checks()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
