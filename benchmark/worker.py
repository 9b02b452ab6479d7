"""The measured process: one workload, one process, one thread.

``--phase setup`` times ``import algebroids`` plus loading the workload's
models in this fresh interpreter and prints one JSON line.

``--phase run`` reads the operation list (JSON) from stdin, loads the
models, runs whole rounds of the operations until the time budget is
spent and prints one JSON line with the outputs and the timings.  With
``trace`` set it first runs untraced rounds for half the budget, then
installs the span wrappers (see ``spans.py``), loads the models again
and runs traced rounds for the rest.

Nothing here checks outputs; ``run.py`` does that after this process
has ended, so checking is never timed and never counted in its memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refclock import RefClock  # noqa: E402

def import_program():
    """Import ``algebroids`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "algebroids", "__init__.py")):
        raise SystemExit(f"error: no algebroids package under {src}")
    sys.path.insert(0, src)
    import algebroids
    import algebroids.cli
    import algebroids.legendre

    if not os.path.abspath(algebroids.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: algebroids was imported from {algebroids.__file__}, not {src}")
    return algebroids


def load_models(algebroids, paths: list[str]) -> dict:
    return {path: algebroids.load_model(path) for path in paths}


def fiber_functions(models: dict) -> dict:
    """``"<model>.L"`` / ``"<model>.H"`` -> (fundamental function, solver name)."""
    out = {}
    for path, model in models.items():
        name = os.path.splitext(os.path.basename(path))[0]
        if model.lagrangian is not None:
            out[f"{name}.L"] = (model.lagrangian, "solve_fiber")
        if model.hamiltonian is not None:
            out[f"{name}.H"] = (model.hamiltonian, "solve_fiber_h")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Rounds


class ReportRounds:
    """``algebroids report-all <model> --json --seed <s>``, in process."""

    def __init__(self, algebroids, job: dict) -> None:
        self.algebroids = algebroids
        self.argvs = [["report-all", op["model"], "--json", "--seed", str(op["seed"])] for op in job["ops"]]

    def setup(self, models: dict) -> None:
        pass

    def run(self, clock: RefClock, spans: array) -> dict:
        main = self.algebroids.cli.main
        codes, stdout, stderr = [], [], []
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            start = clock.net()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            spans.append(start)
            spans.append(clock.net())
            codes.append(code)
            stdout.append(out.getvalue())
            stderr.append(err.getvalue())
        return {"codes": codes, "stdout": stdout, "stderr": stderr}


class SolveRounds:
    """Fiber solves through ``solve_fiber`` / ``solve_fiber_h``."""

    def __init__(self, algebroids, job: dict) -> None:
        self.algebroids = algebroids
        self.ops = [(op["fn"], tuple(op["x"]), tuple(op["target"])) for op in job["ops"]]

    def setup(self, models: dict) -> None:
        self.functions = fiber_functions(models)

    def run(self, clock: RefClock, spans: array) -> dict:
        legendre = self.algebroids.legendre
        failures = (legendre.NewtonConvergenceError, legendre.SingularJacobianError)
        solvers = {name: getattr(legendre, name) for name in ("solve_fiber", "solve_fiber_h")}
        calls = [(self.functions[key][0], solvers[self.functions[key][1]], x, target) for key, x, target in self.ops]
        solutions = array("d")
        errors = []
        for index, (fn, solve, x, target) in enumerate(calls):
            start = clock.net()
            try:
                solution = solve(fn, x, target).solution
            except failures as err:
                solution = None
                errors.append([index, type(err).__name__, str(err)])
            spans.append(start)
            spans.append(clock.net())
            if solution is None:
                solutions.extend([float("nan")] * len(target))
            else:
                solutions.extend(float(v) for v in solution)
        return {"solutions": solutions, "errors": errors}


def run_rounds(runner, clock: RefClock, budget: float, phase: str) -> list[dict]:
    """Whole rounds until the next one would overrun ``budget`` seconds
    of wall time; always at least one."""
    rounds = []
    began = time.perf_counter()
    while True:
        wall0 = time.perf_counter()
        spans = array("d")
        start = clock.net()
        outputs = runner.run(clock, spans)
        end = clock.net()
        ops = [clock.scaled(spans[i], spans[i + 1]) for i in range(0, len(spans), 2)]
        rounds.append(
            {
                "phase": phase,
                "raw_s": end - start,
                "scaled_s": clock.scaled(start, end),
                "op_raw_s": [spans[i + 1] - spans[i] for i in range(0, len(spans), 2)],
                "op_scaled_s": ops,
                "outputs": outputs,
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        last = time.perf_counter() - wall0
        if time.perf_counter() - began + last > budget:
            return rounds


# ---------------------------------------------------------------------------
# Phases


def phase_setup(workload_paths: list[str]) -> dict:
    clock = RefClock()
    clock.start()
    start = clock.net()
    algebroids = import_program()
    load_models(algebroids, workload_paths)
    end = clock.net()
    clock.stop()
    return {"raw_s": end - start, "scaled_s": clock.scaled(start, end), "loop_ms": clock.loop_ms()}


def phase_run(job: dict) -> dict:
    clock = RefClock()
    clock.start()
    algebroids = import_program()
    runner = (SolveRounds if job["workload"] == "legendre-solve" else ReportRounds)(algebroids, job)
    runner.setup(load_models(algebroids, job["models"]))
    seconds = float(job["seconds"])
    result: dict = {}
    if not job["trace"]:
        result["rounds"] = run_rounds(runner, clock, seconds, "untraced")
    else:
        from spans import Tracer

        began = time.perf_counter()
        rounds = run_rounds(runner, clock, seconds / 2.0, "untraced")
        tracer = Tracer(clock)
        tracer.install()
        setup_start = clock.net()
        runner.setup(load_models(algebroids, job["models"]))
        setup_end = clock.net()
        mark = tracer.mark()
        tracer.counters.clear()
        remaining = max(seconds - (time.perf_counter() - began), 0.0)
        traced = run_rounds(runner, clock, remaining, "traced")
        tracer.uninstall()
        result["rounds"] = rounds + traced
        result["trace"] = summarize_trace(tracer, clock, (setup_start, setup_end), mark, traced)
        os.makedirs(job["out_dir"], exist_ok=True)
        tracer.dump(
            os.path.join(job["out_dir"], f"trace-{job['workload']}-seed{job['seed']}.json"),
            {"workload": job["workload"], "seed": job["seed"], "setup_spans_end": mark},
        )
    clock.stop()
    result["loop_ms"] = clock.loop_ms()
    return result


def summarize_trace(tracer, clock: RefClock, setup: tuple[float, float], mark: int, traced: list[dict]) -> dict:
    """Per-layer figures: set-up spans from the traced set-up (inclusive
    time), everything else per traced round (self time).  Seconds are
    reference-scaled with the mean factor of the phase they were
    measured in."""
    from spans import SETUP_SPANS, p99

    n_rounds = len(traced)
    raw = sum(r["raw_s"] for r in traced)
    factor = sum(r["scaled_s"] for r in traced) / raw if raw > 0 else 1.0
    setup_raw = setup[1] - setup[0]
    setup_factor = clock.scaled(*setup) / setup_raw if setup_raw > 0 else 1.0
    round_s, round_calls = tracer.self_seconds(mark, tracer.mark())
    out: dict[str, float] = {}
    for name in tracer.names:
        if name in SETUP_SPANS:  # inclusive: a set-up stage with its children
            out[f"{name}.s"] = sum(tracer.durations_ms(name, 0, mark)) / 1000.0 * setup_factor
        else:
            out[f"{name}.s"] = round_s[name] * factor / n_rounds
        out[f"{name}.calls"] = round_calls[name] / n_rounds
        if name.startswith("legendre.solve_fiber"):
            out[f"{name}.p99_ms"] = p99(tracer.durations_ms(name, mark, tracer.mark())) * factor
    for key, value in tracer.counters.items():
        out[key] = value / n_rounds
    out["cli.main.self_s"] = out["cli.main.s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--models", nargs="*", default=[], help="model files to load (setup phase)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.phase == "setup":
        result = phase_setup(args.models)
    else:
        result = phase_run(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result, default=array.tolist) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
