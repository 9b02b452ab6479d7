#!/usr/bin/env python3
"""Survey the bundled models: run every check of ``algebroids.verify.PLAN``
that applies to each one, as ``algebroids report-all`` does, and print a
residual summary table.

Usage: python scripts/survey_models.py [--points N] [--seed N] [--include-broken]

Exits 0 when every model but ``mismatched.model`` passes, 1 otherwise,
and 2 with one ``error:`` line on a flag that ``algebroids`` rejects.
"""

import argparse
import pathlib
import sys
import time

from algebroids import verify
from algebroids.cli import load_run

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def survey(name: str, model, sampler, tol: float) -> bool:
    started = time.perf_counter()
    reports, extra = verify.run_checks(model, sampler, tol)
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in reports)
    print(f"\n== {name}  [{'PASS' if ok else 'FAIL'}]  ({elapsed:.2f}s)")
    for report in reports:
        flag = "." if report.passed else "X"
        print(f"  [{flag}] {report.name:<46} worst={report.worst_residual:.3e}")
    for label, info in extra.get("homogeneity", {}).items():
        print(f"      homogeneity[{label}]: verdict={info['verdict']} euler={info['eulerResidual']:.2e}")
    if "verdict" in extra:
        print(f"      legendre verdict: {extra['verdict']}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--include-broken", action="store_true")
    args = parser.parse_args()
    all_ok = True
    for path in sorted(MODELS.glob("*.model")):
        if path.name.startswith("broken") and not args.include_broken:
            continue
        try:
            run = load_run(argparse.Namespace(model=path, seed=args.seed, points=args.points, tol=None))
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        ok = survey(path.name, *run)
        # the mismatched pair is bundled to fail; everything else must pass
        if not ok and path.name != "mismatched.model":
            all_ok = False
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
