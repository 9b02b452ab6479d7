#!/usr/bin/env python3
"""Survey the bundled models: run the ``algebroids report-all`` plan on
each one and print a residual summary table.

Usage: python scripts/survey_models.py [--points N] [--seed N]

Exits 0 when every model but ``mismatched.model`` passes, 1 otherwise,
and 2 on a bad flag.
"""

import argparse
import pathlib
import sys
import time
from dataclasses import replace

from algebroids import load_model
from algebroids import verify

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def survey(path: pathlib.Path, points: int | None, seed: int | None) -> bool:
    model = load_model(path)
    sampler = model.sampler
    if points is not None:
        sampler = replace(sampler, points=points)
    if seed is not None:
        sampler = replace(sampler, seed=seed)
    tol = model.tol
    started = time.perf_counter()
    reports, extra = verify.report_all(model, sampler, tol)
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in reports)
    print(f"\n== {path.name}  [{'PASS' if ok else 'FAIL'}]  ({elapsed:.2f}s)")
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
    if args.points is not None and args.points < 1:
        # Sampled checks over no points would pass vacuously.
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return 2
    all_ok = True
    for path in sorted(MODELS.glob("*.model")):
        if path.name.startswith("broken") and not args.include_broken:
            continue
        ok = survey(path, args.points, args.seed)
        # the mismatched pair is bundled to fail; everything else must pass
        if not ok and path.name != "mismatched.model":
            all_ok = False
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
