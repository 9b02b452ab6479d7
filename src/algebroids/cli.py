"""Command-line interface over model files.

Exit codes: 0 all requested checks pass, 1 a check failed (a JSON
report is still written to stdout), 2 usage or model errors.
Diagnostics go to stderr, reports to stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import verify
from .expr import EvaluationError, Sampler
from .legendre import (
    NewtonConvergenceError,
    SingularJacobianError,
    phi_l,
    phi_h,
    solve_fiber,
    solve_fiber_h,
)
from .modelio import Model, ModelError, emit_report, load_model
from .prolong import (
    ProlongSection,
    Section,
    complete_lift,
    complete_lift_vf,
    vertical_lift,
    vertical_lift_vf,
)
from .reporting import CheckReport


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Checks and computations for generalized Lie algebroid models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("model", help="path to a model file")
        p.add_argument("--json", action="store_true", help="emit a JSON report only")
        p.add_argument("--seed", type=int, default=None, help="override the sampler seed")
        p.add_argument("--points", type=int, default=None, help="override the sampler point count")
        p.add_argument("--tol", type=float, default=None, help="override the model tolerance")

    p = sub.add_parser("validate", help="algebroid axioms and declared inverses")
    common(p)

    p = sub.add_parser("lift", help="lift a named section")
    common(p)
    p.add_argument("section")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--complete", action="store_true", default=True)
    mode.add_argument("--vertical", dest="complete", action="store_false")
    p.add_argument("--gh", action="store_true", help="emit the prolonged section instead of the vector field")

    p = sub.add_parser("bracket", help="bracket two named prolonged sections")
    common(p)
    p.add_argument("z")
    p.add_argument("w")

    p = sub.add_parser("legendre", help="apply the Legendre fiber map at a point")
    common(p)
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true", default=True)
    direction.add_argument("--backward", dest="forward", action="store_false")
    p.add_argument("--at", required=True, help="comma-separated name=value bindings; unset coordinates default to 0")

    for name in ("check-theorem18", "check-lift-brackets"):
        p = sub.add_parser(name, help="bracket identities of vertical and complete lifts")
        common(p)
        p.add_argument("--pairs", type=int, default=10, help="random section pairs per bundle")
        p.set_defaults(command="check-lift-brackets")

    p = sub.add_parser("check-duality", help="Legendre morphism conditions and equivalence verdict")
    common(p)

    p = sub.add_parser("report-all", help="run every applicable check")
    common(p)
    return parser


def _load(args) -> tuple[Model, Sampler, float]:
    if args.points is not None and args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    model = load_model(args.model)
    sampler = model.sampler
    if args.seed is not None:
        sampler = replace(sampler, seed=args.seed)
    if args.points is not None:
        sampler = replace(sampler, points=args.points)
    tol = args.tol if args.tol is not None else model.tol
    return model, sampler, tol


def _parse_point(text: str, allowed: Sequence[str]) -> dict[str, float]:
    point = {name: 0.0 for name in allowed}
    if not text.strip():
        return point
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in point:
            raise ValueError(f"unknown coordinate {name!r}; expected one of {list(allowed)}")
        point[name] = float(value)
        if not math.isfinite(point[name]):
            raise ValueError(f"coordinate {name!r} must be finite, got {value.strip()!r}")
    return point


def _finish(reports: list[CheckReport], args, extra: dict | None = None) -> int:
    ok = all(r.passed for r in reports)
    payload = emit_report(reports, {**(extra or {}), "pass": ok})
    if args.json:
        print(payload)
    else:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}  worst={r.worst_residual:.3e}")
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
        if not ok:
            print(payload)
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    model, sampler, tol = _load(args)
    return _finish(verify.axiom_reports(model, sampler, tol), args)


def _resolve_section(model: Model, name: str, want) -> object:
    if name not in model.sections:
        raise ModelError("unknown-bundle", f"no section named {name!r} in the model")
    section = model.sections[name]
    if not isinstance(section, want):
        raise ModelError("unknown-bundle", f"section {name!r} is not of the expected kind")
    return section


def _cmd_lift(args) -> int:
    model, _, _ = _load(args)
    section = _resolve_section(model, args.section, Section)
    if args.gh:
        lifted = complete_lift(section) if args.complete else vertical_lift(section)
    else:
        lifted = complete_lift_vf(section) if args.complete else vertical_lift_vf(section)
    if args.json:
        print(emit_report([], {"section": args.section, "lift": str(lifted)}))
    else:
        print(lifted)
    return 0


def _cmd_bracket(args) -> int:
    model, _, _ = _load(args)
    z = _resolve_section(model, args.z, ProlongSection)
    w = _resolve_section(model, args.w, ProlongSection)
    from .prolong import bracket_prolong

    out = bracket_prolong(z, w)
    if args.json:
        print(emit_report([], {"z": args.z, "w": args.w, "bracket": str(out)}))
    else:
        print(out)
    return 0


def _cmd_legendre(args) -> int:
    model, _, _ = _load(args)
    if args.forward:
        if model.lagrangian is None:
            print("error: the model has no [lagrangian] block", file=sys.stderr)
            return 2
        fn = model.lagrangian
        names = fn.base_vars + fn.fiber_vars
        point = _parse_point(args.at, names)
        x = [point[v] for v in fn.base_vars]
        y = [point[v] for v in fn.fiber_vars]
        image = phi_l(fn, x, y)
        solved = solve_fiber(fn, x, image)
        dual_names = (
            model.hamiltonian.fiber_vars
            if model.hamiltonian is not None
            else tuple(f"p{a + 1}" for a in range(fn.rank))
        )
        payload = {
            "point": point,
            "image": {name: float(v) for name, v in zip(dual_names, image)},
            "residual": float(np.abs(solved.solution - np.asarray(y)).max()),
            "iterations": solved.iterations,
        }
    else:
        if model.lagrangian is not None:
            fn = model.lagrangian
            dual_names = (
                model.hamiltonian.fiber_vars
                if model.hamiltonian is not None
                else tuple(f"p{a + 1}" for a in range(fn.rank))
            )
            names = fn.base_vars + tuple(dual_names)
            point = _parse_point(args.at, names)
            x = [point[v] for v in fn.base_vars]
            p = [point[v] for v in dual_names]
            solved = solve_fiber(fn, x, p)
            payload = {
                "point": point,
                "image": {name: float(v) for name, v in zip(fn.fiber_vars, solved.solution)},
                "residual": solved.residual,
                "iterations": solved.iterations,
            }
        elif model.hamiltonian is not None:
            fn = model.hamiltonian
            names = fn.base_vars + fn.fiber_vars
            point = _parse_point(args.at, names)
            x = [point[v] for v in fn.base_vars]
            p = [point[v] for v in fn.fiber_vars]
            image = phi_h(fn, x, p)
            solved = solve_fiber_h(fn, x, image)
            payload = {
                "point": point,
                "image": {f"y{a + 1}": float(v) for a, v in enumerate(image)},
                "residual": float(np.abs(solved.solution - np.asarray(p)).max()),
                "iterations": solved.iterations,
            }
        else:
            print("error: the model has no fundamental function", file=sys.stderr)
            return 2
    print(emit_report([], payload))
    return 0


def _cmd_lift_brackets(args) -> int:
    model, sampler, tol = _load(args)
    reports = []
    for bundle in model.bundles.values():
        if bundle.g is not None:
            reports.append(verify.lift_bracket_report(bundle, sampler, tol, args.pairs))
    if not reports:
        print("error: the model has no anchored bundle with fiber morphism", file=sys.stderr)
        return 2
    return _finish(reports, args)


def _duality_jsonable(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "pass": report.passed,
        "rows": [
            {
                "equationFamily": row.name,
                "indexTuple": list(row.indices),
                "worstResidual": row.residual,
                "pass": row.passed,
            }
            for row in report.rows
        ],
    }


def _cmd_duality(args) -> int:
    model, sampler, tol = _load(args)
    reports, equivalent = verify.duality_reports(model, sampler, 1e-10, tol)
    extra = {"verdict": "equivalent" if equivalent else "not-equivalent"}
    payload = emit_report([_duality_jsonable(r) for r in reports], extra)
    if args.json:
        print(payload)
    else:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}  worst={r.worst_residual:.3e}")
        print(f"verdict: {extra['verdict']}")
        if not equivalent:
            print(payload)
    return 0 if equivalent else 1


def _cmd_report_all(args) -> int:
    model, sampler, tol = _load(args)
    reports, extra = verify.report_all(model, sampler, tol)
    return _finish(reports, args, extra)


_COMMANDS = {
    "validate": _cmd_validate,
    "lift": _cmd_lift,
    "bracket": _cmd_bracket,
    "legendre": _cmd_legendre,
    "check-lift-brackets": _cmd_lift_brackets,
    "check-duality": _cmd_duality,
    "report-all": _cmd_report_all,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (
        ModelError,
        ValueError,
        OSError,
        EvaluationError,
        SingularJacobianError,
        NewtonConvergenceError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
