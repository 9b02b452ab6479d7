"""Command-line interface over model files.

Exit codes: 0 all requested checks pass, 1 a check failed (a JSON
report is still written to stdout), 2 usage or model errors.
Diagnostics go to stderr, reports to stdout.
"""

from __future__ import annotations

import argparse
import functools
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
    solve_fiber,
    solve_fiber_h,
)
from .modelio import Model, ModelError, emit_report, load_model
from .prolong import (
    ProlongSection,
    Section,
    bracket_prolong,
    complete_lift,
    complete_lift_vf,
    vertical_lift,
    vertical_lift_vf,
)
from .reporting import CheckReport


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, which lets go of its text once written: its
    root section points back at it, and each group's section at the root,
    cycles that only the garbage collector would free."""

    def format_help(self):
        text = super().format_help()
        self._root_section.items.clear()
        self._root_section = self._current_section = None
        return text


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line."""
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Checks and computations for generalized Lie algebroid models.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=_HelpFormatter),
    )

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


def load_run(args) -> tuple[Model, Sampler, float]:
    """The model of ``args.model`` with the sampler and tolerance that
    ``args.seed``, ``args.points`` and ``args.tol`` (each ``None`` to
    keep the model's) give, after the flag checks every command shares."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
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
    given: set[str] = set()
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in point:
            raise ValueError(f"unknown coordinate {name!r}; expected one of {list(allowed)}")
        if name in given:
            raise ValueError(f"coordinate {name!r} given twice")
        given.add(name)
        point[name] = float(value)
        if not math.isfinite(point[name]):
            raise ValueError(f"coordinate {name!r} must be finite, got {value.strip()!r}")
    return point


def _finish(reports: list[CheckReport], args, extra: dict) -> int:
    ok = all(r.passed for r in reports)
    payload = emit_report(reports, {**extra, "pass": ok})
    if args.json:
        print(payload)
    else:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}  worst={r.worst_residual:.3e}")
        for key, value in extra.items():
            print(f"{key}: {value}")
        if not ok:
            print(payload)
    return 0 if ok else 1


def _resolve_section(model: Model, name: str, want) -> object:
    if name not in model.sections:
        raise ModelError("unknown-bundle", f"no section named {name!r} in the model")
    section = model.sections[name]
    if not isinstance(section, want):
        raise ModelError("unknown-bundle", f"section {name!r} is not of the expected kind")
    return section


def _cmd_lift(args) -> int:
    model, _, _ = load_run(args)
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
    model, _, _ = load_run(args)
    z = _resolve_section(model, args.z, ProlongSection)
    w = _resolve_section(model, args.w, ProlongSection)
    out = bracket_prolong(z, w)
    if args.json:
        print(emit_report([], {"z": args.z, "w": args.w, "bracket": str(out)}))
    else:
        print(out)
    return 0


def _cmd_legendre(args) -> int:
    model, _, _ = load_run(args)
    lagrangian, hamiltonian = model.lagrangian, model.hamiltonian
    if args.forward and lagrangian is None:
        print("error: the model has no [lagrangian] block", file=sys.stderr)
        return 2
    if lagrangian is None and hamiltonian is None:
        print("error: the model has no fundamental function", file=sys.stderr)
        return 2
    if args.forward or lagrangian is None:
        # Map the fiber point through the fiber Hessian, solve back and
        # report the largest gap to where it started.
        fn, solve = (lagrangian, solve_fiber) if args.forward else (hamiltonian, solve_fiber_h)
        point = _parse_point(args.at, fn.base_vars + fn.fiber_vars)
        x = [point[v] for v in fn.base_vars]
        fiber = [point[v] for v in fn.fiber_vars]
        image = phi_l(fn, x, fiber)
        if not np.isfinite(image).all():
            raise ValueError("overflow to non-finite value: the Legendre image of the point is not finite")
        solved = solve(fn, x, image)
        # The image lies on the other side: the dual fiber of E, or E's.
        other = "p" if fn.variance == "primal" else "y"
        image_names = [f"{other}{a + 1}" for a in range(fn.rank)]
        residual = float(np.abs(solved.solution - np.asarray(fiber)).max())
    else:
        # Solve the momentum equations at the given dual fiber point.
        fn = lagrangian
        dual = tuple(f"p{a + 1}" for a in range(fn.rank))
        point = _parse_point(args.at, fn.base_vars + dual)
        solved = solve_fiber(fn, [point[v] for v in fn.base_vars], [point[v] for v in dual])
        image, image_names, residual = solved.solution, fn.fiber_vars, solved.residual
    payload = {
        "point": point,
        "image": {name: float(v) for name, v in zip(image_names, image)},
        "residual": residual,
        "iterations": solved.iterations,
    }
    print(emit_report([], payload))
    return 0


# The checks of verify.PLAN each check command runs; None is all that apply.
_CHECKS = {
    "validate": ("axioms",),
    "check-lift-brackets": ("lift-brackets",),
    "check-duality": ("duality",),
    "report-all": None,
}


def _cmd_check(args) -> int:
    pairs = getattr(args, "pairs", None)
    # No pairs would pass vacuously.
    if pairs is not None and pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {pairs}")
    model, sampler, tol = load_run(args)
    reports, extra = verify.run_checks(model, sampler, tol, _CHECKS[args.command], pairs)
    return _finish(reports, args, extra)


_COMMANDS = {
    "lift": _cmd_lift,
    "bracket": _cmd_bracket,
    "legendre": _cmd_legendre,
    **dict.fromkeys(_CHECKS, _cmd_check),
}


# main's parser, built at its first call: parsing leaves a parser as it
# was, so one serves every call in the process.
_main_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command ``argv`` (default: ``sys.argv[1:]``) and give its
    exit code; it can be called any number of times in one process."""
    try:
        args = _main_parser().parse_args(argv)
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
    except MemoryError as err:
        # A sampler too large to allocate: numpy names the array it
        # could not make, a bare MemoryError names nothing.
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
