#!/usr/bin/env python3
"""Compare what two source trees print for the same commands.

At each seed S, runs ``report-all``, ``validate``,
``check-lift-brackets`` and ``check-duality`` with ``--json --seed S``
on every bundled model plus ``benchmark/models/rotation.model``, and
``report-all``, ``validate`` and ``check-lift-brackets`` on the models
under ``models/domain``, whose anchors leave a function's domain at
sampled points, so that the error each run raises is compared too.
``check-lift-brackets`` runs its default 10 pairs, so it reaches rows
that the 3 trials of ``report-all`` never build.  Then runs ``lift u``,
``lift u --gh`` and ``lift u --vertical`` on each of those models that
defines section ``u``, ``bracket w w`` on each that defines section
``w`` on TE, ``legendre --forward`` and ``legendre --backward`` at one
fixed point on each with a fundamental function, and on each such model
one run of ``SOLVE_DIGEST``, which prints a SHA-256 of 300 seeded
``solve_fiber``/``solve_fiber_h`` outcomes per fundamental function,
targets from 1e-12 to 1e7 in magnitude, so that the fiber solver is
compared bit for bit, errors included, over thousands of solves, and
``legendre --forward`` of ``models/quartic.model`` at the four points
with one tiny fiber component (``TINY_COMPONENT_POINTS`` of
``tests/test_legendre.py``), where the fiber solve halves its Newton
steps, so that the line search is compared too, and
``legendre --backward`` of it at the two momenta of ``FAR_TARGETS``,
whose fiber points lie far from the target the solve starts at, so
that a change of the start rule shows up in those runs, and
``legendre --backward`` of ``models/diag_quadratic.model`` at
``p1=9e307``, whose residual at the target overflows, so that the solve
starts from the target solved with the Hessian there.  Then runs
``validate`` once on each rejected model under ``models/negative``, so
that each model-error line is compared too.  Last, prints
``format_model(load_model(path))`` of each model.  Every run happens
once with each ``src/`` directory on ``PYTHONPATH``.  Prints one line
per run: ``same`` when stdout, stderr and the exit code are all
identical, else ``DIFF``, then both exit codes and, where the outputs
differ, the first differing row and, for each report whose rows differ,
how many rows differ, how many ``pass`` flags changed, the largest
absolute residual move and how many witnesses moved, and both stderr
texts where those differ.  The model files come from this
checkout, so only the program differs.  The last line is
``identical`` when every run is the same, and the exit code 0; else it
is ``reports differ``, and the exit code 1.

Usage: python scripts/compare_reports.py SRC_A SRC_B [--seeds 1 5]
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.model")) + [ROOT / "benchmark" / "models" / "rotation.model"]
DOMAIN_MODELS = sorted((ROOT / "models" / "domain").glob("*.model"))
NEGATIVE_MODELS = sorted((ROOT / "models" / "negative").glob("*.model"))


CHECKS = ("report-all", "validate", "check-lift-brackets", "check-duality")
DOMAIN_CHECKS = ("report-all", "validate", "check-lift-brackets")
LIFT_FLAGS = ((), ("--gh",), ("--vertical",))
CLI = ["-m", "algebroids.cli"]
# (x, fiber point) pairs of the quartic model with one tiny fiber
# component, as in tests/test_legendre.py.
TINY_COMPONENT_POINTS = (
    ((0.25148674696807305, -0.9517172060921748), (-0.0006335525294218769, -0.8092593911529846)),
    ((0.8462014501146409, -0.13232356825612035), (1.8389560759148185, 0.00023203640609636977)),
    ((-0.9802622984722804, -0.8229347930547024), (-0.00034480387515056776, -0.003180360377507796)),
    ((0.007177073363783926, -0.01471327051998017), (2.5344266412208327e-05, 1.2607156030427262)),
)
# Momenta of the quartic model whose backward solve fails from the
# target: no convergence within the iteration limit at p1 = 1e20, and a
# range error at a start point of y1 = 1e200 at p1 = 1e200.
FAR_TARGETS = ("p1=1e20,p2=1", "p1=1e200,p2=1")
# A momentum of models/diag_quadratic.model whose residual at the start
# overflows; the solve starts instead from y1 = 4.5e307.
OVERFLOW_START = "p1=9e307"
FORMAT = [
    "-c",
    "import sys; from algebroids import format_model, load_model; print(format_model(load_model(sys.argv[1])))",
]
# Seeded fiber solves of each fundamental function of the model at
# argv[1]: argv[3] (x, target) pairs drawn from seed argv[2], x uniform in
# [-2, 2] and each target component of magnitude 1e-12 to 1e7, log-uniform,
# with a random sign.  Prints, per function, how many solves failed and
# the SHA-256 of one line per solve: the solution, iterations and residual
# by ``float.hex``, or the error's class and message.
SOLVE_DIGEST = [
    "-c",
    r"""
import hashlib, sys
import numpy as np
from algebroids import (
    EvaluationError, NewtonConvergenceError, SingularJacobianError, load_model, solve_fiber, solve_fiber_h,
)
model, seed, n = load_model(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
for kind, f, solve in (("L", model.lagrangian, solve_fiber), ("H", model.hamiltonian, solve_fiber_h)):
    if f is None:
        continue
    rng = np.random.default_rng(seed)
    digest, failed = hashlib.sha256(), 0
    for _ in range(n):
        x = rng.uniform(-2.0, 2.0, len(f.base_vars)).tolist()
        target = (rng.choice([-1.0, 1.0], f.rank) * 10.0 ** rng.uniform(-12.0, 7.0, f.rank)).tolist()
        try:
            out = solve(f, x, target)
        except (EvaluationError, NewtonConvergenceError, SingularJacobianError) as err:
            failed += 1
            line = f"{type(err).__name__}: {err}"
        else:
            line = " ".join([*map(float.hex, out.solution.tolist()), str(out.iterations), float(out.residual).hex()])
        digest.update(line.encode() + b"\n")
    print(f"{kind}: {n} solves, {failed} failed, sha256 {digest.hexdigest()}")
""",
]
SOLVE_SEED, SOLVES = 0, 300


def start(src: pathlib.Path, argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def blocks(model: pathlib.Path) -> dict[str, dict[str, str]]:
    """``key = value`` entries of each ``[block]`` header of a model file."""
    out: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in model.read_text(encoding="utf-8").splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            current = out.setdefault(line, {})
        elif "=" in line:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return out


def legendre_point(spec: dict[str, dict[str, str]], fiber: str) -> str:
    """A fixed ``--at`` point away from the fiber origin, where the
    bundled Hessians are regular: every x_i = 0.5, fiber coordinates
    alternating 0.8 and -0.6."""
    bundle = spec.get("[bundle E]") or spec["[bundle Edual]"]
    dim, rank = int(spec["[base M]"]["dim"]), int(bundle["rank"])
    xs = [f"x{i + 1}=0.5" for i in range(dim)]
    fibers = [f"{fiber}{a + 1}={0.8 if a % 2 == 0 else -0.6}" for a in range(rank)]
    return ",".join(xs + fibers)


def runs(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, interpreter arguments) of every run to compare."""
    out = []
    for seed in seeds:
        for models, checks in ((MODELS, CHECKS), (DOMAIN_MODELS, DOMAIN_CHECKS)):
            for model in models:
                for check in checks:
                    argv = [*CLI, check, str(model), "--json", "--seed", str(seed)]
                    out.append((f"seed {seed}  {check}  {model.relative_to(ROOT)}", argv))
    for model in MODELS:
        spec, name = blocks(model), model.relative_to(ROOT)
        if "[section u]" in spec:
            for flags in LIFT_FLAGS:
                label = " ".join(("lift u", *flags))
                out.append((f"{label}  {name}", [*CLI, "lift", str(model), "u", *flags]))
        if spec.get("[section w]", {}).get("on") == "TE":
            out.append((f"bracket w w  {name}", [*CLI, "bracket", str(model), "w", "w"]))
        if "[lagrangian]" in spec or "[hamiltonian]" in spec:
            for flag, fiber in (("--forward", "y"), ("--backward", "p")):
                at = legendre_point(spec, fiber)
                out.append((f"legendre {flag} --at {at}  {name}", [*CLI, "legendre", str(model), flag, "--at", at]))
            out.append((f"solve digest  {name}", [*SOLVE_DIGEST, str(model), str(SOLVE_SEED), str(SOLVES)]))
    quartic = ROOT / "models" / "quartic.model"
    for x, y in TINY_COMPONENT_POINTS:
        at = ",".join(f"{name}{i + 1}={v!r}" for name, vs in (("x", x), ("y", y)) for i, v in enumerate(vs))
        out.append((f"legendre --forward --at {at}  {quartic.relative_to(ROOT)}", [*CLI, "legendre", str(quartic), "--forward", "--at", at]))
    for at in FAR_TARGETS:
        out.append((f"legendre --backward --at {at}  {quartic.relative_to(ROOT)}", [*CLI, "legendre", str(quartic), "--backward", "--at", at]))
    diag = ROOT / "models" / "diag_quadratic.model"
    out.append((f"legendre --backward --at {OVERFLOW_START}  {diag.relative_to(ROOT)}", [*CLI, "legendre", str(diag), "--backward", "--at", OVERFLOW_START]))
    for model in NEGATIVE_MODELS:
        out.append((f"validate  {model.relative_to(ROOT)}", [*CLI, "validate", str(model)]))
    for model in MODELS:
        out.append((f"format_model  {model.relative_to(ROOT)}", [*FORMAT, str(model)]))
    return out


def rows(text: bytes) -> list[tuple[str, object]]:
    """(label, value) of every row and summary field of a report."""
    try:
        report = json.loads(text)
    except ValueError:
        return [("stdout", text.decode("utf-8", "replace"))]
    out = []
    for check in report.get("checks", []):
        for row in check.get("rows", []):
            out.append((f"{check['name']}: {row.get('check')} {row.get('index')}", row))
        out.append((f"{check['name']}: pass", check.get("pass")))
    for key, value in report.items():
        if key != "checks":
            out.append((key, value))
    return out


def first_difference(a: bytes, b: bytes) -> str:
    left, right = rows(a), rows(b)
    for (label, x), (_, y) in zip(left, right):
        if x != y:
            return f"{label}\n    A: {json.dumps(x)}\n    B: {json.dumps(y)}"
    return f"row counts differ: {len(left)} against {len(right)}"


def report_differences(a: bytes, b: bytes) -> list[str]:
    """One line per report whose rows differ: its name, how many of its
    rows differ, how many of its ``pass`` flags (rows and report)
    changed, the largest absolute move of a row's residual (a NaN move
    counts as the largest) and how many rows' witnesses moved."""
    try:
        left, right = json.loads(a), json.loads(b)
    except ValueError:
        return []
    out = []
    for x, y in zip(left.get("checks", []), right.get("checks", [])):
        pairs = list(zip(x.get("rows", []), y.get("rows", [])))
        differing = sum(r != s for r, s in pairs) + abs(len(x.get("rows", [])) - len(y.get("rows", [])))
        if differing:
            flips = sum(r.get("pass") != s.get("pass") for r, s in pairs) + (x.get("pass") != y.get("pass"))
            moves = [abs(r["residual"] - s["residual"]) for r, s in pairs]
            move = max(moves, key=lambda m: (m != m, m), default=0.0)
            witnesses = sum(r.get("witness") != s.get("witness") for r, s in pairs)
            out.append(
                f"{x['name']}: {differing} rows differ, {flips} pass flags changed, "
                f"largest residual move {move:.3g}, {witnesses} witnesses moved"
            )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src_a", type=pathlib.Path, help="first src/ directory")
    parser.add_argument("src_b", type=pathlib.Path, help="second src/ directory")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    args = parser.parse_args()
    for src in (args.src_a, args.src_b):
        if not (src / "algebroids").is_dir():
            print(f"error: {src} holds no algebroids package", file=sys.stderr)
            return 2
    same_everywhere = True
    for label, argv in runs(args.seeds):
        # Both sides run at once; each is one process.
        procs = [start(src, argv) for src in (args.src_a, args.src_b)]
        (out_a, err_a), (out_b, err_b) = (proc.communicate() for proc in procs)
        code_a, code_b = (proc.returncode for proc in procs)
        same = out_a == out_b and err_a == err_b and code_a == code_b
        same_everywhere &= same
        verdict = "same" if same else "DIFF"
        print(f"{verdict}  {label}  exit {code_a}/{code_b}  {len(out_a)}/{len(out_b)} bytes")
        if out_a != out_b:
            print(f"  first difference: {first_difference(out_a, out_b)}")
            for line in report_differences(out_a, out_b):
                print(f"  {line}")
        if err_a != err_b:
            print(f"  stderr A: {err_a.decode('utf-8', 'replace').strip()}")
            print(f"  stderr B: {err_b.decode('utf-8', 'replace').strip()}")
    print("identical" if same_everywhere else "reports differ")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
