#!/usr/bin/env python3
"""Compare what two source trees print for the same commands.

At each seed S, runs ``report-all``, ``validate``,
``check-lift-brackets`` and ``check-duality`` with ``--json --seed S``
on every bundled model plus ``benchmark/models/rotation.model``.
``check-lift-brackets`` runs its default 10 pairs, so it reaches rows
that the 3 trials of ``report-all`` never build.  Then runs ``lift u``,
``lift u --gh`` and ``lift u --vertical`` on each of those models that
defines section ``u``, and prints ``format_model(load_model(path))`` of
each model.  Every run happens once with each ``src/`` directory on
``PYTHONPATH``.  Prints one line per run: whether stdout is
byte-identical, both exit codes and, where the outputs differ, the
first differing row.  The model files come from this checkout, so only
the program differs.  Exits 0 when every run is identical with the
same exit code, 1 otherwise.

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


CHECKS = ("report-all", "validate", "check-lift-brackets", "check-duality")
LIFT_FLAGS = ((), ("--gh",), ("--vertical",))
CLI = ["-m", "algebroids.cli"]
FORMAT = [
    "-c",
    "import sys; from algebroids import format_model, load_model; print(format_model(load_model(sys.argv[1])))",
]


def start(src: pathlib.Path, argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def runs(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(label, interpreter arguments) of every run to compare."""
    out = []
    for seed in seeds:
        for model in MODELS:
            for check in CHECKS:
                argv = [*CLI, check, str(model), "--json", "--seed", str(seed)]
                out.append((f"seed {seed}  {check}  {model.relative_to(ROOT)}", argv))
    for model in MODELS:
        lines = model.read_text(encoding="utf-8").splitlines()
        if any(line.split("#")[0].strip() == "[section u]" for line in lines):
            for flags in LIFT_FLAGS:
                label = " ".join(("lift u", *flags))
                out.append((f"{label}  {model.relative_to(ROOT)}", [*CLI, "lift", str(model), "u", *flags]))
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
        if err_a != err_b:
            print(f"  stderr A: {err_a.decode('utf-8', 'replace').strip()}")
            print(f"  stderr B: {err_b.decode('utf-8', 'replace').strip()}")
    print("identical" if same_everywhere else "reports differ")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
