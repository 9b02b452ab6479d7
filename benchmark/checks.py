"""Output checks that do not depend on the program.

Report verdicts are compared with the table derived by hand in
README.md ("Expected verdicts").  Fiber solves are checked against the
fiber map y . Hess L(y) (or p . Hess H(p)) rebuilt with sympy from the
model file's own ``L =`` / ``H =`` line.  Nothing here imports
``algebroids``.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The solver's documented convergence test is
# max|residual| <= NEWTON_TOL * (1 + max|target|); the sympy evaluation
# of the fiber map may differ from the program's by rounding, allowed
# for by ROUNDING * (1 + max_b sum_a |v_a H_ab|).
NEWTON_TOL = 1e-10
ROUNDING = 1e-12

# ---------------------------------------------------------------------------
# Model text


def model_blocks(text: str) -> dict[str, dict[str, str]]:
    """``[block]`` -> {key: value} for the ``key = value`` lines of a model file."""
    blocks: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = blocks.setdefault(line.strip("[]").strip(), {})
        elif current is not None and "=" in line:
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return blocks


class FiberMap:
    """v -> v . Hess_v f(x, v) for one fundamental function f, built with sympy."""

    def __init__(self, text: str, kind: str) -> None:
        import sympy

        blocks = model_blocks(text)
        m = int(blocks["base M"]["dim"])
        if kind == "L":
            source, bundle, prefix = blocks["lagrangian"]["L"], "bundle E", "y"
        else:
            source, bundle, prefix = blocks["hamiltonian"]["H"], "bundle Edual", "p"
        r = int(blocks[bundle]["rank"])
        xs = sympy.symbols(" ".join(f"x{i + 1}" for i in range(m)) + ",")
        vs = sympy.symbols(" ".join(f"{prefix}{a + 1}" for a in range(r)) + ",")
        names = {str(s): s for s in xs + vs}
        f = sympy.sympify(source.replace("^", "**"), locals=names)
        self.m, self.r = m, r
        self.hessian = [
            [sympy.lambdify([xs, vs], sympy.diff(f, vs[a], vs[b]), "numpy") for b in range(r)]
            for a in range(r)
        ]

    def hessian_at(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessians at N points: x is (N, m), v is (N, r); returns (N, r, r)."""
        n = x.shape[0]
        out = np.empty((n, self.r, self.r))
        for a in range(self.r):
            for b in range(self.r):
                value = self.hessian[a][b](tuple(x.T), tuple(v.T))
                out[:, a, b] = np.broadcast_to(np.asarray(value, dtype=float), (n,))
        return out

    def __call__(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("na,nab->nb", v, self.hessian_at(x, v))

    def check(self, x: np.ndarray, target: np.ndarray, solution: np.ndarray) -> np.ndarray:
        """Per point: does ``solution`` map onto ``target`` within the
        solver's tolerance plus the rounding allowance?"""
        hess = self.hessian_at(x, solution)
        image = np.einsum("na,nab->nb", solution, hess)
        scale = np.einsum("na,nab->nb", np.abs(solution), np.abs(hess)).max(axis=1)
        allowed = NEWTON_TOL * (1.0 + np.abs(target).max(axis=1)) + ROUNDING * (1.0 + scale)
        gap = np.abs(image - target).max(axis=1)
        return np.isfinite(gap) & (gap <= allowed)


# ---------------------------------------------------------------------------
# Expected report verdicts (README.md, "Expected verdicts")

_ALL_PASS = {"exit": 0, "fail_families": (), "all_rows_fail": ()}

EXPECTED: dict[str, dict] = {
    "classical": {**_ALL_PASS, "verdict": "equivalent", "euler": {"lagrangian": True, "hamiltonian": True}},
    "lie_algebroid": {**_ALL_PASS, "verdict": None, "euler": {}},
    "generalized": {**_ALL_PASS, "verdict": "equivalent", "euler": {"lagrangian": True, "hamiltonian": True}},
    "diag_quadratic": {**_ALL_PASS, "verdict": "equivalent", "euler": {"lagrangian": True, "hamiltonian": True}},
    "quartic": {**_ALL_PASS, "verdict": None, "euler": {"lagrangian": False}},
    "rotation": {**_ALL_PASS, "verdict": None, "euler": {}},
    "mismatched": {
        "exit": 1,
        "verdict": "not-equivalent",
        "euler": {"lagrangian": True, "hamiltonian": False},
        "fail_families": (
            ("legendre-round-trip", "*"),
            ("bracket-commutation-lagrangian", "*"),
            ("bracket-commutation-hamiltonian", "*"),
        ),
        "all_rows_fail": ("legendre-round-trip",),
    },
    "broken_compatibility": {
        "exit": 1,
        "verdict": None,
        "euler": {},
        "fail_families": (
            ("anchor-compatibility", "compatibility"),
            ("jacobi", "jacobi-cyclic-sum"),
            ("anchor-morphism", "anchor-morphism"),
            ("prolong-bracket-axioms E", "cyclic-sum"),
            ("lift-brackets E", "complete-complete-vertical"),
            ("function-lift-rules E", "complete-of-complete"),
        ),
        "all_rows_fail": (),
    },
}

_BUNDLE_SUITES = (
    "prolong-bracket-axioms",
    "complete-lift-conditions",
    "lift-brackets",
    "function-lift-rules",
    "tangent-structure",
    "k-coefficients-oracle",
)
_DUALITY = (
    "legendre-round-trip",
    "legendre-morphism-conditions-lagrangian",
    "legendre-morphism-conditions-hamiltonian",
    "bracket-commutation-lagrangian",
    "bracket-commutation-hamiltonian",
)


def expected_reports(text: str) -> list[str]:
    """The report names ``report-all`` must produce for a model file."""
    blocks = model_blocks(text)
    bundles = [name.split()[1] for name in blocks if name.startswith("bundle ")]
    names = [
        "structure-antisymmetry",
        "anchor-compatibility",
        "jacobi",
        "leibniz",
        "anchor-morphism",
        "inverse-pair M->N",
        "inverse-pair N->M",
    ]
    names += [f"fiber-morphism-inverse {b}" for b in bundles]
    names += [f"{suite} {b}" for b in bundles for suite in _BUNDLE_SUITES]
    names.append("derivative-oracle")
    if "lagrangian" in blocks and "hamiltonian" in blocks:
        names += _DUALITY
    return sorted(names)


def _family(report: str, check: str, families):
    """The expected-failure family a row belongs to, or None."""
    return next((f for f in families if report == f[0] and f[1] in ("*", check)), None)


def check_report(model: str, text: str, code: int, stdout: str) -> list[str]:
    """Problems with one ``report-all --json`` output; empty when correct."""
    want = EXPECTED[model]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code}, expected {want['exit']}")
    try:
        payload = json.loads(stdout)
    except ValueError as err:
        return problems + [f"output is not JSON: {err}"]
    reports = {r["name"]: r for r in payload.get("checks", [])}
    if sorted(reports) != expected_reports(text) or len(reports) != len(payload["checks"]):
        problems.append(f"reports {sorted(reports)}, expected {expected_reports(text)}")
    if payload.get("pass") is not (want["exit"] == 0):
        problems.append(f"top-level pass is {payload.get('pass')!r}")
    if payload.get("verdict") != want["verdict"]:
        problems.append(f"verdict {payload.get('verdict')!r}, expected {want['verdict']!r}")
    for side, holds in want["euler"].items():
        got = payload.get("homogeneity", {}).get(side, {}).get("eulerHolds")
        if got is not holds:
            problems.append(f"{side} degree-2 Euler identity reported {got!r}, expected {holds}")
    failing_families = set()
    for name, report in reports.items():
        rows = report["rows"]
        for row in rows:
            if row["pass"]:
                continue
            family = _family(name, row["check"], want["fail_families"])
            if family is None:
                problems.append(f"{name}: row {row['check']} {row['index']} fails (residual {row['residual']})")
            failing_families.add(family)
        if name in want["all_rows_fail"] and (not rows or any(row["pass"] for row in rows)):
            problems.append(f"{name}: every row should fail")
        if report["pass"] is not all(row["pass"] for row in rows):
            problems.append(f"{name}: report pass flag disagrees with its rows")
    failing_families.discard(None)
    for family in want["fail_families"]:
        if family not in failing_families:
            problems.append(f"no failing row in {family[0]} / {family[1]}")
    if model == "broken_compatibility":
        rows = [r for r in reports.get("anchor-compatibility", {"rows": []})["rows"] if not r["pass"]]
        if [(r["check"], r["index"], r["residual"]) for r in rows] != [("compatibility", [1, 2, 1], 0.5)]:
            problems.append(f"compatibility failures {rows}, expected one row [1, 2, 1] with residual exactly 0.5")
    return problems


def model_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]
