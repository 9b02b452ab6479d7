"""Composable verification suites over a model, and the one plan that
runs them.

Each suite returns check reports with relative residuals.  :data:`PLAN`
names each suite once, in report order; :func:`run_checks` runs it for
every check command of the CLI and for the model survey script.  The
acceptance harness calls suites directly, with its own tolerances.
Randomized data is drawn deterministically from the sampler seed so
failures reproduce.  Each suite runs in one
:func:`~algebroids.expr.shared_walks` block, so within a suite no
subtree is differentiated by the same variable, substituted into under
the same mapping, or valued on the same sampled points twice.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import duality as dual
from .algebroid import (
    check_anchor_morphism,
    check_antisymmetry,
    check_compatibility,
    check_jacobi,
    check_leibniz,
    random_polynomial,
)
from .expr import (
    DIFFERENCE_STEP,
    Expr,
    Sampler,
    add,
    column_residual,
    differentiate,
    evaluate_columns,
    free_variables,
    mul,
    shared_walks,
    var,
)
from .exterior import gh_lie_derivative, one_form
from .legendre import check_homogeneity, check_round_trip
from .modelio import Model
from .prolong import (
    AnchoredBundle,
    almost_tangent,
    bracket_prolong,
    complete_lift,
    complete_lift_function,
    complete_lift_vf,
    hat_form,
    k_coefficients,
    k_coefficients_via_bracket,
    pull_from_algebroid,
    push_to_algebroid,
    random_bundle_section,
    random_prolong_section,
    rho_tilde,
    vertical_lift,
    vertical_lift_function,
    vertical_lift_vf,
)
from .reporting import CheckReport, residual_row, residual_rows


@shared_walks()
def axiom_reports(model: Model, sampler: Sampler, tol: float) -> list[CheckReport]:
    """Algebroid axioms plus the declared-inverse checks."""
    alg = model.algebroid
    out = [
        check_antisymmetry(alg, sampler, tol),
        check_compatibility(alg, sampler, tol),
        check_jacobi(alg, sampler, tol),
        check_leibniz(alg, sampler, tol),
        check_anchor_morphism(alg, sampler, tol),
        alg.h.check_inverse(sampler, tol),
        alg.eta.check_inverse(sampler, tol),
    ]
    for bundle in model.bundles.values():
        if bundle.g is not None:
            out.append(bundle.check_morphism_inverse(sampler, tol))
    return out


@shared_walks()
def complete_lift_conditions_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 10
) -> CheckReport:
    """The two properties pinning the complete lift: it projects onto
    the anchored image of the section, and its action on fiber-linear
    functions matches the conjugated Lie derivative of one-forms."""
    alg = bundle.algebroid
    h = alg.h
    report = CheckReport(f"complete-lift-conditions {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 1001)
    morphism = bundle.morphism()
    inverse = bundle.inverse_morphism()
    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        uc = complete_lift_vf(u)
        z = push_to_algebroid(u)
        for j, k in enumerate(alg.base_n.variables):
            lhs, rhs = uc.apply(h.forward[j]), h.pull(alg.anchor_action(z, var(k)))
            residual_row(report, "projects-to-anchored-image", (trial, j + 1), lhs, rhs, sampler, tol)
        omega = one_form(bundle.space, random_bundle_section(bundle, rng).coefficients)
        lhs = uc.apply(hat_form(bundle, omega))
        derived = gh_lie_derivative(alg, morphism, inverse, u.coefficients, omega)
        residual_row(report, "acts-as-lie-derivative-on-hats", (trial,), lhs, hat_form(bundle, derived), sampler, tol)
    return report


@shared_walks()
def lift_bracket_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 10
) -> CheckReport:
    """Bracket identities between vertical and complete lifts."""
    alg = bundle.algebroid
    report = CheckReport(f"lift-brackets {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 2002)
    zero = vertical_lift(bundle.section((add(),) * bundle.rank))

    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        v = random_bundle_section(bundle, rng)
        uV, vV = vertical_lift(u), vertical_lift(v)
        uC, vC = complete_lift(u), complete_lift(v)
        w = pull_from_algebroid(
            bundle, alg.bracket(push_to_algebroid(u), push_to_algebroid(v))
        )
        for name, got, want in (
            ("vertical-vertical", bracket_prolong(uV, vV), zero),
            ("vertical-complete", bracket_prolong(uV, vC), vertical_lift(w)),
            ("complete-complete", bracket_prolong(uC, vC), complete_lift(w)),
        ):
            residual_rows(report, f"{name}-horizontal", (trial,), got.horizontal, want.horizontal, sampler, tol)
            residual_rows(report, f"{name}-vertical", (trial,), got.vertical, want.vertical, sampler, tol)
    return report


@shared_walks()
def function_lift_rules_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 5
) -> CheckReport:
    """Sum, product and derivation rules for vertical and complete lifts
    of functions and sections."""
    alg = bundle.algebroid
    report = CheckReport(f"function-lift-rules {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 3003)
    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        v = random_bundle_section(bundle, rng)
        f_m = random_polynomial(alg.base_m.variables, rng)
        f1 = random_polynomial(alg.base_n.variables, rng)
        f2 = random_polynomial(alg.base_n.variables, rng)
        got = vertical_lift_vf(u + v)
        uV = vertical_lift_vf(u)
        want = uV + vertical_lift_vf(v)
        residual_rows(report, "vertical-additive", (trial,), got.d_fiber, want.d_fiber, sampler, tol)
        got = vertical_lift_vf(u.scaled(f_m))
        want = [mul(f_m, b) for b in uV.d_fiber]
        residual_rows(report, "vertical-module", (trial,), got.d_fiber, want, sampler, tol)
        residual_row(report, "vertical-kills-vertical-lifts", (trial,), uV.apply(f_m), add(), sampler, tol)
        got = complete_lift_function(bundle, f1 + f2)
        f1C = complete_lift_function(bundle, f1)
        f2C = complete_lift_function(bundle, f2)
        residual_row(report, "complete-additive", (trial,), got, add(f1C, f2C), sampler, tol)
        got = complete_lift_function(bundle, mul(f1, f2))
        f1V = vertical_lift_function(bundle, f1)
        f2V = vertical_lift_function(bundle, f2)
        want = add(mul(f1C, f2V), mul(f1V, f2C))
        residual_row(report, "complete-product", (trial,), got, want, sampler, tol)
        action = alg.anchor_action(push_to_algebroid(u), f1)
        want = vertical_lift_function(bundle, action)
        residual_row(report, "vertical-of-complete", (trial,), uV.apply(f1C), want, sampler, tol)
        want = complete_lift_function(bundle, action)
        residual_row(report, "complete-of-complete", (trial,), complete_lift_vf(u).apply(f1C), want, sampler, tol)
    return report


@shared_walks()
def tangent_structure_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 10
) -> CheckReport:
    """The almost tangent structure sends complete lifts to vertical
    lifts, and the anchored projection of the prolonged complete lift is
    the complete-lift vector field."""
    report = CheckReport(f"tangent-structure {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 4004)
    zero = vertical_lift(bundle.section((add(),) * bundle.rank))
    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        uC = complete_lift(u)
        uV = vertical_lift(u)
        J = almost_tangent(uC)
        residual_rows(report, "tangent-of-complete-is-vertical", (trial,), J.vertical, uV.vertical, sampler, tol)
        residual_rows(report, "tangent-image-is-vertical", (trial,), J.horizontal, zero.horizontal, sampler, tol)
        uc = complete_lift_vf(u)
        rt = rho_tilde(uC)
        residual_rows(report, "anchored-projection-base", (trial,), rt.d_base, uc.d_base, sampler, tol)
        residual_rows(report, "anchored-projection-fiber", (trial,), rt.d_fiber, uc.d_fiber, sampler, tol)
        JJ = almost_tangent(J)
        residual_rows(report, "tangent-squares-to-zero", (trial,), JJ.vertical, zero.vertical, sampler, tol)
    return report


@shared_walks()
def prolong_bracket_axioms_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 2
) -> CheckReport:
    """Antisymmetry and the cyclic identity for the prolonged bracket on
    random sections."""
    report = CheckReport(f"prolong-bracket-axioms {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 5005)
    for trial in range(trials):
        Z = random_prolong_section(bundle, rng)
        W = random_prolong_section(bundle, rng)
        V = random_prolong_section(bundle, rng)
        anti = bracket_prolong(Z, W) + bracket_prolong(W, Z)
        for idx, a in enumerate(anti.horizontal + anti.vertical):
            residual_row(report, "antisymmetry", (trial, idx), a, add(), sampler, tol)
        cyc = (
            bracket_prolong(Z, bracket_prolong(W, V))
            + bracket_prolong(W, bracket_prolong(V, Z))
            + bracket_prolong(V, bracket_prolong(Z, W))
        )
        for idx, a in enumerate(cyc.horizontal + cyc.vertical):
            residual_row(report, "cyclic-sum", (trial, idx), a, add(), sampler, tol)
    return report


@shared_walks()
def k_oracle_report(bundle: AnchoredBundle, sampler: Sampler, tol: float = 1e-10, trials: int = 3) -> CheckReport:
    """Closed-form bracket coefficients against the defining bracket."""
    report = CheckReport(f"k-coefficients-oracle {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 6006)
    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        closed = k_coefficients(u)
        direct = k_coefficients_via_bracket(u)
        for gamma in range(bundle.algebroid.rank):
            residual_rows(report, "closed-form-vs-bracket", (trial, gamma + 1), closed[gamma], direct[gamma], sampler, tol)
    return report


def model_expressions(model: Model) -> list[tuple[str, Expr]]:
    """The expressions a model is built from, plus first-order derived
    data, for oracle cross-checks.  Zero entries are listed too; like
    every constant they have no variable to differentiate by."""
    alg = model.algebroid
    out: list[tuple[str, Expr]] = []
    for a in range(alg.rank):
        for i in range(alg.base_m.dim):
            out.append((f"rho[{a + 1}][{i + 1}]", alg.rho[a][i]))
    for (a, b, g), entry in alg.structure.items():
        out.append((f"L[{a + 1},{b + 1}]^{g + 1}", entry))
    for name, mp in (("h", alg.h), ("eta", alg.eta)):
        for j, e in enumerate(mp.forward):
            out.append((f"{name}[{j + 1}]", e))
        for j, e in enumerate(mp.inverse):
            out.append((f"{name}-inv[{j + 1}]", e))
    for bname, bundle in model.bundles.items():
        if bundle.g is None:
            continue
        for alpha in range(alg.rank):
            for b in range(bundle.rank):
                out.append((f"{bname}.g[{alpha + 1}][{b + 1}]", bundle.g[alpha][b]))
                out.append((f"{bname}.ginv[{b + 1}][{alpha + 1}]", bundle.g_inv[b][alpha]))
        rng = np.random.default_rng(model.sampler.seed + 7007)
        u = random_bundle_section(bundle, rng)
        K = k_coefficients(u)
        out.append((f"{bname}.K[1][1]", K[0][0]))
        uc = complete_lift_vf(u)
        out.append((f"{bname}.complete-lift-fiber[1]", uc.d_fiber[0]))
    for label, fn in (("lagrangian", model.lagrangian), ("hamiltonian", model.hamiltonian)):
        if fn is None:
            continue
        out.append((label, fn.expr))
        for a, e in enumerate(fn.grad):
            out.append((f"{label}-grad[{a + 1}]", e))
    return out


@shared_walks()
def derivative_oracle_report(
    model: Model, sampler: Sampler, tol: float = 1e-5
) -> CheckReport:
    """Symbolic derivatives of every model expression against central
    finite differences."""
    report = CheckReport("derivative-oracle")
    for name, expression in model_expressions(model):
        names = tuple(sorted(free_variables(expression)))
        if not names:
            continue
        columns = sampler.columns(names)
        symbolic = evaluate_columns([differentiate(expression, v) for v in names], names, columns)
        # central_difference at every sampled point, in one pass over the
        # shifted copies stacked hi_0, lo_0, hi_1, lo_1, ... (x_j + step,
        # then x_j - step), so the first error raised is the one that a
        # pass per copy, in that order, would raise.
        n, k = columns.shape
        shifted = np.repeat(columns[np.newaxis], 2 * k, axis=0)
        for j in range(k):
            shifted[2 * j, :, j] += DIFFERENCE_STEP
            shifted[2 * j + 1, :, j] -= DIFFERENCE_STEP
        (f,) = evaluate_columns((expression,), names, shifted.reshape(2 * k * n, k))
        f = f.reshape(k, 2, n)
        with np.errstate(over="ignore"):
            differences = (f[:, 0] - f[:, 1]) / (2.0 * DIFFERENCE_STEP)
        for j, v in enumerate(names):
            worst, witness = column_residual(symbolic[j], differences[j], names, columns)
            report.add(f"d/d{v} {name}", (), worst, tol, witness)
    return report


@shared_walks()
def legendre_reports(model: Model, sampler: Sampler, tol: float) -> tuple[list[CheckReport], dict]:
    """Round-trip checks (gating) plus homogeneity verdicts, which are
    diagnostics rather than pass/fail checks."""
    out: list[CheckReport] = []
    if model.lagrangian is not None and model.hamiltonian is not None:
        out.append(check_round_trip(model.lagrangian, model.hamiltonian, sampler, tol))
    verdicts: dict[str, dict] = {}
    for label, fn in (("lagrangian", model.lagrangian), ("hamiltonian", model.hamiltonian)):
        if fn is None:
            continue
        verdicts[label] = check_homogeneity(fn, sampler).to_jsonable()
    extra = {"homogeneity": verdicts} if verdicts else {}
    return out, extra


@shared_walks()
def duality_reports(
    model: Model,
    sampler: Sampler,
    tol_conditions: float = 1e-10,
    tol_brackets: float = 1e-8,
    trials: int = 3,
) -> tuple[list[CheckReport], dict]:
    """Legendre morphism conditions and bracket commutation, plus the
    equivalence verdict as an extra report field."""
    pair = dual.LegendrePair(model.lagrangian, model.hamiltonian)
    verdict = dual.legendre_equivalence(pair, sampler, tol_conditions, tol_brackets, trials)
    return verdict.reports, {"verdict": "equivalent" if verdict.equivalent else "not-equivalent"}


class Check(NamedTuple):
    """A named entry of :data:`PLAN`: the suite of this module it runs,
    looked up by name at run time (so a wrapper installed after import
    is called), its scope (see :func:`_targets`), its tolerance
    arguments given the run's tolerance, and its ``report-all`` trials
    (``None`` for a suite without trials)."""

    name: str
    suite: str
    scope: str
    tols: Callable[[float], tuple[float, ...]]
    trials: int | None = None


PLAN: tuple[Check, ...] = (
    Check("axioms", "axiom_reports", "model", lambda tol: (tol,)),
    Check("prolong-bracket-axioms", "prolong_bracket_axioms_report", "bundle", lambda tol: (tol,), 2),
    Check("complete-lift-conditions", "complete_lift_conditions_report", "bundle", lambda tol: (tol,), 3),
    Check("lift-brackets", "lift_bracket_report", "bundle", lambda tol: (tol,), 3),
    Check("function-lift-rules", "function_lift_rules_report", "bundle", lambda tol: (tol,), 3),
    Check("tangent-structure", "tangent_structure_report", "bundle", lambda tol: (min(tol, 1e-10),), 3),
    Check("k-coefficients-oracle", "k_oracle_report", "bundle", lambda tol: (1e-10,), 3),
    Check("derivative-oracle", "derivative_oracle_report", "model", lambda tol: (1e-5,)),
    Check("legendre", "legendre_reports", "model", lambda tol: (tol,)),
    # Frame conditions at 1e-10, bracket commutation at the run's tol.
    Check("duality", "duality_reports", "functions", lambda tol: (1e-10, tol), 3),
)

_NOT_APPLICABLE = {
    "bundle": "the model has no anchored bundle with fiber morphism",
    "functions": "duality checks need both a lagrangian and a hamiltonian",
}


def _targets(model: Model, scope: str) -> list:
    """What a check runs on: the model once (scope ``model``), each
    bundle with a fiber morphism (``bundle``), or the model once if it
    has both fundamental functions (``functions``)."""
    if scope == "bundle":
        return [bundle for bundle in model.bundles.values() if bundle.g is not None]
    both = model.lagrangian is not None and model.hamiltonian is not None
    return [model] if scope == "model" or both else []


def run_checks(
    model: Model,
    sampler: Sampler,
    tol: float,
    names: Sequence[str] | None = None,
    trials: int | None = None,
) -> tuple[list[CheckReport], dict]:
    """The reports and extra report fields of the named checks of
    :data:`PLAN` (all when ``names`` is ``None``), in plan order, with
    consecutive bundle checks run bundle by bundle.  ``trials`` replaces
    the plan's trial counts.  A named check that applies to nothing
    raises ``ValueError``; unnamed, it is skipped."""
    if names is not None and (unknown := set(names) - {check.name for check in PLAN}):
        raise ValueError(f"unknown checks {sorted(unknown)}")
    chosen = [check for check in PLAN if names is None or check.name in names]
    reports: list[CheckReport] = []
    extra: dict = {}
    for scope, group in groupby(chosen, key=lambda check: check.scope):
        targets, group = _targets(model, scope), list(group)
        if names is not None and not targets:
            raise ValueError(_NOT_APPLICABLE[scope])
        for target in targets:
            for check in group:
                count = () if check.trials is None else (check.trials if trials is None else trials,)
                got = globals()[check.suite](target, sampler, *check.tols(tol), *count)
                if isinstance(got, CheckReport):
                    reports.append(got)
                elif isinstance(got, tuple):
                    reports.extend(got[0])
                    extra.update(got[1])
                else:
                    reports.extend(got)
    return reports, extra
