"""Composable verification suites over a model.

Each function returns check reports with relative residuals.
:func:`report_all` is the one plan behind ``algebroids report-all`` and
the model survey script; the acceptance harness assembles its own runs
with its own tolerances.  Randomized data is drawn deterministically
from the sampler seed so failures reproduce.
"""

from __future__ import annotations

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
    Expr,
    Sampler,
    add,
    central_difference,
    compiled,
    differentiate,
    free_variables,
    is_zero,
    mul,
    relative_gap,
    worst_gap,
)
from .exterior import FormQ, gh_lie_derivative, one_form
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
    rho_tilde,
    vertical_lift,
    vertical_lift_function,
    vertical_lift_vf,
)
from .reporting import CheckReport, residual_row, residual_rows


def _random_one_form(bundle: AnchoredBundle, rng: np.random.Generator) -> FormQ:
    return one_form(
        bundle.space,
        tuple(
            random_polynomial(bundle.algebroid.base_m.variables, rng)
            for _ in range(bundle.rank)
        ),
    )


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


def complete_lift_conditions_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 10
) -> CheckReport:
    """The two properties pinning the complete lift: it projects onto
    the anchored image of the section, and its action on fiber-linear
    functions matches the conjugated Lie derivative of one-forms."""
    alg = bundle.algebroid
    h = alg.h
    Jh = h.jacobian()
    report = CheckReport(f"complete-lift-conditions {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 1001)
    morphism = bundle.morphism()
    inverse = bundle.inverse_morphism()
    for trial in range(trials):
        u = random_bundle_section(bundle, rng)
        uc = complete_lift_vf(u)
        z = push_to_algebroid(u)
        for j in range(alg.base_n.dim):
            lhs = add(
                *[mul(uc.d_base[i], Jh[j][i]) for i in range(alg.base_m.dim)]
            )
            wj = add(
                *[
                    mul(
                        z.coefficients[alpha],
                        add(
                            *[
                                mul(alg.rho[alpha][i], h.push(Jh[j][i]))
                                for i in range(alg.base_m.dim)
                            ]
                        ),
                    )
                    for alpha in range(alg.rank)
                ]
            )
            residual_row(report, "projects-to-anchored-image", (trial, j + 1), lhs, h.pull(wj), sampler, tol)
        omega = _random_one_form(bundle, rng)
        lhs = uc.apply(hat_form(bundle, omega))
        derived = gh_lie_derivative(alg, morphism, inverse, u.coefficients, omega)
        residual_row(report, "acts-as-lie-derivative-on-hats", (trial,), lhs, hat_form(bundle, derived), sampler, tol)
    return report


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
        want = vertical_lift_vf(u) + vertical_lift_vf(v)
        residual_rows(report, "vertical-additive", (trial,), got.d_fiber, want.d_fiber, sampler, tol)
        got = vertical_lift_vf(u.scaled(f_m))
        fv = vertical_lift_function(bundle, f_m, "M")
        want = [mul(fv, b) for b in vertical_lift_vf(u).d_fiber]
        residual_rows(report, "vertical-module", (trial,), got.d_fiber, want, sampler, tol)
        residual_row(
            report,
            "vertical-kills-vertical-lifts",
            (trial,),
            vertical_lift_vf(u).apply(fv),
            add(),
            sampler,
            tol,
        )
        residual_row(
            report,
            "complete-additive",
            (trial,),
            complete_lift_function(bundle, f1 + f2),
            add(complete_lift_function(bundle, f1), complete_lift_function(bundle, f2)),
            sampler,
            tol,
        )
        residual_row(
            report,
            "complete-product",
            (trial,),
            complete_lift_function(bundle, mul(f1, f2)),
            add(
                mul(complete_lift_function(bundle, f1), vertical_lift_function(bundle, f2)),
                mul(vertical_lift_function(bundle, f1), complete_lift_function(bundle, f2)),
            ),
            sampler,
            tol,
        )
        action = alg.anchor_action(push_to_algebroid(u), f1)
        residual_row(
            report,
            "vertical-of-complete",
            (trial,),
            vertical_lift_vf(u).apply(complete_lift_function(bundle, f1)),
            vertical_lift_function(bundle, action),
            sampler,
            tol,
        )
        residual_row(
            report,
            "complete-of-complete",
            (trial,),
            complete_lift_vf(u).apply(complete_lift_function(bundle, f1)),
            complete_lift_function(bundle, action),
            sampler,
            tol,
        )
    return report


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


def prolong_bracket_axioms_report(
    bundle: AnchoredBundle, sampler: Sampler, tol: float, trials: int = 2
) -> CheckReport:
    """Antisymmetry and the cyclic identity for the prolonged bracket on
    random sections."""
    from .prolong import random_prolong_section

    report = CheckReport(f"prolong-bracket-axioms {bundle.name}")
    rng = np.random.default_rng(sampler.seed + 5005)
    for trial in range(trials):
        Z = random_prolong_section(bundle, rng, degree=1)
        W = random_prolong_section(bundle, rng, degree=1)
        V = random_prolong_section(bundle, rng, degree=1)
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
    data, for oracle cross-checks."""
    alg = model.algebroid
    out: list[tuple[str, Expr]] = []
    for a in range(alg.rank):
        for i in range(alg.base_m.dim):
            if not is_zero(alg.rho[a][i]):
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
                if not is_zero(bundle.g[alpha][b]):
                    out.append((f"{bname}.g[{alpha + 1}][{b + 1}]", bundle.g[alpha][b]))
                if not is_zero(bundle.g_inv[b][alpha]):
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


def derivative_oracle_report(
    model: Model, sampler: Sampler, tol: float = 1e-5, step: float = 1e-6
) -> CheckReport:
    """Symbolic derivatives of every model expression against central
    finite differences."""
    report = CheckReport("derivative-oracle")
    for name, expression in model_expressions(model):
        names = sorted(free_variables(expression))
        if not names:
            continue
        points = sampler.sample(tuple(names))
        for v in names:
            dfn = compiled(differentiate(expression, v))
            gaps = [relative_gap(dfn(point), central_difference(expression, v, point, step)) for point in points]
            worst, index = worst_gap(gaps)
            report.add(f"d/d{v} {name}", (), worst, tol, None if index is None else points[index])
    return report


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


def duality_reports(
    model: Model,
    sampler: Sampler,
    tol_conditions: float = 1e-10,
    tol_brackets: float = 1e-8,
    trials: int = 3,
) -> tuple[list[CheckReport], bool]:
    if model.lagrangian is None or model.hamiltonian is None:
        raise ValueError("duality checks need both a lagrangian and a hamiltonian")
    pair = dual.LegendrePair(model.lagrangian, model.hamiltonian)
    verdict = dual.legendre_equivalence(pair, sampler, tol_conditions, tol_brackets, trials)
    return verdict.reports(), verdict.equivalent


def report_all(model: Model, sampler: Sampler, tol: float) -> tuple[list[CheckReport], dict]:
    """Every applicable check on a model, in report order, with the
    homogeneity diagnostics and, when both fundamental functions are
    present, the Legendre equivalence verdict as extra report fields."""
    reports = axiom_reports(model, sampler, tol)
    for bundle in model.bundles.values():
        if bundle.g is None:
            continue
        reports.append(prolong_bracket_axioms_report(bundle, sampler, tol))
        reports.append(complete_lift_conditions_report(bundle, sampler, tol, trials=3))
        reports.append(lift_bracket_report(bundle, sampler, tol, trials=3))
        reports.append(function_lift_rules_report(bundle, sampler, tol, trials=3))
        reports.append(tangent_structure_report(bundle, sampler, min(tol, 1e-10), trials=3))
        reports.append(k_oracle_report(bundle, sampler))
    reports.append(derivative_oracle_report(model, sampler))
    legendre, extra = legendre_reports(model, sampler, tol)
    reports.extend(legendre)
    if model.lagrangian is not None and model.hamiltonian is not None:
        dual_reports, equivalent = duality_reports(model, sampler, 1e-10, tol)
        reports.extend(dual_reports)
        extra["verdict"] = "equivalent" if equivalent else "not-equivalent"
    return reports, extra
