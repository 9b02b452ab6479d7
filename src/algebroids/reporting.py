"""Check-report containers shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from .expr import Expr, Sampler


@dataclass(frozen=True)
class CheckRow:
    """Outcome of one identity at one index tuple."""

    name: str
    indices: tuple[Any, ...]
    residual: float
    passed: bool
    witness: dict[str, float] | None = None

    def to_jsonable(self) -> dict:
        out: dict[str, Any] = {
            "check": self.name,
            "index": list(self.indices),
            "residual": self.residual,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


@dataclass
class CheckReport:
    """A named family of :class:`CheckRow` outcomes."""

    name: str
    rows: list[CheckRow] = field(default_factory=list)

    def add(
        self,
        name: str,
        indices: tuple,
        residual: float,
        tol: float,
        witness: dict[str, float] | None = None,
    ) -> None:
        self.rows.append(CheckRow(name, indices, residual, residual <= tol, witness))

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def worst_residual(self) -> float:
        return max((row.residual for row in self.rows), default=0.0)

    def worst_row(self) -> CheckRow | None:
        return max(self.rows, key=lambda r: r.residual, default=None)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "worstResidual": self.worst_residual,
            "rows": [row.to_jsonable() for row in self.rows],
        }


def residual_row(
    report: CheckReport,
    name: str,
    indices: tuple,
    lhs: "Expr",
    rhs: "Expr",
    sampler: "Sampler",
    tol: float,
) -> None:
    """Decide one expression row.  Nodes are interned, so identical
    sides are a proof of equality: residual 0.0, no witness, nothing
    evaluated.  Otherwise the worst sampled gap and its witness."""
    from .expr import max_residual

    if lhs is rhs:
        report.add(name, indices, 0.0, tol)
        return
    worst, witness = max_residual(lhs, rhs, sampler)
    report.add(name, indices, worst, tol, witness)


def residual_rows(
    report: CheckReport,
    name: str,
    prefix: tuple,
    lhs: Iterable["Expr"],
    rhs: Iterable["Expr"],
    sampler: "Sampler",
    tol: float,
) -> None:
    """:func:`residual_row` for each pair of components, indexed by
    ``prefix`` and the 1-based component number."""
    for k, (a, b) in enumerate(zip(lhs, rhs), 1):
        residual_row(report, name, (*prefix, k), a, b, sampler, tol)
