"""Model-definition files and JSON report emission.

The model format is line-oriented: bracketed block headers followed by
``key = value`` entries, ``#`` comments, blank lines ignored.  Reserved
coordinate names are x1..xm (base M), k1..km (base N), y1..yr (primal
fiber), p1..pr (dual fiber).

Blocks::

    [base M] / [base N]        dim = <int>
    [map h] / [map eta]        <codomain var> = expr, inv <domain var> = expr
    [algebroid]                rank, rho[a][i], L[a,b]^c
    [bundle E] / [bundle Edual] rank, g = identity | g[b][a] / g[a][b], ginv...
    [section <name>]           on = E|Edual|F|TE|TEdual, c[i] or h[a]/v[b]
    [form <name>]              on = E|Edual, degree, c[i,j,...]
    [lagrangian]               L = expr in (x, y)
    [hamiltonian]              H = expr in (x, p)
    [sampler]                  domain, domain <var>, points, seed, tol

Unset anchor/structure/morphism entries default to zero; ``g =
identity`` fills the diagonal; ``ginv = auto`` inverts symbolically by
adjugate over determinant for rank <= 4.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .algebroid import CoordSystem, GeneralizedLieAlgebroid, SectionF, SmoothMap, coords
from .expr import (
    Expr,
    ExprSyntaxError,
    Sampler,
    UnknownFunctionError,
    add,
    free_variables,
    is_zero,
    mul,
    neg,
    parse as parse_expr,
    power,
    to_string,
)
from .exterior import FormQ
from .legendre import Hamiltonian, Lagrangian
from .prolong import AnchoredBundle, ProlongSection, Section


class ModelError(Exception):
    """Model-file rejection with a stable error code."""

    def __init__(self, code: str, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"[{code}] {message}{where}")
        self.code = code
        self.line = line


ERROR_CODES = (
    "bad-block",
    "duplicate-block",
    "duplicate-key",
    "missing-block",
    "missing-key",
    "bad-value",
    "expression-syntax",
    "unknown-function",
    "unknown-variable",
    "dimension-mismatch",
    "structure-inconsistent",
    "unknown-bundle",
    "ginv-auto-too-large",
)


@dataclass
class Model:
    """A fully validated model: geometry plus named data and sampler."""

    algebroid: GeneralizedLieAlgebroid
    bundles: dict[str, AnchoredBundle]
    sections: dict[str, Any]
    forms: dict[str, FormQ]
    lagrangian: Lagrangian | None
    hamiltonian: Hamiltonian | None
    sampler: Sampler
    tol: float

    @property
    def base_m(self) -> CoordSystem:
        return self.algebroid.base_m

    @property
    def base_n(self) -> CoordSystem:
        return self.algebroid.base_n


# ---------------------------------------------------------------------------
# Block lexer

_HEADER_RE = re.compile(r"^\[([A-Za-z][A-Za-z0-9_]*)((?:\s+\S+)*)\]$")


@dataclass
class _Block:
    kind: str
    args: tuple[str, ...]
    line: int
    entries: list[tuple[str, str, int]] = field(default_factory=list)

    def key(self) -> tuple[str, ...]:
        return (self.kind,) + self.args


def _lex_blocks(text: str) -> list[_Block]:
    blocks: list[_Block] = []
    current: _Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _HEADER_RE.match(line)
            if not m:
                raise ModelError("bad-block", f"malformed block header {line!r}", lineno)
            args = tuple(m.group(2).split())
            current = _Block(m.group(1), args, lineno)
            blocks.append(current)
            continue
        if current is None:
            raise ModelError("bad-block", "entry before any block header", lineno)
        if "=" not in line:
            raise ModelError("bad-value", f"expected 'key = value', got {line!r}", lineno)
        key, value = line.split("=", 1)
        current.entries.append((key.strip(), value.strip(), lineno))
    return blocks


class _Entries:
    """Keyed access to one block's entries with duplicate detection."""

    def __init__(self, block: _Block):
        self.block = block
        self.map: dict[str, tuple[str, int]] = {}
        for key, value, line in block.entries:
            if key in self.map:
                raise ModelError("duplicate-key", f"duplicate key {key!r}", line)
            self.map[key] = (value, line)
        self.unused = set(self.map)

    def take(self, key: str) -> tuple[str, int] | None:
        if key in self.map:
            self.unused.discard(key)
            return self.map[key]
        return None

    def require(self, key: str) -> tuple[str, int]:
        got = self.take(key)
        if got is None:
            raise ModelError("missing-key", f"block [{' '.join(self.block.key())}] needs {key!r}", self.block.line)
        return got

    def take_matching(self, pattern: re.Pattern) -> list[tuple[re.Match, str, int]]:
        out = []
        for key in list(self.map):
            m = pattern.fullmatch(key)
            if m:
                self.unused.discard(key)
                value, line = self.map[key]
                out.append((m, value, line))
        return out

    def finish(self):
        for key in sorted(self.unused):
            raise ModelError(
                "bad-value",
                f"unknown key {key!r} in block [{' '.join(self.block.key())}]",
                self.map[key][1],
            )


def _parse_int(value: str, line: int, minimum: int = 1) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ModelError("bad-value", f"expected an integer, got {value!r}", line) from None
    if out < minimum:
        raise ModelError("bad-value", f"expected an integer >= {minimum}, got {out}", line)
    return out


def _parse_float(value: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ModelError("bad-value", f"expected a number, got {value!r}", line) from None


def _parse_scoped(value: str, line: int, scope: Iterable[str], what: str) -> Expr:
    try:
        expression = parse_expr(value)
    except UnknownFunctionError as err:
        raise ModelError("unknown-function", f"{what}: {err}", line) from None
    except ExprSyntaxError as err:
        raise ModelError("expression-syntax", f"{what}: {err}", line) from None
    bad = free_variables(expression) - set(scope)
    if bad:
        raise ModelError(
            "unknown-variable",
            f"{what} uses {sorted(bad)}; allowed coordinates are {sorted(scope)}",
            line,
        )
    return expression


def _index_in(m_text: str, line: int, upper: int, what: str) -> int:
    idx = _parse_int(m_text, line)
    if idx > upper:
        raise ModelError("dimension-mismatch", f"{what} index {idx} exceeds {upper}", line)
    return idx - 1


# ---------------------------------------------------------------------------
# Symbolic matrix inverse for `ginv = auto`


def _det(matrix: list[list[Expr]]) -> Expr:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = []
    for j in range(n):
        entry = matrix[0][j]
        if is_zero(entry):
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = mul(entry, _det(minor))
        total.append(term if j % 2 == 0 else neg(term))
    return add(*total)


def symbolic_inverse(matrix: Sequence[Sequence[Expr]]) -> tuple[tuple[Expr, ...], ...]:
    """Adjugate-over-determinant inverse; meant for rank <= 4."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    det = _det(rows)
    inv_det = power(det, add(-1.0))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [rows[a][b] for b in range(n) if b != i]
                for a in range(n)
                if a != j
            ]
            cofactor = _det(minor) if n > 1 else add(1.0)
            if (i + j) % 2 == 1:
                cofactor = neg(cofactor)
            row.append(mul(cofactor, inv_det))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Model parsing


def parse_model(text: str) -> Model:
    blocks = _lex_blocks(text)
    seen: dict[tuple[str, ...], _Block] = {}
    consumed: set[tuple[str, ...]] = set()
    for block in blocks:
        key = block.key()
        if key in seen:
            raise ModelError("duplicate-block", f"duplicate block [{' '.join(key)}]", block.line)
        if block.kind not in (
            "base",
            "map",
            "algebroid",
            "bundle",
            "section",
            "form",
            "lagrangian",
            "hamiltonian",
            "sampler",
        ):
            raise ModelError("bad-block", f"unknown block kind {block.kind!r}", block.line)
        if block.kind in ("section", "form"):
            consumed.add(key)
        seen[key] = block

    def get(*key: str) -> _Block | None:
        consumed.add(key)
        return seen.get(key)

    def require(*key: str) -> _Block:
        block = get(*key)
        if block is None:
            raise ModelError("missing-block", f"missing block [{' '.join(key)}]")
        return block

    # charts
    dims = {}
    for name in ("M", "N"):
        block = require("base", name)
        entries = _Entries(block)
        value, line = entries.require("dim")
        dims[name] = _parse_int(value, line)
        entries.finish()
    if dims["M"] != dims["N"]:
        raise ModelError("dimension-mismatch", "base charts M and N must have equal dimension")
    base_m = coords("M", "x", dims["M"])
    base_n = coords("N", "k", dims["N"])

    def parse_map(name: str, domain: CoordSystem, codomain: CoordSystem) -> SmoothMap:
        block = get("map", name)
        if block is None:
            return SmoothMap(domain, codomain, domain.vars(), codomain.vars())
        entries = _Entries(block)
        forward = []
        for v in codomain.variables:
            value, line = entries.require(v)
            forward.append(_parse_scoped(value, line, domain.variables, f"map {name} component {v}"))
        inverse = []
        for v in domain.variables:
            value, line = entries.require(f"inv {v}")
            inverse.append(_parse_scoped(value, line, codomain.variables, f"map {name} inverse component {v}"))
        entries.finish()
        return SmoothMap(domain, codomain, tuple(forward), tuple(inverse))

    h = parse_map("h", base_m, base_n)
    eta = parse_map("eta", base_n, base_m)

    # algebroid
    block = require("algebroid")
    entries = _Entries(block)
    value, line = entries.require("rank")
    rank = _parse_int(value, line)
    rho = [[add() for _ in range(base_m.dim)] for _ in range(rank)]
    for m, value, line in entries.take_matching(re.compile(r"rho\[(\d+)\]\[(\d+)\]")):
        a = _index_in(m.group(1), line, rank, "anchor row")
        i = _index_in(m.group(2), line, base_m.dim, "anchor column")
        rho[a][i] = _parse_scoped(value, line, base_n.variables, f"rho[{a + 1}][{i + 1}]")
    structure: dict[tuple[int, int, int], Expr] = {}
    raw_structure: dict[tuple[int, int, int], tuple[Expr, int]] = {}
    for m, value, line in entries.take_matching(re.compile(r"L\[(\d+),(\d+)\]\^(\d+)")):
        a = _index_in(m.group(1), line, rank, "structure")
        b = _index_in(m.group(2), line, rank, "structure")
        g = _index_in(m.group(3), line, rank, "structure")
        entry = _parse_scoped(value, line, base_n.variables, f"L[{a + 1},{b + 1}]^{g + 1}")
        if a == b:
            if not is_zero(entry):
                raise ModelError("structure-inconsistent", f"L[{a + 1},{a + 1}]^{g + 1} must vanish", line)
            continue
        raw_structure[(a, b, g)] = (entry, line)
    for (a, b, g), (entry, line) in raw_structure.items():
        mirror = raw_structure.get((b, a, g))
        if mirror is not None and entry != neg(mirror[0]):
            raise ModelError(
                "structure-inconsistent",
                f"L[{a + 1},{b + 1}]^{g + 1} and L[{b + 1},{a + 1}]^{g + 1} are not antisymmetric",
                line,
            )
        key = (a, b, g) if a < b else (b, a, g)
        structure[key] = entry if a < b else neg(entry)
    entries.finish()
    algebroid = GeneralizedLieAlgebroid(base_m, base_n, h, eta, rank, tuple(tuple(r) for r in rho), structure)

    # bundles
    bundles: dict[str, AnchoredBundle] = {}
    for bname, variance in (("E", "primal"), ("Edual", "dual")):
        block = get("bundle", bname)
        if block is None:
            continue
        entries = _Entries(block)
        value, line = entries.require("rank")
        brank = _parse_int(value, line)
        g_mat: list[list[Expr]] | None = None
        ginv_mat: list[list[Expr]] | None = None
        ident = entries.take("g")
        if ident is not None:
            if ident[0] != "identity":
                raise ModelError("bad-value", f"g = {ident[0]!r}; only 'identity' is allowed here", ident[1])
            if brank != rank:
                raise ModelError("dimension-mismatch", "g = identity needs bundle rank equal to algebroid rank", ident[1])
            g_mat = [[add(1.0) if i == j else add() for j in range(brank)] for i in range(rank)]
            ginv_mat = [[add(1.0) if i == j else add() for j in range(rank)] for i in range(brank)]
        g_entries = entries.take_matching(re.compile(r"g\[(\d+)\]\[(\d+)\]"))
        if g_entries:
            if g_mat is not None:
                raise ModelError("duplicate-key", "both g = identity and explicit g entries given", g_entries[0][2])
            if brank != rank:
                raise ModelError("dimension-mismatch", "an invertible fiber morphism needs bundle rank equal to algebroid rank", g_entries[0][2])
            g_mat = [[add() for _ in range(brank)] for _ in range(rank)]
            for m, value, line in g_entries:
                if variance == "primal":
                    b = _index_in(m.group(1), line, brank, "fiber")
                    alpha = _index_in(m.group(2), line, rank, "algebroid")
                else:
                    alpha = _index_in(m.group(1), line, rank, "algebroid")
                    b = _index_in(m.group(2), line, brank, "fiber")
                g_mat[alpha][b] = _parse_scoped(value, line, base_m.variables, f"g[{m.group(1)}][{m.group(2)}]")
        auto = entries.take("ginv")
        if auto is not None:
            if auto[0] != "auto":
                raise ModelError("bad-value", f"ginv = {auto[0]!r}; only 'auto' is allowed here", auto[1])
            if g_mat is None:
                raise ModelError("missing-key", "ginv = auto needs g entries", auto[1])
            if brank > 4:
                raise ModelError("ginv-auto-too-large", "symbolic inversion is limited to rank <= 4", auto[1])
            ginv_mat = [list(row) for row in symbolic_inverse(g_mat)]
        ginv_entries = entries.take_matching(re.compile(r"ginv\[(\d+)\]\[(\d+)\]"))
        if ginv_entries:
            if ginv_mat is not None:
                raise ModelError("duplicate-key", "conflicting ginv specifications", ginv_entries[0][2])
            ginv_mat = [[add() for _ in range(rank)] for _ in range(brank)]
            for m, value, line in ginv_entries:
                if variance == "primal":
                    alpha = _index_in(m.group(1), line, rank, "algebroid")
                    b = _index_in(m.group(2), line, brank, "fiber")
                else:
                    b = _index_in(m.group(1), line, brank, "fiber")
                    alpha = _index_in(m.group(2), line, rank, "algebroid")
                ginv_mat[b][alpha] = _parse_scoped(value, line, base_m.variables, f"ginv[{m.group(1)}][{m.group(2)}]")
        entries.finish()
        if g_mat is not None and ginv_mat is None:
            raise ModelError("missing-key", f"bundle {bname} has g but no ginv (use explicit entries or 'auto')", block.line)
        bundles[bname] = AnchoredBundle(
            algebroid,
            brank,
            variance,  # type: ignore[arg-type]
            tuple(tuple(row) for row in g_mat) if g_mat is not None else None,
            tuple(tuple(row) for row in ginv_mat) if ginv_mat is not None else None,
        )

    # sections and forms
    sections: dict[str, Any] = {}
    forms: dict[str, FormQ] = {}
    for block in blocks:
        if block.kind == "section":
            if len(block.args) != 1:
                raise ModelError("bad-block", "section blocks need exactly one name", block.line)
            name = block.args[0]
            entries = _Entries(block)
            value, line = entries.require("on")
            target = value
            if target in ("E", "Edual"):
                if target not in bundles:
                    raise ModelError("unknown-bundle", f"section {name!r} lives on missing bundle {target}", line)
                bundle = bundles[target]
                coeffs = [add() for _ in range(bundle.rank)]
                for m, v, ln in entries.take_matching(re.compile(r"c\[(\d+)\]")):
                    a = _index_in(m.group(1), ln, bundle.rank, "section")
                    coeffs[a] = _parse_scoped(v, ln, base_m.variables, f"section {name} c[{a + 1}]")
                sections[name] = Section(bundle, tuple(coeffs))
            elif target == "F":
                coeffs = [add() for _ in range(rank)]
                for m, v, ln in entries.take_matching(re.compile(r"c\[(\d+)\]")):
                    a = _index_in(m.group(1), ln, rank, "section")
                    coeffs[a] = _parse_scoped(v, ln, base_n.variables, f"section {name} c[{a + 1}]")
                sections[name] = SectionF(algebroid, tuple(coeffs))
            elif target in ("TE", "TEdual"):
                bname = "E" if target == "TE" else "Edual"
                if bname not in bundles:
                    raise ModelError("unknown-bundle", f"section {name!r} lives on missing bundle {bname}", line)
                bundle = bundles[bname]
                hor = [add() for _ in range(rank)]
                ver = [add() for _ in range(bundle.rank)]
                scope = bundle.total_variables
                for m, v, ln in entries.take_matching(re.compile(r"h\[(\d+)\]")):
                    a = _index_in(m.group(1), ln, rank, "horizontal")
                    hor[a] = _parse_scoped(v, ln, scope, f"section {name} h[{a + 1}]")
                for m, v, ln in entries.take_matching(re.compile(r"v\[(\d+)\]")):
                    a = _index_in(m.group(1), ln, bundle.rank, "vertical")
                    ver[a] = _parse_scoped(v, ln, scope, f"section {name} v[{a + 1}]")
                sections[name] = ProlongSection(bundle, tuple(hor), tuple(ver))
            else:
                raise ModelError("unknown-bundle", f"section {name!r} on unknown space {target!r}", line)
            entries.finish()
        elif block.kind == "form":
            if len(block.args) != 1:
                raise ModelError("bad-block", "form blocks need exactly one name", block.line)
            name = block.args[0]
            entries = _Entries(block)
            value, line = entries.require("on")
            if value not in bundles:
                raise ModelError("unknown-bundle", f"form {name!r} lives on missing bundle {value!r}", line)
            bundle = bundles[value]
            value, line = entries.require("degree")
            degree = _parse_int(value, line, minimum=0)
            if degree > bundle.rank:
                raise ModelError("dimension-mismatch", f"degree {degree} exceeds bundle rank {bundle.rank}", line)
            coeffs: dict[tuple[int, ...], Expr] = {}
            for m, v, ln in entries.take_matching(re.compile(r"c\[([0-9,]*)\]")):
                raw = tuple(part for part in m.group(1).split(",") if part)
                if len(raw) != degree:
                    raise ModelError("dimension-mismatch", f"form {name} entry c[{m.group(1)}] does not match degree {degree}", ln)
                idx = tuple(_index_in(part, ln, bundle.rank, "form") for part in raw)
                if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                    raise ModelError("bad-value", f"form indices must be strictly increasing, got c[{m.group(1)}]", ln)
                coeffs[idx] = _parse_scoped(v, ln, base_m.variables, f"form {name} c[{m.group(1)}]")
            entries.finish()
            forms[name] = FormQ(bundle.space, degree, coeffs)

    # fundamental functions
    lagrangian = None
    block = get("lagrangian")
    if block is not None:
        if "E" not in bundles:
            raise ModelError("unknown-bundle", "a lagrangian needs [bundle E]", block.line)
        entries = _Entries(block)
        value, line = entries.require("L")
        scope = bundles["E"].total_variables
        lagrangian = Lagrangian(bundles["E"], _parse_scoped(value, line, scope, "lagrangian"))
        entries.finish()
    hamiltonian = None
    block = get("hamiltonian")
    if block is not None:
        if "Edual" not in bundles:
            raise ModelError("unknown-bundle", "a hamiltonian needs [bundle Edual]", block.line)
        entries = _Entries(block)
        value, line = entries.require("H")
        scope = bundles["Edual"].total_variables
        hamiltonian = Hamiltonian(bundles["Edual"], _parse_scoped(value, line, scope, "hamiltonian"))
        entries.finish()

    # sampler
    points, seed, lo, hi, tol = 100, 0, -2.0, 2.0, 1e-8
    ranges: dict[str, tuple[float, float]] = {}
    block = get("sampler")
    if block is not None:
        entries = _Entries(block)
        got = entries.take("points")
        if got:
            points = _parse_int(got[0], got[1])
        got = entries.take("seed")
        if got:
            seed = _parse_int(got[0], got[1], minimum=0)
        got = entries.take("tol")
        if got:
            tol = _parse_float(got[0], got[1])
            # inf would pass every check and nan or a negative fail every one.
            if not (math.isfinite(tol) and tol >= 0):
                raise ModelError("bad-value", f"tol must be finite and >= 0, got {got[0]!r}", got[1])
        got = entries.take("domain")
        if got:
            lo, hi = _parse_domain(got[0], got[1])
        for m, value, line in entries.take_matching(re.compile(r"domain ([A-Za-z][A-Za-z0-9_]*)")):
            ranges[m.group(1)] = _parse_domain(value, line)
        entries.finish()
    sampler = Sampler(points=points, seed=seed, lo=lo, hi=hi, ranges=ranges)

    for key, block in seen.items():
        if key not in consumed:
            raise ModelError(
                "bad-block", f"unrecognized block [{' '.join(key)}]", block.line
            )

    return Model(algebroid, bundles, sections, forms, lagrangian, hamiltonian, sampler, tol)


def _parse_domain(value: str, line: int) -> tuple[float, float]:
    parts = value.split()
    if len(parts) != 2:
        raise ModelError("bad-value", f"domain wants 'lo hi', got {value!r}", line)
    lo, hi = _parse_float(parts[0], line), _parse_float(parts[1], line)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ModelError("bad-value", f"domain bounds must be finite, got {value!r}", line)
    if not lo < hi:
        raise ModelError("bad-value", f"domain needs lo < hi, got {value!r}", line)
    return lo, hi


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# Canonical printing


def _is_identity(matrix: Sequence[Sequence[Expr]]) -> bool:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    for i in range(n):
        for j in range(n):
            want = add(1.0) if i == j else add()
            if matrix[i][j] != want:
                return False
    return True


def format_model(model: Model) -> str:
    """Canonical text for a model; parsing the output reproduces the
    model (zero entries are omitted)."""
    out: list[str] = []
    alg = model.algebroid
    out += [f"[base M]", f"dim = {alg.base_m.dim}", "", f"[base N]", f"dim = {alg.base_n.dim}", ""]

    def emit_map(name: str, mp: SmoothMap):
        ident = SmoothMap(mp.domain, mp.codomain, mp.domain.vars(), mp.codomain.vars())
        if mp == ident:
            return
        out.append(f"[map {name}]")
        for v, e in zip(mp.codomain.variables, mp.forward):
            out.append(f"{v} = {to_string(e)}")
        for v, e in zip(mp.domain.variables, mp.inverse):
            out.append(f"inv {v} = {to_string(e)}")
        out.append("")

    emit_map("h", alg.h)
    emit_map("eta", alg.eta)
    out += ["[algebroid]", f"rank = {alg.rank}"]
    for a in range(alg.rank):
        for i in range(alg.base_m.dim):
            if not is_zero(alg.rho[a][i]):
                out.append(f"rho[{a + 1}][{i + 1}] = {to_string(alg.rho[a][i])}")
    for (a, b, g), entry in sorted(alg.structure.items()):
        out.append(f"L[{a + 1},{b + 1}]^{g + 1} = {to_string(entry)}")
    out.append("")
    for bname in ("E", "Edual"):
        bundle = model.bundles.get(bname)
        if bundle is None:
            continue
        out += [f"[bundle {bname}]", f"rank = {bundle.rank}"]
        if bundle.g is not None:
            if _is_identity(bundle.g) and _is_identity(bundle.g_inv):
                out.append("g = identity")
            else:
                for alpha in range(alg.rank):
                    for b in range(bundle.rank):
                        if not is_zero(bundle.g[alpha][b]):
                            key = (
                                f"g[{b + 1}][{alpha + 1}]"
                                if bundle.variance == "primal"
                                else f"g[{alpha + 1}][{b + 1}]"
                            )
                            out.append(f"{key} = {to_string(bundle.g[alpha][b])}")
                for b in range(bundle.rank):
                    for alpha in range(alg.rank):
                        if not is_zero(bundle.g_inv[b][alpha]):
                            key = (
                                f"ginv[{alpha + 1}][{b + 1}]"
                                if bundle.variance == "primal"
                                else f"ginv[{b + 1}][{alpha + 1}]"
                            )
                            out.append(f"{key} = {to_string(bundle.g_inv[b][alpha])}")
        out.append("")
    for name, section in model.sections.items():
        out.append(f"[section {name}]")
        if isinstance(section, Section):
            out.append(f"on = {section.bundle.name}")
            for a, c in enumerate(section.coefficients):
                if not is_zero(c):
                    out.append(f"c[{a + 1}] = {to_string(c)}")
        elif isinstance(section, SectionF):
            out.append("on = F")
            for a, c in enumerate(section.coefficients):
                if not is_zero(c):
                    out.append(f"c[{a + 1}] = {to_string(c)}")
        else:
            out.append(f"on = {'TE' if section.bundle.variance == 'primal' else 'TEdual'}")
            for a, c in enumerate(section.horizontal):
                if not is_zero(c):
                    out.append(f"h[{a + 1}] = {to_string(c)}")
            for a, c in enumerate(section.vertical):
                if not is_zero(c):
                    out.append(f"v[{a + 1}] = {to_string(c)}")
        out.append("")
    for name, form in model.forms.items():
        out.append(f"[form {name}]")
        bname = "E" if form.bundle.name == "E" else "Edual"
        out += [f"on = {bname}", f"degree = {form.degree}"]
        for key in sorted(form.coeffs):
            label = ",".join(str(i + 1) for i in key)
            out.append(f"c[{label}] = {to_string(form.coeffs[key])}")
        out.append("")
    if model.lagrangian is not None:
        out += ["[lagrangian]", f"L = {to_string(model.lagrangian.expr)}", ""]
    if model.hamiltonian is not None:
        out += ["[hamiltonian]", f"H = {to_string(model.hamiltonian.expr)}", ""]
    s = model.sampler
    out += ["[sampler]", f"domain = {_fmt_float(s.lo)} {_fmt_float(s.hi)}"]
    for name in sorted(s.ranges):
        lo, hi = s.ranges[name]
        out.append(f"domain {name} = {_fmt_float(lo)} {_fmt_float(hi)}")
    out += [f"points = {s.points}", f"seed = {s.seed}", f"tol = {_fmt_float(model.tol)}", ""]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# JSON reports


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{_emit_json(str(k))}:{_emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit_json(v) for v in obj) + "]"
    if hasattr(obj, "to_jsonable"):
        return _emit_json(obj.to_jsonable())
    raise TypeError(f"cannot serialize {obj!r}")


def emit_report(checks: Sequence, extra: dict | None = None) -> str:
    """Serialize check results: stable key order, floats with 17
    significant digits."""
    payload: dict[str, Any] = {"checks": list(checks)}
    if extra:
        payload.update(extra)
    return _emit_json(payload)
