"""Symbolic expression core.

Small immutable, hash-consed expression trees over named real
variables, with the operations every other module is built on:
parsing, printing, differentiation, substitution, numeric evaluation,
and randomized identity testing.  Simplification is deliberately
conservative (constant folding, 0/1 identities, flattening);
correctness never depends on it because identities are certified by
sampling.
"""

from __future__ import annotations

import math
import threading
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

Binding = Mapping[str, float]


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at {line}:{column}")
        self.line = line
        self.column = column


class UnknownFunctionError(ExprSyntaxError):
    pass


class EvaluationError(ExprError):
    def __init__(self, message: str, point: Binding | None = None):
        if point is not None:
            message = f"{message} at point {dict(point)!r}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class UnboundVariableError(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# Nodes


class Expr:
    __slots__ = ("__weakref__",)

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return mul(self, power(_coerce(other), const(-1.0)))

    def __rtruediv__(self, other):
        return mul(_coerce(other), power(self, const(-1.0)))

    def __pow__(self, other):
        return power(self, _coerce(other))

    def __neg__(self):
        return neg(self)

    def __reduce__(self):
        return _from_tape, (_tape(self),)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return to_string(self)


# Hash-consing: every node is interned, so equal structure means the
# same object, and ``==``/``hash`` are the inherited identity ones.  The
# key holds the children themselves, so no id can be reused while an
# entry lives; an entry goes when its node is no longer referenced.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _interned(cls, *fields):
    """The one node of class ``cls`` whose slots hold ``fields``."""
    key = (cls, *fields)
    with _NODES_LOCK:
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for slot, value in zip(cls.__slots__, fields):
                setattr(node, slot, value)
            _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constants must be finite, got {value!r}")
        # Keyed by value, so -0.0 and 0.0 are one node.
        return _interned(cls, value)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("variable names must be non-empty")
        return _interned(cls, name)


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple[Expr, ...]):
        return _interned(cls, terms)


class Prod(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple[Expr, ...]):
        return _interned(cls, factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Expr):
        return _interned(cls, base, exponent)


class Neg(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg: Expr):
        return _interned(cls, arg)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn: str, arg: Expr):
        return _interned(cls, fn, arg)


FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

ZERO = Const(0.0)
ONE = Const(1.0)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


# ---------------------------------------------------------------------------
# Smart constructors.  They establish the (weak) canonical form the
# printer relies on: constants folded, nested sums/products flattened,
# no unit factors, Neg never wrapping Const/Neg, products carrying at
# most one leading constant and no Neg factors.  Every node is built
# through them, and re-applying a constructor to a node's children
# gives the same node back, so the form is already canonical: is_zero
# relies on this and never rebuilds a tree.  Build Sum, Prod, Neg, Pow
# and Call nodes only here.


def const(value: float) -> Expr:
    return Const(value)


def var(name: str) -> Expr:
    return Var(name)


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc = 0.0
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Sum):
            parts: Iterable[Expr] = t.terms
        else:
            parts = (t,)
        for p in parts:
            if isinstance(p, Const):
                acc += p.value
            else:
                flat.append(p)
    if acc != 0.0 or not flat:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    acc = 1.0
    negative = False
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Neg):
            negative = not negative
            f = f.arg
        if isinstance(f, Prod):
            parts: Iterable[Expr] = f.factors
        else:
            parts = (f,)
        for p in parts:
            if isinstance(p, Const):
                acc *= p.value
            else:
                flat.append(p)
    if acc == 0.0:
        return Const(0.0)
    if negative:
        acc = -acc
    if not flat:
        return Const(acc)
    if acc == -1.0:
        return neg(flat[0] if len(flat) == 1 else Prod(tuple(flat)))
    if acc != 1.0:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def neg(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Const):
        return Const(-x.value)
    if isinstance(x, Neg):
        return x.arg
    if isinstance(x, Prod) and isinstance(x.factors[0], Const):
        return mul(Const(-x.factors[0].value), *x.factors[1:])
    return Neg(x)


def power(base, exponent) -> Expr:
    base = _coerce(base)
    exponent = _coerce(exponent)
    if isinstance(exponent, Const):
        if exponent.value == 1.0:
            return base
        if exponent.value == 0.0:
            return ONE
        if isinstance(base, Const):
            try:
                value = math.pow(base.value, exponent.value)
            except (ValueError, OverflowError):
                return Pow(base, exponent)
            if math.isfinite(value):
                return Const(value)
    return Pow(base, exponent)


def call(fn: str, arg) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            value = FUNCTIONS[fn](arg.value)
        except (ValueError, OverflowError):
            return Call(fn, arg)
        if math.isfinite(value):
            return Const(value)
    return Call(fn, arg)


def sin(x) -> Expr:
    return call("sin", x)


def cos(x) -> Expr:
    return call("cos", x)


def exp(x) -> Expr:
    return call("exp", x)


def log(x) -> Expr:
    return call("log", x)


def sqrt(x) -> Expr:
    return call("sqrt", x)


# ---------------------------------------------------------------------------
# Structural operations


def _postorder(roots: Iterable[Expr]) -> tuple[list[Expr], list[int]]:
    """The distinct nodes under ``roots``, each once, children
    before parents, and for each root the end of its segment: the nodes
    of ``roots[k]`` not already under an earlier root fill
    ``order[ends[k-1]:ends[k]]``.  Siblings are visited last to first,
    and a segment is in the order :func:`compiled` code evaluates it.
    An explicit stack, so deep trees need no recursion."""
    order: list[Expr] = []
    ends: list[int] = []
    seen: set[Expr] = set()
    for root in roots:
        # A None entry means: the node below it has all its children
        # in order, so it goes next.
        stack: list[Expr | None] = [root]
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
                continue
            if node in seen:
                continue
            seen.add(node)
            kind = type(node)
            if kind is Sum:
                children = node.terms
            elif kind is Prod:
                children = node.factors
            elif kind is Pow:
                children = (node.base, node.exponent)
            elif kind is Neg or kind is Call:
                children = (node.arg,)
            else:
                order.append(node)
                continue
            stack.append(node)
            stack.append(None)
            stack.extend(children)
        ends.append(len(order))
    return order, ends


def _tape(e: Expr) -> list[tuple]:
    """``e`` as a flat post-order list with one ``(class, *slots)``
    entry per distinct node, ``e`` last.  A child is replaced by its
    position in the list (an int; constants hold floats), so pickling
    and copying need no recursion and write a shared subtree once."""
    order, _ = _postorder((e,))
    position = {node: k for k, node in enumerate(order)}

    def encode(value):
        if isinstance(value, Expr):
            return position[value]
        if isinstance(value, tuple):
            return tuple(position[v] for v in value)
        return value

    return [(type(node), *(encode(getattr(node, slot)) for slot in node.__slots__)) for node in order]


def _from_tape(tape: list[tuple]) -> Expr:
    """The node :func:`_tape` wrote, rebuilt through the node
    constructors, so it is the interned node itself."""
    nodes: list[Expr] = []

    def decode(value):
        if type(value) is int:
            return nodes[value]
        if type(value) is tuple:
            return tuple(nodes[k] for k in value)
        return value

    for kind, *fields in tape:
        nodes.append(kind(*map(decode, fields)))
    return nodes[-1]


def free_variables(e: Expr) -> frozenset[str]:
    order, _ = _postorder((e,))
    return frozenset(node.name for node in order if isinstance(node, Var))


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    out: dict[Expr, Expr] = {}
    for node in _postorder((e,))[0]:
        kind = type(node)
        if kind is Var:
            new = mapping.get(node.name, node)
        elif kind is Const:
            new = node
        elif kind is Sum:
            new = add(*[out[t] for t in node.terms])
        elif kind is Prod:
            new = mul(*[out[f] for f in node.factors])
        elif kind is Pow:
            new = power(out[node.base], out[node.exponent])
        elif kind is Neg:
            new = neg(out[node.arg])
        else:
            new = call(node.fn, out[node.arg])
        out[node] = new
    return out[e]


def differentiate(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``name``."""
    out: dict[Expr, Expr] = {}
    for node in _postorder((e,))[0]:
        kind = type(node)
        if kind is Const:
            d: Expr = ZERO
        elif kind is Var:
            d = ONE if node.name == name else ZERO
        elif kind is Sum:
            d = add(*[out[t] for t in node.terms])
        elif kind is Prod:
            pieces = []
            for i, f in enumerate(node.factors):
                df = out[f]
                if is_zero(df):
                    continue
                rest = node.factors[:i] + node.factors[i + 1 :]
                pieces.append(mul(df, *rest))
            d = add(*pieces) if pieces else ZERO
        elif kind is Pow:
            b, ex = node.base, node.exponent
            db = out[b]
            if isinstance(ex, Const):
                d = mul(ex, power(b, Const(ex.value - 1.0)), db)
            else:
                # d(b^e) = b^e * (e' log b + e b'/b)
                d = mul(
                    power(b, ex),
                    add(mul(out[ex], call("log", b)), mul(ex, db, power(b, Const(-1.0)))),
                )
        elif kind is Neg:
            d = neg(out[node.arg])
        else:
            u, du = node.arg, out[node.arg]
            if node.fn == "sin":
                d = mul(call("cos", u), du)
            elif node.fn == "cos":
                d = neg(mul(call("sin", u), du))
            elif node.fn == "exp":
                d = mul(call("exp", u), du)
            elif node.fn == "log":
                d = mul(du, power(u, Const(-1.0)))
            else:  # sqrt
                d = mul(du, power(mul(2.0, call("sqrt", u)), Const(-1.0)))
        out[node] = d
    return out[e]


def is_zero(e: Expr) -> bool:
    """Structural zero test (sufficient, not complete): true when the
    expression built to the constant 0.  Looking at the root suffices
    because every node comes from the smart constructors, and identity
    suffices because nodes are interned."""
    return e is ZERO


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: Expr, binding: Binding) -> float:
    """Reference evaluator (IEEE doubles, sums by ``math.fsum``).  It
    visits nodes in the order :func:`compiled` code runs them, tests
    each value for finiteness, and raises at the first node that fails."""
    out: dict[Expr, float] = {}
    for node in _postorder((e,))[0]:
        kind = type(node)
        if kind is Const:
            value = node.value
        elif kind is Var:
            try:
                value = float(binding[node.name])
            except KeyError:
                raise UnboundVariableError(
                    f"unbound variable {node.name!r}", binding
                ) from None
        elif kind is Sum:
            value = math.fsum(out[t] for t in node.terms)
        elif kind is Prod:
            value = 1.0
            for f in node.factors:
                value *= out[f]
        elif kind is Pow:
            try:
                value = math.pow(out[node.base], out[node.exponent])
            except (ValueError, ZeroDivisionError, OverflowError) as err:
                raise EvaluationError(f"power domain error: {err}", binding) from None
        elif kind is Neg:
            value = -out[node.arg]
        else:
            try:
                value = FUNCTIONS[node.fn](out[node.arg])
            except (ValueError, OverflowError) as err:
                raise EvaluationError(
                    f"{node.fn} domain error: {err}", binding
                ) from None
        if not math.isfinite(value):
            raise EvaluationError("overflow to non-finite value", binding)
        out[node] = value
    return out[e]


def _codegen(e: Expr) -> Callable[[Binding], float]:
    """Compile to a flat sequence of Python assignments (CSE by identity)."""
    names: dict[Expr, str] = {}
    lines: list[str] = []
    for node in _postorder((e,))[0]:
        tname = f"t{len(names)}"
        if isinstance(node, Const):
            rhs = repr(node.value)
        elif isinstance(node, Var):
            rhs = f"b[{node.name!r}]"
        elif isinstance(node, Sum):
            rhs = " + ".join(names[t] for t in node.terms)
        elif isinstance(node, Prod):
            rhs = " * ".join(names[f] for f in node.factors)
        elif isinstance(node, Pow):
            rhs = f"_pow({names[node.base]}, {names[node.exponent]})"
        elif isinstance(node, Neg):
            rhs = f"-{names[node.arg]}"
        else:
            rhs = f"_{node.fn}({names[node.arg]})"
        names[node] = tname
        lines.append(f"    {tname} = {rhs}")
    body = "\n".join(lines)
    src = f"def _fn(b):\n{body}\n    return {names[e]}\n"
    env = {"_pow": math.pow, **{f"_{k}": v for k, v in FUNCTIONS.items()}}
    exec(compile(src, "<expr>", "exec"), env)
    return env["_fn"]


def compiled(e: Expr) -> Callable[[Binding], float]:
    """Fast evaluator for repeated evaluation; same error semantics as
    :func:`evaluate`.  Each call generates code afresh, so callers that
    evaluate one expression repeatedly keep the returned function."""
    raw = _codegen(e)

    def fn(binding: Binding) -> float:
        try:
            out = raw(binding)
        except KeyError as err:
            raise UnboundVariableError(
                f"unbound variable {err.args[0]!r}", binding
            ) from None
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise EvaluationError(f"domain error: {err}", binding) from None
        if not math.isfinite(out):
            raise EvaluationError("overflow to non-finite value", binding)
        return out

    return fn


def _libm_column(fn, args: tuple[np.ndarray, ...], pos: int, failed: dict) -> np.ndarray:
    """Apply the scalar ``fn`` row by row, as compiled code does.  Rows
    where it raises become NaN and are recorded in ``failed``."""
    lists = [a.tolist() for a in args]
    try:
        return np.array(list(map(fn, *lists)), dtype=float)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    out = []
    for row, xs in enumerate(zip(*lists)):
        try:
            out.append(fn(*xs))
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            failed.setdefault(row, (pos, EvaluationError, f"domain error: {err}"))
            out.append(math.nan)
    return np.array(out, dtype=float)


def _evaluate_order(
    roots: tuple[Expr, ...],
    order: list[Expr],
    ends: list[int],
    names: tuple[str, ...],
    columns: np.ndarray,
) -> list[np.ndarray]:
    """:func:`evaluate_columns` over a walk already made."""
    n = columns.shape[0]
    index = {name: j for j, name in enumerate(names)}
    values: dict[Expr, np.ndarray] = {}
    # row -> (position, error class, message) of its first failing node
    failed: dict[int, tuple[float, type, str]] = {}
    with np.errstate(all="ignore"):
        for pos, node in enumerate(order):
            kind = type(node)
            if kind is Const:
                out = np.full(n, node.value)
            elif kind is Var:
                j = index.get(node.name)
                if j is None:
                    # Fails at every row, so the first row decides.
                    if n:
                        failed.setdefault(0, (pos, UnboundVariableError, f"unbound variable {node.name!r}"))
                    out = np.full(n, math.nan)
                else:
                    out = columns[:, j]
            elif kind is Sum:
                terms = node.terms
                out = values[terms[0]] + values[terms[1]]
                for t in terms[2:]:
                    out += values[t]
            elif kind is Prod:
                factors = node.factors
                out = values[factors[0]] * values[factors[1]]
                for f in factors[2:]:
                    out *= values[f]
            elif kind is Pow:
                base, exponent = values[node.base], values[node.exponent]
                out = _libm_column(math.pow, (base, exponent), pos, failed)
            elif kind is Neg:
                out = -values[node.arg]
            else:
                out = _libm_column(FUNCTIONS[node.fn], (values[node.arg],), pos, failed)
            values[node] = out
    outs = [values[root] for root in roots]
    # compiled code tests a root for finiteness after its own nodes and
    # before the next root's, hence the half position.
    for end, col in zip(ends, outs):
        for row in np.flatnonzero(~np.isfinite(col)).tolist():
            if row not in failed or failed[row][0] >= end:
                failed[row] = (end - 0.5, EvaluationError, "overflow to non-finite value")
    if failed:
        row = min(failed)
        _, kind, message = failed[row]
        raise kind(message, dict(zip(names, columns[row].tolist())))
    return outs


def evaluate_columns(
    roots: Iterable[Expr], names: Iterable[str], columns: np.ndarray
) -> list[np.ndarray]:
    """Evaluate every root at every row of ``columns`` (column ``j``
    holds variable ``names[j]``), computing each distinct node once as
    a float64 column.

    Values are bit-identical to :func:`compiled`: sums and products run
    left to right in term order, powers and calls apply the libm scalar
    (``math.pow``, ``FUNCTIONS``) to each row.  So are errors: the first
    row at which calling ``compiled(roots[0])``, ``compiled(roots[1])``,
    ... in turn would raise raises the same error, with that row as its
    point."""
    roots = tuple(roots)
    order, ends = _postorder(roots)
    return _evaluate_order(roots, order, ends, tuple(names), columns)


def central_difference(e: Expr, name: str, point: Binding, step: float = 1e-6) -> float:
    """Finite-difference oracle for :func:`differentiate`."""
    hi = dict(point)
    lo = dict(point)
    x = float(point[name])
    hi[name] = x + step
    lo[name] = x - step
    return (evaluate(e, hi) - evaluate(e, lo)) / (2.0 * step)


# ---------------------------------------------------------------------------
# Sampling and randomized identity testing


@dataclass(frozen=True)
class Sampler:
    """Deterministic point generator over a coordinate box.

    Per-variable ranges override the default box.  Streams depend only on
    (seed, variable names), so failures reproduce across runs.
    """

    points: int = 100
    seed: int = 0
    lo: float = -2.0
    hi: float = 2.0
    ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        # A check over no points would pass vacuously.
        if self.points < 1:
            raise ValueError(f"a sampler needs at least 1 point, got {self.points}")

    def _rng(self, names: tuple[str, ...]) -> np.random.Generator:
        tag = zlib.crc32(",".join(names).encode("utf-8"))
        return np.random.default_rng((self.seed, tag))

    def _draw(self, rng: np.random.Generator, names: tuple[str, ...], n: int) -> np.ndarray:
        """``n`` rows from ``rng``, one column per name: ``lo + (hi -
        lo) * u`` for uniform draws ``u``, taken row by row."""
        raw = rng.random((n, len(names)))
        out = np.empty_like(raw)
        for j, name in enumerate(names):
            lo, hi = self.ranges.get(name, (self.lo, self.hi))
            out[:, j] = lo + (hi - lo) * raw[:, j]
        return out

    def columns(self, names: Iterable[str], count: int | None = None) -> np.ndarray:
        """The sampled points as an array, one row per point and one
        column per name."""
        names = tuple(names)
        n = self.points if count is None else count
        return self._draw(self._rng(names), names, n)

    def sample(self, names: Iterable[str], count: int | None = None) -> list[dict[str, float]]:
        """The points of :meth:`columns`, one dict per row."""
        names = tuple(names)
        return [dict(zip(names, row)) for row in self.columns(names, count).tolist()]

    def sample_with_floor(
        self,
        names: Iterable[str],
        floor_names: Iterable[str],
        floor: float,
        count: int | None = None,
    ) -> list[dict[str, float]]:
        """Like :meth:`sample` but resamples until the max-norm of the
        ``floor_names`` block is at least ``floor`` (keeps points off the
        zero section)."""
        names = tuple(names)
        floor_names = tuple(floor_names)
        n = self.points if count is None else count
        rng = self._rng(names + ("floor",))
        block = [names.index(f) for f in floor_names]
        kept = np.empty((0, len(names)))
        # At most 1000 blocks of n rows: the draws of one point at a
        # time, in the same order and under the same limit.
        for _ in range(1000):
            if len(kept) >= n:
                break
            rows = self._draw(rng, names, n)
            if block:
                rows = rows[~(np.abs(rows[:, block]).max(axis=1) < floor)]
            kept = np.concatenate((kept, rows))
        if len(kept) < n:
            raise ValueError(f"could not sample points with max-norm floor {floor} over {floor_names}")
        return [dict(zip(names, row)) for row in kept[:n].tolist()]


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def worst_gap(gaps: Iterable[float]) -> tuple[float, int | None]:
    """The largest gap and the index of its first occurrence: the one
    witness rule of every sampled check.  A NaN counts as the largest
    gap, so the row it lands in fails.  The index is ``None`` when no
    gap is above 0, and no gaps give ``(0.0, None)``."""
    # max keeps the first of equal keys; a NaN's key beats any number's.
    index, worst = max(enumerate(gaps), key=lambda item: (math.isnan(item[1]), item[1]), default=(None, 0.0))
    if worst > 0.0 or math.isnan(worst):
        return worst, index
    return 0.0, None


def max_residual(
    e1: Expr,
    e2: Expr,
    sampler: Sampler,
    names: Iterable[str] | None = None,
) -> tuple[float, dict[str, float] | None]:
    """Worst relative gap between two expressions over sampled points,
    with the witness point that :func:`worst_gap` picks."""
    roots = (e1, e2)
    order, ends = _postorder(roots)
    if names is None:
        names = sorted({node.name for node in order if isinstance(node, Var)})
    names = tuple(names)
    columns = sampler.columns(names)
    v1, v2 = _evaluate_order(roots, order, ends, names, columns)
    with np.errstate(over="ignore"):
        gap = np.abs(v1 - v2) / (1.0 + np.maximum(np.abs(v1), np.abs(v2)))
    worst, row = worst_gap(gap.tolist())
    return worst, None if row is None else dict(zip(names, columns[row].tolist()))


def equivalent(
    e1: Expr,
    e2: Expr,
    sampler: Sampler,
    tol: float = 1e-8,
    names: Iterable[str] | None = None,
) -> bool:
    """Randomized identity test: true iff |e1-e2| <= tol*(1+max(|e1|,|e2|))
    at every sampled point."""
    return max_residual(e1, e2, sampler, names)[0] <= tol


# ---------------------------------------------------------------------------
# Printing

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _pow_side(side: Expr, bare: tuple[type, ...]) -> list:
    """Work items for one side of ``^``: bare when ``side`` is of a
    ``bare`` kind or a non-negative constant, else parenthesized."""
    if isinstance(side, bare) or (isinstance(side, Const) and side.value >= 0):
        return [(side, _PREC_ATOM)]
    return ["(", (side, 0), ")"]


def to_string(e: Expr) -> str:
    out: list[str] = []
    # Each work item is text to emit or a (node, parent precedence) pair
    # to render; a node's items go on the stack last to first.
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent_prec = item
        kind = type(node)
        if kind is Const:
            parts: list = [_fmt_const(node.value)]
            prec = _PREC_NEG if node.value < 0 else _PREC_ATOM
        elif kind is Var:
            parts, prec = [node.name], _PREC_ATOM
        elif kind is Sum:
            parts = [(node.terms[0], _PREC_SUM)]
            for t in node.terms[1:]:
                if isinstance(t, Neg):
                    parts += [" - ", (t.arg, _PREC_SUM + 1)]
                elif isinstance(t, Const) and t.value < 0:
                    parts.append(" - " + _fmt_const(-t.value))
                elif isinstance(t, Prod) and isinstance(t.factors[0], Const) and t.factors[0].value < 0:
                    flipped = mul(Const(-t.factors[0].value), *t.factors[1:])
                    parts += [" - ", (flipped, _PREC_SUM + 1)]
                else:
                    parts += [" + ", (t, _PREC_SUM + 1)]
            prec = _PREC_SUM
        elif kind is Prod:
            parts = [(node.factors[0], _PREC_PROD + 1)]
            for f in node.factors[1:]:
                parts += ["*", (f, _PREC_PROD + 1)]
            prec = _PREC_PROD
        elif kind is Neg:
            parts, prec = ["-", (node.arg, _PREC_NEG)], _PREC_NEG
        elif kind is Pow:
            parts = [*_pow_side(node.base, (Var, Call)), "^", *_pow_side(node.exponent, (Var,))]
            prec = _PREC_POW
        else:
            parts, prec = [f"{node.fn}(", (node.arg, 0), ")"], _PREC_ATOM
        if prec < parent_prec:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_NUM = "num"
_TOKEN_IDENT = "ident"
_TOKEN_OP = "op"
_TOKEN_EOF = "eof"


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                finite = math.isfinite(float(lexeme))
            except ValueError:
                finite = False
            if not finite:
                raise ExprSyntaxError(f"bad number {lexeme!r}", line, col)
            tokens.append((_TOKEN_NUM, lexeme, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOKEN_IDENT, text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((_TOKEN_OP, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append((_TOKEN_EOF, "", line, col))
    return tokens


# Binary operators: (precedence, lowest precedence on the operator
# stack that the operator reduces when it arrives).  The second is one
# above the first for the right-associative ``^``.  Prefix ``-`` sits
# between ``* /`` and ``^``; an open group sits at 0, below them all.
_BINARY = {"+": (1, 1), "-": (1, 1), "*": (2, 2), "/": (2, 2), "^": (4, 5)}
_PREC_UNARY = 3


def _reduce(operands: list[Expr], ops: list[tuple[int, str, int, int]], floor: int) -> None:
    """Apply the operators on top of ``ops`` down to the first one of
    precedence below ``floor``, innermost first."""
    while ops and ops[-1][0] >= floor:
        _, symbol, line, col = ops.pop()
        if symbol == "neg":
            operands[-1] = neg(operands[-1])
            continue
        rhs = operands.pop()
        lhs = operands[-1]
        try:
            if symbol == "+":
                out = add(lhs, rhs)
            elif symbol == "-":
                out = add(lhs, neg(rhs))
            elif symbol == "*":
                out = mul(lhs, rhs)
            elif symbol == "/":
                out = mul(lhs, power(rhs, Const(-1.0)))
            else:
                out = power(lhs, rhs)
        except ValueError:
            # Folding two finite constants overflowed.
            raise ExprSyntaxError("constant overflow", line, col) from None
        operands[-1] = out


def parse(text: str) -> Expr:
    """Parse infix syntax: ``^`` (right-assoc) > unary ``-`` > ``* /`` >
    ``+ -``, parentheses, calls ``f(expr)``, identifiers, decimal literals.

    Operator precedence with explicit operand and operator stacks, so
    nesting depth is bounded by memory alone."""
    tokens = _tokenize(text)
    operands: list[Expr] = []
    # (precedence, symbol, line, column); "(" or a function name opens a group.
    ops: list[tuple[int, str, int, int]] = []
    i = 0
    while True:
        # An operand is due: prefix "-" and group openers come first.
        kind, lexeme, line, col = tokens[i]
        i += 1
        if kind == _TOKEN_OP and lexeme == "-":
            ops.append((_PREC_UNARY, "neg", line, col))
            continue
        if kind == _TOKEN_OP and lexeme == "(":
            ops.append((0, "(", line, col))
            continue
        if kind == _TOKEN_IDENT and tokens[i][:2] == (_TOKEN_OP, "("):
            if lexeme not in FUNCTIONS:
                raise UnknownFunctionError(f"unknown function {lexeme!r}", line, col)
            ops.append((0, lexeme, line, col))
            i += 1
            continue
        if kind == _TOKEN_NUM:
            operands.append(Const(float(lexeme)))
        elif kind == _TOKEN_IDENT:
            operands.append(Var(lexeme))
        else:
            raise ExprSyntaxError("expected expression", line, col)
        # An operand is complete: a binary operator, ")" or the end follows.
        while True:
            kind, lexeme, line, col = tokens[i]
            i += 1
            if kind == _TOKEN_OP and lexeme in _BINARY:
                prec, floor = _BINARY[lexeme]
                _reduce(operands, ops, floor)
                ops.append((prec, lexeme, line, col))
                break
            _reduce(operands, ops, 1)
            if not ops:
                if kind == _TOKEN_EOF:
                    return operands[0]
                raise ExprSyntaxError(f"unexpected trailing input {lexeme!r}", line, col)
            if kind != _TOKEN_OP or lexeme != ")":
                raise ExprSyntaxError("expected ')'", line, col)
            _, opener, _, _ = ops.pop()
            if opener != "(":
                operands[-1] = call(opener, operands[-1])
