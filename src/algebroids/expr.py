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

import contextlib
import contextvars
import gc
import math
import operator
import weakref
import zlib
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
        # The message without the point, for a caller that names the
        # point in its own terms.
        self.reason = message
        if point is not None:
            message = f"{message} at point {dict(point)!r}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class UnboundVariableError(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# Nodes


class Expr:
    # ``kids`` and ``free`` depend on structure alone, so _interned sets
    # them once, when it makes the node: the child tuple, in the order
    # every walk visits it, and the frozenset of variable names below.
    __slots__ = ("__weakref__", "kids", "free")

    def __new__(cls, *args):
        # Const and Var validate their input in their own __new__; every
        # other node comes from the smart constructors, via _interned.
        raise TypeError(f"{cls.__name__} nodes are built by the smart constructors")

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
        return _from_tape, (_tape((self,))[0],)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return to_string(self)


# Hash-consing: every node is interned, so equal structure means the
# same object, and ``==``/``hash`` are the inherited identity ones.  The
# key is the node's class followed by its slots, children themselves
# (not their ids), so no id can be reused while an entry lives.  Each
# entry is a weak reference to its node that carries its key; when the
# node goes, the callback removes the entry, but only while the entry
# still holds that dead reference, so a node re-made under the same key
# keeps its own.  No lookup takes a lock.  A miss makes the node whole,
# then inserts its entry with one ``dict.setdefault``, which no other
# thread can split: a thread that finds a live entry there already takes
# that node instead, and one that finds a dead entry, whose callback has
# not run yet, replaces it.


class _Entry(weakref.ref):
    # No Python-level __new__ or __init__, so creating one runs only the
    # C constructor; _interned sets ``key`` right after.
    __slots__ = ("key",)


_NODES: dict[tuple, _Entry] = {}
_new = object.__new__


def _forget(entry: _Entry) -> None:
    _remove_dead_weakref(_NODES, entry.key)


_NO_VARIABLES: frozenset[str] = frozenset()


def _free_of(kids: tuple) -> frozenset[str]:
    """The variable names under a node with two or more ``kids``.  It
    shares a child's set when that child's covers the others, as it does
    for most nodes."""
    free = kids[0].free
    for kid in kids[1:]:
        other = kid.free
        if free <= other:
            free = other
        elif not other <= free:
            free = free | other
    return free


def _interned(key: tuple) -> Expr:
    """The one node whose class and slots are ``key = (cls, *slots)``."""
    entry = _NODES.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    # Each class stores its own slots, its ``kids`` and its ``free``, all
    # before the entry goes in, so a lock-free hit never sees a node
    # without them.  A leaf's set is fixed and a one-child node's is its
    # child's.
    cls = key[0]
    node = _new(cls)
    if cls is Prod:
        node.factors = node.kids = kids = key[1]
        node.free = _free_of(kids)
    elif cls is Sum:
        node.terms = node.kids = kids = key[1]
        node.free = _free_of(kids)
    elif cls is Const:
        node.value = key[1]
        node.kids = ()
        node.free = _NO_VARIABLES
    elif cls is Neg:
        node.arg = arg = key[1]
        node.kids = (arg,)
        node.free = arg.free
    elif cls is Pow:
        node.kids = kids = key[1:]
        node.base, node.exponent = kids
        node.free = _free_of(kids)
    elif cls is Call:
        node.fn = key[1]
        node.arg = arg = key[2]
        node.kids = (arg,)
        node.free = arg.free
    else:
        node.name = key[1]
        node.kids = ()
        node.free = frozenset(key[1:])
    entry = _Entry(node, _forget)
    entry.key = key
    held = _NODES.setdefault(key, entry)
    while held is not entry:
        other = held()
        if other is not None:
            # Another thread made this node first.
            return other
        # A dead entry whose callback has not run yet.  Each call below is
        # atomic and the first drops only a dead entry, so no live node
        # is ever replaced.
        _remove_dead_weakref(_NODES, key)
        held = _NODES.setdefault(key, entry)
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"constants must be finite, got {value!r}")
        # Keyed by value, so -0.0 and 0.0 are one node.
        return _interned((cls, value))


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("variable names must be non-empty")
        return _interned((cls, name))


class Sum(Expr):
    __slots__ = ("terms",)


class Prod(Expr):
    __slots__ = ("factors",)


class Pow(Expr):
    __slots__ = ("base", "exponent")


class Neg(Expr):
    __slots__ = ("arg",)


class Call(Expr):
    __slots__ = ("fn", "arg")


FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

ZERO = Const(0.0)
ONE = Const(1.0)
MINUS_ONE = Const(-1.0)
# Every class of node; the constructors dispatch on type(), and any
# other argument goes through _coerce.
_KINDS = frozenset((Const, Var, Sum, Prod, Pow, Neg, Call))
# The classes mul keeps as they are, after any leading constant.
_FACTORS = frozenset((Var, Sum, Pow, Call))


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
# most one leading constant and no Neg factors.  Zero is absorbed: a
# product with a zero factor is ZERO, and add drops ZERO terms.  So a
# contraction with a structure table (the anchor, the structure functions,
# a fiber morphism) is summed by contract over the table's nonzero list
# alone: the products it skips would be ZERO, and the sum is the very node
# the dense sum builds.  A zero is tested only where that saves real work
# (a skipped product or differentiation) or changes what is stored or
# shown (sparse forms, printers, validations).  Const, Var and these
# constructors are the only way to build a node: calling Sum, Prod, Neg,
# Pow or Call raises TypeError, and unpickling interns the nodes a
# constructor built.  Re-applying a constructor to a node's children gives
# the same node back, so the form is already canonical: is_zero relies on
# this and never rebuilds a tree.


def const(value: float) -> Expr:
    return Const(value)


def var(name: str) -> Expr:
    return Var(name)


def add(*terms) -> Expr:
    # Most sums built have one term or none.  Re-adding a node's terms
    # gives that node back, so a lone node is its own sum.
    if len(terms) < 2:
        if not terms:
            return ZERO
        if type(terms[0]) in _KINDS:
            return terms[0]
    flat: list[Expr] = []
    acc = 0.0
    # The last constant term met.  Constants are keyed by value, so when
    # the folded sum equals its value, Const(acc) is that very node.
    last = None
    for t in terms:
        kind = type(t)
        if kind is Sum:
            for p in t.terms:
                if type(p) is Const:
                    acc += p.value
                    last = p
                else:
                    flat.append(p)
        elif kind is Const:
            acc += t.value
            last = t
        elif kind in _KINDS:
            flat.append(t)
        else:
            last = _coerce(t)
            acc += last.value
    if acc != 0.0 or not flat:
        flat.insert(0, last if last is not None and last.value == acc else Const(acc))
    if len(flat) == 1:
        return flat[0]
    return _interned((Sum, tuple(flat)))


def mul(*factors) -> Expr:
    # A ZERO factor needs no test of its own: it folds into acc, and the
    # product is ZERO below.  Few products hold one, since contract skips
    # the zero entries of the structure tables.
    flat: list[Expr] = []
    acc = 1.0
    negative = False
    # As in add: the last constant factor, reused when it is the product.
    last = None
    for f in factors:
        kind = type(f)
        if kind is Neg:
            negative = not negative
            f = f.arg
            kind = type(f)
        if kind is Prod:
            for p in f.factors:
                if type(p) is Const:
                    acc *= p.value
                    last = p
                else:
                    flat.append(p)
        elif kind is Const:
            acc *= f.value
            last = f
        elif kind in _KINDS:
            flat.append(f)
        else:
            last = _coerce(f)
            acc *= last.value
    if acc == 0.0 or acc != acc:
        # A zero factor absorbs the product, even where other constants
        # overflowed first: inf * 0 is nan, the one float unequal to itself.
        return ZERO
    if negative:
        acc = -acc
    if not flat:
        return last if last is not None and last.value == acc else Const(acc)
    if acc == -1.0:
        return neg(flat[0] if len(flat) == 1 else _interned((Prod, tuple(flat))))
    if acc != 1.0:
        flat.insert(0, last if last is not None and last.value == acc else Const(acc))
    if len(flat) == 1:
        return flat[0]
    return _interned((Prod, tuple(flat)))


def neg(x) -> Expr:
    if type(x) not in _KINDS:
        x = _coerce(x)
    kind = type(x)
    if kind is Const:
        # The negation of a finite value is finite, and -0.0 keys as 0.0.
        return _interned((Const, -x.value))
    if kind is Neg:
        return x.arg
    if kind is Prod and type(x.factors[0]) is Const:
        return mul(_interned((Const, -x.factors[0].value)), *x.factors[1:])
    return _interned((Neg, x))


def nonzero(table) -> tuple[tuple, ...]:
    """The ``(i, j, ..., entry)`` tuple of each entry of the nested tuple
    ``table`` that is not ``ZERO``, in row-major order."""
    if isinstance(table, Expr):
        return () if table is ZERO else ((table,),)
    return tuple((i, *rest) for i, sub in enumerate(table) for rest in nonzero(sub))


def contract(terms: Iterable[Sequence], *lead: Expr) -> Expr:
    """``add(*lead, *[mul(*factors) for factors in terms])``, where the
    terms are drawn from the :func:`nonzero` list of a table, so that a
    structurally zero entry builds no product; a leading ``MINUS_ONE``
    factor negates a term."""
    return add(*lead, *[mul(*factors) for factors in terms])


def power(base, exponent) -> Expr:
    if type(base) not in _KINDS:
        base = _coerce(base)
    if type(exponent) not in _KINDS:
        exponent = _coerce(exponent)
    if type(exponent) is Const:
        if exponent.value == 1.0:
            return base
        if exponent.value == 0.0:
            return ONE
        if type(base) is Const:
            try:
                value = math.pow(base.value, exponent.value)
            except (ValueError, OverflowError):
                return _interned((Pow, base, exponent))
            if math.isfinite(value):
                return _interned((Const, value))
    return _interned((Pow, base, exponent))


def call(fn: str, arg) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if type(arg) not in _KINDS:
        arg = _coerce(arg)
    if type(arg) is Const:
        try:
            value = FUNCTIONS[fn](arg.value)
        except (ValueError, OverflowError):
            return _interned((Call, fn, arg))
        if math.isfinite(value):
            return _interned((Const, value))
    return _interned((Call, fn, arg))


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


# Shared walks.  substitute, differentiate, the column pass and the tangent
# pass each give every distinct node under their argument one value,
# children first, in a table kept per pass and per variable name, mapping,
# point set or point set and vector field.  Outside
# a shared_walks() block each call starts with an empty table, as a lone
# call must.  Inside one, a call stops at every node the block's earlier
# calls of the same pass already valued.  Nodes are interned, so a kept
# value is the very node a fresh walk builds.  Free variables need no
# walk: each node carries its set.
#
# A block also pauses the cyclic garbage collector.  A node's kids exist
# before it does, so nodes form a DAG that reference counting alone
# frees; the collector would only rescan the block's many live nodes to
# find no cycle among them.  The outermost block restores the state it
# found, after it drops the tables.
_WALKS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("algebroids.expr.walks", default=None)


@contextlib.contextmanager
def shared_walks():
    """Keep the tables of :func:`substitute`, :func:`differentiate` and
    :func:`point_set` (which :func:`max_residual` values on) for the
    block, and drop them when it ends.  A
    nested block joins the outermost one.  The tables belong to the
    current context, so a thread started inside the block sees none.
    The outermost block turns the cyclic garbage collector off, and back
    on at its end if it was on when the block began."""
    if _WALKS.get() is not None:
        yield
        return
    collecting = gc.isenabled()
    gc.disable()
    token = _WALKS.set({})
    try:
        yield
    finally:
        _WALKS.reset(token)
        if collecting:
            gc.enable()


def _kept(key, make):
    """The block's value under ``key``, made by ``make()`` on first use,
    or a fresh ``make()`` outside any block."""
    tables = _WALKS.get()
    if tables is None:
        return make()
    value = tables.get(key)
    if value is None:
        value = tables[key] = make()
    return value


def _walk(root: Expr, rule, out: dict, arg, prune: Sequence[str] | None = None):
    """The value of ``root`` in the table ``out``.  Every node under
    ``root`` that the table lacks gets ``out[node] = rule(node, out,
    arg)``, after its ``kids``, on an explicit stack, so deep trees need
    no recursion.  So the table fills in post-order, each node after its
    kids, siblings last to first: :func:`_tape` numbers nodes by it.
    With ``prune``, the variable names of a derivative, a node whose free
    set holds none of them is valued ``ZERO`` with no walk below it: the
    derivative of such a subtree is ``ZERO`` whatever it holds."""
    if root in out:
        return out[root]
    # A 1-tuple means: every kid of its node is valued, so the node goes next.
    stack: list = [root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        if type(node) is tuple:
            node = node[0]
            out[node] = rule(node, out, arg)
            continue
        if node in out:
            continue
        if prune is not None and node.free.isdisjoint(prune):
            out[node] = ZERO
            continue
        kids = node.kids
        if kids:
            push((node,))
            extend(kids)
        else:
            out[node] = rule(node, out, arg)
    return out[root]


def _tape_rule(node, out, code):
    """A pass of :func:`_walk`: append ``node``'s entry to ``code`` and
    give its position there."""
    kind = type(node)
    if kind is Sum or kind is Prod:
        code.append((kind, tuple(out[c] for c in node.kids)))
    elif kind is Pow:
        code.append((Pow, out[node.base], out[node.exponent]))
    elif kind is Neg:
        code.append((Neg, out[node.arg]))
    elif kind is Call:
        code.append((Call, node.fn, out[node.arg]))
    elif kind is Const:
        code.append((Const, node.value))
    else:
        code.append((Var, node.name))
    return len(code) - 1


def _tape(roots: Iterable[Expr]) -> tuple[list[tuple], list[int], list[int]]:
    """The one flat program of ``roots``: a ``(class, *slots)`` entry per
    distinct node, children before parents and replaced by their positions,
    then each root's segment end (the nodes of ``roots[k]`` not under an
    earlier root fill ``code[ends[k-1]:ends[k]]``) and its own position (a
    root may repeat or lie in an earlier segment).  Pickling and the point
    driver read it, so neither recurses and each handles a shared subtree
    once."""
    code: list[tuple] = []
    position: dict[Expr, int] = {}
    ends, outs = [], []
    for root in roots:
        outs.append(_walk(root, _tape_rule, position, code))
        ends.append(len(code))
    return code, ends, outs


def _from_tape(tape: list[tuple]) -> Expr:
    """The last node of the code :func:`_tape` wrote.  Each entry, its
    positions replaced by the nodes there, is the key of a node that a
    constructor built, so it is interned as it stands."""
    nodes: list[Expr] = []

    def decode(value):
        if type(value) is int:
            return nodes[value]
        if type(value) is tuple:
            return tuple(nodes[k] for k in value)
        return value

    for kind, *fields in tape:
        nodes.append(_interned((kind, *map(decode, fields))))
    return nodes[-1]


def free_variables(e: Expr) -> frozenset[str]:
    """The names of the variables in ``e``, stored on the node."""
    return e.free


def _substitute_rule(node, out, mapping):
    kind = type(node)
    if kind is Var:
        return mapping.get(node.name, node)
    if kind is Const:
        return node
    if kind is Sum:
        return add(*[out[t] for t in node.kids])
    if kind is Prod:
        return mul(*[out[f] for f in node.kids])
    if kind is Pow:
        return power(out[node.base], out[node.exponent])
    if kind is Neg:
        return neg(out[node.arg])
    return call(node.fn, out[node.arg])


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    return _walk(e, _substitute_rule, _kept((_substitute_rule, tuple(sorted(mapping.items()))), dict), mapping)


def _derivative_rule(node, out, name):
    kind = type(node)
    if kind is Const:
        return ZERO
    if kind is Var:
        return ONE if node.name == name else ZERO
    if kind is Sum:
        return add(*[out[t] for t in node.kids])
    if kind is Prod:
        # The factors are canonical: at most one leading constant, never
        # 0, 1 or -1, then nodes of _FACTORS.  So when df is ONE or one
        # of _FACTORS, the key of mul(df, *rest) is known without it.
        factors = node.kids
        pieces = []
        for i, f in enumerate(factors):
            df = out[f]
            if df is ZERO:
                continue
            rest = factors[:i] + factors[i + 1 :]
            if df is ONE:
                pieces.append(rest[0] if len(rest) == 1 else _interned((Prod, rest)))
            elif type(df) in _FACTORS:
                lead = rest[0]
                pieces.append(_interned((Prod, (lead, df, *rest[1:]) if type(lead) is Const else (df, *rest))))
            else:
                pieces.append(mul(df, *rest))
        return add(*pieces)
    if kind is Pow:
        b, ex = node.base, node.exponent
        db = out[b]
        if type(ex) is Const:
            return mul(ex, power(b, Const(ex.value - 1.0)), db)
        # d(b^e) = b^e * (e' log b + e b'/b)
        return mul(
            power(b, ex),
            add(mul(out[ex], call("log", b)), mul(ex, db, power(b, Const(-1.0)))),
        )
    if kind is Neg:
        return neg(out[node.arg])
    u, du = node.arg, out[node.arg]
    if node.fn == "sin":
        return mul(call("cos", u), du)
    if node.fn == "cos":
        return neg(mul(call("sin", u), du))
    if node.fn == "exp":
        return mul(call("exp", u), du)
    if node.fn == "log":
        return mul(du, power(u, Const(-1.0)))
    # sqrt
    return mul(du, power(mul(2.0, call("sqrt", u)), Const(-1.0)))


def differentiate(e: Expr, name: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``name``.  An
    expression without ``name`` gives ``ZERO`` with no walk and no table;
    below the root, the walk stops at every subtree without ``name``,
    whose derivative is ``ZERO``."""
    if name not in e.free:
        return ZERO
    return _walk(e, _derivative_rule, _kept((_derivative_rule, name), dict), name, prune=(name,))


def is_zero(e: Expr) -> bool:
    """Structural zero test (sufficient, not complete): true when the
    expression built to the constant 0.  Looking at the root suffices
    because every node comes from the smart constructors, and identity
    suffices because nodes are interned."""
    return e is ZERO


# ---------------------------------------------------------------------------
# Evaluation


def compiled_many(roots: Iterable[Expr], names: Iterable[str]) -> Callable[[Sequence[float]], list[float]]:
    """The point driver: the values of all ``roots`` at a row, which holds
    the value of ``names[j]`` at ``row[j]``, from one :func:`_tape` program
    built once.  Variables are read as floats, sums and products run left
    to right in term order, powers and calls apply the libm scalars.
    Errors are those of evaluating ``roots[0]``, ``roots[1]``, ... in turn:
    a variable outside ``names`` (unbound), a domain error, or a root that
    is not finite after its own segment.  Each carries the point
    ``dict(zip(names, row))``, built only for the error.  Where every
    root is a constant, a run reads nothing and gives a new list of
    their values."""
    names = tuple(names)
    index = {name: j for j, name in enumerate(names)}
    code, ends, outs = _tape(tuple(roots))
    # Constants are placed once; a run computes the other nodes.
    seeded = [entry[1] if entry[0] is Const else None for entry in code]
    steps = []
    for pos, entry in enumerate(code):
        kind = entry[0]
        if kind is Var:
            # A variable's step holds its position in the row; one outside
            # ``names`` has the kind None and holds its name.
            entry = (Var, index[entry[1]]) if entry[1] in index else (None, entry[1])
        if kind is not Const:
            steps.append((pos, entry))
    if not steps:
        # Every root is a constant, finite by construction: a run reads no
        # row and gives a fresh list of the same values.
        constants = [seeded[k] for k in outs]
        return lambda row: constants.copy()
    # The roots' values after a run; itemgetter gives a tuple only for two
    # or more positions.
    many = len(outs) > 1
    gather = operator.itemgetter(*outs) if many else None

    def run(row: Sequence[float]) -> list[float]:
        values = seeded.copy()
        try:
            for pos, entry in steps:
                kind = entry[0]
                if kind is Prod:
                    acc = 1.0
                    for k in entry[1]:
                        acc *= values[k]
                    values[pos] = acc
                elif kind is Var:
                    values[pos] = float(row[entry[1]])
                elif kind is Pow:
                    values[pos] = math.pow(values[entry[1]], values[entry[2]])
                elif kind is Sum:
                    # -0.0 + t is t bit for bit, so this is t0 + t1 + ...
                    acc = -0.0
                    for k in entry[1]:
                        acc += values[k]
                    values[pos] = acc
                elif kind is Neg:
                    values[pos] = -values[entry[1]]
                elif kind is Call:
                    values[pos] = FUNCTIONS[entry[1]](values[entry[2]])
                else:
                    # A variable outside ``names``.
                    raise KeyError(entry[1])
        except KeyError as err:
            error: EvaluationError | None = UnboundVariableError(
                f"unbound variable {err.args[0]!r}", dict(zip(names, row))
            )
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            error = EvaluationError(f"domain error: {err}", dict(zip(names, row)))
        else:
            out = list(gather(values)) if many else [values[k] for k in outs]
            # A sum of finite values is finite unless it overflows, and
            # then the root-by-root test below decides.
            if math.isfinite(sum(out)):
                return out
            error = None
            pos = len(code)
        # Roots in turn, up to the last whose segment ends before the failure.
        for end, k in zip(ends, outs):
            if end > pos:
                break
            if not math.isfinite(values[k]):
                raise EvaluationError("overflow to non-finite value", dict(zip(names, row)))
        if error is None:
            return out
        try:
            raise error
        finally:
            # Else this frame and the error's traceback would hold each
            # other, a cycle that only the collector frees.
            del error

    return run


def evaluate(e: Expr, binding: Binding) -> float:
    """The value of ``e`` at ``binding``: one run of the point driver, with
    its errors.  An intermediate that overflowed is no error by itself."""
    return compiled_many((e,), binding)(tuple(binding.values()))[0]


def compiled(e: Expr, names: Iterable[str]) -> Callable[[Sequence[float]], float]:
    """:func:`evaluate` of ``e`` at rows over ``names``, with its program
    built once, for callers that evaluate one expression at many points."""
    run = compiled_many((e,), names)
    return lambda row: run(row)[0]


class PointSet:
    """One point set of the column pass: the sampled ``columns``, one per
    name of ``names``, the table of node columns over them, and the
    ``marked`` nodes, whose column met a domain error or an unbound
    variable, itself or below.  A node that met one has a NaN column.  A
    constant's entry is a float64 scalar, which numpy broadcasts.  The
    ``tangents`` tables of :meth:`tangent` are kept here too, one per
    vector field, so they live as long as the point set."""

    __slots__ = ("index", "columns", "values", "marked", "tangents")

    def __init__(self, names: tuple[str, ...], columns: np.ndarray):
        self.index = {name: j for j, name in enumerate(names)}
        self.columns = columns
        self.values: dict[Expr, np.ndarray | np.float64] = {}
        self.marked: set[Expr] = set()
        self.tangents: dict[tuple, dict] = {}

    def column(self, e: Expr) -> np.ndarray:
        """The full column of ``e``: NaN, and no error raised, where it is
        marked."""
        with np.errstate(all="ignore"):
            value = _walk(e, _column_rule, self.values, self)
        return value if value.ndim else np.full(len(self.columns), value)

    def tangent(self, f: Expr, field: tuple[tuple[str, Expr], ...]) -> np.ndarray:
        """The column of ``f``'s derivative along the vector field whose
        component on the variable ``x`` is ``c`` for each pair ``(x, c)``
        of ``field``: ``sum(c * differentiate(f, x))`` to rounding, valued
        by the tangent pass in forward mode, so no tree is built.  Where
        valuing that sum would raise, the column is NaN or infinite."""
        self.column(f)
        table = self.tangents.get(field)
        if table is None:
            table = self.tangents[field] = {}
        with np.errstate(all="ignore"):
            value = _walk(f, _tangent_rule, table, (self, dict(field)), prune=tuple(x for x, _ in field))
        return np.zeros(len(self.columns)) if value is ZERO else value


def _libm_column(fn, args: tuple, node: Expr, group: PointSet) -> np.ndarray:
    """Apply the scalar ``fn`` row by row, as the point driver does, with
    a scalar argument repeated on every row.  If it raises at any row,
    the column is NaN and ``node`` is marked."""
    n = len(group.columns)
    try:
        return np.array(list(map(fn, *[a.tolist() if a.ndim else [a.tolist()] * n for a in args])), dtype=float)
    except (ValueError, ZeroDivisionError, OverflowError):
        group.marked.add(node)
        return np.full(n, math.nan)


def _column_rule(node, out, group: PointSet) -> np.ndarray | np.float64:
    """The column pass: ``node``'s float64 column over every row of
    ``group``, in the point driver's arithmetic, or its value as a scalar
    for a constant.  A sum or product holds at most one constant, and a
    negation none, so each of them gives a fresh column.  Callers ignore
    floating-point warnings: overflow is tested on the roots."""
    kind = type(node)
    kids = node.kids
    if kids:
        if group.marked and not group.marked.isdisjoint(kids):
            group.marked.add(node)
        if kind is Prod:
            # A fresh array, so *= and += never write into a child's column.
            column = out[kids[0]] * out[kids[1]]
            for f in kids[2:]:
                column *= out[f]
            return column
        if kind is Sum:
            column = out[kids[0]] + out[kids[1]]
            for t in kids[2:]:
                column += out[t]
            return column
        if kind is Neg:
            return -out[node.arg]
        if kind is Pow:
            return _libm_column(math.pow, (out[node.base], out[node.exponent]), node, group)
        return _libm_column(FUNCTIONS[node.fn], (out[node.arg],), node, group)
    if kind is Const:
        return np.float64(node.value)
    j = group.index.get(node.name)
    if j is not None:
        return group.columns[:, j]
    group.marked.add(node)
    return np.full(len(group.columns), math.nan)


def _summed(pieces: list[np.ndarray]) -> np.ndarray | Expr:
    """The sum of ``pieces`` in order, a fresh array for two or more of
    them, ``ZERO`` for none."""
    if len(pieces) < 2:
        return pieces[0] if pieces else ZERO
    total = pieces[0] + pieces[1]
    for piece in pieces[2:]:
        total += piece
    return total


def _tangent_rule(node, out, arg) -> np.ndarray | Expr:
    """The tangent pass: ``node``'s derivative column along a vector
    field, from its kids' derivative columns in ``out`` and their value
    columns in the point set's table.  ``arg`` is the point set and the
    field's component expression by variable name.  The walk prunes
    every node without a name of the field, so a constant never comes
    here and a kid valued ``ZERO`` adds nothing.  No kid's column is
    written in place.  numpy's arithmetic and functions give NaN or infinity where
    the libm scalars of the symbolic derivative raise."""
    points, field = arg
    kind = type(node)
    if kind is Var:
        return points.column(field[node.name])
    values = points.values
    kids = node.kids
    if kind is Sum:
        return _summed([out[t] for t in kids if out[t] is not ZERO])
    if kind is Prod:
        pieces = []
        for k, f in enumerate(kids):
            piece = out[f]
            if piece is ZERO:
                continue
            for j, other in enumerate(kids):
                if j != k:
                    piece = piece * values[other]
            pieces.append(piece)
        return _summed(pieces)
    if kind is Neg:
        return -out[node.arg]
    if kind is Pow:
        base, exponent = kids
        db, b = out[base], values[base]
        if type(exponent) is Const:
            c = exponent.value
            return c * b ** (c - 1.0) * db
        # d(b^e) = b^e * (e' log b + e b'/b)
        de = out[exponent]
        pieces = []
        if de is not ZERO:
            pieces.append(de * np.log(b))
        if db is not ZERO:
            pieces.append(values[exponent] * db / b)
        return values[node] * _summed(pieces)
    du, u = out[node.arg], values[node.arg]
    if node.fn == "sin":
        return np.cos(u) * du
    if node.fn == "cos":
        return -(np.sin(u) * du)
    if node.fn == "exp":
        return values[node] * du
    if node.fn == "log":
        return du / u
    # sqrt
    return du / (2.0 * values[node])


def _column_values(roots: tuple[Expr, ...], names: tuple[str, ...], group: PointSet) -> list[np.ndarray]:
    """The columns of ``roots`` in ``group``'s table, whose point set has a
    column per name of ``names``; a constant root is broadcast to a full
    column.  When a root is marked or not finite, the point driver runs on
    each row in turn, so the error of the first failing row is raised just
    as a per-point loop raises it."""
    with np.errstate(all="ignore"):
        values = [_walk(root, _column_rule, group.values, group) for root in roots]
    values = [v if v.ndim else np.full(len(group.columns), v) for v in values]
    if not group.marked.isdisjoint(roots) or not all(np.isfinite(v).all() for v in values):
        run = compiled_many(roots, names)
        for row in group.columns.tolist():
            run(row)
    return values


def evaluate_columns(
    roots: Iterable[Expr], names: Iterable[str], columns: np.ndarray
) -> list[np.ndarray]:
    """Evaluate every root at every row of ``columns`` (column ``j``
    holds variable ``names[j]``), computing each distinct node once as
    a float64 column.

    Values and errors are bit-identical to the point driver
    (:func:`evaluate`, :func:`compiled`): sums and products run left to
    right in term order, powers and calls apply the libm scalar to each
    row, and a failing evaluation is replayed point by point, so the first
    row at which evaluating ``roots[0]``, ``roots[1]``, ... in turn would
    raise raises the same error, with that row as its point.  The walk has
    a table of its own, never a :func:`shared_walks` block's, since its
    columns are the caller's."""
    names = tuple(names)
    return _column_values(tuple(roots), names, PointSet(names, columns))


# The step of every central difference.
DIFFERENCE_STEP = 1e-6


def central_difference(e: Expr, name: str, point: Binding) -> float:
    """Finite-difference oracle for :func:`differentiate`."""
    fn = compiled(e, point)
    x = float(point[name])
    j = tuple(point).index(name)
    hi = list(point.values())
    lo = list(point.values())
    hi[j] = x + DIFFERENCE_STEP
    lo[j] = x - DIFFERENCE_STEP
    return (fn(hi) - fn(lo)) / (2.0 * DIFFERENCE_STEP)


# ---------------------------------------------------------------------------
# Sampling and randomized identity testing


def box_fault(lo: float, hi: float) -> str | None:
    """Why the draws ``lo + (hi - lo) * u`` of a sampling box [lo, hi]
    are not finite points of it, or None when they are."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "domain bounds must be finite"
    if not lo < hi:
        return "domain needs lo < hi"
    if not math.isfinite(hi - lo):
        return "domain width hi - lo must be finite"
    return None


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
        for name, (lo, hi) in (("the default box", (self.lo, self.hi)), *self.ranges.items()):
            fault = box_fault(lo, hi)
            if fault:
                raise ValueError(f"{fault}, got ({lo!r}, {hi!r}) for {name}")

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

    def columns(self, names: Iterable[str]) -> np.ndarray:
        """The sampled points as an array, one row per point and one
        column per name."""
        names = tuple(names)
        return self._draw(self._rng(names), names, self.points)

    def sample(self, names: Iterable[str]) -> list[dict[str, float]]:
        """The points of :meth:`columns`, one dict per row."""
        names = tuple(names)
        return [dict(zip(names, row)) for row in self.columns(names).tolist()]

    def columns_with_floor(
        self,
        names: Iterable[str],
        floor_names: Iterable[str],
        floor: float,
    ) -> np.ndarray:
        """Like :meth:`columns` but resamples until the max-norm of the
        ``floor_names`` block is at least ``floor`` (keeps points off the
        zero section)."""
        names = tuple(names)
        floor_names = tuple(floor_names)
        n = self.points
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
        return kept[:n]


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def worst_gap(gaps: Iterable[float]) -> tuple[float, int | None]:
    """The largest gap and the index of its first occurrence: the one
    witness rule of every sampled check.  A NaN counts as the largest
    gap, so the row it lands in fails.  The index is ``None`` when no
    gap is above 0, and no gaps give ``(0.0, None)``."""
    if type(gaps) is not np.ndarray:
        gaps = np.fromiter(gaps, float)
    if not gaps.size:
        return 0.0, None
    # argmax gives the first NaN if there is one, else the first maximum.
    index = int(gaps.argmax())
    worst = float(gaps[index])
    if worst > 0.0 or worst != worst:
        return worst, index
    return 0.0, None


def max_residual(
    e1: Expr,
    e2: Expr,
    sampler: Sampler,
    names: Iterable[str] | None = None,
) -> tuple[float, dict[str, float] | None]:
    """Worst relative gap between two expressions over sampled points,
    with the witness point that :func:`worst_gap` picks.  Inside a
    :func:`shared_walks` block, calls on the same point set share one
    draw and one column table, so each distinct node is valued once."""
    if names is None:
        names = sorted(free_variables(e1) | free_variables(e2))
    names = tuple(names)
    group = point_set(sampler, names)
    v1, v2 = _column_values((e1, e2), names, group)
    return column_residual(v1, v2, names, group.columns)


def point_set(sampler: Sampler, names: Iterable[str]) -> PointSet:
    """The sampler's points on ``names``, in the order given, with their
    tables: inside a :func:`shared_walks` block, the block's one point
    set for the sampler and names, drawn once; outside, a fresh one."""
    names = tuple(names)
    # Sampler holds a dict, so it is no key itself.
    key = (sampler.points, sampler.seed, sampler.lo, sampler.hi, tuple(sorted(sampler.ranges.items())), names)
    return _kept((_column_rule, key), lambda: PointSet(names, sampler.columns(names)))


def column_residual(v1, v2, names: tuple[str, ...], columns: np.ndarray) -> tuple[float, dict[str, float] | None]:
    """Worst :func:`relative_gap` of two value columns, row by row, with the
    row of ``columns`` that :func:`worst_gap` picks as witness point."""
    with np.errstate(all="ignore"):
        gap = np.abs(v1 - v2) / (1.0 + np.maximum(np.abs(v1), np.abs(v2)))
    worst, row = worst_gap(gap)
    return worst, None if row is None else dict(zip(names, columns[row].tolist()))


def equivalent(
    e1: Expr,
    e2: Expr,
    sampler: Sampler,
    tol: float = 1e-8,
) -> bool:
    """Randomized identity test: true iff |e1-e2| <= tol*(1+max(|e1|,|e2|))
    at every sampled point."""
    return max_residual(e1, e2, sampler)[0] <= tol


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
