"""Per-layer trace taken from outside the program.

:func:`install` replaces each listed public function of ``algebroids``
with a timing wrapper, in every ``algebroids.*`` module that holds it
under any name, and each listed method on its class.  No file of the
program changes.  The smart constructors (``add``, ``mul``, ...) are not
wrapped: their call volume would swamp the measurement.

Spans are kept in memory (flat arrays, so they add no objects for the
garbage collector to scan) and written out by :meth:`Tracer.dump` when
the run ends.  A nesting stack gives each span its self time: its
duration minus the time covered by its child spans.  Node counts are
taken with the reference clock excluded, so they do not count as
tracing cost.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array

# (span name, module, attribute path) of every wrapped function.
TARGETS = [
    ("modelio.parse_model", "algebroids.modelio", "parse_model"),
    ("modelio.emit_report", "algebroids.modelio", "emit_report"),
    ("expr.is_zero", "algebroids.expr", "is_zero"),
    ("expr.differentiate", "algebroids.expr", "differentiate"),
    ("expr.substitute", "algebroids.expr", "substitute"),
    ("expr.free_variables", "algebroids.expr", "free_variables"),
    ("expr.compiled", "algebroids.expr", "compiled"),
    ("expr.max_residual", "algebroids.expr", "max_residual"),
    ("expr.central_difference", "algebroids.expr", "central_difference"),
    ("expr.Sampler.sample", "algebroids.expr", "Sampler.sample"),
    ("prolong.bracket_prolong", "algebroids.prolong", "bracket_prolong"),
    ("prolong.complete_lift_vf", "algebroids.prolong", "complete_lift_vf"),
    ("prolong.k_coefficients", "algebroids.prolong", "k_coefficients"),
    ("algebroid.check_antisymmetry", "algebroids.algebroid", "check_antisymmetry"),
    ("algebroid.check_compatibility", "algebroids.algebroid", "check_compatibility"),
    ("algebroid.check_jacobi", "algebroids.algebroid", "check_jacobi"),
    ("algebroid.check_leibniz", "algebroids.algebroid", "check_leibniz"),
    ("algebroid.check_anchor_morphism", "algebroids.algebroid", "check_anchor_morphism"),
    ("algebroid.bracket", "algebroids.algebroid", "GeneralizedLieAlgebroid.bracket"),
    ("exterior.gh_lie_derivative", "algebroids.exterior", "gh_lie_derivative"),
    ("duality.legendre_equivalence", "algebroids.duality", "legendre_equivalence"),
    ("duality.morphism_conditions", "algebroids.duality", "morphism_conditions"),
    ("legendre.solve_fiber", "algebroids.legendre", "solve_fiber"),
    ("legendre.solve_fiber_h", "algebroids.legendre", "solve_fiber_h"),
    ("legendre.FiberFunction.init", "algebroids.legendre", "FiberFunction.__init__"),
    ("verify.axiom_reports", "algebroids.verify", "axiom_reports"),
    ("verify.prolong_bracket_axioms_report", "algebroids.verify", "prolong_bracket_axioms_report"),
    ("verify.complete_lift_conditions_report", "algebroids.verify", "complete_lift_conditions_report"),
    ("verify.lift_bracket_report", "algebroids.verify", "lift_bracket_report"),
    ("verify.function_lift_rules_report", "algebroids.verify", "function_lift_rules_report"),
    ("verify.tangent_structure_report", "algebroids.verify", "tangent_structure_report"),
    ("verify.k_oracle_report", "algebroids.verify", "k_oracle_report"),
    ("verify.derivative_oracle_report", "algebroids.verify", "derivative_oracle_report"),
    ("verify.legendre_reports", "algebroids.verify", "legendre_reports"),
    ("verify.duality_reports", "algebroids.verify", "duality_reports"),
    ("reporting.residual_row", "algebroids.reporting", "residual_row"),
    ("cli.main", "algebroids.cli", "main"),
]

# Spans whose self time is measured in the traced set-up rather than
# per round of operations (they map to setup_s).
SETUP_SPANS = ("modelio.parse_model", "legendre.FiberFunction.init")

# Every per-layer metric, in the order printed: (name, unit, better).
PER_LAYER: list[tuple[str, str, str]] = [
    ("modelio.parse_model.s", "s", "lower"),
    ("modelio.emit_report.s", "s", "lower"),
    ("modelio.emit_report.bytes", "bytes", "lower"),
    ("expr.is_zero.calls", "count", "lower"),
    ("expr.is_zero.s", "s", "lower"),
    ("expr.is_zero.in_nodes", "count", "lower"),
    ("expr.differentiate.calls", "count", "lower"),
    ("expr.differentiate.s", "s", "lower"),
    ("expr.substitute.calls", "count", "lower"),
    ("expr.substitute.s", "s", "lower"),
    ("expr.free_variables.calls", "count", "lower"),
    ("expr.free_variables.s", "s", "lower"),
    ("expr.compiled.calls", "count", "lower"),
    ("expr.compiled.s", "s", "lower"),
    ("expr.compiled.in_nodes", "count", "lower"),
    ("expr.max_residual.calls", "count", "lower"),
    ("expr.max_residual.s", "s", "lower"),
    ("expr.max_residual.points", "count", "lower"),
    ("expr.central_difference.calls", "count", "lower"),
    ("expr.central_difference.s", "s", "lower"),
    ("expr.Sampler.sample.s", "s", "lower"),
    ("prolong.bracket_prolong.calls", "count", "lower"),
    ("prolong.bracket_prolong.s", "s", "lower"),
    ("prolong.bracket_prolong.out_tree_nodes", "count", "lower"),
    ("prolong.bracket_prolong.out_dag_nodes", "count", "lower"),
    ("prolong.bracket_prolong.out_distinct_nodes", "count", "lower"),
    ("prolong.complete_lift_vf.s", "s", "lower"),
    ("prolong.k_coefficients.s", "s", "lower"),
    ("algebroid.check_antisymmetry.s", "s", "lower"),
    ("algebroid.check_compatibility.s", "s", "lower"),
    ("algebroid.check_jacobi.s", "s", "lower"),
    ("algebroid.check_leibniz.s", "s", "lower"),
    ("algebroid.check_anchor_morphism.s", "s", "lower"),
    ("algebroid.bracket.s", "s", "lower"),
    ("exterior.gh_lie_derivative.s", "s", "lower"),
    ("duality.legendre_equivalence.s", "s", "lower"),
    ("duality.morphism_conditions.s", "s", "lower"),
    ("legendre.solve_fiber.calls", "count", "lower"),
    ("legendre.solve_fiber.s", "s", "lower"),
    ("legendre.solve_fiber.sweeps", "count", "lower"),
    ("legendre.solve_fiber.p99_ms", "ms", "lower"),
    ("legendre.solve_fiber_h.calls", "count", "lower"),
    ("legendre.solve_fiber_h.s", "s", "lower"),
    ("legendre.solve_fiber_h.sweeps", "count", "lower"),
    ("legendre.solve_fiber_h.p99_ms", "ms", "lower"),
    ("legendre.FiberFunction.init.s", "s", "lower"),
    ("verify.axiom_reports.s", "s", "lower"),
    ("verify.prolong_bracket_axioms_report.s", "s", "lower"),
    ("verify.complete_lift_conditions_report.s", "s", "lower"),
    ("verify.lift_bracket_report.s", "s", "lower"),
    ("verify.function_lift_rules_report.s", "s", "lower"),
    ("verify.tangent_structure_report.s", "s", "lower"),
    ("verify.k_oracle_report.s", "s", "lower"),
    ("verify.derivative_oracle_report.s", "s", "lower"),
    ("verify.legendre_reports.s", "s", "lower"),
    ("verify.duality_reports.s", "s", "lower"),
    ("reporting.residual_row.structural", "count", "higher"),
    ("reporting.residual_row.sampled", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.ref_loop_ms", "ms", "lower"),
    ("bench.raw_run_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# Expression node counts, computed by the benchmark with its own
# structural key (expression nodes are not hashable).


def _children(node) -> tuple:
    for attr in ("terms", "factors"):
        kids = getattr(node, attr, None)
        if kids is not None:
            return tuple(kids)
    if hasattr(node, "exponent"):
        return (node.base, node.exponent)
    if hasattr(node, "arg"):
        return (node.arg,)
    return ()


def _payload(node):
    for attr in ("value", "name", "fn"):
        value = getattr(node, attr, None)
        if value is not None:
            return value
    return None


def dag_nodes(roots) -> int:
    """Identity-distinct nodes reachable from ``roots``."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(_children(node))
    return len(seen)


def _postorder(roots):
    """Each identity-distinct node once, children before parents."""
    done: set[int] = set()
    stack = [(node, False) for node in roots]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if ready:
            done.add(id(node))
            yield node
        else:
            stack.append((node, True))
            stack.extend((kid, False) for kid in _children(node) if id(kid) not in done)


def tree_nodes(roots) -> int:
    """Nodes counted with multiplicity, as if every shared subtree were copied."""
    size: dict[int, int] = {}
    for node in _postorder(roots):
        size[id(node)] = 1 + sum(size[id(kid)] for kid in _children(node))
    return sum(size[id(root)] for root in roots)


def distinct_nodes(roots) -> int:
    """Structurally distinct nodes: equal kind, payload and children count once."""
    key_of: dict[int, int] = {}
    table: dict[tuple, int] = {}
    for node in _postorder(roots):
        key = (type(node).__name__, _payload(node), tuple(key_of[id(kid)] for kid in _children(node)))
        key_of[id(node)] = table.setdefault(key, len(table))
    return len(table)


# ---------------------------------------------------------------------------
# Tracer


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names = [name for name, _, _ in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.stack: list[list] = []
        self.counters: dict[str, float] = {}
        self.max_residual_calls = 0
        self._hooks = {
            "expr.is_zero": (self._count_input, None),
            "expr.compiled": (self._count_input, None),
            "expr.max_residual": (None, self._count_points),
            "modelio.emit_report": (None, self._count_bytes),
            "prolong.bracket_prolong": (None, self._count_output),
            "legendre.solve_fiber": (None, self._count_sweeps),
            "legendre.solve_fiber_h": (None, self._count_sweeps),
            "reporting.residual_row": (self._residual_before, self._residual_after),
        }
        self.installed: list[tuple[object, str, object]] = []

    # -- hooks (run with the reference clock excluded) ------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _count_input(self, name, args, kwargs):
        self._add(name + ".in_nodes", dag_nodes(args[:1]))

    def _count_points(self, name, token, args, kwargs, result, error):
        sampler = args[2] if len(args) > 2 else kwargs["sampler"]
        self._add(name + ".points", sampler.points)

    def _count_bytes(self, name, token, args, kwargs, result, error):
        if error is None:
            self._add(name + ".bytes", len(result.encode("utf-8")))

    def _count_output(self, name, token, args, kwargs, result, error):
        if error is not None:
            return
        roots = tuple(result.horizontal) + tuple(result.vertical)
        self._add(name + ".out_tree_nodes", tree_nodes(roots))
        self._add(name + ".out_dag_nodes", dag_nodes(roots))
        self._add(name + ".out_distinct_nodes", distinct_nodes(roots))

    def _count_sweeps(self, name, token, args, kwargs, result, error):
        source = result if error is None else error
        self._add(name + ".sweeps", getattr(source, "iterations", 0))

    def _residual_before(self, name, args, kwargs):
        return self.max_residual_calls

    def _residual_after(self, name, token, args, kwargs, result, error):
        # A row is decided by sampling iff it called max_residual.
        sampled = self.max_residual_calls > token
        self._add(name + (".sampled" if sampled else ".structural"), 1)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, index: int, fn):
        tracer = self
        name = self.names[index]
        before, after = self._hooks.get(name, (None, None))
        clock = self.clock
        count_residual = name == "expr.max_residual"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if before is not None:
                with clock.excluded():
                    token = before(name, args, kwargs)
            if count_residual:
                tracer.max_residual_calls += 1
            sid = len(tracer.span_start)
            stack = tracer.stack
            tracer.span_name.append(index)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            tracer.span_self.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            result = error = None
            start = clock.net()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock.net()
                stack.pop()
                duration = end - start
                tracer.span_end[sid] = end
                tracer.span_self[sid] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if after is not None:
                    with clock.excluded():
                        after(name, token, args, kwargs, result, error)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever an ``algebroids`` module holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "algebroids" or n.startswith("algebroids.")]
        for index, (name, module_name, path) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original)
            if outer:  # a method: patch the class that defines it
                self._set(owner, attr, wrapper)
                continue
            holders = [
                (module, key)
                for module in modules
                for key, value in vars(module).items()
                if value is original
            ]
            if not holders:
                raise RuntimeError(f"{name}: no algebroids module holds it")
            for module, key in holders:
                self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self.installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    # -- results --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to split the trace into phases."""
        return len(self.span_start)

    def self_seconds(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, int]]:
        seconds: dict[str, float] = {name: 0.0 for name in self.names}
        calls: dict[str, int] = {name: 0 for name in self.names}
        for sid in range(lo, hi):
            name = self.names[self.span_name[sid]]
            seconds[name] += self.span_self[sid]
            calls[name] += 1
        return seconds, calls

    def durations_ms(self, name: str, lo: int, hi: int) -> list[float]:
        index = self.names.index(name)
        return [
            1000.0 * (self.span_end[sid] - self.span_start[sid])
            for sid in range(lo, hi)
            if self.span_name[sid] == index
        ]

    def dump(self, path: str, meta: dict) -> None:
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i], self.span_self[i]]
            for i in range(len(self.span_start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "fields": ["name", "parent", "start", "end", "self"], "spans": spans}, fh)


def p99(values: list[float]) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]
