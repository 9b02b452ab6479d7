import copy
import gc
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebroids import expr as E
from algebroids.algebroid import coords, identity_map
from algebroids.reporting import CheckReport

VARS = ("x1", "x2", "k1")


def leaves():
    return st.one_of(
        st.sampled_from(VARS).map(E.var),
        st.floats(-4, 4, allow_nan=False).map(lambda v: E.const(round(v, 3))),
    )


def trees(depth=4):
    return st.recursive(
        leaves(),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: E.add(*t)),
            st.tuples(inner, inner).map(lambda t: E.mul(*t)),
            inner.map(E.neg),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: E.power(t[0], E.const(t[1]))),
            inner.map(E.sin),
            inner.map(E.cos),
            inner.map(lambda e: E.exp(E.mul(0.25, e))),
        ),
        max_leaves=12,
    )


def rebuild(node):
    """Re-apply a node's own smart constructor to its children."""
    if isinstance(node, E.Sum):
        return E.add(*node.terms)
    if isinstance(node, E.Prod):
        return E.mul(*node.factors)
    if isinstance(node, E.Neg):
        return E.neg(node.arg)
    if isinstance(node, E.Pow):
        return E.power(node.base, node.exponent)
    if isinstance(node, E.Call):
        return E.call(node.fn, node.arg)
    return node


def nodes(tree):
    stack, seen = [tree], []
    while stack:
        node = stack.pop()
        seen.append(node)
        if isinstance(node, E.Sum):
            stack.extend(node.terms)
        elif isinstance(node, E.Prod):
            stack.extend(node.factors)
        elif isinstance(node, E.Pow):
            stack.extend((node.base, node.exponent))
        elif isinstance(node, (E.Neg, E.Call)):
            stack.append(node.arg)
    return seen


def binding_for(e):
    return {name: 0.7 + 0.31 * i for i, name in enumerate(sorted(E.free_variables(e)))}


class ReferenceParser:
    """The recursive-descent parser that :func:`algebroids.expr.parse`
    replaced, kept as the reference the operator-precedence parser must
    match node for node and error for error."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, lexeme, line, col = self.peek()
        if kind != E._TOKEN_OP or lexeme != op:
            raise E.ExprSyntaxError(f"expected {op!r}", line, col)
        return self.next()

    def parse_expr(self):
        out = self.parse_term()
        while True:
            kind, lexeme, _, _ = self.peek()
            if kind == E._TOKEN_OP and lexeme in "+-":
                self.next()
                rhs = self.parse_term()
                out = E.add(out, rhs) if lexeme == "+" else E.add(out, E.neg(rhs))
            else:
                return out

    def parse_term(self):
        out = self.parse_unary()
        while True:
            kind, lexeme, _, _ = self.peek()
            if kind == E._TOKEN_OP and lexeme in "*/":
                self.next()
                rhs = self.parse_unary()
                out = E.mul(out, rhs) if lexeme == "*" else E.mul(out, E.power(rhs, E.Const(-1.0)))
            else:
                return out

    def parse_unary(self):
        kind, lexeme, _, _ = self.peek()
        if kind == E._TOKEN_OP and lexeme == "-":
            self.next()
            return E.neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, lexeme, _, _ = self.peek()
        if kind == E._TOKEN_OP and lexeme == "^":
            self.next()
            return E.power(base, self.parse_unary())
        return base

    def parse_atom(self):
        kind, lexeme, line, col = self.peek()
        if kind == E._TOKEN_NUM:
            self.next()
            return E.Const(float(lexeme))
        if kind == E._TOKEN_IDENT:
            self.next()
            nkind, nlex, _, _ = self.peek()
            if nkind == E._TOKEN_OP and nlex == "(":
                if lexeme not in E.FUNCTIONS:
                    raise E.UnknownFunctionError(f"unknown function {lexeme!r}", line, col)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return E.call(lexeme, arg)
            return E.Var(lexeme)
        if kind == E._TOKEN_OP and lexeme == "(":
            self.next()
            out = self.parse_expr()
            self.expect_op(")")
            return out
        raise E.ExprSyntaxError("expected expression", line, col)


def reference_parse(text):
    parser = ReferenceParser(E._tokenize(text))
    out = parser.parse_expr()
    kind, lexeme, line, col = parser.peek()
    if kind != E._TOKEN_EOF:
        raise E.ExprSyntaxError(f"unexpected trailing input {lexeme!r}", line, col)
    return out


def parse_outcome(parse, text):
    try:
        return parse(text)
    except (E.ExprSyntaxError, ValueError) as err:
        return err


def assert_parses_like_reference(text):
    ref, new = parse_outcome(reference_parse, text), parse_outcome(E.parse, text)
    if isinstance(ref, E.Expr):
        assert new is ref
    elif type(ref) is ValueError:
        # The reference lets a folded constant overflow out of Const.
        assert type(new) is E.ExprSyntaxError
    else:
        assert (type(new), str(new), new.line, new.column) == (type(ref), str(ref), ref.line, ref.column)


TOKENS = (
    "0", "1", "2", "0.1", "0.2", "0.3", "10", "1e308", "1e-320", "x1", "x2",
    "sin", "sin(", "log(", "tan(", "+", "-", "*", "/", "^", "(", ")", " ",
)


class TestParse:
    def test_sum_of_power_and_product(self):
        tree = E.parse("x1^2 + 3*x2")
        assert tree == E.add(E.power(E.var("x1"), E.const(2)), E.mul(3, E.var("x2")))

    def test_function_call_product(self):
        assert E.parse("sin(k1)*p2") == E.mul(E.sin(E.var("k1")), E.var("p2"))

    def test_truncated_input_reports_position(self):
        with pytest.raises(E.ExprSyntaxError) as err:
            E.parse("x1 +")
        assert err.value.line == 1
        assert err.value.column == 5

    def test_unknown_function(self):
        with pytest.raises(E.UnknownFunctionError):
            E.parse("tan(x1)")

    def test_precedence(self):
        assert E.parse("-x1^2") == E.neg(E.power(E.var("x1"), E.const(2)))
        assert E.parse("2*x1 + x2") == E.add(E.mul(2, E.var("x1")), E.var("x2"))
        # right associative power: 2^3^2 = 2^9
        assert E.parse("2^3^2") == E.const(512)
        x1, x2, x3 = E.var("x1"), E.var("x2"), E.var("x3")
        assert E.parse("x1^x2^x3") is E.power(x1, E.power(x2, x3))
        assert E.parse("2^-3^2") is E.const(2.0**-9)
        assert E.parse("x1*-x2") is E.neg(E.mul(x1, x2))
        assert E.parse("x1-x2-x3") is E.add(E.add(x1, E.neg(x2)), E.neg(x3))
        # constants fold left to right
        assert E.parse("0.1+0.2+0.3") is E.const(0.6000000000000001)
        assert E.parse("sin") is E.var("sin")

    def test_division_normalizes_to_inverse_power(self):
        assert E.parse("x1/x2") == E.mul(E.var("x1"), E.power(E.var("x2"), E.const(-1)))

    @given(trees())
    @settings(max_examples=150)
    def test_print_parse_round_trip(self, tree):
        assert E.parse(E.to_string(tree)) is tree

    @given(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))
    @settings(max_examples=800)
    def test_matches_reference_parser(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "0.1+0.2+0.3", "2^3^2", "2^-3^2", "-x1^2", "x1-x2-x3", "x1/x2/x3",
            "x1*-x2", "--x1", "sin x1", "tan(x1)", "(x1", "x1)", "()",
            "1e308*10", "x1*1e308*10", "1e308*10 x1", "(1e308+1e308",
        ],
    )
    def test_matches_reference_parser_on(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1e999", "bad number '1e999' at 1:1"),
            ("x1 + 2e400", "bad number '2e400' at 1:6"),
            ("1e308*10", "constant overflow at 1:6"),
            ("1e308+1e308", "constant overflow at 1:6"),
            ("x1*1e308*10", "constant overflow at 1:9"),
            ("1e308/0.1", "constant overflow at 1:6"),
            ("x1 +\n  (1e308 + 1e308)", "constant overflow at 2:10"),
        ],
    )
    def test_out_of_range_constant_is_a_syntax_error(self, text, message):
        with pytest.raises(E.ExprSyntaxError) as err:
            E.parse(text)
        assert str(err.value) == message

    def test_deep_power_tower_prints_in_linear_time(self):
        x = E.var("x1")
        tower = x
        for _ in range(199):
            tower = E.power(x, tower)
        started = time.perf_counter()
        text = E.to_string(tower)
        assert time.perf_counter() - started < 1.0
        assert text.count("^") == 199
        assert E.parse(text) == tower


class TestCanonicalForm:
    """The smart constructors' output is a fixed point of the smart
    constructors; :func:`E.is_zero` relies on this instead of rebuilding."""

    @given(trees())
    @settings(max_examples=200)
    def test_constructors_are_idempotent(self, tree):
        for node in nodes(tree):
            assert rebuild(node) is node

    @pytest.mark.parametrize(
        "node",
        [
            E.mul(-2, E.var("x1"), E.var("x2")),
            E.neg(E.mul(E.var("x1"), E.var("x2"))),
            E.power(E.const(-1), E.const(0.5)),
        ],
        ids=["negative-leading-constant", "neg-of-product", "unfoldable-power"],
    )
    def test_edge_cases_are_fixed_points(self, node):
        assert type(node) is not E.Const
        for sub in nodes(node):
            assert rebuild(sub) == sub

    def test_is_zero_is_sufficient_not_complete(self):
        x = E.var("x1")
        assert E.is_zero(E.mul(0, x)) and E.is_zero(E.neg(E.const(0)))
        assert E.is_zero(E.add(E.const(2), E.const(-2))) and E.is_zero(E.differentiate(x, "x2"))
        assert not E.is_zero(E.add(x, E.neg(x)))
        assert not E.is_zero(E.power(E.const(-1), E.const(0.5)))


def seeded_tree(rng, depth, prefix):
    """A random tree over the variables ``prefix + "0"``..``prefix + "5"``,
    fixed by ``rng``."""
    if depth == 0 or rng.random() < 0.2:
        return E.var(f"{prefix}{rng.randrange(6)}") if rng.random() < 0.6 else E.const(rng.randrange(-9, 10))
    kind = rng.randrange(5)
    a = seeded_tree(rng, depth - 1, prefix)
    if kind == 0:
        return E.add(a, seeded_tree(rng, depth - 1, prefix))
    if kind == 1:
        return E.mul(a, seeded_tree(rng, depth - 1, prefix))
    if kind == 2:
        return E.neg(a)
    if kind == 3:
        return E.power(a, E.const(rng.randrange(2, 4)))
    return E.sin(a)


class TestInterning:
    """Nodes are hash-consed: equal structure is the same object, and
    ``==`` and ``hash`` are the identity ones."""

    def test_equal_structure_is_one_object(self):
        assert E.parse("x1*(x2+1)") is E.parse("x1*(x2+1)")
        assert E.parse("sin(k1)^x1") is E.power(E.sin(E.var("k1")), E.var("x1"))
        assert E.parse("x1*(x2+1)") is not E.parse("x1*(x2+2)")

    def test_negative_zero_is_zero(self):
        assert E.const(-0.0) is E.ZERO
        assert E.is_zero(E.neg(E.const(0)))

    def test_expressions_are_dict_and_set_keys(self):
        assert hash(E.parse("x1")) == hash(E.var("x1"))
        table = {E.parse("x1"): "x", E.parse("x1*(x2+1)"): "product"}
        assert table[E.var("x1")] == "x"
        assert table[E.mul(E.var("x1"), E.add(E.var("x2"), 1))] == "product"
        assert {E.parse("x1 + 1"), E.parse("1 + x1"), E.add(1, E.var("x1"))} == {E.parse("x1 + 1")}

    def test_smooth_map_is_a_key(self):
        M, N = coords("M", "x", 2), coords("N", "k", 2)
        assert {identity_map(M, N): "id"}[identity_map(M, N)] == "id"

    def test_copy_and_pickle_give_the_same_node(self):
        e = E.parse("exp(x1)*x2 - 3")
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_threads_building_the_same_trees_share_every_node(self):
        threads, start = 8, threading.Barrier(8, timeout=60)
        results: list = [None] * threads

        def build(k):
            rng = random.Random(12)
            start.wait()
            # Fresh names for each tree, so that most of its nodes are new.
            results[k] = [seeded_tree(rng, 6, f"t{i}_") for i in range(1000)]

        workers = [threading.Thread(target=build, args=(k,)) for k in range(threads)]
        # Switch threads often, so that builds of one node interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for trees in results[1:]:
            assert all(a is b for a, b in zip(trees, results[0], strict=True))

    def test_unreferenced_nodes_are_freed(self):
        node = E.mul(E.var("freed_probe"), E.sin(E.var("freed_probe")))
        refs = [weakref.ref(node), weakref.ref(node.factors[0])]
        del node
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def run_fresh(script):
    """Run ``script`` in a new interpreter, at its default recursion limit."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


DEEP_CHAIN = """
import copy, math, pickle, sys
limit = sys.getrecursionlimit()
from algebroids import expr as E
# Hold every pass to the default limit, whatever the import did to it.
sys.setrecursionlimit(limit)

depth = 3000
x1, x2 = E.var("x1"), E.var("x2")
e, shifted = x1, x2
for _ in range(depth):
    e, shifted = E.sin(e), E.sin(shifted)
assert E.substitute(e, {"x1": x2}) is shifted
assert E.free_variables(e) == {"x1"}

value = 0.3
for _ in range(depth):
    value = math.sin(value)
assert E.evaluate(e, {"x1": 0.3}) == value

d = E.differentiate(e, "x1")
assert isinstance(d, E.Prod) and len(d.factors) == depth
assert abs(E.evaluate(d, {"x1": 0.3}) - E.central_difference(e, "x1", {"x1": 0.3})) < 1e-6

text = E.to_string(e)
assert text == "sin(" * depth + "x1" + ")" * depth
assert E.parse(text) is e
assert E.max_residual(e, shifted, E.Sampler(points=5, seed=1), names=("x1", "x2"))[0] > 0
assert E.max_residual(e, e, E.Sampler(points=5, seed=1)) == (0.0, None)
assert pickle.loads(pickle.dumps(e)) is e
assert copy.deepcopy(e) is e
print("ok")
"""


class TestDeepInput:
    """Deep trees need no raised recursion limit, and importing the
    package leaves the limit alone."""

    def test_import_leaves_recursion_limit_unchanged(self):
        done = run_fresh(
            "import sys; before = sys.getrecursionlimit(); import algebroids; "
            "print(before, sys.getrecursionlimit())"
        )
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert before == after

    def test_every_pass_walks_a_deep_chain(self):
        done = run_fresh(DEEP_CHAIN)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "ok\n"


class TestEvaluate:
    def test_arithmetic(self):
        assert E.evaluate(E.parse("x1^2 + 3"), {"x1": 2}) == 7.0

    def test_sin_at_zero(self):
        assert E.evaluate(E.parse("sin(k1)"), {"k1": 0}) == 0.0

    def test_unbound_variable(self):
        with pytest.raises(E.UnboundVariableError):
            E.evaluate(E.var("x1"), {})

    def test_domain_error_carries_point(self):
        with pytest.raises(E.EvaluationError) as err:
            E.evaluate(E.log(E.var("x1")), {"x1": -1.0})
        assert err.value.point == {"x1": -1.0}

    @given(trees())
    @settings(max_examples=100)
    def test_compiled_matches_reference(self, tree):
        b = binding_for(tree)
        try:
            want = E.evaluate(tree, b)
        except E.EvaluationError:
            return
        assert E.compiled(tree)(b) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestDifferentiate:
    def test_power_rule(self):
        assert E.differentiate(E.parse("x1^2"), "x1") == E.mul(2, E.var("x1"))

    def test_other_variable(self):
        assert E.differentiate(E.var("x2"), "x1") == E.const(0)

    def test_product_rule_value(self):
        d = E.differentiate(E.parse("sin(x1)*x1"), "x1")
        got = E.evaluate(d, {"x1": 1.0})
        assert got == pytest.approx(math.cos(1.0) + math.sin(1.0), abs=1e-12)
        assert got == pytest.approx(1.3817732906760363, abs=1e-12)
        fd = E.central_difference(E.parse("sin(x1)*x1"), "x1", {"x1": 1.0})
        assert E.relative_gap(got, fd) < 1e-5

    @given(trees())
    @settings(max_examples=100)
    def test_matches_central_differences(self, tree):
        b = binding_for(tree)
        for name in sorted(E.free_variables(tree)):
            d = E.differentiate(tree, name)
            try:
                sym = E.evaluate(d, b)
                fd = E.central_difference(tree, name, b, 1e-6)
            except E.EvaluationError:
                return
            if abs(sym) > 1e6:
                return
            assert E.relative_gap(sym, fd) < 1e-5

    @given(trees(), trees(), st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=60)
    def test_linearity(self, e1, e2, a):
        a = round(a, 3)
        combo = E.add(E.mul(a, e1), e2)
        lhs = E.differentiate(combo, "x1")
        rhs = E.add(E.mul(a, E.differentiate(e1, "x1")), E.differentiate(e2, "x1"))
        sampler = E.Sampler(points=25, seed=1, lo=-1.5, hi=1.5)
        try:
            assert E.equivalent(lhs, rhs, sampler, tol=1e-7)
        except E.EvaluationError:
            pass


class TestSubstitute:
    def test_shift(self):
        got = E.substitute(E.parse("k1^2"), {"k1": E.parse("x1+1")})
        assert got == E.parse("(x1+1)^2")

    def test_empty_map_is_identity(self):
        assert E.substitute(E.var("x1"), {}) == E.var("x1")

    def test_simultaneous_swap(self):
        got = E.substitute(E.parse("sin(k1)+k2"), {"k1": E.var("x2"), "k2": E.var("x1")})
        assert E.evaluate(got, {"x1": 1.0, "x2": 0.0}) == pytest.approx(1.0)

    @given(trees())
    @settings(max_examples=80)
    def test_homomorphism(self, tree):
        mapping = {"x1": E.parse("k1 + 1"), "x2": E.parse("2*k1")}
        substituted = E.substitute(tree, mapping)
        b = {"k1": 0.37}
        inner = {"x1": 1.37, "x2": 0.74, "k1": 0.37}
        try:
            want = E.evaluate(tree, inner)
        except E.EvaluationError:
            return
        assert E.evaluate(substituted, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEquivalent:
    def test_binomial_square(self, sampler):
        assert E.equivalent(E.parse("(x1+1)^2"), E.parse("x1^2 + 2*x1 + 1"), sampler)

    def test_distinct_variables(self, sampler):
        assert not E.equivalent(E.var("x1"), E.var("x2"), sampler)

    def test_double_angle(self):
        sampler = E.Sampler(points=100, seed=0, lo=-3, hi=3)
        assert E.equivalent(E.parse("sin(2*x1)"), E.parse("2*sin(x1)*cos(x1)"), sampler)

    def test_error_carries_point(self, sampler):
        with pytest.raises(E.EvaluationError) as err:
            E.equivalent(E.log(E.var("x1")), E.var("x1"), sampler)
        assert err.value.point is not None

    def test_sampler_is_deterministic(self):
        a = E.Sampler(points=10, seed=3).sample(("x1", "x2"))
        b = E.Sampler(points=10, seed=3).sample(("x1", "x2"))
        assert a == b

    def test_sampler_respects_ranges(self):
        sampler = E.Sampler(points=50, seed=3, ranges={"y1": (0.5, 1.0)})
        for point in sampler.sample(("x1", "y1")):
            assert -2.0 <= point["x1"] <= 2.0
            assert 0.5 <= point["y1"] <= 1.0

    def test_sample_matches_per_point_formula(self):
        sampler = E.Sampler(points=30, seed=4, lo=-3, hi=1, ranges={"y1": (0.5, 2.0)})
        names = ("x1", "y1")
        raw = sampler._rng(names).random((30, 2))
        want = []
        for row in raw:
            point = {}
            for j, name in enumerate(names):
                lo, hi = sampler.ranges.get(name, (sampler.lo, sampler.hi))
                point[name] = lo + (hi - lo) * float(row[j])
            want.append(point)
        assert sampler.sample(names) == want
        assert sampler.columns(names).tolist() == [[p[n] for n in names] for p in want]

    @pytest.mark.parametrize("points", [0, -3])
    def test_sampler_needs_a_point(self, points):
        with pytest.raises(ValueError):
            E.Sampler(points=points)
        with pytest.raises(ValueError):
            replace(E.Sampler(), points=points)

    def test_floor_sampling(self):
        sampler = E.Sampler(points=40, seed=3)
        for point in sampler.sample_with_floor(("x1", "y1", "y2"), ("y1", "y2"), 0.1):
            assert max(abs(point["y1"]), abs(point["y2"])) >= 0.1

    @pytest.mark.parametrize("seed", [0, 1, 5, 23])
    @pytest.mark.parametrize("floor", [0.0, 0.1, 1.2, 1.9])
    def test_floor_sampling_matches_per_point_draws(self, seed, floor):
        sampler = E.Sampler(points=30, seed=seed, lo=-3, hi=1, ranges={"y1": (-1.0, 2.0)})
        names, block = ("x1", "y1", "y2"), ("y1", "y2")
        want, attempts = reference_floor_sample(sampler, names, block, floor)
        assert sampler.sample_with_floor(names, block, floor) == want
        if floor >= 1.2:
            assert attempts > sampler.points  # rejections reach a second block

    def test_floor_sampling_count_and_no_floor_names(self):
        sampler = E.Sampler(points=10, seed=2)
        for count in (0, 1, 7):
            want, _ = reference_floor_sample(sampler, ("x1", "y1"), ("y1",), 0.5, count)
            assert sampler.sample_with_floor(("x1", "y1"), ("y1",), 0.5, count) == want
        want, _ = reference_floor_sample(sampler, ("x1", "y1"), (), 0.5)
        assert sampler.sample_with_floor(("x1", "y1"), (), 0.5) == want

    def test_floor_out_of_reach_raises(self):
        sampler = E.Sampler(points=3, seed=2)
        with pytest.raises(ValueError, match="max-norm floor"):
            reference_floor_sample(sampler, ("x1", "y1"), ("y1",), 2.5)
        with pytest.raises(ValueError, match="max-norm floor"):
            sampler.sample_with_floor(("x1", "y1"), ("y1",), 2.5)


def reference_floor_sample(sampler, names, floor_names, floor, count=None):
    """The point-at-a-time floor sampler that the block sampler
    replaced: the accepted points and the number of points drawn."""
    n = sampler.points if count is None else count
    rng = sampler._rng(tuple(names) + ("floor",))
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * max(n, 1):
            raise ValueError(f"could not sample points with max-norm floor {floor} over {floor_names}")
        point = {}
        for name in names:
            lo, hi = sampler.ranges.get(name, (sampler.lo, sampler.hi))
            point[name] = lo + (hi - lo) * float(rng.random())
        if floor_names and max(abs(point[f]) for f in floor_names) < floor:
            continue
        out.append(point)
    return out, attempts


def compiled_loop(roots, names, sampler):
    """Reference for the column evaluator: every root compiled, called
    point by point, root after root."""
    fns = [E.compiled(root) for root in roots]
    return [[fn(point) for fn in fns] for point in sampler.sample(names)]


def reference_max_residual(e1, e2, sampler):
    names = sorted(E.free_variables(e1) | E.free_variables(e2))
    f1, f2 = E.compiled(e1), E.compiled(e2)
    worst, witness = 0.0, None
    for point in sampler.sample(names):
        gap = E.relative_gap(f1(point), f2(point))
        if gap > worst:
            worst, witness = gap, point
    return worst, witness


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the evaluation error it raised."""
    try:
        return fn(*args)
    except E.EvaluationError as err:
        return type(err), str(err), err.point


class TestColumnEvaluator:
    """:func:`E.evaluate_columns` and :func:`E.max_residual` against
    per-point compiled code: values, errors and witnesses all equal."""

    @given(trees(), trees(), st.integers(0, 1000))
    @settings(max_examples=150)
    def test_equals_compiled_exactly(self, e1, e2, seed):
        # The cancelling sum rounds differently in any other term order.
        roots = (e1, e2, E.add(E.mul(1e8, e1), e2, E.mul(-1e8, e1)))
        names = tuple(sorted(E.free_variables(e1) | E.free_variables(e2)))
        sampler = E.Sampler(points=20, seed=seed, lo=-3, hi=3)
        want = outcome(compiled_loop, roots, names, sampler)
        got = outcome(E.evaluate_columns, roots, names, sampler.columns(names))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [list(row) for row in zip(*(c.tolist() for c in got))] == want

    @given(
        trees(),
        trees(),
        st.sampled_from([E.log, E.sqrt, lambda e: E.power(e, E.const(-0.5))]),
        st.integers(0, 1000),
    )
    @settings(max_examples=150)
    def test_domain_error_at_first_failing_point(self, e1, e2, wrap, seed):
        roots = (E.add(E.log(e1), wrap(e2)), E.exp(E.mul(4, e2)))
        names = tuple(sorted(E.free_variables(roots[0]) | E.free_variables(roots[1])))
        sampler = E.Sampler(points=20, seed=seed, lo=-3, hi=3)
        want = outcome(compiled_loop, roots, names, sampler)
        got = outcome(E.evaluate_columns, roots, names, sampler.columns(names))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [list(row) for row in zip(*(c.tolist() for c in got))] == want

    @pytest.mark.parametrize("swap", [False, True], ids=["log-first", "overflow-first"])
    @pytest.mark.parametrize(
        "xs", [[0.5, -1e5, 1e5], [0.5, 1e5, -1e5]], ids=["both-fail-at-row-1", "one-fails-at-row-1"]
    )
    def test_row_then_root_order_decides_the_error(self, xs, swap):
        x = E.var("x1")
        roots = (E.log(x), E.mul(1e300, x, x))
        if swap:
            roots = roots[::-1]
        want = outcome(lambda: [[E.compiled(r)({"x1": v}) for r in roots] for v in xs])
        assert want[2] == {"x1": xs[1]}
        got = outcome(E.evaluate_columns, roots, ("x1",), np.array([[v] for v in xs]))
        assert got == want

    def test_unbound_variable(self):
        sampler = E.Sampler(points=5, seed=1)
        with pytest.raises(E.UnboundVariableError) as err:
            E.evaluate_columns((E.parse("x1 + x2"),), ("x1",), sampler.columns(("x1",)))
        assert err.value.point == sampler.sample(("x1",))[0]

    @given(trees(), trees(), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_max_residual_matches_per_point_loop(self, e1, e2, seed):
        sampler = E.Sampler(points=25, seed=seed, lo=-2, hi=2)
        assert outcome(E.max_residual, e1, e2, sampler) == outcome(reference_max_residual, e1, e2, sampler)

    @pytest.mark.parametrize("box", [(-1.0, 2.0), (0.25, 2.0)], ids=["reaches-zero", "positive"])
    def test_max_residual_of_log(self, box):
        e1, e2 = E.log(E.var("x1")), E.parse("x1 - 1 - (x1 - 1)^2/2")
        sampler = E.Sampler(points=100, seed=3, ranges={"x1": box})
        want = outcome(reference_max_residual, e1, e2, sampler)
        assert outcome(E.max_residual, e1, e2, sampler) == want
        if box[0] < 0:
            assert want[0] is E.EvaluationError and want[2]["x1"] <= 0
        else:
            assert want[0] > 0 and want[1] is not None

    def test_identical_sides_have_no_witness(self):
        e = E.parse("sin(x1)*x2")
        assert E.max_residual(e, e, E.Sampler(points=10, seed=1)) == (0.0, None)

    @given(trees(), trees(), st.integers(0, 1000))
    @settings(max_examples=100)
    def test_witness_is_worst_gap_of_per_point_loop(self, e1, e2, seed):
        sampler = E.Sampler(points=25, seed=seed, lo=-2, hi=2)
        names = sorted(E.free_variables(e1) | E.free_variables(e2))
        points = sampler.sample(names)
        f1, f2 = E.compiled(e1), E.compiled(e2)
        try:
            gaps = [E.relative_gap(f1(point), f2(point)) for point in points]
        except E.EvaluationError:
            return
        worst, index = E.worst_gap(gaps)
        assert E.max_residual(e1, e2, sampler) == (worst, None if index is None else points[index])


class TestWorstGap:
    def test_first_of_tied_gaps_is_the_witness(self):
        assert E.worst_gap([0.1, 0.3, 0.2, 0.3]) == (0.3, 1)

    @pytest.mark.parametrize("gaps", [[], [0.0, 0.0, 0.0]], ids=["empty", "all-zero"])
    def test_no_gap_above_zero_has_no_witness(self, gaps):
        assert E.worst_gap(gaps) == (0.0, None)

    def test_nan_is_the_worst_gap_and_fails_its_row(self):
        worst, index = E.worst_gap([0.5, math.inf, math.nan, 0.2])
        assert math.isnan(worst) and index == 2
        report = CheckReport("nan")
        report.add("row", (), worst, 1e-8)
        assert not report.passed

    def test_infinite_gap_beats_finite_gaps(self):
        assert E.worst_gap(iter([0.5, math.inf, 2.0])) == (math.inf, 1)
