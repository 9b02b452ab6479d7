import copy
import gc
import math
import operator
import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading
import time
import warnings
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


def slot_children(node):
    """A node's children read from its own slots, in the order a walk
    visits them."""
    if isinstance(node, E.Sum):
        return node.terms
    if isinstance(node, E.Prod):
        return node.factors
    if isinstance(node, E.Pow):
        return (node.base, node.exponent)
    if isinstance(node, (E.Neg, E.Call)):
        return (node.arg,)
    return ()


def nodes(tree):
    stack, seen = [tree], []
    while stack:
        node = stack.pop()
        seen.append(node)
        stack.extend(slot_children(node))
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

    def test_zero_factor_absorbs_overflowing_constants(self):
        big, x = E.const(1e200), E.var("x1")
        for factors in [
            (big, big, E.ZERO),
            (big, x, big, E.ZERO),
            (E.neg(big), E.mul(2, x), big, E.ZERO, big),
            (E.ZERO, big, big),
        ]:
            assert E.mul(*factors) is E.ZERO

    @given(
        st.lists(trees(), max_size=4),
        st.lists(st.floats(-1e300, 1e300, allow_nan=False).map(E.const), max_size=3),
        st.lists(st.integers(0, 8), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    def test_zero_is_absorbed_anywhere(self, terms, big, places):
        # The rule every builder relies on instead of testing is_zero.
        def with_zeros(items):
            items = list(items)
            for place in places:
                items.insert(place % (len(items) + 1), E.ZERO)
            return items

        assert E.add(*with_zeros(terms)) is E.add(*terms)
        assert E.mul(*with_zeros(terms + big)) is E.ZERO

    @given(trees())
    @settings(max_examples=200)
    def test_a_lone_term_is_its_own_sum(self, tree):
        assert E.add() is E.ZERO
        for node in nodes(tree):
            assert E.add(node) is node

    def test_compound_nodes_come_only_from_the_constructors(self):
        x = E.var("x1")
        for kind, args in (
            (E.Sum, ((E.ONE, x),)),
            (E.Prod, ((E.const(2.0), x),)),
            (E.Pow, (x, E.const(2.0))),
            (E.Neg, (x,)),
            (E.Call, ("sin", x)),
        ):
            with pytest.raises(TypeError, match="smart constructors"):
                kind(*args)
            with pytest.raises(TypeError):
                kind()

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

    def test_threads_rebuilding_dropped_trees_share_every_node(self):
        # Each round every thread builds the same trees, fresh names and
        # all, then drops them while the others may already build the next
        # round's; so misses race with each other and with dying nodes.
        threads, rounds = 8, 8
        built, checked = (threading.Barrier(threads, timeout=60) for _ in range(2))
        results: list = [None] * threads
        mismatches: list = []

        def work(k):
            for _ in range(rounds):
                rng = random.Random(5)
                results[k] = [seeded_tree(rng, 6, f"redo{i}_") for i in range(400)]
                built.wait()
                if k == 0:
                    mismatches.extend(
                        j for j in range(1, threads) if not all(map(operator.is_, results[j], results[0]))
                    )
                checked.wait()
                results[k] = None

        gc.collect()
        before = len(E._NODES)
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []
        gc.collect()
        assert len(E._NODES) == before

    def test_build_replaces_a_dead_entry(self):
        x = E.var("dead_entry_probe")
        key = (E.Prod, (x, E.sin(x)))
        assert key not in E._NODES

        class Gone:
            pass

        # An entry whose node died but whose callback has not run yet.
        stale = E._Entry(Gone())
        stale.key = key
        assert stale() is None
        E._NODES[key] = stale
        before = len(E._NODES)
        node = E.mul(x, E.sin(x))
        entry = E._NODES[key]
        assert entry is not stale and entry() is node and len(E._NODES) == before
        assert E.mul(x, E.sin(x)) is node and E._NODES[key] is entry
        del node, entry
        gc.collect()
        assert key not in E._NODES

    def test_unreferenced_nodes_are_freed(self):
        node = E.mul(E.var("freed_probe"), E.sin(E.var("freed_probe")))
        refs = [weakref.ref(node), weakref.ref(node.factors[0])]
        del node
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_dead_node_leaves_the_table(self):
        node = E.mul(E.var("gone_probe"), E.sin(E.var("gone_probe")))
        key = (E.Prod, node.factors)
        assert E._NODES[key]() is node
        del node
        gc.collect()
        assert key not in E._NODES

    def test_stale_entry_leaves_a_remade_node_in_place(self):
        node = E.mul(E.var("remade_probe"), E.sin(E.var("remade_probe")))
        key = (E.Prod, node.factors)
        stale = E._NODES[key]
        del node
        gc.collect()
        assert stale() is None and key not in E._NODES
        again = E.mul(E.var("remade_probe"), E.sin(E.var("remade_probe")))
        fresh = E._NODES[key]
        assert fresh is not stale and fresh() is again
        # A callback that runs late, after the node was made again.
        E._forget(stale)
        assert E._NODES[key] is fresh and fresh() is again

    def test_table_shrinks_back_after_a_block(self):
        gc.collect()
        before = len(E._NODES)
        rng = random.Random(3)
        with E.shared_walks():
            trees = [seeded_tree(rng, 6, f"shrink{i}_") for i in range(300)]
            derived = [E.differentiate(t, f"shrink{i}_0") for i, t in enumerate(trees)]
            built = len(E._NODES) - before
        assert built > 2000
        del trees, derived
        gc.collect()
        assert len(E._NODES) == before


class TestSharedWalks:
    """Inside a ``shared_walks`` block, differentiate and substitute keep
    their tables for the block: their values are those of fresh walks,
    and the tables go when the block ends."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_shared_results_are_fresh_results(self, seed):
        rng = random.Random(seed)
        trees = [seeded_tree(rng, 5, "w") for _ in range(3)]
        names = [f"w{k}" for k in range(6)]
        mappings = [
            {"w0": trees[1], "w3": E.const(2.0)},
            {"w0": trees[2], "w3": E.const(2.0)},
            {"w1": E.var("w2"), "w2": E.var("w1")},
            {},
        ]

        def every_call(order):
            return (
                [E.differentiate(trees[t], name) for t in order for name in names],
                [E.substitute(trees[t], m) for t in order for m in mappings],
                [E.free_variables(trees[t]) for t in order],
            )

        fresh = every_call([0, 1, 2])
        with E.shared_walks():
            # Subtrees and whole trees met again, in another order.
            every_call([2, 1, 0])
            shared = every_call([0, 1, 2])
        for got, want in zip(shared[:2], fresh[:2]):
            assert all(a is b for a, b in zip(got, want, strict=True))
        assert shared[2] == fresh[2]

    def test_tables_go_with_the_block(self):
        gc.disable()
        try:
            with E.shared_walks():
                node = E.mul(E.var("walk_probe"), E.sin(E.var("walk_probe")))
                refs = [
                    weakref.ref(node),
                    weakref.ref(E.differentiate(node, "walk_probe")),
                    weakref.ref(E.substitute(node, {"walk_probe": E.var("walk_image")})),
                ]
                assert E.free_variables(node) == {"walk_probe"}
            del node
            # Reference counting alone freed them: no cycle holds a node.
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_block_restores_the_collector_state(self, collecting):
        """The collector is off inside a block, and in the state the block
        found after it, also where the block ends by an exception."""
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with E.shared_walks():
                assert not gc.isenabled()
            assert gc.isenabled() is collecting
            with pytest.raises(ZeroDivisionError):
                with E.shared_walks():
                    assert not gc.isenabled()
                    1 / 0
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_nested_block_leaves_the_collector_alone(self):
        assert gc.isenabled()
        with E.shared_walks():
            gc.enable()
            with E.shared_walks():
                assert gc.isenabled()
                gc.disable()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_derivative_by_an_absent_name_makes_no_table(self):
        e = E.parse("x1*sin(x2)")
        with E.shared_walks():
            assert E.differentiate(e, "x3") is E.ZERO
            assert (E._derivative_rule, "x3") not in E._WALKS.get()
            E.differentiate(e, "x2")
            assert (E._derivative_rule, "x2") in E._WALKS.get()

    def test_nested_block_joins_the_outer_one(self):
        e = E.parse("x1*sin(x2)")
        with E.shared_walks():
            outer = E._WALKS.get()
            with E.shared_walks():
                assert E._WALKS.get() is outer
                d = E.differentiate(e, "x1")
            assert E._WALKS.get() is outer
            assert outer[E._derivative_rule, "x1"][e] is d
        assert E._WALKS.get() is None

    def test_thread_started_inside_a_block_sees_no_tables(self):
        seen = []
        e = E.parse("x1*sin(x2)")
        with E.shared_walks():
            worker = threading.Thread(target=lambda: seen.append((E._WALKS.get(), E.differentiate(e, "x2"))))
            worker.start()
            worker.join(timeout=60)
        assert seen == [(None, E.differentiate(e, "x2"))]

    def test_deep_chain_differentiates_in_a_block(self):
        depth = 3000
        e = E.var("x1")
        for _ in range(depth):
            e = E.sin(e)
        with E.shared_walks():
            d = E.differentiate(e, "x1")
            assert E.differentiate(e, "x1") is d
        assert isinstance(d, E.Prod) and len(d.factors) == depth
        assert E.differentiate(e, "x1") is d


def postorder(root):
    """Each distinct node under ``root`` once, after its children, the
    last child first: the order of every walk, by recursion."""
    order, seen = [], set()

    def visit(node):
        if node in seen:
            return
        for child in reversed(slot_children(node)):
            visit(child)
        seen.add(node)
        order.append(node)

    visit(root)
    return order


class TestNodeFields:
    """Each node carries its children and its free-variable set, set when
    it is interned, and the derivative walk stops at every subtree that
    lacks the variable."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_fields_and_pruned_derivatives(self, seed):
        tree = seeded_tree(random.Random(seed), 6, "f")
        order = postorder(tree)
        for node in order:
            assert node.kids == slot_children(node)
            assert node.free == {n.name for n in nodes(node) if isinstance(n, E.Var)}
            # A child's set that covers the others is shared, not copied.
            if any(kid.free == node.free for kid in node.kids):
                assert any(kid.free is node.free for kid in node.kids)
        # The tape numbers nodes in that order and names each node's
        # children by position, in the order of ``kids``.
        code, _, _ = E._tape((tree,))
        assert [E._from_tape(code[: k + 1]) for k in range(len(code))] == order
        position = {node: k for k, node in enumerate(order)}
        for node, entry in zip(order, code):
            if isinstance(node, (E.Sum, E.Prod)):
                assert entry[1] == tuple(position[kid] for kid in node.kids)
        for name in sorted(tree.free) + ["f_absent"]:
            # Every subtree valued by the rule, none skipped.
            full = {}
            for node in order:
                full[node] = E._derivative_rule(node, full, name)
            assert E.differentiate(tree, name) is full[tree]


def run_fresh(script):
    """Run ``script`` in a new interpreter, at its default recursion limit."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


DEEP_CHAIN = """
import copy, math, pickle, sys
import numpy as np
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
slope = E.compiled(d, ("x1",))([0.3])
assert slope == E.evaluate(d, {"x1": 0.3}) == E.evaluate_columns((d,), ("x1",), np.array([[0.3]]))[0][0]

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
        """``compiled``, ``evaluate`` and a one-row ``evaluate_columns``
        give the same value, or the same error at the same point."""
        b = binding_for(tree)
        names = tuple(b)
        want = outcome(E.evaluate, tree, b)
        assert outcome(E.compiled(tree, names), [b[n] for n in names]) == want
        column = outcome(E.evaluate_columns, (tree,), names, np.array([[b[n] for n in names]]))
        assert column == want if isinstance(want, tuple) else column[0].tolist() == [want]

    def test_overflowed_intermediate_is_no_error(self):
        e = E.parse("1/(x1*x1)")
        assert E.evaluate(e, {"x1": 1e200}) == E.compiled(e, ("x1",))([1e200]) == 0.0

    @pytest.mark.parametrize(
        "text, x",
        [("log(x1)", -1.0), ("x1^0.5", -1.0), ("x1^(-1)", 0.0), ("x1 + x2", 0.5), ("sqrt(x1 - 1)", 0.5)],
    )
    def test_domain_errors_share_one_message(self, text, x):
        e = E.parse(text)
        with pytest.raises(E.EvaluationError) as err:
            E.evaluate(e, {"x1": x})
        kind = "unbound variable 'x2'" if "x2" in text else "domain error: math domain error"
        assert str(err.value) == f"{kind} at point {{'x1': {x!r}}}"
        # A row over more names gives the same error at the point it binds.
        got = outcome(E.compiled(e, ("x1", "k1")), [x, 2.5])
        assert got == (type(err.value), f"{kind} at point {{'x1': {x!r}, 'k1': 2.5}}", {"x1": x, "k1": 2.5})

    @given(trees(), trees(), st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=100)
    def test_compiled_many_is_each_root_in_turn(self, e1, e2, shift):
        roots = (e1, E.exp(E.mul(200, e2)), e1, E.log(E.add(e2, shift)))
        b = {name: 0.3 - 0.4 * i for i, name in enumerate(VARS)}
        want = outcome(lambda: [E.evaluate(root, b) for root in roots])
        assert outcome(E.compiled_many(roots, b), list(b.values())) == want

    def test_finite_roots_whose_sum_overflows(self):
        e = E.parse("x1*1e308")
        assert E.compiled_many((e, e), ("x1",))([1.5]) == [1.5e308, 1.5e308]
        # Roots that are all constants give their values in a new list on
        # every call, so a caller's change to one result reaches no other.
        for roots in ((E.const(1e308), E.const(1e308), E.ZERO), (E.const(-2.5),), ()):
            run = E.compiled_many(roots, ("x1",))
            want = [root.value for root in roots]
            first = run([1.5])
            assert first == want
            first.append(7.0)
            second = run([0.5])
            assert second == want and second is not first


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
                fd = E.central_difference(tree, name, b)
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


    @given(
        st.one_of(st.none(), st.floats(-4, 4, allow_nan=False).map(lambda v: E.const(round(v, 3)))),
        st.lists(trees(), min_size=1, max_size=4),
        st.lists(st.one_of(st.sampled_from([E.ZERO, E.ONE, E.MINUS_ONE, E.const(2.5)]), trees()), min_size=4, max_size=4),
    )
    @settings(max_examples=300)
    def test_product_rule_pieces_are_mul_of_the_rest(self, lead, factors, slopes):
        """With any derivative values of its factors, the product rule
        gives ``add`` of ``mul(df, *rest)`` over the factors whose df is
        not ZERO, node for node, with or without a leading constant."""
        product = E.mul(*factors) if lead is None else E.mul(lead, *factors)
        if type(product) is not E.Prod:
            return
        kids = product.kids
        out = {f: slopes[k % len(slopes)] for k, f in enumerate(kids)}
        out.update({f: E.ZERO for f in kids if type(f) is E.Const})
        want = E.add(*[E.mul(out[f], *kids[:i], *kids[i + 1 :]) for i, f in enumerate(kids) if out[f] is not E.ZERO])
        assert E._derivative_rule(product, out, "x1") is want


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


def to_sympy(sp, e):
    """The sympy expression of a tree, node for node."""
    if isinstance(e, E.Const):
        return sp.Integer(int(e.value)) if e.value.is_integer() else sp.Float(e.value)
    if isinstance(e, E.Var):
        return sp.Symbol(e.name)
    if isinstance(e, E.Sum):
        return sp.Add(*(to_sympy(sp, t) for t in e.terms))
    if isinstance(e, E.Prod):
        return sp.Mul(*(to_sympy(sp, f) for f in e.factors))
    if isinstance(e, E.Pow):
        return sp.Pow(to_sympy(sp, e.base), to_sympy(sp, e.exponent))
    if isinstance(e, E.Neg):
        return -to_sympy(sp, e.arg)
    return getattr(sp, e.fn)(to_sympy(sp, e.arg))


class TestSympyOracle:
    """differentiate and substitute against sympy on seeded trees, both
    alone and inside one ``shared_walks`` block, compared by value at
    seeded points: an oracle that rests on no finite difference."""

    NAMES = tuple(f"w{k}" for k in range(6)) + tuple(f"v{k}" for k in range(6))

    def assert_close(self, sp, ours, theirs, rng):
        symbols = sorted(theirs.free_symbols, key=str)
        fn = sp.lambdify(symbols, theirs, "math")
        for _ in range(5):
            point = {name: rng.uniform(-1.5, 1.5) for name in self.NAMES}
            want = fn(*(point[str(s)] for s in symbols))
            got = E.evaluate(ours, point)
            assert E.relative_gap(got, want) <= 1e-9, (E.to_string(ours), point)

    @pytest.mark.parametrize("seed", range(8))
    def test_differentiate_and_substitute(self, seed):
        sp = pytest.importorskip("sympy")
        rng = random.Random(seed)
        trees = [seeded_tree(rng, 4, "w") for _ in range(6)]
        mapping = {f"w{k}": seeded_tree(rng, 2, "v") for k in range(0, 6, 2)}
        names = [f"w{k}" for k in range(6)]

        def every_call():
            return (
                [[E.differentiate(t, name) for name in names] for t in trees],
                [E.substitute(t, mapping) for t in trees],
            )

        fresh = every_call()
        with E.shared_walks():
            shared = every_call()
        replace = {sp.Symbol(k): to_sympy(sp, v) for k, v in mapping.items()}
        for k, tree in enumerate(trees):
            sym = to_sympy(sp, tree)
            for results in (fresh, shared):
                for name, d in zip(names, results[0][k]):
                    self.assert_close(sp, d, sp.diff(sym, sp.Symbol(name)), rng)
                self.assert_close(sp, results[1][k], sym.xreplace(replace), rng)


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

    @pytest.mark.parametrize(
        "box, fault",
        [
            ((-1e308, 1e308), "width hi - lo must be finite"),
            ((float("nan"), 1.0), "bounds must be finite"),
            ((0.0, float("inf")), "bounds must be finite"),
            ((1.0, 1.0), "needs lo < hi"),
            ((2.0, -2.0), "needs lo < hi"),
        ],
        ids=["width-overflows", "nan", "inf", "empty", "reversed"],
    )
    def test_sampler_refuses_a_box_it_cannot_draw_from(self, box, fault):
        # The rule a model file's [sampler] domain meets, for the default
        # box and for each range.
        lo, hi = box
        with pytest.raises(ValueError, match=f"{fault}.* for the default box"):
            E.Sampler(lo=lo, hi=hi)
        with pytest.raises(ValueError, match=f"{fault}.* for x1"):
            E.Sampler(ranges={"y1": (0.0, 1.0), "x1": box})
        with pytest.raises(ValueError, match=fault):
            replace(E.Sampler(), lo=lo, hi=hi)

    def test_sampler_box_at_the_float_limits(self):
        # The widest finite box draws finite points.
        columns = E.Sampler(points=50, lo=-8e307, hi=8e307, ranges={"y1": (1.0, 1.0 + 2**-52)}).columns(("x1", "y1"))
        assert np.isfinite(columns).all()

    def test_floor_sampling(self):
        sampler = E.Sampler(points=40, seed=3)
        for _, y1, y2 in sampler.columns_with_floor(("x1", "y1", "y2"), ("y1", "y2"), 0.1):
            assert max(abs(y1), abs(y2)) >= 0.1

    @pytest.mark.parametrize("seed", [0, 1, 5, 23])
    @pytest.mark.parametrize("floor", [0.0, 0.1, 1.2, 1.9])
    def test_floor_sampling_matches_per_point_draws(self, seed, floor):
        sampler = E.Sampler(points=30, seed=seed, lo=-3, hi=1, ranges={"y1": (-1.0, 2.0)})
        names, block = ("x1", "y1", "y2"), ("y1", "y2")
        want, attempts = reference_floor_sample(sampler, names, block, floor)
        assert sampler.columns_with_floor(names, block, floor).tolist() == rows(want, names)
        if floor >= 1.2:
            assert attempts > sampler.points  # rejections reach a second block

    def test_floor_sampling_count_and_no_floor_names(self):
        sampler = E.Sampler(points=10, seed=2)
        for count in (1, 7):
            fewer = replace(sampler, points=count)
            want, _ = reference_floor_sample(fewer, ("x1", "y1"), ("y1",), 0.5)
            assert fewer.columns_with_floor(("x1", "y1"), ("y1",), 0.5).tolist() == rows(want, ("x1", "y1"))
        want, _ = reference_floor_sample(sampler, ("x1", "y1"), (), 0.5)
        assert sampler.columns_with_floor(("x1", "y1"), (), 0.5).tolist() == rows(want, ("x1", "y1"))

    def test_floor_out_of_reach_raises(self):
        sampler = E.Sampler(points=3, seed=2)
        with pytest.raises(ValueError, match="max-norm floor"):
            reference_floor_sample(sampler, ("x1", "y1"), ("y1",), 2.5)
        with pytest.raises(ValueError, match="max-norm floor"):
            sampler.columns_with_floor(("x1", "y1"), ("y1",), 2.5)


def rows(points, names):
    """Dict points as the rows of a column table over ``names``."""
    return [[point[name] for name in names] for point in points]


def reference_floor_sample(sampler, names, floor_names, floor):
    """The point-at-a-time floor sampler that the block sampler
    replaced: the accepted points and the number of points drawn."""
    n = sampler.points
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
    fns = [E.compiled(root, names) for root in roots]
    return [[fn(row) for fn in fns] for row in sampler.columns(names).tolist()]


def reference_max_residual(e1, e2, sampler):
    names = sorted(E.free_variables(e1) | E.free_variables(e2))
    f1, f2 = E.compiled(e1, names), E.compiled(e2, names)
    worst, witness = 0.0, None
    for point in sampler.sample(names):
        row = list(point.values())
        gap = E.relative_gap(f1(row), f2(row))
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
        # The last root is finite over a failing node: 1^nan is 1.
        roots = (E.add(E.log(e1), wrap(e2)), E.exp(E.mul(4, e2)), E.power(E.ONE, E.log(E.var("x1"))))
        names = tuple(sorted(set().union(*map(E.free_variables, roots))))
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
        want = outcome(lambda: [[E.compiled(r, ("x1",))([v]) for r in roots] for v in xs])
        assert want[2] == {"x1": xs[1]}
        got = outcome(E.evaluate_columns, roots, ("x1",), np.array([[v] for v in xs]))
        assert got == want

    def test_constant_roots_are_full_columns(self):
        x = E.var("x1")
        sampler = E.Sampler(points=7, seed=2)
        columns = sampler.columns(("x1",))
        got = E.evaluate_columns((E.const(2.5), x, E.ZERO, E.const(2.5)), ("x1",), columns)
        assert [type(c) for c in got] == [np.ndarray] * 4 and [c.shape for c in got] == [(7,)] * 4
        assert got[0].tolist() == [2.5] * 7 and got[2].tolist() == [0.0] * 7 and got[3].tolist() == [2.5] * 7
        assert got[1].tolist() == columns[:, 0].tolist()
        for e1, e2 in ((E.const(3), x), (x, E.const(-1)), (E.ONE, E.const(2)), (E.ONE, E.ONE)):
            assert E.max_residual(e1, e2, sampler) == reference_max_residual(e1, e2, sampler)
            with E.shared_walks():
                E.max_residual(e2, E.ZERO, sampler)
                assert E.max_residual(e1, e2, sampler) == reference_max_residual(e1, e2, sampler)

    @pytest.mark.parametrize("base", [2.0, 0.5, -2.0, 0.0], ids=["2", "0.5", "-2", "0"])
    def test_constant_to_a_variable_power(self, base):
        # A negative base fails at non-integer exponents, and 0 at negative ones.
        roots = (E.power(E.const(base), E.var("x1")), E.add(E.var("x1"), E.power(E.const(base), E.var("x2"))))
        sampler = E.Sampler(points=30, seed=6, lo=-3, hi=3)
        want = outcome(compiled_loop, roots, ("x1", "x2"), sampler)
        got = outcome(E.evaluate_columns, roots, ("x1", "x2"), sampler.columns(("x1", "x2")))
        if base > 0:
            assert [list(row) for row in zip(*(c.tolist() for c in got))] == want
        else:
            assert want[0] is E.EvaluationError and got == want

    @pytest.mark.parametrize(
        "wrap",
        [lambda e: e, lambda e: E.add(E.var("x1"), e), lambda e: E.power(E.ONE, e)],
        ids=["root", "term", "finite-root-above"],
    )
    def test_unfolded_constant_call_raises_at_the_first_row(self, wrap):
        unfolded = E.log(E.const(-1))
        assert type(unfolded) is E.Call
        roots = (E.var("x1"), wrap(unfolded))
        sampler = E.Sampler(points=10, seed=8)
        want = outcome(compiled_loop, roots, ("x1",), sampler)
        assert want[0] is E.EvaluationError and want[2] == sampler.sample(("x1",))[0]
        assert outcome(E.evaluate_columns, roots, ("x1",), sampler.columns(("x1",))) == want
        assert outcome(E.max_residual, *roots, sampler) == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_seeded_tree_columns_are_the_point_driver_values(self, seed):
        rng = random.Random(seed)
        roots = [seeded_tree(rng, 5, "c") for _ in range(4)] + [E.const(rng.randrange(-9, 10))]
        names = tuple(f"c{i}" for i in range(6))
        columns = E.Sampler(points=12, seed=seed % 997).columns(names)
        run = E.compiled_many(roots, names)

        def per_row():
            return [run(row) for row in columns.tolist()]

        want = outcome(per_row)
        got = outcome(E.evaluate_columns, roots, names, columns)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert [list(row) for row in zip(*(c.tolist() for c in got))] == want

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
        f1, f2 = E.compiled(e1, names), E.compiled(e2, names)
        try:
            gaps = [E.relative_gap(f1(list(point.values())), f2(list(point.values()))) for point in points]
        except E.EvaluationError:
            return
        worst, index = E.worst_gap(gaps)
        assert E.max_residual(e1, e2, sampler) == (worst, None if index is None else points[index])


class TestSharedColumns:
    """Inside a ``shared_walks`` block, max_residual calls on one point set
    share a draw and a column table: their results and errors are those of
    fresh calls, and the table goes when the block ends."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_shared_residuals_are_fresh_residuals(self, seed):
        rng = random.Random(seed)
        wraps = (lambda e: e, lambda e: e, E.log, E.sqrt)

        def side():
            return rng.choice(wraps)(seeded_tree(rng, 4, "w"))

        rows = [(side(), side()) for _ in range(6)]
        # A finite root over a failing node: 1^nan is 1.
        rows.append((E.power(E.ONE, rows[0][0]), E.ONE))
        # Point sets that differ in one field each must not share columns.
        base = E.Sampler(points=15, seed=seed % 1000)
        samplers = (base, replace(base, seed=base.seed + 1), replace(base, lo=-1.0), replace(base, ranges={"w0": (0.5, 1.0)}))
        checks = [(a, b, sampler) for a, b in rows for sampler in samplers]
        fresh = [outcome(E.max_residual, *check) for check in checks]
        with E.shared_walks():
            # Subtrees and whole rows met again, in another order.
            for a, b, sampler in reversed(checks):
                outcome(E.max_residual, b, a, sampler)
            shared = [outcome(E.max_residual, *check) for check in checks]
        assert shared == fresh

    def test_finite_root_over_a_failing_node_raises_in_a_block(self):
        x = E.var("x1")
        sampler = E.Sampler(points=20, seed=2)
        want = outcome(E.max_residual, E.power(E.ONE, E.log(x)), E.ONE, sampler)
        assert want[0] is E.EvaluationError
        with E.shared_walks():
            assert outcome(E.max_residual, E.log(x), x, sampler) == want
            assert outcome(E.max_residual, E.power(E.ONE, E.log(x)), E.ONE, sampler) == want

    def test_sums_and_products_leave_variable_columns_alone(self):
        x, y = E.var("x1"), E.var("x2")
        roots = (E.add(x, y, x), E.mul(x, y, x), E.add(E.mul(x, y), x, y), E.mul(E.add(x, y), x, y))
        sampler = E.Sampler(points=10, seed=4)
        columns = sampler.columns(("x1", "x2"))
        drawn = columns.copy()
        E.evaluate_columns(roots, ("x1", "x2"), columns)
        assert np.array_equal(columns, drawn)
        with E.shared_walks():
            for root in roots:
                E.max_residual(root, x, sampler)
            (group,) = [g for key, g in E._WALKS.get().items() if key[0] is E._column_rule]
            assert np.array_equal(group.columns, drawn)
            assert np.array_equal(group.values[x], drawn[:, 0]) and np.array_equal(group.values[y], drawn[:, 1])

    @given(
        trees(),
        trees(),
        st.sampled_from([E.log, E.sqrt, lambda e: E.power(e, E.const(-0.5))]),
        st.integers(0, 1000),
    )
    @settings(max_examples=100)
    def test_evaluate_columns_is_the_same_in_a_block(self, e1, e2, wrap, seed):
        roots = (E.add(E.log(e1), wrap(e2)), E.exp(E.mul(4, e2)), e1)
        names = tuple(sorted(E.free_variables(roots[0]) | E.free_variables(roots[1])))
        sampler = E.Sampler(points=20, seed=seed, lo=-3, hi=3)

        def run():
            got = outcome(E.evaluate_columns, roots, names, sampler.columns(names))
            return got if isinstance(got, tuple) else [c.tolist() for c in got]

        fresh = run()
        with E.shared_walks():
            outcome(E.max_residual, roots[2], roots[0], sampler, names)
            outcome(E.max_residual, roots[1], e2, sampler, names)
            assert run() == fresh

    def test_column_tables_go_with_the_block(self):
        gc.disable()
        try:
            with E.shared_walks():
                node = E.mul(E.var("column_probe"), E.sin(E.var("column_probe")))
                refs = [weakref.ref(node), weakref.ref(node.factors[1])]
                # Names given, so only the column walk meets the node.
                E.max_residual(node, E.var("column_probe"), E.Sampler(points=5, seed=1), ("column_probe",))
                del node
                assert refs[0]() is not None
            # Reference counting alone freed them: no cycle holds a node.
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def tangent_oracle(points, e, field):
    """The symbolic route of a tangent column: each partial built and
    valued, times its field component, summed."""
    total = np.zeros(len(points.columns))
    for x, c in field:
        total = total + points.column(c) * points.column(E.differentiate(e, x))
    return total


class TestTangentPass:
    NAMES = ("k1", "x1", "x2")
    x1, x2, k1 = E.var("x1"), E.var("x2"), E.var("k1")
    CASES = {
        "sum": E.add(x1, E.mul(x2, x2), k1),
        "product": E.mul(x1, x2, E.sin(k1)),
        "product-with-constant": E.mul(3.5, x1, x2, E.cos(x2)),
        "constant-power": E.power(E.add(x1, x2, 5.0), E.const(-2.5)),
        "variable-power": E.power(E.add(x1, 3.0), E.mul(x2, k1)),
        "negation": E.neg(E.add(x1, E.mul(x2, k1))),
        "sin": E.sin(E.mul(x1, x2)),
        "cos": E.cos(E.add(x1, k1)),
        "exp": E.exp(E.mul(0.5, x1, x2)),
        "log": E.log(E.add(x1, 3.0)),
        "sqrt": E.sqrt(E.add(x2, 2.5)),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_the_summed_partials(self, kind, seed):
        e = self.CASES[kind]
        assert e.kids, kind
        rng = np.random.default_rng(seed)
        # A random field over two of the names, one component constant.
        x, y = rng.choice(self.NAMES, 2, replace=False).tolist()
        field = ((x, E.const(round(rng.uniform(-1, 1), 3))), (y, E.mul(round(rng.uniform(-1, 1), 3), E.var(x), E.var(y))))
        points = E.point_set(E.Sampler(points=50, seed=seed), self.NAMES)
        got, want = points.tangent(e, field), tangent_oracle(points, e, field)
        gap = np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want)))
        assert np.isfinite(got).all() and gap.max() <= 1e-12

    def test_a_node_without_the_fields_names_is_zero_with_no_walk_below(self):
        inner = E.add(self.k1, E.mul(self.k1, self.k1))
        pruned = E.sin(inner)
        e = E.add(E.mul(self.x1, self.x2), pruned)
        points = E.point_set(E.Sampler(points=10, seed=4), self.NAMES)
        field = (("x1", E.ONE),)
        assert np.array_equal(points.tangent(pruned, field), np.zeros(10))
        assert points.tangents[field] == {pruned: E.ZERO}
        assert np.array_equal(points.tangent(e, field), points.column(self.x2))
        table = points.tangents[field]
        assert table[pruned] is E.ZERO and inner not in table and self.k1 not in table

    def test_not_finite_where_the_symbolic_derivative_raises(self):
        """x1^0.5 at x1 < 0: its derivative holds x1^-0.5, where the point
        driver raises and numpy gives NaN, with no warning."""
        e = E.power(self.x1, E.const(0.5))
        sampler = E.Sampler(points=20, seed=4, ranges={"x1": (-1.0, 1.0)})
        points = E.point_set(sampler, self.NAMES)
        with pytest.raises(E.EvaluationError, match="domain error"):
            E.max_residual(E.differentiate(e, "x1"), E.ZERO, sampler, self.NAMES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = points.tangent(e, (("x1", E.ONE),))
        negative = points.columns[:, self.NAMES.index("x1")] < 0
        assert negative.any() and np.array_equal(np.isfinite(column), ~negative)

    def test_tables_are_kept_per_point_set_and_field_in_a_block(self):
        sampler = E.Sampler(points=10, seed=4)
        e = self.CASES["product"]
        field = (("x1", E.ONE),)
        with E.shared_walks():
            points = E.point_set(sampler, self.NAMES)
            assert E.point_set(sampler, self.NAMES) is points
            points.tangent(e, field)
            points.tangent(e, (("x2", E.ONE),))
            assert set(points.tangents) == {field, (("x2", E.ONE),)}
        assert E.point_set(sampler, self.NAMES) is not E.point_set(sampler, self.NAMES)


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


def reference_worst_gap(gaps):
    """The rule worst_gap had before it used numpy: max keeps the first of
    equal keys, and a NaN's key beats any number's."""
    index, worst = max(enumerate(gaps), key=lambda item: (math.isnan(item[1]), item[1]), default=(None, 0.0))
    if worst > 0.0 or math.isnan(worst):
        return worst, index
    return 0.0, None


class TestWorstGapParity:
    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, 0.25, 1.0, -1.0]), st.floats(0, 10)),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_matches_the_enumerate_rule(self, gaps):
        want_worst, want_index = reference_worst_gap(gaps)
        for given_gaps in (gaps, iter(gaps), np.array(gaps, dtype=float)):
            worst, index = E.worst_gap(given_gaps)
            assert type(worst) is float and index == want_index
            assert (math.isnan(worst) and math.isnan(want_worst)) or worst == want_worst
