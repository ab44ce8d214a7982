"""The tree walkers on shared DAGs: each distinct subterm is visited once.

``extract_max`` returns a DAG whose subterms recur by identity.  The walkers
under test (``to_text``, ``free_vars``, ``expr_size``, ``measure`` and the
numpy evaluator ``_eval_vec``) visit each distinct subterm once; the
``ref_*`` functions below are the earlier tree walks, which visit every
occurrence, kept here as references.  The results must agree exactly,
entropy floats included.  An extracted output carries its tape, stored by
the extractor; it must match a fresh walk and change nothing else.
"""

import copy
import dataclasses
import math
import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mbaobf.expansion import (ExpansionConfig, expand, extract_max,
                              extract_min, grow)
from mbaobf.expr import (ADD, NEG, NOT, OPERATORS, Const, Op, Var, _subterms,
                         evaluate, expr_size, free_vars, mask_of, parse,
                         to_text)
from mbaobf.metrics import MetricsReport, measure
from mbaobf.rules import PatVar, load_default_rules
from mbaobf.verify import (_DTYPES, _eval_vec, _grid_env, _random_env,
                           check_equivalence)

from conftest import BINARY_OPS, CORPUS, UNARY_OPS, graph_of


# ---------------------------------------------------------------------------
# References: the tree walks, one visit per occurrence
# ---------------------------------------------------------------------------


def ref_to_text(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return str(e.value)
    if e.op.arity == 1:
        return f"({e.op.symbol} {ref_to_text(e.args[0])})"
    return f"({ref_to_text(e.args[0])} {e.op.symbol} {ref_to_text(e.args[1])})"


def ref_free_vars(e) -> set:
    out: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Op):
            stack.extend(node.args)
    return out


def ref_expr_size(e) -> int:
    count = 0
    stack = [e]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Op):
            stack.extend(node.args)
    return count


def _ref_entropy(counter: Counter) -> float:
    total = sum(counter.values())
    if total == 0:
        return 0.0
    h = 0.0
    for count in counter.values():
        p = count / total
        h -= p * math.log2(p)
    return h


def ref_measure(e) -> MetricsReport:
    var_count = const_count = op_count = alternation = 0
    tokens: Counter = Counter()
    leaves: Counter = Counter()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            var_count += 1
            tokens[("var", node.name)] += 1
            leaves[("var", node.name)] += 1
        elif isinstance(node, Const):
            const_count += 1
            tokens[("const", node.value)] += 1
            leaves[("const", node.value)] += 1
        else:
            op_count += 1
            tokens[("op", node.op.name)] += 1
            for child in node.args:
                if isinstance(child, Op) and child.op.category != node.op.category:
                    alternation += 1
                stack.append(child)
    return MetricsReport(
        ast_size=var_count + const_count + op_count,
        var_count=var_count,
        const_count=const_count,
        op_count=op_count,
        mba_alternation=alternation,
        entropy_tokens=_ref_entropy(tokens),
        entropy_leaves=_ref_entropy(leaves),
    )


def ref_eval_vec(node, env: dict, bits: int) -> np.ndarray:
    dtype = _DTYPES[bits]
    m = dtype(mask_of(bits))
    width = len(next(iter(env.values()))) if env else 1

    def value(node) -> np.ndarray:
        if isinstance(node, Op):
            return node.op.fn(*map(value, node.args)) & m
        if isinstance(node, Const):
            return np.full(width, node.value & int(m), dtype=dtype)
        return env[node.name]

    with np.errstate(over="ignore"):
        return value(node)


# ---------------------------------------------------------------------------
# Inputs: random DAGs with heavy sharing, and extract_max outputs
# ---------------------------------------------------------------------------


def random_dag(rng: random.Random, n_ops: int, leaf=Var, max_size=4000):
    """A DAG of ``n_ops`` operator nodes over a few shared leaves.

    Every operand is drawn from all nodes built so far, so subterms recur
    by identity, a binary node may take the same object twice, and the few
    ``Const`` objects are shared wherever they occur.  The tree size stays
    under ``max_size`` so that the references stay quick.
    """
    pool = [leaf(name) for name in rng.sample("xyz", rng.randint(1, 3))]
    pool += [Const(rng.choice((0, 1, 7, 255, (1 << 64) - 1)))
             for _ in range(rng.randint(0, 2))]
    size = {id(node): 1 for node in pool}
    for _ in range(n_ops):
        if rng.random() < 0.3:
            op = rng.choice(UNARY_OPS)
            args = (rng.choice(pool),)
        else:
            op = rng.choice(BINARY_OPS)
            a = rng.choice(pool)
            args = (a, a if rng.random() < 0.2 else rng.choice(pool))
        total = 1 + sum(size[id(a)] for a in args)
        if total > max_size:
            continue
        node = Op(op, args)
        pool.append(node)
        size[id(node)] = total
    return pool[-1]


def expanded_outputs(bits: int, lines=(0, 3, 23)):
    """``extract_max`` outputs for a few corpus lines at node limit 400."""
    texts = [ln for ln in CORPUS.read_text().splitlines() if ln.strip()]
    cfg = ExpansionConfig(node_limit=400, iter_limit=30, time_limit=600.0)
    rules = load_default_rules()
    return [(parse(texts[i], bits), expand(parse(texts[i], bits), rules,
                                           cfg).output) for i in lines]


def envs(names: list, bits: int) -> list:
    """Exhaustive where small, and a seeded random sample."""
    out = [_random_env(names, bits, 512, seed=bits)]
    cases = (1 << bits) ** len(names)
    if cases <= 1 << 16:
        out.append(_grid_env(names, bits, 0, cases))
    return out


def assert_same_walks(e) -> None:
    assert to_text(e) == ref_to_text(e)
    assert free_vars(e) == ref_free_vars(e)
    assert expr_size(e) == ref_expr_size(e)
    assert repr(measure(e)) == repr(ref_measure(e))


def assert_same_values(e, names: list) -> None:
    for bits in (4, 8, 64):
        for env in envs(names, bits):
            want = ref_eval_vec(e, env, bits)
            got = np.broadcast_to(_eval_vec(e, env, bits), want.shape)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestAgainstTreeWalks:
    def test_random_dags(self):
        rng = random.Random(0xDA6)
        for _ in range(1000):
            e = random_dag(rng, rng.randint(1, 40))
            assert_same_walks(e)
            assert_same_values(e, sorted(ref_free_vars(e)))

    def test_random_pattern_dags(self):
        rng = random.Random(0xFA7)
        for _ in range(200):
            e = random_dag(rng, rng.randint(1, 40), leaf=PatVar)
            assert_same_values(e, ["x", "y", "z"])

    def test_one_object_as_both_operands(self):
        e = Var("x")
        for op in BINARY_OPS * 2:
            e = Op(op, (e, e))  # 2**13 - 1 tree nodes, 13 distinct
        e = Op(NEG, (Op(ADD, (e, Const(3))),))
        assert ref_expr_size(e) == expr_size(e) == (1 << 13) + 2
        assert_same_walks(e)
        assert_same_values(e, ["x"])

    def test_shared_constants_without_variables(self):
        c = Const(5)
        e = Op(ADD, (Op(NOT, (c,)), Op(ADD, (c, c))))
        assert_same_walks(e)
        assert_same_values(e, [])
        assert int(_eval_vec(e, {}, 8)[0]) == ((5 ^ 255) + 10) & 255

    @pytest.mark.parametrize("bits", [8, 64])
    def test_extract_max_outputs(self, bits):
        for e, out in expanded_outputs(bits):
            assert expr_size(out) > 8000
            assert_same_walks(out)
            assert_same_values(out, sorted(free_vars(e)))


# ---------------------------------------------------------------------------
# The tape an extracted output carries
# ---------------------------------------------------------------------------


def first_meetings(e) -> list:
    """The subterms of ``e`` in the order in which a stack walk of the tree
    (pre-order, rightmost operand first) first meets each of them."""
    seen, met, stack = set(), [], [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            met.append(node)
            if isinstance(node, Op):
                stack.extend(node.args)
    return met


def assert_stored_tape(out) -> None:
    tape = vars(out)["_tape"]
    assert all(node is not out for node in tape.order)
    order = tape.order + [out]
    assert list(map(id, order)) == list(map(id, _subterms(out).order))
    assert len(tape.kids) == len(order)
    for i, (node, kids) in enumerate(zip(order, tape.kids)):
        assert all(j < i for j in kids)  # children first
        operands = node.args if isinstance(node, Op) else ()
        assert list(map(id, operands)) == [id(order[j]) for j in kids]
    assert [id(order[i]) for i in tape.meet] == \
        list(map(id, first_meetings(out)))


class TestStoredTape:
    def test_corpus_outputs_and_smallest_terms(self):
        cfg = ExpansionConfig()
        rules = load_default_rules()
        texts = [ln for ln in CORPUS.read_text().splitlines() if ln.strip()]
        assert len(texts) == 100
        for i, text in enumerate(texts):
            g, root, *_ = grow(parse(text), rules, cfg)
            assert_stored_tape(extract_max(g, root, cfg.extraction_rounds,
                                           cfg.max_output_nodes))
            if i < 10:
                assert_stored_tape(extract_min(g, root))

    def test_a_leaf_output(self):
        g, (root,) = graph_of("x")
        for out in (extract_max(g, root, 1, 1), extract_min(g, root)):
            assert out == Var("x")
            assert_stored_tape(out)


def walker_results(e, names: list) -> tuple:
    """What every walker gives for ``e``, the numpy evaluator at 8 bits."""
    env = _grid_env(names, 8, 0, 1 << (8 * len(names)))
    return (to_text(e), free_vars(e), expr_size(e), repr(measure(e)),
            evaluate(e, {name: 3 + 40 * k for k, name in enumerate(names)}),
            _eval_vec(e, env, 8).tobytes(),
            check_equivalence(Var(names[0]), e, 8))


class TestTapeInvisible:
    def test_against_the_parsed_twin(self):
        assert [f.name for f in dataclasses.fields(Op)] == ["op", "args"]
        for e, out in expanded_outputs(8):
            assert "_tape" in vars(out)
            twin = parse(to_text(out), 8)
            assert "_tape" not in vars(twin)
            assert out == twin and hash(out) == hash(twin)
            assert repr(out) == repr(twin)
            names = sorted(free_vars(e))
            want = walker_results(twin, names)
            assert walker_results(out, names) == want
            for copied in (pickle.loads(pickle.dumps(out)),
                           copy.deepcopy(out)):
                assert copied == out
                assert_stored_tape(copied)
                assert walker_results(copied, names) == want

    def test_operators_pickle_as_the_table_entries(self):
        for op in OPERATORS.values():
            assert pickle.loads(pickle.dumps(op)) is op
            assert copy.deepcopy(op) is op

    def test_walks_store_nothing(self):
        # A stored walk would keep every subterm of the chain below each
        # walked one: quadratic memory.  Walking every subterm would take
        # quadratic time, so every 100th is walked, and each one checked.
        chain = [Var("x")]
        for level in range(10_000):
            chain.append(Op(NOT if level % 2 else ADD,
                            (chain[-1],) if level % 2 else
                            (chain[-1], Const(level))))
        for k, node in enumerate(chain[::100]):
            # each 100 levels add 50 ADDs with their constants and 50 NOTs
            assert expr_size(node) == 1 + 150 * k
        assert all(vars(node).keys() == ({"name"} if isinstance(node, Var)
                                         else {"op", "args"})
                   for node in chain)


# ---------------------------------------------------------------------------
# Memory: a value is dropped after its last use
# ---------------------------------------------------------------------------

# tracemalloc peaks of the tree walks on corpus line 1 expanded at 8 bits and
# node limit 400 (an output of 9271 tree nodes), measured on CPython 3.11.
TREE_WALK_PEAK_TO_TEXT = 55_816
TREE_WALK_PEAK_CHECK = 1_130_025  # 65536 environments of 2 uint8 variables


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peak_no_higher_than_tree_walk():
    [(e, out)] = expanded_outputs(8, lines=(0,))
    assert expr_size(out) == 9271
    # An undropped memo holds every distinct string (~1.4 MiB here) or
    # every distinct array (64 KiB each), far past these slacks.
    assert traced_peak(to_text, out) <= TREE_WALK_PEAK_TO_TEXT + 16 * 1024
    assert traced_peak(check_equivalence, e, out, 8) \
        <= TREE_WALK_PEAK_CHECK + 64 * 1024


# ---------------------------------------------------------------------------
# Depth: the walkers are iterative
# ---------------------------------------------------------------------------


def test_deep_chain_no_recursion_error():
    x, y = Var("x"), Var("y")
    e, text = x, "x"
    for level in range(5000):
        if level % 2:
            e, text = Op(NOT, (e,)), f"(~ {text})"
        else:
            e, text = Op(ADD, (e, y)), f"({text} + y)"
    assert to_text(e) == text
    assert free_vars(e) == {"x", "y"}
    assert expr_size(e) == 1 + 5000 + 2500
    r = measure(e)
    assert (r.ast_size, r.op_count, r.mba_alternation) == (7501, 5000, 4999)
    res = check_equivalence(e, e, 8)
    assert res.passed and res.cases_checked == 1 << 16
