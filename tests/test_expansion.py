import dataclasses
import functools
import gc
import itertools
import math
import random
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import mbaobf.egraph
import mbaobf.expansion
from mbaobf.egraph import (CapacityExceededError, EGraph, ENode,
                           InvalidIdError, _layout, check_invariants)
from mbaobf.expansion import (MAX_OUTPUT_NODES, ExpansionConfig,
                              ExpansionReport, OutputTooLargeError, StopReason,
                              UnextractableError, _history, _iterate,
                              _reconstructor, expand,
                              extract_max, extract_min, grow)
from mbaobf.expr import (MAX_DEPTH, OPERATORS, Const, Op, Var, evaluate,
                         expr_size, parse, to_text)
from mbaobf.metrics import measure
from mbaobf.rules import (_label_index, apply_match, ematch,
                          load_default_rules, parse_rules)
from mbaobf.verify import check_equivalence

from conftest import (CORPUS, check_class_values, flat_key, flat_sum,
                      random_expr)

ADDOR = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")

def _operator_lhs_rules():
    """The shipped rules whose left-hand side requires an operator; a bare
    constant cannot match any of them."""
    from mbaobf.rules import PatVar
    return [r for r in load_default_rules() if not isinstance(r.lhs, PatVar)]


def addor_graph():
    g = EGraph()
    root = g.add_expr(parse("x + y"))
    g.rebuild()
    (m,) = ematch(g, ADDOR[0])
    apply_match(g, ADDOR[0], [m])
    g.rebuild()
    return g, root


def term_of(node, args):
    """The term of the e-node ``node`` over the child terms ``args``."""
    if node.label == "var":
        return Var(node.payload)
    if node.label == "const":
        return Const(node.payload)
    return Op(OPERATORS[node.label], args)


def enumerate_terms(g, cid, depth):
    """Brute-force oracle: all terms derivable from a class within the given
    edge depth (leaves sit at depth 0), by direct recursive enumeration."""
    members = g.classes()

    def terms(cid, depth):
        out = []
        for n in members[g.find(cid)]:
            if not n.children:
                out.append(term_of(n, ()))
                continue
            if depth == 0:
                continue
            child_terms = [terms(c, depth - 1) for c in n.children]
            for combo in itertools.product(*child_terms):
                out.append(term_of(n, combo))
        return out

    return terms(cid, depth)


class TestExtractMax:
    def test_ufunc_at_keeps_each_class_maximum_and_first_position(self):
        # The sweep finds each class's best total by np.maximum.at over the
        # nodes' class ids, -inf where no node of a class has a term, and
        # the first node at it by np.minimum.at of the positions at it.
        best = np.full(4, -np.inf)
        np.maximum.at(best, [2, 0, 2, 0, 3],
                      [-np.inf, 3.0, 5.0, 3.0, -np.inf])
        assert best.tolist() == [3.0, -np.inf, 5.0, -np.inf]
        # two nodes a class on average: some classes hold none, some only
        # nodes at -inf
        rng = np.random.default_rng(52)
        owner = rng.integers(0, 2000, 4000)
        total = rng.integers(-2, 3, 4000).astype(float)
        total[total < 0] = -np.inf
        best = np.full(2001, -np.inf)
        np.maximum.at(best, owner, total)
        at = (total == best[owner]).nonzero()[0]
        lead = np.full(2001, len(owner))
        np.minimum.at(lead, owner[at], at)
        nodes = {}
        for i, (c, t) in enumerate(zip(owner.tolist(), total.tolist())):
            nodes.setdefault(c, []).append((t, -i))
        want_best = [-math.inf] * 2001
        want_lead = [len(owner)] * 2001
        for c, at_c in nodes.items():
            t, i = max(at_c)  # the largest total, then the first node
            want_best[c], want_lead[c] = t, -i
        assert best.tolist() == want_best
        assert lead.tolist() == want_lead
        assert len(nodes) < 2000
        assert any(max(at_c)[0] == -math.inf for at_c in nodes.values())

    def test_leaf_round_one(self):
        g = EGraph()
        root = g.add_expr(parse("x"))
        g.rebuild()
        assert to_text(extract_max(g, root, 1, 10_000)) == "x"

    def test_addor_graph_round_two(self):
        g, root = addor_graph()
        out = extract_max(g, root, 2, 10_000)
        assert to_text(out) == "((x | y) + (x & y))"
        assert expr_size(out) == 7

    def test_round_one_only_reaches_original(self):
        g, root = addor_graph()
        out = extract_max(g, root, 1, 10_000)
        assert to_text(out) == "(x + y)"
        assert expr_size(out) == 3

    def test_matches_enumeration_oracle(self):
        # the largest term of depth <= 2 in the class, by brute force
        g, root = addor_graph()
        best = max(expr_size(t) for t in enumerate_terms(g, root, 2))
        assert best == 7
        assert expr_size(extract_max(g, root, 2, 10_000)) == best

    def test_monotone_in_rounds(self):
        g, root = addor_graph()
        sizes = [expr_size(extract_max(g, root, r, max_nodes=500))
                 for r in range(1, 9)]
        assert sizes == sorted(sizes)

    def test_budget_respected(self):
        e = parse("x + y")
        rep = expand(e, load_default_rules(),
                     ExpansionConfig(node_limit=300, iter_limit=4,
                                     time_limit=10.0, max_output_nodes=50))
        assert expr_size(rep.output) <= 50

    def test_unextractable_when_rounds_too_small(self):
        g = EGraph()
        root = g.add_expr(parse("(x + y) + z"))
        g.rebuild()
        with pytest.raises(UnextractableError):
            extract_max(g, root, 1, 10_000)

    def test_round_zero_seeds_a_leaf_that_sorts_after_an_operator(self):
        # Class r holds x and y + z, and (add ...) sorts before (var x) as
        # a tuple.  Round 0 must still give r the term x: round 1 recomputes
        # r from all its nodes, but -r at round 1 reads r at round 0.
        g = EGraph()
        r = g.add(ENode("var", "x", ()))
        g.union(r, g.add_expr(parse("y + z")))
        top = g.add(ENode("neg", None, (r,)))
        g.rebuild()
        r = g.find(r)
        assert [n.label for n in sorted(g.classes()[r])] == ["add", "var"]
        assert to_text(extract_min(g, r)) == "x"
        assert to_text(extract_max(g, r, 1, 2)) == "x"
        assert to_text(extract_max(g, top, 1, 10_000)) == "(- x)"

    def test_unrebuilt_graph_is_refused(self):
        # Read with the merge pending, the hashcons held x - x and
        # (y & 0) * 5 as one class but not yet their parents: extract_max
        # returned (7 + 7), which is 14, and extract_min raised
        # UnextractableError.
        g = EGraph()
        a = g.add_expr(parse("x - x"))
        b = g.add_expr(parse("(y & 0) * 5"))
        top = g.add_expr(parse("((y & 0) * 5) + 7"))
        g.rebuild()
        g.union(a, b)
        with pytest.raises(ValueError, match="rebuild first"):
            extract_max(g, top, 8, 1000)
        with pytest.raises(ValueError, match="rebuild first"):
            extract_min(g, top)
        g.rebuild()
        assert to_text(extract_max(g, top, 8, 1000)) == "(((y & 0) * 5) + 7)"
        assert to_text(extract_min(g, top)) == "((x - x) + 7)"

    def test_cap_at_most_output_ceiling(self):
        g, root = addor_graph()
        assert expr_size(extract_max(g, root, 2, MAX_OUTPUT_NODES)) == 7
        for cap in (MAX_OUTPUT_NODES + 1, 10**400, 0, -1):
            with pytest.raises(ValueError, match="max_output_nodes"):
                extract_max(g, root, 2, cap)

    def test_deterministic(self):
        outs = set()
        for _ in range(3):
            g, root = addor_graph()
            outs.add(to_text(extract_max(g, root, 6, max_nodes=200)))
        assert len(outs) == 1

    def test_rounds_within_parse_depth_bound(self):
        g, root = addor_graph()
        for rounds in (0, MAX_DEPTH + 1):
            with pytest.raises(ValueError):
                extract_max(g, root, rounds, 10_000)
        assert expr_size(extract_max(g, root, MAX_DEPTH, 10_000)) == 7

    def test_output_shares_subterms(self):
        g = EGraph()
        root = g.add_expr(parse("x + y"))
        for rule in load_default_rules():  # one round: ~330 nodes
            g.rebuild()  # each rule matches what the earlier ones added
            for m in ematch(g, rule):
                apply_match(g, rule, [m])
        g.rebuild()
        out = extract_max(g, root, 16, max_nodes=5000)
        distinct = set()  # ids stay unique: `out` keeps every node alive
        stack = [out]
        while stack:
            e = stack.pop()
            if id(e) not in distinct:
                distinct.add(id(e))
                stack.extend(getattr(e, "args", ()))
        assert expr_size(out) > 1000
        assert len(distinct) < expr_size(out) // 10


class TestExtractMin:
    def test_addor_graph_minimizes_back(self):
        g, root = addor_graph()
        out = extract_min(g, root)
        assert to_text(out) == "(x + y)"
        assert expr_size(out) == 3

    def test_mul_identity_minimizes_to_var(self):
        (mulid,) = parse_rules("mulid : ?y * 1 => ?y")
        g = EGraph()
        root = g.add_expr(parse("y * 1"))
        g.rebuild()
        (m,) = ematch(g, mulid)
        apply_match(g, mulid, [m])
        g.rebuild()
        assert to_text(extract_min(g, root)) == "y"

    def test_leaves_no_reference_cycle(self):
        g, root = addor_graph()
        gc.collect()
        was = gc.isenabled()
        gc.disable()
        try:
            extract_min(g, root)
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()

    def test_smallest_term_deeper_than_bound_unextractable(self):
        g = EGraph()
        root = g.add(ENode("var", "x", ()))
        for _ in range(MAX_DEPTH + 1):
            root = g.add(ENode("neg", None, (root,)))
        g.rebuild()
        with pytest.raises(UnextractableError):
            extract_min(g, root)

    def test_doubling_chain_at_the_edge_of_exact_costs(self):
        # c_i = c_{i-1} + c_{i-1}, 52 links: c_52's term has 2^53 - 1
        # nodes, and its cost, shifted by one, is -2^53, the last float
        # below which every integer is exact.
        g = EGraph()
        chain = [g.add(ENode("var", "x", ()))]
        for _ in range(52):
            chain.append(g.add(ENode("add", None, (chain[-1], chain[-1]))))
        g.rebuild()
        want = Var("x")
        for _ in range(52):
            want = Op(OPERATORS["add"], (want, want))
        out = extract_min(g, chain[-1])
        assert expr_size(out) == 2**53 - 1
        table = {}
        assert term_number(out, table, {}) == term_number(want, table, {})

    def test_min_never_exceeds_max(self):
        g, root = addor_graph()
        for cid in g.class_ids():
            mn = expr_size(extract_min(g, cid))
            mx = expr_size(extract_max(g, cid, 4, max_nodes=300))
            assert mn <= mx


# The label order the extractor used before e-nodes sorted by label code:
# leaves first, then operators alphabetically.  The references keep it, so
# their agreement with the extractor shows that the e-graph's one e-node
# order picks the same nodes.
_LABEL_RANK = {label: rank for rank, label
               in enumerate(("const", "var", *sorted(OPERATORS)))}


def rank_key(g):
    """The references' tie order of a class's nodes in ``g``: by label,
    then an operator's children, and a class's leaves of one label by
    row."""
    def key(n):
        row = g._hashcons[flat_key(n)] if not n.children else 0
        return (_LABEL_RANK[n.label], row, n.children)
    return key


def reference_extract_max(g, root, rounds, max_nodes):
    """The extractor as it was before its two loops became one: one full
    table per round, each entry ``(cost, node, round)``.  ``build`` is
    cached per (class, round), so a term of ``MAX_OUTPUT_NODES`` nodes is
    built as a shared DAG rather than a tree of that many objects."""
    root = g.find(root)
    class_nodes = {cid: sorted(nodes, key=rank_key(g))
                   for cid, nodes in g.classes().items()}
    base = {}
    for cid, nodes in class_nodes.items():
        for n in nodes:
            if not n.children:
                base[cid] = (1, n, 0)
                break
    tables = [base]
    prev = base
    for r in range(1, rounds + 1):
        cur = {}
        any_change = False
        for cid, nodes in class_nodes.items():
            best = None
            for n in nodes:
                total = 1
                defined = True
                for child in n.children:
                    entry = prev.get(child)
                    if entry is None:
                        defined = False
                        break
                    total += entry[0]
                if not defined or total > max_nodes:
                    continue
                if best is None or total > best[0]:
                    best = (total, n, r)
            carried = prev.get(cid)
            if carried is not None and (best is None or best[0] <= carried[0]):
                best = carried
            if best is not None:
                cur[cid] = best
                if best is not carried:
                    any_change = True
        tables.append(cur)
        prev = cur
        if not any_change:
            break

    @functools.cache
    def build(cid, r):
        entry = tables[min(r, len(tables) - 1)].get(cid)
        if entry is None:
            raise UnextractableError(cid)
        _, node, rc = entry
        return term_of(node, tuple(build(c, rc - 1) for c in node.children))

    return build(root, rounds)


def reference_extract_min(g, root):
    """The minimizing extractor as it was before its two loops became one:
    an in-place fixpoint over ``cid -> (cost, node)``."""
    class_nodes = {cid: sorted(nodes, key=rank_key(g))
                   for cid, nodes in g.classes().items()}
    costs = {}
    changed = True
    while changed:
        changed = False
        for cid, nodes in class_nodes.items():
            for n in nodes:
                if all(c in costs for c in n.children):
                    total = 1 + sum(costs[c][0] for c in n.children)
                    cur = costs.get(cid)
                    if cur is None or total < cur[0]:
                        costs[cid] = (total, n)
                        changed = True
    root = g.find(root)
    if root not in costs:
        raise UnextractableError(root)

    def build(cid):
        _, n = costs[cid]
        return term_of(n, tuple(build(c) for c in n.children))

    return build(root)


def grown_graph(e, node_limit):
    """``e``'s e-graph grown by the shipped rules until it holds at least
    ``node_limit`` nodes or saturates."""
    rules = load_default_rules()
    g = EGraph()
    root = g.add_expr(e)
    g.rebuild()
    while g.node_count() < node_limit:
        before = g.node_count()
        index = _label_index(g)
        for rule in rules:
            for m in ematch(g, rule, index):
                if g.node_count() >= node_limit:
                    break
                apply_match(g, rule, [m])
        g.rebuild()
        if g.node_count() == before:
            break
    return g, root


class TestAgainstReference:
    ROUNDS = (1, 2, 6, 64, MAX_DEPTH)
    CAPS = (50, 2000, 10_000, MAX_OUTPUT_NODES)

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = random.Random(0x5EED)
        out = []
        for node_limit in (100, 400, 900, 1500):
            e = random_expr(rng, rng.randint(1, 9))
            out.append(grown_graph(e, node_limit))
        return out

    @staticmethod
    def outcome(extract, *args):
        try:
            return to_text(extract(*args))
        except UnextractableError as exc:
            return ("unextractable", exc.cid)

    def test_extract_max_matches_reference(self, graphs):
        for g, root in graphs:
            for rounds in self.ROUNDS:
                for cap in self.CAPS:
                    assert (self.outcome(extract_max, g, root, rounds, cap)
                            == self.outcome(reference_extract_max, g, root,
                                            rounds, cap))

    def test_extract_max_unextractable_like_reference(self):
        g = EGraph()
        root = g.add_expr(parse("(x + y) + z"))
        g.rebuild()
        for rounds, cap in ((1, 10_000), (2, 4)):
            assert (self.outcome(extract_max, g, root, rounds, cap)
                    == self.outcome(reference_extract_max, g, root, rounds,
                                    cap)
                    == ("unextractable", g.find(root)))

    def test_unextractable_names_canonical_class_not_array_slot(self):
        # Merged classes leave gaps in the canonical ids, so the root's id
        # differs from its position among the class ids.
        g = EGraph()
        x, w, y, v, z = (g.add(ENode("var", name, ()))
                         for name in "xwyvz")
        g.union(x, w)
        g.union(y, v)
        first = g.add(ENode("add", None,
                            (g.add(ENode("add", None, (y, x))), z)))
        root = g.add(ENode("add", None,
                           (g.add(ENode("add", None, (x, y))), z)))
        g.union(root, first)
        g.rebuild()
        cid = g.find(root)
        assert g.class_ids().index(cid) != cid
        for rounds, cap in ((1, 10_000), (MAX_DEPTH, 4)):
            with pytest.raises(UnextractableError) as info:
                extract_max(g, root, rounds, cap)
            assert info.value.cid == cid
            assert (self.outcome(reference_extract_max, g, root, rounds, cap)
                    == ("unextractable", cid))

    def test_doubling_chain_matches_reference(self):
        # c_i = c_{i-1} + c_{i-1}: class c_i's size doubles per link, so the
        # costs reach every cap, MAX_OUTPUT_NODES included.  The leaf's
        # class also holds -c_1, a cycle, so every class keeps growing
        # round after round until the cap stops it.  c_23 also holds
        # c_22 + -(-c_22), one node over MAX_OUTPUT_NODES where c_22 + c_22
        # is one under: a cost table that rounds would take it.
        g = EGraph()
        chain = [g.add(ENode("var", "x", ()))]
        for _ in range(29):
            chain.append(g.add(ENode("add", None, (chain[-1], chain[-1]))))
        g.union(g.add(ENode("neg", None, (chain[1],))), chain[0])
        twice = g.add(ENode("neg", None,
                            (g.add(ENode("neg", None, (chain[22],))),)))
        g.union(g.add(ENode("add", None, (chain[22], twice))), chain[23])
        g.rebuild()
        for cid in (chain[0], chain[8], chain[22], chain[23], chain[29]):
            for rounds in (1, 8, 64, MAX_DEPTH):
                for cap in (50, 10_000, MAX_OUTPUT_NODES):
                    assert (self.outcome(extract_max, g, cid, rounds, cap)
                            == self.outcome(reference_extract_max, g, cid,
                                            rounds, cap))

    def test_ties_break_like_reference(self):
        # Four nodes of one class reach size 3 in round 1; the smallest
        # node wins.  In round 2, -(-a) ties the size of c | a and sorts
        # before it, but the choice made earlier is kept.
        g = EGraph()
        a, b, c = (g.add(ENode("var", name, ())) for name in "abc")
        pair = g.add(ENode("xor", None, (a, b)))
        for label, kids in (("or", (a, b)), ("add", (b, a)),
                            ("add", (a, b))):
            g.union(pair, g.add(ENode(label, None, kids)))
        bar = g.add(ENode("or", None, (c, a)))
        g.union(bar, g.add(ENode("neg", None,
                                 (g.add(ENode("neg", None, (a,))),))))
        top = g.add(ENode("sub", None, (pair, bar)))
        g.union(top, g.add(ENode("add", None, (bar, pair))))
        g.rebuild()
        assert to_text(extract_max(g, pair, 1, 10_000)) == "(a + b)"
        assert to_text(extract_max(g, bar, 2, 10_000)) == "(c | a)"
        for cid in (pair, bar, top):
            for rounds in (1, 2, 3, 6):
                for cap in (3, 7, 10_000):
                    assert (self.outcome(extract_max, g, cid, rounds, cap)
                            == self.outcome(reference_extract_max, g, cid,
                                            rounds, cap))

    def test_corpus_sized_graph_matches_reference(self):
        # A corpus line grown to the default node limit: from about round
        # 13 most nodes are over the cap and leave the sweep.
        g, root = grown_graph(parse(CORPUS.read_text().splitlines()[0]),
                              3000)
        assert g.node_count() >= 3000
        for rounds in (64, MAX_DEPTH):
            for cap in (2000, 10_000):
                assert (self.outcome(extract_max, g, root, rounds, cap)
                        == self.outcome(reference_extract_max, g, root,
                                        rounds, cap))

    def test_sweep_emptied_by_the_cap_matches_reference(self):
        # x's class holds x and its own double, y's class y and -y, and
        # z = (x * y) ^ x: every operator node's total passes the cap
        # within a few rounds, and then none is left to sweep.
        g = EGraph()
        x, y = (g.add(ENode("var", name, ())) for name in "xy")
        g.union(g.add(ENode("add", None, (x, x))), x)
        g.union(g.add(ENode("neg", None, (y,))), y)
        z = g.add(ENode("xor", None, (g.add(ENode("mul", None, (x, y))), x)))
        g.rebuild()
        for cid in (x, y, z):
            for rounds in (1, 3, 6, 64, MAX_DEPTH):
                for cap in (2, 5, 20, 50):
                    assert (self.outcome(extract_max, g, cid, rounds, cap)
                            == self.outcome(reference_extract_max, g, cid,
                                            rounds, cap))

    def test_best_node_over_the_cap_as_a_sibling_ties_matches_reference(self):
        # X holds x and X + X (size 2^(r+1) - 1 at round r), Y holds y and
        # -Y (size r + 1).  K holds A = X + c, which sorts first, and
        # B = Y ^ c.  At cap 8, in round 3, A reaches 9, over the cap,
        # while B reaches 5 and ties K's cost from round 2: K keeps A's
        # term until B beats it in round 4.
        g = EGraph()
        x, y, c = (g.add(ENode("var", name, ())) for name in "xyc")
        g.union(g.add(ENode("add", None, (x, x))), x)
        g.union(g.add(ENode("neg", None, (y,))), y)
        k = g.add(ENode("add", None, (x, c)))
        g.union(k, g.add(ENode("xor", None, (y, c))))
        g.rebuild()
        assert to_text(extract_max(g, k, 2, 8)) == "((x + x) + c)"
        assert to_text(extract_max(g, k, 3, 8)) == "((x + x) + c)"
        assert to_text(extract_max(g, k, 4, 8)) == "((- (- (- y))) ^ c)"
        for rounds in range(1, 9):
            for cap in range(3, 13):
                assert (self.outcome(extract_max, g, k, rounds, cap)
                        == self.outcome(reference_extract_max, g, k, rounds,
                                        cap))

    def test_extract_min_sizes_match_reference(self, graphs):
        # every class of the two smaller graphs; each call runs a whole DP
        for g, _ in graphs[:2]:
            for cid in g.class_ids():
                assert (expr_size(extract_min(g, cid))
                        == expr_size(reference_extract_min(g, cid)))


def runs(owner):
    """``(starts, heads, group)`` of a nonempty class id array grouped in
    runs: where each run starts, its class, and each element's run
    number."""
    head = np.empty(len(owner), bool)
    head[0] = True
    np.not_equal(owner[1:], owner[:-1], out=head[1:])
    starts = head.nonzero()[0]
    group = np.cumsum(head, dtype=np.intp)
    group -= 1
    return starts, owner[starts], group


def sweep_history(g, rounds, sign, max_nodes):
    """The change points of ``_history`` as it was before it jumped over
    periodic tails and read the node table: one sweep per round, every
    round, until a fixpoint or ``rounds``, over a layout from one walk of
    the hashcons.  Returns ``(stamps, picks, m)``, each pick the e-node
    chosen."""
    keys = [g._node(row) for row in g._hashcons.values()]
    classes = [g.find(cid) for cid in g._hashcons.values()]
    size = len(keys)
    labels = [k[0] for k in keys]
    kids = [k[2] for k in keys]
    arity = np.fromiter(map(len, kids), np.intp, size)
    flat = np.fromiter(itertools.chain(itertools.chain.from_iterable(kids),
                                       (-1, -1)), np.intp)
    at = np.cumsum(arity) - arity
    first = np.where(arity > 0, flat[at], -1)
    second = np.where(arity > 1, flat[at + 1], -1)
    owner = np.fromiter(classes, np.intp, size)
    m = owner.max() + 2
    label_rank = {label: i for i, label in enumerate(sorted(set(labels)))}
    class_label = owner * len(label_rank) + np.fromiter(
        map(label_rank.__getitem__, labels), np.intp, size)
    rest = (first + 1) * m + second + 1
    leaves = sorted(np.flatnonzero(arity == 0).tolist(), key=keys.__getitem__)
    rest[leaves] = np.arange(len(leaves))
    order = np.lexsort((rest, class_label))
    node, owner = order, owner[order]
    first, second = first[order], second[order]
    cost = np.full(m, float("-inf"))
    cost[-1] = sign
    starts, heads, group = runs(owner)
    cap = max_nodes + sign
    changes = []
    for r in range(rounds + 1):
        total = cost[first] + cost[second]
        over = total > cap
        if over.any():
            keep = ~over
            node, owner, total = node[keep], owner[keep], total[keep]
            first, second = first[keep], second[keep]
            starts, heads, group = runs(owner)
        best = np.maximum.reduceat(total, starts)
        changed = (best > cost[heads]).nonzero()[0]
        if not changed.size:
            break
        hits = (total == best[group]).nonzero()[0]
        firsts = hits[np.searchsorted(group[hits], changed)]
        cids = heads[changed]
        cost[cids] = best[changed]
        changes.append((r, cids, node[firsts]))
    stamps = np.concatenate([r * m + c for r, c, _ in changes]
                            + [[len(changes) * m]])
    picks = np.concatenate([p for _, _, p in changes])
    return stamps, [keys[i] for i in picks.tolist()], m


def sweep_extract(g, root, rounds, sign, max_nodes):
    stamps, picks, m = sweep_history(g, rounds, sign, max_nodes)
    rows = np.array([g._hashcons[flat_key(node)] for node in picks], np.intp)
    # every round is swept, so each repeats its own changes
    source = np.arange(int(stamps[-1]) // m)
    return _reconstructor(g, stamps, rows, source, m)(g.find(root), rounds)


def unrolled_history(stamps, picks, source, m):
    """``_history``'s ``(stamps, picks)`` with the rounds a jump skipped
    written out: round i gets the changes of swept round ``source[i]``,
    as a sweep of every round records them."""
    swept, cids = np.divmod(stamps[:-1], m)
    rounds = [(swept == s).nonzero()[0] for s in source.tolist()]
    return (np.concatenate([i * m + cids[at] for i, at in enumerate(rounds)]
                           + [[len(source) * m]]),
            np.concatenate([picks[at] for at in rounds]))


def sweep_extract_max(g, root, rounds, max_nodes):
    return sweep_extract(g, root, rounds, 1, max_nodes)


def sweep_extract_min(g, root):
    return sweep_extract(g, root, MAX_DEPTH, -1, 0)


def term_number(e, table, memo):
    """``e``'s number in the hash-consing ``table``: two terms numbered in
    one table get one number exactly when they are equal trees, so when
    their ``to_text`` is equal.  Each distinct subterm object is visited
    once, where ``to_text`` of a 2^24-node output would build ~50 MB."""
    n = memo.get(id(e))
    if n is None:
        if isinstance(e, Op):
            key = (e.op.name,
                   tuple(term_number(a, table, memo) for a in e.args))
        else:
            key = e
        n = memo[id(e)] = table.setdefault(key, len(table))
    return n


@pytest.fixture
def jumps(monkeypatch):
    """Each horizon the extractor computes, as ``(periods, period length)``."""
    seen = []
    horizon = mbaobf.expansion._horizon

    def recorded(*args):
        k, gain = horizon(*args)
        seen.append((k, len(args[1])))
        return k, gain

    monkeypatch.setattr(mbaobf.expansion, "_horizon", recorded)
    return seen


def skipped(jumps):
    return sum(k * p for k, p in jumps)


def cycle(g, name, length):
    """A class holding ``name`` and ``length`` negations of itself: its
    size rises by ``length`` every ``length`` rounds, one class of the
    cycle changing per round."""
    a = g.add(ENode("var", name, ()))
    c = a
    for _ in range(length):
        c = g.add(ENode("neg", None, (c,)))
    g.union(c, a)
    return a


class TestPeriodicTail:
    """The extractor against :func:`sweep_extract`, which sweeps every
    round: jumping over a periodic tail must change no output."""

    ROUNDS = (1, 3, 7, 20, 64, MAX_DEPTH)
    CAPS = (5, 60, 500, 3000, 10_000, MAX_OUTPUT_NODES)

    @staticmethod
    def outcome(extract, table, *args):
        try:
            return term_number(extract(*args), table, {})
        except UnextractableError as exc:
            return ("unextractable", exc.cid)

    def assert_like_sweep(self, g, cid, rounds, caps):
        table = {}
        for r in rounds:
            for cap in caps:
                assert (self.outcome(extract_max, table, g, cid, r, cap)
                        == self.outcome(sweep_extract_max, table, g, cid, r,
                                        cap)), (cid, r, cap)

    @pytest.fixture(scope="class")
    def grown(self):
        rng = random.Random(0x7A11)
        out = []
        for _ in range(30):
            e = random_expr(rng, rng.randint(1, 9))
            for node_limit in (40, 150, 400, 1200):
                out.append(grown_graph(e, node_limit))
        return out

    def test_grown_graphs_match_the_sweep(self, grown, jumps):
        for g, root in grown:
            self.assert_like_sweep(g, root, self.ROUNDS, self.CAPS)
            table = {}
            assert (self.outcome(extract_min, table, g, root)
                    == self.outcome(sweep_extract_min, table, g, root))
        assert sum(k > 0 for k, _ in jumps) >= len(grown)

    def test_a_false_period_is_refused(self, grown, jumps, monkeypatch):
        # Propose a period of 1 to 3 rounds after nearly every round, most
        # of them not periods at all: the horizon plays the next period
        # itself and refuses one whose picks do not rise as they did, so
        # the change points stay those of the sweep.  X doubles every
        # round, so a period proposed there rises by a different amount
        # each time.
        monkeypatch.setattr(mbaobf.expansion, "_period",
                            lambda log: min(len(log) // 2, 1 + len(log) % 3))
        g = EGraph()
        x = g.add(ENode("var", "x", ()))
        g.union(x, g.add(ENode("add", None, (x, x))))
        y = cycle(g, "y", 2)
        g.add(ENode("xor", None, (x, y)))
        g.rebuild()
        for g in [g, *[graph for graph, _ in grown[::6]]]:
            for rounds in (7, 64):
                for cap in (60, 10_000):
                    stamps, picks, source, m = _history(g, rounds, 1, cap)
                    # change points are kept for swept rounds only
                    swept = np.unique(stamps[:-1] // m)
                    assert np.array_equal(
                        swept, (source == np.arange(len(source))).nonzero()[0])
                    stamps, picks = unrolled_history(stamps, picks, source, m)
                    want_stamps, want_picks, want_m = sweep_history(
                        g, rounds, 1, cap)
                    assert np.array_equal(stamps, want_stamps)
                    assert m == want_m
                    assert ([g._node(row) for row in picks.tolist()]
                            == want_picks)
        refused = sum(k == 0 for k, _ in jumps)
        assert refused > len(jumps) // 2 and refused < len(jumps)

    @pytest.mark.parametrize("cost, changed, periods", (
        ((10, 5, 10, 6), [0, 2], 50),  # A and J rise by 1 until J passes 60
        ((10, 5, 4, 6), [0, 2], 0),  # J's pick rises by 1 but J, lagging, by 7
        ((10, 5, 10, 6), [0, 2, 3], 0),  # K's pick only reaches K's cost
    ))
    def test_horizon_plays_the_next_period(self, cost, changed, periods):
        # Classes 0-3 hold one node each: A holds -A, L a leaf, J -A and K
        # -L; the table's last entry is the virtual class.  The proposed
        # period is one round in which the classes ``changed`` change.
        first, second = np.array([0, -1, 0, 1]), np.full(4, -1)
        owner, changed = np.arange(4), np.array(changed)
        k, _ = mbaobf.expansion._horizon(
            np.array([*cost, 1.0]), [(changed, changed)], first, second,
            owner, 60, 100)
        assert k == periods

    @pytest.mark.parametrize("length", (1, 2, 3))
    def test_short_cycles_are_jumped_like_the_sweep(self, length, jumps):
        g = EGraph()
        a = cycle(g, "a", length)
        root = g.add(ENode("add", None, (a, g.add(ENode("var", "c", ())))))
        g.rebuild()
        extract_max(g, root, 64, 10_000)
        assert skipped(jumps) >= 40 and {p for _, p in jumps} == {length}
        self.assert_like_sweep(g, root, range(1, 70), self.CAPS)
        self.assert_like_sweep(g, root, (MAX_DEPTH,), self.CAPS)

    def test_cycle_longer_than_any_period_sweeps_every_round(self, jumps):
        g = EGraph()
        a = cycle(g, "a", 5)
        g.rebuild()
        # the class changes in rounds 0, 5, ..., 60
        assert expr_size(extract_max(g, a, 64, 10_000)) == 61
        assert not jumps
        self.assert_like_sweep(g, a, range(1, 70), self.CAPS)

    def test_pick_crossing_the_cap_ends_a_jump(self, jumps):
        # P's pick Y + Q rises by 2 a round, Y and Q by 1: at cap 60 the
        # pick passes the cap in round 30, and Y and Q in round 60.
        g = EGraph()
        y, q = cycle(g, "y", 1), cycle(g, "q", 1)
        p = g.add(ENode("var", "p", ()))
        g.union(p, g.add(ENode("add", None, (y, q))))
        g.rebuild()
        extract_max(g, p, 64, 60)
        assert len([k for k, _ in jumps if k]) == 2
        for cid in (p, y):
            self.assert_like_sweep(g, cid, range(1, 70), (20, 59, 60, 61))

    @pytest.mark.parametrize("label", ("add", "xor"))
    def test_node_overtaking_the_pick_ends_a_jump(self, label, jumps):
        # K holds -H and Y op Z.  H holds a 31-node term from round 4 and
        # rises by 1 a round, Y and Z by 1 each, so Y op Z starts lower but
        # rises by 2: both reach 53 in round 26.  add sorts before neg, so
        # Y + Z takes K there; xor sorts after it and takes K a round
        # later.
        g = EGraph()
        h = cycle(g, "h", 1)
        x = g.add(ENode("var", "x", ()))
        for _ in range(4):
            x = g.add(ENode("add", None, (x, x)))
        g.union(h, x)
        y, z = cycle(g, "y", 1), cycle(g, "z", 1)
        top = g.add(ENode("neg", None, (h,)))
        g.union(top, g.add(ENode(label, None, (y, z))))
        g.rebuild()
        overtaken = 26 if label == "add" else 27
        before = extract_max(g, top, overtaken - 1, 10_000)
        after = extract_max(g, top, overtaken, 10_000)
        assert before.op.name == "neg" and after.op.name == label
        jumps.clear()
        extract_max(g, top, 64, 10_000)
        assert len([k for k, _ in jumps if k]) == 2
        self.assert_like_sweep(g, top, range(1, 70), (60, 10_000))

    def test_one_repeated_round_is_not_a_period(self, jumps):
        # A and N alternate with period 2: A rises to 2i + 1 in round 2i,
        # N to 2i + 2 in round 2i + 1.  J holds x + x from round 1 and ~A,
        # which passes it in round 3 by 1 and then rises by 2 every other
        # round.  Round 4 repeats round 2, but round 3, with J's first
        # rise, repeats nothing, so rounds 3-4 are not a period.
        g = EGraph()
        a = g.add(ENode("var", "a", ()))
        n = g.add(ENode("neg", None, (a,)))
        g.union(a, g.add(ENode("neg", None, (n,))))
        x = g.add(ENode("var", "x", ()))
        j = g.add(ENode("add", None, (x, x)))
        g.union(j, g.add(ENode("not", None, (a,))))
        g.rebuild()
        assert to_text(extract_max(g, j, 2, 10_000)) == "(x + x)"
        assert [expr_size(extract_max(g, j, r, 10_000))
                for r in (3, 4, 5, 6, 7)] == [4, 4, 6, 6, 8]
        jumps.clear()
        extract_max(g, j, 64, 10_000)
        assert len([k for k, _ in jumps if k]) == 1
        self.assert_like_sweep(g, j, range(1, 70), (60, 10_000))

    def test_x_plus_y_skips_most_rounds_at_the_defaults(self, jumps):
        expand(parse("x + y"), load_default_rules())
        assert 65 - skipped(jumps) <= 20


def test_extraction_memory_does_not_grow_with_jumped_rounds(jumps):
    # From 64 to MAX_DEPTH rounds most of the added rounds are jumped
    # over.  A jump records only a round map, so the traced peak of
    # extract_max barely moves: it rose by -2 and 175 KiB on these two
    # lines, where a copy of the period's change points per jumped
    # period rose by 747 and 1568 KiB.  Only the output term and the
    # swept rounds' change points may grow.
    cfg = ExpansionConfig(node_limit=8000, max_output_nodes=2000,
                          time_limit=None)
    for line in CORPUS.read_text().splitlines()[:2]:
        g, root, *_ = grow(parse(line), load_default_rules(), cfg)
        peaks = []
        for rounds in (64, MAX_DEPTH):
            jumps.clear()
            tracemalloc.start()
            try:
                extract_max(g, root, rounds, cfg.max_output_nodes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert skipped(jumps) >= MAX_DEPTH - 64, (line, jumps)
        assert peaks[1] - peaks[0] <= 512 * 1024, (line, peaks)


def test_expand_peaks_near_growth():
    # expand releases the hashcons before it extracts, so extraction's
    # arrays take the place of its keys rather than adding to them.  On
    # these lines expand's traced peak rose above grow's by 128 to 339
    # KiB; with the hashcons kept through extract_max it rose by 961 to
    # 1155 KiB.
    cfg = ExpansionConfig(node_limit=8000, max_output_nodes=2000,
                          time_limit=None)
    rules = load_default_rules()
    for line in CORPUS.read_text().splitlines()[:6]:
        e = parse(line)
        peaks = []
        for run in (grow, expand):
            tracemalloc.start()
            try:
                run(e, rules, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 600 * 1024, (line, peaks)


@pytest.mark.parametrize("node_limit, max_output_nodes",
                         [(3000, 10_000), (8000, 2000)],
                         ids=["defaults", "8000-2000"])
def test_extraction_reads_no_hashcons(node_limit, max_output_nodes):
    # expand empties the hashcons before extract_max: both extractors
    # read only the node table, the union-find and the leaf payloads
    cfg = ExpansionConfig(node_limit=node_limit,
                          max_output_nodes=max_output_nodes, time_limit=None)
    rules = load_default_rules()
    for line in CORPUS.read_text().splitlines()[:10]:
        g, root, *_ = grow(parse(line), rules, cfg)
        terms = (extract_max(g, root, cfg.extraction_rounds,
                             max_output_nodes), extract_min(g, root))
        g._hashcons.clear()
        assert g.node_count() == 0
        assert [to_text(t) for t in terms] == [to_text(t) for t in (
            extract_max(g, root, cfg.extraction_rounds, max_output_nodes),
            extract_min(g, root))]


class TestLayout:
    """The e-graph's one e-node order, by (label and class, then the
    children), which :meth:`EGraph._live_rows` sorts with ``_layout`` and
    the extractor sweeps as it is, against ``np.lexsort``."""

    @pytest.fixture
    def lexsorts(self, monkeypatch):
        """The number of calls of ``np.lexsort`` that ``_layout`` makes."""
        calls = []
        lexsort = np.lexsort

        def counted(keys):
            calls.append(len(keys))
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counted)
        return calls

    def test_grown_corpus_graphs(self, monkeypatch):
        seen, sorts = [], []

        def recorded(major, minor):
            seen.append((major, minor, _layout(major, minor)))
            return seen[-1][2]

        def counted(name):
            def sort(*args, **kwargs):
                sorts.append(name)
                return getattr(np, name)(*args, **kwargs)
            return sort

        monkeypatch.setattr(mbaobf.egraph, "_layout", recorded)
        monkeypatch.setattr(mbaobf.expansion, "np", types.SimpleNamespace(
            **{**vars(np), **{name: counted(name) for name in (
                "argsort", "lexsort", "sort", "unique")}}))
        for line in CORPUS.read_text().splitlines()[:5]:
            g, root = grown_graph(parse(line), 3000)
            before = len(seen)
            extract_max(g, root, 64, 10_000)
            # the extractor sweeps _live_rows' order and sorts nothing
            assert len(seen) == before + 1 and not sorts
            # in which each class's rows come in (label, children, row)
            # order, the order in which the sweep breaks ties
            classes, live, code, first, second = g._live_rows()
            owner = classes[live]
            assert np.array_equal(
                live[np.argsort(owner, kind="stable")],
                live[np.lexsort((live, second, first, code, owner))])
        assert len(seen) >= 15  # each of 5 lines: growth, extraction, here
        for major, minor, order in seen:
            assert np.array_equal(order, np.lexsort((minor, major)))

    def test_a_class_of_two_leaves_reads_in_row_order(self):
        # A hand-built class {y, x}: y's row comes first, so classes()
        # lists it first and every extractor takes it on the tie.
        g = EGraph()
        y, x = g.add_expr(parse("y")), g.add_expr(parse("x"))
        c, _ = g.union(y, x)
        g.rebuild()
        assert [n.render() for n in g.classes()[c]] == ["var y", "var x"]
        assert extract_max(g, c, 1, 10) == Var("y")
        assert extract_min(g, c) == Var("y")
        assert reference_extract_max(g, c, 1, 10) == Var("y")
        assert reference_extract_min(g, c) == Var("y")

    @pytest.mark.parametrize("top, falls_back", (
        (2**53 - 1, False),  # the largest key is 2^63 - 1
        (2**53, True),
        (2**62, True),
    ))
    def test_keys_at_the_int64_bound(self, top, falls_back, lexsorts):
        # rest spans 0-1023; pairs repeat, which both sorts keep stable
        rng = np.random.default_rng(top % 2**32)
        class_label = rng.integers(top - 40, top, 3000, endpoint=True)
        rest = rng.integers(0, 1023, 3000, endpoint=True)
        class_label[0], rest[1] = top, 1023
        expected = np.lexsort((rest, class_label))
        lexsorts.clear()
        assert np.array_equal(_layout(class_label, rest), expected)
        assert lexsorts == ([2] if falls_back else [])


class TestExpand:
    def test_single_rule_single_round(self):
        rep = expand(parse("x + y"), ADDOR,
                     ExpansionConfig(iter_limit=1, extraction_rounds=2))
        assert to_text(rep.output) == "((x | y) + (x & y))"
        assert rep.metrics_out.ast_size == 7
        assert rep.stop in (StopReason.ITER_LIMIT, StopReason.SATURATED)

    def test_constant_input_saturates_unchanged(self):
        rep = expand(parse("5"), _operator_lhs_rules())
        assert to_text(rep.output) == "5"
        assert rep.stop is StopReason.SATURATED
        assert rep.metrics_in == rep.metrics_out

    def test_no_rules_at_all(self):
        rep = expand(parse("x + y"), [])
        assert rep.stop is StopReason.SATURATED
        assert to_text(rep.output) == "(x + y)"

    def test_growth_ratio(self):
        rep = expand(parse("x + y"), load_default_rules())
        assert rep.metrics_out.ast_size >= 100 * rep.metrics_in.ast_size

    def test_output_equivalent_exhaustive_4bit(self):
        e = parse("(x - y) ^ 3", 4)
        rep = expand(e, load_default_rules(),
                     ExpansionConfig(node_limit=400, iter_limit=3,
                                     time_limit=10.0), bits=4)
        for x in range(16):
            for y in range(16):
                env = {"x": x, "y": y}
                assert evaluate(e, env, 4) == evaluate(rep.output, env, 4)

    def test_output_equivalent_random_64bit(self):
        e = parse("x * (y | 5)")
        rep = expand(e, load_default_rules(),
                     ExpansionConfig(node_limit=500, iter_limit=3,
                                     time_limit=10.0))
        res = check_equivalence(e, rep.output, 64, trials=1000, seed=3)
        assert res.passed

    # A 27-node chain 13 operator levels deep and a 14-term flat sum, 14
    # levels deep, raise UnextractableError at the defaults; 13 terms work.
    # tests/test_cli.py::TestObfuscate::test_unextractable_names_both_limits
    # pins today's exit 2 for flat_sum(19); item 18's fix flips both.
    @pytest.mark.xfail(strict=True, raises=UnextractableError,
                       reason="ROADMAP item 18")
    @pytest.mark.parametrize("text", [
        "((y ^ ((y ^ ((y ^ ((y ^ ((y ^ ((y ^ (x + y))"
        " + y)) + y)) + y)) + y)) + y)) + y)",
        flat_sum(13)], ids=["xor-add-chain-13", "flat-sum-14"])
    def test_deep_input_gets_an_equivalent_output(self, text):
        e = parse(text)
        rep = expand(e, load_default_rules())
        assert check_equivalence(e, rep.output, 8).passed

    def test_node_limit_stop(self):
        rep = expand(parse("x + y"), load_default_rules(),
                     ExpansionConfig(node_limit=200, iter_limit=50,
                                     time_limit=10.0))
        assert rep.stop is StopReason.NODE_LIMIT
        assert rep.final_node_count <= 200

    def test_first_budget_skip_ends_growth(self, rng, monkeypatch):
        # the cap refuses at most one rule's batch of applications, the
        # run's last, and the run then stops with NodeLimit inside the budget
        original = mbaobf.expansion.apply_match
        skips = []  # per batch: whether the cap refused one of its matches

        def counted(g, rule, matches):
            try:
                changed = original(g, rule, matches)
            except CapacityExceededError:
                skips.append(True)
                raise
            skips.append(False)
            return changed

        monkeypatch.setattr(mbaobf.expansion, "apply_match", counted)
        rules = load_default_rules()
        inputs = [parse("x + y"), parse("x * y - z")] + [
            random_expr(rng, rng.randint(1, 7)) for _ in range(6)]
        stopped = 0
        for node_limit in (40, 150, 600):
            for e in inputs:
                skips.clear()
                rep = expand(e, rules, ExpansionConfig(
                    node_limit=node_limit, iter_limit=30, time_limit=30.0,
                    max_output_nodes=500))
                assert rep.final_node_count <= node_limit
                assert skips.count(True) <= 1
                if True in skips:
                    assert skips[-1] and rep.stop is StopReason.NODE_LIMIT
                    stopped += 1
        assert stopped > 0

    def test_later_rule_loses_its_turn_in_the_last_iteration(self):
        # `big` does not fit the budget, so it ends the first iteration;
        # `small` would fit, and is applied only when it comes first
        big = "big : ?a => ((?a + 1) + 2) + 3"
        small = "small : ?a => ?a + 0"
        cfg = ExpansionConfig(node_limit=4, time_limit=10.0)
        for text, nodes in ((f"{big}\n{small}", 1), (f"{small}\n{big}", 3)):
            rep = expand(parse("x"), parse_rules(text), cfg)
            assert rep.stop is StopReason.NODE_LIMIT
            assert (rep.iterations, rep.final_node_count) == (1, nodes)

    def test_hard_cap_ends_growth_and_never_escapes(self):
        # node_limit is the e-graph's hard cap: the application it refuses
        # is rolled back and ends growth with NodeLimit, so growth never
        # raises CapacityExceededError
        rep = expand(parse("x * y - z"), load_default_rules(),
                     ExpansionConfig(node_limit=150, iter_limit=20,
                                     time_limit=10.0))
        assert rep.stop is StopReason.NODE_LIMIT
        assert rep.final_node_count <= 150

    def test_a_right_side_repeating_a_new_subterm_fits_exactly(self):
        # mul-split-masks builds ~x twice for `x * x` but adds it once: its
        # 8 new nodes fill a budget of 10 exactly
        rules = [r for r in load_default_rules()
                 if r.name == "mul-split-masks"]
        rep = expand(parse("x * x"), rules, ExpansionConfig(
            node_limit=10, iter_limit=1, time_limit=10.0))
        assert rep.stop is StopReason.NODE_LIMIT
        assert rep.final_node_count == 10

    def test_growth_stays_within_node_limit(self, rng):
        rules = load_default_rules()
        for node_limit in (12, 40, 90, 150):
            for _ in range(4):
                e = random_expr(rng, rng.randint(1, 7))
                rep = expand(e, rules,
                             ExpansionConfig(node_limit=node_limit,
                                             iter_limit=10, time_limit=30.0,
                                             max_output_nodes=500))
                assert rep.final_node_count <= node_limit

    def test_full_size_graphs_keep_their_invariants(self, monkeypatch):
        # every rebuild of a corpus run at the default node limit is
        # audited, up to the final graph of ~3000 nodes
        rebuild = EGraph.rebuild
        audited = []

        def audited_rebuild(g):
            repairs = rebuild(g)
            check_invariants(g)
            members = g.classes()
            assert list(members) == sorted(members)
            listed = [n for nodes in members.values() for n in nodes]
            assert len(listed) == len(set(listed)) == g.node_count()
            assert set(map(flat_key, listed)) == set(g._hashcons)
            audited.append(g.node_count())
            return repairs

        monkeypatch.setattr(EGraph, "rebuild", audited_rebuild)
        rules = load_default_rules()
        for line in CORPUS.read_text().splitlines()[:3]:
            audited.clear()
            rep = expand(parse(line), rules, ExpansionConfig(time_limit=60.0))
            assert rep.stop is StopReason.NODE_LIMIT
            assert len(audited) == rep.iterations + 1
            assert audited[-1] == rep.final_node_count

    def test_grown_classes_agree_semantically(self):
        # every node of a class must have the class's value: the invariant
        # checks see structure only
        rules = load_default_rules()
        for line in CORPUS.read_text().splitlines()[:10]:
            check_class_values(grow(parse(line), rules,
                                    ExpansionConfig()).graph)

    def test_class_values_catch_an_unsound_union(self):
        g = EGraph()
        g.union(g.add_expr(parse("x")), g.add_expr(parse("x + 1")))
        g.rebuild()
        check_invariants(g)
        with pytest.raises(AssertionError, match="differs from class"):
            check_class_values(g)

    def test_input_over_node_limit_raises(self):
        e = parse("(x * y) + (y * z)")  # 6 distinct nodes: y is shared
        for run in (expand, grow):
            run(e, [], ExpansionConfig(node_limit=6))
            with pytest.raises(CapacityExceededError):
                run(e, [], ExpansionConfig(node_limit=5))

    def test_time_limit_stop(self):
        rep = expand(parse("x + y"), load_default_rules(),
                     ExpansionConfig(node_limit=10**6, iter_limit=10**6,
                                     time_limit=0.05))
        assert rep.stop is StopReason.TIME_LIMIT
        assert rep.elapsed < 2.0

    def test_target_size_stop(self):
        rep = expand(parse("x + y"), load_default_rules(),
                     ExpansionConfig(node_limit=3000, iter_limit=30,
                                     time_limit=10.0, target_ast_size=100))
        assert rep.stop is StopReason.TARGET_SIZE
        assert rep.metrics_out.ast_size >= 100

    def test_monotone_in_iterations(self):
        sizes = []
        for iters in (1, 2, 3, 4):
            rep = expand(parse("x + y"), load_default_rules(),
                         ExpansionConfig(node_limit=2000, iter_limit=iters,
                                         time_limit=30.0,
                                         max_output_nodes=10**6,
                                         extraction_rounds=6))
            sizes.append(rep.metrics_out.ast_size)
        assert sizes == sorted(sizes)

    def test_monotone_in_rounds(self):
        sizes = []
        for rounds in (1, 2, 4, 8, 16):
            rep = expand(parse("x + y"), load_default_rules(),
                         ExpansionConfig(node_limit=500, iter_limit=2,
                                         time_limit=30.0,
                                         extraction_rounds=rounds))
            sizes.append(rep.metrics_out.ast_size)
        assert sizes == sorted(sizes)

    def test_complexity_dominance_when_rules_fire(self):
        rep = expand(parse("x & y"), load_default_rules(),
                     ExpansionConfig(node_limit=500, iter_limit=2,
                                     time_limit=10.0))
        assert rep.metrics_out.ast_size >= rep.metrics_in.ast_size

    def test_deterministic_output_text(self):
        texts = {to_text(expand(parse("x + y"), load_default_rules(),
                                ExpansionConfig(node_limit=400, iter_limit=3,
                                                time_limit=30.0)).output)
                 for _ in range(2)}
        assert len(texts) == 1

    def test_input_above_output_budget_rejected(self):
        big = parse(" + ".join(["x"] * 40))
        with pytest.raises(OutputTooLargeError):
            expand(big, [], ExpansionConfig(max_output_nodes=50))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExpansionConfig(node_limit=0)
        with pytest.raises(ValueError):
            ExpansionConfig(node_limit=None, iter_limit=None, time_limit=None)
        with pytest.raises(ValueError):
            ExpansionConfig(extraction_rounds=0)

    def test_max_output_nodes_ceiling(self):
        assert ExpansionConfig(max_output_nodes=MAX_OUTPUT_NODES)
        with pytest.raises(ValueError, match=f"max_output_nodes must be at "
                                             f"most {MAX_OUTPUT_NODES}"):
            ExpansionConfig(max_output_nodes=MAX_OUTPUT_NODES + 1)

    def test_iter_limit_required(self):
        with pytest.raises(ValueError, match="iter_limit is required"):
            ExpansionConfig(iter_limit=None)
        with pytest.raises(ValueError, match="extraction_rounds is required"):
            ExpansionConfig(extraction_rounds=None)

    @pytest.mark.parametrize("field", ["node_limit", "iter_limit",
                                       "time_limit", "target_ast_size",
                                       "extraction_rounds",
                                       "max_output_nodes"])
    def test_nan_limit_rejected(self, field):
        with pytest.raises(ValueError, match="nan"):
            ExpansionConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["node_limit", "iter_limit",
                                       "extraction_rounds",
                                       "max_output_nodes",
                                       "target_ast_size"])
    def test_integer_limit_must_be_an_int(self, field):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="must be an integer"):
                ExpansionConfig(**{field: value})
        if field in ("extraction_rounds", "max_output_nodes"):
            g = EGraph()
            root = g.add_expr(parse("x"))
            limits = {"extraction_rounds": 2, "max_output_nodes": 10,
                      field: 2.0}
            with pytest.raises(ValueError, match="must be an integer"):
                extract_max(g, root, limits["extraction_rounds"],
                            limits["max_output_nodes"])

    def test_time_limit_must_be_a_number(self):
        for value in (True, False, "2", [1]):
            with pytest.raises(ValueError,
                               match="time_limit must be a number"):
                ExpansionConfig(time_limit=value)
        for value in (2, 0.5, None):
            assert ExpansionConfig(time_limit=value).time_limit == value

    def test_node_limit_required_and_rounds_within_depth_bound(self):
        with pytest.raises(ValueError, match="node_limit is required"):
            ExpansionConfig(node_limit=None)
        with pytest.raises(ValueError, match=f"between 1 and {MAX_DEPTH}"):
            ExpansionConfig(extraction_rounds=MAX_DEPTH + 1)
        assert ExpansionConfig(extraction_rounds=MAX_DEPTH)


class TestGrow:
    # the defaults with more time, and a target size every line reaches
    CONFIGS = (ExpansionConfig(time_limit=60.0),
               ExpansionConfig(time_limit=60.0, target_ast_size=1000))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["defaults", "target"])
    def test_expand_is_grow_then_extract_max(self, cfg):
        rules = load_default_rules()
        for line in CORPUS.read_text().splitlines()[:10]:
            e = parse(line)
            grown = grow(e, rules, cfg)
            rep = expand(e, rules, cfg)
            assert (rep.stop, rep.iterations, rep.final_node_count) == (
                grown.stop, grown.iterations, grown.graph.node_count())
            assert to_text(rep.output) == to_text(extract_max(
                grown.graph, grown.root, cfg.extraction_rounds,
                cfg.max_output_nodes))
            if cfg.target_ast_size is not None:
                assert rep.stop is StopReason.TARGET_SIZE

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["defaults", "target"])
    def test_extractions_per_expand(self, cfg, monkeypatch):
        # one at the end, which perfbench's extract_calls counts on; with
        # a target size, one per iteration, the last of them the output
        original = mbaobf.expansion.extract_max
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(mbaobf.expansion, "extract_max", counted)
        rules = load_default_rules()
        for line in CORPUS.read_text().splitlines()[:10]:
            calls[0] = 0
            rep = expand(parse(line), rules, cfg)
            if cfg.target_ast_size is None:
                assert calls[0] == 1
            else:
                assert rep.stop is StopReason.TARGET_SIZE
                assert calls[0] == rep.iterations

    @pytest.mark.parametrize("iter_limit, target, iterations", [
        (100, 100, 1),  # reached after one iteration
        (2, 10**6, 2),  # never reached: stopped by the iteration limit
    ])
    def test_expand_extracts_each_graph_state_once(self, iter_limit, target,
                                                   iterations, monkeypatch):
        original = mbaobf.expansion.extract_max
        states = []

        def recorded(g, *args):
            states.append((id(g), tuple(g._uf), g._columns().tobytes()))
            return original(g, *args)

        monkeypatch.setattr(mbaobf.expansion, "extract_max", recorded)
        cfg = ExpansionConfig(iter_limit=iter_limit, target_ast_size=target)
        e = parse("x + y")
        rep = expand(e, load_default_rules(), cfg)
        # one extraction per iteration, the last of them the output
        assert rep.iterations == iterations
        assert len(set(states)) == len(states) == iterations
        assert check_equivalence(e, rep.output, 64).passed


# ---------------------------------------------------------------------------
# Lazy matching
# ---------------------------------------------------------------------------


def eager_expand(e, rules, cfg, applied):
    """The eager reference schedule for ``expand``'s growth loop: each
    iteration matches every rule against its index before applying any.
    It reads no clock and takes no target size.  Appends each application
    the node cap did not refuse, ``(rule name, match)``, to ``applied``;
    returns the report with ``elapsed`` 0."""
    g = EGraph(max_nodes=cfg.node_limit)
    root = g.add_expr(e)
    g.rebuild()
    stop = None
    iterations = 0
    while stop is None:
        if iterations == cfg.iter_limit:
            stop = StopReason.ITER_LIMIT
            break
        index = _label_index(g)
        matches = [(rule, m) for rule in rules for m in ematch(g, rule, index)]
        changed = False
        for rule, m in matches:
            try:
                changed |= apply_match(g, rule, [m])
            except CapacityExceededError:
                stop = StopReason.NODE_LIMIT
                break
            applied.append((rule.name, m))
        g.rebuild()
        iterations += 1
        if stop is None and not changed:
            stop = StopReason.SATURATED
        elif stop is None and g.node_count() >= cfg.node_limit:
            stop = StopReason.NODE_LIMIT
    output = extract_max(g, root, cfg.extraction_rounds, cfg.max_output_nodes)
    return ExpansionReport(output, stop, iterations, g.node_count(), 0.0,
                           measure(e), measure(output))


# Rules that merge classes, some of them with the leaf 0's class; put
# ahead of the shipped rules, they change a leaf's class before a later
# rule whose left side holds that leaf is matched.
COLLAPSING = parse_rules("""
sub-self : ?a - ?a => 0
xor-self : ?a ^ ?a => 0
and-self : ?a & ?a => ?a
mul-zero : ?a * 0 => 0
neg-neg  : 0 - (0 - ?a) => ?a
""")


class TestLazyMatching:
    def test_applies_what_the_eager_loop_applied(self, rng, monkeypatch):
        original = mbaobf.expansion.apply_match
        applied = []  # the matches of every batch that returned
        refused = []  # the matches of the batch the cap refused, if any

        def recorded(g, rule, matches):
            batch = [(rule.name, m) for m in matches]
            try:
                changed = original(g, rule, matches)
            except CapacityExceededError:
                refused.extend(batch)
                raise
            applied.extend(batch)
            return changed

        monkeypatch.setattr(mbaobf.expansion, "apply_match", recorded)
        rulesets = (load_default_rules(),
                    COLLAPSING + load_default_rules())
        # In the first two, a collapsing rule merges the class of the leaf
        # 0 before `negsub-to-not`, whose left side holds 0, is matched.
        # The random ones have constants 0 and 1 and repeat subterms.
        inputs = [parse("(x - x) - y"), parse("(x ^ x) + (0 - y)")] + [
            random_expr(rng, rng.randint(1, 9), pool=("x", "y"), bits=1,
                        const_prob=0.4) for _ in range(12)]
        for e in inputs:
            for node_limit in (40, 150, 600):
                for rules in rulesets:
                    cfg = ExpansionConfig(node_limit=node_limit,
                                          iter_limit=8, time_limit=60.0,
                                          max_output_nodes=500)
                    applied.clear()
                    refused.clear()
                    rep = expand(e, rules, cfg)
                    eager = []
                    assert (dataclasses.replace(rep, elapsed=0.0)
                            == eager_expand(e, rules, cfg, eager))
                    # a refused batch applied the matches before the
                    # refused one, and the eager loop applied those too
                    head, rest = eager[:len(applied)], eager[len(applied):]
                    assert head == applied
                    assert rest == refused[:len(rest)]
                    assert len(rest) < len(refused) or not refused

    def test_later_rules_unmatched_once_growth_ends(self, monkeypatch):
        original = mbaobf.expansion.ematch
        calls = []

        def counted(g, rule, index=None):
            calls.append(rule.name)
            return original(g, rule, index)

        monkeypatch.setattr(mbaobf.expansion, "ematch", counted)
        rules = load_default_rules()
        e = parse(CORPUS.read_text().splitlines()[0])
        cfg = ExpansionConfig(time_limit=60.0)  # the defaults, more time
        rep = expand(e, rules, cfg)
        assert rep.stop is StopReason.NODE_LIMIT
        assert len(calls) < rep.iterations * len(rules)
        assert (dataclasses.replace(rep, elapsed=0.0)
                == eager_expand(e, rules, cfg, []))

    def test_each_match_list_dropped_after_its_last_rule(self, monkeypatch):
        # one match per run of rules with one left side and iteration, and
        # at most one match list alive at a time
        original = mbaobf.expansion.ematch
        apply = mbaobf.expansion.apply_match

        class Matches(list):
            pass  # a list that a weak reference can point to

        lists = []  # a weak reference to each list built this iteration

        def alive():
            return sum(ref() is not None for ref in lists)

        def matched(g, rule, index=None):
            found = Matches(original(g, rule, index))
            lists.append(weakref.ref(found))
            assert alive() == 1, rule.name
            return found

        def applied(g, rule, matches):
            assert alive() == 1, rule.name
            return apply(g, rule, matches)

        monkeypatch.setattr(mbaobf.expansion, "ematch", matched)
        monkeypatch.setattr(mbaobf.expansion, "apply_match", applied)
        rules = load_default_rules()
        runs = len(list(itertools.groupby(rule.lhs for rule in rules)))
        assert (runs, len({rule.lhs for rule in rules})) == (9, 9)
        g = EGraph(max_nodes=3000)
        g.add_expr(parse(CORPUS.read_text().splitlines()[0]))
        g.rebuild()
        for _ in range(3):
            lists.clear()
            assert _iterate(g, rules, math.inf) == (None, True)
            assert len(lists) == runs and alive() == 0
            g.rebuild()

    def test_interleaved_left_sides_matched_again(self, monkeypatch):
        # equal left sides apart from each other are matched once per
        # run, against one index, so growth is the eager loop's
        original = mbaobf.expansion.ematch
        calls = []

        def counted(g, rule, index=None):
            calls.append(rule.name)
            return original(g, rule, index)

        monkeypatch.setattr(mbaobf.expansion, "ematch", counted)
        rules = COLLAPSING + load_default_rules() + COLLAPSING[:2]
        runs = [next(group).name for _, group in itertools.groupby(
            rules, lambda rule: rule.lhs)]
        assert len(runs) > len({rule.lhs for rule in rules})
        cfg = ExpansionConfig(node_limit=600, iter_limit=4, time_limit=60.0,
                              max_output_nodes=500)
        for text in ("(x - x) - y", "(x ^ x) + (0 - y)", "x * 0 + (y & y)"):
            e = parse(text)
            assert (dataclasses.replace(expand(e, rules, cfg), elapsed=0.0)
                    == eager_expand(e, rules, cfg, []))
        g = EGraph(max_nodes=100000)
        g.add_expr(parse("(x - x) - (y ^ y)"))
        g.rebuild()
        for _ in range(2):
            calls.clear()
            assert _iterate(g, rules, math.inf)[0] is None
            assert calls == runs
            g.rebuild()

    def test_clock_read_before_each_rule_is_matched(self, monkeypatch):
        # each match takes one second on a fake clock; no rule may be
        # matched once the limit has passed.  Rules with the same left
        # side share one match per iteration.
        clock = [0.0]
        monkeypatch.setattr(mbaobf.expansion, "time",
                            types.SimpleNamespace(monotonic=lambda: clock[0]))
        original = mbaobf.expansion.ematch

        def slow(g, rule, index=None):
            assert clock[0] < limit
            clock[0] += 1.0
            return original(g, rule, index)

        monkeypatch.setattr(mbaobf.expansion, "ematch", slow)
        rules = load_default_rules()
        sides = len({rule.lhs for rule in rules})
        for limit in (0.5, 5.5, 20.5):  # the last one in the 3rd iteration
            clock[0] = 0.0
            rep = expand(parse("x + y"), rules,
                         ExpansionConfig(time_limit=limit))
            assert rep.stop is StopReason.TIME_LIMIT
            assert clock[0] == int(limit) + 1
            assert rep.iterations == 1 + int(limit) // sides


class TestCollectorPause:
    """Growth and extraction pause Python's cyclic collector and leave it
    as they found it, whether they return or raise."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_kept_on_return(self, collector):
        rules = load_default_rules()
        e = parse("(x ^ y) + 2 * (x & y)")
        cfg = ExpansionConfig(node_limit=300, time_limit=60.0)
        grown = grow(e, rules, cfg)
        assert gc.isenabled() is collector
        extract_max(grown.graph, grown.root, 8, 1000)
        assert gc.isenabled() is collector
        extract_min(grown.graph, grown.root)
        assert gc.isenabled() is collector
        expand(e, rules, cfg)
        assert gc.isenabled() is collector

    def test_state_kept_on_raise(self, collector):
        e = parse("(x * y) + (y * z)")  # 6 distinct nodes
        for run in (grow, expand):
            with pytest.raises(CapacityExceededError):
                run(e, [], ExpansionConfig(node_limit=5))
            assert gc.isenabled() is collector
        g = EGraph()
        root = g.add(ENode("var", "x", ()))
        for _ in range(MAX_DEPTH + 1):
            root = g.add(ENode("neg", None, (root,)))
        g.rebuild()
        for extract in (lambda cid: extract_max(g, cid, 1, 10_000),
                        lambda cid: extract_min(g, cid)):
            with pytest.raises(UnextractableError):
                extract(root)
            assert gc.isenabled() is collector
            with pytest.raises(InvalidIdError):
                extract(root + 1)
            assert gc.isenabled() is collector

    @pytest.mark.parametrize("cfg", [
        ExpansionConfig(time_limit=60.0),
        ExpansionConfig(node_limit=8000, max_output_nodes=2000,
                        time_limit=600.0),
    ], ids=["defaults", "grow-large"])
    def test_growth_and_extraction_make_no_cycles(self, cfg):
        # what makes the pause safe: with the collector off, a full
        # collection after 20 corpus lines finds nothing to free
        rules = load_default_rules()
        lines = CORPUS.read_text().splitlines()[:20]
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for line in lines:
                expand(parse(line), rules, cfg)
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
