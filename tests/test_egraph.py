import math
import random
from array import array

import numpy as np
import pytest

from mbaobf.egraph import (_CODES, CapacityExceededError, EGraph, ENode,
                           InvalidIdError, check_invariants)
from mbaobf.expansion import ExpansionConfig, extract_max, grow
from mbaobf.expr import parse
from mbaobf.rules import ematch, load_default_rules

from conftest import CORPUS, NaivePartition, flat_key, graph_of, random_expr


def reference_rebuild(g):
    """The rebuild as it was before it re-keyed only stale keys: re-key the
    whole hashcons into a fresh dict, each node under its canonical form,
    until a pass merges nothing.  Each key keeps its row, and a key whose
    canonical form another row already holds is merged into that row's
    class.  The node table is then written afresh from the hashcons,
    every row that no key maps to dead, and every union-find path is
    compressed, so that the union-find is flat as a rebuild leaves it."""
    while g._merged:
        g._merged.clear()
        rekeyed = {}
        for key, row in g._hashcons.items():
            if len(key) == 3:  # an operator's children, -1 kept as it is
                key = (key[0], *[c if c < 0 else g.find(c) for c in key[1:]])
            prev = rekeyed.setdefault(key, row)
            if prev != row:
                g.union(prev, row)
        g._hashcons = rekeyed
    g._table[:] = array("q", [-1] * len(g._table))
    for key, row in g._hashcons.items():
        g._table[3 * row:3 * row + 3] = array(
            "q", key if len(key) == 3 else (key[0], -1, -1))
    for cid in range(len(g._uf)):
        g.find(cid)


class TestAdd:
    def test_three_nodes_for_x_plus_y(self):
        g, _ = graph_of("x + y")
        assert g.class_count() == 3
        assert g.node_count() == 3

    def test_hashcons_idempotence(self):
        g, (r1,) = graph_of("x + y")
        r2 = g.add_expr(parse("x + y"))
        assert r1 == r2
        assert g.node_count() == 3

    def test_shared_subterm(self):
        g, _ = graph_of("(x + y) + (x + y)")
        assert g.class_count() == 4
        assert g.node_count() == 4

    def test_constants_canonical_per_width(self):
        g = EGraph(bits=8)
        a = g.add_expr(parse("257", 8))
        b = g.add_expr(parse("1", 8))
        assert a == b

    def test_capacity_cap(self):
        g = EGraph(max_nodes=2)
        with pytest.raises(CapacityExceededError):
            g.add_expr(parse("x + y"))

    @pytest.mark.parametrize("label, payload, kids", [
        ("foo", None, (0,)),  # no such label
        ("add", None, (0,)),  # a child short
        ("add", None, (0, 1, 0)),  # a child too many
        ("neg", None, ()),
        ("add", 5, (0, 1)),  # an operator with a payload
        ("add", None, [0, 1]),  # children not a tuple
        ("var", 3, ()),
        ("var", "z", (0,)),
        ("const", 300, ()),  # 44 at 8 bits, as parse reduces it
        ("const", -1, ()),
        ("const", True, ()),
        ("const", 3, (0,)),
    ])
    def test_malformed_node_is_refused_before_anything_changes(
            self, label, payload, kids):
        g = EGraph(bits=8)
        g.add_expr(parse("x + y", 8))
        before = g.node_count(), g.class_ids()
        with pytest.raises(ValueError):
            g.add(ENode(label, payload, kids))
        assert (g.node_count(), g.class_ids()) == before

    def test_rollback_pops_the_newest_insertions(self):
        g, _ = graph_of("x + y")

        def state():
            return (list(g._hashcons.items()), list(g._uf),
                    list(g._table), dict(g._payloads))

        before = state()
        g.add_expr(parse("(x + y) * z"))  # adds z and the product
        g.rollback(3)
        assert state() == before
        g.rollback(3)  # nothing newer: a no-op
        assert state() == before
        assert g.add_expr(parse("z")) == 3  # ids are handed out again
        assert g._node(3) == ENode("var", "z", ())

        # x - a and x - b become one node once a = b: the rebuild kills
        # one of their rows, so the graph holds fewer nodes than ids, and
        # rollback counts ids
        g, (a, b, _, _) = graph_of("a", "b", "x - a", "x - b")
        g.union(a, b)
        g.rebuild()
        assert g.node_count() == len(g._uf) - 1 == 4
        before = state()
        g.add_expr(parse("(x - a) * 7"))  # adds 7 and the product
        g.rollback(5)
        assert state() == before
        check_invariants(g)

    def test_every_row_is_written_at_insertion(self):
        g = EGraph()
        g.add_expr(parse("(x + 3) * ~x"))
        assert list(g._table) == [
            _CODES["var"], -1, -1,
            _CODES["const"], -1, -1,
            _CODES["add"], 0, 1,
            _CODES["not"], 0, -1,
            _CODES["mul"], 2, 3]


class TestUnionFind:
    def test_fresh_class_is_own_root(self):
        g, (root,) = graph_of("x")
        assert g.find(root) == root

    def test_self_union(self):
        g, (root,) = graph_of("x + y")
        rep, changed = g.union(root, root)
        assert rep == g.find(root)
        assert changed is False

    def test_union_connects(self):
        g, (a, b) = graph_of("x", "y")
        g.union(a, b)
        assert g.find(a) == g.find(b)

    def test_union_idempotence(self):
        g, (a, b) = graph_of("x", "y")
        _, first = g.union(a, b)
        _, second = g.union(b, a)
        assert first is True and second is False

    def test_smaller_id_wins(self):
        g, (a, b) = graph_of("x", "y")
        rep, _ = g.union(b, a)
        assert rep == min(a, b)

    def test_invalid_id(self):
        g, _ = graph_of("x")
        with pytest.raises(InvalidIdError):
            g.find(99)
        with pytest.raises(InvalidIdError):
            g.union(0, -1)
        with pytest.raises(InvalidIdError):
            g.add(ENode("neg", None, (99,)))

    def test_bool_id_rejected(self):
        # bools are ints to isinstance, but no id the graph hands out
        g, _ = graph_of("x + y")
        for bad in (True, False):
            with pytest.raises(InvalidIdError):
                g.find(bad)
            with pytest.raises(InvalidIdError):
                g.union(0, bad)

    def test_laws_against_partition_oracle(self, rng):
        # transitivity etc. over random union sequences
        for _ in range(50):
            g = EGraph()
            oracle = NaivePartition()
            ids = []
            for i in range(20):
                cid = g.add_expr(parse(f"v{i}"))
                ids.append(cid)
                oracle.add(cid)
            for _ in range(30):
                a, b = rng.choice(ids), rng.choice(ids)
                got = g.union(a, b)[1]
                want = oracle.union(a, b)
                assert got == want
            for a in ids:
                for b in ids:
                    assert (g.find(a) == g.find(b)) == oracle.same(a, b)

    def test_chain_of_unions_keeps_paths_short(self):
        # union(i, n - 1) makes i the parent of i + 1, the root of n - 1's
        # class, so for i = n - 2, ..., 0 the path from n - 1 grows into
        # an n-link chain unless each find shortens the path it walks.
        # With halving it stays at most 2 links long: the unions take
        # linear time, not quadratic.  Read-only walk of the union-find.
        n = 4000
        g = EGraph()
        for i in range(n):
            g.add(ENode("var", f"v{i}", ()))
        for i in range(n - 2, -1, -1):
            g.union(i, n - 1)
            cid, links = n - 1, 0
            while g._uf[cid] != cid:
                cid, links = g._uf[cid], links + 1
            assert cid == i and links <= 2, (i, links)


class TestRebuild:
    def test_rebuild_clean_graph_is_zero(self):
        g, _ = graph_of("x + y")
        assert g.rebuild() == 0

    def test_congruence_closure(self):
        # ~x and ~y collapse once x and y merge
        g, _ = graph_of("~x", "~y")
        nx = g.add_expr(parse("~x"))
        ny = g.add_expr(parse("~y"))
        x = g.add_expr(parse("x"))
        y = g.add_expr(parse("y"))
        assert g.find(nx) != g.find(ny)
        g.union(x, y)
        assert g.rebuild() > 0
        assert g.find(nx) == g.find(ny)
        check_invariants(g)

    def test_rebuild_idempotent(self):
        g, _ = graph_of("~x", "~y")
        g.union(g.add_expr(parse("x")), g.add_expr(parse("y")))
        assert g.rebuild() > 0
        assert g.rebuild() == 0

    def test_upward_congruence_chain(self):
        # merging leaves must propagate through two levels of parents
        g, _ = graph_of("(x + y) * 2", "(x + z) * 2")
        a = g.add_expr(parse("(x + y) * 2"))
        b = g.add_expr(parse("(x + z) * 2"))
        g.union(g.add_expr(parse("y")), g.add_expr(parse("z")))
        g.rebuild()
        assert g.find(a) == g.find(b)
        check_invariants(g)

    def test_figure_shape_mul_identity(self):
        # graph holding x+y and y*1; merging y*1 with y leaves the mul node
        # inside y's class
        g, (_, mul_root) = graph_of("x + y", "y * 1")
        y = g.add_expr(parse("y"))
        g.union(mul_root, y)
        g.rebuild()
        check_invariants(g)
        labels = sorted(n.label for n in g.classes()[g.find(y)])
        assert labels == ["mul", "var"]
        assert g.find(mul_root) == g.find(y)

    def test_invariants_catch_a_corrupt_hashcons_entry(self):
        g, (root,) = graph_of("x + y")
        check_invariants(g)
        (key,) = [k for k, c in g._hashcons.items() if c == root]
        g._hashcons[key] = g.find(g.add_expr(parse("x")))
        with pytest.raises(AssertionError, match="are empty"):
            check_invariants(g)

    def test_invariants_catch_a_row_a_rekey_left_stale(self):
        # the re-key moves the sum's key from (add 1 2) to (add 1 1); a
        # row left as it was, or dead while its key lives, fails the audit
        g, (x, y, root) = graph_of("x", "y", "x + y")
        g.union(x, y)
        g.rebuild()
        check_invariants(g)
        assert g._node(root) == ENode("add", None, (0, 0))
        g._table[3 * root + 2] = y
        with pytest.raises(AssertionError, match="not its key"):
            check_invariants(g)
        g._table[3 * root:3 * root + 3] = array("q", (-1, -1, -1))
        with pytest.raises(AssertionError, match="holds None"):
            check_invariants(g)

    def test_invariants_catch_a_dead_row_left_live(self):
        # x * 2 and x * (1 + 1) meet once 2 and 1 + 1 merge: one key
        # survives, and the other's row dies
        g, (two, one_one, a, b) = graph_of("2", "1 + 1", "x * 2",
                                           "x * (1 + 1)")
        g.union(two, one_one)
        g.rebuild()
        check_invariants(g)
        assert g.find(a) == g.find(b)
        dead, live = (a, b) if g._node(a) is None else (b, a)
        assert g._node(dead) is None and g._node(live) is not None
        g._table[3 * dead:3 * dead + 3] = g._table[3 * live:3 * live + 3]
        with pytest.raises(AssertionError, match="live rows for"):
            check_invariants(g)

    def test_invariants_catch_a_larger_parent(self):
        # the union-find's parents are smaller ids: a merge keeps the
        # smaller id as the class's representative
        g, (x, y) = graph_of("x", "y")
        g.union(x, y)
        g.rebuild()
        check_invariants(g)
        g._uf[x], g._uf[y] = y, y
        with pytest.raises(AssertionError, match="larger parent"):
            check_invariants(g)

    def test_rebuild_leaves_the_union_find_flat(self):
        # union(y, z) then union(x, y) leave the chain z -> y -> x; the
        # rebuild sets every entry to its class, and the audit refuses
        # the chain put back by hand with no merge pending
        g, (x, y, z) = graph_of("x", "y", "z")
        g.union(y, z)
        g.union(x, y)
        assert g._uf == [x, x, y]
        g.rebuild()
        assert g._uf == [x, x, x]
        check_invariants(g)
        g._uf[z] = y
        assert not g._merged
        with pytest.raises(AssertionError, match="not flat"):
            check_invariants(g)

    def test_invariants_catch_a_pending_merge(self):
        # no node has x or y as a child, so no key goes stale
        g, (x, y) = graph_of("x", "y")
        g.union(x, y)
        with pytest.raises(AssertionError, match="pending"):
            check_invariants(g)
        g.rebuild()
        check_invariants(g)

    def test_invariants_catch_a_graph_over_its_cap(self):
        g, _ = graph_of("x + y")
        g.max_nodes = 3
        check_invariants(g)
        g.max_nodes = 2
        with pytest.raises(AssertionError, match="over the cap"):
            check_invariants(g)

    def test_invariants_catch_a_stale_key(self):
        g, (root,) = graph_of("x + y")
        x, y = g.add_expr(parse("x")), g.add_expr(parse("y"))
        check_invariants(g)
        g.union(x, y)  # the sum's key (add 0 1) goes stale until rebuild
        with pytest.raises(AssertionError, match="stale node"):
            check_invariants(g)

    def test_children_merged_in_separate_rebuilds(self):
        # each child of x + y loses to a smaller id, one rebuild apart; the
        # second rebuild must re-key the key the first one left, (add 0 3),
        # not the original form
        g = EGraph()
        c, d, x, y, s = (g.add_expr(parse(t))
                         for t in ("c", "d", "x", "y", "x + y"))
        g.rebuild()
        g.union(c, x)
        g.rebuild()
        g.union(d, y)
        g.rebuild()
        check_invariants(g)
        assert g.node_count() == 5
        assert g.classes()[g.find(s)] == [ENode("add", None, (c, d))]

    def test_merge_found_late_in_a_pass_takes_a_second_pass(self):
        # the first pass merges ~y's class, and so z's, into 0 (that of x
        # and ~x); only then does -z's key (neg 3) go stale, so a second
        # pass retires it
        g = EGraph()
        x, y, nx, z, negz, ny = (g.add_expr(parse(t))
                                 for t in ("x", "y", "~x", "z", "-z", "~y"))
        g.rebuild()
        g.union(nx, x)
        g.union(ny, z)
        g.rebuild()
        g.union(x, y)
        assert g.rebuild() == 2
        check_invariants(g)
        assert g.classes()[g.find(negz)] == [ENode("neg", None, (0,))]

    def test_cascade_closes_in_one_rebuild(self):
        # merging x and y makes ~x and ~y congruent, which makes ~~x and
        # ~~y congruent, and so on up six levels
        g = EGraph()
        x, y = g.add_expr(parse("x")), g.add_expr(parse("y"))
        levels = [(g.add_expr(parse("~" * k + "x")),
                   g.add_expr(parse("~" * k + "y"))) for k in range(1, 7)]
        g.rebuild()
        g.union(x, y)
        assert g.rebuild() > 0
        assert all(g.find(a) == g.find(b) for a, b in levels)
        check_invariants(g)
        assert g.node_count() == 8  # var x, var y and six ~ nodes
        assert g.rebuild() == 0

    def test_random_stress_invariants(self, rng):
        for round_no in range(20):
            g = EGraph()
            roots = []
            for _ in range(8):
                e = random_expr(rng, rng.randint(1, 12), bits=8, const_prob=0.3)
                roots.append(g.add_expr(e))
            g.rebuild()
            for _ in range(10):
                g.union(rng.choice(roots), rng.choice(roots))
                g.rebuild()
                check_invariants(g)

    def test_random_unions_of_any_classes_keep_invariants(self, rng):
        # unions of inner classes too, not only roots, one or a few per
        # rebuild, so a node's children are merged in separate rebuilds;
        # 4-bit constants collide often, so congruent twins arise.  A twin
        # graph takes the same unions and is rebuilt by full passes.
        for round_no in range(100):
            g, ref = EGraph(), EGraph()
            for _ in range(6):
                e = random_expr(rng, rng.randint(1, 10), bits=4,
                                const_prob=0.3)
                g.add_expr(e)
                ref.add_expr(e)
            g.rebuild()
            reference_rebuild(ref)
            ids = list(range(g.class_count()))
            for _ in range(12):
                for _ in range(rng.randint(1, 3)):
                    a, b = rng.choice(ids), rng.choice(ids)
                    g.union(a, b)
                    ref.union(a, b)
                g.rebuild()
                reference_rebuild(ref)
                check_invariants(g)
                check_invariants(ref)
                members = g.classes()
                listed = [n for nodes in members.values() for n in nodes]
                assert len(listed) == g.node_count() == ref.node_count()
                assert [g.find(c) for c in ids] == [ref.find(c) for c in ids]
                assert set(g._hashcons) == set(ref._hashcons)


def grown_graph(rng, rules):
    """A random expression's graph grown by ``rules``, then given up to
    three random unions, each rebuilt, so that it holds dead rows and
    merged-away ids."""
    e = random_expr(rng, rng.randint(1, 8), bits=8, const_prob=0.3)
    g = grow(e, rules, ExpansionConfig(
        node_limit=rng.choice((40, 150, 400)), iter_limit=4,
        time_limit=60.0)).graph
    for _ in range(rng.randint(0, 3)):
        ids = range(len(g._uf))
        g.union(rng.choice(ids), rng.choice(ids))
        g.rebuild()
    return g


class TestQueries:
    def test_table_rows_group_like_classes(self, rng):
        # Unions of random graphs leave hashcons values that are
        # merged-away ids and rows that died in a rebuild; the hashcons
        # values are exactly the live rows, each row's node is the key
        # that maps to it, and grouping those nodes by the row's class
        # gives classes().
        merged_away = dead = 0
        for _ in range(30):
            g = EGraph()
            for _ in range(6):
                g.add_expr(random_expr(rng, rng.randint(1, 10), bits=4,
                                       const_prob=0.3))
            g.rebuild()
            ids = list(range(g.class_count()))
            for _ in range(6):
                for _ in range(rng.randint(1, 3)):
                    g.union(rng.choice(ids), rng.choice(ids))
                g.rebuild()
                nodes = [g._node(row) for row in range(len(g._uf))]
                live = [row for row, n in enumerate(nodes) if n is not None]
                assert sorted(g._hashcons.values()) == live
                assert all(g._hashcons[flat_key(nodes[row])] == row
                           for row in live)
                merged_away += sum(g.find(row) != row for row in live)
                dead += len(nodes) - len(live)
                grouped = {cid: [] for cid in g.class_ids()}
                for row in live:  # ascending, so each list is sorted
                    grouped[g.find(row)].append(nodes[row])
                assert grouped == {
                    cid: sorted(members,
                                key=lambda n: g._hashcons[flat_key(n)])
                    for cid, members in g.classes().items()}
        assert merged_away > 0 and dead > 0

    def test_classes_group_the_hashcons(self, rng):
        # Graphs grown by the shipped rules, then with random unions, so
        # hashcons values are merged-away ids: classes(), read from the
        # table, is the hashcons grouped by ``find``, classes ascending,
        # with node order within a class ignored.
        rules = load_default_rules()
        for _ in range(12):
            g = grown_graph(rng, rules)
            expected = {}
            for cid in sorted({g.find(c) for c in g._hashcons.values()}):
                expected[cid] = []
            for key, cid in g._hashcons.items():
                expected[g.find(cid)].append(key)
            got = g.classes()
            assert list(got) == list(expected)
            assert {c: sorted(map(flat_key, nodes))
                    for c, nodes in got.items()} \
                == {c: sorted(keys) for c, keys in expected.items()}

    def test_live_rows_copy_the_rebuilt_table(self, rng):
        # Grown graphs with random unions hold dead rows and merged-away
        # ids: every row's class is its find, the live rows are those
        # with a label code, in the order (label code, class, first
        # child, second child, row), their cells are the table's, and the
        # table can grow right after the call, so no view of it is left.
        rules = load_default_rules()
        dead = merged_away = 0
        for _ in range(12):
            g = grown_graph(rng, rules)
            classes, live, code, first, second = g._live_rows()
            rows = len(g._uf)
            assert classes.tolist() == [g.find(r) for r in range(rows)]
            assert sorted(live.tolist()) == [r for r in range(rows)
                                             if g._table[3 * r] >= 0]
            cells = [g._table[3 * r:3 * r + 3].tolist() for r in live]
            assert [list(c) for c in zip(code, first, second)] == cells
            order = np.lexsort((live, second, first, classes[live], code))
            assert np.array_equal(order, np.arange(len(live)))
            dead += rows - len(live)
            merged_away += sum(g.find(r) != r for r in live.tolist())
            g.max_nodes = math.inf  # a grown graph may be at its cap
            g.add_expr(parse("fresh_var + 12345"))
            assert len(g._uf) > rows
            g.union(0, len(g._uf) - 1)
            with pytest.raises(ValueError, match="pending merges"):
                g._live_rows()
        assert dead > 0 and merged_away > 0

    def test_classes_refused_while_merges_are_pending(self):
        g, (x, y, _) = graph_of("x", "y", "x + y")
        g.union(x, y)
        for read in (g.classes, g._live_rows):
            with pytest.raises(ValueError, match="pending merges"):
                read()
        g.rebuild()
        assert list(g.classes()) == [x, 2]

    def test_reading_a_rebuilt_graph_writes_nothing(self):
        # Grown corpus graphs, some of whose unions left chains until the
        # final rebuild: every query, match, extraction and audit reads
        # the flat union-find as it is, so the whole state stays as it was.
        rules = load_default_rules()
        cfg = ExpansionConfig(time_limit=60.0)
        for line in CORPUS.read_text().splitlines()[:30]:
            grown = grow(parse(line), rules, cfg)
            g = grown.graph

            def state():
                return (list(g._uf), list(g._hashcons.items()),
                        g._table.tobytes(), list(g._payloads.items()),
                        set(g._merged))

            before = state()
            for cid in range(len(g._uf)):
                g.find(cid)
            g.class_ids()
            g._live_rows()
            g.classes()
            for rule in rules:
                ematch(g, rule)
            extract_max(g, grown.root, cfg.extraction_rounds,
                        cfg.max_output_nodes)
            check_invariants(g)
            assert state() == before, line

    def test_node_count_empty(self):
        assert EGraph().node_count() == 0

    def test_node_count_matches_full_scan(self, rng):
        g = EGraph()
        for _ in range(6):
            g.add_expr(random_expr(rng, rng.randint(1, 10), bits=8))
        g.rebuild()
        distinct = set()
        for nodes in g.classes().values():
            distinct.update(nodes)
        assert g.node_count() == len(distinct)

    def test_dump_golden(self):
        g, _ = graph_of("x + y")
        assert g.dump() == "\n".join([
            "class 0: {var x}",
            "class 1: {var y}",
            "class 2: {(add 0 1)}",
        ])

    def test_dump_deterministic_across_runs(self):
        out = []
        for _ in range(2):
            g, (root, _) = graph_of("x + y", "y * 1")
            g.union(root, g.add_expr(parse("y")))
            g.rebuild()
            out.append(g.dump())
        assert out[0] == out[1]
