import random

import pytest

from mbaobf.egraph import (CapacityExceededError, EGraph, ENode,
                           InvalidIdError, check_invariants)
from mbaobf.expr import parse

from conftest import NaivePartition, random_expr


def graph_of(*texts, bits=64):
    g = EGraph(bits=bits)
    roots = [g.add_expr(parse(t, bits)) for t in texts]
    g.rebuild()
    return g, roots


def reference_rebuild(g):
    """The rebuild as it was before it re-keyed only stale keys: re-key the
    whole hashcons into a fresh dict, each node under its canonical form
    and mapped to its canonical class, until a pass merges nothing."""
    while g._merged:
        g._merged.clear()
        rekeyed = {}
        for node, cid in g._hashcons.items():
            node = g.canonicalize(node)
            cid = g.find(cid)
            prev = rekeyed.setdefault(node, cid)
            if prev != cid:
                rekeyed[node], _ = g.union(prev, cid)
        g._hashcons = rekeyed


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

    def test_rollback_pops_the_newest_insertions(self):
        g, _ = graph_of("x + y")
        before = list(g._hashcons.items()), list(g._uf)
        g.add_expr(parse("(x + y) * z"))  # adds z and the product
        g.rollback(3)
        assert (list(g._hashcons.items()), list(g._uf)) == before
        g.rollback(3)  # nothing newer: a no-op
        assert (list(g._hashcons.items()), list(g._uf)) == before
        assert g.add_expr(parse("z")) == 3  # ids are handed out again


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
        (node,) = g.classes()[g.find(root)]
        g._hashcons[node] = g.find(g.add_expr(parse("x")))
        with pytest.raises(AssertionError, match="are empty"):
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


class TestQueries:
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
