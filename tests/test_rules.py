import dataclasses
import math
import random
import types

import pytest

import mbaobf.expansion
from mbaobf.egraph import (_CODES, CapacityExceededError, EGraph,
                           InvalidIdError)
from mbaobf.expansion import _TIME_CHECK_STRIDE, StopReason, _iterate
from mbaobf.expr import ADD, MAX_DEPTH, MUL, NOT, Const, Op, Var, parse
from mbaobf.rules import (PatVar, Rule, RuleSyntaxError, UnboundRhsVarError,
                          _label_index, apply_match, count_new_nodes, ematch,
                          load_default_rules, parse_rules)

from conftest import CORPUS, graph_of, random_expr


def state_of(g):
    """Everything an application may change: the hashcons in insertion
    order, the union-find, the pending merges and the node table with its
    leaf payloads."""
    return (list(g._hashcons.items()), list(g._uf), set(g._merged),
            table_of(g))


def table_of(g):
    """The node table's rows, flat, and the leaf payloads by row."""
    return list(g._table), sorted(g._payloads.items())


def compress(g):
    """Shorten every union-find path, so that a read-only ``find`` leaves
    ``state_of(g)`` as it was."""
    for cid in range(len(g._uf)):
        g.find(cid)


class TestParseRules:
    def test_directed_rule(self):
        rules = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")
        assert len(rules) == 1
        r = rules[0]
        assert r.name == "addor"
        assert r.program.names == ("a", "b")
        assert r.lhs == Op(parse("x + y").op, (PatVar("a"), PatVar("b")))

    def test_bidirectional_expands_to_two(self):
        rules = parse_rules("mulid : ?y * 1 <=> ?y")
        assert [r.name for r in rules] == ["mulid", "mulid-rev"]
        assert rules[0].rhs == PatVar("y")
        assert rules[1].lhs == PatVar("y")

    def test_unbound_rhs_var(self):
        with pytest.raises(UnboundRhsVarError):
            parse_rules("bad : ?a => ?a + ?b")

    def test_unbound_rhs_var_in_reversed_rule_only(self):
        # the forward rule drops ?b, which is legal; its reversal invents it
        with pytest.raises(UnboundRhsVarError) as exc:
            parse_rules("bad : ?a * (?b & 0) <=> ?a * 0")
        assert exc.value.rule == "bad-rev" and exc.value.var == "b"
        assert "'bad-rev'" in str(exc.value)

    def test_unbound_rhs_var_in_hand_built_rule(self):
        with pytest.raises(UnboundRhsVarError) as exc:
            Rule("r", PatVar("a"), PatVar("b"))
        assert exc.value.rule == "r" and exc.value.var == "b"

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\naddor : ?a + ?b => (?a | ?b) + (?a & ?b)\n"
        assert len(parse_rules(text)) == 1

    def test_syntax_errors_carry_line_numbers(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules("ok : ?a => ?a * 1\nbroken ?a => ?a")
        assert exc.value.line == 2

    def test_missing_arrow(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("r : ?a = ?a")

    @pytest.mark.parametrize("name", ["é", "ｘ", "r²", "2x", "-r", "a.b",
                                      "a b", ""])
    def test_name_outside_the_grammar_rejected(self, name):
        with pytest.raises(RuleSyntaxError, match="bad rule name"):
            parse_rules(f"{name} : ?a => ?a + 0")

    def test_name_may_hold_hyphens_after_its_first_character(self):
        (r,) = parse_rules("_add-zero-2 : ?a => ?a + 0")
        assert r.name == "_add-zero-2"

    def test_duplicate_names_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("r : ?a => ?a * 1\nr : ?a => ?a + 0")

    def test_constant_leaves_allowed(self):
        (r,) = parse_rules("negsub : 0 - ?a => (~?a) + 1")
        assert r.lhs.args[0] == Const(0)

    def test_hand_built_rule_is_compiled(self):
        add = parse("x + y").op
        rhs = Op(add, (Op(add, (PatVar("a"), Const(1))), PatVar("a")))
        rule = Rule("r", PatVar("a"), rhs)
        twin = Rule("r", PatVar("a"), rhs)
        assert rule == twin and hash(rule) == hash(twin)
        assert rule == parse_rules("r : ?a => (?a + 1) + ?a")[0]
        g, _ = graph_of("x")
        (m,) = ematch(g, rule)
        assert count_new_nodes(g, rule, m) == 3
        assert apply_match(g, rule, [m]) and g.node_count() == 4

    def test_default_ruleset_ships_fourteen(self):
        rules = load_default_rules()
        assert len(rules) == 14
        assert len({r.name for r in rules}) == 14


# ---------------------------------------------------------------------------
# E-matching
# ---------------------------------------------------------------------------


def pat(text: str) -> Rule:
    """An ad-hoc pattern as the rule ``p : text => text``."""
    (rule,) = parse_rules(f"p : {text} => {text}")
    return rule


def subst_of(rule: Rule, m) -> dict:
    """A match's bindings keyed by pattern variable name."""
    return dict(zip(rule.program.names, m[1:]))


def embeds(g, members, p, cid, subst) -> bool:
    """Containment check used by the brute-force oracle: can ``p`` be
    instantiated inside class ``cid`` under the full substitution?
    ``members`` is ``g.classes()``."""
    cid = g.find(cid)
    if isinstance(p, PatVar):
        return g.find(subst[p.name]) == cid
    for n in members[cid]:
        if isinstance(p, Const):
            if n.label == "const" and n.payload == p.value & ((1 << g.bits) - 1):
                return True
        elif isinstance(p, Var):
            if n.label == "var" and n.payload == p.name:
                return True
        elif n.label == p.op.name and all(
                embeds(g, members, a, c, subst)
                for a, c in zip(p.args, n.children)):
            return True
    return False


def brute_force_matches(g, rule):
    """Enumerate every (root, subst) of ``rule``'s left-hand side by trying
    all class assignments."""
    p, names = rule.lhs, rule.program.names
    members = g.classes()
    classes = list(members)
    out = set()

    def assignments(i, subst):
        if i == len(names):
            yield dict(subst)
            return
        for c in classes:
            subst[names[i]] = c
            yield from assignments(i + 1, subst)

    for root in classes:
        for subst in assignments(0, {}):
            if embeds(g, members, p, root, subst):
                out.add((root, tuple(sorted(subst.items()))))
    return out


class TestEmatch:
    def test_single_match_with_bindings(self):
        g, (root,) = graph_of("x + y")
        x, y = g.add_expr(parse("x")), g.add_expr(parse("y"))
        rule = pat("?a + ?b")
        matches = ematch(g, rule)
        assert len(matches) == 1
        m = matches[0]
        assert m[0] == root
        assert subst_of(rule, m) == {"a": x, "b": y}

    def test_nonlinear_pattern_requires_same_class(self):
        g, _ = graph_of("x + y")
        assert ematch(g, pat("?a + ?a")) == []
        g2, (root,) = graph_of("x + x")
        matches = ematch(g2, pat("?a + ?a"))
        assert [m[0] for m in matches] == [root]

    def test_constant_leaf_matches_equal_value_only(self):
        g, (root,) = graph_of("y * 1")
        assert [m[0] for m in ematch(g, pat("?y * 1"))] == [root]
        assert ematch(g, pat("?y * 2")) == []

    def test_constant_leaf_respects_width(self):
        g, (root,) = graph_of("y * 1", bits=8)
        # 257 reduces to 1 at 8 bits, so the pattern still matches
        assert [m[0] for m in ematch(g, pat("?y * 257"))] == [root]

    def test_concrete_var_leaf(self):
        g, (root,) = graph_of("x + y")
        matches = ematch(g, pat("x + ?b"))
        assert len(matches) == 1 and matches[0][0] == root
        assert ematch(g, pat("z + ?b")) == []

    def test_bare_patvar_matches_every_class(self):
        g, _ = graph_of("x + y")
        assert len(ematch(g, pat("?a"))) == g.class_count()

    def test_deterministic_order(self):
        g, _ = graph_of("(x + y) + (z + w)")
        rule = pat("?a + ?b")
        a = ematch(g, rule)
        b = ematch(g, rule)
        assert a == b
        roots = [m[0] for m in a]
        assert roots == sorted(roots)

    def test_leaf_classes_read_from_the_index(self):
        # r1 merges x's class 1 into y's class 0; r2, matched against the
        # index taken before, must still find x in class 1, not in the
        # live graph's class 0
        r1, r2 = parse_rules("r1 : y => x\nr2 : x * ?b => ?b * x")
        g, _ = graph_of("y", "x * z")
        index = _label_index(g)
        for m in ematch(g, r1, index):
            apply_match(g, r1, [m])
        assert g.find(1) == 0
        assert ematch(g, r2, index) == [(3, 2)]

    def test_leaf_added_after_the_index_matches_nowhere(self):
        # x * 7 joins the graph after the index was taken, so its 7 has
        # no row in the index, and neither has the product
        g, _ = graph_of("x * y")
        index = _label_index(g)
        g.add_expr(parse("x * 7"))
        assert ematch(g, pat("?a * 7"), index) == []
        assert ematch(g, pat("?a * 7")) == [(4, 0)]

    def test_graph_with_merges_pending_refused(self):
        # y's class merged into the class of 0, which `0 - x` holds as a
        # leaf: matching it before a rebuild once raised KeyError
        (rule,) = [r for r in load_default_rules()
                   if r.name == "negsub-to-not"]
        g, (y, _) = graph_of("y", "0 - x")
        g.union(y, g.add_expr(Const(0)))
        with pytest.raises(ValueError, match="pending merges"):
            ematch(g, rule)
        g.rebuild()
        assert ematch(g, rule) == [(3, 2)]

    def test_completeness_against_brute_force(self, rng):
        # ematch's contract: every embedding once, ordered by root id, then
        # by the bindings sorted by variable name
        patterns = [pat(t) for t in ("?a + ?b", "?a + ?a", "~?a",
                                     "(?a + ?b) * ?c", "?a * 1",
                                     "(?a | ?b) + (?a & ?b)", "?a", "0 - ?a")]
        for _ in range(15):
            g = EGraph(bits=8)
            roots = [g.add_expr(parse("0 - x", 8))]
            for _ in range(5):
                roots.append(g.add_expr(
                    random_expr(rng, rng.randint(1, 9), bits=8, const_prob=0.3)))
            g.rebuild()
            for _ in range(3):
                g.union(rng.choice(roots), rng.choice(roots))
            g.rebuild()
            if g.node_count() > 50:
                continue
            for p in patterns:
                got = [(m[0], tuple(sorted(subst_of(p, m).items())))
                       for m in ematch(g, p)]
                assert got == sorted(brute_force_matches(g, p))


# ---------------------------------------------------------------------------
# The join plans against the interpreter that preceded them
# ---------------------------------------------------------------------------

# Instructions ``(kind, register, argument)``.  Register 0 holds the class
# being matched; a BIND fills one register per child.
BIND = 0  # argument (code, slice): each node with label code in the class
SAME = 1  # argument: another register; a repeated pattern variable
LEAF = 2  # argument: index into leaves; the class of a concrete leaf


def compile_instructions(p):
    """A left side as de Moura and Bjørner's bind/compare instructions:
    ``(ops, leaves, var_regs, n_regs, root_code)``, breadth-first, so each
    node's tests come right after the BIND of its parent."""
    ops, leaves, first = [], [], {}
    todo = [(p, 0)]
    n_regs = 1
    for q, reg in todo:
        if isinstance(q, PatVar):
            if q.name in first:
                ops.append((SAME, reg, first[q.name]))
            else:
                first[q.name] = reg
        elif isinstance(q, Op):
            children = range(n_regs, n_regs + len(q.args))
            ops.append((BIND, reg, (_CODES[q.op.name],
                                    slice(children.start, children.stop))))
            todo.extend(zip(q.args, children))
            n_regs = children.stop
        else:
            ops.append((LEAF, reg, len(leaves)))
            leaves.append(q)
    var_regs = tuple(first[n] for n in sorted(first))
    return (tuple(ops), tuple(leaves), var_regs, n_regs,
            _CODES[p.op.name] if isinstance(p, Op) else None)


def run(ops, pc, regs, classes, leaf_ids, var_regs, out):
    """Execute ``ops[pc:]``, appending one binding tuple per embedding."""
    for pc in range(pc, len(ops)):
        kind, reg, arg = ops[pc]
        if kind == BIND:
            code, children = arg
            arity = children.stop - children.start
            for key in classes[regs[reg]].get(code, ()):
                regs[children] = key[1:1 + arity]
                run(ops, pc + 1, regs, classes, leaf_ids, var_regs, out)
            return
        if regs[reg] != (regs[arg] if kind == SAME else leaf_ids[arg]):
            return
    out.append(tuple([regs[r] for r in var_regs]))


def reference_ematch(g, rule):
    """Matching as it was before the generated matchers that join plans
    later replaced: the instructions interpreted one node at a time over
    the hashcons grouped by class and label code, each root's bindings
    deduplicated and sorted, each match a flat row ``(root, *bindings)``.
    A concrete leaf is compared by class id, read from a leaf -> class
    map of the same index.  It walks ``g._hashcons`` itself, so it shares
    no read code with the engine."""
    index: dict = {}
    for key, cid in g._hashcons.items():
        index.setdefault(g.find(cid), {}).setdefault(key[0], []).append(key)
    index = dict(sorted(index.items()))
    ops, leaves, var_regs, n_regs, root_code = compile_instructions(rule.lhs)
    leaf_class = {n: cid for cid, by_label in index.items()
                  for nodes in by_label.values() for n in nodes
                  if len(n) == 2}
    leaf_ids = [leaf_class.get(g.leaf_key(leaf)) for leaf in leaves]
    if None in leaf_ids:
        return []
    regs = [0] * n_regs
    out = []
    for cid, by_label in index.items():
        if root_code is not None and root_code not in by_label:
            continue
        regs[0] = cid
        found = []
        run(ops, 0, regs, index, leaf_ids, var_regs, found)
        if len(found) > 1:
            found = sorted(set(found))
        out += [(cid, *bindings) for bindings in found]
    return out


def chain(n, inner):
    """``inner`` under ``n`` unary ``~``."""
    for _ in range(n):
        inner = Op(NOT, (inner,))
    return inner


def deep_lhs():
    """A ``MAX_DEPTH``-deep left side, alternately ``~`` and ``+ i``, over
    ``?a``, repeated at the top: ``?a`` and a constant are tested by the
    innermost joins."""
    q = PatVar("a")
    for i in range(MAX_DEPTH - 1):
        q = Op(ADD, (q, Const(i % 3))) if i % 2 else Op(NOT, (q,))
    return Op(MUL, (PatVar("a"), q))


def instantiate(p, leaf):
    """``p`` with every pattern variable replaced by ``leaf``."""
    if isinstance(p, PatVar):
        return leaf
    if isinstance(p, Op):
        return Op(p.op, tuple(instantiate(a, leaf) for a in p.args))
    return p


# 60-operator chains whose repeated ?a and constant, or concrete variable,
# are tested 59 joins below the root.
CHAIN_LHS = Op(MUL, (PatVar("a"), chain(58, Op(ADD, (PatVar("a"),
                                                     Const(1))))))
CHAIN_VAR_LHS = Op(MUL, (PatVar("a"), chain(58, Op(ADD, (PatVar("a"),
                                                         Var("x"))))))
# 12345 is 9 at 4 bits and 57 at 8, which a random graph may hold; at 64
# bits no graph holds it, so the plan finds no row for the leaf.
ABSENT_LEAF = pat("?a * 12345")
# ?b + ?a and (?b & ?a) - ?b bind against the rows' column order, so their
# plans sort the matches.
MATCHER_RULES = load_default_rules() + [
    pat(t) for t in ("?a", "?a + ?a", "x", "3", "0 - ?a", "(?a + 1) * y",
                     "(?a + ?b) * ?a", "?b + ?a", "(?b & ?a) - ?b")] + [
    ABSENT_LEAF,
    Rule("chain-var", CHAIN_VAR_LHS, PatVar("a")),
    Rule("chain", CHAIN_LHS, PatVar("a")),
    Rule("deep", deep_lhs(), PatVar("a"))]


def matcher_graphs(rng, bits, grown):
    """Random graphs that also hold each of ``MATCHER_RULES``' left sides
    over ``x``, but ``ABSENT_LEAF``'s; ``grown`` unions x with ``~~x`` and
    ``x + 1``'s class with ``x``'s, so that the long left sides match
    along cycles, then applies ~30% of the default rules' matches."""
    x = Var("x")
    for _ in range(3):
        g = EGraph(bits=bits)
        roots = [g.add_expr(random_expr(rng, rng.randint(2, 9), bits=bits,
                                        const_prob=0.3)) for _ in range(3)]
        roots += [g.add_expr(instantiate(rule.lhs, x))
                  for rule in MATCHER_RULES if rule is not ABSENT_LEAF]
        g.rebuild()
        if grown:
            g.union(g.add_expr(x), g.add_expr(chain(2, x)))
            g.union(g.add_expr(parse("x + 1", bits)), g.add_expr(x))
            g.union(rng.choice(roots), rng.choice(roots))
            g.rebuild()
            index = _label_index(g)
            for rule in load_default_rules():
                for m in ematch(g, rule, index):
                    if rng.random() < 0.3:
                        apply_match(g, rule, [m])
            g.rebuild()
        yield g


class TestMatchPlan:
    """Each rule's join plan against ``reference_ematch``: the same
    matches in the same order."""

    @pytest.mark.parametrize("bits", [4, 8, 64])
    @pytest.mark.parametrize("grown", [False, True])
    def test_matches_the_reference(self, rng, bits, grown):
        unmatched = set(range(len(MATCHER_RULES)))
        for g in matcher_graphs(rng, bits, grown):
            index = _label_index(g)
            for i, rule in enumerate(MATCHER_RULES):
                got = ematch(g, rule, index)
                assert got == reference_ematch(g, rule), rule.lhs
                if got:
                    unmatched.discard(i)
        absent = MATCHER_RULES.index(ABSENT_LEAF)
        if bits == 64:
            assert absent in unmatched
        unmatched.discard(absent)
        assert not unmatched, [MATCHER_RULES[i].lhs for i in unmatched]

    def test_match_lists_strictly_increase_on_grown_corpus_graphs(self):
        # a plan never deduplicates: on a rebuilt graph each embedding is
        # fixed by its root and bindings, so no two are listed alike
        rules = load_default_rules()
        for line in CORPUS.read_text().splitlines()[:4]:
            g, _ = graph_of(line)
            for _ in range(4):
                index = _label_index(g)
                for rule in MATCHER_RULES:
                    got = ematch(g, rule, index)
                    assert all(a < b for a, b in zip(got, got[1:])), rule.lhs
                _iterate(g, rules, math.inf)
                g.rebuild()

    def test_long_left_sides_match(self):
        # 60 and MAX_DEPTH operators: 59 and MAX_DEPTH - 1 joins
        g = EGraph()
        x = Var("x")
        roots = [g.add_expr(instantiate(p, x))
                 for p in (CHAIN_LHS, deep_lhs())]
        g.rebuild()
        xc = g.add_expr(x)
        for rule, root in zip(MATCHER_RULES[-2:], roots):
            assert ematch(g, rule) == [(root, xc)]

    def test_chain_constant_tested_where_it_sits(self):
        # CHAIN_LHS's 1 is tested by the last join: a graph with no 1, or with
        # 1 in a class other than the one bound there, holds no match
        chain_rule = MATCHER_RULES[-2]
        x = Var("x")
        g = EGraph()
        root = g.add_expr(Op(MUL, (x, chain(58, Op(ADD, (x, Const(2)))))))
        g.rebuild()
        assert ematch(g, chain_rule) == []
        one = g.add_expr(Const(1))
        g.rebuild()
        assert ematch(g, chain_rule) == []
        g.union(one, g.add_expr(Const(2)))
        g.rebuild()
        assert ematch(g, chain_rule) == [(g.find(root), g.add_expr(x))]


class TestApplyMatch:
    def test_addor_adds_second_representation(self):
        (rule,) = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")
        g, (root,) = graph_of("x + y")
        (m,) = ematch(g, rule)
        assert apply_match(g, rule, [m]) is True
        g.rebuild()
        labels = sorted(n.label for n in g.classes()[g.find(root)])
        assert labels == ["add", "add"]
        assert g.node_count() == 6  # x, y, add, or, and, new add

    def test_mul_identity_merges_classes(self):
        (rule,) = parse_rules("mulid : ?y * 1 => ?y")
        g, (root,) = graph_of("y * 1")
        y = g.add_expr(parse("y"))
        (m,) = ematch(g, rule)
        apply_match(g, rule, [m])
        g.rebuild()
        assert g.find(root) == g.find(y)

    def test_reapplying_is_noop(self):
        (rule,) = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")
        g, _ = graph_of("x + y")
        (m,) = ematch(g, rule)
        assert apply_match(g, rule, [m]) is True
        g.rebuild()
        assert apply_match(g, rule, [m]) is False

    def test_count_new_nodes_bounds_reality(self, rng):
        # the trial run adds what the application adds, then rolls it back
        # (test_application_refused_by_the_cap_leaves_no_trace checks a
        # right side that repeats a new subterm)
        rules = load_default_rules()
        for trial in range(18):
            g = EGraph(bits=8)
            g.add_expr(random_expr(rng, rng.randint(3, 9), bits=8,
                                   const_prob=0.3 if trial >= 10 else 0.2))
            g.rebuild()
            if trial >= 10:
                # a partly grown graph, so that counts fall between 0 and
                # the right side's size
                index = _label_index(g)
                for rule in rules:
                    for m in ematch(g, rule, index):
                        if rng.random() < 0.3:
                            apply_match(g, rule, [m])
                g.rebuild()
            for rule in rules:
                for m in ematch(g, rule):
                    compress(g)  # so that only a change shows below
                    before = state_of(g)
                    predicted = count_new_nodes(g, rule, m)
                    assert state_of(g) == before
                    apply_match(g, rule, [m])
                    assert g.node_count() - len(before[0]) == predicted
                g.rebuild()

    def test_bool_ids_rejected_before_any_change(self):
        # True and False are ints to isinstance, but no class ids
        rule = load_default_rules()[0]
        g, _ = graph_of("x + y")
        root, a, b = ematch(g, rule)[0]
        snapshot = state_of(g)
        for m in ((True, a, b), (root, False, True)):
            with pytest.raises(InvalidIdError):
                apply_match(g, rule, [m])
            assert state_of(g) == snapshot
        with pytest.raises(InvalidIdError):  # refused as apply_match does
            count_new_nodes(g, rule, (root, a, True))
        assert state_of(g) == snapshot

    def test_application_refused_by_the_cap_leaves_no_trace(self):
        # mul-split-masks adds 8 nodes to `x * x`, whose ~x it builds twice;
        # room for 0 to 7 refuses it after 0 to 7 of them.  Once y is x,
        # y * y is x * x and its row is dead, so ids outnumber nodes and a
        # refusal must be rolled back by id, not by node count.
        (rule,) = [r for r in load_default_rules()
                   if r.name == "mul-split-masks"]
        for dead in (0, 1):
            for room in range(9):
                g = EGraph()
                g.add_expr(parse("x * x"))
                if dead:
                    g.add_expr(parse("y * y"))
                    g.union(g.add_expr(parse("x")), g.add_expr(parse("y")))
                g.rebuild()
                nodes = g.node_count()
                assert len(g._uf) == nodes + dead
                g.max_nodes = nodes + room
                (m,) = ematch(g, rule)
                before = state_of(g)
                if room < 8:
                    with pytest.raises(CapacityExceededError):
                        count_new_nodes(g, rule, m)
                    assert state_of(g) == before
                    with pytest.raises(CapacityExceededError):
                        apply_match(g, rule, [m])
                    assert state_of(g) == before
                else:
                    assert count_new_nodes(g, rule, m) == 8
                    assert state_of(g) == before
                    assert apply_match(g, rule, [m])
                    assert g.node_count() == nodes + 8


# ---------------------------------------------------------------------------
# The generated application against the step walk it replaced
# ---------------------------------------------------------------------------


def reference_apply(g, rule, m):
    """Application as it was before each rule generated its own: a
    post-order step list of the right side, walked with a stack, each node
    added with ``add_canonical``, then a validated union."""
    slots = {name: i for i, name in enumerate(rule.program.names)}
    steps = []

    def post_order(q):
        if isinstance(q, PatVar):
            steps.append(("var", slots[q.name]))
        elif isinstance(q, Op):
            for a in q.args:
                post_order(a)
            steps.append(("op", (q.op.name, len(q.args))))
        else:
            steps.append(("leaf", q))

    post_order(rule.rhs)
    before = len(g._uf)
    stack = []
    try:
        for kind, arg in steps:
            if kind == "var":
                stack.append(g.find(m[1 + arg]))
            elif kind == "leaf":
                stack.append(g.add_canonical(g.leaf_key(arg)))
            else:
                label, arity = arg
                children = stack[-arity:]
                del stack[-arity:]
                stack.append(g.add_canonical(
                    (_CODES[label], *children, -1)[:3]))
    except CapacityExceededError:
        g.rollback(before)
        raise
    _, merged = g.union(g.find(m[0]), stack[0])
    return merged or len(g._uf) != before


def assert_twins(g, ref):
    """The hashcons (keys, their types, values and insertion order), the
    union-find, the pending merges and the node table are equal."""
    assert list(g._hashcons.items()) == list(ref._hashcons.items())
    assert ([type(k) for k in g._hashcons]
            == [type(k) for k in ref._hashcons])
    assert g._uf == ref._uf
    assert g._merged == ref._merged
    assert table_of(g) == table_of(ref)


def assert_refusals_leave_no_trace(make, rule):
    """For the first two matches of ``rule`` on a fresh ``make()``, at
    every cap from no room to room for the whole right side: a trial run
    or an application the cap refuses leaves the graph as it was, and
    one with room does what :func:`reference_apply` does."""
    matches = ematch(make(), rule)
    assert matches
    for m in matches[:2]:
        ref = make()
        before = ref.node_count()
        changed = reference_apply(ref, rule, m)
        added = ref.node_count() - before
        for room in range(rhs_nodes(rule.rhs) + 1):
            g = make()
            g.max_nodes = g.node_count() + room
            compress(g)
            snapshot = state_of(g)
            if room < added:
                with pytest.raises(CapacityExceededError):
                    count_new_nodes(g, rule, m)
                assert state_of(g) == snapshot
                with pytest.raises(CapacityExceededError):
                    apply_match(g, rule, [m])
                assert state_of(g) == snapshot
            else:
                assert count_new_nodes(g, rule, m) == added
                assert state_of(g) == snapshot
                assert apply_match(g, rule, [m]) is changed
                assert_twins(g, ref)


def rhs_nodes(p) -> int:
    """Nodes of a right side, variables not counted."""
    if isinstance(p, PatVar):
        return 0
    if isinstance(p, Op):
        return 1 + sum(rhs_nodes(a) for a in p.args)
    return 1


def deep_rhs():
    """``?a`` under ``MAX_DEPTH`` operators, alternately ``~`` and ``+ i``
    with constants that pass 4 and 8 bits."""
    q = PatVar("a")
    for i in range(MAX_DEPTH):
        q = Op(ADD, (q, Const(i * 37))) if i % 2 else Op(NOT, (q,))
    return q


HOSTILE = "') or __import__('os') or ('"
EDGE_RULES = parse_rules("""
bare-var : ?a + ?b => ?b
swapped-vars : ?b - ?a => (0 - ?a) + ?b
leaf-only : ?a - ?a => 0
unary-chain : ?a => ~(-(~(-?a)))
repeated-var : ?a + ?a => (?a * ?a) + (?a & (~?a))
var-leaf : x + ?b => (?b + x) - (y ^ x)
wide-const : ?a => ?a + 255
wider-than-64-bits : ?a => ?a + 18446744073709551617
""") + [Rule("deep", PatVar("a"), deep_rhs()),
        Rule("hostile-var", PatVar("a"), Op(ADD, (PatVar("a"), Var(HOSTILE))))]


def twin_graphs(rng, bits, grown):
    """Two equal graphs from the same random expressions; ``grown`` unions
    some classes and applies ~30% of the default rules' matches first, to
    both through the reference."""
    seed = rng.random()
    twins = []
    for _ in range(2):
        r = random.Random(seed)
        g = EGraph(bits=bits)
        roots = [g.add_expr(random_expr(r, r.randint(2, 8), bits=bits,
                                        const_prob=0.3)) for _ in range(3)]
        roots.append(g.add_expr(parse("(x + x) - (x - x)", bits)))
        g.rebuild()
        if grown:
            g.union(r.choice(roots), r.choice(roots))
            g.rebuild()
            index = _label_index(g)
            for rule in load_default_rules():
                for m in ematch(g, rule, index):
                    if r.random() < 0.3:
                        reference_apply(g, rule, m)
            g.rebuild()
        twins.append(g)
    return twins


class TestGeneratedApplication:
    """Each rule's generated application against ``reference_apply``."""

    def check_all_matches(self, g, ref, rules):
        # every match of every rule, each against the index taken when the
        # iteration began, as ``expand`` applies them; a trial run first
        index = _label_index(g)
        ref_index = _label_index(ref)
        for rule in rules:
            matches = ematch(g, rule, index)
            assert matches == ematch(ref, rule, ref_index)
            for m in matches:
                before = ref.node_count()
                added = count_new_nodes(g, rule, m)
                changed = reference_apply(ref, rule, m)
                assert added == ref.node_count() - before
                assert apply_match(g, rule, [m]) is changed
                assert_twins(g, ref)
        g.rebuild()
        ref.rebuild()
        assert_twins(g, ref)

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("grown", [False, True])
    def test_default_rules_match_the_reference(self, rng, bits, grown):
        for _ in range(4):
            g, ref = twin_graphs(rng, bits, grown)
            self.check_all_matches(g, ref, load_default_rules())

    @pytest.mark.parametrize("bits", [4, 8, 64])
    @pytest.mark.parametrize("grown", [False, True])
    def test_edge_rules_match_the_reference(self, rng, bits, grown):
        for _ in range(2):
            g, ref = twin_graphs(rng, bits, grown)
            self.check_all_matches(g, ref, EDGE_RULES)

    def test_constant_masked_to_the_width(self):
        (rule,) = [r for r in EDGE_RULES if r.name == "wide-const"]
        g, (root,) = graph_of("x + 15", bits=4)
        (m,) = [m for m in ematch(g, rule) if m[0] == root]
        assert count_new_nodes(g, rule, m) == 1  # only the new add: 255 is 15
        assert apply_match(g, rule, [m])
        assert g.node_count() == 4

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("fake", [
        dataclasses.replace(ADD, name="') or ('"),
        # compares equal to ADD, since an operator's fn is not compared
        dataclasses.replace(ADD, fn=lambda a, b, m: (a - b) & m),
    ], ids=["unknown-name", "other-fn"])
    def test_operator_outside_the_table_rejected(self, fake, side):
        a, b = PatVar("a"), PatVar("b")
        bad = Op(fake, (a, b))
        lhs, rhs = (bad, a) if side == "lhs" else (Op(ADD, (a, b)), bad)
        with pytest.raises(ValueError, match="operator table"):
            Rule("r", lhs, rhs)

    def test_hostile_var_name_is_data(self):
        (rule,) = [r for r in EDGE_RULES if r.name == "hostile-var"]
        g, _ = graph_of("y")
        (m,) = ematch(g, rule)
        assert apply_match(g, rule, [m])
        assert (_CODES["var"], HOSTILE) in g._hashcons

    @pytest.mark.parametrize("rule", load_default_rules() + EDGE_RULES,
                             ids=lambda r: r.name)
    def test_refused_at_every_cap_leaves_no_trace(self, rule):
        # from no room at all to room for the whole right side; a trial
        # run or an application the cap refuses changes nothing
        def make():
            g, _ = graph_of("(x + x) - (x - x)",
                            "((y | 3) * ~y) ^ (y & (0 - x))", bits=8)
            # x with y, so that bindings need a find
            g.union(g.add_expr(parse("x")), g.add_expr(parse("y")))
            g.rebuild()
            return g

        assert_refusals_leave_no_trace(make, rule)

    @pytest.mark.parametrize("rule", load_default_rules() + EDGE_RULES,
                             ids=lambda r: r.name)
    def test_refused_after_a_row_died_leaves_no_trace(self, rule):
        # x with y makes x - x and y - y one node, and then (x - x) * 3
        # and (y - y) * 3: two rows die, so ids outnumber nodes, and a
        # refused right side must be rolled back by id, not by node count
        def make():
            g, _ = graph_of("(x + x) - (x - x)",
                            "((y | 3) * ~y) ^ (y & (0 - x))",
                            "(x - x) * 3", "(y - y) * 3", bits=8)
            g.union(g.add_expr(parse("x")), g.add_expr(parse("y")))
            g.rebuild()
            assert len(g._uf) == g.node_count() + 2
            return g

        assert_refusals_leave_no_trace(make, rule)


    @pytest.mark.parametrize("bad", [-1, 99, "1", None, 1.0])
    def test_invalid_ids_rejected_before_any_change(self, bad):
        rule = load_default_rules()[0]
        g, _ = graph_of("x + y")
        root, a, b = ematch(g, rule)[0]
        snapshot = state_of(g)
        for m in ((bad, a, b), (root, a, bad)):
            with pytest.raises(InvalidIdError):
                apply_match(g, rule, [m])
            assert state_of(g) == snapshot
        with pytest.raises(InvalidIdError):
            count_new_nodes(g, rule, (root, bad, b))
        assert state_of(g) == snapshot


# ---------------------------------------------------------------------------
# A rule's matches applied in one call
# ---------------------------------------------------------------------------


def reference_batch(g, rule, matches):
    """Each match applied on its own by ``reference_apply``, in order, as
    far as the cap allows: ``(changed, kept)``, ``kept`` the number of
    matches applied before the cap refused one, which ends the batch."""
    changed = False
    for kept, m in enumerate(matches):
        try:
            changed |= reference_apply(g, rule, m)
        except CapacityExceededError:
            return changed, kept
    return changed, len(matches)


class TestBatchApplication:
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("grown", [False, True])
    def test_batch_leaves_the_graph_per_match_application_leaves(
            self, rng, bits, grown):
        # every rule's matches against the index taken when the iteration
        # began, in one call each, as ``expand`` applies them
        for _ in range(4):
            g, ref = twin_graphs(rng, bits, grown)
            index = _label_index(g)
            for rule in load_default_rules():
                matches = ematch(g, rule, index)
                assert apply_match(g, rule, matches) \
                    == reference_batch(ref, rule, matches)[0]
                assert_twins(g, ref)
            g.rebuild()
            ref.rebuild()
            assert_twins(g, ref)

    def test_cap_keeps_the_prefix_and_rolls_back_the_refused_match(self):
        # add-split-xor adds 4 or 5 nodes to each sum; at every cap the
        # batch stops where the per-match loop is refused
        (rule,) = [r for r in load_default_rules()
                   if r.name == "add-split-xor"]
        texts = ("x + y", "x + z", "y + z", "(x + y) + z")

        def make(cap):
            g, _ = graph_of(*texts, bits=8)
            g.max_nodes = cap
            return g

        matches = ematch(make(None), rule)
        assert len(matches) == 4
        fresh = make(None).node_count()
        cuts = set()  # (matches kept, nodes the refused one had added)
        for cap in range(fresh, fresh + 5 * len(matches) + 2):
            g, ref = make(cap), make(cap)
            changed, kept = reference_batch(ref, rule, matches)
            if kept < len(matches):
                with pytest.raises(CapacityExceededError):
                    apply_match(g, rule, matches)
                cuts.add((kept, cap - ref.node_count()))
            else:
                assert apply_match(g, rule, matches) is changed
            assert_twins(g, ref)
        # refusals after 0 to 3 kept matches, some partway into the right
        # side, whose nodes were then rolled back
        assert {kept for kept, _ in cuts} == {0, 1, 2, 3}
        assert {partial for _, partial in cuts} == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("bad", [True, False, -1, 99])
    def test_invalid_id_in_a_later_match_adds_nothing(self, bad):
        rule = load_default_rules()[0]  # add-split-or
        texts = ("x + y", "x + z", "y + z", "(x + y) + z")
        matches = ematch(graph_of(*texts)[0], rule)
        assert len(matches) == 4
        for k in range(len(matches)):
            root, a, b = matches[k]
            for m in ((bad, a, b), (root, a, bad), (root, bad, b)):
                (g, _), (ref, _) = graph_of(*texts), graph_of(*texts)
                reference_batch(ref, rule, matches[:k])
                with pytest.raises(InvalidIdError):
                    apply_match(g, rule, matches[:k] + [m] + matches[k + 1:])
                assert_twins(g, ref)

    def test_iterate_reads_the_clock_between_slices(self, monkeypatch):
        # mul-one matches every class.  On a fake clock the limit passes
        # right after the read before the rule is matched: the first
        # _TIME_CHECK_STRIDE matches are applied, and the read before the
        # next slice stops the iteration, so a smaller batch runs to its end
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) == 1 else 2.0

        monkeypatch.setattr(mbaobf.expansion, "time",
                            types.SimpleNamespace(monotonic=monotonic))
        (rule,) = [r for r in load_default_rules() if r.name == "mul-one"]
        for n in (_TIME_CHECK_STRIDE, _TIME_CHECK_STRIDE + 10):
            texts = [f"v{i}" for i in range(n)]
            (g, _), (ref, _) = graph_of(*texts), graph_of(*texts)
            matches = ematch(ref, rule)
            assert len(matches) == n
            reference_batch(ref, rule, matches[:_TIME_CHECK_STRIDE])
            reads.clear()
            stop = StopReason.TIME_LIMIT if n > _TIME_CHECK_STRIDE else None
            assert _iterate(g, [rule], 1.0) == (stop, True)
            assert len(reads) == 1 + (stop is not None)
            assert_twins(g, ref)
