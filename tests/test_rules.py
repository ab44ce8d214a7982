import random

import pytest

from mbaobf.egraph import CapacityExceededError, EGraph
from mbaobf.expr import Const, Op, Var, parse
from mbaobf.rules import (PatVar, Rule, RuleSyntaxError, UnboundRhsVarError,
                          _label_index, apply_match, count_new_nodes, ematch,
                          load_default_rules, parse_rules)

from conftest import random_expr


def graph_of(*texts, bits=64):
    g = EGraph(bits=bits)
    roots = [g.add_expr(parse(t, bits)) for t in texts]
    g.rebuild()
    return g, roots


def state_of(g):
    """Everything an application may change: the hashcons in insertion
    order, the union-find and the classes."""
    return list(g._hashcons.items()), list(g._uf), g.classes()


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
        assert apply_match(g, rule, m) and g.node_count() == 4

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
    return dict(zip(rule.program.names, m[1]))


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
            apply_match(g, r1, m)
        assert g.find(1) == 0
        assert ematch(g, r2, index) == [(3, (2,))]

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


class TestApplyMatch:
    def test_addor_adds_second_representation(self):
        (rule,) = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")
        g, (root,) = graph_of("x + y")
        (m,) = ematch(g, rule)
        assert apply_match(g, rule, m) is True
        g.rebuild()
        labels = sorted(n.label for n in g.classes()[g.find(root)])
        assert labels == ["add", "add"]
        assert g.node_count() == 6  # x, y, add, or, and, new add

    def test_mul_identity_merges_classes(self):
        (rule,) = parse_rules("mulid : ?y * 1 => ?y")
        g, (root,) = graph_of("y * 1")
        y = g.add_expr(parse("y"))
        (m,) = ematch(g, rule)
        apply_match(g, rule, m)
        g.rebuild()
        assert g.find(root) == g.find(y)

    def test_reapplying_is_noop(self):
        (rule,) = parse_rules("addor : ?a + ?b => (?a | ?b) + (?a & ?b)")
        g, _ = graph_of("x + y")
        (m,) = ematch(g, rule)
        assert apply_match(g, rule, m) is True
        g.rebuild()
        assert apply_match(g, rule, m) is False

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
                for rule in rules:
                    for m in ematch(g, rule):
                        if rng.random() < 0.3:
                            apply_match(g, rule, m)
                g.rebuild()
            for rule in rules:
                for m in ematch(g, rule):
                    for cid in range(len(g._uf)):
                        g.find(cid)  # so that only a change shows below
                    before = state_of(g)
                    predicted = count_new_nodes(g, rule, m)
                    assert state_of(g) == before
                    apply_match(g, rule, m)
                    assert g.node_count() - len(before[0]) == predicted
                g.rebuild()

    def test_application_refused_by_the_cap_leaves_no_trace(self):
        # mul-split-masks adds 8 nodes to `x * x`, whose ~x it builds twice;
        # caps of 2 to 9 refuse it after 0 to 7 of them
        (rule,) = [r for r in load_default_rules()
                   if r.name == "mul-split-masks"]
        for cap in range(2, 11):
            g = EGraph(max_nodes=cap)
            g.add_expr(parse("x * x"))
            g.rebuild()
            (m,) = ematch(g, rule)
            before = state_of(g)
            if cap < 10:
                with pytest.raises(CapacityExceededError):
                    count_new_nodes(g, rule, m)
                assert state_of(g) == before
                with pytest.raises(CapacityExceededError):
                    apply_match(g, rule, m)
                assert state_of(g) == before
            else:
                assert count_new_nodes(g, rule, m) == 8
                assert state_of(g) == before
                assert apply_match(g, rule, m) and g.node_count() == 10
