import math
import statistics
from itertools import permutations

import pytest

from mbaobf.expansion import ExpansionConfig, expand
from mbaobf.expr import Op, Var, parse
from mbaobf.metrics import (EmptyCorpusError, _entropy, aggregate,
                            aggregate_csv, ground_share, measure)
from mbaobf.rules import load_default_rules

from conftest import CORPUS, random_expr


class TestMeasure:
    def test_simple_sum(self):
        r = measure(parse("x + y"))
        assert (r.ast_size, r.var_count, r.const_count, r.op_count) == (3, 2, 0, 1)
        assert r.mba_alternation == 0
        assert abs(r.entropy_tokens - math.log2(3)) < 1e-12
        assert abs(r.entropy_leaves - 1.0) < 1e-12

    def test_masked_sum(self):
        r = measure(parse("((x | y) + (x & y))"))
        assert (r.ast_size, r.var_count, r.const_count, r.op_count) == (7, 4, 0, 3)
        assert r.mba_alternation == 2

    def test_single_variable(self):
        r = measure(parse("x"))
        assert (r.ast_size, r.var_count, r.const_count, r.op_count) == (1, 1, 0, 0)
        assert r.mba_alternation == 0
        assert r.entropy_tokens == 0.0

    def test_alternation_counts_only_category_switch_edges(self):
        # & over + and + over &: two boolean/arithmetic switches
        assert measure(parse("(a + b) & (c + d)")).mba_alternation == 2
        # same category everywhere: none
        assert measure(parse("(a + b) + (c + d)")).mba_alternation == 0
        # operator over leaf edges never count
        assert measure(parse("a & b")).mba_alternation == 0

    def test_unary_operators_alternate_too(self):
        assert measure(parse("~(a + b)")).mba_alternation == 1
        assert measure(parse("-(a & b)")).mba_alternation == 1
        assert measure(parse("~(a & b)")).mba_alternation == 0

    def test_equal_constants_share_a_label(self):
        r = measure(parse("1 + 1"))
        assert abs(r.entropy_leaves - 0.0) < 1e-12

    def test_entropy_ignores_label_insertion_order(self):
        # A left-to-right float sum of these five terms reads two values
        # over the 120 orders; the exactly rounded sum reads one.
        counts = {("op", "add"): 3, ("var", "x"): 5, ("var", "y"): 2,
                  ("const", 3): 1, ("op", "xor"): 7}
        assert {_entropy(dict(items))
                for items in permutations(counts.items())} == {
            _entropy(counts)}

    def test_one_label_has_entropy_plus_zero(self):
        for text in ("x", "1 + 1", "x + x"):
            r = measure(parse(text))
            assert repr(r.entropy_leaves) == "0.0"
        assert repr(measure(parse("x")).entropy_tokens) == "0.0"
        assert repr(_entropy({})) == "0.0"

    def test_unary_and_binary_minus_are_distinct_labels(self):
        r = measure(parse("x - (- x)"))
        # labels: sub, neg, x, x -> entropy over {sub:1, neg:1, x:2}
        expected = -(0.25 * math.log2(0.25) * 2 + 0.5 * math.log2(0.5))
        assert abs(r.entropy_tokens - expected) < 1e-12

    def test_decomposition_property(self, rng):
        for _ in range(2000):
            e = random_expr(rng, rng.randint(1, 15), bits=8, const_prob=0.3)
            r = measure(e)
            assert r.ast_size == r.var_count + r.const_count + r.op_count

    def test_entropy_bounds(self, rng):
        for _ in range(1000):
            e = random_expr(rng, rng.randint(1, 15), bits=8, const_prob=0.3)
            r = measure(e)
            assert 0.0 <= r.entropy_tokens <= math.log2(r.ast_size) + 1e-12
            assert (0.0 <= r.entropy_leaves
                    <= math.log2(r.var_count + r.const_count) + 1e-12)

    def test_leaf_entropy_can_exceed_token_entropy(self):
        # Twenty NOTs over x * y: the two leaves split evenly, one bit,
        # while NOT dominates the token counts.
        r = measure(parse("~" * 20 + "(x * y)"))
        assert r.entropy_leaves == 1.0
        assert abs(r.entropy_tokens - 0.7653636126766978) < 1e-12
        assert r.entropy_leaves > r.entropy_tokens

    def test_alternation_bounded_by_op_op_edges(self, rng):
        def op_op_edges(e):
            if not isinstance(e, Op):
                return 0
            own = sum(1 for a in e.args if isinstance(a, Op))
            return own + sum(op_op_edges(a) for a in e.args)

        for _ in range(1000):
            e = random_expr(rng, rng.randint(1, 15), bits=8)
            r = measure(e)
            assert 0 <= r.mba_alternation <= op_op_edges(e)

    def test_pure_function(self):
        e = parse("(x | y) * 3")
        assert measure(e) == measure(e)


def subterms(e):
    """Every node of the tree ``e``, shared subterms once per occurrence."""
    yield e
    if isinstance(e, Op):
        for a in e.args:
            yield from subterms(a)


def naive_ground_nodes(e) -> int:
    """The tree nodes of ``e`` inside variable-free operator subterms, by
    a recursive walk of the tree."""
    if not isinstance(e, Op):
        return 0
    if not any(isinstance(n, Var) for n in subterms(e)):
        return sum(1 for _ in subterms(e))
    return sum(naive_ground_nodes(a) for a in e.args)


@pytest.fixture(scope="module")
def corpus_shares():
    """``ground_share`` of each corpus line's output at the defaults, with
    a clock far from every line's time."""
    rules = load_default_rules()
    cfg = ExpansionConfig(time_limit=60.0)
    return [ground_share(expand(parse(line), rules, cfg).output)
            for line in CORPUS.read_text().splitlines()]


class TestGroundShare:
    def test_constant_counts_only_inside_a_ground_operator(self):
        assert ground_share(parse("x + 1")) == 0.0
        assert ground_share(parse("(0 + 0) + x")) == 0.6
        assert ground_share(parse("5")) == 0.0
        assert ground_share(parse("x")) == 0.0
        assert ground_share(parse("~(1 - 2)")) == 1.0

    def test_agrees_with_a_tree_walk(self, rng):
        for _ in range(1000):
            e = random_expr(rng, rng.randint(1, 15), bits=8, const_prob=0.5)
            assert ground_share(e) == (naive_ground_nodes(e)
                                       / measure(e).ast_size)

    def test_shared_subterm_counted_per_occurrence(self):
        zero = parse("0 + 0")
        e = Op(parse("x + y").op, (Op(zero.op, (zero, zero)), Var("x")))
        assert ground_share(e) == 7 / 9

    def test_corpus_outputs_at_the_defaults(self, corpus_shares):
        # nearly every output node lies in a tree of zeros (ROADMAP item 30)
        assert round(statistics.fmean(corpus_shares), 4) == 0.9910
        assert round(min(corpus_shares), 4) == 0.9888

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 30, step 3")
    def test_corpus_outputs_mostly_depend_on_a_variable(self, corpus_shares):
        assert statistics.fmean(corpus_shares) < 0.5


class TestAggregate:
    def test_single_pair_is_identity(self):
        a, b = measure(parse("x + y")), measure(parse("(x|y)+(x&y)"))
        agg = aggregate([(a, b)])
        assert agg.original.ast_size == a.ast_size
        assert agg.obfuscated.ast_size == b.ast_size
        assert agg.count == 1

    def test_mean_of_two(self):
        a = measure(parse("x + y"))          # size 3
        b = measure(parse("x + y + z"))      # size 5
        agg = aggregate([(a, a), (b, b)])
        assert agg.original.ast_size == pytest.approx(4.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            aggregate([])

    def test_csv_shape(self):
        a, b = measure(parse("x + y")), measure(parse("(x|y)+(x&y)"))
        text = aggregate_csv(aggregate([(a, b)]))
        lines = text.strip().splitlines()
        assert lines[0] == ("variant,ast_size,var_count,const_count,op_count,"
                            "mba_alternation,entropy")
        assert lines[1] == "original,3.00,2.00,0.00,1.00,0.00,1.58"
        assert lines[2] == "obfuscated,7.00,4.00,0.00,3.00,2.00,2.24"
