import random
import sys

import pytest

from mbaobf.expr import (ADD, AND, Const, MAX_DEPTH, MUL, NEG, NOT, OR, Op,
                         Operator, ParseError, UnboundVariableError, Var,
                         evaluate, expr_size, free_vars, parse, to_text)

from mbaobf.egraph import EGraph
from mbaobf.expansion import extract_min
from mbaobf.verify import check_equivalence

from conftest import flat_sum, random_env, random_expr


class TestParse:
    def test_minimal_binary(self):
        assert parse("x + y") == Op(ADD, (Var("x"), Var("y")))

    def test_masking_identity_shape(self):
        e = parse("(x | y) + (x & y)")
        assert e == Op(ADD, (Op(OR, (Var("x"), Var("y"))),
                             Op(AND, (Var("x"), Var("y")))))

    def test_constant_reduced_mod_width(self):
        e = parse("~x * 257", bits=8)
        assert e == Op(MUL, (Op(NOT, (Var("x"),)), Const(1)))

    def test_hex_constants(self):
        assert parse("0xff", bits=8) == Const(255)
        assert parse("0x100", bits=8) == Const(0)

    def test_precedence_tower(self):
        # | is loosest, then ^, &, +/-, *, unary
        e = parse("a | b ^ c & d + e * f")
        assert e.op is OR
        assert e.args[1].op.name == "xor"
        assert e.args[1].args[1].op.name == "and"

    def test_left_associativity(self):
        e = parse("a - b - c")
        assert to_text(e) == "((a - b) - c)"
        assert to_text(parse("a * b * c")) == "((a * b) * c)"

    def test_unary_binds_tighter_than_mul(self):
        e = parse("-x * y")
        assert e.op is MUL
        assert e.args[0] == Op(NEG, (Var("x"),))

    def test_nested_unary(self):
        assert parse("~~x") == Op(NOT, (Op(NOT, (Var("x"),)),))
        assert parse("- - 3", bits=8) == Op(NEG, (Op(NEG, (Const(3),)),))

    def test_parentheses_override(self):
        assert parse("(a + b) * c").op is MUL

    def test_error_position_is_column(self):
        with pytest.raises(ParseError) as exc:
            parse("x +")
        assert exc.value.position == 3
        assert "column 4" in str(exc.value)

    @pytest.mark.parametrize("bad", ["", "  ", "x $ y", "(x + y", "x y",
                                     "x + + y", "?a + 1", "0x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_whitespace_around_tokens(self):
        assert parse(" x +\t1 \n", bits=8) == Op(ADD, (Var("x"), Const(1)))
        with pytest.raises(ParseError) as exc:
            parse("x +  ")
        assert exc.value.position == 5

    def test_leading_zeros_are_decimal(self):
        assert parse("x + 08") == Op(ADD, (Var("x"), Const(8)))
        assert parse("0010", bits=8) == Const(10)
        assert parse("0X1f") == Const(31)

    @pytest.mark.parametrize("text, column", [
        ("\u00b2", 1), ("\u00e9", 1), ("x + \u0661", 5), ("\uff58", 1),
        ("x\u00b2", 2), ("x $ y", 3), ("?a + 1", 1), ("x + ?", 5),
        ("0x", 1), ("0xg", 1)])
    def test_outside_the_grammar_is_an_error_at_its_column(self, text,
                                                           column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.position == column - 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits",
                                    lambda: 0)(),
                        reason="no integer-conversion digit limit")
    def test_decimal_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse("9" * limit, bits=8) == Const(int("9" * limit) & 255)
        with pytest.raises(ParseError) as exc:
            parse("x + " + "9" * (limit + 1))
        assert exc.value.position == 4
        assert f"{limit}-digit limit" in str(exc.value)

    def test_rejects_bad_bitwidth(self):
        with pytest.raises(ValueError):
            parse("x", bits=7)


class TestPrint:
    def test_binary(self):
        assert to_text(Op(ADD, (Var("x"), Var("y")))) == "(x + y)"

    def test_unary_minus_disambiguated(self):
        assert to_text(Op(NEG, (Var("x"),))) == "(- x)"
        assert to_text(Op(NOT, (Var("x"),))) == "(~ x)"

    def test_round_trip_random(self):
        # structural round trip over randomized ASTs
        rng = random.Random(7)
        for _ in range(10_000):
            e = random_expr(rng, rng.randint(1, 17), bits=8, const_prob=0.3)
            assert parse(to_text(e), bits=8) == e


class TestEvaluate:
    def test_wraparound(self):
        assert evaluate(parse("x + y", 8), {"x": 200, "y": 100}, 8) == 44

    def test_complement(self):
        assert evaluate(parse("~x", 8), {"x": 5}, 8) == 250

    def test_neg_is_twos_complement(self):
        assert evaluate(parse("-x", 8), {"x": 1}, 8) == 255
        assert evaluate(parse("-0", 8), {}, 8) == 0

    def test_masking_identity_exhaustive_8bit(self):
        # (x | y) + (x & y) == x + y over all 65536 environments
        lhs = parse("(x | y) + (x & y)", 8)
        rhs = parse("x + y", 8)
        for x in range(256):
            for y in range(256):
                env = {"x": x, "y": y}
                assert evaluate(lhs, env, 8) == evaluate(rhs, env, 8)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x + y"), {"x": 1}, 64)

    def test_shared_subterm_evaluated_once(self):
        # a 20-level doubling DAG: 2^20 leaves in the tree, 21 subterms
        calls = []

        def add(a, b):
            calls.append(None)
            return a + b

        counting = Operator("add", "+", 2, ADD.category, ADD.precedence, add)
        e = Var("x")
        for _ in range(20):
            e = Op(counting, (e, e))
        assert evaluate(e, {"x": 1}, 64) == 1 << 20
        assert len(calls) == 20

    def test_totality_and_range(self, rng):
        for _ in range(500):
            bits = rng.choice((4, 8, 16, 32, 64))
            e = random_expr(rng, rng.randint(1, 15), bits=bits)
            env = random_env(rng, free_vars(e), bits)
            v = evaluate(e, env, bits)
            assert 0 <= v < (1 << bits)

    def test_mod_consistency_across_widths(self, rng):
        # evaluating wide then reducing equals evaluating narrow
        widths = (4, 8, 16, 32, 64)
        for _ in range(500):
            e = random_expr(rng, rng.randint(1, 13), bits=4)
            env = random_env(rng, free_vars(e), 4)
            narrow = evaluate(e, env, 4)
            for wide in widths:
                assert evaluate(e, env, wide) % 16 == narrow


class TestStructure:
    def test_free_vars(self):
        assert free_vars(parse("x + y")) == {"x", "y"}
        assert free_vars(Const(7)) == set()
        assert free_vars(parse("(x | y) + (x & y)")) == {"x", "y"}

    def test_expr_size(self):
        assert expr_size(parse("x")) == 1
        assert expr_size(parse("x + y")) == 3
        assert expr_size(parse("(x | y) + (x & y)")) == 7


def right_nested(depth: int) -> str:
    return "(x * " * depth + "x" + ")" * depth


def unary_chain(depth: int) -> str:
    return "-~" * (depth // 2) + "-" * (depth % 2) + "x"


DEEP_SHAPES = (flat_sum, right_nested, unary_chain)


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_recursive_consumers_safe_at_bound(self, shape):
        text = to_text(parse(shape(MAX_DEPTH)))
        e = parse(text)
        assert to_text(e) == text
        assert 0 <= evaluate(e, {"x": 3}) < 1 << 64
        assert check_equivalence(e, e, 8).passed  # the numpy evaluator
        g = EGraph()
        root = g.add_expr(e)
        g.rebuild()
        assert to_text(extract_min(g, root)) == text

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_rejected_one_past_bound(self, shape):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH}"):
            parse(shape(MAX_DEPTH + 1))

    def test_long_input_rejected_without_recursion(self):
        for text in (flat_sum(10_000), "-" * 10_000 + "x",
                     "(" * 10_000 + "x" + ")" * 10_000 + " + y" * 300):
            with pytest.raises(ParseError):
                parse(text)

    def test_parenthesis_nesting_alone_is_free(self):
        assert parse("(" * 10_000 + "x" + ")" * 10_000) == Var("x")
