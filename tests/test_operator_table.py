"""The facts the parser, printer, evaluators and e-graph derive from
``OPERATORS``, checked entry by entry."""

import numpy as np
import pytest

from mbaobf.expr import (OPERATORS, VALID_BITWIDTHS, Op, Operator, Var,
                         evaluate, mask_of, parse, to_text)
from mbaobf.verify import _DTYPES, _eval_vec

A, B, C = Var("a"), Var("b"), Var("c")
BINARY = [op for op in OPERATORS.values() if op.arity == 2]
UNARY = [op for op in OPERATORS.values() if op.arity == 1]


def operands(op):
    return (A, B)[:op.arity]


@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS)
class TestEachOperator:
    def test_symbol_parses_at_stated_precedence(self, op):
        if op.arity == 1:
            assert parse(f"{op.symbol} a") == Op(op, (A,))
            for q in BINARY:
                # prefix operators bind tighter than every binary one
                assert op.precedence > q.precedence
                assert parse(f"{op.symbol} a {q.symbol} b") == \
                    Op(q, (Op(op, (A,)), B))
            return
        assert parse(f"a {op.symbol} b") == Op(op, (A, B))
        for q in BINARY:
            text = f"a {op.symbol} b {q.symbol} c"
            if op.precedence >= q.precedence:  # equal: left-associative
                want = Op(q, (Op(op, (A, B)), C))
            else:
                want = Op(op, (A, Op(q, (B, C))))
            assert parse(text) == want, text

    def test_to_text_round_trips(self, op):
        e = Op(op, operands(op))
        assert parse(to_text(e)) == e
        for other in OPERATORS.values():
            nested = Op(other, (e,) * other.arity)
            assert parse(to_text(nested)) == nested

    @pytest.mark.parametrize("bits", VALID_BITWIDTHS)
    def test_scalar_and_numpy_walks_agree(self, op, bits):
        m = mask_of(bits)
        edge = [0, 1, 2, m >> 1, (m >> 1) + 1, m - 1, m]
        rng = np.random.default_rng(bits)
        values = edge + [int(v) for v in rng.integers(0, m, 50,
                                                      dtype=np.uint64,
                                                      endpoint=True)]
        pairs = [(x, y) for x in values for y in values]
        env = {"a": np.array([x for x, _ in pairs], dtype=_DTYPES[bits]),
               "b": np.array([y for _, y in pairs], dtype=_DTYPES[bits])}
        e = Op(op, operands(op))
        got = _eval_vec(e, env, bits)
        for i, (x, y) in enumerate(pairs):
            assert int(got[i]) == evaluate(e, {"a": x, "b": y}, bits)

    def test_a_lookalike_is_a_different_operator(self, op):
        # an operator is its table entry: equal fields make another one
        twin = Operator(op.name, op.symbol, op.arity, op.category,
                        op.precedence, op.fn)
        assert twin != op and op == op
        assert twin not in {op: None} and op in {op: None}
        assert Op(twin, operands(op)) != Op(op, operands(op))
