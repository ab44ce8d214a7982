"""Shared helpers: the sample corpus, random tree generation and naive
oracles."""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from mbaobf.egraph import _CODES, _LABELS, EGraph
from mbaobf.expr import (ADD, AND, Const, MUL, NEG, NOT, OPERATORS, OR, SUB,
                         Var, XOR, Op, mask_of, parse)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "sample100.txt"
# Acceptance criterion 7's bench flags.
CRITERION_7 = ["--node-limit", "400", "--iter-limit", "30",
               "--time-limit-ms", "60000", "--seed", "7"]

BINARY_OPS = (ADD, SUB, MUL, AND, OR, XOR)
UNARY_OPS = (NEG, NOT)


def random_expr(rng: random.Random, size: int, pool=("x", "y", "z"),
                bits: int = 64, const_prob: float = 0.2):
    """Uniform-ish random tree with exactly ``size`` nodes."""
    if size == 1:
        if rng.random() < const_prob:
            return Const(rng.randrange(1 << bits) & mask_of(bits))
        return Var(rng.choice(pool))
    if size == 2 or rng.random() < 0.2:
        return Op(rng.choice(UNARY_OPS),
                  (random_expr(rng, size - 1, pool, bits, const_prob),))
    left = rng.randint(1, size - 2)
    return Op(rng.choice(BINARY_OPS),
              (random_expr(rng, left, pool, bits, const_prob),
               random_expr(rng, size - 1 - left, pool, bits, const_prob)))


def graph_of(*texts, bits=64):
    """An e-graph of ``texts`` parsed at ``bits``, rebuilt, and their roots."""
    g = EGraph(bits=bits)
    roots = [g.add_expr(parse(t, bits)) for t in texts]
    g.rebuild()
    return g, roots


def flat_sum(depth: int) -> str:
    """``x + x + ... + x``: a left-deep tree with ``depth`` operators."""
    return " + ".join(["x"] * (depth + 1))


def flat_key(node) -> tuple:
    """The hashcons key of the e-node ``node``: ``(code, payload)`` for a
    leaf, ``(code, first, second)`` for an operator, with -1 for a missing
    second child."""
    if not node.children:
        return (_CODES[node.label], node.payload)
    return (_CODES[node.label], *node.children, -1)[:3]


def check_class_values(g, envs: int = 64, seed: int = 0) -> None:
    """Assert that every live row of ``g``'s node table has its class's
    value on ``envs`` seeded random environments.

    A leaf row takes its payload's value, an operator row its operator's
    ``fn`` of its children's class values masked to the width, each
    child's class read from the flat union-find ``g._uf`` of the rebuilt
    graph.  Rows are swept
    until no class gains a value: the first row of a class to be
    evaluated gives the class its value, and every other row must equal
    it.  A row left unevaluated means a class with no finite term, which
    fails too."""
    rng = np.random.default_rng(seed)
    m = np.uint64(mask_of(g.bits))
    table = g._columns().tolist()
    cls = g._uf
    var = _CODES["var"]
    names = sorted({g._payloads[row] for row in g._payloads
                    if table[row][0] == var})
    env = {name: rng.integers(0, 1 << g.bits, envs, np.uint64)
           for name in names}
    value = {}
    pending = [row for row, (code, _, _) in enumerate(table) if code >= 0]
    while pending:
        left = []
        for row in pending:
            code, first, second = table[row]
            if first < 0:
                payload = g._payloads[row]
                v = (env[payload] if code == var
                     else np.full(envs, payload, np.uint64))
            else:
                kids = [cls[first]] + ([cls[second]] if second >= 0 else [])
                if any(k not in value for k in kids):
                    left.append(row)
                    continue
                with np.errstate(over="ignore"):
                    v = OPERATORS[_LABELS[code]].fn(
                        *(value[k] for k in kids)) & m
            known = value.setdefault(cls[row], v)
            assert (known == v).all(), \
                f"row {row} ({g._node(row)}) differs from class {cls[row]}"
        assert len(left) < len(pending), f"rows {left} are never evaluated"
        pending = left


def random_env(rng: random.Random, names, bits: int):
    return {name: rng.randrange(1 << bits) for name in names}


class NaivePartition:
    """Set-partition oracle for the union-find laws."""

    def __init__(self):
        self.sets: list[set] = []

    def add(self, x):
        if self.find(x) is None:
            self.sets.append({x})

    def find(self, x):
        for s in self.sets:
            if x in s:
                return s
        return None

    def union(self, a, b):
        sa, sb = self.find(a), self.find(b)
        if sa is sb:
            return False
        self.sets.remove(sb)
        sa.update(sb)
        return True

    def same(self, a, b) -> bool:
        return self.find(a) is self.find(b)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
