"""Shared helpers: random tree generation and naive oracles."""

from __future__ import annotations

import random

import pytest

from mbaobf.expr import (ADD, AND, Const, MUL, NEG, NOT, OR, SUB, Var, XOR,
                         Op, mask_of)

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


def flat_sum(depth: int) -> str:
    """``x + x + ... + x``: a left-deep tree with ``depth`` operators."""
    return " + ".join(["x"] * (depth + 1))


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
