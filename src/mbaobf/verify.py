"""Solver-free equivalence checking.

Rule soundness and end-to-end obfuscation equivalence are both discharged
by direct evaluation over the finite value domain: exhaustively when the
assignment space is small enough (at most ``2**24`` cases), otherwise by
seeded random sampling.  There is deliberately no SMT dependency; at these
widths plain evaluation is decisive and fast.

Random samples come from a counter-based generator kept here, not from
numpy's random module, whose streams may change between numpy releases
and whose import costs a few MiB: the value of variable ``k`` in trial
``i`` is a pure function of ``(seed, k, i)``, the SplitMix64 finalizer
(Steele, Lea and Flood, OOPSLA 2014) over a 64-bit counter, so a seed
draws the same samples on every numpy version and any chunk of trials
can be drawn on its own.

Evaluation here is vectorized with numpy, over all cases at once up to
``_CHUNK`` (2^20) of them and in chunks of that many past it, exhaustive
and random checks alike, so a check's arrays stay at most 8 MiB each
whatever its size.  An exhaustive chunk is a broadcast grid: each
variable holds only its own values, along its own axis, and a constant is
one value, so a subterm's array spans only the axes of the variables it
reads (the truth-table view of linear MBA, Zhou et al., WISA 2007).  Evaluation applies the same per-operator functions as the scalar
:func:`mbaobf.expr.evaluate`, taken from the operator table
:data:`mbaobf.expr.OPERATORS`, which alone defines the semantics.  It
evaluates each distinct subterm of a shared DAG once, in the order of the
term's :class:`~mbaobf.expr.Tape` (the one an extracted output carries, or
a fresh walk), and frees each intermediate array after its last reader,
so an extracted output costs its distinct subterms (under a hundred), not
its tree nodes (~8k).

:func:`check_rules` is the one rule-admission check: ``check-rules``,
``obfuscate`` and ``bench`` all render its results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (Const, Expression, Var, _check_int, _fold, check_bitwidth,
                   free_vars, mask_of)
from .rules import PatVar, Rule

EXHAUSTIVE_CASE_LIMIT = 1 << 24
_CHUNK = 1 << 20  # cases evaluated at once

_DTYPES = {4: np.uint8, 8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


class TooManyCasesError(Exception):
    def __init__(self, cases: int):
        self.cases = cases
        super().__init__(
            f"exhaustive check infeasible: {cases} cases exceeds "
            f"{EXHAUSTIVE_CASE_LIMIT}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a soundness or equivalence check.

    ``counterexample`` is ``(env, lhs_value, rhs_value)`` for the first
    failing assignment in deterministic case order, or None when the check
    passed.  ``env`` maps each variable's name to its value, except that a
    rule's concrete variable (``x`` in ``?x + x => ...``) is keyed by its
    :class:`~mbaobf.expr.Var`, apart from the pattern variable ``"x"``.
    ``cases_checked`` counts assignments evaluated up to and including the
    counterexample.
    """

    passed: bool
    counterexample: Optional[tuple]
    cases_checked: int


def _eval_vec(node, env: dict, bits: int) -> np.ndarray:
    """Evaluate an expression or pattern over per-variable value arrays.

    ``env`` keys each variable by its name, or by the ``Var`` or ``PatVar``
    leaf itself where ``x`` and ``?x`` must stay distinct (rule checks).
    The arrays need only broadcast together, and a constant is one value
    that broadcasts, so the result has the shape of the variables it reads.

    Each distinct subterm is evaluated once, and its array is freed as soon
    as its last parent has read it.
    """
    dtype = _DTYPES[bits]
    m = dtype(mask_of(bits))

    def leaf(node) -> np.ndarray:
        if isinstance(node, Const):
            return np.array([node.value & int(m)], dtype=dtype)
        return env[node] if node in env else env[node.name]

    with np.errstate(over="ignore"):
        return _fold(node, leaf, lambda op, *args: op.op.fn(*args, m))


def _grid_env(keys: list, bits: int, start: int, n: int) -> dict:
    """Cases ``start`` to ``start + n - 1`` of every assignment to ``keys``,
    lexicographic in their order, as a broadcast grid.

    Key ``k`` holds an ``arange`` of the values it takes in these cases,
    along axis ``k`` and of length 1 on every other axis, so the keys
    broadcast to the ``n`` cases in C order, the first key slowest.  That
    holds for any chunk whose ``start`` is a multiple of ``n`` where ``n``
    and ``2**bits`` are powers of two."""
    assert n & (n - 1) == 0 and start % n == 0, (start, n)
    size = 1 << bits
    env = {}
    for axis, key in enumerate(keys):
        stride = size ** (len(keys) - 1 - axis)  # cases per value
        first = start // stride % size
        values = np.arange(first, first + min(size, max(n // stride, 1)),
                           dtype=_DTYPES[bits])
        env[key] = values.reshape([-1 if k == axis else 1
                                   for k in range(len(keys))])
    return env


def _check_trials(trials: int) -> None:
    # Without a sample every random check would pass; past the exhaustive
    # limit a random check would draw more cases than any exhaustive one
    # enumerates.  Memory does not set the cap: trials run in chunks.
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > EXHAUSTIVE_CASE_LIMIT:
        raise ValueError(f"trials must be at most {EXHAUSTIVE_CASE_LIMIT}, "
                         f"got {trials}")


def _check_seed(seed: int) -> None:
    _check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter step
_STREAM = 1 << 32  # counters between two variables' first trials
_SLICE = 1 << 14  # trials the sampler mixes at once: two 128 KiB buffers


def _random_env(keys: list, bits: int, trials: int, seed: int,
                start: int = 0) -> dict:
    """Trials ``start`` to ``start + trials - 1`` of the random sample
    for ``keys``.

    Variable ``k`` (its place in ``keys``) in trial ``i`` takes the top
    ``bits`` bits of SplitMix64's output number ``k * 2**32 + i`` for
    ``seed``: the finalizer over the counter
    ``seed + (k * 2**32 + i + 1) * 0x9E3779B97F4A7C15`` modulo 2^64.
    Seeds equal modulo 2^64 draw the same sample; the seed is folded to
    64 bits here, in Python, since numpy warns on a scalar overflow.
    The finalizer runs over ``_SLICE`` trials at a time, in two reused
    buffers that stay in cache: each of its ~13 steps is one pass over
    its array, which over a whole 2^20-trial chunk would stream 8 MiB
    through memory."""
    steps = np.arange(min(_SLICE, trials), dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    z, t = np.empty_like(steps), np.empty_like(steps)
    env = {}
    for k, key in enumerate(keys):
        out = env[key] = np.empty(trials, _DTYPES[bits])
        for lo in range(0, trials, _SLICE):
            n = min(_SLICE, trials - lo)
            zs, ts = z[:n], t[:n]
            first = (seed + (k * _STREAM + start + lo + 1) * _GAMMA) & _MASK64
            np.add(steps[:n], np.uint64(first), out=zs)
            zs ^= np.right_shift(zs, np.uint64(30), out=ts)
            zs *= np.uint64(0xBF58476D1CE4E5B9)
            zs ^= np.right_shift(zs, np.uint64(27), out=ts)
            zs *= np.uint64(0x94D049BB133111EB)
            zs ^= np.right_shift(zs, np.uint64(31), out=ts)
            zs >>= np.uint64(64 - bits)
            out[lo:lo + n] = zs
    return env


def _compare(lhs, rhs, env: dict, bits: int) -> CheckResult:
    """Both sides over the cases of ``env``: its arrays broadcast together,
    in C order."""
    shape = np.broadcast_shapes((1,), *(v.shape for v in env.values()))
    lv = _eval_vec(lhs, env, bits)
    rv = _eval_vec(rhs, env, bits)
    neq = lv != rv
    if not neq.any():
        return CheckResult(True, None, math.prod(shape))
    idx = int(np.argmax(np.broadcast_to(neq, shape)))
    at = np.unravel_index(idx, shape)

    def value(v) -> int:
        return int(np.broadcast_to(v, shape)[at])

    cex_env = {key.name if isinstance(key, PatVar) else key: value(v)
               for key, v in env.items()}
    return CheckResult(False, (cex_env, value(lv), value(rv)), idx + 1)


def _compare_chunks(lhs, rhs, keys: list, bits: int, cases: int,
                    seed: Optional[int] = None) -> CheckResult:
    """:func:`_compare` over ``cases`` assignments to ``keys``, ``_CHUNK``
    at a time (one chunk of them all when there are fewer): in
    lexicographic order (:func:`_grid_env`) when ``seed`` is None, else
    random trials drawn with ``seed`` (:func:`_random_env`).

    The check stops at the first chunk holding a counterexample, and the
    result is the one a single evaluation of every case gives."""
    for start in range(0, cases, _CHUNK):
        n = min(_CHUNK, cases - start)
        env = (_grid_env(keys, bits, start, n) if seed is None
               else _random_env(keys, bits, n, seed, start))
        res = _compare(lhs, rhs, env, bits)
        if not res.passed:
            return CheckResult(False, res.counterexample,
                               start + res.cases_checked)
    return CheckResult(True, None, cases)


def _check(lhs, rhs, keys: list, bits: int, trials: int,
           seed: int) -> tuple:
    """``("exhaustive", result)`` over every assignment to ``keys`` where
    they fit the feasibility limit, else ``("random", result)`` over
    ``trials`` seeded ones."""
    cases = (1 << bits) ** len(keys)
    if cases <= EXHAUSTIVE_CASE_LIMIT:
        return "exhaustive", _compare_chunks(lhs, rhs, keys, bits, cases)
    return "random", _compare_chunks(lhs, rhs, keys, bits, trials, seed)


def _rule_leaves(rule: Rule) -> list:
    """A rule's variables: its pattern variables, then its concrete
    variables, each group sorted by name."""
    concrete = sorted(free_vars(rule.lhs) | free_vars(rule.rhs))
    return ([PatVar(name) for name in rule.program.names]
            + [Var(name) for name in concrete])


def check_rule(rule: Rule, bits: int) -> CheckResult:
    """Exhaustive soundness check of a rule at the given width.

    Treats pattern variables and concrete variables as distinct free
    variables and compares both sides over every assignment.  Raises
    :class:`TooManyCasesError` when the assignment space exceeds the
    feasibility limit (fall back to :func:`check_rule_random`).
    """
    check_bitwidth(bits)
    leaves = _rule_leaves(rule)
    cases = (1 << bits) ** len(leaves)
    if cases > EXHAUSTIVE_CASE_LIMIT:
        raise TooManyCasesError(cases)
    return _compare_chunks(rule.lhs, rule.rhs, leaves, bits, cases)


def check_rule_random(rule: Rule, bits: int, trials: int,
                      seed: int = 0) -> CheckResult:
    """Randomized soundness check: ``trials`` (1 to
    :data:`EXHAUSTIVE_CASE_LIMIT`) seeded assignments.  ``seed`` must be
    an ``int`` (a ``bool`` is not) of at least 0, or ValueError is raised
    before any check."""
    check_bitwidth(bits)
    _check_trials(trials)
    _check_seed(seed)
    leaves = _rule_leaves(rule)
    # with no variables every trial is the same one case
    return _compare_chunks(rule.lhs, rule.rhs, leaves, bits,
                           trials if leaves else 1, seed)


def check_equivalence(a: Expression, b: Expression, bits: int,
                      trials: int = 1000, seed: int = 0) -> CheckResult:
    """Check two expressions for equal value on every environment.

    Exhaustive when the environment space fits the feasibility limit,
    otherwise ``trials`` seeded random environments over the union of the
    free variables.  ``trials`` that is not an ``int`` (a ``bool`` is
    not), or is below 1 or above :data:`EXHAUSTIVE_CASE_LIMIT`, raises
    ValueError, whichever check runs, and so does a ``seed`` that is not
    an ``int`` or is below 0.
    """
    check_bitwidth(bits)
    _check_trials(trials)
    _check_seed(seed)
    names = sorted(free_vars(a) | free_vars(b))
    return _check(a, b, names, bits, trials, seed)[1]


def check_rules(rules: list, trials: int = 10_000, seed: int = 0) -> list:
    """Admission check for a ruleset: each rule at 4 and 8 bits, then at 64.

    A width is checked exhaustively where that is feasible and with
    ``trials`` seeded random assignments otherwise; 64 bits always takes
    the random check.  Returns ``[(rule, label, result)]`` for every check
    performed, in order, where ``label`` names the check that ran:
    ``exhaustive@4`` or ``random@4``, ``exhaustive@8`` or ``random@8``,
    then ``random@64``.  ``trials`` that is not an ``int`` (a ``bool`` is
    not), or is below 1 or above :data:`EXHAUSTIVE_CASE_LIMIT`, raises
    ValueError before any check, even for an empty ruleset, and so does a
    ``seed`` that is not an ``int`` or is below 0.
    """
    _check_trials(trials)
    _check_seed(seed)
    results = []
    for rule in rules:
        leaves = _rule_leaves(rule)
        for w in (4, 8):
            kind, res = _check(rule.lhs, rule.rhs, leaves, w, trials, seed)
            results.append((rule, f"{kind}@{w}", res))
        results.append((rule, "random@64",
                        check_rule_random(rule, 64, trials, seed)))
    return results
