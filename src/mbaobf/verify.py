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
whatever its size.  It applies the same per-operator functions as the
scalar :func:`mbaobf.expr.evaluate`, taken from the operator table
:data:`mbaobf.expr.OPERATORS`, which alone defines the semantics.  It
evaluates each distinct subterm of a shared DAG once, by object identity,
and frees each intermediate array after its last parent has read it, so an
extracted output costs its distinct subterms (under a hundred), not its
tree nodes (~8k).

:func:`check_rules` is the one rule-admission check: ``check-rules``,
``obfuscate`` and ``bench`` all render its results.
"""

from __future__ import annotations

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

    Each distinct subterm is evaluated once, and its array is freed as soon
    as its last parent has read it.
    """
    dtype = _DTYPES[bits]
    m = dtype(mask_of(bits))
    width = len(next(iter(env.values()))) if env else 1

    def leaf(node) -> np.ndarray:
        if isinstance(node, Const):
            return np.full(width, node.value & int(m), dtype=dtype)
        return env[node] if node in env else env[node.name]

    with np.errstate(over="ignore"):
        return _fold(node, leaf, lambda op, *args: op.op.fn(*args, m))


def _exhaustive_env(keys: list, bits: int) -> dict:
    """All assignments to ``keys`` (variable names or leaves),
    lexicographic in their order."""
    size = 1 << bits
    total = size ** len(keys)
    env = {}
    for i, key in enumerate(keys):
        reps = size ** (len(keys) - 1 - i)
        block = np.repeat(np.arange(size, dtype=_DTYPES[bits]), reps)
        env[key] = np.tile(block, total // (reps * size))
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


def _random_env(keys: list, bits: int, trials: int, seed: int,
                start: int = 0) -> dict:
    """Trials ``start`` to ``start + trials - 1`` of the random sample
    for ``keys``.

    Variable ``k`` (its place in ``keys``) in trial ``i`` takes the top
    ``bits`` bits of SplitMix64's output number ``k * 2**32 + i`` for
    ``seed``: the finalizer over the counter
    ``seed + (k * 2**32 + i + 1) * 0x9E3779B97F4A7C15`` modulo 2^64.
    Seeds equal modulo 2^64 draw the same sample; the seed is folded to
    64 bits here, in Python, since numpy warns on a scalar overflow."""
    env = {}
    for k, key in enumerate(keys):
        first = (seed + (k * _STREAM + start + 1) * _GAMMA) & _MASK64
        z = np.arange(trials, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(first)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(64 - bits)
        env[key] = z.astype(_DTYPES[bits], copy=False)
    return env


def _compare(lhs, rhs, env: dict, bits: int) -> CheckResult:
    lv = _eval_vec(lhs, env, bits)
    rv = _eval_vec(rhs, env, bits)
    neq = lv != rv
    if not neq.any():
        return CheckResult(True, None, len(lv))
    idx = int(np.argmax(neq))
    cex_env = {key.name if isinstance(key, PatVar) else key: int(v[idx])
               for key, v in env.items()}
    return CheckResult(False, (cex_env, int(lv[idx]), int(rv[idx])), idx + 1)


def _enumeration(keys: list, bits: int) -> tuple:
    """Every assignment to ``keys``, lexicographic in their order, as
    ``(cases, env_at)`` for :func:`_compare_chunks`.

    The trailing variables whose assignments fit in a chunk repeat the
    same table in every chunk, built once; each chunk fills only the
    leading variables, with ``np.repeat``.  Every chunk but a lone one
    holds ``_CHUNK`` cases, since both counts are powers of two."""
    size = 1 << bits
    total = size ** len(keys)
    chunk = min(total, _CHUNK)
    lead = len(keys)
    while lead and size ** (len(keys) - lead + 1) <= chunk:
        lead -= 1
    tail = _exhaustive_env(keys[lead:], bits)
    reps = chunk // size ** (len(keys) - lead)
    tail = {key: np.tile(v, reps) for key, v in tail.items()}

    def env_at(start: int, n: int) -> dict:
        env = {}
        for i, key in enumerate(keys[:lead]):
            stride = size ** (len(keys) - 1 - i)  # cases per value
            values = max(n // stride, 1)  # values in this chunk
            first = start // stride
            env[key] = np.repeat(
                (np.arange(first, first + values) % size).astype(
                    _DTYPES[bits]), n // values)
        env.update(tail)
        return env

    return total, env_at


def _sampling(keys: list, bits: int, trials: int, seed: int) -> tuple:
    """``trials`` random assignments to ``keys`` (see :func:`_random_env`)
    as ``(cases, env_at)`` for :func:`_compare_chunks`; with no variables
    every trial is the same one case."""
    def env_at(start: int, n: int) -> dict:
        return _random_env(keys, bits, n, seed, start)

    return (trials if keys else 1), env_at


def _compare_chunks(lhs, rhs, source: tuple, bits: int) -> CheckResult:
    """:func:`_compare` over every case of ``source``, an
    :func:`_enumeration` or a :func:`_sampling`, ``_CHUNK`` cases at a
    time (one chunk of them all when there are fewer).

    The check stops at the first chunk holding a counterexample, and the
    result is the one a single evaluation of every case gives."""
    cases, env_at = source
    for start in range(0, cases, _CHUNK):
        res = _compare(lhs, rhs, env_at(start, min(_CHUNK, cases - start)),
                       bits)
        if not res.passed:
            return CheckResult(False, res.counterexample,
                               start + res.cases_checked)
    return CheckResult(True, None, cases)


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
    return _compare_chunks(rule.lhs, rule.rhs, _enumeration(leaves, bits),
                           bits)


def check_rule_random(rule: Rule, bits: int, trials: int,
                      seed: int = 0) -> CheckResult:
    """Randomized soundness check: ``trials`` (1 to
    :data:`EXHAUSTIVE_CASE_LIMIT`) seeded assignments.  ``seed`` must be
    an ``int`` (a ``bool`` is not) of at least 0, or ValueError is raised
    before any check."""
    check_bitwidth(bits)
    _check_trials(trials)
    _check_seed(seed)
    return _compare_chunks(rule.lhs, rule.rhs,
                           _sampling(_rule_leaves(rule), bits, trials, seed),
                           bits)


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
    cases = (1 << bits) ** len(names)
    if cases <= EXHAUSTIVE_CASE_LIMIT:
        return _compare_chunks(a, b, _enumeration(names, bits), bits)
    return _compare_chunks(a, b, _sampling(names, bits, trials, seed), bits)


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
        for w in (4, 8):
            try:
                res = check_rule(rule, w)
                label = f"exhaustive@{w}"
            except TooManyCasesError:
                res = check_rule_random(rule, w, trials, seed)
                label = f"random@{w}"
            results.append((rule, label, res))
        results.append((rule, "random@64",
                        check_rule_random(rule, 64, trials, seed)))
    return results
