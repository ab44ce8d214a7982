"""Solver-free equivalence checking.

Rule soundness and end-to-end obfuscation equivalence are both discharged
by direct evaluation over the finite value domain: exhaustively when the
assignment space is small enough (at most ``2**24`` cases), otherwise by
seeded random sampling.  There is deliberately no SMT dependency; at these
widths plain evaluation is decisive and fast.

Evaluation here is vectorized with numpy over all assignments at once.  It
applies the same per-operator functions as the scalar
:func:`mbaobf.expr.evaluate`, taken from the operator table
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

from .expr import Const, Expression, _fold, free_vars, mask_of
from .rules import Rule

EXHAUSTIVE_CASE_LIMIT = 1 << 24

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
    passed.  ``cases_checked`` counts assignments evaluated up to and
    including the counterexample.
    """

    passed: bool
    counterexample: Optional[tuple]
    cases_checked: int


def _eval_vec(node, env: dict, bits: int) -> np.ndarray:
    """Evaluate an expression or pattern over per-variable value arrays.

    Each distinct subterm is evaluated once, and its array is freed as soon
    as its last parent has read it.
    """
    dtype = _DTYPES[bits]
    m = dtype(mask_of(bits))
    width = len(next(iter(env.values()))) if env else 1

    def leaf(node) -> np.ndarray:
        if isinstance(node, Const):
            return np.full(width, node.value & int(m), dtype=dtype)
        return env[node.name]  # a Var or a PatVar

    with np.errstate(over="ignore"):
        return _fold(node, leaf, lambda op, *args: op.op.fn(*args, m))


def _exhaustive_env(names: list, bits: int) -> dict:
    """All assignments, lexicographic in the sorted variable names."""
    size = 1 << bits
    total = size ** len(names)
    env = {}
    for i, name in enumerate(names):
        reps = size ** (len(names) - 1 - i)
        block = np.repeat(np.arange(size, dtype=_DTYPES[bits]), reps)
        env[name] = np.tile(block, total // (reps * size))
    return env


def _random_env(names: list, bits: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {name: rng.integers(0, 1 << bits, size=trials,
                               dtype=np.uint64).astype(_DTYPES[bits])
            for name in names}


def _compare(lhs, rhs, names: list, env: dict, bits: int) -> CheckResult:
    lv = _eval_vec(lhs, env, bits)
    rv = _eval_vec(rhs, env, bits)
    neq = lv != rv
    if not neq.any():
        return CheckResult(True, None, len(lv))
    idx = int(np.argmax(neq))
    cex_env = {name: int(env[name][idx]) for name in names}
    return CheckResult(False, (cex_env, int(lv[idx]), int(rv[idx])), idx + 1)


def check_rule(rule: Rule, bits: int) -> CheckResult:
    """Exhaustive soundness check of a rule at the given width.

    Treats pattern variables as free variables and compares both sides over
    every assignment.  Raises :class:`TooManyCasesError` when the assignment
    space exceeds the feasibility limit (fall back to
    :func:`check_rule_random`).
    """
    names = rule.program.names  # every RHS variable is on the left
    cases = (1 << bits) ** len(names)
    if cases > EXHAUSTIVE_CASE_LIMIT:
        raise TooManyCasesError(cases)
    env = _exhaustive_env(names, bits)
    return _compare(rule.lhs, rule.rhs, names, env, bits)


def check_rule_random(rule: Rule, bits: int, trials: int,
                      seed: int = 0) -> CheckResult:
    """Randomized soundness check: ``trials`` seeded assignments."""
    names = rule.program.names  # every RHS variable is on the left
    env = _random_env(names, bits, trials, seed)
    return _compare(rule.lhs, rule.rhs, names, env, bits)


def check_equivalence(a: Expression, b: Expression, bits: int,
                      trials: int = 1000, seed: int = 0) -> CheckResult:
    """Check two expressions for equal value on every environment.

    Exhaustive when the environment space fits the feasibility limit,
    otherwise ``trials`` seeded random environments over the union of the
    free variables.
    """
    names = sorted(free_vars(a) | free_vars(b))
    cases = (1 << bits) ** len(names)
    if cases <= EXHAUSTIVE_CASE_LIMIT:
        env = _exhaustive_env(names, bits)
    else:
        env = _random_env(names, bits, trials, seed)
    return _compare(a, b, names, env, bits)


def check_rules(rules: list, trials: int = 10_000, seed: int = 0) -> list:
    """Admission check for a ruleset: each rule at 4 and 8 bits, then at 64.

    A width is checked exhaustively where that is feasible and with
    ``trials`` seeded random assignments otherwise; 64 bits always takes
    the random check.  Returns ``[(rule, label, result)]`` for every check
    performed, in order, where ``label`` names the check that ran:
    ``exhaustive@8``, ``random@8`` or ``random@64``.  ``trials`` must be at
    least 1, or the random checks would pass without sampling anything.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
