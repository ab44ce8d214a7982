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

from .expr import (Const, Expression, Var, _fold, check_bitwidth, free_vars,
                   mask_of)
from .rules import PatVar, Rule

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


def _random_env(keys: list, bits: int, trials: int, seed: int) -> dict:
    # Without a sample every random check would pass.
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    return {key: rng.integers(0, 1 << bits, size=trials,
                              dtype=np.uint64).astype(_DTYPES[bits])
            for key in keys}


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
    env = _exhaustive_env(leaves, bits)
    return _compare(rule.lhs, rule.rhs, env, bits)


def check_rule_random(rule: Rule, bits: int, trials: int,
                      seed: int = 0) -> CheckResult:
    """Randomized soundness check: ``trials`` (at least 1) seeded
    assignments."""
    check_bitwidth(bits)
    env = _random_env(_rule_leaves(rule), bits, trials, seed)
    return _compare(rule.lhs, rule.rhs, env, bits)


def check_equivalence(a: Expression, b: Expression, bits: int,
                      trials: int = 1000, seed: int = 0) -> CheckResult:
    """Check two expressions for equal value on every environment.

    Exhaustive when the environment space fits the feasibility limit,
    otherwise ``trials`` (at least 1) seeded random environments over the
    union of the free variables.
    """
    check_bitwidth(bits)
    names = sorted(free_vars(a) | free_vars(b))
    cases = (1 << bits) ** len(names)
    if cases <= EXHAUSTIVE_CASE_LIMIT:
        env = _exhaustive_env(names, bits)
    else:
        env = _random_env(names, bits, trials, seed)
    return _compare(a, b, env, bits)


def check_rules(rules: list, trials: int = 10_000, seed: int = 0) -> list:
    """Admission check for a ruleset: each rule at 4 and 8 bits, then at 64.

    A width is checked exhaustively where that is feasible and with
    ``trials`` seeded random assignments otherwise; 64 bits always takes
    the random check.  Returns ``[(rule, label, result)]`` for every check
    performed, in order, where ``label`` names the check that ran:
    ``exhaustive@8``, ``random@8`` or ``random@64``.  ``trials`` below 1
    raises ValueError at the first random check.
    """
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
