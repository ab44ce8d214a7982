"""Workload definitions, the seeded input generator and the pipeline under test.

Everything here drives the program through its public API only (the names
exported by ``mbaobf``), so the untraced run keeps working when internals
are renamed or inlined.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent

# One thread: numpy reads these when it is first imported.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import ``mbaobf`` from the checkout's ``src``; exit non-zero if absent."""
    src = ROOT / "src"
    if not (src / "mbaobf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import mbaobf
    return mbaobf


# ---------------------------------------------------------------------------
# Input generator: the generator of scripts/make_corpus.py, seed as argument
# ---------------------------------------------------------------------------

CORPUS_SEED = 20240221  # reproduces corpus/sample100.txt
SIZE_CHOICES = (3, 3, 5, 5, 5, 7, 7, 7, 7, 9, 9, 11, 13)
BINARY_SYMBOLS = ("+", "-", "*", "&", "|", "^")  # add sub mul and or xor
UNARY_SYMBOLS = ("-", "~")  # neg not
CONST_LEAF_PROB = 0.03
UNARY_PROB = 0.12


def _tree(rng: random.Random, size: int, pool: list):
    """A tree of exactly ``size`` nodes: a leaf string or (symbol, *children).

    Draws from ``rng`` in the same order as the corpus script, so equal seeds
    give equal expressions.
    """
    if size == 1:
        if rng.random() < CONST_LEAF_PROB:
            return str(rng.randint(1, 9))
        return rng.choice(pool)
    if size == 2 or rng.random() < UNARY_PROB:
        return (rng.choice(UNARY_SYMBOLS), _tree(rng, size - 1, pool))
    left = rng.randint(1, size - 2)
    return (rng.choice(BINARY_SYMBOLS), _tree(rng, left, pool),
            _tree(rng, size - 1 - left, pool))


def _text(tree) -> str:
    if isinstance(tree, str):
        return tree
    if len(tree) == 2:
        return f"({tree[0]} {_text(tree[1])})"
    return f"({_text(tree[1])} {tree[0]} {_text(tree[2])})"


def _variables(tree) -> set:
    if isinstance(tree, str):
        return set() if tree.isdigit() else {tree}
    return set().union(*(_variables(t) for t in tree[1:]))


def expressions(seed: int, n_vars: Optional[int] = None) -> Iterator[str]:
    """Endless stream of corpus-style expressions over 2-3 variables.

    With ``n_vars`` set, only the lines with exactly that many distinct
    variables are kept; the others are drawn and dropped, so the kept lines
    are a subsequence of the unfiltered stream for the same seed.
    """
    rng = random.Random(seed)
    while True:
        count = 3 if rng.random() < 0.14 else 2
        pool = ["x", "y", "z"][:count]
        tree = _tree(rng, rng.choice(SIZE_CHOICES), pool)
        if len(_variables(tree)) != count:
            continue
        if n_vars is None or count == n_vars:
            yield _text(tree)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One set of inputs and flags; README.md says why each exists."""

    name: str
    bits: int
    n_vars: Optional[int]  # None: the corpus mix of 2 and 3 variables
    selfcheck: bool
    # Lines per run-second.  A run processes a fixed number of lines, so
    # both sides of a comparison see the same inputs and the output digest
    # is stable.  At 30 s: 40 lines where lines are cheap, enough for a p75
    # tail; 24 on grow-large, where a line costs ~2.1 s and per-line cost
    # variation still spreads its throughput ~8% across seeds.
    rate: float
    config: dict = field(default_factory=dict)  # ExpansionConfig fields

    def count(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))

    def expansion_config(self, mbaobf):
        return mbaobf.ExpansionConfig(**self.config)


# The CLI's defaults, spelled out so the workload does not move when a
# library default does.  ExpansionConfig.seed is left out: nothing reads it.
_DEFAULTS = dict(node_limit=3000, iter_limit=30, time_limit=2.0,
                 extraction_rounds=64, max_output_nodes=10_000)
# The --seed of acceptance criterion 7's flags, used for selfchecks.  With 2
# variables at 8 bits the check is exhaustive and the seed has no effect.
SELFCHECK_SEED = 7

WORKLOADS = {wl.name: wl for wl in (
    # What a user's `mbaobf bench` runs; e-graph growth dominates.
    Workload("corpus-default", bits=64, n_vars=None, selfcheck=False,
             rate=4 / 3, config=_DEFAULTS),
    # Only the e-graph grows: how the egraph and rules layers scale.
    Workload("grow-large", bits=64, n_vars=None, selfcheck=False, rate=0.8,
             config={**_DEFAULTS, "node_limit": 8000,
                     "max_output_nodes": 2000, "time_limit": 600.0}),
    # Acceptance criterion 7's flags at 8 bits: a small graph, a large
    # output to extract, measure and verify exhaustively.
    Workload("output-selfcheck", bits=8, n_vars=2, selfcheck=True, rate=4.0,
             config={**_DEFAULTS, "node_limit": 400, "time_limit": 600.0}),
)}


# ---------------------------------------------------------------------------
# Set-up and the per-line pipeline
# ---------------------------------------------------------------------------


def admit(mbaobf, rules: list, seed: int = 0) -> None:
    """The CLI's rule admission: exhaustive at 4 and 8 bits (4096 random
    trials where that is infeasible), then 1000 random 64-bit trials."""
    for rule in rules:
        checks = []
        for width in (4, 8):
            try:
                checks.append((width, mbaobf.check_rule(rule, width)))
            except mbaobf.TooManyCasesError:
                checks.append((width, mbaobf.check_rule_random(
                    rule, width, 4096, seed)))
        checks.append((64, mbaobf.check_rule_random(rule, 64, 1000, seed)))
        for width, res in checks:
            if not res.passed:
                raise RuntimeError(f"rule {rule.name!r} rejected at {width} "
                                   f"bits: {res.counterexample}")


def set_up(mbaobf) -> list:
    """Load the default rules and admit them, as the CLI does before a run."""
    rules = mbaobf.load_default_rules()
    admit(mbaobf, rules)
    return rules


class SelfcheckFailed(Exception):
    """The program's own selfcheck found a counterexample."""


@dataclass(frozen=True)
class Pipeline:
    """The four library calls ``mbaobf bench`` makes for each line."""

    parse: Callable
    expand: Callable
    to_text: Callable
    check_equivalence: Callable

    @classmethod
    def plain(cls, mbaobf) -> "Pipeline":
        return cls(mbaobf.parse, mbaobf.expand, mbaobf.to_text,
                   mbaobf.check_equivalence)

    def run(self, text: str, wl: Workload, rules: list, cfg):
        """parse -> expand -> to_text -> selfcheck if on, as bench does."""
        expr = self.parse(text, wl.bits)
        report = self.expand(expr, rules, cfg, wl.bits)
        out_text = self.to_text(report.output)
        if wl.selfcheck:
            res = self.check_equivalence(expr, report.output, wl.bits,
                                         trials=1000, seed=SELFCHECK_SEED)
            if not res.passed:
                raise SelfcheckFailed(f"{text}: {res.counterexample}")
        return expr, report, out_text
