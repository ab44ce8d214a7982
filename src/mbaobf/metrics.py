"""Complexity metrics for expressions and corpus-level aggregation.

Six metrics per expression: AST size, variable / constant / operator
occurrence counts, mixed-operator alternation, and Shannon entropy of the
node labels.  Alternation counts parent-child edges between operator nodes
of different categories (arithmetic vs boolean); entropy is reported both
over all node labels and over leaf labels only, with the token variant as
the headline value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .expr import Expression, Op, Var, _fold, _tape


@dataclass(frozen=True)
class MetricsReport:
    ast_size: int
    var_count: int
    const_count: int
    op_count: int
    mba_alternation: int
    entropy_tokens: float
    entropy_leaves: float

    def as_dict(self) -> dict:
        """The fields in declaration order, each float rounded to 6
        places."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: round(v, 6) if isinstance(v, float) else v
                for k, v in out.items()}


class EmptyCorpusError(Exception):
    pass


def _entropy(counts: dict) -> float:
    """Shannon entropy in bits of the distribution ``counts`` (label ->
    count), summed exactly rounded, so that it depends on the counts alone
    and not on the order in which their labels were inserted."""
    total = sum(counts.values())
    return math.fsum(-c / total * math.log2(c / total)
                     for c in counts.values())


def measure(e: Expression) -> MetricsReport:
    """Compute all metrics of the tree ``e`` in one pass over its distinct
    subterms, each weighted by how often it occurs in the tree.

    Node labels for the entropy distributions: operator names (unary and
    binary minus are distinct), variable names, and constant values, with
    equal constants sharing a label.  Each entropy is an exactly rounded
    sum, so it is the tree walk's whatever order the labels are counted in.
    """
    order, kids = _tape(e)
    occurs = [0] * len(order)  # tree occurrences of each subterm
    occurs[-1] = 1
    for i in reversed(range(len(order))):  # parents before children
        n = occurs[i]
        for j in kids[i]:
            occurs[j] += n
    var_count = const_count = op_count = alternation = 0
    tokens: dict = {}  # label -> occurrences
    leaves: dict = {}
    for node, n in zip(order, occurs):
        if isinstance(node, Op):
            op_count += n
            label = ("op", node.op.name)
            category = node.op.category
            for child in node.args:
                if isinstance(child, Op) and child.op.category is not category:
                    alternation += n
        else:
            if isinstance(node, Var):
                var_count += n
                label = ("var", node.name)
            else:
                const_count += n
                label = ("const", node.value)
            leaves[label] = leaves.get(label, 0) + n
        tokens[label] = tokens.get(label, 0) + n
    return MetricsReport(
        ast_size=var_count + const_count + op_count,
        var_count=var_count,
        const_count=const_count,
        op_count=op_count,
        mba_alternation=alternation,
        entropy_tokens=_entropy(tokens),
        entropy_leaves=_entropy(leaves),
    )


def ground_share(e: Expression) -> float:
    """The share of the tree's nodes that lie in a variable-free operator
    subterm, in one fold over the distinct subterms.  A constant counts
    only inside such a subterm: ``x + 1`` reads 0 and ``(0 + 0) + x``
    reads 0.6.  Not a :class:`MetricsReport` field, so the bench JSONL
    and CSV do not carry it."""

    def leaf(node) -> tuple:
        # (tree nodes, whether a variable is among them, those in ground
        # operator subterms)
        return 1, isinstance(node, Var), 0

    def combine(node, *args) -> tuple:
        size = 1 + sum(a[0] for a in args)
        if any(a[1] for a in args):
            return size, True, sum(a[2] for a in args)
        return size, False, size

    size, _, ground = _fold(e, leaf, combine)
    return ground / size


@dataclass(frozen=True)
class AggregateReport:
    original: MetricsReport  # each field holds the mean over the corpus
    obfuscated: MetricsReport
    count: int


def _means(reports: list) -> MetricsReport:
    n = len(reports)
    return MetricsReport(**{
        f.name: sum(getattr(r, f.name) for r in reports) / n
        for f in fields(MetricsReport)
    })


def aggregate(pairs: list) -> AggregateReport:
    """Arithmetic means per metric over ``(original, obfuscated)`` pairs."""
    if not pairs:
        raise EmptyCorpusError("no measurements to aggregate")
    return AggregateReport(
        original=_means([p[0] for p in pairs]),
        obfuscated=_means([p[1] for p in pairs]),
        count=len(pairs),
    )


CSV_COLUMNS = ("ast_size", "var_count", "const_count", "op_count",
               "mba_alternation", "entropy")


def aggregate_csv(agg: AggregateReport) -> str:
    """Aggregate table as CSV, two decimals, entropy = token entropy."""
    lines = ["variant," + ",".join(CSV_COLUMNS)]
    for label, means in (("original", agg.original), ("obfuscated", agg.obfuscated)):
        values = [means.ast_size, means.var_count, means.const_count,
                  means.op_count, means.mba_alternation, means.entropy_tokens]
        lines.append(label + "," + ",".join(f"{v:.2f}" for v in values))
    return "\n".join(lines) + "\n"
