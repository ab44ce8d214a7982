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
from collections import Counter
from dataclasses import dataclass, fields

from .expr import Const, Expression, Op, Var, _subterms


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
        return {
            "ast_size": self.ast_size,
            "var_count": self.var_count,
            "const_count": self.const_count,
            "op_count": self.op_count,
            "mba_alternation": self.mba_alternation,
            "entropy_tokens": round(self.entropy_tokens, 6),
            "entropy_leaves": round(self.entropy_leaves, 6),
        }


class EmptyCorpusError(Exception):
    pass


def _entropy(counter: Counter) -> float:
    total = sum(counter.values())
    if total == 0:
        return 0.0
    h = 0.0
    for count in counter.values():
        p = count / total
        h -= p * math.log2(p)
    return h


def measure(e: Expression) -> MetricsReport:
    """Compute all metrics of the tree ``e`` in one pass over its distinct
    subterms, each weighted by how often it occurs in the tree.

    Node labels for the entropy distributions: operator names (unary and
    binary minus are distinct), variable names, and constant values, with
    equal constants sharing a label.  Labels enter the distributions in the
    order a stack walk of the tree first meets them, so the entropy sums
    add the same terms in the same order as that walk would.
    """
    order, refs = _subterms(e)
    occurs = dict.fromkeys(refs, 0)  # in the tree walk's first-meeting order
    occurs[id(e)] = 1
    for node in reversed(order):  # parents before children
        if isinstance(node, Op):
            for child in node.args:
                occurs[id(child)] += occurs[id(node)]
    by_id = {id(node): node for node in order}
    var_count = const_count = op_count = alternation = 0
    tokens: Counter = Counter()
    leaves: Counter = Counter()
    for key, n in occurs.items():
        node = by_id[key]
        if isinstance(node, Var):
            var_count += n
            tokens[("var", node.name)] += n
            leaves[("var", node.name)] += n
        elif isinstance(node, Const):
            const_count += n
            tokens[("const", node.value)] += n
            leaves[("const", node.value)] += n
        else:
            op_count += n
            tokens[("op", node.op.name)] += n
            for child in node.args:
                if isinstance(child, Op) and child.op.category != node.op.category:
                    alternation += n
    return MetricsReport(
        ast_size=var_count + const_count + op_count,
        var_count=var_count,
        const_count=const_count,
        op_count=op_count,
        mba_alternation=alternation,
        entropy_tokens=_entropy(tokens),
        entropy_leaves=_entropy(leaves),
    )


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
