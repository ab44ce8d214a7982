"""Expression growth: saturate-in-reverse scheduling and extraction.

The classic e-graph workflow runs rewrite rules to a fixpoint and extracts
the *cheapest* equivalent term.  This module inverts the second half: the
graph is grown under resource-bounded termination conditions (node budget,
iteration budget, wall-clock budget, optional target output size) and the
*most complex* term is extracted.

Maximizing extraction needs care because a grown e-graph is cyclic (a class
can contain a node that refers back to the class, e.g. ``x`` alongside
``x * 1``), so "the largest equivalent term" has no finite supremum.  The
extractor therefore runs a round-indexed dynamic program:

* ``cost(class, 0)`` is defined only for classes holding a leaf (cost 1);
* ``cost(class, r)`` is the maximum of ``1 + sum(cost(child, r-1))`` over
  the class's nodes whose children are all defined at round ``r-1``,
  carrying ``cost(class, r-1)`` forward when no candidate beats it;
* candidates whose total would exceed the output-size budget are skipped,
  which keeps every defined cost (and hence the materialized output)
  within ``max_output_nodes`` even on cyclic graphs.

Each class's history is stored as change points ``[(round, cost, node),
...]``, one per round in which its cost rose.  Reconstruction descends
through the round at which each chosen node's cost was computed, so the
output is a finite tree of depth at most ``rounds`` whose size equals the
root's cost.  ``rounds`` is at most :data:`mbaobf.expr.MAX_DEPTH`, the
depth ``parse`` admits.  Each (class, round) is built once and shared
wherever it recurs, like egg's ``RecExpr``.  Ties between equal-cost nodes
break by the smallest node (label order, then child ids): runs are
deterministic.

The minimizing :func:`extract_min` is the same program with the cost
``-size`` and ``MAX_DEPTH`` rounds: it finds the smallest term of depth at
most ``MAX_DEPTH`` and raises :class:`UnextractableError` when a class has
none, which only a hand-built graph can cause.

The node budget is the e-graph's hard cap; an input whose graph alone
exceeds it raises :class:`~mbaobf.egraph.CapacityExceededError`.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Optional

from .egraph import EGraph, ENode
from .expr import DEFAULT_BITWIDTH, MAX_DEPTH, Expression, expr_size
from .metrics import MetricsReport, measure
from .rules import _label_index, apply_match, count_new_nodes, ematch


class StopReason(Enum):
    NODE_LIMIT = "NodeLimit"
    ITER_LIMIT = "IterLimit"
    TIME_LIMIT = "TimeLimit"
    TARGET_SIZE = "TargetSizeReached"
    SATURATED = "Saturated"


class UnextractableError(Exception):
    """No term derivable for this class within the given rounds."""

    def __init__(self, cid):
        self.cid = cid
        super().__init__(f"no term extractable for class {cid} within the "
                         f"round budget")


class OutputTooLargeError(Exception):
    def __init__(self, estimate: int, limit: int):
        self.estimate = estimate
        self.limit = limit
        super().__init__(f"output would need ~{estimate} nodes, above the "
                         f"configured limit of {limit}")


@dataclass(frozen=True)
class ExpansionConfig:
    """Termination conditions and extraction knobs for one run, each
    defined and checked here.  ``node_limit`` is the e-graph's exact node
    cap; ``time_limit`` (seconds) and ``target_ast_size`` may be None, the
    other limits are required.  ``extraction_rounds`` lies in
    ``[1, MAX_DEPTH]``.
    """

    node_limit: int = 3000
    iter_limit: int = 30
    time_limit: Optional[float] = 2.0
    target_ast_size: Optional[int] = None
    extraction_rounds: int = 64
    max_output_nodes: int = 10_000

    def __post_init__(self):
        for name in ("node_limit", "iter_limit", "max_output_nodes"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required")
        for name in ("node_limit", "iter_limit", "time_limit",
                     "target_ast_size", "max_output_nodes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        _check_rounds(self.extraction_rounds)


def _check_rounds(rounds: int) -> None:
    if not 1 <= rounds <= MAX_DEPTH:
        raise ValueError(f"extraction rounds must be between 1 and "
                         f"{MAX_DEPTH}, got {rounds}")


@dataclass(frozen=True)
class ExpansionReport:
    output: Expression
    stop: StopReason
    iterations: int
    final_node_count: int
    elapsed: float
    metrics_in: MetricsReport
    metrics_out: MetricsReport


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

_UNDEFINED = float("-inf")  # the cost of a class no term reaches yet
_ROUND = itemgetter(0)  # a change point's round


def extract_max(g: EGraph, root: int, rounds: int,
                max_nodes: int) -> Expression:
    """Largest term for ``root`` derivable with depth at most ``rounds``
    and at most ``max_nodes`` nodes.

    ``rounds`` lies in ``[1, MAX_DEPTH]``.  The result's size is
    nondecreasing in ``rounds``; its subterms are shared.
    """
    _check_rounds(rounds)
    return _extract(g, root, rounds, 1, max_nodes)


def extract_min(g: EGraph, root: int) -> Expression:
    """Smallest term for ``root`` of depth at most ``MAX_DEPTH``: the
    classical minimizing extraction.  Every cost is negative, so no size
    cap applies."""
    return _extract(g, root, MAX_DEPTH, -1, 0)


def _extract(g: EGraph, root: int, rounds: int, sign: int,
             max_nodes: int) -> Expression:
    """The round-indexed DP that maximizes ``sign * size``.

    ``cost`` holds each class's cost as of the previous round, and
    ``history`` its change points ``[(round, cost, node), ...]``: an entry
    is appended only in a round where a node strictly beats the class's
    last one, so on ties the earlier choice (the smaller node) is kept.
    """
    classes = [(cid, sorted(g.nodes_of(cid), key=ENode.sort_key))
               for cid in g.class_ids()]
    cost = {}
    history = {}
    for cid, nodes in classes:
        for n in nodes:  # sorted, so the first leaf is the smallest one
            if n.is_leaf():
                cost[cid] = sign
                history[cid] = [(0, sign, n)]
                break
    for r in range(1, rounds + 1):
        updates = []
        for cid, nodes in classes:
            top = cost.get(cid, _UNDEFINED)
            best = None
            for n in nodes:
                total = sign
                for child in n.children:
                    c = cost.get(child)
                    if c is None:
                        break
                    total += c
                else:
                    if top < total <= max_nodes:
                        top = total
                        best = n
            if best is not None:
                updates.append((cid, top, best))
        if not updates:
            break  # fixpoint; further rounds would be identical
        for cid, top, best in updates:  # a round reads only the last one
            cost[cid] = top
            history.setdefault(cid, []).append((r, top, best))
    return _reconstruct(g, history, g.find(root), rounds, {})


def _reconstruct(g: EGraph, history: dict, cid: int, r: int,
                 built: dict) -> Expression:
    """The term chosen for ``cid`` at round ``r``: its last change point at
    or before ``r``.  ``built`` maps (class, round of that change point) to
    the term built for it, so each subterm is built once and shared."""
    entries = history.get(cid, ())
    i = bisect_right(entries, r, key=_ROUND)
    if i == 0:
        raise UnextractableError(cid)
    rc, _, node = entries[i - 1]
    e = built.get((cid, rc))
    if e is None:
        e = g.expr_of_node(node, tuple([_reconstruct(g, history, c, rc - 1,
                                                     built)
                                        for c in node.children]))
        built[cid, rc] = e
    return e


# ---------------------------------------------------------------------------
# The growth loop
# ---------------------------------------------------------------------------

_TIME_CHECK_STRIDE = 256  # applications between wall-clock checks


def expand(e: Expression, rules: list, cfg: Optional[ExpansionConfig] = None,
           bits: int = DEFAULT_BITWIDTH) -> ExpansionReport:
    """Grow an e-graph from ``e`` under ``rules`` and extract the result.

    Each iteration matches every rule against the rebuilt graph, applies
    all matches (skipping any whose application would push the node count
    past ``node_limit``), then rebuilds.  The loop stops on whichever
    termination condition fires first; an input that no rule matches is
    returned unchanged with ``Saturated`` (a no-op, not an error).  An
    input larger than ``max_output_nodes`` raises
    :class:`OutputTooLargeError`, and one whose graph alone holds more than
    ``node_limit`` nodes raises
    :class:`~mbaobf.egraph.CapacityExceededError`.

    The rules are trusted here: admit them through the soundness checker
    first and the output is equivalent to the input by construction.
    """
    if cfg is None:
        cfg = ExpansionConfig()
    if expr_size(e) > cfg.max_output_nodes:
        raise OutputTooLargeError(expr_size(e), cfg.max_output_nodes)
    g = EGraph(bits=bits, max_nodes=cfg.node_limit)
    root = g.add_expr(e)
    g.rebuild()

    start = time.monotonic()

    def timed_out() -> bool:
        return (cfg.time_limit is not None
                and time.monotonic() - start >= cfg.time_limit)

    stop: Optional[StopReason] = None
    output: Optional[Expression] = None
    iterations = 0
    while stop is None:
        if iterations >= cfg.iter_limit:
            stop = StopReason.ITER_LIMIT
            break
        if timed_out():
            stop = StopReason.TIME_LIMIT
            break
        index = _label_index(g)
        matches = []  # frees the last round's matches before matching
        for rule in rules:
            for m in ematch(g, rule, index):
                matches.append((rule, m))
        del index  # frees it before the graph grows and the next is built
        changed = False
        skipped = False
        hit_time = False
        for i, (rule, m) in enumerate(matches):
            if i % _TIME_CHECK_STRIDE == 0 and i and timed_out():
                hit_time = True
                break
            # Skip when the match would add more than `room` nodes; the dry
            # run is needed only when the RHS could.
            room = cfg.node_limit - g.node_count()
            if rule.bound > room and count_new_nodes(
                    g, rule, m, limit=room) > room:
                skipped = True
                continue
            if apply_match(g, rule, m):
                changed = True
        g.rebuild()
        iterations += 1
        if hit_time:
            stop = StopReason.TIME_LIMIT
        elif not changed:
            stop = StopReason.NODE_LIMIT if skipped else StopReason.SATURATED
        elif g.node_count() >= cfg.node_limit:
            stop = StopReason.NODE_LIMIT
        elif cfg.target_ast_size is not None:
            candidate = extract_max(g, root, cfg.extraction_rounds,
                                    cfg.max_output_nodes)
            if expr_size(candidate) >= cfg.target_ast_size:
                stop = StopReason.TARGET_SIZE
                output = candidate
        if stop is None and timed_out():
            stop = StopReason.TIME_LIMIT

    if output is None:
        output = extract_max(g, root, cfg.extraction_rounds,
                             cfg.max_output_nodes)
    elapsed = time.monotonic() - start
    return ExpansionReport(
        output=output,
        stop=stop,
        iterations=iterations,
        final_node_count=g.node_count(),
        elapsed=elapsed,
        metrics_in=measure(e),
        metrics_out=measure(output),
    )
