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

Each round is one numpy sweep over every e-node of the graph, laid out as
flat arrays (each node's class and child classes), against a float table
of the previous round's class costs.  A class's history is its change
points, one per round in which its cost rose; each round's changes are
kept as arrays and sorted by (class, round) once the rounds are done.
Reconstruction descends through the round at which each chosen node's
cost was computed, so the output is a finite tree of depth at most
``rounds`` whose size equals the root's cost.  ``rounds`` is at most
:data:`mbaobf.expr.MAX_DEPTH`, the depth ``parse`` admits.  Each (class,
round) is built once and shared wherever it recurs, like egg's
``RecExpr``.  Ties between equal-cost nodes break by the smallest node in
plain tuple order (label, payload, child ids): runs are deterministic.
A leaf costs 1 and an operator node at least 2, so a leaf never ties an
operator and round 0 takes each class's first leaf.

The minimizing :func:`extract_min` is the same program with the cost
``-size`` and ``MAX_DEPTH`` rounds: it finds the smallest term of depth at
most ``MAX_DEPTH`` and raises :class:`UnextractableError` when a class has
none, which only a hand-built graph can cause.

The node budget is the e-graph's cap, checked nowhere else: the first
application it refuses is rolled back and ends growth with ``NodeLimit``;
an input over it raises :class:`~mbaobf.egraph.CapacityExceededError`.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .egraph import CapacityExceededError, EGraph
from .expr import (DEFAULT_BITWIDTH, MAX_DEPTH, OPERATORS, Expression,
                   expr_size)
from .metrics import MetricsReport, measure
from .rules import _label_index, apply_match, ematch
# Unused here; perfbench's tracer still looks it up in this module.
from .rules import count_new_nodes  # noqa: F401


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


# The largest ``max_output_nodes``: at this cap ``x + y`` already renders
# to ~50 MB, and every cost the maximizing extractor compares (at most
# twice the cap plus one) stays exact in its float table.
MAX_OUTPUT_NODES = 2**24


@dataclass(frozen=True)
class ExpansionConfig:
    """Termination conditions and extraction knobs for one run, each
    defined and checked here.  ``node_limit`` is the e-graph's exact node
    cap; ``time_limit`` (seconds) and ``target_ast_size`` may be None, the
    other limits are required.  ``time_limit`` is an ``int`` or ``float``,
    every other limit an ``int``, and none a ``bool``.  ``extraction_rounds``
    lies in ``[1, MAX_DEPTH]`` and ``max_output_nodes`` in
    ``[1, MAX_OUTPUT_NODES]``.
    """

    node_limit: int = 3000
    iter_limit: int = 30
    time_limit: Optional[float] = 2.0
    target_ast_size: Optional[int] = None
    extraction_rounds: int = 64
    max_output_nodes: int = 10_000

    def __post_init__(self):
        for name in ("node_limit", "iter_limit", "max_output_nodes",
                     "extraction_rounds"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required")
        for name in ("node_limit", "iter_limit", "target_ast_size"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name))
        t = self.time_limit
        if t is not None and (type(t) is bool
                              or not isinstance(t, (int, float))):
            raise ValueError(f"time_limit must be a number, got {t!r}")
        # Written so that NaN, which compares False, fails every check.
        for name in ("node_limit", "iter_limit", "time_limit",
                     "target_ast_size"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        _check_output_cap(self.max_output_nodes)
        _check_rounds(self.extraction_rounds)


def _check_int(name: str, value) -> None:
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_rounds(rounds: int) -> None:
    _check_int("extraction rounds", rounds)
    if not 1 <= rounds <= MAX_DEPTH:
        raise ValueError(f"extraction rounds must be between 1 and "
                         f"{MAX_DEPTH}, got {rounds}")


def _check_output_cap(max_nodes: int) -> None:
    _check_int("max_output_nodes", max_nodes)
    if not 1 <= max_nodes <= MAX_OUTPUT_NODES:
        raise ValueError(f"max_output_nodes must be at most "
                         f"{MAX_OUTPUT_NODES} and at least 1, got {max_nodes}")


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


def extract_max(g: EGraph, root: int, rounds: int,
                max_nodes: int) -> Expression:
    """Largest term for ``root`` derivable with depth at most ``rounds``
    and at most ``max_nodes`` nodes.

    ``rounds`` lies in ``[1, MAX_DEPTH]`` and ``max_nodes`` in
    ``[1, MAX_OUTPUT_NODES]``.  The result's size is nondecreasing in
    ``rounds``; its subterms are shared.
    """
    _check_rounds(rounds)
    _check_output_cap(max_nodes)
    return _extract(g, root, rounds, 1, max_nodes)


def extract_min(g: EGraph, root: int) -> Expression:
    """Smallest term for ``root`` of depth at most ``MAX_DEPTH``: the
    classical minimizing extraction.  Every cost is negative, so no size
    cap applies; costs are exact for terms under 2^53 nodes."""
    return _extract(g, root, MAX_DEPTH, -1, 0)


def _extract(g: EGraph, root: int, rounds: int, sign: int,
             max_nodes: int) -> Expression:
    """The round-indexed DP that maximizes ``sign * size``, one array
    sweep over every e-node per round.

    Class ``slot`` is the ``slot``-th canonical id; its nodes, sorted as
    tuples, are the flat run starting at ``starts[slot]``.  Round 0 gives
    each class holding a leaf its first leaf, which need not be its first
    node.
    ``columns[k]`` holds each node's ``k``-th child slot, or the virtual
    slot ``n`` of cost 0 where the node has fewer children.  ``cost``
    holds the previous round's float costs, ``_UNDEFINED`` where no term
    is known.  A class changes only when a node strictly beats its cost,
    and then takes the first node in sort order reaching the new maximum,
    so on ties the earlier choice (the smaller node) is kept.  Each
    round's changes are kept as ``(round, slots, nodes)`` arrays.
    """
    root = g.find(root)
    members = g.classes()
    cids = list(members)
    n = len(cids)
    nodes = []
    starts = []
    for class_nodes in members.values():
        starts.append(len(nodes))
        nodes.extend(sorted(class_nodes))
    starts = np.array(starts)
    owner = np.repeat(np.arange(n), np.diff(starts, append=len(nodes)))
    slot_of = np.full(cids[-1] + 2, n)  # index -1 is no class: virtual
    slot_of[cids] = np.arange(n)
    kids = [nd.children for nd in nodes]
    columns = [slot_of[np.array([ch[k] if k < len(ch) else -1
                                 for ch in kids])]
               for k in range(max(op.arity for op in OPERATORS.values()))]
    cost = np.full(n + 1, _UNDEFINED)
    cost[n] = 0.0
    # Round 0: each class with a leaf takes its first leaf.
    leaves = np.flatnonzero(columns[0] == n)
    seeded, first = np.unique(owner[leaves], return_index=True)
    cost[seeded] = sign
    changes = [(np.zeros(len(seeded), np.intp), seeded, leaves[first])]
    for r in range(1, rounds + 1):
        total = cost[columns[0]]
        for column in columns[1:]:
            total += cost[column]
        total += sign
        total[total > max_nodes] = _UNDEFINED
        best = np.maximum.reduceat(total, starts)
        slots = np.flatnonzero(best > cost[:n])
        if not slots.size:
            break  # fixpoint; further rounds would be identical
        # Each changed class's first node reaching its maximum: nodes are
        # grouped by class, so that is the first such node at or past the
        # class's start.
        hits = np.flatnonzero(total == best[owner])
        firsts = hits[np.searchsorted(owner[hits], slots)]
        cost[slots] = best[slots]  # a round reads only the last one
        changes.append((np.full(len(slots), r), slots, firsts))
    rounds_at, slots, picks = map(np.concatenate, zip(*changes))
    order = np.argsort(slots, kind="stable")  # by slot, then by round
    history = (cids, nodes, rounds_at[order], picks[order],
               np.searchsorted(slots[order], np.arange(n + 1)), {})
    return _reconstruct(g, history, bisect_left(cids, root), rounds, {})


def _reconstruct(g: EGraph, history: tuple, slot: int, r: int,
                 built: dict) -> Expression:
    """The term chosen for class ``slot`` at round ``r``: its last change
    point at or before ``r``.

    ``history`` is ``(cids, nodes, rounds, picks, bounds, reached)``: the
    class's change points are entries ``bounds[slot]:bounds[slot + 1]``
    of the ``rounds`` and ``picks`` (node index) arrays, turned into
    lists in ``reached`` the first time the class is visited.  ``built``
    maps (slot, round of that change point) to the term built for it, so
    each subterm is built once and shared.
    """
    cids, nodes, rounds, picks, bounds, reached = history
    points = reached.get(slot)
    if points is None:
        lo, hi = bounds[slot], bounds[slot + 1]
        points = reached[slot] = (rounds[lo:hi].tolist(),
                                  picks[lo:hi].tolist())
    i = bisect_right(points[0], r)
    if i == 0:
        raise UnextractableError(cids[slot])
    rc = points[0][i - 1]
    e = built.get((slot, rc))
    if e is None:
        node = nodes[points[1][i - 1]]
        e = g.expr_of_node(node, tuple([
            _reconstruct(g, history, bisect_left(cids, c), rc - 1, built)
            for c in node.children]))
        built[slot, rc] = e
    return e


# ---------------------------------------------------------------------------
# The growth loop
# ---------------------------------------------------------------------------

_TIME_CHECK_STRIDE = 256  # applications between wall-clock checks


def expand(e: Expression, rules: list, cfg: Optional[ExpansionConfig] = None,
           bits: int = DEFAULT_BITWIDTH) -> ExpansionReport:
    """Grow an e-graph from ``e`` under ``rules`` and extract the result.

    Each iteration indexes the rebuilt graph once, then takes the rules in
    order: it matches one rule against the index and applies its matches
    before it matches the next, and it rebuilds at the end.  So every rule
    sees the graph as it stood when the iteration began, as if all were
    matched up front, but a rule is matched only if growth reaches it.
    The first application that would pass ``node_limit``, the e-graph's
    cap, is rolled back and ends growth with ``NodeLimit``; the matches and
    rules after it lose their turn.  Otherwise the loop stops on whichever
    termination condition fires first.  The wall clock is read between
    iterations, before each rule is matched and every
    ``_TIME_CHECK_STRIDE`` applications.  An input that no rule matches is
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
        changed = False
        applied = 0  # this iteration's applications, across rules
        for rule in rules:
            if timed_out():
                stop = StopReason.TIME_LIMIT
                break
            for m in ematch(g, rule, index):
                if (applied % _TIME_CHECK_STRIDE == 0 and applied
                        and timed_out()):
                    stop = StopReason.TIME_LIMIT
                    break
                try:
                    changed |= apply_match(g, rule, m)
                except CapacityExceededError:
                    stop = StopReason.NODE_LIMIT
                    break
                applied += 1
            if stop is not None:
                break
        del index  # frees it before the graph is rebuilt and re-indexed
        g.rebuild()
        iterations += 1
        if stop is not None:
            break
        if not changed:
            stop = StopReason.SATURATED
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
