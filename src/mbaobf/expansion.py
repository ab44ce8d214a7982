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

Each call lays the graph out as flat arrays (each node's class and child
classes) from one walk of the hashcons, and each round is one numpy sweep
against a float table of the previous round's class costs, indexed by
canonical class id, round 0 included: it starts from a table that knows
no term, so only leaves reach a cost in it.  Since child costs only
rise, a node whose total has passed the output cap can never change its
class again, and the sweep drops it.  On the corpus at the defaults
about a tenth of the nodes are left from round 13 on.  A class's history
is its change points, one per round in which its cost rose.  Each
round's changes are kept as arrays, concatenated in round order and
never sorted: reconstruction looks a class's points up by binary search
when it first visits the class, and it visits only a few.
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
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .egraph import CapacityExceededError, EGraph
from .expr import DEFAULT_BITWIDTH, MAX_DEPTH, Expression, expr_size
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
# to ~50 MB, and every value the maximizing extractor compares stays exact
# in its float table: its costs are shifted by one, so a node's value is
# at most twice the cap plus two.
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
    sweep per round over the nodes that can still change their class.

    The layout comes from one walk of :meth:`EGraph.nodes`, and one
    ``np.lexsort`` puts each class's nodes in plain tuple order: class
    id, label, then a leaf's payload rank or an operator's children.
    ``first`` and ``second`` hold each node's child class ids, or -1
    where a node has fewer children; no operator has more than two.
    ``cost`` has ``m`` entries: one per id up to the largest class id,
    then the virtual class that -1 indexes.  It holds the previous
    round's costs shifted by ``sign``, with ``_UNDEFINED`` where no term
    is known (ids that name no class included) and ``sign`` in the
    virtual class, so a node's shifted total is the sum of its two
    children's entries and the cap test is ``> max_nodes + sign``.

    The sweeps run for rounds 0 to ``rounds``, from a table in which no
    class has a term, so in round 0 only leaves reach a cost and each
    class holding one takes its first leaf.  After that a class's cost
    only rises above every leaf's total, so no leaf wins again.  Child
    costs only rise, so a node can no longer change its class once its
    total is over the cap: the sweep drops those in each round in which
    any crosses it.  A class changes only when a node strictly beats its
    cost, and then takes the first node in sort order reaching the new
    maximum, so on ties the earlier choice (the smaller node) is kept.
    Each round's changes are kept as ``(round, classes, nodes)``, class
    ids ascending and nodes as indices into the walk.
    """
    root = g.find(root)
    keys, classes = g.nodes()
    size = len(keys)
    labels = [k[0] for k in keys]
    kids = [k[2] for k in keys]
    arity = np.fromiter(map(len, kids), np.intp, size)
    flat = np.fromiter(chain(chain.from_iterable(kids), (-1, -1)), np.intp)
    at = np.cumsum(arity) - arity
    first = np.where(arity > 0, flat[at], -1)
    second = np.where(arity > 1, flat[at + 1], -1)
    owner = np.fromiter(classes, np.intp, size)
    m = owner.max() + 2  # above every id; m - 1 is the virtual class
    label_rank = {label: i for i, label in enumerate(sorted(set(labels)))}
    class_label = owner * len(label_rank) + np.fromiter(
        map(label_rank.__getitem__, labels), np.intp, size)
    # A leaf has no children, so the rest of its key is its rank among
    # the leaves; a label has leaves or operators, never both.  Both keys
    # stay below 2^62 while class ids stay below 2^31.
    rest = (first + 1) * m + second + 1
    leaves = sorted(np.flatnonzero(arity == 0).tolist(), key=keys.__getitem__)
    rest[leaves] = np.arange(len(leaves))
    order = np.lexsort((rest, class_label))
    node, owner = order, owner[order]
    first, second = first[order], second[order]
    cost = np.full(m, _UNDEFINED)
    cost[-1] = sign
    starts, heads, group = _runs(owner)
    cap = max_nodes + sign
    changes = []
    for r in range(rounds + 1):
        total = cost[first] + cost[second]
        over = total > cap
        if over.any():
            keep = ~over
            node, owner, total = node[keep], owner[keep], total[keep]
            first, second = first[keep], second[keep]
            starts, heads, group = _runs(owner)
        best = np.maximum.reduceat(total, starts)
        changed = (best > cost[heads]).nonzero()[0]
        if not changed.size:
            break  # fixpoint; further rounds would be identical
        # Each changed class's first node reaching its maximum: nodes are
        # grouped by class, so that is the first such node in its run.
        hits = (total == best[group]).nonzero()[0]
        firsts = hits[np.searchsorted(group[hits], changed)]
        cids = heads[changed]
        cost[cids] = best[changed]  # a round reads only the last one
        changes.append((r, cids, node[firsts]))
    # Each round's ids ascend, so (round, id) stamps ascend across the
    # concatenation; the last stamp is above every (round, id) pair.
    stamps = np.concatenate([r * m + c for r, c, _ in changes]
                            + [[len(changes) * m]])
    picks = np.concatenate([p for _, _, p in changes])
    history = (keys, stamps, np.arange(len(changes)) * m, picks, {})
    return _reconstruct(g, history, root, rounds, {})


def _runs(owner: np.ndarray) -> tuple:
    """``(starts, heads, group)`` of a class id array grouped in runs:
    where each run starts, its class, and each element's run number."""
    head = np.diff(owner, prepend=-1) != 0
    starts = head.nonzero()[0]
    return starts, owner[starts], np.cumsum(head) - 1


def _reconstruct(g: EGraph, history: tuple, cid: int, r: int,
                 built: dict) -> Expression:
    """The term chosen for class ``cid`` at round ``r``: its last change
    point at or before ``r``.

    ``history`` is ``(nodes, stamps, starts, picks, reached)``: a change
    point of class ``cid`` in round ``r`` is the entry of the ascending
    ``stamps`` equal to ``starts[r] + cid``, and the same entry of
    ``picks`` is its node's index in ``nodes``.  The first visit of a
    class looks up one stamp per round and keeps the class's points as
    lists in ``reached``.  ``built`` maps (class, round of that change
    point) to the term built for it, so each subterm is built once and
    shared.
    """
    nodes, stamps, starts, picks, reached = history
    points = reached.get(cid)
    if points is None:
        want = starts + cid
        at = np.searchsorted(stamps, want)
        hit = stamps[at] == want
        points = reached[cid] = (hit.nonzero()[0].tolist(),
                                 picks[at[hit]].tolist())
    i = bisect_right(points[0], r)
    if i == 0:
        raise UnextractableError(cid)
    rc = points[0][i - 1]
    e = built.get((cid, rc))
    if e is None:
        node = nodes[points[1][i - 1]]
        e = g.expr_of_node(node, tuple([
            _reconstruct(g, history, c, rc - 1, built)
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
        shared: dict = {}  # left side -> its matches against this index
        changed = False
        applied = 0  # this iteration's applications, across rules
        for rule in rules:
            if timed_out():
                stop = StopReason.TIME_LIMIT
                break
            matches = shared.get(rule.lhs)
            if matches is None:
                matches = shared[rule.lhs] = ematch(g, rule, index)
            for m in matches:
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
        del index, shared  # freed before the graph is rebuilt and re-indexed
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
