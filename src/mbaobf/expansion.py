"""Expression growth: saturate-in-reverse scheduling and extraction.

The classic e-graph workflow runs rewrite rules to a fixpoint and extracts
the *cheapest* equivalent term.  This module inverts the second half:
:func:`grow` grows the graph under resource-bounded termination conditions
(node budget, iteration budget, wall-clock budget, optional target output
size) and returns why it stopped, and :func:`extract_max` extracts the
*most complex* term.  :func:`expand` is the two in turn, plus
:func:`~mbaobf.metrics.measure` of the input and the output.

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

After the last drop the rounds settle into a periodic tail: every p
rounds the same classes change, to the same nodes, by the same gains
(p is 2 on most corpus graphs and 1 on the rest).  Two whole matching
periods make the costs linear in the number of periods: each class's
cost, and the total of the node it chose, rise by the same amount every
period.  They stay linear while no chosen node passes the cap, no other
node of a class that changes reaches the chosen one, and no node of a
class that does not change beats its cost; each of these is a linear
inequality in the number of periods.  So the sweep solves them for the
number of whole periods, adds that many periods' gains to the costs at
once, and records the change points those rounds would have recorded.
Plain rounds then resume, and the first of them meets the event that
ended the jump: a chosen node reaching the cap, or a node overtaking a
chosen one.  On the corpus at the defaults one jump skips ~46 of the 65
rounds.

The minimizing :func:`extract_min` is the same program with the cost
``-size`` and ``MAX_DEPTH`` rounds: it finds the smallest term of depth at
most ``MAX_DEPTH`` and raises :class:`UnextractableError` when a class has
none, which only a hand-built graph can cause.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple, Optional

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
_MAX_PERIOD = 4  # the longest period of repeating rounds that extraction skips


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
    Each round's changes are kept as stamps ``round * m + class`` and
    picks, class ids ascending and picks as indices into the walk.

    A round that changes the same classes, to the nodes at the same
    positions in the swept arrays, by the same gains as the round ``p``
    before it repeats that round.  A hash of the three arrays stands for
    each round, and only the hashes of the last ``2 * _MAX_PERIOD``
    rounds since the last drop or jump are kept, so no round's arrays
    are held for this.  Once the last ``2 p`` hashes are two matching
    periods, for the smallest such ``p``, the last ``p`` rounds' classes
    and picks, read back from their change points, are the period.  Two
    matching periods make each pick's total and its class's cost rise by
    the same sum of gains every period, and :func:`_horizon` checks this
    on the next period before it finds how many whole periods repeat
    exactly, so a hash that matched by chance cannot change the output.
    The table then gains that many periods' gains, and the period's
    change points are recorded that many times, shifted by whole
    periods, as the plain rounds would record them.  Plain rounds then
    resume: the next one meets the event that ended the jump (a pick
    over the cap, or a node reaching a pick or beating a class's cost)
    or the last round.
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
    stamps, picks = [], []
    log = deque(maxlen=2 * _MAX_PERIOD)  # hashes of the last rounds' changes
    r = 0
    while r <= rounds:
        total = cost[first] + cost[second]
        over = total > cap
        if over.any():
            keep = ~over
            node, owner, total = node[keep], owner[keep], total[keep]
            first, second = first[keep], second[keep]
            starts, heads, group = _runs(owner)
            log.clear()  # positions now index the smaller arrays
        best = np.maximum.reduceat(total, starts)
        changed = (best > cost[heads]).nonzero()[0]
        if not changed.size:
            break  # fixpoint; further rounds would be identical
        # Each changed class's first node reaching its maximum: nodes are
        # grouped by class, so that is the first such node in its run.
        hits = (total == best[group]).nonzero()[0]
        firsts = hits[np.searchsorted(group[hits], changed)]
        cids = heads[changed]
        new = best[changed]
        log.append(hash((cids.tobytes(), firsts.tobytes(),
                         (new - cost[cids]).tobytes())))
        cost[cids] = new  # a round reads only the last one
        stamps.append(r * m + cids)
        picks.append(node[firsts])
        r += 1
        p = _period(log)
        if not p or rounds + 1 - r < p:
            continue
        position = np.empty(size, np.intp)
        position[node] = np.arange(len(node))
        period = [(stamps[i - p] - (r + i - p) * m, position[picks[i - p]])
                  for i in range(p)]
        k, gain = _horizon(cost, period, first, second, heads, group, cap,
                           (rounds + 1 - r) // p)
        if k:
            cost += k * gain
            # The period's change points, shifted by 1 to k whole periods,
            # one array a period: one (k, period) array would be the
            # largest allocation of the call and raises peak RSS.
            once = np.concatenate(stamps[-p:])
            again = np.concatenate(picks[-p:])
            stamps.extend(once + j * (p * m) for j in range(1, k + 1))
            picks.extend([again] * k)
            r += k * p
        log.clear()
    # Each round's ids ascend, so (round, id) stamps ascend across the
    # concatenation; the last stamp is above every (round, id) pair.
    stamps = np.concatenate(stamps + [[r * m]])
    history = (keys, stamps, np.arange(r) * m, np.concatenate(picks), {})
    return _reconstruct(g, history, root, rounds, {})


def _period(log: deque) -> int:
    """The smallest ``p`` for which the last ``2 p`` hashes in ``log`` are
    two matching periods, or 0 if there is none."""
    hashes = list(log)
    for p in range(1, len(hashes) // 2 + 1):
        if hashes[-p:] == hashes[-2 * p:-p]:
            return p
    return 0


def _horizon(cost: np.ndarray, period: list, first: np.ndarray,
             second: np.ndarray, heads: np.ndarray, group: np.ndarray,
             cap: float, limit: int) -> tuple:
    """``(k, gain)``: how many more whole periods, at most ``limit``,
    repeat ``period``, the last rounds' ``(classes, positions of the
    picks)`` oldest first, and each class's rise over one period.

    The next period, ``k = 0``, is played from ``cost`` with the same
    classes and picks: phase i reads ``before``, ``cost`` raised by the
    rises of phases 0 to i - 1.  While every phase before it repeats,
    phase i of period ``k`` reads ``before + k * gain``, so each swept
    node's total rises by ``rate``, the sum of its children's ``gain``,
    every period.  Each pick must rise, and at its class's rate, which
    two matching periods guarantee; otherwise ``k`` is 0.  Then each
    class gains the same in every period, and the phase repeats exactly
    while three things hold, each an inequality ``a * k <= b`` in
    integers: no pick passes the cap; no other node of a class that
    changes in the phase reaches its pick (strictly below it for a node
    before it in sort order, at most equal for one after it); and no
    node of a class that does not change beats the class's cost.  A node
    with no term is left out: every class that changes already has a
    term, so it gains none.  ``k`` is the first period in which some
    inequality fails, or ``limit``.
    """
    before = cost.copy()
    gain = np.zeros(len(cost))
    phases = []
    for cids, firsts in period:
        total = before[first] + before[second]
        rise = total[firsts] - before[cids]
        if not (rise > 0).all():
            return 0, gain
        phases.append((total, before[heads], cids, firsts))
        before[cids] = total[firsts]
        gain[cids] += rise
    rate = gain[first] + gain[second]
    climb = gain[heads]
    for total, bound, cids, firsts in phases:
        if (rate[firsts] != gain[cids]).any():
            return 0, gain
        # what a node may reach: its class's cost, or its pick's total
        runs = group[firsts]
        bound[runs] = total[firsts]
        pick = np.full(len(heads), -1)
        pick[runs] = firsts
        live = (total > _UNDEFINED).nonzero()[0]
        run = group[live]
        b = np.concatenate((bound[run] - total[live] - (live < pick[run]),
                            cap - total[firsts]))
        if (b < 0).any():
            return 0, gain
        a = np.concatenate((rate[live] - climb[run], rate[firsts]))
        a, b = a.astype(np.int64), b.astype(np.int64)
        rising = a > 0
        if rising.any():
            limit = min(limit, int((b[rising] // a[rising]).min()) + 1)
    return limit, gain


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


class Grown(NamedTuple):
    """A grown e-graph, the class of the input in it, why growth stopped
    and how many iterations ran."""

    graph: EGraph
    root: int
    stop: StopReason
    iterations: int


def grow(e: Expression, rules: list, cfg: ExpansionConfig,
         bits: int = DEFAULT_BITWIDTH) -> Grown:
    """Grow an e-graph from ``e`` under ``rules`` until a termination
    condition of ``cfg`` fires.

    Each iteration indexes the rebuilt graph once, then takes the rules in
    order: it matches one rule against the index and applies its matches
    before it matches the next, and it rebuilds at the end.  So every rule
    sees the graph as it stood when the iteration began, as if all were
    matched up front, but a rule is matched only if growth reaches it.
    The first application that would pass ``node_limit``, the e-graph's
    cap and the one place the node budget is checked, is rolled back and
    ends growth with ``NodeLimit``; the matches and rules after it lose
    their turn.  Otherwise growth stops on whichever termination condition
    fires first.  The wall clock starts once the input's graph is built,
    and is read between iterations, before each rule is matched and every
    ``_TIME_CHECK_STRIDE`` applications.  With ``target_ast_size`` set,
    each iteration that no other condition stops ends with one
    :func:`extract_max` call at ``cfg``'s extraction settings, and growth
    stops with ``TargetSizeReached`` once that term has the target size.  An
    input that no rule matches stops with ``Saturated``.  An input whose
    graph alone holds more than ``node_limit`` nodes raises
    :class:`~mbaobf.egraph.CapacityExceededError`.
    """
    g = EGraph(bits=bits, max_nodes=cfg.node_limit)
    root = g.add_expr(e)
    g.rebuild()
    deadline = time.monotonic() + (math.inf if cfg.time_limit is None
                                   else cfg.time_limit)
    stop, iterations = None, 0
    while stop is None:
        if time.monotonic() >= deadline:
            stop = StopReason.TIME_LIMIT
        elif iterations >= cfg.iter_limit:
            stop = StopReason.ITER_LIMIT
        else:
            stop, changed = _iterate(g, rules, deadline)
            g.rebuild()
            iterations += 1
            if stop is None and not changed:
                stop = StopReason.SATURATED
            elif stop is None and g.node_count() >= cfg.node_limit:
                stop = StopReason.NODE_LIMIT
            elif stop is None and cfg.target_ast_size is not None:
                term = extract_max(g, root, cfg.extraction_rounds,
                                   cfg.max_output_nodes)
                if expr_size(term) >= cfg.target_ast_size:
                    stop = StopReason.TARGET_SIZE
    return Grown(g, root, stop, iterations)


def _iterate(g: EGraph, rules: list, deadline: float) -> tuple:
    """One iteration's matching and application, without the rebuild:
    ``(stop, changed)``, with ``stop`` the reason that ended it early
    (``TimeLimit`` or ``NodeLimit``) or None, and ``changed`` whether any
    application changed the graph.  The index and the match lists are
    freed on return, before the caller rebuilds."""
    index = _label_index(g)
    shared: dict = {}  # left side -> its matches against this index
    changed = False
    applied = 0  # this iteration's applications, across rules
    for rule in rules:
        if time.monotonic() >= deadline:
            return StopReason.TIME_LIMIT, changed
        matches = shared.get(rule.lhs)
        if matches is None:
            matches = shared[rule.lhs] = ematch(g, rule, index)
        for m in matches:
            if (applied % _TIME_CHECK_STRIDE == 0 and applied
                    and time.monotonic() >= deadline):
                return StopReason.TIME_LIMIT, changed
            try:
                changed |= apply_match(g, rule, m)
            except CapacityExceededError:
                return StopReason.NODE_LIMIT, changed
            applied += 1
    return None, changed


def expand(e: Expression, rules: list, cfg: Optional[ExpansionConfig] = None,
           bits: int = DEFAULT_BITWIDTH) -> ExpansionReport:
    """:func:`grow` an e-graph from ``e`` under ``rules``, extract its
    largest term with :func:`extract_max`, and measure the input and that
    term.

    An input that no rule matches is returned unchanged with ``Saturated``
    (a no-op, not an error).  An input larger than ``max_output_nodes``
    raises :class:`OutputTooLargeError`, and one whose graph alone holds
    more than ``node_limit`` nodes raises
    :class:`~mbaobf.egraph.CapacityExceededError`.  ``elapsed`` covers
    growth and extraction.

    The rules are trusted here: admit them through the soundness checker
    first and the output is equivalent to the input by construction.
    """
    if cfg is None:
        cfg = ExpansionConfig()
    if expr_size(e) > cfg.max_output_nodes:
        raise OutputTooLargeError(expr_size(e), cfg.max_output_nodes)
    start = time.monotonic()
    grown = grow(e, rules, cfg, bits)
    output = extract_max(grown.graph, grown.root, cfg.extraction_rounds,
                         cfg.max_output_nodes)
    return ExpansionReport(
        output=output,
        stop=grown.stop,
        iterations=grown.iterations,
        final_node_count=grown.graph.node_count(),
        elapsed=time.monotonic() - start,
        metrics_in=measure(e),
        metrics_out=measure(output),
    )
