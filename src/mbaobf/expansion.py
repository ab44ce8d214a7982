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
classes) read from the e-graph's node table through
:meth:`~mbaobf.egraph.EGraph._live_rows`, with no walk of the hashcons
and in the order it hands the rows out, and each round is one numpy
sweep against a float table of the
previous round's class costs, indexed by canonical class id, round 0
included: it starts from a table that knows no term, so only leaves
reach a cost in it.  Since child costs only
rise, a node whose total has passed the output cap can never change its
class again, and the sweep drops it.  On the corpus at the defaults
about a tenth of the nodes are left from round 13 on.  One
``np.maximum.at`` of the nodes' totals into a copy of the table, by
class id, gives each class's best cost, and one ``np.minimum.at`` of the
positions at it the first node reaching it: that order lists each
class's nodes in the e-graph's one e-node order, so nothing is sorted.
A class's history is its change points, one per
swept round in which its cost rose.  Each swept round's changes are kept
as arrays, concatenated in round order and never sorted: reconstruction
looks a class's points up by binary search when it first visits the
class, and it visits only a few.
Reconstruction descends through the round at which each chosen node's
cost was computed, so the output is a finite tree of depth at most
``rounds`` whose size equals the root's cost.  ``rounds`` is at most
:data:`mbaobf.expr.MAX_DEPTH`, the depth ``parse`` admits.  Each (class,
round) is built once, from its chosen node's row of the node table, and
shared wherever it recurs, and the build is recorded as the output's
:class:`~mbaobf.expr.Tape`, like egg's ``RecExpr``.  Ties between
equal-cost nodes break by the first node in the e-graph's one e-node
order (label, child ids, then row for two leaves of one label), the
order :meth:`~mbaobf.egraph.EGraph.classes` lists: runs are
deterministic.
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
once, and records only the jump: a round map sends each skipped round to
the swept round of the period whose changes it repeats, so memory does
not grow with the rounds skipped.  Plain rounds then resume, and the
first of them meets the event that ended the jump: a chosen node
reaching the cap, or a node overtaking a chosen one.  On the corpus at
the defaults one jump skips ~46 of the 65 rounds.

The minimizing :func:`extract_min` is the same program with the cost
``-size`` and ``MAX_DEPTH`` rounds: it finds the smallest term of depth at
most ``MAX_DEPTH`` and raises :class:`UnextractableError` when a class has
none, which only a hand-built graph can cause.
"""

from __future__ import annotations

import gc
import math
import time
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .egraph import _LABELS, CapacityExceededError, EGraph
from .expr import (DEFAULT_BITWIDTH, MAX_DEPTH, OPERATORS, Const, Expression,
                   Op, Tape, Var, _check_int, expr_size)
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


@contextmanager
def _gc_paused():
    """Pause Python's cyclic collector, then restore the state it was in.

    Growth and extraction make no reference cycles, so a collection
    during them frees nothing.  The flat hashcons keys, tuples of ints
    and strs, are untracked the first time a collection meets them, but
    the lists and tuples that matching and the label index build each
    iteration are new to every pass.  Unpaused, ``expand`` ran ~1.9 gen0
    and 0.17 gen1 passes per corpus line at the defaults, and 9.5 and
    0.86 at node limit 8000 with a 2000-node output cap.  Timed per line,
    the two sides alternating, unpaused over paused time was 1.030 there
    (geometric mean over 100 lines of 7 runs each, unpaused faster on 7)
    and 1.064 at 8000 (30 lines of 5 runs, unpaused faster on 5).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


@_gc_paused()
def _extract(g: EGraph, root: int, rounds: int, sign: int,
             max_nodes: int) -> Expression:
    """The term for ``root`` that maximizes ``sign * size`` within
    ``rounds`` rounds and ``max_nodes`` nodes: :func:`_history`'s change
    points, read back by :func:`_reconstructor`."""
    root = g.find(root)
    stamps, picks, source, m = _history(g, rounds, sign, max_nodes)
    return _reconstructor(g, stamps, picks, source, m)(root, rounds)


def _history(g: EGraph, rounds: int, sign: int, max_nodes: int) -> tuple:
    """``(stamps, picks, source, m)``: the change points of the
    round-indexed DP that maximizes ``sign * size``, one array sweep per
    swept round over the nodes that can still change their class, and the
    round map ``source`` for the rounds that a jump skipped.

    The layout is the graph's node table: its live rows and each row's
    class, in the order :meth:`EGraph._live_rows` hands them out (label
    code, class, children), which lists each class's rows in that
    e-node order: label code, then an operator's children, and two
    leaves of one label in row order.  The graph must be rebuilt, so
    that every live row holds a canonical key.  The child columns are
    copied, so that the block ``_live_rows``' columns view is freed:
    over 12 corpus lines at node limit 8000 with a 2000-node cap, the
    views raised extraction's largest traced peak from 1,335 to 1,521
    KiB.
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
    any crosses it, and a drop only compresses the node arrays.  A
    class changes only when a node strictly beats its cost, and then
    takes the first node in layout order reaching the new maximum, so
    on ties the earlier choice is kept.  ``np.maximum.at`` of the
    totals into a copy of ``cost``, by class id, raises each class to
    its best total where that beats its cost, and the classes raised
    are the ones that change; ``np.minimum.at`` of the positions whose
    total equals their class's new entry finds each one's first node.
    Both are exact at every cost: nothing is packed into one key.  The
    cap test builds its mask of the nodes to keep only in a round whose
    largest total is over the cap.  Each swept round's changes are kept
    as stamps ``round * m + class`` and picks, class ids ascending and
    picks as rows of the table.

    A round that changes the same classes, to the nodes at the same
    positions in the swept arrays, by the same gains as the round ``p``
    before it repeats that round.  A fingerprint stands for each round:
    the number of classes that changed, the dot product of their ids
    with the positions of their picks, and the sum of the squared gains.
    Only the fingerprints of the last ``2 * _MAX_PERIOD`` rounds since
    the last drop or jump are kept, so no round's arrays are held for
    this.  Once the last ``2 p`` fingerprints are two matching periods,
    for the smallest such ``p``, the last ``p`` rounds' classes
    and picks, read back from their change points, are the period.  Two
    matching periods make each pick's total and its class's cost rise by
    the same sum of gains every period, and :func:`_horizon` checks this
    on the next period before it finds how many whole periods repeat
    exactly, so fingerprints that match by chance cannot change the
    output.
    The table then gains that many periods' gains, and the jump is
    recorded as ``(r, p, k)``, its first round, period and number of
    periods, with no change point: ``source``, one entry per round, maps
    round ``r + j * p + i`` to the swept round ``r - p + i`` it repeats,
    and every swept round to itself.  Plain rounds then resume: the next
    one meets the event that ended the jump (a pick over the cap, or a
    node reaching a pick or beating a class's cost) or the last round.
    """
    owner, node, code, first, second = g._live_rows()
    size = len(owner)
    owner = owner[node]  # each live row's class; the by-row copy is freed
    first, second = first.copy(), second.copy()
    del code  # the last view of _live_rows' block, which is freed
    m = int(owner.max()) + 2  # above every id; m - 1 is the virtual class
    cost = np.full(m, _UNDEFINED)
    cost[-1] = sign
    cap = max_nodes + sign
    stamps, picks, jumps = [], [], []
    log = deque(maxlen=2 * _MAX_PERIOD)  # fingerprints of the last rounds
    r = 0
    while r <= rounds:
        total = cost[first] + cost[second]
        if total.max() > cap:
            keep = total <= cap
            node, owner, total = node[keep], owner[keep], total[keep]
            first, second = first[keep], second[keep]
            log.clear()  # positions now index the smaller arrays
        best = cost.copy()  # raised to each class's best total above it
        np.maximum.at(best, owner, total)
        cids = (best > cost).nonzero()[0]
        if not cids.size:
            break  # fixpoint; further rounds would be identical
        # each class's first position at its best total
        at = (total == best[owner]).nonzero()[0]
        lead = np.full(m, len(node))
        np.minimum.at(lead, owner[at], at)
        firsts = lead[cids]
        gains = best[cids] - cost[cids]
        log.append((cids.size, cids @ firsts, gains @ gains))
        cost = best  # a round reads only the last one
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
        del position
        k, gain = _horizon(cost, period, first, second, owner, cap,
                           (rounds + 1 - r) // p)
        if k:
            cost += k * gain
            jumps.append((r, p, k))
            r += k * p
        del gain
        log.clear()
    # Round i repeats the changes of swept round source[i]: itself, or
    # the round of the period a jump skipped it in.
    source = np.arange(r)
    for start, p, k in jumps:
        source[start:start + k * p].reshape(k, p)[:] = source[start - p:start]
    # Each round's ids ascend, so (round, id) stamps ascend across the
    # concatenation; the last stamp is above every (round, id) pair.
    stamps = np.concatenate(stamps + [[r * m]])
    return stamps, np.concatenate(picks), source, m


def _period(log: deque) -> int:
    """The smallest ``p`` for which the last ``2 p`` fingerprints in
    ``log`` are two matching periods, or 0 if there is none."""
    prints = list(log)
    for p in range(1, len(prints) // 2 + 1):
        if prints[-p:] == prints[-2 * p:-p]:
            return p
    return 0


def _horizon(cost: np.ndarray, period: list, first: np.ndarray,
             second: np.ndarray, owner: np.ndarray, cap: float,
             limit: int) -> tuple:
    """``(k, gain)``: how many more whole periods, at most ``limit``,
    repeat ``period``, the last rounds' ``(classes, positions of the
    picks)`` oldest first, and each class's rise over one period.
    ``owner`` is each swept node's class.

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
    before it in layout order, at most equal for one after it); and no
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
        phases.append((total, before.copy(), cids, firsts))
        before[cids] = total[firsts]
        gain[cids] += rise
    rate = gain[first] + gain[second]
    for total, bound, cids, firsts in phases:
        if (rate[firsts] != gain[cids]).any():
            return 0, gain
        # what a node may reach: its class's cost, or its pick's total
        bound[cids] = total[firsts]
        pick = np.full(len(cost), -1)
        pick[cids] = firsts
        live = (total > _UNDEFINED).nonzero()[0]
        cid = owner[live]
        b = np.concatenate((bound[cid] - total[live] - (live < pick[cid]),
                            cap - total[firsts]))
        if (b < 0).any():
            return 0, gain
        a = np.concatenate((rate[live] - gain[cid], rate[firsts]))
        a, b = a.astype(np.int64), b.astype(np.int64)
        rising = a > 0
        if rising.any():
            limit = min(limit, int((b[rising] // a[rising]).min()) + 1)
    return limit, gain


def _reconstructor(g: EGraph, stamps: np.ndarray, picks: np.ndarray,
                   source: np.ndarray,
                   m: int) -> Callable[[int, int], Expression]:
    """The reader of the change points :func:`_history` recorded: called
    with ``(cid, r)``, it returns the term chosen for class ``cid`` at
    round ``r``, the class's last change point at or before ``r``.

    Round ``r`` repeats the changes of swept round ``source[r]``, so a
    change point of class ``cid`` in round ``r`` is the entry of the
    ascending ``stamps`` equal to ``starts[r] + cid``, ``starts[r]``
    being ``source[r] * m``, and the same entry of ``picks`` is the row
    of its node in the graph's node table.  The last stamp is above
    every other.  The first visit of a class looks up one stamp per
    round and keeps the class's change points in ``reached``: their
    rounds, their rows, and the position of the term built for each or
    None.  A change point's term is built from its row of the node
    table, a leaf from its payload and an operator from its children's
    terms one round earlier, second operand first, and is kept with the
    point, so each subterm is built once and shared.

    Each call records what it builds as the term's
    :class:`~mbaobf.expr.Tape` and stores it on the root: the terms in
    the order they were finished, which with the second operand built
    first is the post-order of a fresh walk, and their operands'
    positions.  ``build`` is passed itself, so that it holds no reference
    to itself: such a cycle would outlive the call, and extraction runs
    with the collector paused (:func:`_gc_paused`).
    """
    starts = source * m
    table, payloads = g._table, g._payloads

    def extract(cid: int, r: int) -> Expression:
        reached = {}
        order, kids = [], []

        def build(cid: int, r: int, build: Callable) -> int:
            points = reached.get(cid)
            if points is None:
                want = starts + cid
                at = stamps.searchsorted(want)
                found = (stamps[at] == want).nonzero()[0]
                rounds = found.tolist()
                points = reached[cid] = (rounds, picks[at[found]].tolist(),
                                         [None] * len(rounds))
            rounds, rows, built = points
            i = bisect_right(rounds, r) - 1
            if i < 0:
                raise UnextractableError(cid)
            at = built[i]
            if at is None:
                row, rc = rows[i], rounds[i] - 1
                code, first, second = table[3 * row:3 * row + 3]
                label = _LABELS[code]
                if first < 0:
                    e = (Var if label == "var" else Const)(payloads[row])
                    operands = ()
                elif second < 0:
                    a = build(first, rc, build)
                    operands = (a,)
                    e = Op(OPERATORS[label], (order[a],))
                else:
                    b = build(second, rc, build)
                    a = build(first, rc, build)
                    operands = (a, b)
                    e = Op(OPERATORS[label], (order[a], order[b]))
                at = built[i] = len(order)
                order.append(e)
                kids.append(operands)
            return at

        root = order[build(cid, r, build)]
        del order[-1]  # the root stays out of its own tape
        object.__setattr__(root, "_tape", Tape(order, kids))
        return root

    return extract


# ---------------------------------------------------------------------------
# The growth loop
# ---------------------------------------------------------------------------

_TIME_CHECK_STRIDE = 256  # applications between wall-clock reads


class Grown(NamedTuple):
    """A grown e-graph, the class of the input in it, why growth stopped
    and how many iterations ran.  ``term`` is the largest term of the
    final graph where growth's ``target_ast_size`` test extracted it (no
    iteration ran after that test), else None."""

    graph: EGraph
    root: int
    stop: StopReason
    iterations: int
    term: Optional[Expression] = None


@_gc_paused()
def grow(e: Expression, rules: list, cfg: ExpansionConfig,
         bits: int = DEFAULT_BITWIDTH) -> Grown:
    """Grow an e-graph from ``e`` under ``rules`` until a termination
    condition of ``cfg`` fires.

    Each iteration indexes the rebuilt graph once, then takes the rules in
    order: it matches one rule against the index and applies its matches
    before it matches the next, and it rebuilds at the end.  So every rule
    sees the graph as it stood when the iteration began, as if all were
    matched up front, but a rule is matched only if growth reaches it,
    and one whose left side equals the previous rule's reuses its matches.
    The first application that would pass ``node_limit``, the e-graph's
    cap and the one place the node budget is checked, is rolled back and
    ends growth with ``NodeLimit``; the matches and rules after it lose
    their turn.  Otherwise growth stops on whichever termination condition
    fires first.  The wall clock starts once the input's graph is built,
    and is read between iterations, before each rule is matched and before
    each slice of ``_TIME_CHECK_STRIDE`` of its matches after the first,
    never inside a rule's generated code.  With ``target_ast_size`` set,
    each iteration that no other condition stops
    ends with one :func:`extract_max` call at ``cfg``'s extraction
    settings, and growth stops with ``TargetSizeReached`` once that term
    has the target size.  The last such term is returned as ``term`` when
    no iteration ran after it, and :func:`expand` outputs it as it is.  An input that no rule matches stops with
    ``Saturated``.  An input whose graph alone holds more than
    ``node_limit`` nodes raises
    :class:`~mbaobf.egraph.CapacityExceededError`.  The cyclic collector
    is paused while it runs.
    """
    g = EGraph(bits=bits, max_nodes=cfg.node_limit)
    root = g.add_expr(e)
    g.rebuild()
    deadline = time.monotonic() + (math.inf if cfg.time_limit is None
                                   else cfg.time_limit)
    stop, iterations, term = None, 0, None
    while stop is None:
        if time.monotonic() >= deadline:
            stop = StopReason.TIME_LIMIT
        elif iterations >= cfg.iter_limit:
            stop = StopReason.ITER_LIMIT
        else:
            term = None  # the graph changes, so an earlier term is stale
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
    return Grown(g, root, stop, iterations, term)


def _iterate(g: EGraph, rules: list, deadline: float) -> tuple:
    """One iteration's matching and application, without the rebuild:
    ``(stop, changed)``, with ``stop`` the reason that ended it early
    (``TimeLimit`` or ``NodeLimit``) or None, and ``changed`` whether any
    application changed the graph.  A rule whose left side equals the
    previous rule's reuses that rule's match list; any other rule is
    matched afresh, after the previous list is dropped, so at most one
    list is alive at a time.  Each rule's matches are applied in
    :func:`~mbaobf.rules.apply_match` calls of up to
    ``_TIME_CHECK_STRIDE`` matches, and the clock is read before each rule
    and before each of its slices after the first.  The index is freed on
    return, before the caller rebuilds."""
    index = _label_index(g)
    lhs, matches = None, None
    changed = False
    for rule in rules:
        if time.monotonic() >= deadline:
            return StopReason.TIME_LIMIT, changed
        if rule.lhs != lhs:
            lhs, matches = rule.lhs, None
            matches = ematch(g, rule, index)
        for start in range(0, len(matches), _TIME_CHECK_STRIDE):
            if start and time.monotonic() >= deadline:
                return StopReason.TIME_LIMIT, changed
            try:
                changed |= apply_match(
                    g, rule, matches[start:start + _TIME_CHECK_STRIDE])
            except CapacityExceededError:
                return StopReason.NODE_LIMIT, changed
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
    growth and extraction.  Once growth has stopped and the node count
    is read, the grown graph's hashcons is emptied before
    :func:`extract_max` runs: nothing inserts into the graph again, and
    extraction reads only the node table, the union-find and the leaf
    payloads, so its arrays do not pile up on top of the keys.  One
    pause of the cyclic collector spans growth and extraction, and the
    graph is freed before the collector resumes.

    The rules are trusted here: admit them through the soundness checker
    first and the output is equivalent to the input by construction.
    """
    if cfg is None:
        cfg = ExpansionConfig()
    if expr_size(e) > cfg.max_output_nodes:
        raise OutputTooLargeError(expr_size(e), cfg.max_output_nodes)
    start = time.monotonic()
    with _gc_paused():
        grown = grow(e, rules, cfg, bits)
        nodes = grown.graph.node_count()  # counts the hashcons: read first
        grown.graph._hashcons.clear()
        output = grown.term
        if output is None:
            output = extract_max(grown.graph, grown.root,
                                 cfg.extraction_rounds, cfg.max_output_nodes)
        elapsed = time.monotonic() - start
        stop, iterations = grown.stop, grown.iterations
        del grown  # freed now, so no resumed collection walks it
    return ExpansionReport(
        output=output,
        stop=stop,
        iterations=iterations,
        final_node_count=nodes,
        elapsed=elapsed,
        metrics_in=measure(e),
        metrics_out=measure(output),
    )
