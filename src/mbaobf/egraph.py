"""E-graph: equivalence classes of hashconsed expression nodes.

An e-node is an operator or leaf whose children are e-class ids instead of
subtrees.  An e-class is a set of e-nodes that all denote the same value
under the engine's fixed-width semantics.  The graph maintains two
invariants, restored by :meth:`EGraph.rebuild` after a batch of unions:

* hashcons: no two distinct classes contain the same canonical e-node;
* congruence: e-nodes with equal labels and pairwise-equivalent children
  live in the same class.

Mutation protocol: ``add_expr``/``union`` freely, then ``rebuild`` before
reading (``node_count``, ``classes``, matching, extraction).  ``classes``,
matching and extraction refuse a graph with merges pending, and no read
writes to a rebuilt graph.  Determinism matters here: class
representatives are chosen as the smaller canonical id, classes are
listed in ascending id order, and nothing iterates in hash order, so
identical operation sequences produce identical graphs.

Representation: a hashcons key is a flat tuple of the node's label code
(the label's rank in plain label order) and its canonical children: an
operator's key is its node-table row ``(code, first, second)``, with -1
for a unary operator's missing second child, and a leaf's key is ``(code,
payload)``, the payload its variable name or constant.  Hashing and
equality of such a tuple run in C, as egglog keys each e-node by its
label and canonical child ids, and no key is converted on its way
between the hashcons, the table and the generated code.  An
:class:`ENode`, a named tuple ``(label, payload, children)``, is only the
read view: :meth:`EGraph.add` takes one, and :meth:`EGraph._node`,
:meth:`EGraph.classes` and :meth:`EGraph.dump` hand one out.
:meth:`EGraph.leaf_key` is the one map from a ``Var`` or ``Const`` leaf
to its key, for ``add_expr``, matching and the Python that each rule
generates for its right side.  That code builds keys from canonical ids,
looks them up in the hashcons, and adds a miss inline as
:meth:`EGraph.add_canonical` does, the node's row written: an operator's
key is looked up and stored by one ``setdefault`` with the next id, and
the node cap is checked right after the insertion, so a node it refuses
is rolled back with the rest of its match by :meth:`EGraph.rollback`.
The right side's top node is the exception: a miss
is added straight into the matched class, its union-find entry the
matched root, so no merge is recorded for it.  A top that already exists
is unioned with the matched class through :meth:`EGraph._merge`, the
half of :meth:`EGraph.union` that trusts its ids and the only code that
records a merged class.  A merge always makes the smaller id the parent,
and a new top's parent is an older class, so each union-find entry is
at most its id, and :meth:`EGraph.rebuild`, the one place that resolves
classes, leaves each entry its id's class.

Each insertion adds one hashcons entry, one union-find entry and one
row of an integer node table, an ``array('q')`` written at once: the
three grow in lockstep, and the row's index is the id the node was
inserted with, which is the id the hashcons maps the node to: a class of
its own, or a right side's new top in the matched class.
A row holds a label code and two child columns, -1 where a child is
missing.  A leaf's variable name or constant, which may be as large as
2^64 - 1, stays out of the table, in a dict keyed by row.  Rebuild
reads the table as a zero-copy numpy view; every other reader takes
one snapshot of it, :meth:`EGraph._live_rows`, instead of walking the
hashcons.  That snapshot hands the live rows out in the graph's one
e-node order, (label code, class, first child, second child), sorted
there by :func:`_layout`; the match index takes that order as it is,
and extraction only regroups it by class.

The hashcons, the union-find, the node table with its leaf payloads and
the set of classes merged away since the last rebuild are the graph's
whole state.  The hashcons only answers lookups by key.  Class
membership is read from the table: a live row belongs to the class its
union-find entry names, and :meth:`EGraph.classes`, matching and
extraction all read that through :meth:`EGraph._live_rows`.  Each
hashcons value is a live row that records its key; a row whose key went
to another row in a rebuild is dead, its cells all -1.  Rebuilding is
deferred: a union only records the losing class, and
:meth:`EGraph.rebuild` re-keys, in place, the keys with a child in that
set, each under its canonical form, until a pass merges no classes.  egg
repairs only the parents of merged classes too, but through a parent
list per class; finding the stale keys instead is one numpy test of the
table's two child columns against the set.  Few keys go stale: over 20
lines of the benchmark's workloads, 0.28% (corpus defaults) and 0.33%
(node limit 8000) of the keys that full re-key passes visited had a
merged child, counted when every application still recorded a merge,
before a right side's new top joined the matched class without one.
Hashcons values may be merged-away ids; every reader maps them through
the union-find.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple, Optional

import numpy as np

from .expr import (Const, Expression, Op, OPERATORS, Var,
                   check_bitwidth)

EClassId = int

# A key's and a row's label code indexes this; codes follow plain label
# order, so keys sort by label as e-nodes do.
_LABELS = tuple(sorted(["const", "var", *OPERATORS]))
_CODES = {label: code for code, label in enumerate(_LABELS)}
_DEAD = array("q", (-1, -1, -1))  # the cells of a dead row

class ENode(NamedTuple):
    """label is an operator name, or "var"/"const" with the payload holding
    the variable name or constant value."""

    label: str
    payload: object  # str | int | None
    children: tuple

    def render(self) -> str:
        if self.label == "var":
            return f"var {self.payload}"
        if self.label == "const":
            return f"const {self.payload}"
        return f"({self.label} {' '.join(str(c) for c in self.children)})"


class InvalidIdError(Exception):
    def __init__(self, cid):
        super().__init__(f"invalid e-class id: {cid}")


class CapacityExceededError(Exception):
    """The hard node cap refused a node; the graph is still usable.  Rule
    application rolls its right side back and growth ends there."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"e-graph node capacity exceeded (cap={cap})")


class EGraph:
    """Congruence-closed union of e-classes over hashconsed e-nodes, each
    keyed by its flat label-code tuple (see the module docstring).

    ``bits``, one of ``VALID_BITWIDTHS``, fixes the width constants are
    reduced to; ``max_nodes`` is a hard cap, stored as ``math.inf`` when
    None, checked before each node is added by :meth:`add_canonical` and
    as each node is inserted by each rule's generated builder, which
    rolls a refused node back with its match, so no rule application can
    exhaust memory regardless of what the scheduler does.
    """

    def __init__(self, bits: int = 64, max_nodes: Optional[int] = None):
        self.bits = check_bitwidth(bits)
        self.max_nodes = math.inf if max_nodes is None else max_nodes
        self._uf: list[int] = []
        self._hashcons: dict = {}  # canonical key -> EClassId
        self._merged: set = set()  # classes merged away since last pass
        self._table = array("q")  # rows: label code, first, second child
        self._payloads: dict = {}  # leaf row -> its variable or constant

    # -- union-find ---------------------------------------------------------

    def find(self, cid: EClassId) -> EClassId:
        """The canonical id of ``cid``, which must be a plain ``int`` this
        graph handed out: a ``bool``, say, raises :class:`InvalidIdError`."""
        if type(cid) is not int or not 0 <= cid < len(self._uf):
            raise InvalidIdError(cid)
        return self._find(cid)

    def _find(self, cid: EClassId) -> EClassId:
        """:meth:`find` for ids the graph handed out itself.  It halves the
        path it walks (Tarjan and van Leeuwen, JACM 1984): each entry on it
        skips to its grandparent.  Between rebuilds the calls
        ``union(i, n-1)`` for ``i = n-2, ..., 0`` build an n-link chain,
        which a find leaving paths as they were would walk in full each
        time: quadratic.  On a flat union-find each step stores the value
        already there, so reading a rebuilt graph changes nothing."""
        uf = self._uf
        while uf[cid] != cid:
            uf[cid] = cid = uf[uf[cid]]
        return cid

    # -- insertion ----------------------------------------------------------

    def add(self, node: ENode) -> EClassId:
        """Insert one hand-built e-node; returns its canonical class.

        The checked way in: the node is validated before anything changes.
        An operator label from :data:`~mbaobf.expr.OPERATORS` needs payload
        None and a tuple of exactly its arity of children; ``var`` needs a
        ``str`` payload and ``const`` a plain ``int`` in ``[0, 2**bits)``,
        each with no children.  Anything else raises ``ValueError``, and a
        child that is no class id of this graph raises
        :class:`InvalidIdError`.  The node is then inserted under its flat
        key, its children canonical.  :meth:`add_canonical` is the
        unchecked path, which ``add_expr`` takes; each rule's generated
        code makes the same insertion inline.
        """
        label, payload, children = node
        op = OPERATORS.get(label) if type(label) is str else None
        if type(children) is not tuple:
            ok = False
        elif op is not None:
            ok = payload is None and len(children) == op.arity
        elif label == "var":
            ok = type(payload) is str and not children
        elif label == "const":
            ok = (type(payload) is int and 0 <= payload < 1 << self.bits
                  and not children)
        else:
            ok = False
        if not ok:
            raise ValueError(f"malformed e-node: {node!r}")
        if op is None:
            return self.add_canonical((_CODES[label], payload))
        # find rejects ids this graph never handed out
        children = [self.find(child) for child in children]
        return self.add_canonical((_CODES[label], *children, -1)[:3])

    def add_canonical(self, key: tuple) -> EClassId:
        """Insert the hashcons key ``key``, whose children are canonical
        ids: an operator's row ``(code, first, second)``, ``second`` -1
        for a unary operator, or a leaf's ``(code, payload)``.  Returns the
        canonical class.  A miss is checked against the cap, then added as
        a new class with its row written: an operator's row is its key,
        and a leaf's is ``(code, -1, -1)``, its payload kept apart."""
        existing = self._hashcons.get(key)
        if existing is not None:
            return self._find(existing)
        if len(self._hashcons) >= self.max_nodes:
            raise CapacityExceededError(self.max_nodes)
        cid = len(self._uf)
        self._uf.append(cid)
        self._hashcons[key] = cid
        if len(key) == 3:
            self._table.fromlist([*key])
        else:
            self._table.fromlist([key[0], -1, -1])
            self._payloads[cid] = key[1]
        return cid

    def leaf_key(self, leaf: Var | Const) -> tuple:
        """The hashcons key ``(code, payload)`` of a :class:`Var` or
        :class:`Const` leaf, its constant reduced to the graph's width."""
        if isinstance(leaf, Var):
            return (_CODES["var"], leaf.name)
        return (_CODES["const"], leaf.value & ((1 << self.bits) - 1))

    def add_expr(self, e: Expression) -> EClassId:
        """Insert a whole expression bottom-up; returns the root's class."""
        if not isinstance(e, Op):
            return self.add_canonical(self.leaf_key(e))
        # the children's classes are canonical: nothing merges in between
        children = [self.add_expr(a) for a in e.args]
        return self.add_canonical((_CODES[e.op.name], *children, -1)[:3])

    def rollback(self, ids: int) -> None:
        """Remove every node inserted with an id from ``ids`` on, with no
        union or rebuild since: each insertion added one hashcons entry,
        one union-find entry and one row, so the first two are popped,
        newest first, with any leaf payload, and the table is cut to
        ``ids`` rows."""
        hashcons, uf = self._hashcons, self._uf
        while len(uf) > ids:
            hashcons.popitem()
            uf.pop()
            self._payloads.pop(len(uf), None)
        del self._table[3 * ids:]

    # -- merging ------------------------------------------------------------

    def union(self, a: EClassId, b: EClassId) -> tuple[EClassId, bool]:
        """Merge two classes; the smaller canonical id becomes representative.

        Returns ``(representative, changed)``; ``changed`` is False when the
        ids were already equivalent.
        """
        a, b = self.find(a), self.find(b)
        return min(a, b), self._merge(a, b)

    def _merge(self, a: EClassId, b: EClassId) -> bool:
        """:meth:`union` of two canonical ids the caller holds; returns
        whether they were distinct."""
        if a == b:
            return False
        if b < a:
            a, b = b, a
        self._uf[b] = a
        self._merged.add(b)
        return True

    # -- congruence maintenance ---------------------------------------------

    def rebuild(self) -> int:
        """Process pending merges until the invariants hold again.

        Each pass takes the classes merged away since the previous one and
        re-keys, in place, only the keys with such a child, found as the
        rows whose child columns hold one: each stale key is read from its
        row's three cells and popped, its children are canonicalized, and
        the canonical key is put back and its children written to the row.
        Where another row already holds that form, the row dies and its
        class is merged with that row's; such a merge calls for another
        pass.  After the last one, pointer jumping sets each union-find
        entry to its id's class.  Returns the number of passes; a second
        call with no intervening mutation returns 0.
        """
        hashcons, table, find = self._hashcons, self._table, self._find
        passes = 0
        while self._merged:
            merged, self._merged = self._merged, set()
            passes += 1
            hit = np.zeros(len(self._uf) + 1, bool)  # -1, no child: False
            hit[list(merged)] = True
            rows = self._columns()
            stale = (hit[rows[:, 1]] | hit[rows[:, 2]]).nonzero()[0].tolist()
            del rows  # the table cannot change size while a view lives
            for row in stale:
                code, first, second = table[3 * row:3 * row + 3]
                del hashcons[code, first, second]
                first = find(first)
                if second >= 0:
                    second = find(second)
                prev = hashcons.setdefault((code, first, second), row)
                if prev == row:
                    table[3 * row + 1] = first
                    table[3 * row + 2] = second
                else:
                    table[3 * row:3 * row + 3] = _DEAD
                    self._merge(find(prev), find(row))
        if passes:  # pointer jumping: k steps resolve paths of 2^k links
            old = up = np.fromiter(self._uf, np.intp, len(self._uf))
            top = up[up]
            while (top != up).any():
                up, top = top, top[top]
            moved = (up != old).nonzero()[0]  # few: cheaper than all
            for cid, root in zip(moved.tolist(), up[moved].tolist()):
                self._uf[cid] = root
        return passes

    # -- queries ------------------------------------------------------------

    def node_count(self) -> int:
        """Number of distinct canonical e-nodes (exact in rebuilt state)."""
        return len(self._hashcons)

    def class_count(self) -> int:
        return len(self.class_ids())

    def class_ids(self) -> list[int]:
        """Canonical class ids in ascending order."""
        return [cid for cid, root in enumerate(self._uf) if cid == root]

    def classes(self) -> dict:
        """``{canonical id: [nodes]}`` in ascending id order, read from
        :meth:`_live_rows`, which refuses a graph with merges pending:
        each class's live rows in the graph's e-node order, each node the
        :class:`ENode` its row records."""
        classes, live, *_ = self._live_rows()
        grouped: dict = {}
        for row, cid in zip(live.tolist(), classes[live].tolist()):
            grouped.setdefault(cid, []).append(self._node(row))
        return dict(sorted(grouped.items()))

    # -- the node table -----------------------------------------------------

    def _columns(self) -> np.ndarray:
        """Every row as a zero-copy ``(rows, 3)`` int64 view of the
        table, which holds each row from its insertion on: label code,
        first child, second child.  The table cannot change size while
        the view lives, so drop it before the graph next grows."""
        return np.frombuffer(self._table, np.int64).reshape(-1, 3)

    def _live_rows(self) -> tuple:
        """The rebuilt graph as rows: ``(classes, live, code, first,
        second)``.  ``classes`` is every row's class, dead rows included,
        copied from the flat union-find; ``live`` is the ids of the live
        rows and ``code``, ``first`` and ``second`` are copies of their
        cells.  The live rows come in the graph's one e-node order: label
        code, class, first child, second child, and two leaves of one
        label and class in row order.  :meth:`classes`, the match index
        and extraction all start from it, so no other reader copies the
        union-find or decides the order.  Raises ``ValueError`` while merges
        are pending; no view of the table outlives the call, so the graph
        may grow while the arrays are read."""
        if self._merged:
            raise ValueError("the e-graph has pending merges: rebuild first")
        rows = self._columns()
        classes = np.fromiter(self._uf, np.intp, len(rows))  # flat: rebuilt
        code, first, second = rows.T
        span = len(rows) + 1  # above each class id and each child id + 1
        order = _layout((code + 1) * span + classes,
                        (first + 1) * span + second + 1)
        live = order[np.count_nonzero(code < 0):]  # dead rows, code -1, lead
        code, first, second = rows.take(live, axis=0).T
        del rows  # a view of the table, which cannot grow while it lives
        return classes, live, code, first, second

    def _node(self, row: int) -> Optional[ENode]:
        """The e-node row ``row`` records, or None for a dead row."""
        code, first, second = self._table[3 * row:3 * row + 3]
        if code < 0:
            return None
        if first < 0:
            return ENode(_LABELS[code], self._payloads[row], ())
        return ENode(_LABELS[code], None,
                     (first,) if second < 0 else (first, second))

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Snapshot as text lines ``class <id>: {node, node, ...}``."""
        lines = []
        for cid, nodes in self.classes().items():
            body = ", ".join(n.render() for n in nodes)
            lines.append(f"class {cid}: {{{body}}}")
        return "\n".join(lines)


def _layout(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((minor, major))``, both arrays
    nonnegative: one stable ``np.argsort`` of ``major * span + minor``,
    with ``minor`` below ``span``, while that key fits in int64, and
    ``np.lexsort`` past it.  :meth:`EGraph._live_rows` sorts the node
    table's live rows with it, and nothing else calls it."""
    span = int(minor.max(initial=0)) + 1
    if (int(major.max(initial=0)) + 1) * span > 2**63:
        return np.lexsort((minor, major))
    return np.argsort(major * span + minor, kind="stable")


# -- invariant checks (used by the stress tests, full scans) ----------------


def check_invariants(g: EGraph) -> None:
    """Full-scan hashcons + congruence check; raises AssertionError on breach.

    Linear in node count; it reads the union-find as it is and writes
    nothing.  The hashcons holds each node once, so congruence
    is every key being canonical; every key must map to a class the graph
    handed out, no live class may be empty, no merge may be pending, and the
    graph must hold at most ``max_nodes`` nodes.  Each union-find
    parent must be a class no larger than its id: a merge keeps the smaller
    id, a right side's new top joins an older class, and a rebuild leaves
    the union-find flat.  The
    table holds one row per id, and each hashcons value is a live row that
    records its key: an operator's key equals the row's three cells, and a
    leaf's key is ``(code, payload)`` with that payload stored for the row.
    So no dead row is left in the hashcons, and every other row is dead.
    """
    uf = g._uf
    ids = range(len(uf))
    for cid in ids:
        assert uf[cid] <= cid, f"class {cid} has the larger parent"
        assert uf[uf[cid]] == uf[cid], f"the union-find is not flat at {cid}"
    live = set()
    for key, cid in g._hashcons.items():
        children = key[1:] if len(key) == 3 else ()
        assert all(c < 0 or uf[c] == c for c in children), \
            f"stale node {key} in the hashcons"
        assert cid in ids, f"hashcons maps {key} to unknown class {cid}"
        live.add(uf[cid])
    empty = set(g.class_ids()) - live
    assert not empty, f"classes {sorted(empty)} are empty"
    assert not g._merged, f"merges of {sorted(g._merged)} are pending"
    assert g.node_count() <= g.max_nodes, \
        f"{g.node_count()} nodes over the cap of {g.max_nodes}"
    assert len(g._table) == 3 * len(ids), \
        f"{len(g._table) // 3} rows for {len(ids)} ids"
    for key, cid in g._hashcons.items():
        code, first, second = g._table[3 * cid:3 * cid + 3]
        if code < 0:
            row = None
        elif first < 0:
            row = (code, g._payloads.get(cid))
        else:
            row = (code, first, second)
        assert row == key, f"row {cid} holds {row}, not its key {key}"
    dead = g._table[::3].count(-1)
    assert len(ids) - dead == g.node_count(), \
        f"{len(ids) - dead} live rows for {g.node_count()} keys"
