"""E-graph: equivalence classes of hashconsed expression nodes.

An e-node is an operator or leaf whose children are e-class ids instead of
subtrees.  An e-class is a set of e-nodes that all denote the same value
under the engine's fixed-width semantics.  The graph maintains two
invariants, restored by :meth:`EGraph.rebuild` after a batch of unions:

* hashcons: no two distinct classes contain the same canonical e-node;
* congruence: e-nodes with equal labels and pairwise-equivalent children
  live in the same class.

Mutation protocol: ``add_expr``/``union`` freely, then ``rebuild`` before
reading (``node_count``, ``classes``, matching, extraction).
:meth:`EGraph.nodes`, which extraction reads, refuses a graph with merges
pending.  Determinism matters here: class representatives are chosen as
the smaller canonical id, classes are listed in ascending id order, and
nothing iterates in hash order, so identical operation sequences produce
identical graphs.

Representation: an :class:`ENode` is a named tuple ``(label, payload,
children)``, so hashing, equality and ordering run in C and a plain tuple
of the same three fields is an equal hashcons key.  E-nodes sort as plain
tuples wherever an order is needed.  :meth:`EGraph.leaf_key` is the one
map from a ``Var`` or ``Const`` leaf to its key.  The matcher and rule
application build keys from canonical ids and pass them to
:meth:`EGraph.add_canonical` without constructing e-nodes.

The hashcons, the union-find and the set of classes merged away since
the last rebuild are the graph's whole state.  The hashcons is the one
record of class membership; :meth:`EGraph.classes` groups it by class.
Rebuilding is deferred: a union only records the losing class, and
:meth:`EGraph.rebuild` re-keys, in place, the keys with a child in that
set, each under its canonical form, until a pass merges no classes.
egg repairs only the parents of merged classes too, but through a
parent list per class; finding the stale keys instead costs one C-level
set test per key.  Few keys go stale: over 20 lines of the benchmark's
workloads, 0.28% (corpus defaults) and 0.33% (node limit 8000) of the
keys that full re-key passes visited had a merged child.  Hashcons
values may be merged-away ids; every reader maps them through
:meth:`EGraph.find`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .expr import (Const, Expression, Op, OPERATORS, Var,
                   check_bitwidth)

EClassId = int

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
    """Congruence-closed union of e-classes over hashconsed e-nodes.

    ``bits``, one of ``VALID_BITWIDTHS``, fixes the width constants are
    reduced to; ``max_nodes`` is a hard cap enforced inside
    :meth:`add_canonical`, the one check of the node budget, so no rule
    application can exhaust memory regardless of what the scheduler does.
    """

    def __init__(self, bits: int = 64, max_nodes: Optional[int] = None):
        self.bits = check_bitwidth(bits)
        self.max_nodes = max_nodes
        self._uf: list[int] = []
        self._hashcons: dict = {}  # canonical ENode -> EClassId
        self._merged: set = set()  # classes merged away since last pass

    # -- union-find ---------------------------------------------------------

    def find(self, cid: EClassId) -> EClassId:
        if not isinstance(cid, int) or cid < 0 or cid >= len(self._uf):
            raise InvalidIdError(cid)
        return self._find(cid)

    def _find(self, cid: EClassId) -> EClassId:
        """:meth:`find` for ids the graph handed out itself."""
        uf = self._uf
        root = uf[cid]
        if root == cid:
            return cid
        while uf[root] != root:
            root = uf[root]
        while uf[cid] != root:
            uf[cid], cid = root, uf[cid]
        return root

    def _new_class(self) -> EClassId:
        cid = len(self._uf)
        self._uf.append(cid)
        return cid

    # -- insertion ----------------------------------------------------------

    def canonicalize(self, node: ENode) -> ENode:
        """``node`` with canonical children; ``node`` itself if already so."""
        for child in node.children:
            self.find(child)  # rejects ids this graph never handed out
        return self._canonicalize(node)

    def _canonicalize(self, node: ENode) -> ENode:
        children = node.children
        if not children:
            return node
        find = self._find
        canon = tuple([find(c) for c in children])
        if canon == children:
            return node
        return ENode(node.label, node.payload, canon)

    def add(self, node: ENode) -> EClassId:
        """Insert one e-node (children must be existing class ids)."""
        return self.add_canonical(self.canonicalize(node))

    def add_canonical(self, key: tuple) -> EClassId:
        """Insert ``(label, payload, children)`` whose children are canonical
        ids; returns the canonical class."""
        existing = self._hashcons.get(key)
        if existing is not None:
            return self._find(existing)
        if self.max_nodes is not None and len(self._hashcons) >= self.max_nodes:
            raise CapacityExceededError(self.max_nodes)
        node = key if type(key) is ENode else ENode._make(key)
        cid = self._new_class()
        self._hashcons[node] = cid
        return cid

    def leaf_key(self, leaf: Var | Const) -> tuple:
        """The hashcons key of a :class:`Var` or :class:`Const` leaf, its
        constant reduced to the graph's width."""
        if isinstance(leaf, Var):
            return ("var", leaf.name, ())
        return ("const", leaf.value & ((1 << self.bits) - 1), ())

    def add_expr(self, e: Expression) -> EClassId:
        """Insert a whole expression bottom-up; returns the root's class."""
        if not isinstance(e, Op):
            return self.add_canonical(self.leaf_key(e))
        children = tuple(self.add_expr(a) for a in e.args)
        return self.add(ENode(e.op.name, None, children))

    def rollback(self, nodes: int) -> None:
        """Remove what was added since the graph held ``nodes`` nodes, with
        no union or rebuild since: each insertion added one hashcons entry
        and one class id, so both are popped, newest first."""
        while len(self._hashcons) > nodes:
            self._hashcons.popitem()
            self._uf.pop()

    # -- merging ------------------------------------------------------------

    def union(self, a: EClassId, b: EClassId) -> tuple[EClassId, bool]:
        """Merge two classes; the smaller canonical id becomes representative.

        Returns ``(representative, changed)``; ``changed`` is False when the
        ids were already equivalent.
        """
        a, b = self.find(a), self.find(b)
        if a == b:
            return a, False
        winner, loser = (a, b) if a < b else (b, a)
        self._uf[loser] = winner
        self._merged.add(loser)
        return winner, True

    # -- congruence maintenance ---------------------------------------------

    def rebuild(self) -> int:
        """Process pending merges until the invariants hold again.

        Each pass takes the classes merged away since the previous one and
        re-keys, in place, only the keys with such a child: each is popped,
        put back under its canonical form, and merged with the class that
        already holds that form.  Such a merge calls for another pass.
        Returns the number of passes; a second call with no intervening
        mutation returns 0.
        """
        hashcons = self._hashcons
        canonicalize = self._canonicalize
        passes = 0
        while self._merged:
            merged, self._merged = self._merged, set()
            passes += 1
            stale = [n for n in hashcons if not merged.isdisjoint(n.children)]
            for node in stale:
                cid = hashcons.pop(node)
                prev = hashcons.setdefault(canonicalize(node), cid)
                if prev != cid:
                    self.union(prev, cid)
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
        """``{canonical id: [nodes]}`` in ascending id order, grouped from
        the hashcons in one pass (exact in rebuilt state).  The order of
        the nodes within a class is unspecified."""
        members: dict = {cid: [] for cid in self.class_ids()}
        find = self._find
        for node, cid in self._hashcons.items():
            members[find(cid)].append(node)
        return members

    def nodes(self) -> tuple[list, list]:
        """``(nodes, classes)``: every e-node in hashcons order and the
        canonical class of each, from one walk of the hashcons.  Raises
        ``ValueError`` while merges are pending, since keys and classes
        may then be stale."""
        if self._merged:
            raise ValueError("the e-graph has pending merges: rebuild first")
        hashcons = self._hashcons
        return list(hashcons), list(map(self._find, hashcons.values()))

    def expr_of_node(self, node: ENode, arg_exprs: tuple) -> Expression:
        """Rebuild one expression node from an e-node and child expressions."""
        if node.label == "var":
            return Var(node.payload)
        if node.label == "const":
            return Const(node.payload)
        return Op(OPERATORS[node.label], arg_exprs)

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Snapshot as text lines ``class <id>: {node, node, ...}``."""
        lines = []
        for cid, nodes in self.classes().items():
            body = ", ".join(n.render() for n in sorted(nodes))
            lines.append(f"class {cid}: {{{body}}}")
        return "\n".join(lines)


# -- invariant checks (used by the stress tests, full scans) ----------------


def check_invariants(g: EGraph) -> None:
    """Full-scan hashcons + congruence check; raises AssertionError on breach.

    Linear in node count.  The hashcons holds each node once, so congruence
    is every key being canonical; every key must map to a class the graph
    handed out, no live class may be empty, no merge may be pending, and a
    capped graph must hold at most ``max_nodes`` nodes.
    """
    ids = range(len(g._uf))
    live = set()
    for n, cid in g._hashcons.items():
        assert g.canonicalize(n) == n, f"stale node {n} in the hashcons"
        assert cid in ids, f"hashcons maps {n} to unknown class {cid}"
        live.add(g.find(cid))
    empty = set(g.class_ids()) - live
    assert not empty, f"classes {sorted(empty)} are empty"
    assert not g._merged, f"merges of {sorted(g._merged)} are pending"
    assert g.max_nodes is None or g.node_count() <= g.max_nodes, \
        f"{g.node_count()} nodes over the cap of {g.max_nodes}"
