"""Rewrite rules: patterns, e-matching and rule application.

A pattern is an expression tree whose leaves may also be pattern variables
(``?name`` in rule files).  A rule rewrites every matched instance of its
left-hand side by unioning in the instantiated right-hand side; it never
removes anything, so the e-graph only ever gains representations.

Rule file format, one rule per line; a name is an ASCII ``IDENT`` (see
:mod:`mbaobf.expr`) that may also hold ``-`` after its first character::

    # comment
    name : LHS => RHS      directed
    name : LHS <=> RHS     bidirectional (expands into two directed rules)

Pattern variables on the right-hand side must also occur on the left; a
rule may not invent unbound terms.  :class:`Rule` enforces this when it is
made, so a hand-built rule is held to it as well as a parsed one.
Application is atomic: a right side the e-graph's node cap refuses partway
is rolled back before the error propagates.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .egraph import CapacityExceededError, EGraph
from .expr import IDENT_FIRST, IDENT_REST, Op, ParseError, parse_pattern_text


@dataclass(frozen=True)
class PatVar:
    name: str


# A Pattern is a Var | Const | PatVar leaf or an Op whose args are Patterns.
Pattern = object


@dataclass(frozen=True)
class Rule:
    """A directed rewrite ``lhs => rhs``, both sides compiled once, when the
    rule is made: ``program`` matches the left side; ``steps`` builds the
    right side bottom-up, reading each variable from its slot in
    ``program.names``.  A right-side variable that is not on the left
    raises :class:`UnboundRhsVarError`."""

    name: str
    lhs: Pattern
    rhs: Pattern
    program: _Program = field(init=False, compare=False, repr=False)
    steps: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        program = _compile(self.lhs)
        slots = {name: i for i, name in enumerate(program.names)}
        steps: list = []
        _post_order(self.rhs, steps)
        missing = ({arg for kind, arg in steps if kind == _STEP_VAR}
                   - set(slots))
        if missing:
            raise UnboundRhsVarError(self.name, min(missing))
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "steps", tuple(
            (kind, slots[arg] if kind == _STEP_VAR else arg)
            for kind, arg in steps))


class RuleSyntaxError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class UnboundRhsVarError(Exception):
    def __init__(self, rule: str, var: str):
        self.rule = rule
        self.var = var
        super().__init__(f"rule {rule!r}: right-hand side variable ?{var} "
                         f"does not occur on the left-hand side")


def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file; ``<=>`` lines expand into two directed rules."""
    rules: list[Rule] = []
    names: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise RuleSyntaxError(lineno, "expected 'name : LHS => RHS'")
        name, _, body = line.partition(":")
        name = name.strip()
        if not re.fullmatch(f"[{IDENT_FIRST}][{IDENT_REST}-]*", name):
            raise RuleSyntaxError(lineno, f"bad rule name {name!r}")
        arrow = "<=>" if "<=>" in body else "=>"
        lhs_text, found, rhs_text = body.partition(arrow)
        if not found:
            raise RuleSyntaxError(lineno, "expected '=>' or '<=>'")
        try:
            lhs = parse_pattern_text(lhs_text, PatVar)
            rhs = parse_pattern_text(rhs_text, PatVar)
        except ParseError as exc:
            raise RuleSyntaxError(lineno, str(exc)) from exc
        directed = [(name, lhs, rhs)]
        if arrow == "<=>":
            directed.append((name + "-rev", rhs, lhs))
        for rname, rl, rr in directed:
            if rname in names:
                raise RuleSyntaxError(lineno, f"duplicate rule name {rname!r}")
            names.add(rname)
            rules.append(Rule(rname, rl, rr))
    return rules


def default_rules_text() -> str:
    return importlib.resources.files("mbaobf").joinpath(
        "data/default.rules").read_text(encoding="utf-8")


def load_default_rules() -> list[Rule]:
    """The 14 rules shipped with the engine."""
    return parse_rules(default_rules_text())


# ---------------------------------------------------------------------------
# Compiled patterns
# ---------------------------------------------------------------------------

# Matcher instructions ``(kind, register, argument)``.  Register 0 holds the
# class being matched; a BIND fills one register per child.
_BIND = 0  # argument (label, slice): each node with label in the class
_SAME = 1  # argument: another register; a repeated pattern variable
_LEAF = 2  # argument: index into leaves; the class of a concrete leaf

# Right-hand-side steps ``(kind, argument)`` in post-order.
_STEP_VAR = 0  # argument: the variable's slot in the LHS program's names
_STEP_LEAF = 1  # argument: the Var or Const leaf
_STEP_OP = 2  # argument: (label, arity)


class _Program(NamedTuple):
    """A left-hand side compiled into a matcher."""

    names: tuple  # pattern variables, sorted
    var_regs: tuple  # register bound to each of names
    n_regs: int
    root_label: Optional[str]  # held by the root class of every match
    ops: tuple  # matcher instructions
    leaves: tuple  # each concrete Var or Const leaf the matcher tests


def _compile(p: Pattern) -> _Program:
    # Breadth-first, so each node's leaf and repeated-variable tests come
    # right after the BIND of its parent and prune before deeper BINDs.
    ops: list = []
    leaves: list = []
    first: dict = {}  # variable name -> register of its first occurrence
    todo = [(p, 0)]
    n_regs = 1
    for q, reg in todo:
        if isinstance(q, PatVar):
            if q.name in first:
                ops.append((_SAME, reg, first[q.name]))
            else:
                first[q.name] = reg
        elif isinstance(q, Op):
            children = range(n_regs, n_regs + len(q.args))
            ops.append((_BIND, reg, (q.op.name,
                                     slice(children.start, children.stop))))
            todo.extend(zip(q.args, children))
            n_regs = children.stop
        else:
            ops.append((_LEAF, reg, len(leaves)))
            leaves.append(q)
    names = tuple(sorted(first))
    return _Program(names, tuple(first[n] for n in names), n_regs,
                    p.op.name if isinstance(p, Op) else None,
                    tuple(ops), tuple(leaves))


def _post_order(q: Pattern, steps: list) -> None:
    if isinstance(q, PatVar):
        steps.append((_STEP_VAR, q.name))
    elif isinstance(q, Op):
        for a in q.args:
            _post_order(a, steps)
        steps.append((_STEP_OP, (q.op.name, len(q.args))))
    else:
        steps.append((_STEP_LEAF, q))


# ---------------------------------------------------------------------------
# E-matching
# ---------------------------------------------------------------------------


class _Snapshot(NamedTuple):
    """The graph as it stood when :func:`_label_index` ran, canonical then:
    what :func:`ematch` reads, so later unions do not change its matches."""

    classes: dict  # class id -> {label: [nodes]}, ascending id order
    leaves: dict  # leaf key (see EGraph.leaf_key) -> class id


def _label_index(g: EGraph) -> _Snapshot:
    """Each class's nodes grouped by label, and each leaf's class, in one
    pass; built once per iteration and read by every rule's match."""
    classes: dict = {}
    leaves: dict = {}
    for cid, nodes in g.classes().items():
        by_label: dict = {}
        for n in nodes:
            by_label.setdefault(n.label, []).append(n)
            if not n.children:
                leaves[n] = cid
        classes[cid] = by_label
    return _Snapshot(classes, leaves)


def _run(ops: tuple, pc: int, regs: list, classes: dict, leaf_ids: list,
         var_regs: tuple, out: list) -> None:
    """Execute ``ops[pc:]``, appending one binding tuple per embedding."""
    for pc in range(pc, len(ops)):
        kind, reg, arg = ops[pc]
        if kind == _BIND:
            label, children = arg
            for node in classes[regs[reg]].get(label, ()):
                regs[children] = node.children
                _run(ops, pc + 1, regs, classes, leaf_ids, var_regs, out)
            return
        if regs[reg] != (regs[arg] if kind == _SAME else leaf_ids[arg]):
            return
    out.append(tuple([regs[r] for r in var_regs]))


def ematch(g: EGraph, rule: Rule, index: Optional[_Snapshot] = None) -> list:
    """All matches of ``rule``'s left-hand side anywhere in ``index``, each
    a ``(root, bindings)`` tuple: the class matched at and the class bound
    to each of ``rule.program.names``.

    ``index`` is a :func:`_label_index` of ``g``, built here from the
    rebuilt graph when None.  Matching reads only the index, leaf classes
    included, so ids are canonical as of the index, not at match time: a
    rule matched after earlier rules' unions finds what it would have
    found before them.  Complete with respect to brute-force
    instantiation; duplicates are collapsed and the result is ordered by
    root id, then by bindings, so match lists are deterministic.
    """
    if index is None:
        index = _label_index(g)
    prog = rule.program
    leaf_ids = [index.leaves.get(g.leaf_key(leaf)) for leaf in prog.leaves]
    if None in leaf_ids:
        return []  # a concrete leaf of the pattern is not in the graph
    classes = index.classes
    ops, var_regs, root_label = prog.ops, prog.var_regs, prog.root_label
    regs = [0] * prog.n_regs
    out: list = []
    for cid, by_label in classes.items():
        if root_label is not None and root_label not in by_label:
            continue
        regs[0] = cid
        found: list = []
        _run(ops, 0, regs, classes, leaf_ids, var_regs, found)
        if len(found) > 1:
            found = sorted(set(found))
        for bindings in found:
            out.append((cid, bindings))
    return out


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _build_rhs(g: EGraph, rule: Rule, bindings: tuple) -> int:
    """Walk ``rule.steps`` bottom-up, adding each right-side node with
    :meth:`EGraph.add_canonical`; returns the root's class."""
    add = g.add_canonical
    stack: list = []
    for kind, arg in rule.steps:
        if kind == _STEP_VAR:
            stack.append(g.find(bindings[arg]))
        elif kind == _STEP_LEAF:
            stack.append(add(g.leaf_key(arg)))
        else:
            label, arity = arg
            children = tuple(stack[-arity:])
            del stack[-arity:]
            stack.append(add((label, None, children)))
    return stack[0]


def count_new_nodes(g: EGraph, rule: Rule, m: tuple) -> int:
    """Nodes :func:`apply_match` would add for the match ``m``, exactly: a
    trial run of its walk, always rolled back, that raises where it would
    raise :class:`~mbaobf.egraph.CapacityExceededError`."""
    before = g.node_count()
    try:
        _build_rhs(g, rule, m[1])
        return g.node_count() - before
    finally:
        g.rollback(before)


def apply_match(g: EGraph, rule: Rule, m: tuple) -> bool:
    """Union the instantiated RHS into the matched class; ``m`` is a
    ``(root, bindings)`` tuple from :func:`ematch` for ``rule``.

    Returns whether the graph changed (new nodes or a merge).  A right
    side the node cap refuses is rolled back, so the graph is as it was
    when the :class:`~mbaobf.egraph.CapacityExceededError` propagates.
    The caller must rebuild before the next matching round.
    """
    before = g.node_count()
    try:
        rhs_id = _build_rhs(g, rule, m[1])
    except CapacityExceededError:
        g.rollback(before)
        raise
    _, merged = g.union(g.find(m[0]), rhs_id)
    return merged or g.node_count() != before
