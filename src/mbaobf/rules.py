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

Each rule is compiled once, when it is made, as egg does, into two
straight-line Python functions generated with no text of the rule file in
them: its left side into a matcher, one nested loop per operator node,
that :func:`ematch` runs, and its right side into a builder that does the
e-graph's insertions inline and returns the right side's class.
:func:`apply_match` unions that class into the matched one through
:meth:`EGraph._merge`, the graph's one definition of a union.
Application is atomic: a right side the e-graph's node cap refuses
partway is rolled back before the error propagates.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .egraph import CapacityExceededError, EGraph, ENode
from .expr import (IDENT_FIRST, IDENT_REST, OPERATORS, Op, ParseError, Var,
                   parse_pattern_text)


@dataclass(frozen=True)
class PatVar:
    name: str


# A Pattern is a Var | Const | PatVar leaf or an Op whose args are Patterns.
Pattern = object


@dataclass(frozen=True)
class Rule:
    """A directed rewrite ``lhs => rhs``, both sides compiled once, when the
    rule is made, into straight-line Python: ``program`` holds the left
    side's matcher (see :func:`_compile_matcher`), which :func:`ematch`
    runs, and ``build`` builds the right side (see
    :func:`_compile_application`) for :func:`apply_match` and
    :func:`count_new_nodes`.  It reads each variable from its slot in
    ``program.names``.  A right-side variable that is not on the left
    raises :class:`UnboundRhsVarError`."""

    name: str
    lhs: Pattern
    rhs: Pattern
    program: _Program = field(init=False, compare=False, repr=False)
    build: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        program = _compile_matcher(self.name, self.lhs)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "build", _compile_application(
            self.name, self.rhs, program.names))


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
    return importlib.resources.files(__package__).joinpath(
        "data/default.rules").read_text(encoding="utf-8")


def load_default_rules() -> list[Rule]:
    """The 14 rules shipped with the engine."""
    return parse_rules(default_rules_text())


# ---------------------------------------------------------------------------
# Compiled patterns
# ---------------------------------------------------------------------------


class _Program(NamedTuple):
    """A left-hand side compiled into a matcher."""

    names: tuple  # pattern variables, sorted
    leaves: tuple  # each concrete Var or Const leaf the matcher tests
    match: Callable  # see _compile_matcher


# CPython compiles at most 20 statically nested blocks in one function, and
# each loop is one: a matcher hands the loops past this many to a helper.
_MAX_LOOPS = 16


def _compile_matcher(name: str, lhs: Pattern) -> _Program:
    """Generate ``match(classes, *leaf_keys)``, the left side as
    straight-line Python: every match in a :func:`_label_index`, given
    the key (see :meth:`EGraph.leaf_key`) of each of ``leaves``, as
    :func:`ematch` returns them.

    Registers are numbered breadth-first, as in de Moura and Bjørner's
    e-matching machine: ``r0`` is the class matched at, and each operator
    node of the pattern is a loop over the nodes with its label in its
    register's class, binding one register per child.  A repeated
    variable is an ``if … continue`` right after the loop that binds it,
    and so is a concrete leaf, whose key must be among the bound class's
    nodes with its label.  Loops nest in breadth-first order; past
    ``_MAX_LOOPS`` of them the rest runs in a generated helper, called
    with every register bound so far and every leaf key.  Each root's
    bindings, one tuple per embedding, are deduplicated and sorted.
    """
    binds: list = []  # (register, label, child registers), breadth-first
    tests: dict = {}  # register -> the condition that rejects its class
    leaves: list = []
    first: dict = {}  # variable name -> register of its first occurrence
    todo = [(lhs, 0)]
    n_regs = 1
    for q, reg in todo:
        if isinstance(q, PatVar):
            if q.name in first:
                tests[reg] = f"r{reg} != r{first[q.name]}"
            else:
                first[q.name] = reg
        elif isinstance(q, Op):
            kids = range(n_regs, n_regs + len(q.args))
            binds.append((reg, q.op.name, kids))
            todo.extend(zip(q.args, kids))
            n_regs = kids.stop
        else:
            label = "var" if isinstance(q, Var) else "const"
            tests[reg] = (f"L{len(leaves)} not in "
                          f"classes[r{reg}].get({label!r}, ())")
            leaves.append(q)
    names = tuple(sorted(first))
    found = "".join(f"r{first[n]}, " for n in names)
    keys = [f"L{i}" for i in range(len(leaves))]
    helpers: list = []

    def enter(j: int, pad: str, out: list) -> None:
        """The loop over bind ``j``'s nodes, its children bound and
        tested; its body is indented one step past ``pad``."""
        kids = binds[j][2]
        out.append(f"{pad}for n{j} in ns{j}:")
        pad += "    "
        out.append(f"{pad}{''.join(f'r{k}, ' for k in kids)}= n{j}[2]")
        for k in kids:
            if k in tests:
                out += [f"{pad}if {tests[k]}:", f"{pad}    continue"]

    def rest(j: int, pad: str, depth: int, miss: str, out: list) -> None:
        """The binds from ``j`` on, then the match, with ``depth`` loops
        open; ``miss`` leaves a class that lacks bind ``j``'s label."""
        for j in range(j, len(binds)):
            if depth == _MAX_LOOPS:
                params = ", ".join(
                    ["classes", "append",
                     *[f"r{k}" for k in range(binds[j - 1][2].stop)], *keys])
                helper = f"m{len(helpers) + 1}"
                out.append(f"{pad}{helper}({params})")
                body = [f"def {helper}({params}):"]
                helpers.append(body)
                rest(j, "    ", 0, "return", body)
                return
            reg, label = binds[j][:2]
            out += [f"{pad}ns{j} = classes[r{reg}].get({label!r})",
                    f"{pad}if ns{j} is None:",
                    f"{pad}    {miss}"]
            enter(j, pad, out)
            pad, depth, miss = pad + "    ", depth + 1, "continue"
        out.append(f"{pad}append((r0, ({found})))")

    src = [f"def match({', '.join(['classes', *keys])}):",
           "    out = []",
           "    append = out.append"]
    if binds:
        src += ["    for r0, by in classes.items():",
                f"        ns0 = by.get({binds[0][1]!r})",
                "        if ns0 is None:",
                "            continue",
                "        start = len(out)"]
        enter(0, "        ", src)
        rest(1, " " * 12, 2, "continue", src)
        src += ["        if len(out) - start > 1:",
                "            out[start:] = sorted(set(out[start:]))"]
    else:
        src.append("    for r0 in classes:")
        if 0 in tests:
            src += [f"        if {tests[0]}:", "            continue"]
        src.append(f"        append((r0, ({found})))")
    src.append("    return out")
    for body in helpers:
        src += body
    return _Program(names, tuple(leaves), _exec(name, src, {})["match"])


def _exec(name: str, src: list, env: dict) -> dict:
    """Compile and run generated lines of rule ``name`` in ``env``."""
    exec(compile("\n".join(src), f"<rule {name}>", "exec"), env)
    return env


def _compile_application(name: str, rhs: Pattern, names: tuple) -> Callable:
    """Generate ``build(g, bindings)``: the right side built bottom-up in
    post-order, one flat statement per node; returns its class.

    ``bindings`` are aligned with ``names``.  Each right-side variable is
    read from its slot once and passed through the validated
    :meth:`EGraph.find` before anything is added; the ids the graph hands
    out within the call are trusted.  Each node is looked up in the
    hashcons.  A hit is canonicalized only when its id is not its own
    root.  A miss is added inline, as :meth:`EGraph.add_canonical` would
    add it: the node cap is checked, a class id appended to the union-find
    and the key stored as an :class:`ENode`.  A right side refused partway
    is rolled back before the error propagates.

    The source holds only slot numbers, labels of :data:`OPERATORS` and
    names bound in its namespace: each ``Var`` leaf's key and each
    constant are passed as objects, the constant masked to the graph's
    width at run time as :meth:`EGraph.leaf_key` does.
    """
    slots = {n: i for i, n in enumerate(names)}
    leaves: dict = {}  # namespace name -> Var key or constant
    used: set = set()  # slots the right side reads
    missing: set = set()
    build: list = []

    def emit(q: Pattern) -> str:
        """Append the statements building ``q``; the local holding its
        class."""
        if isinstance(q, PatVar):
            if q.name not in slots:
                missing.add(q.name)
                return "None"
            used.add(slots[q.name])
            return f"v{slots[q.name]}"
        if isinstance(q, Op):
            if OPERATORS.get(q.op.name) != q.op:
                raise ValueError(f"rule {name!r}: operator {q.op.name!r} "
                                 f"is not in the operator table")
            children = ", ".join([emit(a) for a in q.args])
            key = f"({q.op.name!r}, None, ({children},))"
        elif isinstance(q, Var):
            key = f"K{len(leaves)}"
            leaves[key] = ("var", q.name, ())
        else:
            const = f"C{len(leaves)}"
            leaves[const] = q.value
            key = f"('const', {const} & mask, ())"
        out = f"n{len(build)}"
        build.append([f"if ({out} := get(k := {key})) is None:",
                      "    if len(hashcons) >= cap:",
                      "        raise CapacityExceededError(cap)",
                      f"    hashcons[new(ENode, k)] = {out} = len(uf)",
                      f"    uf.append({out})",
                      f"elif uf[{out}] != {out}:",
                      f"    {out} = canon({out})"])
        return out

    top = emit(rhs)
    if missing:
        raise UnboundRhsVarError(name, min(missing))
    src = ["def build(g, b):",
           "    find = g.find",
           *[f"    v{i} = find(b[{i}])" for i in sorted(used)],
           "    hashcons, uf, cap = g._hashcons, g._uf, g.max_nodes",
           "    get, canon = hashcons.get, g._find",
           *(["    mask = (1 << g.bits) - 1"]
             if any(k[0] == "C" for k in leaves) else []),
           "    before = len(hashcons)",
           "    try:",
           *([f"        {line}" for node in build for line in node]
             or ["        pass"]),
           "    except CapacityExceededError:",
           "        g.rollback(before)",
           "        raise",
           f"    return {top}"]
    env = {"CapacityExceededError": CapacityExceededError, "ENode": ENode,
           "new": tuple.__new__, **leaves}
    return _exec(name, src, env)["build"]


# ---------------------------------------------------------------------------
# E-matching
# ---------------------------------------------------------------------------


def _label_index(g: EGraph) -> dict:
    """``{class id: {label: [nodes]}}``, ascending id order: each class's
    nodes grouped by label, as :meth:`EGraph.classes` gives them; built
    once per iteration and read by every rule's match."""
    index: dict = {}
    for cid, nodes in g.classes().items():
        by_label: dict = {}
        for n in nodes:
            by_label.setdefault(n.label, []).append(n)
        index[cid] = by_label
    return index


def ematch(g: EGraph, rule: Rule, index: Optional[dict] = None) -> list:
    """All matches of ``rule``'s left-hand side anywhere in ``index``, each
    a ``(root, bindings)`` tuple: the class matched at and the class bound
    to each of ``rule.program.names``.

    ``index`` is a :func:`_label_index` of ``g`` taken with no merges
    pending, built here when None; a child id that is not one of its
    classes raises ``KeyError``.  Matching reads only the index, so ids
    are canonical as of the index, not at match time: a rule matched
    after earlier rules' unions finds what it would have found before
    them.  A concrete leaf matches the class whose nodes in the index
    hold its :meth:`EGraph.leaf_key`; a leaf in no class matches nowhere.
    Complete with respect to brute-force instantiation; duplicates are
    collapsed and the result is ordered by root id, then by bindings, so
    match lists are deterministic.
    """
    if index is None:
        index = _label_index(g)
    prog = rule.program
    return prog.match(index, *[g.leaf_key(leaf) for leaf in prog.leaves])


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def count_new_nodes(g: EGraph, rule: Rule, m: tuple) -> int:
    """Nodes :func:`apply_match` would add for the match ``m``, exactly:
    the rule's right side built, then rolled back.  Reads no root; raises
    where :func:`apply_match` would raise
    :class:`~mbaobf.egraph.CapacityExceededError`."""
    before = g.node_count()
    rule.build(g, m[1])
    added = g.node_count() - before
    g.rollback(before)
    return added


def apply_match(g: EGraph, rule: Rule, m: tuple) -> bool:
    """Union the instantiated RHS into the matched class; ``m`` is a
    ``(root, bindings)`` tuple from :func:`ematch` for ``rule``.

    The root is validated first, then the bindings, before any node is
    added.  Returns whether the graph changed (new nodes or a merge): a
    right side that adds any node has a new class at its top, which
    cannot be the matched class, so the union alone tells.  A right side
    the node cap refuses is rolled back, so the graph is as it was when
    the :class:`~mbaobf.egraph.CapacityExceededError` propagates.  The
    caller must rebuild before the next matching round.
    """
    root = g.find(m[0])
    return g._merge(root, rule.build(g, m[1]))
