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
straight-line Python functions generated with no text of the rule file
in them: its left side into a matcher, one nested loop per operator
node, that :func:`ematch` runs, and its right side into an application
that takes a whole list of matches.  Both read and build the e-graph's
own hashcons keys, flat tuples of a label code and canonical child ids,
so no e-node object is made per match or per insertion.  The application
keys the right side's leaves with :meth:`EGraph.leaf_key` once per call,
as :func:`ematch` keys the matcher's; then for each match in turn it
validates the ids, does the e-graph's insertions inline and unions the
right side's class into the matched one through :meth:`EGraph._merge`,
the graph's one definition of a union.  :func:`apply_match` runs it on a
whole slice of a rule's matches, as egg applies each rule's matches as
one batch, so growth pays no Python call per match.  Each match is
applied whole or not at all: a right side the e-graph's node cap refuses
partway is rolled back before the error propagates, and the matches
before it stay applied.  The code only applies: the growth loop owns the
time budget and reads the clock between slices, as egg's ``Runner``
does.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .egraph import _CODES, CapacityExceededError, EGraph, InvalidIdError
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
    runs, and ``apply`` applies the right side to a list of matches (see
    :func:`_compile_application`) for :func:`apply_match` and
    :func:`count_new_nodes`.  It reads each variable from its slot in
    ``program.names``.  A right-side variable that is not on the left
    raises :class:`UnboundRhsVarError`, and an operator on either side
    that is not the operator table's own entry ``ValueError``."""

    name: str
    lhs: Pattern
    rhs: Pattern
    program: _Program = field(init=False, compare=False, repr=False)
    apply: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_operators(self.name, self.lhs, self.rhs)
        program = _compile_matcher(self.name, self.lhs)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "apply", _compile_application(
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


def _check_operators(name: str, *patterns: Pattern) -> None:
    """Raise ``ValueError`` unless every operator of ``patterns`` is the
    operator table's own entry.  Operators compare without their ``fn``,
    so the test is by identity: a lookalike named ``add`` would be matched
    and built as the table's ``add`` while the soundness check evaluated
    its own ``fn``."""
    todo = list(patterns)
    for q in todo:
        if isinstance(q, Op):
            if OPERATORS.get(q.op.name) is not q.op:
                raise ValueError(f"rule {name!r}: operator {q.op.name!r} "
                                 f"is not in the operator table")
            todo.extend(q.args)


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
    node of the pattern is a loop over the keys with its label code in
    its register's class, binding one register per child from the key's
    cells.  A repeated
    variable is an ``if … continue`` right after the loop that binds it,
    and so is a concrete leaf, whose key must be among the bound class's
    keys with its label code.  Loops nest in breadth-first order; past
    ``_MAX_LOOPS`` of them the rest runs in a generated helper, called
    with every register bound so far and every leaf key.  Each root's
    bindings, one tuple per embedding, are deduplicated and sorted.
    """
    binds: list = []  # (register, label code, child registers), in BFS order
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
            binds.append((reg, _CODES[q.op.name], kids))
            todo.extend(zip(q.args, kids))
            n_regs = kids.stop
        else:
            code = _CODES["var" if isinstance(q, Var) else "const"]
            tests[reg] = (f"L{len(leaves)} not in "
                          f"classes[r{reg}].get({code}, ())")
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
        regs = [f"r{k}" for k in kids]
        out.append(f"{pad}_, {', '.join([*regs, '_'][:2])} = n{j}")
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
            reg, code = binds[j][:2]
            out += [f"{pad}ns{j} = classes[r{reg}].get({code})",
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
                f"        ns0 = by.get({binds[0][1]})",
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
    """Generate ``apply(g, matches)``: the right side built and
    unioned into the matched class for each ``(root, bindings)`` of
    ``matches`` in order; returns whether the graph changed.

    ``bindings`` are aligned with ``names``.  Before a match adds
    anything, its root and each right-side variable's binding, in slot
    order, are validated as :meth:`EGraph.find` validates an id, then
    canonicalized, through :meth:`EGraph._find`, only when the id is not
    its own root.  The right side is built bottom-up in post-order, one
    flat block per node.  Each node's key, ``(code, first, second)`` for
    an operator, is looked up in the hashcons; a hit is canonicalized as
    the ids are, and a miss is added inline, as
    :meth:`EGraph.add_canonical` would add it: the node cap is checked,
    a class id appended to the union-find, the key itself stored and its
    row written to the node table, a leaf's payload kept apart.  The
    right side's class is then unioned into the root through
    :meth:`EGraph._merge`.  A right side refused partway is rolled back,
    by id, before the error propagates, and the matches before it are
    kept.

    The source holds only slot numbers, label codes of :data:`OPERATORS`
    and names bound in its namespace: each ``Var`` or ``Const`` leaf is
    passed as an object and keyed by :meth:`EGraph.leaf_key` once per
    call.
    """
    slots = {n: i for i, n in enumerate(names)}
    leaves: dict = {}  # namespace name -> Var or Const leaf
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
            cells = ", ".join([str(_CODES[q.op.name]),
                               *[emit(a) for a in q.args], "-1"][:3])
            key = f"({cells})"
            row = [f"    put([{cells}])"]
        else:
            key = f"K{len(leaves)}"
            leaves[f"L{len(leaves)}"] = q
            code = _CODES["var" if isinstance(q, Var) else "const"]
            row = [f"    put([{code}, -1, -1])"]
        out = f"n{len(build)}"
        if not isinstance(q, Op):
            row.append(f"    payloads[{out}] = k[1]")
        build.append([f"if ({out} := get(k := {key})) is None:",
                      "    if len(hashcons) >= cap:",
                      "        raise CapacityExceededError(cap)",
                      f"    hashcons[k] = {out} = len(uf)",
                      f"    uf.append({out})",
                      *row,
                      f"elif uf[{out}] != {out}:",
                      f"    {out} = canon({out})"])
        return out

    top = emit(rhs)
    if missing:
        raise UnboundRhsVarError(name, min(missing))
    targets = "".join(f"v{i}, " if i in used else "_, "
                      for i in range(len(names))).rstrip()
    match = ["n = len(uf)"]
    for v in ["r", *[f"v{i}" for i in sorted(used)]]:
        match += [f"if type({v}) is not int or not 0 <= {v} < n:",
                  f"    raise InvalidIdError({v})",
                  f"if uf[{v}] != {v}:",
                  f"    {v} = canon({v})"]
    match += [line for node in build for line in node]
    match += [f"if merge(r, {top}):",
              "    changed = True"]
    src = ["def apply(g, matches):",
           "    hashcons, uf, cap = g._hashcons, g._uf, g.max_nodes",
           "    put, payloads = g._table.fromlist, g._payloads",
           "    get, canon, merge = hashcons.get, g._find, g._merge",
           *[f"    K{i} = g.leaf_key(L{i})" for i in range(len(leaves))],
           "    changed = False",
           "    try:",
           f"        for r, ({targets}) in matches:",
           *[f"            {line}" for line in match],
           "    except CapacityExceededError:",
           "        g.rollback(n)",
           "        raise",
           "    return changed"]
    env = {"CapacityExceededError": CapacityExceededError,
           "InvalidIdError": InvalidIdError, **leaves}
    return _exec(name, src, env)["apply"]


# ---------------------------------------------------------------------------
# E-matching
# ---------------------------------------------------------------------------


def _label_index(g: EGraph) -> dict:
    """:meth:`EGraph.classes_by_label` of ``g``, built once per iteration
    and read by every rule's match."""
    return g.classes_by_label()


def ematch(g: EGraph, rule: Rule, index: Optional[dict] = None) -> list:
    """All matches of ``rule``'s left-hand side anywhere in ``index``, each
    a ``(root, bindings)`` tuple: the class matched at and the class bound
    to each of ``rule.program.names``.

    ``index`` is a :func:`_label_index` of ``g``, built here when None;
    it refuses a graph with merges pending.  Matching reads only the
    index, so ids are canonical as of the index, not at match time: a
    rule matched after earlier rules' unions finds what it would have
    found before them.  A concrete leaf matches the class whose nodes in
    the index hold its :meth:`EGraph.leaf_key`; a leaf in no class
    matches nowhere.
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
    """Nodes :func:`apply_match` would add for the match ``m``, exactly,
    with the graph left as it was: ``m`` is applied, then undone, the ids
    it added rolled back and the union-find and pending merges copied
    first put back.  Raises wherever :func:`apply_match` raises."""
    before, uf, merged = len(g._uf), g._uf[:], set(g._merged)
    try:
        rule.apply(g, [m])
        return len(g._uf) - before
    finally:
        g.rollback(before)
        g._uf[:], g._merged = uf, merged


def apply_match(g: EGraph, rule: Rule, matches: list) -> bool:
    """Apply ``rule`` to each of ``matches`` in order: union the
    instantiated right side into the matched class.  Each match is a
    ``(root, bindings)`` tuple from :func:`ematch` for ``rule``.

    Returns whether the graph changed (new nodes or a merge): a right
    side that adds any node has a new class at its top, which cannot be
    the matched class, so the unions alone tell.  A match's root and
    bindings are validated before it adds anything: an id this graph did
    not hand out raises :class:`~mbaobf.egraph.InvalidIdError`.  A right
    side the node cap refuses is rolled back, so the graph holds the
    earlier matches' work when the
    :class:`~mbaobf.egraph.CapacityExceededError` propagates.  The clock
    is not read here: growth passes a rule's matches in slices and reads
    it between them.  The caller must rebuild before the next matching
    round.
    """
    return rule.apply(g, matches)
