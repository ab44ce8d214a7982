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

Matching is relational, as in relational e-matching (Zhang et al.,
POPL 2022) and egglog: each rule plans its left side when it is made
(see :func:`_plan`), and :func:`ematch` runs the plan as numpy joins
over a copy of the node table's live rows, taken once per growth
iteration by :func:`_label_index` from :meth:`EGraph._live_rows`, which
hands them out sorted by label, class and children.  A
match is one flat row, ``(root, *bindings)``, from the join's columns
to the generated application that unpacks it.

Each rule's right side is compiled once, when the rule is made, as egg
does, into straight-line Python generated with no text of the rule file
in it: an application that takes a whole list of matches.  It builds the
e-graph's own hashcons keys, flat tuples of a label code and canonical
child ids, so no e-node object is made per insertion.  It keys the
right side's leaves with :meth:`EGraph.leaf_key` and looks them up once
per call, as :func:`ematch` keys the left side's; then for each match row
in turn it validates the ids and does the e-graph's insertions inline,
each operator node looked up and, if new, stored by one ``setdefault``
of its key with the next id.
A right side's top node that is new goes straight into the matched
class, so it never is a class of its own; a top that already exists is
unioned with the matched class through :meth:`EGraph._merge`, the
graph's one definition of a union.  :func:`apply_match` runs it on a
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

import numpy as np

from .egraph import (_CODES, _LABELS, CapacityExceededError, EGraph,
                     InvalidIdError)
from .expr import (IDENT_FIRST, IDENT_REST, OPERATORS, Op, ParseError, Var,
                   parse_pattern_text)


@dataclass(frozen=True)
class PatVar:
    name: str


# A Pattern is a Var | Const | PatVar leaf or an Op whose args are Patterns.
Pattern = object


@dataclass(frozen=True)
class Rule:
    """A directed rewrite ``lhs => rhs``, both sides prepared once, when
    the rule is made: ``program`` is the left side's join plan (see
    :func:`_plan`), which :func:`ematch` runs, and ``apply``, compiled
    into straight-line Python, applies the right side to a list of
    matches (see :func:`_compile_application`) for :func:`apply_match`
    and :func:`count_new_nodes`.  It reads each variable from its slot in
    ``program.names``.  A right-side variable that is not on the left
    raises :class:`UnboundRhsVarError`, and an operator on either side
    that is not the operator table's own entry ``ValueError``."""

    name: str
    lhs: Pattern
    rhs: Pattern
    program: _Plan = field(init=False, compare=False, repr=False)
    apply: Callable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_operators(self.name, self.lhs, self.rhs)
        program = _plan(self.lhs)
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
    operator table's own entry.  An operator is compared by identity, so
    a lookalike named ``add`` is not the table's ``add``; the e-graph
    labels operators by name, so it would be matched and built as the
    table's ``add`` while the soundness check evaluated its own ``fn``."""
    todo = list(patterns)
    for q in todo:
        if isinstance(q, Op):
            if OPERATORS.get(q.op.name) is not q.op:
                raise ValueError(f"rule {name!r}: operator {q.op.name!r} "
                                 f"is not in the operator table")
            todo.extend(q.args)


# ---------------------------------------------------------------------------
# Left-side plans and right-side applications
# ---------------------------------------------------------------------------


class _Plan(NamedTuple):
    """A left-hand side as a join plan over a :func:`_label_index` (see
    :func:`_plan`), which :func:`ematch` runs."""

    names: tuple  # pattern variables, sorted
    leaves: tuple  # each concrete Var or Const leaf the plan tests
    steps: tuple  # (register, label code, arity, repeats, leaf tests)
    out: tuple  # the registers projected: the root's, then each name's
    ordered: bool  # whether the projection is already in match order


def _plan(lhs: Pattern) -> _Plan:
    """``lhs`` as a plan: one step per operator node, breadth-first.

    Registers are numbered breadth-first, as in de Moura and Bjørner's
    e-matching machine: register 0 is the class matched at, and each
    operator node binds one register per child, from the first and
    second children of the index's rows with its label code in its
    register's class.  A repeated variable, ``(register, register of its
    first occurrence)``, and a concrete leaf, ``(register, number in
    leaves)``, are tests of the step that binds their register.
    :func:`ematch` lists the matches in ascending order of their
    registers, so the projection needs no sort when nothing below the
    root is an operator and the variables' first registers ascend by
    name: every other register is then a repeat or a leaf, fixed by the
    ones before it.  A left side that is a variable or a leaf has no
    step.
    """
    steps: list = []
    leaves: list = []
    first: dict = {}  # variable name -> register of its first occurrence
    binder: dict = {}  # register -> the step that binds it
    todo = [(lhs, 0)]
    n_regs = 1
    for q, reg in todo:
        if isinstance(q, Op):
            kids = range(n_regs, n_regs + len(q.args))
            binder.update(dict.fromkeys(kids, len(steps)))
            steps.append((reg, _CODES[q.op.name], len(q.args), [], []))
            todo.extend(zip(q.args, kids))
            n_regs = kids.stop
        elif isinstance(q, PatVar):
            if q.name in first:
                steps[binder[reg]][3].append((reg, first[q.name]))
            else:
                first[q.name] = reg
        else:  # a leaf at the root is matched by its class alone
            if reg:
                steps[binder[reg]][4].append((reg, len(leaves)))
            leaves.append(q)
    names = tuple(sorted(first))
    out = (0, *[first[n] for n in names])
    ordered = len(steps) <= 1 and list(out) == sorted(out)
    return _Plan(names, tuple(leaves), tuple(steps), out, ordered)


def _compile_application(name: str, rhs: Pattern, names: tuple) -> Callable:
    """Generate ``apply(g, matches)``: the right side built into the
    matched class for each row ``(root, *bindings)`` of ``matches`` in
    order; returns whether the graph changed.

    ``bindings`` are aligned with ``names``, and the loop unpacks each
    row straight into locals: ``for r, v0, v1 in matches``, with ``_``
    for a binding the right side does not read, and ``for r, in
    matches`` for a left side with no variable.  Before a match adds
    anything, its root and each right-side variable's binding, in slot
    order, are validated as :meth:`EGraph.find` validates an id, then
    canonicalized, through :meth:`EGraph._find`, only when the id is not
    its own root.  The right side is built bottom-up in post-order, one
    flat block per node.  An operator's key, ``(code, first, second)``,
    is looked up and, when missing, stored in one
    ``hashcons.setdefault(k, nid)``, ``nid`` being the next id, a local
    counter that starts at the union-find's length; a leaf's key is
    looked up once per call (below) and stored on a miss.  A hit is
    canonicalized as the ids are, and a miss is added inline, as
    :meth:`EGraph.add_canonical` would add it: the key stored, an id
    appended to the union-find and the row queued for the node table, a
    leaf's payload kept apart; then the node cap is checked and ``nid``
    bumped.  A node the cap refuses is thus already in the graph, and
    the rollback of its match removes it with the rest.  The right
    side's top node is the one exception: a miss joins the matched class
    at once, its union-find entry the root, so it never is a class of its
    own and no merge is recorded for it.  A top that already exists, or
    a right side that is a variable, is unioned into the root through
    :meth:`EGraph._merge`, which may then record a merge of two classes.

    The per-call work is done once, at the start: each ``Var`` or
    ``Const`` leaf is keyed by :meth:`EGraph.leaf_key` and looked up in
    the hashcons (looked up again per match only while it is missing),
    and the node cap becomes a bound on ``nid``, since the hashcons and
    the union-find grow in lockstep.  The rows of a call are written
    to the table with one ``fromlist``, before any exception leaves the
    call.  A right side refused partway is then rolled back, by id,
    before the error propagates, and the matches before it are kept.

    The source holds only slot numbers, label codes of :data:`OPERATORS`
    and names bound in its namespace: each leaf is passed as an object.
    """
    slots = {n: i for i, n in enumerate(names)}
    leaves: dict = {}  # namespace name -> Var or Const leaf
    used: set = set()  # slots the right side reads
    missing: set = set()
    build: list = []

    def emit(q: Pattern, top: bool = False) -> str:
        """Append the statements building ``q``, into the root's class
        if ``top``; the local holding its class."""
        if isinstance(q, PatVar):
            if q.name not in slots:
                missing.add(q.name)
                return "None"
            used.add(slots[q.name])
            return f"v{slots[q.name]}"
        if isinstance(q, Op):
            cells = ", ".join([str(_CODES[q.op.name]),
                               *[emit(a) for a in q.args], "-1"][:3])
            out = f"n{len(build)}"
            lookup = [f"if ({out} := setdefault(k := ({cells}), nid)) == nid:"]
            store, row = [], ["rows += k"]
        else:
            j = len(leaves)
            leaves[f"L{j}"] = q
            out = f"n{len(build)}"
            lookup = [f"if ({out} := H{j}) is None:",
                      f"    H{j} = {out} = get(K{j})",
                      f"if {out} is None:"]
            code = _CODES["var" if isinstance(q, Var) else "const"]
            store = [f"hashcons[K{j}] = H{j} = {out} = nid"]
            row = [f"rows += ({code}, -1, -1)", f"payloads[{out}] = K{j}[1]"]
        insert = [*store,
                  f"uf.append({'r' if top else out})",
                  *row,
                  "if nid >= bound:",
                  "    raise CapacityExceededError(cap)",
                  "nid += 1"]
        if top:
            insert.append("changed = True")
            hit = [f"elif merge(r, {out} if uf[{out}] == {out} "
                   f"else canon({out})):",
                   "    changed = True"]
        else:
            hit = [f"elif uf[{out}] != {out}:",
                   f"    {out} = canon({out})"]
        build.append([*lookup, *[f"    {line}" for line in insert], *hit])
        return out

    top = emit(rhs, top=True)
    if isinstance(rhs, PatVar):  # no node of its own: a union of classes
        build.append([f"if merge(r, {top}):", "    changed = True"])
    if missing:
        raise UnboundRhsVarError(name, min(missing))
    targets = ", ".join(["r", *[f"v{i}" if i in used else "_"
                                for i in range(len(names))]])
    if not names:  # a 1-tuple still unpacks
        targets += ","
    match = ["n = nid"]
    for v in ["r", *[f"v{i}" for i in sorted(used)]]:
        match += [f"if type({v}) is not int or not 0 <= {v} < n:",
                  f"    raise InvalidIdError({v})",
                  f"if uf[{v}] != {v}:",
                  f"    {v} = canon({v})"]
    match += [line for node in build for line in node]
    src = ["def apply(g, matches):",
           "    hashcons, uf, payloads = g._hashcons, g._uf, g._payloads",
           "    get, setdefault = hashcons.get, hashcons.setdefault",
           "    canon, merge = g._find, g._merge",
           "    cap, nid = g.max_nodes, len(uf)  # nid: the next id",
           "    bound = nid + cap - len(hashcons)  # the first id refused",
           *[line for i in range(len(leaves))
             for line in (f"    K{i} = g.leaf_key(L{i})",
                          f"    H{i} = get(K{i})")],
           "    rows, changed = [], False",
           "    try:",
           "        try:",
           f"            for {targets} in matches:",
           *[f"                {line}" for line in match],
           "        finally:",
           "            g._table.fromlist(rows)",
           "    except CapacityExceededError:",
           "        g.rollback(n)",
           "        raise",
           "    return changed"]
    env = {"CapacityExceededError": CapacityExceededError,
           "InvalidIdError": InvalidIdError, **leaves}
    exec(compile("\n".join(src), f"<rule {name}>", "exec"), env)
    return env["apply"]


# ---------------------------------------------------------------------------
# E-matching
# ---------------------------------------------------------------------------


class _Index(NamedTuple):
    """The live rows of a rebuilt e-graph's node table, copied out in
    :meth:`EGraph._live_rows`' order: (label code, class, first child,
    second child)."""

    bounds: list  # label code -> the position of its first row; then the end
    cls: np.ndarray  # each row's class
    first: np.ndarray  # each row's first child, -1 for a leaf
    second: np.ndarray  # each row's second child, -1 where there is none
    owner: np.ndarray  # the class of every row, dead ones included, by row


def _label_index(g: EGraph) -> _Index:
    """The snapshot of ``g`` that every rule's match reads in one
    iteration: :meth:`EGraph._live_rows` as it hands the rows out, in the
    index's order already, with each label's first position found.
    ``_live_rows`` refuses a graph with merges pending and holds copies,
    not views, since the table grows while the snapshot is read."""
    owner, live, code, first, second = g._live_rows()
    bounds = code.searchsorted(np.arange(len(_LABELS) + 1)).tolist()
    return _Index(bounds, owner[live], first, second, owner)


def ematch(g: EGraph, rule: Rule, index: Optional[_Index] = None) -> list:
    """All matches of ``rule``'s left-hand side anywhere in ``index``, each
    a flat row ``(root, *bindings)``: the class matched at, then the class
    bound to each of ``rule.program.names``, as :func:`apply_match` takes
    it.  A left side with no variable gives 1-tuples ``(root,)``.

    ``index`` is a :func:`_label_index` of ``g``, built here when None.
    Matching reads only the index, so ids are canonical as of the index,
    not at match time: a rule matched after earlier rules' unions finds
    what it would have found before them.  A concrete leaf matches the
    class its row had in the index; a leaf with no row there matches
    nowhere.

    The plan's first step takes the root label's rows, which the index
    orders by class and children; each later step is a sort-merge join
    of its register's classes with its label's rows, and each test a
    mask, so the matches come out in ascending order of their registers.
    On a rebuilt graph every key is unique, so each embedding is fixed by
    its root and bindings: the result holds each once.  It is complete
    with respect to brute-force instantiation and ordered by root id,
    then by bindings, sorted by ``np.lexsort`` where the plan's order
    differs.
    """
    if index is None:
        index = _label_index(g)
    plan = rule.program
    fixed = []
    for leaf in plan.leaves:
        row = g._hashcons.get(g.leaf_key(leaf))
        if row is None or row >= len(index.owner):
            return []
        fixed.append(index.owner[row])
    regs: list = []
    if not plan.steps:  # a variable matches every class, a leaf its own
        owner = index.owner
        regs.append(np.array(fixed) if fixed else
                    (owner == np.arange(len(owner))).nonzero()[0])
    for reg, code, arity, same, tests in plan.steps:
        start, stop = index.bounds[code], index.bounds[code + 1]
        cls = index.cls[start:stop]
        kids = [index.first[start:stop], index.second[start:stop]][:arity]
        if regs:  # join: each partial match with each row in its class
            key = regs[reg]
            lo = cls.searchsorted(key)
            counts = cls.searchsorted(key, "right") - lo
            take = np.repeat(np.arange(len(key)), counts)
            at = (lo - counts.cumsum() + counts)[take] + np.arange(len(take))
            regs = [r[take] for r in regs] + [kid[at] for kid in kids]
        else:
            regs = [cls, *kids]
        keep = True
        for k, j in same:
            keep &= regs[k] == regs[j]
        for k, i in tests:
            keep &= regs[k] == fixed[i]
        if keep is not True:
            regs = [r[keep] for r in regs]
    cols = [regs[k] for k in plan.out]
    if not plan.ordered:
        order = np.lexsort(cols[::-1])
        cols = [c[order] for c in cols]
    return list(zip(*[c.tolist() for c in cols]))


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
    """Apply ``rule`` to each of ``matches`` in order: build the
    instantiated right side into the matched class.  Each match is a
    row ``(root, *bindings)`` from :func:`ematch` for ``rule``.

    Returns whether the graph changed: a right side that adds any node
    adds its top, which joins the matched class with no merge recorded,
    and one that adds none changed the graph only if its top's class
    merged with the matched one.  A match's root and
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
