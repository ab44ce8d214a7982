"""Expression language for mixed boolean-arithmetic terms.

An expression is a finite tree of operators over variables and fixed-width
unsigned constants.  All arithmetic is two's-complement modulo ``2**bits``;
the supported widths are 4, 8, 16, 32 and 64 bits.

The operator table :data:`OPERATORS` is the one definition of the operator
set: each entry's symbol, arity, binding strength and evaluation function
drive the parser, the printer, both evaluators (this module's and the numpy
one in :mod:`mbaobf.verify`) and the e-graph's operator labels.  An entry's
function is a plain one from Python's :mod:`operator` module, and each
evaluator reduces its results to the width.  An operator is compared by
identity, so only the table's own entries are its operators.

Grammar accepted by :func:`parse`::

    expr   := unary ( BINOP unary )*
    unary  := PREFIX unary | atom
    atom   := IDENT | NUMBER | "(" expr ")"
    IDENT  := [a-zA-Z_][a-zA-Z0-9_]*
    NUMBER := [0-9]+ | ("0x" | "0X") [0-9a-fA-F]+

Whitespace may separate tokens; identifiers and digits are ASCII only.
Leading zeros are allowed (``08`` is 8); a decimal longer than
``sys.get_int_max_str_digits()`` (4300 by default) is a syntax error.
Rule patterns add the leaf ``"?" IDENT``, a pattern variable.
``BINOP`` and ``PREFIX`` are the symbols of the table's binary and unary
operators.  Binary operators are left-associative and bind by the table's
precedence, loosest first: ``|``, ``^``, ``&``, ``+ -``, ``*``; prefix
``-`` and ``~`` bind tightest.  A parsed tree has at most :data:`MAX_DEPTH`
operators on any root-to-leaf path; deeper input raises :class:`ParseError`
(parenthesis nesting alone costs nothing).  Constants out of range are
reduced modulo ``2**bits`` at parse time, so parsed trees always hold
canonical constants in ``[0, 2**bits)``.

Terms that extraction builds share subterms by identity, and each root it
returns carries its :class:`Tape`, its distinct subterms in post-order
with each operator's operands by position, in its instance dict.  The
tape is derived data, not a dataclass field, so it takes no part in
``==``, ``hash``, ``repr`` or construction.  The walkers here
(:func:`to_text`, :func:`evaluate`, :func:`free_vars`, :func:`expr_size`),
:func:`mbaobf.metrics.measure` and the numpy evaluator of
:mod:`mbaobf.verify` read it, and walk a fresh one for a term that has
none.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

VALID_BITWIDTHS = (4, 8, 16, 32, 64)
DEFAULT_BITWIDTH = 64

# Deepest tree parse accepts.  The recursive consumers of a tree
# (EGraph.add_expr and the extractors' _reconstructor) take at most two
# levels of the interpreter's recursion limit (default 1000) per tree
# level, and structural ``==`` of two trees four, so all fit at this
# depth.  Both extractors build terms at most this deep, extract_min
# included.  Every other walker (to_text, free_vars, expr_size, measure,
# evaluate, the numpy evaluator) reads the tape an extracted term carries,
# or walks one with an explicit stack, so it takes any depth.
MAX_DEPTH = 200


class Category(Enum):
    ARITHMETIC = "arithmetic"
    BOOLEAN = "boolean"


@dataclass(frozen=True, eq=False)
class Operator:
    """One entry of the closed operator set.

    ``name`` is the unique internal identifier; ``symbol`` is the surface
    syntax.  Unary minus and binary minus share a symbol but are distinct
    operators.  ``precedence`` is the binding strength (higher binds
    tighter).  ``fn(*operands)`` is the plain function of Python's
    :mod:`operator` module that applies it, with no reduction to a width:
    each evaluator masks to its own width where it needs to.

    An operator is its table entry: it compares and hashes by identity,
    so an ``Operator`` built with the same fields is a different operator.
    """

    name: str
    symbol: str
    arity: int
    category: Category
    precedence: int
    fn: Callable = field(repr=False)

    def __reduce__(self):
        # Pickled as the module global that holds it (ADD for "add"): a
        # copy of an expression must keep the table's entries, since an
        # operator is its entry, and pickle refuses any other Operator.
        return self.name.upper()


ADD = Operator("add", "+", 2, Category.ARITHMETIC, 4, operator.add)
SUB = Operator("sub", "-", 2, Category.ARITHMETIC, 4, operator.sub)
MUL = Operator("mul", "*", 2, Category.ARITHMETIC, 5, operator.mul)
NEG = Operator("neg", "-", 1, Category.ARITHMETIC, 6, operator.neg)
AND = Operator("and", "&", 2, Category.BOOLEAN, 3, operator.and_)
OR = Operator("or", "|", 2, Category.BOOLEAN, 1, operator.or_)
XOR = Operator("xor", "^", 2, Category.BOOLEAN, 2, operator.xor)
NOT = Operator("not", "~", 1, Category.BOOLEAN, 6, operator.invert)

OPERATORS = {op.name: op for op in (ADD, SUB, MUL, NEG, AND, OR, XOR, NOT)}


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Op:
    """``op`` applied to ``args``, a tuple of ``op.arity`` operands.

    A root that extraction returns also holds its :class:`Tape` in its
    instance dict under ``_tape``.  That is derived data, not a field:
    ``==``, ``hash``, ``repr`` and construction ignore it, and a pickle or
    deep copy carries it along with the subterms it lists.
    """

    op: Operator
    args: tuple


Expression = Union[Var, Const, Op]


class ParseError(Exception):
    """Malformed input text; ``position`` is a 0-based character offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"syntax error at column {position + 1}: {message}")


class UnboundVariableError(Exception):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


def _check_int(name: str, value) -> None:
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_bitwidth(bits: int) -> int:
    if type(bits) is not int or bits not in VALID_BITWIDTHS:
        raise ValueError(f"unsupported bitwidth {bits}; choose one of {VALID_BITWIDTHS}")
    return bits


def mask_of(bits: int) -> int:
    return (1 << bits) - 1


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_BINARY = {op.symbol: op for op in OPERATORS.values() if op.arity == 2}
_PREFIX = {op.symbol: op for op in OPERATORS.values() if op.arity == 1}
_SYMBOLS = {*_BINARY, *_PREFIX, "(", ")"}

# IDENT's character classes; rule names (mbaobf.rules) add "-" to the rest.
IDENT_FIRST, IDENT_REST = "a-zA-Z_", "a-zA-Z0-9_"
# The grammar's tokens, tried in this order after optional whitespace.
_TOKEN = re.compile(r"""\s*(?:
      (?P<number> 0[xX][0-9a-fA-F]+ | (?!0[xX])[0-9]+ )
    | (?P<ident>  [%(first)s][%(rest)s]* )
    | (?P<patvar> \?[%(first)s][%(rest)s]* )
    | (?P<symbol> %(symbols)s )
    | (?P<bad>    \S )
)""" % {"first": IDENT_FIRST, "rest": IDENT_REST, "symbols": "|".join(
    map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)))}, re.VERBOSE)
# What a character that starts no token means; a "0" starts only a bare "0x".
_BAD = {"?": "expected identifier after '?'", "0": "malformed hex constant"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "patvar" | one of _SYMBOLS | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):  # contiguous, up to trailing whitespace
        kind, pos = m.lastgroup, m.start(m.lastgroup)
        if kind == "bad":
            raise ParseError(pos, _BAD.get(m["bad"], f"unexpected character "
                                                     f"{m['bad']!r}"))
        tokens.append(_Token(m["symbol"] or kind, m[kind], pos))
    return tokens + [_Token("end", "", len(text))]


def _got(tok: _Token) -> str:
    return repr(tok.text or "end of input")


def _parse_tokens(tokens: list[_Token], bits: Optional[int],
                  patvar_factory: Optional[Callable[[str], object]] = None):
    """Operator-precedence parse over the table.

    Operands and pending operators live on explicit stacks, so neither
    nesting nor long operator chains cost Python recursion.  ``bits=None``
    leaves constants unreduced (used for rule patterns, whose width is only
    known once a rule is instantiated in an engine).
    """
    operands: list = []  # (tree, depth)
    pending: list = []  # (Operator, position), or (None, position) for "("

    def reduce() -> None:
        op, pos = pending.pop()
        args = operands[-op.arity:]
        del operands[-op.arity:]
        depth = 1 + max(d for _, d in args)
        if depth > MAX_DEPTH:
            raise ParseError(pos, f"expression nested deeper than "
                                  f"{MAX_DEPTH} operators")
        operands.append((Op(op, tuple(e for e, _ in args)), depth))

    tokens = iter(tokens)
    while True:
        # An operand: prefix operators and opening parentheses, then a leaf.
        tok = next(tokens)
        while tok.kind in _PREFIX or tok.kind == "(":
            pending.append((_PREFIX.get(tok.kind), tok.pos))
            tok = next(tokens)
        operands.append((_atom(tok, bits, patvar_factory), 0))
        # Closing parentheses, then a binary operator or the end.
        tok = next(tokens)
        while tok.kind == ")":
            while pending and pending[-1][0] is not None:
                reduce()
            if not pending:
                raise ParseError(tok.pos, "unexpected trailing input ')'")
            pending.pop()
            tok = next(tokens)
        op = _BINARY.get(tok.kind)
        if op is None:
            break
        while pending and pending[-1][0] is not None \
                and pending[-1][0].precedence >= op.precedence:
            reduce()
        pending.append((op, tok.pos))
    while pending:
        if pending[-1][0] is None:
            raise ParseError(tok.pos, f"expected ')', got {_got(tok)}")
        reduce()
    if tok.kind != "end":
        raise ParseError(tok.pos, f"unexpected trailing input {tok.text!r}")
    return operands[0][0]


def _atom(tok: _Token, bits: Optional[int], patvar_factory):
    if tok.kind == "ident":
        return Var(tok.text)
    if tok.kind == "number":
        try:
            value = int(tok.text, 16 if tok.text[1:2] in ("x", "X") else 10)
        except ValueError:  # a decimal over the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(tok.pos, f"decimal constant over the {limit}-"
                                      f"digit limit") from None
        return Const(value if bits is None else value & mask_of(bits))
    if tok.kind == "patvar":
        if patvar_factory is None:
            raise ParseError(tok.pos, "pattern variables are not allowed here")
        return patvar_factory(tok.text[1:])
    raise ParseError(tok.pos, f"expected an operand, got {_got(tok)}")


def parse(text: str, bits: int = DEFAULT_BITWIDTH) -> Expression:
    """Parse ``text`` into an expression tree, reducing constants mod 2**bits.

    Raises :class:`ParseError` for malformed text and for a tree with more
    than :data:`MAX_DEPTH` operators on one root-to-leaf path.
    """
    check_bitwidth(bits)
    if not text.strip():
        raise ParseError(0, "empty expression")
    return _parse_tokens(_tokenize(text), bits)


def parse_pattern_text(text: str, patvar_factory: Callable[[str], object]):
    """Parse rule-pattern text: the expression grammar plus ``?name`` leaves.

    Constants are kept unreduced; the engine normalizes them per bitwidth.
    """
    if not text.strip():
        raise ParseError(0, "empty pattern")
    return _parse_tokens(_tokenize(text), None, patvar_factory)


# ---------------------------------------------------------------------------
# Printing, evaluation, structure helpers
# ---------------------------------------------------------------------------


class Tape(NamedTuple):
    """A term's distinct subterms in post-order, as egg's ``RecExpr``
    keeps an extracted term.

    ``order`` lists each distinct subterm once by identity, children
    before parents.  ``kids[i]`` holds the positions in ``order`` of the
    operands of ``order[i]``, empty at a leaf.

    Extraction stores its output's tape in the root's instance dict under
    ``_tape``, with the root left out of ``order``, since a root in its
    own tape would be a reference cycle; ``kids`` still names it, by the
    position ``len(order)`` that :func:`_tape` gives it back.
    """

    order: list
    kids: list


def _subterms(e) -> Tape:
    """The tape of ``e``, walked: an iterative depth-first walk that
    expands each shared subterm once, so its cost follows the distinct
    subterms of a DAG, not its tree size.  The root is the last entry of
    ``order``.  ``e`` may be a rule pattern: any leaf that is not an
    ``Op`` is a leaf here.
    """
    at: dict = {}  # id -> position in order, -1 while its operands are walked
    order: list = []
    kids: list = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (op,): its operands are all in order
            node = node[0]
            at[id(node)] = len(order)
            order.append(node)
            kids.append(tuple([at[id(a)] for a in node.args]))
            continue
        key = id(node)
        if key in at:
            continue
        if isinstance(node, Op):
            at[key] = -1
            stack.append((node,))
            stack.extend(node.args)
        else:
            at[key] = len(order)
            order.append(node)
            kids.append(())
    return Tape(order, kids)


def _tape(e) -> Tape:
    """The tape of ``e``: the one extraction stored on it, with the root
    appended to ``order``, or else a fresh walk, which is not stored (a
    caller walking each subterm of a deep chain would keep quadratic
    memory)."""
    tape = getattr(e, "_tape", None)
    if tape is None:
        return _subterms(e)
    return Tape(tape.order + [e], tape.kids)


def _fold(e, leaf: Callable, combine: Callable):
    """Bottom-up value of ``e``: ``leaf(node)`` at a leaf and
    ``combine(node, *operand values)`` at an ``Op``, once per distinct
    subterm, in the order of its tape.  A value is dropped as soon as its
    last reader has read it."""
    order, kids = _tape(e)
    last = [0] * len(order)  # the position of each value's last reader
    for i, k in enumerate(kids):
        for j in k:
            last[j] = i
    values: list = []
    # An operator has one or two operands; a call per arity, without an
    # argument list, roughly halves the fold's own cost on an output.
    for i, node in enumerate(order):
        k = kids[i]
        if len(k) == 2:
            a, b = k
            values.append(combine(node, values[a], values[b]))
            if last[a] == i:
                values[a] = None
            if last[b] == i:
                values[b] = None
        elif k:
            a, = k
            values.append(combine(node, values[a]))
            if last[a] == i:
                values[a] = None
        else:
            values.append(leaf(node))
    return values[-1]


def _leaf_text(node) -> str:
    return node.name if isinstance(node, Var) else str(node.value)


def _op_text(node: Op, *args: str) -> str:
    if len(args) == 1:
        return f"({node.op.symbol} {args[0]})"
    return f"({args[0]} {node.op.symbol} {args[1]})"


def to_text(e: Expression) -> str:
    """Fully parenthesized canonical form; ``parse(to_text(e)) == e``."""
    return _fold(e, _leaf_text, _op_text)


def evaluate(e: Expression, env: dict, bits: int = DEFAULT_BITWIDTH) -> int:
    """Evaluate under fixed-width two's-complement semantics.

    ``env`` must bind every free variable of ``e``.  Each operator's
    ``fn`` runs on Python ints and its result is masked to ``bits``, so
    results and intermediate values always lie in ``[0, 2**bits)``.  Each
    distinct subterm of a shared DAG is evaluated once.
    """
    m = mask_of(check_bitwidth(bits))

    def leaf(node) -> int:
        if isinstance(node, Const):
            return node.value & m
        if node.name not in env:
            raise UnboundVariableError(node.name)
        return env[node.name] & m

    return _fold(e, leaf, lambda node, *args: node.op.fn(*args) & m)


def free_vars(e: Expression) -> set:
    """The set of distinct variable names occurring in ``e``."""
    return {node.name for node in _tape(e).order if isinstance(node, Var)}


def expr_size(e: Expression) -> int:
    """Total node count of the tree, shared subterms counted per occurrence."""
    return _fold(e, lambda node: 1, lambda node, *sizes: 1 + sum(sizes))
