"""No test asserts a condition that cannot fail: an ``assert`` whose
condition is an ``or`` with a truthy constant operand, such as
``assert x <= y or True``, passes whatever ``x`` and ``y`` are."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def vacuous_asserts(source: str) -> list:
    """The line numbers of the asserts in ``source`` whose condition is an
    ``or`` (at any depth of nested ``or``) with a truthy constant
    operand."""

    def vacuous(test) -> bool:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return any(vacuous(v) or (isinstance(v, ast.Constant)
                                      and bool(v.value))
                       for v in test.values)
        return False

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert) and vacuous(node.test)]


def test_checker_flags_a_vacuous_assert():
    source = """
def test_bound(r):
    assert r.low <= r.high or False
    assert r.low or r.high
    assert (r.low <= r.high + 1e-12
            or True)
    assert r.low or (r.high or 1), "message"
    assert not (r.low or True)
"""
    assert vacuous_asserts(source) == [5, 7]


def test_no_test_asserts_a_condition_that_cannot_fail():
    found = {path.name: lines for path in sorted(TESTS.glob("*.py"))
             if (lines := vacuous_asserts(path.read_text(encoding="utf-8")))}
    assert found == {}
