#!/usr/bin/env python3
"""Print the code lines of Python files, per file and in total.

    python3 scripts/code_lines.py [FILE ...]

A code line is a line that holds a token of a statement, other than a
docstring: comments, blank lines and docstrings do not count.  A
docstring here is any statement that is string literals alone, as the
first statement of a module, class or function body is; a string in
any other statement counts, each of its lines included.  The files
default to the package's, ``src/mbaobf/*.py``.  Each file's count is
printed before its path relative to the working directory, as ``wc -l``
prints, and the sum last, before ``total``.
"""

from __future__ import annotations

import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines of the Python file at ``path``."""
    lines: set = set()
    statement: list = []  # the tokens of the current logical line
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type in _SKIPPED:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list) -> int:
    paths = argv or sorted((ROOT / "src" / "mbaobf").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
