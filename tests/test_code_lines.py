"""``scripts/code_lines.py`` counts the lines of statements, leaving out
comments, blank lines and docstrings."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment
import math  # a comment after code


def f(x):
    """A function docstring."""
    # an indented comment

    y = (x +
         1)
    return y


class C:
    """A class docstring,
    over three
    lines."""

    text = """a string that is not a docstring
spans two lines"""
    "a bare string statement"
    "implicitly" "joined"

    def g(self):
        return math.pi
'''
# the code lines: import, def f, y = ( and its continuation, return y,
# class C, both lines of text, def g, return math.pi
CODE_LINES = 10


def test_counts_a_synthetic_module(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(MODULE)
    b.write_text("# only a comment\n\nx = 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), "a.py", "b.py"],
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True).stdout
    assert out.split("\n") == [f"{CODE_LINES:6d} a.py", "     1 b.py",
                               f"{CODE_LINES + 1:6d} total", ""]


def test_defaults_to_the_package():
    root = SCRIPT.parent.parent
    out = subprocess.run([sys.executable, str(SCRIPT)], cwd=root,
                         capture_output=True, text=True,
                         check=True).stdout.splitlines()
    files = sorted(p.relative_to(root).as_posix()
                   for p in (root / "src" / "mbaobf").glob("*.py"))
    assert "src/mbaobf/expr.py" in files
    assert [line.split()[1] for line in out] == files + ["total"]
    counts = [int(line.split()[0]) for line in out]
    assert all(n > 0 for n in counts) and counts[-1] == sum(counts[:-1])
