"""The documentation says what the code does: the package docstring's
examples run, and the README's example and flag defaults match the CLI."""

import doctest
import re
import shlex
from pathlib import Path

import mbaobf
from mbaobf.cli import build_parser, main
from mbaobf.expansion import ExpansionConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def test_package_docstring_examples_pass():
    result = doctest.testmod(mbaobf)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_obfuscate_example_prints_the_line_shown(capsys):
    lines = README.splitlines()
    (i,) = [i for i, ln in enumerate(lines)
            if ln.startswith("$ mbaobf obfuscate")]
    argv = shlex.split(lines[i])[2:]
    assert main(argv) == 0
    assert capsys.readouterr().out == lines[i + 1] + "\n"


def test_readme_shared_flag_defaults_match_the_config():
    paragraph = README[README.index("Shared flags"):].split("\n\n")[0]
    documented = {flag: int(value) for flag, value in
                  re.findall(r"`(--[a-z-]+)`\s+\((\d+)\)", paragraph)}
    cfg = ExpansionConfig()
    assert {flag: documented.get(flag) for flag in (
        "--node-limit", "--iter-limit", "--time-limit-ms", "--rounds",
        "--max-output-nodes")} == {
        "--node-limit": cfg.node_limit,
        "--iter-limit": cfg.iter_limit,
        "--time-limit-ms": round(cfg.time_limit * 1000),
        "--rounds": cfg.extraction_rounds,
        "--max-output-nodes": cfg.max_output_nodes,
    }
    # ...and every default the paragraph states is the CLI's
    defaults = vars(build_parser().parse_args(["obfuscate", "-e", "x"]))
    assert {flag: defaults[flag[2:].replace("-", "_")]
            for flag in documented} == documented


def test_readme_library_example_runs(capsys):
    block = README[README.index("```python\n") + len("```python\n"):]
    exec(block[:block.index("```")], {})
    # expand's stop reason and output size, the output's start, then
    # grow's stop reason, iteration count and node count for the same run
    first, _, last = capsys.readouterr().out.splitlines()
    assert first.split()[0] == last.split()[0]
