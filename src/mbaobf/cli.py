"""Command-line front end: obfuscate, bench, check-rules, metrics.

The engine flags take their defaults and range checks from
:class:`~mbaobf.expansion.ExpansionConfig`.  Exit codes, each with one
line on stderr and no traceback: 0 success (including the no-op case
where nothing matched), 2 input error (bad expression, including one
nested deeper than ``expr.MAX_DEPTH`` operators; a flag value out of
range, such as ``--rounds`` above ``MAX_DEPTH``, ``--trials`` below 1
or above 2^24 (``verify.EXHAUSTIVE_CASE_LIMIT``) or a negative
``--seed``; bad or unsound rule file; a rule file or corpus that
is not UTF-8; empty corpus; an output path that cannot be written), 3
resource error (output size cap; an input whose own e-graph holds more
nodes than ``--node-limit``; a valid input with no term within
``--rounds`` and ``--max-output-nodes``, whose message names both limits,
and the input's depth where that is more than ``--rounds``).  A UTF-8
byte-order mark at the start of a rule file or corpus is ignored.
A --selfcheck counterexample exits 1, since it can only mean an engine
bug.  A stdout whose reader has gone (``mbaobf obfuscate ... | head``)
exits 141, the code of a process killed by SIGPIPE, with nothing on
stderr.

``bench`` does not stop at a bad line: a line that does not parse, whose
output would exceed the output size cap, whose e-graph alone exceeds the
node budget or that cannot be extracted is reported on stderr by its
line number in the file, counted as skipped and left out of both
artifacts.  It exits 2 only when every line
is skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import groupby
from typing import Optional

from .egraph import CapacityExceededError
from .expansion import (ExpansionConfig, ExpansionReport, OutputTooLargeError,
                        UnextractableError, expand)
from .expr import VALID_BITWIDTHS, ParseError, _fold, parse, to_text
from .metrics import aggregate, aggregate_csv, measure
from .rules import (RuleSyntaxError, UnboundRhsVarError, load_default_rules,
                    parse_rules)
from .verify import check_equivalence, check_rules

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 128 + 13  # as if killed by SIGPIPE

_DEFAULTS = ExpansionConfig()


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-r", "--rules", metavar="PATH",
                   help="rule file (default: the shipped 14-rule set)")
    p.add_argument("--node-limit", type=int, default=_DEFAULTS.node_limit)
    p.add_argument("--iter-limit", type=int, default=_DEFAULTS.iter_limit)
    p.add_argument("--time-limit-ms", type=int,
                   default=round(_DEFAULTS.time_limit * 1000))
    p.add_argument("--target-size", type=int,
                   default=_DEFAULTS.target_ast_size,
                   help="stop once the extracted size reaches this")
    p.add_argument("--rounds", type=int, default=_DEFAULTS.extraction_rounds,
                   help="depth cap for the maximizing extractor")
    p.add_argument("--max-output-nodes", type=int,
                   default=_DEFAULTS.max_output_nodes,
                   help="AST size cap for the extracted output")
    p.add_argument("--bitwidth", type=int, default=64,
                   choices=VALID_BITWIDTHS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-check", action="store_true",
                   help="skip the rule soundness check before running")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbaobf",
        description="Grow mixed boolean-arithmetic expressions via "
                    "semantics-preserving rewrite rules over an e-graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_obf = sub.add_parser("obfuscate", help="obfuscate one expression")
    p_obf.add_argument("-e", "--expr", required=True)
    _add_engine_flags(p_obf)
    p_obf.add_argument("--selfcheck", action="store_true",
                       help="verify input/output equivalence after the run")
    p_obf.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    p_obf.add_argument("-o", "--output", metavar="PATH",
                       help="write the report here instead of stdout")

    p_bench = sub.add_parser("bench",
                             help="obfuscate a corpus and aggregate metrics")
    p_bench.add_argument("-f", "--corpus", required=True,
                         help="file with one expression per line")
    _add_engine_flags(p_bench)
    p_bench.add_argument("--selfcheck", action="store_true")
    p_bench.add_argument("-o", "--output", metavar="BASE", default="bench_out",
                         help="write BASE.jsonl and BASE.csv (default: "
                              "bench_out)")

    p_check = sub.add_parser("check-rules", help="soundness-check a rule file")
    p_check.add_argument("rulefile")
    p_check.add_argument("--trials", type=int, default=10_000,
                         help="random trials per randomized check: at 64 "
                              "bits, and where exhaustive is infeasible, at "
                              "8 bits from 4 variables and at 4 bits from "
                              "7; 1 to 2^24")
    p_check.add_argument("--seed", type=int, default=0)

    p_metrics = sub.add_parser("metrics",
                               help="print complexity metrics for an "
                                    "expression")
    p_metrics.add_argument("-e", "--expr", required=True)
    p_metrics.add_argument("--bitwidth", type=int, default=64,
                           choices=VALID_BITWIDTHS)
    p_metrics.add_argument("--json", action="store_true")

    return parser


class _Fail(Exception):
    """Ends a command: :func:`main` prints the message and returns
    ``code``."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    """The UTF-8 text of a file the user named, without a leading
    byte-order mark; text that is not UTF-8 fails with the path in the
    message."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _Fail(f"error: {path}: {exc}") from exc


def _read_corpus(path) -> list:
    """The expressions of the corpus at ``path``, each as ``(line number
    in the file, stripped text)``; blank lines and ``#`` lines are
    dropped after numbering."""
    lines = _read_text(path).split("\n")
    return [(lineno, text) for lineno, raw in enumerate(lines, start=1)
            if (text := raw.strip()) and not text.startswith("#")]


def _load_rules(path: Optional[str]) -> list:
    """The rules of every command: the file at ``path``, or the shipped set
    when None."""
    if path is None:
        return load_default_rules()
    return parse_rules(_read_text(path))


def _failure_line(name: str, label: str, res) -> str:
    env, lv, rv = res.counterexample
    # A pattern variable is keyed by its name, a concrete one by its Var.
    bindings = ", ".join(f"?{k}={v}" if isinstance(k, str)
                         else f"{k.name}={v}" for k, v in env.items())
    bits = label.partition("@")[2]
    return (f"rule {name!r} is unsound at {bits} bits: "
            f"{{{bindings}}} gives {lv} vs {rv}")


def _setup(args) -> tuple:
    """``(config, rules)`` for ``obfuscate`` and ``bench``, with the rules
    admitted by the ``check-rules`` verdict at its defaults unless
    ``--no-check``."""
    try:
        cfg = ExpansionConfig(
            node_limit=args.node_limit,
            iter_limit=args.iter_limit,
            time_limit=args.time_limit_ms / 1000.0,
            target_ast_size=args.target_size,
            extraction_rounds=args.rounds,
            max_output_nodes=args.max_output_nodes,
        )
    except ValueError as exc:
        raise _Fail(f"error: {exc}") from exc
    except OverflowError as exc:  # only the division above can overflow
        raise _Fail(f"error: --time-limit-ms is out of range: {exc}") from exc
    rules = _load_rules(args.rules)
    if not args.no_check:
        for rule, label, res in check_rules(rules, seed=args.seed):
            if not res.passed:
                raise _Fail(_failure_line(rule.name, label, res))
    return cfg, rules


# What one input line can end in, with the exit code `obfuscate` gives
# each; `bench` skips the line on any of them.
_LINE_ERRORS = {
    ParseError: EXIT_INPUT,
    UnextractableError: EXIT_RESOURCE,
    OutputTooLargeError: EXIT_RESOURCE,
    CapacityExceededError: EXIT_RESOURCE,
}


def _run_line(text: str, rules: list, cfg: ExpansionConfig, args) -> tuple:
    """Parse, expand and, with ``--selfcheck``, verify one input line.

    Returns ``(report, selfcheck result or None)``; raises one of
    ``_LINE_ERRORS``.
    """
    expr = parse(text, args.bitwidth)
    report = expand(expr, rules, cfg, args.bitwidth)
    if not args.selfcheck:
        return report, None
    return report, check_equivalence(expr, report.output, args.bitwidth,
                                      trials=1000, seed=args.seed)


def _line_error(exc: Exception, text: str, cfg: ExpansionConfig,
                bits: int) -> str:
    """The message for one of ``_LINE_ERRORS`` raised on input ``text``.
    For an unextractable input it names the extractor's limits, and the
    input's depth (operators on its longest root-to-leaf path) where that
    is more than ``--rounds``: the input itself is then too deep to be
    the output."""
    message = str(exc)
    if isinstance(exc, UnextractableError):
        rounds = cfg.extraction_rounds
        message += (f" (depth <= --rounds {rounds}, size <= "
                     f"--max-output-nodes {cfg.max_output_nodes}")
        depth = _fold(parse(text, bits), lambda leaf: 0,
                      lambda node, *depths: 1 + max(depths))
        if depth > rounds:
            message += f"; the input is {depth} operators deep"
        message += ")"
    return message


def _selfcheck_failure(res) -> str:
    env, lv, rv = res.counterexample
    return f"selfcheck FAILED: {env} gives {lv} vs {rv}"


def _report_json(expr_text: str, report: ExpansionReport) -> dict:
    return {
        "input": expr_text,
        "output": to_text(report.output),
        "stop": report.stop.value,
        "metrics_in": report.metrics_in.as_dict(),
        "metrics_out": report.metrics_out.as_dict(),
    }


def run_obfuscate(args) -> int:
    cfg, rules = _setup(args)
    try:
        report, check = _run_line(args.expr, rules, cfg, args)
    except tuple(_LINE_ERRORS) as exc:
        message = _line_error(exc, args.expr, cfg, args.bitwidth)
        raise _Fail(f"error: {message}", _LINE_ERRORS[type(exc)]) from exc
    if args.json:
        payload = _report_json(args.expr, report)
        payload["iterations"] = report.iterations
        payload["final_node_count"] = report.final_node_count
        payload["elapsed_ms"] = round(report.elapsed * 1000.0, 3)
        text = json.dumps(payload, indent=2)
    else:
        text = to_text(report.output)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if check is not None:
        if not check.passed:
            raise _Fail(_selfcheck_failure(check), EXIT_SELFCHECK)
        print(f"selfcheck ok ({check.cases_checked} environments)",
              file=sys.stderr)
    return EXIT_OK


def run_bench(args) -> int:
    cfg, rules = _setup(args)
    lines = _read_corpus(args.corpus)
    if not lines:
        raise _Fail("error: empty corpus")

    rows = []
    pairs = []
    failures = 0
    for lineno, text in lines:
        try:
            report, check = _run_line(text, rules, cfg, args)
        except tuple(_LINE_ERRORS) as exc:
            message = _line_error(exc, text, cfg, args.bitwidth)
            print(f"line {lineno}: skipped ({message})", file=sys.stderr)
            failures += 1
            continue
        if check is not None and not check.passed:
            raise _Fail(f"line {lineno}: {_selfcheck_failure(check)}",
                        EXIT_SELFCHECK)
        rows.append(_report_json(text, report))
        pairs.append((report.metrics_in, report.metrics_out))
    if not pairs:
        raise _Fail("error: every corpus line was skipped")

    csv_text = aggregate_csv(aggregate(pairs))
    jsonl_path = args.output + ".jsonl"
    csv_path = args.output + ".csv"
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    sys.stdout.write(csv_text)
    print(f"{len(pairs)} expressions processed, {failures} skipped; "
          f"details in {jsonl_path}, aggregate in {csv_path}")
    return EXIT_OK


def run_check_rules(args) -> int:
    rules = _load_rules(args.rulefile)
    try:
        results = check_rules(rules, args.trials, args.seed)
    except ValueError as exc:
        raise _Fail(f"error: {exc}") from exc
    failed = False
    for name, checks in groupby(results, key=lambda c: c[0].name):
        checks = [(label, res) for _, label, res in checks]
        failures = [(label, res) for label, res in checks if not res.passed]
        if failures:
            label, res = failures[0]
            print(f"FAIL {name} [{label}]: {_failure_line(name, label, res)}")
            failed = True
        else:
            done = ", ".join(label if label.startswith("exhaustive")
                             else f"{res.cases_checked} {label}"
                             for label, res in checks)
            print(f"ok   {name} ({done})")
    return EXIT_INPUT if failed else EXIT_OK


def run_metrics(args) -> int:
    report = measure(parse(args.expr, args.bitwidth))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for key, value in report.as_dict().items():
            print(f"{key}: {value}")
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "obfuscate": run_obfuscate,
        "bench": run_bench,
        "check-rules": run_check_rules,
        "metrics": run_metrics,
    }
    try:
        if getattr(args, "seed", 0) < 0:
            raise _Fail(f"error: --seed must be non-negative, got "
                        f"{args.seed}")
        code = handlers[args.command](args)
        sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, as the signal module's docs advise, so
        # that the flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _Fail as exc:
        print(exc, file=sys.stderr)
        return exc.code
    # Each of these comes from a path or text the user gave.
    except (OSError, ParseError, RuleSyntaxError, UnboundRhsVarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
