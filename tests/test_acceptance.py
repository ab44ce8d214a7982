"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The module takes a few seconds: criterion 3 runs the full 100-expression
corpus at the default settings in about one second on a 2-core machine.
"""

import json
import random
import time
from pathlib import Path

import pytest

from mbaobf.cli import _read_corpus, main
from mbaobf.egraph import EGraph, check_invariants
from mbaobf.expansion import ExpansionConfig, StopReason, expand, extract_min
from mbaobf.expr import free_vars, parse, to_text
from mbaobf.metrics import measure
from mbaobf.rules import (PatVar, apply_match, count_new_nodes, ematch,
                          load_default_rules, parse_rules)
from mbaobf.verify import check_equivalence, check_rule, check_rule_random

from conftest import CORPUS, CRITERION_7, NaivePartition, random_expr


def corpus_lines():
    return [text for _, text in _read_corpus(CORPUS)]


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_rule_soundness():
    rules = load_default_rules()
    start = time.monotonic()
    failures = []
    for rule in rules:
        for width in (4, 8):
            res = check_rule(rule, width)
            if not res.passed:
                failures.append((rule.name, width, res.counterexample))
        res = check_rule_random(rule, 64, 10_000, seed=0)
        if not res.passed:
            failures.append((rule.name, 64, res.counterexample))
    elapsed = time.monotonic() - start
    ok = not failures and len(rules) == 14 and elapsed < 10.0
    verdict(1, ok, f"14 rules exhaustive@4+8 plus 1e4 random@64, "
                   f"failures={failures}, {elapsed:.2f}s")


def test_criterion_2_end_to_end_equivalence():
    # the experiment configuration: node limit 3000, 2 rounds, 2 seconds
    cfg = ExpansionConfig(node_limit=3000, iter_limit=2, time_limit=2.0)
    rules = load_default_rules()
    failures = []
    exhaustive = 0
    for line in corpus_lines():
        e = parse(line)
        report = expand(e, rules, cfg)
        checks = [check_equivalence(e, report.output, 8)]
        if len(free_vars(e)) > 2:
            checks.append(check_equivalence(e, report.output, 64,
                                            trials=1000, seed=0))
        for res in checks:
            if not res.passed:
                failures.append((line, res.counterexample))
        exhaustive += checks[0].cases_checked == 1 << 8 * len(free_vars(e))
    verdict(2, not failures and exhaustive == 100,
            f"100/100 corpus outputs equivalent (exhaustive@8 on "
            f"{exhaustive}/100 lines, plus 1e3 random@64 for 3 vars); "
            f"failures={failures}")


def test_criterion_3_complexity_growth():
    cfg = ExpansionConfig()  # defaults; extractor depth >= 32
    assert cfg.extraction_rounds >= 32
    rules = load_default_rules()
    pairs = []
    slowest = 0.0
    for line in corpus_lines():
        t0 = time.monotonic()
        report = expand(parse(line), rules, cfg)
        slowest = max(slowest, time.monotonic() - t0)
        pairs.append((report.metrics_in, report.metrics_out))
    n = len(pairs)
    mean_in = sum(p[0].ast_size for p in pairs) / n
    mean_out = sum(p[1].ast_size for p in pairs) / n
    mean_ops = sum(p[1].op_count for p in pairs) / n
    mean_leaves = sum(p[1].var_count + p[1].const_count for p in pairs) / n
    ok = mean_out >= 100 * mean_in and mean_ops > mean_leaves
    verdict(3, ok, f"mean size {mean_in:.2f} -> {mean_out:.2f} "
                   f"({mean_out / mean_in:.0f}x, need >=100x); "
                   f"ops {mean_ops:.2f} > leaves {mean_leaves:.2f}; "
                   f"slowest expansion {slowest:.2f}s")


def test_criterion_4_metric_spot_values():
    r1 = measure(parse("x + y"))
    r2 = measure(parse("((x|y)+(x&y))"))
    ok = ((r1.ast_size, r1.var_count, r1.const_count, r1.op_count,
           r1.mba_alternation) == (3, 2, 0, 1, 0)
          and abs(r1.entropy_tokens - 1.58) < 0.01
          and (r2.ast_size, r2.var_count, r2.const_count, r2.op_count,
               r2.mba_alternation) == (7, 4, 0, 3, 2))
    verdict(4, ok, f"x+y -> {r1.as_dict()}; masked sum -> {r2.as_dict()}")


def test_criterion_5_figure_shape():
    g = EGraph()
    g.add_expr(parse("x + y"))
    three_classes = g.class_count() == 3

    g2 = EGraph()
    root = g2.add_expr(parse("y * 1"))
    g2.rebuild()
    (mulid,) = parse_rules("mulid : ?y * 1 => ?y")
    (m,) = ematch(g2, mulid)
    apply_match(g2, mulid, [m])
    g2.rebuild()
    y = g2.add_expr(parse("y"))
    merged = g2.find(root) == g2.find(y)
    minimal = to_text(extract_min(g2, root)) == "y"
    ok = three_classes and merged and minimal
    verdict(5, ok, f"x+y gives 3 e-classes ({three_classes}); y*1 merged "
                   f"with y ({merged}); extract_min returns y ({minimal})")


def test_criterion_6_saturation_noop(tmp_path, capsys):
    # rules whose patterns require an operator cannot touch a lone constant
    operator_rules = [r for r in load_default_rules()
                      if not isinstance(r.lhs, PatVar)]
    report = expand(parse("5"), operator_rules)
    unchanged = to_text(report.output) == "5"
    saturated = report.stop is StopReason.SATURATED

    rules_path = tmp_path / "operator.rules"
    from mbaobf.rules import default_rules_text
    rules_path.write_text("\n".join(
        ln for ln in default_rules_text().splitlines()
        if ":" in ln and not ln.split(":", 1)[1].strip().startswith("?")))
    code = main(["obfuscate", "-e", "5", "-r", str(rules_path)])
    printed = capsys.readouterr().out.strip()
    ok = unchanged and saturated and code == 0 and printed == "5"
    verdict(6, ok, f"constant input unchanged={unchanged}, "
                   f"stop={report.stop.value}, exit={code}, stdout={printed!r}")


def test_criterion_7_bench_determinism(tmp_path):
    artifacts = []
    for name in ("run_a", "run_b"):
        base = str(tmp_path / name)
        code = main(["bench", "-f", str(CORPUS), "-o", base, *CRITERION_7])
        assert code == 0
        artifacts.append((Path(base + ".jsonl").read_bytes(),
                          Path(base + ".csv").read_bytes()))
    identical = artifacts[0] == artifacts[1]
    verdict(7, identical,
            f"two bench runs with identical flags/seed byte-identical: "
            f"jsonl {len(artifacts[0][0])} bytes, csv {len(artifacts[0][1])} "
            f"bytes")


def test_criterion_8_invariant_stress():
    rng = random.Random(2024)
    rules = load_default_rules()
    operations = 0
    rebuilds = 0
    g = EGraph(bits=8)
    oracle = NaivePartition()
    roots = []

    def checked_rebuild():
        nonlocal rebuilds
        g.rebuild()
        rebuilds += 1
        check_invariants(g)
        # asserted equalities can only be coarsened by congruence, never lost
        for a in roots:
            for b in roots:
                if oracle.same(a, b):
                    assert g.find(a) == g.find(b)

    while operations < 1000:
        batch = rng.randint(3, 12)
        for _ in range(batch):
            operations += 1
            kind = rng.random()
            if kind < 0.35 and g.node_count() < 150:
                cid = g.add_expr(random_expr(rng, rng.randint(1, 7), bits=8,
                                             const_prob=0.3))
                roots.append(cid)
                oracle.add(cid)
            elif kind < 0.6 and len(roots) >= 2:
                a, b = rng.choice(roots), rng.choice(roots)
                g.union(a, b)
                oracle.union(a, b)
            elif roots:
                rule = rng.choice(rules)
                g.rebuild()  # matching refuses a graph with merges pending
                matches = ematch(g, rule)
                for m in matches[:3]:
                    if g.node_count() + count_new_nodes(g, rule, m) <= 200:
                        apply_match(g, rule, [m])
        checked_rebuild()
        if g.node_count() > 190:
            g = EGraph(bits=8)
            oracle = NaivePartition()
            roots = []
    verdict(8, True, f"{operations} operations, {rebuilds} rebuilds, "
                     f"full-scan congruence/hashcons checks all passed")


def test_criterion_9_performance_sanity():
    report = expand(parse("x + y"), load_default_rules(), ExpansionConfig())
    ok = report.elapsed <= 2.0 and report.final_node_count >= 1000
    verdict(9, ok, f"defaults on x+y: {report.final_node_count} e-nodes "
                   f"(need >=1000) in {report.elapsed:.2f}s (limit 2s), "
                   f"stop={report.stop.value}")
