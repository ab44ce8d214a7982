"""Tests of the benchmark's own code: generator, checks, statistics, tracer
and the metric names it prints.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from itertools import islice

import pytest

import checks
import run
import tracer
import workloads
from workloads import ROOT, WORKLOADS

import mbaobf
import mbaobf.expansion
from mbaobf import (Const, ExpansionConfig, Op, Var, expand, free_vars,
                    load_default_rules, parse)
from mbaobf.expr import ADD, AND, MUL, NEG, NOT, OR, SUB, XOR

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
x, y = Var("x"), Var("y")


def op(operator, *args):
    return Op(operator, args)


# -- generator ---------------------------------------------------------------


def test_corpus_seed_reproduces_sample100_byte_for_byte():
    lines = list(islice(workloads.expressions(workloads.CORPUS_SEED), 100))
    expected = (ROOT / "corpus" / "sample100.txt").read_bytes()
    assert ("\n".join(lines) + "\n").encode() == expected


def test_variable_filter_keeps_a_subsequence_of_the_stream():
    seed = 5
    full = list(islice(workloads.expressions(seed), 300))
    for n_vars in (2, 3):
        kept = list(islice(workloads.expressions(seed, n_vars), 10))
        assert all(len(free_vars(parse(t))) == n_vars for t in kept)
        it = iter(full)
        assert all(t in it for t in kept)  # ordered subsequence


def test_equal_seeds_give_equal_inputs_and_others_differ():
    def first(seed):
        return list(islice(workloads.expressions(seed), 20))
    assert first(3) == first(3)
    assert first(3) != first(4)


def test_run_size_follows_seconds():
    wl = WORKLOADS["grow-large"]
    assert wl.count(30) == 24
    assert wl.count(0.1) == 1


# -- independent evaluator ---------------------------------------------------


@pytest.mark.parametrize("tree, env, bits, want", [
    (op(ADD, x, y), {"x": 200, "y": 100}, 8, 44),
    (op(SUB, Const(0), x), {"x": 1}, 8, 255),
    (op(NEG, x), {"x": 1}, 64, (1 << 64) - 1),
    (op(NOT, x), {"x": 0b1010}, 4, 0b0101),
    (op(MUL, x, Const(2)), {"x": 1 << 63}, 64, 0),
    (op(MUL, op(ADD, x, y), Const(3)), {"x": 5, "y": 7}, 8, 36),
    (op(AND, x, y), {"x": 12, "y": 10}, 8, 8),
    (op(OR, x, y), {"x": 12, "y": 10}, 8, 14),
    (op(XOR, x, y), {"x": 12, "y": 10}, 8, 6),
])
def test_evaluator_on_hand_computed_values(tree, env, bits, want):
    assert checks.evaluate(tree, env, (1 << bits) - 1) == want


def test_independent_check_accepts_real_output_and_flags_a_wrong_one():
    expr = parse("x ^ y")
    report = expand(expr, load_default_rules(),
                    ExpansionConfig(node_limit=200, time_limit=None))
    envs, mask = checks.check_envs(64, 1), (1 << 64) - 1
    assert checks.outputs_agree(expr, report.output, envs, mask)
    assert not checks.outputs_agree(expr, op(OR, x, y), envs, mask)

    log = checks.RunLog(64, 1)
    log.done(0.1, 1.0, "x ^ y", expr, report, "")
    wrong = dataclasses.replace(report, output=op(OR, x, y))
    log.done(0.1, 1.0, "x ^ y", expr, wrong, "")
    assert (log.attempted, log.failed, log.wrong) == (2, 1, 1)


def test_row_digest_depends_on_every_field():
    def digest(*row):
        log = checks.RunLog(64, 0)
        log._row(*row)
        return log.digest
    base = digest("x", "y", "NodeLimit")
    assert base == digest("x", "y", "NodeLimit")
    assert len({base, digest("x", "z", "NodeLimit"),
                digest("x", "y", "TimeLimit")}) == 3


# -- foldable padding --------------------------------------------------------


@pytest.mark.parametrize("tree, want", [
    (op(ADD, x, Const(0)), (1, 1)),
    (op(ADD, Const(0), x), (1, 1)),
    (op(SUB, x, Const(0)), (1, 1)),
    (op(SUB, Const(0), x), (0, 1)),
    (op(MUL, x, Const(1)), (1, 1)),
    (op(MUL, Const(1), x), (1, 1)),
    (op(MUL, x, Const(0)), (0, 1)),
    (op(XOR, Const(0), x), (1, 1)),
    (op(OR, x, Const(0)), (1, 1)),
    (op(AND, Const(0), x), (1, 1)),
    (op(ADD, x, Const(1)), (0, 1)),
    (op(NOT, op(NOT, x)), (1, 2)),
    (op(NOT, op(NOT, op(NOT, x))), (2, 3)),
    (op(NEG, op(NEG, x)), (0, 2)),
    (op(MUL, op(ADD, x, Const(0)), Const(1)), (2, 2)),
    (op(ADD, x, y), (0, 1)),
    (x, (0, 0)),
])
def test_foldable_counter_on_hand_built_trees(tree, want):
    assert checks.foldable_ops(tree) == want


# -- statistics --------------------------------------------------------------


def test_speed_scale_uses_the_loops_on_both_sides(monkeypatch):
    loops = iter([0.01, 0.03, 0.05])
    monkeypatch.setattr(checks, "reference_s", lambda: next(loops))
    speed = checks.Speed()
    assert speed.scale() == pytest.approx(checks.REFERENCE_S / 0.02)
    assert speed.scale() == pytest.approx(checks.REFERENCE_S / 0.04)



@pytest.mark.parametrize("n, p", [
    (12, 50.0), (20, 50.0), (40, 75.0), (42, 75.0), (99, 75.0),
    (100, 90.0), (214, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert checks.tail_percentile(n) == p


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(1, 101)]
    assert checks.percentile(values, 50) == pytest.approx(50.5)
    assert checks.percentile(values, 90) == pytest.approx(90.1)
    assert checks.percentile([3.0], 90) == 3.0


# -- tracer ------------------------------------------------------------------


def traced_expand(t: tracer.Tracer, text: str, node_limit: int):
    rules = load_default_rules()
    cfg = ExpansionConfig(node_limit=node_limit, time_limit=None)
    with t.installed(), t.expression():
        return t.pipeline.expand(t.pipeline.parse(text, 64), rules, cfg, 64)


def test_tracer_counts_agree_and_wrappers_are_removed():
    original = mbaobf.expansion.count_new_nodes
    t = tracer.Tracer(mbaobf, node_limit=300)
    report = traced_expand(t, "(x + y) * z", 300)
    assert mbaobf.expansion.count_new_nodes is original
    m = {name: value for name, (value, _) in t.layer_metrics().items()}
    # every dry run either skips on the budget or leads to one application
    assert m["rules.budget_skips"] > 0
    assert m["rules.budget_skips"] + m["rules.apply_calls"] \
        == m["rules.dryrun_calls"]
    assert m["expansion.iterations"] == report.iterations
    assert m["egraph.final_nodes"] == report.final_node_count
    assert m["metrics.measure_calls"] == 2
    assert 0 < m["expansion.self_s"] < m["expansion.expand_s"]
    assert {s[0] for s in t.spans} == {0}  # one expression id


def test_missing_entry_point_leaves_its_metrics_out(monkeypatch):
    monkeypatch.setitem(tracer.ENTRY_POINTS, "count_new_nodes",
                        ("mbaobf.expansion", "no_such_function"))
    monkeypatch.setitem(tracer.ENTRY_POINTS, "rebuild",
                        ("mbaobf.no_such_module", "EGraph.rebuild"))
    t = tracer.Tracer(mbaobf, node_limit=200)
    traced_expand(t, "x + y", 200)
    metrics = t.layer_metrics()
    assert t.missing == ["count_new_nodes", "rebuild"]
    for name in ("rules.dryrun_s", "rules.budget_skips",
                 "rules.dryrun_useful_ratio", "egraph.repairs"):
        assert name not in metrics
    assert metrics["rules.apply_calls"][0] > 0


# -- the command's output ----------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_benchmark_file_names_are_well_formed():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in BENCHMARK[group]] + [w["name"] for w in
                                           BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_printed_metrics_match_benchmark_file(capsys, trace, group):
    code = run.main(["--workload", "output-selfcheck", "--seed", "3",
                     "--seconds", "0.4", "--trace", str(trace)]
                    if trace == 0 else
                    ["--workload", "corpus-default", "--seed", "3",
                     "--seconds", "0.5", "--trace", "1"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = result["metrics"]
    assert all(NAME.fullmatch(n) for n in printed)
    assert set(printed) == {m["name"] for m in BENCHMARK[group]}
    units = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert all(v["unit"] == units[n] for n, v in printed.items())
