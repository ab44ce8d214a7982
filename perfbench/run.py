#!/usr/bin/env python3
"""The mbaobf benchmark: one workload, one closed loop with one client.

    python3 perfbench/run.py --workload corpus-default --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  The workload's expressions come from
``--seed``; a run processes a fixed number of them, sized from
``--seconds`` (see README.md).  Each line goes through parse -> expand
-> to_text -> selfcheck (when the workload turns it on), like ``mbaobf
bench``, and every output is checked by the benchmark's own evaluator.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from time import perf_counter
from typing import Optional

import checks
import workloads
from workloads import ROOT, WORKLOADS, Pipeline, SelfcheckFailed

SETUP_SAMPLES = 11
# A bare interpreter's start-up time, median on the 2-core machine the
# bounds were set on.
SPAWN_REFERENCE_S = 0.049
# No line starts after this many seconds of loop, so a much slower commit
# still ends within three minutes (the traced output-selfcheck run adds a
# ~40 s check after its loop).
LOOP_LIMIT_S = 120
OUT_DIR = ROOT / ".bench_out"


def _spawn_s(args: list) -> float:
    """Seconds from spawning ``args`` until it prints ``ready``."""
    start = perf_counter()
    with subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: {args[-1]} failed")
    return seconds


def measure_setup() -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until it has imported
    mbaobf and admitted the rules: scaled to the reference speed, and as
    measured.

    Each probe is scaled by ``SPAWN_REFERENCE_S`` over the start-up time of
    a bare interpreter spawned just before it, which follows the machine's
    speed at process start far better than the loop reference.  A first,
    uncounted probe fills the page and bytecode caches, which users pay
    once per install.
    """
    bare = [sys.executable, "-c", "print('ready', flush=True)"]
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")]
    _spawn_s(probe)
    times = []
    for _ in range(SETUP_SAMPLES):
        scale = SPAWN_REFERENCE_S / _spawn_s(bare)
        seconds = _spawn_s(probe)
        times.append((seconds * scale, seconds))
    return (statistics.median(t for t, _ in times),
            statistics.median(t for _, t in times))


def run_line(pipeline: Pipeline, log: checks.RunLog, text: str, wl, rules,
             cfg, speed: Optional[checks.Speed] = None) -> float:
    """Time one line; record its outcome in ``log`` outside the timing."""
    start = perf_counter()
    try:
        expr, report, out_text = pipeline.run(text, wl, rules, cfg)
    except Exception as exc:  # a failed line is counted, the loop goes on
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        log.error(text, exc, wrong=isinstance(exc, SelfcheckFailed))
        return seconds
    seconds = perf_counter() - start
    scale = speed.scale() if speed else 1.0
    log.done(seconds, scale, text, expr, report, out_text)
    return seconds


def run_timed(mbaobf, wl, seed: int, seconds: float):
    """Untraced run: set-up time, then the closed loop.  Times are scaled
    to the reference speed; the measured ones are printed alongside."""
    setup_s, setup_measured_s = measure_setup()
    rules = workloads.set_up(mbaobf)
    cfg = wl.expansion_config(mbaobf)
    pipeline = Pipeline.plain(mbaobf)
    log = checks.RunLog(wl.bits, seed)
    speed = checks.Speed()
    deadline = perf_counter() + LOOP_LIMIT_S
    for text in islice(workloads.expressions(seed, wl.n_vars),
                       wl.count(seconds)):
        if perf_counter() > deadline:
            break
        run_line(pipeline, log, text, wl, rules, cfg, speed)
    metrics = log.end_to_end()
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    print(f"as measured: setup_s {setup_measured_s:.6g} s, " + ", ".join(
        f"{name} {value:.6g} {unit}"
        for name, (value, unit) in log.timings(scaled=False).items()))
    return log, metrics


def run_traced(mbaobf, wl, seed: int, seconds: float):
    """Traced run.  The first quarter of the lines also run untraced, next
    to their traced twins and alternately first, to give the tracing
    overhead."""
    from tracer import Tracer

    rules = mbaobf.load_default_rules()
    start = perf_counter()
    workloads.admit(mbaobf, rules)
    admission_s = perf_counter() - start
    cfg = wl.expansion_config(mbaobf)
    tracer = Tracer(mbaobf, cfg.node_limit)
    plain = Pipeline.plain(mbaobf)
    log = checks.RunLog(wl.bits, seed)
    untraced_log = checks.RunLog(wl.bits, seed)
    texts = list(islice(workloads.expressions(seed, wl.n_vars),
                        wl.count(seconds)))
    paired = max(1, len(texts) // 4)
    untraced_s = traced_s = 0.0
    deadline = perf_counter() + LOOP_LIMIT_S
    for i, text in enumerate(texts):
        if perf_counter() > deadline:
            break
        if i < paired and i % 2 == 0:
            untraced_s += run_line(plain, untraced_log, text, wl, rules, cfg)
        with tracer.installed(), tracer.expression():
            seconds_traced = run_line(tracer.pipeline, log, text, wl, rules,
                                      cfg)
        if i < paired:
            traced_s += seconds_traced
        if i < paired and i % 2 == 1:
            untraced_s += run_line(plain, untraced_log, text, wl, rules, cfg)

    metrics = tracer.layer_metrics()
    metrics["metrics.out_alternation_mean"] = (log.alternation_mean(),
                                               "edges")
    metrics["verify.admission_s"] = (admission_s, "s")
    metrics["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    metrics["verify.selfcheck_3var_s"] = (
        selfcheck_3var(mbaobf, rules, seed, log) if wl.selfcheck else 0.0,
        "s")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "rows_sha256": log.digest,
        **tracer.dump()}), encoding="utf-8")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    if tracer.missing or tracer.broken:
        print(f"absent layers: entry points missing {tracer.missing}, "
              f"results not understood {sorted(tracer.broken)}")
    return log, metrics


def selfcheck_3var(mbaobf, rules: list, seed: int, log) -> float:
    """Seconds for the exhaustive 8-bit selfcheck of the seed's first
    3-variable line at output-selfcheck flags (2**24 environments); the
    repeated workload leaves such lines out because one takes ~50 s."""
    wl = WORKLOADS["output-selfcheck"]
    text = next(workloads.expressions(seed, n_vars=3))
    expr = mbaobf.parse(text, wl.bits)
    report = mbaobf.expand(expr, rules, wl.expansion_config(mbaobf), wl.bits)
    start = perf_counter()
    res = mbaobf.check_equivalence(expr, report.output, wl.bits, trials=1000,
                                   seed=workloads.SELFCHECK_SEED)
    elapsed = perf_counter() - start
    log.attempted += 1
    if not res.passed:
        log.failed += 1
        log.wrong += 1
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mbaobf = workloads.import_program()
    wl = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_timed
    log, metrics = run(mbaobf, wl, args.seed, args.seconds)

    n = len(log.latencies)
    print(f"workload {wl.name} seed {args.seed}: {log.attempted} attempted, "
          f"{log.failed} failed, {log.wrong} wrong outputs")
    print(f"stops: {dict(sorted(log.stops.items()))}")
    print(f"rows_sha256 {log.digest}")
    print(f"error_rate {log.failed / max(log.attempted, 1):.6g} ratio")
    if not args.trace:
        print(f"latency_tail_ms is p{checks.tail_percentile(n):g} over {n} "
              f"samples")
        print(f"out_alternation_mean {log.alternation_mean():.6g} edges")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float)
              else f"{name} {value} {unit}")
    print(json.dumps({
        "correct": log.wrong == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
