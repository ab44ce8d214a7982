"""Output checks and statistics that do not rely on the program under test.

The evaluator below is the benchmark's own: it shares no code with
``mbaobf.expr.evaluate`` or ``mbaobf.verify``, so a bug there cannot hide a
wrong output here.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from collections import Counter
from time import perf_counter

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


def evaluate(node, env: dict, mask: int) -> int:
    """Value of a Var/Const/Op tree modulo ``mask + 1`` (duck-typed: Var has
    ``name``, Const has ``value``, Op has ``op.name`` and ``args``)."""
    args = getattr(node, "args", None)
    if args is None:
        return (env[node.name] if hasattr(node, "name") else node.value) & mask
    name = node.op.name
    if name == "neg":
        return -evaluate(args[0], env, mask) & mask
    if name == "not":
        return ~evaluate(args[0], env, mask) & mask
    a = evaluate(args[0], env, mask)
    return _BINARY[name](a, evaluate(args[1], env, mask)) & mask


def check_envs(bits: int, seed: int) -> list:
    """All-ones plus two seeded random environments over x, y, z."""
    rng = random.Random(f"check:{seed}")
    mask = (1 << bits) - 1
    envs = [dict.fromkeys("xyz", mask)]
    envs += [{v: rng.getrandbits(bits) for v in "xyz"} for _ in range(2)]
    return envs


def outputs_agree(expr, output, envs: list, mask: int) -> bool:
    return all(evaluate(expr, env, mask) == evaluate(output, env, mask)
               for env in envs)


def _is_const(node, value: int) -> bool:
    return getattr(node, "value", None) == value


def foldable_ops(tree) -> tuple[int, int]:
    """``(padding, operators)``: operator nodes of the form x+0, x-0, x*1,
    x^0, x|0, x&0 (either operand order where the operator commutes) or
    ~~x, and all operator nodes."""
    padding = ops = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        args = getattr(node, "args", None)
        if args is None:
            continue
        ops += 1
        stack.extend(args)
        name = node.op.name
        if name == "not":
            inner = getattr(args[0], "op", None)
            padding += inner is not None and inner.name == "not"
        elif name != "neg":
            unit = 1 if name == "mul" else 0
            padding += (_is_const(args[1], unit)
                        or (name != "sub" and _is_const(args[0], unit)))
    return padding, ops


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# The reference loop's median on the 2-core machine the bounds were set on.
REFERENCE_S = 0.018


def reference_s() -> float:
    """Seconds for a fixed loop of tuple hashing and dict updates, the same
    kind of interpreter work as the program's e-graph code.

    On a shared machine the speed of the CPU changes by up to ~30% within
    seconds; this loop slows down with it (correlation ~0.8 with
    ``expand``).  Times taken next to it are scaled by ``REFERENCE_S /
    reference_s()``.  The collector is paused so that the program's heap
    does not change the loop's cost.
    """
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(60_000):
            key = (i & 1023, i & 7, "n")
            table[key] = table.get(key, 0) + 1
        return perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """Scale factors from reference loops run between timed intervals."""

    def __init__(self):
        self._last = reference_s()

    def scale(self) -> float:
        """Factor for the interval since the previous call: REFERENCE_S over
        the mean of the reference loops just before and just after it."""
        before, self._last = self._last, reference_s()
        return REFERENCE_S / ((before + self._last) / 2)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least 10 samples beyond it; the
    median when the run is too small for any of them."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) >= 1000 - 1e-9:  # n * share beyond >= 10
            return p
    return 50.0


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Per-run record
# ---------------------------------------------------------------------------


class RunLog:
    """Outcomes of one run: latencies, output quality, failures and a sha256
    over the ``(input, output, stop)`` rows."""

    def __init__(self, bits: int, seed: int):
        self.mask = (1 << bits) - 1
        self.envs = check_envs(bits, seed)
        self.latencies: list = []  # seconds per completed line, as measured
        self.scaled: list = []  # the same, scaled to the reference speed
        self.attempted = self.failed = self.wrong = 0
        self.out_size = self.out_alternation = self.padding = self.ops = 0
        self.stops: Counter = Counter()
        self._digest = hashlib.sha256()

    def _row(self, text: str, output, stop: str) -> None:
        self._digest.update(json.dumps([text, output, stop]).encode() + b"\n")

    def error(self, text: str, exc: Exception, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        self._row(text, None, type(exc).__name__)

    def done(self, seconds: float, scale: float, text: str, expr, report,
             out_text: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.scaled.append(seconds * scale)
        stop = report.stop.value
        self.stops[stop] += 1
        self._row(text, out_text, stop)
        self.out_size += report.metrics_out.ast_size
        self.out_alternation += report.metrics_out.mba_alternation
        padding, ops = foldable_ops(report.output)
        self.padding += padding
        self.ops += ops
        if not outputs_agree(expr, report.output, self.envs, self.mask):
            self.failed += 1
            self.wrong += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def alternation_mean(self) -> float:
        return self.out_alternation / max(len(self.latencies), 1)

    def timings(self, scaled: bool = True) -> dict:
        """Throughput and latencies over the completed lines."""
        times = self.scaled if scaled else self.latencies
        n = len(times)
        if n == 0:
            raise SystemExit("perfbench: no expression completed")
        return {
            "throughput_eps": (n / sum(times), "expr/s"),
            "latency_p50_ms": (percentile(times, 50) * 1e3, "ms"),
            "latency_tail_ms": (percentile(times, tail_percentile(n)) * 1e3,
                                "ms"),
        }

    def end_to_end(self) -> dict:
        """End-to-end metrics except set-up time and memory."""
        n = len(self.latencies)
        return {
            **self.timings(),
            "out_ast_size_mean": (self.out_size / n, "nodes"),
            "out_foldable_share": (self.padding / max(self.ops, 1), "ratio"),
        }
