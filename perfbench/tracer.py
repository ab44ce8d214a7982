"""Outside-in tracing: wrappers from the benchmark's own code around the
program's layer entry points.

Each wrapped call records a span ``(expression id, span id, parent span id,
name, start, end)`` in memory.  The two hottest entry points, the budget dry
run and rule application, instead add a call count and summed time to their
parent ``expand`` span, which keeps memory bounded on large graphs.

The entry points are internal names that later refactors may rename or
inline.  A missing one is reported and its layer's metrics are left out;
the untraced run does not depend on any of them.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Optional

from workloads import Pipeline

# name -> (module, attribute path)
ENTRY_POINTS = {
    "ematch": ("mbaobf.expansion", "ematch"),
    "count_new_nodes": ("mbaobf.expansion", "count_new_nodes"),
    "apply_match": ("mbaobf.expansion", "apply_match"),
    "_label_index": ("mbaobf.expansion", "_label_index"),
    "extract_max": ("mbaobf.expansion", "extract_max"),
    "measure": ("mbaobf.expansion", "measure"),
    "rebuild": ("mbaobf.egraph", "EGraph.rebuild"),
    "check_equivalence": ("mbaobf.verify", "check_equivalence"),
}
COUNTED = ("count_new_nodes", "apply_match")


def _resolve(module: str, path: str):
    """``(owner, attribute, function)`` or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, mbaobf, node_limit: Optional[int]):
        self.node_limit = node_limit
        self.spans: list = []
        self.counted: dict = defaultdict(lambda: [0, 0.0])  # (parent, name)
        self.counts: Counter = Counter()
        self.graphs: list = []  # (nodes, classes) after each expand
        self.reports: list = []  # (iterations, stop) per expand
        self.broken: set = set()  # entry points whose results did not fit
        self._stack: list = []
        self._next_id = 0
        self._expr_id = -1
        self._graph = None
        self._patches = []
        self.missing = []
        observers = {
            "ematch": self._on_ematch,
            "count_new_nodes": self._on_dry_run,
            "apply_match": self._on_apply,
            "rebuild": self._on_rebuild,
            "check_equivalence": self._on_check,
        }
        for name, (module, path) in ENTRY_POINTS.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            wrap = self._counted if name in COUNTED else self._span
            self._patches.append(
                (owner, attr, fn, wrap(name, fn, observers.get(name))))
        wrappers = {attr: wrapper for _, attr, _, wrapper in self._patches}
        # parse, expand and to_text are timed at the call site; the
        # selfcheck goes through the wrapper installed in mbaobf.verify.
        self.pipeline = Pipeline(
            self._span("parse", mbaobf.parse),
            self._span("expand", mbaobf.expand, self._on_expand),
            self._span("to_text", mbaobf.to_text),
            wrappers.get("check_equivalence", mbaobf.check_equivalence))

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def expression(self):
        """Root span of one line; every span inside it shares its id."""
        self._expr_id += 1
        with self._open("expression"):
            yield

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def _open(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self._expr_id, span_id, parent, name, start,
                               end))

    def _observe(self, name, observe, args, result) -> None:
        try:
            observe(args, result)
        except (AttributeError, TypeError):
            self.broken.add(name)

    def _span(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            with self._open(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                self._observe(name, observe, args, result)
            return result
        return wrapper

    def _counted(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            acc = self.counted[(self._stack[-1] if self._stack else None,
                                name)]
            acc[0] += 1
            acc[1] += perf_counter() - start
            self._observe(name, observe, args, result)
            return result
        return wrapper

    # -- observers: work counts from arguments and return values ------------

    def _on_ematch(self, args, matches) -> None:
        self.counts["matches"] += len(matches)

    def _on_dry_run(self, args, bound) -> None:
        if (self.node_limit is not None
                and args[0].node_count() + bound > self.node_limit):
            self.counts["budget_skips"] += 1

    def _on_apply(self, args, changed) -> None:
        self.counts["apply_changed"] += bool(changed)

    def _on_rebuild(self, args, repairs) -> None:
        self.counts["repairs"] += repairs
        self._graph = args[0]

    def _on_check(self, args, result) -> None:
        self.counts["selfcheck_envs"] += result.cases_checked

    def _on_expand(self, args, report) -> None:
        self.reports.append((report.iterations, report.stop.value))
        if self._graph is not None:
            self.graphs.append((self._graph.node_count(),
                                self._graph.class_count()))
        self._graph = None

    # -- summary ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics ``name -> (value, unit)``; a metric whose entry
        point is missing, or whose results did not fit, is left out."""
        total = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        covered = defaultdict(float)  # span id -> time in direct children
        for _, span_id, parent, name, start, end in self.spans:
            total[name][0] += 1
            total[name][1] += end - start
            covered[parent] += end - start
        for (parent, name), (calls, seconds) in self.counted.items():
            total[name][0] += calls
            total[name][1] += seconds
            covered[parent] += seconds
        expand_self = sum(end - start - covered[span_id]
                          for _, span_id, _, name, start, end in self.spans
                          if name == "expand")
        c = self.counts
        dry, apply_, rebuild = (total["count_new_nodes"],
                                total["apply_match"], total["rebuild"])
        stops = Counter(stop for _, stop in self.reports)
        n_graphs = max(len(self.graphs), 1)

        def ratio(a, b):
            return a / b if b else 0.0

        rows = [
            ("rules.dryrun_s", "s", ["count_new_nodes"], lambda: dry[1]),
            ("rules.dryrun_calls", "count", ["count_new_nodes"],
             lambda: dry[0]),
            ("rules.budget_skips", "count", ["count_new_nodes"],
             lambda: c["budget_skips"]),
            ("rules.dryrun_useful_ratio", "ratio",
             ["count_new_nodes", "apply_match"],
             lambda: ratio(apply_[0], dry[0])),
            ("rules.ematch_s", "s", ["ematch"], lambda: total["ematch"][1]),
            ("rules.ematch_calls", "count", ["ematch"],
             lambda: total["ematch"][0]),
            ("rules.matches", "count", ["ematch"], lambda: c["matches"]),
            ("rules.label_index_s", "s", ["_label_index"],
             lambda: total["_label_index"][1]),
            ("rules.apply_s", "s", ["apply_match"], lambda: apply_[1]),
            ("rules.apply_calls", "count", ["apply_match"],
             lambda: apply_[0]),
            ("rules.apply_changed_ratio", "ratio", ["apply_match"],
             lambda: ratio(c["apply_changed"], apply_[0])),
            ("egraph.rebuild_s", "s", ["rebuild"], lambda: rebuild[1]),
            ("egraph.rebuild_calls", "count", ["rebuild"],
             lambda: rebuild[0]),
            ("egraph.repairs", "count", ["rebuild"], lambda: c["repairs"]),
            ("egraph.final_nodes", "nodes", ["rebuild"],
             lambda: sum(g[0] for g in self.graphs) / n_graphs),
            ("egraph.final_classes", "classes", ["rebuild"],
             lambda: sum(g[1] for g in self.graphs) / n_graphs),
            ("expansion.expand_s", "s", [], lambda: total["expand"][1]),
            ("expansion.self_s", "s", [], lambda: expand_self),
            ("expansion.iterations", "count", [],
             lambda: sum(it for it, _ in self.reports)),
            ("expansion.stop_node_limit", "count", [],
             lambda: stops["NodeLimit"]),
            ("expansion.stop_time_limit", "count", [],
             lambda: stops["TimeLimit"]),
            ("expansion.stop_other", "count", [],
             lambda: len(self.reports) - stops["NodeLimit"]
             - stops["TimeLimit"]),
            ("expansion.extract_max_s", "s", ["extract_max"],
             lambda: total["extract_max"][1]),
            ("expansion.extract_calls", "count", ["extract_max"],
             lambda: total["extract_max"][0]),
            ("metrics.measure_s", "s", ["measure"],
             lambda: total["measure"][1]),
            ("metrics.measure_calls", "count", ["measure"],
             lambda: total["measure"][0]),
            ("verify.selfcheck_s", "s", ["check_equivalence"],
             lambda: total["check_equivalence"][1]),
            ("verify.selfcheck_envs", "count", ["check_equivalence"],
             lambda: c["selfcheck_envs"]),
            ("expr.parse_s", "s", [], lambda: total["parse"][1]),
            ("expr.to_text_s", "s", [], lambda: total["to_text"][1]),
        ]
        unavailable = set(self.missing) | self.broken
        return {name: (value(), unit) for name, unit, needs, value in rows
                if not unavailable.intersection(needs)}

    def dump(self) -> dict:
        """Spans and per-parent counted calls, for writing out at the end."""
        return {
            "span_fields": ["expression", "id", "parent", "name", "start",
                            "end"],
            "spans": self.spans,
            "counted": [[parent, name, calls, seconds] for (parent, name),
                        (calls, seconds) in self.counted.items()],
            "missing_entry_points": self.missing,
        }
