#!/usr/bin/env python3
"""Run the sample corpus in process and write one ``BENCH_<label>.json``.

    python3 scripts/bench_json.py LABEL [--node-limit N] [--iter-limit N]
        [--time-limit-ms MS] [--rounds R] [--max-output-nodes N]

Every line of ``corpus/sample100.txt`` is grown with the shipped rules
with ``parse`` and ``expand``, as ``mbaobf bench --no-check`` does, in
``PASSES`` passes over the whole corpus.  The file records the label, the
commit and whether ``src/`` differs from it, the flags, the corpus
sha256, ``passes_s`` (the wall time of each pass's loop), ``wall_s``
(their median), p50/p95/max of each line's ``report.elapsed`` pooled
over all passes, a stop-reason histogram of one pass and the sha256 of
the rows, each built by ``bench``'s own row function (equal to
``sha256sum BASE.jsonl`` at the same flags).  A line that fails ends the
run, and so, with exit 1, does a pass whose rows hash differs from the
first pass's.  One pass can spread by tens of percent on a small shared
machine: compare two files by the ranges of their ``passes_s``, and only
when both were taken on the same machine, back to back.  The per-phase
split and the work counters wait for expansion statistics in the library
report.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mbaobf import ExpansionConfig, expand, load_default_rules, parse
from mbaobf.cli import _read_corpus, _report_json

PASSES = 5


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def main() -> None:
    defaults = ExpansionConfig()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label")
    ap.add_argument("--node-limit", type=int, default=defaults.node_limit)
    ap.add_argument("--iter-limit", type=int, default=defaults.iter_limit)
    ap.add_argument("--time-limit-ms", type=int,
                    default=round(defaults.time_limit * 1000))
    ap.add_argument("--rounds", type=int, default=defaults.extraction_rounds)
    ap.add_argument("--max-output-nodes", type=int,
                    default=defaults.max_output_nodes)
    args = ap.parse_args()
    flags = {k: v for k, v in vars(args).items() if k != "label"}
    cfg = ExpansionConfig(node_limit=args.node_limit,
                          iter_limit=args.iter_limit,
                          time_limit=args.time_limit_ms / 1000.0,
                          extraction_rounds=args.rounds,
                          max_output_nodes=args.max_output_nodes)
    corpus = ROOT / "corpus" / "sample100.txt"
    lines = [text for _, text in _read_corpus(corpus)]
    rules = load_default_rules()
    passes = []
    digests = []
    elapsed = []
    for _ in range(PASSES):
        rows = hashlib.sha256()
        stops = Counter()
        start = time.perf_counter()
        for text in lines:
            report = expand(parse(text), rules, cfg)
            row = _report_json(text, report)
            rows.update((json.dumps(row, sort_keys=True) + "\n").encode())
            elapsed.append(report.elapsed)
            stops[report.stop.value] += 1
        passes.append(time.perf_counter() - start)
        digests.append(rows.hexdigest())
    if len(set(digests)) > 1:
        sys.exit(f"rows differ between passes: {digests}")
    wall = statistics.median(passes)
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD").stdout.strip(),
        "src_matches_commit": git("diff", "--quiet", "HEAD", "--",
                                  "src").returncode == 0,
        "flags": flags,
        "corpus_sha256": hashlib.sha256(corpus.read_bytes()).hexdigest(),
        "lines": len(lines),
        "passes_s": [round(t, 3) for t in passes],
        "wall_s": round(wall, 3),
        "elapsed_s": {
            "p50": round(statistics.median(elapsed), 4),
            "p95": round(statistics.quantiles(elapsed, n=20,
                                              method="inclusive")[18], 4),
            "max": round(max(elapsed), 4)},
        "stops": dict(sorted(stops.items())),
        "rows_sha256": digests[0],
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}: {min(passes):.1f}-{max(passes):.1f} s over "
          f"{PASSES} passes, rows {result['rows_sha256'][:12]}")


if __name__ == "__main__":
    main()
