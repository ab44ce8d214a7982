#!/usr/bin/env python3
"""Time the sample corpus in process and write one ``BENCH_<label>.json``,
optionally against a git ref in the same process.

    python3 scripts/bench_json.py LABEL [REF] [--node-limit N]
        [--iter-limit N] [--time-limit-ms MS] [--rounds R]
        [--max-output-nodes N]

Each of ``PASSES`` passes grows every line of ``corpus/sample100.txt``
at 64 bits with the shipped rules, as ``mbaobf bench --no-check`` does.
Two perfbench workloads have a flag set on this corpus: corpus-default
is the defaults, grow-large ``--node-limit 8000 --max-output-nodes 2000
--time-limit-ms 600000``.  The output-selfcheck workload (2-variable
lines, 8 bits, an exhaustive selfcheck) has none; time it with
perfbench.

The file records the commit, the flags, ``passes_s`` (each pass's wall
time), ``wall_s`` (their median), percentiles of each line's
``report.elapsed`` over all passes, ``rows_sha256`` (of the rows
``bench`` writes, as ``sha256sum BASE.jsonl``) and ``trajectory_sha256``
(of each line's ``"{stop} {iterations} {final_node_count}\\n"``, where
growth stopped even when the output cap hides it).

With ``REF``, ``REF:src/mbaobf`` is imported from ``git archive`` as
``mbaobf_ref``; its passes alternate with the working tree's, the side
going first alternating too, and each side builds rows with its own
package.  ``against`` holds the ref's commit and timings, ``ratio`` the
median wall time of the working tree over the ref's, ``faster_in`` the
passes the working tree won, and ``gain`` whether it won at least 9/10
of them by a median gap above the ref's interquartile range.  In
separate processes identical runs spread ~15% on a small shared machine;
alternating in one process cancels most of that drift.  A ref older than
``default_rules_text`` loads the working tree's rule file.  The script
exits 1, writing nothing, if a line fails or if any pass of either side
gives other rows or another trajectory than the first.
"""

import argparse
import hashlib
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mbaobf import ExpansionConfig  # noqa: E402
from mbaobf.cli import _read_corpus  # noqa: E402

PASSES = 10


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def extract_ref(ref: str, dest: Path) -> None:
    """Write ``REF:src/mbaobf`` to ``dest/mbaobf_ref``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref,
                          "src/mbaobf"], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        for member in archive.getmembers():
            member.name = member.name.replace("src/mbaobf", "mbaobf_ref", 1)
            archive.extract(member, dest, filter="data")


class Side:
    """The timed corpus loop of one package, ``mbaobf`` or ``mbaobf_ref``."""

    def __init__(self, package: str, config: dict, lines: list):
        pkg = importlib.import_module(package)
        self.parse, self.expand = pkg.parse, pkg.expand
        self.row = importlib.import_module(package + ".cli")._report_json
        self.rules = pkg.load_default_rules()
        self.cfg = pkg.ExpansionConfig(**config)
        self.lines = lines
        self.passes, self.elapsed = [], []

    def run(self) -> tuple:
        """One pass: its rows and trajectory sha256s and stop reasons."""
        rows, trajectory = hashlib.sha256(), hashlib.sha256()
        stops = Counter()
        start = time.perf_counter()
        for text in self.lines:
            report = self.expand(self.parse(text), self.rules, self.cfg)
            row = json.dumps(self.row(text, report), sort_keys=True)
            rows.update((row + "\n").encode())
            trajectory.update(f"{report.stop.value} {report.iterations} "
                              f"{report.final_node_count}\n".encode())
            self.elapsed.append(report.elapsed)
            stops[report.stop.value] += 1
        self.passes.append(time.perf_counter() - start)
        return rows.hexdigest(), trajectory.hexdigest(), sorted(stops.items())

    def timings(self) -> dict:
        p95 = statistics.quantiles(self.elapsed, n=20, method="inclusive")[18]
        return {"passes_s": [round(t, 3) for t in self.passes],
                "wall_s": round(statistics.median(self.passes), 3),
                "elapsed_s": {"p50": round(statistics.median(self.elapsed), 4),
                              "p95": round(p95, 4),
                              "max": round(max(self.elapsed), 4)}}


def main() -> None:
    defaults = ExpansionConfig()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label")
    ap.add_argument("ref", nargs="?")
    ap.add_argument("--node-limit", type=int, default=defaults.node_limit)
    ap.add_argument("--iter-limit", type=int, default=defaults.iter_limit)
    ap.add_argument("--time-limit-ms", type=int,
                    default=round(defaults.time_limit * 1000))
    ap.add_argument("--rounds", type=int, default=defaults.extraction_rounds)
    ap.add_argument("--max-output-nodes", type=int,
                    default=defaults.max_output_nodes)
    args = ap.parse_args()
    config = dict(node_limit=args.node_limit, iter_limit=args.iter_limit,
                  time_limit=args.time_limit_ms / 1000.0,
                  extraction_rounds=args.rounds,
                  max_output_nodes=args.max_output_nodes)
    corpus = ROOT / "corpus" / "sample100.txt"
    lines = [text for _, text in _read_corpus(corpus)]
    sides = [Side("mbaobf", config, lines)]
    with tempfile.TemporaryDirectory() as tmp:
        if args.ref:
            ref_commit = git("rev-parse", "--verify", args.ref + "^{commit}")
            if ref_commit.returncode:
                sys.exit(f"not a commit: {args.ref}")
            extract_ref(args.ref, Path(tmp))
            sys.path.insert(0, tmp)
            sides.append(Side("mbaobf_ref", config, lines))
        results = [side.run() for p in range(PASSES)
                   for side in (sides if p % 2 == 0 else sides[::-1])]
    if any(r != results[0] for r in results):
        sys.exit("rows or stop points differ between passes or sides")
    rows, trajectory, stops = results[0]
    work = sides[0]
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD").stdout.strip(),
        "src_matches_commit": git("diff", "--quiet", "HEAD", "--",
                                  "src").returncode == 0,
        "flags": {k: v for k, v in vars(args).items()
                  if k not in ("label", "ref")},
        "corpus_sha256": hashlib.sha256(corpus.read_bytes()).hexdigest(),
        "lines": len(lines),
        **work.timings(),
        "stops": dict(stops),
        "rows_sha256": rows,
        "trajectory_sha256": trajectory,
    }
    if args.ref:
        ref = sides[1]
        ref_wall, wall = (statistics.median(s.passes) for s in (ref, work))
        q1, _, q3 = statistics.quantiles(ref.passes, n=4)
        wins = sum(w < r for r, w in zip(ref.passes, work.passes))
        result.update(
            against={"ref": args.ref, "commit": ref_commit.stdout.strip(),
                     **ref.timings()},
            ratio=round(wall / ref_wall, 3), faster_in=wins,
            gain=wins * 10 >= PASSES * 9 and ref_wall - wall > q3 - q1)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}:", {k: v for k, v in result.items() if k in (
        "wall_s", "rows_sha256", "trajectory_sha256", "ratio", "faster_in",
        "gain")})


if __name__ == "__main__":
    main()
