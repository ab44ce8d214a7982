#!/usr/bin/env python3
"""Time ``mbaobf bench --no-check`` over the sample corpus in process and
write one ``BENCH_<label>.json``, optionally against a git ref.

    python3 scripts/bench_json.py LABEL [REF] [bench flags]

Each of ``PASSES`` passes is one call of ``cli.main(["bench", "-f",
corpus/sample100.txt, "-o", TMP, "--no-check", *flags])``: rule
admission is not timed, but compiling the rules and writing the JSONL
and CSV are.  Two perfbench workloads have a flag set on this corpus:
corpus-default is the defaults, grow-large ``--node-limit 8000
--max-output-nodes 2000 --time-limit-ms 600000``.  The output-selfcheck
workload (2-variable lines, 8 bits, an exhaustive selfcheck) has none;
time it with perfbench.

During a pass ``cli.expand`` is wrapped: it asserts each line's final
node count is within ``node_limit``, records ``report.elapsed`` and
hashes ``"{stop} {iterations} {final_node_count}\\n"``, where growth
stopped even when the output cap hides it.  The file records the commit,
the flags, ``passes_s``, ``wall_s`` (their median), percentiles of
``report.elapsed`` over all passes, ``rows_sha256`` (``sha256sum
BASE.jsonl`` of what bench wrote), ``trajectory_sha256`` and the stops.
``heap_peak_kib`` is the largest ``tracemalloc`` peak of one ``expand``
call, taken over one more pass, untimed, that traces each call on its
own: a memory figure that repeats exactly, where a process's peak RSS
moves by 0.1-0.2 MiB between runs of the same code.  That pass also
records ``ground_share_mean``, the mean over the lines of
``metrics.ground_share`` of the output, after each call's trace stops (a
side whose package has no ``ground_share`` records none).

With ``REF``, ``REF:src/mbaobf`` is imported from ``git archive`` as
``mbaobf_ref`` and runs its own bench; the sides alternate pass for pass,
the side going first alternating too.  ``against`` holds the ref's
commit, timings and heap peak, ``ratio`` the median wall time of the
working tree over the ref's, ``faster_in`` the passes the working tree
won, and ``gain`` whether it won at least 9/10 of them by a median gap
above the ref's interquartile range.  Alternating whole passes in one
process does not cancel a small shared machine's drift: A/B runs of
unchanged code gave ratios of 0.960 to 1.139, with ``faster_in`` from 0
to 4 of 10, so ``ratio`` and ``gain`` from whole passes cannot tell a
change within that band from none.  Interleaving the two sides per
corpus line in one process gave null ratios of 0.996 to 1.003 instead.
The script exits 1, writing nothing, if bench exits non-zero or skips a
line (it reports either on stderr), or if any pass of either side,
traced or timed, writes other rows or another CSV, or stops elsewhere,
than the first.
"""

import argparse
import contextlib
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
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus" / "sample100.txt"
sys.path.insert(0, str(ROOT / "src"))

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
    """``bench`` of one package, ``mbaobf`` or ``mbaobf_ref``, at ``flags``."""

    def __init__(self, package: str, flags: list):
        self.cli = importlib.import_module(package + ".cli")
        self.ground_share = getattr(importlib.import_module(
            package + ".metrics"), "ground_share", None)
        self.flags = flags
        self.passes, self.elapsed, self.heap_peaks = [], [], []
        self.ground_shares = []

    def run(self, traced: bool = False) -> tuple:
        """One pass: the sha256 of the JSONL, the CSV and the trajectory,
        and the stop reasons with their counts.  A ``traced`` pass is not
        timed: it records each ``expand`` call's traced heap peak and its
        output's ground share."""
        expand, trajectory = self.cli.expand, hashlib.sha256()
        stops = Counter()

        def tracked(expr, rules, cfg, *rest):
            if traced:
                tracemalloc.start()
            try:
                report = expand(expr, rules, cfg, *rest)
            finally:
                if traced:
                    self.heap_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if traced and self.ground_share is not None:
                self.ground_shares.append(self.ground_share(report.output))
            assert report.final_node_count <= cfg.node_limit, expr
            trajectory.update(f"{report.stop.value} {report.iterations} "
                              f"{report.final_node_count}\n".encode())
            if not traced:
                self.elapsed.append(report.elapsed)
            stops[report.stop.value] += 1
            return report

        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            base = str(Path(tmp) / "out")
            argv = ["bench", "-f", str(CORPUS), "-o", base, *self.flags]
            self.cli.expand = tracked
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    try:
                        code = self.cli.main(argv)
                    except SystemExit as exc:  # bench's parser refused a flag
                        code = exc.code
                    if not traced:
                        self.passes.append(time.perf_counter() - start)
            finally:
                self.cli.expand = expand
            if code or err.getvalue():
                sys.exit(f"bench exited {code}: {err.getvalue()}")
            jsonl, csv = (hashlib.sha256(Path(base + ext).read_bytes())
                          .hexdigest() for ext in (".jsonl", ".csv"))
        return jsonl, csv, trajectory.hexdigest(), sorted(stops.items())

    def summary(self) -> dict:
        p95 = statistics.quantiles(self.elapsed, n=20, method="inclusive")[18]
        return {"passes_s": [round(t, 3) for t in self.passes],
                "wall_s": round(statistics.median(self.passes), 3),
                "elapsed_s": {"p50": round(statistics.median(self.elapsed), 4),
                              "p95": round(p95, 4),
                              "max": round(max(self.elapsed), 4)},
                "heap_peak_kib": round(max(self.heap_peaks) / 1024),
                **({"ground_share_mean": round(
                    statistics.fmean(self.ground_shares), 4)}
                   if self.ground_shares else {})}


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Every argument from the first one that starts with '-' on "
               "is passed to mbaobf bench, after --no-check.")
    ap.add_argument("label")
    ap.add_argument("ref", nargs="?")
    # Split by hand: argparse cannot tell a bench flag's value from REF.
    argv = sys.argv[1:]
    n = next((i for i, a in enumerate(argv) if a.startswith("-")), len(argv))
    args = ap.parse_args(argv[:n] or argv)
    flags = ["--no-check", *argv[n:]]
    sides = [Side("mbaobf", flags)]
    with tempfile.TemporaryDirectory() as tmp:
        if args.ref:
            ref_commit = git("rev-parse", "--verify", args.ref + "^{commit}")
            if ref_commit.returncode:
                sys.exit(f"not a commit: {args.ref}")
            extract_ref(args.ref, Path(tmp))
            sys.path.insert(0, tmp)
            sides.append(Side("mbaobf_ref", flags))
        results = [side.run() for p in range(PASSES)
                   for side in (sides if p % 2 == 0 else sides[::-1])]
        results += [side.run(traced=True) for side in sides]
    if any(r != results[0] for r in results):
        sys.exit("rows, CSV or stop points differ between passes or sides")
    rows, _, trajectory, stops = results[0]
    work = sides[0]
    result = {
        "label": args.label,
        "commit": git("rev-parse", "HEAD").stdout.strip(),
        "src_matches_commit": git("diff", "--quiet", "HEAD", "--",
                                  "src").returncode == 0,
        "flags": flags,
        "corpus_sha256": hashlib.sha256(CORPUS.read_bytes()).hexdigest(),
        "lines": sum(count for _, count in stops),
        **work.summary(),
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
                     **ref.summary()},
            ratio=round(wall / ref_wall, 3), faster_in=wins,
            gain=wins * 10 >= PASSES * 9 and ref_wall - wall > q3 - q1)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}:", {k: v for k, v in result.items() if k in (
        "wall_s", "heap_peak_kib", "rows_sha256", "trajectory_sha256",
        "ratio", "faster_in", "gain")})


if __name__ == "__main__":
    main()
