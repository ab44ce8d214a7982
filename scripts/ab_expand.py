#!/usr/bin/env python3
"""Time ``expand`` + ``to_text`` at a git ref against the working tree, in
one process, alternating the two sides.

    python3 scripts/ab_expand.py REF [--workload NAME] [--seed N]
        [--lines N] [--rounds N]

``REF``'s ``src/mbaobf`` is taken with ``git archive`` into a temporary
directory and imported as the package ``mbaobf_ref``; the working tree's
``src/mbaobf`` is imported as ``mbaobf``.  Each side loads its own shipped
rules, parses the lines of one perfbench workload (``--seed`` feeds its
generator, ``--lines`` defaults to the workload's count for a 30 s run)
and is timed over all of them, round after round, the side that goes
first alternating.  For each line both sides must give the same output
text, stop reason, iteration count and final node count, so that growth
stopping elsewhere shows even where the output cap hides it in the
text; the script exits 1 if they do not.  It prints each side's min,
median and quartiles of the round times, the ratio of the medians, in
how many rounds the working tree was the faster side, and whether that
is a gain by the rule of the ``choosing-metrics`` guide: faster in at
least nine tenths of the rounds, by a median gap larger than the ref's
interquartile range.

Across processes, identical runs on a small shared machine can spread
~15%; interleaving the two sides in one process cancels most of that
drift.  A ref from before ``default_rules_text`` read its own package
loads its rule file from the working tree's package.
"""

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, expressions  # noqa: E402


def extract_ref(ref: str, dest: Path) -> None:
    """Write ``REF:src/mbaobf`` to ``dest/mbaobf_ref``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref,
                          "src/mbaobf"], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        for member in archive.getmembers():
            member.name = member.name.replace("src/mbaobf", "mbaobf_ref", 1)
            archive.extract(member, dest, filter="data")


class Side:
    def __init__(self, name: str, package: str, wl, lines: list):
        self.name = name
        self.pkg = importlib.import_module(package)
        self.rules = self.pkg.load_default_rules()
        self.cfg = self.pkg.ExpansionConfig(**wl.config)
        self.bits = wl.bits
        self.exprs = [self.pkg.parse(text, wl.bits) for text in lines]
        self.times: list = []

    def run(self) -> list:
        """Each line's output text, stop reason, iterations and final
        node count."""
        expand, to_text = self.pkg.expand, self.pkg.to_text
        out = []
        start = time.perf_counter()
        for e in self.exprs:
            r = expand(e, self.rules, self.cfg, self.bits)
            out.append((to_text(r.output), r.stop.value, r.iterations,
                        r.final_node_count))
        self.times.append(time.perf_counter() - start)
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("ref")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    default="corpus-default")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--lines", type=int)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    lines = list(islice(expressions(args.seed, wl.n_vars),
                        args.lines or wl.count(30)))
    with tempfile.TemporaryDirectory() as tmp:
        extract_ref(args.ref, Path(tmp))
        sys.path.insert(0, tmp)
        sides = [Side(args.ref, "mbaobf_ref", wl, lines),
                 Side("working tree", "mbaobf", wl, lines)]
        for r in range(args.rounds):
            first, second = sides if r % 2 == 0 else sides[::-1]
            if first.run() != second.run():
                print(f"round {r}: outputs or stop points differ",
                      file=sys.stderr)
                return 1
    print(f"{args.workload}, {len(lines)} lines, seed {args.seed}, "
          f"{args.rounds} rounds, outputs and stop points identical")
    for side in sides:
        q1, _, q3 = quartiles(side.times)
        print(f"  {side.name:>14}: min {min(side.times):.3f} s, "
              f"median {statistics.median(side.times):.3f} s, "
              f"quartiles {q1:.3f}-{q3:.3f} s")
    ref, work = (statistics.median(s.times) for s in sides)
    wins = sum(w < r for r, w in zip(sides[0].times, sides[1].times))
    q1, _, q3 = quartiles(sides[0].times)
    gain = wins * 10 >= args.rounds * 9 and ref - work > q3 - q1
    print(f"  median ratio (working tree / ref): {work / ref:.3f}; "
          f"working tree faster in {wins} of {args.rounds} rounds")
    print(f"  ref IQR {q3 - q1:.3f} s, median gap {ref - work:.3f} s: "
          f"{'a gain' if gain else 'no gain'} (faster in >= 9/10 of the "
          f"rounds by more than the ref's IQR)")
    return 0


def quartiles(times: list) -> list:
    """``[q1, median, q3]``; with one round all three are that round."""
    return statistics.quantiles(times, n=4) if len(times) > 1 else times * 3


if __name__ == "__main__":
    sys.exit(main())
