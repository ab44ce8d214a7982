#!/usr/bin/env python3
"""Write the sample benchmark corpus, corpus/sample100.txt.

The corpus is the first 100 expressions that perfbench's seeded generator,
``expressions(CORPUS_SEED)`` in ``perfbench/workloads.py``, draws: random
trees over 2 or 3 variables with odd AST sizes from 3 to 13 (mean 7.46),
2.06 distinct variables on average, and a small constant in 3 lines.
The generator is seeded, so rerunning this script leaves the corpus
unchanged.
"""

import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import CORPUS_SEED, expressions  # noqa: E402

COUNT = 100


def main() -> None:
    lines = list(islice(expressions(CORPUS_SEED), COUNT))
    out = ROOT / "corpus" / "sample100.txt"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({COUNT} expressions)")


if __name__ == "__main__":
    main()
