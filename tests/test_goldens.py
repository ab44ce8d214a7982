"""The output goldens: ``bench`` over the whole sample corpus at each
pinned flag set writes the JSONL and CSV it always has, growth stops
where it always has, and every rebuild on the way keeps the e-graph
invariants.  Each run is one pass of ``scripts/bench_json.py``'s
``Side``, the runner that times bench, which also checks that no line
ends over the node limit.

``DIGESTS`` holds the sha256 of ``BASE.jsonl``, of ``BASE.csv`` and, where
pinned, of the trajectory: each line's ``"{stop} {iterations}
{final_node_count}\\n"``, where growth stopped even when the output cap
hides it.  A change that alters a digest changes the program's output; it
updates the table and gives the reason in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from mbaobf.egraph import EGraph, check_invariants

from conftest import CRITERION_7

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_json import Side  # noqa: E402

DIGESTS = {
    "criterion-7": (
        "822facd506a371293d714ed251f7f6544c7ac5324c15b57f0fc0204b0b044037",
        "52a6695ee2d363f3b8e741fe9c5e76f66b4fbaf1f4d464a71aa9075b2bc20762",
        None),
    "defaults": (
        "ef1a72e692c78ff40e643ae0e3b9c94f983cae4311f1b6b535db3945598878fa",
        "fce570152ed1b7c85b4b05d0b96a50253bf4f4e3f058dd6b59d7b83dc4386ad0",
        "7d0aaeffacbcc45ae1aeb5cdf044103408445e53d1667a46d4a80ba4c50e6e76"),
    "large": (
        "14197ebbfc49695d911adac757345dbeadae0b51aec5bc289957e9fad184e33b",
        "f12e826cb1d931a96edbd0159469de73816c59c67864c7fae9ac06f26c563f19",
        "4604560a945a0b94936d780f9cbb29b37c58798e90a555dd449dc1977953d74a"),
    "rounds-200": (
        "13b7e2b140416c1faf950070b6079ecc554a39e55ab4094ddc7caf03cf55dc5c",
        "fd07c5cfe00a104a7e83f48d78cf8ad3feedcec3d988a8dbf1655b976ad101d2",
        None),
}
# Each pinned run: its bench flags and the digests it writes.  The 8-bit
# selfcheck checks every output exhaustively and writes criterion 7's
# artifacts; the shipped 2 s clock is far from every line's time.
RUNS = {
    "criterion-7": (CRITERION_7, "criterion-7"),
    "criterion-7-selfcheck-8-bit": (
        [*CRITERION_7, "--bitwidth", "8", "--selfcheck"], "criterion-7"),
    "defaults": (["--time-limit-ms", "60000"], "defaults"),
    "shipped-clock": ([], "defaults"),
    "large": (["--node-limit", "8000", "--max-output-nodes", "2000",
               "--time-limit-ms", "600000"], "large"),
    "rounds-200": (["--rounds", "200", "--time-limit-ms", "60000"],
                   "rounds-200"),
}


@pytest.mark.parametrize("name", RUNS)
def test_bench_output_and_trajectory(name, monkeypatch):
    flags, golden = RUNS[name]
    rebuild = EGraph.rebuild
    audits = 0

    def audited(g):
        nonlocal audits
        passes = rebuild(g)
        check_invariants(g)
        audits += 1
        return passes

    monkeypatch.setattr(EGraph, "rebuild", audited)
    jsonl, csv, trajectory, stops = Side("mbaobf", flags).run()
    expected = DIGESTS[golden]
    assert (jsonl, csv) == expected[:2]
    if expected[2] is not None:
        assert trajectory == expected[2]
    assert audits > sum(count for _, count in stops), audits
