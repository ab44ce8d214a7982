import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import mbaobf.cli
from mbaobf.cli import main
from mbaobf.egraph import CapacityExceededError
from mbaobf.expr import MAX_DEPTH, expr_size, parse, to_text
from mbaobf.metrics import measure
from mbaobf.rules import default_rules_text

from conftest import flat_sum

FAST = ["--node-limit", "300", "--iter-limit", "3", "--time-limit-ms", "30000"]
CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "sample100.txt"
# Acceptance criterion 7's flags.
CRITERION_7 = ["--node-limit", "400", "--iter-limit", "30",
               "--time-limit-ms", "60000", "--seed", "7"]
# sha256 of BASE.jsonl and BASE.csv for the corpus's first 20 lines at
# CRITERION_7, as the engine wrote them before its core was rewritten for
# speed.  A change that alters them changes the program's output.
GOLDEN_20 = (
    "10dc86a422f9e4bfb8c02ac4ca881e5125b03513af0c9a94acd9c7c468a3a404",
    "0c3178f673959f6be58a9189e86676b6a583f5963ba67d7f181da3d711acfa8d",
)
# The same for the corpus's first 10 lines at the shipped defaults, with a
# time limit no line comes near, as the engine wrote them before its two
# extractor loops became one.  These outputs hit the 10,000-node cap.
DEFAULTS_NO_CLOCK = ["--time-limit-ms", "60000"]
GOLDEN_10_DEFAULTS = (
    "a1349ac99b8f706027d7c80e6b5d6c660bf608553970c6838afe257e27b6800b",
    "0e2d0e420783383109aa015a0cd07962910a4dadca117457a71f87efd681993c",
)


@pytest.fixture
def rules_file(tmp_path):
    p = tmp_path / "default.rules"
    p.write_text(default_rules_text())
    return str(p)


@pytest.fixture
def operator_rules_file(tmp_path):
    # shipped rules minus the ones whose LHS is a bare pattern variable
    lines = [ln for ln in default_rules_text().splitlines()
             if ":" in ln and not ln.split(":", 1)[1].strip().startswith("?")]
    p = tmp_path / "operator.rules"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestObfuscate:
    def test_prints_growing_expression(self, capsys):
        assert main(["obfuscate", "-e", "x + y", *FAST]) == 0
        out = capsys.readouterr().out.strip()
        grown = parse(out)
        assert expr_size(grown) > 3
        m_in, m_out = measure(parse("x + y")), measure(grown)
        assert m_out.ast_size >= m_in.ast_size

    def test_constant_input_is_a_noop_under_operator_rules(
            self, capsys, operator_rules_file):
        assert main(["obfuscate", "-e", "5", "-r", operator_rules_file,
                     *FAST]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_syntax_error_exit_code_and_column(self, capsys):
        assert main(["obfuscate", "-e", "x +", *FAST]) == 2
        assert "column 4" in capsys.readouterr().err

    def test_json_report_schema(self, capsys):
        assert main(["obfuscate", "-e", "x + y", "--json", *FAST]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"input", "output", "stop", "metrics_in",
                                "metrics_out", "iterations",
                                "final_node_count", "elapsed_ms"}
        assert payload["input"] == "x + y"
        assert payload["metrics_in"]["ast_size"] == 3

    def test_selfcheck_passes(self, capsys):
        assert main(["obfuscate", "-e", "x ^ y", "--selfcheck", *FAST]) == 0
        assert "selfcheck ok" in capsys.readouterr().err

    def test_unsound_rules_rejected_before_running(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("broken : ?a + ?b => ?a | ?b\n")
        assert main(["obfuscate", "-e", "x + y", "-r", str(bad), *FAST]) == 2
        assert "unsound" in capsys.readouterr().err

    def test_no_check_skips_admission(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("broken : ?a + ?b => ?a | ?b\n")
        code = main(["obfuscate", "-e", "x * y", "-r", str(bad), "--no-check",
                     *FAST])
        assert code == 0

    def test_bad_rule_file_syntax(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("nonsense\n")
        assert main(["obfuscate", "-e", "x", "-r", str(bad), *FAST]) == 2

    def test_output_budget_exceeded_exit_3(self, capsys):
        big = " + ".join(["x"] * 40)
        assert main(["obfuscate", "-e", big, "--max-output-nodes", "10",
                     *FAST]) == 3

    def test_rounds_too_small_for_input_depth(self, capsys):
        assert main(["obfuscate", "-e", "(x + y) + z", "--rounds", "1",
                     *FAST]) == 2
        assert "rounds" in capsys.readouterr().err

    def test_unextractable_names_both_limits(self, capsys):
        # a 20-term flat sum fits neither limit at the defaults
        assert main(["obfuscate", "-e", flat_sum(19)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no term extractable")
        assert "(depth <= --rounds 64, size <= --max-output-nodes 10000)" \
            in err

    def test_input_over_node_limit_exit_3(self, capsys):
        assert main(["obfuscate", "-e", "(x * y) + (y * z)",
                     "--node-limit", "5"]) == 3
        assert capsys.readouterr().err == \
            "error: e-graph node capacity exceeded (cap=5)\n"

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        assert main(["obfuscate", "-e", "x + y", "-o", str(out), *FAST]) == 0
        assert expr_size(parse(out.read_text().strip())) > 3


class TestMetricsCommand:
    def test_text_output(self, capsys):
        assert main(["metrics", "-e", "x + y"]) == 0
        out = capsys.readouterr().out
        assert "ast_size: 3" in out and "entropy_tokens: 1.584963" in out

    def test_json_output(self, capsys):
        assert main(["metrics", "-e", "(x | y) + (x & y)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ast_size"] == 7 and payload["mba_alternation"] == 2

    def test_parse_error(self, capsys):
        assert main(["metrics", "-e", "x +"]) == 2


class TestCheckRules:
    def test_default_rules_pass(self, capsys, rules_file):
        assert main(["check-rules", rules_file, "--trials", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 14

    def test_unsound_file_fails_with_counterexample(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("fine : ?a => ?a * 1\nbroken : ?a + ?b => ?a | ?b\n")
        assert main(["check-rules", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "FAIL broken" in out and "?a=1, ?b=1" in out

    def test_missing_file(self, capsys):
        assert main(["check-rules", "/nonexistent.rules"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_2(self, capsys, rules_file, trials):
        assert main(["check-rules", rules_file, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: trials must be at least 1, got {trials}\n"

    def test_random_fallback_is_labelled_random(self, tmp_path, capsys):
        four = tmp_path / "four.rules"
        four.write_text("four : ?a + ?b + ?c + ?d => ?d + ?c + ?b + ?a\n")
        assert main(["check-rules", str(four), "--trials", "500"]) == 0
        assert capsys.readouterr().out == \
            "ok   four (exhaustive@4, 500 random@8, 500 random@64)\n"

    def test_pattern_and_concrete_variable_are_distinct(self, tmp_path,
                                                        capsys):
        # ?x may stand for y, so ?x + x is not 2 * ?x
        bad = tmp_path / "bad.rules"
        bad.write_text("bad : ?x + x => (?x * 2) + 0\n")
        assert main(["check-rules", str(bad)]) == 2
        assert capsys.readouterr().out == (
            "FAIL bad [exhaustive@4]: rule 'bad' is unsound at 4 bits: "
            "{?x=0, x=1} gives 1 vs 0\n")
        assert main(["obfuscate", "-e", "y + x", "-r", str(bad),
                     "--selfcheck", "--node-limit", "20",
                     "--bitwidth", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "rule 'bad' is unsound at 4 bits: {?x=0, x=1} gives 1 vs 0\n"

    def test_concrete_variable_rule_admitted(self, tmp_path, capsys):
        rules = tmp_path / "x.rules"
        rules.write_text("r : x => x + 0\n")
        assert main(["check-rules", str(rules)]) == 0
        assert capsys.readouterr().out == \
            "ok   r (exhaustive@4, exhaustive@8, 10000 random@64)\n"
        assert main(["obfuscate", "-e", "y + x", "-r", str(rules),
                     "--selfcheck", *FAST]) == 0
        assert "selfcheck ok" in capsys.readouterr().err

    def test_obfuscate_admits_by_the_same_verdict(self, tmp_path, capsys):
        # `rare` is sound at 4 and 8 bits, where 1024 is 0, and fails at 64
        # bits only when ?a has at least 11 trailing zero bits: about one
        # assignment in 2048, so a few thousand trials can miss it.
        rules = tmp_path / "rare.rules"
        rules.write_text("add-zero : ?a => ?a + 0\n"
                         "rare : ?a => ?a + (~(?a | -?a) & 1024)\n")
        assert main(["check-rules", str(rules), "--seed", "1"]) == 2
        (fail,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("FAIL")]
        assert fail.startswith("FAIL rare [random@64]: ")
        assert main(["obfuscate", "-e", "x + y", "-r", str(rules),
                     "--seed", "1", *FAST]) == 2
        assert capsys.readouterr().err.strip() == fail.partition("]: ")[2]


class TestBench:
    def write_corpus(self, tmp_path, lines):
        p = tmp_path / "corpus.txt"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_small_corpus_end_to_end(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, ["x + y", "x ^ (y | 3)", "x * y"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, *FAST]) == 0
        rows = [json.loads(ln) for ln in Path(base + ".jsonl").read_text(
            encoding="utf-8").splitlines()]
        assert [r["input"] for r in rows] == ["x + y", "x ^ (y | 3)", "x * y"]
        for row in rows:
            assert set(row) == {"input", "output", "stop", "metrics_in",
                                "metrics_out"}
            # every emitted output re-parses under the tool's own grammar
            reparsed = parse(row["output"])
            assert expr_size(reparsed) == row["metrics_out"]["ast_size"]
        csv_lines = Path(base + ".csv").read_text(
            encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("variant,ast_size")
        assert len(csv_lines) == 3

    def test_aggregate_matches_independent_recomputation(self, tmp_path,
                                                         capsys):
        corpus = self.write_corpus(tmp_path, ["x + y", "x & y"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, *FAST]) == 0
        rows = [json.loads(ln) for ln in Path(base + ".jsonl").read_text(
            encoding="utf-8").splitlines()]
        mean_out = sum(r["metrics_out"]["ast_size"] for r in rows) / len(rows)
        csv_lines = Path(base + ".csv").read_text(
            encoding="utf-8").splitlines()
        obf = csv_lines[2].split(",")
        assert obf[0] == "obfuscated"
        assert float(obf[1]) == pytest.approx(mean_out, abs=0.005)

    def test_single_rule_closed_form(self, tmp_path, capsys):
        # one rule, one round: the aggregate obfuscated size is exactly 7
        rules = tmp_path / "one.rules"
        rules.write_text("addor : ?a + ?b => (?a | ?b) + (?a & ?b)\n")
        corpus = self.write_corpus(tmp_path, ["x + y"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-r", str(rules),
                     "--iter-limit", "1", "--rounds", "2",
                     "--node-limit", "3000", "--time-limit-ms", "30000",
                     "-o", base]) == 0
        csv_lines = Path(base + ".csv").read_text(
            encoding="utf-8").splitlines()
        assert csv_lines[2].split(",")[1] == "7.00"

    def test_empty_corpus(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, [""])
        assert main(["bench", "-f", corpus, *FAST]) == 2

    def test_bad_lines_skipped_with_summary(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, ["x + y", "x +", "x * y"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, *FAST]) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err or "skipped" in captured.out
        rows = Path(base + ".jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(rows) == 2

    def test_all_lines_bad(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, ["x +", "* y"])
        assert main(["bench", "-f", corpus, *FAST]) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, ["x + y", "(x ^ y) * 3"])
        outputs = []
        for name in ("a", "b"):
            base = str(tmp_path / name)
            assert main(["bench", "-f", corpus, "-o", base, "--seed", "7",
                         *FAST]) == 0
            outputs.append((Path(base + ".jsonl").read_bytes(),
                            Path(base + ".csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_capacity_exceeded_line_skipped(self, tmp_path, capsys,
                                            monkeypatch):
        real_expand = mbaobf.cli.expand

        def expand(expr, *args):
            if to_text(expr) == "(x * y)":
                raise CapacityExceededError(12)
            return real_expand(expr, *args)

        monkeypatch.setattr(mbaobf.cli, "expand", expand)
        corpus = self.write_corpus(tmp_path, ["x + y", "x * y", "x ^ y"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, *FAST]) == 0
        captured = capsys.readouterr()
        assert "line 2: skipped (e-graph node capacity exceeded (cap=12))" \
            in captured.err
        assert "2 expressions processed, 1 skipped" in captured.out
        rows = [json.loads(ln) for ln in Path(base + ".jsonl").read_text(
            encoding="utf-8").splitlines()]
        assert [r["input"] for r in rows] == ["x + y", "x ^ y"]

    def test_input_over_node_limit_skipped(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path, ["x + y", "(x * y) + (y * z)"])
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, "--node-limit", "5",
                     "--iter-limit", "3"]) == 0
        captured = capsys.readouterr()
        assert "line 2: skipped (e-graph node capacity exceeded (cap=5))" \
            in captured.err
        assert "1 expressions processed, 1 skipped" in captured.out

    def bench_digests(self, tmp_path, count, flags) -> tuple:
        """sha256 of BASE.jsonl and BASE.csv for the corpus's first
        ``count`` lines."""
        lines = CORPUS.read_text(encoding="utf-8").splitlines()[:count]
        corpus = self.write_corpus(tmp_path, lines)
        base = str(tmp_path / "out")
        assert main(["bench", "-f", corpus, "-o", base, *flags]) == 0
        return tuple(hashlib.sha256(Path(base + ext).read_bytes())
                     .hexdigest() for ext in (".jsonl", ".csv"))

    def test_golden_digest_at_criterion_7_flags(self, tmp_path, capsys):
        assert self.bench_digests(tmp_path, 20, CRITERION_7) == GOLDEN_20

    def test_golden_digest_at_defaults(self, tmp_path, capsys):
        assert (self.bench_digests(tmp_path, 10, DEFAULTS_NO_CLOCK)
                == GOLDEN_10_DEFAULTS)


def run_cli(*args: str, stdout=subprocess.PIPE,
            env: Optional[dict] = None) -> subprocess.CompletedProcess:
    """``python -m mbaobf.cli`` in a fresh interpreter, as a user runs it,
    with ``env`` added to its environment."""
    src = str(Path(mbaobf.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mbaobf.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=300,
                          env={**os.environ, "PYTHONPATH": path,
                               **(env or {})})


class TestDepthBound:
    # A deep input is extractable only when --rounds covers its depth; the
    # flat sum also needs a small node limit.
    AT_BOUND_FLAGS = ["--node-limit", "600", "--rounds", str(MAX_DEPTH)]

    @pytest.mark.parametrize("text", [flat_sum(MAX_DEPTH),
                                      "-" * MAX_DEPTH + "x"],
                             ids=["flat-sum", "neg-chain"])
    def test_input_at_bound_runs(self, text):
        proc = run_cli("obfuscate", f"--expr={text}", "--selfcheck",
                       "--json", *self.AT_BOUND_FLAGS)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["input"] == text
        assert "selfcheck ok" in proc.stderr

    @pytest.mark.parametrize("text", [flat_sum(MAX_DEPTH + 1),
                                      "-" * (MAX_DEPTH + 1) + "x",
                                      "-" * 1000 + "x", flat_sum(500)],
                             ids=["flat-sum", "neg-chain", "neg-chain-1000",
                                  "flat-sum-500"])
    def test_input_past_bound_exits_2(self, text):
        proc = run_cli("obfuscate", f"--expr={text}", "--selfcheck",
                       "--json", *self.AT_BOUND_FLAGS)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"nested deeper than {MAX_DEPTH} operators" in proc.stderr

    def test_bench_skips_a_line_past_bound(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(flat_sum(MAX_DEPTH + 1) + "\nx + y\n")
        base = str(tmp_path / "out")
        proc = run_cli("bench", "-f", str(corpus), "-o", base, *FAST)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 1: skipped" in proc.stderr
        assert f"nested deeper than {MAX_DEPTH} operators" in proc.stderr
        assert "1 expressions processed, 1 skipped" in proc.stdout


class TestNoTraceback:
    """Bad flag values, unwritable outputs and input files that are not
    UTF-8 end in exit 2 with one ``error:`` line, run as a user runs
    them."""

    @staticmethod
    def assert_one_error_line(proc):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--rounds", "3000"], ["--rounds", "0"], ["--node-limit", "0"],
        ["--node-limit", "-5"], ["--time-limit-ms", "0"], ["--seed", "-1"],
        ["--max-output-nodes", str(2**24 + 1)]],
        ids=lambda flags: " ".join(flags))
    def test_flag_out_of_range(self, flags):
        self.assert_one_error_line(
            run_cli("obfuscate", "-e", "x", "--selfcheck", *flags))

    @pytest.mark.parametrize("command", ["obfuscate", "bench"])
    def test_time_limit_out_of_float_range(self, tmp_path, command):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x + y\n")
        source = (["-e", "x + y"] if command == "obfuscate"
                  else ["-f", str(corpus), "-o", str(tmp_path / "out")])
        proc = run_cli(command, *source, "--time-limit-ms", "1" + "0" * 400)
        self.assert_one_error_line(proc)
        assert "--time-limit-ms" in proc.stderr

    @pytest.mark.parametrize("command", [
        ["obfuscate", "-e", "x", "--no-check", "--selfcheck"],
        ["bench", "-f", "{corpus}", "-o", "{out}"],
        ["check-rules", "{rules}"]],
        ids=["obfuscate-no-check", "bench", "check-rules"])
    def test_negative_seed(self, tmp_path, command):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x + y\n")
        rules = tmp_path / "r.rules"
        rules.write_text("addor : ?a + ?b => (?a | ?b) + (?a & ?b)\n")
        args = [a.format(corpus=corpus, rules=rules, out=tmp_path / "out")
                for a in command]
        proc = run_cli(*args, "--seed", "-1")
        self.assert_one_error_line(proc)
        assert "--seed" in proc.stderr
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["obfuscate", "bench"])
    def test_unwritable_output(self, tmp_path, command):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x + y\n")
        source = (["-e", "x + y"] if command == "obfuscate"
                  else ["-f", str(corpus)])
        target = tmp_path / "missing" / "out"
        self.assert_one_error_line(
            run_cli(command, *source, "-o", str(target), *FAST))

    @pytest.mark.parametrize("command", [
        ["check-rules", "{bad}"],
        ["bench", "-f", "{bad}", "-o", "{out}"],
        ["bench", "-f", "{good}", "-r", "{bad}", "-o", "{out}"],
        ["obfuscate", "-e", "x + y", "-r", "{bad}"]],
        ids=["check-rules", "bench", "bench-rules", "obfuscate"])
    def test_file_not_utf8(self, tmp_path, command):
        bad = tmp_path / "not-utf8.txt"
        bad.write_bytes(b"\xff\xfe\x00")
        good = tmp_path / "corpus.txt"
        good.write_text("x + y\n")
        args = [a.format(bad=bad, good=good, out=tmp_path / "out")
                for a in command]
        proc = run_cli(*args)
        self.assert_one_error_line(proc)
        assert proc.stderr.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command", [
        ["check-rules", "{rules}"],
        ["obfuscate", "-e", "x + y", "-r", "{rules}"]],
        ids=["check-rules", "obfuscate"])
    def test_non_ascii_rule_name(self, tmp_path, command):
        rules = tmp_path / "r.rules"
        rules.write_text("é : ?a => ?a + 0\n", encoding="utf-8")
        proc = run_cli(*[a.format(rules=rules) for a in command])
        self.assert_one_error_line(proc)
        assert "bad rule name 'é'" in proc.stderr

    @pytest.mark.parametrize("command", ["obfuscate", "metrics"])
    def test_leading_zero_is_decimal(self, command):
        proc = run_cli(command, "-e", "x + 08", "--json",
                       *(FAST if command == "obfuscate" else []))
        assert proc.returncode == 0, proc.stderr
        if command == "metrics":
            assert json.loads(proc.stdout) == \
                measure(parse("x + 8")).as_dict()

    @pytest.mark.parametrize("command", ["obfuscate", "metrics"])
    @pytest.mark.parametrize("text", ["\u00b2", "\u00e9", "x + \u0661"],
                             ids=["superscript-two", "e-acute",
                                  "arabic-indic-one"])
    def test_character_outside_the_grammar(self, command, text):
        self.assert_one_error_line(run_cli(command, "-e", text))

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits",
                                    lambda: 0)(),
                        reason="no integer-conversion digit limit")
    @pytest.mark.parametrize("command", ["obfuscate", "metrics"])
    def test_decimal_over_the_digit_limit(self, command):
        self.assert_one_error_line(run_cli(command, "-e", "1" * 5000))

    def test_check_rules_on_a_character_outside_the_grammar(self, tmp_path):
        rules = tmp_path / "r.rules"
        rules.write_text("r : ?a + \u00b2 => ?a\n", encoding="utf-8")
        self.assert_one_error_line(run_cli("check-rules", str(rules)))

    def test_bench_skips_a_line_outside_the_grammar(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x + y\nx + \u00b2\nx * y\n", encoding="utf-8")
        proc = run_cli("bench", "-f", str(corpus), "-o",
                       str(tmp_path / "out"), *FAST)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 2: skipped" in proc.stderr
        assert "2 expressions processed, 1 skipped" in proc.stdout


class TestClosedStdout:
    """A stdout whose reader has gone ends the run quietly with 141, as
    SIGPIPE would, whether the first failing write is the one at the end
    (buffered) or an earlier one (unbuffered)."""

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [
        ["obfuscate", "-e", "x + y", "--json", *FAST],
        ["metrics", "-e", "x + y"],
        ["bench", "-f", "{corpus}", "-o", "{out}", *FAST]],
        ids=["obfuscate", "metrics", "bench"])
    def test_exits_141_with_nothing_on_stderr(self, tmp_path, command,
                                              unbuffered):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x + y\nx * y\n")
        args = [a.format(corpus=corpus, out=tmp_path / "out")
                for a in command]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli(*args, stdout=write,
                           env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")
        if command[0] == "bench":
            assert (tmp_path / "out.csv").exists()
