import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mbaobf.expr import Var, evaluate, free_vars, parse
from mbaobf.rules import load_default_rules, parse_rules
from mbaobf.verify import (EXHAUSTIVE_CASE_LIMIT, CheckResult,
                           TooManyCasesError, check_equivalence, check_rule,
                           check_rule_random, check_rules, _eval_vec,
                           _random_env)

import numpy as np

from mbaobf import verify
from mbaobf.egraph import EGraph
from mbaobf.expansion import expand

from conftest import random_env, random_expr


def rule(text: str):
    (r,) = parse_rules(f"r : {text}")
    return r


@pytest.mark.parametrize("bits", [7, 8.0])
@pytest.mark.parametrize("check", [
    lambda bits: check_rule(rule("?a => ?a"), bits),
    lambda bits: check_rule_random(rule("?a => ?a"), bits, 10),
    lambda bits: check_equivalence(parse("x"), parse("x"), bits),
    lambda bits: EGraph(bits=bits),
    lambda bits: expand(parse("x + y"), load_default_rules(), bits=bits),
], ids=["check_rule", "check_rule_random", "check_equivalence", "EGraph",
        "expand"])
def test_unsupported_width_rejected(check, bits):
    with pytest.raises(ValueError, match=f"unsupported bitwidth {bits}"):
        check(bits)


class TestCheckRule:
    def test_masking_identity_exhaustive_4bit(self):
        res = check_rule(rule("?a + ?b => (?a | ?b) + (?a & ?b)"), 4)
        assert res.passed and res.cases_checked == 256

    def test_mul_identity_exhaustive_4bit(self):
        res = check_rule(rule("?y * 1 => ?y"), 4)
        assert res.passed and res.cases_checked == 16

    def test_unsound_rule_counterexample(self):
        res = check_rule(rule("?a + ?b => ?a | ?b"), 4)
        assert not res.passed
        env, lhs_val, rhs_val = res.counterexample
        assert env == {"a": 1, "b": 1}
        assert (lhs_val, rhs_val) == (2, 1)
        assert res.cases_checked == 18  # lexicographic order over (a, b)

    def test_counterexample_is_first_in_case_order(self):
        res = check_rule(rule("?a => ?a + 1"), 4)
        assert not res.passed
        assert res.counterexample[0] == {"a": 0}
        assert res.cases_checked == 1

    def test_concrete_variable_is_not_the_pattern_variable(self):
        res = check_rule(rule("?x + x => (?x * 2) + 0"), 4)
        assert not res.passed
        assert res.counterexample == ({"x": 0, Var("x"): 1}, 1, 0)
        assert res.cases_checked == 2
        assert not check_rule_random(rule("?x + x => ?x * 2"), 64, 100).passed

    def test_concrete_variable_rule(self):
        r = rule("x => x + 0")
        assert check_rule(r, 8) == CheckResult(True, None, 256)
        assert check_rule_random(r, 64, 100) == CheckResult(True, None, 100)
        assert not check_rule(rule("x => x + 1"), 4).passed

    def test_variable_free_rule(self):
        assert check_rule(rule("1 + 1 => 2"), 8).passed
        assert not check_rule(rule("1 + 1 => 3"), 8).passed
        assert check_rule_random(rule("1 + 1 => 2"), 64, 100) \
            == CheckResult(True, None, 1)
        assert check_rule_random(rule("1 + 1 => 3"), 64, 100) \
            == CheckResult(False, ({}, 2, 3), 1)
        for bits in (8, 64):
            seven = parse("3 + 4", bits)
            assert check_equivalence(seven, parse("7", bits), bits) \
                == CheckResult(True, None, 1)
            assert check_equivalence(seven, parse("8", bits), bits) \
                == CheckResult(False, ({}, 7, 8), 1)

    def test_feasibility_guard(self):
        with pytest.raises(TooManyCasesError):
            check_rule(rule("?a + ?b => ?b + ?a"), 16)  # 2^32 cases

    def test_constant_normalized_per_width(self):
        # 17 reduces to 1 at 4 bits, so this is the mul identity again
        assert check_rule(rule("?y * 17 => ?y"), 4).passed
        assert not check_rule(rule("?y * 17 => ?y"), 8).passed


class TestCheckRuleRandom:
    def test_sound_rule_many_trials(self):
        res = check_rule_random(rule("?a - ?b => ?a + (~?b) + 1"), 64, 10_000, 1)
        assert res.passed and res.cases_checked == 10_000

    def test_unsound_fails_fast(self):
        res = check_rule_random(rule("?a => ?a + 1"), 64, 10_000, 1)
        assert not res.passed
        assert res.cases_checked == 1

    def test_seed_reproducibility(self):
        a = check_rule_random(rule("?a => ?a ^ 3"), 64, 50, seed=9)
        b = check_rule_random(rule("?a => ?a ^ 3"), 64, 50, seed=9)
        assert a == b

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        # without a sample an unsound rule would pass with 0 cases checked
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check_rule_random(rule("?a => ?a + 1"), 64, trials, 0)

    def test_trials_past_the_case_limit_rejected(self):
        # no more random cases than the largest exhaustive check enumerates
        with pytest.raises(ValueError, match="must be at most 16777216"):
            check_rule_random(rule("?a => ?a + 1"), 64,
                              EXHAUSTIVE_CASE_LIMIT + 1, 0)


class TestCheckEquivalence:
    def test_masking_identity_exhaustive_8bit(self):
        res = check_equivalence(parse("x + y", 8),
                                parse("((x | y) + (x & y))", 8), 8)
        assert res.passed and res.cases_checked == 65536

    def test_reflexivity(self):
        e = parse("(x * 3) ^ y")
        assert check_equivalence(e, e, 64, trials=100).passed

    def test_distinct_variables_differ(self):
        res = check_equivalence(parse("x"), parse("y"), 8)
        assert not res.passed
        env, lv, rv = res.counterexample
        assert lv != rv

    def test_env_covers_union_of_free_vars(self):
        res = check_equivalence(parse("x"), parse("x + y"), 4)
        assert not res.passed
        assert set(res.counterexample[0]) == {"x", "y"}

    def test_random_fallback_above_guard(self):
        res = check_equivalence(parse("x ^ y ^ z"), parse("z ^ y ^ x"), 64,
                                trials=250, seed=5)
        assert res.passed and res.cases_checked == 250

    @pytest.mark.parametrize("bits, trials, message", [
        pytest.param(64, 0, "at least 1", id="0"),
        pytest.param(64, -1, "at least 1", id="-1"),
        pytest.param(8, 0, "at least 1", id="8-bit-0"),
        pytest.param(8, -1, "at least 1", id="8-bit--1"),
        pytest.param(8, EXHAUSTIVE_CASE_LIMIT + 1, "at most",
                     id="8-bit-above-the-limit"),
        pytest.param(64, True, "an integer", id="True"),
        pytest.param(64, 2.5, "an integer", id="2.5"),
        pytest.param(8, True, "an integer", id="8-bit-True")])
    def test_random_check_rejects_trials_below_one(self, bits, trials,
                                                    message):
        # 2**64 environments take the random check, which needs a sample;
        # 2**8 take the exhaustive one, and ``trials`` is checked anyway
        with pytest.raises(ValueError, match=f"trials must be {message}"):
            check_equivalence(parse("x"), parse("x + 1"), bits,
                              trials=trials)


class TestVectorizedEvaluator:
    def test_agrees_with_scalar_evaluate(self, rng):
        # the numpy path and the reference interpreter must coincide
        from mbaobf.verify import _DTYPES

        for _ in range(300):
            bits = rng.choice((4, 8, 16, 32, 64))
            e = random_expr(rng, rng.randint(1, 13), bits=bits, const_prob=0.3)
            names = sorted(free_vars(e))
            envs = [random_env(rng, names, bits) for _ in range(8)]
            stacked = {n: np.array([env[n] for env in envs],
                                   dtype=np.uint64).astype(_DTYPES[bits])
                       for n in names}
            got = np.atleast_1d(_eval_vec(e, stacked, bits))
            for i, env in enumerate(envs):
                want = evaluate(e, env, bits)
                assert int(got[i if names else 0]) == want


class TestRulesetAdmission:
    def test_shipped_rules_all_pass(self):
        results = check_rules(load_default_rules())
        assert all(res.passed for _, _, res in results)
        # one exhaustive result per width per rule plus one random pass
        assert len(results) == 14 * 3

    @pytest.mark.parametrize("trials, message", [
        pytest.param(0, "at least 1", id="0"),
        pytest.param(-1, "at least 1", id="-1"),
        pytest.param(True, "an integer", id="True"),
        pytest.param(2.5, "an integer", id="2.5")])
    def test_trials_below_one_rejected(self, trials, message):
        # 0 trials would pass every random check without sampling; a bad
        # value is refused before any check, even with no rules to check
        for rules in ([], load_default_rules()):
            with pytest.raises(ValueError, match=f"trials must be {message}"):
                check_rules(rules, trials=trials)

    def test_random_fallback_is_labelled_random(self):
        # 2**32 assignments at 8 bits: too many to enumerate
        four = rule("?a + ?b + ?c + ?d => ?d + ?c + ?b + ?a")
        results = check_rules([four], trials=500)
        assert [(label, res.passed, res.cases_checked)
                for _, label, res in results] == [
            ("exhaustive@4", True, 1 << 16), ("random@8", True, 500),
            ("random@64", True, 500)]


# ---------------------------------------------------------------------------
# Exhaustive checks past one chunk
# ---------------------------------------------------------------------------


def unchunked(lhs, rhs, keys, bits):
    """The exhaustive check as it was before it ran in chunks: every
    assignment to ``keys`` in one array, lexicographic in their order."""
    size = 1 << bits
    env = {}
    for i, key in enumerate(keys):
        block = np.repeat(np.arange(size, dtype=verify._DTYPES[bits]),
                          size ** (len(keys) - 1 - i))
        env[key] = np.tile(block, size ** i)
    return verify._compare(lhs, rhs, env, bits)


def equivalence_and_reference(a, b, bits):
    a, b = parse(a, bits), parse(b, bits)
    names = sorted(free_vars(a) | free_vars(b))
    return (check_equivalence(a, b, bits),
            unchunked(a, b, names, bits))


V = "(((x & y) & z) + 1)"  # 0 only where x, y and z are all 255


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The number of cases in every chunk that ``_compare`` evaluates."""
    sizes = []
    compare = verify._compare

    def counted(lhs, rhs, env, bits):
        sizes.append(np.broadcast(*env.values()).size)
        return compare(lhs, rhs, env, bits)

    monkeypatch.setattr(verify, "_compare", counted)
    return sizes


class TestChunkedExhaustive:
    @pytest.mark.parametrize("a, b, bits, cases", [
        ("(x + y) - z", "(x - z) + y", 8, 1 << 24),
        ("(x + y) + z", "(x | y) + z", 8, (1 << 16) + (1 << 8) + 1),
        ("x & 16", "(y ^ y) + (z - z)", 8, (1 << 20) + 1),
        ("(x & y) & 16", "z - z", 8, 16 * (1 << 16) + 16 * (1 << 8) + 1),
        (V, f"{V} | ((~ ({V} | (- {V}))) & 128)", 8, 1 << 24),
        ("a + b + c + d + e + f", "f + e + d + c + b + a", 4, 1 << 24),
        ("a & 8", "(b - b) + (c - c) + (d - d) + (e - e) + (f - f)", 4,
         8 * (1 << 20) + 1),
        ("(x & y) & z", "0", 8, 65794),
        ("((a & b) & (c & d)) & (e & f)", "0", 4, 1118482),
        ("x + 0", "x", 16, 1 << 16),
        ("x & 256", "0", 16, 257),
    ], ids=["pass", "chunk-0", "chunk-first-case", "chunk-middle",
            "last-case", "4-bit-pass", "4-bit-chunk-first-case",
            "side-reads-no-variable", "constant-side-past-first-chunk",
            "16-bit-axis", "16-bit-above-255"])
    def test_equivalence_matches_one_array(self, a, b, bits, cases):
        got, want = equivalence_and_reference(a, b, bits)
        assert got == want
        assert got.cases_checked == cases
        if not got.passed:
            assert list(got.counterexample[0]) == list(want.counterexample[0])

    @pytest.mark.parametrize("text, cases", [
        ("?a + (?b + ?c) => ?c + (?b + ?a)", 1 << 24),
        ("((?a & ?b) & 16) + (?c - ?c) => ?c - ?c",
         16 * (1 << 16) + 16 * (1 << 8) + 1),
    ], ids=["pass", "fail"])
    def test_rule_matches_one_array(self, text, cases):
        r = rule(text)
        got = check_rule(r, 8)
        assert got == unchunked(r.lhs, r.rhs, verify._rule_leaves(r), 8)
        assert got.cases_checked == cases

    def test_stops_at_the_first_failing_chunk(self, chunk_sizes):
        res = check_equivalence(parse("x & 16"), parse("(y ^ y) + (z - z)"),
                                8)
        assert not res.passed and chunk_sizes == [1 << 20, 1 << 20]
        chunk_sizes.clear()
        assert check_equivalence(parse("x + y"), parse("y + x"), 8).passed
        assert chunk_sizes == [1 << 16]  # one chunk holds every case

    def test_memory_is_bounded_by_the_chunk(self):
        # one array of 2^24 cases is 16 MiB for each variable alone
        tracemalloc.start()
        try:
            res = check_equivalence(parse("(x + y) - z"),
                                    parse("(x - z) + y"), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed and res.cases_checked == 1 << 24
        assert peak < 6 << 20


# ---------------------------------------------------------------------------
# Random checks: the counter-based sampler, the seed, and chunks
# ---------------------------------------------------------------------------


class TestSampler:
    # Variable k reads SplitMix64's stream for the seed from output
    # k * 2**32 on; seed 0's stream starts with SplitMix64's published
    # 0xe220a8397b1dcdaf.  A change to the stream fails here by name.
    @pytest.mark.parametrize("seed, a, b", [
        (0, [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f],
         [0x46093cf9861ec2e4, 0xe7ff814e1d99a40b, 0x99edb3ebb4a21a15]),
        (12345,
         [0x22118258a9d111a0, 0x346edce5f713f8ed, 0x1e9a57bc80e6721d],
         [0x1b71da1008f7a715, 0x27f66d2e871cd00e, 0xbe125d37efdc0915])],
        ids=["seed-0", "seed-12345"])
    def test_first_samples_are_pinned(self, seed, a, b):
        env = _random_env(["a", "b"], 64, 3, seed)
        assert [[int(v) for v in env[k]] for k in "ab"] == [a, b]
        # a narrower width keeps the top bits
        env = _random_env(["a", "b"], 8, 3, seed)
        assert env["a"].dtype == np.uint8
        assert [[int(v) for v in env[k]] for k in "ab"] \
            == [[v >> 56 for v in a], [v >> 56 for v in b]]

    def test_a_trial_depends_only_on_seed_variable_and_index(self):
        whole = _random_env(["a", "b"], 64, 100, 7)
        part = _random_env(["a", "b"], 64, 10, 7, start=90)
        for k in "ab":
            assert (part[k] == whole[k][90:]).all()
        assert (_random_env([Var("z")], 64, 100, 7)[Var("z")]
                == whole["a"]).all()


class TestSeed:
    @pytest.mark.parametrize("seed, message", [
        (-1, "at least 0"), (1.5, "an integer"), (True, "an integer"),
        ("0", "an integer"), (None, "an integer")],
        ids=["-1", "1.5", "True", "str", "None"])
    @pytest.mark.parametrize("check", [
        lambda seed: check_rule_random(rule("?a => ?a + 1"), 64, 10, seed),
        lambda seed: check_rules([], seed=seed),
        lambda seed: check_rules(load_default_rules(), seed=seed),
        lambda seed: check_equivalence(parse("x"), parse("x + 1"), 8,
                                       seed=seed),
        lambda seed: check_equivalence(parse("x"), parse("x + 1"), 64,
                                       seed=seed),
    ], ids=["check_rule_random", "check_rules-empty", "check_rules",
            "check_equivalence-exhaustive", "check_equivalence-random"])
    def test_bad_seed_rejected_before_any_check(self, check, seed, message):
        with pytest.raises(ValueError, match=f"seed must be {message}"):
            check(seed)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 9, 2**200])
    def test_seed_past_64_bits_is_folded(self, seed):
        # folded in Python, so numpy sees no overflow (and warns of none)
        unsound = rule("?a + ?b => ?a | ?b")
        assert check_rule_random(unsound, 64, 100, seed) \
            == check_rule_random(unsound, 64, 100, seed % 2**64)
        assert all(res.passed for _, _, res
                   in check_rules(load_default_rules(), 100, seed))
        assert check_equivalence(parse("x ^ y ^ z"), parse("z ^ y ^ x"), 64,
                                 trials=100, seed=seed).passed


def one_evaluation(r, bits: int, trials: int, seed: int) -> CheckResult:
    """The random check as it was before it ran in chunks: every trial in
    one array."""
    env = _random_env(verify._rule_leaves(r), bits, trials, seed)
    return verify._compare(r.lhs, r.rhs, env, bits)


class TestChunkedRandom:
    TRIALS = (1 << 20) + 5
    SUM = "(?a + ?b) + ?c"

    def test_sound_rule_matches_one_evaluation(self, chunk_sizes):
        r = rule(f"{self.SUM} => ?c + (?b + ?a)")
        got = check_rule_random(r, 64, self.TRIALS, 3)
        assert chunk_sizes == [1 << 20, 5]
        assert got == one_evaluation(r, 64, self.TRIALS, 3) \
            == CheckResult(True, None, self.TRIALS)

    def test_unsound_rule_matches_one_evaluation(self, chunk_sizes):
        # the rule fails only where (?a, ?b, ?c) take the 8-bit values of
        # trial 2**20 + 2, which no earlier trial draws at seed 0
        keys = verify._rule_leaves(rule(f"{self.SUM} => {self.SUM}"))
        env = _random_env(keys, 8, self.TRIALS, 0)
        at = (1 << 20) + 2
        x, y, z = (int(env[k][at]) for k in keys)
        hits = (env[keys[0]] == x) & (env[keys[1]] == y) & (env[keys[2]] == z)
        assert np.flatnonzero(hits)[0] == at
        t = f"(((?a ^ {x}) | (?b ^ {y})) | (?c ^ {z}))"  # 0 only there
        r = rule(f"{self.SUM} => {self.SUM} + ((~ ({t} | (0 - {t}))) & 128)")
        got = check_rule_random(r, 8, self.TRIALS, 0)
        assert chunk_sizes == [1 << 20, 5]
        assert got == one_evaluation(r, 8, self.TRIALS, 0)
        total = (x + y + z) % 256
        assert got == CheckResult(
            False, ({"a": x, "b": y, "c": z}, total, (total + 128) % 256),
            at + 1)

    def test_stops_at_the_first_failing_chunk(self, chunk_sizes):
        res = check_rule_random(rule("?a => ?a + 1"), 64, 3 << 20, 0)
        assert res.cases_checked == 1 and chunk_sizes == [1 << 20]

    def test_a_constant_takes_no_array_of_its_own(self):
        # ?a's 2^20 64-bit trials take 8 MiB, as does each array built
        # from them; a full-width array per constant would add 8 MiB each
        [negsub] = [r for r in load_default_rules()
                    if r.name == "not-to-negsub"]
        assert len(negsub.program.names) == 1
        tracemalloc.start()
        try:
            res = check_rule_random(negsub, 64, 1 << 20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passed and res.cases_checked == 1 << 20
        assert peak < 36 << 20


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x imports numpy.random with numpy")
def test_obfuscate_leaves_numpy_random_unimported():
    # rule admission samples with the generator above, not numpy.random
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, sys\n"
            "from mbaobf import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['obfuscate', '-e', 'x + y']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
