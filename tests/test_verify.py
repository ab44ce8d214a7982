import random
import tracemalloc

import pytest

from mbaobf.expr import Var, evaluate, free_vars, parse
from mbaobf.rules import load_default_rules, parse_rules
from mbaobf.verify import (EXHAUSTIVE_CASE_LIMIT, CheckResult,
                           TooManyCasesError, check_equivalence, check_rule,
                           check_rule_random, check_rules, _eval_vec)

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
        block = np.repeat(np.arange(size, dtype=np.uint8),
                          size ** (len(keys) - 1 - i))
        env[key] = np.tile(block, size ** i)
    return verify._compare(lhs, rhs, env, bits)


def equivalence_and_reference(a, b, bits):
    a, b = parse(a, bits), parse(b, bits)
    names = sorted(free_vars(a) | free_vars(b))
    return (check_equivalence(a, b, bits),
            unchunked(a, b, names, bits))


V = "(((x & y) & z) + 1)"  # 0 only where x, y and z are all 255


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
    ], ids=["pass", "chunk-0", "chunk-first-case", "chunk-middle",
            "last-case", "4-bit-pass", "4-bit-chunk-first-case"])
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

    def test_stops_at_the_first_failing_chunk(self, monkeypatch):
        chunks = []
        compare = verify._compare

        def counted(lhs, rhs, env, bits):
            chunks.append(len(next(iter(env.values()))))
            return compare(lhs, rhs, env, bits)

        monkeypatch.setattr(verify, "_compare", counted)
        res = check_equivalence(parse("x & 16"), parse("(y ^ y) + (z - z)"),
                                8)
        assert not res.passed and chunks == [1 << 20, 1 << 20]
        chunks.clear()
        assert check_equivalence(parse("x + y"), parse("y + x"), 8).passed
        assert chunks == [1 << 16]  # one chunk holds every case

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
        assert peak < 12 << 20
