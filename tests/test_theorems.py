"""The theorem suite itself: registry shape, green runs, self-diagnosis."""

import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest

from siglim import (
    DEFAULT_CONFIG,
    AicParams,
    GenConfig,
    PreconditionViolated,
    Signal,
    UnknownTheorem,
    describe,
    replay_case,
    run_theorem,
    theorem_ids,
)
from siglim.cli import main
from siglim.props import (
    _DRAW_SCALE, _REGISTRY, MAX_DENOMINATOR, _draw_dwell_chain, gen_signal, register_check,
    unregister_check,
)

EXPECTED_IDS = (
    "1.9", "2.4a", "2.4b", "2.4c",
    "3.4", "3.5", "3.10", "3.12",
    "4.1", "4.3", "4.4", "4.5", "4.6", "4.7", "4.8",
    "5.2", "6.3", "6.4", "6.6", "6.6s",
)

SMALL = GenConfig(seed=42, cases=25)

# The digest of every law's answers at seed 42, cases 0-29, each followed by
# one more 64-bit draw from the case's rng, so it moves when a law draws
# differently or answers one of these cases differently.  A change meant to
# move them updates this constant and says so.
DRAW_DIGEST_30 = "a9684dbaad06d93f4ad3dc31e8fce04fda0a38b5da19717f412e0e9faa74d3a5"


class TestRegistry:
    def test_manifest_is_complete(self):
        assert theorem_ids() == EXPECTED_IDS

    def test_every_entry_has_a_description(self):
        for tid in theorem_ids():
            text = describe(tid)
            assert isinstance(text, str) and len(text) > 10

    def test_unknown_ids_are_rejected(self):
        with pytest.raises(UnknownTheorem):
            describe("9.99")
        with pytest.raises(UnknownTheorem):
            run_theorem("9.99")
        with pytest.raises(UnknownTheorem):
            replay_case("9.99", SMALL, 0)


class TestGreenRun:
    @pytest.mark.parametrize("tid", EXPECTED_IDS)
    def test_theorem_holds_at_desk_scale(self, tid):
        report = run_theorem(tid, SMALL)
        assert report.cases_run == SMALL.cases
        assert report.failures == [], report.failures[:3]
        assert report.status == "pass"

    def test_props_command_covers_the_registry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["props", "--seed", "7", "--cases", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{tid} 2 pass" for tid in EXPECTED_IDS]


class TestDeterminism:
    def test_replay_reproduces_case_results(self):
        for tid in ("1.9", "4.1", "6.4"):
            for case in (0, 3, 11):
                assert replay_case(tid, SMALL, case) is None

    def test_same_config_same_report(self):
        a = run_theorem("4.5", GenConfig(seed=9, cases=10))
        b = run_theorem("4.5", GenConfig(seed=9, cases=10))
        assert a.failures == b.failures and a.cases_run == b.cases_run

    def test_draws_of_every_law_are_pinned(self):
        h = hashlib.sha256()
        for tid in EXPECTED_IDS:
            _, check = _REGISTRY[tid]
            for case in range(30):
                rng = random.Random(f"42:{tid}:{case}")
                detail = check(rng)
                h.update(repr((tid, case, detail, rng.getrandbits(64))).encode())
        assert h.hexdigest() == DRAW_DIGEST_30

    def test_signals_drawn_on_ticks_are_the_fraction_draws(self):
        # the draw as Fractions: the same rng calls, times deduplicated as
        # Fractions, the signal built by the checked constructor
        assert _DRAW_SCALE == lcm(*range(1, MAX_DENOMINATOR + 1))
        for seed in range(300):
            r1, r2 = random.Random(seed), random.Random(seed)
            n = r2.randint(0, seed % 13)
            times: set[Fraction] = set()
            while len(times) < n:
                q = r2.randint(1, MAX_DENOMINATOR)
                times.add(Fraction(r2.randint(-8 * q, 24 * q), q))
            v = initial = r2.randint(0, 1)
            pairs = []
            for t in sorted(times):
                v ^= 1
                pairs.append((t, v))
            assert gen_signal(r1, seed % 13) == Signal(initial, tuple(pairs))
            assert r1.random() == r2.random()


class TestDwellChainDraw:
    def test_zero_inner_dwell_replaces_only_the_inner_dwell(self):
        # law 6.6s zeroes the inner dwell after drawing it, so the rest of
        # the instance and every later draw are those of law 6.6
        drawn = 0
        for case in range(12):
            r1, r2 = random.Random(f"42:6.6:{case}"), random.Random(f"42:6.6:{case}")
            c = _draw_dwell_chain(r1)
            z = _draw_dwell_chain(r2, zero_inner=True)
            assert r1.random() == r2.random()
            if isinstance(c, str):
                continue
            drawn += 1
            assert z.a2 == AicParams(0, 0)
            assert all(j.aic == AicParams(0, 0) for j in z.inners)
            assert (z.u, z.x, z.seed) == (c.u, c.x, c.seed)
            assert z.composed.params == c.composed.params
        assert drawn >= 10


class TestSelfDiagnosis:
    def test_a_false_claim_is_caught(self):
        # a deliberately wrong check must produce counterexamples, proving the
        # harness does not pass vacuously
        def broken(rng):
            from siglim import pulse, translate

            d = rng.randint(1, 3)
            x = pulse(0, rng.randint(1, 4))
            if translate(x, d) == x:
                return None
            return f"translation by {d} changed the signal"

        register_check("x.1", "translation acts trivially (false on purpose)", broken)
        try:
            report = run_theorem("x.1", GenConfig(seed=1, cases=20))
            assert report.status == "fail"
            assert len(report.failures) == 20
            assert "case 0" in report.failures[0]
        finally:
            unregister_check("x.1")
        with pytest.raises(UnknownTheorem):
            describe("x.1")

    def test_checks_surface_library_errors_as_failures(self):
        def exploding(rng):
            raise PreconditionViolated("boom")

        register_check("x.2", "raises instead of answering", exploding)
        try:
            report = run_theorem("x.2", GenConfig(seed=1, cases=3))
            assert report.status == "fail"
            assert "unexpected error PreconditionViolated: boom" in report.failures[0]
        finally:
            unregister_check("x.2")


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.seed == 42
        assert DEFAULT_CONFIG.cases == 500

    def test_validation(self):
        with pytest.raises(PreconditionViolated):
            GenConfig(cases=0)
