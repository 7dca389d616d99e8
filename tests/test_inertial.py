"""Fixed delays, dwell constraints, and the combined inertial model."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siglim.inertial as inertial_module
import siglim.signals as signals_module
from oracles import aic_bit
from siglim import (
    AicParams,
    BlcParams,
    EmptyBailc,
    InvalidBlc,
    MonotonyViolated,
    NegativeDelay,
    aic_contains,
    aic_params,
    aic_set,
    and_fn,
    apply_fn,
    bailc,
    bailc_compose,
    bailc_nonempty,
    constant,
    envelopes,
    flc,
    identity_fn,
    make_signal,
    not_fn,
    or_fn,
    params,
    pulse,
    search_between,
    signal_between,
    signal_leq,
    translate,
    translate_all,
    xor_fn,
)
from strategies import boolfns, multisignals, nonneg_rationals, signals

F = Fraction

ID = identity_fn()


class TestFixedDelay:
    def test_output_is_the_delayed_image(self):
        i = flc(not_fn(), F(3, 2))
        u = (pulse(0, 2),)
        expected = ~translate(u[0], F(3, 2))
        assert i.contains(u, expected) == 1
        assert i.contains(u, ~u[0]) == 0
        assert i.sample(u, 3, 0) == [expected]

    @given(st.integers(1, 3).flatmap(lambda m: st.tuples(boolfns(m), multisignals(m, 8))),
           nonneg_rationals(6, max_den=12))
    @settings(max_examples=60)
    def test_output_translates_the_image_once(self, fu, d):
        # a shift commutes with a pointwise function: translating the one
        # image equals the image of the translated inputs, as values
        f, u = fu
        want = apply_fn(f, translate_all(u, d))
        assert flc(f, d).sample(u, 1, 0) == [want]
        assert flc(f, d).contains(u, want) == 1

    def test_output_takes_one_walk_and_no_translate(self, monkeypatch):
        # walks counted, not clock time, as in the signal algebra's cost
        # tests: the delay is folded into the walk over the inputs
        swept = []
        real = signals_module._sweep

        def counting(*args):
            swept.append(None)
            return real(*args)

        def refused(*args):
            raise AssertionError("translate called")

        u = (make_signal(0, [(k, (k + 1) % 2) for k in range(300)]),
             make_signal(1, [(k + F(1, 3), k % 2) for k in range(300)]))
        i = flc(xor_fn(), F(5, 2))
        want = translate(u[0] ^ u[1], F(5, 2))
        monkeypatch.setattr(signals_module, "_sweep", counting)
        monkeypatch.setattr(inertial_module, "translate", refused)
        assert i.sample(u, 1, 0) == [want]
        assert len(swept) == 1
        swept.clear()
        assert i.contains(u, want) == 1
        assert len(swept) == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(NegativeDelay):
            flc(ID, -1)

    def test_metadata(self):
        i = flc(and_fn(2), 2)
        assert i.kind == "flc"
        assert i.delay == 2
        assert i.deterministic is True
        u = (pulse(0, 3), pulse(1, 4))
        lo, hi = i.envelopes(u)
        assert lo == hi


class TestDwellPredicate:
    def test_boundary_pulse_fails_interior_passes(self):
        a = aic_params(1, 1)
        assert aic_contains(pulse(0, 1), a) == 0  # width exactly delta_r
        assert aic_contains(pulse(0, F(5, 4)), a) == 1
        assert aic_contains(constant(1), a) == 1

    def test_final_edge_always_passes(self):
        a = aic_params(2, 2)
        assert aic_contains(make_signal(0, [(0, 1)]), a) == 1
        assert aic_contains(make_signal(1, [(0, 0), (1, 1)]), a) == 0

    def test_fall_dwell_checked_between_edges(self):
        a = aic_params(0, 3)
        x = make_signal(1, [(0, 0), (2, 1)])  # a 0-run of length 2
        assert aic_contains(x, a) == 0
        assert aic_contains(x, aic_params(0, 1)) == 1

    def test_negative_dwell_rejected(self):
        with pytest.raises(NegativeDelay):
            aic_params(-1, 0)

    @given(signals(8), nonneg_rationals(2), nonneg_rationals(2))
    @settings(max_examples=60)
    def test_matches_run_scan_oracle(self, x, dr, df):
        a = AicParams(dr, df)
        assert aic_contains(x, a) == aic_bit(x, dr, df)

    @given(st.integers(0, 5), st.integers(0, 20))
    def test_set_samples_are_members(self, seed, count_seed):
        a = aic_params(F(3, 2), 1)
        v = aic_set(a)
        for x in v.sample(4, seed):
            assert v.contains(x) == 1
            assert aic_contains(x, a) == 1


class TestNonemptiness:
    def test_dwell_budget_inside_widths(self):
        p = params(1, 1, 1, 1)
        assert bailc_nonempty(ID, ID, p, aic_params(1, 1)) == 1
        assert bailc_nonempty(ID, ID, p, aic_params(2, 1)) == 0

    def test_separated_bounds_always_nonempty(self):
        from siglim import const_fn

        p = params(0, 3, 0, 1)
        assert bailc_nonempty(const_fn(1, 0), const_fn(1, 1), p, aic_params(9, 9)) == 1

    def test_window_offsets_must_fit(self):
        # d_r - m_r > d_f starves the rise side even with a zero dwell budget
        p = params(0, 2, 2, 2)
        assert bailc_nonempty(ID, ID, p, aic_params(0, 0)) == 1
        tilted = params(2, 2, 2, 4)
        assert bailc_nonempty(ID, ID, tilted, aic_params(0, 0)) == 1

    def test_requires_valid_window_parameters(self):
        with pytest.raises(InvalidBlc):
            bailc_nonempty(ID, ID, params(0, 5, 0, 1), aic_params(1, 1))


class TestSearchBetween:
    def test_tight_envelopes_leave_one_candidate(self):
        x = pulse(0, 3)
        assert search_between(x, x, aic_params(1, 1)) == x
        assert search_between(pulse(0, 1), pulse(0, 1), aic_params(1, 1)) is None

    def test_crossed_envelopes_fail_fast(self):
        assert search_between(constant(1), constant(0), aic_params(0, 0)) is None

    def test_short_pulse_can_be_stretched_within_the_ceiling(self):
        lo = pulse(0, 1)
        hi = pulse(0, 4)
        found = search_between(lo, hi, aic_params(2, 2))
        assert found is not None
        assert signal_leq(lo, found) and signal_leq(found, hi)
        assert aic_contains(found, aic_params(2, 2)) == 1

    @given(signals(5), signals(5), nonneg_rationals(2), nonneg_rationals(2),
           st.integers(0, 3))
    @settings(max_examples=30)
    def test_results_are_always_valid(self, a_sig, b_sig, dr, df, seed):
        lo, hi = a_sig & b_sig, a_sig | b_sig
        found = search_between(lo, hi, AicParams(dr, df), seed=seed)
        if found is not None:
            assert signal_leq(lo, found) and signal_leq(found, hi)
            assert aic_contains(found, AicParams(dr, df)) == 1


def _tiny_case(rng):
    """(lo, hi, a): envelopes switching on the integers 0 to 3, and dwells
    of 0 to 3/2 in half units."""
    x, y = (make_signal(rng.randint(0, 1), [(t, rng.randint(0, 1)) for t in range(4)])
            for _ in range(2))
    return x & y, x | y, AicParams(F(rng.randint(0, 3), 2), F(rng.randint(0, 3), 2))


def _quarter_member(lo, hi, a, max_edges=4):
    """Whether some signal with at most max_edges edges, all on the quarter
    ticks of [0, 3], lies between lo and hi and respects a: an exhaustive
    enumeration that drops a signal at its first cell out of bounds."""
    # cell 0 is before time 0, cell c is [(c - 1)/4, c/4), the last is [3, oo)
    times = [F(-1)] + [F(q, 4) for q in range(13)]
    allowed = [range(lo.value_at(t), hi.value_at(t) + 1) for t in times]
    limit = (a.delta_f * 4, a.delta_r * 4)  # in quarters, by the run's value

    def rec(c, v, last, edges):
        if v not in allowed[c]:
            return False
        if c == len(times) - 1:
            return True
        # the next cell starts at quarter c: keep v, or switch there
        return rec(c + 1, v, last, edges) or (
            edges < max_edges and (last is None or c - last > limit[v])
            and rec(c + 1, 1 - v, c, edges + 1))

    return rec(0, 0, None, 0) or rec(0, 1, None, 0)


class TestSweepSmallScope:
    def test_every_enumerated_witness_is_found(self):
        rng = random.Random("tiny")
        found = 0
        for _ in range(200):
            lo, hi, a = _tiny_case(rng)
            xs = [search_between(lo, hi, a, seed=s) for s in range(3)]
            for x in xs:
                if x is not None:
                    assert signal_between(lo, x, hi) and aic_contains(x, a) == 1
            if _quarter_member(lo, hi, a):
                found += 1
                assert None not in xs, (lo, hi, a)
        # both answers occur: the enumeration leaves some instances empty
        assert 100 < found < 200, found


class TestCombinedModel:
    def test_membership_is_the_conjunction(self):
        p = params(1, 1, 1, 1)
        a = aic_params(F(1, 2), F(1, 2))
        i = bailc(ID, ID, p, a)
        assert i.kind == "bailc"
        assert i.params == p and i.aic == a
        u = (pulse(0, 3),)
        lo, hi = envelopes(ID, ID, p, u)
        assert i.contains(u, lo) == 1
        # lo is 1 on [1, 3) and hi on [0, 4); the extra island leaves a 0-run
        # of length exactly delta_f between them
        island = lo | pulse(F(7, 2), F(15, 4))
        assert signal_leq(lo, island) and signal_leq(island, hi)
        assert i.contains(u, island) == 0

    def test_empty_combination_rejected_at_build_time(self):
        with pytest.raises(EmptyBailc):
            bailc(ID, ID, params(1, 1, 1, 1), aic_params(2, 2))

    def test_witness_search_respects_both_constraints(self):
        p = params(1, 1, 1, 1)
        a = aic_params(1, 1)
        u = (pulse(0, 3),)
        lo, hi = envelopes(ID, ID, p, u)
        y = search_between(lo, hi, a)
        assert y is not None
        assert signal_leq(lo, y) and signal_leq(y, hi)
        assert aic_contains(y, a) == 1

    @given(multisignals(1, 4), st.integers(0, 3))
    @settings(max_examples=20)
    def test_samples_are_members(self, u, seed):
        # the sampler raises only on a proof that u admits no output, and
        # the closed criterion says every input admits one here
        i = bailc(ID, ID, params(1, 1, 1, 1), aic_params(F(1, 2), F(1, 2)))
        xs = i.sample(u, 2, seed)
        assert xs
        for x in xs:
            assert i.contains(u, x) == 1


class TestComposition:
    def test_chain_keeps_the_outer_dwell(self):
        outer_a = aic_params(F(1, 2), F(1, 2))
        inner_a = aic_params(F(1, 4), F(1, 4))
        chain = bailc_compose(
            and_fn(2), or_fn(2), params(1, 2, 1, 2), outer_a,
            [(ID, ID), (ID, ID)], params(1, 3, 1, 3), inner_a,
        )
        assert chain.kind == "bailc"
        assert chain.params == params(2, 5, 2, 5)
        assert chain.aic == outer_a

    def test_non_monotone_outer_propagates(self):
        with pytest.raises(MonotonyViolated):
            bailc_compose(
                xor_fn(), xor_fn(), params(1, 2, 1, 2), aic_params(0, 0),
                [(ID, ID), (ID, ID)], params(1, 3, 1, 3), aic_params(0, 0),
            )

    def test_empty_inner_stage_rejected(self):
        with pytest.raises(EmptyBailc):
            bailc_compose(
                and_fn(2), or_fn(2), params(1, 2, 1, 2), aic_params(0, 0),
                [(ID, ID), (ID, ID)], params(1, 1, 1, 1), aic_params(2, 2),
            )
