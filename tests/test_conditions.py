"""Limit conditions: membership semantics, combinators, serial dispatch."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglim import (
    AicParams,
    ArityMismatch,
    BlcParams,
    EmptyMeet,
    PreconditionViolated,
    SearchBudget,
    aic_params,
    aic_set,
    and_fn,
    apply_fn,
    bailc,
    bailc_compose,
    blc,
    check_constancy,
    check_deterministic,
    check_symmetry_rf,
    check_symmetry_usual,
    check_time_invariance,
    const_fn,
    constant,
    direct_product,
    flc,
    fn_from_bits,
    identity_fn,
    lc_join,
    lc_meet,
    lc_meet_set,
    lc_restrict,
    make_signal,
    mc,
    not_fn,
    or_fn,
    params,
    proj_fn,
    pulse,
    sc,
    scf,
    serial,
    serial_membership,
    signal_leq,
    sol,
    sol_contains,
    translate,
)
from siglim import bounded, conditions, inertial, props
from siglim.conditions import DEFAULT_BUDGET, LimitCondition, Serial, _clamp, _composed_bounds
from siglim.errors import BlockArityMismatch
from siglim.inertial import Flc
from siglim.props import gen_signal
from oracles import finite_within_oracle
from strategies import boolfn_pairs_leq, multisignals, signals

F = Fraction


class TestEventualValueModels:
    def test_sol_contains_sandwich(self):
        u = (pulse(0, 2), constant(1))
        # f = AND settles to 0, g = OR settles to 1: any eventual value passes
        assert sol_contains(and_fn(2), or_fn(2), u, constant(0)) == 1
        assert sol_contains(and_fn(2), or_fn(2), u, constant(1)) == 1
        # with f = g = AND only eventual 0 passes
        assert sol_contains(and_fn(2), and_fn(2), u, constant(1)) == 0

    def test_transients_are_free(self):
        u = (constant(1),)
        i = scf(identity_fn())
        wild = make_signal(0, [(0, 1), (1, 0), (2, 1)])
        assert i.contains(u, wild) == 1
        assert i.contains(u, constant(0)) == 0

    def test_kind_tags(self):
        assert sc().kind == "sc"
        assert mc(2).kind == "mc"
        assert scf(not_fn()).kind == "scf"
        assert sol(and_fn(2), or_fn(2)).kind == "sol"

    def test_bounds_must_be_ordered(self):
        with pytest.raises(PreconditionViolated):
            sol(or_fn(2), and_fn(2))

    def test_input_arity_checked(self):
        with pytest.raises(ArityMismatch):
            mc(2).contains((constant(0),), constant(0))

    @given(boolfn_pairs_leq(2), multisignals(2, 6), st.integers(0, 5))
    @settings(max_examples=30)
    def test_samples_are_members(self, pair, u, seed):
        i = sol(*pair)
        for x in i.sample(u, 4, seed):
            assert i.contains(u, x) == 1


class TestMeetJoinRestrict:
    def test_meet_requires_same_bounds(self):
        with pytest.raises(PreconditionViolated):
            lc_meet(scf(identity_fn()), scf(not_fn()))
        with pytest.raises(ArityMismatch):
            lc_meet(mc(2), sc())

    def test_meet_membership_is_conjunction(self):
        i, j = flc(identity_fn(), 1), flc(identity_fn(), 2)
        both = lc_meet(i, j)
        u = (pulse(0, 3),)
        assert both.contains(u, pulse(1, 4)) == 0  # only in i
        assert both.contains(u, pulse(2, 5)) == 0  # only in j
        u_const = (constant(1),)
        assert both.contains(u_const, constant(1)) == 1

    def test_empty_meet_surfaces_when_sampling(self):
        # two pure delays only intersect on inputs they map identically
        i, j = flc(identity_fn(), 1), flc(identity_fn(), 2)
        both = lc_meet(i, j)
        with pytest.raises(EmptyMeet):
            both.sample((pulse(0, 3),), 2, 0)

    def test_join_membership_is_disjunction(self):
        i, j = flc(identity_fn(), 1), flc(identity_fn(), 2)
        either = lc_join(i, j)
        u = (pulse(0, 3),)
        assert either.contains(u, pulse(1, 4)) == 1
        assert either.contains(u, pulse(2, 5)) == 1
        assert either.contains(u, pulse(0, 3)) == 0
        for x in either.sample(u, 3, 0):
            assert either.contains(u, x) == 1

    def test_meet_set_filters_outputs(self):
        i = blc(identity_fn(), identity_fn(), BlcParams(1, 1, 1, 1))
        slow = lc_meet_set(i, aic_set(AicParams(2, 2)))
        u = (pulse(0, F(3, 2)),)
        candidate = pulse(1, F(5, 2))  # admissible for i, runs too short
        assert i.contains(u, candidate) == 1
        assert slow.contains(u, candidate) == 0

    def test_meet_set_samples_are_members(self):
        # the dwell set's member between the envelopes breaks the part's own
        # dwell (a 1-run of exactly delta_r); the sampler must not return it
        i = bailc(identity_fn(), identity_fn(), params(1, 2, 1, 2), aic_params(F(3, 2), F(1, 2)))
        m = lc_meet_set(i, aic_set(aic_params(0, 0)))
        u = (make_signal(0, [(0, 1), (F(5, 2), 0), (3, 1), (F(7, 2), 0), (8, 1), (F(17, 2), 0)]),)
        xs = m.sample(u, 10, 1)
        assert xs and all(m.contains(u, x) == 1 for x in xs)
        assert make_signal(0, [(2, 1), (F(7, 2), 0), (9, 1), (F(21, 2), 0)]) not in xs

    def test_dwell_set_builds_members_between_envelopes(self):
        i = blc(identity_fn(), identity_fn(), BlcParams(1, 1, 1, 1))
        a = AicParams(1, 1)
        lo, hi = i.envelopes((pulse(0, 3),))
        y = aic_set(a).between(lo, hi, 0)
        assert y is not None and aic_set(a).contains(y) == 1
        assert signal_leq(lo, y) and signal_leq(y, hi)

    def test_restrict_domain(self):
        i = mc(1)
        gate = aic_set(AicParams(2, 2))
        part = lc_restrict(i, [gate])
        inside = (pulse(0, 3),)
        outside = (pulse(0, 1),)
        assert part.contains(inside, constant(1)) == i.contains(inside, constant(1))
        assert part.contains(outside, constant(1)) == 0
        with pytest.raises(PreconditionViolated):
            part.sample(outside, 1, 0)
        with pytest.raises(ArityMismatch):
            lc_restrict(mc(2), [gate])

    def test_finite_outputs_of_law_3_12_match_the_membership_filter(self, monkeypatch):
        # the inner meets and joins of law 3.12, cases 0-249 at seed 42: the
        # list read off the parts' lists is the parts' outputs filtered
        # through the model's predicate
        checked = Counter()
        for cls in (conditions.Meet, conditions.Join):
            def finite_outputs(self, u, seed, real=cls.finite_outputs):
                got = real(self, u, seed)
                assert got == finite_within_oracle(self, self.parts, u, seed)
                checked[self.kind, bool(got)] += 1
                return got

            monkeypatch.setattr(cls, "finite_outputs", finite_outputs)
        _, check = props._REGISTRY["3.12"]
        for case in range(250):
            check(random.Random(f"42:3.12:{case}"))
        assert checked["meet", False] and checked["meet", True] and checked["join", True]

    def test_finite_outputs_of_a_restriction_are_its_base_on_the_domain(self):
        i = flc(identity_fn(), 1)
        part = lc_restrict(i, [aic_set(AicParams(2, 2))])
        for u, want in (((pulse(0, 3),), [pulse(1, 4)]), ((pulse(0, 1),), [])):
            assert part.finite_outputs(u, 0) == want
            assert want == finite_within_oracle(part, (i,), u, 0)
        assert lc_restrict(mc(1), [aic_set(AicParams(2, 2))]).finite_outputs((pulse(0, 3),), 0) is None


class TestDirectProduct:
    def test_split_and_blocks(self):
        prod = direct_product([mc(2), sc()])
        assert prod.block_arities == (2, 1)
        u = (pulse(0, 1), pulse(1, 2), pulse(2, 3))
        blocks = prod.split(u)
        assert blocks == [(u[0], u[1]), (u[2],)]
        with pytest.raises(BlockArityMismatch):
            prod.split(u[:2])

    def test_component_sets_answer_locally(self):
        prod = direct_product([scf(identity_fn()), scf(not_fn())])
        u = (constant(1), constant(1))
        first, second = prod(u)
        assert first.contains(constant(1)) == 1
        assert first.contains(constant(0)) == 0
        assert second.contains(constant(0)) == 1
        assert second.contains(constant(1)) == 0

    def test_component_sets_sample_their_block(self):
        i = flc(not_fn(), 1)
        prod = direct_product([mc(2), i])
        u = (pulse(0, 1), pulse(1, 2), pulse(2, 3))
        first, second = prod(u)
        assert (second.model, second.block) == (i, (u[2],))
        assert second.sample(2, 0) == i.sample((u[2],), 2, 0)
        assert second.between(constant(0), constant(1), 0) is None
        assert all(first.contains(x) == 1 for x in first.sample(3, 0))


def _composition_gap():
    """Law 6.6 case 129 at seed 42, the instance of scripts/composition_gap.py:
    (outer, inner, u, x) with x admitted by no intermediate signal."""
    p, a = params(0, F(9, 5), F(3, 4), F(9, 5)), aic_params(0, F(21, 32))
    p2, a2 = params(F(13, 8), F(163, 56), 2, 2), aic_params(F(29, 64), F(87, 64))
    outer = bailc(identity_fn(), identity_fn(), p, a)
    inner = bailc(const_fn(1, 0), identity_fn(), p2, a2)
    u = (make_signal(1, [(5, 0), (F(15, 2), 1), (F(41, 5), 0), (F(141, 8), 1)]),)
    x = make_signal(1, [(12, 0), (F(747, 40), 1)])
    return outer, inner, u, x


def _record_outer_asks(monkeypatch, outer):
    """The list that each question put to a predicate `outer.admits(v)`
    appends v to, as a tuple."""
    asked = []
    real = LimitCondition.admits

    def recording(self, v):
        admits = real(self, v)
        if self is not outer:
            return admits
        v = tuple(v)

        def asking(y):
            asked.append(v)
            return admits(y)

        return asking

    monkeypatch.setattr(LimitCondition, "admits", recording)
    return asked


def _dfs_dry_bailc():
    """(i, u): a dwell stage for whose input u the dwell DFS, at seeds 0-5,
    found no witness, though i admits outputs for u."""
    i = bailc(not_fn(), not_fn(), params(1, F(7, 5), 1, F(12, 5)), aic_params(F(1, 8), F(3, 8)))
    edges = [F(-13, 2), F(-19, 3), F(-33, 8), -4, -3, F(-8, 3), 0, F(7, 3), F(7, 2), F(19, 5),
             F(21, 5), F(37, 8), F(20, 3), F(19, 2), F(99, 5), F(167, 8), F(149, 7),
             F(131, 6), 22, F(45, 2), F(166, 7)]
    u = (make_signal(1, [(t, k % 2) for k, t in enumerate(edges)]),)
    y = make_signal(0, [(F(7, 5), 1), (3, 0), (F(121, 15), 1), (10, 0), (F(106, 5), 1),
                        (22, 0), (F(879, 35), 1)])
    assert i.contains(u, y) == 1
    return i, u


def _dry_sampler():
    """(i, u): a meet whose parts share no output for u, so that its
    sampler raises; for pulse(0, 3) it admits several outputs.

    The first part's rises come 0 to 4 after the input's, the second's 5 to
    6 after; a pulse longer than 4, such as u, forces the first part's
    output up before the second's may rise, and a shorter one forces
    neither."""
    i = lc_meet(blc(identity_fn(), identity_fn(), params(4, 4, 8, 8)),
                blc(identity_fn(), identity_fn(), params(1, 6, 1, 6)))
    u = (pulse(0, 5),)
    for s in range(3):
        with pytest.raises(EmptyMeet):
            i.sample(u, DEFAULT_BUDGET.samples, s)
    return i, u


class TestSerialDispatch:
    def test_fixed_delays_collapse(self):
        chain = serial(flc(not_fn(), 1), [flc(not_fn(), 2)])
        assert chain.kind == "flc"
        assert chain.delay == 3
        assert chain.fn.bits() == "01"
        u = (pulse(0, 2),)
        assert chain.contains(u, pulse(3, 5)) == 1
        assert chain.contains(u, pulse(2, 4)) == 0

    def test_bounded_chain_sums_parameters(self):
        outer = blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2))
        inner = blc(identity_fn(), identity_fn(), BlcParams(1, 3, 1, 3))
        chain = serial(outer, [inner, inner])
        assert chain.kind == "blc"
        assert chain.params == BlcParams(2, 5, 2, 5)

    def test_dwell_chain_with_inner_dwell_is_searched(self):
        # the summed form accepts (u, x), no intermediate signal does
        outer, inner, u, x = _composition_gap()
        summed = bailc_compose(identity_fn(), identity_fn(), outer.params, outer.aic,
                               [(inner.f, inner.g)], inner.params, inner.aic)
        assert summed.contains(u, x) == 1
        chain = serial(outer, [inner])
        assert chain.kind == "serial"
        assert chain.membership(u, x)[0] == 0

    def test_search_samples_each_stage_once(self, monkeypatch):
        # the candidates miss, so the inner stage is sampled, once per
        # search, from the envelopes the search holds; its draws share the
        # one dwell sweep that sample call builds
        outer, inner, u, x = _composition_gap()
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(inertial, "_DwellSweep")
        counting(inertial.Bailc, "_sample")
        counting(inertial.Bailc, "_sample_between")
        serial_membership(outer, [inner], u, x)
        counts = {name: calls.count(name) for name in set(calls)}
        assert counts == {"_DwellSweep": 1, "_sample_between": 1}

    def test_law_3_12_builds_one_search_per_chain(self, monkeypatch):
        # every output of a case shares the input, so each chain's
        # per-input work is done once for all of them
        real = props.serial_search
        built, asked = [], []

        def counting(outer, inners, *args):
            built.append((outer, *inners))
            search = real(outer, inners, *args)

            def answer(x):
                asked.append(x)
                return search(x)

            return answer

        monkeypatch.setattr(props, "serial_search", counting)
        cfg = props.GenConfig(seed=42, cases=5)
        for case in range(cfg.cases):
            built.clear()
            asked.clear()
            assert props.replay_case("3.12", cfg, case) is None
            assert len(built) == len(set(built)) <= 11
            assert len(asked) > 2 * len(built)

    def test_law_3_12_builds_one_outer_predicate_per_tuple(self, monkeypatch):
        # a search keeps the outer stage's predicate for each intermediate
        # tuple, and reuses it for every output of the case it is asked about
        real_search, real_admits = props.serial_search, LimitCondition.admits
        asking = []  # (outer, key) of the search answering an output now
        built = Counter()

        def admits(self, v):
            if asking and self is asking[-1][0]:
                built[asking[-1][1], tuple(v)] += 1
            return real_admits(self, v)

        def searching(outer, inners, *args):
            search, key = real_search(outer, inners, *args), object()

            def answer(x):
                asking.append((outer, key))
                try:
                    return search(x)
                finally:
                    asking.pop()

            return answer

        monkeypatch.setattr(LimitCondition, "admits", admits)
        monkeypatch.setattr(props, "serial_search", searching)
        cfg = props.GenConfig(seed=42, cases=5)
        for case in range(cfg.cases):
            assert props.replay_case("3.12", cfg, case) is None
        assert len(built) > 20
        assert max(built.values()) == 1

    def test_fixed_delay_stages_build_no_predicate(self, monkeypatch):
        # a fixed delay's one output is its whole answer, so the search
        # reads it and never builds the stage's membership predicate
        outer = blc(and_fn(2), or_fn(2), params(1, 2, 1, 2))
        inners = [flc(identity_fn(), 2), flc(identity_fn(), 3)]
        chain = serial(outer, inners)
        assert chain.kind == "serial"
        calls = []
        real = Flc._admits

        def counting(self, v):
            calls.append(self)
            return real(self, v)

        monkeypatch.setattr(Flc, "_admits", counting)
        u = (pulse(0, 4), pulse(1, 5))
        admits = chain.admits(u)
        assert [admits(x) for x in (pulse(4, 10), constant(1), pulse(0, 1))] == [1, 0, 0]
        assert calls == []

    def test_all_final_search_reads_no_deltas(self, monkeypatch):
        # the chain's delays only place grid times, and an all-final search
        # builds no grid, not even for the outputs it rejects
        def refused(self):
            raise AssertionError("deltas read")

        monkeypatch.setattr(Flc, "deltas", refused)
        outer = flc(and_fn(2), 1)
        inners = [flc(identity_fn(), 2), flc(identity_fn(), 3)]
        u = (pulse(0, 4), pulse(1, 5))
        search = conditions.serial_search(outer, inners, u)
        expected = translate(u[0], 3) & translate(u[1], 4)
        assert [search(x) for x in (expected, constant(1), pulse(4, 9))] == [
            (1, False), (0, False), (0, False)]

    def test_chain_predicate_keeps_at_most_max_nodes_outer_predicates(self, monkeypatch):
        # the predicate keeps the outer stage's predicate for each tuple it
        # asked about, until it holds max_nodes of them
        budget = SearchBudget(max_nodes=20)
        monkeypatch.setattr(conditions, "DEFAULT_BUDGET", budget)
        outer, inner, u, _ = _composition_gap()
        chain = Serial(*_composed_bounds(outer, [inner]), outer, (inner,))
        built, held = set(), []
        real = LimitCondition.admits

        def recording(self, v):
            admits = real(self, v)
            if self is outer:
                built.add(tuple(v))
                held.append(weakref.ref(admits))
            return admits

        monkeypatch.setattr(LimitCondition, "admits", recording)
        lo, hi = chain.bounds(u, u)
        rng = random.Random("outer-predicates")
        admits = chain.admits(u)
        for _ in range(50):
            admits(_clamp(gen_signal(rng), lo, hi))
        gc.collect()
        assert len(built) > budget.max_nodes
        assert sum(ref() is not None for ref in held) == budget.max_nodes

    def test_inner_envelopes_do_not_grow_with_the_rounds(self, monkeypatch):
        # the grid round filters thousands of candidates through one
        # membership predicate per stage, not one envelope computation each
        outer, inner, u, x = _composition_gap()
        calls = []
        real = bounded.envelopes

        def counting(f, g, p, v):
            calls.append(p == inner.params and tuple(v) == u)
            return real(f, g, p, v)

        monkeypatch.setattr(bounded, "envelopes", counting)
        serial_membership(outer, [inner], u, x)
        # the refutation, the predicate, the samples, the constructed
        # candidates and the grid's envelope check share one pair
        assert sum(calls) == 1

    def test_no_combination_is_asked_twice(self, monkeypatch):
        # the first pass and the grid round share one record of the
        # intermediate signals already put to the outer stage
        outer, inner, u, x = _composition_gap()
        asked = _record_outer_asks(monkeypatch, outer)
        assert serial_membership(outer, [inner], u, x) == (0, False)
        assert len(asked) > 100
        assert len(set(asked)) == len(asked)

    def test_constructed_witness_answers_before_any_grid(self, monkeypatch):
        # the clamped inner envelope is a fixed member, and the first grid
        # round would reach it, so no grid is built
        inner = blc(identity_fn(), identity_fn(), params(1, 2, 1, 2))
        u = (pulse(0, 3),)
        lo, _ = inner.envelopes(u)

        def no_grid(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(conditions, "_grid_candidates", no_grid)
        outer = flc(identity_fn(), 1)
        assert serial_membership(outer, [inner], u, translate(lo, 1)) == (1, False)

    @pytest.mark.parametrize("kind", ["blc", "bailc", "serial"])
    def test_lone_stage_decided_by_a_candidate_is_not_sampled(self, kind, monkeypatch):
        # the outer stage maps a candidate built from x, the inner member
        # y, onto x, so the answer is in hand before any stage is sampled
        p, u = params(1, 2, 1, 2), (pulse(0, 3),)
        if kind == "serial":
            inner = serial(blc(identity_fn(), identity_fn(), p), [flc(identity_fn(), 1)])
        elif kind == "bailc":
            inner = bailc(identity_fn(), identity_fn(), p, AicParams(0, 1))
        else:
            inner = blc(identity_fn(), identity_fn(), p)
        assert inner.kind == kind
        y = inner.sample(u, 1, 0)[0]

        def no_sampler(*args):
            raise AssertionError("stage sampled")

        monkeypatch.setattr(Serial, "_sample", no_sampler)
        for owner in (bounded.Blc, inertial.Bailc):
            monkeypatch.setattr(owner, "_sample", no_sampler)
            monkeypatch.setattr(owner, "_sample_between", no_sampler)
        outer = flc(identity_fn(), 1)
        assert serial_membership(outer, [inner], u, translate(y, 1)) == (1, False)

    def test_dry_stage_sampler_leaves_the_other_candidates(self):
        # the stage's samples are empty, not an error, and the search still
        # decides that no intermediate signal exists
        i, u = _dry_sampler()
        chain = serial(blc(identity_fn(), identity_fn(), params(0, 1, 0, 1)), [i])
        assert chain.kind == "serial"
        assert chain.contains(u, constant(0)) == 0
        assert chain.membership(u, constant(0)) == (0, False)

    def test_zero_inner_dwell_chain_sums_parameters(self):
        outer = bailc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2), AicParams(1, 1))
        inner = bailc(identity_fn(), identity_fn(), BlcParams(1, 3, 1, 3), AicParams(0, 0))
        chain = serial(outer, [inner, inner])
        assert chain.kind == "bailc"
        assert chain.params == BlcParams(2, 5, 2, 5)
        assert chain.aic == AicParams(1, 1)

    def test_mixed_delays_are_decided_by_the_search(self):
        # deterministic stages offer their one output, so the search is exact
        chain = serial(flc(and_fn(2), 1), [flc(identity_fn(), 2), flc(identity_fn(), 3)])
        assert chain.kind == "serial"
        assert chain.deterministic
        u = (pulse(0, 4), pulse(1, 5))
        expected = translate(u[0], 3) & translate(u[1], 4)
        assert chain.contains(u, expected) == 1
        assert chain.contains(u, constant(1)) == 0
        assert chain.membership(u, expected) == (1, False)
        assert chain.membership(u, constant(1)) == (0, False)
        assert chain.sample(u, 3, 0) == [expected]

    def test_deterministic_chain_rejects_in_one_round(self, monkeypatch):
        # every stage list is final, so the grid round would re-test the
        # first pass's combinations: one outer ask per combination
        outer = flc(and_fn(2), 1)
        inners = [flc(identity_fn(), 2), flc(identity_fn(), 3)]
        u = (pulse(0, 4), pulse(1, 5))
        asked = _record_outer_asks(monkeypatch, outer)
        assert serial_membership(outer, inners, u, constant(1)) == (0, False)
        assert len(asked) == 1

    def test_deterministic_chain_samples_in_one_round(self, monkeypatch):
        # every round of an all-deterministic chain gives the one output:
        # one inner and one outer sample, not one pair per requested output
        outer, inner = flc(identity_fn(), 1), flc(identity_fn(), 2)
        F, G = _composed_bounds(outer, (inner,))
        chain = Serial(F, G, outer, (inner,))
        u = (pulse(0, 2),)
        calls = []
        real = Flc._sample

        def counting(self, *args):
            calls.append(self)
            return real(self, *args)

        monkeypatch.setattr(Flc, "_sample", counting)
        assert chain.sample(u, 6, 0) == [translate(u[0], 3)]
        assert len(calls) == 2

    def test_admits_samples_each_stage_once_per_input(self, monkeypatch):
        # the chain's predicate does the per-input work once: two stage
        # samples for three outputs, not two per output
        chain = serial(flc(and_fn(2), 1), [flc(identity_fn(), 2), flc(identity_fn(), 3)])
        assert chain.kind == "serial"
        u = (pulse(0, 4), pulse(1, 5))
        calls = []
        real = Flc._sample

        def counting(self, *args):
            calls.append(self)
            return real(self, *args)

        monkeypatch.setattr(Flc, "_sample", counting)
        admits = chain.admits(u)
        assert [admits(x) for x in (pulse(5, 7), pulse(4, 7), constant(0))] == [1, 0, 0]
        assert len(calls) == 2

    def test_outer_without_adjoints_reads_the_inner_envelopes(self):
        # fixed-delay and eventual-value outers have no window adjoints: the
        # witnesses come from the inner stage's envelopes
        inner = blc(identity_fn(), identity_fn(), params(1, 2, 1, 2))
        u = (pulse(0, 3),)
        lo, hi = inner.envelopes(u)
        k = serial(flc(identity_fn(), 1), [inner])
        assert k.kind == "serial"
        assert k.membership(u, translate(lo, 1)) == (1, False)
        assert k.membership(u, translate(hi, 1)) == (1, False)
        assert k.membership(u, constant(1)) == (0, False)
        k = serial(sol(identity_fn(), identity_fn()), [inner])
        assert k.membership(u, constant(0)) == (1, False)
        assert k.membership(u, constant(1)) == (0, False)

    def test_search_path_membership(self):
        chain = serial(scf(identity_fn()), [sc()])
        assert chain.kind == "serial"
        u = (pulse(0, 2),)
        bit, exhausted = chain.membership(u, constant(0))
        assert (bit, exhausted) == (1, False)
        assert chain.membership(u, constant(1))[0] == 0

    def test_serial_search_agrees_with_closed_form(self):
        i = flc(not_fn(), 1)
        js = [flc(not_fn(), 2)]
        closed = serial(i, js)
        u = (pulse(0, 2),)
        for x in (pulse(3, 5), pulse(2, 4), constant(0)):
            assert serial_membership(i, js, u, x)[0] == closed.contains(u, x)

    def test_serial_membership_flags_nothing_on_success(self):
        i = scf(and_fn(2))
        js = [sc(), sc()]
        u = (constant(1), constant(1))
        assert serial_membership(i, js, u, constant(1)) == (1, False)

    @given(multisignals(1, 4), st.integers(0, 3))
    @settings(max_examples=20)
    def test_serial_samples_are_members(self, u, seed):
        chain = serial(scf(identity_fn()), [sc()])
        for x in chain.sample(u, 2, seed):
            assert chain.contains(u, x) == 1


class TestBehaviouralChecks:
    def test_fixed_delay_is_deterministic(self):
        i = flc(identity_fn(), 1)
        us = [(pulse(0, 2),), (constant(1),)]
        assert check_deterministic(i, us) == 1

    def test_eventual_value_models_are_not(self):
        i = scf(identity_fn())
        assert check_deterministic(i, [(pulse(0, 2),)]) == 0

    def test_dry_sampler_leaves_the_other_inputs(self):
        # no draw for u exposes a choice, and the next input still does
        i, u = _dry_sampler()
        assert check_deterministic(i, [u]) == 1
        assert check_deterministic(i, [u, (pulse(0, 3),)]) == 0

    def test_dwell_sampler_finds_the_outputs_the_dfs_missed(self):
        # the dwell sweep is exact, so a sampler that raises has proved the
        # stage empty for u, and this stage is not
        i, u = _dfs_dry_bailc()
        admits = i.admits(u)
        for s in range(3):
            xs = i.sample(u, DEFAULT_BUDGET.samples, s)
            assert xs and all(admits(x) for x in xs)

    @given(signals(6), st.integers(-3, 3))
    @settings(max_examples=30)
    def test_fixed_delay_time_invariance(self, x, d):
        i = flc(identity_fn(), 2)
        u = (x,)
        assert check_time_invariance(i, u, translate(x, 2), d) == 1
        assert check_time_invariance(i, u, x & constant(1), d) == 1

    def test_constancy_checker(self):
        u = (pulse(0, 4),)
        f = g = identity_fn()
        assert check_constancy(u, translate(pulse(0, 4), 1), f, g, 1, 1) == 1
        # a rise at t = 0 was never anticipated: g(u(-1)) = 0
        assert check_constancy(u, pulse(0, 5), f, g, 1, 1) == 0
        assert check_constancy((constant(0),), pulse(0, 1), f, g, 1, 1) == 0

    def test_usual_symmetry(self):
        i = mc(2)
        u = (pulse(0, 1), pulse(2, 3))
        x = constant(0)
        assert check_symmetry_usual(i, u, x, (1, 0)) == 1
        j = scf(proj_fn(2, 0))
        asym_u = (constant(1), constant(0))
        assert check_symmetry_usual(j, asym_u, constant(1), (1, 0)) == 0
        with pytest.raises(PreconditionViolated):
            check_symmetry_usual(i, u, x, (0, 0))

    def test_rf_symmetry(self):
        i = sol(and_fn(2), or_fn(2))
        u = (pulse(0, 1), constant(0))
        assert check_symmetry_rf(i, u, constant(0)) == 1
        j = scf(fn_from_bits(1, "11"))
        assert check_symmetry_rf(j, (constant(0),), constant(1)) == 0
