"""Window-bounded conditions: envelopes, validity, inclusion, composition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglim import (
    BlcParams,
    BoolFn,
    DistributivityUnverified,
    InvalidBlc,
    MonotonyViolated,
    PreconditionViolated,
    aic_params,
    and_fn,
    apply_fn,
    bailc,
    blc,
    blc_compose,
    blc_included,
    blc_is_deterministic,
    blc_symmetric_rf,
    blc_symmetric_usual,
    charfn,
    const_fn,
    constant,
    envelope_violation,
    envelopes,
    identity_fn,
    lower_envelope,
    make_signal,
    mc,
    not_fn,
    or_fn,
    params,
    proj_fn,
    pulse,
    serial,
    signal_leq,
    translate,
    upper_envelope,
    window_all,
    window_any,
    xor_fn,
)
import siglim.boolfn as boolfn
import siglim.signals as algebra
from siglim.bounded import _distributes, pattern_input, probe_inputs
from strategies import multisignals, nonneg_rationals, signals

F = Fraction

ID = identity_fn()


def overlap_params_st():
    """Always-valid family: both depths exceed their width by a shared offset."""
    r = nonneg_rationals(2)

    def build(m_r, m_f, c):
        return BlcParams(m_r, m_r + c, m_f, m_f + c)

    return st.builds(build, r, r, r)


class TestParams:
    def test_validation(self):
        with pytest.raises(PreconditionViolated):
            BlcParams(2, 1, 0, 0)
        with pytest.raises(PreconditionViolated):
            BlcParams(-1, 1, 0, 0)

    def test_addition_is_componentwise(self):
        assert params(1, 2, 1, 2) + params(1, 3, 1, 3) == params(2, 5, 2, 5)

    def test_coercion_to_fractions(self):
        p = params(F(1, 2), 1, 0, 2)
        assert p.m_r == F(1, 2)
        assert isinstance(p.d_r, Fraction) and p.d_r == 1


class TestEnvelopes:
    def test_envelopes_are_windows_of_the_bounds(self):
        u = (pulse(0, 3),)
        p = params(1, 2, 1, 2)
        assert lower_envelope(ID, u, p) == window_all(u[0], 2, 1)
        assert upper_envelope(ID, u, p) == window_any(u[0], 2, 1)

    def test_membership_is_the_envelope_sandwich(self):
        i = blc(ID, ID, params(1, 2, 1, 2))
        u = (pulse(0, 3),)
        lo, hi = envelopes(ID, ID, params(1, 2, 1, 2), u)
        assert i.contains(u, lo) == 1
        assert i.contains(u, hi) == 1
        assert i.contains(u, constant(1)) == 0
        assert i.contains(u, lo | pulse(1, F(3, 2))) == 1

    @given(overlap_params_st(), signals(6))
    @settings(max_examples=40)
    def test_valid_parameters_order_the_envelopes(self, p, x):
        lo, hi = envelopes(ID, ID, p, (x,))
        assert signal_leq(lo, hi)

    @given(overlap_params_st(), multisignals(2, 5), st.integers(0, 3))
    @settings(max_examples=25)
    def test_samples_are_members(self, p, u, seed):
        i = blc(and_fn(2), or_fn(2), p)
        for x in i.sample(u, 3, seed):
            assert i.contains(u, x) == 1


class TestSweepCount:
    """Merge walks counted, not clock time, as in the signal algebra's cost
    tests: the envelopes take one walk over the inputs, and each membership
    check one walk over the output and the envelopes."""

    @pytest.fixture
    def swept(self, monkeypatch):
        calls = []
        real = algebra._sweep

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(algebra, "_sweep", counting)
        return calls

    @staticmethod
    def inputs():
        x = charfn([(5 * k, 5 * k + 2) for k in range(300)])
        y = charfn([(5 * k + F(1, 3), 5 * k + 3) for k in range(300)])
        return x, y

    def test_two_input_envelopes_take_one_walk(self, swept):
        u = self.inputs()
        i = blc(and_fn(2), or_fn(2), params(1, 2, 1, 2))
        lo, hi = i.envelopes(u)
        assert len(swept) == 1
        assert (lo, hi) == (lower_envelope(and_fn(2), u, i.params),
                            upper_envelope(or_fn(2), u, i.params))

    def test_membership_takes_one_walk_per_output(self, swept):
        # bailc reads the dwell first: an output that breaks it takes no
        # walk, and the first that keeps it takes the envelope walk as well
        # as its own; blc builds its envelopes with the predicate
        u = self.inputs()
        p = params(F(1, 2), 2, F(1, 2), 2)
        for i in (blc(and_fn(2), or_fn(2), p),
                  bailc(and_fn(2), or_fn(2), p, aic_params(F(1, 4), F(1, 4)))):
            lo, hi = i.envelopes(u)
            assert hi != constant(1)
            swept.clear()
            admits = i.admits(u)
            built = len(swept)
            broken = pulse(0, F(1, 4))  # a 1-run exactly the dwell long
            assert admits(broken) == 0
            assert len(swept) == built + (i.kind == "blc")
            outputs = [lo, hi, constant(0), constant(1), lo | ~hi]
            swept.clear()
            bits = [admits(x) for x in outputs]
            assert len(swept) == len(outputs) + (i.kind == "bailc")
            assert bits[0] == 1 and bits[2:] == [0, 0, 0]

    def test_bailc_outputs_breaking_the_dwell_take_no_walk(self, swept):
        u = self.inputs()
        i = bailc(and_fn(2), or_fn(2), params(F(1, 2), 2, F(1, 2), 2), aic_params(F(1, 4), F(1, 4)))
        lo, hi = i.envelopes(u)
        # lo is 0 until 7/3 and hi 1 from 3/2 to 5, so each has a run of 1/8
        broken = [lo | pulse(F(1, 8), F(1, 4)), hi & ~pulse(F(2), F(17, 8)), ~pulse(0, F(1, 8))]
        swept.clear()
        admits = i.admits(u)
        assert [admits(x) for x in broken] == [0, 0, 0]
        assert swept == []
        assert i.contains(u, lo) == 1

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_window_samples_take_two_walks(self, swept, count):
        # the envelopes, then lo | hi once for every draw, each clamped by
        # slicing; count 1 returns lo and draws nothing
        u = self.inputs()
        i = blc(and_fn(2), or_fn(2), params(1, 2, 1, 2))
        xs = i.sample(u, count, 5)
        assert len(swept) == (1 if count == 1 else 2)
        assert len(xs) == count
        assert all(i.contains(u, x) == 1 for x in xs)

    def test_two_samples_are_the_envelopes_after_one_walk(self, swept):
        u = self.inputs()
        i = blc(and_fn(2), or_fn(2), params(1, 2, 1, 2))
        for seed in (0, 5, 99):
            swept.clear()
            assert i.sample(u, 2, seed) == list(i.envelopes(u))
            assert len(swept) == 2  # one to sample, one for the check's envelopes


class TestValidity:
    def test_overlapping_windows_are_valid(self):
        i = blc(ID, ID, params(1, 2, 1, 2))
        assert i.kind == "blc"

    def test_disjoint_windows_are_rejected(self):
        # rise look-back [t-5, t-5] fully precedes fall look-back [t-1, t-1]
        with pytest.raises(InvalidBlc):
            blc(ID, ID, params(0, 5, 0, 1))

    def test_constant_separation_rescues_any_windows(self):
        i = blc(const_fn(1, 0), const_fn(1, 1), params(0, 5, 0, 1))
        assert i.contains((pulse(0, 1),), constant(0)) == 1

    def test_violation_witness_for_invalid_parameters(self):
        p = params(0, 5, 0, 1)
        found = envelope_violation(ID, ID, p)
        assert found is not None
        u, t = found
        lo, hi = envelopes(ID, ID, p, u)
        assert lo.value_at(t) == 1 and hi.value_at(t) == 0

    def test_no_violation_for_valid_parameters(self):
        assert envelope_violation(ID, ID, params(1, 2, 1, 2)) is None


class TestLargeArity:
    def test_models_build_at_arity_twelve(self):
        # construction compares the two bound tables once, never the m!
        # argument permutations
        assert mc(12).input_arity == 12
        i = blc(and_fn(12), or_fn(12), params(1, 2, 1, 2))
        u = tuple(pulse(k, k + 4) for k in range(12))
        lo, hi = envelopes(and_fn(12), or_fn(12), params(1, 2, 1, 2), u)
        assert i.contains(u, lo) == i.contains(u, hi) == 1
        assert not i.deterministic

    def test_arity_sixteen_bounds_are_packed_and_hashed_once(self):
        # the envelopes read one packed table of the two bound functions;
        # counted, not timed: a lookup that hashed the tables again would
        # read 2**16 entries of each per call
        class CountingTable(tuple):
            hashed = 0

            def __hash__(self):
                CountingTable.hashed += 1
                return super().__hash__()

        f = BoolFn(16, CountingTable(and_fn(16).table))
        g = BoolFn(16, CountingTable(or_fn(16).table))
        i = blc(f, g, params(1, 2, 1, 2))
        boolfn._packed.cache_clear()
        CountingTable.hashed = 0
        for k in range(20):
            u = tuple(pulse(k + j % 3, k + 4 + j % 5) for j in range(16))
            lo, _ = i.envelopes(u)
            assert i.contains(u, lo) == 1
            assert i.contains(u, ~lo) == 0
        assert boolfn._packed.cache_info().misses == 1
        assert CountingTable.hashed <= 2


class TestDeterminism:
    def test_zero_width_same_bounds_is_a_pure_delay(self):
        det, fixed = blc_is_deterministic(ID, ID, params(0, 3, 0, 3))
        assert (det, fixed) == (1, F(3))
        i = blc(ID, ID, params(0, 3, 0, 3))
        assert i.deterministic is True
        u = (pulse(0, 2),)
        assert i.contains(u, translate(u[0], 3)) == 1
        assert i.sample(u, 1, 0) == [translate(u[0], 3)]

    def test_constant_bounds_are_deterministic_without_a_delay(self):
        det, fixed = blc_is_deterministic(const_fn(2, 1), const_fn(2, 1), params(1, 2, 1, 2))
        assert (det, fixed) == (1, None)

    def test_positive_width_leaves_slack(self):
        assert blc_is_deterministic(ID, ID, params(1, 2, 1, 2)) == (0, None)

    def test_requires_valid_parameters(self):
        with pytest.raises(InvalidBlc):
            blc_is_deterministic(ID, ID, params(0, 5, 0, 1))


class TestInclusion:
    @given(overlap_params_st())
    def test_reflexive(self, p):
        assert blc_included(ID, ID, p, ID, ID, p) == 1

    def test_wider_windows_include(self):
        # [t-3, t] contains [t-2, t-1]; a same-width shift would not
        tight = params(1, 2, 1, 2)
        loose = params(3, 3, 3, 3)
        shifted = params(1, 3, 1, 3)
        assert blc_included(ID, ID, tight, ID, ID, loose) == 1
        assert blc_included(ID, ID, loose, ID, ID, tight) == 0
        assert blc_included(ID, ID, tight, ID, ID, shifted) == 0

    def test_looser_bound_pair_includes(self):
        p = params(1, 2, 1, 2)
        assert blc_included(ID, ID, p, const_fn(1, 0), const_fn(1, 1), p) == 1
        assert blc_included(const_fn(1, 0), const_fn(1, 1), p, ID, ID, p) == 0


class TestSymmetry:
    def test_permutation_symmetry_follows_the_tables(self):
        assert blc_symmetric_usual(and_fn(2), or_fn(2)) == 1
        assert blc_symmetric_usual(proj_fn(2, 0), proj_fn(2, 0)) == 0

    def test_rise_fall_symmetry_needs_equal_windows_and_dual_bounds(self):
        assert blc_symmetric_rf(and_fn(2), or_fn(2), params(1, 2, 1, 2)) == 1
        assert blc_symmetric_rf(and_fn(2), or_fn(2), params(1, 2, 1, 3)) == 0
        assert blc_symmetric_rf(and_fn(2), and_fn(2), params(1, 2, 1, 2)) == 0


class TestInputFamilies:
    def test_pattern_input_tracks_the_shape(self):
        s = pulse(0, 2)
        u = pattern_input(3, (0, 1, 0), (1, 1, 0), s)
        assert u[0] == s
        assert u[1] == constant(1)
        assert u[2] == constant(0)

    def test_pattern_input_flips_when_needed(self):
        s = pulse(0, 2)
        u = pattern_input(1, (1,), (0,), s)
        assert u[0] == ~s

    def test_probe_inputs_cover_all_constants(self):
        probes = probe_inputs(and_fn(2), or_fn(2), params(1, 2, 1, 2))
        consts = {tuple(x.value_at(0) for x in u) for u in probes if all(
            not x.transitions for x in u)}
        assert consts == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(len(u) == 2 for u in probes)


class TestComposition:
    def test_and_or_chain_sums_parameters(self):
        chain = blc_compose(
            and_fn(2), or_fn(2), params(1, 2, 1, 2),
            [(ID, ID), (ID, ID)], params(1, 3, 1, 3),
        )
        assert chain.kind == "blc"
        assert chain.params == params(2, 5, 2, 5)
        assert chain.f.table == and_fn(2).table
        assert chain.g.table == or_fn(2).table

    def test_inner_bounds_compose_blockwise(self):
        chain = blc_compose(
            and_fn(2), or_fn(2), params(1, 2, 1, 2),
            [(not_fn(), not_fn()), (ID, ID)], params(1, 3, 1, 3),
        )
        assert chain.f(0, 1) == 1  # AND(NOT 0, 1)
        assert chain.f(1, 1) == 0

    def test_non_monotone_outer_is_rejected(self):
        with pytest.raises(MonotonyViolated):
            blc_compose(xor_fn(), xor_fn(), params(1, 2, 1, 2),
                        [(ID, ID), (ID, ID)], params(1, 3, 1, 3))

    def test_wrong_bound_shape_is_rejected(self):
        with pytest.raises(DistributivityUnverified):
            # OR does not pass through the all-window once widths are positive
            blc_compose(or_fn(2), or_fn(2), params(1, 2, 1, 2),
                        [(ID, ID), (ID, ID)], params(1, 3, 1, 3))

    def test_inner_pair_count_checked(self):
        with pytest.raises(PreconditionViolated):
            blc_compose(and_fn(2), or_fn(2), params(1, 2, 1, 2),
                        [(ID, ID)], params(1, 3, 1, 3))

    @pytest.mark.parametrize("mode", ["all", "any"])
    def test_distributivity_is_the_homomorphism_condition(self, mode):
        # h commutes with a positive-width all-window (any-window) iff
        # h(a op b) == h(a) op h(b) for every pair of arguments, op = AND (OR)
        op = min if mode == "all" else max
        for m in (1, 2, 3):
            for k in range(1 << (1 << m)):
                h = BoolFn(m, tuple((k >> b) & 1 for b in range(1 << m)))
                args = list(h.inputs())
                hom = all(h(*map(op, a, b)) == op(h(*a), h(*b)) for a in args for b in args)
                assert _distributes(h, [(2, 1), (3, 0)], mode) == hom, (mode, h.bits())
                assert _distributes(h, [(2, 0), (3, 0)], mode)

    def test_accepted_bounds_commute_with_the_windows(self):
        u = (pulse(0, 3), make_signal(1, [(1, 0), (F(5, 2), 1)]), pulse(2, 5))
        for k in range(1 << 8):
            h = BoolFn(3, tuple((k >> b) & 1 for b in range(8)))
            for mode, window in (("all", window_all), ("any", window_any)):
                if _distributes(h, [(2, 1)], mode):
                    lhs = apply_fn(h, tuple(window(up, 2, 1) for up in u))
                    assert lhs == window(apply_fn(h, u), 2, 1), (mode, h.bits())

    def test_and_upper_bound_is_not_summed(self):
        # AND is monotone but no join-homomorphism, so it does not pass
        # through the any-window: a summed form would reject x, which the
        # chain admits through y = (pulse(0, 3/2), pulse(1, 5/2))
        inner = blc(ID, ID, params(1, 1, 1, 1))
        with pytest.raises(DistributivityUnverified):
            blc_compose(and_fn(2), and_fn(2), params(1, 2, 1, 2),
                        [(ID, ID), (ID, ID)], params(1, 1, 1, 1))
        outer = blc(and_fn(2), and_fn(2), params(1, 2, 1, 2))
        chain = serial(outer, [inner, inner])
        assert chain.kind == "serial"
        u = (pulse(0, F(1, 2)), pulse(1, F(3, 2)))
        x = pulse(2, F(5, 2))
        y = (pulse(0, F(3, 2)), pulse(1, F(5, 2)))
        assert inner.contains(u[:1], y[0]) == inner.contains(u[1:], y[1]) == 1
        assert outer.contains(y, x) == 1
        assert chain.membership(u, x) == (1, False)
