"""Signal algebra: worked examples, canonical invariants, window oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    shrink_oracle,
    window_all_bit,
    window_all_bit_grid,
    window_any_bit,
    window_any_bit_grid,
    window_probe_times,
)
from siglim import (
    ArityMismatch,
    Blc,
    BlcParams,
    BoolFn,
    DuplicateTransitionTime,
    InvalidWindow,
    OverlappingIntervals,
    PreconditionViolated,
    Signal,
    and_fn,
    blc_valid,
    breakpoints,
    charfn,
    combine,
    const_fn,
    constant,
    first_one_time,
    identity_fn,
    lower_envelope,
    make_signal,
    or_fn,
    proj_fn,
    pulse,
    signal_between,
    signal_leq,
    translate,
    upper_envelope,
    values_along,
    window_all,
    window_any,
)
from siglim.boolfn import MAX_ARITY
from siglim.conditions import _clamp
from siglim.signals import (
    _BETWEEN, _bits, _box_images, _code, _image, _images, _lattice, _on_lattice, _shrink, _splice,
    _sweep, _ticks,
)
from strategies import blc_params, boolfn_pairs_leq, boolfns, nonneg_rationals, rationals, signals

F = Fraction


def assert_canonical(x: Signal) -> None:
    prev_t, prev_v = None, x.initial
    for t, v in x.transitions:
        assert isinstance(t, Fraction)
        assert v in (0, 1) and v != prev_v
        assert prev_t is None or t > prev_t
        prev_t, prev_v = t, v
    assert_on_lattice(x)


def assert_on_lattice(x: Signal) -> None:
    """The stored ticks are the least lattice of the times, and rebuilding
    the signal from its transitions gives the same value and hash."""
    assert gcd(x.scale, *x.ticks) == 1
    assert all(a < b for a, b in zip(x.ticks, x.ticks[1:]))
    assert x.ticks == tuple(t * x.scale for t, _ in x.transitions)
    rebuilt = Signal(x.initial, x.transitions)
    assert rebuilt == x and hash(rebuilt) == hash(x)


class TestConstruction:
    def test_make_signal_drops_redundant_entries(self):
        x = make_signal(0, [(2, 1), (1, 0), (5, 1), (7, 0)])
        assert x == Signal(0, ((F(2), 1), (F(7), 0)))

    def test_make_signal_rejects_duplicate_times(self):
        with pytest.raises(DuplicateTransitionTime):
            make_signal(0, [(1, 1), (1, 0)])

    def test_signal_rejects_non_alternating(self):
        with pytest.raises(PreconditionViolated):
            Signal(0, ((F(1), 1), (F(2), 1)))

    def test_signal_rejects_float_times(self):
        with pytest.raises(PreconditionViolated):
            Signal(0, ((1.0, 1),))

    def test_charfn_merges_touching_intervals(self):
        assert charfn([(0, 1), (1, 2)]) == pulse(0, 2)

    def test_charfn_rejects_overlap(self):
        with pytest.raises(OverlappingIntervals):
            charfn([(0, 2), (1, 3)])

    def test_empty_interval_vanishes(self):
        assert pulse(3, 3) == constant(0)


class TestEvaluation:
    def test_value_is_right_continuous(self):
        x = pulse(0, 1)
        assert x.value_at(0) == 1
        assert x.value_at(1) == 0
        assert x.left_limit(0) == 0
        assert x.left_limit(1) == 1

    def test_eventual_value(self):
        assert pulse(0, 1).eventual_value() == 0
        assert make_signal(0, [(3, 1)]).eventual_value() == 1
        assert constant(1).eventual_value() == 1

    def test_first_one_time(self):
        assert first_one_time(constant(0)) is None
        assert first_one_time(pulse(3, 5)) == 3
        assert first_one_time(constant(1)) == 0
        assert first_one_time(make_signal(1, [(2, 0)])) == 1

    @given(signals(), rationals())
    def test_value_matches_left_limit_off_breakpoints(self, x, t):
        if t not in [s for s, _ in x.transitions]:
            assert x.value_at(t) == x.left_limit(t)


class TestBooleanOps:
    @given(signals())
    def test_complement_is_involution(self, x):
        assert ~~x == x

    @given(signals(), signals())
    def test_de_morgan(self, x, y):
        assert ~(x & y) == ~x | ~y
        assert x ^ y == (x | y) & ~(x & y)

    @given(signals(), signals(), rationals())
    def test_combine_is_pointwise(self, x, y, t):
        assert (x & y).value_at(t) == x.value_at(t) & y.value_at(t)
        assert (x | y).value_at(t) == x.value_at(t) | y.value_at(t)

    @given(signals(), signals())
    def test_leq_agrees_with_conjunction(self, x, y):
        assert signal_leq(x, y) == (x & y == x)


class TestTranslate:
    @given(signals(), rationals(), rationals())
    def test_translation_adds(self, x, a, b):
        assert translate(translate(x, a), b) == translate(x, a + b)

    @given(signals(), rationals(-4, 4), rationals())
    def test_translation_shifts_values(self, x, d, t):
        assert translate(x, d).value_at(t) == x.value_at(t - d)


class TestWindows:
    def test_window_all_worked_example(self):
        # x is 1 on [0, 3); the closed window [t-2, t-1] fits inside iff
        # 2 <= t < 4.
        x = pulse(0, 3)
        assert window_all(x, 2, 1) == pulse(2, 4)
        assert window_any(x, 2, 1) == pulse(1, 5)
        # boundary: a 1-run exactly m long vanishes under window_all, and a
        # 0-gap exactly m long closes under window_any
        assert window_all(pulse(0, 1), 2, 1) == constant(0)
        y = charfn([(0, 2), (3, 5)])
        assert window_any(y, 2, 1) == pulse(1, 7)

    def test_window_all_with_zero_width_is_translate(self):
        x = make_signal(0, [(0, 1), (F(1, 2), 0), (3, 1)])
        assert window_all(x, F(5, 4), 0) == translate(x, F(5, 4))
        assert window_any(x, F(5, 4), 0) == translate(x, F(5, 4))

    def test_window_rejects_bad_shape(self):
        with pytest.raises(InvalidWindow):
            window_all(pulse(0, 1), 1, 2)
        with pytest.raises(InvalidWindow):
            window_any(pulse(0, 1), -1, 0)

    @given(signals(6, max_den=4), nonneg_rationals(2, 4), nonneg_rationals(2, 4))
    @settings(max_examples=40)
    def test_window_all_matches_sampling_oracle(self, x, m, extra):
        d = m + extra
        y = window_all(x, d, m)
        for t in window_probe_times(x, d, m):
            grid = window_all_bit_grid(x, d, m, t)
            assert window_all_bit(x, d, m, t) == grid
            assert y.value_at(t) == grid

    @given(signals(6, max_den=4), nonneg_rationals(2, 4), nonneg_rationals(2, 4))
    @settings(max_examples=40)
    def test_window_any_matches_sampling_oracle(self, x, m, extra):
        d = m + extra
        y = window_any(x, d, m)
        for t in window_probe_times(x, d, m):
            grid = window_any_bit_grid(x, d, m, t)
            assert window_any_bit(x, d, m, t) == grid
            assert y.value_at(t) == grid

    @given(signals(6), signals(6), rationals(-3, 3), nonneg_rationals(3))
    @settings(max_examples=60)
    def test_erosion_dilation_adjunction(self, x, y, d, m):
        # dilation with the reflected window is left adjoint to erosion
        assert signal_leq(_shrink(y, m - d, m, 0), x) == signal_leq(y, _shrink(x, d, m, 1))

    @given(signals(8), nonneg_rationals(2), nonneg_rationals(2))
    @settings(max_examples=60)
    def test_window_duality(self, x, m, extra):
        d = m + extra
        assert window_any(x, d, m) == ~window_all(~x, d, m)

    # (x, d, m, window_all's output)
    SHRINK_CASES = [
        # a 1-run exactly m long vanishes; one a tick longer (1/4) stays
        (charfn([(0, 1), (3, F(17, 4))]), F(2), F(1), pulse(5, F(21, 4))),
        # the same with a negative d
        (charfn([(0, 1), (3, F(17, 4))]), F(-2), F(1), pulse(1, F(5, 4))),
        # d and m on a lattice finer than x's: the first run is one tick
        # of 1/24 longer than m
        (charfn([(0, 1), (2, 4)]), F(5, 3), F(23, 24),
         charfn([(F(5, 3), F(41, 24)), (F(11, 3), F(113, 24))])),
        # unbounded first and last 1-runs stay, and the middle one, exactly
        # m long, vanishes
        (make_signal(1, [(0, 0), (1, 1), (F(5, 2), 0), (3, 1)]), F(2), F(3, 2),
         make_signal(1, [(F(1, 2), 0), (5, 1)])),
        (constant(0), F(1), F(1, 2), constant(0)),
        (constant(1), F(-1), F(1, 2), constant(1)),
    ]

    @pytest.mark.parametrize("x, d, m, want", SHRINK_CASES)
    def test_shrink_run_pairs_match_the_per_tick_loop(self, x, d, m, want):
        assert _shrink(x, d, m, 1) == want
        for b in (0, 1):
            assert _shrink(x, d, m, b) == shrink_oracle(x, d, m, b)

    @given(signals(), rationals(-4, 4), nonneg_rationals(2), st.integers(0, 1))
    @settings(max_examples=200)
    def test_shrink_matches_the_per_tick_loop(self, x, d, m, b):
        assert _shrink(x, d, m, b) == shrink_oracle(x, d, m, b)


class TestCanonicality:
    @given(signals(), rationals())
    def test_translate_output_canonical(self, x, d):
        assert_canonical(translate(x, d))

    @given(signals(), nonneg_rationals(2), nonneg_rationals(2))
    def test_window_outputs_canonical(self, x, m, extra):
        assert_canonical(window_all(x, m + extra, m))
        assert_canonical(window_any(x, m + extra, m))

    @given(st.lists(signals(6), min_size=1, max_size=3))
    def test_combine_output_canonical(self, xs):
        out = combine(lambda *bits: int(sum(bits) % 2 == 1), *xs)
        assert_canonical(out)

    @given(signals(), signals())
    def test_breakpoints_cover_both(self, x, y):
        bps = breakpoints(x, y)
        assert bps == sorted(bps)
        assert set(bps) == {t for t, _ in x.transitions} | {t for t, _ in y.transitions}


@st.composite
def shared_time_signals(draw, min_size: int = 1, max_size: int = 4) -> list[Signal]:
    """Signals whose transitions all come from one small pool of times, so
    that they often switch together."""
    pool = sorted(set(draw(st.lists(rationals(max_den=4), min_size=1, max_size=8))))
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        initial = draw(st.integers(0, 1))
        times = [t for t in pool if draw(st.booleans())]
        out.append(make_signal(initial, [(t, (initial + k + 1) % 2) for k, t in enumerate(times)]))
    return out


def probe_times(xs: list[Signal]) -> list[Fraction]:
    """Every breakpoint, every midpoint between two, and one point beyond
    each end."""
    bps = breakpoints(*xs)
    if not bps:
        return [F(0)]
    mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
    return sorted([bps[0] - 1, bps[-1] + 1] + bps + mids)


class TestSweep:
    """combine, signal_leq, breakpoints and values_along share one merge walk."""

    @given(st.data())
    def test_combine_agrees_with_value_at(self, data):
        xs = data.draw(shared_time_signals())
        f = data.draw(boolfns(len(xs)))
        out = combine(f, *xs)
        assert_canonical(out)
        for t in probe_times(xs):
            assert out.value_at(t) == f(*(x.value_at(t) for x in xs))

    @given(shared_time_signals(), st.lists(rationals(max_den=4), max_size=6))
    def test_values_along_agrees_with_value_at(self, xs, extra):
        times = sorted(probe_times(xs) + extra + extra)
        assert values_along(xs, times) == [tuple(x.value_at(t) for x in xs) for t in times]

    @given(shared_time_signals(2, 2))
    def test_leq_agrees_with_combine(self, xy):
        x, y = xy
        assert signal_leq(x, y) == (combine(lambda a, b: int(a <= b), x, y) == constant(1))

    @given(shared_time_signals(2, 2))
    def test_leq_with_an_early_violation(self, xy):
        # x exceeds y on [-20, -19), before every other event of either signal
        x, y = pulse(-20, -19) | xy[0], xy[1] & ~pulse(-20, -19)
        assert not signal_leq(x, y)
        assert combine(lambda a, b: int(a <= b), x, y) != constant(1)

    def test_leq_worked_examples(self):
        assert signal_leq(pulse(1, 2), pulse(0, 3))
        assert not signal_leq(pulse(0, 3), pulse(1, 2))
        assert not signal_leq(constant(1), pulse(0, 1))
        # equal at every shared time, violated only after the last of them
        assert not signal_leq(make_signal(0, [(1, 1), (2, 0), (3, 1)]), pulse(1, 2))


class CountingTime(Fraction):
    """A time that counts the comparisons made on it."""

    compared = 0
    __hash__ = Fraction.__hash__

    def __lt__(self, other):
        CountingTime.compared += 1
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        CountingTime.compared += 1
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        CountingTime.compared += 1
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        CountingTime.compared += 1
        return Fraction.__ge__(self, other)

    def __eq__(self, other):
        CountingTime.compared += 1
        return Fraction.__eq__(self, other)


class TestCost:
    """Comparison counts, not clock time: the sweep is linear in the number of
    transitions, where probing every breakpoint by bisection is not."""

    N = 2000

    @staticmethod
    def long_signal(seed: int, n: int) -> Signal:
        rng = random.Random(seed)
        t, pairs = 0, []
        for k in range(n):
            t += rng.randint(1, 3)  # gaps this small make many shared times
            pairs.append((CountingTime(t), (k + 1) % 2))
        return Signal(0, tuple(pairs))

    def compared(self, fn) -> int:
        CountingTime.compared = 0
        fn()
        return CountingTime.compared

    def test_operations_are_linear(self):
        # the walks run on integer ticks: no time is compared at all, and
        # combine's op runs once per combination of values, not per time
        x, y = self.long_signal(1, self.N), self.long_signal(2, self.N)
        assert self.compared(lambda: x & y) == 0
        z = x | y
        assert self.compared(lambda: signal_leq(x, z)) == 0
        assert self.compared(lambda: breakpoints(x, y)) == 0
        times = [CountingTime(t) for t in breakpoints(x, y)]
        assert self.compared(lambda: values_along((x, y), times)) == 0
        calls = []

        def op(a, b):
            calls.append(None)
            return a & b

        assert combine(op, x, y) == x & y
        assert len(calls) <= 4 < len(times)


def every_op(x: Signal, y: Signal, d: Fraction, m: Fraction) -> list[Signal]:
    """One output of each signal-algebra operation."""
    return [
        ~x, x & y, x | y, x ^ y, combine(lambda a: a, x),
        translate(x, d), window_all(x, abs(d) + m, m), window_any(x, abs(d) + m, m),
        _shrink(x, d, m, 1), _shrink(x, d, m, 0),
        make_signal(x.initial, x.transitions), charfn([(d, d + m)]),
    ]


class TestLattice:
    """Times are stored as integer ticks on the least common denominator."""

    def test_combine_over_mixed_denominators(self):
        x, y = pulse(F(1, 3), F(2, 3)), pulse(F(1, 8), F(5, 8))
        both = x & y
        assert (both.scale, both.ticks) == (24, (8, 15))
        assert both == pulse(F(1, 3), F(5, 8))
        assert x | y == pulse(F(1, 8), F(2, 3))
        assert x ^ y == charfn([(F(1, 8), F(1, 3)), (F(5, 8), F(2, 3))])
        # the thirds and eighths cancel out, and so does the lattice
        whole = pulse(0, F(1, 3)) | pulse(F(1, 8), 1)
        assert (whole.scale, whole.ticks) == (1, (0, 1))
        assert (x & ~x).scale == 1

    def test_constant_has_unit_scale(self):
        assert (constant(1).scale, constant(1).ticks) == (1, ())
        assert Signal(0, ((F(3, 4), 1),)).ticks == (3,)

    @given(signals())
    def test_translate_round_trip_restores_the_lattice(self, x):
        third = F(1, 3)
        y = translate(translate(x, third), -third)
        assert y == x and hash(y) == hash(x)
        assert (y.scale, y.ticks) == (x.scale, x.ticks)

    def test_translate_worked_example(self):
        y = translate(pulse(0, 1), F(1, 3))
        assert (y.scale, y.ticks) == (3, (1, 4))
        assert translate(y, -F(1, 3)).scale == 1

    @given(signals(), rationals(-12, 28, max_den=11))
    def test_evaluation_agrees_with_the_fraction_definition(self, x, t):
        # t, often negative, and each transition time with the points a third
        # of a tick either side of it, which are off the signal's lattice
        third = F(1, 3 * x.scale)
        probes = [t] + [s + e for s, _ in x.transitions for e in (-third, 0, third)]
        for p in probes:
            at = [v for s, v in x.transitions if s <= p]
            before = [v for s, v in x.transitions if s < p]
            assert x.value_at(p) == (at[-1] if at else x.initial)
            assert x.left_limit(p) == (before[-1] if before else x.initial)

    @given(signals(), signals(), rationals(-4, 4), nonneg_rationals(2))
    def test_every_op_output_is_on_its_least_lattice(self, x, y, d, m):
        for z in every_op(x, y, d, m):
            assert_on_lattice(z)


# --- the merge kernel against the tuple-event walk it replaced ---------------

def oracle_sweep(signals, scale):
    """The tuple-event merge walk: yields (tick, code) once per distinct
    transition time, from (tick, bit mask) pairs sorted as tuples."""
    code, mask = 0, 1 << len(signals)
    events = []
    for x in signals:
        code, mask = code << 1 | x.initial, mask >> 1
        f = scale // x.scale
        events += [(t * f, mask) for t in x.ticks]
    if not events:
        return
    events.sort()
    prev = events[0][0]
    for t, flip in events:
        if t != prev:
            yield prev, code
            prev = t
        code ^= flip
    yield prev, code


def oracle_combine(op, *signals):
    """combine on the tuple-event walk, with op called per transition time."""
    n = len(signals)
    cur = initial = op(*(x.initial for x in signals))
    scale = _lattice(signals)
    out = []
    for t, code in oracle_sweep(signals, scale):
        v = op(*_bits(code, n))
        if v != cur:
            out.append(t)
            cur = v
    return Signal._on(initial, scale, tuple(out))


def oracle_values_along(u, times):
    scale = _lattice(u)
    steps = list(oracle_sweep(u, scale))
    code, k, out = _code(x.initial for x in u), 0, []
    for t in times:
        while k < len(steps) and steps[k][0] <= t * scale:
            code = steps[k][1]
            k += 1
        out.append(_bits(code, len(u)))
    return out


@st.composite
def signal_tuples(draw, min_size: int = 1, max_size: int = MAX_ARITY) -> list[Signal]:
    """Signals on mixed scales that often switch together: each takes its
    times from one small pool (negative times included) or, once in a
    while, none, which makes a constant."""
    pool = sorted(set(draw(st.lists(rationals(-12, 12, max_den=6), min_size=1, max_size=8))))
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        initial = draw(st.integers(0, 1))
        times = [t for t in pool if draw(st.booleans())]
        out.append(make_signal(initial, [(t, (initial + k + 1) % 2) for k, t in enumerate(times)]))
    return out


def random_table(seed: int, n: int, width: int = 1) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.getrandbits(width) for _ in range(1 << n))


def oracle_bit_ticks(signals, scale, table):
    """(first, (low, high)) on the tuple-event walk: the value on the left
    piece, then the ticks where bit 0 and where bit 1 of the table's value
    change."""
    first = cur = table[_code(x.initial for x in signals)]
    low, high = [], []
    for t, code in oracle_sweep(signals, scale):
        c = table[code] ^ cur
        if c & 1:
            low.append(t)
        if c & 2:
            high.append(t)
        cur ^= c
    return first, (low, high)


class TestKernel:
    """The packed-int kernel gives the tuple-event walk's answers, for every
    arity up to MAX_ARITY, whose index needs five bits."""

    @given(signal_tuples(), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_combine_agrees_with_the_oracle(self, xs, seed):
        n = len(xs)
        table = random_table(seed, n)
        want = oracle_combine(lambda *bits: table[_code(bits)], *xs)
        assert combine(table, *xs) == want
        assert combine(BoolFn(n, table), *xs) == want
        assert combine(lambda *bits: table[_code(bits)], *xs) == want
        assert_canonical(want)

    @given(signal_tuples(), st.lists(rationals(-14, 14, max_den=12), max_size=6))
    @settings(max_examples=80)
    def test_breakpoints_and_values_agree_with_the_oracle(self, xs, extra):
        scale = _lattice(xs)
        assert breakpoints(*xs) == [F(t, scale) for t, _ in oracle_sweep(xs, scale)]
        times = sorted(probe_times(xs) + extra)
        assert values_along(xs, times) == oracle_values_along(xs, times)

    @given(signal_tuples(2, 2))
    def test_leq_agrees_with_the_oracle(self, xy):
        want = oracle_combine(lambda a, b: int(a <= b), *xy) == constant(1)
        assert signal_leq(*xy) == want

    @given(signal_tuples(3, 3))
    def test_one_walk_membership_agrees_with_two(self, xs):
        lo, x, hi = xs
        want = signal_leq(lo, x) and signal_leq(x, hi)
        assert signal_between(lo, x, hi) == want
        # the clamp of x lies between lo and hi whenever lo <= hi
        if signal_leq(lo, hi):
            assert signal_between(lo, lo | (x & hi), hi)

    def test_membership_stops_at_the_first_violation(self):
        # x exceeds hi on [-5, -4), before every other transition
        lo, hi = constant(0), ~pulse(-5, -4)
        x = make_signal(1, [(k, k % 2) for k in range(-4, 400)])
        assert not signal_between(lo, x, hi)
        # the walk reports the violation at -5 and reads no further
        assert _sweep((lo, x, hi), 1, _BETWEEN, 0) == (1, ([-5], []))
        assert _sweep((lo, x, hi), 1, _BETWEEN) == (1, ([-5, -4], []))
        assert signal_between(lo, x & hi, hi)

    @given(signal_tuples(), st.integers(0, 2**32), st.sampled_from([1, 2]), st.integers(1, 3))
    @settings(max_examples=80)
    def test_per_bit_ticks_agree_with_the_oracle(self, xs, seed, width, k):
        # one list per bit of the table's value, on the least lattice and a
        # multiple of it
        table = random_table(seed, len(xs), width)
        scale = k * _lattice(xs)
        assert _sweep(xs, scale, table) == oracle_bit_ticks(xs, scale, table)

    @given(signal_tuples(), st.integers(0, 2**32), rationals(-14, 14, max_den=7))
    @example([pulse(-3, 2), charfn([(F(-1, 2), F(1, 3)), (4, 5)])], 5, F(-5, 7))
    @example([pulse(F(-1, 2), 2), constant(1)], 6, F(2, 9))
    @settings(max_examples=80)
    def test_shifted_walk_is_the_translated_image(self, xs, seed, d):
        # d is often negative and off the signals' lattice (denominators up
        # to 6 against 7 here)
        n = len(xs)
        f, g = random_table(seed, n), random_table(seed + 1, n)
        packed = tuple(a << 1 | b for a, b in zip(f, g))
        assert _image(f, xs, d) == translate(combine(f, *xs), d)
        assert _images(packed, xs, d) == (translate(combine(f, *xs), d),
                                          translate(combine(g, *xs), d))

    @given(signal_tuples(2, 4), st.integers(0, 2**32), rationals(-14, 14, max_den=7))
    @settings(max_examples=40)
    def test_shifted_box_images_are_translated(self, xs, seed, d):
        m = len(xs) // 2
        lo, hi = xs[:m], xs[m:2 * m]
        f, g = random_table(seed, m), random_table(seed + 1, m)
        least, most = _box_images(f, g, lo, hi)
        assert _box_images(f, g, lo, hi, d) == (translate(least, d), translate(most, d))

    @given(signal_tuples(2, 2), st.data())
    @settings(max_examples=120)
    def test_splice_is_the_clamp(self, pair, data):
        # lo and hi in either order or equal, constants included; the draw
        # switches on lo's and hi's ticks, half a tick either side of them,
        # and elsewhere
        lo, hi = data.draw(st.sampled_from([pair, pair[::-1], (pair[0], pair[0])]))
        scale = 2 * _lattice((lo, hi))
        pool = {t + e for t in _ticks((lo, hi), scale) for e in (-1, 0, 1)} | {-30, 0, 30}
        edges = sorted(data.draw(st.sets(st.sampled_from(sorted(pool)), max_size=6)))
        v = data.draw(st.integers(0, 1))
        x = Signal._on(v, scale, tuple(edges))
        sources = (_on_lattice(lo, scale), _on_lattice(lo | hi, scale))
        want = oracle_combine(lambda a, b, c: a | (b & c), lo, x, hi)
        got = _splice(v, edges, sources, scale)
        assert got == want
        assert_canonical(got)
        assert_on_lattice(got)

    def test_tables_are_checked(self):
        with pytest.raises(ArityMismatch):
            combine((0, 1), pulse(0, 1), pulse(1, 2))
        with pytest.raises(PreconditionViolated):
            combine((0, 2), pulse(0, 1))

    def test_fixed_tables_match_the_operators(self):
        x, y = pulse(-3, 2), charfn([(F(-1, 2), F(1, 3)), (4, 5)])
        assert x & y == oracle_combine(lambda a, b: a & b, x, y)
        assert x | y == oracle_combine(lambda a, b: a | b, x, y)
        assert x ^ y == oracle_combine(lambda a, b: a ^ b, x, y)
        assert _clamp(x, y & x, y | x) == oracle_combine(
            lambda a, b, c: a | (b & c), y & x, x, y | x)


class TestEnvelopeWalk:
    """Blc.envelopes takes both bound images in one walk over the inputs."""

    @given(st.data(), blc_params())
    @settings(max_examples=80)
    def test_envelopes_agree_with_the_separate_envelopes(self, data, p):
        m = data.draw(st.integers(1, 3))
        f, g = data.draw(boolfn_pairs_leq(m))
        if not blc_valid(f, g, p):
            return
        u = tuple(data.draw(signal_tuples(m, m)))
        assert Blc(f, g, p).envelopes(u) == (lower_envelope(f, u, p), upper_envelope(g, u, p))

    def test_one_input_and_shared_bounds(self):
        u = (pulse(0, 3), make_signal(1, [(1, 0), (F(5, 2), 1)]))
        p = BlcParams(1, 2, 1, 2)
        pairs = [(proj_fn(2, 0), or_fn(2)), (and_fn(2), proj_fn(2, 1)),
                 (and_fn(2), and_fn(2)), (const_fn(2, 0), const_fn(2, 1))]
        for f, g in pairs:
            assert Blc(f, g, p).envelopes(u) == (lower_envelope(f, u, p), upper_envelope(g, u, p))
        x = pulse(1, 2)
        assert Blc(identity_fn(), identity_fn(), p).envelopes((x,)) == (
            window_all(x, 2, 1), window_any(x, 2, 1))
