"""Truth tables, composition and the derived function properties."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglim import (
    ArityMismatch,
    BoolFn,
    PreconditionViolated,
    and_fn,
    apply_fn,
    blc_symmetric_usual,
    combine,
    const_fn,
    fn_compose,
    fn_from_bits,
    fn_props,
    identity_fn,
    is_monotone,
    is_permutation_symmetric,
    make_signal,
    not_fn,
    or_fn,
    proj_fn,
    pulse,
    xor_fn,
)
from siglim import signals
from siglim.boolfn import MAX_ARITY
from strategies import boolfn_pairs_leq, boolfns, multisignals, rationals


class TestTables:
    def test_and_table_bit_order(self):
        # a_1 is the most significant index bit, so "0001" is AND
        assert and_fn(2).bits() == "0001"
        assert or_fn(2).bits() == "0111"
        assert xor_fn().bits() == "0110"
        assert not_fn().bits() == "10"

    def test_from_bits_round_trip(self):
        f = fn_from_bits(3, "00010111")
        assert f.bits() == "00010111"
        assert f(0, 1, 1) == 1
        assert f(1, 0, 0) == 0

    def test_from_bits_rejects_bad_strings(self):
        with pytest.raises(PreconditionViolated):
            fn_from_bits(2, "012")
        with pytest.raises(PreconditionViolated):
            fn_from_bits(2, "01")

    def test_call_arity_checked(self):
        with pytest.raises(ArityMismatch):
            and_fn(2)(1)

    def test_projection(self):
        f = proj_fn(3, 1)
        assert all(f(*a) == a[1] for a in f.inputs())
        with pytest.raises(ArityMismatch):
            proj_fn(2, 2)

    @given(boolfns(2))
    def test_bits_round_trip(self, f):
        assert fn_from_bits(f.arity, f.bits()) == f


class TestCompose:
    def test_blockwise_example(self):
        # AND of (NOT a, b OR c) has arity 3
        f = fn_compose(and_fn(2), [not_fn(), or_fn(2)])
        assert f.arity == 3
        for a in f.inputs():
            assert f(*a) == ((1 - a[0]) & (a[1] | a[2]))

    def test_identity_blocks_are_neutral(self):
        g = fn_compose(xor_fn(), [identity_fn(), identity_fn()])
        assert g == xor_fn()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            fn_compose(and_fn(2), [not_fn()])

    @given(boolfns(2), boolfns(1), boolfns(2))
    @settings(max_examples=40)
    def test_compose_pointwise(self, f, h1, h2):
        g = fn_compose(f, [h1, h2])
        for a in g.inputs():
            assert g(*a) == f(h1(a[0]), h2(a[1], a[2]))


class TestApply:
    def test_apply_and_intersects(self):
        x, y = pulse(0, 2), pulse(1, 3)
        assert apply_fn(and_fn(2), (x, y)) == (x & y)
        assert apply_fn(or_fn(2), (x, y)) == (x | y)

    def test_apply_arity_checked(self):
        with pytest.raises(ArityMismatch):
            apply_fn(and_fn(2), (pulse(0, 1),))

    @given(boolfns(2), multisignals(2, 6), rationals())
    @settings(max_examples=60)
    def test_apply_is_pointwise(self, f, u, t):
        assert apply_fn(f, u).value_at(t) == f(*(x.value_at(t) for x in u))

    @given(multisignals(2, 8))
    @settings(max_examples=40)
    def test_every_small_table_matches_the_walk(self, u):
        # the tables that depend on at most one input skip the walk
        for m in (1, 2):
            for table in product((0, 1), repeat=1 << m):
                f = BoolFn(m, table)
                assert apply_fn(f, u[:m]) == combine(f, *u[:m])

    def test_one_input_tables_run_no_sweep(self, monkeypatch):
        # sweeps counted, not clock time, as in the signal algebra's cost tests
        swept = []
        real = signals._sweep

        def counting(*args):
            swept.append(None)
            return real(*args)

        monkeypatch.setattr(signals, "_sweep", counting)
        x = make_signal(0, [(k, (k + 1) % 2) for k in range(1000)])
        for f in (identity_fn(), not_fn(), const_fn(1, 0), const_fn(1, 1), proj_fn(3, 2)):
            apply_fn(f, (x,) * f.arity)
        assert swept == []
        apply_fn(xor_fn(), (x, x))
        assert len(swept) == 1


class TestProps:
    def test_monotone_classifier(self):
        assert is_monotone(and_fn(3))
        assert is_monotone(or_fn(2))
        assert not is_monotone(not_fn())
        assert not is_monotone(xor_fn())

    def test_symmetry_classifier(self):
        assert is_permutation_symmetric(and_fn(2))
        assert is_permutation_symmetric(xor_fn())
        assert not is_permutation_symmetric(proj_fn(2, 0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symmetry_matches_every_permutation(self, m):
        for bits in product((0, 1), repeat=1 << m):
            f = BoolFn(m, bits)
            brute = all(
                f(*a) == f(*(a[q] for q in sigma))
                for sigma in permutations(range(m))
                for a in f.inputs()
            )
            assert is_permutation_symmetric(f) == brute

    def test_symmetry_at_arity_eight_is_decided(self):
        # 8! = 40320 permutations would take about a minute; the 7
        # neighbour swaps take milliseconds
        assert blc_symmetric_usual(and_fn(8), or_fn(8)) == 1
        assert blc_symmetric_usual(proj_fn(8, 7), or_fn(8)) == 0

    def test_and_or_are_dual(self):
        props = fn_props(and_fn(2), or_fn(2))
        assert props.leq_fg == 1
        assert props.rf_dual == 1
        assert props.monotone == 1
        assert props.usual_symmetric == 1

    def test_constant_pair_extremes(self):
        props = fn_props(const_fn(2, 0), const_fn(2, 1))
        assert props.max_f == 0
        assert props.min_g == 1

    def test_arity_must_match(self):
        with pytest.raises(ArityMismatch):
            fn_props(not_fn(), and_fn(2))

    @given(boolfn_pairs_leq(2))
    def test_leq_detection(self, pair):
        f, g = pair
        assert fn_props(f, g).leq_fg == 1

    @given(boolfns(2))
    def test_rf_dual_against_definition(self, f):
        g = BoolFn(f.arity, tuple(reversed([1 - v for v in f.table])))
        # complementing every input reverses the table index order
        assert fn_props(f, g).rf_dual == 1

    @given(boolfns(3))
    @settings(max_examples=40)
    def test_monotone_matches_brute_force(self, f):
        brute = all(
            f(*a) <= f(*b)
            for a in f.inputs()
            for b in f.inputs()
            if all(p <= q for p, q in zip(a, b))
        )
        assert is_monotone(f) == brute


# --- the per-point definitions, kept as oracles ------------------------------

def oracle_monotone(f: BoolFn) -> bool:
    """Raising one argument of any point never lowers f there."""
    for a in f.inputs():
        for p in range(f.arity):
            if a[p] == 0 and f(*a) > f(*(a[:p] + (1,) + a[p + 1:])):
                return False
    return True


def oracle_dual(f: BoolFn, g: BoolFn) -> bool:
    """not f(a) == g(not a) at every point a."""
    return all(1 - f(*a) == g(*(1 - b for b in a)) for a in f.inputs())


def oracle_compose_at(f: BoolFn, inner, a: tuple) -> int:
    """f of the inner functions, each called on its block of the point a."""
    args, pos = [], 0
    for h in inner:
        args.append(h(*a[pos:pos + h.arity]))
        pos += h.arity
    return f(*args)


def random_fn(rng: random.Random, m: int) -> BoolFn:
    r = rng.random()
    if r < 0.15:  # the monotone and dual tables are rare among random ones
        return rng.choice([and_fn(m), or_fn(m), const_fn(m, rng.randint(0, 1))])
    return BoolFn(m, tuple(rng.randint(0, 1) for _ in range(1 << m)))


class TestTableReads:
    """The bit-arithmetic checks against the per-point definitions."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_monotone_and_dual(self, m):
        rng = random.Random(m)
        seen = set()
        for _ in range(60):
            f = random_fn(rng, m)
            g = rng.choice([f, random_fn(rng, m),
                            BoolFn(m, tuple(1 - v for v in reversed(f.table)))])
            assert is_monotone(f) == oracle_monotone(f)
            props = fn_props(f, g)
            assert props.rf_dual == oracle_dual(f, g)
            assert props.monotone == (oracle_monotone(f) and oracle_monotone(g))
            seen.add((is_monotone(f), props.rf_dual))
        assert len(seen) == 4  # both answers of both checks were drawn

    def test_a_drop_along_each_bit_is_found(self):
        # the constant 1 lowered at index 1 << k drops only along bit k
        for m in range(1, 7):
            for k in range(m):
                t = [1] * (1 << m)
                t[1 << k] = 0
                f = BoolFn(m, tuple(t))
                assert not is_monotone(f)
                assert not oracle_monotone(f)

    @pytest.mark.parametrize("arities", [
        (1,), (2,), (1, 1), (3, 1), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1, 1, 1), (6,),
        (4, 4), (5, 6, 5), (8, 8), (16,), (1,) * 16, (3, 1, 4, 1, 5, 2),
    ])
    def test_compose_against_blocks(self, arities):
        rng = random.Random(sum(arities) * 31 + len(arities))
        f = random_fn(rng, len(arities))
        inner = [random_fn(rng, n) for n in arities]
        g = fn_compose(f, inner)
        total = sum(arities)
        assert g.arity == total <= MAX_ARITY
        if total <= 10:
            points = list(g.inputs())
        else:
            points = [tuple(rng.randint(0, 1) for _ in range(total)) for _ in range(3000)]
            points += [(0,) * total, (1,) * total]
        for a in points:
            assert g(*a) == oracle_compose_at(f, inner, a)

    def test_compose_beyond_the_limit_is_refused(self):
        with pytest.raises(ArityMismatch):
            fn_compose(and_fn(2), [and_fn(8), and_fn(MAX_ARITY - 7)])
