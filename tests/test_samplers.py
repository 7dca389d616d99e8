"""The window and dwell samplers against the per-draw definitions they replace.

`_window_samples` builds each seeded signal as ticks and clamps it in one
walk; the version below builds it with `make_signal` on Fractions and clamps
it with two `combine` walks, and both must return the same list.  `Bailc`
sampling tracks the envelopes and draws from one dwell sweep per call; the
loop below tracks them on Fractions and runs one full `search_between` per
seed, and both must return the same members.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest

from siglim import (
    AicParams, EmptyBailc, Signal, SiglimError, aic_contains, aic_set, bailc, blc, breakpoints,
    flc, lc_join, lc_meet, lc_restrict, make_signal, mc, sc, search_between, signal_between, sol,
)
from siglim import inertial
from siglim.boolfn import and_fn, identity_fn, or_fn, xor_fn
from siglim.bounded import _window_samples
from siglim.conditions import Serial, _composed_bounds, _rng
from siglim.inertial import _DwellSweep
from siglim.props import (
    _feasible_aic, _gen_overlap_params, gen_boolfn, gen_boolfn_pair_leq, gen_multisignal,
)


def window_samples_oracle(lo, hi, count, seed):
    """The envelopes, then seeded signals on their merged breakpoints (time
    0 when there are none), each clamped as lo | (r & hi)."""
    out = [lo, hi]
    rng = _rng(seed, "blc")
    times = breakpoints(lo, hi) or [F(0)]
    n = len(times)
    while len(out) < count + 2:
        picks = sorted(rng.sample(range(n), rng.randint(0, min(4, n))))
        r = make_signal(rng.randint(0, 1), [(times[k], rng.randint(0, 1)) for k in picks])
        out.append(lo | (r & hi))
    return list(dict.fromkeys(out))[: max(count, 1)]


def track_oracle(s, lo, hi, a, tick):
    """s with each edge that comes no later than its dwell after the one
    before moved to one tick past that dwell, if that lies between lo and
    hi."""
    pairs = []
    for t, v in s.transitions:
        if pairs:
            last, w = pairs[-1]
            t = max(t, last + (a.delta_r if w else a.delta_f) + tick)
        pairs.append((t, v))
    x = Signal(s.initial, pairs)
    return x if signal_between(lo, x, hi) else None


def bailc_sample_oracle(model, u, count, seed):
    """The window samples that keep the dwell, then lo and hi tracked on the
    tick of the earliest witness's lattice (that of the envelopes and
    dwells, refined by its edges + 1), then one `search_between` per seed,
    until count members are found."""
    lo, hi = model.envelopes(u)
    a = model.aic
    out = dict.fromkeys(x for x in window_samples_oracle(lo, hi, count + 2, seed)
                        if aic_contains(x, a))
    first = search_between(lo, hi, a)
    if len(out) < count and first is not None:
        scale = lcm(lo.scale, hi.scale, a.delta_r.denominator, a.delta_f.denominator)
        tick = F(1, scale * (len(first.transitions) + 1))
        candidates = [track_oracle(lo, lo, hi, a, tick), track_oracle(hi, lo, hi, a, tick)]
        candidates += [search_between(lo, hi, a, seed=seed + s) for s in range(count + 4)]
        for x in candidates:
            if len(out) >= count:
                break
            if x is not None:
                out[x] = None
    if not out:
        raise EmptyBailc("no inertial witness")
    return list(out)[:count]


def _signal(rng, n, dens):
    times = sorted({F(rng.randint(-12, 36), rng.choice(dens)) for _ in range(n)})
    initial = rng.randint(0, 1)
    return Signal(initial, [(t, initial ^ (k & 1) ^ 1) for k, t in enumerate(times)])


@pytest.mark.parametrize("seed", range(60))
def test_window_samples_match_the_fraction_definition(seed):
    rng = random.Random(f"window:{seed}")
    # even seeds keep at most 3 breakpoints per signal, so that draws of 4
    # picks can cover them all; odd seeds take up to 12
    x, y = (_signal(rng, rng.randint(0, [3, 12][seed % 2]), (1, 2, 3, 8)) for _ in range(2))
    # an ordered pair, its reverse, and the same signal twice
    for lo, hi in ((x & y, x | y), (x | y, x & y), (x, x)):
        for count in (0, 1, 3, 8):
            s = rng.randint(0, 1 << 20)
            assert _window_samples(lo, hi, count, s) == window_samples_oracle(lo, hi, count, s)


def test_window_samples_without_breakpoints_switch_at_zero():
    for lo, hi in ((Signal(0), Signal(1)), (Signal(1), Signal(1)), (Signal(1), Signal(0))):
        for seed in range(20):
            got = _window_samples(lo, hi, 6, seed)
            assert got == window_samples_oracle(lo, hi, 6, seed)
    # between the constants 0 and 1 the draws are steps at time 0
    assert {x.ticks for x in _window_samples(Signal(0), Signal(1), 6, 1)} == {(), (0,)}


def _bailc_case(seed):
    rng = random.Random(f"bailc:{seed}")
    m = rng.randint(1, 2)
    f, g = rng.choice([(and_fn(m), or_fn(m)), (and_fn(m), and_fn(m)), (or_fn(m), or_fn(m))])
    if m == 1:
        f, g = rng.choice([(f, g), (identity_fn(), identity_fn())])
    elif rng.random() < 0.2:
        f = g = xor_fn()
    p = _gen_overlap_params(rng)
    model = bailc(f, g, p, _feasible_aic(p, rng))
    u = tuple(_signal(rng, rng.randint(0, 6), (1, 2, 3, 4)) for _ in range(m))
    return model, u


def _sample_or_error(sampler, *args):
    try:
        return sampler(*args)
    except EmptyBailc:
        return EmptyBailc


@pytest.mark.parametrize("seed", range(40))
def test_bailc_samples_match_one_search_per_seed(seed):
    model, u = _bailc_case(seed)
    for count in (1, 3, 6):
        for s in (0, 1, 977):
            assert (_sample_or_error(model.sample, u, count, s)
                    == _sample_or_error(bailc_sample_oracle, model, u, count, s))


def test_bailc_cases_reach_the_draws():
    # the window samples alone fall short often enough that the dwell draws
    # decide the comparison above
    drawn = 0
    for seed in range(40):
        model, u = _bailc_case(seed)
        lo, hi = model.envelopes(u)
        for count in (1, 3, 6):
            for s in (0, 1, 977):
                kept = {x for x in window_samples_oracle(lo, hi, count + 2, s)
                        if aic_contains(x, model.aic)}
                drawn += len(kept) < count
    assert drawn > 50, drawn


def test_rigid_sweeps_draw_the_seed_zero_member_with_no_rng(monkeypatch):
    # where no edge can move, every seed's draw is the seed-0 one; forcing
    # the seeded path gives the same members
    rigid = 0
    for seed in range(40):
        model, u = _bailc_case(seed)
        sweep = _DwellSweep(*model.envelopes(u), model.aic)
        draws = [sweep.draw(s) for s in range(6)]
        if sweep.rigid:
            rigid += 1
            assert draws == [draws[0]] * 6
        sweep.rigid = False
        assert [sweep.draw(s) for s in range(6)] == draws
    assert 5 < rigid < 35, rigid

    def no_rng(*args):
        raise AssertionError("rng seeded")

    monkeypatch.setattr(inertial, "_rng", no_rng)
    lo = hi = make_signal(0, [(1, 1), (3, 0)])
    sweep = _DwellSweep(lo, hi, AicParams(1, 1))
    assert sweep.rigid and sweep.draw(5) == lo


def _every_kind(rng):
    """One model of each kind, on one input."""
    f, g = gen_boolfn_pair_leq(1, rng)
    p = _gen_overlap_params(rng)
    window, dwell, loose = blc(f, g, p), bailc(f, g, p, _feasible_aic(p, rng)), sol(f, g)
    return [loose, sc(), mc(1), window, dwell, flc(gen_boolfn(1, rng), 1),
            lc_meet(window, dwell), lc_join(loose, window),
            lc_restrict(window, [aic_set(AicParams(0, 0))]),
            Serial(*_composed_bounds(window, [dwell]), window, (dwell,))]


def test_samplers_return_at_most_the_bound_the_search_assumes():
    # a lone stage's candidates go first only when its samples and they fit
    # the first pass, and the search's room for them assumes that no kind
    # returns more than max(count, 2)
    most = Counter()
    for seed in range(30):
        rng = random.Random(f"bound:{seed}")
        models = _every_kind(rng)
        u = gen_multisignal(1, rng, 6)
        for model in models:
            for count in (1, 2, 3, 6, 10):
                try:
                    out = model.sample(u, count, seed)
                except SiglimError:
                    continue  # no witness drawn for this input
                assert len(out) <= max(count, 2), (model.kind, count)
                most[model.kind, count] = max(most[model.kind, count], len(out))
    # a sol gives its two bound images even when asked for one, and every
    # kind with more than one output fills a count of 3
    assert most["sol", 1] == 2
    assert all(most[kind, 3] == 3 for kind, _ in most if kind != "flc")
