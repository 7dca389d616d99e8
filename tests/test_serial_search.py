"""The serial witness search's grids and candidate streams.

The grids are built as integer ticks; the Fraction versions below are the
definitions they must reproduce, point for point.  The grid candidate stream
leaves out what lies outside a stage's envelopes; the full stream must be
the Fraction definition's, and filtering either through the stage must give
the same members.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from siglim import AicParams, SearchBudget, Signal, bailc, blc, breakpoints, signal_leq
from siglim.boolfn import and_fn, identity_fn, or_fn
from siglim.conditions import _distinct_members, _grid_candidates, _grid_times
from siglim.inertial import _dwell_grid
from siglim.props import _feasible_aic, _gen_overlap_params


def grid_times_oracle(base, deltas, refined):
    """The candidate grid on Fractions: time 0, the breakpoints, their
    shifts by every delta both ways, midpoints when refined; first 64."""
    times = set(base) | {F(0)}
    for d in deltas | {-d for d in deltas}:
        times |= {t + d for t in base}
    grid = sorted(times)
    if refined and len(grid) >= 2:
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        grid = sorted(set(grid) | set(mids))
    return grid[:64]


def grid_candidates_oracle(blk, x, deltas, max_nodes, refined):
    """Steps at each grid time, then pulses on each pair of grid times,
    until more than 4 * max_nodes candidates were made."""
    grid = grid_times_oracle(breakpoints(*blk, x), deltas, refined)
    out = [s for t in grid for s in (Signal(0, [(t, 1)]), Signal(1, [(t, 0)]))]
    for t1, t2 in combinations(grid, 2):
        out += [Signal(0, [(t1, 1), (t2, 0)]), Signal(1, [(t1, 0), (t2, 1)])]
        if len(out) > 4 * max_nodes:
            break
    return out


def dwell_grid_oracle(lo, hi, a):
    """The dwell grid on Fractions: every envelope breakpoint, then the
    earliest of their dwell shifts, 96 points in all at most."""
    base = set(breakpoints(lo, hi))
    shifts = {i * a.delta_r + j * a.delta_f for i in range(4) for j in range(4) if 0 < i + j <= 3}
    extras: set[F] = set()
    for s in shifts:
        extras |= {t + s for t in base}
    extras -= base
    room = max(0, 96 - len(base))
    return sorted(base | set(sorted(extras)[:room]))


def _signal(rng, n, dens):
    times = sorted({F(rng.randint(-12, 36), rng.choice(dens)) for _ in range(n)})
    initial = rng.randint(0, 1)
    return Signal(initial, [(t, initial ^ (k & 1) ^ 1) for k, t in enumerate(times)])


def _time(rng, dens, hi=3):
    q = rng.choice(dens)
    return F(rng.randint(0, hi * q), q)


@pytest.mark.parametrize("seed", range(40))
def test_grid_times_on_ticks_match_the_fraction_grid(seed):
    rng = random.Random(f"grid:{seed}")
    # the signals share powers of two; the deltas bring in other primes
    signals = [_signal(rng, rng.randint(0, 14), (1, 2, 4)) for _ in range(rng.randint(1, 3))]
    deltas = {_time(rng, (1, 3, 5, 7)) for _ in range(rng.randint(0, 5))}
    base = breakpoints(*signals)
    for refined in (False, True):
        scale, ticks = _grid_times(signals, deltas, refined)
        assert [F(t, scale) for t in ticks] == grid_times_oracle(base, deltas, refined)


def test_refined_grid_midpoints_fall_between_coarse_ticks():
    # neighbours one tick apart on the coarse lattice: their midpoints are
    # odd on the doubled one
    signals = [Signal(0, [(F(1), 1), (F(2), 0), (F(7, 3), 1)])]
    deltas = {F(1, 5)}
    scale, ticks = _grid_times(signals, deltas, True)
    coarse, _ = _grid_times(signals, deltas, False)
    assert scale == 2 * coarse
    assert any(t % 2 for t in ticks)
    assert [F(t, scale) for t in ticks] == grid_times_oracle(breakpoints(*signals), deltas, True)


@pytest.mark.parametrize("seed", range(40))
def test_dwell_grid_on_ticks_matches_the_fraction_grid(seed):
    rng = random.Random(f"dwell:{seed}")
    # up to 60 breakpoints against 9 shifts each, so the 96-point cap binds
    lo, hi = (_signal(rng, rng.randint(0, 30), (1, 2, 4, 8)) for _ in range(2))
    a = AicParams(_time(rng, (1, 3, 7)), _time(rng, (1, 5, 9)))
    assert _dwell_grid(lo, hi, a) == dwell_grid_oracle(lo, hi, a)


def _prefilter_case(seed):
    """(model, blk, x, deltas): a Blc or Bailc stage, its input block, an
    output and the search's deltas."""
    rng = random.Random(f"prefilter:{seed}")
    m = rng.randint(1, 2)
    f, g = rng.choice([(and_fn(m), or_fn(m)), (and_fn(m), and_fn(m)), (or_fn(m), or_fn(m))])
    if m == 1:
        f, g = rng.choice([(f, g), (identity_fn(), identity_fn())])
    p = _gen_overlap_params(rng)
    model = bailc(f, g, p, _feasible_aic(p, rng)) if rng.random() < 0.5 else blc(f, g, p)
    # few input edges, so that steps and pulses can lie between the envelopes
    blk = tuple(_signal(rng, rng.randint(0, 2), (1, 2, 3, 4)) for _ in range(m))
    x = _signal(rng, rng.randint(0, 4), (1, 2, 3, 4))
    return model, blk, x, model.deltas() | {_time(rng, (1, 2, 5))}


# (max_nodes, cap): the last two cut the stream at 4 * max_nodes, and the
# last cap stops the member list early
PREFILTER_BUDGETS = ((2000, 400), (160, 160), (20, 13), (3, 2))


@pytest.mark.parametrize("seed", range(30))
def test_envelope_prefilter_keeps_every_member(seed):
    model, blk, x, deltas = _prefilter_case(seed)
    lo, hi = env = model.envelopes(blk)
    admits = model.admits(blk)
    found = _distinct_members(model.sample(blk, 3, seed), admits)
    for refined in (False, True):
        for max_nodes, cap in PREFILTER_BUDGETS:
            budget = SearchBudget(max_nodes=max_nodes)
            full = list(_grid_candidates(blk, x, None, deltas, budget, refined))
            assert full == grid_candidates_oracle(blk, x, deltas, max_nodes, refined)
            kept = list(_grid_candidates(blk, x, env, deltas, budget, refined))
            assert kept == [c for c in full if signal_leq(lo, c) and signal_leq(c, hi)]
            for start in ((), found):
                assert (_distinct_members(kept, admits, cap, start)
                        == _distinct_members(full, admits, cap, start))


def test_prefilter_cases_reach_the_cut_and_the_cap():
    cut = capped = 0
    for seed in range(30):
        model, blk, x, deltas = _prefilter_case(seed)
        admits = model.admits(blk)
        _, grid = _grid_times((*blk, x), deltas, False)
        n = len(grid)
        for max_nodes, cap in PREFILTER_BUDGETS:
            full = list(_grid_candidates(blk, x, None, deltas, SearchBudget(max_nodes), False))
            cut += len(full) < n * (n + 1)
            capped += len(_distinct_members(full, admits, cap)) == cap
    assert cut > 10 and capped > 10, (cut, capped)
