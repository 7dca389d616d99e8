"""Fixed delays and inertial dwell conditions.

A fixed condition forces the output to be a delayed pointwise function of the
inputs.  An absolute inertial condition constrains the output alone: after a
rise it must dwell at 1 strictly longer than delta_r before switching again,
and symmetrically after a fall.  Combining the inertial constraint with a
bounded condition gives the bounded-plus-inertial models, whose emptiness has
a closed criterion checked here against an explicit witness search.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

from .boolfn import BoolFn, apply_fn
from .bounded import Blc, BlcParams, _window_samples, blc_compose, blc_valid
from .conditions import DEFAULT_BUDGET, LimitCondition, SearchBudget, SignalSet, _rng
from .errors import EmptyBailc, InvalidBlc, NegativeDelay, PreconditionViolated
from .signals import (
    Bit,
    MultiSignal,
    Signal,
    Time,
    _box_images,
    _image,
    _ticks,
    as_time,
    make_signal,
    signal_between,
    signal_leq,
    translate,
)


@dataclass(frozen=True, eq=False)
class Flc(LimitCondition):
    """Fixed limit condition: the output is exactly fn of the inputs delay ago."""

    delay: Time
    kind = "flc"
    deterministic = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.f != self.g:
            raise PreconditionViolated("a fixed delay has one function as both bounds")
        if self.delay < 0:
            raise NegativeDelay(f"delay must be non-negative, got {self.delay}")

    @property
    def fn(self) -> BoolFn:
        return self.f

    def _output(self, u: MultiSignal) -> Signal:
        """f of the inputs delay ago, in one walk on the shifted lattice.

        A shift commutes with a pointwise function, so this is
        `apply_fn(f, translate_all(u, delay))` as a function of time; both
        are canonical signals, so they are equal as values too.  The walk
        moves each input tick by the delay as it reads it, so no input and
        no image is copied to shift it.  A table that depends on at most one
        input needs no walk: its image is shifted once.
        """
        if self.f._one_input is None:
            return _image(self.f.table, u, self.delay)
        return translate(apply_fn(self.f, u), self.delay)

    def envelopes(self, u: MultiSignal) -> tuple[Signal, Signal]:
        y = self._output(u)
        return y, y

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal]:
        return _box_images(self.f.table, self.f.table, lo, hi, self.delay)

    def deltas(self) -> set[Time]:
        return {self.delay}

    def _admits(self, u: MultiSignal) -> Callable[[Signal], Bit]:
        y = self._output(u)
        return lambda x: int(x == y)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        return [self._output(u)]


def flc(h: BoolFn, d: Time | int) -> Flc:
    """Fixed limit condition: the output is exactly h of the inputs d ago."""
    return Flc(h, h, as_time(d))


@dataclass(frozen=True)
class AicParams:
    """Minimum dwell after a rise (delta_r) and after a fall (delta_f)."""

    delta_r: Time
    delta_f: Time

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_r", as_time(self.delta_r))
        object.__setattr__(self, "delta_f", as_time(self.delta_f))
        if self.delta_r < 0 or self.delta_f < 0:
            raise NegativeDelay("dwell times must be non-negative")


aic_params = AicParams


def aic_violation(x: Signal, a: AicParams) -> Time | None:
    """Time of the first edge that ends a run no longer than its dwell time.

    Only the gap to the next transition matters, so a final edge always
    passes; a pulse of width exactly delta fails.
    """
    s, ticks = x.scale, x.ticks
    # the longest violating gap in ticks, indexed by the run's value
    limit = (a.delta_f.numerator * s // a.delta_f.denominator,
             a.delta_r.numerator * s // a.delta_r.denominator)
    v = 1 - x.initial
    for t1, t2 in zip(ticks, ticks[1:]):
        if t2 - t1 <= limit[v]:
            return Fraction(t2, s)
        v ^= 1
    return None


def aic_contains(x: Signal, a: AicParams) -> Bit:
    """1 iff every value of x persists strictly longer than its dwell time."""
    return int(aic_violation(x, a) is None)


@dataclass(frozen=True)
class AicSet(SignalSet):
    """The set of signals whose runs respect the dwell times a."""

    a: AicParams

    def contains(self, x: Signal) -> Bit:
        return aic_contains(x, self.a)

    def sample(self, count: int = 3, seed: int = 0) -> list[Signal]:
        rng = _rng(seed, "aic")
        floor = max(self.a.delta_r, self.a.delta_f)
        out: list[Signal] = []
        for _ in range(count):
            t = Fraction(rng.randint(-8, 8), 2)
            pairs = []
            v = rng.randint(0, 1)
            for _ in range(rng.randint(0, 4)):
                v = 1 - v
                pairs.append((t, v))
                t = t + floor + Fraction(rng.randint(1, 8), 4)
            x = make_signal(pairs[0][1] ^ 1 if pairs else rng.randint(0, 1), pairs)
            out.append(x)
        return out

    def between(self, lo: Signal, hi: Signal, seed: int) -> Signal | None:
        return search_between(lo, hi, self.a, seed=seed)


def aic_set(a: AicParams) -> AicSet:
    """The set of signals whose runs respect the dwell times."""
    return AicSet(a)


def bailc_nonempty(f: BoolFn, g: BoolFn, p: BlcParams, a: AicParams) -> Bit:
    """Closed emptiness criterion for the bounded-plus-inertial combination.

    With separated bound constants every input admits a constant witness;
    otherwise the dwell budget must fit inside the combined window widths and
    neither look-back may fully precede the other.
    """
    if not blc_valid(f, g, p):
        raise InvalidBlc("criterion is stated for valid window parameters")
    if max(f.table) <= min(g.table):
        return 1
    return int(
        p.d_r >= p.d_f - p.m_f
        and p.d_f >= p.d_r - p.m_r
        and a.delta_r + a.delta_f <= p.m_r + p.m_f
    )


def _dwell_dfs(
    scale: int, grid: list[int], bounds: list[tuple[Bit, Bit]], limits: tuple[int, int],
    max_nodes: int, rng: random.Random | None,
) -> Signal | None:
    """Depth-first construction of a signal between two envelopes respecting
    dwells, on integer ticks of the lattice 1/scale.

    Cells are the pieces cut by the non-empty grid of ticks; edges may only
    sit on grid points, which include every envelope breakpoint, so the
    envelopes are constant per cell, and bounds holds their values on each
    cell.  limits[v] is the dwell, in ticks, that a run of the value v must
    exceed before the next edge: delta_f for 0, delta_r for 1.  At most
    max_nodes nodes are visited.  Free cells prefer keeping the current value, which
    finds witnesses with the fewest switches first; rng, when given, is
    drawn once per inner node and reverses that order a quarter of the time.
    """
    n = len(bounds)
    left = max_nodes
    edges: list[int] = []

    def rec(idx: int, value: Bit, last_edge: int | None) -> Signal | None:
        nonlocal left
        left -= 1
        if left < 0:
            return None
        if idx == n:
            return Signal._on(value ^ (len(edges) & 1), scale, tuple(edges))
        choices = [value, 1 - value] if idx else [0, 1]
        if rng is not None and rng.random() < 0.25:
            choices.reverse()
        lo_v, hi_v = bounds[idx]
        for v in choices:
            if v < lo_v or v > hi_v:
                continue
            if idx == 0 or v == value:
                out = rec(idx + 1, v, last_edge)
            else:
                t = grid[idx - 1]
                if last_edge is not None and t - last_edge <= limits[value]:
                    continue
                edges.append(t)
                out = rec(idx + 1, v, t)
                if out is None:
                    edges.pop()
            if out is not None:
                return out
        return None

    return rec(0, 0, None)


def _dwell_grid(lo: Signal, hi: Signal, a: AicParams) -> tuple[int, list[int]]:
    """(scale, ticks): the envelope breakpoints and the earliest of their
    dwell shifts, 96 points in all at most, as ascending ticks on the
    lattice 1/scale, which holds both envelopes and both dwells."""
    # envelope breakpoints are mandatory: cells must see lo and hi constant;
    # only the dwell shifts may be capped
    scale = lcm(lo.scale, hi.scale, a.delta_r.denominator, a.delta_f.denominator)
    r, f = (d.numerator * (scale // d.denominator) for d in (a.delta_r, a.delta_f))
    base = _ticks((lo, hi), scale)
    extras: set[int] = set()
    for s in {i * r + j * f for i in range(4) for j in range(4) if 0 < i + j <= 3}:
        extras.update([t + s for t in base])
    extras.difference_update(base)
    room = max(0, 96 - len(base))
    return scale, sorted(base + sorted(extras)[:room])


def _dwell_draws(
    lo: Signal, hi: Signal, a: AicParams, budget: SearchBudget | None = None,
) -> Callable[[int], Signal | None]:
    """Seeded draws of the dwell search between two envelopes.

    The per-envelope work is done here, once: the order check, the grid of
    envelope breakpoints plus dwell shifts as ticks, the dwells in ticks,
    and the envelopes' values on its cells, read by bisecting each
    envelope's ticks at each grid point.  Each draw `draw(seed)` runs one
    depth-first pass on them within budget.max_nodes, with int comparisons
    only, taking choices in order for seed 0 and shuffled by the seed
    otherwise, and checks its witness.
    """
    max_nodes = (budget or DEFAULT_BUDGET).max_nodes
    if not signal_leq(lo, hi):
        return lambda seed: None
    scale, grid = _dwell_grid(lo, hi, a)
    limits = (a.delta_f.numerator * scale // a.delta_f.denominator,
              a.delta_r.numerator * scale // a.delta_r.denominator)
    # one cell before the first grid point, then one from each point on
    envs = []
    for s in (lo, hi):
        k = scale // s.scale
        ticks = [t * k for t in s.ticks]
        envs.append([s.initial] + [s.initial ^ (bisect_right(ticks, t) & 1) for t in grid])
    bounds = list(zip(*envs))

    def draw(seed: int) -> Signal | None:
        if grid:
            rng = _rng(seed, "dwell") if seed else None
            x = _dwell_dfs(scale, grid, bounds, limits, max_nodes, rng)
        else:  # constant envelopes: the constant lo is a witness
            x = Signal(lo.initial)
        if x is None or signal_between(lo, x, hi) and aic_contains(x, a):
            return x
        raise AssertionError("witness construction produced an invalid signal")

    return draw


def search_between(
    lo: Signal, hi: Signal, a: AicParams,
    budget: SearchBudget | None = None, seed: int = 0,
) -> Signal | None:
    """Find a signal between two envelopes that respects the dwell times.

    One depth-first pass places edges on the grid of envelope breakpoints
    plus dwell shifts, within budget.max_nodes.  A None is therefore not a
    proof: the grid or the node budget may have cut the search short.  This
    is one draw of `_dwell_draws`, which builds the grid for the envelope
    pair; callers drawing several witnesses between the same envelopes
    (`Bailc` sampling) build it once and draw from it.
    """
    return _dwell_draws(lo, hi, a, budget)(seed)


@dataclass(frozen=True, eq=False)
class Bailc(Blc):
    """Bounded limit condition intersected with the inertial dwell constraint.

    Witnesses beyond the window samples come from seeded draws of the dwell
    search under the default search budget; the per-input work of those
    draws (the envelopes, the dwell grid and the envelopes' values on it) is
    done once per `sample` call.
    """

    aic: AicParams
    kind = "bailc"
    deterministic = False  # the one bounded output may break the dwell

    def __post_init__(self) -> None:
        super().__post_init__()
        if not bailc_nonempty(self.f, self.g, self.params, self.aic):
            raise EmptyBailc("dwell times exceed the combined window widths")

    def deltas(self) -> set[Time]:
        return super().deltas() | {self.aic.delta_r, self.aic.delta_f}

    def _admits(self, u: MultiSignal) -> Callable[[Signal], Bit]:
        within, a = super()._admits(u), self.aic
        return lambda x: within(x) & aic_contains(x, a)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        lo, hi = self.envelopes(u)
        out = dict.fromkeys(x for x in _window_samples(lo, hi, count + 2, seed)
                            if aic_contains(x, self.aic))
        if len(out) < count:
            draw = _dwell_draws(lo, hi, self.aic)
            for s in range(count + 4):
                x = draw(seed + s)
                if x is None:
                    break
                out[x] = None
                if len(out) >= count:
                    break
        if not out:
            raise EmptyBailc("no inertial witness found for this input within budget")
        return list(out)[:count]


def bailc(f: BoolFn, g: BoolFn, p: BlcParams, a: AicParams) -> Bailc:
    """Bounded limit condition intersected with the inertial dwell constraint."""
    return Bailc(f, g, p, a)


def bailc_compose(
    f: BoolFn, g: BoolFn, p: BlcParams, a: AicParams,
    inner: list[tuple[BoolFn, BoolFn]], p_inner: BlcParams, a_inner: AicParams,
) -> Bailc:
    """Summed-parameter form of a chain of bounded-plus-inertial stages.

    The bounded parts compose with summed parameters and the outer dwell is
    kept; a_inner is dropped.  The form always contains the chain: serial
    connection is monotone in its inner stages (law 3.12), each inner stage
    lies inside its bounded part, bailc(a) = aic(a) meet blc, and the bounded
    chain equals its summed form (law 4.8).  It equals the chain when a_inner
    is AicParams(0, 0), since every signal then meets the inner dwell.  With
    any other inner dwell it can admit pairs that no stagewise execution
    produces, even when that dwell is shorter than the outer bridging widths
    (law 6.6 fails at seed 42 cases 129 and 386, seed 2 case 84); `serial`
    and `closed_form` therefore use it only for zero inner dwell.
    """
    if not bailc_nonempty(f, g, p, a):
        raise EmptyBailc("outer stage is empty")
    for fi, gi in inner:
        if not bailc_nonempty(fi, gi, p_inner, a_inner):
            raise EmptyBailc("an inner stage is empty")
    composed = blc_compose(f, g, p, inner, p_inner)
    return bailc(composed.f, composed.g, composed.params, a)
