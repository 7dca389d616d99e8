"""Fixed delays and inertial dwell conditions.

A fixed condition forces the output to be a delayed pointwise function of the
inputs.  An absolute inertial condition constrains the output alone: after a
rise it must dwell at 1 strictly longer than delta_r before switching again,
and symmetrically after a fall.  Combining the inertial constraint with a
bounded condition gives the bounded-plus-inertial models, whose emptiness has
a closed criterion.  Whether some signal between two envelopes respects the
dwells is decided exactly by one sweep over a chain of difference
constraints, with no search budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Callable

from .boolfn import BoolFn, apply_fn
from .bounded import Blc, BlcParams, _window_samples, blc_compose, blc_valid
from .conditions import LimitCondition, SignalSet, _rng
from .errors import EmptyBailc, InvalidBlc, NegativeDelay, PreconditionViolated
from .signals import (
    Bit,
    MultiSignal,
    Signal,
    Time,
    _box_images,
    _image,
    _on_lattice,
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


class _DwellSweep:
    """The signals between two envelopes that respect the dwell times a.

    Where lo is 1 the output is forced to 1, and where hi is 0 to 0.  If
    any member exists, one exists that keeps its value between forced pieces
    of one value and switches once between pieces of opposite values, since
    dropping a pair of edges only merges runs.  Its edges form a chain of
    difference constraints: edge j lies in the span from the end of one
    forced piece to the start of the next, and more than a dwell after edge
    j - 1.  On the lattice of the envelopes and dwells refined by (edges +
    1), that strict bound is one extra tick, and a forward and a backward
    pass give each edge its earliest and latest tick exactly; early is None
    when no member exists.  Runs before the first edge and after the last
    are unbounded, as in `aic_violation`.
    """

    def __init__(self, lo: Signal, hi: Signal, a: AicParams) -> None:
        self.lo, self.hi = lo, hi
        self.early: list[int] | None = None
        self.rigid = True  # no edge can move, so every draw is the seed-0 one
        if not signal_leq(lo, hi):
            return
        scale = lcm(lo.scale, hi.scale, a.delta_r.denominator, a.delta_f.denominator)
        ticks = _ticks((lo, hi), scale)
        envs = [_on_lattice(s, scale) for s in (lo, hi)]
        spans: list[tuple[int, int]] = []
        first = end = None
        for start, stop in zip([None, *ticks], [*ticks, None]):
            lv, hv = (v if start is None else v ^ (bisect_right(ts, start) & 1) for v, ts in envs)
            if lv != hv:  # free piece
                continue
            if first is None:
                first = lv
            elif lv != first ^ (len(spans) & 1):
                spans.append((end, start))
            end = stop
        n = len(spans) + 1
        # with no forced piece, the constant 0 is a member
        self.first, self.scale = first or 0, scale * n
        # limits[v]: the longest run of the value v that breaks its dwell
        self.limits = (a.delta_f.numerator * self.scale // a.delta_f.denominator,
                       a.delta_r.numerator * self.scale // a.delta_r.denominator)
        early: list[int] = []
        for j, (lo_t, hi_t) in enumerate(spans):
            t = self._after(early, self.first ^ j & 1, lo_t * n)
            if t > hi_t * n:
                return
            early.append(t)
        late = [hi_t * n for _, hi_t in spans]
        for j in range(len(late) - 2, -1, -1):
            late[j] = min(late[j], late[j + 1] - self.limits[self.first ^ (j + 1) & 1] - 1)
        self.early, self.late = early, late
        self.rigid = early == late

    def _after(self, edges: list[int], v: Bit, t: int) -> int:
        """The first tick from t on that the dwell allows the next edge
        after edges, whose last starts a run of the value v."""
        return max(t, edges[-1] + self.limits[v] + 1) if edges else t

    def draw(self, seed: int) -> Signal | None:
        """A member with every edge at its earliest tick for seed 0, and with
        each edge drawn between the first tick its predecessor allows and
        its latest tick otherwise; None when there is no member."""
        if self.early is None:
            return None
        edges = self.early
        if seed and not self.rigid:
            rng, edges = _rng(seed, "dwell"), []
            for j, (t, late) in enumerate(zip(self.early, self.late)):
                edges.append(rng.randint(self._after(edges, self.first ^ j & 1, t), late))
        return Signal._on(self.first, self.scale, tuple(edges))

    def track(self, s: Signal) -> Signal | None:
        """s with each edge that comes too early for the dwell delayed to
        the first tick the dwell allows, if that lies between lo and hi."""
        if self.early is None:
            return None
        v, ticks = _on_lattice(s, self.scale)
        edges: list[int] = []
        for t in ticks:
            edges.append(self._after(edges, v ^ len(edges) & 1, t))
        x = Signal._on(v, self.scale, tuple(edges))
        return x if signal_between(self.lo, x, self.hi) else None


def search_between(lo: Signal, hi: Signal, a: AicParams, seed: int = 0) -> Signal | None:
    """A signal between two envelopes that respects the dwell times a, or
    None when there is none.

    The answer is exact and needs no budget: one `_DwellSweep` decides it.
    Seed 0 puts every edge at its earliest tick; other seeds draw each edge
    inside its span.
    """
    return _DwellSweep(lo, hi, a).draw(seed)


@dataclass(frozen=True, eq=False)
class Bailc(Blc):
    """Bounded limit condition intersected with the inertial dwell constraint.

    Membership reads the dwell first, on x alone, so an output that breaks
    it costs no work on the input; the envelopes wait for one that keeps it.
    Witnesses beyond the window samples are lo and hi with their early
    edges delayed for the dwell, then seeded draws of one `_DwellSweep`
    over the envelopes (one draw when the sweep is rigid), so a sample
    call that finds none has proved that no output is admitted.
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
        a, env = self.aic, None

        def admits(x: Signal) -> Bit:
            nonlocal env
            if not aic_contains(x, a):
                return 0
            lo, hi = env = env or self.envelopes(u)
            return int(signal_between(lo, x, hi))

        return admits

    def _admits_between(self, lo: Signal, hi: Signal) -> Callable[[Signal], Bit]:
        return lambda x: int(aic_contains(x, self.aic) and signal_between(lo, x, hi))

    def _sample_between(self, lo: Signal, hi: Signal, count: int, seed: int) -> list[Signal]:
        out = dict.fromkeys(x for x in _window_samples(lo, hi, count + 2, seed)
                            if aic_contains(x, self.aic))
        if len(out) < count:
            sweep = _DwellSweep(lo, hi, self.aic)
            draws = (sweep.draw(seed + s) for s in range(1 if sweep.rigid else count + 4))
            for x in chain((sweep.track(lo), sweep.track(hi)), draws):
                if x is not None:
                    out[x] = None
                if len(out) >= count:
                    break
        if not out:
            raise EmptyBailc("the dwell sweep proved that no output is admitted for this input")
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
