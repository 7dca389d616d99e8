"""Bounded limit conditions: outputs pinned between two sliding-window envelopes.

The lower envelope demands 1 wherever the lower bound function held over a
whole look-back window; the upper envelope allows 1 wherever the upper bound
function held somewhere in its window.  Everything here is exact signal
algebra, so membership, determinism, inclusion and composition are decided
without search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable

from .boolfn import BoolFn, apply_fn, apply_pair, fn_compose, fn_leq, fn_props, is_monotone
from .conditions import LimitCondition, _rng
from .errors import InvalidBlc, MonotonyViolated, DistributivityUnverified, PreconditionViolated
from .signals import (
    Bit,
    MultiSignal,
    Signal,
    Time,
    _box_images,
    _clamp_base,
    _shrink,
    _splice,
    as_time,
    constant,
    first_one_time,
    make_signal,
    pulse,
    signal_between,
    window_all,
    window_any,
)


@dataclass(frozen=True)
class BlcParams:
    """Window widths and depths (m_r, d_r) for rises and (m_f, d_f) for falls."""

    m_r: Time
    d_r: Time
    m_f: Time
    d_f: Time

    def __post_init__(self) -> None:
        for name in ("m_r", "d_r", "m_f", "d_f"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if not (0 <= self.m_r <= self.d_r and 0 <= self.m_f <= self.d_f):
            raise PreconditionViolated("window parameters need 0 <= m <= d on both sides")

    def __add__(self, other: "BlcParams") -> "BlcParams":
        return BlcParams(self.m_r + other.m_r, self.d_r + other.d_r,
                         self.m_f + other.m_f, self.d_f + other.d_f)


params = BlcParams


def lower_envelope(f: BoolFn, u: MultiSignal, p: BlcParams) -> Signal:
    """Least admissible output: 1 where f held throughout [t-d_r, t-d_r+m_r]."""
    return window_all(apply_fn(f, u), p.d_r, p.m_r)


def upper_envelope(g: BoolFn, u: MultiSignal, p: BlcParams) -> Signal:
    """Greatest admissible output: 1 where g held somewhere in [t-d_f, t-d_f+m_f]."""
    return window_any(apply_fn(g, u), p.d_f, p.m_f)


def envelopes(f: BoolFn, g: BoolFn, p: BlcParams, u: MultiSignal) -> tuple[Signal, Signal]:
    """(lower_envelope(f, u, p), upper_envelope(g, u, p)), with the images
    of f and g taken in one walk over u and p's windows, checked when p was
    built, applied by one `_shrink` pass each."""
    fu, gu = apply_pair(f, g, u)
    return _shrink(fu, p.d_r, p.m_r, 1), _shrink(gu, p.d_f, p.m_f, 0)


def blc_valid(f: BoolFn, g: BoolFn, p: BlcParams) -> Bit:
    """1 iff the envelope pair is ordered for every input.

    Either the windows overlap enough (neither look-back fully precedes the
    other) or the bound functions are separated by constants.
    """
    if not fn_leq(f, g):
        raise PreconditionViolated("need f <= g pointwise")
    overlap = p.d_r - p.m_r <= p.d_f and p.d_f - p.m_f <= p.d_r
    separated = max(f.table) <= min(g.table)
    return int(overlap or separated)


@dataclass(frozen=True, eq=False)
class Blc(LimitCondition):
    """Bounded limit condition with membership lower <= x <= upper, exactly."""

    params: BlcParams
    kind = "blc"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not blc_valid(self.f, self.g, self.params):
            raise InvalidBlc(
                "neither the window-overlap inequalities nor the constant-separation "
                "condition holds; the envelopes would cross"
            )

    @cached_property
    def deterministic(self) -> bool:
        return blc_is_deterministic(self.f, self.g, self.params)[0] == 1

    def envelopes(self, u: MultiSignal) -> tuple[Signal, Signal]:
        return envelopes(self.f, self.g, self.params, u)

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal]:
        least, most = _box_images(self.f.table, self.g.table, lo, hi)
        p = self.params
        return _shrink(least, p.d_r, p.m_r, 1), _shrink(most, p.d_f, p.m_f, 0)

    def deltas(self) -> set[Time]:
        p = self.params
        return {p.d_r, p.d_r - p.m_r, p.d_f, p.d_f - p.m_f}

    def _admits(self, u: MultiSignal) -> Callable[[Signal], Bit]:
        return self._admits_between(*self.envelopes(u))

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        return self._sample_between(*self.envelopes(u), count, seed)

    # the hooks above, for an input whose envelopes lo and hi are in hand
    def _admits_between(self, lo: Signal, hi: Signal) -> Callable[[Signal], Bit]:
        return lambda x: int(signal_between(lo, x, hi))

    def _sample_between(self, lo: Signal, hi: Signal, count: int, seed: int) -> list[Signal]:
        return _window_samples(lo, hi, count, seed)


def _window_samples(lo: Signal, hi: Signal, count: int, seed: int) -> list[Signal]:
    """The first max(count, 1) distinct of lo, hi and count seeded signals
    clamped between them.

    Each seeded signal x switches at up to 4 of the envelopes' merged
    transition times (time 0 when there are none), dropping the picks that
    repeat its current value.  Its clamp `lo | (x & hi)` is lo where x is 0
    and `lo | hi` where x is 1, so it is spliced from slices of those two,
    cut at x's edges.  Draws stop once the answer is in hand (the rng is
    the call's own), and the merged times and `lo | hi` are built on the
    first draw, for all of them.
    """
    need = max(count, 1)
    out = dict.fromkeys((lo, hi))
    if len(out) < need:
        rng = _rng(seed, "blc")
        scale, ticks, sources = _clamp_base(lo, hi)
        ticks = ticks or [0]
        n = len(ticks)
        for _ in range(count):
            picks = sorted(rng.sample(range(n), rng.randint(0, min(4, n))))
            v = initial = rng.randint(0, 1)
            edges = []
            for k in picks:
                if rng.randint(0, 1) != v:
                    edges.append(ticks[k])
                    v ^= 1
            out[_splice(initial, edges, sources, scale)] = None
            if len(out) >= need:
                break
    return list(out)[:need]


def blc(f: BoolFn, g: BoolFn, p: BlcParams) -> Blc:
    """Bounded limit condition with bound pair (f, g) and window parameters p."""
    return Blc(f, g, p)


def blc_is_deterministic(f: BoolFn, g: BoolFn, p: BlcParams) -> tuple[Bit, Time | None]:
    """(flag, fixed delay): the envelopes coincide for every input iff flag.

    This happens exactly when the bounds are one constant function, or one
    non-constant function with zero-width windows; in the latter case the
    model is a pure delay whose amount is returned.
    """
    if not blc_valid(f, g, p):
        raise InvalidBlc("determinism is only defined for valid parameter tuples")
    if f.table != g.table:
        return 0, None
    if min(f.table) == max(f.table):
        return 1, None
    if p.m_r == 0 and p.m_f == 0:
        # validity forces the two depths to agree here
        return 1, p.d_r
    return 0, None


def blc_included(
    f: BoolFn, g: BoolFn, p: BlcParams,
    f2: BoolFn, g2: BoolFn, p2: BlcParams,
) -> Bit:
    """1 iff every admissible output of (f, g, p) is admissible for (f2, g2, p2).

    Requires the bound functions to nest pointwise and, on each side, either a
    constant separation or the window chain of the tighter model to sit inside
    the looser one.
    """
    for pair in ((f, g), (f2, g2)):
        if not fn_leq(*pair):
            raise PreconditionViolated("need f <= g pointwise in both models")
    fn_nested = all(
        f2(*a) <= f(*a) and g(*a) <= g2(*a) for a in f.inputs()
    )
    rise_ok = max(f2.table) <= min(f.table) or (
        p2.d_r - p2.m_r <= p.d_r - p.m_r and p.d_r <= p2.d_r
    )
    fall_ok = max(g.table) <= min(g2.table) or (
        p2.d_f - p2.m_f <= p.d_f - p.m_f and p.d_f <= p2.d_f
    )
    return int(fn_nested and rise_ok and fall_ok)


def blc_symmetric_usual(f: BoolFn, g: BoolFn) -> Bit:
    """1 iff membership is invariant under every permutation of the inputs."""
    props = fn_props(f, g)
    return props.usual_symmetric


def blc_symmetric_rf(f: BoolFn, g: BoolFn, p: BlcParams) -> Bit:
    """1 iff complementing inputs and output preserves membership: equal
    windows on both sides and complement-dual bound functions."""
    props = fn_props(f, g)
    return int(p.d_r == p.d_f and p.m_r == p.m_f and props.rf_dual == 1)


# --- input families used by the behavioural checks --------------------------

def pattern_input(m: int, a0: tuple[Bit, ...], a1: tuple[Bit, ...], s: Signal) -> MultiSignal:
    """Inputs that hold a1 where s is 1 and a0 elsewhere, one signal per coordinate."""
    out = []
    for p_ in range(m):
        if a0[p_] == a1[p_]:
            out.append(constant(a0[p_]))
        elif a1[p_] == 1:
            out.append(s)
        else:
            out.append(~s)
    return tuple(out)


def probe_inputs(f: BoolFn, g: BoolFn, p: BlcParams) -> list[MultiSignal]:
    """Constants plus pulse patterns that expose any envelope disagreement."""
    m = f.arity
    out: list[MultiSignal] = [tuple(constant(b) for b in a) for a in f.inputs()]
    for h in (f, g):
        ones = [a for a in h.inputs() if h(*a) == 1]
        zeros = [a for a in h.inputs() if h(*a) == 0]
        if ones and zeros:
            a1, a0 = ones[0], zeros[0]
            for w in (p.m_r + 1, p.m_r + p.m_f + 1):
                out.append(pattern_input(m, a0, a1, pulse(0, w)))
            break
    return out


def envelope_violation(f: BoolFn, g: BoolFn, p: BlcParams) -> tuple[MultiSignal, Time] | None:
    """Search pulse and step inputs for a point where lower exceeds upper.

    Returns (input, witness time) or None.  For invalid parameter tuples with
    max f > min g a violating input always exists among these patterns.
    """
    m = f.arity
    ones = [a for a in f.inputs() if f(*a) == 1]
    zeros = [a for a in g.inputs() if g(*a) == 0]
    widths = [p.m_r + Fraction(1, 2), p.m_r + 1, p.m_r + p.m_f + 1]
    gap = p.d_r - p.m_r - p.d_f
    if gap > 0:
        widths.insert(0, p.m_r + gap / 2)
    shapes = [pulse(0, w) for w in widths if w > 0]
    shapes.append(make_signal(0, [(Fraction(0), 1)]))
    for a1 in ones:
        for a0 in zeros:
            for s in shapes:
                u = pattern_input(m, a0, a1, s)
                lo, hi = envelopes(f, g, p, u)
                bad = lo & ~hi
                t = first_one_time(bad)
                if t is not None:
                    return u, t
    return None


# --- closed-form serial composition -----------------------------------------

def _meet_homomorphic(table: tuple[Bit, ...]) -> bool:
    """h(a AND b) == h(a) AND h(b) for all arguments a, b.

    Such an h is constant 0 or the AND of the inputs in some set c: its ones
    are exactly the arguments above the meet c of all its ones.
    """
    ones = [a for a, v in enumerate(table) if v]
    if not ones:
        return True
    c = reduce(operator.and_, ones)
    return all(v == (a & c == c) for a, v in enumerate(table))


def _distributes(h: BoolFn, windows: list[tuple[Time, Time]], mode: str) -> bool:
    """Exact check that h commutes with the window operator of mode.

    Point windows commute with every function.  Once a window has positive
    width, h commutes with the all-window iff h is a meet-homomorphism
    (constant 0 or an AND of some inputs), and with the any-window iff it is
    a join-homomorphism (constant 1 or an OR of some inputs); see Heijmans,
    Morphological Image Operators, 1994.  A join-homomorphism is the dual,
    not h(not a), of a meet-homomorphism.
    """
    if all(m_ == 0 for _, m_ in windows):
        return True
    if mode == "any":
        return _meet_homomorphic(tuple(1 - v for v in reversed(h.table)))
    return _meet_homomorphic(h.table)


def blc_compose(
    f: BoolFn, g: BoolFn, p: BlcParams,
    inner: list[tuple[BoolFn, BoolFn]], p_inner: BlcParams,
) -> Blc:
    """Chain of bounded conditions with one shared inner parameter tuple.

    Valid when the outer bounds are monotone and commute with the windows in
    play; the result is again a bounded condition whose parameters are the
    component-wise sums.
    """
    if len(inner) != f.arity:
        raise PreconditionViolated("need one inner bound pair per outer input")
    if not (is_monotone(f) and is_monotone(g)):
        raise MonotonyViolated("closed-form chain needs monotone outer bounds")
    rise_windows = [(p.d_r, p.m_r), (p_inner.d_r, p_inner.m_r)]
    fall_windows = [(p.d_f, p.m_f), (p_inner.d_f, p_inner.m_f)]
    if not _distributes(f, rise_windows, "all"):
        raise DistributivityUnverified("outer lower bound does not pass through the all-window")
    if not _distributes(g, fall_windows, "any"):
        raise DistributivityUnverified("outer upper bound does not pass through the any-window")
    F = fn_compose(f, [fi for fi, _ in inner])
    G = fn_compose(g, [gi for _, gi in inner])
    return blc(F, G, p + p_inner)
