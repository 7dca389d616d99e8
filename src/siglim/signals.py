"""Piecewise-constant Boolean signals over exact rational time.

A signal is a function from the rational line to {0, 1} that is constant
before its first transition, switches at finitely many times, and holds each
value on a left-closed right-open piece.  The representation is canonical:
transition times are strictly increasing and consecutive values alternate, so
two signals are equal as functions iff they are equal as values.

All times are `fractions.Fraction`, so every operation here is exact; nothing
in this module ever rounds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    DuplicateTransitionTime,
    InvalidWindow,
    OverlappingIntervals,
    PreconditionViolated,
)

Bit = int
Time = Fraction


def as_time(value: Time | int) -> Time:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PreconditionViolated(f"time must be Fraction or int, got {type(value).__name__}")


def _as_bit(value: int) -> Bit:
    if value in (0, 1):
        return int(value)
    raise PreconditionViolated(f"bit must be 0 or 1, got {value!r}")


@dataclass(frozen=True)
class Signal:
    """Canonical piecewise-constant Boolean signal.

    `initial` is the value on the unbounded left piece; `transitions` lists
    (time, new value) pairs with strictly increasing times and alternating
    values.  Instances are immutable and compare exactly.
    """

    initial: Bit
    transitions: tuple[tuple[Time, Bit], ...] = ()

    def __post_init__(self) -> None:
        _as_bit(self.initial)
        prev_t: Time | None = None
        prev_v = self.initial
        for t, v in self.transitions:
            if not isinstance(t, Fraction):
                raise PreconditionViolated("transition times must be Fraction")
            _as_bit(v)
            if prev_t is not None and t <= prev_t:
                raise PreconditionViolated("transition times must be strictly increasing")
            if v == prev_v:
                raise PreconditionViolated("consecutive transition values must alternate")
            prev_t, prev_v = t, v

    @cached_property
    def _times(self) -> tuple[Time, ...]:
        return tuple(t for t, _ in self.transitions)

    def value_at(self, t: Time | int) -> Bit:
        """Value of the signal at time t (right-continuous convention).

        A single-point query; to read signals at many sorted times, use
        `values_along`, which walks them once.
        """
        t = as_time(t)
        i = bisect_right(self._times, t) - 1
        return self.transitions[i][1] if i >= 0 else self.initial

    def left_limit(self, t: Time | int) -> Bit:
        """Value held immediately before time t."""
        t = as_time(t)
        i = bisect_left(self._times, t) - 1
        return self.transitions[i][1] if i >= 0 else self.initial

    def eventual_value(self) -> Bit:
        """Value held from the last transition onward."""
        return self.transitions[-1][1] if self.transitions else self.initial

    def edges(self) -> tuple[tuple[Time, ...], tuple[Time, ...]]:
        """(rising times, falling times); in canonical form every transition
        is an edge."""
        rising = tuple(t for t, v in self.transitions if v == 1)
        falling = tuple(t for t, v in self.transitions if v == 0)
        return rising, falling

    def __invert__(self) -> "Signal":
        return Signal(1 - self.initial, tuple((t, 1 - v) for t, v in self.transitions))

    def __and__(self, other: "Signal") -> "Signal":
        return combine(lambda a, b: a & b, self, other)

    def __or__(self, other: "Signal") -> "Signal":
        return combine(lambda a, b: a | b, self, other)

    def __xor__(self, other: "Signal") -> "Signal":
        return combine(lambda a, b: a ^ b, self, other)


MultiSignal = tuple[Signal, ...]


def make_signal(initial: int, transitions: Iterable[tuple[Time | int, int]] = ()) -> Signal:
    """Build a canonical signal from an unordered transition list.

    Entries that repeat the current value are dropped; two entries at the same
    time are rejected rather than reordered.
    """
    initial = _as_bit(initial)
    items = sorted((as_time(t), _as_bit(v)) for t, v in transitions)
    for (t1, _), (t2, _) in zip(items, items[1:]):
        if t1 == t2:
            raise DuplicateTransitionTime(f"two transitions at t = {t1}")
    return _canonical(initial, items)


def _canonical(initial: Bit, pairs: Sequence[tuple[Time, Bit]]) -> Signal:
    out: list[tuple[Time, Bit]] = []
    cur = initial
    for t, v in pairs:
        if v != cur:
            out.append((t, v))
            cur = v
    return Signal(initial, tuple(out))


def constant(bit: int) -> Signal:
    return Signal(_as_bit(bit))


def pulse(start: Time | int, end: Time | int) -> Signal:
    """Characteristic signal of the single interval [start, end)."""
    return charfn([(start, end)])


def charfn(intervals: Iterable[tuple[Time | int, Time | int]]) -> Signal:
    """Characteristic signal of a finite union of disjoint [a, b) intervals."""
    spans = sorted((as_time(a), as_time(b)) for a, b in intervals)
    for a, b in spans:
        if a > b:
            raise PreconditionViolated(f"interval [{a}, {b}) has negative length")
    merged: list[tuple[Time, Time]] = []
    for a, b in spans:
        if a == b:
            continue
        if merged and a < merged[-1][1]:
            raise OverlappingIntervals(f"intervals overlap at t = {a}")
        if merged and a == merged[-1][1]:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    pairs: list[tuple[Time, Bit]] = []
    for a, b in merged:
        pairs.append((a, 1))
        pairs.append((b, 0))
    return _canonical(0, pairs)


_time = itemgetter(0)


def _sweep(signals: Sequence[Signal]) -> Iterator[tuple[Time, list[Bit]]]:
    """Walk the signals' transitions once, in time order.

    Yields (t, values) once per distinct transition time t, where values are
    the signals' values from t on; the one list is updated in place between
    steps, so read it before advancing.  Coincident transitions fold into one
    step.  The events are sorted on time alone and stably: Timsort finds each
    signal's transitions as one sorted run and merges the runs, so the walk
    costs a few comparisons per transition.
    """
    values = [x.initial for x in signals]
    events = [(t, k, v) for k, x in enumerate(signals) for t, v in x.transitions]
    if not events:
        return
    events.sort(key=_time)
    prev = events[0][0]
    for t, k, v in events:
        if t != prev:
            yield prev, values
            prev = t
        values[k] = v
    yield prev, values


def combine(op: Callable[..., int], *signals: Signal) -> Signal:
    """Pointwise combination of signals under a Boolean operation.

    op runs once per distinct transition time; the cost is linear in the
    total number of transitions.
    """
    if not signals:
        raise ArityMismatch("combine needs at least one signal")
    cur = initial = _as_bit(op(*(x.initial for x in signals)))
    out: list[tuple[Time, Bit]] = []
    for t, values in _sweep(signals):
        v = _as_bit(op(*values))
        if v != cur:
            out.append((t, v))
            cur = v
    return Signal(initial, tuple(out))


def values_along(u: Sequence[Signal], times: Iterable[Time]) -> list[tuple[Bit, ...]]:
    """`values_at(u, t)` for each of the ascending times, in one walk.

    The cost is linear in the number of times plus transitions.
    """
    steps = _sweep(u)
    now = tuple(x.initial for x in u)
    step = next(steps, None)
    out: list[tuple[Bit, ...]] = []
    for t in times:
        while step is not None and step[0] <= t:
            now = tuple(step[1])
            step = next(steps, None)
        out.append(now)
    return out


_UNARY = {"not": lambda a: 1 - a}
_BINARY = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


def pointwise(op: str, x: Signal, y: Signal | None = None) -> Signal:
    """Named pointwise operation: "not", "and", "or" or "xor"."""
    if op in _UNARY:
        if y is not None:
            raise ArityMismatch(f"{op!r} takes one signal")
        return combine(_UNARY[op], x)
    if op in _BINARY:
        if y is None:
            raise ArityMismatch(f"{op!r} takes two signals")
        return combine(_BINARY[op], x, y)
    raise PreconditionViolated(f"unknown pointwise operation {op!r}")


def translate(x: Signal, d: Time | int) -> Signal:
    """Retard x by d: the result at t equals x at t - d.  d may be negative."""
    d = as_time(d)
    return Signal(x.initial, tuple((t + d, v) for t, v in x.transitions))


def translate_all(u: MultiSignal, d: Time | int) -> MultiSignal:
    return tuple(translate(x, d) for x in u)


def values_at(u: MultiSignal, t: Time | int) -> tuple[Bit, ...]:
    return tuple(x.value_at(t) for x in u)


def _check_window(d: Time | int, m: Time | int) -> tuple[Time, Time]:
    d, m = as_time(d), as_time(m)
    if m < 0 or m > d:
        raise InvalidWindow(f"window needs 0 <= m <= d, got m = {m}, d = {d}")
    return d, m


def window_all(x: Signal, d: Time | int, m: Time | int) -> Signal:
    """1 at t iff x is 1 throughout the closed window [t - d, t - d + m].

    The window looks back between d and d - m time units; with m = 0 this is
    exactly translate(x, d).
    """
    d, m = _check_window(d, m)
    return _erode(x, d, m)


def window_any(x: Signal, d: Time | int, m: Time | int) -> Signal:
    """1 at t iff x is 1 somewhere in the closed window [t - d, t - d + m]."""
    d, m = _check_window(d, m)
    return _dilate(x, d, m)


def _erode(x: Signal, d: Time, m: Time) -> Signal:
    """Windowed conjunction without the 0 <= m <= d validation.

    A maximal 1-run [a, b) contains the closed window [t-d, t-d+m] iff
    a + d <= t < b + d - m, so each 1-run shifts by d and loses m at its end.
    """
    return _shrink(x, d, m, 1)


def _dilate(x: Signal, d: Time, m: Time) -> Signal:
    """Windowed disjunction without validation: the erosion of the 0-runs."""
    return _shrink(x, d, m, 0)


def _shrink(x: Signal, d: Time, m: Time, b: Bit) -> Signal:
    """x retarded by d with every b-run shortened by m, in one pass.

    Edges into b move by d and edges out of b by d - m; a b-run no longer
    than m vanishes together with its two edges.  d may be negative.
    """
    out: list[tuple[Time, Bit]] = []
    d_out = d - m
    for t, v in x.transitions:
        t += d if v == b else d_out
        if v != b and out and out[-1][0] >= t:
            out.pop()
        else:
            out.append((t, v))
    return Signal(x.initial, tuple(out))


def signal_leq(x: Signal, y: Signal) -> bool:
    """True iff x(t) <= y(t) for every t.

    One walk over both signals' transitions that stops at the first time
    where x exceeds y; no signal is built.
    """
    if x.initial > y.initial:
        return False
    return all(a <= b for _, (a, b) in _sweep((x, y)))


def breakpoints(*signals: Signal) -> list[Time]:
    """Sorted union of all transition times of the given signals."""
    return [t for t, _ in _sweep(signals)]


def first_one_time(x: Signal) -> Time | None:
    """A representative time where x is 1, preferring the earliest.

    When x is 1 on an unbounded left piece there is no earliest time; the
    convention is one unit before the first transition (time 0 if there is
    none), which is enough for diagnostics.
    """
    if x.initial == 1:
        return x.transitions[0][0] - 1 if x.transitions else Fraction(0)
    for t, v in x.transitions:
        if v == 1:
            return t
    return None
