"""Piecewise-constant Boolean signals over exact rational time.

A signal is a function from the rational line to {0, 1} that is constant
before its first transition, switches at finitely many times, and holds each
value on a left-closed right-open piece.  The representation is canonical:
transition times are strictly increasing and consecutive values alternate, so
two signals are equal as functions iff they are equal as values.

Times are `fractions.Fraction` at the API and integer ticks inside: a signal
stores its times multiplied by their least common denominator, and every
operation (`combine`, `signal_leq`, the windows, `translate`) brings its
operands onto a common lattice and does int arithmetic only, linear in the
number of transitions.  Every time is exactly tick / scale, so every
operation here is exact; nothing in this module ever rounds.

Every walk over several signals is one merge kernel, `_sweep`.  It packs
each transition into one int, `tick << n | bit` with the signal's bit in
the code, sorts them as plain ints and keeps the signals' values packed in
one int code, which indexes a truth table once per distinct time.  The
table's value has one or two bits, and the walk returns, for each bit, the
ticks where it changes: each bit's list is one result signal's ticks, so a
walk builds its results directly.  A tick offset applied as the events are
built retards the walk, so a delayed image (`_image`, as fixed delays take
it) is one walk on the shifted lattice.  `combine` reads a `BoolFn`'s
table, a tuple of bits or a memo of its op; `_images` takes the images of
two tables packed in one, as the bounded envelopes do for their two bound
functions; `_box_images` takes the least and greatest of two tables over a
box of inputs, as the models' `bounds` do; and `signal_leq` and
`signal_between` stop at the first violation.  Reads that need no table
take none: `breakpoints` is the sorted union of the signals' ticks,
`values_along` bisects each signal at each time, and `_splice` builds a
signal from slices of two others, as the window samples clamp their draws.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

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


_set = object.__setattr__

# truth tables in `_code` order, the first argument most significant
_AND = (0, 0, 0, 1)
_OR = (0, 1, 1, 1)
_XOR = (0, 1, 1, 0)
_LEQ = (1, 1, 0, 1)  # a <= b
_BETWEEN = (1, 1, 0, 1, 0, 0, 0, 1)  # a <= b <= c
_BITS = frozenset((0, 1))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Signal:
    """Canonical piecewise-constant Boolean signal.

    `Signal(initial, transitions)` takes `initial`, the value on the
    unbounded left piece, and (time, new value) pairs with strictly
    increasing Fraction times and alternating values.  The signal stores
    the times on an integer lattice: `ticks[i]` is the i-th time times
    `scale`, the times' least common denominator (1 for a constant), and
    the values alternate from `1 - initial`.  `gcd(scale, *ticks) == 1`, so
    equal fields mean equal functions.  `transitions` rebuilds the pairs on
    each read.  Instances are immutable and compare exactly.
    """

    initial: Bit
    scale: int
    ticks: tuple[int, ...]

    def __init__(self, initial: Bit, transitions: Iterable[tuple[Time, Bit]] = ()) -> None:
        initial = _as_bit(initial)
        times = []
        v = initial
        for t, v_next in transitions:
            if not isinstance(t, Fraction):
                raise PreconditionViolated("transition times must be Fraction")
            if v_next != 1 - v:
                _as_bit(v_next)
                raise PreconditionViolated("consecutive transition values must alternate")
            times.append(t)
            v = 1 - v
        scale = lcm(*[t.denominator for t in times])
        ticks = tuple([t.numerator * (scale // t.denominator) for t in times])
        for a, b in zip(ticks, ticks[1:]):
            if a >= b:
                raise PreconditionViolated("transition times must be strictly increasing")
        _set(self, "initial", initial)
        _set(self, "scale", scale)
        _set(self, "ticks", ticks)

    @classmethod
    def _on(cls, initial: Bit, scale: int, ticks: tuple[int, ...]) -> "Signal":
        """The signal with these fields after dividing out their gcd, unchecked:
        the ticks must increase strictly."""
        g = gcd(scale, *ticks)
        if g > 1:
            scale //= g
            ticks = tuple(t // g for t in ticks)
        x = object.__new__(cls)
        _set(x, "initial", initial)
        _set(x, "scale", scale)
        _set(x, "ticks", ticks)
        return x

    @property
    def transitions(self) -> tuple[tuple[Time, Bit], ...]:
        s, v = self.scale, self.initial
        out = []
        for t in self.ticks:
            v ^= 1
            out.append((Fraction(t, s), v))
        return tuple(out)

    def __repr__(self) -> str:
        """The constructor's form, as the reports print it."""
        return f"Signal(initial={self.initial!r}, transitions={self.transitions!r})"

    def value_at(self, t: Time | int) -> Bit:
        """Value of the signal at time t (right-continuous convention).

        A single-point query; to read signals at many sorted times, use
        `values_along`, which walks them once.
        """
        t = as_time(t)
        k = t.numerator * self.scale // t.denominator
        return self.initial ^ (bisect_right(self.ticks, k) & 1)

    def left_limit(self, t: Time | int) -> Bit:
        """Value held immediately before time t."""
        t = as_time(t)
        k = -(-t.numerator * self.scale // t.denominator)
        return self.initial ^ (bisect_left(self.ticks, k) & 1)

    def eventual_value(self) -> Bit:
        """Value held from the last transition onward."""
        return self.initial ^ (len(self.ticks) & 1)

    def edges(self) -> tuple[tuple[Time, ...], tuple[Time, ...]]:
        """(rising times, falling times); in canonical form every transition
        is an edge."""
        times = tuple(Fraction(t, self.scale) for t in self.ticks)
        first, second = times[0::2], times[1::2]
        return (second, first) if self.initial else (first, second)

    def __invert__(self) -> "Signal":
        return Signal._on(1 - self.initial, self.scale, self.ticks)

    def __and__(self, other: "Signal") -> "Signal":
        return combine(_AND, self, other)

    def __or__(self, other: "Signal") -> "Signal":
        return combine(_OR, self, other)

    def __xor__(self, other: "Signal") -> "Signal":
        return combine(_XOR, self, other)


MultiSignal = tuple[Signal, ...]


def make_signal(initial: int, transitions: Iterable[tuple[Time | int, int]] = ()) -> Signal:
    """Build a canonical signal from an unordered transition list.

    Entries that repeat the current value are dropped; two entries at the same
    time are rejected rather than reordered.
    """
    initial = _as_bit(initial)
    times: list[Time] = []
    values: list[Bit] = []
    for t, v in transitions:
        times.append(as_time(t))
        values.append(_as_bit(v))
    scale = lcm(*[t.denominator for t in times])
    ticks = [t.numerator * (scale // t.denominator) for t in times]
    return _from_ticks(initial, scale, ticks, values)


def _from_ticks(initial: Bit, scale: int, ticks: Sequence[int], values: Sequence[Bit]) -> Signal:
    """The canonical signal switching to values[i] at ticks[i] / scale.

    The pairs may come in any order.  Entries that repeat the current value
    are dropped; two entries at the same tick raise.  Each pair sorts as one
    int, `tick << 1 | value`, which orders by tick, negative ticks included.
    """
    out: list[int] = []
    cur, prev = initial, None
    for k in sorted([t << 1 | v for t, v in zip(ticks, values)]):
        t = k >> 1
        if t == prev:
            raise DuplicateTransitionTime(f"two transitions at t = {Fraction(t, scale)}")
        prev = t
        if k & 1 != cur:
            out.append(t)
            cur ^= 1
    return Signal._on(initial, scale, tuple(out))


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
    return Signal(0, [(t, v) for a, b in merged for t, v in ((a, 1), (b, 0))])


def _lattice(signals: Iterable[Signal]) -> int:
    """The least scale on which every one of the signals' times is a tick."""
    return lcm(*[x.scale for x in signals])


def _code(bits: Iterable[Bit]) -> int:
    """The bits as one int, the first most significant: a truth-table index."""
    code = 0
    for b in bits:
        code = code << 1 | b
    return code


def _bits(code: int, n: int) -> tuple[Bit, ...]:
    """The n bits of code, the first most significant."""
    return tuple((code >> k) & 1 for k in range(n - 1, -1, -1))


def _sweep(
    signals: Sequence[Signal], scale: int, table: Sequence[int], stop: int = -1, shift: int = 0,
) -> tuple[int, tuple[list[int], list[int]]]:
    """Walk the signals' transitions once, in time order, through a table.

    `scale` is a common multiple of the signals' scales, and every tick is
    moved by `shift` as the events are built, which retards the walk by
    shift / scale.  The code of a time packs the signals' values there as
    `_code` does, and `table[code]` is the value the walk reports, of one
    or two bits.  Returns (first, (low, high)): the value on the unbounded
    left piece, then the ticks where its bit 0 changes and those where its
    bit 1 changes, so each bit's ticks are one signal's.  The walk returns
    early after the first change to `stop`.

    Each transition is one int, `tick << n | bit` with bit the signal's bit
    in the code, so a plain int sort orders the events by time, negative
    ticks included, and the low n bits flip the code; each signal's events
    form one sorted run, which Timsort finds and merges.  Coincident
    transitions fold into one step, and the table is read once per
    distinct time.
    """
    n = len(signals)
    code = 0
    events: list[int] = []
    for j, x in enumerate(signals):
        code = code << 1 | x.initial
        f = scale // x.scale << n
        c = shift << n | 1 << (n - 1 - j)
        events += [t * f + c for t in x.ticks]
    first = cur = table[code]
    low: list[int] = []
    high: list[int] = []
    if not events or cur == stop:
        return first, (low, high)
    events.sort()
    mask = (1 << n) - 1
    to_low, to_high = low.append, high.append
    prev = events[0] >> n
    for e in events:
        t = e >> n
        if t != prev:
            v = table[code]
            if v != cur:
                c = v ^ cur
                if c == 1:
                    to_low(prev)
                elif c == 2:
                    to_high(prev)
                else:
                    to_low(prev)
                    to_high(prev)
                if v == stop:
                    return first, (low, high)
                cur = v
            prev = t
        code ^= e & mask
    c = table[code] ^ cur
    if c & 1:
        to_low(prev)
    if c & 2:
        to_high(prev)
    return first, (low, high)


def _ticks(signals: Sequence[Signal], scale: int) -> list[int]:
    """The sorted union of the signals' transition ticks on scale."""
    out: set[int] = set()
    for x in signals:
        f = scale // x.scale
        out.update(x.ticks if f == 1 else [t * f for t in x.ticks])
    return sorted(out)


def _shifted(signals: Sequence[Signal], delay: Time | int) -> tuple[int, int]:
    """(scale, shift): the least lattice of the signals and the delay, and
    the delay in its ticks."""
    scale = lcm(delay.denominator, *[x.scale for x in signals])
    return scale, delay.numerator * (scale // delay.denominator)


class _Memo(dict):
    """A truth table filled on demand: op runs once per code looked up."""

    def __init__(self, op: Callable[..., int], n: int) -> None:
        self.op, self.n = op, n

    def __missing__(self, code: int) -> Bit:
        v = self[code] = _as_bit(self.op(*_bits(code, self.n)))
        return v


def combine(op: Callable[..., int] | Sequence[Bit], *signals: Signal) -> Signal:
    """Pointwise combination of signals under a Boolean operation.

    op is a truth table over the signals' packed values (`_code` order, the
    first signal most significant): a `BoolFn`, whose `table` is read, or a
    tuple of 2**n bits.  Any other op is a function of its arguments alone;
    it runs once per distinct combination of values the signals take, and
    the walk looks its answer up at every other transition time.  The cost
    is linear in the total number of transitions.
    """
    n = len(signals)
    if not n:
        raise ArityMismatch("combine needs at least one signal")
    table = op if isinstance(op, tuple) else getattr(op, "table", None)
    if table is None:
        table = _Memo(op, n)
    elif len(table) != 1 << n:
        raise ArityMismatch(f"a table of {len(table)} entries applied to {n} signals")
    elif table is op and not _BITS.issuperset(table):  # a BoolFn's is checked when built
        raise PreconditionViolated("table entries must be 0 or 1")
    return _image(table, signals)


def _image(table: Sequence[Bit], signals: Sequence[Signal], delay: Time | int = 0) -> Signal:
    """`combine(table, *signals)` retarded by delay, in one walk on the
    shifted lattice."""
    scale, shift = _shifted(signals, delay)
    first, (ticks, _) = _sweep(signals, scale, table, -1, shift)
    return Signal._on(first, scale, tuple(ticks))


def _images(
    table: Sequence[int], signals: Sequence[Signal], delay: Time | int = 0,
) -> tuple[Signal, Signal]:
    """The images of the two tables whose bits the table packs, the first
    in bit 1, retarded by delay, in one walk: each image is one bit's
    ticks."""
    scale, shift = _shifted(signals, delay)
    first, (low, high) = _sweep(signals, scale, table, -1, shift)
    return Signal._on(first >> 1, scale, tuple(high)), Signal._on(first & 1, scale, tuple(low))


class _BoxMemo(dict):
    """Packed (least of f, greatest of g) over the box of each code, found on
    demand.

    A code packs two corners of m bits each, the lower above the upper, and
    the box is every argument a with lower <= a <= upper bitwise.  The walk
    visits the arguments of each box it meets, never a table of all 2**(2m)
    codes; an empty box (lower above upper somewhere) has least 1 and
    greatest 0.
    """

    def __init__(self, f: Sequence[Bit], g: Sequence[Bit], m: int) -> None:
        self.f, self.g, self.m = f, g, m

    def __missing__(self, code: int) -> int:
        lo, hi = code >> self.m, code & ((1 << self.m) - 1)
        least, most = 1, 0
        if lo & ~hi == 0:
            free = s = hi ^ lo
            while least or not most:
                a = lo | s
                least &= self.f[a]
                most |= self.g[a]
                if not s:
                    break
                s = (s - 1) & free
        v = self[code] = least << 1 | most
        return v


def _box_images(
    f: Sequence[Bit], g: Sequence[Bit], lo: Sequence[Signal], hi: Sequence[Signal],
    delay: Time | int = 0,
) -> tuple[Signal, Signal]:
    """(L, U): at each time, the least value of the table f and the greatest
    of the table g over the arguments lying between lo's and hi's values
    there, retarded by delay, in one walk over the 2m signals."""
    return _images(_BoxMemo(f, g, len(lo)), (*lo, *hi), delay)


def _on_lattice(x: Signal, scale: int) -> tuple[Bit, Sequence[int]]:
    """(initial, ticks) of x on scale, a multiple of x.scale."""
    f = scale // x.scale
    return x.initial, x.ticks if f == 1 else [t * f for t in x.ticks]


def _splice(
    v: Bit, edges: Sequence[int], sources: Sequence[tuple[Bit, Sequence[int]]], scale: int,
) -> Signal:
    """The signal equal to sources[x(t)] at each t, for the selector x that
    starts at v and flips at the strictly increasing edges.

    The sources are two (initial, ticks) pairs on scale, as the edges are.
    Each piece of x is a slice of its source's ticks, bisected at the
    piece's ends, and a piece's first tick is kept where the value changes
    there, so the cost is the result's length plus one bisection per edge.
    """
    initial, ticks = sources[v]
    j = bisect_left(ticks, edges[0]) if edges else len(ticks)
    out = list(ticks[:j])
    cur = initial ^ (j & 1)
    for k, a in enumerate(edges, 1):
        v ^= 1
        start, ticks = sources[v]
        i = bisect_right(ticks, a)
        if start ^ (i & 1) != cur:
            out.append(a)
        j = bisect_left(ticks, edges[k]) if k < len(edges) else len(ticks)
        out += ticks[i:j]
        cur = start ^ (j & 1)
    return Signal._on(initial, scale, tuple(out))


def _clamp_base(
    lo: Signal, hi: Signal,
) -> tuple[int, list[int], tuple[tuple[Bit, Sequence[int]], tuple[Bit, Sequence[int]]]]:
    """(scale, ticks, sources) for clamping signals into lo | (x & hi) with
    `_splice`: the envelopes' lattice, their merged transition ticks on it,
    and lo and lo | hi as `_splice` sources there, the clamp's values where
    x is 0 and where it is 1.  The `lo | hi` walk is the cost, so callers
    build this only when they draw."""
    scale = _lattice((lo, hi))
    sources = (_on_lattice(lo, scale), _on_lattice(combine(_OR, lo, hi), scale))
    return scale, _ticks((lo, hi), scale), sources


def values_along(u: Sequence[Signal], times: Iterable[Time]) -> list[tuple[Bit, ...]]:
    """The signals' values at each of the times.

    Each value is one bisection of a signal's ticks, so the cost is
    logarithmic in the transitions per signal and time.
    """
    return [tuple([x.value_at(t) for x in u]) for t in times]


def translate(x: Signal, d: Time | int) -> Signal:
    """Retard x by d: the result at t equals x at t - d.  d may be negative."""
    d = as_time(d)
    scale = lcm(x.scale, d.denominator)
    f, off = scale // x.scale, d.numerator * (scale // d.denominator)
    return Signal._on(x.initial, scale, tuple([t * f + off for t in x.ticks]))


def translate_all(u: MultiSignal, d: Time | int) -> MultiSignal:
    return tuple(translate(x, d) for x in u)


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
    return _shrink(x, d, m, 1)


def window_any(x: Signal, d: Time | int, m: Time | int) -> Signal:
    """1 at t iff x is 1 somewhere in the closed window [t - d, t - d + m]."""
    d, m = _check_window(d, m)
    return _shrink(x, d, m, 0)


def _shrink(x: Signal, d: Time, m: Time, b: Bit) -> Signal:
    """x retarded by d with every b-run shortened by m, in one pass.

    Each b-run is a (start, end) pair from two slices of x's ticks: its
    start moves by d, its end by d - m, and it is kept only if longer than
    m; a b-run unbounded on either side is always kept.  d may be negative,
    and 0 <= m <= d is not checked.  With b = 1 this is the windowed
    conjunction: a maximal 1-run [s, e) contains the closed window
    [t-d, t-d+m] iff s + d <= t < e + d - m, so each 1-run shifts by d and
    loses m at its end.  With b = 0 it is the windowed disjunction, the same
    erosion of the 0-runs.
    """
    scale = lcm(x.scale, d.denominator, m.denominator)
    d_in = d.numerator * (scale // d.denominator)
    w = m.numerator * (scale // m.denominator)
    d_out = d_in - w
    _, ticks = _on_lattice(x, scale)
    k = int(x.initial == b)  # 1: the first run is a b-run ending at ticks[0]
    starts, ends = ticks[k::2], ticks[k + 1::2]
    out = [ticks[0] + d_out] if k and ticks else []
    for s, e in zip(starts, ends):
        if e - s > w:
            out += (s + d_in, e + d_out)
    if len(starts) > len(ends):
        out.append(starts[-1] + d_in)
    return Signal._on(x.initial, scale, tuple(out))


def signal_leq(x: Signal, y: Signal) -> bool:
    """True iff x(t) <= y(t) for every t.

    One walk over both signals' transitions that stops at the first time
    where x exceeds y; no signal is built.
    """
    first, (ticks, _) = _sweep((x, y), _lattice((x, y)), _LEQ, 0)
    return first == 1 and not ticks


def signal_between(lo: Signal, x: Signal, hi: Signal) -> bool:
    """True iff lo(t) <= x(t) <= hi(t) for every t.

    `signal_leq(lo, x) and signal_leq(x, hi)` in one walk over the three
    signals' transitions, which stops at the first violation of either.
    """
    first, (ticks, _) = _sweep((lo, x, hi), _lattice((lo, x, hi)), _BETWEEN, 0)
    return first == 1 and not ticks


def breakpoints(*signals: Signal) -> list[Time]:
    """Sorted union of all transition times of the given signals."""
    scale = _lattice(signals)
    return [Fraction(t, scale) for t in _ticks(signals, scale)]


def first_one_time(x: Signal) -> Time | None:
    """A representative time where x is 1, preferring the earliest.

    When x is 1 on an unbounded left piece there is no earliest time; the
    convention is one unit before the first transition (time 0 if there is
    none), which is enough for diagnostics.
    """
    if not x.ticks:
        return Fraction(0) if x.initial else None
    first = Fraction(x.ticks[0], x.scale)
    return first - 1 if x.initial else first
