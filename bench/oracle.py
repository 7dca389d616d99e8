"""Pointwise oracle for window-bounded gates, on integer time ticks.

The benchmark states every input and parameter on a lattice of 1/SCALE time
units, so the oracle can work on plain integers.  A wave is
(initial, times, values): right-continuous, constant between its times.  Each
value the oracle reports is computed from the definitions at a probe time
(bisection into the inputs, then the truth table, then the closed look-back
window), never from siglim's interval code.  Checks are complete, not
sampled: every probe set contains all the times where either side can change.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product

SCALE = 8

AND2 = (0, 0, 0, 1)
OR2 = (0, 1, 1, 1)
XOR2 = (0, 1, 1, 0)


class Wave:
    __slots__ = ("initial", "times", "values")

    def __init__(self, initial: int, times: list[int], values: list[int]) -> None:
        self.initial = initial
        self.times = times
        self.values = values

    def at(self, t: int) -> int:
        i = bisect_right(self.times, t)
        return self.values[i - 1] if i else self.initial

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Wave) and self.initial == other.initial
                and self.times == other.times and self.values == other.values)


def compress(initial: int, probes: list[int], values: list[int]) -> Wave:
    """Wave with the given value at each sorted probe, keeping only changes."""
    times, vals, cur = [], [], initial
    for t, v in zip(probes, values):
        if v != cur:
            times.append(t)
            vals.append(v)
            cur = v
    return Wave(initial, times, vals)


def random_wave(rng, n: int, start: int, max_gap: int) -> Wave:
    """n alternating transitions with gaps of 1..max_gap ticks after start."""
    initial = rng.randint(0, 1)
    times, t = [], start
    for _ in range(n):
        t += rng.randint(1, max_gap)
        times.append(t)
    return Wave(initial, times, [(initial + k + 1) % 2 for k in range(n)])


def flip(x: Wave, a: int, b: int) -> Wave:
    """x with its value complemented on [a, b)."""
    probes = sorted(set(x.times) | {a, b})
    return compress(x.initial, probes, [x.at(t) ^ (a <= t < b) for t in probes])


def shift(x: Wave, d: int) -> Wave:
    return Wave(x.initial, [t + d for t in x.times], list(x.values))


def table_index(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def apply_table(table: tuple[int, ...], u: list[Wave]) -> Wave:
    """Pointwise table(u_1(t), ..., u_m(t)), evaluated at every input breakpoint."""
    probes = sorted({t for x in u for t in x.times})
    initial = table[table_index(x.initial for x in u)]
    return compress(initial, probes, [table[table_index(x.at(t) for x in u)] for t in probes])


class Windows:
    """Closed look-back windows [t - d, t - d + m] over one wave."""

    def __init__(self, x: Wave) -> None:
        self.x = x
        pieces = [x.initial] + x.values
        self.zeros = [0]
        for v in pieces:
            self.zeros.append(self.zeros[-1] + (v == 0))

    def _counts(self, a: int, b: int) -> tuple[int, int]:
        i = bisect_right(self.x.times, a)
        j = bisect_right(self.x.times, b)
        zeros = self.zeros[j + 1] - self.zeros[i]
        return zeros, j + 1 - i - zeros

    def all_on(self, a: int, b: int) -> int:
        return int(self._counts(a, b)[0] == 0)

    def any_on(self, a: int, b: int) -> int:
        return int(self._counts(a, b)[1] > 0)


def envelope(x: Wave, d: int, m: int, mode: str) -> Wave:
    """All-window (mode "all") or any-window image of x, probed wherever an
    end of the window crosses a breakpoint of x."""
    w = Windows(x)
    probes = sorted({t + d for t in x.times} | {t + d - m for t in x.times})
    test = w.all_on if mode == "all" else w.any_on
    return compress(x.initial, probes, [test(t - d, t - d + m) for t in probes])


def blc_envelopes(f: tuple[int, ...], g: tuple[int, ...], p: tuple[int, int, int, int],
                  u: list[Wave]) -> tuple[Wave, Wave]:
    """(lower, upper) for window parameters p = (m_r, d_r, m_f, d_f) in ticks."""
    m_r, d_r, m_f, d_f = p
    return (envelope(apply_table(f, u), d_r, m_r, "all"),
            envelope(apply_table(g, u), d_f, m_f, "any"))


def first_violation(lo: Wave, hi: Wave, x: Wave) -> int | None:
    """Earliest tick where x leaves [lo, hi], or None if it never does.

    x must agree with lo before every breakpoint, so a violation, if any,
    starts at one of the probed times."""
    if not lo.initial <= x.initial <= hi.initial:
        raise ValueError("candidate must start inside the envelopes")
    for t in sorted(set(lo.times) | set(hi.times) | set(x.times)):
        if not lo.at(t) <= x.at(t) <= hi.at(t):
            return t
    return None


def merge_runs(lo: Wave, hi: Wave) -> Wave:
    """A wave inside [lo, hi] with runs as long as the envelopes let them be.

    It is 1 where lo is 1 and 0 where hi is 0.  Each stretch in between takes
    the value forced on both sides of it, or changes at its midpoint when the
    two sides differ, so that short runs of lo and hi merge into long ones."""
    probes = sorted(set(lo.times) | set(hi.times))
    starts = [None] + probes  # piece k is [starts[k], starts[k + 1])
    pieces = [(lo.initial, hi.initial)] + [(lo.at(t), hi.at(t)) for t in probes]
    forced = [1 if a else 0 if not b else None for a, b in pieces]
    after, nxt = [None] * len(forced), None
    for k in range(len(forced) - 1, -1, -1):
        after[k] = nxt
        nxt = forced[k] if forced[k] is not None else nxt
    initial, times, values, before = 0, [], [], None
    for k, v in enumerate(forced):
        if v is None:
            if None not in (before, after[k]) and before != after[k]:
                times += [starts[k], (starts[k] + starts[k + 1] + 1) // 2]
                values += [before, after[k]]
                continue
            v = before if before is not None else after[k] if after[k] is not None else 0
        else:
            before = v
        if k:
            times.append(starts[k])
            values.append(v)
        else:
            initial = v
    return compress(initial, times, values)


def dwell_ok(x: Wave, delta_r: int, delta_f: int) -> bool:
    """Each run between two transitions lasts strictly longer than its dwell."""
    for k in range(len(x.times) - 1):
        need = delta_r if x.values[k] == 1 else delta_f
        if x.times[k + 1] - x.times[k] <= need:
            return False
    return True


def compose_tables(outer: tuple[int, ...], inner: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Table of outer applied to unary inner tables, one per argument."""
    return tuple(outer[table_index(h[a] for h, a in zip(inner, args))]
                 for args in product((0, 1), repeat=len(inner)))


# --- conversion to and from siglim's exact times -----------------------------

def to_time(tick: int) -> Fraction:
    return Fraction(tick, SCALE)


def to_tick(t: Fraction) -> int:
    num = t.numerator * SCALE
    if num % t.denominator:
        raise ValueError(f"time {t} is off the 1/{SCALE} lattice")
    return num // t.denominator


def format_tick(tick: int) -> str:
    t = Fraction(tick, SCALE)
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def parse_time(s: str) -> int:
    return to_tick(Fraction(s))
