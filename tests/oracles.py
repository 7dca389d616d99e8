"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's edge shifting: window queries are
decided by sampling the closed look-back interval on a grid finer than every
denominator in play, so a disagreement can only come from a library bug, not
from a shared assumption.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import gcd, prod

from siglim import Signal
from siglim.conditions import _constructed_candidates, _distinct_members, _grid_candidates
from siglim.errors import EmptyBailc, EmptyMeet

Time = Fraction


def lcm_many(values: list[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def denominator_lcm(x: Signal, *extra: Fraction) -> int:
    dens = [Fraction(t).denominator for t, _ in x.transitions]
    dens += [Fraction(e).denominator for e in extra]
    return lcm_many(dens or [1])


def sample_points(a: Fraction, b: Fraction, den: int) -> list[Fraction]:
    """All multiples of 1/(2 den) in [a, b], plus both endpoints."""
    step = Fraction(1, 2 * den)
    k0 = -((-a) // step)  # ceil(a / step)
    pts = [a]
    t = k0 * step
    while t <= b:
        pts.append(t)
        t += step
    pts.append(b)
    return pts


def interval_points(x: Signal, a: Fraction, b: Fraction) -> list[Fraction]:
    """Finitely many points of [a, b] that decide pointwise claims about x.

    Every maximal value piece of x meeting [a, b] contains its own left
    endpoint clipped to a, and that clipped endpoint is either a or a
    transition time, so these points (plus midpoints for good measure) see
    every value x takes on the interval.
    """
    pts = [a] + [t for t, _ in x.transitions if a < t < b]
    if b > a:
        pts.append(b)
    out: list[Fraction] = []
    for p, q in zip(pts, pts[1:]):
        out += [p, (p + q) / 2]
    out.append(pts[-1])
    return out


def window_all_bit(x: Signal, d: Fraction, m: Fraction, t: Fraction) -> int:
    """1 iff x is 1 everywhere on the closed interval [t - d, t - d + m]."""
    a, b = t - d, t - d + m
    return int(all(x.value_at(p) == 1 for p in interval_points(x, a, b)))


def window_any_bit(x: Signal, d: Fraction, m: Fraction, t: Fraction) -> int:
    """1 iff x is 1 somewhere on the closed interval [t - d, t - d + m]."""
    a, b = t - d, t - d + m
    return int(any(x.value_at(p) == 1 for p in interval_points(x, a, b)))


def window_all_bit_grid(x: Signal, d: Fraction, m: Fraction, t: Fraction) -> int:
    """window_all_bit by blind grid sampling; slower, zero shared reasoning."""
    a, b = t - d, t - d + m
    den = denominator_lcm(x, a, b)
    return int(all(x.value_at(p) == 1 for p in sample_points(a, b, den)))


def window_any_bit_grid(x: Signal, d: Fraction, m: Fraction, t: Fraction) -> int:
    """window_any_bit by blind grid sampling; slower, zero shared reasoning."""
    a, b = t - d, t - d + m
    den = denominator_lcm(x, a, b)
    return int(any(x.value_at(p) == 1 for p in sample_points(a, b, den)))


def window_probe_times(x: Signal, d: Fraction, m: Fraction) -> list[Fraction]:
    """Times that decide equality of any signal whose switches sit on the
    shifted breakpoints: the candidate switch times themselves, a point inside
    every cell between them, and a point on each unbounded side."""
    cand = sorted({t + d for t, _ in x.transitions}
                  | {t + d - m for t, _ in x.transitions})
    if not cand:
        return [Fraction(0)]
    probes = [cand[0] - 1]
    for left, right in zip(cand, cand[1:]):
        probes += [left, (left + right) / 2]
    probes += [cand[-1], cand[-1] + 1]
    return probes


def eventual_bit(x: Signal) -> int:
    last = x.transitions[-1][0] if x.transitions else Fraction(0)
    return x.value_at(last + 1)


def aic_bit(x: Signal, delta_r: Fraction, delta_f: Fraction) -> int:
    """1 iff after every transition the new value persists through the closed
    dwell interval, decided by pointwise evaluation on that interval."""
    for t, v in x.transitions:
        need = delta_r if v == 1 else delta_f
        if any(x.value_at(p) != v for p in interval_points(x, t, t + need)):
            return 0
    return 1


def dwell_dfs_oracle(grid: list[Fraction], bounds: list[tuple[int, int]],
                     delta_r: Fraction, delta_f: Fraction, max_nodes: int, rng) -> Signal | None:
    """The budgeted depth-first dwell search the exact sweep replaced, on
    Fraction times: a one-way oracle, since every witness it finds proves
    that a member exists.

    Cells are the pieces cut by grid, and bounds holds the envelopes'
    values on each; an edge may sit only on a grid point, and must end a
    run longer than its dwell.  Free cells keep the current value first,
    in reverse when rng (drawn once per inner node) falls below 1/4.  At
    most max_nodes nodes are visited; None when none of them is a witness.
    """
    n = len(bounds)
    left = [max_nodes]

    def rec(idx, value, last_edge, edges):
        left[0] -= 1
        if left[0] < 0:
            return None
        if idx == n:
            return Signal(edges[0][1] ^ 1 if edges else value, tuple(edges))
        choices = [value, 1 - value] if idx else [0, 1]
        if rng is not None and rng.random() < 0.25:
            choices.reverse()
        lo_v, hi_v = bounds[idx]
        for v in choices:
            if v < lo_v or v > hi_v:
                continue
            if idx == 0:
                out = rec(1, v, None, edges)
            elif v == value:
                out = rec(idx + 1, v, last_edge, edges)
            else:
                t = grid[idx - 1]
                if last_edge is not None:
                    need = delta_r if value == 1 else delta_f
                    if t - last_edge <= need:
                        continue
                edges.append((t, v))
                out = rec(idx + 1, v, t, edges)
                if out is None:
                    edges.pop()
            if out is not None:
                return out
        return None

    return rec(0, 0, None, [])


def shrink_oracle(x: Signal, d: Fraction, m: Fraction, b: int) -> Signal:
    """x retarded by d with every b-run shortened by m, by a per-tick loop:
    an edge into b moves by d and is kept; an edge out of b moves by d - m,
    and when it does not come after the kept edge before it, it removes
    that edge instead, so a b-run no longer than m vanishes."""
    scale = lcm_many([x.scale, d.denominator, m.denominator])
    f = scale // x.scale
    d_in = d.numerator * (scale // d.denominator)
    d_out = d_in - m.numerator * (scale // m.denominator)
    out: list[int] = []
    into = x.initial != b
    for t in x.ticks:
        if into:
            out.append(t * f + d_in)
        else:
            t = t * f + d_out
            if out and out[-1] >= t:
                out.pop()
            else:
                out.append(t)
        into = not into
    return Signal._on(x.initial, scale, tuple(out))


def finite_within_oracle(model, parts, u, seed):
    """A meet's, join's or restriction's finite outputs, as its parts' lists
    concatenated and filtered through the model's membership predicate."""
    outs = []
    for part in parts:
        sub = part.finite_outputs(u, seed)
        if sub is None:
            return None
        outs += sub
    admits = model.admits(u)
    return [y for y in outs if admits(y)]


def sample_first_answer(search, x):
    """The (bit, exhausted) of the serial search `search` for the output x
    in the order that samples every stage before it asks anything: each
    stage's membership predicate and samples through its public `admits`
    and `sample`, then the candidates constructed from x that it admits, to
    cap members; the first pass over the combinations the grid round
    reaches within max_nodes; then the grid round.  Only the per-input
    facts are read off search: its stages' blocks, finite lists and
    envelopes, its refutation, cap, budget, seed and deltas."""
    if search.refutes is not None and search.refutes(x):
        return 0, False
    budget, cap, outer = search.budget, search.cap, search.outer
    stages = []  # (model, block, envelopes, predicate, members, final)
    for (j, blk), finite, env in zip(search.parts, search.finite, search.envs):
        if finite is not None:
            stages.append((j, blk, env, None, list(dict.fromkeys(finite)), True))
            continue
        admits = j.admits(blk)
        try:
            raw = j.sample(blk, budget.samples, search.seed)
        except (EmptyMeet, EmptyBailc):
            raw = []
        members = _distinct_members(raw, admits, cap)
        cands = _constructed_candidates(j, blk, env, outer, x)
        members = _distinct_members(cands, admits, cap, members)
        stages.append((j, blk, env, admits, members, len(members) >= cap))
    asked = set()

    def hit(combos):
        for combo in combos:
            if combo not in asked:
                asked.add(combo)
                if outer.admits(combo)(x):
                    return True
        return False

    def first_pass():
        sizes = [len(members) if final else cap for *_, members, final in stages]
        for idx in product(*[range(len(members)) for *_, members, _ in stages]):
            pos = 0
            for k, size in zip(idx, sizes):
                pos = pos * size + k
            if pos >= budget.max_nodes:
                return
            yield tuple(st[4][k] for st, k in zip(stages, idx))

    if hit(first_pass()):
        return 1, False
    lists = [members if final else _distinct_members(
                 _grid_candidates(blk, x, search.deltas, budget), admits, cap, members)
             for _, blk, env, admits, members, final in stages]
    if hit(islice(product(*lists), budget.max_nodes)):
        return 1, False
    return 0, prod(map(len, lists)) > budget.max_nodes or any(len(lst) >= cap for lst in lists)
