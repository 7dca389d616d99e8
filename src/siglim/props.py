"""Randomized generators and the theorem suite.

Every algebraic fact the library relies on is bound to a numbered check that
runs against independently generated instances.  Checks are exact: rational
arithmetic throughout, equality decided structurally, and each criterion is
exercised in both directions where it claims an equivalence.  A check is a
function of its `random.Random` alone, seeded from (seed, check id, case
index), so parallel and serial runs of the same configuration produce
identical reports; the generator bounds are the module constants below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable

from .boolfn import (
    BoolFn,
    and_fn,
    apply_fn,
    fn_compose,
    identity_fn,
    or_fn,
    proj_fn,
)
from .bounded import (
    BlcParams,
    blc,
    blc_compose,
    blc_included,
    blc_is_deterministic,
    blc_symmetric_rf,
    blc_symmetric_usual,
    blc_valid,
    envelope_violation,
    envelopes,
    pattern_input,
    probe_inputs,
)
from .conditions import (
    LimitCondition,
    SearchBudget,
    check_deterministic,
    check_symmetry_rf,
    check_symmetry_usual,
    check_time_invariance,
    lc_join,
    lc_meet,
    lc_meet_set,
    lc_restrict,
    mc,
    sc,
    scf,
    serial,
    serial_membership,
    serial_search,
    sol,
    sol_contains,
)
from .errors import PreconditionViolated, SiglimError, UnknownTheorem
from .inertial import (
    AicParams,
    aic_contains,
    aic_set,
    bailc,
    bailc_compose,
    bailc_nonempty,
    flc,
    search_between,
)
from .signals import (
    Bit,
    MultiSignal,
    Signal,
    constant,
    make_signal,
    pulse,
    signal_leq,
    translate,
    translate_all,
    window_all,
    window_any,
)

CHECK_BUDGET = SearchBudget(max_nodes=160, samples=3)
# for agreement oracles: witnesses come from the stage sample pools and the
# constructed candidates, so it draws more samples
ORACLE_BUDGET = SearchBudget(max_nodes=160, samples=10)


# generator bounds: transitions of a drawn signal, denominator of a drawn
# time, arity of a drawn bound function
MAX_TRANSITIONS = 12
MAX_DENOMINATOR = 8
MAX_DRAW_ARITY = 3
_DRAW_SCALE = 840  # lcm(1, ..., MAX_DENOMINATOR): every drawn time is on its ticks


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    cases: int = 500

    def __post_init__(self) -> None:
        if self.cases < 1:
            raise PreconditionViolated("cases must be at least 1")


DEFAULT_CONFIG = GenConfig()


@dataclass
class TheoremReport:
    theorem_id: str
    cases_run: int
    failures: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"


# --- generators ---------------------------------------------------------------

def _rat(rng: random.Random, lo: int, hi: int) -> Fraction:
    q = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(lo * q, hi * q), q)


def gen_signal(rng: random.Random, max_transitions: int = MAX_TRANSITIONS) -> Signal:
    """Times drawn by `_rat(rng, -8, 24)`'s rng calls, kept as ticks."""
    n = rng.randint(0, max_transitions)
    ticks: set[int] = set()
    while len(ticks) < n:
        q = rng.randint(1, MAX_DENOMINATOR)
        ticks.add(rng.randint(-8 * q, 24 * q) * (_DRAW_SCALE // q))
    return Signal._on(rng.randint(0, 1), _DRAW_SCALE, tuple(sorted(ticks)))


def gen_multisignal(
    m: int, rng: random.Random, max_transitions: int = MAX_TRANSITIONS
) -> MultiSignal:
    return tuple(gen_signal(rng, max_transitions) for _ in range(m))


def gen_boolfn(m: int, rng: random.Random) -> BoolFn:
    return BoolFn(m, tuple(rng.randint(0, 1) for _ in range(1 << m)))


def gen_boolfn_pair_leq(m: int, rng: random.Random) -> tuple[BoolFn, BoolFn]:
    """(f, g) with f <= g pointwise, by masking g down to f."""
    g = gen_boolfn(m, rng)
    f = BoolFn(m, tuple(b & rng.randint(0, 1) for b in g.table))
    return f, g


def gen_blc_params(rng: random.Random) -> BlcParams:
    m_r = _rat(rng, 0, 2)
    m_f = _rat(rng, 0, 2)
    return BlcParams(m_r, m_r + _rat(rng, 0, 2), m_f, m_f + _rat(rng, 0, 2))


def gen_aic_params(rng: random.Random) -> AicParams:
    return AicParams(_rat(rng, 0, 2), _rat(rng, 0, 2))


def _gen_monotone_fn(m: int, rng: random.Random) -> BoolFn:
    table = [rng.randint(0, 1) for _ in range(1 << m)]
    for idx in range(1 << m):
        for bit in range(m):
            if not idx & (1 << bit):
                table[idx | (1 << bit)] |= table[idx]
    return BoolFn(m, tuple(table))


def _gen_valid_blc(m: int, rng: random.Random) -> tuple[BoolFn, BoolFn, BlcParams]:
    for _ in range(80):
        f, g = gen_boolfn_pair_leq(m, rng)
        p = gen_blc_params(rng)
        if blc_valid(f, g, p):
            return f, g, p
    h = identity_fn() if m == 1 else proj_fn(m, 0)
    return h, h, BlcParams(1, 2, 1, 2)


def _gen_overlap_params(rng: random.Random) -> BlcParams:
    """Parameters whose look-back windows overlap, hence valid for any f <= g."""
    m_r = _rat(rng, 0, 2)
    m_f = _rat(rng, 0, 2)
    d_r = m_r + _rat(rng, 0, 2)
    lo = max(m_f, d_r - m_r)
    d_f = lo + min(_rat(rng, 0, 2), m_r + d_r - lo) if m_r + d_r >= lo else None
    if d_f is None or not (d_r - m_r <= d_f and d_f - m_f <= d_r):
        return BlcParams(m_r, d_r, m_r, d_r)
    return BlcParams(m_r, d_r, m_f, d_f)


def _gen_discriminating_pair(m: int, rng: random.Random) -> tuple[BoolFn, BoolFn]:
    """f <= g with max f = 1 and min g = 0 (the non-separated shape)."""
    for _ in range(60):
        f, g = gen_boolfn_pair_leq(m, rng)
        if max(f.table) == 1 and min(g.table) == 0:
            return f, g
    h = identity_fn() if m == 1 else proj_fn(m, 0)
    return h, h


def _params_for(rng: random.Random, f: BoolFn, g: BoolFn) -> BlcParams:
    for _ in range(80):
        p = gen_blc_params(rng)
        if blc_valid(f, g, p):
            return p
    return _gen_overlap_params(rng)


def _member_or_random(i, u: MultiSignal, rng: random.Random) -> Signal:
    if rng.random() < 0.5:
        try:
            xs = i.sample(u, 2, rng.randint(0, 1 << 20))
            return xs[rng.randrange(len(xs))]
        except SiglimError:
            pass
    return gen_signal(rng)


def _canonical_failure(y: Signal) -> str | None:
    try:
        z = make_signal(y.initial, list(y.transitions))
    except SiglimError as e:
        return str(e)
    if z != y:
        return f"non-canonical output {y!r}"
    return None


# --- checks -------------------------------------------------------------------

def _chk_1_9(rng: random.Random) -> str | None:
    m = rng.randint(1, MAX_DRAW_ARITY)
    u = gen_multisignal(m, rng)
    f = gen_boolfn(m, rng)
    d = _rat(rng, -3, 5)
    w = _rat(rng, 0, 4)
    mw = min(_rat(rng, 0, 4), w)
    outs = [
        ("translate", translate(u[0], d)),
        ("apply_fn", apply_fn(f, u)),
        ("window_all", window_all(u[0], w, mw)),
        ("window_any", window_any(u[0], w, mw)),
    ]
    for name, y in outs:
        bad = _canonical_failure(y)
        if bad:
            return f"{name} on {u[0]!r}: {bad}"
    return None


def _chk_2_4a(rng: random.Random) -> str | None:
    m = rng.randint(1, MAX_DRAW_ARITY)
    f = gen_boolfn(m, rng)
    u = gen_multisignal(m, rng)
    i, s = scf(f), sc()
    fu = apply_fn(f, u)
    xs = [gen_signal(rng)] + i.sample(u, 2, rng.randint(0, 1 << 20))
    for x in xs:
        if i.contains(u, x) != s.contains((fu,), x):
            return f"f={f.bits()} u={u!r} x={x!r}"
    return None


def _chk_2_4b(rng: random.Random) -> str | None:
    m = rng.randint(2, MAX_DRAW_ARITY)
    v = gen_signal(rng)
    i, s = mc(m), sc()
    same = (v,) * m
    xs = [gen_signal(rng)] + i.sample(same, 2, rng.randint(0, 1 << 20))
    for x in xs:
        if i.contains(same, x) != s.contains((v,), x):
            return f"equal-inputs case: v={v!r} x={x!r}"
    u = gen_multisignal(m, rng)
    p = rng.randrange(m)
    for x in s.sample((u[p],), 2, rng.randint(0, 1 << 20)):
        if s.contains((u[p],), x) == 1 and i.contains(u, x) != 1:
            return f"inclusion case: u={u!r} p={p} x={x!r}"
    return None


def _chk_2_4c(rng: random.Random) -> str | None:
    m = rng.randint(2, MAX_DRAW_ARITY)
    land, lor = and_fn(m), or_fn(m)
    table = []
    for a in land.inputs():
        lo_b, hi_b = land(*a), lor(*a)
        table.append(lo_b if lo_b == hi_b else rng.randint(0, 1))
    f = BoolFn(m, tuple(table))
    for a in f.inputs():
        if not land(*a) <= f(*a) <= lor(*a):
            return f"hypothesis violated at {a} for f={f.bits()}"
    i, j = scf(f), mc(m)
    u = gen_multisignal(m, rng)
    xs = i.sample(u, 2, rng.randint(0, 1 << 20)) + [gen_signal(rng)]
    for x in xs:
        if i.contains(u, x) == 1 and j.contains(u, x) != 1:
            return f"f={f.bits()} u={u!r} x={x!r}"
    return None


def _chk_3_4(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g, p = _gen_valid_blc(m, rng)
    i = sol(f, g)
    j = blc(f, g, p)
    both = lc_meet(j, i)
    either = lc_join(i, j)
    u = gen_multisignal(m, rng, 6)
    seed = rng.randint(0, 1 << 20)
    xs = [gen_signal(rng)] + both.sample(u, 2, seed) + either.sample(u, 2, seed)
    for x in xs:
        want_meet = i.contains(u, x) & j.contains(u, x)
        want_join = i.contains(u, x) | j.contains(u, x)
        if both.contains(u, x) != want_meet:
            return f"meet mismatch at u={u!r} x={x!r}"
        if either.contains(u, x) != want_join:
            return f"join mismatch at u={u!r} x={x!r}"
    for x in both.sample(u, 2, seed) + either.sample(u, 2, seed):
        src = both if both.contains(u, x) else either
        if src.contains(u, x) and not sol_contains(f, g, u, x):
            return f"member escapes the eventual sandwich: u={u!r} x={x!r}"
    msum = p.m_r + p.m_f
    a = AicParams(msum / 4, msum / 4)
    mv = lc_meet_set(j, aic_set(a))
    for x in mv.sample(u, 2, seed):
        if not (j.contains(u, x) and aic_contains(x, a)):
            return f"set-meet member fails a component: u={u!r} x={x!r}"
    return None


def _chk_3_5(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    if rng.random() < 0.5:
        f, g, p = _gen_valid_blc(m, rng)
        i = blc(f, g, p)
    else:
        i = flc(gen_boolfn(m, rng), _rat(rng, 0, 3))
    u = gen_multisignal(m, rng)
    x = _member_or_random(i, u, rng)
    d = _rat(rng, 0, 4)
    if check_time_invariance(i, u, x, d) != 1:
        return f"kind={i.kind} u={u!r} x={x!r} d={d}"
    return None


def _chk_3_10(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f = _gen_monotone_fn(m, rng)
    g = BoolFn(m, tuple(b | rng.randint(0, 1) for b in f.table))
    arities = [rng.randint(1, 2) for _ in range(m)]
    inner = [gen_boolfn_pair_leq(n, rng) for n in arities]
    F = fn_compose(f, [fi for fi, _ in inner])
    G = fn_compose(g, [gi for _, gi in inner])
    for a in F.inputs():
        if F(*a) > G(*a):
            return f"monotone lower bound failed to order the composed bounds at {a}"
    i = sol(f, g)
    js = [sol(fi, gi) for fi, gi in inner]
    k = serial(i, js)
    u = gen_multisignal(sum(arities), rng, 6)
    for x in k.sample(u, 2, rng.randint(0, 1 << 20)):
        if not sol_contains(F, G, u, x):
            return f"chain member outside the composed sandwich: u={u!r} x={x!r}"
    d, d2 = _rat(rng, 0, 2), _rat(rng, 0, 2)
    k2 = serial(flc(f, d), [flc(fi, d2) for fi, _ in inner])
    if check_deterministic(k2, [u], CHECK_BUDGET) != 1:
        return f"deterministic stages produced a non-deterministic chain: u={u!r}"
    return None


def _chk_3_12(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g, p = _gen_valid_blc(m, rng)
    j = sol(f, g)
    i = blc(f, g, p)
    i2 = blc(f, g, _gen_overlap_params(rng))
    hs = [gen_boolfn(1, rng) for _ in range(m)]
    d2 = _rat(rng, 0, 2)
    d3 = _rat(rng, 0, 2)
    ks = [flc(h, d2) for h in hs]
    ls = [flc(h, d3) for h in hs]
    u = gen_multisignal(m, rng, 6)
    ys = tuple(k.sample((u[q],), 1, 0)[0] for q, k in enumerate(ks))
    seed = rng.randint(0, 1 << 20)
    xs = [gen_signal(rng)] + i.sample(ys, 2, seed)

    searches = {}  # one per chain: every output shares the input u

    def bit(outer, inners, x):
        key = (outer, *inners)
        if key not in searches:
            searches[key] = serial_search(outer, inners, u, CHECK_BUDGET, seed)
        return searches[key](x)[0]

    a = AicParams(_rat(rng, 0, 1), _rat(rng, 0, 1))
    V = aic_set(a)
    iv = lc_meet_set(i, V)
    ir = lc_restrict(i, [V] * m)
    kv = [lc_meet_set(k, V) for k in ks]
    kl_meet = [lc_meet(k, l) for k, l in zip(ks, ls)]
    union_in = [lc_join(k, l) for k, l in zip(ks, ls)]
    join_out = lc_join(i, i2)
    meet_out = lc_meet(i, i2)

    for x in xs:
        b_i, b_i2, b_j = bit(i, ks, x), bit(i2, ks, x), bit(j, ks, x)
        if b_i > b_j:
            return f"outer monotonicity: u={u!r} x={x!r}"
        b_k, b_l = b_i, bit(i, ls, x)
        if bit(i, kv, x) > b_k:
            return f"inner monotonicity: u={u!r} x={x!r}"
        if bit(iv, ks, x) != (b_i & V.contains(x)):
            return f"meet-set law: u={u!r} x={x!r}"
        if bit(i, kv, x) != bit(ir, ks, x):
            return f"restriction law: u={u!r} x={x!r}"
        if bit(meet_out, ks, x) > (b_i & b_i2):
            return f"outer-meet inclusion: u={u!r} x={x!r}"
        if bit(i, kl_meet, x) > (b_k & b_l):
            return f"inner-meet inclusion: u={u!r} x={x!r}"
        if bit(join_out, ks, x) != (b_i | b_i2):
            return f"outer-join law: u={u!r} x={x!r}"
        if bit(i, union_in, x) < (b_k | b_l):
            return f"inner-join inclusion: u={u!r} x={x!r}"
    return None


def _chk_4_1(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    if rng.random() < 0.5:
        f, g = gen_boolfn_pair_leq(m, rng)
        p = _gen_overlap_params(rng)
        if not blc_valid(f, g, p):
            return f"overlap construction judged invalid: p={p}"
        for s in range(10):
            u = gen_multisignal(m, rng, 6)
            lo, hi = envelopes(f, g, p, u)
            if not signal_leq(lo, hi):
                return f"valid params but lower exceeds upper: p={p} u={u!r}"
    else:
        f, g = _gen_discriminating_pair(m, rng)
        m_r, m_f = _rat(rng, 0, 2), _rat(rng, 0, 2)
        d_f = m_f + _rat(rng, 0, 2)
        p = BlcParams(m_r, m_r + m_f + d_f + 1, m_f, d_f)
        if blc_valid(f, g, p):
            return f"construction failed to produce invalid params: p={p}"
        found = envelope_violation(f, g, p)
        if found is None:
            return f"no envelope violation found: f={f.bits()} g={g.bits()} p={p}"
        u, t = found
        lo, hi = envelopes(f, g, p, u)
        if not (lo.value_at(t) == 1 and hi.value_at(t) == 0):
            return f"reported violation does not verify: u={u!r} t={t}"
    return None


def _chk_4_3(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g, p = _gen_valid_blc(m, rng)
    if rng.random() < 0.3:
        p = BlcParams(0, p.d_r, 0, p.d_r)
    if rng.random() < 0.3:
        g = f
    if not blc_valid(f, g, p):
        return None
    det, d = blc_is_deterministic(f, g, p)
    i = blc(f, g, p)
    us = probe_inputs(f, g, p) + [gen_multisignal(m, rng, 6)]
    searched = check_deterministic(i, us, CHECK_BUDGET)
    if searched != det:
        return f"criterion {det} vs search {searched}: f={f.bits()} g={g.bits()} p={p}"
    if det and d is not None:
        for u in us:
            lo, hi = envelopes(f, g, p, u)
            want = apply_fn(f, translate_all(u, d))
            if lo != want or hi != want:
                return f"deterministic case envelopes differ from the delay output: u={u!r}"
    return None


def _chk_4_4(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    if rng.random() < 0.5:
        f, g, p = _gen_valid_blc(m, rng)
        f2 = BoolFn(m, tuple(b & rng.randint(0, 1) for b in f.table))
        g2 = BoolFn(m, tuple(b | rng.randint(0, 1) for b in g.table))
        e_d = _rat(rng, 0, 1)
        slack = min(p.d_r - p.m_r, p.d_f - p.m_f)
        e_m = e_d + min(_rat(rng, 0, 1), slack)
        p2 = BlcParams(p.m_r + e_m, p.d_r + e_d, p.m_f + e_m, p.d_f + e_d)
    else:
        f, g, p = _gen_valid_blc(m, rng)
        f2, g2 = gen_boolfn_pair_leq(m, rng)
        p2 = gen_blc_params(rng)
    if not (blc_valid(f, g, p) and blc_valid(f2, g2, p2)):
        return None
    inc = blc_included(f, g, p, f2, g2, p2)
    narrow, wide = blc(f, g, p), blc(f2, g2, p2)
    if inc:
        us = probe_inputs(f, g, p) + [gen_multisignal(m, rng, 6)]
        for u in us:
            lo, hi = envelopes(f, g, p, u)
            for x in (lo, hi, *narrow.sample(u, 2, rng.randint(0, 1 << 20))):
                if narrow.contains(u, x) and not wide.contains(u, x):
                    return f"inclusion criterion true but member escapes: u={u!r} x={x!r}"
        return None
    cands: list[tuple[MultiSignal, Signal]] = []
    for a in f.inputs():
        u = tuple(constant(b) for b in a)
        lo, hi = envelopes(f, g, p, u)
        cands += [(u, lo), (u, hi)]
    width = p.m_r + p.m_f + p2.m_r + p2.m_f + 1
    ones_f2 = [a for a in f2.inputs() if f2(*a) == 1]
    zeros_f = [a for a in f.inputs() if f(*a) == 0]
    if ones_f2 and zeros_f:
        u = pattern_input(m, zeros_f[0], ones_f2[0], pulse(0, width))
        cands.append((u, envelopes(f, g, p, u)[0]))
    ones_g = [a for a in g.inputs() if g(*a) == 1]
    zeros_g2 = [a for a in g2.inputs() if g2(*a) == 0]
    if ones_g and zeros_g2:
        u = pattern_input(m, zeros_g2[0], ones_g[0], pulse(0, width))
        cands.append((u, envelopes(f, g, p, u)[1]))
    for u, x in cands:
        if narrow.contains(u, x) and not wide.contains(u, x):
            return None
    return (f"inclusion criterion false but no witness found: "
            f"f={f.bits()} g={g.bits()} p={p} f'={f2.bits()} g'={g2.bits()} p'={p2}")


def _chk_4_5(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g, p = _gen_valid_blc(m, rng)
    i = blc(f, g, p)
    u = gen_multisignal(m, rng)
    x = _member_or_random(i, u, rng)
    d = _rat(rng, 0, 4)
    if check_time_invariance(i, u, x, d) != 1:
        return f"f={f.bits()} g={g.bits()} p={p} u={u!r} x={x!r} d={d}"
    return None


def _chk_4_6(rng: random.Random) -> str | None:
    m = rng.randint(2, 3)
    if rng.random() < 0.25:
        f, g = and_fn(m), or_fn(m)
    else:
        f, g = gen_boolfn_pair_leq(m, rng)
    p = _params_for(rng, f, g)
    i = blc(f, g, p)
    crit = blc_symmetric_usual(f, g)
    if crit:
        sigma = list(rng.sample(range(m), m))
        u = gen_multisignal(m, rng, 6)
        x = _member_or_random(i, u, rng)
        if check_symmetry_usual(i, u, x, sigma) != 1:
            return f"symmetric fns but behaviour differs: sigma={sigma} u={u!r} x={x!r}"
        return None
    for sigma in permutations(range(m)):
        for a in f.inputs():
            aperm = tuple(a[sigma[q]] for q in range(m))
            for h, c in ((f, 0), (g, 1)):
                if h(*a) != h(*aperm):
                    u = tuple(constant(b) for b in a)
                    x = constant(c)
                    if check_symmetry_usual(i, u, x, list(sigma)) == 0:
                        return None
    return f"asymmetric fns but no behavioural witness: f={f.bits()} g={g.bits()}"


def _chk_4_7(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    if rng.random() < 0.3 and m == 2:
        f, g = and_fn(2), or_fn(2)
    else:
        f, g = gen_boolfn_pair_leq(m, rng)
    p = _params_for(rng, f, g)
    if rng.random() < 0.3:
        # matching the two sides keeps validity: the overlap inequalities
        # become d - m <= d on both sides
        p = BlcParams(p.m_r, p.d_r, p.m_r, p.d_r)
    crit = blc_symmetric_rf(f, g, p)
    i = blc(f, g, p)
    if crit:
        u = gen_multisignal(m, rng, 6)
        x = _member_or_random(i, u, rng)
        if check_symmetry_rf(i, u, x) != 1:
            return f"criterion true but behaviour differs: u={u!r} x={x!r}"
        return None
    if min(f.table) == max(f.table) == 0 and min(g.table) == max(g.table) == 1:
        # membership is identically true here, so behavioural asymmetry
        # cannot be observed; the criterion is vacuously conservative
        return None
    for a in f.inputs():
        u = tuple(constant(b) for b in a)
        for c in (0, 1):
            if check_symmetry_rf(i, u, constant(c)) == 0:
                return None
    widths = [p.m_r + Fraction(1, 2), p.m_r + 1, p.m_f + Fraction(1, 2),
              p.m_f + 1, p.m_r + p.m_f + 1]
    shapes = [pulse(0, w) for w in widths if w > 0]
    shapes.append(make_signal(0, [(Fraction(0), 1)]))
    pairs = [(a1, a0) for a1 in f.inputs() if f(*a1) == 1
             for a0 in g.inputs() if g(*a0) == 0]
    if not pairs:
        pairs = [(a, tuple(1 - b for b in a)) for a in f.inputs()]
    for a1, a0 in pairs:
        for s in shapes:
            u = pattern_input(m, a0, a1, s)
            lo, hi = envelopes(f, g, p, u)
            flipped = tuple(~up for up in u)
            lof, hif = envelopes(f, g, p, flipped)
            for x in (lo, hi, ~lof, ~hif):
                if check_symmetry_rf(i, u, x) == 0:
                    return None
    return f"criterion false but no behavioural witness: f={f.bits()} g={g.bits()} p={p}"


def _fn_menu(m: int, rng: random.Random) -> tuple[BoolFn, BoolFn]:
    """A pair f <= g that distributes over the window operators, built alone."""
    q = rng.randrange(m)
    pick = rng.randrange(5 if m == 1 else 4)
    if pick == 4:
        return identity_fn(), identity_fn()
    return (and_fn(m) if pick in (0, 2) else proj_fn(m, q),
            or_fn(m) if pick in (0, 3) else proj_fn(m, q))


def _chk_4_8(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g = _fn_menu(m, rng)
    arities = [1] * m if m > 1 else [rng.randint(1, 2)]
    inner = [gen_boolfn_pair_leq(n, rng) for n in arities]
    p = _gen_overlap_params(rng)
    p2 = _gen_overlap_params(rng)
    try:
        composed = blc_compose(f, g, p, inner, p2)
    except SiglimError as e:
        return f"closed form rejected a conforming instance: {e}"
    if composed.params != p + p2:
        return f"composed parameters {composed.params} differ from {p + p2}"
    u = gen_multisignal(sum(arities), rng, 6)
    x = _member_or_random(composed, u, rng)
    outer = blc(f, g, p)
    inners = [blc(fi, gi, p2) for fi, gi in inner]
    cbit = composed.contains(u, x)
    obit, exhausted = serial_membership(outer, inners, u, x, ORACLE_BUDGET,
                                        rng.randint(0, 1 << 20))
    if cbit != obit:
        if cbit == 1 and exhausted:
            return None  # budget-cut search: the 0 is a semi-decision, no verdict
        return (f"closed form {cbit} vs search {obit} (exhausted={exhausted}): "
                f"f={f.bits()} g={g.bits()} p={p} p'={p2} u={u!r} x={x!r}")
    return None


def _chk_5_2(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    h = gen_boolfn(m, rng)
    arities = [rng.randint(1, 2) for _ in range(m)]
    hs = [gen_boolfn(n, rng) for n in arities]
    d, d2 = _rat(rng, 0, 3), _rat(rng, 0, 3)
    k = serial(flc(h, d), [flc(hp, d2) for hp in hs])
    if k.kind != "flc":
        return f"chain of fixed delays did not close: kind={k.kind}"
    H = fn_compose(h, hs)
    if k.delay != d + d2 or k.fn.table != H.table:
        return f"closed form carries fn={k.fn.bits()} delay={k.delay}"
    u = gen_multisignal(sum(arities), rng)
    want = apply_fn(H, translate_all(u, d + d2))
    if k.sample(u, 1, 0)[0] != want:
        return f"chain output differs at u={u!r}"
    if k.contains(u, want) != 1 or k.contains(u, ~want) != 0:
        return f"membership of the chain is wrong at u={u!r}"
    return None


def _feasible_aic(p: BlcParams, rng: random.Random) -> AicParams:
    msum = p.m_r + p.m_f
    if msum == 0:
        return AicParams(0, 0)
    cut = msum * Fraction(rng.randint(0, 8), 8)
    split = Fraction(rng.randint(0, 4), 4)
    return AicParams(cut * split, cut * (1 - split))


def _chk_6_3(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    f, g = _gen_discriminating_pair(m, rng)
    p = _gen_overlap_params(rng)
    a = _feasible_aic(p, rng)
    i = blc(f, g, p)
    combined = bailc(f, g, p, a)
    met = lc_meet_set(i, aic_set(a))
    u = gen_multisignal(m, rng, 6)
    seed = rng.randint(0, 1 << 20)
    lo, hi = envelopes(f, g, p, u)
    xs = [gen_signal(rng), lo, hi] + combined.sample(u, 2, seed) + met.sample(u, 2, seed)
    for x in xs:
        if met.contains(u, x) != combined.contains(u, x):
            return f"meet and combined model disagree: u={u!r} x={x!r}"
        if combined.contains(u, x) and not (i.contains(u, x) and aic_contains(x, a)):
            return f"combined member fails a component: u={u!r} x={x!r}"
    return None


def _square_wave_input(
    f: BoolFn, g: BoolFn, p: BlcParams, a: AicParams
) -> MultiSignal | None:
    """Input on which no output can satisfy both envelopes and the dwells.

    Alternates between a point where the lower bound demands 1 and one where
    the upper bound demands 0, with on/off widths leaving less room per period
    than the dwell times require; the deficit accumulates over enough periods
    to exclude every placement of the forced edges.
    """
    eta = (a.delta_r + a.delta_f - p.m_r - p.m_f) / 3
    if eta <= 0:
        return None
    ones = [av for av in f.inputs() if f(*av) == 1]
    zeros = [av for av in g.inputs() if g(*av) == 0]
    if not ones or not zeros:
        return None
    w, v = p.m_r + eta, p.m_f + eta
    slack = max(p.d_r - p.d_f + p.m_f, p.d_f - p.d_r + p.m_r, Fraction(0))
    k = min(12, int(math.ceil(slack / eta)) + 2)
    pieces = []
    for q in range(k):
        start = q * (w + v)
        pieces += [(start, 1), (start + w, 0)]
    s = make_signal(0, pieces)
    return pattern_input(f.arity, zeros[0], ones[0], s)


def _chk_6_4(rng: random.Random) -> str | None:
    m = rng.randint(1, 2)
    if rng.random() < 0.15:
        f = BoolFn(m, (0,) * (1 << m))
        g = BoolFn(m, tuple(rng.randint(0, 1) for _ in range(1 << m)))
    else:
        f, g = _gen_discriminating_pair(m, rng)
    separated = max(f.table) <= min(g.table)
    if rng.random() < 0.5 or separated:
        p = _gen_overlap_params(rng)
        a = _feasible_aic(p, rng) if not separated else gen_aic_params(rng)
        if bailc_nonempty(f, g, p, a) != 1:
            return f"criterion rejected a feasible instance: p={p} a={a}"
        u = gen_multisignal(m, rng, 6)
        x = search_between(*envelopes(f, g, p, u), a, rng.randint(0, 1 << 20))
        if x is None:
            return f"criterion true but search failed: f={f.bits()} g={g.bits()} p={p} a={a} u={u!r}"
    else:
        m_r, m_f = _rat(rng, 0, 2), _rat(rng, 0, 2)
        d = max(m_r, m_f) + _rat(rng, 0, 2)
        p = BlcParams(m_r, d, m_f, d)
        msum = p.m_r + p.m_f
        eta = Fraction(rng.randint(1, 4), 4)
        dsum = msum + 3 * eta
        dr = dsum * Fraction(rng.randint(1, 3), 4)
        a = AicParams(dr, dsum - dr)
        if bailc_nonempty(f, g, p, a) != 0:
            return f"criterion accepted an infeasible instance: p={p} a={a}"
        u = _square_wave_input(f, g, p, a)
        if u is None:
            return f"no forcing input constructed for p={p} a={a}"
        x = search_between(*envelopes(f, g, p, u), a)
        if x is not None:
            return (f"criterion false but search produced a witness: "
                    f"f={f.bits()} g={g.bits()} p={p} a={a} x={x!r}")
    return None


@dataclass(frozen=True)
class _DwellChain:
    """One instance of laws 6.6 and 6.6s: a bailc chain with shared inner
    parameters, its summed-parameter form and a query drawn from that form."""

    outer: LimitCondition
    inners: list[LimitCondition]
    composed: LimitCondition
    a2: AicParams
    u: MultiSignal
    x: Signal
    seed: int

    @property
    def detail(self) -> str:  # built only for a failure
        o, p2 = self.outer, self.inners[0].params
        return (f"f={o.f.bits()} g={o.g.bits()} p={o.params} a={o.aic} p'={p2} a'={self.a2} "
                f"u={self.u!r} x={self.x!r}")


def _draw_dwell_chain(rng: random.Random, zero_inner: bool = False) -> _DwellChain | str:
    """The instance, or the reason the summed form rejected it.

    zero_inner replaces the inner dwell with AicParams(0, 0), the exact case,
    after it is drawn, so the rng is consumed as without it."""
    m = 1 if rng.random() < 0.7 else 2
    f, g = _fn_menu(m, rng)
    inner = [gen_boolfn_pair_leq(1, rng) for _ in range(m)]
    p = _gen_overlap_params(rng)
    p2 = _gen_overlap_params(rng)
    a = _feasible_aic(p, rng)
    a2 = _feasible_aic(p2, rng)
    if zero_inner:
        a2 = AicParams(0, 0)
    try:
        composed = bailc_compose(f, g, p, a, inner, p2, a2)
    except SiglimError as e:
        return f"closed form rejected a conforming instance: {e}"
    if composed.params != p + p2 or composed.aic != a:
        return "composed parameters are not the summed windows with the outer dwell"
    u = gen_multisignal(m, rng, 4)
    x = _member_or_random(composed, u, rng)
    outer = bailc(f, g, p, a)
    inners = [bailc(fi, gi, p2, a2) for fi, gi in inner]
    return _DwellChain(outer, inners, composed, a2, u, x, rng.randint(0, 1 << 20))


def _dwell_chain_bits(c: _DwellChain) -> tuple[Bit, Bit, bool]:
    """Summed-form bit, search bit and whether the budget cut the search."""
    obit, exhausted = serial_membership(c.outer, c.inners, c.u, c.x, ORACLE_BUDGET, c.seed)
    return c.composed.contains(c.u, c.x), obit, exhausted


def _chk_6_6(rng: random.Random) -> str | None:
    c = _draw_dwell_chain(rng)
    if isinstance(c, str):
        return c
    cbit, obit, exhausted = _dwell_chain_bits(c)
    if cbit != obit:
        if cbit == 1 and exhausted:
            return None  # budget-cut search: the 0 is a semi-decision, no verdict
        return f"closed form {cbit} vs search {obit} (exhausted={exhausted}): {c.detail}"
    return None


def _chk_6_6s(rng: random.Random) -> str | None:
    # half the instances take zero inner dwell, so the exact case is not rare
    c = _draw_dwell_chain(rng, zero_inner=rng.random() < 0.5)
    if isinstance(c, str):
        return c
    k = serial(c.outer, c.inners)
    summed = (k.kind == "bailc" and k.f.table == c.composed.f.table
              and k.g.table == c.composed.g.table
              and k.params == c.composed.params
              and k.aic == c.composed.aic)
    exact = c.a2 == AicParams(0, 0)
    if summed != exact:
        return f"serial() gave kind={k.kind} summed={summed} for inner dwell {c.a2}: {c.detail}"
    cbit, obit, exhausted = _dwell_chain_bits(c)
    if obit > cbit:
        return f"search found a chain member the summed form rejects: {c.detail}"
    if exact and cbit != obit and not exhausted:
        return f"closed form {cbit} vs search {obit} (exhausted={exhausted}): {c.detail}"
    return None


# --- registry -----------------------------------------------------------------

Check = Callable[[random.Random], "str | None"]

_REGISTRY: dict[str, tuple[str, Check]] = {
    "1.9": ("signal operations return canonical finite signals", _chk_1_9),
    "2.4a": ("function-induced settling equals settling of the mapped input", _chk_2_4a),
    "2.4b": ("equal inputs reduce multi-way settling to plain settling", _chk_2_4b),
    "2.4c": ("functions between AND and OR refine the multi-way settling", _chk_2_4c),
    "3.4": ("meets and joins of models keep the membership contract", _chk_3_4),
    "3.5": ("time-invariant models decide shifted queries identically", _chk_3_5),
    "3.10": ("serial chains exist under a monotone bound and stay bounded", _chk_3_10),
    "3.12": ("serial connection is monotone and respects meets, joins, restrictions", _chk_3_12),
    "4.1": ("window validity criterion matches the envelope order", _chk_4_1),
    "4.3": ("window determinism criterion matches the two-witness search", _chk_4_3),
    "4.4": ("window inclusion criterion matches the membership implication", _chk_4_4),
    "4.5": ("window-bounded models are time invariant", _chk_4_5),
    "4.6": ("permutation-symmetry criterion matches behaviour", _chk_4_6),
    "4.7": ("rise-fall symmetry criterion matches behaviour", _chk_4_7),
    "4.8": ("closed-form window composition agrees with the search oracle", _chk_4_8),
    "5.2": ("fixed-delay chains close into a single fixed delay", _chk_5_2),
    "6.3": ("set-meet with the dwell set equals the combined model", _chk_6_3),
    "6.4": ("dwell-feasibility criterion agrees with the witness search", _chk_6_4),
    "6.6": ("summed dwell composition agrees with the search oracle for every "
            "inner dwell (refuted: fails at seed 42)", _chk_6_6),
    "6.6s": ("serial() sums dwell chains only for zero inner dwell, where the "
             "summed form agrees with the search oracle", _chk_6_6s),
}


def theorem_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def describe(theorem_id: str) -> str:
    if theorem_id not in _REGISTRY:
        raise UnknownTheorem(f"no check registered under {theorem_id!r}")
    return _REGISTRY[theorem_id][0]


def register_check(theorem_id: str, description: str, check: Check) -> None:
    """Add or replace a check; used by the harness self-test."""
    _REGISTRY[theorem_id] = (description, check)


def unregister_check(theorem_id: str) -> None:
    del _REGISTRY[theorem_id]


def replay_case(theorem_id: str, cfg: GenConfig, case: int) -> str | None:
    """Run one case under its sub-seed; the detail is None when it passes.

    A library error raised by the check is reported as the case's detail.
    """
    if theorem_id not in _REGISTRY:
        raise UnknownTheorem(f"no check registered under {theorem_id!r}")
    _, check = _REGISTRY[theorem_id]
    try:
        return check(random.Random(f"{cfg.seed}:{theorem_id}:{case}"))
    except SiglimError as e:
        return f"unexpected error {type(e).__name__}: {e}"


def run_theorem(theorem_id: str, cfg: GenConfig | None = None) -> TheoremReport:
    cfg = cfg or DEFAULT_CONFIG
    describe(theorem_id)  # an unknown id raises even with zero cases
    report = TheoremReport(theorem_id, cfg.cases)
    for k in range(cfg.cases):
        detail = replay_case(theorem_id, cfg, k)
        if detail is not None:
            report.failures.append(f"case {k}: {detail}")
    return report
