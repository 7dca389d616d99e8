"""The serial witness search's grids and candidate streams, its ternary
bounds, and its answers.

The grids are built as integer ticks; the Fraction versions below are the
definitions they must reproduce, point for point.  The grid candidate stream
is the Fraction definition's, unfiltered: the stage's predicate is its only
filter, so it admits none outside the stage's envelopes, and leaving those
out first must give the same members.  The dwell search is exact, so the dwell DFS it replaced
is an oracle one way: wherever the DFS finds a witness, so must it.  The
bounds are checked one way too: no member a sampler draws, and no output
the search finds a witness for, may lie outside them.
A fixed corpus of chains pins what the search answers under the default
budget, the one `siglim check` runs on serial documents.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from oracles import dwell_dfs_oracle, sample_first_answer

from siglim import (
    AicParams, BlcParams, SearchBudget, Signal, SiglimError, bailc, blc, breakpoints, constant, flc,
    aic_set, first_one_time, lc_join, lc_meet, lc_restrict, make_signal, pulse, serial,
    serial_membership, signal_between, signal_leq, sol, values_along,
)
from siglim import props
from siglim.boolfn import and_fn, identity_fn, or_fn
from siglim.conditions import (
    DEFAULT_BUDGET, LimitCondition, Serial, _clamp, _composed_bounds, _distinct_members,
    _grid_candidates, _grid_times, _rng, serial_search,
)
from siglim.errors import EmptyMeet
from siglim.inertial import aic_contains, aic_violation, search_between
from siglim.props import (
    CHECK_BUDGET, ORACLE_BUDGET, _feasible_aic, _gen_overlap_params, _rat, gen_boolfn,
    gen_boolfn_pair_leq, gen_multisignal, gen_signal,
)


def grid_times_oracle(base, deltas):
    """The candidate grid on Fractions: time 0, the breakpoints and their
    shifts by every delta both ways; first 64."""
    times = set(base) | {F(0)}
    for d in deltas | {-d for d in deltas}:
        times |= {t + d for t in base}
    return sorted(times)[:64]


def grid_candidates_oracle(blk, x, deltas, max_nodes):
    """Steps at each grid time, then pulses on each pair of grid times,
    until more than 4 * max_nodes candidates were made."""
    grid = grid_times_oracle(breakpoints(*blk, x), deltas)
    out = [s for t in grid for s in (Signal(0, [(t, 1)]), Signal(1, [(t, 0)]))]
    for t1, t2 in combinations(grid, 2):
        out += [Signal(0, [(t1, 1), (t2, 0)]), Signal(1, [(t1, 0), (t2, 1)])]
        if len(out) > 4 * max_nodes:
            break
    return out


def dwell_grid_oracle(lo, hi, a):
    """The dwell DFS's grid on Fractions: every envelope breakpoint, then
    the earliest of their dwell shifts, 96 points in all at most."""
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
    scale, ticks = _grid_times(signals, deltas)
    assert [F(t, scale) for t in ticks] == grid_times_oracle(breakpoints(*signals), deltas)


def _dwell_case(seed):
    """(lo, hi, a): ordered envelopes with up to 16 breakpoints and dwells."""
    rng = random.Random(f"dwell-dfs:{seed}")
    lo = _signal(rng, rng.randint(0, 8), (1, 2, 4))
    hi = lo | _signal(rng, rng.randint(0, 8), (1, 2, 3))
    return lo, hi, AicParams(_time(rng, (1, 2, 4), 2), _time(rng, (1, 3, 5), 2))


# the small budgets cut the pass short before its witness or its end
DWELL_NODES = (1, 3, 10, 30, 2000)


def _dwell_answers(seed):
    """The Fraction DFS's answers for each budget and draw seed."""
    lo, hi, a = _dwell_case(seed)
    grid = dwell_grid_oracle(lo, hi, a)
    bounds = values_along((lo, hi), [grid[0] - 1] + grid) if grid else []
    out = []
    for max_nodes in DWELL_NODES:
        for draw_seed in range(4):
            if grid:
                rng = _rng(draw_seed, "dwell") if draw_seed else None
                out.append(dwell_dfs_oracle(grid, bounds, a.delta_r, a.delta_f, max_nodes, rng))
            else:
                out.append(Signal(lo.initial))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_tick_dwell_search_matches_the_fraction_oracle(seed):
    # one way: the sweep is exact, and the DFS, on a capped grid within a
    # node budget, may miss a member the sweep finds
    lo, hi, a = _dwell_case(seed)
    if any(want is not None for want in _dwell_answers(seed)):
        for draw_seed in range(4):
            x = search_between(lo, hi, a, seed=draw_seed)
            assert x is not None and signal_between(lo, x, hi) and aic_contains(x, a)


def test_dwell_oracle_cases_find_witnesses_and_are_cut():
    answers = [want for seed in range(40) for want in _dwell_answers(seed)]
    per_case = len(DWELL_NODES) * 4
    found = sum(x is not None for x in answers)
    # a case with a witness at the full budget and none at a smaller one
    cut = sum(any(x is None for x in answers[k:k + per_case])
              and answers[k + per_case - 1] is not None
              for k in range(0, len(answers), per_case))
    assert found > 100 and cut > 10, (found, cut)


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
    # the stage's predicate is the grid stream's only filter: a prefilter
    # to its envelopes would keep every member and leave the cut alone
    model, blk, x, deltas = _prefilter_case(seed)
    lo, hi = model.envelopes(blk)
    admits = model.admits(blk)
    found = _distinct_members(model.sample(blk, 3, seed), admits)
    for max_nodes, cap in PREFILTER_BUDGETS:
        full = list(_grid_candidates(blk, x, deltas, SearchBudget(max_nodes=max_nodes)))
        assert full == grid_candidates_oracle(blk, x, deltas, max_nodes)
        assert all(signal_between(lo, c, hi) for c in full if admits(c))
        kept = [c for c in full if signal_between(lo, c, hi)]
        for start in ((), found):
            assert (_distinct_members(kept, admits, cap, start)
                    == _distinct_members(full, admits, cap, start))


def test_prefilter_cases_reach_the_cut_and_the_cap():
    cut = capped = 0
    for seed in range(30):
        model, blk, x, deltas = _prefilter_case(seed)
        admits = model.admits(blk)
        _, grid = _grid_times((*blk, x), deltas)
        n = len(grid)
        for max_nodes, cap in PREFILTER_BUDGETS:
            full = list(_grid_candidates(blk, x, deltas, SearchBudget(max_nodes)))
            cut += len(full) < n * (n + 1)
            capped += len(_distinct_members(full, admits, cap)) == cap
    assert cut > 10 and capped > 10, (cut, capped)


def _leaf(kind, f, g, rng):
    """A stage of kind blc, bailc or sol with the bound pair (f, g)."""
    if kind == "sol":
        return sol(f, g)
    p = _gen_overlap_params(rng)
    return blc(f, g, p) if kind == "blc" else bailc(f, g, p, _feasible_aic(p, rng))


# a plain stage is drawn three times as often as a meet, a join or a chain
STAGE_KINDS = ("blc", "bailc", "flc", "sol") * 3 + ("meet", "join", "serial")


def _inner_stage(rng, kinds=STAGE_KINDS):
    """A one-input stage: blc, bailc, flc or sol, a meet or join of two of
    them, or a chain of one of them over a fixed delay.

    The chain's inner stage is deterministic, so its membership asks its
    outer stage once; a nondeterministic one would run a whole search for
    each grid candidate that the enclosing search filters through it."""
    kind = rng.choice(kinds)
    if kind == "flc":
        return flc(gen_boolfn(1, rng), _rat(rng, 0, 2))
    f, g = gen_boolfn_pair_leq(1, rng)
    if kind in ("blc", "bailc", "sol"):
        return _leaf(kind, f, g, rng)
    if kind == "serial":
        outer = _inner_stage(rng, ("blc", "bailc", "flc", "sol"))
        return serial(outer, [_inner_stage(rng, ("flc",))])
    i, j = (_leaf(rng.choice(("blc", "bailc", "sol")), f, g, rng) for _ in range(2))
    return (lc_meet if kind == "meet" else lc_join)(i, j)


def chain_corpus(seed, n, transitions=6):
    """n queries (outer, inners, u, x): an outer blc, bailc or sol of arity
    1-2 over one drawn stage per input, an input with up to `transitions`
    transitions per signal, and an output drawn, on every other query, from
    the chain's own sampler, else by `gen_signal`."""
    rng = random.Random(f"corpus:{seed}")
    out = []
    while len(out) < n:
        m = rng.randint(1, 2)
        f, g = gen_boolfn_pair_leq(m, rng)
        try:
            outer = _leaf(rng.choice(("blc", "bailc", "sol")), f, g, rng)
            inners = [_inner_stage(rng) for _ in range(m)]
            chain = serial(outer, inners)
        except SiglimError:
            continue  # composed bounds out of order: no such chain
        u = gen_multisignal(m, rng, transitions)
        xs = []
        if len(out) % 2 == 0:
            try:
                xs = chain.sample(u, 1, rng.randint(0, 1 << 20))
            except SiglimError:
                pass
        out.append((outer, inners, u, xs[0] if xs else gen_signal(rng)))
    return out


def answer_digest(answers):
    """The counts of each (bit, exhausted) answer and a sha256 of their order."""
    counts = Counter(answers)
    text = "".join(f"{bit}{int(exhausted)}" for bit, exhausted in answers)
    return {a: counts[a] for a in sorted(counts)}, hashlib.sha256(text.encode()).hexdigest()


# the default-budget answers to chain_corpus(0, 300); a change to the search
# that moves one of them must say which and why
CORPUS_COUNTS = {(0, False): 87, (0, True): 5, (1, False): 208}
CORPUS_DIGEST = "29bbfe67e5cf7ee5dde37b84a6087c94dc2738670913aed666454464fc06599f"


def test_default_budget_search_answers_are_pinned():
    corpus = chain_corpus(0, 300)
    answers = [serial_membership(outer, inners, u, x) for outer, inners, u, x in corpus]
    assert answer_digest(answers) == (CORPUS_COUNTS, CORPUS_DIGEST)


def test_meet_join_and_restrict_keep_a_parts_budget_cut():
    # the corpus's budget-cut answers, seen through a combinator: a cut
    # part reads as a cut, not a proof, unless another part decides
    decided = set()
    for outer, inners, u, x in chain_corpus(0, 300):
        if serial_membership(outer, inners, u, x) != (0, True):
            continue
        chain = serial(outer, inners)
        loose = sol(chain.f, chain.g)
        sets = [aic_set(AicParams(2, 2))] * len(u)
        assert lc_meet(chain, chain).membership(u, x) == (0, True)
        assert lc_join(chain, chain).membership(u, x) == (0, True)
        assert lc_restrict(chain, [aic_set(AicParams(0, 0))] * len(u)).membership(u, x) == (0, True)
        # the predicates answer None there, and contains reads it as the int 0
        for model in (lc_meet(chain, chain), lc_join(chain, chain),
                      lc_restrict(chain, [aic_set(AicParams(0, 0))] * len(u))):
            assert model.admits(u)(x) is None
            bit = model.contains(u, x)
            assert bit == 0 and type(bit) is int
        # a decisive part 0 decides a meet, a part's 1 a join, and the
        # domain a restriction
        admitted = loose.contains(u, x)
        assert lc_meet(chain, loose).membership(u, x) == ((0, True) if admitted else (0, False))
        assert lc_join(chain, loose).membership(u, x) == ((1, False) if admitted else (0, True))
        assert lc_meet(chain, loose).admits(u)(x) == (None if admitted else 0)
        assert lc_join(chain, loose).admits(u)(x) == (1 if admitted else None)
        inside = all(v.contains(s) for v, s in zip(sets, u))
        assert lc_restrict(chain, sets).membership(u, x) == ((0, True) if inside else (0, False))
        assert lc_restrict(chain, sets).admits(u)(x) == (None if inside else 0)
        decided |= {("sol", admitted), ("domain", inside)}
    assert decided == {("sol", 0), ("sol", 1), ("domain", False), ("domain", True)}


def _case_434():
    """Law 6.6 case 434 at seed 42, and an intermediate signal y that makes
    its output a member of its chain."""
    c = props._draw_dwell_chain(random.Random("42:6.6:434"))
    y = make_signal(0, [(-8, 1), (F(-35, 12), 0), (F(-17, 12), 1), (F(159, 20), 0),
                        (F(261, 28), 1)])
    return c, y


def test_law_6_6_case_434_has_a_witness():
    c, y = _case_434()
    (inner,) = c.inners
    assert inner.contains(c.u, y) == 1
    assert c.outer.contains((y,), c.x) == 1


@pytest.mark.xfail(strict=True, reason="the grid holds no five-transition witness, and its "
                                       "uncut 0 reads as a proof (ROADMAP item 1)")
def test_law_6_6_case_434_search_claims_no_false_proof():
    c, _ = _case_434()
    assert serial_membership(c.outer, c.inners, c.u, c.x, SearchBudget(6000, 10),
                             c.seed) != (0, False)


@pytest.fixture(scope="module")
def lone_stage_corpus():
    """The one-stage queries of chain_corpus(2, 1000): 516 of them."""
    return [q for q in chain_corpus(2, 1000) if len(q[1]) == 1]


# the property suite's budgets, and two whose first pass cannot hold a
# lone stage's samples and candidates (max_nodes 3 is below the cap of 4),
# where asking every admitted candidate first would move 4 and 8 answers
LONE_BUDGETS = {
    "default": DEFAULT_BUDGET, "check": CHECK_BUDGET, "oracle": ORACLE_BUDGET,
    "cut-4-1": SearchBudget(max_nodes=4, samples=1),
    "cut-3-3": SearchBudget(max_nodes=3, samples=3),
}
# the queries that the candidates decided with the stage unsampled: none
# where the first pass has no room left after the samples
LONE_UNSAMPLED = {"default": 231, "check": 231, "oracle": 231, "cut-4-1": 161, "cut-3-3": 0}


@pytest.mark.parametrize("name", LONE_BUDGETS)
def test_lone_stage_answers_match_the_sample_first_order(name, lone_stage_corpus):
    # a lone stage's candidates are asked before it is sampled only where
    # the answer cannot move; the oracle samples every stage first, through
    # its public sampler and predicate
    budget = LONE_BUDGETS[name]
    unsampled = 0
    for outer, inners, u, x in lone_stage_corpus:
        search = serial_search(outer, inners, u, budget, 5)
        want = sample_first_answer(serial_search(outer, inners, u, budget, 5), x)
        assert search(x) == want, (outer, inners, u, x)
        refuted = search.refutes is not None and search.refutes(x)
        unsampled += search.room >= 0 and not refuted and "sampled" not in search.__dict__
    assert unsampled == LONE_UNSAMPLED[name]


# --- ternary bounds ----------------------------------------------------------

def _box_model(kind, m, rng):
    """A model of kind blc, bailc, flc, meet, join or serial with m inputs."""
    if kind == "flc":
        return flc(gen_boolfn(m, rng), _rat(rng, 0, 2))
    f, g = gen_boolfn_pair_leq(m, rng)
    if kind in ("blc", "bailc"):
        return _leaf(kind, f, g, rng)
    if kind == "serial":
        # built directly, so that it searches even where a closed form exists
        inners = [_leaf("bailc", *gen_boolfn_pair_leq(1, rng), rng) for _ in range(m)]
        outer = _leaf(rng.choice(("blc", "bailc")), f, g, rng)
        return Serial(*_composed_bounds(outer, inners), outer, tuple(inners))
    i, j = (_leaf(rng.choice(("blc", "bailc")), f, g, rng) for _ in range(2))
    return (lc_meet if kind == "meet" else lc_join)(i, j)


@pytest.mark.parametrize("kind", ["blc", "bailc", "flc", "meet", "join", "serial"])
@pytest.mark.parametrize("seed", range(12))
def test_members_for_inputs_in_a_box_lie_within_its_bounds(kind, seed):
    rng = random.Random(f"box:{kind}:{seed}")
    m = rng.randint(1, 2)
    model = _box_model(kind, m, rng)
    lo = tuple(gen_signal(rng, 6) for _ in range(m))
    hi = tuple(x | gen_signal(rng, 6) for x in lo)
    L, U = model.bounds(lo, hi)
    for k in range(3):
        u = tuple(_clamp(gen_signal(rng, 6), a, b) for a, b in zip(lo, hi))
        try:
            members = model.sample(u, 4, seed * 3 + k)
        except SiglimError:
            continue  # no witness drawn for this input
        for y in members:
            assert signal_leq(L, y) and signal_leq(y, U), (u, y)


def _assert_refutation_is_sound(outer, inners, u, xs):
    """No member the chain's sampler draws for u is refuted, and no refuted
    x has a witness the search without its bounds finds."""
    search = serial_search(outer, inners, u)
    refutes = search.refutes or (lambda x: False)
    chain = Serial(*_composed_bounds(outer, inners), outer, tuple(inners))
    for seed in range(2):
        try:
            members = chain.sample(u, 3, seed)
        except SiglimError:
            members = []  # a stage drew no witness for this input
        assert not any(refutes(y) for y in members)
    refuted = [x for x in xs if refutes(x)]
    search.refutes = None
    assert all(search(x) != (1, False) for x in refuted)
    return len(refuted)


def test_chain_corpus_members_pass_the_refutation():
    refuted = sum(_assert_refutation_is_sound(outer, inners, u, [x])
                  for outer, inners, u, x in chain_corpus(0, 300))
    assert refuted > 50


@pytest.mark.parametrize("law", ["4.8", "6.6", "6.6s"])
def test_law_members_pass_the_refutation(law, monkeypatch):
    queries = []
    real = props.serial_membership

    def recording(outer, inners, u, x, *args):
        queries.append((outer, inners, u, x))
        return real(outer, inners, u, x, *args)

    monkeypatch.setattr(props, "serial_membership", recording)
    cfg = props.GenConfig(seed=42, cases=30)
    for case in range(cfg.cases):
        props.replay_case(law, cfg, case)
    assert len(queries) == 30
    refuted = sum(_assert_refutation_is_sound(*q[:3], [q[3]]) for q in queries)
    assert refuted > 5


# --- violation times -----------------------------------------------------------

VIOLATION_KINDS = ("blc", "bailc", "flc", "sol", "meet", "join", "serial")


def _violation_case(kind, seed):
    """A model of kind, an input, and outputs to name a violation time for:
    its samples, each with a span flipped and with a glitch just after its
    first edge, and drawn signals."""
    rng = random.Random(f"violation:{kind}:{seed}")
    m = rng.randint(1, 2)
    model = None
    while model is None:
        try:
            model = sol(*gen_boolfn_pair_leq(m, rng)) if kind == "sol" else _box_model(kind, m, rng)
        except SiglimError:
            pass  # a chain whose composed bounds cross; draw again
    u = tuple(gen_signal(rng, 6) for _ in range(m))
    try:
        members = model.sample(u, 3, seed)
    except SiglimError:
        members = []  # no witness drawn for this input
    flipped = [y ^ pulse(*sorted((_rat(rng, -2, 12), _rat(rng, -2, 12)))) for y in members]
    flipped += [y ^ pulse(t + F(1, 32), t + F(1, 16)) for y in members for t in breakpoints(y)[:1]]
    return model, u, members, members + flipped + [gen_signal(rng, 6) for _ in range(3)]


@pytest.mark.parametrize("kind", VIOLATION_KINDS)
def test_a_named_violation_time_proves_no_membership(kind):
    named = 0
    for seed in range(12):
        model, u, members, xs = _violation_case(kind, seed)
        violation = model.violation(u)
        assert all(violation(y) is None for y in members)
        for x in xs:
            t = violation(x)
            named += t is not None
            if t is not None:
                assert model.contains(u, x) == 0, (u, x, t)
            if kind == "serial":
                # the search's refutation fires on the same outputs
                refutes = serial_search(model.outer, model.inners, u).refutes
                assert (t is not None) == bool(refutes and refutes(x))
    assert named > 5


@pytest.mark.parametrize("kind", ["blc", "bailc", "flc", "sol"])
def test_a_plain_model_names_a_time_for_every_rejection(kind):
    dwell_only = 0
    for seed in range(12):
        model, u, _, xs = _violation_case(kind, seed)
        violation = model.violation(u)
        for x in xs:
            t = violation(x)
            assert (t is None) == bool(model.contains(u, x)), (u, x, t)
            if kind != "sol":
                # the time check prints: where x first leaves the envelopes,
                # else, for a bailc, the first dwell violation
                lo, hi = model.envelopes(u)
                box = first_one_time((lo & ~x) | (x & ~hi))
                if box is None and kind == "bailc":
                    dwell_only += t is not None
                    box = aic_violation(x, model.aic)
                assert t == box, (u, x, t)
    assert dwell_only > 0 or kind != "bailc"


# --- meet samples ---------------------------------------------------------------

def _eager_meet_members(meet, u, seed):
    """The meet's members among every part's samples for all three rounds,
    then the constants, with every sample drawn before any is tested."""
    pool = [y for s in range(3) for part in meet.parts
            for y in part.sample(u, DEFAULT_BUDGET.samples, seed + s)]
    return _distinct_members(pool + [constant(0), constant(1)], meet.admits(u))


def test_meet_samples_match_the_eager_pool_with_fewer_part_samples(monkeypatch):
    calls = Counter()
    real = LimitCondition.sample

    def counting(self, *args):
        calls[self] += 1
        return real(self, *args)

    monkeypatch.setattr(LimitCondition, "sample", counting)
    lazy = eager = 0
    for seed in range(20):
        rng = random.Random(f"meet-pool:{seed}")
        m = rng.randint(1, 2)
        meet = _box_model("meet", m, rng)
        u = tuple(gen_signal(rng, 6) for _ in range(m))
        for count in (0, 1, 3, 8):
            calls.clear()
            try:
                got = meet.sample(u, count, seed)
            except EmptyMeet:
                got = None
            lazy += sum(calls[p] for p in meet.parts)
            calls.clear()
            want = _eager_meet_members(meet, u, seed)
            eager += sum(calls[p] for p in meet.parts)
            assert got == (want[:count] if want else None), (seed, count)
    assert lazy < eager


def test_refuted_nested_chain_query_samples_no_stage(monkeypatch):
    # the nested chain's box comes from its own stages' bounds, so an x
    # outside the whole chain's bounds is refuted before any stage is sampled
    inner = serial(blc(identity_fn(), identity_fn(), BlcParams(1, 2, 1, 2)),
                   [bailc(identity_fn(), identity_fn(), BlcParams(1, 2, 1, 2), AicParams(0, 1))])
    assert inner.kind == "serial"
    outer = blc(identity_fn(), identity_fn(), BlcParams(0, 1, 0, 1))
    u = (pulse(0, 3),)
    calls = []
    real = Serial._sample

    def counting(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(Serial, "_sample", counting)
    # u is 0 from 3 on, so every stage's output, and x, is 0 from 7 on
    assert serial_membership(outer, [inner], u, constant(1)) == (0, False)
    assert calls == []
    # the chain's bounds are ([5, 6), [3, 8)): an x within them is searched,
    # and when the candidates miss it, the nested stage is sampled
    x = make_signal(0, [(3, 1), (4, 0), (5, 1), (6, 0)])
    assert serial_membership(outer, [inner], u, x) == (0, False)
    assert calls


def test_arity_16_outer_answers_a_query_quickly():
    # the outer's box images visit the boxes the walk meets, never a table
    # of all 2**32 pairs of corners
    m = 16
    inners = [bailc(identity_fn(), identity_fn(), BlcParams(1, 1 + k % 3, 1, 1 + k % 3),
                    AicParams(0, 1)) for k in range(m)]
    outer = blc(and_fn(m), or_fn(m), BlcParams(1, 2, 1, 2))
    u = tuple(pulse(k, k + 3) for k in range(m))
    start = time.process_time()
    assert serial_membership(outer, inners, u, constant(1)) == (0, False)
    assert time.process_time() - start < 2
