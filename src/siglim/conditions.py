"""Limit conditions: input-indexed sets of admissible output signals.

A limit condition of arity m assigns to every m-tuple of input signals a set
of outputs lying between two eventual bounds f and g.  Each model kind is a
frozen dataclass deriving from `LimitCondition`: its fields are the kind's
parameters, and its hooks decide membership and draw seeded witnesses.  Sets
stay intensional, so combinators (meet, join, product, serial) are cheap and
emptiness is only ever detected lazily, when a sampler runs out of candidates.

The serial combinator also carries a generic witness search over a finite
candidate grid; closed-form compositions elsewhere in the package are checked
against that search, never the other way around.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import lcm, prod
from typing import (
    TYPE_CHECKING, Callable, ClassVar, Iterable, Iterator, Literal, NamedTuple, Sequence,
)

from .boolfn import BoolFn, and_fn, apply_pair, fn_compose, fn_leq, identity_fn, or_fn
from .errors import (
    ArityMismatch,
    BlockArityMismatch,
    DistributivityUnverified,
    EmptyBailc,
    EmptyMeet,
    HypothesisViolated,
    InexactComposition,
    KindMismatch,
    MonotonyViolated,
    PreconditionViolated,
    SiglimError,
)
from .signals import (
    Bit,
    MultiSignal,
    Signal,
    Time,
    _box_images,
    _lattice,
    _shrink,
    _ticks,
    as_time,
    breakpoints,
    combine,
    constant,
    first_one_time,
    make_signal,
    signal_between,
    translate,
    translate_all,
    values_along,
)

if TYPE_CHECKING:
    from .bounded import BlcParams


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the serial witness search and the seeded samplers.  A 0 they
    cut is inconclusive, and an uncut 0 from the grid round is no proof
    either (see `serial_membership`).  The exact dwell sweep needs none."""

    max_nodes: int = 2000
    samples: int = 6

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.samples < 1:
            raise PreconditionViolated("budget counts must be positive")


DEFAULT_BUDGET = SearchBudget()


class SignalSet(ABC):
    """A set of signals, given by a membership test and a seeded sampler.

    `between` builds a member lying between two envelopes; sets that cannot
    build one answer None.
    """

    @abstractmethod
    def contains(self, x: Signal) -> Bit: ...

    @abstractmethod
    def sample(self, count: int = 3, seed: int = 0) -> list[Signal]: ...

    def between(self, lo: Signal, hi: Signal, seed: int) -> Signal | None:
        return None


Admits = Callable[[Signal], "Bit | None"]  # 1, 0, or None for a budget-cut 0


def _kleene(bits: Iterable[Bit | None], decisive: Bit) -> Bit | None:
    """Kleene's strong AND (decisive 0) or OR (decisive 1): the decisive bit
    if any bit is it, else None if any is None, else the other bit."""
    out: Bit | None = 1 - decisive
    for bit in bits:
        if bit == decisive:
            return decisive
        if bit is None:
            out = None
    return out


def _distinct_members(
    pool: Iterable[Signal], admits: Admits, cap: int | None = None,
    found: Sequence[Signal] = (),
) -> list[Signal]:
    """found followed by the distinct signals of pool that admits accepts and
    found lacks, in first-seen order, stopping once cap of them in all are
    found, with no further signal drawn from pool."""
    out = dict.fromkeys(found)
    if cap is None or len(out) < cap:
        for x in pool:
            if x not in out and admits(x):
                out[x] = None
                if len(out) == cap:
                    break
    return list(out)


@dataclass(frozen=True, eq=False)
class LimitCondition(ABC):
    """Bound pair (f, g) of a model; one subclass per model kind.

    The arity is that of the bound functions, and f <= g is checked once,
    here.  `contains`, `admits`, `membership` and `sample` are defined only
    here: they check the input tuple and call the kind's hooks.  `admits(u)`
    is the one membership hook: it does the per-input work (envelopes,
    outputs, eventual values) once and returns a predicate on outputs that
    answers 1, 0 or None, where None is a 0 from a witness search that hit
    its budget.  `contains(u, x)` and `membership(u, x)` are read off it.
    Every truth test reads None as "not admitted".  Loops that test many
    outputs against one input build the predicate once.  The remaining
    methods tell the serial witness search what a kind knows about its
    outputs; the defaults here say that nothing is known.
    """

    f: BoolFn
    g: BoolFn
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        if self.g.arity != self.f.arity:
            raise ArityMismatch("bound functions must match the input arity")
        if not fn_leq(self.f, self.g):
            raise PreconditionViolated("lower bound function must be <= upper bound")

    @property
    def input_arity(self) -> int:
        return self.f.arity

    def _check_input(self, u: MultiSignal) -> MultiSignal:
        u = tuple(u)
        if len(u) != self.input_arity:
            raise ArityMismatch(f"expected {self.input_arity} input signals, got {len(u)}")
        return u

    def contains(self, u: MultiSignal, x: Signal) -> Bit:
        return self.admits(u)(x) or 0

    def admits(self, u: MultiSignal) -> Admits:
        """Predicate on outputs for u: 1, 0, or None for a budget-cut 0.  An
        uncut 0 from a search's grid round is no proof either."""
        return self._admits(self._check_input(u))

    def membership(self, u: MultiSignal, x: Signal) -> tuple[Bit, bool]:
        """(bit, inconclusive): inconclusive marks a search that hit its budget."""
        bit = self.admits(u)(x)
        return bit or 0, bit is None

    def sample(self, u: MultiSignal, count: int = 3, seed: int = 0) -> list[Signal]:
        return self._sample(self._check_input(u), count, seed)

    def violation(self, u: MultiSignal) -> Violation:
        """For u, a function from an output x to the first time that proves
        x is no output (see `_refutation`), read over the model's envelopes,
        else its `bounds` for u; None where no such time is known."""
        u = self._check_input(u)
        return _refutation(self, u, u, self.envelopes(u) or self.bounds(u, u)) or (lambda x: None)

    @abstractmethod
    def _admits(self, u: MultiSignal) -> Admits: ...

    @abstractmethod
    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]: ...

    @property
    def deterministic(self) -> bool:
        """True when the model is known to admit exactly one output per input."""
        return False

    def envelopes(self, u: MultiSignal) -> tuple[Signal, Signal] | None:
        """Least and greatest admissible output for u, when the kind has them."""
        return None

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal] | None:
        """Signals (L, U) with L <= x <= U for every output x admitted for
        any input u with lo <= u <= hi pointwise; None when the kind gives
        none, which reads as the box (0, 1).

        Unlike `envelopes`, L and U need not be members: they are sound
        bounds (a ternary simulation of the model, where an input bit is
        unknown wherever lo and hi differ), and the serial search proves a
        0 with them.  Soundness, kind by kind:

        - blc and bailc: a member x lies between the rise window of f(u)
          and the fall window of g(u).  At every time f(u) is at least L0,
          the least value of f over the box there, and g(u) at most U0, the
          greatest of g; the windows are monotone, so x lies between the
          rise window of L0 and the fall window of U0.
        - flc: x is f(u) retarded by the delay, which lies between L0 and
          U0 of f, retarded alike.
        - meet: a member of every part lies in every part's box, so in
          their intersection; join: a member of some part lies in its box,
          so in their hull.
        - serial: a member has an intermediate signal admitted by each
          inner stage for its block of u, so inside that stage's box for
          the block's box; the outer stage admits x for that signal, so x
          lies in the outer's bounds over the inner boxes.

        Where a box is empty (lo above hi somewhere) no input lies in it,
        and any (L, U) is sound.
        """
        return None

    def deltas(self) -> set[Time]:
        """Delay-like quantities of the model, used to seed candidate grids."""
        return set()

    def finite_outputs(self, u: MultiSignal, seed: int) -> list[Signal] | None:
        """Every admissible output for u when the model admits at most
        finitely many; None when no such finite description applies."""
        if not self.deterministic:
            return None
        try:
            return self.sample(u, 1, seed)
        except SiglimError:
            return []


def _finite_lists(
    model: LimitCondition, parts: Sequence[LimitCondition], u: MultiSignal, seed: int
) -> list[list[Signal]] | None:
    """The parts' finite output lists, if all have one: each is all its
    part admits, so the model reads its own list off them."""
    lists = []
    for part in parts:
        sub = part.finite_outputs(u, seed)
        if sub is None:
            return None
        lists.append(sub)
    model._check_input(u)
    return lists


def _sol_admits(f: BoolFn, g: BoolFn, u: MultiSignal) -> Callable[[Signal], Bit]:
    # an image settles to the bound function of the inputs' settled values
    settled = [x.eventual_value() for x in u]
    lam, mu = f(*settled), g(*settled)
    return lambda x: int(lam <= x.eventual_value() <= mu)


def sol_contains(f: BoolFn, g: BoolFn, u: MultiSignal, x: Signal) -> Bit:
    """Eventual-value sandwich: f's settled output <= x's <= g's.

    For finitely-switching signals this is exactly membership in the loosest
    condition with bounds (f, g); tighter models narrow it pointwise.
    """
    return _sol_admits(f, g, u)(x)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _force_eventual(x: Signal, value: Bit) -> Signal:
    if x.eventual_value() == value:
        return x
    last = x.transitions[-1][0] if x.transitions else Fraction(0)
    return make_signal(x.initial, list(x.transitions) + [(last + 1, value)])


@dataclass(frozen=True, eq=False)
class Sol(LimitCondition):
    """Eventual-value condition: only the settled output is constrained.

    `kind` names the instance: sol for any f <= g, sc, mc or scf.
    """

    kind: Literal["sol", "sc", "mc", "scf"]

    def _admits(self, u: MultiSignal) -> Callable[[Signal], Bit]:
        return _sol_admits(self.f, self.g, u)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        lo, hi = apply_pair(self.f, self.g, u)
        lam, mu = lo.eventual_value(), hi.eventual_value()
        out = [lo, hi, constant(lam), constant(mu)]
        rng = _rng(seed, "sol")
        pool = breakpoints(*u) or [Fraction(0)]
        while len(out) < count + 4:
            times = sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            base = make_signal(rng.randint(0, 1), [(t, rng.randint(0, 1)) for t in times])
            out.append(_force_eventual(base, rng.choice((lam, mu))))
        return list(dict.fromkeys(out))[: max(count, 2)]


def sol(f: BoolFn, g: BoolFn) -> Sol:
    """Loosest condition with bound pair (f, g): only eventual values are constrained."""
    return Sol(f, g, "sol")


def sc() -> Sol:
    """Stability condition: the output eventually copies a settled input."""
    return Sol(identity_fn(), identity_fn(), "sc")


def mc(m: int) -> Sol:
    """Muller condition: output settles between the AND and OR of the inputs."""
    return Sol(and_fn(m), or_fn(m), "mc")


def scf(f: BoolFn) -> Sol:
    """Stability of the computed value f(u): the output settles to it exactly."""
    return Sol(f, f, "scf")


def _same_bounds(i: LimitCondition, j: LimitCondition) -> None:
    if i.input_arity != j.input_arity:
        raise ArityMismatch("components must share arity")
    if i.f.table != j.f.table or i.g.table != j.g.table:
        raise PreconditionViolated("components must share the bound pair (f, g)")


@dataclass(frozen=True, eq=False)
class Meet(LimitCondition):
    """Intersection of models sharing one bound pair, optionally restricted
    to the outputs inside a signal set.

    Membership is Kleene's AND over the parts and the set: a part's cut 0
    leaves it undecided unless another part or the set rejects x outright.

    When the parts' samples fall short, the signal set is asked for a member
    between the first part's envelopes, kept only if the meet contains it.
    Non-emptiness is checked lazily: sampling raises EmptyMeet when no common
    witness is found within the default search budget.
    """

    parts: tuple[LimitCondition, ...]
    within: SignalSet | None
    kind = "meet"

    def _admits(self, u: MultiSignal) -> Admits:
        tests = [part.admits(u) for part in self.parts]
        if self.within is not None:
            tests.append(self.within.contains)
        return lambda x: _kleene((test(x) for test in tests), 0)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        n = DEFAULT_BUDGET.samples
        pool = (x for s in range(3) for part in self.parts for x in part.sample(u, n, seed + s))
        admits = self._admits(u)
        out = _distinct_members(chain(pool, (constant(0), constant(1))), admits, max(count, 1))
        v = self.within
        if len(out) < count and v is not None and (env := self.parts[0].envelopes(u)):
            y = v.between(*env, seed)
            if y is not None and y not in out and admits(y):
                out.append(y)
        if not out:
            raise EmptyMeet("no witness inside the signal set found within budget"
                            if v is not None else "no common witness found within budget")
        return out[:count]

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal] | None:
        boxes = [box for part in self.parts if (box := part.bounds(lo, hi))]
        if not boxes:
            return None
        (L, U), *rest = boxes
        for L2, U2 in rest:
            L, U = L | L2, U & U2
        return L, U

    def deltas(self) -> set[Time]:
        return set().union(*(part.deltas() for part in self.parts))

    def finite_outputs(self, u: MultiSignal, seed: int) -> list[Signal] | None:
        lists = _finite_lists(self, self.parts, u, seed)
        if lists is None:
            return None
        held, v = [set(sub) for sub in lists], self.within
        return [y for sub in lists for y in sub
                if all(y in h for h in held) and (v is None or v.contains(y))]


def lc_meet(i: LimitCondition, j: LimitCondition) -> Meet:
    """Intersection of two conditions with the same bound pair."""
    _same_bounds(i, j)
    return Meet(i.f, i.g, (i, j), None)


def lc_meet_set(i: LimitCondition, v: SignalSet) -> Meet:
    """Restrict the admissible outputs of i to members of the signal set v."""
    return Meet(i.f, i.g, (i,), v)


@dataclass(frozen=True, eq=False)
class Join(LimitCondition):
    """Union of models sharing one bound pair: Kleene's OR over the parts."""

    parts: tuple[LimitCondition, ...]
    kind = "join"

    def _admits(self, u: MultiSignal) -> Admits:
        parts = [part.admits(u) for part in self.parts]
        return lambda x: _kleene((p(x) for p in parts), 1)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        pool = [x for part in self.parts for x in part.sample(u, count, seed)]
        return list(dict.fromkeys(pool))[:count]

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal] | None:
        boxes = [part.bounds(lo, hi) for part in self.parts]
        if None in boxes:
            return None
        (L, U), *rest = boxes
        for L2, U2 in rest:
            L, U = L & L2, U | U2
        return L, U

    def deltas(self) -> set[Time]:
        return set().union(*(part.deltas() for part in self.parts))

    def finite_outputs(self, u: MultiSignal, seed: int) -> list[Signal] | None:
        lists = _finite_lists(self, self.parts, u, seed)
        return None if lists is None else [y for sub in lists for y in sub]


def lc_join(i: LimitCondition, j: LimitCondition) -> Join:
    """Union of two conditions with the same bound pair."""
    _same_bounds(i, j)
    return Join(i.f, i.g, (i, j))


@dataclass(frozen=True, eq=False)
class Restrict(LimitCondition):
    """Partial condition defined only where every input lies in its set.

    Outside the domain the membership predicate answers 0; sampling there is
    an error because no witness set exists.
    """

    base: LimitCondition
    sets: tuple[SignalSet, ...]
    kind = "restrict"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.sets) != self.input_arity:
            raise ArityMismatch("need one input set per coordinate")

    def _in_domain(self, u: MultiSignal) -> bool:
        return all(v.contains(up) for v, up in zip(self.sets, u))

    def _admits(self, u: MultiSignal) -> Admits:
        return self.base.admits(u) if self._in_domain(u) else lambda x: 0

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        if not self._in_domain(u):
            raise PreconditionViolated("input outside the restriction domain")
        return self.base.sample(u, count, seed)

    def finite_outputs(self, u: MultiSignal, seed: int) -> list[Signal] | None:
        lists = _finite_lists(self, (self.base,), u, seed)
        return lists and (lists[0] if self._in_domain(u) else [])


def lc_restrict(i: LimitCondition, sets: Sequence[SignalSet]) -> Restrict:
    """Restrict i to the inputs whose every coordinate lies in its set."""
    return Restrict(i.f, i.g, i, tuple(sets))


@dataclass(frozen=True, eq=False)
class DirectProduct:
    """Independent components answering on disjoint blocks of the inputs."""

    components: tuple[LimitCondition, ...]

    @property
    def block_arities(self) -> tuple[int, ...]:
        return tuple(j.input_arity for j in self.components)

    def split(self, u: MultiSignal) -> list[MultiSignal]:
        total = sum(self.block_arities)
        if len(u) != total:
            raise BlockArityMismatch(f"expected {total} signals, got {len(u)}")
        blocks, pos = [], 0
        for j in self.components:
            blocks.append(tuple(u[pos : pos + j.input_arity]))
            pos += j.input_arity
        return blocks

    def __call__(self, u: MultiSignal) -> list[BlockOutputs]:
        return [BlockOutputs(j, blk) for j, blk in zip(self.components, self.split(tuple(u)))]


@dataclass(frozen=True)
class BlockOutputs(SignalSet):
    """The admissible outputs of one product component for its input block."""

    model: LimitCondition
    block: MultiSignal

    def contains(self, x: Signal) -> Bit:
        return self.model.contains(self.block, x)

    def sample(self, count: int = 3, seed: int = 0) -> list[Signal]:
        return self.model.sample(self.block, count, seed)


def direct_product(components: Sequence[LimitCondition]) -> DirectProduct:
    if not components:
        raise ArityMismatch("need at least one component")
    return DirectProduct(tuple(components))


# --- serial connection ------------------------------------------------------

def _composed_bounds(i: LimitCondition, js: Sequence[LimitCondition]) -> tuple[BoolFn, BoolFn]:
    if len(js) != i.input_arity:
        raise ArityMismatch(f"outer arity {i.input_arity} needs as many inner models")
    F = fn_compose(i.f, [j.f for j in js])
    G = fn_compose(i.g, [j.g for j in js])
    if not fn_leq(F, G):
        raise HypothesisViolated("composed lower bound exceeds composed upper bound")
    return F, G


def _grid_times(signals: Sequence[Signal], deltas: set[Time]) -> tuple[int, list[int]]:
    """(scale, ticks): the first 64 points of the candidate grid, as ticks on
    one lattice: time 0, the signals' breakpoints and each breakpoint
    shifted by every delta both ways."""
    scale = lcm(_lattice(signals), *[d.denominator for d in deltas])
    base = _ticks(signals, scale)
    times = {0, *base}
    for d in deltas:
        d = d.numerator * (scale // d.denominator)
        times.update([t + d for t in base] + [t - d for t in base])
    return scale, sorted(times)[:64]


_CLAMP = (0, 0, 0, 1, 1, 1, 1, 1)  # a | (b & c) in `combine`'s table order


def _clamp(x: Signal, lo: Signal, hi: Signal) -> Signal:
    """lo | (x & hi), in one walk over the three signals."""
    return combine(_CLAMP, lo, x, hi)


def _adjoints(p: BlcParams, x: Signal) -> tuple[Signal, Signal]:
    """Exact adjoints of a window-bounded outer stage's two windows at x.

    They bracket every intermediate signal that such a stage maps onto x.
    """
    return _shrink(x, p.m_f - p.d_f, p.m_f, 1), _shrink(x, p.m_r - p.d_r, p.m_r, 0)


def _constructed_candidates(
    j: LimitCondition, blk: MultiSignal, env: tuple[Signal, Signal] | None,
    outer: LimitCondition, x: Signal,
) -> list[Signal]:
    """Likely intermediate witnesses, derived from the query rather than the grid.

    env is the stage's envelopes for blk, if it has them.  For
    window-bounded outers the adjoints bracket every admissible
    intermediate signal, so clamping them against the inner envelopes hits
    most members in one shot.
    """
    cands: list[Signal] = [x, ~x]
    if outer.kind in ("blc", "bailc"):
        p = outer.params
        ymin, ymax = _adjoints(p, x)
        cands += [ymin, ymax]
        if env is not None:
            lo, hi = env
            for z in (ymin, ymax, x, translate(x, -p.d_r), translate(x, -p.d_f)):
                cands.append(_clamp(z, lo, hi))
            cands += [lo, hi]
    elif outer.kind == "flc":
        z = translate(x, -outer.delay)
        cands += [z, ~z]
        if env is not None:
            lo, hi = env
            cands += [lo, hi, _clamp(z, lo, hi)]
    elif env is not None:
        cands += list(env)
    cands += [*apply_pair(j.f, j.g, blk), constant(0), constant(1)]
    return cands


def _grid_candidates(
    blk: MultiSignal, x: Signal, deltas: set[Time], budget: SearchBudget,
) -> Iterator[Signal]:
    """A rising and a falling step at each grid time, then the two pulses on
    each pair of grid times, in that order, stopping once more than
    4 * max_nodes candidates were made.

    The stream is plain: the stage's own predicate, which admits nothing
    outside the stage's envelopes, is its only filter.
    """
    scale, grid = _grid_times((*blk, x), deltas)
    for t in grid:
        yield Signal._on(0, scale, (t,))
        yield Signal._on(1, scale, (t,))
    made = 2 * len(grid)
    for pair in combinations(grid, 2):
        yield Signal._on(0, scale, pair)
        yield Signal._on(1, scale, pair)
        made += 2
        if made > 4 * budget.max_nodes:
            return


_UNKNOWN = (constant(0), constant(1))  # the box of a stage that gives no bounds

Violation = Callable[[Signal], "Time | None"]  # a time that proves x is no output, or None


def _stage_boxes(parts: Sequence[tuple[LimitCondition, MultiSignal]]) -> tuple[list, tuple, tuple]:
    """(envs, lo, hi): each stage's envelopes for its block, and the lows and
    highs of the stages' output boxes: its envelopes, else its `bounds` for
    its block, else (0, 1)."""
    envs = [j.envelopes(blk) for j, blk in parts]
    lo, hi = zip(*[env or j.bounds(blk, blk) or _UNKNOWN for (j, blk), env in zip(parts, envs)])
    return envs, lo, hi


def _refutation(
    i: LimitCondition, lo: MultiSignal, hi: MultiSignal, box: tuple[Signal, Signal] | None,
) -> Violation | None:
    """The first time that proves x is no output of i for any input between
    lo and hi, where box is a sound (L, U) for those inputs or None; None
    when no time would ever be named.

    A member x lies within the box, keeps a bailc's dwell, whatever the
    input, and settles, for a sol, between the least of f and the greatest
    of g over the inputs' settled values.  The time is the first one x
    leaves the box at; else the dwell's `aic_violation`; else, for a sol
    settling wrong, one past the last breakpoint of lo, hi and x.
    """
    tests: list[Violation] = []
    if box is not None:
        L, U = box
        tests.append(lambda x: None if signal_between(L, x, U)
                     else first_one_time((L & ~x) | (x & ~U)))
    if i.kind == "bailc":
        from .inertial import aic_violation

        a = i.aic
        tests.append(lambda x: aic_violation(x, a))
    if isinstance(i, Sol):
        least, most = _box_images(i.f.table, i.g.table, lo, hi)
        lam, mu = least.eventual_value(), most.eventual_value()
        tests.append(lambda x: None if lam <= x.eventual_value() <= mu
                     else max(breakpoints(*lo, *hi, x), default=Fraction(-1)) + 1)
    if not tests:
        return None
    return lambda x: next((t for test in tests if (t := test(x)) is not None), None)


class _Stage(NamedTuple):
    """What the serial search knows of one stage for its input block."""

    model: LimitCondition
    block: MultiSignal
    admits: Admits | None  # None for a finite output list
    env: tuple[Signal, Signal] | None
    members: list[Signal]
    final: bool  # the grid must not extend members: the finite output list, or cap members


class _SerialSearch:
    """The witness search of `serial_search` for one input tuple.

    Construction does the cheap per-input work: each stage's finite output
    list, if it has one, and, unless every stage has one, the envelopes and
    the `_refutation` over the `_stage_boxes`.  The predicates, then the
    samples, are built on the first outputs that need them, a window
    stage's from those envelopes, so each search walks them once.  A call
    asks the refutation first (`refutes`, as a bool), and a refuted x gets
    (0, False), a proof; then the constructed candidates each stage admits
    (alone first for a lone stage whose samples leave them all in the first
    pass), the first pass, and the grid round, whose deltas the first grid
    gathers.
    The grid round's one filter is each stage's predicate: it reads the
    plain `_grid_candidates` stream and admits nothing outside the stage's
    envelopes.

    The outer stage's predicate for an intermediate tuple, `i.admits(combo)`,
    is built on the first ask and kept for every later output the search is
    asked about, until max_nodes tuples are kept; a tuple met after that
    builds its predicate afresh on each ask.  The record lives as long as
    the search.
    """

    def __init__(self, i: LimitCondition, js: Sequence[LimitCondition], u: MultiSignal,
                 budget: SearchBudget, seed: int) -> None:
        self.outer, self.budget, self.seed = i, budget, seed
        self.parts = list(zip(js, DirectProduct(tuple(js)).split(u)))
        self.cap = max(4, int(round(budget.max_nodes ** (1.0 / len(js)))))
        # a stage with finitely many outputs offers them all to the first
        # pass, so when every stage does, bounds would only add work
        self.finite = [j.finite_outputs(blk, seed) for j, blk in self.parts]
        self.envs, self.refutes = [None] * len(self.parts), None
        self.outers: dict[tuple[Signal, ...], Admits] = {}
        # no kind samples more than max(count, 2), so a lone stage's first
        # pass holds this many of its admitted candidates; -1 for other chains
        lone = len(js) == 1 and self.finite[0] is None
        self.room = min(self.cap, budget.max_nodes) - max(budget.samples, 2) if lone else -1
        if None in self.finite:
            self.envs, lo, hi = _stage_boxes(self.parts)
            refutation = _refutation(i, lo, hi, i.bounds(lo, hi))
            self.refutes = refutation and (lambda x: refutation(x) is not None)

    @cached_property
    def deltas(self) -> set[Time]:
        """The chain's delays and dwells, which only the grid round reads."""
        return self.outer.deltas().union(*(j.deltas() for j, _ in self.parts))

    @cached_property
    def stages(self) -> list[_Stage]:
        """Each stage's predicate and envelopes, or its finite output list."""
        out = []
        for (j, blk), finite, env in zip(self.parts, self.finite, self.envs):
            if finite is not None:
                out.append(_Stage(j, blk, None, None, list(dict.fromkeys(finite)), True))
            else:
                admits = j._admits_between(*env) if j.kind in ("blc", "bailc") else j.admits(blk)
                out.append(_Stage(j, blk, admits, env, [], False))
        return out

    @cached_property
    def sampled(self) -> list[_Stage]:
        """The stages with their admitted samples as members."""
        out, n, seed = [], self.budget.samples, self.seed
        for st in self.stages:
            if not st.final:
                j = st.model
                try:
                    raw = (j._sample_between(*st.env, n, seed) if j.kind in ("blc", "bailc")
                           else j.sample(st.block, n, seed))
                except (EmptyMeet, EmptyBailc):
                    raw = []
                st = st._replace(members=_distinct_members(raw, st.admits, self.cap))
            out.append(st)
        return out

    def _first_pass(self, fixed: list[_Stage]) -> Iterator[tuple[Signal, ...]]:
        """The combinations of the fixed members that the grid round reaches
        within max_nodes even when each list it extends grows to cap members,
        in that round's order."""
        sizes = [len(st.members) if st.final else self.cap for st in fixed]
        for idx in product(*[range(len(st.members)) for st in fixed]):
            pos = 0
            for k, size in zip(idx, sizes):
                pos = pos * size + k
            if pos >= self.budget.max_nodes:
                return
            yield tuple(st.members[k] for st, k in zip(fixed, idx))

    def __call__(self, x: Signal) -> tuple[Bit, bool]:
        if self.refutes is not None and self.refutes(x):
            return 0, False
        budget, cap, outers = self.budget, self.cap, self.outers
        # the candidates constructed from x that each stage admits
        cands = [[] if st.final else _distinct_members(
                     _constructed_candidates(st.model, st.block, st.env, self.outer, x), st.admits)
                 for st in self.stages]
        asked: set[tuple[Signal, ...]] = set()

        def hit(combos: Iterable[tuple[Signal, ...]]) -> bool:
            """Whether the outer stage maps one of combos not asked before onto x."""
            for combo in combos:
                if combo not in asked:
                    asked.add(combo)
                    admits = outers.get(combo)
                    if admits is None:
                        admits = self.outer.admits(combo)
                        if len(outers) < budget.max_nodes:
                            outers[combo] = admits
                    if admits(x):
                        return True
            return False

        # every candidate of a lone stage with room is in the first pass
        if len(cands[0]) <= self.room and hit((y,) for y in cands[0]):
            return 1, False
        # samples, then candidates, to cap members; a full list is final
        fixed = []
        for st, c in zip(self.sampled, cands):
            if not st.final:
                members = list(dict.fromkeys([*st.members, *c]))[:cap]
                st = st._replace(members=members, final=len(members) >= cap)
            fixed.append(st)
        # a 1 from the first pass is a 1 the grid round would give
        if hit(self._first_pass(fixed)):
            return 1, False
        lists = [
            st.members if st.final else _distinct_members(
                _grid_candidates(st.block, x, self.deltas, budget),
                st.admits, cap, st.members)
            for st in fixed
        ]
        if hit(islice(product(*lists), budget.max_nodes)):
            return 1, False
        return 0, prod(map(len, lists)) > budget.max_nodes or any(len(lst) >= cap for lst in lists)


def serial_search(
    i: LimitCondition,
    js: Sequence[LimitCondition],
    u: MultiSignal,
    budget: SearchBudget | None = None,
    seed: int = 0,
) -> Callable[[Signal], tuple[Bit, bool]]:
    """The witness search for the chain of i over js on the input u, as a
    function from an output x to the (bit, exhausted) of `serial_membership`.

    The per-input work is done here, once (see `_SerialSearch`), and each
    call does only the per-output work: loops over many outputs for one
    input build one search.
    """
    return _SerialSearch(i, js, u, budget or DEFAULT_BUDGET, seed)


def serial_membership(
    i: LimitCondition,
    js: Sequence[LimitCondition],
    u: MultiSignal,
    x: Signal,
    budget: SearchBudget | None = None,
    seed: int = 0,
) -> tuple[Bit, bool]:
    """Search for intermediate signals proving x admissible for the chain.

    Returns (1, False) on success; (0, exhausted) otherwise, where exhausted
    flags that the budget cut the enumeration short.  A 0 is a proof when
    the ternary bounds refute x or every stage has a finite output list (see
    below); an uncut 0 from the grid round is not, since the grid holds only
    signals of at most two transitions.  This is `serial_search(i, js, u,
    budget, seed)(x)`.

    Unless every stage has a finite output list, the chain's ternary bounds
    come first: x outside the outer stage's `bounds` over the inner stages'
    output boxes, or breaking a bailc outer's dwell, or settling outside a
    sol outer's range, is no member, and the answer (0, False) is a proof
    reached with no stage sampled.  Otherwise each stage's fixed members
    come first: its finite output list, its whole answer, or its samples
    and the candidates constructed from x that it admits.  A first pass
    asks the outer stage about their combinations, but only those the grid
    round would reach within budget.max_nodes, so a 1 from it is a 1 that
    round would give; a lone stage's candidates are asked before it is
    sampled when they and its samples fit that pass, which moves no answer.
    Then one grid round extends each stage's list with the grid candidates
    its predicate admits, which are none outside its envelopes, asking no
    combination twice.  The outer stage's predicate for a combination is
    kept for the search's later outputs (see `_SerialSearch`).  When every
    list is final (deterministic stages give their one output), the grid
    adds nothing and the first pass answers exactly, with no grid and no
    delays read.
    """
    return serial_search(i, js, u, budget, seed)(x)


@dataclass(frozen=True, eq=False)
class Serial(LimitCondition):
    """Outer model fed by one inner model per input, with no closed form.

    Membership is the witness search `serial_search` under the default
    budget, built once per input by `admits`, which answers None for a cut
    0.  It is exact when every stage is deterministic, since each stage
    then offers its one output, and its 0 is a proof wherever the chain's
    ternary bounds refute the output; `violation` names the time they do
    it at.  `bounds` recurses through the stages, so a chain nested as a
    stage of another gives the enclosing search a box.
    """

    outer: LimitCondition
    inners: tuple[LimitCondition, ...]
    kind = "serial"

    @property
    def deterministic(self) -> bool:
        return self.outer.deterministic and all(j.deterministic for j in self.inners)

    def _admits(self, u: MultiSignal) -> Admits:
        search = serial_search(self.outer, self.inners, u)

        def admits(x: Signal) -> Bit | None:
            bit, cut = search(x)
            return None if cut else bit

        return admits

    def violation(self, u: MultiSignal) -> Violation:
        # read over the inner stages' output boxes, as the search refutes
        u = self._check_input(u)
        _, lo, hi = _stage_boxes(list(zip(self.inners, DirectProduct(self.inners).split(u))))
        return _refutation(self.outer, lo, hi, self.outer.bounds(lo, hi)) or (lambda x: None)

    def _sample(self, u: MultiSignal, count: int, seed: int) -> list[Signal]:
        blocks = DirectProduct(self.inners).split(u)
        out: list[Signal] = []
        # a deterministic chain gives its one output in every round
        for s in range(1 if self.deterministic else count):
            ys = tuple(j.sample(blk, 1 + s % 2, seed + s)[-1]
                       for j, blk in zip(self.inners, blocks))
            out += self.outer.sample(ys, 1 + s % 2, seed + s)
        return list(dict.fromkeys(out))[:count]

    def bounds(self, lo: MultiSignal, hi: MultiSignal) -> tuple[Signal, Signal] | None:
        split = DirectProduct(self.inners).split
        los, his = zip(*[j.bounds(lo_j, hi_j) or _UNKNOWN
                         for j, lo_j, hi_j in zip(self.inners, split(lo), split(hi))])
        return self.outer.bounds(los, his)

    def deltas(self) -> set[Time]:
        return self.outer.deltas().union(*(j.deltas() for j in self.inners))


def closed_form(i: LimitCondition, js: Sequence[LimitCondition]) -> LimitCondition:
    """The single model equal to the serial chain of i over js, if one is known.

    Fixed delays with a common inner delay add up (law 5.2).  Bounded chains
    with common inner parameters sum their parameters (law 4.8).
    Bounded-plus-inertial chains do the same and keep the outer dwell, which
    is exact only when the inner dwell is zero (see `bailc_compose`).

    Raises KindMismatch when no closed form applies, InexactComposition when
    the summed form can admit pairs no stagewise execution produces, and
    MonotonyViolated or DistributivityUnverified when the bounds fail the
    summing rule's preconditions.
    """
    js = tuple(js)
    if len(js) != i.input_arity:
        raise ArityMismatch(f"outer model has arity {i.input_arity} "
                            f"but {len(js)} inner models were given")
    kinds = {j.kind for j in js}
    if kinds != {i.kind} or i.kind not in ("flc", "blc", "bailc"):
        raise KindMismatch(f"no closed form composes outer kind {i.kind!r} "
                           f"with inner kinds {sorted(kinds)}")
    if i.kind == "flc":
        delays = {j.delay for j in js}
        if len(delays) != 1:
            raise KindMismatch("inner fixed delays differ; no closed form")
        from .inertial import flc

        return flc(fn_compose(i.fn, [j.fn for j in js]), i.delay + delays.pop())
    params = {j.params for j in js}
    if len(params) != 1:
        raise KindMismatch("inner window parameters differ; no closed form")
    inner = [(j.f, j.g) for j in js]
    if i.kind == "blc":
        from .bounded import blc_compose

        return blc_compose(i.f, i.g, i.params, inner, params.pop())
    aics = {j.aic for j in js}
    if len(aics) != 1:
        raise KindMismatch("inner dwell times differ; no closed form")
    a_inner = aics.pop()
    if a_inner.delta_r or a_inner.delta_f:
        raise InexactComposition(
            f"inner dwell times ({a_inner.delta_r}, {a_inner.delta_f}) are not zero; "
            "the summed dwell-constrained form can admit outputs that no "
            "stagewise execution produces")
    from .inertial import bailc_compose

    return bailc_compose(i.f, i.g, i.params, i.aic, inner, params.pop(), a_inner)


def serial(i: LimitCondition, js: Sequence[LimitCondition]) -> LimitCondition:
    """Serial connection of an outer model with one inner model per input.

    Returns the `closed_form` of the chain when one is exact: fixed delays
    with a common inner delay; bounded chains with common inner parameters;
    bounded-plus-inertial chains with common inner parameters and zero inner
    dwell.  Otherwise it returns a `Serial`, which searches for witnesses;
    the search is exact when every stage is deterministic.
    """
    js = tuple(js)
    F, G = _composed_bounds(i, js)
    try:
        return closed_form(i, js)
    except (KindMismatch, InexactComposition, MonotonyViolated, DistributivityUnverified):
        return Serial(F, G, i, js)


# --- behavioural checkers ---------------------------------------------------

def check_deterministic(
    i: LimitCondition, us: Sequence[MultiSignal], budget: SearchBudget | None = None
) -> Bit:
    """Semi-decision: 0 iff two distinct witnesses are found for some input.

    The answer 1 only says the sampled family exposed no choice; for
    window-bounded models the envelope samples make it exact on a suitable
    input family.
    """
    budget = budget or DEFAULT_BUDGET

    def pool(u: MultiSignal) -> Iterator[Signal]:
        for s in range(3):
            try:
                yield from i.sample(u, budget.samples, s)
            except (EmptyMeet, EmptyBailc):
                continue
        yield from (constant(0), constant(1))

    for u in us:
        u = tuple(u)
        if len(_distinct_members(pool(u), i.admits(u), cap=2)) == 2:
            return 0
    return 1


def check_time_invariance(i: LimitCondition, u: MultiSignal, x: Signal, d: Time | int) -> Bit:
    """1 iff membership of (u, x) matches membership of both retarded by d."""
    d = as_time(d)
    return int(i.contains(u, x) == i.contains(translate_all(tuple(u), d), translate(x, d)))


def check_constancy(
    u: MultiSignal, x: Signal, f: BoolFn, g: BoolFn,
    d_r: Time | int, d_f: Time | int,
) -> Bit:
    """Every switch of x must have been anticipated by the bounds on u.

    A rise at t needs the upper bound g true d_r earlier; a fall at t needs
    the lower bound f false d_f earlier.
    """
    d_r, d_f = as_time(d_r), as_time(d_f)
    rising, falling = x.edges()
    if any(g(*a) != 1 for a in values_along(u, [t - d_r for t in rising])):
        return 0
    return int(all(f(*a) == 0 for a in values_along(u, [t - d_f for t in falling])))


def check_symmetry_usual(
    i: LimitCondition, u: MultiSignal, x: Signal, sigma: Sequence[int]
) -> Bit:
    """1 iff permuting the inputs by sigma leaves membership unchanged."""
    u = tuple(u)
    if sorted(sigma) != list(range(len(u))):
        raise PreconditionViolated(f"{sigma!r} is not a permutation of the inputs")
    permuted = tuple(u[sigma[p]] for p in range(len(u)))
    return int(i.contains(u, x) == i.contains(permuted, x))


def check_symmetry_rf(i: LimitCondition, u: MultiSignal, x: Signal) -> Bit:
    """1 iff complementing all inputs and the output preserves membership."""
    u = tuple(u)
    flipped = tuple(~up for up in u)
    return int(i.contains(u, x) == i.contains(flipped, ~x))
