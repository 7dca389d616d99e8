"""Boolean functions as explicit truth tables.

A function of arity m is stored as a table of 2**m bits where the argument
tuple (a_1, ..., a_m) indexes with a_1 most significant.  Tables serialize as
bit strings in that same order ("0001" is the two-input AND).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .errors import ArityMismatch, PreconditionViolated
from .signals import Bit, MultiSignal, Signal, _images, combine

MAX_ARITY = 16


@dataclass(frozen=True)
class BoolFn:
    arity: int
    table: tuple[Bit, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_ARITY:
            raise ArityMismatch(f"arity must be in 1..{MAX_ARITY}, got {self.arity}")
        if len(self.table) != 1 << self.arity:
            raise PreconditionViolated(
                f"table for arity {self.arity} needs {1 << self.arity} entries"
            )
        if any(v not in (0, 1) for v in self.table):
            raise PreconditionViolated("table entries must be 0 or 1")

    def __call__(self, *bits: Bit) -> Bit:
        if len(bits) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(bits)}")
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return self.table[idx]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once: a table of 2**16 entries
        takes longer to hash than a walk over short signals."""
        return hash((self.arity, self.table))

    @cached_property
    def _one_input(self) -> tuple[int, Bit] | None:
        """(p, b) when the table depends on at most one input: f(a) is
        a[p] ^ b, or the constant b when p is -1.  None when it depends on
        two or more."""
        t = self.table
        if min(t) == max(t):
            return -1, t[0]
        for p in range(self.arity):
            bit = 1 << (self.arity - 1 - p)  # index bit of argument p
            if all(v == t[0] ^ (i & bit > 0) for i, v in enumerate(t)):
                return p, t[0]
        return None

    def bits(self) -> str:
        return "".join(str(v) for v in self.table)

    def inputs(self):
        """All argument tuples in table order."""
        return product((0, 1), repeat=self.arity)

    def __str__(self) -> str:  # pragma: no cover
        return f"BoolFn({self.arity}, {self.bits()!r})"


def fn_from_bits(arity: int, bits: str) -> BoolFn:
    if len(bits) != 1 << arity or any(c not in "01" for c in bits):
        raise PreconditionViolated(f"bad table string {bits!r} for arity {arity}")
    return BoolFn(arity, tuple(int(c) for c in bits))


def identity_fn() -> BoolFn:
    return BoolFn(1, (0, 1))


def not_fn() -> BoolFn:
    return BoolFn(1, (1, 0))


def and_fn(m: int) -> BoolFn:
    return BoolFn(m, tuple(int(all(a)) for a in product((0, 1), repeat=m)))


def or_fn(m: int) -> BoolFn:
    return BoolFn(m, tuple(int(any(a)) for a in product((0, 1), repeat=m)))


def xor_fn() -> BoolFn:
    return BoolFn(2, (0, 1, 1, 0))


def const_fn(m: int, value: int) -> BoolFn:
    return BoolFn(m, (value,) * (1 << m))


def proj_fn(m: int, p: int) -> BoolFn:
    """Projection onto coordinate p (0-based)."""
    if not 0 <= p < m:
        raise ArityMismatch(f"projection index {p} out of range for arity {m}")
    return BoolFn(m, tuple(a[p] for a in product((0, 1), repeat=m)))


def apply_fn(f: BoolFn, u: MultiSignal) -> Signal:
    """Pointwise image f(u_1(t), ..., u_m(t)) as a canonical signal.

    A table that depends on at most one input needs no walk: the image is
    that input's signal, as it is or negated, or a constant.
    """
    if len(u) != f.arity:
        raise ArityMismatch(f"function of arity {f.arity} applied to {len(u)} signals")
    one = f._one_input
    if one is None:
        return combine(f, *u)
    p, b = one
    if p < 0:
        return Signal(b)
    return ~u[p] if b else u[p]


def apply_pair(f: BoolFn, g: BoolFn, u: MultiSignal) -> tuple[Signal, Signal]:
    """(apply_fn(f, u), apply_fn(g, u)) in at most one walk over u.

    Equal tables share one image, and a table that depends on at most one
    input needs no walk; otherwise one walk over u takes both images.
    """
    if f == g:
        y = apply_fn(f, u)
        return y, y
    if f._one_input is not None or g._one_input is not None:
        return apply_fn(f, u), apply_fn(g, u)
    if not len(u) == f.arity == g.arity:
        raise ArityMismatch(
            f"functions of arity {f.arity} and {g.arity} applied to {len(u)} signals"
        )
    return _images(_packed(f, g), u)


@lru_cache(maxsize=256)
def _packed(f: BoolFn, g: BoolFn) -> tuple[int, ...]:
    """One table whose entries are f's bit above g's, built once per pair:
    the key hashes each function once in its lifetime and compares it by
    identity on a hit."""
    return tuple([a << 1 | b for a, b in zip(f.table, g.table)])


def fn_compose(f: BoolFn, inner: list[BoolFn] | tuple[BoolFn, ...]) -> BoolFn:
    """f applied to the outputs of the inner functions on disjoint blocks.

    The result has arity sum(n_p); argument blocks appear in inner order.
    """
    if len(inner) != f.arity:
        raise ArityMismatch(f"need {f.arity} inner functions, got {len(inner)}")
    total = sum(h.arity for h in inner)
    if total > MAX_ARITY:
        raise ArityMismatch(f"composed arity {total} exceeds {MAX_ARITY}")
    # block p's index is a slice of the composed index, and the product of
    # the inner tables walks those slices in composed-index order; block p's
    # value lands on f's index bit for argument p
    m = f.arity
    weights = [[v << (m - 1 - p) for v in h.table] for p, h in enumerate(inner)]
    t = f.table
    return BoolFn(total, tuple([t[sum(code)] for code in product(*weights)]))


def fn_leq(f: BoolFn, g: BoolFn) -> bool:
    """f <= g pointwise, by one pass over the two tables."""
    if g.arity != f.arity:
        raise ArityMismatch("f and g must share arity")
    return all(a <= b for a, b in zip(f.table, g.table))


@dataclass(frozen=True)
class FnProps:
    leq_fg: Bit
    max_f: Bit
    min_g: Bit
    monotone: Bit
    usual_symmetric: Bit
    rf_dual: Bit


def is_monotone(f: BoolFn) -> bool:
    """Order preserving: raising any argument never lowers the output.

    Raising argument p sets its index bit, so each bit is checked over the
    table, in O(m * 2**m) table reads.
    """
    t = f.table
    for k in range(f.arity):
        bit = 1 << k
        if any(t[i] > t[i | bit] for i in range(len(t)) if not i & bit):
            return False
    return True


def is_permutation_symmetric(f: BoolFn) -> bool:
    """Invariant under every permutation of the arguments.

    The swaps of neighbouring arguments generate every permutation, so the
    m - 1 of them decide it, in O(m * 2**m) table reads.
    """
    t = f.table
    for p in range(f.arity - 1):
        a = 1 << (f.arity - 1 - p)  # index bit of argument p
        b = a >> 1  # index bit of argument p + 1
        if any(t[i] != t[i ^ a ^ b] for i in range(len(t)) if i & a and not i & b):
            return False
    return True


def fn_props(f: BoolFn, g: BoolFn | None = None) -> FnProps:
    """Joint order and symmetry facts about a bound pair; g defaults to f.

    rf_dual holds when complementing all inputs and the output swaps the two
    functions: not f(a) == g(not a) for every a.
    """
    if g is None:
        g = f
    leq = fn_leq(f, g)
    max_f = max(f.table)
    min_g = min(g.table)
    mono = is_monotone(f) and is_monotone(g)
    sym = is_permutation_symmetric(f) and is_permutation_symmetric(g)
    # complementing every argument reverses the table index: i -> 2**m - 1 - i
    dual = all(a != b for a, b in zip(f.table, reversed(g.table)))
    return FnProps(int(leq), max_f, min_g, int(mono), int(sym), int(dual))
