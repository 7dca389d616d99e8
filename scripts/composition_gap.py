#!/usr/bin/env python3
"""Reproduction of a composition finding: the closed-form parameter sum for
chaining dwell-constrained window models admits behaviours that no
stage-by-stage execution can produce.

The closed form says: compose a window model with dwell constraints by
summing the window parameters stagewise and keeping the outermost dwell.
That rule is sound for plain window models, and for dwell chains whose
inner dwell is zero, but with a nonzero inner dwell it over-approximates.
In the instance below the inner dwell is longer than the outer model's
bridging window: the inner stage is then forced to hold a value so long
that the outer window can fit entirely inside the held run, where it sees
nothing, while the summed-parameter form happily bridges the gap.  A
longer inner dwell is not needed for the gap, though: at seed 2 case 84
(inner dwell (17/16, 0), outer bridging widths (2, 3/2)) the summed form
fails as well, with every inner dwell shorter than the matching outer
width.  `serial()` and `siglim compose` therefore use the summed form only
for zero inner dwell.

This script replays one concrete instance (props registry id 6.6, case
129, found by the randomized suite) and verifies each step of the
argument mechanically.  Replay inside the suite with:

    siglim props --replay 6.6 129
    siglim props --seed 2 --replay 6.6 84

(`python3 -m siglim` in place of `siglim` works without the install.)
"""
import sys
from fractions import Fraction as F

from siglim import (
    SearchBudget,
    aic_params,
    apply_fn,
    bailc,
    bailc_compose,
    const_fn,
    identity_fn,
    make_signal,
    params,
    serial_membership,
    window_any,
)

ID = identity_fn()
ZERO = const_fn(1, 0)


def main() -> int:
    # one input line, one candidate output, two chained unary models
    u = (make_signal(1, [(5, 0), (F(15, 2), 1), (F(41, 5), 0), (F(141, 8), 1)]),)
    x = make_signal(1, [(12, 0), (F(747, 40), 1)])

    outer_p = params(0, F(9, 5), F(3, 4), F(9, 5))
    outer_a = aic_params(0, F(21, 32))
    inner_p = params(F(13, 8), F(163, 56), 2, 2)
    inner_a = aic_params(F(29, 64), F(87, 64))

    outer = bailc(ID, ID, outer_p, outer_a)
    inner = bailc(ZERO, ID, inner_p, inner_a)

    closed = bailc_compose(ID, ID, outer_p, outer_a, [(ZERO, ID)], inner_p,
                           inner_a)
    cbit = closed.contains(u, x)
    print(f"summed-parameter form accepts the pair: contains = {cbit}")
    assert cbit == 1

    big = SearchBudget(max_nodes=6000, samples=10)
    bit, exhausted = serial_membership(outer, [inner], u, x, big, seed=0)
    print(f"witness search over intermediate signals: bit = {bit}, "
          f"exhausted = {exhausted} (decisive, budget not the limit)")
    assert (bit, exhausted) == (0, False)

    print("\nwhy no intermediate signal y can work:")

    hi2 = window_any(apply_fn(ID, u), inner_p.d_f, inner_p.m_f)
    assert hi2.value_at(7) == 0 and hi2.value_at(F(29, 4)) == 0
    print(f"  inner upper envelope forces y = 0 on [7, 15/2): "
          f"hi2 = {hi2!r}")

    assert x.value_at(-100) == 1
    print("  x is 1 toward the far past, so y must start at 1 "
          "(the outer window must always find a 1 to its left)")
    print("  hence y has a falling edge at some s <= 7")

    print(f"  inner dwell makes y hold 0 on the closed run [s, s + 87/64]")
    assert inner_a.delta_f > outer_p.m_f
    print(f"  but 87/64 = {float(inner_a.delta_f):.3f} exceeds the outer "
          f"bridging window m_f = {outer_p.m_f}")

    # at t = s + d_f the outer window [t - d_f, t - d_f + m_f] = [s, s + 3/4]
    # sits inside the held run, so the outer upper envelope is 0 there,
    # yet x is still 1 (s + 9/5 <= 7 + 9/5 = 44/5 < 12)
    assert outer_p.d_f + 7 < 12 and x.value_at(F(44, 5)) == 1
    print(f"  at t = s + {outer_p.d_f} the outer window [s, s + "
          f"{outer_p.m_f}] sees only that held 0, forcing x(t) = 0;")
    print(f"  but t <= 44/5 < 12 where x = 1: contradiction, no witness")

    print("\nconclusion: with a nonzero inner dwell the summed-parameter "
          "form is a strict over-approximation of the chain; stagewise "
          "execution is the ground truth")
    return 0


if __name__ == "__main__":
    sys.exit(main())
