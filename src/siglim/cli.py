"""Command-line surface: evaluate, check, compose, run the theorem suite, render.

Exit codes are uniform across subcommands: 0 for success or membership, 1 for
a semantic negative (membership fails, a theorem check fails), 2 for any
validation error, with a diagnostic naming the violated precondition, and 3
when `check` cannot decide membership because a witness search hit its
budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from bisect import bisect_right
from fractions import Fraction

from .conditions import Join, LimitCondition, Meet, closed_form
from .errors import PreconditionViolated, SiglimError
from .files import (
    format_tick,
    format_time,
    parse_time,
    read_model_file,
    read_signal_file,
    write_model_file,
    write_signal_file,
)
from .inertial import AicParams, aic_violation
from .props import GenConfig, describe, replay_case, run_theorem, theorem_ids
from .signals import Signal, Time, _lattice


def _read_inputs(paths: list[str]) -> tuple[Signal, ...]:
    return tuple(read_signal_file(p) for p in paths)


def _numbered(path: str, index: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}-{index + 1}{ext or '.json'}"


# --- eval ----------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    model = read_model_file(args.model)
    u = _read_inputs(args.inputs)
    if args.witness is not None:
        if args.witness < 1:
            print("ValidationError: --witness needs a positive count", file=sys.stderr)
            return 2
        found: dict[Signal, None] = {}
        for round_ in range(5):
            found.update(dict.fromkeys(model.sample(u, args.witness, args.seed + round_)))
            if len(found) >= args.witness:
                break
        for k, x in enumerate(list(found)[: args.witness]):
            path = args.out if args.witness == 1 else _numbered(args.out, k)
            write_signal_file(path, x)
            print(path)
        return 0
    if not model.deterministic:
        print(
            "NondeterministicModel: this model admits several outputs per input; "
            "pass --witness n to sample members",
            file=sys.stderr,
        )
        return 2
    x = model.sample(u, 1, args.seed)[0]
    write_signal_file(args.out, x)
    print(args.out)
    return 0


# --- check ---------------------------------------------------------------------

def _violation_time(model: LimitCondition, u, x: Signal) -> Time | None:
    """The time the model's `violation` names, else the earliest a meet's
    parts name, or the latest a join's do when each part names one."""
    t = model.violation(u)(x)
    if t is not None or not isinstance(model, (Meet, Join)):
        return t
    times = [_violation_time(p, u, x) for p in model.parts]
    if isinstance(model, Meet):
        return min((t for t in times if t is not None), default=None)
    return None if None in times else max(times)


def cmd_check(args: argparse.Namespace) -> int:
    x = read_signal_file(args.candidate)
    if args.model is None and args.aic is None:
        print("ValidationError: nothing to check; give --model and/or --aic",
              file=sys.stderr)
        return 2
    if args.model is not None:
        model = read_model_file(args.model)
        u = _read_inputs(args.inputs)
        bit, inconclusive = model.membership(u, x)
        if inconclusive:
            print("undecided")
            return 3
        if bit != 1:
            t = _violation_time(model, u, x)
            # no time is to blame when only a witness search rejects x
            print("violation: the witness search found no intermediate signals" if t is None
                  else f"violation at t={format_time(t)}")
            return 1
    if args.aic is not None:
        a = AicParams(parse_time(args.aic[0]), parse_time(args.aic[1]))
        t = aic_violation(x, a)
        if t is not None:
            print(f"violation at t={format_time(t)}")
            return 1
    print("ok")
    return 0


# --- compose -------------------------------------------------------------------

def cmd_compose(args: argparse.Namespace) -> int:
    outer = read_model_file(args.outer)
    inners = [read_model_file(p) for p in args.inners]
    write_model_file(args.out, closed_form(outer, inners))
    print(args.out)
    return 0


# --- props ---------------------------------------------------------------------

def cmd_props(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, cases=args.cases)
    if args.replay is not None:
        tid, case = args.replay
        if not case.isdigit():
            raise PreconditionViolated(f"case must be a non-negative integer, got {case!r}")
        msg = replay_case(tid, cfg, int(case))
        print(f"{tid} case {case}: {'pass' if msg is None else msg}")
        return 0 if msg is None else 1
    ids = [args.only] if args.only else list(theorem_ids())
    if args.only:
        describe(args.only)
    failed = False
    for tid in ids:
        report = run_theorem(tid, cfg)
        print(f"{tid} {report.cases_run} {report.status}")
        if report.failures:
            failed = True
            path = f"props-{tid.replace('.', '_')}-counterexample.json"
            with open(path, "w") as fh:
                json.dump(
                    {
                        "theorem": tid,
                        "description": describe(tid),
                        "seed": cfg.seed,
                        "cases": cfg.cases,
                        "failures": report.failures[:10],
                    },
                    fh, indent=2,
                )
                fh.write("\n")
            print(f"  counterexample written to {path}")
    return 1 if failed else 0


# --- render --------------------------------------------------------------------

def _window(x: Signal, lo: Time, hi: Time, lattice: int, closed: bool) -> list[int]:
    """The transitions of x in (lo, hi], or in [lo, hi] when closed, as
    ticks on lattice, a multiple of x.scale."""
    k = bisect_right(x.ticks, (lo.numerator * x.scale - closed) // lo.denominator)
    end = bisect_right(x.ticks, hi.numerator * x.scale // hi.denominator)
    return [t * (lattice // x.scale) for t in x.ticks[k:end]]


def _render_ascii(names: list[str], xs: list[Signal], lo: Fraction, hi: Fraction) -> str:
    lattice = _lattice(xs)
    windows = [_window(x, lo, hi, lattice, False) for x in xs]
    cols = sorted(set().union(*windows))
    width = max(len(n) for n in names + ["time"])
    cells = [format_time(lo)] + [format_tick(t, lattice) for t in cols]
    lines = ["  ".join([f"{'time':<{width}}"] + cells)]
    for name, x, ticks in zip(names, xs, windows):
        at_lo = x.value_at(lo)
        values = [at_lo] + [at_lo ^ (bisect_right(ticks, t) & 1) for t in cols]
        row = [f"{v:>{len(c)}}" for v, c in zip(values, cells)]
        lines.append("  ".join([f"{name:<{width}}"] + row))
    return "\n".join(lines)


def _render_vcd(names: list[str], xs: list[Signal], lo: Fraction, hi: Fraction) -> str:
    idents = [chr(33 + k) for k in range(len(xs))]
    lattice = _lattice(xs)
    changes: dict[int, list[str]] = {}
    for x, ident in zip(xs, idents):
        before = x.left_limit(lo)
        for n, t in enumerate(_window(x, lo, hi, lattice, True), 1):
            changes.setdefault(t, []).append(f"{before ^ (n & 1)}{ident}")
    times = sorted(changes)
    g = math.gcd(lattice, *times)
    scale = lattice // g
    offset = -min(times[0] // g, 0) if times else 0
    out = []
    if scale == 1:
        out.append("$timescale 1 s $end")
    else:
        out.append("$timescale 1 ns $end")
        out.append(f"$comment one tick is 1/{scale} s $end")
    if offset:
        out.append(f"$comment ticks shifted by +{offset} $end")
    out.append("$scope module signals $end")
    for name, ident in zip(names, idents):
        out.append(f"$var wire 1 {ident} {name} $end")
    out += ["$upscope $end", "$enddefinitions $end", "$dumpvars"]
    for x, ident in zip(xs, idents):
        out.append(f"{x.value_at(lo)}{ident}")
    out.append("$end")
    for t in times:
        out.append(f"#{t // g + offset}")
        out += changes[t]
    return "\n".join(out) + "\n"


def cmd_render(args: argparse.Namespace) -> int:
    xs = list(_read_inputs(args.inputs))
    lo, hi = parse_time(args.frm), parse_time(args.to)
    if not lo < hi:
        print("EmptyRange: --from must be strictly below --to", file=sys.stderr)
        return 2
    names = [os.path.splitext(os.path.basename(p))[0] for p in args.inputs]
    print(_render_ascii(names, xs, lo, hi))
    if args.vcd:
        with open(args.vcd, "w") as fh:
            fh.write(_render_vcd(names, xs, lo, hi))
        print(f"vcd written to {args.vcd}")
    return 0


# --- dispatch ------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built on the first `main` call and kept for the
    process: `parse_args` returns a fresh namespace each time, argparse copies
    `--input`'s list default before appending to it, and no command mutates
    its arguments."""
    parser = argparse.ArgumentParser(
        prog="siglim",
        description="evaluate, check and compose switching-time models "
                    "over exact rational time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run a model on inputs and write its output")
    p.add_argument("model", help="model file")
    p.add_argument("inputs", nargs="+", help="one signal file per model input")
    p.add_argument("--out", required=True, help="output signal file")
    p.add_argument("--witness", type=int, default=None, metavar="N",
                   help="sample N admissible outputs instead of requiring determinism")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("check", help="decide membership of a candidate output")
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--input", dest="inputs", action="append", default=[],
                   help="signal file, one per model input (repeatable)")
    p.add_argument("--candidate", required=True, help="candidate output signal file")
    p.add_argument("--aic", nargs=2, default=None, metavar=("DR", "DF"),
                   help="additionally require dwell times after rises and falls")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("compose", help="closed-form serial composition")
    p.add_argument("outer", help="outer model file")
    p.add_argument("inners", nargs="+", help="one inner model file per outer input")
    p.add_argument("--out", required=True, help="composed model file")
    p.set_defaults(run=cmd_compose)

    p = sub.add_parser("props", help="run the theorem suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--only", default=None, metavar="ID", help="run a single check")
    p.add_argument("--replay", nargs=2, default=None, metavar=("ID", "CASE"),
                   help="rerun one case of one check and print its message")
    p.set_defaults(run=cmd_props)

    p = sub.add_parser("render", help="ASCII waveform table, optionally a VCD dump")
    p.add_argument("inputs", nargs="+", help="signal files")
    p.add_argument("--from", dest="frm", required=True, help="start time, p or p/q")
    p.add_argument("--to", required=True, help="end time, p or p/q")
    p.add_argument("--vcd", default=None, metavar="PATH", help="also write a VCD file")
    p.set_defaults(run=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SiglimError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"FileError: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
