"""The benchmark's three workloads.

Each workload turns a seed into a stream of ops.  An op is one call into
siglim (`run`) plus the answer the benchmark expects (`expected`) and a
check of the result against it (`verify`, returning None when it agrees).
Inputs are built before an op's clock starts and checked after it stops.
`setup` builds the models and the first inputs; later inputs are built
lazily while the stream is read, also outside the clock.

- props_search: cases of laws 4.8, 6.6, 3.12 and 6.4 (the first two count
  double) replayed through `siglim.props` at props seed PROPS_SEED, the seed
  whose failing cases are recorded in props_expected.json.  The run seed shuffles
  the cases within blocks of consecutive case numbers, so every run covers
  nearly the same cases.
- trace_check: two-input flc/blc/bailc gates on random traces of 10^3 to
  10^4 transitions per input, a fresh input for every op; expected answers
  come from the pointwise oracle in oracle.py.  Membership candidates are
  chosen so that every gate both accepts and rejects.
- cli_docs: in-process `siglim.cli.main` calls (check, eval --witness,
  compose) on model documents of arity 2 to 6 and input signals of 32
  transitions, fresh documents every cycle.
  Arity 7 is left out: building one symmetric model there takes about 8 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterator

import siglim
import siglim.cli
import siglim.files
import siglim.props

import oracle as O
from oracle import Wave

HERE = Path(__file__).resolve().parent
PROPS_EXPECTED = HERE / "props_expected.json"
PROPS_SEED = 42
PROPS_CASES = 500  # per law


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    expected: Any
    verify: Callable[[Any, Any], "str | None"]
    verdict: str | None = None  # the expected answer of a yes/no op, counted per kind

    @property
    def kind(self) -> str:
        return self.label.split("@")[0].split(":")[0]

    def check(self, result: Any) -> str | None:
        return self.verify(result, self.expected)


def to_signal(x: Wave) -> siglim.Signal:
    return siglim.Signal(x.initial, tuple(zip(map(O.to_time, x.times), x.values)))


def from_signal(s: siglim.Signal) -> Wave:
    return Wave(s.initial, [O.to_tick(t) for t, _ in s.transitions],
                [v for _, v in s.transitions])


def overlap_params(rng: random.Random) -> tuple[int, int, int, int]:
    """(m_r, d_r, m_f, d_f) in ticks whose windows overlap, so any f <= g is valid."""
    s = O.SCALE
    m_r, m_f = rng.randint(0, 2 * s), rng.randint(0, 2 * s)
    d_r = m_r + rng.randint(0, 2 * s)
    d_f = rng.randint(max(m_f, d_r - m_r), d_r + m_f)
    return m_r, d_r, m_f, d_f


def siglim_params(p: tuple[int, int, int, int]) -> siglim.BlcParams:
    return siglim.params(*map(O.to_time, p))


def _inside(lo: Wave, hi: Wave, w: Wave) -> str | None:
    if not lo.initial <= w.initial <= hi.initial:
        return "output starts outside the envelopes"
    t = O.first_violation(lo, hi, w)
    return None if t is None else f"output leaves the envelopes at tick {t}"


# --- props_search ---------------------------------------------------------------

class PropsSearch:
    name = "props_search"
    # criterion 07's two laws count double: cases per law in each block
    WEIGHTS = {"4.8": 2, "6.6": 2, "3.12": 1, "6.4": 1}
    TRACE_OPS = 18

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.cfg = siglim.props.GenConfig(seed=PROPS_SEED, cases=PROPS_CASES)
        failing = json.loads(PROPS_EXPECTED.read_text())
        self.failing = {(law, k) for law, ks in failing.items() for k in ks}

    def ops(self) -> Iterator[Op]:
        """Block b holds cases b*w .. b*w + w - 1 of each law of weight w, in
        an order the seed shuffles; blocks run in order."""
        rng = random.Random(f"props_search:{self.seed}")
        for b in range(PROPS_CASES // max(self.WEIGHTS.values())):
            block = [(law, k) for law, w in self.WEIGHTS.items() for k in range(b * w, (b + 1) * w)]
            rng.shuffle(block)
            for law, k in block:
                yield self.case_op(law, k)

    def case_op(self, law: str, k: int) -> Op:
        cfg, fails = self.cfg, (law, k) in self.failing
        return Op(f"{law}:{k}", lambda: siglim.props.replay_case(law, cfg, k),
                  fails, _verify_case, "fail" if fails else "pass")

    def known_answer_ops(self) -> list[Op]:
        """The recorded failing cases, replayed after the timed loop."""
        return [self.case_op(law, k) for law, k in sorted(self.failing)]


def _verify_case(detail: str | None, fails: bool) -> str | None:
    if (detail is not None) == fails:
        return None
    return f"expected {'a failure' if fails else 'a pass'}, got {detail or 'a pass'}"


# --- trace_check ----------------------------------------------------------------

class TraceCheck:
    name = "trace_check"
    KINDS = ("blc.contains", "flc.eval", "bailc.contains",
             "blc.sample", "flc.contains", "flc.eval")
    # Transitions per input run from 10^3 to 10^4, most near 10^3: op i takes
    # 10^(3 + q^3) with q = frac(i * golden ratio), an even spread that gives
    # every run nearly the same mix of sizes and a cost distribution with no
    # gaps, so the median and tail ops do not jump between clusters.
    GOLDEN = 0.6180339887498949
    TINY = 50  # transitions per input in the self-test
    MAX_GAP = 2 * O.SCALE
    # gate parameters in ticks: flc delay, blc and bailc windows (m_r, d_r, m_f, d_f),
    # bailc dwells (delta_r, delta_f)
    FLC_D = 6
    BLC_P = (4, 12, 4, 12)
    BAILC_P = (8, 16, 8, 16)
    BAILC_A = (4, 6)
    SETUP_OPS = 6
    TRACE_OPS = 6

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        and2, or2 = siglim.and_fn(2), siglim.or_fn(2)
        self.gates = {
            "flc": siglim.flc(siglim.xor_fn(), O.to_time(self.FLC_D)),
            "blc": siglim.blc(and2, or2, siglim_params(self.BLC_P)),
            "bailc": siglim.bailc(and2, or2, siglim_params(self.BAILC_P),
                                  siglim.aic_params(*map(O.to_time, self.BAILC_A))),
        }
        self.first = [self.make_op(i) for i in range(self.SETUP_OPS)]

    def ops(self) -> Iterator[Op]:
        yield from self.first
        i = len(self.first)
        while True:
            yield self.make_op(i)
            i += 1

    def make_op(self, i: int) -> Op:
        rng = random.Random(f"trace_check:{self.seed}:{i}")
        kind = self.KINDS[i % len(self.KINDS)]
        n = self.TINY if self.tiny else round(10 ** (3 + (i * self.GOLDEN % 1) ** 3))
        u = [O.random_wave(rng, n, 0, self.MAX_GAP) for _ in range(2)]
        u_sig = (to_signal(u[0]), to_signal(u[1]))
        gate = self.gates[kind.split(".")[0]]
        label = f"{kind}@{n}"
        if kind.startswith("flc"):
            y = O.shift(O.apply_table(O.XOR2, u), self.FLC_D)
            if kind == "flc.eval":
                return Op(label, lambda: gate.sample(u_sig, 1, 0)[0], y, _verify_equal)
            x = y if i // len(self.KINDS) % 2 else O.flip(y, *_span(rng, y))
            x_sig = to_signal(x)
            return _contains_op(label, gate, u_sig, x, int(x == y))
        p = self.BLC_P if kind.startswith("blc") else self.BAILC_P
        lo, hi = O.blc_envelopes(O.AND2, O.OR2, p, u)
        if kind == "blc.sample":
            return Op(label, lambda: gate.sample(u_sig, 2, i), (lo, hi), _verify_members)
        # The candidate type cycles so that op i costs about the same for every
        # seed.  lo nearly always has runs shorter than the bailc dwells, so
        # bailc is offered lo with its short runs merged instead.
        pick = i // len(self.KINDS) % 3
        fit, other = (O.merge_runs(lo, hi), lo) if kind == "bailc.contains" else (lo, hi)
        x = fit if pick == 0 else other if pick == 1 else O.flip(fit, *_span(rng, fit))
        bit = int(O.first_violation(lo, hi, x) is None)
        if kind == "bailc.contains":
            bit &= O.dwell_ok(x, *self.BAILC_A)
        return _contains_op(label, gate, u_sig, x, bit)


def _contains_op(label: str, gate, u_sig, x: Wave, bit: int) -> Op:
    x_sig = to_signal(x)
    return Op(label, lambda: gate.contains(u_sig, x_sig), bit, _verify_bit,
              "in" if bit else "out")


def _span(rng: random.Random, x: Wave) -> tuple[int, int]:
    """A random interval inside the busy part of x."""
    lo_t, hi_t = (x.times[0], x.times[-1]) if x.times else (0, 1)
    a = rng.randint(lo_t, hi_t)
    return a, a + rng.randint(1, 4 * O.SCALE)


def _verify_bit(bit: int, want: int) -> str | None:
    return None if bit == want else f"verdict {bit}, expected {want}"


def _verify_equal(y: siglim.Signal, want: Wave) -> str | None:
    try:
        w = from_signal(y)
    except ValueError as e:
        return str(e)
    return None if w == want else "output differs from the pointwise oracle"


def _verify_members(ys: list, env: tuple[Wave, Wave]) -> str | None:
    if not ys:
        return "no output sampled"
    for y in ys:
        try:
            bad = _inside(*env, from_signal(y))
        except ValueError as e:
            bad = str(e)
        if bad:
            return bad
    return None


# --- cli_docs -------------------------------------------------------------------

UNARY_PAIRS = [(f, g) for f in ((0, 0), (0, 1), (1, 0), (1, 1))
               for g in ((0, 0), (0, 1), (1, 0), (1, 1))
               if all(a <= b for a, b in zip(f, g))]


class CliDocs:
    name = "cli_docs"
    ARITIES = (2, 3, 4, 5, 6)
    TINY_ARITIES = (2, 3)
    TRANSITIONS = 32  # per input signal; one length keeps each op's cost the same across seeds
    WITNESSES = 3
    TRACE_OPS = 25  # one cycle

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.arities = self.TINY_ARITIES if tiny else self.ARITIES
        self.dir = HERE.parent / ".bench_out" / "cli_docs"

    def setup(self) -> None:
        self.first = self.make_cycle(0)

    def ops(self) -> Iterator[Op]:
        yield from self.first
        c = 1
        while True:
            yield from self.make_cycle(c)
            c += 1

    def _path(self, name: str) -> str:
        return str(self.cycle_dir / name)

    def _write_signal(self, name: str, x: Wave) -> str:
        path = self._path(name)
        siglim.files.write_signal_file(path, to_signal(x))
        return path

    def _write_model(self, name: str, model) -> str:
        path = self._path(name)
        siglim.files.write_model_file(path, model)
        return path

    def make_cycle(self, c: int) -> list[Op]:
        rng = random.Random(f"cli_docs:{self.seed}:{c}")
        ops: list[Op] = []
        self.cycle_dir = self.dir / f"cycle{c}"
        self.cycle_dir.mkdir(parents=True, exist_ok=True)
        for m in self.arities:
            andor = (tuple(int(all(a)) for a in product((0, 1), repeat=m)),
                     tuple(int(any(a)) for a in product((0, 1), repeat=m)))
            g = tuple(rng.randint(0, 1) for _ in range(1 << m))
            rand = (tuple(b & rng.randint(0, 1) for b in g), g)
            u = [O.random_wave(rng, self.TRANSITIONS, rng.randint(-8, 8) * O.SCALE, 4 * O.SCALE)
                 for _ in range(m)]
            ins = [self._write_signal(f"m{m}-in{k}.json", x) for k, x in enumerate(u)]
            made = {}
            for tag, (f, g) in (("andor", andor), ("rand", rand)):
                p = overlap_params(rng)
                model = siglim.blc(siglim.BoolFn(m, f), siglim.BoolFn(m, g), siglim_params(p))
                path = self._write_model(f"m{m}-{tag}.json", model)
                made[tag] = (path, f, g, p)
            for tag in ("andor", "rand"):
                ops.append(self._check_op(rng, m, tag, made[tag], u, ins))
            for tag in ("andor", "rand"):
                ops.append(self._eval_op(m, tag, made[tag], u, ins))
            ops.append(self._compose_op(rng, m, made["andor"]))
        return ops

    def _check_op(self, rng, m, tag, model, u, ins) -> Op:
        path, f, g, p = model
        lo, hi = O.blc_envelopes(f, g, p, u)
        x = lo if rng.random() < 0.3 else O.flip(lo, *_span(rng, lo))
        cand = self._write_signal(f"m{m}-{tag}-cand.json", x)
        t = O.first_violation(lo, hi, x)
        want = (0, "ok\n") if t is None else (1, f"violation at t={O.format_tick(t)}\n")
        argv = ["check", "--model", path, "--candidate", cand]
        for p_in in ins:
            argv += ["--input", p_in]
        return Op(f"check@{m}/{tag}", lambda: _call_cli(argv), want, _verify_output,
                  "violation" if want[0] else "ok")

    def _eval_op(self, m, tag, model, u, ins) -> Op:
        path, f, g, p = model
        out = self._path(f"m{m}-{tag}-witness.json")
        argv = ["eval", path, *ins, "--witness", str(self.WITNESSES), "--out", out]
        return Op(f"eval@{m}/{tag}", lambda: _call_cli(argv),
                  O.blc_envelopes(f, g, p, u), self._verify_witnesses)

    def _verify_witnesses(self, result, env) -> str | None:
        code, out = result
        paths = out.split()
        if code != 0 or not 1 <= len(paths) <= self.WITNESSES:
            return f"eval printed {out!r} with exit {code}"
        seen = []
        for path in paths:
            doc = json.loads(Path(path).read_text())
            w = Wave(doc["initial"], [O.parse_time(t) for t, _ in doc["transitions"]],
                     [v for _, v in doc["transitions"]])
            if w in seen:
                return f"witness {path} repeats an earlier one"
            seen.append(w)
            bad = _inside(*env, w)
            if bad:
                return f"witness {path}: {bad}"
        return None

    def _compose_op(self, rng, m, outer) -> Op:
        path, f, g, p = outer
        inner = [rng.choice(UNARY_PAIRS) for _ in range(m)]
        p2 = overlap_params(rng)
        inner_paths = [
            self._write_model(f"m{m}-inner{k}.json", siglim.blc(
                siglim.BoolFn(1, fi), siglim.BoolFn(1, gi), siglim_params(p2)))
            for k, (fi, gi) in enumerate(inner)
        ]
        out = self._path(f"m{m}-composed.json")
        names = ("m_r", "d_r", "m_f", "d_f")
        want = {
            "kind": "blc",
            "f": {"arity": m, "table": _bits(O.compose_tables(f, [fi for fi, _ in inner]))},
            "g": {"arity": m, "table": _bits(O.compose_tables(g, [gi for _, gi in inner]))},
            "params": {k: O.format_tick(a + b) for k, a, b in zip(names, p, p2)},
        }
        argv = ["compose", path, *inner_paths, "--out", out]
        return Op(f"compose@{m}", lambda: _call_cli(argv), (out, want), _verify_compose)


def _bits(table) -> str:
    return "".join(map(str, table))


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = siglim.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _verify_output(result: tuple[int, str], want: tuple[int, str]) -> str | None:
    return None if result == want else f"got {result!r}, expected {want!r}"


def _verify_compose(result: tuple[int, str], want) -> str | None:
    out, doc = want
    if result != (0, out + "\n"):
        return f"compose returned {result!r}"
    got = json.loads(Path(out).read_text())
    return None if got == doc else f"composed document {got} differs from {doc}"


WORKLOADS = {w.name: w for w in (PropsSearch, TraceCheck, CliDocs)}
