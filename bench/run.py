#!/usr/bin/env python3
"""siglim benchmark: seeded workloads, every metric printed by name and unit.

    python3 bench/run.py                      # all three workloads, one process each
    python3 bench/run.py --workload trace_check --seed 7 --seconds 20 --trace 0

Each workload is a closed loop in one process and one thread: the next op
starts only after the previous one returns.  With --trace 0 the loop runs
until the ops have kept siglim busy for --seconds reference seconds (see
below), and the end-to-end metrics are printed.  With --trace 1 a fixed
number of ops from the start of the same stream run twice under spans
(their counts must agree), once without and once under cProfile, and the
per-layer metrics are printed.  Every result is
checked against an answer the benchmark works out itself; a wrong or raised
result counts as an error and makes the exit status 1.

Times are reported in reference seconds.  This benchmark runs on shared
virtual machines whose speed drifts by up to a factor of two over minutes,
and which switches between speeds within seconds.  So the run also times a
fixed piece of pure-Python Fraction work (`calibration_s`) before the first
op and after each one, and scales each op's time by REFERENCE_S over the
mean of the two samples around it.  Input and model generation in set-up
are scaled the same way; the import it also counts is not, as its speed
follows the calibration's only loosely.  The
collector is off while a sample is taken, so the program's heap and garbage
collection do not reach it.  The loop stops on scaled time too, so a run
does the same work whatever the machine's speed.  The raw wall-clock figures
are printed and recorded beside the metrics; compare those too when a
change might touch the calibration's speed.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with the machine and
the commit, and the spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("props_search", "trace_check", "cli_docs")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "fractions.calls": "count", "fractions.self_s": "s",
    "signals.calls": "count", "signals.self_s": "s", "signals.out_transitions": "count",
    "boolfn.fn_props.calls": "count", "boolfn.fn_props.self_s": "s", "boolfn.self_s": "s",
    "bounded.envelopes.calls": "count", "bounded.envelopes.self_s": "s",
    "bounded.envelopes.per_input": "calls/input",
    "inertial.search_between.calls": "count", "inertial.search_between.self_s": "s",
    "inertial.search_between.found_ratio": "ratio",
    "conditions.serial_membership.calls": "count", "conditions.serial_membership.self_s": "s",
    "conditions.serial_membership.inconclusive_ratio": "ratio",
    "conditions.contains.per_search": "calls/search",
    "files.self_s": "s", "cli.self_s": "s",
    "trace.ops_ratio": "ratio",
}
SETUP_REPEATS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import siglim, siglim.cli; print(time.perf_counter() - t)")
TAIL_BEYOND = 10  # op_tail_ms is the slowest op with at least this many slower ones
REFERENCE_S = 0.003  # calibration_s on a machine whose seconds are reference seconds


def calibration_s() -> float:
    """Seconds this machine takes, right now, for a fixed piece of Fraction work
    of the kind siglim does (exact sums, then a sort): the faster of two tries,
    so that a preemption does not reach the sample, with the collector off."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            acc, xs = Fraction(0), []
            for k in range(1, 600):
                acc += Fraction(k, k % 7 + 1)
                xs.append(acc)
            xs.sort(reverse=True)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Clock:
    """Turns the wall seconds of a piece of work into reference seconds, from
    the calibration samples taken just before and just after it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(calibration_s())

    def scaled(self, wall: float) -> float:
        self.sample()
        return wall * 2 * REFERENCE_S / (self.samples[-2] + self.samples[-1])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None, registry: dict | None = None) -> int:
    """Run one workload, or each in its own process.  `registry` maps workload
    names to classes taking the seed, in place of workloads.WORKLOADS."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "siglim" / "__init__.py").is_file():
        print(f"no siglim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import siglim
    if Path(siglim.__file__).resolve().parent != (SRC / "siglim").resolve():
        print(f"siglim was imported from {siglim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    make = (registry or workloads.WORKLOADS)[args.workload]
    clock = Clock()
    setups = []  # wall import and generation seconds, and their sum in reference seconds
    for _ in range(1 if args.trace else SETUP_REPEATS):
        import_s = float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                        capture_output=True, text=True, check=True,
                                        timeout=120).stdout)
        wl = make(args.seed)
        clock.sample()
        start = time.perf_counter()
        wl.setup()
        gen_s = time.perf_counter() - start
        setups.append((import_s, gen_s, import_s + clock.scaled(gen_s)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        result = traced(wl)
    else:
        result = untraced(wl, args.seconds, setups, clock)
    record(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


class Tally:
    """Latencies and errors of the ops run in one pass, and how many of its
    yes/no ops expected each answer, by kind of op."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.verdicts: Counter = Counter()

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def run(self, op, tracer=None, profiler=None) -> None:
        """Run op, profiling only the call into siglim when a profiler is given."""
        if tracer is not None:
            tracer.op = len(self.latencies)
        if op.verdict is not None:
            self.verdicts[op.kind, op.verdict] += 1
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # any failure of the op is an error to count
            self.latencies.append(time.perf_counter() - start)
            self.errors.append(f"{op.label}: raised {type(e).__name__}: {e}")
            return
        finally:
            if profiler is not None:
                profiler.disable()
        self.latencies.append(time.perf_counter() - start)
        try:
            problem = op.check(result)
        except Exception as e:  # a malformed result
            problem = f"result could not be checked: {type(e).__name__}: {e}"
        if problem:
            self.errors.append(f"{op.label}: {problem}")


def untraced(wl, seconds: float, setups: list[tuple[float, float, float]], clock: Clock) -> dict:
    tally = Tally()
    wall_end = time.monotonic() + 2 * seconds + 10
    seen, scaled = set(), []
    for op in wl.ops():
        seen.add(op.label)
        tally.run(op)
        scaled.append(clock.scaled(tally.latencies[-1]))
        if sum(scaled) >= seconds or time.monotonic() > wall_end:
            break
    attempted = len(tally.latencies)
    for op in getattr(wl, "known_answer_ops", list)():
        if op.label not in seen:
            tally.run(op)  # untimed: only the answer matters
    checks = len(tally.latencies) - attempted
    n = len(scaled)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n

    def figures(setup: list[float], lat: list[float]) -> dict:
        lat = sorted(lat)
        return {"setup_s": statistics.median(setup), "ops_per_s": n / sum(lat),
                "op_p50_ms": statistics.median(lat) * 1e3, "op_tail_ms": lat[rank - 1] * 1e3}

    raw = figures([a + b for a, b, _ in setups], tally.latencies[:attempted])
    metrics = figures([c for _, _, c in setups], scaled)
    busy = sum(tally.latencies[:attempted])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = len(tally.errors)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each a fresh import plus input and "
                   f"model generation: {', '.join(f'{a:.3f}+{b:.3f}' for a, b, _ in setups)} s wall",
        "ops_per_s": f"{n} ops in {busy:.3f} s busy",
        "op_p50_ms": f"of {n} ops",
        "op_tail_ms": f"p{100 * rank / n:.2f}: {n - rank} of {n} ops beyond it",
        "peak_rss_mb": "this process",
    }
    print(f"time scale {sum(scaled) / busy:.4f}: calibration samples median "
          f"{statistics.median(clock.samples) * 1e3:.4f} ms, range "
          f"{min(clock.samples) * 1e3:.4f}-{max(clock.samples) * 1e3:.4f} ms, "
          f"against {REFERENCE_S * 1e3:g} ms")
    for name, unit in END_TO_END.items():
        wall = f"(wall {raw[name]:.4f}) " if name in raw else ""
        print(f"{name:<12} {metrics[name]:>12.4f} {unit:<5} {wall}{notes[name]}")
    print(f"{'error_ratio':<12} {errors / (n + checks):>12.4f} {'ratio':<5} "
          f"{errors} of {n} ops and {checks} known-answer replays wrong or raised")
    verdicts = verdict_mix(tally)
    for err in tally.errors[:20]:
        print(f"  error: {err}")
    return {
        "correct": errors == 0, "attempted": n + checks, "failed": errors,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "error_ratio": errors / (n + checks),
        "wall": raw, "time_scale": sum(scaled) / busy, "calibration_s": clock.samples,
        "tail": {"percentile": 100 * rank / n, "samples": n, "beyond": n - rank},
        "verdicts": verdicts, "errors": tally.errors,
    }


def traced(wl) -> dict:
    import spans

    ops = list(islice(wl.ops(), wl.TRACE_OPS))
    runs = []
    for _ in range(2):  # the first traced pass also warms up caches and the heap
        tracer = spans.Tracer()
        tally = Tally()
        tracer.install()
        try:
            for op in ops:
                tally.run(op, tracer)
        finally:
            tracer.uninstall()
        runs.append((tracer, tally, *tracer.summary()))
    tracer, tally, counts, secs = runs[1]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.json")
    plain = Tally()
    for op in ops:
        plain.run(op)
    profiled, profiler = Tally(), cProfile.Profile()
    for op in ops:
        profiled.run(op, profiler=profiler)
    frac_calls, frac_s = spans.fraction_totals(profiler)

    errors = runs[0][1].errors + tally.errors + plain.errors + profiled.errors
    if runs[0][2] != counts:
        diff = sorted(k for k in set(counts) | set(runs[0][2]) if counts.get(k) != runs[0][2].get(k))
        errors.append(f"span counts differ between the two traced runs: {diff}")
    metrics = spans.layer_metrics(counts, secs)
    metrics["fractions.calls"] = frac_calls
    metrics["fractions.self_s"] = frac_s
    metrics["trace.ops_ratio"] = plain.busy / tally.busy
    print(f"{len(ops)} ops: traced {runs[0][1].busy:.3f} s and {tally.busy:.3f} s, "
          f"untraced {plain.busy:.3f} s, under cProfile {profiled.busy:.3f} s")
    for name, unit in PER_LAYER.items():
        base = spans.RATIOS.get(name)
        note = f"({counts.get(base[0], 0)} / {counts.get(base[1], 0)})" if base else ""
        print(f"{name:<48} {metrics[name]:>14.6g} {unit:<12} {note}")
    print("self time and boundary calls by layer:")
    layers = sorted({n.split('.', 1)[0] for n in secs})
    for layer in layers:
        print(f"  {layer:<12} {secs[layer]:>10.4f} s {counts.get(layer, 0):>10} calls")
    for err in errors[:20]:
        print(f"  error: {err}")
    attempted = 4 * len(ops)
    return {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()},
        "counts": counts, "self_s": secs, "errors": errors,
    }


def verdict_mix(tally: Tally) -> dict:
    """Print and return, per kind of yes/no op, how often each answer was expected."""
    mix: dict = {}
    for (kind, verdict), n in sorted(tally.verdicts.items()):
        mix.setdefault(kind, {})[verdict] = n
    print("expected verdicts: " + "; ".join(
        f"{kind} " + ", ".join(f"{v} {n}" for v, n in counts.items())
        for kind, counts in mix.items()))
    return mix


def record(args: argparse.Namespace, result: dict) -> None:
    """Write the result with the facts needed to compare it later."""
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "platform": platform.platform(), "processor": platform.processor(),
        "commit": commit, **result,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=2, default=str) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory belongs to one workload."""
    status, summary = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):  # the run died before its result line
            summary[name] = None
        status = status or proc.returncode
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
