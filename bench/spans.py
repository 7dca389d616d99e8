"""Spans around the calls into each siglim module, recorded from outside.

`Tracer.install` replaces functions with timing wrappers in siglim's module
namespaces and restores them on `uninstall`; siglim itself is not edited.
A function defined in module X is wrapped where another module (or the
`siglim` package) refers to it, so a span marks a call that crosses into
layer X.  Calls inside X go unwrapped and count toward X's own time, with
these additions:

- the functions measured one by one (`NAMED`) and the entry points the
  benchmark calls (`ENTRY`) are also wrapped inside their own module;
- functions some siglim code imports inside a function body are wrapped
  in their own module too, since that import reads the module attribute;
- `LimitCondition.contains`, `.membership` and `.sample`, and the `Signal`
  operators `& | ^ ~`, are wrapped on their classes.

Per-point methods such as `Signal.value_at` stay unwrapped: they run once
per breakpoint inside `combine`, and count toward their caller's layer.

A span is [name, start, end, parent index, op id, note]; spans stay in
memory until `write`.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import cProfile
import dis
import inspect
import json
import pstats
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import siglim

MODULES = ("signals", "boolfn", "bounded", "conditions", "inertial",
           "files", "cli", "props", "errors")
NAMED = ("boolfn.fn_props", "bounded.envelopes", "inertial.search_between",
         "conditions.serial_membership")
ENTRY = ("props.replay_case", "cli.main")
METHODS = {
    ("conditions", "LimitCondition"): ("contains", "membership", "sample"),
    ("signals", "Signal"): ("__and__", "__or__", "__xor__", "__invert__"),
}
CONTAINS = "conditions.LimitCondition.contains"
SEARCH = "conditions.serial_membership"


def _layer(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    return mod.split(".", 1)[1] if mod.startswith("siglim.") else None


def _local_imports(module: types.ModuleType) -> set[str]:
    """Names that functions of this module import inside their bodies."""
    names: set[str] = set()
    codes = [obj.__code__ for obj in vars(module).values()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        names |= {ins.argval for ins in dis.get_instructions(code) if ins.opname == "IMPORT_FROM"}
    return names


def _note(name: str):
    """What a span keeps of its call, for the ratios computed afterwards."""
    if name == "bounded.envelopes":
        return lambda args, result: args
    if name == "inertial.search_between":
        return lambda args, result: result is not None
    if name == SEARCH:
        return lambda args, result: (args[0], result[1])
    if name == CONTAINS:
        return lambda args, result: args[0]
    if name.startswith("signals."):
        return lambda args, result: len(result.transitions) if isinstance(result, siglim.Signal) else 0
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, note = self.spans, self.stack, time.perf_counter, _note(name)

        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = {m: sys.modules[f"siglim.{m}"] for m in MODULES}
        lazy = set().union(*(_local_imports(mod) for mod in mods.values()))
        wrappers: dict[object, object] = {}
        for where, mod in [("siglim", siglim)] + list(mods.items()):
            for attr, obj in list(vars(mod).items()):
                layer = _layer(obj)
                if not inspect.isfunction(obj) or layer is None:
                    continue
                qual = f"{layer}.{attr}"
                if layer == where and qual not in NAMED + ENTRY and attr not in lazy:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for attr in methods:
                self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", getattr(cls, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "spans": [s[:5] for s in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")))

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """(counts, seconds) per layer and per measured function.

        Counts are exact and should repeat run to run; seconds are self times.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        counts: Counter = Counter()
        secs: defaultdict = defaultdict(float)
        env_inputs = set()
        for i, (name, start, end, parent, _op, note) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = end - start - covered[i]
            secs[layer] += own
            secs[name] += own
            counts[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name.split(".", 1)[0] != layer:
                counts[layer] += 1
                if layer == "signals":
                    counts["signals.out_transitions"] += note or 0
            if note is None:  # the call raised
                continue
            if name == "bounded.envelopes":
                f, g, p, u = note
                env_inputs.add((f.table, g.table, p, tuple(u)))
            elif name == "inertial.search_between":
                counts["inertial.search_between.found"] += note
            elif name == SEARCH:
                counts["conditions.serial_membership.inconclusive"] += bool(note[1])
            elif name == CONTAINS and parent_name == SEARCH and spans[parent][5] \
                    and spans[parent][5][0] is note:
                counts["conditions.contains.outer"] += 1
        counts["bounded.envelopes.inputs"] = len(env_inputs)
        return dict(counts), dict(secs)


RATIOS = {  # metric: (numerator count, base count)
    "bounded.envelopes.per_input": ("bounded.envelopes", "bounded.envelopes.inputs"),
    "inertial.search_between.found_ratio": ("inertial.search_between.found",
                                            "inertial.search_between"),
    "conditions.serial_membership.inconclusive_ratio": (
        "conditions.serial_membership.inconclusive", SEARCH),
    "conditions.contains.per_search": ("conditions.contains.outer", SEARCH),
}


def layer_metrics(counts: dict[str, int], secs: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass.

    A ratio whose base count is 0 (the function never ran) reads 0.
    """
    out = {
        "signals.calls": counts.get("signals", 0),
        "signals.self_s": secs.get("signals", 0.0),
        "signals.out_transitions": counts.get("signals.out_transitions", 0),
        "boolfn.fn_props.calls": counts.get("boolfn.fn_props", 0),
        "boolfn.fn_props.self_s": secs.get("boolfn.fn_props", 0.0),
        "boolfn.self_s": secs.get("boolfn", 0.0),
        "bounded.envelopes.calls": counts.get("bounded.envelopes", 0),
        "bounded.envelopes.self_s": secs.get("bounded.envelopes", 0.0),
        "inertial.search_between.calls": counts.get("inertial.search_between", 0),
        "inertial.search_between.self_s": secs.get("inertial.search_between", 0.0),
        "conditions.serial_membership.calls": counts.get(SEARCH, 0),
        "conditions.serial_membership.self_s": secs.get(SEARCH, 0.0),
        "files.self_s": secs.get("files", 0.0),
        "cli.self_s": secs.get("cli", 0.0),
    }
    for metric, (num, base) in RATIOS.items():
        out[metric] = counts.get(num, 0) / counts[base] if counts.get(base) else 0.0
    return out


def fraction_totals(prof: cProfile.Profile) -> tuple[int, float]:
    """(calls, self seconds) that prof saw spent in fractions.py."""
    calls, secs = 0, 0.0
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in pstats.Stats(prof).stats.items():
        if Path(filename).name == "fractions.py":
            calls += nc
            secs += tt
    return calls, secs
