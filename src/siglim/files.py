"""Signal and model documents: structured text with exact rational times.

Times serialize as strings "p" or "p/q", never floats, so parsing and
serializing round-trip bit-exactly.  Model documents name a model kind plus
its bound functions and parameters; combinators carry their children inline.

A signal document is read straight onto the tick lattice: each time string
splits into the ints p and q, the times go onto the least common
denominator, and one int canonicaliser (`signals._from_ticks`) sorts them.
Writing formats each tick over the signal's scale.  No `Fraction` is built
per transition either way.  Each document is serialized to text whole and
written to its file in one piece.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any

from .boolfn import BoolFn, fn_from_bits
from .bounded import BlcParams, blc
from .conditions import LimitCondition, lc_join, lc_meet, mc, sc, scf, serial, sol
from .errors import InvalidDocument, SiglimError
from .inertial import AicParams, bailc, flc
from .signals import Signal, Time, _from_ticks

MODEL_KINDS = ("flc", "blc", "bailc", "sol", "sc", "mc", "scf",
               "serial", "meet", "join")

_TIME_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def format_time(t: Time) -> str:
    t = Fraction(t)
    return format_tick(t.numerator, t.denominator)


def _time_parts(s: Any) -> tuple[int, int]:
    """(p, q) for the time string "p" or "p/q"; q > 0, not necessarily in lowest terms."""
    m = _TIME_RE.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise InvalidDocument(
            f"time must be a string 'p' or 'p/q' with integers, got {s!r}"
        )
    p, q = m.groups()
    return int(p), int(q) if q else 1


def parse_time(s: Any) -> Fraction:
    return Fraction(*_time_parts(s))


def _is_bit(v: Any) -> bool:
    """0 or 1 as a JSON integer: not true, false or 1.0."""
    return type(v) is int and v in (0, 1)


def _require(doc: Any, key: str, context: str) -> Any:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"{context} must be a mapping, got {type(doc).__name__}")
    if key not in doc:
        raise InvalidDocument(f"{context} is missing the key {key!r}")
    return doc[key]


def _known_keys(doc: dict, allowed: set[str], context: str) -> None:
    extra = set(doc) - allowed
    if extra:
        raise InvalidDocument(f"{context} has unknown keys {sorted(extra)}")


# --- signals -------------------------------------------------------------------

def format_tick(t: int, scale: int) -> str:
    """`format_time` of the time t / scale, from the ints alone."""
    g = gcd(t, scale)
    return str(t // g) if g == scale else f"{t // g}/{scale // g}"


def signal_to_doc(x: Signal) -> dict:
    s, v = x.scale, x.initial
    out = []
    for t in x.ticks:
        v ^= 1
        out.append([format_tick(t, s), v])
    return {"initial": x.initial, "transitions": out}


def signal_from_doc(doc: Any) -> Signal:
    initial = _require(doc, "initial", "signal document")
    raw = _require(doc, "transitions", "signal document")
    _known_keys(doc, {"initial", "transitions"}, "signal document")
    if not _is_bit(initial):
        raise InvalidDocument(f"initial must be 0 or 1, got {initial!r}")
    if not isinstance(raw, list):
        raise InvalidDocument("transitions must be a list of [time, value] pairs")
    nums: list[int] = []
    dens: list[int] = []
    values: list[int] = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InvalidDocument(f"transition entry {entry!r} is not a [time, value] pair")
        t, v = entry
        if not _is_bit(v):
            raise InvalidDocument(f"transition value must be 0 or 1, got {v!r}")
        p, q = _time_parts(t)
        nums.append(p)
        dens.append(q)
        values.append(v)
    scale = lcm(*dens)
    ticks = [p * (scale // q) for p, q in zip(nums, dens)]
    try:
        return _from_ticks(initial, scale, ticks, values)
    except SiglimError as e:
        raise InvalidDocument(f"transitions do not form a canonical signal: {e}") from e


def _write_doc(path: str, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _read_doc(path: str) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise InvalidDocument(f"{path}: not valid structured text: {e}") from e


def write_signal_file(path: str, x: Signal) -> None:
    _write_doc(path, signal_to_doc(x))


def read_signal_file(path: str) -> Signal:
    return signal_from_doc(_read_doc(path))


# --- bound functions -----------------------------------------------------------

def fn_to_doc(f: BoolFn) -> dict:
    return {"arity": f.arity, "table": f.bits()}


def fn_from_doc(doc: Any, context: str) -> BoolFn:
    arity = _require(doc, "arity", context)
    table = _require(doc, "table", context)
    _known_keys(doc, {"arity", "table"}, context)
    if type(arity) is not int or not isinstance(table, str):
        raise InvalidDocument(f"{context} needs an integer arity and a table string")
    try:
        return fn_from_bits(arity, table)
    except SiglimError as e:
        raise InvalidDocument(f"{context}: {e}") from e


def _params_from_doc(doc: Any, keys: tuple[str, ...], context: str) -> list[Fraction]:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"{context} params must be a mapping")
    _known_keys(doc, set(keys), f"{context} params")
    return [parse_time(_require(doc, k, f"{context} params")) for k in keys]


# --- models ---------------------------------------------------------------------

def model_to_doc(i: LimitCondition) -> dict:
    """Document for a model; only the named file kinds are representable."""
    kind = i.kind
    if kind == "sc":
        return {"kind": "sc"}
    if kind == "mc":
        return {"kind": "mc", "arity": i.input_arity}
    if kind == "scf":
        return {"kind": "scf", "f": fn_to_doc(i.f)}
    if kind == "sol":
        return {"kind": "sol", "f": fn_to_doc(i.f), "g": fn_to_doc(i.g)}
    if kind == "flc":
        return {
            "kind": "flc",
            "f": fn_to_doc(i.fn),
            "params": {"delay": format_time(i.delay)},
        }
    if kind in ("blc", "bailc"):
        p = i.params
        params = {
            "m_r": format_time(p.m_r), "d_r": format_time(p.d_r),
            "m_f": format_time(p.m_f), "d_f": format_time(p.d_f),
        }
        if kind == "bailc":
            params["delta_r"] = format_time(i.aic.delta_r)
            params["delta_f"] = format_time(i.aic.delta_f)
        return {"kind": kind, "f": fn_to_doc(i.f), "g": fn_to_doc(i.g), "params": params}
    if kind in ("meet", "join"):
        if len(i.parts) != 2 or (kind == "meet" and i.within is not None):
            raise InvalidDocument(f"this {kind} model has no file representation")
        return {"kind": kind, "children": [model_to_doc(c) for c in i.parts]}
    if kind == "serial":
        return {
            "kind": "serial",
            "children": [model_to_doc(c) for c in (i.outer, *i.inners)],
        }
    raise InvalidDocument(f"model kind {kind!r} has no file representation")


def model_from_doc(doc: Any) -> LimitCondition:
    kind = _require(doc, "kind", "model document")
    if kind not in MODEL_KINDS:
        raise InvalidDocument(
            f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}"
        )
    if kind == "sc":
        _known_keys(doc, {"kind"}, "sc document")
        return sc()
    if kind == "mc":
        arity = _require(doc, "arity", "mc document")
        _known_keys(doc, {"kind", "arity"}, "mc document")
        if type(arity) is not int or arity < 1:
            raise InvalidDocument(f"mc arity must be a positive integer, got {arity!r}")
        return mc(arity)
    if kind == "scf":
        f = fn_from_doc(_require(doc, "f", "scf document"), "scf bound function")
        _known_keys(doc, {"kind", "f"}, "scf document")
        return scf(f)
    if kind == "sol":
        f = fn_from_doc(_require(doc, "f", "sol document"), "sol lower bound")
        g = fn_from_doc(_require(doc, "g", "sol document"), "sol upper bound")
        _known_keys(doc, {"kind", "f", "g"}, "sol document")
        return sol(f, g)
    if kind == "flc":
        f = fn_from_doc(_require(doc, "f", "flc document"), "flc function")
        (d,) = _params_from_doc(_require(doc, "params", "flc document"),
                                ("delay",), "flc")
        _known_keys(doc, {"kind", "f", "params"}, "flc document")
        return flc(f, d)
    if kind in ("blc", "bailc"):
        f = fn_from_doc(_require(doc, "f", f"{kind} document"), f"{kind} lower bound")
        g = fn_from_doc(_require(doc, "g", f"{kind} document"), f"{kind} upper bound")
        names = ("m_r", "d_r", "m_f", "d_f")
        if kind == "bailc":
            names += ("delta_r", "delta_f")
        vals = _params_from_doc(_require(doc, "params", f"{kind} document"), names, kind)
        _known_keys(doc, {"kind", "f", "g", "params"}, f"{kind} document")
        p = BlcParams(*vals[:4])
        return blc(f, g, p) if kind == "blc" else bailc(f, g, p, AicParams(*vals[4:]))
    children_doc = _require(doc, "children", f"{kind} document")
    _known_keys(doc, {"kind", "children"}, f"{kind} document")
    if not isinstance(children_doc, list):
        raise InvalidDocument(f"{kind} children must be a list of model documents")
    children = [model_from_doc(c) for c in children_doc]
    if kind in ("meet", "join"):
        if len(children) != 2:
            raise InvalidDocument(f"{kind} needs exactly two children")
        return lc_meet(*children) if kind == "meet" else lc_join(*children)
    if len(children) < 2:
        raise InvalidDocument("serial needs an outer child plus one inner per input")
    outer, inners = children[0], children[1:]
    if len(inners) != outer.input_arity:
        raise InvalidDocument(
            f"serial outer has arity {outer.input_arity} but {len(inners)} inners given"
        )
    return serial(outer, inners)


def write_model_file(path: str, i: LimitCondition) -> None:
    _write_doc(path, model_to_doc(i))


def read_model_file(path: str) -> LimitCondition:
    return model_from_doc(_read_doc(path))
