"""Signal and model documents: round trips, canonical text, rejections."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglim import (
    AicParams,
    BlcParams,
    InvalidDocument,
    Signal,
    and_fn,
    bailc,
    blc,
    constant,
    flc,
    identity_fn,
    lc_join,
    lc_meet,
    make_signal,
    mc,
    model_from_doc,
    model_to_doc,
    not_fn,
    or_fn,
    pulse,
    read_model_file,
    read_signal_file,
    sc,
    scf,
    serial,
    signal_from_doc,
    signal_to_doc,
    sol,
    write_model_file,
    write_signal_file,
)
from siglim.cli import main
from siglim.errors import DuplicateTransitionTime
from siglim.files import format_time, parse_time
from strategies import rationals, signals

F = Fraction

ID = identity_fn()


class TestTimes:
    def test_format(self):
        assert format_time(F(3)) == "3"
        assert format_time(F(-7, 2)) == "-7/2"
        assert format_time(F(0)) == "0"

    def test_parse(self):
        assert parse_time("3") == 3
        assert parse_time("-7/2") == F(-7, 2)
        assert parse_time("+4/8") == F(1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", 3, None, "1 /2",
                                     "3\n", "1/2\n", "\n3", " 3", "3 ", "\u0663", "\uff11/2"])
    def test_rejects_non_rational_text(self, bad):
        with pytest.raises(InvalidDocument):
            parse_time(bad)


class TestSignalDocuments:
    def test_document_shape(self):
        x = make_signal(1, [(F(1, 2), 0), (3, 1)])
        assert signal_to_doc(x) == {
            "initial": 1,
            "transitions": [["1/2", 0], ["3", 1]],
        }

    def test_round_trip_worked_example(self):
        x = make_signal(0, [(0, 1), (F(5, 4), 0)])
        assert signal_from_doc(signal_to_doc(x)) == x

    @given(signals())
    @settings(max_examples=80)
    def test_round_trip_is_identity(self, x):
        assert signal_from_doc(signal_to_doc(x)) == x

    def test_file_round_trip_and_layout(self, tmp_path):
        x = make_signal(0, [(F(-1, 2), 1), (2, 0)])
        path = str(tmp_path / "x.json")
        write_signal_file(path, x)
        text = open(path).read()
        assert text.endswith("\n")
        assert json.loads(text) == signal_to_doc(x)
        assert read_signal_file(path) == x

    @pytest.mark.parametrize("doc", [
        [],
        {"initial": 2, "transitions": []},
        {"initial": 0},
        {"initial": 0, "transitions": [["1", 1]], "extra": True},
        {"initial": 0, "transitions": [["1", 2]]},
        {"initial": 0, "transitions": [["1", 1, 1]]},
        {"initial": 0, "transitions": [["1.5", 1]]},
        {"initial": 0, "transitions": [["1", 1], ["1", 0]]},
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(InvalidDocument):
            signal_from_doc(doc)

    def test_duplicate_time_message_names_the_time(self):
        doc = {"initial": 0, "transitions": [["3/2", 1], ["6/4", 0]]}
        with pytest.raises(InvalidDocument, match=re.escape("two transitions at t = 3/2")):
            signal_from_doc(doc)
        with pytest.raises(DuplicateTransitionTime, match=re.escape("at t = -1/3")):
            make_signal(0, [(F(-1, 3), 1), (F(-2, 6), 0)])

    def test_out_of_order_entries_are_canonicalized(self):
        # the constructor sorts and drops redundant entries, so documents may
        # list transitions in any order as long as times are distinct
        doc = {"initial": 0, "transitions": [["2", 1], ["1", 0]]}
        assert signal_from_doc(doc) == make_signal(0, [(2, 1)])

    def test_unparseable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not text}")
        with pytest.raises(InvalidDocument):
            read_signal_file(str(path))


def model_menu():
    p = BlcParams(1, 2, 1, 2)
    return [
        sc(),
        mc(2),
        scf(not_fn()),
        sol(and_fn(2), or_fn(2)),
        flc(not_fn(), F(3, 2)),
        blc(and_fn(2), or_fn(2), p),
        bailc(ID, ID, BlcParams(1, 1, 1, 1), AicParams(F(1, 2), F(1, 2))),
        lc_meet(flc(ID, 1), flc(ID, 1)),
        lc_join(flc(ID, 1), flc(ID, 2)),
        serial(sol(and_fn(2), or_fn(2)), [sc(), sc()]),
    ]


class TestModelDocuments:
    @pytest.mark.parametrize("i", model_menu(), ids=lambda i: i.kind)
    def test_serialize_parse_serialize_is_identity(self, i):
        doc = model_to_doc(i)
        again = model_from_doc(doc)
        assert model_to_doc(again) == doc

    def test_parsed_models_answer_like_the_original(self):
        i = blc(ID, ID, BlcParams(1, 2, 1, 2))
        j = model_from_doc(model_to_doc(i))
        u = (pulse(0, 3),)
        for x in (pulse(1, 3), pulse(0, 4), constant(1)):
            assert i.contains(u, x) == j.contains(u, x)

    def test_collapsing_serial_documents(self):
        # a chain of fixed delays parses back to a single fixed delay
        doc = {
            "kind": "serial",
            "children": [
                {"kind": "flc", "f": {"arity": 1, "table": "10"},
                 "params": {"delay": "1"}},
                {"kind": "flc", "f": {"arity": 1, "table": "10"},
                 "params": {"delay": "2"}},
            ],
        }
        i = model_from_doc(doc)
        assert i.kind == "flc"
        assert i.delay == 3
        assert i.fn.bits() == "01"

    def test_blc_document_shape(self):
        i = blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2))
        assert model_to_doc(i) == {
            "kind": "blc",
            "f": {"arity": 2, "table": "0001"},
            "g": {"arity": 2, "table": "0111"},
            "params": {"m_r": "1", "d_r": "2", "m_f": "1", "d_f": "2"},
        }

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        i = bailc(ID, ID, BlcParams(1, 1, 1, 1), AicParams(F(1, 2), F(1, 4)))
        write_model_file(path, i)
        j = read_model_file(path)
        assert j.kind == "bailc"
        assert j.params == i.params
        assert j.aic == i.aic

    @pytest.mark.parametrize("doc", [
        {"kind": "nonsense"},
        {"kind": "mc"},
        {"kind": "mc", "arity": 0},
        {"kind": "flc", "f": {"arity": 1, "table": "10"}},
        {"kind": "flc", "f": {"arity": 1, "table": "10"},
         "params": {"delay": "-1"}},
        {"kind": "blc", "f": {"arity": 1, "table": "01"},
         "g": {"arity": 1, "table": "01"},
         "params": {"m_r": "0", "d_r": "5", "m_f": "0", "d_f": "1"}},
        {"kind": "sol", "f": {"arity": 1, "table": "11"},
         "g": {"arity": 1, "table": "00"}},
        {"kind": "meet", "children": [{"kind": "sc"}]},
        {"kind": "serial", "children": [{"kind": "mc", "arity": 2},
                                        {"kind": "sc"}]},
        {"kind": "scf", "f": {"arity": 1, "table": "01"}, "junk": 1},
    ])
    def test_malformed_or_invalid_models_rejected(self, doc):
        from siglim import SiglimError

        with pytest.raises(SiglimError):
            model_from_doc(doc)

    def test_restricted_meets_have_no_document(self):
        from siglim import aic_set, lc_meet_set

        i = lc_meet_set(blc(ID, ID, BlcParams(1, 1, 1, 1)),
                        aic_set(AicParams(F(1, 2), F(1, 2))))
        with pytest.raises(InvalidDocument):
            model_to_doc(i)


class TestRejectedValues:
    """Each value the format excludes is an InvalidDocument, exit 2 from the CLI."""

    @pytest.mark.parametrize("doc", [
        {"kind": "mc", "arity": True},
        {"kind": "mc", "arity": 1.0},
        {"kind": "scf", "f": {"arity": True, "table": "01"}},
        {"kind": "flc", "f": {"arity": 1, "table": "10"}, "params": {"delay": "1\n"}},
    ])
    def test_model_values_exit_2(self, doc, tmp_path, capsys):
        with pytest.raises(InvalidDocument):
            model_from_doc(doc)
        model, cand = tmp_path / "m.json", str(tmp_path / "x.json")
        model.write_text(json.dumps(doc))
        write_signal_file(cand, pulse(0, 2))
        assert main(["check", "--model", str(model), "--candidate", cand]) == 2
        assert "InvalidDocument" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"initial": 1.0, "transitions": []},
        {"initial": True, "transitions": []},
        {"initial": 0, "transitions": [["1", 1.0]]},
        {"initial": 0, "transitions": [["1", True]]},
        {"initial": 0, "transitions": [["1", False]]},
        {"initial": 0, "transitions": [["3\n", 1]]},
    ])
    def test_signal_values_exit_2(self, doc, tmp_path, capsys):
        with pytest.raises(InvalidDocument):
            signal_from_doc(doc)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--candidate", str(path), "--aic", "1", "1"]) == 2
        assert "InvalidDocument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--aic", "1\n", "1"],
        ["--aic", "1", "1/2\n"],
    ])
    def test_time_arguments_exit_2(self, argv, tmp_path, capsys):
        path = str(tmp_path / "x.json")
        write_signal_file(path, pulse(0, 2))
        assert main(["check", "--candidate", path, *argv]) == 2
        assert "InvalidDocument" in capsys.readouterr().err

    def test_render_range_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "x.json")
        write_signal_file(path, pulse(0, 2))
        assert main(["render", path, "--from", "0\n", "--to", "2"]) == 2
        assert main(["render", path, "--from", "0", "--to", "2\n"]) == 2
        assert capsys.readouterr().err.count("InvalidDocument") == 2


# --- the Fraction-level path, kept as an oracle ------------------------------

_ORACLE_TIME = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def oracle_signal(initial, pairs) -> Signal:
    """make_signal as a Fraction-level canonicaliser: sort the (time, bit)
    pairs, reject a repeated time, drop entries that repeat the value."""
    items = sorted((Fraction(t), v) for t, v in pairs)
    for (t1, _), (t2, _) in zip(items, items[1:]):
        if t1 == t2:
            raise DuplicateTransitionTime(f"two transitions at t = {t1}")
    out, cur = [], initial
    for t, v in items:
        if v != cur:
            out.append((t, v))
            cur = v
    return Signal(initial, tuple(out))


def oracle_signal_from_doc(doc) -> Signal:
    """A document through Fraction(s) per time and oracle_signal."""
    def bit(v):
        return type(v) is int and v in (0, 1)

    if not isinstance(doc, dict) or "initial" not in doc or "transitions" not in doc:
        raise InvalidDocument("shape")
    if set(doc) - {"initial", "transitions"}:
        raise InvalidDocument("keys")
    initial, raw = doc["initial"], doc["transitions"]
    if not bit(initial):
        raise InvalidDocument(f"initial must be 0 or 1, got {initial!r}")
    if not isinstance(raw, list):
        raise InvalidDocument("transitions must be a list of [time, value] pairs")
    pairs = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InvalidDocument(f"transition entry {entry!r} is not a [time, value] pair")
        t, v = entry
        if not bit(v):
            raise InvalidDocument(f"transition value must be 0 or 1, got {v!r}")
        if not (isinstance(t, str) and _ORACLE_TIME.fullmatch(t)):
            raise InvalidDocument(
                f"time must be a string 'p' or 'p/q' with integers, got {t!r}"
            )
        pairs.append((Fraction(t), v))
    try:
        return oracle_signal(initial, pairs)
    except DuplicateTransitionTime as e:
        raise InvalidDocument(f"transitions do not form a canonical signal: {e}") from e


def draw_time(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.05:
        return rng.choice(["+4/8", "-0", "+0", "0/7", "-6/4", "007", "1.5", "3\n", "1/0",
                           "\u0663"])
    q = rng.choice([1, 1, 2, 3, 4, 6, 8, 12])
    p = rng.randint(-6 * q, 6 * q)
    k = rng.choice([1, 1, 1, 2, 3])  # unreduced forms
    text = str(p * k) if q == 1 and k == 1 else f"{p * k}/{q * k}"
    return ("+" + text) if p >= 0 and rng.random() < 0.1 else text


def draw_doc(rng: random.Random) -> dict:
    n = rng.choice([0, 0, 1, 2, 3, 5, 8, 12])
    times = [draw_time(rng) for _ in range(n)]
    if times and rng.random() < 0.2:
        times.append(rng.choice(times))  # a duplicate time
    rng.shuffle(times)
    values = [rng.randint(0, 1) for _ in times]  # unordered, values may repeat
    if values and rng.random() < 0.02:
        values[rng.randrange(len(values))] = rng.choice([True, 1.0, 2])
    initial = rng.choice([0, 1]) if rng.random() > 0.02 else rng.choice([True, 1.0])
    return {"initial": initial, "transitions": [[t, v] for t, v in zip(times, values)]}


def old_write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared by class and message
        return type(e), str(e)


class TestTickPath:
    """The tick-lattice reader and writer against the Fraction-level path."""

    def test_drawn_documents_parse_like_the_fraction_path(self):
        rng = random.Random(20260)
        kinds = set()
        for _ in range(3000):
            doc = draw_doc(rng)
            got = outcome(signal_from_doc, doc)
            assert got == outcome(oracle_signal_from_doc, doc), doc
            kinds.add(got[0].__name__ if isinstance(got, tuple) else "Signal")
        assert kinds == {"Signal", "InvalidDocument"}

    @pytest.mark.parametrize("doc", [
        {"initial": 0, "transitions": []},
        {"initial": 1, "transitions": [["+4/8", 0], ["-0", 1]]},
        {"initial": 0, "transitions": [["-0", 1], ["+0", 0]]},
        {"initial": 0, "transitions": [["2", 1], ["1", 0], ["1/3", 0], ["-5/6", 1]]},
        {"initial": 1, "transitions": [["1/2", 1], ["3/4", 1], ["5/12", 0]]},
        {"initial": 0, "transitions": [["6/4", 1], ["-9/6", 0], ["100/8", 1]]},
    ])
    def test_worked_documents(self, doc):
        assert outcome(signal_from_doc, doc) == outcome(oracle_signal_from_doc, doc)

    @given(st.lists(st.tuples(rationals(max_den=12), st.integers(0, 1)), max_size=10),
           st.integers(0, 1))
    @settings(max_examples=200)
    def test_make_signal_matches_the_fraction_canonicaliser(self, pairs, initial):
        assert outcome(make_signal, initial, pairs) == outcome(oracle_signal, initial, pairs)

    def test_written_signals_are_byte_identical(self, tmp_path):
        rng = random.Random(4)
        new, old = str(tmp_path / "new.json"), str(tmp_path / "old.json")
        for _ in range(300):
            x = outcome(signal_from_doc, draw_doc(rng))
            if not isinstance(x, Signal):
                continue
            doc = {"initial": x.initial,
                   "transitions": [[format_time(t), v] for t, v in x.transitions]}
            assert signal_to_doc(x) == doc
            write_signal_file(new, x)
            old_write(old, doc)
            assert open(new, "rb").read() == open(old, "rb").read()

    @pytest.mark.parametrize("i", model_menu(), ids=lambda i: i.kind)
    def test_written_models_are_byte_identical(self, i, tmp_path):
        new, old = str(tmp_path / "new.json"), str(tmp_path / "old.json")
        write_model_file(new, i)
        old_write(old, model_to_doc(i))
        assert open(new, "rb").read() == open(old, "rb").read()


class TestCost:
    """Fraction constructions, not clock time: the document paths stay on ints."""

    N = 2000

    @staticmethod
    def fractions_built(monkeypatch, fn) -> int:
        new, count = Fraction.__new__, [0]

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting)
            fn()
        return count[0]

    def doc(self) -> dict:
        rng = random.Random(7)
        times = sorted(rng.sample(range(-3 * self.N, 3 * self.N), self.N))
        times = [F(t, 12) for t in times]  # mixed denominators
        return {"initial": 0, "transitions": [
            [f"{t.numerator}/{t.denominator}", k % 2 ^ 1] for k, t in enumerate(times)
        ]}

    def test_reading_builds_no_fraction_per_transition(self, monkeypatch):
        doc = self.doc()
        assert self.fractions_built(monkeypatch, lambda: oracle_signal_from_doc(doc)) >= self.N
        assert self.fractions_built(monkeypatch, lambda: signal_from_doc(doc)) == 0

    def test_writing_builds_no_fraction_per_transition(self, monkeypatch, tmp_path):
        x = signal_from_doc(self.doc())
        assert len(x.ticks) > self.N // 4
        path = str(tmp_path / "x.json")
        assert self.fractions_built(monkeypatch, lambda: write_signal_file(path, x)) == 0
        assert self.fractions_built(monkeypatch, lambda: read_signal_file(path)) == 0
