"""Signal and model documents: round trips, canonical text, rejections."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

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
from siglim.files import format_time, parse_time
from strategies import signals

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

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", 3, None, "1 /2"])
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
