"""Command-line contract: worked examples for every subcommand and exit code."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import siglim.conditions
from siglim import (
    AicParams,
    BlcParams,
    SearchBudget,
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
    not_fn,
    or_fn,
    pulse,
    read_model_file,
    read_signal_file,
    sc,
    serial,
    sol,
    write_model_file,
    write_signal_file,
    xor_fn,
)
from siglim.cli import main
from siglim.props import register_check, unregister_check
from test_conditions import _composition_gap, _dry_sampler

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ws(tmp_path):
    """Workspace helper writing fixtures and returning their paths."""

    class Workspace:
        def signal(self, name, x):
            path = str(tmp_path / name)
            write_signal_file(path, x)
            return path

        def model(self, name, i):
            path = str(tmp_path / name)
            write_model_file(path, i)
            return path

        def path(self, name):
            return str(tmp_path / name)

    return Workspace()


class TestEval:
    def test_fixed_delay_worked_example(self, ws, capsys):
        model = ws.model("not1.json", flc(not_fn(), 1))
        inp = ws.signal("chi02.json", pulse(0, 2))
        out = ws.path("y.json")
        assert main(["eval", model, inp, "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out
        assert read_signal_file(out) == make_signal(1, [(1, 0), (3, 1)])

    def test_witness_outputs_all_pass_check(self, ws, capsys):
        model = ws.model("blc.json", blc(identity_fn(), identity_fn(),
                                         BlcParams(1, 2, 1, 2)))
        inp = ws.signal("u.json", pulse(0, 3))
        out = ws.path("w.json")
        assert main(["eval", model, inp, "--witness", "2", "--out", out]) == 0
        paths = capsys.readouterr().out.split()
        assert paths == [ws.path("w-1.json"), ws.path("w-2.json")]
        for p in paths:
            assert main(["check", "--model", model, "--input", inp,
                         "--candidate", p]) == 0

    def test_single_witness_keeps_the_exact_path(self, ws, capsys):
        model = ws.model("sc.json", flc(identity_fn(), 0))
        inp = ws.signal("u.json", pulse(0, 1))
        out = ws.path("only.json")
        assert main(["eval", model, inp, "--witness", "1", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out
        assert read_signal_file(out) == pulse(0, 1)

    def test_nondeterministic_model_needs_witness_flag(self, ws, capsys):
        model = ws.model("mc2.json", mc(2))
        a = ws.signal("a.json", pulse(0, 1))
        b = ws.signal("b.json", pulse(1, 2))
        rc = main(["eval", model, a, b, "--out", ws.path("y.json")])
        assert rc == 2
        assert "NondeterministicModel" in capsys.readouterr().err

    def test_witness_count_must_be_positive(self, ws, capsys):
        model = ws.model("mc2.json", mc(2))
        a = ws.signal("a.json", pulse(0, 1))
        b = ws.signal("b.json", pulse(1, 2))
        rc = main(["eval", model, a, b, "--witness", "0", "--out", ws.path("y.json")])
        assert rc == 2

    def test_missing_file_is_a_validation_error(self, ws, capsys):
        rc = main(["eval", ws.path("absent.json"), ws.path("also.json"),
                   "--out", ws.path("y.json")])
        assert rc == 2
        assert "FileError" in capsys.readouterr().err


class TestCheck:
    def test_envelope_violation_time_worked_example(self, ws, capsys):
        model = ws.model("blc.json", blc(identity_fn(), identity_fn(),
                                         BlcParams(1, 2, 1, 2)))
        inp = ws.signal("u.json", pulse(0, 2))
        cand = ws.signal("one.json", constant(1))
        rc = main(["check", "--model", model, "--input", inp, "--candidate", cand])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "violation at t=0"

    def test_member_passes(self, ws, capsys):
        model = ws.model("blc.json", blc(identity_fn(), identity_fn(),
                                         BlcParams(1, 2, 1, 2)))
        inp = ws.signal("u.json", pulse(0, 2))
        cand = ws.signal("mid.json", pulse(2, 3))
        rc = main(["check", "--model", model, "--input", inp, "--candidate", cand])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_dwell_violation_reports_the_early_edge(self, ws, capsys):
        cand = ws.signal("narrow.json", pulse(0, F(1, 2)))
        rc = main(["check", "--candidate", cand, "--aic", "1", "1"])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "violation at t=1/2"

    def test_dwell_pass(self, ws, capsys):
        cand = ws.signal("wide.json", pulse(0, 3))
        assert main(["check", "--candidate", cand, "--aic", "1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_model_and_dwell_together(self, ws):
        model = ws.model("blc.json", blc(identity_fn(), identity_fn(),
                                         BlcParams(1, 1, 1, 1)))
        inp = ws.signal("u.json", pulse(0, 3))
        cand = ws.signal("x.json", pulse(1, 3))
        assert main(["check", "--model", model, "--input", inp,
                     "--candidate", cand, "--aic", "1/2", "1/2"]) == 0

    def test_dwell_model_reports_the_early_edge(self, ws, capsys):
        # inside both envelopes, but the 0-run from 5/2 to 3 breaks the dwell
        model = ws.model("bailc.json", bailc(identity_fn(), identity_fn(),
                                             BlcParams(2, 3, 2, 3), AicParams(1, 1)))
        inp = ws.signal("u.json", pulse(0, 6))
        cand = ws.signal("x.json", make_signal(0, [(2, 1), (F(5, 2), 0), (3, 1), (7, 0)]))
        rc = main(["check", "--model", model, "--input", inp, "--candidate", cand])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "violation at t=5/2"

    def _chain_argv(self, ws, outer, x):
        # inner stages with different windows have no closed form, so the
        # model read back searches for witnesses
        chain = serial(outer, [blc(identity_fn(), identity_fn(), BlcParams(1, 2, 1, 2)),
                               blc(identity_fn(), identity_fn(), BlcParams(1, 3, 1, 3))])
        assert chain.kind == "serial"
        return ["check", "--model", ws.model("chain.json", chain),
                "--candidate", ws.signal("x.json", x),
                "--input", ws.signal("u0.json", pulse(0, 3)),
                "--input", ws.signal("u1.json", pulse(1, 4))]

    def test_budget_cut_search_is_undecided(self, ws, capsys, monkeypatch):
        # x lies within the chain's bounds, (0, [2, 9)), so they cannot
        # refute it, and one node cannot find its witness
        argv = self._chain_argv(ws, blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2)), pulse(2, 3))
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "ok"
        monkeypatch.setattr(siglim.conditions, "DEFAULT_BUDGET", SearchBudget(max_nodes=1))
        assert main(argv) == 3
        assert capsys.readouterr().out.strip() == "undecided"

    @pytest.mark.parametrize("kind", ["meet", "join"])
    def test_budget_cut_part_leaves_a_meet_or_join_undecided(self, ws, capsys, monkeypatch,
                                                            kind):
        # the chain's cut search is not a proof inside a meet or a join: the
        # meet's other part, sol over the chain's bounds, admits x
        argv = self._chain_argv(ws, blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2)), pulse(2, 3))
        chain = read_model_file(argv[2])
        other = sol(chain.f, chain.g) if kind == "meet" else chain
        argv[2] = ws.model(f"{kind}.json", (lc_meet if kind == "meet" else lc_join)(chain, other))
        monkeypatch.setattr(siglim.conditions, "DEFAULT_BUDGET", SearchBudget(max_nodes=1))
        assert main(argv) == 3
        assert capsys.readouterr().out.strip() == "undecided"

    def test_refuted_chain_output_reports_where_it_leaves_the_bounds(self, ws, capsys,
                                                                      monkeypatch):
        # the chain's upper bound is 0 before 2, so x's 1 at 1 is a proved
        # violation, found with no search node (not the last breakpoint + 1)
        argv = self._chain_argv(ws, blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2)), pulse(1, 3))
        monkeypatch.setattr(siglim.conditions, "DEFAULT_BUDGET", SearchBudget(max_nodes=1))
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "violation at t=1"

    def test_refuted_chain_output_reports_the_outer_dwell_violation(self, ws, capsys):
        # within the bounds, but the 0-run from 4 to 9/2 breaks the outer dwell
        outer = bailc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2), AicParams(1, 1))
        x = make_signal(0, [(2, 1), (4, 0), (F(9, 2), 1), (9, 0)])
        assert main(self._chain_argv(ws, outer, x)) == 1
        assert capsys.readouterr().out.strip() == "violation at t=9/2"

    def test_meet_over_a_chain_reports_the_outer_dwell_violation(self, ws, capsys):
        # the same x inside a meet with sol: the chain part's outer dwell is
        # to blame, not the last breakpoint + 1 and not the search
        outer = bailc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2), AicParams(1, 1))
        x = make_signal(0, [(2, 1), (4, 0), (F(9, 2), 1), (9, 0)])
        argv = self._chain_argv(ws, outer, x)
        chain = read_model_file(argv[2])
        argv[2] = ws.model("meet.json", lc_meet(chain, sol(chain.f, chain.g)))
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "violation at t=9/2"

    def test_join_over_a_chain_reports_the_latest_part_time(self, ws, capsys):
        # x stays inside the join's hull, and each part names the outer
        # dwell violation at 9/2: the join's time is the latest of them,
        # not the last breakpoint + 1
        outer = bailc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2), AicParams(1, 1))
        x = make_signal(0, [(2, 1), (4, 0), (F(9, 2), 1), (9, 0)])
        argv = self._chain_argv(ws, outer, x)
        chain = read_model_file(argv[2])
        argv[2] = ws.model("join.json", lc_join(chain, chain))
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "violation at t=9/2"

    def test_chain_with_a_sol_outer_reports_the_settled_value(self, ws, capsys):
        # every member settles to 1 and x settles to 0, so x is refuted with
        # no search, and the time is one past the last breakpoint
        chain = serial(sc(), [blc(identity_fn(), identity_fn(), BlcParams(1, 2, 1, 2))])
        assert chain.kind == "serial"
        argv = ["check", "--model", ws.model("chain.json", chain),
                "--input", ws.signal("u.json", make_signal(0, [(0, 1)])),
                "--candidate", ws.signal("x.json", pulse(1, 3))]
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "violation at t=4"

    def test_dry_stage_sampler_is_not_an_input_error(self, ws, capsys):
        # the inner stage's sampler finds no witness for this input; the
        # search goes on without its samples and refutes x
        inner, (u,) = _dry_sampler()
        chain = serial(blc(identity_fn(), identity_fn(), BlcParams(0, 1, 0, 1)), [inner])
        argv = ["check", "--model", ws.model("chain.json", chain),
                "--input", ws.signal("u.json", u),
                "--candidate", ws.signal("x.json", constant(0))]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("violation at t=")
        assert captured.err == ""

    def test_searched_chain_zero_names_no_time(self, ws, capsys):
        # law 6.6 case 129 at seed 42: x lies within the chain's bounds and
        # keeps the outer dwell, so only the witness search rejects it, and
        # no time is to blame
        outer, inner, (u,), x = _composition_gap()
        chain = serial(outer, [inner])
        assert chain.kind == "serial"
        argv = ["check", "--model", ws.model("chain.json", chain),
                "--input", ws.signal("u.json", u),
                "--candidate", ws.signal("x.json", x)]
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == (
            "violation: the witness search found no intermediate signals")

    @pytest.mark.parametrize("kind", ["meet", "join"])
    def test_searched_zero_in_a_meet_or_join_names_no_time(self, ws, capsys, kind):
        # the case 129 chain again: the meet's other part, sol over the
        # chain's bounds, admits x, so in both only the search rejects it
        outer, inner, (u,), x = _composition_gap()
        chain = serial(outer, [inner])
        other = sol(chain.f, chain.g) if kind == "meet" else chain
        model = (lc_meet if kind == "meet" else lc_join)(chain, other)
        argv = ["check", "--model", ws.model(f"{kind}.json", model),
                "--input", ws.signal("u.json", u),
                "--candidate", ws.signal("x.json", x)]
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == (
            "violation: the witness search found no intermediate signals")

    def test_meet_document_reports_where_x_leaves_the_parts_boxes(self, ws, capsys):
        # the parts' envelopes intersect in the one signal [2, 5); x is 0 at 2
        meet = lc_meet(blc(identity_fn(), identity_fn(), BlcParams(1, 2, 1, 2)),
                       blc(identity_fn(), identity_fn(), BlcParams(1, 3, 1, 3)))
        argv = ["check", "--model", ws.model("meet.json", meet),
                "--input", ws.signal("u.json", pulse(0, 3)),
                "--candidate", ws.signal("x.json", pulse(3, 4))]
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "violation at t=2"

    def test_nothing_to_check_is_an_error(self, ws, capsys):
        cand = ws.signal("x.json", pulse(0, 1))
        assert main(["check", "--candidate", cand]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_fallback_time_for_models_without_envelopes(self, ws, capsys):
        model = ws.model("sol.json", sol(identity_fn(), identity_fn()))
        inp = ws.signal("u.json", pulse(0, 2))
        cand = ws.signal("x.json", constant(1))  # wrong eventual value
        rc = main(["check", "--model", model, "--input", inp, "--candidate", cand])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "violation at t=3"


class TestCompose:
    def test_fixed_delays_add(self, ws, capsys):
        a = ws.model("n1.json", flc(not_fn(), 1))
        b = ws.model("n2.json", flc(not_fn(), 2))
        out = ws.path("chain.json")
        assert main(["compose", a, b, "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["kind"] == "flc"
        assert doc["f"]["table"] == "01"
        assert doc["params"]["delay"] == "3"

    def test_bounded_chain_worked_example(self, ws):
        outer = ws.model("outer.json", blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2)))
        inner = ws.model("inner.json", blc(identity_fn(), identity_fn(),
                                           BlcParams(1, 3, 1, 3)))
        out = ws.path("chain.json")
        assert main(["compose", outer, inner, inner, "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["kind"] == "blc"
        assert doc["params"] == {"m_r": "2", "d_r": "5", "m_f": "2", "d_f": "5"}

    def test_dwell_chain_needs_zero_inner_dwell(self, ws, capsys):
        outer = ws.model("outer.json", bailc(identity_fn(), identity_fn(),
                                             BlcParams(1, 2, 1, 2), AicParams(1, 1)))
        dwell = ws.model("dwell.json", bailc(identity_fn(), identity_fn(),
                                             BlcParams(1, 3, 1, 3), AicParams(F(1, 2), 0)))
        out = ws.path("chain.json")
        assert main(["compose", outer, dwell, "--out", out]) == 2
        assert "InexactComposition" in capsys.readouterr().err
        plain = ws.model("plain.json", bailc(identity_fn(), identity_fn(),
                                             BlcParams(1, 3, 1, 3), AicParams(0, 0)))
        assert main(["compose", outer, plain, "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["kind"] == "bailc"
        assert doc["params"] == {"m_r": "2", "d_r": "5", "m_f": "2", "d_f": "5",
                                 "delta_r": "1", "delta_f": "1"}

    def test_unsupported_kind(self, ws, capsys):
        outer = ws.model("sol.json", sol(identity_fn(), identity_fn()))
        inner = ws.model("sc.json", flc(identity_fn(), 1))
        rc = main(["compose", outer, inner, "--out", ws.path("o.json")])
        assert rc == 2
        assert "KindMismatch" in capsys.readouterr().err

    def test_arity_mismatch(self, ws, capsys):
        outer = ws.model("outer.json", blc(and_fn(2), or_fn(2), BlcParams(1, 2, 1, 2)))
        inner = ws.model("inner.json", blc(identity_fn(), identity_fn(),
                                           BlcParams(1, 3, 1, 3)))
        rc = main(["compose", outer, inner, "--out", ws.path("o.json")])
        assert rc == 2
        assert "ArityMismatch" in capsys.readouterr().err

    def test_differing_inner_delays(self, ws, capsys):
        outer = ws.model("n1.json", flc(and_fn(2), 1))
        i1 = ws.model("i1.json", flc(identity_fn(), 1))
        i2 = ws.model("i2.json", flc(identity_fn(), 2))
        rc = main(["compose", outer, i1, i2, "--out", ws.path("o.json")])
        assert rc == 2
        assert "KindMismatch" in capsys.readouterr().err

    def test_bound_outside_the_window_shape_is_refused(self, ws, capsys):
        # an AND upper bound does not pass through the any-window, so the
        # summed form would reject outputs the chain admits
        outer = ws.model("and.json", blc(and_fn(2), and_fn(2), BlcParams(1, 2, 1, 2)))
        inner = ws.model("i.json", blc(identity_fn(), identity_fn(), BlcParams(1, 1, 1, 1)))
        rc = main(["compose", outer, inner, inner, "--out", ws.path("o.json")])
        assert rc == 2
        assert "DistributivityUnverified" in capsys.readouterr().err

    def test_non_monotone_outer_surfaces_the_reason(self, ws, capsys):
        outer = ws.model("x.json", blc(xor_fn(), xor_fn(), BlcParams(1, 2, 1, 2)))
        inner = ws.model("i.json", blc(identity_fn(), identity_fn(),
                                       BlcParams(1, 3, 1, 3)))
        rc = main(["compose", outer, inner, inner, "--out", ws.path("o.json")])
        assert rc == 2
        assert "MonotonyViolated" in capsys.readouterr().err


class TestProps:
    def test_single_check_line(self, capsys):
        assert main(["props", "--only", "5.2", "--cases", "10"]) == 0
        assert capsys.readouterr().out.strip() == "5.2 10 pass"

    def test_unknown_id(self, capsys):
        assert main(["props", "--only", "bogus"]) == 2
        assert "UnknownTheorem" in capsys.readouterr().err

    def test_failing_check_writes_a_counterexample(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def broken(rng):
            return "always fails"

        register_check("x.3", "deliberate failure", broken)
        try:
            rc = main(["props", "--only", "x.3", "--cases", "4"])
        finally:
            unregister_check("x.3")
        assert rc == 1
        out = capsys.readouterr().out
        assert "x.3 4 fail" in out
        blob = json.load(open(tmp_path / "props-x_3-counterexample.json"))
        assert blob["theorem"] == "x.3"
        assert blob["failures"] == [f"case {k}: always fails" for k in range(4)]


    def test_replay_a_failing_case(self, capsys):
        assert main(["props", "--replay", "6.6", "129"]) == 1
        assert capsys.readouterr().out.startswith(
            "6.6 case 129: closed form 1 vs search 0 (exhausted=False): ")

    def test_replay_a_passing_case(self, capsys):
        assert main(["props", "--replay", "4.8", "0"]) == 0
        assert capsys.readouterr().out == "4.8 case 0: pass\n"

    def test_replay_rejects_unknown_ids_and_bad_cases(self, capsys):
        assert main(["props", "--replay", "9.99", "0"]) == 2
        assert "UnknownTheorem" in capsys.readouterr().err
        assert main(["props", "--replay", "4.8", "-1"]) == 2
        assert "PreconditionViolated" in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every `main` call in a process; each call sees only
    its own arguments."""

    def test_calls_in_one_process_see_only_their_arguments(self, ws, capsys, monkeypatch):
        import siglim.cli

        parser = siglim.cli._build_parser()
        assert siglim.cli._build_parser() is parser
        seen = []
        real = parser.parse_args

        def spy(argv=None):
            args = real(argv)
            seen.append(args)
            return args

        monkeypatch.setattr(parser, "parse_args", spy)
        model = ws.model("and.json", blc(and_fn(2), and_fn(2), BlcParams(0, 0, 0, 0)))
        a, b = ws.signal("a.json", pulse(0, 2)), ws.signal("b.json", pulse(1, 3))
        cand = ws.signal("c.json", pulse(1, 2))
        assert main(["check", "--model", model, "--input", a, "--input", b,
                     "--candidate", cand]) == 0
        assert main(["check", "--aic", "1/2", "1/2", "--candidate", cand]) == 0
        with pytest.raises(SystemExit) as exit_:
            main(["eval", model, a, b, "--witness", "two", "--out", ws.path("y.json")])
        assert exit_.value.code == 2
        out = ws.path("y.json")
        assert main(["eval", model, a, b, "--out", out]) == 0
        assert read_signal_file(out) == pulse(1, 2)
        assert capsys.readouterr().out.split() == ["ok", "ok", out]

        first, second, third = seen
        assert (first.model, first.inputs, first.aic) == (model, [a, b], None)
        assert (second.model, second.inputs, second.aic) == (None, [], ["1/2", "1/2"])
        assert (third.model, third.inputs, third.witness) == (model, [a, b], None)
        assert not hasattr(third, "candidate")
        assert len({id(n) for n in seen}) == 3
        assert real(["check", "--candidate", cand]).inputs == []


@pytest.mark.parametrize("module", ["siglim", "siglim.cli"])
class TestModuleEntry:
    """`python3 -m siglim` (or `-m siglim.cli`) runs the command line."""

    def _run(self, module, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_replay_prints_the_failure_and_exits_1(self, module):
        done = self._run(module, "props", "--replay", "6.6", "129")
        assert done.returncode == 1, done.stderr
        assert done.stdout.startswith("6.6 case 129: closed form 1 vs search 0 ")

    def test_passing_replay_exits_0(self, module):
        done = self._run(module, "props", "--replay", "4.8", "0")
        assert (done.returncode, done.stdout) == (0, "4.8 case 0: pass\n")


class TestRender:
    def test_ascii_table(self, ws, capsys):
        inp = ws.signal("chi05.json", pulse(0, 5))
        assert main(["render", inp, "--from", "-1", "--to", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["time", "-1", "0", "5"]
        assert lines[1].split() == ["chi05", "0", "1", "0"]

    def test_vcd_integer_times(self, ws, capsys, tmp_path):
        a = ws.signal("a.json", pulse(0, 2))
        b = ws.signal("b.json", pulse(2, 5))
        vcd = ws.path("dump.vcd")
        assert main(["render", a, b, "--from", "0", "--to", "6",
                     "--vcd", vcd]) == 0
        text = open(vcd).read()
        assert "$timescale 1 s $end" in text
        assert "$var wire 1 ! a $end" in text
        assert '$var wire 1 " b $end' in text
        assert "#0" in text and "#2" in text and "#5" in text

    def test_vcd_fractional_times_note_the_scale(self, ws, capsys):
        a = ws.signal("a.json", pulse(F(1, 2), 2))
        vcd = ws.path("dump.vcd")
        assert main(["render", a, "--from", "0", "--to", "3", "--vcd", vcd]) == 0
        text = open(vcd).read()
        assert "$timescale 1 ns $end" in text
        assert "$comment one tick is 1/2 s $end" in text

    def test_vcd_range_below_zero_shifts_the_ticks(self, ws, capsys):
        a = ws.signal("a.json", pulse(F(-3, 2), 1))
        b = ws.signal("b.json", make_signal(1, [(F(-1, 2), 0), (1, 1), (4, 0)]))
        vcd = ws.path("dump.vcd")
        assert main(["render", a, b, "--from", "-2", "--to", "3", "--vcd", vcd]) == 0
        assert open(vcd).read() == "\n".join([
            "$timescale 1 ns $end",
            "$comment one tick is 1/2 s $end",
            "$comment ticks shifted by +3 $end",
            "$scope module signals $end",
            "$var wire 1 ! a $end",
            '$var wire 1 " b $end',
            "$upscope $end",
            "$enddefinitions $end",
            "$dumpvars", "0!", '1"', "$end",
            "#0", "1!",
            "#2", '0"',
            "#5", "0!", '1"',
        ]) + "\n"

    def test_vcd_of_long_signals_is_fast(self, ws, capsys):
        # one walk over the transitions: building a time-to-value map per
        # (time, signal) pair took about 68 s on these two signals
        n = 4000
        a = ws.signal("a.json", make_signal(0, [(F(k, 3), (k + 1) % 2) for k in range(n)]))
        b = ws.signal("b.json", make_signal(1, [(F(2 * k + 1, 7), k % 2) for k in range(n)]))
        vcd = ws.path("dump.vcd")
        start = time.perf_counter()
        assert main(["render", a, b, "--from", "0", "--to", str(n), "--vcd", vcd]) == 0
        assert time.perf_counter() - start < 10
        lines = open(vcd).read().splitlines()
        assert sum(line[0] in "01" for line in lines[lines.index("$end") + 1:]) == 2 * n

    def test_short_range_of_long_signals_builds_no_fraction_outside_it(self, ws, monkeypatch):
        # each signal's ticks are bisected at --from and --to: no time
        # outside [0, 10] is built, and only the column times inside it
        n = 20000
        a = ws.signal("a.json", make_signal(0, [(F(k, 3), (k + 1) % 2) for k in range(-n, n)]))
        b = ws.signal("b.json", make_signal(1, [(F(2 * k + 1, 7), k % 2) for k in range(n)]))
        vcd = ws.path("dump.vcd")
        new, built = Fraction.__new__, [0]

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting)
            assert main(["render", a, b, "--from", "0", "--to", "10", "--vcd", vcd]) == 0
        assert built[0] < 10

    def test_empty_range_rejected(self, ws, capsys):
        inp = ws.signal("a.json", pulse(0, 1))
        assert main(["render", inp, "--from", "2", "--to", "2"]) == 2
        assert "EmptyRange" in capsys.readouterr().err

    def test_bad_time_text_rejected(self, ws, capsys):
        inp = ws.signal("a.json", pulse(0, 1))
        assert main(["render", inp, "--from", "0.5", "--to", "2"]) == 2
        assert "InvalidDocument" in capsys.readouterr().err
