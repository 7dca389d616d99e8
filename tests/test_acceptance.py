"""Acceptance gate: ten end-to-end criteria, each printed as one verdict line.

Every comparison is exact (Fraction arithmetic, tolerance zero).  Counts
follow the default GenConfig, and draws use the generators and bounds of
siglim.props.  Run with -s to see the verdict lines on success; pytest shows
them on failure regardless.
"""
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from oracles import (
    aic_bit,
    window_all_bit,
    window_any_bit,
    window_probe_times,
)
from siglim import (
    AicParams,
    BlcParams,
    GenConfig,
    Signal,
    aic_contains,
    aic_params,
    and_fn,
    apply_fn,
    bailc,
    blc,
    blc_compose,
    blc_is_deterministic,
    blc_valid,
    check_deterministic,
    envelope_violation,
    envelopes,
    flc,
    identity_fn,
    lc_join,
    lc_meet,
    make_signal,
    mc,
    not_fn,
    or_fn,
    params,
    probe_inputs,
    pulse,
    run_theorem,
    sc,
    scf,
    serial,
    signal_leq,
    sol,
    translate,
    translate_all,
    window_all,
    window_any,
)
from siglim import props as P
from siglim.cli import main
from siglim.errors import EmptyBailc
from siglim.files import (
    model_from_doc,
    model_to_doc,
    read_model_file,
    read_signal_file,
    signal_from_doc,
    signal_to_doc,
    write_model_file,
    write_signal_file,
)
from siglim.props import CHECK_BUDGET

CFG = GenConfig()
ID = identity_fn()


def _verdict(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:02d} {'pass' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num:02d}: {label}"


def _rng(tag: str, k: int) -> random.Random:
    return random.Random(f"{CFG.seed}:{tag}:{k}")


def _theorem_clean(tid: str, cases: int) -> list[str]:
    report = run_theorem(tid, replace(CFG, cases=cases))
    assert report.cases_run == cases
    return list(report.failures)


def test_criterion_01_windows_match_pointwise_oracle():
    mismatches = 0
    for k in range(CFG.cases):
        rng = _rng("accept1", k)
        x = P.gen_signal(rng)
        m = P._rat(rng, 0, 2)
        d = m + P._rat(rng, 0, 2)
        got_all, got_any = window_all(x, d, m), window_any(x, d, m)
        for t in window_probe_times(x, d, m):
            if got_all.value_at(t) != window_all_bit(x, d, m, t):
                mismatches += 1
            if got_any.value_at(t) != window_any_bit(x, d, m, t):
                mismatches += 1
    _verdict(1, mismatches == 0,
             f"window operators vs oracle on {CFG.cases} instances, "
             f"{mismatches} mismatches")


def _noncanonical(y: object) -> str | None:
    # independent canonical-form checker: exact times, strictly increasing,
    # strictly alternating values starting opposite the initial value
    if not isinstance(y, Signal):
        return "not a Signal"
    if y.initial not in (0, 1):
        return "bad initial value"
    v, last = y.initial, None
    for t, nv in y.transitions:
        if type(t) is not F:
            return "time is not a Fraction"
        if last is not None and t <= last:
            return "times not strictly increasing"
        if nv != 1 - v:
            return "values do not alternate"
        last, v = t, nv
    return None


def test_criterion_02_operator_outputs_stay_canonical():
    bad = 0
    for k in range(CFG.cases):
        rng = _rng("accept2", k)
        x = P.gen_signal(rng)
        shift = P._rat(rng, -4, 4)
        m = P._rat(rng, 0, 2)
        d = m + P._rat(rng, 0, 2)
        arity = rng.randint(1, 3)
        fn = P.gen_boolfn(arity, rng)
        u = P.gen_multisignal(arity, rng)
        outputs = (translate(x, shift), window_all(x, d, m),
                   window_any(x, d, m), apply_fn(fn, u))
        bad += sum(1 for y in outputs if _noncanonical(y) is not None)
    _verdict(2, bad == 0,
             f"closure: {4 * CFG.cases} operator outputs canonical, {bad} bad")


def test_criterion_03_translation_commutes_with_operators():
    failures = []
    for tid in ("2.4a", "2.4b", "2.4c"):
        failures += _theorem_clean(tid, CFG.cases)
    _verdict(3, not failures,
             f"translation lemmas on {CFG.cases} pairs per clause, "
             f"{len(failures)} failures")


def test_criterion_04_envelope_order_iff_valid():
    bad_valid = 0
    for k in range(200):
        rng = _rng("accept4v", k)
        m = rng.randint(1, 2)
        f, g = P.gen_boolfn_pair_leq(m, rng)
        p = P._gen_overlap_params(rng)
        if blc_valid(f, g, p) != 1:
            bad_valid += 1
            continue
        for _ in range(10):
            u = P.gen_multisignal(m, rng, 6)
            lo, hi = envelopes(f, g, p, u)
            if not signal_leq(lo, hi):
                bad_valid += 1
    bad_invalid = 0
    for k in range(200):
        rng = _rng("accept4i", k)
        m = rng.randint(1, 2)
        f, g = P._gen_discriminating_pair(m, rng)
        m_r, m_f = P._rat(rng, 0, 2), P._rat(rng, 0, 2)
        d_f = m_f + P._rat(rng, 0, 2)
        p = BlcParams(m_r, m_r + m_f + d_f + 1, m_f, d_f)
        if blc_valid(f, g, p) == 1:
            bad_invalid += 1
            continue
        found = envelope_violation(f, g, p)
        if found is None:
            bad_invalid += 1
            continue
        u, t = found
        lo, hi = envelopes(f, g, p, u)
        if not (lo.value_at(t) == 1 and hi.value_at(t) == 0):
            bad_invalid += 1
    _verdict(4, bad_valid == 0 and bad_invalid == 0,
             f"envelope order on 200 valid ({bad_valid} bad) and witnesses on "
             f"200 invalid ({bad_invalid} bad)")


def test_criterion_05_determinism_criterion_matches_search():
    bad, done, k = 0, 0, 0
    while done < 200 and k < 2000:
        rng = _rng("accept5", k)
        k += 1
        m = rng.randint(1, 2)
        f, g, p = P._gen_valid_blc(m, rng)
        if rng.random() < 0.3:
            p = BlcParams(0, p.d_r, 0, p.d_r)
        if rng.random() < 0.3:
            g = f
        if not blc_valid(f, g, p):
            continue
        done += 1
        det, d = blc_is_deterministic(f, g, p)
        i = blc(f, g, p)
        us = probe_inputs(f, g, p) + [P.gen_multisignal(m, rng, 6)]
        if check_deterministic(i, us, CHECK_BUDGET) != det:
            bad += 1
            continue
        if det and d is not None:
            for u in us:
                lo, hi = envelopes(f, g, p, u)
                want = apply_fn(f, translate_all(u, d))
                if lo != want or hi != want:
                    bad += 1
                    break
    _verdict(5, done == 200 and bad == 0,
             f"determinism criterion vs two-witness search on {done} valid "
             f"models, {bad} disagreements")


def test_criterion_06_membership_is_time_invariant():
    failures = _theorem_clean("4.5", CFG.cases)
    _verdict(6, not failures,
             f"translation invariance on {CFG.cases} quadruples, "
             f"{len(failures)} failures")


def test_criterion_07_composition_closed_forms():
    failures = []
    # 6.6s, not 6.6: the summed dwell form is exact only for zero inner
    # dwell, and law 6.6 (the unqualified rule) is refuted at seed 42
    for tid in ("4.8", "5.2", "6.6s"):
        failures += [f"{tid} {msg}" for msg in _theorem_clean(tid, 200)]
    chain = blc_compose(and_fn(2), or_fn(2), params(1, 2, 1, 2),
                        [(ID, ID), (ID, ID)], params(1, 3, 1, 3))
    worked = chain.params == params(2, 5, 2, 5)
    detail = f"; first: {failures[0][:90]}" if failures else ""
    _verdict(7, not failures and worked,
             f"closed-form composition vs search oracle on 200 queries per "
             f"form, {len(failures)} failures; worked example "
             f"{'ok' if worked else 'wrong'}{detail}")


def test_criterion_08_nonemptiness_criterion_matches_search():
    failures = _theorem_clean("6.4", 200)
    _verdict(8, not failures,
             f"nonemptiness criterion vs witness search on 200 instances, "
             f"{len(failures)} failures")


def test_criterion_09_dwell_rule_matches_pointwise_oracle():
    mismatches = 0
    for k in range(CFG.cases):
        rng = _rng("accept9", k)
        x = P.gen_signal(rng)
        dr, df = P._rat(rng, 0, 2), P._rat(rng, 0, 2)
        if aic_contains(x, aic_params(dr, df)) != aic_bit(x, dr, df):
            mismatches += 1
    boundary_bad = 0
    for k in range(50):
        rng = _rng("accept9b", k)
        s = P._rat(rng, -4, 4)
        delta = F(rng.randint(1, 16), rng.randint(1, P.MAX_DENOMINATOR))
        other = P._rat(rng, 0, 2)
        wave = pulse(s, s + delta)  # high run of width exactly delta
        if aic_contains(wave, aic_params(delta, other)) != 0:
            boundary_bad += 1
        if aic_bit(wave, delta, other) != 0:
            boundary_bad += 1
        dip = make_signal(1, [(s, 0), (s + delta, 1)])  # low run, same width
        if aic_contains(dip, aic_params(other, delta)) != 0:
            boundary_bad += 1
        if aic_bit(dip, other, delta) != 0:
            boundary_bad += 1
    _verdict(9, mismatches == 0 and boundary_bad == 0,
             f"dwell rule vs oracle on {CFG.cases} instances "
             f"({mismatches} mismatches) and 50 boundary pulses "
             f"({boundary_bad} bad)")


def _random_model(rng: random.Random):
    kind = rng.choice(("sc", "mc", "scf", "sol", "flc", "blc",
                       "bailc", "meet", "join", "serial"))
    m = rng.randint(1, 2)
    if kind == "sc":
        return sc()
    if kind == "mc":
        return mc(rng.randint(2, 3))
    if kind == "scf":
        return scf(P.gen_boolfn(m, rng))
    if kind == "sol":
        return sol(*P.gen_boolfn_pair_leq(m, rng))
    if kind == "flc":
        return flc(P.gen_boolfn(m, rng), P._rat(rng, 0, 3))
    if kind == "blc":
        f, g = P.gen_boolfn_pair_leq(m, rng)
        return blc(f, g, P._gen_overlap_params(rng))
    if kind == "bailc":
        f, g = P.gen_boolfn_pair_leq(m, rng)
        p = P._gen_overlap_params(rng)
        try:
            return bailc(f, g, p, P._feasible_aic(p, rng))
        except EmptyBailc:
            return bailc(f, g, p, AicParams(0, 0))
    if kind == "meet":
        h = P.gen_boolfn(m, rng)
        return lc_meet(flc(h, P._rat(rng, 0, 2)),
                       flc(h, P._rat(rng, 0, 2)))
    if kind == "join":
        h = P.gen_boolfn(m, rng)
        return lc_join(flc(h, P._rat(rng, 0, 2)),
                       flc(h, P._rat(rng, 0, 2)))
    f, g = P.gen_boolfn_pair_leq(m, rng)
    return serial(sol(f, g), [sc() for _ in range(m)])


def test_criterion_10_files_and_cli_round_trip(tmp_path):
    bad_signal = 0
    spath = tmp_path / "sig.json"
    for k in range(200):
        rng = _rng("accept10s", k)
        x = P.gen_signal(rng)
        if signal_from_doc(signal_to_doc(x)) != x:
            bad_signal += 1
        write_signal_file(str(spath), x)
        if read_signal_file(str(spath)) != x:
            bad_signal += 1

    bad_model = 0
    mpath = tmp_path / "model.json"
    for k in range(50):
        rng = _rng("accept10m", k)
        i = _random_model(rng)
        doc = model_to_doc(i)
        j = model_from_doc(doc)
        if model_to_doc(j) != doc:
            bad_model += 1
        write_model_file(str(mpath), i)
        parsed = read_model_file(str(mpath))
        if model_to_doc(parsed) != doc:
            bad_model += 1
        u = P.gen_multisignal(i.input_arity, rng, 4)
        x = P.gen_signal(rng, 4)
        if i.contains(u, x) != parsed.contains(u, x):
            bad_model += 1

    bad_cli = 0
    for k in range(12):
        rng = _rng("accept10c", k)
        choice = k % 3
        if choice == 0:
            model = flc(P.gen_boolfn(1, rng), P._rat(rng, 0, 3))
        elif choice == 1:
            f, g = P.gen_boolfn_pair_leq(1, rng)
            model = blc(f, g, P._gen_overlap_params(rng))
        else:
            f, g = P.gen_boolfn_pair_leq(1, rng)
            p = P._gen_overlap_params(rng)
            try:
                model = bailc(f, g, p, P._feasible_aic(p, rng))
            except EmptyBailc:
                model = bailc(f, g, p, AicParams(0, 0))
        mfile = tmp_path / f"m{k}.json"
        ifile = tmp_path / f"i{k}.json"
        ofile = tmp_path / f"w{k}.json"
        write_model_file(str(mfile), model)
        write_signal_file(str(ifile), P.gen_signal(rng, 6))
        code = main(["eval", str(mfile), str(ifile),
                     "--out", str(ofile), "--witness", "2", "--seed", str(k)])
        if code != 0:
            bad_cli += 1
            continue
        produced = sorted(tmp_path.glob(f"w{k}-*.json")) or [ofile]
        for w in produced:
            if main(["check", "--model", str(mfile), "--input", str(ifile),
                     "--candidate", str(w)]) != 0:
                bad_cli += 1
    _verdict(10, bad_signal == 0 and bad_model == 0 and bad_cli == 0,
             f"round trips: 200 signal files ({bad_signal} bad), 50 model "
             f"files ({bad_model} bad); 12 eval witnesses all pass check "
             f"({bad_cli} bad)")
