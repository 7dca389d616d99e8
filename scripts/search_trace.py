#!/usr/bin/env python3
"""Trace every serial witness-search answer of the property suite.

Replays each case of every registered law with `serial_membership` wrapped,
and with the searches that the laws build by `serial_search` wrapped so that
each call on an output is recorded, then prints per law how often each
(bit, exhausted) answer came out, and a sha256 of the ordered trace keyed by
(law, case, call index).  Two trees that print the same digest gave every
search the same answer, so a change to the search can list exactly the
answers it moves.

    python3 scripts/search_trace.py --seed 42 --cases 500
"""
import argparse
import hashlib
import sys
from collections import Counter

import siglim.conditions as conditions
import siglim.props as props


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--cases", type=int, default=500)
    args = ap.parse_args(argv)

    membership, build = conditions.serial_membership, props.serial_search
    answers: list[tuple[int, bool]] = []

    def traced(search):
        def answer(*a, **kw):
            out = search(*a, **kw)
            answers.append(out)
            return out
        return answer

    conditions.serial_membership = props.serial_membership = traced(membership)
    props.serial_search = lambda *a, **kw: traced(build(*a, **kw))
    cfg = props.GenConfig(seed=args.seed, cases=args.cases)
    digest = hashlib.sha256()
    total = 0
    print("law: (0, False) / (0, True) / (1, False)")
    for law in props.theorem_ids():
        counts: Counter[tuple[int, bool]] = Counter()
        for case in range(args.cases):
            answers.clear()
            props.replay_case(law, cfg, case)
            for k, (bit, exhausted) in enumerate(answers):
                digest.update(f"{law} {case} {k} {bit} {exhausted}\n".encode())
            counts.update(answers)
        if counts:
            total += sum(counts.values())
            print(f"{law}: {counts[0, False]} / {counts[0, True]} / {counts[1, False]}")
    print(f"{total} calls, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
