#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, standard library only:

    python3 bench/selftest.py

Runs every workload once per mode, checks that each metric named in
BENCHMARK.json is printed with its unit, and that flipping an expected
verdict makes the check, and the run, fail.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "props_search": workloads.PropsSearch,  # props cases come in one size
    "trace_check": lambda seed: workloads.TraceCheck(seed, tiny=True),
    "cli_docs": lambda seed: workloads.CliDocs(seed, tiny=True),
}


def bench(*argv: str, registry: dict = TINY) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), registry)
    return code, out.getvalue()


class SelfTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        for table, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[table]}, names)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        for name in run.WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, out = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace))
                    self.assertEqual(code, 0, out)
                    *lines, last = out.strip().splitlines()
                    result = json.loads(last)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    for m in SPEC[table]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertTrue(any(line.split()[:1] == [m["name"]] for line in lines),
                                        f"{m['name']} not printed")
                    if trace == 0:
                        self.assertTrue(any(line.startswith("error_ratio") for line in lines))

    def test_flipped_verdict_fails_the_check(self):
        props = workloads.PropsSearch(3)
        props.setup()
        trace = workloads.TraceCheck(3, tiny=True)
        trace.setup()
        cli = workloads.CliDocs(3, tiny=True)
        cli.setup()
        ops = {
            "props_search": props.case_op("6.6", 129),
            "trace_check": next(op for op in trace.ops() if "contains" in op.label),
            "cli_docs": next(op for op in cli.ops() if op.label.startswith("check")),
        }
        for name, op in ops.items():
            with self.subTest(workload=name):
                result = op.run()
                self.assertIsNone(op.check(result))
                want = op.expected
                if isinstance(want, tuple):  # cli (exit code, output)
                    op.expected = (0, "ok\n") if want[0] else (1, "violation at t=0\n")
                else:
                    op.expected = type(want)(not want)
                self.assertIsNotNone(op.check(result))

    def test_every_membership_gate_both_accepts_and_rejects(self):
        trace = workloads.TraceCheck(3, tiny=True)
        trace.setup()
        mix = {}
        for op in islice(trace.ops(), 3 * len(trace.KINDS)):
            if op.verdict is not None:
                mix.setdefault(op.kind, set()).add(op.verdict)
                self.assertIsNone(op.check(op.run()), op.label)
        self.assertEqual(mix, dict.fromkeys(("blc.contains", "bailc.contains", "flc.contains"),
                                             {"in", "out"}))

    def test_recorded_gap_case_fails_and_a_flipped_record_fails_the_run(self):
        props = workloads.PropsSearch(3)
        props.setup()
        self.assertIn(("6.6", 129), props.failing)

        class Flipped(workloads.PropsSearch):
            def setup(self):
                super().setup()
                self.failing.add(("3.12", 0))  # a passing case, now expected to fail

        code, out = bench("--workload", "props_search", "--seconds", "0.5", "--trace", "0",
                          registry={**TINY, "props_search": Flipped})
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.strip().splitlines()[-1])["correct"])

    def test_refuses_to_run_without_the_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "props_search",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
