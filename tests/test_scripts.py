"""The example scripts run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(tmp_path, script, *args):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["composition_gap.py", "hazard_filter_demo.py"])
def test_script_exits_cleanly(script, tmp_path):
    _run(tmp_path, script)


def test_search_trace_prints_counts_and_digest(tmp_path):
    lines = _run(tmp_path, "search_trace.py", "--seed", "42", "--cases", "2").splitlines()
    rows = [line.split(": ") for line in lines[1:-1]]
    assert [law for law, _ in rows] == ["3.12", "4.8", "6.6", "6.6s"]
    total = sum(int(n) for _, counts in rows for n in counts.split(" / "))
    assert lines[-1].startswith(f"{total} calls, sha256 ")


# The digest of every serial search answer at seed 42, 30 and 100 cases per
# law.  A change meant to move search answers updates these constants and
# says so.
SEARCH_TRACE_30 = "1002 calls, sha256 5f753504e647e8216b485f3a0f7ac5bbaa1c7e547ce6122321d16a79e984e7c4"
SEARCH_TRACE_100 = "3348 calls, sha256 576af3543d8903d699b2ea7c035148cd2e35ad2e4a1ac1025ce411a55413b24a"


def test_search_trace_digest_is_pinned(tmp_path):
    lines = _run(tmp_path, "search_trace.py", "--seed", "42", "--cases", "30").splitlines()
    assert lines[-1] == SEARCH_TRACE_30


def test_search_trace_digest_is_pinned_at_100_cases(tmp_path):
    lines = _run(tmp_path, "search_trace.py", "--seed", "42", "--cases", "100").splitlines()
    assert lines[-1] == SEARCH_TRACE_100
