"""Every demo script runs to completion against the package sources and
prints the recorded stdout."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN_PATH = ROOT / "tests" / "data" / "demo_golden.json"


@functools.cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """One run of a demo, shared by the tests below."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    res = run_demo(demo)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_stdout_matches_golden(demo):
    """Every byte a demo prints is unchanged from the recorded file.
    Regenerate it with ``python tests/test_demos.py`` only when a change is
    meant to alter what a demo prints."""
    want = json.loads(DEMO_GOLDEN_PATH.read_text())
    assert run_demo(demo).stdout == want[demo.name]


if __name__ == "__main__":
    golden = {}
    for demo in DEMOS:
        res = run_demo(demo)
        res.check_returncode()
        golden[demo.name] = res.stdout
    DEMO_GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
