"""The benchmark harness's own checks pass against the package sources, so a
library change that breaks the benchmark fails here too."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_harness_checks_pass():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "perfbench/check_harness.py"]
    res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
