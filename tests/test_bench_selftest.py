"""The benchmark's self-test, run as part of the test suite.

A refactor that renames or bypasses a traced layer (for example
`policy.evaluate_returns`, `policy.Mlp.forward` or `pareto.dominates`)
leaves a per-layer metric at zero, which the self-test reports. It
writes only under the gitignored `.bench_work/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
