"""The benchmark's schema self-test must pass against the package.

``bench/selftest.py`` runs every workload at a minimal size, untraced and
traced, and checks the result schema and the tracer's call-count guard.  It
checks no timings.  Running it here makes a change that breaks the traced
path or the guard fail the unit tests, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("selftest: ok")
