"""The benchmark harness's own self-test, run as part of the test suite.

The per-layer tracer in benchmarks/ wraps ltcmh functions by module and
name (for example `tensor.sgd_step` and its binding in `hash_learn`), so
renaming or rebinding one of them breaks the harness. This test makes such
a change fail here rather than only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
