"""The benchmark's self-test (perfbench/selftest.py) passes on this tree.

It smoke-runs every workload through the CLI against the independent oracle
and requires the checks to reject four corrupted outputs.  This test runs it
in a subprocess and changes nothing under perfbench/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "15/15 self-test cases passed" in proc.stdout
