"""The benchmark's layer tracer still installs on this code.

bench/tracer.py patches methods through each class's own __dict__, so moving
a traced method into a base class breaks traced benchmark runs without
failing any other test.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
