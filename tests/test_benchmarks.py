"""The layer benchmarks stay runnable: ``benchmarks/bench_layers.py`` reads
the library's internals, so a read that no longer matches ``src/`` fails
here rather than in the next timing run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_layer_benchmarks_run_as_plain_tests():
    # each case once, untimed (about 6 s on 2 vCPUs)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_layers.py",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
