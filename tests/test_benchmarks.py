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


def test_ab_compares_this_tree_with_itself_on_each_kind_of_task():
    # a workload, a set-up read and the two round reads, two pairs each
    tasks = ["readme-6-4", "setup:readme-6-4", "chunk_fill:readme-6-4",
             "identity:hopf-full:koszul-horizontal"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/ab.py", ".", ".", "--pairs", "2",
         "--samples", "2"] + tasks,
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for task in tasks:
        assert task in proc.stdout
    assert "OUTCOMES DIFFER" not in proc.stdout
