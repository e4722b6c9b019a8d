"""The benchmark scripts stay runnable: ``benchmarks/bench_layers.py`` and
the A/B comparisons read the library's internals, so a read that no longer
matches ``src/`` fails here rather than in the next timing run."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_layer_benchmarks_run_as_plain_tests():
    # each case once, untimed (about 6 s on 2 vCPUs)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_layers.py",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of src/ without the bytecode caches that pairs.py refuses."""
    root = tmp_path_factory.mktemp("tree")
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(root)


def test_pairs_compares_this_tree_with_itself(tree):
    # one pair of fresh processes on hopf-subset
    proc = subprocess.run(
        [sys.executable, "benchmarks/pairs.py", tree, tree, "--pairs", "1",
         "hopf-subset"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for metric in ("verify_s", "setup_s", "peak_rss_mb"):
        assert metric in proc.stdout
    assert "reports byte-identical: yes" in proc.stdout


def test_pairs_compares_this_tree_with_itself_on_each_kind_of_task(tree):
    # one pair of a workload, a set-up read and the two round reads
    tasks = ["readme-6-4", "setup:readme-6-4", "chunk_fill:readme-6-4",
             "identity:hopf-full:koszul-horizontal"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/pairs.py", tree, tree, "--pairs", "1"]
        + tasks,
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "readme-6-4", "verify_s", "setup_s", "peak_rss_mb", "reports"] + [
        word for task in tasks[1:] for word in (task, "round_s", "outcomes")]
    assert lines[4] == "  reports byte-identical: yes"
    assert lines[7::3] == ["  outcomes agree: yes"] * 3


BAD_TASKS = [
    ("nowhere", "unknown task 'nowhere'"),
    ("bogus:readme-6-4", "unknown task 'bogus:readme-6-4'"),
    ("identity:hopf-full:nope", "unknown identity 'nope'"),
    ("chunk_fill:hopf-subset", "bench_layers has no workload 'hopf-subset'"),
    ("identity:hopf-full:corollary-phh", "hopf-full skips corollary-phh")]


@pytest.mark.parametrize("task, message", BAD_TASKS,
                         ids=[task for task, _ in BAD_TASKS])
def test_pairs_rejects_a_task_it_cannot_run_before_timing(tree, task,
                                                          message):
    # bench_layers loads no hopf-subset, and a hopf run skips corollary-phh
    proc = subprocess.run(
        [sys.executable, "benchmarks/pairs.py", tree, tree, task],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout == ""
    assert "pairs.py: error: " + message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pairs_starts_its_runs_from_a_process_without_numpy(tree):
    # a process started by another reads at least that one's RSS as its
    # peak, so the one that starts the timed runs must stay small
    code = ("import sys, pairs; pairs.main(sys.argv[1:]); print(sorted("
            "{'numpy', 'phmorph', 'bench_layers'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "benchmarks"))
    proc = subprocess.run(
        [sys.executable, "-c", code, tree, tree, "--pairs", "1",
         "chunk_fill:readme-6-4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_same_reports_compares_this_tree_with_itself():
    # every run of the list, once per side (about 2 s on 2 vCPUs)
    proc = subprocess.run(
        [sys.executable, "benchmarks/same_reports.py", ".", "."],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("0 of ") and last.endswith(" runs differ"), last
