"""Paired fresh-process A/B runs of two source trees of phmorph.

Each pair runs a perfbench workload once on each tree, each run a fresh
process of this checkout's ``perfbench/child.py`` (which imports phmorph
from the tree's ``src/``), one process at a time; the tree that goes first
alternates from pair to pair, so both sides sample the same speed phases of
a shared host.  Unlike ``benchmarks/ab.py``, whose workers stay warm, every
run pays a process's start-up, so ``peak_rss_mb`` can be compared.

For each workload it prints, for ``verify_s``, ``setup_s`` and
``peak_rss_mb``, each side's median and quartiles and in how many pairs the
change read lower, and whether the two trees' reports were byte-identical
in every pair; it exits 1 if any were not, or if a run did not exit 0.

A bytecode cache lowers ``peak_rss_mb`` (the process does not compile the
package), so it refuses a tree whose ``src/`` holds a ``__pycache__``, and
its runs write none: by default no run reads or writes bytecode of the
trees; with ``--cached`` every run reads and writes all of its bytecode,
numpy's and the standard library's too, under one temporary
``PYTHONPYCACHEPREFIX``, filled by one untimed run per tree first.  Run it
from the repository root, with the parent commit unpacked elsewhere
(``git archive``):

    python benchmarks/pairs.py PARENT_ROOT . --pairs 10 --seed 42 hopf-subset
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
CHILD = os.path.join(PERFBENCH, "child.py")
WORKLOADS = ("readme-6-4", "hopf-full", "hopf-subset")
METRICS = (("verify_s", 1e3, "ms"), ("setup_s", 1e3, "ms"),
           ("peak_rss_mb", 1.0, "MB"))


def caches(root):
    """The ``__pycache__`` directories under ROOT/src."""
    return [path for path, _, _ in os.walk(os.path.join(root, "src"))
            if os.path.basename(path) == "__pycache__"]


def run_once(root, spec, seed, report, env):
    """One fresh ``child.py`` run of a workload on the tree at ROOT:
    (its measurements, its report's bytes)."""
    proc = subprocess.run(
        [sys.executable, CHILD, os.path.abspath(root), json.dumps(spec),
         str(seed), report, ""], env=env, capture_output=True, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("child.py on %s exited %d: %s"
                           % (root, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["exit_code"] != 0:
        raise RuntimeError("phmorph verify on %s exited %d"
                           % (root, result["exit_code"]))
    with open(report, "rb") as fh:
        return result, fh.read()


def compare(roots, spec, pairs, seed, env, tmp):
    """``pairs`` alternating pairs of runs of one workload: per side, the
    list of each run's measurements, and whether every pair's reports were
    byte-identical."""
    sides, same = ([], []), True
    reports = [os.path.join(tmp, "report-%d.json" % side) for side in (0, 1)]
    for i in range(pairs):
        texts = {}
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            result, texts[side] = run_once(roots[side], spec, seed,
                                           reports[side], env)
            sides[side].append(result)
        same &= texts[0] == texts[1]
    return sides, same


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(metric, scale, unit, sides):
    parent, change = ([run[metric] for run in side] for side in sides)
    (p1, pm, p3), (c1, cm, c3) = (
        [scale * v for v in quartiles(values)] for values in (parent, change))
    lower = sum(c < p for p, c in zip(parent, change))
    return ("  %-12s parent %8.3f %s [%.3f, %.3f]  change %8.3f %s "
            "[%.3f, %.3f]  change lower in %d/%d pairs"
            % (metric, pm, unit, p1, p3, cm, unit, c1, c3, lower,
               len(parent)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS),
                        help="of %s (default: all)" % ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cached", action="store_true",
                        help="read and write bytecode in a temporary cache, "
                             "warmed by one untimed run per tree")
    args = parser.parse_intermixed_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for name in set(args.workloads) - set(WORKLOADS):
        parser.error("unknown workload %r" % name)
    roots = (args.parent, args.change)
    for root in roots:
        if caches(root):
            parser.error("%s holds bytecode caches, which lower peak_rss_mb: "
                         "%s" % (root, ", ".join(caches(root))))
    with open(os.path.join(PERFBENCH, "workloads.json")) as fh:
        spec = json.load(fh)
    agree = True
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        env.pop("PYTHONPYCACHEPREFIX", None)
        if args.cached:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        for name in args.workloads:
            child_spec = {"args": spec["workloads"][name]["args"],
                          "samples": spec["samples"]}
            if args.cached:
                compare(roots, child_spec, 1, args.seed, env, tmp)
            sides, same = compare(roots, child_spec, args.pairs, args.seed,
                                  env, tmp)
            print("%s  seed %d  %d pairs%s" % (
                name, args.seed, args.pairs,
                "  bytecode cached" if args.cached else ""))
            for metric, scale, unit in METRICS:
                print(summary(metric, scale, unit, sides))
            print("  reports byte-identical: %s" % ("yes" if same else "NO"),
                  flush=True)
            agree &= same
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
