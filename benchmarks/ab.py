"""Interleaved A/B timing of two source trees of phmorph.

Each tree (its ``src/`` directory) is imported by one long-lived worker
process, so both stay warm; the worker times one task per request and the
controller alternates the two workers pair by pair, swapping which side runs
first, so both sides sample the same speed phases of a shared host.  Being
warm and in process, it does not see what a fresh ``phmorph verify``
process pays once, such as the first use of a module that starts lazily;
perfbench (``perfbench/run.py``), which times fresh processes, does.  A
task is either

- a perfbench workload (``readme-6-4``, ``hopf-full``, ``hopf-subset``):
  ``phmorph.cli.main`` in process on that workload's arguments (read from
  ``perfbench/workloads.json`` and built by ``perfbench/child.py``), or
- a layer read of ``benchmarks/bench_layers.py``, ``chunk_fill:<workload>``
  or ``identity:<workload>:<identity>``: one round, its set-up untimed,
  each round of a task at the next of ``bench_layers``' sample points; or
  ``setup:<workload>``: ``bench_layers.set_up``, a run's set-up repeated
  ``SETUP_REPEATS`` times, which resolves a smaller change in set-up than
  a workload's one set-up reading does.

Both workers use this checkout's perfbench code.  Each imports its own
tree's ``benchmarks/bench_layers.py``, so a layer read can compare trees
whose library API differs.
The outcome of every run (exit code, verdict, skipped identities, flag
outcomes and per-identity counts of a workload) must be the same on both
sides, or the tool exits 1.  For each task it prints each side's median and
quartiles, the ratio of the medians (change / parent) with the median and
quartiles of the pair ratios (the steadier reading when the host's speed
shifts between phases), and in how many pairs the change was faster; for a
workload it prints the same for the seconds spent in ``run_verification``'s
set-up steps, read as ``perfbench/child.py`` reads ``setup_s`` (perfbench's
``Tracer(SETUP_TARGETS)`` installed in each worker).  Run it from
the repository root, with the parent commit checked out elsewhere
(``git worktree`` or ``git archive``):

    python benchmarks/ab.py PARENT_ROOT . --pairs 40 readme-6-4 hopf-full
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
WORKLOADS = ("readme-6-4", "hopf-full", "hopf-subset")
WARMUP = 3  # untimed runs per side before a task's pairs


def worker(root, samples):
    """Serve timing requests ``[task, seed]`` on stdin, one JSON line each,
    answering ``[seconds, outcome, setup seconds]`` (the last None for a
    layer read), with phmorph imported from ROOT/src and ``bench_layers``
    from ROOT/benchmarks."""
    src = os.path.join(os.path.abspath(root), "src")
    benches = os.path.join(os.path.abspath(root), "benchmarks")
    sys.path[:0] = [src, benches, PERFBENCH]
    import phmorph
    from phmorph import cli
    if not os.path.abspath(phmorph.__file__).startswith(src + os.sep):
        raise ImportError("phmorph imported from %s, not from %s"
                          % (phmorph.__file__, src))
    from child import cli_argv
    from tracer import SETUP_TARGETS, Tracer
    tracer = Tracer(SETUP_TARGETS)
    tracer.install()
    with open(os.path.join(PERFBENCH, "workloads.json")) as fh:
        spec = json.load(fh)
    replies = os.fdopen(os.dup(1), "w")
    sys.stdout = open(os.devnull, "w")
    setups = {}  # one round set-up per layer task, rotating over its points
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for line in sys.stdin:
            task, seed = json.loads(line)
            kind, _, rest = task.partition(":")
            setup = None
            if rest:
                seconds, outcome = layer(kind, rest.split(":"), setups)
            else:
                argv = cli_argv(spec["workloads"][task]["args"],
                                samples or spec["samples"], seed, report)
                before = tracer.top_level_seconds()
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
                setup = tracer.top_level_seconds() - before
                with open(report) as fh:
                    rep = json.load(fh)
                flags = {name: [flag["confirmed"], flag["samples_error"]]
                         for name, flag in rep["flags"].items()}
                outcome = [code, rep["verdict"], rep["skipped_identities"],
                           flags] + [
                    [row["name"], row["samples_pass"], row["samples_fail"],
                     row["samples_error"]] for row in rep["per_identity"]]
            print(json.dumps([seconds, outcome, setup]), file=replies,
                  flush=True)


def layer(kind, args, setups):
    """One round of a ``bench_layers`` read: (seconds, outcome).  Its
    set-up comes from ``setups``, one per task, so that successive rounds
    read successive sample points, as ``bench_layers`` does.  An identity
    read folds each round into a fresh ``IdentityAggregate``."""
    import bench_layers
    if kind == "setup":
        start = time.perf_counter()
        bench_layers.set_up(args[0])
        return time.perf_counter() - start, None
    rows = bench_layers.CHUNK_ROWS if kind == "chunk_fill" else None
    key = (kind,) + tuple(args)
    if key not in setups:
        setups[key] = bench_layers.fresh_runs(args[0], rows)
    (run, point, idx), _ = setups[key]()
    if kind == "chunk_fill":
        read = bench_layers.fill
    elif kind == "identity":
        agg = bench_layers.IdentityAggregate(args[1])

        def read(run, point, idx):
            bench_layers.run_identity(args[1], run, point, idx, agg)
            return agg
    else:
        raise ValueError("unknown task kind %r" % kind)
    start = time.perf_counter()
    out = read(run, point, idx)
    seconds = time.perf_counter() - start
    return seconds, None if out is None else counts(out)


def counts(agg):
    """[pass, fail and error counts, errors] of an identity read's
    ``IdentityAggregate``."""
    return [agg.samples_pass, agg.samples_fail, agg.samples_error,
            agg.errors]


class Worker:
    def __init__(self, root, samples):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", root,
             "--samples", str(samples or 0)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, task, seed):
        self.proc.stdin.write(json.dumps([task, seed]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited with code %s" % self.proc.wait())
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(workers, task, pairs, seed):
    """Time ``task`` in ``pairs`` alternating pairs after ``WARMUP`` untimed
    runs per side; returns (per-side seconds, per-side set-up seconds,
    outcomes agree)."""
    parent, change = workers
    same = True
    for _ in range(WARMUP):
        same &= parent.time(task, seed)[1] == change.time(task, seed)[1]
    times, setups = ([], []), ([], [])
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        out = {}
        for side in order:
            seconds, out[side], setup = workers[side].time(task, seed)
            times[side].append(seconds)
            setups[side].append(setup)
        same &= out[0] == out[1]
    return times, setups, same


def summary(task, times):
    parent, change = times
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    r1, rm, r3 = quartiles([c / p for p, c in zip(parent, change)])
    wins = sum(c < p for p, c in zip(parent, change))
    return ("%-40s parent %8.3f ms [%.3f, %.3f]  change %8.3f ms "
            "[%.3f, %.3f]  ratio %.3f (pair ratios %.3f [%.3f-%.3f])  "
            "change faster in %d/%d pairs"
            % (task, 1e3 * pm, 1e3 * p1, 1e3 * p3, 1e3 * cm, 1e3 * c1,
               1e3 * c3, cm / pm, rm, r1, r3, wins, len(parent)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("tasks", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--samples", type=int, default=None,
                        help="sample points per workload run (default: "
                             "perfbench's count)")
    args = parser.parse_intermixed_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workers = (Worker(args.parent, args.samples),
               Worker(args.change, args.samples))
    agree = True
    try:
        for task in args.tasks:
            times, setups, same = compare(workers, task, args.pairs,
                                          args.seed)
            print(summary(task, times) + ("" if same else
                                          "  OUTCOMES DIFFER"), flush=True)
            if None not in setups[0]:
                print(summary(task + " set-up", setups), flush=True)
            agree &= same
    finally:
        for w in workers:
            w.close()
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], int(sys.argv[4]))
    else:
        sys.exit(main())
