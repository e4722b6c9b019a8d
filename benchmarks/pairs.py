"""Paired A/B runs of two source trees of phmorph.

Each pair runs a task once on each tree, one at a time, the tree that goes
first alternating, so both sides sample the same speed phases of a shared
host.  A task is

- a perfbench workload (``readme-6-4``, ``hopf-full``, ``hopf-subset``):
  one fresh process of this checkout's ``perfbench/child.py`` per run, read
  as ``verify_s``, ``setup_s`` and ``peak_rss_mb``, whose reports must be
  byte-identical in every pair; or
- a read of ``benchmarks/bench_layers.py`` on its workload W, read as
  ``round_s``: ``chunk_fill:W`` or ``identity:W:<identity>`` (one round at
  the next sample point, its set-up untimed) or ``setup:W``
  (``SETUP_REPEATS`` set-ups of a run).  Each tree's reads run in one warm
  worker, which imports the tree's own ``bench_layers`` (this checkout's if
  the tree has none) and first checks that it can run them.  ``WARMUP``
  untimed rounds per side come first; an identity's counts and first three
  errors must agree.

A task that cannot be run exits 2 before any timing.  Per task and metric it
prints each side's median [quartiles], the pair ratios' (change / parent),
in how many pairs the change read lower, and ``lower`` or ``higher`` where
at least ``MIN_PAIRS`` pairs ran, the change read so in nine tenths of them
(ties count for neither) and the medians differ by more than the parent's
interquartile range, else ``unresolved``.  It exits 1 if reports or
outcomes differ.

A process started here reads at least this one's RSS as its peak, so this
one imports neither numpy nor phmorph.  A bytecode cache lowers
``peak_rss_mb``, so it refuses a tree whose ``src/`` holds a
``__pycache__``, and no run reads or writes the trees' bytecode; with
``--cached`` all runs keep all of their bytecode under one temporary
``PYTHONPYCACHEPREFIX``, filled by one untimed pair per workload first.
Run it from the repository root, the parent unpacked elsewhere (``git
archive``); the parent against itself is the control for a small change:

    python benchmarks/pairs.py PARENT_ROOT . --pairs 10 hopf-subset \\
        chunk_fill:readme-6-4 identity:hopf-full:phh-covariant
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
CHILD = os.path.join(PERFBENCH, "child.py")
WORKLOADS = ("readme-6-4", "hopf-full", "hopf-subset")
LAYERS = ("setup", "chunk_fill", "identity")
WARMUP = 3  # untimed rounds per side before a layer task's pairs
MIN_PAIRS = 10  # fewer pairs read unresolved
WORKLOAD_METRICS = (("verify_s", 1e3, "ms"), ("setup_s", 1e3, "ms"),
                    ("peak_rss_mb", 1.0, "MB"))
LAYER_METRICS = (("round_s", 1e3, "ms"),)
WORKER = "import sys, pairs; pairs.worker(sys.argv[1], sys.argv[2:])"


def caches(root):
    """The ``__pycache__`` directories under ROOT/src."""
    return [path for path, _, _ in os.walk(os.path.join(root, "src"))
            if os.path.basename(path) == "__pycache__"]


def layer_error(bench_layers, task):
    """Why ``bench_layers`` cannot run the layer read ``task``, or None."""
    from phmorph.runner import ALL_IDENTITIES, skip_reason
    from phmorph.scenarios import get_scenario
    _, workload, *name = task.split(":")
    if workload not in bench_layers.WORKLOADS:
        return "bench_layers has no workload %r" % workload
    if not name:
        return None
    if name[0] not in ALL_IDENTITIES:
        return "unknown identity %r" % name[0]
    scenario = get_scenario(bench_layers.WORKLOADS[workload].scenario)
    reason = skip_reason(name[0], scenario)
    return reason and "%s skips %s: %s" % (workload, name[0], reason)


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


def worker(root, tasks):
    """Serve the layer reads of the tree at ROOT, with phmorph imported from
    ROOT/src and ``bench_layers`` from ROOT/benchmarks: answer the first
    ``layer_error`` of ``tasks`` (or None), then read one task per line of
    stdin and answer [measurements, outcome]; each answer is a JSON line."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path[:0] = [src, os.path.join(os.path.abspath(root), "benchmarks")]
    import phmorph
    if not os.path.abspath(phmorph.__file__).startswith(src + os.sep):
        raise ImportError("phmorph imported from %s, not from %s"
                          % (phmorph.__file__, src))
    import bench_layers
    errors = (layer_error(bench_layers, task) for task in tasks)
    print(json.dumps(next(filter(None, errors), None)), flush=True)
    setups = {}  # one round set-up per task, rotating over its points
    for line in sys.stdin:
        print(json.dumps(layer(bench_layers, line.strip(), setups)),
              flush=True)


def layer(bench_layers, task, setups):
    """One round of a layer read, its set-up from ``setups``, one per task,
    so that successive rounds read successive sample points.  An identity's
    round folds into a fresh ``IdentityAggregate``, whose counts and first
    three errors are the outcome."""
    kind, *args = task.split(":")
    agg = None
    if kind == "setup":
        read, inputs = bench_layers.set_up, (args[0],)
    else:
        if task not in setups:
            rows = bench_layers.CHUNK_ROWS if kind == "chunk_fill" else None
            setups[task] = bench_layers.fresh_runs(args[0], rows)
        (inputs, _), read = setups[task](), bench_layers.fill
    if kind == "identity":
        agg = bench_layers.IdentityAggregate(args[1])
        read = functools.partial(bench_layers.run_identity, args[1], agg=agg)
    start = time.perf_counter()
    read(*inputs)
    seconds = time.perf_counter() - start
    return [{"round_s": seconds}, None if agg is None else [
        agg.samples_pass, agg.samples_fail, agg.samples_error, agg.errors[:3]]]


def ask(proc, task=None):
    """The next answer of the worker ``proc``, to ``task`` if given."""
    if task is not None:
        proc.stdin.write(task + "\n")
        proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError("worker exited with code %s" % proc.wait())
    return json.loads(line)


def compare(runs, pairs, warmup):
    """``warmup`` untimed, then ``pairs`` timed alternating pairs of
    ``runs[side]()`` -> (measurements, outcome): per side, the timed runs'
    measurements, and whether every pair's outcomes were equal."""
    sides, same = ([], []), True
    for i in range(warmup + pairs):
        out = {}
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            measured, out[side] = runs[side]()
            sides[side].append(measured)
        same &= out[0] == out[1]
    return (sides[0][warmup:], sides[1][warmup:]), same


def quartiles(values):
    return values * 3 if len(values) == 1 else statistics.quantiles(
        values, n=4, method="inclusive")


def summary(metric, scale, unit, sides):
    parent, change = ([run[metric] for run in side] for side in sides)
    (p1, pm, p3), (c1, cm, c3), (r1, rm, r3) = (
        quartiles(values) for values in
        (parent, change, [c / p for p, c in zip(parent, change)]))
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    n = len(parent)
    resolved = n >= MIN_PAIRS and abs(cm - pm) > p3 - p1
    reading = ("lower" if resolved and cm < pm and 10 * lower >= 9 * n else
               "higher" if resolved and cm > pm and 10 * higher >= 9 * n
               else "unresolved")
    return ("  %-12s parent %8.3f %s [%.3f, %.3f]  change %8.3f %s "
            "[%.3f, %.3f]  pair ratio %.3f [%.3f, %.3f]  change lower in "
            "%d/%d pairs  %s"
            % (metric, scale * pm, unit, scale * p1, scale * p3, scale * cm,
               unit, scale * c1, scale * c3, rm, r1, r3, lower, n, reading))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("tasks", nargs="*", default=list(WORKLOADS),
                        help="of %s (the default), setup:W, chunk_fill:W "
                             "and identity:W:I" % ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cached", action="store_true",
                        help="read and write bytecode in a temporary cache, "
                             "warmed by one untimed pair per workload")
    args = parser.parse_intermixed_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for task in args.tasks:
        kind, *rest = task.split(":")
        if task not in WORKLOADS and (kind not in LAYERS or len(rest) != 1 + (
                kind == "identity")):
            parser.error("unknown task %r: not one of %s, setup:W, "
                         "chunk_fill:W or identity:W:I"
                         % (task, ", ".join(WORKLOADS)))
    roots = (args.parent, args.change)
    for root in roots:
        if caches(root):
            parser.error("%s holds bytecode caches, which lower peak_rss_mb: "
                         "%s" % (root, ", ".join(caches(root))))
    with open(os.path.join(PERFBENCH, "workloads.json")) as fh:
        spec = json.load(fh)
    layer_tasks = [task for task in args.tasks if task not in WORKLOADS]
    agree, workers = True, []
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        if args.cached:
            del env["PYTHONDONTWRITEBYTECODE"]
            env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        reports = [os.path.join(tmp, "%d.json" % side) for side in (0, 1)]
        try:
            for root in roots if layer_tasks else ():
                workers.append(subprocess.Popen(
                    [sys.executable, "-c", WORKER, root] + layer_tasks,
                    env=dict(env, PYTHONPATH=HERE), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
                error = ask(workers[-1])
                if error:
                    parser.error("%s (in %s)" % (error, root))
            for task in args.tasks:
                if task in WORKLOADS:
                    child_spec = {"args": spec["workloads"][task]["args"],
                                  "samples": spec["samples"]}
                    runs = [functools.partial(run_once, root, child_spec,
                                              args.seed, report, env)
                            for root, report in zip(roots, reports)]
                    warmup, metrics = int(args.cached), WORKLOAD_METRICS
                    header = "  seed %d" % args.seed
                else:
                    runs = [functools.partial(ask, proc, task)
                            for proc in workers]
                    warmup, metrics, header = WARMUP, LAYER_METRICS, ""
                sides, same = compare(runs, args.pairs, warmup)
                print("%s%s  %d pairs%s" % (task, header, args.pairs,
                                            "  bytecode cached" * args.cached))
                for metric, scale, unit in metrics:
                    print(summary(metric, scale, unit, sides))
                print("  %s: %s" % ("reports byte-identical" if header else
                                    "outcomes agree", "yes" if same else "NO"),
                      flush=True)
                agree &= same
        finally:
            for proc in workers:
                proc.stdin.close()
                proc.wait(timeout=60)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
