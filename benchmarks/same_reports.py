"""Check that two source trees of phmorph give the same reports.

Each tree (its ``src/`` directory) runs a fixed list of ``phmorph verify``
configurations, through ``phmorph.cli.main`` in one process of its own, and
the two are compared run by run: the exit code, the report's bytes and each
identity's ``IdentityAggregate.errors`` (the point and message of every
errored sample, which the report counts but does not list).  The list:

- the three perfbench workloads (``perfbench/workloads.json``) at seeds 3
  and 42, with 20 and 100 samples;
- ``flat-projection-4-2 --rho x2``, whose rho is not positive at some
  sample points;
- at 60 samples and seed 5, three runs that stress the arithmetic: a large
  constant one-function sigma on hopf, and sigma^2 / rho^2 near 1e8 on hopf
  and on holomorphic-poly.

It prints one line per run and exits 1 on any difference.  Run it from the
repository root, with the parent commit unpacked elsewhere
(``git archive``):

    python benchmarks/same_reports.py PARENT_ROOT .
"""

import contextlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
STRESS = [
    ["--scenario", "hopf", "--special-sigma", "1000"],
    ["--scenario", "hopf", "--sigma", "100*(2+sin(x1))",
     "--rho", "0.01*exp(x1+0.5*x2)"],
    ["--scenario", "holomorphic-poly", "--sigma", "0.01*(2+sin(x1))",
     "--rho", "100*exp(x1+0.5*x2)"],
]


def runs(report):
    """(name, CLI arguments) of each compared run, writing to ``report``."""
    sys.path.insert(0, PERFBENCH)
    from child import cli_argv
    with open(os.path.join(PERFBENCH, "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    out = [("%s samples=%d seed=%d" % (name, samples, seed),
            cli_argv(workloads[name]["args"], samples, seed, report))
           for name in sorted(workloads) for seed in (3, 42)
           for samples in (20, 100)]
    out.append(("flat-projection-4-2 --rho x2",
                ["verify", "--scenario", "flat-projection-4-2", "--rho", "x2",
                 "--report", report]))
    out += [(" ".join(args[1:]) + " samples=60 seed=5",
             ["verify"] + args + ["--samples", "60", "--seed", "5",
                                  "--report", report]) for args in STRESS]
    return out


def worker(root):
    """Run each argument list read as JSON from stdin with phmorph from
    ROOT/src, and write [exit code, report text, [identity, errors] per
    identity] for each as one JSON list to stdout."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import phmorph
    from phmorph import biconformal, cli
    if not os.path.abspath(phmorph.__file__).startswith(src + os.sep):
        raise ImportError("phmorph imported from %s, not from %s"
                          % (phmorph.__file__, src))
    errors = []
    as_dict = biconformal.IdentityAggregate.as_dict

    def recording(agg):
        errors.append([agg.name, agg.errors])
        return as_dict(agg)

    biconformal.IdentityAggregate.as_dict = recording
    results = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in json.load(sys.stdin):
            del errors[:]
            code = cli.main(argv)
            report = argv[argv.index("--report") + 1]
            text = None
            if os.path.exists(report):
                with open(report) as fh:
                    text = fh.read()
                os.unlink(report)
            results.append([code, text, list(errors)])
    json.dump(results, sys.stdout)


def outcomes(root, argvs):
    code = "import sys, same_reports; same_reports.worker(sys.argv[1])"
    env = dict(os.environ, PYTHONPATH=HERE)
    proc = subprocess.run([sys.executable, "-c", code, root], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def main(argv):
    if len(argv) != 2:
        print("usage: same_reports.py PARENT_ROOT CHANGE_ROOT",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        names, argvs = zip(*runs(os.path.join(tmp, "report.json")))
        sides = [outcomes(root, list(argvs)) for root in argv]
    differences = 0
    for name, parent, change in zip(names, *sides):
        parts = [part for part, a, b in zip(
            ("exit code", "report bytes", "error messages"), parent, change)
            if a != b]
        errored = sum(len(errs) for _, errs in change[2])
        differences += bool(parts)
        print("%s: %s" % (name, "differ: " + ", ".join(parts) if parts
                            else "same (exit %d, %d errored samples)"
                            % (change[0], errored)))
    print("%d of %d runs differ" % (differences, len(names)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
