"""Check that two source trees of phmorph give the same reports.

Each tree (its ``src/`` directory) runs a fixed list of ``phmorph verify``
configurations, through ``phmorph.cli.main`` in one process of its own, and
the two are compared run by run: the exit code, the report's bytes, each
identity's ``IdentityAggregate.errors`` (the point and message of every
errored sample, which the report counts but does not list) and what the run
wrote to stderr.  The list:

- the three perfbench workloads (``perfbench/workloads.json``) at seeds 3
  and 42, with 20 and 100 samples;
- ``flat-projection-4-2 --rho x2``, whose rho is not positive at some
  sample points;
- the ``--format csv`` and ``--format text`` reports of readme-6-4 at 20
  samples and seed 42 and of ``flat-projection-4-2 --rho x2``, so that the
  csv and text renderers are compared as well as the JSON one;
- at 60 samples and seed 5, three runs that stress the arithmetic: a large
  constant one-function sigma on hopf, and sigma^2 / rho^2 near 1e8 on hopf
  and on holomorphic-poly;
- at 20 samples and seed 5:

  - ``curved-fibers-nonharmonic --sigma 'exp(0.3*x1+0.2*x3)'``: n = 1
    with a nonconstant sigma, where corollary-phh checks that PHH is kept;
  - ``nonphwc-anisotropic``: the PHWC-false branch of phwc-equivalence,
    where every other law is skipped;
  - ``flat-projection-6-4 --special-sigma 'exp(0.3*x1)'``: the
    one-function change at n = 2, with rho = sigma^-1;
  - on ``flat-projection-4-2``, one run for each precondition message that
    a command line reaches besides "rho = ... <= 0" and "metric inversion
    inaccurate" (which the runs above reach), each exiting 1:
    ``--sigma 'log(x1)'`` (log of an out-of-domain value), ``--sigma
    'x1^0.5'`` (a non-integer power of a non-positive base), ``--sigma
    '1/(x1-x1)'`` (division by zero), ``--sigma 1e200`` (sigma^-2 is not a
    finite positive number), ``--sigma '1e-154*exp(5*x1)'`` (the
    derivative of sigma^-2 is not finite) and ``--rho 1e7`` (g-bar is not
    positive definite, from ``eigvalsh`` after the Cholesky certificate
    fails); only unit tests reach the others: a point outside the chart
    domain, a metric that is not finite or not symmetric, a map that is
    not a submersion, the PHWC condition of an adapted frame, and a test
    vector with no horizontal or no vertical part;
- the argument syntax, on ``flat-projection-4-2`` at 20 samples:
  ``--samples=20``, ``--sam 20`` (a unique prefix), ``--seed -1`` (a
  negative number as a value), ``--tol-fd -1e-5`` (a value read as an
  option), ``--format xml`` (not a choice), ``--fd-step 1e-4`` (an unknown
  option) and a missing ``--scenario``; those that are usage or
  configuration errors exit 2 and write no report;
- ``flat-projection-4-2 --sigma`` with each malformed expression of
  ``tests/test_reachability.py`` (``1+``, ``sin 1``, ``foo``, ``(1``,
  ``exp(1``, ``1e``, an empty one and ``x9``, outside the chart): each exits
  2, and stderr names the error and its offset.

It prints one line per run, naming for reports that differ the first few
JSON paths where they do (``config.tol_ad``, ``per_identity[2].passed``),
or the first line where a csv or text report does, and exits 1 on any
difference.  Run it from the repository root, with the
parent commit unpacked elsewhere (``git archive``):

    python benchmarks/same_reports.py PARENT_ROOT .
"""

import contextlib
import io
import itertools
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

SEED5 = [
    ["--scenario", "curved-fibers-nonharmonic", "--sigma",
     "exp(0.3*x1+0.2*x3)"],
    ["--scenario", "nonphwc-anisotropic"],
    ["--scenario", "flat-projection-6-4", "--special-sigma", "exp(0.3*x1)"],
] + [["--scenario", "flat-projection-4-2"] + args for args in (
    ["--sigma", "log(x1)"],
    ["--sigma", "x1^0.5"],
    ["--sigma", "1/(x1-x1)"],
    ["--sigma", "1e200"],
    ["--sigma", "1e-154*exp(5*x1)"],
    ["--rho", "1e7"],
)]

SYNTAX = [
    ["--samples=20"],
    ["--sam", "20"],
    ["--samples", "20", "--seed", "-1"],
    ["--samples", "20", "--tol-fd", "-1e-5"],
    ["--samples", "20", "--format", "xml"],
    ["--samples", "20", "--fd-step", "1e-4"],
]

MALFORMED = ["1+", "sin 1", "foo", "(1", "exp(1", "1e", "", "x9"]


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
    rho_x2 = ["verify", "--scenario", "flat-projection-4-2", "--rho", "x2",
              "--report", report]
    out.append(("flat-projection-4-2 --rho x2", rho_x2))
    for fmt in ("csv", "text"):
        out += [("readme-6-4 samples=20 seed=42 --format " + fmt,
                 cli_argv(workloads["readme-6-4"]["args"], 20, 42, report)
                 + ["--format", fmt]),
                ("flat-projection-4-2 --rho x2 --format " + fmt,
                 rho_x2 + ["--format", fmt])]
    out += [(" ".join(args[1:]) + " samples=60 seed=5",
             ["verify"] + args + ["--samples", "60", "--seed", "5",
                                  "--report", report]) for args in STRESS]
    out += [(" ".join(args[1:]) + " samples=20 seed=5",
             ["verify"] + args + ["--samples", "20", "--seed", "5",
                                  "--report", report]) for args in SEED5]
    out += [(" ".join(args), ["verify", "--scenario", "flat-projection-4-2"]
             + args + ["--report", report]) for args in SYNTAX]
    out.append(("no --scenario",
                ["verify", "--samples", "20", "--report", report]))
    out += [("flat-projection-4-2 --sigma %r" % text,
             ["verify", "--scenario", "flat-projection-4-2", "--sigma", text,
              "--report", report]) for text in MALFORMED]
    return out


def worker(root):
    """Run each argument list read as JSON from stdin with phmorph from
    ROOT/src, and write [exit code, report text, [identity, errors] per
    identity, stderr text] for each as one JSON list to stdout."""
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
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            report = argv[argv.index("--report") + 1]
            text = None
            if os.path.exists(report):
                with open(report) as fh:
                    text = fh.read()
                os.unlink(report)
            results.append([code, text, list(errors), stderr.getvalue()])
    json.dump(results, sys.stdout)


def json_paths(a, b, path=""):
    """The paths at which the JSON values ``a`` and ``b`` differ, in the
    order of a report's sorted keys; "$" is the whole value."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            at = "%s.%s" % (path, key) if path else key
            if key in a and key in b:
                yield from json_paths(a[key], b[key], at)
            else:
                yield at
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_paths(x, y, "%s[%d]" % (path, i))
    elif type(a) is not type(b) or a != b:
        yield path or "$"


def report_paths(parent, change, first=5):
    """The first few JSON paths where two report texts (None: no report)
    differ, or the first line where a csv or text report does."""
    try:
        reports = [None if text is None else json.loads(text)
                   for text in (parent, change)]
    except json.JSONDecodeError:
        lines = itertools.zip_longest(*((text or "").splitlines()
                                        for text in (parent, change)))
        return "line %d" % next((i for i, (a, b) in enumerate(lines, 1)
                                 if a != b), 1)
    paths = list(itertools.islice(json_paths(*reports), first + 1))
    return ", ".join(paths[:first]) + (", ..." if len(paths) > first else "")


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
            ("exit code", "report bytes", "error messages", "stderr"), parent,
            change)
            if a != b]
        if parent[1] != change[1]:
            parts[parts.index("report bytes")] += " at " + report_paths(
                parent[1], change[1])
        errored = sum(len(errs) for _, errs in change[2])
        differences += bool(parts)
        print("%s: %s" % (name, "differ: " + ", ".join(parts) if parts
                            else "same (exit %d, %d errored samples)"
                            % (change[0], errored)))
    print("%d of %d runs differ" % (differences, len(names)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
