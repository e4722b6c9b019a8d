"""Every function in ``src/phmorph`` is entered by some command-line run.

A fixed list of ``cli.main`` calls runs in a fresh process under a
``sys.settrace`` hook, installed before ``phmorph`` is imported, that
records each code object of ``src/phmorph`` it sees called.  Every function
and lambda in the package's source (found with ``ast``) must be among them,
except those in ``ALLOWED``, and each of those must still be unreached.
The list takes about 0.6 s on a 2-vCPU host."""

import ast
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
PACKAGE = os.path.join(SRC, "phmorph")


def verify(scenario, *args):
    return ["verify", "--scenario", scenario, "--samples", "2"] + list(args)


FLAT = "flat-projection-4-2"

# (argv, exit code); "TMP" stands for a temporary directory
RUNS = [
    (["list"], 0),
    (["list", "--format", "json"], 0),
    (["-h"], 0),
    (["verify", "-h"], 0),
    (["--foo", "-h"], 0),
    # every scenario, and each report format
    (verify(FLAT, "--format", "csv"), 0),
    (verify("flat-projection-6-4", "--sigma", "exp(0.2*x1)", "--rho",
            "1+0.1*x5^2", "--format", "json"), 0),
    (verify("nonphwc-anisotropic", "--format", "text"), 0),
    (verify("holomorphic-poly", "--report", "TMP/report.json"), 0),
    (verify("curved-fibers-nonharmonic", "--sigma", "exp(0.3*x1+0.2*x3)"),
     0),
    (verify("hopf", "--sigma", "exp(0.2*x1+0.1*x3)", "--rho", "1+0.2*x2^2"),
     0),
    (verify("hopf", "--special-sigma", "2", "--identities",
            "tension-transform,corollary-psh"), 0),
    (verify("flat-projection-6-4", "--special-sigma", "exp(0.3*x1)"), 0),
    # the jet operators: sqrt, log, unary minus, a constant base to a
    # varying power, and division
    (verify(FLAT, "--sigma", "sqrt(1+x1^2)*exp(-0.1*x2)", "--rho",
            "2^(0.1*x2)+log(2+x1)"), 0),
    (verify(FLAT, "--sigma", "1/(2+cos(x1))", "--rho", "(1+x2^2)^-0.5"), 0),
    # a number less a jet
    (verify(FLAT, "--sigma", "3-x1"), 0),
    # errors at sample points: a log out of its domain, and a rho that is
    # not positive
    (verify(FLAT, "--sigma", "log(x1)"), 1),
    (verify(FLAT, "--rho", "x2"), 1),
    (verify(FLAT, "--sigma", "1/(x1-x1)"), 1),
    # expressions that do not parse, or leave the chart
    (verify(FLAT, "--sigma", "1+"), 2),
    (verify(FLAT, "--sigma", "sin 1"), 2),
    (verify(FLAT, "--sigma", "foo"), 2),
    (verify(FLAT, "--sigma", "(1"), 2),
    (verify(FLAT, "--sigma", "exp(1"), 2),
    (verify(FLAT, "--sigma", "1e"), 2),
    (verify(FLAT, "--sigma", ""), 2),
    (verify(FLAT, "--sigma", "x9"), 2),
    # configuration and usage errors
    (verify(FLAT, "--samples", "0"), 2),
    (verify(FLAT, "--seed", "-1"), 2),
    (verify(FLAT, "--tol-fd", "-1e-5"), 2),
    (verify(FLAT, "--rho", "2", "--special-sigma", "2"), 2),
    (verify(FLAT, "--format", "xml"), 2),
    (verify(FLAT, "--fd-step", "1e-4"), 2),
    (verify(FLAT, "--s", "3"), 2),
    (verify(FLAT, "--samples=x"), 2),
    (verify(FLAT, "--identities", "pullback,foo"), 2),
    (verify(FLAT, "--identities", "pullback,pullback"), 2),
    (verify(FLAT, "--report", "TMP/missing/report.json"), 2),
    (verify("nowhere"), 2),
    (["verify", "--samples", "2"], 2),
    (["nope"], 2),
    ([], 2),
]

# Functions no run enters, each kept because the benchmark's tracer
# (perfbench/tracer.py) names it, or it belongs to one that it names; the
# tracer raises on a missing name.  They go with the tracer's next change.
ALLOWED = {
    "hermitian.adapted_frame": "tracer target hermitian.adapted_frame",
    "hermitian.AdaptedFrame.horizontal": "the frame adapted_frame returns",
    "manifold.FDMetric.__init__": "class of the FDMetric targets",
    "manifold.FDMetric.matrix": "tracer target manifold.FDMetric.matrix",
    "manifold.FDMetric.matrix_and_derivs":
        "tracer target manifold.FDMetric.matrix_and_derivs",
    "manifold.richardson_partial": "tracer target, FDMetric's derivative",
    "manifold.directional_derivative":
        "tracer target manifold.directional_derivative",
    "manifold.directional_derivative.central":
        "inner function of directional_derivative",
    "manifold.ChartedRiemannianManifold.inverse_metric_at":
        "tracer target manifold.inverse_metric_at",
    "manifold.ChartedRiemannianManifold.christoffel":
        "tracer target manifold.christoffel",
    "maps.horizontal_lift": "tracer target maps.horizontal_lift",
    "maps.ortho_split": "tracer target maps.ortho_split",
    "maps._gram_schmidt": "ortho_split's orthonormalization",
    "scenarios.Scenario.self_check":
        "tracer target scenarios.self_check; no scenario overrides it, "
        "and no run calls it",
}

TRACE = r'''
import contextlib, io, json, os, sys, tempfile
src, runs = sys.argv[1], json.loads(sys.argv[2])
package = os.path.join(src, "phmorph") + os.sep
entered = set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((os.path.relpath(code.co_filename, package),
                     code.co_firstlineno))

sys.path.insert(0, src)
sys.settrace(trace)
from phmorph import cli
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([a.replace("TMP", tmp) for a in argv]))
sys.settrace(None)
print(json.dumps({"entered": sorted(entered), "codes": codes}))
'''


def functions():
    """{(file, first line): qualified name} of every function and lambda in
    the package; a decorated function starts at its first decorator, as its
    code object does."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[(path, line)] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.Lambda):
                found.setdefault((path, child.lineno), prefix + "<lambda>")
                walk(child, path, prefix)
            else:
                walk(child, path, prefix)

    for path in sorted(os.listdir(PACKAGE)):
        if path.endswith(".py"):
            with open(os.path.join(PACKAGE, path)) as fh:
                walk(ast.parse(fh.read()), path, path[:-3] + ".")
    return found


def test_every_function_in_src_is_entered_by_a_run():
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, SRC, json.dumps([a for a, _ in RUNS])],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [code for _, code in RUNS]
    entered = {tuple(key) for key in out["entered"]}
    unreached = {name for key, name in functions().items()
                 if key not in entered}
    assert sorted(unreached - set(ALLOWED)) == []  # entered by no run
    assert sorted(set(ALLOWED) - unreached) == []  # entered after all
