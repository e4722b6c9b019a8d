"""One verification run of a workload, in a fresh process.

Usage (started by run.py):
    python3 perfbench/child.py ROOT SPEC_JSON SEED REPORT_PATH TRACE_PATH

SPEC_JSON holds the workload arguments and the sample count. TRACE_PATH is
empty for an untraced run. The process imports phmorph from ROOT/src and
times ``phmorph.cli.main`` on the workload. A traced run wraps every tracer
target and writes the spans to TRACE_PATH; an untraced run wraps only the
set-up steps of ``run_verification`` and reports the seconds spent in them
during the timed call. The last line of standard output is one JSON object
with the measurements.
"""

import json
import os
import resource
import sys
import time


def cli_argv(args, samples, seed, report):
    argv = ["verify", "--scenario", args["scenario"], "--sigma", args["sigma"]]
    if args.get("rho") is not None:
        argv += ["--rho", args["rho"]]
    if args.get("identities"):
        argv += ["--identities", ",".join(args["identities"])]
    return argv + ["--samples", str(samples), "--seed", str(seed),
                   "--report", report]


def main(argv):
    root, spec_text, seed, report, trace_path = argv
    spec = json.loads(spec_text)
    seed = int(seed)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import phmorph
    from phmorph import cli

    if not os.path.abspath(phmorph.__file__).startswith(src + os.sep):
        raise ImportError("phmorph imported from %s, not from %s"
                          % (phmorph.__file__, src))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import SETUP_TARGETS, TARGETS, Tracer
    tracer = Tracer(TARGETS if trace_path else SETUP_TARGETS)
    tracer.install()

    argv = cli_argv(spec["args"], spec["samples"], seed, report)
    start = time.perf_counter()
    exit_code = cli.main(argv)
    verify_s = time.perf_counter() - start

    setup_s = None
    if trace_path:
        tracer.dump(trace_path)
    else:
        setup_s = tracer.top_level_seconds()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "exit_code": exit_code,
        "verify_s": verify_s,
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "env": {"python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "phmorph": phmorph.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
