"""phmorph benchmark: time to verdict on three README-derived runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload readme-6-4 [--seed 42] [--trace 0|1]

Every verification runs ``phmorph.cli.main`` in a fresh process
(perfbench/child.py) on the sources under src/. A run lasts ``run_seconds``
of BENCHMARK.json, the one place the length is set; --seconds exists because
the BENCHMARK.json calling convention passes that value back, and overrides
it only for a quick local try. --trace 0 times verifications for the run's
length, one stream of processes per CPU (at most two), and reports the
end-to-end metrics as medians over those processes. --trace 1 first makes
one traced verification (perfbench/tracer.py) and one plain
``python3 -m phmorph.cli`` run, fills the rest of the run with untraced
ones, and reports the per-layer metrics. Every report goes through the
correctness gate, which includes byte-identical reports across all
processes of the run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
perfbench/README.md lists the metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
# one run must end well inside 180 s, whatever --seconds asks for
HARD_LIMIT_S = 170.0
# Verifications run side by side, one per CPU, up to this many. On a shared
# host each CPU changes speed by up to 1.5x for tens of seconds to minutes,
# independently of the other; two streams make every run sample both.
MAX_STREAMS = 2
# an exact zero residual counts as double-precision epsilon
RESIDUAL_FLOOR = 2.2e-16

# end-to-end metric -> unit
END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_share": "ratio", "headroom_log10": "log10"}

sys.path.insert(0, HERE)
from child import cli_argv  # noqa: E402
from tracer import TARGETS, summarize  # noqa: E402


class BenchError(RuntimeError):
    pass


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def git_revision():
    """HEAD of the repository at ROOT, or None outside one (the benchmark
    may run in an exported tree inside some other repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def per_layer_names(spec):
    names = []
    for span, _, _, kind in TARGETS:
        if span == "runner.identity":
            names += ["%s.%s.s" % (span, ident) for ident in spec["identities"]]
        elif kind == "stage":
            names.append(span + ".s")
        else:
            names += [span + ".calls", span + ".self_s"]
            if span == "maps.SmoothMap.jets":
                names += [span + ".distinct_points", span + ".calls_per_point"]
    return names + ["trace.overhead_s"]


def check_names(spec, bench):
    """BENCHMARK.json, the layer table and the harness must name the same
    metrics; a mismatch is a benchmark defect, so fail loudly."""
    layers = per_layer_names(spec)
    for name in layers:
        rows = [row for row in spec["layer_expectations"]
                if any(name.startswith(prefix + ".")
                       for prefix in row["layers"])]
        if len(rows) != 1:
            raise BenchError("metric %s is in %d layer_expectations rows"
                             % (name, len(rows)))
    named = [m["name"] for m in bench["per_layer"]]
    if named != layers:
        raise BenchError("BENCHMARK.json per_layer differs from the harness: "
                         "%s" % sorted(set(named) ^ set(layers)))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if units != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end differs from the harness")
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def run_child(spec, workload, seed, report, trace_path, deadline):
    child_spec = {"args": workload["args"], "samples": spec["samples"]}
    cmd = [sys.executable, CHILD, ROOT, json.dumps(child_spec), str(seed),
           report, trace_path]
    proc = _run(cmd, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("verification process failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr[-4000:]))
    result = json.loads(lines[-1])
    result["report"] = _read(report)
    return result


def run_plain_cli(spec, workload, seed, report, deadline):
    """`python3 -m phmorph.cli verify ...` with no harness code loaded."""
    argv = cli_argv(workload["args"], spec["samples"], seed, report)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = _run([sys.executable, "-m", "phmorph.cli"] + argv, deadline,
                env=env)
    return {"exit_code": proc.returncode, "report": _read(report)}


def _run(cmd, deadline, env=None):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % cmd[1])
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s"
                         % (cmd[1], timeout)) from None


def _read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def gate(result, expect, samples, reference):
    """Problems with one verification's outcome; empty when it passes."""
    problems = []
    if result["exit_code"] != expect["exit_code"]:
        problems.append("exit code %s, expected %s"
                        % (result["exit_code"], expect["exit_code"]))
    if result["report"] is None:
        return problems + ["no report written"]
    if result["report"] != reference:
        problems.append("report differs from the run's first report")
    report = json.loads(result["report"])
    if report["verdict"] != expect["verdict"]:
        problems.append("verdict %r, expected %r"
                        % (report["verdict"], expect["verdict"]))
    checked = [entry["name"] for entry in report["per_identity"]]
    if checked != expect["identities"]:
        problems.append("identities checked %s, expected %s"
                        % (checked, expect["identities"]))
    skipped = sorted(entry["name"] for entry in report["skipped_identities"])
    if skipped != sorted(expect["skipped"]):
        problems.append("identities skipped %s, expected %s"
                        % (skipped, expect["skipped"]))
    for entry in report["per_identity"]:
        if entry["samples_pass"] != samples:
            problems.append("%s passed %d of %d samples"
                            % (entry["name"], entry["samples_pass"], samples))
    if report["flags_confirmed"] is not expect["flags_confirmed"]:
        problems.append("flags_confirmed %s, expected %s"
                        % (report["flags_confirmed"],
                           expect["flags_confirmed"]))
    return problems


def headrooms_log10(report, excludes):
    """log10(tol / max_rel_residual) of each identity outside ``excludes``,
    all of which are checked against tol_fd."""
    tol = report["config"]["tol_fd"]
    found = [math.log10(tol / max(entry["max_rel_residual"], RESIDUAL_FLOOR))
             for entry in report["per_identity"]
             if entry["name"] not in excludes]
    if not found:
        raise BenchError("the report has no identity to read headroom from")
    return found


def untraced_runs(spec, workload, seed, end, tmp, deadline):
    """Fresh-process verifications, one stream per usable CPU (at most
    MAX_STREAMS), each going on until `end` would be passed; at least
    min_processes in all."""
    streams = min(MAX_STREAMS, len(os.sched_getaffinity(0)))

    def stream(slot):
        runs = []
        start = time.monotonic()
        while True:
            report = os.path.join(tmp, "report-%d-%d.json" % (slot, len(runs)))
            runs.append(run_child(spec, workload, seed, report, "", deadline))
            now = time.monotonic()
            if (len(runs) * streams >= spec["min_processes"]
                    and now + (now - start) / len(runs) > end):
                return runs

    with ThreadPoolExecutor(streams) as pool:
        futures = [pool.submit(stream, slot) for slot in range(streams)]
        return [run for future in futures for run in future.result()]


def layer_metrics(spec, spans, distinct, overhead_s):
    identities = set(spec["identities"])
    for span in spans:
        if (span.startswith("runner.identity.")
                and span[len("runner.identity."):] not in identities):
            raise BenchError("traced identity %s is not in workloads.json"
                             % span)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for name in per_layer_names(spec):
        if name == "trace.overhead_s":
            values[name] = overhead_s
            continue
        span, field = name.rsplit(".", 1)
        stats = spans.get(span, empty)
        if field == "s":
            values[name] = stats["total_s"]
        elif field == "distinct_points":
            values[name] = distinct[span]
        elif field == "calls_per_point":
            values[name] = stats["calls"] / max(distinct[span], 1)
        else:
            values[name] = stats[field]
    return values


def main(argv=None):
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "phmorph", "cli.py")):
        print("error: no phmorph sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        layer_units = check_names(spec, bench)
    except (KeyError, BenchError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    expect, samples = workload["expect"], spec["samples"]
    env = {"git_revision": git_revision(), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg()}

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="run-")
    try:
        checked = []  # (label, result) for every gated verification
        traced = None
        if args.trace:
            trace_file = os.path.join(tmp, "spans.npz")
            traced = run_child(spec, workload, args.seed,
                               os.path.join(tmp, "report-traced.json"),
                               trace_file, deadline)
            spans, distinct = summarize(trace_file)
            os.replace(trace_file,
                       os.path.join(OUT, "spans-%s.npz" % args.workload))
            checked.append(("traced", traced))
            checked.append(("plain-cli", run_plain_cli(
                spec, workload, args.seed,
                os.path.join(tmp, "report-plain.json"), deadline)))
        runs = untraced_runs(spec, workload, args.seed,
                             t_start + args.seconds, tmp, deadline)
        checked += [("process-%d" % i, run) for i, run in enumerate(runs)]
        reference = checked[0][1]["report"]
        if reference is None:
            raise BenchError("the first verification wrote no report")
        headrooms = headrooms_log10(json.loads(reference),
                                    spec["headroom_excludes"])
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    per_check = len(expect["identities"]) * samples
    attempted = failed = 0
    problems = {}
    for label, result in checked:
        found = gate(result, expect, samples, reference)
        attempted += per_check
        if found:
            problems[label] = found
            failed += per_check
    env.update(runs[0]["env"])

    verify = [r["verify_s"] for r in runs]
    if args.trace:
        metrics = layer_metrics(spec, spans, distinct,
                                traced["verify_s"] - statistics.median(verify))
        units = layer_units
    else:
        metrics = {
            "verify_s": statistics.median(verify),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "pass_share": 1.0 - failed / attempted,
            # the median over identities: the minimum swings by a decade or
            # more between seeds (the worst sample point moves), the median
            # by about 3 %, and a cruder FD rule lowers both
            "headroom_log10": statistics.median(headrooms),
        }
        units = END_TO_END

    print("workload %s  seed %d  trace %d  processes %d  samples %d"
          % (args.workload, args.seed, args.trace, len(runs), samples))
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("verify_s per process: %s"
          % " ".join("%.4f" % v for v in verify))
    print("error_share %.6g ratio (%d of %d identity x point checks failed)"
          % (failed / attempted, failed, attempted))
    print("headroom min over identities %.6g log10" % min(headrooms))
    for label, found in problems.items():
        print("gate failed on %s: %s" % (label, "; ".join(found)))
    for name, value in metrics.items():
        print("%-45s %.6g %s" % (name, value, units[name]))

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, environment=env, problems=problems,
                  processes=[{k: v for k, v in r.items() if k != "report"}
                             for r in runs],
                  wall_s=time.monotonic() - t_start)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
