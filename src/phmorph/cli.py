"""Command-line driver: list scenarios, run verification suites, emit
machine-readable reports.

Exit codes: 0 all selected identities pass, 1 an identity or flag check
failed, 2 configuration or expression errors or an unwritable report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields

from . import exprs, scenarios
from .manifold import GeometryError
from .runner import ALL_IDENTITIES, RunConfig, run_verification


def _scenario_descriptor(name):
    sc = scenarios.get_scenario(name)
    return {
        "name": sc.name,
        "m": sc.phi.m,
        "target_dim": sc.phi.two_n,
        "expected_flags": sc.expected_flags,
        "optional": sc.optional,
        "description": sc.description,
    }


def cmd_list(args) -> int:
    names = scenarios.list_scenarios()
    descriptors = [_scenario_descriptor(n) for n in names]
    if args.format == "json":
        print(json.dumps(descriptors, indent=2, sort_keys=True))
        return 0
    for d in descriptors:
        flags = ", ".join("%s=%s" % (k, v)
                          for k, v in sorted(d["expected_flags"].items()))
        opt = " [optional]" if d["optional"] else ""
        print("%s (m=%d, 2n=%d)%s - %s" % (d["name"], d["m"],
                                           d["target_dim"], opt, flags))
    return 0


def _report_text(report) -> str:
    lines = ["scenario: %s" % report["scenario"],
             "verdict: %s" % report["verdict"]]
    for entry in report["per_identity"]:
        lines.append("  %-20s pass=%d fail=%d error=%d max_rel=%.3e"
                     % (entry["name"], entry["samples_pass"],
                        entry["samples_fail"], entry["samples_error"],
                        entry["max_rel_residual"]))
    for entry in report["skipped_identities"]:
        lines.append("  %-20s skipped (%s)" % (entry["name"], entry["reason"]))
    for flag, info in sorted(report["flags"].items()):
        lines.append("  flag %-10s expected=%s confirmed=%s"
                     % (flag, info["expected"], info["confirmed"]))
    for w in report["warnings"]:
        lines.append("  warning: %s" % w)
    return "\n".join(lines) + "\n"


def _report_csv(report) -> str:
    rows = ["identity,samples_pass,samples_fail,samples_error,"
            "max_abs_residual,max_rel_residual,passed"]
    for entry in report["per_identity"]:
        rows.append("%s,%d,%d,%d,%.17g,%.17g,%s"
                    % (entry["name"], entry["samples_pass"],
                       entry["samples_fail"], entry["samples_error"],
                       entry["max_abs_residual"], entry["max_rel_residual"],
                       entry["passed"]))
    return "\n".join(rows) + "\n"


def render_report(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    if fmt == "csv":
        return _report_csv(report)
    return _report_text(report)


def _write_atomic(path: str, payload: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_verify(args) -> int:
    options = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if f.name != "identities"}
    config = RunConfig(identities=args.identities.split(",")
                       if args.identities else None, **options)
    try:
        report = run_verification(config)
    except (ValueError, KeyError, GeometryError, exprs.ParseError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    payload = render_report(report, args.format)
    try:
        if args.report:
            _write_atomic(args.report, payload)
        else:
            sys.stdout.write(payload)
    except OSError as err:
        print("error: cannot write the report to %s: %s"
              % (args.report or "stdout", err.strerror or err), file=sys.stderr)
        return 2
    if report["verdict"] in ("pass", "skipped"):
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phmorph",
        description="Numerical verification of biconformal metric-change "
                    "identities on bundled example geometries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--scenario", required=True)
    p_verify.add_argument("--sigma", default="1",
                          help="horizontal conformal factor expression")
    p_verify.add_argument("--rho", default=None,
                          help="vertical conformal factor expression "
                               "(default: 1)")
    p_verify.add_argument("--special-sigma", default=None,
                          help="use the one-function change driven by this "
                               "sigma expression (requires m > 2n)")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--tol-ad", type=float, default=1e-8)
    p_verify.add_argument("--tol-fd", type=float, default=1e-5)
    p_verify.add_argument("--identities", default=None,
                          help="comma-separated subset of: "
                               + ",".join(ALL_IDENTITIES))
    p_verify.add_argument("--report", default=None,
                          help="write the report to this path (atomically)")
    p_verify.add_argument("--format", choices=("json", "csv", "text"),
                          default="json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
