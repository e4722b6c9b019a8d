"""Command-line driver: list scenarios, run verification suites, emit
machine-readable reports.  Each command returns its output and exit code,
and ``main`` alone writes the one and gives the other: 0 all selected
identities pass, 1 an identity or flag check failed, 2 a malformed or
unknown option, configuration or expression errors, a run too large for
memory or output that cannot be written (a closed stdout, an empty or
unwritable ``--report``), each reported in one line on stderr, which names
what could not be written (a report, or other output).

The options of ``verify`` are the fields of ``runner.RunConfig``: ``--`` and
the field name with ``_`` as ``-``, read by ``int`` or ``float`` where the
field's default is one and kept as text otherwise, required where the field
has no default; then ``--report`` and ``--format``.  The command line is read
by argparse's rules, without argparse, whose set-up would cost a fresh
process a third of a short run:

- ``--opt value`` and ``--opt=value`` both set an option, and the last of
  repeated options wins;
- a unique prefix of an option stands for it, and an ambiguous one is an
  error;
- a separate value may start with ``-`` only if it is a negative number
  (``-1``, ``-.5``) or holds a space;
- options before the command are the program's: ``-h`` there gives its
  help, and an unknown one is reported with the command's unknown options
  (``phmorph --foo -h`` prints help);
- every usage error prints a usage line and ``phmorph <command>: error:
  ...`` naming the option on stderr and exits 2, and ``-h``/``--help``
  prints help on stdout and exits 0.
"""

from __future__ import annotations

import errno
import json
import os
import re
import stat
import sys
from dataclasses import MISSING, fields

from . import scenarios
from .runner import ALL_IDENTITIES, RunConfig, run_verification

PROG = "phmorph"
DESCRIPTION = ("Numerical verification of biconformal metric-change "
               "identities on bundled\nexample geometries.")


def _scenario_descriptor(name):
    sc = scenarios.get_scenario(name)
    return {
        "name": sc.name,
        "m": sc.phi.m,
        "target_dim": sc.phi.two_n,
        "expected_flags": sc.expected_flags,
        "description": sc.description,
    }


def cmd_list(values):
    """The scenario list in ``values["format"]`` and exit code 0."""
    rows = [_scenario_descriptor(n) for n in scenarios.list_scenarios()]
    if values["format"] == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n", 0
    return "".join("%s (m=%d, 2n=%d) - %s\n" % (
        d["name"], d["m"], d["target_dim"],
        ", ".join("%s=%s" % kv for kv in sorted(d["expected_flags"].items())))
        for d in rows), 0


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


REPORT_FORMATS = {  # the renderers by ``--format`` value, its choices
    "json": lambda report: json.dumps(report, indent=2, sort_keys=True,
                                      allow_nan=False) + "\n",
    "csv": _report_csv, "text": _report_text}


def render_report(report, fmt: str) -> str:
    return REPORT_FORMATS[fmt](report)


def _write_report(path: str, payload: str):
    """Write the report as ``open(path, "w")`` would, but replace a regular
    file atomically: through a temporary file in its directory, with the
    mode of the file it replaces, or that of a new file.  A symlink is
    followed, and a path that is not a regular file (a FIFO, a device) is
    written in place, never replaced."""
    if not path:  # as open("", "w") fails; realpath reads "" as "."
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # read by setting it, and restored at once
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            with open(path, "w") as handle:
                handle.write(payload)
            return
    directory = os.path.dirname(path) or "."
    while True:  # a fresh name, created by this call alone
        tmp = os.path.join(directory, ".report-" + os.urandom(8).hex())
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                         | os.O_CLOEXEC, 0o600)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, mode & 0o7777)  # not the 0600 it was created with
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_config(values) -> RunConfig:
    """The ``RunConfig`` of parsed ``verify`` options; ``--identities`` is
    split on commas."""
    options = {f.name: values[f.name] for f in fields(RunConfig)}
    identities = options.pop("identities")
    return RunConfig(identities=None if identities is None
                     else identities.split(","), **options)


def cmd_verify(values):
    """The rendered report and exit code 0 (pass) or 1 (fail); raises on a
    configuration error or a run too large for memory."""
    report = run_verification(run_config(values))
    return (render_report(report, values["format"]),
            0 if report["verdict"] == "pass" else 1)


class Option:
    """One ``--name VALUE`` option: ``convert`` reads its text into the value
    kept under ``dest``, which must then be one of ``choices`` if any."""

    def __init__(self, dest, convert=str, default=None, help="", choices=(),
                 required=False):
        self.dest, self.convert, self.default = dest, convert, default
        self.help, self.choices, self.required = help, choices, required


class UsageError(Exception):
    """A malformed, unknown, ambiguous or missing option, among the
    arguments of ``command`` ("" for the program's own)."""
    command = ""


HELP = Option("help", help="show this help message and exit")
HELP_OPTIONS = {"-h": HELP, "--help": HELP}

FIELD_HELP = {
    "sigma": "horizontal conformal factor expression",
    "rho": "vertical conformal factor expression (default: 1)",
    "special_sigma": "use the one-function change driven by this sigma "
                     "expression (requires m > 2n)",
    "identities": "comma-separated subset of: " + ",".join(ALL_IDENTITIES),
}


def _field_option(field) -> Option:
    required = field.default is MISSING
    default = None if required else field.default
    convert = type(default) if type(default) in (int, float) else str
    return Option(field.name, convert, default, FIELD_HELP.get(field.name, ""),
                  required=required)


# name -> (what it does, its options by option string, what runs it)
COMMANDS = {
    "list": ("list bundled scenarios", {
        **HELP_OPTIONS,
        "--format": Option("format", default="text", choices=("text", "json")),
    }, cmd_list),
    "verify": ("run the identity suite", {
        **HELP_OPTIONS,
        **{"--" + f.name.replace("_", "-"): _field_option(f)
           for f in fields(RunConfig)},
        "--report": Option("report",
                           help="write the report to this path (atomically)"),
        "--format": Option("format", default="json",
                           choices=tuple(REPORT_FORMATS)),
    }, cmd_verify),
}


def _classify(options, arg):
    """What argparse makes of ``arg``: None for a value, else the option
    string it names (None when unknown) and the text given with it, after
    ``=`` or, for ``-h``, attached (None when there is none)."""
    if not arg or arg[0] != "-":
        return None
    if arg in options:
        return arg, None
    if len(arg) == 1:
        return None
    if arg[1] == "-":
        prefix, eq, attached = arg.partition("=")
        matches = [(o, attached if eq else None) for o in options
                   if o.startswith(prefix)]
    else:
        matches = [(o, arg[2:]) for o in options if o == arg[:2]]
    if len(matches) > 1:
        raise UsageError("ambiguous option: %s could match %s"
                         % (arg, ", ".join(o for o, _ in matches)))
    if matches:
        return matches[0]
    # argparse's test for a separate value that starts with "-"
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _convert(name: str, option: Option, text: str):
    try:
        value = option.convert(text)
    except (TypeError, ValueError):
        raise UsageError("argument %s: invalid %s value: %r"
                         % (name, option.convert.__name__, text)) from None
    if option.choices and value not in option.choices:
        raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                         % (name, value,
                            ", ".join(repr(c) for c in option.choices)))
    return value


def parse_options(options, argv, unknown=()) -> dict:
    """The value of each option's ``dest`` in ``argv``, read left to right
    by argparse's rules, or None where ``-h`` is read first.  Raises
    ``UsageError``, which names the ``unknown`` arguments given before
    ``argv`` with those of ``argv``."""
    kinds = []
    for i, arg in enumerate(argv):
        if arg == "--":  # argparse reads what follows as values
            kinds += [(None, None)] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_classify(options, arg))
    values = {o.dest: o.default for o in options.values()}
    seen, unknown = set(), list(unknown)
    i = 0
    while i < len(argv):
        kind, arg = kinds[i], argv[i]
        i += 1
        if kind is None or kind[0] is None:
            unknown.append(arg)
            continue
        name, text = kind
        option = options[name]
        if option is HELP:
            if text is not None:
                raise UsageError("argument -h/--help: ignored explicit "
                                 "argument %r" % text)
            return None
        if text is None:
            if i == len(argv) or kinds[i] is not None:
                raise UsageError("argument %s: expected one argument" % name)
            text = argv[i]
            i += 1
        values[option.dest] = _convert(name, option, text)
        seen.add(name)
    missing = [name for name, o in options.items()
               if o.required and name not in seen]
    if missing:
        raise UsageError("the following arguments are required: %s"
                         % ", ".join(missing))
    if unknown:
        raise UsageError("unrecognized arguments: %s" % " ".join(unknown))
    return values


def _metavar(option: Option) -> str:
    if option.choices:
        return "{%s}" % ",".join(option.choices)
    return option.dest.upper()


def usage(command: str) -> str:
    """The usage line of a command, or of the program for ``""``."""
    if not command:
        return "usage: %s [-h] {%s} ..." % (PROG, ",".join(COMMANDS))
    line = "usage: %s %s [-h]" % (PROG, command)
    indent = " " * line.index("[")
    lines = []
    for name, option in COMMANDS[command][1].items():
        if option is HELP:
            continue
        part = "%s %s" % (name, _metavar(option))
        part = part if option.required else "[%s]" % part
        if len(line) + 1 + len(part) > 79:
            lines.append(line)
            line = indent + part
        else:
            line += " " + part
    return "\n".join(lines + [line])


def help_text(command: str) -> str:
    """The help of a command, or of the program for ``""``."""
    if not command:
        return "%s\n\n%s\n\ncommands:\n%s\n" % (
            usage(""), DESCRIPTION, "\n".join(
                "  %-8s%s" % (name, about)
                for name, (about, _, _) in COMMANDS.items()))
    about, options, _ = COMMANDS[command]
    lines = [usage(command), "", about, "", "options:"]
    for name, option in options.items():
        notes = [option.help] if option.help else []
        if option.required:
            notes.append("(required)")
        elif option.default is not None:
            notes.append("(default: %s)" % option.default)
        if name != "-h":
            lines += ["  -h, --help" if option is HELP
                      else "  %s %s" % (name, _metavar(option)),
                      "      " + " ".join(notes)]
    return "\n".join(lines) + "\n"


def parse_command_line(argv):
    """(command, values) of ``argv`` as argparse reads it: the command is
    the first argument read as a value, after the program's own options;
    ``values`` is None for help (command "" for the program's), else the
    command's options.  Raises ``UsageError``."""
    at = next((i for i, arg in enumerate(argv)
               if arg == "--" or _classify(HELP_OPTIONS, arg) is None),
              len(argv))
    helps = [arg for arg in argv[:at] if _classify(HELP_OPTIONS, arg)[0]]
    if helps:  # read before the command
        return "", parse_options(HELP_OPTIONS, helps[:1])
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    command = argv[at]
    if command not in COMMANDS:
        raise UsageError("argument command: invalid choice: %r (choose "
                         "from %s)" % (command, ", ".join(
                             map(repr, COMMANDS))))
    try:
        return command, parse_options(COMMANDS[command][1], argv[at + 1:],
                                      argv[:at])
    except UsageError as err:
        err.command = command
        raise


def main(argv=None) -> int:
    """Run the command of ``argv``, write what it returns to stdout or
    ``--report`` and give its exit code, or report a failure and give 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    path, what = None, "output"
    try:
        command, values = parse_command_line(argv)
        if values is None:
            payload, code = help_text(command), 0
        else:
            payload, code = COMMANDS[command][2](values)
            if "report" in values:  # the command writes a report
                path, what = values["report"], "report"
        if path is None:
            sys.stdout.write(payload)
            sys.stdout.flush()
        else:
            _write_report(path, payload)
        return code
    except UsageError as err:
        print("%s\n%s: error: %s" % (usage(err.command), " ".join(
            filter(None, (PROG, err.command))), err), file=sys.stderr)
    except (ValueError, KeyError) as err:  # ParseError and GeometryError too
        print("error: %s" % err, file=sys.stderr)
    except MemoryError as err:
        print("error: out of memory: %s" % err, file=sys.stderr)
    except OSError as err:
        print("error: cannot write the %s to %s: %s"
              % (what, "stdout" if path is None else repr(path),
                 err.strerror or err), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
