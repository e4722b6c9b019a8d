"""Command-line interface: flags, exit codes, report files, determinism."""

import argparse
import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phmorph import cli, runner, scenarios
from phmorph.cli import main
from phmorph.runner import ALL_IDENTITIES, RunConfig
from phmorph.scenarios import list_scenarios
from tests.test_exprs import random_expression
from tests.test_golden import WORKLOADS

README_ARGS = WORKLOADS["readme-6-4"][0]


def src_env():
    """The environment of a fresh process that imports phmorph from here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_text(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "flat-projection-4-2" in out
    assert ("hopf (m=3, 2n=2) - harmonic=True, phh=None, phwc=True\n"
            in out.splitlines(keepends=True))


def test_list_json(capsys):
    code, out = run(capsys, "list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    names = [row["name"] for row in data]
    assert names == sorted(names)
    assert "nonphwc-anisotropic" in names
    for row in data:
        assert set(row) == {"name", "m", "target_dim", "expected_flags",
                            "description"}


def test_verify_pass_exit_zero(capsys):
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--sigma", "exp(0.3*x1)", "--samples", "4", "--seed", "1")
    assert code == 0
    assert "verdict" in out or "pass" in out


def test_an_errored_flag_point_exits_one(capsys, monkeypatch):
    from tests.test_runner import ERRORED_FLAG_RUN, make_unreadable
    make_unreadable(monkeypatch, "phwc")
    config = ERRORED_FLAG_RUN
    code, out = run(capsys, "verify", "--scenario", config.scenario,
                    "--sigma", config.sigma, "--rho", config.rho,
                    "--samples", str(config.samples), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["flags"]["phwc"]["confirmed"] is False
    assert report["verdict"] == "fail"


def test_verify_failure_exit_one(capsys):
    # absurdly tight FD tolerance forces residual failures
    code, out = run(capsys, "verify", "--scenario", "flat-projection-6-4",
                    "--sigma", "exp(0.3*x1)", "--rho", "1+0.2*x5^2",
                    "--samples", "3", "--seed", "1", "--tol-fd", "1e-18")
    assert code == 1


def test_verify_unknown_scenario_exit_two(capsys):
    code, _ = run(capsys, "verify", "--scenario", "nope")
    assert code == 2


def test_verify_bad_expression_exit_two(capsys):
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                  "--sigma", "exp(")
    assert code == 2


def test_verify_bad_config_exit_two(capsys):
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                  "--samples", "0")
    assert code == 2


def test_verify_rho_and_special_sigma_conflict(capsys):
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-6-4",
                  "--rho", "2", "--special-sigma", "1+0.1*x1")
    assert code == 2


def test_a_sigma_beside_special_sigma_exit_two(tmp_path, capsys):
    report = tmp_path / "r.json"
    err = assert_config_error(capsys, "verify", "--scenario",
                              "flat-projection-6-4", "--sigma", "exp(x1)",
                              "--special-sigma", "2", "--samples", "2",
                              "--report", str(report))
    assert err == "error: give special-sigma without sigma or rho\n"
    assert not report.exists()


def test_special_sigma_alone_or_with_sigma_one_runs(tmp_path, capsys):
    texts = []
    for sigma in ([], ["--sigma", "1"]):
        report = tmp_path / "r.json"
        code = main(["verify", "--scenario", "flat-projection-6-4",
                     "--special-sigma", "2", "--samples", "2", "--report",
                     str(report)] + sigma)
        assert code == 0
        texts.append(report.read_text())
    assert texts[0] == texts[1]
    config = json.loads(texts[0])["config"]
    assert (config["sigma"], config["special_sigma"]) == ("1", "2")


def test_identity_subset_selector(capsys):
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--samples", "3", "--identities",
                    "tension-transform,koszul-horizontal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ran = {row["name"] for row in data["per_identity"]}
    assert ran == {"tension-transform", "koszul-horizontal"}


def test_unknown_identity_exit_two(capsys):
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                  "--identities", "tension-warp")
    assert code == 2


def test_repeated_identity_exit_two(capsys):
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                  "--identities", "tension-transform,tension-transform")
    assert code == 2


def test_json_report_schema(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, _ = run(capsys, "verify", "--scenario", "curved-fibers-nonharmonic",
                  "--sigma", "1+0.1*x1^2", "--samples", "4",
                  "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["schema_version"] == 4
    assert data["scenario"] == "curved-fibers-nonharmonic"
    assert data["verdict"] == "pass"
    for key in ("config", "per_identity", "skipped_identities", "flags"):
        assert key in data
    assert data["warnings"] == []
    for row in data["per_identity"]:
        assert {"name", "passed", "max_abs_residual", "max_rel_residual",
                "samples_pass", "samples_fail", "samples_error"} <= set(row)


def test_a_report_file_has_the_mode_of_a_new_file(tmp_path, capsys):
    # as open(path, "w") would create it: 0o666 less the umask
    path = tmp_path / "out.json"
    umask = os.umask(0o022)
    try:
        code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                      "--samples", "1", "--report", str(path))
    finally:
        os.umask(umask)
    assert code == 0
    assert path.stat().st_mode & 0o777 == 0o644


def test_an_existing_report_file_keeps_its_mode(tmp_path, capsys):
    # as open(path, "w") would leave it, whatever the umask
    path = tmp_path / "out.json"
    path.write_text("old")
    path.chmod(0o600)
    umask = os.umask(0o022)
    try:
        code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                      "--samples", "1", "--report", str(path))
    finally:
        os.umask(umask)
    assert code == 0
    assert path.stat().st_mode & 0o7777 == 0o600
    assert json.loads(path.read_text())["verdict"] == "pass"


def test_a_report_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                  "--samples", "1", "--report", str(link))
    assert code == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_a_report_passes_over_a_temporary_name_in_use(tmp_path, capsys):
    # the temporary file is created exclusively: a name that exists is not
    # touched, and the next one is drawn
    taken = tmp_path / (".report-" + "00" * 8)
    taken.write_text("not ours")
    draws = iter([bytes(8), bytes(8), b"\x01" * 8])
    path = tmp_path / "out.json"
    with mock.patch.object(os, "urandom", lambda n: next(draws)):
        code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                      "--samples", "1", "--report", str(path))
    assert code == 0
    assert next(draws, None) is None
    assert taken.read_text() == "not ours"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "out.json"]
    assert json.loads(path.read_text())["verdict"] == "pass"


@pytest.mark.parametrize("through_symlink", [False, True],
                         ids=["fifo", "symlink-to-fifo"])
def test_a_report_into_a_fifo_is_written_in_place(tmp_path, capsys,
                                                  through_symlink):
    # a path that is not a regular file is written, never replaced; the
    # report of one sample fits in the pipe's buffer, so nothing blocks
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    path = fifo
    if through_symlink:
        path = tmp_path / "link"
        path.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _ = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                      "--samples", "1", "--report", str(path))
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert path.is_symlink() == through_symlink
    assert json.loads(data)["verdict"] == "pass"


def test_a_failed_replace_leaves_the_old_report(tmp_path, capsys,
                                               monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old")
    path.chmod(0o640)

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", refuse)
    err = assert_config_error(capsys, "verify", "--scenario",
                              "flat-projection-4-2", "--samples", "1",
                              "--report", str(path))
    assert err == "error: cannot write the report to %r: %s\n" % (
        str(path), os.strerror(errno.EACCES))
    assert path.read_text() == "old"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert os.listdir(tmp_path) == ["out.json"]


def test_reports_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run(capsys, "verify", "--scenario", "holomorphic-poly",
                      "--sigma", "exp(0.2*x1)", "--rho", "1+0.1*x2^2",
                      "--samples", "5", "--seed", "9",
                      "--report", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_format(capsys):
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--samples", "3", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("identity,")
    assert "max_rel_residual" in header


def test_text_format_lists_identities_skips_and_flags(capsys):
    # nonphwc-anisotropic skips every identity but phwc-equivalence
    argv = ["verify", "--scenario", "nonphwc-anisotropic", "--samples", "3"]
    assert main(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 0
    [row] = report["per_identity"]
    assert out.splitlines() == [
        "scenario: nonphwc-anisotropic",
        "verdict: pass",
        "  phwc-equivalence     pass=3 fail=0 error=0 max_rel=%.3e"
        % row["max_rel_residual"],
    ] + ["  %-20s skipped (scenario is not PHWC)" % name
         for name in ALL_IDENTITIES if name != "phwc-equivalence"] + [
        "  flag harmonic   expected=True confirmed=True",
        "  flag phh        expected=None confirmed=None",
        "  flag phwc       expected=False confirmed=True",
    ]


def test_errored_samples_fail_the_run(capsys):
    # rho = x2 is negative on half the chart box: the samples there error,
    # and an identity with an errored sample does not pass
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--rho", "x2", "--samples", "3")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    errored = [row for row in data["per_identity"] if row["samples_error"]]
    assert errored
    assert not any(row["passed"] for row in errored)
    assert all(row["passed"] for row in data["per_identity"]
               if not row["samples_error"])


@pytest.mark.parametrize("option", ["--sigma", "--rho", "--special-sigma"])
def test_variable_outside_the_chart_exit_two(capsys, option):
    code = main(["verify", "--scenario", "flat-projection-4-2", option,
                 "1+0.1*x9", "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "x9" in captured.err


def _strict(constant):
    raise ValueError("not strict JSON: %s" % constant)


@pytest.mark.parametrize("sigma", ["exp(1000*x1)", "1/(x1-x1)",
                                   "(x1-2)^0.5"])
def test_sigma_outside_the_float_range_errors_samples(capsys, sigma):
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--samples", "2", "--sigma", sigma)
    assert code == 1
    data = json.loads(out, parse_constant=_strict)
    assert data["verdict"] == "fail"
    errored = {row["name"]: row["samples_error"]
               for row in data["per_identity"]}
    assert errored["tension-transform"] == 2
    assert errored["phwc-equivalence"] == 0


def test_non_finite_changed_metric_is_a_sample_error(capsys):
    # sigma^2 overflows or underflows at most points of the box, so g-bar
    # has inf or NaN entries there: those points error in every identity
    # that reads g-bar, and no failing sample hides behind a NaN residual
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--sigma", "exp(1000*x1)", "--samples", "12")
    assert code == 1
    data = json.loads(out, parse_constant=_strict)
    assert data["verdict"] == "fail"
    rows = {row["name"]: row for row in data["per_identity"]}
    for row in rows.values():
        assert row["samples_pass"] + row["samples_fail"] \
            + row["samples_error"] == 12
        assert row["samples_fail"] == 0, row["name"]
    for name in ("tension-transform", "koszul-horizontal", "koszul-vertical",
                 "mean-curvature", "f-divergence", "phh-covariant",
                 "corollary-psh"):
        assert rows[name]["samples_error"] > 0
        assert not rows[name]["passed"]
    assert rows["phwc-equivalence"]["samples_error"] == 0


def test_fd_step_is_retired(tmp_path, capsys):
    # no finite difference is left, so the option is gone and the report
    # says so with its schema version
    code = main(["verify", "--scenario", "flat-projection-4-2",
                 "--fd-step", "1e-4", "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--fd-step" in captured.err and "Traceback" not in captured.err
    report = tmp_path / "report.json"
    assert main(["verify", "--scenario", "flat-projection-4-2",
                 "--samples", "2", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["schema_version"] == 4
    assert "fd_step" not in data["config"]


def test_the_report_config_holds_the_run_config_fields(tmp_path):
    # every RunConfig field but the scenario, which the report names at its
    # top level; tol_ad left the report with its option in schema 4
    report = tmp_path / "report.json"
    assert main(["verify", "--scenario", "flat-projection-4-2",
                 "--samples", "2", "--report", str(report)]) == 0
    config = json.loads(report.read_text())["config"]
    assert set(config) == set(RunConfig._fields) - {"scenario"}
    assert "tol_ad" not in config


def test_changed_metric_out_of_the_float_range_warns_nothing():
    # sigma^-2 underflows or overflows at most points: each is a sample
    # error with a message, and numpy never divides by zero or overflows
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "phmorph.cli", "verify",
         "--scenario", "flat-projection-4-2", "--sigma", "exp(1000*x1)",
         "--samples", "12"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    data = json.loads(proc.stdout, parse_constant=_strict)
    assert data["verdict"] == "fail"
    assert all(row["samples_fail"] == 0 for row in data["per_identity"])


def assert_config_error(capsys, *argv):
    """The run exits 2 with one ``error:`` line and no traceback; returns
    that line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("option", ["--sigma", "--rho", "--special-sigma"])
def test_an_empty_expression_exit_two(capsys, option):
    err = assert_config_error(capsys, "verify", "--scenario",
                              "flat-projection-4-2", "--samples", "1",
                              option, "")
    assert err == "error: empty expression at offset 0\n"


def test_an_empty_identity_list_exit_two(capsys):
    err = assert_config_error(capsys, "verify", "--scenario",
                              "flat-projection-4-2", "--samples", "1",
                              "--identities", "")
    assert err.startswith("error: unknown identity ''; available: ")


def test_an_empty_report_path_exit_two(tmp_path, capsys, monkeypatch):
    # as open("", "w") fails; nothing is written, in the working directory
    # or elsewhere
    monkeypatch.chdir(tmp_path)
    err = assert_config_error(capsys, "verify", "--scenario",
                              "flat-projection-4-2", "--samples", "1",
                              "--report", "")
    assert err == ("error: cannot write the report to '': %s\n"
                   % os.strerror(errno.ENOENT))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sigma, offset", [
    ("x\u0661", 0), ("\u0661.\u0665", 0), ("x\u00b2", 0)])
def test_non_ascii_digits_exit_two_with_an_offset(capsys, sigma, offset):
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", "--sigma", sigma)
    code = main(["verify", "--scenario", "flat-projection-4-2",
                 "--samples", "1", "--sigma", sigma])
    assert code == 2
    assert capsys.readouterr().err.endswith(" at offset %d\n" % offset)


def test_a_run_too_large_for_memory_exits_two(capsys, monkeypatch):
    # as --samples 1000000000 does where sample_points cannot allocate
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(runner, "sample_points", too_large)
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1000000000")
    main(["verify", "--scenario", "flat-projection-4-2"])
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 7.45 GiB for an array\n")


@pytest.mark.parametrize("option, value", [
    ("--tol-fd", "nan"), ("--tol-fd", "inf"), ("--tol-fd", "1e400"),
])
def test_non_finite_tolerance_exit_two(capsys, option, value):
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", option, value)


def test_report_into_a_missing_directory_exit_two(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", "--report", str(path))
    assert not (tmp_path / "missing").exists()


def test_report_path_with_a_trailing_slash_exit_two(tmp_path, capsys):
    # a path that names a directory, as open(path, "w") refuses it, and no
    # file is made under the name without its slash
    path = str(tmp_path / "report") + os.sep
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", "--report", path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sigma", ["+".join(["1"] * 3000),
                                   "(" * 300 + "1" + ")" * 300],
                         ids=["long-sum", "nested-parentheses"])
def test_too_deep_expression_exit_two(capsys, sigma):
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", "--sigma", sigma)


TOLERANCES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1e-5", "1e-300",
                     "1e-5", "1", "tight"]),
    st.floats().map(repr))

# half the seeds past 64 bits, which the sample generator folds in limbs
SEEDS = st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                  st.integers(min_value=2**64, max_value=2**80))


@settings(max_examples=40, deadline=None)
@given(SEEDS, TOLERANCES, st.integers(min_value=1, max_value=2))
def test_fuzzed_runs_end_in_an_exit_code(seed, tol_fd, samples):
    # sigma may use x5, one past the chart of flat-projection-4-2
    rng = np.random.default_rng(seed)
    sigma = random_expression(rng, variables=5)
    rho = random_expression(rng, variables=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code = main(["verify", "--scenario", "flat-projection-4-2",
                     "--sigma", sigma, "--rho", rho, "--seed", str(seed),
                     "--samples", str(samples), "--tol-fd=" + tol_fd,
                     "--report", path])
        assert code in (0, 1, 2)
        if os.path.exists(path):
            with open(path) as handle:
                json.load(handle, parse_constant=_strict)


def test_a_seed_above_64_bits_runs(capsys):
    code, out = run(capsys, "verify", "--scenario", "flat-projection-4-2",
                    "--seed", str(2**70), "--samples", "3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["config"]["seed"] == 2**70


def test_an_exhausted_sample_region_exit_two(capsys):
    sc = scenarios.get_scenario("flat-projection-4-2")._replace(
        excluded=lambda p: np.ones(p.shape[:-1], bool))
    with mock.patch.object(scenarios, "get_scenario", lambda name: sc):
        code = main(["verify", "--scenario", sc.name, "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: sample region exhausted after 3000 attempts\n"


def loaded_by_a_run(tmp_path, modules):
    """The exit code of a README run in a fresh process, then the names of
    ``modules`` it left in ``sys.modules``; and its stderr."""
    code = ("import sys; from phmorph.cli import main; "
            "code = main(sys.argv[2:]); print(code, *[m for m in "
            "sys.argv[1].split(',') if m in sys.modules])")
    argv = (["verify"] + README_ARGS
            + ["--samples", "20", "--report", str(tmp_path / "r.json")])
    proc = subprocess.run([sys.executable, "-c", code, ",".join(modules)]
                          + argv, env=src_env(), capture_output=True,
                          text=True, timeout=120)
    return proc.stdout.split(), proc.stderr


def test_a_run_does_not_load_numpy_random(tmp_path):
    # points and test directions come from scenarios.uniform, whose hash
    # needs no generator module
    out, err = loaded_by_a_run(tmp_path, ["numpy.random"])
    assert out == ["0"], err


def test_a_run_does_not_load_argparse_gettext_or_locale(tmp_path):
    # their set-up cost a fresh process a third of a short run
    out, err = loaded_by_a_run(tmp_path, ["argparse", "gettext", "locale"])
    assert out == ["0"], err


@pytest.mark.parametrize("argv", [
    ["list"], ["list", "--format", "json"], ["--help"], ["verify", "--help"],
    ["verify", "--scenario", "flat-projection-4-2", "--samples", "2",
     "--format", "text"]], ids=" ".join)
def test_a_closed_stdout_exits_two_with_one_error_line(argv):
    # stdout is a pipe whose read end is closed before the command runs
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "phmorph.cli"] + argv,
                              env=src_env(), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    what = "report" if argv[0] == "verify" and "--help" not in argv \
        else "output"
    assert proc.stderr.startswith(
        "error: cannot write the %s to stdout: " % what)
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_negative_seed_exit_two(capsys):
    # rejected with the configuration, before the scenario is built
    code = main(["verify", "--scenario", "flat-projection-4-2",
                 "--seed", "-1", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


FUZZ_CHUNK = 3  # so that a few samples span several chunks


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(list_scenarios()), st.text(max_size=8)),
       st.one_of(st.none(), st.lists(
           st.sampled_from(ALL_IDENTITIES + ("no-such-identity",)),
           min_size=1, max_size=4)),
       st.integers(min_value=1, max_value=2 * FUZZ_CHUNK + 1),
       SEEDS)
def test_fuzzed_scenarios_identities_and_sample_counts_end_in_an_exit_code(
        scenario, identities, samples, seed):
    # sigma over x1..x3 fits every chart and may error at some points
    sigma = random_expression(np.random.default_rng(seed))
    argv = ["verify", "--scenario", scenario, "--sigma", sigma,
            "--samples", str(samples), "--seed", str(seed)]
    if identities is not None:
        argv += ["--identities", ",".join(identities)]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(runner, "CHUNK", FUZZ_CHUNK):
        path = os.path.join(tmp, "report.json")
        code = main(argv + ["--report", path])
        assert code in (0, 1, 2)
        if os.path.exists(path):
            with open(path) as handle:
                json.load(handle, parse_constant=_strict)


def reference_parser():
    """The argparse parser that read the command line before
    ``cli.parse_options``: the reference its rules are checked against."""
    parser = argparse.ArgumentParser(
        prog="phmorph",
        description="Numerical verification of biconformal metric-change "
                    "identities on bundled example geometries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

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
    p_verify.add_argument("--tol-fd", type=float, default=1e-5)
    p_verify.add_argument("--identities", default=None,
                          help="comma-separated subset of: "
                               + ",".join(ALL_IDENTITIES))
    p_verify.add_argument("--report", default=None,
                          help="write the report to this path (atomically)")
    p_verify.add_argument("--format", choices=("json", "csv", "text"),
                          default="json")
    return parser


REFERENCE = reference_parser()
VERIFY_OPTIONS = ["--scenario", "--sigma", "--rho", "--special-sigma",
                  "--samples", "--seed", "--tol-fd", "--identities",
                  "--report", "--format"]


def reference_outcome(argv):
    """Exit code of the reference parser, or what the command reads."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = REFERENCE.parse_args(argv)
        except SystemExit as exc:
            return exc.code
    if ns.command == "list":
        return ns.format
    options = {name: getattr(ns, name) for name in RunConfig._fields
               if name != "identities"}
    config = RunConfig(identities=None if ns.identities is None
                       else ns.identities.split(","), **options)
    return repr(config), ns.report, ns.format  # repr: nan == nan


def outcome(argv):
    """Exit code of ``main`` where it stops at the command line, or what
    the command reads."""
    try:
        command, values = cli.parse_command_line(argv)
    except cli.UsageError:
        values = None
    if values is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (out.getvalue() == "") == (code == 2)
        assert err.getvalue().startswith("usage: ") == (code == 2)
        return code
    if command == "list":
        return values["format"]
    return repr(cli.run_config(values)), values["report"], values["format"]


def prefixes(name):
    """``name`` or a prefix of it, which may be ambiguous."""
    return st.one_of(st.just(name), st.just(name),
                     st.integers(3, len(name)).map(lambda k: name[:k]))


STRINGS = st.sampled_from(["hopf", "exp(0.2*x1)", "", "-", "-1 + x1", "x=1",
                           "tension-transform,koszul-horizontal"])
INTS = st.one_of(st.integers(-5, 10**6).map(str),
                 st.sampled_from(["1_000", " 7 ", "-1"]))
FLOATS = st.one_of(st.floats().map(repr),
                   st.sampled_from(["nan", "1e400", "-.5", "1e-5", "2"]))
TYPED = {"--samples": INTS, "--seed": INTS, "--tol-fd": FLOATS,
         "--format": st.sampled_from(["json", "csv", "text"])}
# an option, maybe abbreviated, with a value of its type, apart or after "="
WELL_FORMED = st.sampled_from(VERIFY_OPTIONS).flatmap(
    lambda name: st.tuples(prefixes(name), TYPED.get(name, STRINGS),
                           st.booleans()))
WELL_FORMED = WELL_FORMED.map(
    lambda t: ["=".join(t[:2])] if t[2] else list(t[:2]))
# a value of the wrong type or that reads as an option, an option without
# its value, a stray value, an unknown option, help or "--"
ANY_VALUE = st.one_of(st.sampled_from(["-x1", "-1e-5", "-h x", "xml"]),
                      STRINGS, INTS, FLOATS)
MALFORMED = st.one_of(
    st.tuples(st.sampled_from(VERIFY_OPTIONS).flatmap(prefixes), ANY_VALUE)
    .map(list),
    st.sampled_from(VERIFY_OPTIONS + ["--fd-step"]).flatmap(prefixes)
    .map(lambda name: [name]),
    ANY_VALUE.map(lambda value: [value]),
    st.sampled_from(["-h", "--help", "--he", "-hx", "--help=1", "--foo",
                     "--foo=1", "-x", "--", "---"]).map(lambda a: [a]))
# what may come before the command: help, unknown options, options of a
# command, "--", or a stray value that is read as the command
LEADING = st.sampled_from(["-h", "--help", "--he", "-hx", "--help=1", "--foo",
                           "--foo=1", "-x", "--", "---", "-1", "-h x",
                           "--scen=hopf", "--format", "bogus"])
ARGVS = st.tuples(
    st.one_of(st.just([]), st.just([]), st.lists(LEADING, min_size=1,
                                                 max_size=2)),
    st.sampled_from(["verify"] * 5 + ["list"]),
    st.sampled_from([[]] + [["--scenario", "hopf"], ["--scen=hopf"]] * 2),
    st.lists(WELL_FORMED, max_size=5),
    st.one_of(st.just([]), st.lists(MALFORMED, min_size=1, max_size=2)),
    st.integers(0, 5),
).map(lambda t: t[0] + [t[1]] + t[2]
      + sum(t[3][:t[5]] + t[4] + t[3][t[5]:], []))


@settings(max_examples=400, deadline=None)
@given(ARGVS)
@example(["verify", "--help", "--", "--s"])  # all after "--" are values
@example(["--foo", "-h", "verify"])  # help before the command
@example(["--foo", "list"])  # an unknown option before the command
@example(["--", "list"])  # "--" is read as the command
def test_the_command_line_reads_as_argparse_reads_it(argv):
    # exit 2 exactly where argparse exits 2, help where it gives help, and
    # otherwise the same configuration, report path and format
    assert outcome(argv) == reference_outcome(argv)


@pytest.mark.parametrize("argv, option", [
    (["--samples", "x"], "--samples"), (["--sam=1.5"], "--samples"),
    (["--tol-fd", "-1e-5"], "--tol-fd"), (["--sigma", "-x1"], "--sigma"),
    (["--s", "1"], "--s"), (["--format", "xml"], "--format"),
    (["--fd-step=1e-4"], "--fd-step"), (["--scenario"], "--scenario"),
    (["--tol-ad", "1e-8"], "--tol-ad")])
def test_a_usage_error_exits_two_naming_the_option(capsys, argv, option):
    code = main(["verify", "--scenario", "hopf"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    usage, error = captured.err.split("\nphmorph verify: error: ")
    assert usage.startswith("usage: phmorph verify [-h] --scenario SCENARIO")
    assert option in error and error.endswith("\n")


def test_the_tol_prefix_names_the_one_tolerance():
    argv = ["verify", "--scenario", "hopf", "--tol", "1e-6"]
    assert outcome(argv) == reference_outcome(argv)
    assert cli.run_config(cli.parse_command_line(argv)[1]).tol_fd == 1e-6


def test_a_missing_scenario_exits_two_naming_it(capsys):
    assert main(["verify", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("phmorph verify: error: the following "
                                 "arguments are required: --scenario\n")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--foo"]],
                         ids=["none", "unknown", "option-first"])
def test_a_missing_or_unknown_command_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage == "usage: phmorph [-h] {list,verify} ..."
    assert error.startswith("phmorph: error: ")


def test_options_before_the_command_are_read_as_argparse_reads_them(capsys):
    # help there is the program's help; an unknown option there is
    # reported with the command's own unknown ones
    assert main(["--foo", "-h"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (cli.help_text(""), "")
    assert main(["--foo", "list", "--bar"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "phmorph list: error: unrecognized arguments: --foo --bar\n")


def test_help_lists_each_option_with_its_default(capsys):
    assert main(["verify", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: phmorph verify [-h]")
    for name in VERIFY_OPTIONS:
        assert "\n  %s " % name in captured.out, name
    for default in RunConfig._field_defaults.values():
        if default is not None:
            assert "(default: %s)" % default in captured.out
    assert "horizontal conformal factor expression" in captured.out
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out == captured.out
    assert main(["list", "--help"]) == 0
    assert "\n  --format {text,json}\n      (default: text)\n" \
        in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "\n  verify " in capsys.readouterr().out
    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith(
        "usage: phmorph [-h] {list,verify} ...\n")
