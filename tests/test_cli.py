"""Command-line interface: flags, exit codes, report files, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phmorph import runner, scenarios
from phmorph.cli import main
from phmorph.runner import ALL_IDENTITIES
from phmorph.scenarios import list_scenarios
from tests.test_exprs import random_expression
from tests.test_golden import WORKLOADS

README_ARGS = WORKLOADS["readme-6-4"][0]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_text(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "flat-projection-4-2" in out
    assert "hopf" in out


def test_list_json(capsys):
    code, out = run(capsys, "list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    names = [row["name"] for row in data]
    assert names == sorted(names)
    assert "nonphwc-anisotropic" in names


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
    assert data["schema_version"] == 2
    assert data["scenario"] == "curved-fibers-nonharmonic"
    assert data["verdict"] == "pass"
    for key in ("config", "per_identity", "skipped_identities", "flags",
                "warnings"):
        assert key in data
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
    assert data["schema_version"] == 2
    assert "fd_step" not in data["config"]


def test_changed_metric_out_of_the_float_range_warns_nothing():
    # sigma^-2 underflows or overflows at most points: each is a sample
    # error with a message, and numpy never divides by zero or overflows
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "phmorph.cli", "verify",
         "--scenario", "flat-projection-4-2", "--sigma", "exp(1000*x1)",
         "--samples", "12"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    data = json.loads(proc.stdout, parse_constant=_strict)
    assert data["verdict"] == "fail"
    assert all(row["samples_fail"] == 0 for row in data["per_identity"])


def assert_config_error(capsys, *argv):
    """The run exits 2 with one ``error:`` line and no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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
    ("--tol-ad", "nan"),
])
def test_non_finite_tolerance_exit_two(capsys, option, value):
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", option, value)


def test_report_into_a_missing_directory_exit_two(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert_config_error(capsys, "verify", "--scenario", "flat-projection-4-2",
                        "--samples", "1", "--report", str(path))
    assert not (tmp_path / "missing").exists()


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
@given(SEEDS, TOLERANCES, TOLERANCES,
       st.integers(min_value=1, max_value=2))
def test_fuzzed_runs_end_in_an_exit_code(seed, tol_ad, tol_fd, samples):
    # sigma may use x5, one past the chart of flat-projection-4-2
    rng = np.random.default_rng(seed)
    sigma = random_expression(rng, variables=5)
    rho = random_expression(rng, variables=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code = main(["verify", "--scenario", "flat-projection-4-2",
                     "--sigma", sigma, "--rho", rho, "--seed", str(seed),
                     "--samples", str(samples), "--tol-ad=" + tol_ad,
                     "--tol-fd=" + tol_fd, "--report", path])
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
    sc = dataclasses.replace(scenarios.get_scenario("flat-projection-4-2"),
                             excluded=lambda p: np.ones(p.shape[:-1], bool))
    with mock.patch.object(scenarios, "get_scenario", lambda name: sc):
        code = main(["verify", "--scenario", sc.name, "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: sample region exhausted after 3000 attempts\n"


def test_a_run_does_not_load_numpy_random(tmp_path):
    # points and test directions come from scenarios.uniform, whose hash
    # needs no generator module
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys; from phmorph.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)")
    argv = (["verify"] + README_ARGS
            + ["--samples", "20", "--report", str(tmp_path / "r.json")])
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


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
