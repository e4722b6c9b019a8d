"""Golden reports: the CLI's JSON for the three benchmark workloads, for a
run whose samples error and for a one-function change, at 3 samples,
compared byte for byte with the files under ``tests/golden/``.

A change that must leave every residual as it is (a refactor, a cache)
keeps these files as they are.  A change that moves residuals on purpose
regenerates them, from the repository root, and says why:

    PYTHONPATH=src python -c "from tests.test_golden import regenerate; regenerate()"
"""

import os

import pytest

from phmorph.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
HOPF = ["--scenario", "hopf", "--sigma", "exp(0.2*x1+0.1*x3)",
        "--rho", "1+0.2*x2^2"]
# name -> (arguments, exit code)
WORKLOADS = {
    "readme-6-4": (["--scenario", "flat-projection-6-4", "--sigma",
                    "exp(0.2*x1)", "--rho", "1+0.1*x5^2"], 0),
    "hopf-full": (HOPF, 0),
    "hopf-subset": (HOPF + ["--identities",
                            "tension-transform,koszul-horizontal"], 0),
    # rho = x2 is not positive at two of the three points: errored samples
    "errored-4-2": (["--scenario", "flat-projection-4-2", "--rho", "x2"], 1),
    "special-sigma-6-4": (["--scenario", "flat-projection-6-4",
                           "--special-sigma", "1+0.1*x1^2"], 0),
}


def argv(workload, report):
    return (["verify"] + WORKLOADS[workload][0]
            + ["--samples", "3", "--seed", "42", "--report", report])


def regenerate():
    for workload, (_, code) in WORKLOADS.items():
        path = os.path.join(GOLDEN, workload + ".json")
        assert main(argv(workload, path)) == code


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_report_matches_the_golden_file(tmp_path, workload):
    out = tmp_path / "report.json"
    assert main(argv(workload, str(out))) == WORKLOADS[workload][1]
    with open(os.path.join(GOLDEN, workload + ".json"), "rb") as handle:
        assert out.read_bytes() == handle.read()
