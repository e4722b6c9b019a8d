"""Layer benchmarks: the cold cost per sample point of each layer.

Every round builds the scenario, the change and the run context anew (not
timed), then times one read at one sample point, so nothing that the read
needs is memoized yet:

- ``factor_jets``: sigma and rho as jets at the point;
- ``local_geometry_fill``: what a run computes at a point before its
  identities compare sides, under g and under g-bar (F div_H F brings in
  the horizontal factor and the PHWC defect it is checked against; the
  PHH defect is not kept, and is left out);
- ``identity[<name>]``: one call of the identity's check, as the runner
  makes it.

The file is named ``bench_*.py`` so that the test suite does not collect it.
Run it from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py \\
        --benchmark-json=BENCH_<n>.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from phmorph import hermitian, maps
from phmorph.runner import (ALL_IDENTITIES, RunConfig, RunContext,
                            run_identity, skip_reason)
from phmorph.scenarios import get_scenario, sample_points

ROUNDS = 40
WORKLOAD_FILE = Path(__file__).resolve().parent.parent / "perfbench" / \
    "workloads.json"


def load_workloads(names):
    """The run configurations of the named perfbench workloads, read from
    perfbench/workloads.json so that the layers are timed on the very runs
    whose end-to-end cost perfbench measures."""
    with open(WORKLOAD_FILE) as fh:
        workloads = json.load(fh)["workloads"]
    return {name: RunConfig(**workloads[name]["args"]) for name in names}


WORKLOADS = load_workloads(("readme-6-4", "hopf-full"))
POINTS = {name: sample_points(get_scenario(config.scenario), ROUNDS, 42)
          for name, config in WORKLOADS.items()}


def fresh_runs(workload):
    """Setup of one round after another: a new run context and the next
    sample point (with its index)."""
    config = WORKLOADS[workload]
    state = {"idx": -1}

    def setup():
        scenario = get_scenario(config.scenario)
        run = RunContext(scenario, config, config.build_change(scenario))
        state["idx"] = (state["idx"] + 1) % ROUNDS
        idx = state["idx"]
        return (run, POINTS[workload][idx], idx), {}

    return setup


def timed(benchmark, workload, read):
    benchmark.pedantic(read, setup=fresh_runs(workload), rounds=ROUNDS,
                       iterations=1)


def fill(run, p, idx):
    phi, J = run.scenario.phi, run.scenario.J
    for metric in (None, run.change.gbar):
        geo = maps.local_geometry(phi, p, metric)
        geo.christoffel
        geo.projector_and_lift_derivs
        hermitian.d_f_structure(phi, J, p, metric)
        maps.tension_field(phi, p, metric)
        if phi.m > phi.two_n:
            maps.mean_curvature_vertical(phi, p, metric)
        hermitian.phwc_defect(phi, J, p, metric)
        hermitian.f_divergence_horizontal(phi, J, p, metric)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_factor_jets(benchmark, workload):
    timed(benchmark, workload,
          lambda run, p, idx: run.change.change.factor_jets(p))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_local_geometry_fill(benchmark, workload):
    timed(benchmark, workload, fill)


CASES = [(workload, name) for workload in sorted(WORKLOADS)
         for name in ALL_IDENTITIES]


@pytest.mark.parametrize("workload, name", CASES,
                         ids=["%s-%s" % case for case in CASES])
def test_identity(benchmark, workload, name):
    config = WORKLOADS[workload]
    scenario = get_scenario(config.scenario)
    reason = skip_reason(name, scenario, config.build_change(scenario))
    if reason is not None:
        pytest.skip(reason)
    results = []

    def check(run, p, idx):
        results.append(run_identity(name, run, p, idx))

    timed(benchmark, workload, check)
    assert all(rep.error is None for rep in results)
    assert np.all([rep.passed for rep in results]) or name == "corollary-phh"
