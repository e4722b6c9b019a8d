"""Layer benchmarks: the cold cost of each layer, at one sample point and
over a chunk of ``CHUNK_ROWS`` points.

Every round builds the scenario, the change, the run context and the point
context (phi's ``maps.LocalGeometry`` at the sample point, or over the
chunk's points as one batch, as the runner builds it) anew (not timed), then
times one read there, so nothing that the read needs is computed yet:

- ``jet2_arithmetic``: a rational and transcendental expression in Jet2
  arithmetic on seeded coordinates, at a point and over a chunk;
- ``map_jets``: the map's jets (``SmoothMap.jets``), at a point and over a
  chunk;
- ``factor_jets``: sigma and rho as jets at the point;
- ``local_geometry_fill``: what a run computes at a point before its
  identities compare sides, under g and under g-bar, the geometry that the
  checks build from the point context (F div_H F brings in the horizontal
  factor and the PHWC defect it is checked against; the PHH defect is not
  kept, and is left out);
- ``chunk_fill``: the same over a chunk of points, the runner's batch;
- ``identity[<name>]``: one call of the identity's check, as the runner
  makes it.

Divide a chunk's time by ``CHUNK_ROWS`` for its cost per point.

The file is named ``bench_*.py`` so that the test suite does not collect it.
Run it from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py \\
        --benchmark-json=BENCH_<n>.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from phmorph import hermitian, jets, maps
from phmorph.runner import (ALL_IDENTITIES, RunConfig, RunContext,
                            run_identity, skip_reason)
from phmorph.scenarios import get_scenario, sample_points

ROUNDS = 40
CHUNK_ROWS = 20  # perfbench's sample count: its runs check one such chunk
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


def fresh_runs(workload, rows=None):
    """Setup of one round after another: a new run context and the point
    context at the next sample point (with its index), or over the first
    ``rows`` points."""
    config = WORKLOADS[workload]
    state = {"idx": -1}

    def setup():
        scenario = get_scenario(config.scenario)
        run = RunContext(scenario, config, config.build_change(scenario))
        state["idx"] = (state["idx"] + 1) % ROUNDS
        idx = state["idx"]
        points = (POINTS[workload][idx] if rows is None
                  else POINTS[workload][:rows])
        return (run, maps.LocalGeometry(scenario.phi, points), idx), {}

    return setup


def timed(benchmark, workload, read, rows=None):
    benchmark.pedantic(read, setup=fresh_runs(workload, rows), rounds=ROUNDS,
                       iterations=1)


ROWS = {"point": None, "chunk": CHUNK_ROWS}


def expression(x1, x2, x3):
    """A rational and transcendental scalar, as the bundled maps are."""
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    return (x1 * x3 + x2) / (1.0 + r2) * jets.exp(0.2 * x2) - jets.sin(x3)


@pytest.mark.parametrize("rows", sorted(ROWS))
def test_jet2_arithmetic(benchmark, rows):
    points = np.array(POINTS["hopf-full"][:CHUNK_ROWS])  # on R^3
    coords = points if ROWS[rows] else points[0]
    benchmark(lambda: expression(*jets.seed_coordinates(coords)))


@pytest.mark.parametrize("workload, rows", [
    (workload, rows) for workload in sorted(WORKLOADS) for rows in ROWS])
def test_map_jets(benchmark, workload, rows):
    timed(benchmark, workload,
          lambda run, point, idx: run.scenario.phi.jets(point.p), ROWS[rows])


def fill(run, point, idx):
    phi, J = run.scenario.phi, run.scenario.J
    for geo in (point, point.under(run.change.gbar)):
        geo.christoffel
        geo.projector_and_lift_derivs
        hermitian.d_f_structure(geo, J)
        maps.tension_field(geo)
        if phi.m > phi.two_n:
            maps.mean_curvature_vertical(geo)
        hermitian.phwc_defect(geo, J)
        hermitian.f_divergence_horizontal(geo, J)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_factor_jets(benchmark, workload):
    timed(benchmark, workload,
          lambda run, point, idx: run.change.change.factor_jets(point.p))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_local_geometry_fill(benchmark, workload):
    timed(benchmark, workload, fill)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_chunk_fill(benchmark, workload):
    timed(benchmark, workload, fill, CHUNK_ROWS)


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

    def check(run, point, idx):
        results.append(run_identity(name, run, point, idx))

    timed(benchmark, workload, check)
    assert all(rep.error is None for rep in results)
    assert np.all([rep.passed for rep in results]) or name == "corollary-phh"
