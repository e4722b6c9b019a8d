"""Layer benchmarks: the cold cost of each layer, at one sample point and
over a chunk of ``CHUNK_ROWS`` points.

Every round builds the scenario, the change, the run context and the point
context (phi's ``maps.LocalGeometry`` over the sample point as a 1-row
batch, as the runner re-runs a row, or over the chunk's points as one batch,
as the runner builds it) anew (not timed), then times one read there, so
nothing that the read needs is computed yet:

- ``jet2_arithmetic``: a rational and transcendental expression in Jet2
  arithmetic on seeded coordinates, at a point and over a chunk;
- ``map_jets``: the map's jets (``SmoothMap.jets``), at a point and over a
  chunk;
- ``factor_jets``: sigma and rho as jets at the point;
- ``metric_jets``: hopf's source metric at the chunk's points and its
  target metric at their images (``JetMetric.matrix_and_derivs``), over a
  chunk;
- ``local_geometry_fill``: what a run computes at a point before its
  identities compare sides, under g and under g-bar, the geometry that the
  checks build from the point context (F div_H F brings in the horizontal
  factor and the PHWC defect it is checked against; the PHH defect is not
  kept, and is left out);
- ``chunk_fill``: the same over a chunk of points, the runner's batch;
- ``metric_checks``: over a chunk, ``check_metric`` of g, of h at the
  images and of g-bar, whose matrices are evaluated in the set-up, and
  ``check_submersion`` of the map's differential;
- ``identity[<name>]``: one call of the identity's check, as the runner
  makes it;
- ``set_up``: what ``run_verification`` does before its first identity
  (``get_scenario``, ``RunConfig.build_change`` and ``sample_points`` at
  ``CHUNK_ROWS`` points), ``SETUP_REPEATS`` times a round, so that a change
  of a few percent in set-up is not lost in the spread of one run's.

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

from phmorph import IdentityAggregate, hermitian, jets, manifold, maps
from phmorph.runner import (ALL_IDENTITIES, RunConfig, RunContext,
                            run_identity, skip_reason)
from phmorph.scenarios import get_scenario, sample_points

ROUNDS = 40
CHUNK_ROWS = 20  # perfbench's sample count: its runs check one such chunk
SETUP_REPEATS = 50  # a set-up is about 0.15 ms on 2 vCPUs
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
    context at the next sample point as a 1-row batch (with its index), or
    over the first ``rows`` points."""
    config = WORKLOADS[workload]
    state = {"idx": -1}

    def setup():
        scenario = get_scenario(config.scenario)
        run = RunContext(scenario, config, config.build_change(scenario))
        state["idx"] = (state["idx"] + 1) % ROUNDS
        idx = state["idx"]
        points = (POINTS[workload][idx:idx + 1] if rows is None
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


def set_up(workload):
    """``SETUP_REPEATS`` set-ups of a run of ``workload``."""
    config = WORKLOADS[workload]
    for _ in range(SETUP_REPEATS):
        scenario = get_scenario(config.scenario)
        config.build_change(scenario)
        sample_points(scenario, CHUNK_ROWS, 42)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_set_up(benchmark, workload):
    benchmark.pedantic(set_up, args=(workload,), rounds=ROUNDS, iterations=1)


def fill(run, point, idx):
    phi = run.scenario.phi
    for geo in (point, point.under(run.gbar)):
        geo.christoffel
        geo.projector_and_lift_derivs
        hermitian.d_f_structure(geo)
        maps.tension_field(geo)
        if phi.m > phi.two_n:
            maps.mean_curvature_vertical(geo)
        hermitian.phwc_defect(geo)
        hermitian.f_divergence_horizontal(geo)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_factor_jets(benchmark, workload):
    timed(benchmark, workload,
          lambda run, point, idx: run.gbar.factor_jets(point))


def test_metric_jets(benchmark):
    phi = get_scenario("hopf").phi
    points = np.array(POINTS["hopf-full"][:CHUNK_ROWS])
    images = maps.LocalGeometry(phi, points).map_jets[0]

    def read():
        phi.source.metric.matrix_and_derivs(points)
        phi.target.metric.matrix_and_derivs(images)

    benchmark.pedantic(read, rounds=ROUNDS, iterations=1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_local_geometry_fill(benchmark, workload):
    timed(benchmark, workload, fill)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_chunk_fill(benchmark, workload):
    timed(benchmark, workload, fill, CHUNK_ROWS)


def metric_check_inputs(workload):
    """Set-up of one round after another: a chunk's point context and its
    (matrix, derivatives, points) for g, h and g-bar."""
    fresh = fresh_runs(workload, CHUNK_ROWS)

    def setup():
        (run, point, _), _ = fresh()
        phi, images = run.scenario.phi, point.map_jets[0]
        # g-bar reads phi's rank check: a twin context keeps it untimed
        twin = maps.LocalGeometry(phi, point.p)
        return (point, [
            phi.source.metric.matrix_and_derivs(point.p) + (point.p,),
            phi.target.metric.matrix_and_derivs(images) + (images,),
            run.gbar.matrix_and_derivs(twin) + (point.p,)]), {}

    return setup


def metric_checks(point, metrics):
    for metric in metrics:
        manifold.check_metric(*metric)
    maps.check_submersion(point)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metric_checks(benchmark, workload):
    benchmark.pedantic(metric_checks, setup=metric_check_inputs(workload),
                       rounds=ROUNDS, iterations=1)


CASES = [(workload, name) for workload in sorted(WORKLOADS)
         for name in ALL_IDENTITIES]


@pytest.mark.parametrize("workload, name", CASES,
                         ids=["%s-%s" % case for case in CASES])
def test_identity(benchmark, workload, name):
    config = WORKLOADS[workload]
    scenario = get_scenario(config.scenario)
    reason = skip_reason(name, scenario)
    if reason is not None:
        pytest.skip(reason)
    agg = IdentityAggregate(name)

    def check(run, point, idx):
        run_identity(name, run, point, idx, agg)

    timed(benchmark, workload, check)
    assert agg.errors == [] and agg.samples_fail == 0
    assert agg.samples_pass > 0
