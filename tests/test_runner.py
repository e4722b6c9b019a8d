"""Verification runner: config validation, the identity table, gating and
report assembly."""

import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from phmorph import (ALL_IDENTITIES, Jet2, RunConfig, biconformal,
                     confirm_flags, get_scenario, hermitian, manifold, maps,
                     run_verification, runner, sample_points, scenarios)
from phmorph.biconformal import PROPERTIES, IdentityAggregate
from phmorph.manifold import per_k
from phmorph.maps import LocalGeometry
from phmorph.runner import RunContext, run_identity, skip_reason
from tests.test_maps import KEPT_IN_SOURCE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(scenario="flat-projection-4-2", samples=0).validate()
    with pytest.raises(ValueError):
        RunConfig(scenario="flat-projection-4-2", tol_fd=-1.0).validate()
    with pytest.raises(ValueError):
        RunConfig(scenario="flat-projection-4-2",
                  identities=["no-such-identity"]).validate()
    with pytest.raises(ValueError):
        RunConfig(scenario="flat-projection-4-2", rho="2",
                  special_sigma="1+0.1*x1").validate()
    with pytest.raises(ValueError, match="repeated"):
        RunConfig(scenario="flat-projection-4-2",
                  identities=["tension-transform",
                              "tension-transform"]).validate()
    RunConfig(scenario="flat-projection-4-2").validate()


@pytest.mark.parametrize("given", [dict(sigma="exp(x1)"), dict(sigma="2"),
                                   dict(rho="2"), dict(sigma="2", rho="2")])
def test_special_sigma_rejects_a_sigma_or_rho_beside_it(given):
    # the one-function change fixes both factors: a sigma or rho beside it
    # would be ignored
    with pytest.raises(ValueError, match="^give special-sigma without sigma "
                                         "or rho$"):
        RunConfig(scenario="flat-projection-6-4", special_sigma="2",
                  **given).validate()


@pytest.mark.parametrize("given", [{}, dict(sigma="1")])
def test_special_sigma_runs_alone_or_beside_the_default_sigma(given):
    RunConfig(scenario="flat-projection-6-4", special_sigma="2",
              **given).validate()


def test_all_identities_is_the_schema_order():
    assert len(ALL_IDENTITIES) == len(set(ALL_IDENTITIES))
    assert "tension-transform" in ALL_IDENTITIES
    assert "corollary-phh" in ALL_IDENTITIES


def test_non_applicable_identities_are_skipped_not_failed():
    rep = run_verification(RunConfig(scenario="nonphwc-anisotropic", samples=3))
    ran = {row["name"] for row in rep["per_identity"]}
    skipped = {row["name"] for row in rep["skipped_identities"]}
    assert "phwc-equivalence" in ran
    assert "tension-transform" in skipped
    assert "pullback" in skipped
    assert rep["verdict"] == "pass"
    assert rep["flags"]["phwc"]["confirmed"]


def test_special_sigma_route():
    rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                     special_sigma="1+0.1*x1^2",
                                     samples=3))
    assert rep["verdict"] == "pass"
    assert rep["config"]["special_sigma"] == "1+0.1*x1^2"


def test_report_flags_section_reports_measurements():
    rep = run_verification(RunConfig(scenario="curved-fibers-nonharmonic",
                                     samples=3))
    flags = {k: v for k, v in rep["flags"].items()}
    assert flags["harmonic"]["expected"] is False
    assert flags["harmonic"]["confirmed"]
    assert "measured_max_defect" in flags["phwc"]


def make_unreadable(monkeypatch, flag, where=lambda p: True):
    """Make the measure of ``flag`` under g raise on a batch with a row
    where ``where`` holds; the corollaries measure it under a change as
    before."""
    prop = PROPERTIES[flag]

    def measure(geo):
        if geo.change is None and np.count_nonzero(where(geo.p)):
            raise manifold.GeometryError("flag defect unreadable")
        return prop.measure(geo)

    monkeypatch.setitem(PROPERTIES, flag,
                        prop._replace(measure=measure))


# a run whose phwc flag errors at every point once ``make_unreadable`` makes
# it unreadable
ERRORED_FLAG_RUN = RunConfig(scenario="flat-projection-6-4",
                             sigma="exp(0.2*x1)", rho="1+0.1*x5^2",
                             samples=5)


def test_an_errored_flag_point_does_not_confirm_the_flag(monkeypatch):
    make_unreadable(monkeypatch, "phwc")
    rep = run_verification(ERRORED_FLAG_RUN)
    assert rep["flags"]["phwc"] == {"expected": True,
                                    "measured_max_defect": None,
                                    "samples_error": 5, "confirmed": False}
    assert rep["flags"]["harmonic"]["confirmed"] is True
    assert rep["flags_confirmed"] is False
    assert rep["verdict"] == "fail"
    assert all(row["passed"] for row in rep["per_identity"])
    # errored at some points only: measured at the others, still unconfirmed
    make_unreadable(monkeypatch, "harmonic", lambda p: p[:, 0] < 0)
    flag = run_verification(ERRORED_FLAG_RUN)["flags"]["harmonic"]
    assert 0 < flag["samples_error"] < 5
    assert flag["measured_max_defect"] < 1e-12
    assert flag["confirmed"] is False


def test_a_non_finite_flag_reading_is_a_sample_error(monkeypatch):
    # a NaN tension under g at one sample point: that point is the harmonic
    # flag's errored point, never a pass, and the flag is not confirmed
    config = RunConfig(scenario="flat-projection-4-2", samples=5)
    nan_at = sample_points(get_scenario(config.scenario), 5, config.seed)[2]
    prop = PROPERTIES["harmonic"]

    def measure(geo):
        value, scale = prop.measure(geo)
        if geo.change is None:
            value = np.where((geo.p == nan_at).all(axis=-1)[:, None],
                             np.nan, value)
        return value, scale

    monkeypatch.setitem(PROPERTIES, "harmonic",
                        prop._replace(measure=measure))
    rep = run_verification(config)
    flag = rep["flags"]["harmonic"]
    assert (flag["samples_error"], flag["confirmed"]) == (1, False)
    assert flag["measured_max_defect"] < 1e-12
    assert all(row["passed"] for row in rep["per_identity"])
    assert rep["verdict"] == "fail"


# ---- batched runs --------------------------------------------------------

def rows(p):
    """The points of one point or of a batch, as bytes."""
    return [q.tobytes() for q in np.reshape(p, (-1, np.shape(p)[-1]))]


def _one_pass_per_identity(config):
    """The report sections a run gives when each identity, and then the flag
    check, runs once over all the sample points, each on a 1-row batch of
    its own."""
    scenario = get_scenario(config.scenario)
    gbar = config.build_change(scenario)
    points = sample_points(scenario, config.samples, config.seed)
    run = RunContext(scenario, config, gbar)
    per_identity, skipped = [], []
    for name in config.identities or ALL_IDENTITIES:
        reason = skip_reason(name, scenario)
        if reason is not None:
            skipped.append({"name": name, "reason": reason})
            continue
        agg = IdentityAggregate(name)
        for idx, p in enumerate(points):
            run_identity(name, run, LocalGeometry(scenario.phi, [p]), idx,
                         agg)
        per_identity.append(agg.as_dict())
    flags = confirm_flags(scenario, [LocalGeometry(scenario.phi, [p])
                                     for p in points], tol=config.tol_fd)
    return per_identity, skipped, flags


BATCH_CONFIGS = {name: RunConfig(scenario=name, sigma="exp(0.2*x1+0.1*x3)",
                                 rho="1+0.2*x2^2", samples=8)
                 for name in scenarios.list_scenarios()}
BATCH_CONFIGS.update({
    # rho = x2 and sigma = x1 are negative on half the box: some rows of a
    # chunk error and are settled one by one
    "errored-samples": RunConfig(scenario="flat-projection-4-2", rho="x2",
                                 samples=8),
    "errored-sigma": RunConfig(scenario="flat-projection-6-4", sigma="x1",
                               samples=8),
    "special-sigma": RunConfig(scenario="flat-projection-6-4",
                               special_sigma="1+0.1*x1^2", samples=8),
})


@pytest.mark.parametrize("config", BATCH_CONFIGS.values(),
                         ids=BATCH_CONFIGS.keys())
def test_point_major_run_equals_one_pass_per_identity(monkeypatch, config):
    # a run in two full chunks of 3 points and a partial one gives, bit for
    # bit, the reports of 1-row batches, and the same error messages
    def as_dict(self):
        return dict(inner(self), errors=self.errors)

    inner = IdentityAggregate.as_dict
    monkeypatch.setattr(IdentityAggregate, "as_dict", as_dict)
    monkeypatch.setattr(runner, "CHUNK", 3)
    rep = run_verification(config)
    per_identity, skipped, flags = _one_pass_per_identity(config)
    assert json.dumps(rep["per_identity"]) == json.dumps(per_identity)
    assert rep["skipped_identities"] == skipped
    assert json.dumps(rep["flags"]) == json.dumps(flags)
    if config.rho == "x2" or config.sigma == "x1":
        assert any(0 < row["samples_error"] < 8
                   for row in rep["per_identity"])


def _readme_run(seed):
    config = RunConfig(scenario="flat-projection-6-4", sigma="exp(0.2*x1)",
                       rho="1+0.1*x5^2", seed=seed)
    scenario = get_scenario(config.scenario)
    return RunContext(scenario, config, config.build_change(scenario))


@pytest.mark.parametrize("count", [1, 2])
def test_a_batch_draws_what_its_rows_draw_alone(count):
    # test components are keyed by (seed, sample index, tag) alone, so a
    # row draws the same bits in a chunk and in a 1-row re-run
    run = _readme_run(2**70 + 3)
    geo = LocalGeometry(run.scenario.phi,
                        sample_points(run.scenario, 5, seed=1))
    rows = [run.draw(row, 10 + i, 3, count) for i, row in enumerate(geo.rows)]
    assert np.array_equal(run.draw(geo, 10, 3, count),
                          np.concatenate(rows, axis=-2))


def test_draws_differ_across_tags_and_seeds_and_lie_in_the_unit_box():
    draws = []
    for seed in (0, 1, 2**64, 2**70):
        run = _readme_run(seed)
        geo = LocalGeometry(run.scenario.phi,
                            sample_points(run.scenario, 5, seed=1))
        for tag in (3, 4, 7):
            draw = run.draw(geo, 0, tag, count=2)
            assert draw.shape == (2, 5, 6)
            assert np.all(-1.0 <= draw) and np.all(draw < 1.0)
            draws.append(draw.tobytes())
    assert len(set(draws)) == len(draws)


def test_map_jets_computed_once_per_distinct_point(monkeypatch):
    # no check evaluates the map away from a point: its jets are computed
    # once at each sample point of the run and nowhere else (the
    # construction check reads the run's point contexts)
    scenario = get_scenario("hopf")
    inner = scenario.phi.components
    jet_points = []

    def counting(coords):
        if isinstance(coords[0], Jet2):
            jet_points.extend(rows(np.stack([c.value for c in coords], -1)))
        return inner(coords)

    scenario.phi.components = counting
    monkeypatch.setattr(scenarios, "get_scenario", lambda name: scenario)
    rep = run_verification(RunConfig(scenario="hopf",
                                     sigma="exp(0.2*x1+0.1*x3)",
                                     rho="1+0.2*x2^2", samples=5))
    assert rep["verdict"] == "pass"
    assert sorted(jet_points) == sorted(
        p.tobytes() for p in sample_points(scenario, 5, 42))


def test_changed_metric_derivatives_computed_once_per_distinct_point(
        monkeypatch):
    # the exact derivative of g-bar is taken once per (g-bar, point): here
    # at each sample point, for the change and for the one-function change
    calls = []
    inner = biconformal.ChangedMetric.matrix_and_derivs

    def counting(self, source):
        calls.extend((self, q) for q in rows(source.p))
        return inner(self, source)

    monkeypatch.setattr(biconformal.ChangedMetric, "matrix_and_derivs",
                        counting)
    monkeypatch.setattr(runner, "CHUNK", 3)
    rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                     sigma="exp(0.2*x1)", rho="1+0.1*x5^2",
                                     samples=4))
    assert rep["verdict"] == "pass"
    assert len(calls) == len(set(calls)) == 2 * 4
    assert len({metric for metric, _ in calls}) == 2


def test_a_special_sigma_run_builds_the_g_bar_geometry_once(monkeypatch):
    # the run's change is its one-function change: the corollaries read
    # the geometry that the laws and the pullback under g-bar read, so each
    # of its fields is built once in the run's one chunk
    built = []
    field = LocalGeometry.field

    def counting(geo, key, compute, *args):
        if geo.change is not None and (geo.change, key) not in geo._fields:
            built.append(key if isinstance(key, str) else key[0])
        return field(geo, key, compute, *args)

    monkeypatch.setattr(LocalGeometry, "field", counting)
    rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                     special_sigma="exp(0.3*x1)", samples=5))
    assert rep["verdict"] == "pass"
    assert {"metric_and_derivs", "_inverse", "christoffel", "_lift_factors",
            "horizontal_factor", "tension_field",
            "phwc_metric_defect"} <= set(built)
    assert len(built) == len(set(built))


# what a run evaluates per point: each metric (g and h through
# ``metric_at``, and both g-bar from phi's geometry, value and derivatives
# at once), J and the map (``SmoothMap.jets`` evaluates its components once
# a call)
EVALUATIONS = [(manifold.JetMetric, "matrix_and_derivs"),
               (biconformal.ChangedMetric, "matrix_and_derivs"),
               (hermitian.AlmostComplexStructureField, "matrix_and_derivs"),
               (maps.SmoothMap, "jets")]


@pytest.mark.parametrize("config", [
    RunConfig(scenario="flat-projection-6-4", sigma="exp(0.2*x1)",
              rho="1+0.1*x5^2", samples=4),
    RunConfig(scenario="hopf", sigma="exp(0.2*x1+0.1*x3)", rho="1+0.2*x2^2",
              samples=4),
    # its sampling excludes points near the critical point of the map
    RunConfig(scenario="holomorphic-poly", sigma="exp(0.2*x1+0.1*x3)",
              rho="1+0.2*x2^2", samples=4),
], ids=["readme-6-4", "hopf", "holomorphic-poly"])
def test_a_run_evaluates_each_field_once_per_distinct_point(monkeypatch,
                                                             config):
    counts = {}

    def counting(inner, name):
        # a batched call counts once for each of its rows: g-bar's, once
        # for each row of the geometry it reads
        def wrapper(self, p):
            points = p.p if isinstance(p, LocalGeometry) else p
            for q in rows(np.asarray(points, dtype=float)):
                key = (name, id(self), q)
                counts[key] = counts.get(key, 0) + 1
            return inner(self, p)
        return wrapper

    for cls, name in EVALUATIONS:
        monkeypatch.setattr(cls, name, counting(getattr(cls, name),
                                                cls.__name__ + "." + name))
    monkeypatch.setattr(runner, "CHUNK", 3)
    assert run_verification(config)["verdict"] == "pass"
    assert {name for name, _, _ in counts} == {
        cls.__name__ + "." + name for cls, name in EVALUATIONS}
    repeated = {key[0] for key, count in counts.items() if count > 1}
    assert not repeated


@pytest.mark.parametrize("scenario", ["flat-projection-6-4", "hopf"])
def test_a_run_takes_no_finite_difference(monkeypatch, scenario):
    def forbidden(*args, **kwargs):
        raise AssertionError("finite difference on the run path")

    monkeypatch.setattr(manifold, "directional_derivative", forbidden)
    monkeypatch.setattr(manifold, "richardson_partial", forbidden)
    monkeypatch.setattr(manifold.FDMetric, "matrix_and_derivs", forbidden)
    rep = run_verification(RunConfig(scenario=scenario, sigma="exp(0.2*x1)",
                                     rho="1+0.1*x2^2", samples=2))
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("scenario", ["flat-projection-6-4", "hopf"])
def test_a_run_builds_no_frame(monkeypatch, scenario):
    # the laws are checked in closed form and the horizontal traces contract
    # over the horizontal factor: no check needs {e_i, F e_i} or a
    # Gram-Schmidt frame of V and H
    def forbidden(*args, **kwargs):
        raise AssertionError("frame on the run path")

    monkeypatch.setattr(hermitian, "AdaptedFrame", forbidden)
    monkeypatch.setattr(maps, "OrthoSplit", forbidden)
    rep = run_verification(RunConfig(scenario=scenario, sigma="exp(0.2*x1)",
                                     rho="1+0.1*x2^2", samples=2))
    assert rep["verdict"] == "pass"


def test_a_run_folds_its_flags_through_confirm_flags(monkeypatch):
    # one function folds flags for a run, a chunk at a time, and for a list
    # of 1-row batches
    calls = []
    inner = runner.confirm_flags

    def counting(scenario, geos, *args):
        calls.append([geo.p.shape for geo in geos])
        return inner(scenario, geos, *args)

    monkeypatch.setattr(runner, "confirm_flags", counting)
    monkeypatch.setattr(runner, "CHUNK", 2)
    config = RunConfig(scenario="flat-projection-4-2", sigma="exp(0.2*x1)",
                       samples=3)
    rep = run_verification(config)
    assert calls == [[(2, 4)], [(1, 4)]]
    scenario = get_scenario(config.scenario)
    geos = [LocalGeometry(scenario.phi, [p])
            for p in sample_points(scenario, 3, 42)]
    assert rep["flags"] == inner(scenario, geos, config.tol_fd)


def test_a_flag_settles_sample_errors_row_by_row(monkeypatch):
    # the PHH defect raises at the rows of a chunk with x1 < 0: those rows
    # are the flag's errored points, and its worst defect is that of the
    # other rows, each measured as a 1-row batch
    inner = biconformal.phh_defect

    def failing(geo):
        if np.count_nonzero(geo.p[:, 0] < 0):
            raise manifold.GeometryError("x1 < 0")
        return inner(geo)

    scenario = get_scenario("hopf")
    points = np.array(sample_points(scenario, 8, 42))
    negative = points[:, 0] < 0
    assert 0 < np.count_nonzero(negative) < len(points)
    phh = PROPERTIES["phh"].reading
    expected = max(phh(LocalGeometry(scenario.phi, [p]))[1][0]
                   for p in points[~negative])
    assert expected > 0.0
    monkeypatch.setattr(biconformal, "phh_defect", failing)
    flags = confirm_flags(scenario, [LocalGeometry(scenario.phi, points)])
    assert flags["phh"]["samples_error"] == np.count_nonzero(negative)
    assert flags["phh"]["measured_max_defect"] == expected
    assert flags["phwc"]["samples_error"] == 0
    assert flags["phwc"]["confirmed"] is True


def _projector_and_lift_derivs_without_l_dm(geo):
    """``LocalGeometry.projector_and_lift_derivs`` with the -L dM term of
    dL dropped: a wrong dP_H, computed in the source geometry as the kept
    one is."""
    geo = geo.source
    a, adjoint, minv = geo._lift_factors
    lift, da = geo.projector_and_lift[1], geo.map_jets[2]
    dg = geo.metric_and_derivs[1]
    dginv = -np.einsum("...ij,...kjl,...lm->...kim", geo.ginv, dg, geo.ginv)
    d_lift = (dginv @ per_k(a.mT) + per_k(geo.ginv) @ da.mT) @ per_k(minv)
    return d_lift @ per_k(a) + per_k(lift) @ da, d_lift


def test_a_wrong_projector_derivative_fails_a_hopf_run(monkeypatch):
    # d g-bar reads dP_H, so koszul-horizontal sees a wrong one through the
    # Christoffel symbols of g-bar, which its left side contracts on (X, Y)
    # with no test-field derivative; tension-f-structure sees it through
    # div_H F.  Both sides of koszul-vertical and of mean-curvature read the
    # same dP_H, so neither of those laws tests it
    config = RunConfig(scenario="hopf", sigma="exp(0.2*x1+0.1*x3)",
                       rho="1+0.2*x2^2", samples=5)
    assert run_verification(config)["verdict"] == "pass"
    monkeypatch.setattr(maps.LocalGeometry, "projector_and_lift_derivs",
                        property(_projector_and_lift_derivs_without_l_dm))
    rep = run_verification(config)
    assert rep["verdict"] == "fail"
    failed = {row["name"] for row in rep["per_identity"] if not row["passed"]}
    assert failed == {"koszul-horizontal", "tension-f-structure"}, failed


def _fold(agg, points, rel, absr, finite=None):
    """Fold rows at the 1-coordinate ``points`` into ``agg``, passing below
    a relative residual of 2.5."""
    rel = np.array(rel)
    agg.fold(np.array(points, dtype=float)[:, None], np.array(absr), rel,
             np.ones(len(rel), bool) if finite is None else np.array(finite),
             rel < 2.5)


def test_fold_keeps_the_worst_point():
    agg = IdentityAggregate("x")
    _fold(agg, [0, 1], [1.0, 3.0], [5.0, 1.0])
    agg.error([2.0], "boom")
    _fold(agg, [3, 4, 5, 6, 7], [3.0, float("nan"), 2.0, 9.0, 0.5],
          [1.0, float("nan"), 5.0, 9.0, 0.5], [1, 1, 1, 0, 1])
    assert (agg.samples_pass, agg.samples_fail, agg.samples_error) == (3, 3, 2)
    assert agg.errors == [{"point": [2.0], "error": "boom"},
                          {"point": [6.0], "error": "non-finite residual"}]
    assert not agg.passed
    # ties go to the later point, a NaN residual is never the worst, and a
    # row that is not finite is none of the points read
    assert (agg.worst_point, agg.max_rel_residual,
            agg.max_abs_residual) == ([3.0], 3.0, 1.0)


def test_a_skipped_identity_gets_no_aggregate_and_the_run_passes():
    rep = run_verification(RunConfig(scenario="hopf", sigma="1+0.1*x1",
                                     samples=1,
                                     identities=["corollary-phh"]))
    assert rep["per_identity"] == [] and rep["verdict"] == "pass"
    assert [row["name"] for row in rep["skipped_identities"]] == [
        "corollary-phh"]


def test_linalg_error_in_a_corollary_is_a_sample_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(biconformal, "phwc_defect", singular)
    scenario = get_scenario("flat-projection-6-4")
    config = RunConfig(scenario="flat-projection-6-4", sigma="1+0.1*x1",
                       samples=3)
    run = RunContext(scenario, config, config.build_change(scenario))
    agg = IdentityAggregate("corollary-psh")
    for idx, p in enumerate(sample_points(scenario, 3, 42)):
        run_identity("corollary-psh", run, LocalGeometry(scenario.phi, [p]),
                     idx, agg)
    assert agg.samples_error == 3 and agg.samples_pass == 0
    assert agg.errors[0]["error"] == "Singular matrix"
    assert not agg.passed
    rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                     sigma="1+0.1*x1", samples=3,
                                     identities=["corollary-psh"]))
    assert rep["per_identity"][0]["samples_error"] == 3
    assert rep["verdict"] == "fail"


NOT_PHWC = {name: "scenario is not PHWC" for name in ALL_IDENTITIES[1:]}
NO_FIBERS = {name: "scenario has no fibers (m = 2n)" for name in
             ("koszul-vertical", "mean-curvature", "corollary-psh",
              "corollary-phh")}


# at n = 1 corollary-phh is checked for every sigma (PHH is kept there)
@pytest.mark.parametrize("scenario, sigma, expected", [
    ("flat-projection-4-2", "1+0.1*x1", {}),
    ("flat-projection-4-2", "2", {}),
    ("flat-projection-6-4", "1+0.1*x1", {}),
    ("holomorphic-poly", "1+0.1*x1", {"corollary-phh": "scenario is not PHH"}),
    ("nonphwc-anisotropic", "1+0.1*x1", NOT_PHWC),
    ("curved-fibers-nonharmonic", "1+0.1*x1",
     {"pullback": "scenario is not harmonic"}),
    ("hopf", "1+0.1*x1", {"corollary-phh": "scenario is not PHH"}),
    ("flat-projection-2-2", "1+0.1*x1", NO_FIBERS),
])
def test_skipped_identities_follow_the_table(monkeypatch, scenario, sigma,
                                             expected):
    if scenario == "flat-projection-2-2":
        # no bundled scenario has m = 2n
        square = scenarios._flat_projection(2, 2, scenario)
        monkeypatch.setattr(scenarios, "get_scenario", lambda name: square)
    rep = run_verification(RunConfig(scenario=scenario, sigma=sigma,
                                     samples=1))
    assert {row["name"]: row["reason"]
            for row in rep["skipped_identities"]} == expected
    assert [row["name"] for row in rep["per_identity"]] == [
        name for name in ALL_IDENTITIES if name not in expected]


def test_benchmark_tracer_finds_every_target():
    # perfbench/tracer.py raises LookupError on a renamed function or method
    code = ("from tracer import SETUP_TARGETS, TARGETS, Tracer; "
            "Tracer(TARGETS).install(); Tracer(SETUP_TARGETS).install()")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the layers that a flat-projection-6-4 run reaches
TRACED_LAYERS = ("jets.Jet2", "maps.SmoothMap.jets", "maps.differential",
                 "maps.horizontal_projector", "maps.tension_field",
                 "maps.mean_curvature_vertical",
                 "manifold.JetMetric.matrix_and_derivs", "manifold.metric_at",
                 "hermitian.f_structure", "hermitian.d_f_structure",
                 "hermitian.phh_defect", "hermitian.phwc_defect",
                 "hermitian.f_divergence_horizontal", "exprs.eval_jet")


def test_benchmark_tracer_sees_every_layer_a_run_reaches():
    # a traced name that a run no longer calls would read 0 in the benchmark
    code = (
        "import json\n"
        "from tracer import TARGETS, Tracer\n"
        "from phmorph import maps\n"
        "from phmorph.runner import RunConfig, run_verification\n"
        "shapes, jets = [], maps.SmoothMap.jets\n"
        "maps.SmoothMap.jets = lambda self, p: (shapes.append(p.shape)\n"
        "                                       or jets(self, p))\n"
        "tracer = Tracer(TARGETS)\n"
        "tracer.install()\n"
        "rep = run_verification(RunConfig(scenario='flat-projection-6-4', "
        "sigma='exp(0.2*x1)', rho='1+0.1*x5^2', samples=2))\n"
        "calls = {}\n"
        "for nid in tracer.name_col:\n"
        "    name = tracer.span_names[nid]\n"
        "    calls[name] = calls.get(name, 0) + 1\n"
        "print(json.dumps({'verdict': rep['verdict'], 'calls': calls, "
        "'shapes': shapes, "
        "'points': {k: len(v) for k, v in tracer.points.items()}}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["verdict"] == "pass"
    assert {name: out["calls"].get(name, 0) > 0
            for name in TRACED_LAYERS} == dict.fromkeys(TRACED_LAYERS, True)
    # one evaluation of the map's jets, over both points
    assert out["calls"]["maps.SmoothMap.jets"] == 1
    assert out["shapes"] == [[2, 6]]
    assert out["points"]["maps.SmoothMap.jets"] == 1


def test_a_run_keeps_the_fields_no_change_alters_in_the_source_only(
        monkeypatch):
    # g-bar keeps phi's horizontal space: a run reads the map's data, the
    # target's and the projectors and lift once per point, in the source
    # geometry, and keeps no copy of them under a change
    seen = []
    inner = runner.run_identity

    def recording(name, run, geo, idx, agg):
        seen.append(geo)
        return inner(name, run, geo, idx, agg)

    monkeypatch.setattr(runner, "run_identity", recording)
    rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                     sigma="exp(0.2*x1)", rho="1+0.1*x5^2",
                                     samples=4))
    assert rep["verdict"] == "pass"
    keys = {key for geo in seen for key in geo._fields}
    under_a_change = {name for change, name in keys if change is not None}
    assert "christoffel" in under_a_change
    assert under_a_change.isdisjoint(KEPT_IN_SOURCE)
    assert {name for change, name in keys if change is None} >= set(
        KEPT_IN_SOURCE)


def test_a_run_keeps_only_the_current_points_geometries(monkeypatch):
    # no geometry outlives its chunk: while a check runs, the geometries
    # alive are those of its chunk's points, and none are once the run
    # returns, so the memory its geometries hold does not grow with its
    # sample count (its sample points, all drawn first, do).  No
    # geometry refers to those built from it, so reference counting frees
    # them, with the cycle collector off
    built = []
    init = maps.LocalGeometry.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    def alive_points():
        return {q for ref in built if ref() is not None for q in rows(ref().p)}

    seen = []
    check = runner.run_identity

    def probing(name, run, geo, idx, agg):
        seen.append((set(rows(geo.p)), alive_points()))
        return check(name, run, geo, idx, agg)

    monkeypatch.setattr(maps.LocalGeometry, "__init__", tracking)
    monkeypatch.setattr(runner, "run_identity", probing)
    monkeypatch.setattr(runner, "CHUNK", 3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = run_verification(RunConfig(scenario="flat-projection-6-4",
                                         sigma="exp(0.2*x1)",
                                         rho="1+0.1*x5^2", samples=5))
        assert rep["verdict"] == "pass"
        assert [len(chunk) for chunk, _ in seen] == (
            [3] * len(ALL_IDENTITIES) + [2] * len(ALL_IDENTITIES))
        assert all(alive == chunk for chunk, alive in seen)
        assert alive_points() == set()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("option", ["sigma", "rho", "special_sigma"])
def test_variable_outside_the_chart_is_a_config_error(option):
    config = RunConfig(scenario="flat-projection-6-4",
                       **{option: "1+0.1*x7"})
    with pytest.raises(ValueError, match="x7"):
        run_verification(config)
    config = RunConfig(scenario="flat-projection-6-4",
                       **{option: "1+0.1*x6^2"})
    config.build_change(get_scenario(config.scenario))


# ---- the LAPACK routines a run calls --------------------------------------

with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
    PERFBENCH_ARGS = {name: spec["args"] for name, spec in
                      json.load(fh)["workloads"].items()}


def spied_lapack(monkeypatch):
    """Counts of the calls a run makes to ``np.linalg.eigvalsh``, ``svd``
    and ``cholesky``, and of its rank certificates (``maps`` calling
    ``certified_above``)."""
    calls = dict.fromkeys(("eigvalsh", "svd", "cholesky", "rank"), 0)

    def counting(name, inner):
        def spy(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return spy

    for name in ("eigvalsh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(maps, "certified_above",
                        counting("rank", maps.certified_above))
    return calls


@pytest.mark.parametrize("workload", sorted(PERFBENCH_ARGS))
def test_a_passing_run_calls_neither_eigvalsh_nor_svd(monkeypatch, workload):
    # each LAPACK routine a run calls is paged into its process: Cholesky
    # certifies every metric positive definite and phi of full rank, once
    # per chunk (of 2 points and of 1)
    calls = spied_lapack(monkeypatch)
    monkeypatch.setattr(runner, "CHUNK", 2)
    rep = run_verification(RunConfig(**PERFBENCH_ARGS[workload], samples=3))
    assert rep["verdict"] == "pass"
    assert (calls["eigvalsh"], calls["svd"], calls["rank"]) == (0, 0, 2)
    assert calls["cholesky"] > 0


# the identities that read g-bar
READ_G_BAR = ("tension-transform", "koszul-horizontal", "koszul-vertical",
              "mean-curvature", "f-divergence", "phh-covariant",
              "corollary-psh", "corollary-phh")


def test_a_metric_below_the_floor_is_judged_by_eigvalsh(monkeypatch):
    # sigma = 1e7 gives g-bar the least eigenvalue sigma^-2 = 1e-14, below
    # the floor 1e-12: the certificate fails, and eigvalsh gives each point
    # the error it gave before the certificate
    def as_dict(self):
        return dict(inner(self), errors=self.errors)

    inner = IdentityAggregate.as_dict
    monkeypatch.setattr(IdentityAggregate, "as_dict", as_dict)
    calls = spied_lapack(monkeypatch)
    config = RunConfig(scenario="flat-projection-4-2", sigma="1e7", samples=3)
    rep = run_verification(config)
    assert calls["eigvalsh"] > 0 and calls["svd"] == 0
    points = sample_points(get_scenario(config.scenario), 3, config.seed)
    assert {row["name"]: row["errors"] for row in rep["per_identity"]} == {
        name: [{"point": p.tolist(),
                "error": "metric not positive definite at %s (min "
                         "eigenvalue 1e-14)" % (p.tolist(),)}
               for p in points] if name in READ_G_BAR else []
        for name in ALL_IDENTITIES}
    assert rep["verdict"] == "fail"
