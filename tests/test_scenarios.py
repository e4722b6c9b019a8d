"""Bundled geometries: registry, sampling, flags and self-consistency."""

import numpy as np
import pytest

import phmorph as pm
from phmorph import (LocalGeometry, confirm_flags, differential, get_scenario,
                     list_scenarios, sample_points)
from phmorph.scenarios import standard_J


EXPECTED_NAMES = {
    "curved-fibers-nonharmonic",
    "flat-projection-4-2",
    "flat-projection-6-4",
    "holomorphic-poly",
    "hopf",
    "nonphwc-anisotropic",
}


def test_registry_contents_and_order():
    names = list_scenarios()
    assert set(names) == EXPECTED_NAMES
    assert names == sorted(names)


def test_unknown_scenario_raises_with_listing():
    with pytest.raises(KeyError) as exc:
        get_scenario("does-not-exist")
    assert "flat-projection-4-2" in str(exc.value)


def test_sampling_is_deterministic():
    sc = get_scenario("holomorphic-poly")
    a = sample_points(sc, 15, seed=3)
    b = sample_points(sc, 15, seed=3)
    assert np.array_equal(np.array(a), np.array(b))
    c = sample_points(sc, 15, seed=4)
    assert not np.array_equal(np.array(a), np.array(c))


def test_sampling_respects_exclusions():
    # the polynomial scenario excludes near-critical points of the map
    sc = get_scenario("holomorphic-poly")
    for p in sample_points(sc, 30, seed=3):
        assert not sc.excluded(p)
        sv = np.linalg.svd(differential(LocalGeometry(sc.phi, p)),
                           compute_uv=False)
        assert sv[-1] >= 0.1


def test_self_checks_pass():
    for name in list_scenarios():
        sc = get_scenario(name)
        ok, msg = sc.self_check()
        assert ok, (name, msg)


def test_hopf_chart_is_a_riemannian_submersion():
    # dphi o dphi* should be the identity on the target tangent space, which
    # pins both chart metrics and the map formula at once
    sc = get_scenario("hopf")
    for p in sample_points(sc, 5, seed=2):
        geo = LocalGeometry(sc.phi, p)
        A = differential(geo)
        ginv = sc.phi.source.inverse_metric_at(p)
        h = sc.phi.target.metric_at(geo.map_jets[0])
        assert np.allclose(A @ ginv @ A.T @ h, np.eye(2), atol=1e-9)


def test_holomorphic_scenario_satisfies_cauchy_riemann():
    # dphi o J_source = J_target o dphi in the first complex coordinate pair
    sc = get_scenario("holomorphic-poly")
    J4 = standard_J(4)
    J2 = standard_J(2)
    for p in sample_points(sc, 5, seed=2):
        A = differential(LocalGeometry(sc.phi, p))
        assert np.allclose(A @ J4, J2 @ A, atol=1e-10)


def test_confirm_flags_positive_and_negative():
    points = {}
    for name in ("flat-projection-4-2", "nonphwc-anisotropic",
                 "curved-fibers-nonharmonic"):
        phi = get_scenario(name).phi
        points[name] = [LocalGeometry(phi, [p]) for p in
                        sample_points(get_scenario(name), 6, seed=5)]
    flags = confirm_flags(get_scenario("flat-projection-4-2"),
                          points["flat-projection-4-2"])
    assert all(v["confirmed"] for v in flags.values())
    flags = confirm_flags(get_scenario("nonphwc-anisotropic"),
                          points["nonphwc-anisotropic"])
    assert flags["phwc"]["expected"] is False
    assert flags["phwc"]["confirmed"]
    flags = confirm_flags(get_scenario("curved-fibers-nonharmonic"),
                          points["curved-fibers-nonharmonic"])
    assert flags["harmonic"]["expected"] is False
    assert flags["harmonic"]["confirmed"]


def test_scenario_dimension_bookkeeping(all_scenarios):
    for name, sc in all_scenarios.items():
        assert sc.phi.m > sc.phi.two_n or name == "holomorphic-poly" or \
            sc.phi.m >= sc.phi.two_n
        assert sc.phi.two_n % 2 == 0
        assert sc.optional == (name == "hopf")


def test_points_lie_in_domain(all_scenarios, points_for):
    for sc in all_scenarios.values():
        for p in points_for(sc, 10, 7):
            sc.phi.source.check_in_domain(p)
