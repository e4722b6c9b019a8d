"""Bundled geometries: registry, sampling, flags and self-consistency."""

import dataclasses

import numpy as np
import pytest

import phmorph as pm
from phmorph import (LocalGeometry, confirm_flags, differential, get_scenario,
                     list_scenarios, sample_points)
from phmorph.manifold import GeometryError
from phmorph.scenarios import standard_J, uniform


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


def test_fewer_samples_are_a_prefix_of_more():
    # a hopf candidate among the first ten attempts at seed 11 falls outside
    # the domain, so the tenth point comes from the second block of 10
    # attempts in one call and from the first block of 25 in the other
    sc = get_scenario("hopf")
    lo, hi = sc.source.sample_region
    first = lo + (hi - lo) * uniform(11, np.arange(10)[:, None], 3)
    few, more = sample_points(sc, 10, seed=11), sample_points(sc, 25, seed=11)
    assert not np.array_equal(np.array(few), first)
    assert np.array_equal(np.array(few), np.array(more[:10]))


@pytest.mark.parametrize("count, seed", [(0, 1), (1, -1)])
def test_a_zero_count_or_a_negative_seed_is_rejected(count, seed):
    # a negative seed would otherwise hash as its two's complement limbs
    with pytest.raises(ValueError):
        sample_points(get_scenario("flat-projection-4-2"), count, seed)


def test_an_exhausted_sample_region_raises():
    sc = dataclasses.replace(get_scenario("flat-projection-4-2"),
                             excluded=lambda p: True)
    with pytest.raises(GeometryError) as exc:
        sample_points(sc, 2, seed=0)
    assert str(exc.value) == "sample region exhausted after 2000 attempts"


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
