"""Bundled geometries: registry, sampling, flags and self-consistency."""

import numpy as np
import pytest

from phmorph import (LocalGeometry, confirm_flags, differential, get_scenario,
                     list_scenarios, sample_points, scenarios)
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
    # a hopf candidate among the first `count` attempts falls outside the
    # domain; at seed 2906 both attempts of the first block of 2 do, so the
    # one point comes from the second block in one call and from the first
    # block of 50 in the other
    sc = get_scenario("hopf")
    lo, hi = sc.source.sample_region
    for count, seed in [(10, 11), (1, 2906)]:
        first = lo + (hi - lo) * uniform(seed, np.arange(count)[:, None], 3)
        few, more = sample_points(sc, count, seed), sample_points(sc, 25, seed)
        assert not np.array_equal(np.array(few), first)
        assert np.array_equal(np.array(few), np.array(more[:count]))


def _hopf_in_domain(p):
    # |w|^2 > 0.05 on the unit 3-sphere, on Python floats
    x1, x2, x3 = (float(v) for v in p)
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    denom = (1.0 + r2) * (1.0 + r2)
    return (4.0 * x3 * x3 + (r2 - 1.0) * (r2 - 1.0)) / denom > 0.05


def _holomorphic_excluded(p):
    # the singular values of dphi, through Python's complex abs
    z, w = complex(p[0], p[1]), complex(p[2], p[3])
    return abs(2.0 * z) ** 2 + abs(3.0 * w * w) ** 2 < 0.01


# scenario -> (in domain, excluded) at one point, on Python scalars
SCALAR_PREDICATES = {
    "hopf": (_hopf_in_domain, lambda p: False),
    "holomorphic-poly": (lambda p: True, _holomorphic_excluded),
}


def _reference_points(sc, count, seed):
    """Rejection sampling one candidate at a time, with scalar predicates,
    drawing candidate k from ``uniform(seed, [[k]], m)``: (points, number
    of rejected candidates)."""
    in_domain, excluded = SCALAR_PREDICATES.get(
        sc.name, (lambda p: True, lambda p: False))
    lo, hi = sc.source.sample_region
    points, rejected = [], 0
    for start in range(0, 1000 * count, count):
        keys = np.arange(start, start + count)[:, None]
        for p in lo + (hi - lo) * uniform(seed, keys, len(lo)):
            if in_domain(p) and not excluded(p):
                points.append(p)
                if len(points) == count:
                    return points, rejected
            else:
                rejected += 1
    raise AssertionError("reference sampling exhausted")


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_array_predicates_keep_the_sample_points(name):
    sc = get_scenario(name)
    rejected = 0
    for seed in range(50):
        for count in (1, 5, 20, 64, 100):
            expected, more = _reference_points(sc, count, seed)
            rejected += more
            assert np.array_equal(np.array(sample_points(sc, count, seed)),
                                  np.array(expected)), (seed, count)
    assert (rejected > 0) == (name == "hopf")


@pytest.mark.parametrize("name, box", [
    ("hopf", (-0.75, 0.75)),
    # around the critical point of z^2 + w^3, where about half is excluded
    ("holomorphic-poly", (-0.05, 0.05)),
])
def test_array_predicates_match_the_scalar_ones(name, box):
    # row by row on 2,000 points, most near the predicate's boundary
    sc = get_scenario(name)
    in_domain, excluded = SCALAR_PREDICATES[name]
    p = box[0] + (box[1] - box[0]) * uniform(1, np.arange(2000)[:, None],
                                             sc.phi.m)
    if name == "holomorphic-poly":
        p[:, 2:] *= 6.0
    keep = sc.source.domain_predicate(p) & ~sc.excluded(p)
    assert keep.dtype == bool and keep.shape == (2000,)
    assert 0.2 < keep.mean() < 0.98
    assert keep.tolist() == [in_domain(q) and not excluded(q) for q in p]


@pytest.mark.parametrize("count, seed", [(0, 1), (1, -1)])
def test_a_zero_count_or_a_negative_seed_is_rejected(count, seed):
    # a negative seed would otherwise hash as its two's complement limbs
    with pytest.raises(ValueError):
        sample_points(get_scenario("flat-projection-4-2"), count, seed)


def test_an_exhausted_sample_region_raises():
    sc = get_scenario("flat-projection-4-2")._replace(
        excluded=lambda p: np.ones(p.shape[:-1], bool))
    with pytest.raises(GeometryError) as exc:
        sample_points(sc, 2, seed=0)
    assert str(exc.value) == "sample region exhausted after 2000 attempts"


@pytest.mark.parametrize("count, blocks", [
    (2, [4] * 500),
    # 3,000,000 attempts: 732 blocks of 4,096, the last one cut at 1,728
    (3000, [4096] * 732 + [1728]),
])
def test_candidates_are_drawn_in_bounded_blocks_up_to_the_budget(
        monkeypatch, count, blocks):
    drawn = []

    def recording(seed, keys, columns):
        drawn.append((int(keys[0, 0]), len(keys)))
        return np.zeros((len(keys), columns))

    monkeypatch.setattr(scenarios, "uniform", recording)
    sc = get_scenario("flat-projection-4-2")._replace(
        excluded=lambda p: np.ones(p.shape[:-1], bool))
    with pytest.raises(GeometryError) as exc:
        sample_points(sc, count, seed=0)
    assert str(exc.value) == ("sample region exhausted after %d attempts"
                              % (1000 * count))
    assert drawn == list(zip(np.cumsum([0] + blocks[:-1]).tolist(), blocks))


def test_sampling_respects_exclusions():
    # half of the box is excluded: candidates fall there, and none is
    # returned (a sampler that ignored ``excluded`` would return about half
    # of its points there, as the unrestricted scenario does)
    plain = get_scenario("flat-projection-4-2")
    drawn = []

    def right_half(p):
        drawn.extend(p[..., 0] > 0)
        return p[..., 0] > 0

    half = plain._replace(excluded=right_half)
    points = np.array(sample_points(half, 30, seed=3))
    assert sum(drawn) >= 10
    assert not np.any(points[:, 0] > 0)
    assert np.count_nonzero(
        np.array(sample_points(plain, 30, seed=3))[:, 0] > 0) >= 10
    # the polynomial scenario excludes near-critical points of the map
    sc = get_scenario("holomorphic-poly")
    for p in sample_points(sc, 30, seed=3):
        assert not sc.excluded(p)
        sv = np.linalg.svd(differential(LocalGeometry(sc.phi, p)),
                           compute_uv=False)
        assert sv[-1] >= 0.1


def test_hopf_chart_is_a_riemannian_submersion():
    # dphi g^-1 dphi^T h = I on the target tangent space, which pins both
    # chart metrics and the map formula at once; no run checks it, and no
    # law or flag sees a constant scale of the target metric.  Read from a
    # batch's fields, as a run reads a chunk, to 1e-8 in max-abs
    sc = get_scenario("hopf")
    for count, seed in [(20, 3), (100, 3), (20, 42), (100, 42), (1000, 0)]:
        geo = LocalGeometry(sc.phi, sample_points(sc, count, seed))
        a = differential(geo)
        defect = np.abs(a @ geo.ginv @ a.mT @ geo.h - np.eye(2)).max()
        assert defect <= 1e-8, (count, seed, defect)


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


def test_points_lie_in_domain(all_scenarios, points_for):
    for sc in all_scenarios.values():
        for p in points_for(sc, 10, 7):
            sc.phi.source.check_in_domain(p)
