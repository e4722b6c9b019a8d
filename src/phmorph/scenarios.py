"""Bundled example geometries with known PHWC / PHH / harmonicity status,
plus deterministic sample-point generation.  ``excluded`` and the source's
``domain_predicate`` map points (..., m) to a bool array (...).  Each map
carries its target's standard constant J (``constant_J``).  A run reads a
scenario's construction as given: the test suite checks each one (hopf's
map, for one, is a Riemannian submersion)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .manifold import (ChartedRiemannianManifold, GeometryError, JetMetric,
                       euclidean_space)
from .maps import LocalGeometry, SmoothMap
from .hermitian import AlmostComplexStructureField


@dataclass
class Scenario:
    name: str
    phi: SmoothMap
    expected_flags: Dict[str, Optional[bool]]
    excluded: Callable = field(default=lambda p: np.zeros(p.shape[:-1], bool))
    description: str = ""

    @property
    def source(self) -> ChartedRiemannianManifold:
        return self.phi.source

    def self_check(self, geo: LocalGeometry):
        """(ok, message) of a construction check at the rows of ``geo``,
        which no bundled scenario has: a run does not call it, and the test
        suite checks each construction."""
        return True, ""


def standard_J(two_n: int) -> np.ndarray:
    """Rotation by +90 degrees in each consecutive coordinate pair."""
    j = np.zeros((two_n, two_n))
    for a in range(two_n // 2):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    return j


def constant_J(target: ChartedRiemannianManifold) -> AlmostComplexStructureField:
    j = standard_J(target.dim)
    return AlmostComplexStructureField(target, lambda coords: j.tolist())


def _projection_map(source, target, indices):
    def components(coords):
        return [coords[i] for i in indices]

    return SmoothMap(source, target, components, constant_J(target))


def _flat_projection(m: int, two_n: int, name: str) -> Scenario:
    source = euclidean_space(m)
    target = euclidean_space(two_n)
    phi = _projection_map(source, target, range(two_n))
    return Scenario(
        name, phi,
        expected_flags={"phwc": True, "phh": True, "harmonic": True},
        description="orthogonal projection of flat space onto a flat "
                    "complex factor (totally geodesic fibers)")


def _nonphwc_anisotropic() -> Scenario:
    source = euclidean_space(4)
    target = euclidean_space(2)

    def components(coords):
        return [coords[0], 2.0 * coords[1]]

    phi = SmoothMap(source, target, components, constant_J(target))
    return Scenario(
        "nonphwc-anisotropic", phi,
        expected_flags={"phwc": False, "phh": None, "harmonic": True},
        description="anisotropic stretch (x1, 2 x2); harmonic but the induced "
                    "horizontal structure is not metric compatible")


def _holomorphic_poly() -> Scenario:
    source = euclidean_space(4)
    target = euclidean_space(2)

    def components(coords):
        z1, z2, w1, w2 = coords
        re = z1 * z1 - z2 * z2 + w1 * w1 * w1 - 3.0 * w1 * w2 * w2
        im = 2.0 * z1 * z2 + 3.0 * w1 * w1 * w2 - w2 * w2 * w2
        return [re, im]

    phi = SmoothMap(source, target, components, constant_J(target))

    def excluded(p):
        # both singular values of dphi are |(df/dz, df/dw)| = |(2z, 3w^2)|;
        # in closed form, so that sampling evaluates no jets of the map
        z = p[..., 0] + 1j * p[..., 1]
        w = p[..., 2] + 1j * p[..., 3]
        return np.abs(2.0 * z) ** 2 + np.abs(3.0 * w * w) ** 2 < 0.01

    return Scenario(
        "holomorphic-poly", phi,
        expected_flags={"phwc": True, "phh": None, "harmonic": True},
        excluded=excluded,
        description="holomorphic z^2 + w^3 from flat C^2 to flat C, away "
                    "from its critical point")


def _curved_fibers_nonharmonic() -> Scenario:
    def metric_fn(coords):
        from .jets import exp
        u = exp(2.0 * coords[0])
        return [[1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, u, 0.0],
                [0.0, 0.0, 0.0, u]]

    source = ChartedRiemannianManifold(
        4, JetMetric(4, metric_fn),
        sample_region=(-np.ones(4), np.ones(4)))
    target = euclidean_space(2)
    phi = _projection_map(source, target, range(2))
    return Scenario(
        "curved-fibers-nonharmonic", phi,
        expected_flags={"phwc": True, "phh": True, "harmonic": False},
        description="flat projection with exponentially weighted fibers; "
                    "PHWC and PHH but the fibers are not minimal")


def _hopf() -> Scenario:
    # unit 3-sphere in an inverse-stereographic chart over R^3
    def source_metric(coords):
        r2 = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
        conf = 4.0 / ((1.0 + r2) * (1.0 + r2))
        return [[conf, 0.0, 0.0], [0.0, conf, 0.0], [0.0, 0.0, conf]]

    def domain(p):
        # |w|^2 > 0.05 where the chart point maps to (z, w) on the unit sphere
        x1, x2, x3 = np.moveaxis(p, -1, 0)
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        denom = (1.0 + r2) * (1.0 + r2)
        return (4.0 * x3 * x3 + (r2 - 1.0) * (r2 - 1.0)) / denom > 0.05

    source = ChartedRiemannianManifold(
        3, JetMetric(3, source_metric), domain_predicate=domain,
        sample_region=(-0.75 * np.ones(3), 0.75 * np.ones(3)))

    # 2-sphere of radius 1/2 in a stereographic chart
    def target_metric(coords):
        r2 = coords[0] * coords[0] + coords[1] * coords[1]
        conf = 1.0 / ((1.0 + r2) * (1.0 + r2))
        return [[conf, 0.0], [0.0, conf]]

    target = ChartedRiemannianManifold(
        2, JetMetric(2, target_metric),
        sample_region=(-3.0 * np.ones(2), 3.0 * np.ones(2)))

    def components(coords):
        x1, x2, x3 = coords
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        denom = 1.0 + r2
        u1 = 2.0 * x1 / denom
        u2 = 2.0 * x2 / denom
        u3 = 2.0 * x3 / denom
        u4 = (r2 - 1.0) / denom
        # z w-conjugate in complex form, then stereographic projection of the
        # image point on the radius-1/2 sphere
        p1 = u1 * u3 + u2 * u4
        p2 = u2 * u3 - u1 * u4
        w_sq = u3 * u3 + u4 * u4  # equals 1/2 - P3
        return [p1 / w_sq, p2 / w_sq]

    phi = SmoothMap(source, target, components, constant_J(target))
    return Scenario(
        "hopf", phi,
        expected_flags={"phwc": True, "phh": None, "harmonic": True},
        description="Hopf fibration of the unit 3-sphere over the radius-1/2 "
                    "sphere, in stereographic charts (Riemannian submersion "
                    "control)")


_BUILDERS = {
    "flat-projection-4-2": lambda: _flat_projection(4, 2, "flat-projection-4-2"),
    "flat-projection-6-4": lambda: _flat_projection(6, 4, "flat-projection-6-4"),
    "holomorphic-poly": _holomorphic_poly,
    "nonphwc-anisotropic": _nonphwc_anisotropic,
    "curved-fibers-nonharmonic": _curved_fibers_nonharmonic,
    "hopf": _hopf,
}


def list_scenarios():
    return sorted(_BUILDERS)


def get_scenario(name: str) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError("unknown scenario %r; available: %s"
                       % (name, ", ".join(list_scenarios())))
    return builder()


# SplitMix64's increment and finalizer multipliers (Steele, Lea & Flood 2014)
_GAMMA, _C1, _C2 = (np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _output(state, counter):
    """Output ``counter`` (from 0) of the SplitMix64 stream seeded with
    ``state``: the finalizer at state + (counter + 1) * gamma.  On uint64
    arrays, which wrap silently where numpy scalars warn."""
    z = state + _GAMMA * (counter + np.uint64(1))
    z = (z ^ (z >> np.uint64(30))) * _C1
    z = (z ^ (z >> np.uint64(27))) * _C2
    return z ^ (z >> np.uint64(31))


def uniform(seed: int, keys, columns: int) -> np.ndarray:
    """Doubles in [0, 1), one row per row of the integer array ``keys`` and
    ``columns`` a row, entry (r, j) a function of (seed, keys[r], j) alone:
    each 64-bit limb of the seed, then each key, picks the output of a
    SplitMix64 stream that seeds the next stream, and column j is output j
    of the last."""
    words = [np.full(len(keys), seed >> s & 2 ** 64 - 1, np.uint64)
             for s in range(0, max(seed.bit_length(), 1), 64)]
    state = np.zeros(len(keys), dtype=np.uint64)
    for word in words + list(np.asarray(keys, np.uint64).T):
        state = _output(state, word)
    counter = np.arange(columns, dtype=np.uint64)
    return (_output(state[:, None], counter) >> np.uint64(11)) * 2.0 ** -53


def sample_points(scenario: Scenario, count: int, seed: int):
    """(count, m) points by deterministic rejection sampling in the chart box,
    at most 1,000 attempts per requested point.  Candidate k is drawn from
    ``uniform(seed, [[k]], m)`` alone, so a smaller count gives a prefix.
    Candidates are drawn and tested in blocks of min(2 * count, 4096)."""
    if count < 1 or seed < 0:
        raise ValueError("count must be >= 1 and seed >= 0")
    lo, hi = scenario.source.sample_region
    points, kept = np.empty((count, len(lo))), 0
    budget, size = count * 1000, min(2 * count, 4096)
    for start in range(0, budget, size):
        keys = np.arange(start, min(start + size, budget))[:, None]
        block = lo + (hi - lo) * uniform(seed, keys, len(lo))
        block = block[np.logical_and(
            scenario.source.domain_predicate(block),
            np.logical_not(scenario.excluded(block)))][:count - kept]
        points[kept:kept + len(block)] = block
        kept += len(block)
        if kept == count:
            return points
    raise GeometryError("sample region exhausted after %d attempts" % budget)
