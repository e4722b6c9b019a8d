"""Bundled example geometries with known PHWC / PHH / harmonicity status,
plus deterministic sample-point generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .jets import first
from .manifold import (ChartedRiemannianManifold, GeometryError, JetMetric,
                       euclidean_space)
from .maps import LocalGeometry, SmoothMap, differential
from .hermitian import AlmostComplexStructureField


@dataclass
class Scenario:
    name: str
    phi: SmoothMap
    J: AlmostComplexStructureField
    expected_flags: Dict[str, Optional[bool]]
    excluded: Callable = field(default=lambda p: False)
    optional: bool = False
    description: str = ""

    @property
    def source(self) -> ChartedRiemannianManifold:
        return self.phi.source

    @property
    def target(self) -> ChartedRiemannianManifold:
        return self.phi.target

    def self_check(self):
        """Construction sanity for optional scenarios; (ok, message)."""
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

    def fn(coords):
        return [[j[a, b] for b in range(target.dim)]
                for a in range(target.dim)]

    return AlmostComplexStructureField(target, fn)


def _projection_map(source, target, indices):
    def components(coords):
        return [coords[i] for i in indices]

    return SmoothMap(source, target, components)


def _flat_projection(m: int, two_n: int, name: str) -> Scenario:
    source = euclidean_space(m)
    target = euclidean_space(two_n)
    phi = _projection_map(source, target, range(two_n))
    return Scenario(
        name, phi, constant_J(target),
        expected_flags={"phwc": True, "phh": True, "harmonic": True},
        description="orthogonal projection of flat space onto a flat "
                    "complex factor (totally geodesic fibers)")


def _nonphwc_anisotropic() -> Scenario:
    source = euclidean_space(4)
    target = euclidean_space(2)

    def components(coords):
        return [coords[0], 2.0 * coords[1]]

    phi = SmoothMap(source, target, components)
    return Scenario(
        "nonphwc-anisotropic", phi, constant_J(target),
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

    phi = SmoothMap(source, target, components)

    def excluded(p):
        # both singular values of dphi are |(df/dz, df/dw)| = |(2z, 3w^2)|;
        # in closed form, so that sampling evaluates no jets of the map
        z, w = complex(p[0], p[1]), complex(p[2], p[3])
        return abs(2.0 * z) ** 2 + abs(3.0 * w * w) ** 2 < 0.01

    return Scenario(
        "holomorphic-poly", phi, constant_J(target),
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
        "curved-fibers-nonharmonic", phi, constant_J(target),
        expected_flags={"phwc": True, "phh": True, "harmonic": False},
        description="flat projection with exponentially weighted fibers; "
                    "PHWC and PHH but the fibers are not minimal")


class _HopfScenario(Scenario):
    def self_check(self, tol: float = 1e-8, count: int = 5):
        """The horizontal differential must be an isometry (Riemannian
        submersion control)."""
        geo = LocalGeometry(self.phi, sample_points(self, count, seed=7))
        a = differential(geo)
        defect = np.abs(a @ geo.ginv @ a.mT @ geo.h
                        - np.eye(2)).max(axis=(-2, -1))
        bad = defect > tol
        if np.count_nonzero(bad):
            return False, ("horizontal differential is not an isometry at %s "
                           "(defect %g)" % (first(geo.p, bad).tolist(),
                                            first(defect, bad)))
        return True, ""


def _hopf() -> Scenario:
    # unit 3-sphere in an inverse-stereographic chart over R^3
    def source_metric(coords):
        r2 = coords[0] * coords[0] + coords[1] * coords[1] + coords[2] * coords[2]
        conf = 4.0 / ((1.0 + r2) * (1.0 + r2))
        return [[conf, 0.0, 0.0], [0.0, conf, 0.0], [0.0, 0.0, conf]]

    def fiber_coordinate(coords):
        # |w|^2 where the chart point maps to (z, w) on the unit 3-sphere
        x1, x2, x3 = coords
        r2 = x1 * x1 + x2 * x2 + x3 * x3
        denom = (1.0 + r2) * (1.0 + r2)
        return (4.0 * x3 * x3 + (r2 - 1.0) * (r2 - 1.0)) / denom

    def domain(p):
        return fiber_coordinate([float(v) for v in p]) > 0.05

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

    phi = SmoothMap(source, target, components)
    return _HopfScenario(
        "hopf", phi, constant_J(target),
        expected_flags={"phwc": True, "phh": None, "harmonic": True},
        optional=True,
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


def sample_points(scenario: Scenario, count: int, seed: int,
                  max_attempts_per_point: int = 1000):
    """Deterministic rejection sampling inside the scenario's chart box."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = scenario.source.sample_region
    points = []
    attempts = 0
    budget = count * max_attempts_per_point
    while len(points) < count:
        if attempts >= budget:
            raise GeometryError("sample region exhausted after %d attempts"
                                % attempts)
        attempts += 1
        p = rng.uniform(lo, hi)
        if not scenario.source.domain_predicate(p):
            continue
        if scenario.excluded(p):
            continue
        points.append(p)
    return points
