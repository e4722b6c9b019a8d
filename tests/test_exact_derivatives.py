"""Exact first derivatives against Richardson finite differences.

The engine differentiates the projector algebra in closed form: d g-bar,
d P_H, d F and the frame-free fiber mean curvature.  Here each is checked,
on every bundled scenario at its sample points and under both g and a
biconformal change g-bar, against an oracle built only from values at
displaced points: ``FDMetric`` and ``directional_derivative``, with the
projector, the lift and the vertical frames recomputed from the metric's
matrix at each point.
"""

from dataclasses import replace

import numpy as np
import pytest

import phmorph.jets as jets
from phmorph import (AlmostComplexStructureField, ChangedMetric, FDMetric,
                     LocalGeometry, differential,
                     f_structure, get_scenario, list_scenarios,
                     mean_curvature_vertical, sample_points)
from phmorph.hermitian import d_f_structure
from phmorph.manifold import directional_derivative
from tests.test_maps import at, with_j

# The largest difference is read relative to the oracle's largest entry, or
# to 0.1 where that is smaller (a flat projection's dP_H is exactly zero).
# Measured: at most 7e-11, so the bound leaves the oracle's roundoff room.
REL = 1e-9


def relative(exact, oracle):
    exact, oracle = np.asarray(exact), np.asarray(oracle)
    return np.max(np.abs(exact - oracle)) / max(np.max(np.abs(oracle)), 0.1)


def change_for(sc):
    m = sc.phi.m
    return ChangedMetric.from_texts(sc.phi, "exp(0.2*x1+0.1*x%d)" % m,
                                    "1+0.2*x2^2+0.1*x%d^2" % m)


def metric_matrix(sc, gbar):
    """The matrix of g (gbar None) or of g-bar, as a function of the
    point."""
    return lambda q: at(sc.phi, q, gbar).g


def lift_from_matrix(phi, h, q):
    """g^-1 A^T (A g^-1 A^T)^-1 at q, from the metric's matrix alone."""
    a = differential(LocalGeometry(phi, q))
    hinv = np.linalg.inv(h(q))
    return hinv @ a.T @ np.linalg.inv(a @ hinv @ a.T)


def projector_from_matrix(phi, h, q):
    return lift_from_matrix(phi, h, q) @ differential(LocalGeometry(phi, q))


def vertical_frame(phi, h, q, seeds):
    """h-orthonormal vertical frame from fixed columns of P_V, so that it is
    a smooth field near the base point."""
    g = h(q)
    pv = np.eye(phi.m) - projector_from_matrix(phi, h, q)
    basis = []
    for idx in seeds:
        v = pv[:, idx].copy()
        for b in basis:
            v = v - (b @ g @ v) * b
        basis.append(v / np.sqrt(v @ g @ v))
    return np.array(basis)


def frame_seeds(phi, h, p):
    """Columns of P_V at p that give a well-conditioned frame: at each step
    the one with the largest part h-orthogonal to those already taken."""
    g = h(p)
    pv = np.eye(phi.m) - projector_from_matrix(phi, h, p)
    seeds, basis = [], []
    while len(seeds) < phi.m - phi.two_n:
        rest = pv.copy()
        for b in basis:
            rest = rest - np.outer(b, b @ g @ rest)
        norms = np.einsum("ij,ik,kj->j", rest, g, rest)
        idx = int(np.argmax(norms))
        seeds.append(idx)
        basis.append(rest[:, idx] / np.sqrt(norms[idx]))
    return seeds


def mean_curvature_oracle(phi, h, p):
    """(1 / (m - 2n)) sum_alpha H(nabla_{e_alpha} e_alpha) over a vertical
    frame field, with the frame differentiated and Gamma taken from
    Richardson differences of the metric's matrix."""
    seeds = frame_seeds(phi, h, p)
    gamma = FDMetric(phi.m, h)
    dh = gamma.matrix_and_derivs(p)[1]
    hinv = np.linalg.inv(h(p))
    bracket = dh + np.transpose(dh, (1, 0, 2)) - np.transpose(dh, (1, 2, 0))
    christoffel = 0.5 * np.einsum("kl,ijl->kij", hinv, bracket)
    ph = projector_from_matrix(phi, h, p)
    frame = vertical_frame(phi, h, p, seeds)
    total = np.zeros(phi.m)
    for alpha, e in enumerate(frame):
        de = directional_derivative(
            lambda q: vertical_frame(phi, h, q, seeds)[alpha], p, e)
        total += ph @ (de + np.einsum("kij,i,j->k", christoffel, e, e))
    return total / (phi.m - phi.two_n)


CASES = [(name, changed) for name in list_scenarios()
         for changed in (False, True)]
IDS = ["%s-%s" % (name, "gbar" if changed else "g") for name, changed in CASES]


def case(name, changed):
    sc = get_scenario(name)
    gbar = change_for(sc) if changed else None
    return sc, gbar, sample_points(sc, 3, seed=31)


@pytest.mark.parametrize("name, changed", CASES, ids=IDS)
def test_projector_derivative_matches_fd(name, changed):
    sc, gbar, points = case(name, changed)
    h = metric_matrix(sc, gbar)
    for p in points:
        exact = at(sc.phi, p, gbar).projector_and_lift_derivs[0]
        oracle = [directional_derivative(
            lambda q: projector_from_matrix(sc.phi, h, q), p, e)
            for e in np.eye(sc.phi.m)]
        assert relative(exact, oracle) < REL, p


@pytest.mark.parametrize("name, changed", CASES, ids=IDS)
def test_f_structure_derivative_matches_fd(name, changed):
    sc, gbar, points = case(name, changed)
    h = metric_matrix(sc, gbar)

    def f_from_matrix(q):
        geo = LocalGeometry(sc.phi, q)
        return (lift_from_matrix(sc.phi, h, q)
                @ geo.target_j_and_derivs[0] @ differential(geo))

    for p in points:
        geo = at(sc.phi, p, gbar)
        assert np.allclose(f_structure(geo),
                           f_from_matrix(p), rtol=0, atol=1e-12)
        exact = d_f_structure(geo)
        oracle = [directional_derivative(f_from_matrix, p, e)
                  for e in np.eye(sc.phi.m)]
        assert relative(exact, oracle) < REL, p


def rotated_j(target):
    """J = R J0 R^T on R^4, with R the rotation by 0.3 w1 + 0.2 w2 in the
    (w1, w3) plane: orthogonal, J^2 = -I, and not constant."""
    def fn(w):
        angle = 0.3 * w[0] + 0.2 * w[1]
        c, s = jets.cos(angle), jets.sin(angle)
        zero = c * 0.0
        r = [[c, zero, -s, zero], [zero, zero + 1.0, zero, zero],
             [s, zero, c, zero], [zero, zero, zero, zero + 1.0]]
        j0 = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
        rj = [[sum(r[a][b] * j0[b][d] for b in range(4)) for d in range(4)]
              for a in range(4)]
        return [[sum(rj[a][d] * r[e][d] for d in range(4)) for e in range(4)]
                for a in range(4)]

    return AlmostComplexStructureField(target, fn)


@pytest.mark.parametrize("changed", [False, True], ids=["g", "gbar"])
def test_f_structure_derivative_follows_a_varying_j(changed):
    # every bundled J is constant; here d_c J A^c_i carries part of dF
    sc = get_scenario("flat-projection-6-4")
    sc = replace(sc, phi=with_j(sc.phi, rotated_j(sc.phi.target)))
    gbar = change_for(sc) if changed else None
    points, j = sample_points(sc, 3, seed=31), sc.phi.J
    h = metric_matrix(sc, gbar)
    def f_from_matrix(q):
        geo = LocalGeometry(sc.phi, q)
        return (lift_from_matrix(sc.phi, h, q)
                @ geo.target_j_and_derivs[0] @ differential(geo))

    for p in points:
        geo = at(sc.phi, p, gbar)
        jq, dj = j.matrix_and_derivs(geo.map_jets[0])
        assert np.allclose(jq @ jq, -np.eye(4), atol=1e-14)
        assert np.max(np.abs(dj)) > 0.1
        exact = d_f_structure(geo)
        oracle = [directional_derivative(f_from_matrix, p, e)
                  for e in np.eye(sc.phi.m)]
        assert relative(exact, oracle) < REL, p


@pytest.mark.parametrize("name", list_scenarios())
def test_changed_metric_derivative_matches_fd(name):
    sc, gbar, points = case(name, True)
    oracle = FDMetric(sc.phi.m, metric_matrix(sc, gbar))
    for p in points:
        geo = at(sc.phi, p)
        value, exact = gbar.matrix_and_derivs(geo)
        # g-bar = sigma^-2 g^H + rho^-2 (g - g^H), with g^H = g P_H symmetrized
        g, (s, r) = geo.g, gbar.factor_values(geo)
        gh = g @ geo.projector_and_lift[0]
        gh = 0.5 * (gh + gh.T)
        assert np.allclose(value, gh / s ** 2 + (g - gh) / r ** 2,
                           rtol=1e-14, atol=0)
        assert relative(exact, oracle.matrix_and_derivs(p)[1]) < REL, p


@pytest.mark.parametrize("name, changed", CASES, ids=IDS)
def test_fiber_mean_curvature_matches_fd(name, changed):
    sc, gbar, points = case(name, changed)
    h = metric_matrix(sc, gbar)
    for p in points:
        exact = mean_curvature_vertical(at(sc.phi, p, gbar))
        assert relative(exact, mean_curvature_oracle(sc.phi, h, p)) < REL, p
