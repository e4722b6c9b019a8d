"""Differentials, adjoints, projectors, frames, tension and fiber curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phmorph.jets as jets
from phmorph import (
    RankError,
    SmoothMap,
    adjoint_differential,
    differential,
    euclidean_space,
    mean_curvature_vertical,
    ortho_split,
    tension_field,
)
from phmorph.manifold import (POINT_MEMO_SIZE, ChartedRiemannianManifold,
                              JetMetric)
from phmorph.maps import (
    check_submersion,
    horizontal_lift,
    horizontal_projector,
    second_derivatives,
    vertical_projector,
)


def anisotropic_map():
    # phi(x) = (x1, 2 x2) from flat R^4 to flat R^2
    return SmoothMap(euclidean_space(4), euclidean_space(2),
                     lambda c: [c[0], 2.0 * c[1]])


def curved_fiber_metric_components(coords):
    # g = diag(1, 1, e^{2 x1}, e^{2 x1}): fibers of the coordinate projection
    # are scaled by the first base coordinate
    f = jets.exp(2.0 * coords[0])
    zero = coords[0] * 0.0
    one = zero + 1.0
    return [[one, zero, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, f, zero],
            [zero, zero, zero, f]]


def curved_fiber_map():
    source = ChartedRiemannianManifold(
        4, JetMetric(4, curved_fiber_metric_components))
    return SmoothMap(source, euclidean_space(2), lambda c: [c[0], c[1]])


def test_differential_linear_map():
    phi = anisotropic_map()
    p = np.array([0.3, -0.2, 0.5, 0.1])
    A = differential(phi, p)
    assert np.allclose(A, [[1, 0, 0, 0], [0, 2, 0, 0]], atol=1e-14)


def test_differential_and_hessian_polynomial_map():
    phi = SmoothMap(euclidean_space(2), euclidean_space(2),
                    lambda c: [c[0] ** 2 * c[1], c[0] + c[1]])
    p = np.array([2.0, 1.0])
    A = differential(phi, p)
    assert np.allclose(A, [[4.0, 4.0], [1.0, 1.0]], atol=1e-13)
    H = second_derivatives(phi, p)
    assert np.allclose(H[0], [[2.0, 4.0], [4.0, 0.0]], atol=1e-13)
    assert np.allclose(H[1], 0.0, atol=1e-14)


def test_adjoint_composition_oracle():
    # For phi = (x1, 2 x2) on flat metrics: dphi o dphi* = diag(1, 4).
    phi = anisotropic_map()
    p = np.array([0.1, 0.2, 0.3, 0.4])
    A = differential(phi, p)
    Astar = adjoint_differential(phi, p)
    assert np.allclose(A @ Astar, np.diag([1.0, 4.0]), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_defining_property(seed):
    # h(dphi X, w) = g(X, dphi* w) pointwise, on a curved source metric.
    rng = np.random.default_rng(seed)
    phi = curved_fiber_map()
    p = rng.uniform(-0.8, 0.8, size=4)
    x = rng.normal(size=4)
    w = rng.normal(size=2)
    g = phi.source.metric_at(p)
    h = phi.target.metric_at(phi.value(p))
    A = differential(phi, p)
    Astar = adjoint_differential(phi, p)
    assert (A @ x) @ h @ w == pytest.approx(x @ g @ (Astar @ w), rel=1e-10, abs=1e-12)


def test_projectors_algebra():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    g = phi.source.metric_at(p)
    ph = horizontal_projector(phi, p)
    pv = vertical_projector(phi, p)
    assert np.allclose(ph @ ph, ph, atol=1e-12)
    assert np.allclose(pv @ pv, pv, atol=1e-12)
    assert np.allclose(ph + pv, np.eye(4), atol=1e-12)
    # g-self-adjoint: g P is symmetric
    assert np.allclose(g @ ph, (g @ ph).T, atol=1e-12)
    # vertical vectors are killed by the differential
    A = differential(phi, p)
    assert np.allclose(A @ pv, 0.0, atol=1e-12)


def test_horizontal_lift_is_right_inverse():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    A = differential(phi, p)
    lift = horizontal_lift(phi, p)
    assert np.allclose(A @ lift, np.eye(2), atol=1e-12)
    # lifted vectors are horizontal
    ph = horizontal_projector(phi, p)
    assert np.allclose(ph @ lift, lift, atol=1e-12)


def test_ortho_split_orthonormal_and_deterministic():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    s1 = ortho_split(phi, p)
    s2 = ortho_split(phi, p)
    assert np.array_equal(s1.vertical_frame, s2.vertical_frame)
    assert np.array_equal(s1.horizontal_frame, s2.horizontal_frame)
    g = phi.source.metric_at(p)
    full = np.vstack([s1.horizontal_frame, s1.vertical_frame])
    gram = full @ g @ full.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    A = differential(phi, p)
    assert np.allclose(A @ s1.vertical_frame.T, 0.0, atol=1e-10)


def test_ortho_split_pivot_reuse_gives_nearby_frames():
    # reusing the base point's pivots at a displaced point must produce a
    # frame that varies smoothly (stays O(step) close), which raw greedy
    # re-selection does not guarantee
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    base = ortho_split(phi, p)
    q = p + np.array([1e-5, 0.0, 0.0, 0.0])
    near = ortho_split(phi, q, pivots=(base.vertical_pivots,
                                       base.horizontal_pivots))
    assert np.max(np.abs(near.vertical_frame - base.vertical_frame)) < 1e-3
    assert np.max(np.abs(near.horizontal_frame - base.horizontal_frame)) < 1e-3


def test_check_submersion_detects_rank_drop():
    # real and imaginary parts of z^2 in the first two coordinates
    phi = SmoothMap(euclidean_space(4), euclidean_space(2),
                    lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    check_submersion(phi, np.array([0.5, 0.2, 0.0, 0.0]))
    with pytest.raises(RankError):
        check_submersion(phi, np.zeros(4))


def test_odd_target_dimension_rejected():
    with pytest.raises(ValueError):
        SmoothMap(euclidean_space(4), euclidean_space(3), lambda c: c[:3])


def test_tension_flat_projection_vanishes():
    phi = anisotropic_map()
    tau = tension_field(phi, np.array([0.3, -0.2, 0.5, 0.1]))
    assert np.allclose(tau.components, 0.0, atol=1e-12)


def test_tension_is_laplacian_for_scalar_components():
    # flat metrics: tau^a = Delta phi^a
    phi = SmoothMap(euclidean_space(2), euclidean_space(2),
                    lambda c: [c[0] ** 2 + c[1] ** 2, c[0] * c[1]])
    tau = tension_field(phi, np.array([0.3, -0.7]))
    assert np.allclose(tau.components, [4.0, 0.0], atol=1e-12)


def test_tension_target_christoffel_contribution():
    # identity map from flat R^2 into R^2 with metric e^{2 x1} delta:
    # tau^a = g_flat^{ij} Gamma^a_ij(N) = Gamma^a_11 + Gamma^a_22 = (0, 0)
    # for a=2 and 1 - 1 = 0 for a=1... compute against the explicit trace.
    def conf(coords):
        f = jets.exp(2.0 * coords[0])
        zero = coords[0] * 0.0
        return [[f, zero], [zero, f]]

    target = ChartedRiemannianManifold(2, JetMetric(2, conf))
    phi = SmoothMap(euclidean_space(2), target, lambda c: [c[0], c[1]])
    p = np.array([0.3, -0.2])
    gamma_n = target.christoffel(p)
    expected = gamma_n[:, 0, 0] + gamma_n[:, 1, 1]
    tau = tension_field(phi, p)
    assert np.allclose(tau.components, expected, atol=1e-12)
    assert np.allclose(expected, [0.0, 0.0], atol=1e-12)


def test_tension_curved_fibers_closed_form():
    # g = diag(1, 1, e^{2x1}, e^{2x1}), phi = (x1, x2):
    # the fiber scaling contributes Gamma^1_33 = Gamma^1_44 = -e^{2x1} g^{33},
    # tracing to tau = (2, 0).
    phi = curved_fiber_map()
    for p in ([0.0, 0.0, 0.0, 0.0], [0.4, -0.3, 0.2, 0.6]):
        tau = tension_field(phi, np.array(p))
        assert np.allclose(tau.components, [2.0, 0.0], atol=1e-10)


def test_mean_curvature_flat_fibers_vanishes():
    phi = anisotropic_map()
    mu = mean_curvature_vertical(phi, np.array([0.3, -0.2, 0.5, 0.1]))
    assert np.allclose(mu.components, 0.0, atol=1e-8)


def test_mean_curvature_curved_fibers_closed_form():
    # Fibers scaled by e^{x1}: the normalized mean curvature is
    # -grad(log e^{x1}) = -d_1.
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    mu = mean_curvature_vertical(phi, p)
    assert np.allclose(mu.components, [-1.0, 0.0, 0.0, 0.0], atol=1e-7)
    # mean curvature is horizontal by construction
    pv = vertical_projector(phi, p)
    assert np.allclose(pv @ mu.components, 0.0, atol=1e-7)


def test_dimension_bookkeeping():
    phi = curved_fiber_map()
    assert phi.m == 4
    assert phi.two_n == 2
    assert phi.n == 1


def rational_map():
    # a Hopf-like rational map: every component is a deep jet expression
    def components(c):
        r2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
        return [c[0] * c[2] / (1.0 + r2), c[1] * c[2] / (1.0 + r2)]

    return SmoothMap(euclidean_space(3), euclidean_space(2), components)


def test_jets_memo_warm_equals_cold():
    p = np.array([0.3, -0.4, 0.7])
    cold = rational_map().jets(p)
    phi = rational_map()
    phi.jets(p)
    warm = phi.jets(p.copy())
    for c, w in zip(cold, warm):
        assert c.value == w.value
        assert np.array_equal(c.grad, w.grad)
        assert np.array_equal(c.hess, w.hess)


def test_jets_memo_stays_bounded():
    phi = rational_map()
    first = np.array([0.1, 0.2, 0.3])
    before = phi.jets(first)
    for k in range(POINT_MEMO_SIZE + 10):
        phi.jets(np.array([0.1, 0.2, 0.3 + 1e-3 * (k + 1)]))
        assert len(phi._jet_memo) <= POINT_MEMO_SIZE
    assert len(phi._jet_memo) == POINT_MEMO_SIZE
    # the first point was evicted; recomputing it gives the same jets
    after = phi.jets(first)
    assert all(a is not b for a, b in zip(before, after))
    for a, b in zip(before, after):
        assert np.array_equal(a.grad, b.grad) and np.array_equal(a.hess, b.hess)


def test_memoized_jets_are_read_only():
    phi = rational_map()
    p = np.array([0.3, -0.4, 0.7])
    out = phi.jets(p)
    with pytest.raises(ValueError):
        out[0].grad[0] = 1.0
    with pytest.raises(ValueError):
        out[1].hess[0, 0] = 1.0
    out.clear()  # the returned list is the caller's own
    assert len(phi.jets(p)) == 2
