"""Metric fields, Christoffel symbols, connection and Laplacian oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phmorph.jets as jets
from phmorph import (
    ChartedRiemannianManifold,
    DomainError,
    FDMetric,
    JetMetric,
    MetricError,
    SmoothMap,
    euclidean_space,
    eval_jet,
    parse,
    seed_coordinates,
)
from phmorph.manifold import (directional_derivative, inverse_metric,
                              richardson_partial)
from phmorph.maps import LocalGeometry


def sphere_metric_components(coords):
    # round unit 2-sphere in polar chart (theta, phi_angle)
    theta = coords[0]
    s = jets.sin(theta)
    one = coords[0] * 0.0 + 1.0
    zero = coords[0] * 0.0
    return [[one, zero], [zero, s * s]]


def conformal2_components(coords):
    # g = e^{2 x1} * identity on R^2
    f = jets.exp(2.0 * coords[0])
    zero = coords[0] * 0.0
    return [[f, zero], [zero, f]]


def chart_map(man):
    """The projection of ``man`` onto its first two chart coordinates: its
    local geometries hold the metric's per-point data."""
    return SmoothMap(man, euclidean_space(2), lambda c: [c[0], c[1]])


def geometry(man, p):
    return LocalGeometry(chart_map(man), p)


def field_jet(text, p):
    return eval_jet(parse(text), seed_coordinates(p))


def sphere_manifold(strategy="ad"):
    if strategy == "ad":
        metric = JetMetric(2, sphere_metric_components)
    else:
        def mat(p):
            return np.array([[1.0, 0.0], [0.0, math.sin(p[0]) ** 2]])

        metric = FDMetric(2, mat)
    return ChartedRiemannianManifold(2, metric, name="sphere-polar")


@pytest.mark.parametrize("strategy", ["ad", "fd"])
def test_sphere_christoffel(strategy):
    # Closed form: Gamma^theta_{phiphi} = -sin t cos t, Gamma^phi_{theta phi} = cot t.
    man = sphere_manifold(strategy)
    t = 1.0
    gam = man.christoffel(np.array([t, 0.4]))
    tol = 1e-12 if strategy == "ad" else 1e-8
    assert gam[0, 1, 1] == pytest.approx(-math.sin(t) * math.cos(t), abs=tol)
    assert gam[1, 0, 1] == pytest.approx(math.cos(t) / math.sin(t), abs=tol)
    assert gam[1, 1, 0] == pytest.approx(math.cos(t) / math.sin(t), abs=tol)
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=tol)


@pytest.mark.parametrize("strategy", ["ad", "fd"])
def test_conformal_christoffel(strategy):
    # For g = e^{2 lambda} delta with lambda = x1:
    # Gamma^k_ij = d_ik dlambda_j + d_jk dlambda_i - d_ij dlambda_k.
    if strategy == "ad":
        metric = JetMetric(2, conformal2_components)
    else:
        metric = FDMetric(2, lambda p: math.exp(2 * p[0]) * np.eye(2))
    man = ChartedRiemannianManifold(2, metric)
    gam = man.christoffel(np.array([0.3, -0.2]))
    tol = 1e-12 if strategy == "ad" else 1e-8
    assert gam[0, 0, 0] == pytest.approx(1.0, abs=tol)
    assert gam[0, 1, 1] == pytest.approx(-1.0, abs=tol)
    assert gam[1, 0, 1] == pytest.approx(1.0, abs=tol)
    assert gam[1, 1, 1] == pytest.approx(0.0, abs=tol)
    assert gam[0, 0, 1] == pytest.approx(0.0, abs=tol)


def test_ad_and_fd_metrics_agree():
    ad = ChartedRiemannianManifold(2, JetMetric(2, sphere_metric_components))
    fd = sphere_manifold("fd")
    for p in ([1.1, 0.2], [0.7, -0.5], [2.0, 1.0]):
        p = np.array(p)
        assert np.allclose(ad.metric_at(p)[0], fd.metric_at(p)[0], rtol=1e-12)
        assert np.allclose(ad.christoffel(p), fd.christoffel(p), atol=1e-7)


def test_christoffel_symmetry_in_lower_indices():
    man = sphere_manifold("ad")
    gam = man.christoffel(np.array([0.9, 0.1]))
    assert np.allclose(gam, gam.transpose(0, 2, 1), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.4, max_value=2.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_metric_compatibility(theta, phi_angle):
    # nabla g = 0: dg[k,i,j] = Gamma^l_ki g_lj + Gamma^l_kj g_il.
    man = sphere_manifold("ad")
    p = np.array([theta, phi_angle])
    g, dg = man.metric.matrix_and_derivs(p)
    gam = man.christoffel(p)
    recon = np.einsum("lki,lj->kij", gam, g) + np.einsum("lkj,il->kij", gam, g)
    assert np.allclose(dg, recon, atol=1e-12)


def test_covariant_derivative_against_koszul_fd():
    # nabla_X Y from Y's exact derivative along X, against the same
    # connection applied to a Richardson difference of the field
    man = ChartedRiemannianManifold(2, JetMetric(2, conformal2_components))
    p = np.array([0.25, -0.4])
    c_y = np.array([0.7, -0.3])
    c_x = np.array([0.2, 1.1])

    def y_field(q):
        # a genuinely position-dependent field
        return np.array([c_y[0] * q[1], c_y[1] + q[0] ** 2])

    dy_along_x = np.array([c_y[0] * c_x[1], 2.0 * p[0] * c_x[0]])
    nab = geometry(man, p).covariant_derivative(c_x, y_field(p), dy_along_x)
    dy = np.array([directional_derivative(y_field, p, e, step=1e-5)
                   for e in np.eye(2)])
    gam = man.christoffel(p)
    expected = c_x @ dy + np.einsum("kij,i,j->k", gam, c_x, y_field(p))
    assert np.allclose(nab, expected, atol=1e-6)


def test_gradient_conformal():
    man = ChartedRiemannianManifold(2, JetMetric(2, conformal2_components))
    p = np.array([0.5, 0.2])
    grad = geometry(man, p).ginv @ field_jet("x1+3*x2", p).grad
    assert np.allclose(grad, math.exp(-1.0) * np.array([1.0, 3.0]),
                       rtol=1e-12)


def test_laplacian_euclidean():
    p = np.array([0.3, -0.1, 0.7])
    geo = geometry(euclidean_space(3), p)
    assert geo.laplacian(field_jet("x1^2+x2^2+x3^2", p)) == pytest.approx(
        6.0, abs=1e-10)
    assert geo.laplacian(field_jet("x1*x2", p)) == pytest.approx(
        0.0, abs=1e-10)


def test_laplacian_sphere_eigenfunction():
    # cos(theta) is an eigenfunction of the sphere Laplacian: Delta f = -2 f.
    man = sphere_manifold("ad")
    for t in (0.6, 1.0, 2.1):
        p = np.array([t, 0.3])
        val = geometry(man, p).laplacian(field_jet("cos(x1)", p))
        assert val == pytest.approx(-2.0 * math.cos(t), abs=1e-9)


def test_degenerate_metric_rejected():
    man = ChartedRiemannianManifold(
        2, FDMetric(2, lambda p: np.array([[1.0, 1.0], [1.0, 1.0]])))
    with pytest.raises(MetricError):
        man.metric_at(np.zeros(2))


def test_asymmetric_metric_rejected():
    man = ChartedRiemannianManifold(
        2, FDMetric(2, lambda p: np.array([[1.0, 0.3], [0.0, 1.0]])))
    with pytest.raises(MetricError):
        man.metric_at(np.zeros(2))


def test_jet_metric_with_powers_gives_each_point_its_batched_bits():
    # numpy computes x ** 3 on an array by repeated multiplication and on a
    # numpy scalar with C pow, which differ in the last bit on some inputs;
    # one point is evaluated as a batch of one row
    def fn(coords):
        x, y = coords
        off = 0.1 * x ** 3 * y ** 2
        return [[1.0 + x ** 2, off], [off, 2.0 + y ** 3]]

    metric = JetMetric(2, fn)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (200, 2))
    batched, d_batched = metric.matrix_and_derivs(points)
    assert batched.shape == (200, 2, 2)
    alone = [metric.matrix_and_derivs(p) for p in points]
    assert np.array_equal(batched, [g for g, _ in alone])
    assert np.array_equal(d_batched, [dg for _, dg in alone])


def test_richardson_partial_beats_plain_central_difference():
    f = lambda p: math.exp(3.0 * p[0])
    p = np.array([0.5])
    exact = 3.0 * math.exp(1.5)
    rich = richardson_partial(f, p, 0, 1e-3)
    plain = (f(p + 1e-3) - f(p - 1e-3)) / 2e-3
    assert abs(rich - exact) < abs(plain - exact) * 1e-3


def test_field_jet_matches_callable_and_expr():
    p = np.array([0.4, -0.6])
    j1 = field_jet("x1^2*x2", p)
    j2 = (lambda c: c[0] ** 2 * c[1])(seed_coordinates(p))
    assert j1.value == pytest.approx(j2.value, rel=1e-14)
    assert np.allclose(j1.grad, j2.grad, rtol=1e-14)
    assert np.allclose(j1.hess, j2.hess, rtol=1e-14)


class CountingMetric(FDMetric):
    """FD metric that counts its evaluations: ``matrix_and_derivs`` reads
    ``matrix`` once, and differences the matrix function itself."""

    def __init__(self, dim, matrix_fn):
        super().__init__(dim, matrix_fn)
        self.evaluations = 0

    def matrix(self, p):
        self.evaluations += 1
        return super().matrix(p)


def test_metric_memo_warm_equals_cold():
    # the geometry keeps g and g^-1, equal to the manifold's computed ones
    p = np.array([1.1, 0.3])
    cold = sphere_manifold()
    g_cold, ginv_cold = cold.metric_at(p)[0], cold.inverse_metric_at(p)
    geo = LocalGeometry(chart_map(sphere_manifold()), p.copy())
    geo.ginv
    assert np.array_equal(geo.g, g_cold)
    assert np.array_equal(geo.ginv, ginv_cold)


def test_metric_memo_kept_in_the_geometry_not_the_manifold():
    # a map's geometry evaluates its source metric once for g, g^-1 and
    # Gamma; the manifold itself keeps nothing
    metric = CountingMetric(2, lambda p: np.diag([1.0, 2.0 + p[0] ** 2]))
    man = ChartedRiemannianManifold(2, metric)
    p = np.array([0.5, -0.5])
    geo = LocalGeometry(chart_map(man), p)
    for _ in range(2):
        geo.g
        geo.ginv
        geo.christoffel
    assert metric.evaluations == 1
    man.metric_at(p)
    man.metric_at(p)
    assert metric.evaluations == 3


def test_memoized_metric_arrays_are_read_only():
    p = np.array([1.1, 0.3])
    geo = geometry(sphere_manifold(), p)
    for array in (geo.g, geo.ginv) + geo.metric_and_derivs:
        with pytest.raises(ValueError):
            array[0, 0] = 2.0


def test_out_of_domain_point_fails_on_every_call():
    metric = CountingMetric(2, lambda p: np.eye(2))
    open_half = ChartedRiemannianManifold(
        2, metric, domain_predicate=lambda p: p[..., 0] > 0)
    p = np.array([-0.5, 0.0])
    for _ in range(2):
        with pytest.raises(DomainError):
            open_half.metric_at(p)
        with pytest.raises(DomainError):
            open_half.inverse_metric_at(p)
    # a manifold without the restriction may use the point; that must not
    # let the point into the restricted manifold's domain
    ChartedRiemannianManifold(2, metric).metric_at(p)
    with pytest.raises(DomainError):
        open_half.metric_at(p)
    # a wrong shape with the same bytes as a valid point is still rejected
    # (a (1, 2) array is a batch of one point)
    whole = ChartedRiemannianManifold(2, metric)
    whole.metric_at(np.zeros(2))
    with pytest.raises(DomainError):
        whole.metric_at(np.zeros((2, 1)))


def test_non_positive_definite_point_fails_on_every_call():
    metric = CountingMetric(
        2, lambda p: np.array([[1.0, 0.0], [0.0, p[0]]]))
    man = ChartedRiemannianManifold(2, metric)
    p = np.array([-1.0, 0.0])
    for _ in range(3):
        with pytest.raises(MetricError):
            man.metric_at(p)
        with pytest.raises(MetricError):
            man.inverse_metric_at(p)
    assert metric.evaluations == 6
    # a local geometry does not keep a failed field: each read evaluates g
    geo = geometry(man, p)
    for _ in range(3):
        for field in ("g", "ginv", "christoffel"):
            with pytest.raises(MetricError):
                getattr(geo, field)
    assert metric.evaluations == 15


def test_inaccurate_inversion_names_the_point_as_a_list():
    # condition number 2e9: g g^-1 - I is about 5e-10, above the 1e-10 check
    near = 1.0 - 1e-9
    g = np.array([[1.0, near], [near, 1.0]])
    for gs, p in [(g, [0.1, 0.2]),
                  (np.stack([np.eye(2), g]), [[0.3, 0.4], [0.1, 0.2]])]:
        with pytest.raises(MetricError) as info:
            inverse_metric(gs, np.linalg.inv(gs), np.array(p))
        assert str(info.value) == "metric inversion inaccurate at [0.1, 0.2]"


def test_christoffel_reads_the_inverse_that_ginv_checks(monkeypatch):
    # g^-1 is computed once per geometry; only ginv checks its accuracy, so
    # an inaccurate inversion fails ginv and leaves Gamma readable
    near = 1.0 - 1e-9
    g = np.array([[1.0, near], [near, 1.0]])
    inversions = []
    inv = np.linalg.inv

    def counting(a):
        inversions.append(np.array(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    geo = geometry(ChartedRiemannianManifold(2, FDMetric(2, lambda p: g)),
                   np.array([0.1, 0.2]))
    for _ in range(2):
        with pytest.raises(MetricError, match="metric inversion inaccurate"):
            geo.ginv
        gamma = geo.christoffel
    assert np.array_equal(gamma, np.zeros((2, 2, 2)))
    assert sum(np.array_equal(a, g) for a in inversions) == 1
    assert g.flags.writeable  # the geometry locks a copy, not this array


class CountingDerivs(FDMetric):
    """FD metric that counts its Richardson fan-outs."""

    def __init__(self, dim, matrix_fn):
        super().__init__(dim, matrix_fn)
        self.fan_outs = 0

    def matrix_and_derivs(self, p):
        self.fan_outs += 1
        return super().matrix_and_derivs(p)


@pytest.mark.parametrize("strategy", ["ad", "fd"])
def test_christoffel_memo_warm_equals_cold(strategy):
    p = np.array([1.1, 0.3])
    cold = sphere_manifold(strategy).christoffel(p)
    man = sphere_manifold(strategy)
    geo = LocalGeometry(chart_map(man), p)
    geo.ginv
    first = geo.christoffel
    assert np.array_equal(first, cold)
    assert geo.christoffel is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 1.0


def test_christoffel_of_two_metrics_at_one_point_never_mix():
    flat = euclidean_space(2)
    curved = ChartedRiemannianManifold(2, JetMetric(2, conformal2_components))
    p = np.array([0.3, -0.2])
    for _ in range(2):
        assert np.array_equal(flat.christoffel(p), np.zeros((2, 2, 2)))
        assert np.array_equal(
            curved.christoffel(p),
            ChartedRiemannianManifold(
                2, JetMetric(2, conformal2_components)).christoffel(p))
    assert curved.christoffel(p)[0, 0, 0] == pytest.approx(1.0)


def test_christoffel_fails_on_every_call_outside_the_domain():
    metric = CountingDerivs(2, lambda p: np.eye(2))
    open_half = ChartedRiemannianManifold(
        2, metric, domain_predicate=lambda p: p[..., 0] > 0)
    geo = geometry(open_half, np.array([-0.5, 0.0]))
    for _ in range(2):
        with pytest.raises(DomainError):
            open_half.christoffel(np.array([-0.5, 0.0]))
        with pytest.raises(DomainError):
            geo.christoffel
    assert metric.fan_outs == 0


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_metric_fails_on_every_call(bad):
    metric = CountingMetric(
        2, lambda p: np.array([[1.0, 0.0], [0.0, bad if p[0] < 0 else 1.0]]))
    man = ChartedRiemannianManifold(2, metric)
    p = np.array([-1.0, 0.0])
    for _ in range(2):
        for read in (man.metric_at, man.inverse_metric_at, man.christoffel):
            with pytest.raises(MetricError, match="not finite"):
                read(p)
    geo = geometry(man, p)
    for _ in range(2):
        for field in ("g", "ginv", "christoffel"):
            with pytest.raises(MetricError, match="not finite"):
                getattr(geo, field)
    assert metric.evaluations == 12
