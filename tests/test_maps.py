"""Differentials, projectors, frames, tension and fiber curvature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phmorph.jets as jets
import phmorph.maps as maps
from phmorph import (
    ChangedMetric,
    RankError,
    SmoothMap,
    differential,
    euclidean_space,
    mean_curvature_vertical,
    ortho_split,
    tension_field,
)
from phmorph.manifold import (ChartedRiemannianManifold, DomainError,
                              GeometryError, JetMetric, certified_above,
                              read_only)
from phmorph.scenarios import constant_J
from phmorph.maps import (
    RANK_TOL,
    FrameError,
    LocalGeometry,
    _gram_schmidt,
    check_submersion,
    horizontal_lift,
    horizontal_projector,
)


def smooth_map(source, target, components):
    """A map into ``target`` carrying the target's standard constant J."""
    return SmoothMap(source, target, components, constant_J(target))


def with_j(phi, J):
    """A second map with phi's source, target and components, carrying
    J."""
    return SmoothMap(phi.source, phi.target, phi.components, J)


def at(phi, p, change=None):
    """phi's point context at p: its geometry under its source metric, or
    the one under the ``ChangedMetric`` ``change`` built from it."""
    geo = LocalGeometry(phi, p)
    return geo if change is None else geo.under(change)


def anisotropic_map():
    # phi(x) = (x1, 2 x2) from flat R^4 to flat R^2
    return smooth_map(euclidean_space(4), euclidean_space(2),
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
    return smooth_map(source, euclidean_space(2), lambda c: [c[0], c[1]])


def test_differential_linear_map():
    phi = anisotropic_map()
    p = np.array([0.3, -0.2, 0.5, 0.1])
    A = differential(at(phi, p))
    assert np.allclose(A, [[1, 0, 0, 0], [0, 2, 0, 0]], atol=1e-14)


def test_differential_and_hessian_polynomial_map():
    phi = smooth_map(euclidean_space(2), euclidean_space(2),
                     lambda c: [c[0] ** 2 * c[1], c[0] + c[1]])
    p = np.array([2.0, 1.0])
    A = differential(at(phi, p))
    assert np.allclose(A, [[4.0, 4.0], [1.0, 1.0]], atol=1e-13)
    dA = at(phi, p).map_jets[2]  # dA[k, a, i] = d_k d_i phi^a
    assert np.allclose(dA[:, 0, :], [[2.0, 4.0], [4.0, 0.0]], atol=1e-13)
    assert np.allclose(dA[:, 1, :], 0.0, atol=1e-14)


def test_projectors_algebra():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    g = phi.source.metric_at(p)[0]
    ph = horizontal_projector(at(phi, p))
    pv = np.eye(4) - ph
    assert np.allclose(ph @ ph, ph, atol=1e-12)
    assert np.allclose(pv @ pv, pv, atol=1e-12)
    assert np.allclose(ph + pv, np.eye(4), atol=1e-12)
    # g-self-adjoint: g P is symmetric
    assert np.allclose(g @ ph, (g @ ph).T, atol=1e-12)
    # vertical vectors are killed by the differential
    A = differential(at(phi, p))
    assert np.allclose(A @ pv, 0.0, atol=1e-12)


def test_horizontal_lift_is_right_inverse():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    geo = at(phi, p)
    A = differential(geo)
    lift = horizontal_lift(geo)
    assert np.allclose(A @ lift, np.eye(2), atol=1e-12)
    # lifted vectors are horizontal
    ph = horizontal_projector(geo)
    assert np.allclose(ph @ lift, lift, atol=1e-12)


def test_ortho_split_orthonormal_and_deterministic():
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    s1 = ortho_split(at(phi, p))
    s2 = ortho_split(at(phi, p))
    assert np.array_equal(s1.vertical_frame, s2.vertical_frame)
    assert np.array_equal(s1.horizontal_frame, s2.horizontal_frame)
    g = phi.source.metric_at(p)[0]
    full = np.vstack([s1.horizontal_frame, s1.vertical_frame])
    gram = full @ g @ full.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    A = differential(at(phi, p))
    assert np.allclose(A @ s1.vertical_frame.T, 0.0, atol=1e-10)


def test_check_submersion_detects_rank_drop():
    # real and imaginary parts of z^2 in the first two coordinates
    phi = smooth_map(euclidean_space(4), euclidean_space(2),
                     lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    check_submersion(at(phi, np.array([0.5, 0.2, 0.0, 0.0])))
    with pytest.raises(RankError):
        check_submersion(at(phi, np.zeros(4)))


def test_odd_target_dimension_rejected():
    with pytest.raises(ValueError):
        smooth_map(euclidean_space(4), euclidean_space(3), lambda c: c[:3])


def test_a_j_on_another_dimension_is_rejected():
    # J on R^4 given to a map into R^2: refused where it is built, naming
    # both dimensions, not at its first f-structure
    with pytest.raises(ValueError, match="dimension 4.*dimension 2"):
        SmoothMap(euclidean_space(4), euclidean_space(2),
                  lambda c: [c[0], c[1]], constant_J(euclidean_space(4)))


def test_tension_flat_projection_vanishes():
    phi = anisotropic_map()
    tau = tension_field(at(phi, np.array([0.3, -0.2, 0.5, 0.1])))
    assert np.allclose(tau, 0.0, atol=1e-12)


def test_tension_is_laplacian_for_scalar_components():
    # flat metrics: tau^a = Delta phi^a
    phi = smooth_map(euclidean_space(2), euclidean_space(2),
                     lambda c: [c[0] ** 2 + c[1] ** 2, c[0] * c[1]])
    tau = tension_field(at(phi, np.array([0.3, -0.7])))
    assert np.allclose(tau, [4.0, 0.0], atol=1e-12)


def test_tension_target_christoffel_contribution():
    # identity map from flat R^2 into R^2 with metric e^{2 x1} delta:
    # tau^a = g_flat^{ij} Gamma^a_ij(N) = Gamma^a_11 + Gamma^a_22 = (0, 0)
    # for a=2 and 1 - 1 = 0 for a=1... compute against the explicit trace.
    def conf(coords):
        f = jets.exp(2.0 * coords[0])
        zero = coords[0] * 0.0
        return [[f, zero], [zero, f]]

    target = ChartedRiemannianManifold(2, JetMetric(2, conf))
    phi = smooth_map(euclidean_space(2), target, lambda c: [c[0], c[1]])
    p = np.array([0.3, -0.2])
    gamma_n = target.christoffel(p)
    expected = gamma_n[:, 0, 0] + gamma_n[:, 1, 1]
    tau = tension_field(at(phi, p))
    assert np.allclose(tau, expected, atol=1e-12)
    assert np.allclose(expected, [0.0, 0.0], atol=1e-12)


def test_tension_curved_fibers_closed_form():
    # g = diag(1, 1, e^{2x1}, e^{2x1}), phi = (x1, x2):
    # the fiber scaling contributes Gamma^1_33 = Gamma^1_44 = -e^{2x1} g^{33},
    # tracing to tau = (2, 0).
    phi = curved_fiber_map()
    for p in ([0.0, 0.0, 0.0, 0.0], [0.4, -0.3, 0.2, 0.6]):
        tau = tension_field(at(phi, np.array(p)))
        assert np.allclose(tau, [2.0, 0.0], atol=1e-10)


def test_mean_curvature_flat_fibers_vanishes():
    phi = anisotropic_map()
    mu = mean_curvature_vertical(at(phi, np.array([0.3, -0.2, 0.5, 0.1])))
    assert np.allclose(mu, 0.0, atol=1e-8)


def test_mean_curvature_curved_fibers_closed_form():
    # Fibers scaled by e^{x1}: the normalized mean curvature is
    # -grad(log e^{x1}) = -d_1.
    phi = curved_fiber_map()
    p = np.array([0.4, -0.3, 0.2, 0.6])
    geo = at(phi, p)
    mu = mean_curvature_vertical(geo)
    assert np.allclose(mu, [-1.0, 0.0, 0.0, 0.0], atol=1e-7)
    # mean curvature is horizontal by construction
    pv = np.eye(4) - horizontal_projector(geo)
    assert np.allclose(pv @ mu, 0.0, atol=1e-7)


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

    return smooth_map(euclidean_space(3), euclidean_space(2), components)


def test_jets_memo_warm_equals_cold():
    # the map's jets are kept in its local geometry; the map computes them
    # on each call
    p = np.array([0.3, -0.4, 0.7])
    cold = rational_map().jets(p)
    phi = rational_map()
    geo = at(phi, p)
    geo.jets
    warm = geo.jets
    for c, w in zip(cold, warm):
        assert c.value == w.value
        assert np.array_equal(c.grad, w.grad)
        assert np.array_equal(c.hess, w.hess)


def test_a_hessian_reader_refuses_a_first_order_jet():
    # the Laplacian and the map's second derivatives need a Hessian, which
    # a first-order jet (as of a metric or a conformal factor) lacks
    p = np.array([[0.3, -0.4, 0.7]])
    missing = "first-order jet, which carries no Hessian"
    with pytest.raises(ValueError, match=missing):
        at(rational_map(), p).laplacian(jets.seed_coordinates(p, order=1)[0])
    phi = smooth_map(euclidean_space(3), euclidean_space(2), lambda c: (
        jets.seed_coordinates(np.stack([x.value for x in c], -1), 1)[:2]))
    for _ in range(2):
        with pytest.raises(ValueError, match=missing):
            at(phi, p).map_jets


def test_memoized_jets_are_read_only():
    phi = rational_map()
    p = np.array([0.3, -0.4, 0.7])
    kept = at(phi, p).jets
    with pytest.raises(ValueError):
        kept[0].grad[0] = 1.0
    with pytest.raises(ValueError):
        kept[1].hess[0, 0] = 1.0
    out = phi.jets(p)
    out[0].grad[0] = 1.0  # computed on each call: the caller's own
    out.clear()
    assert len(phi.jets(p)) == 2
    assert kept[0].grad[0] == phi.jets(p)[0].grad[0]


# ---- the local geometry ---------------------------------------------------

def sheared_metric():
    # constant, with g(e1, e3) = g(e2, e4) = 0.3: the horizontal space of the
    # coordinate projection differs from the Euclidean one
    g = np.eye(4) + 0.3 * (np.eye(4, k=2) + np.eye(4, k=-2))
    return JetMetric(4, lambda c: g.tolist())


def with_sheared_metric(phi):
    """phi, its source metric replaced by ``sheared_metric``."""
    src = phi.source
    return SmoothMap(ChartedRiemannianManifold(
        4, sheared_metric(), src.domain_predicate, src.sample_region),
        phi.target, phi.components, phi.J)


def fiber_map(is_sheared):
    return with_sheared_metric(curved_fiber_map()) if is_sheared else curved_fiber_map()


GEOMETRY_READERS = {
    "check_submersion": check_submersion,
    "horizontal_projector": horizontal_projector,
    "horizontal_lift": horizontal_lift,
    "g": lambda geo: geo.g,
    "ginv": lambda geo: geo.ginv,
    "christoffel": lambda geo: geo.christoffel,
}
P = np.array([0.4, -0.3, 0.2, 0.6])


@pytest.mark.parametrize("sheared", [False, True], ids=["g", "sheared"])
@pytest.mark.parametrize("name", sorted(GEOMETRY_READERS))
def test_local_geometry_warm_equals_cold(name, sheared):
    read = GEOMETRY_READERS[name]
    cold = read(at(fiber_map(sheared), P))
    geo = at(fiber_map(sheared), P.copy())
    for _ in range(2):  # fills the geometry, then reads it
        for other in GEOMETRY_READERS.values():
            other(geo)
        assert np.array_equal(read(geo), cold)
    assert read(geo) is read(geo)


def changed(phi):
    """A biconformal change of phi's source metric with both factors
    nonconstant."""
    return ChangedMetric.from_texts(phi, "exp(0.3*x1)", "1+x2^2")


# the fields that no change alters, kept in the source geometry only
KEPT_IN_SOURCE = ("jets", "map_jets", "_certified_differential",
                  "target_metric_and_derivs", "target_christoffel",
                  "target_j_and_derivs", "projector_and_lift",
                  "projector_and_lift_derivs")


def test_under_builds_a_geometry_on_its_source():
    phi = curved_fiber_map()
    geo, gbar = at(phi, P), changed(phi)
    child = geo.under(gbar)
    assert geo.source is geo and child.source is geo
    assert child.change is gbar and geo.change is None
    grandchild = child.under(gbar)
    assert grandchild is not child and grandchild.source is geo
    assert np.array_equal(grandchild.p, geo.p)
    assert not np.allclose(child.g, geo.g)
    assert grandchild.g is child.g  # one store, keyed on the change


def test_fields_no_change_alters_are_the_sources():
    phi = curved_fiber_map()
    geo = at(phi, P)
    bar = geo.under(changed(phi))
    for name in KEPT_IN_SOURCE:
        assert getattr(geo, name) is getattr(bar, name), name
    # read through the view first, they are still kept in the source only
    geo = at(phi, P)
    bar = geo.under(changed(phi))
    for name in KEPT_IN_SOURCE:
        assert getattr(bar, name) is getattr(geo, name), name
    assert {name for change, name in geo._fields if change is not None} \
        .isdisjoint(KEPT_IN_SOURCE)
    assert {name for change, name in geo._fields} >= set(KEPT_IN_SOURCE)


@pytest.mark.parametrize("name", sorted(GEOMETRY_READERS))
def test_local_geometry_arrays_are_read_only(name):
    out = GEOMETRY_READERS[name](at(fiber_map(True), P))
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 1.0


def test_rank_deficient_point_fails_on_every_call():
    # real and imaginary parts of z^2: dphi vanishes at the origin
    phi = smooth_map(euclidean_space(4), euclidean_space(2),
                     lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    geo = at(phi, np.zeros(4))
    for _ in range(2):
        for name in ("check_submersion", "horizontal_projector",
                     "horizontal_lift"):
            with pytest.raises(RankError):
                GEOMETRY_READERS[name](geo)
    # the metric data at that point is still fine
    assert np.array_equal(geo.ginv, np.eye(4))


def test_out_of_domain_point_fails_on_every_call():
    source = ChartedRiemannianManifold(
        4, JetMetric(4, curved_fiber_metric_components),
        domain_predicate=lambda p: p[..., 0] > 0)
    phi = smooth_map(source, euclidean_space(2), lambda c: [c[0], c[1]])
    geo = at(phi, np.array([-0.4, 0.3, 0.2, 0.6]))
    for _ in range(2):
        for name, read in sorted(GEOMETRY_READERS.items()):
            with pytest.raises(DomainError):
                read(geo)
    # a wrong shape with the bytes of a valid point is still rejected
    horizontal_projector(at(phi, np.abs(P)))
    with pytest.raises(DomainError):
        horizontal_projector(at(phi, np.abs(P).reshape(2, 2)))


def test_results_under_two_metrics_at_one_point_never_mix():
    # g and g-bar share one store, keyed on the change
    phi = curved_fiber_map()
    gbar = changed(phi)
    geo = at(phi, P)

    def reads(geo):
        return [geo.g, geo.christoffel, mean_curvature_vertical(geo)]

    got = [reads(geo if change is None else geo.under(change))
           for change in (None, gbar, None, gbar)]
    fresh = curved_fiber_map()
    cold_g, cold_s = reads(at(fresh, P)), reads(at(fresh, P, changed(fresh)))
    for warm, cold in zip(got, [cold_g, cold_s, cold_g, cold_s]):
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert all(not np.allclose(a, b) for a, b in zip(cold_g, cold_s))


@pytest.mark.parametrize("sheared", [False, True], ids=["g", "sheared"])
def test_horizontal_factor_squares_to_the_horizontal_inverse_metric(sheared):
    # R^T R = P_H g^-1 P_H^T, so a horizontal trace over R's rows is one
    # over any orthonormal frame of H; R's rows are one such frame
    geo = at(fiber_map(sheared), P)
    r, ph = geo.horizontal_factor, horizontal_projector(geo)
    assert np.allclose(r.T @ r, ph @ geo.ginv @ ph.T, atol=1e-12)
    assert np.allclose(r @ geo.g @ r.T, np.eye(2), atol=1e-12)
    assert not r.flags.writeable


def test_local_geometry_keeps_its_own_copy_of_the_point():
    phi = curved_fiber_map()
    q = P.copy()
    geo = at(phi, q)
    horizontal_projector(geo)
    q[0] += 0.1  # the caller reuses its array
    assert np.array_equal(geo.christoffel,
                          at(curved_fiber_map(), P).christoffel)


# ---- fields derived from the local geometry ------------------------------
# The tension field and the fiber mean curvature are kept in the local
# geometry of (map, metric, point) like the projectors; ortho_split is built
# on each call and kept nowhere.

DERIVED_READERS = {
    "tension_field": lambda geo: (tension_field(geo),),
    "mean_curvature_vertical": lambda geo: (mean_curvature_vertical(geo),),
}


@pytest.mark.parametrize("sheared", [False, True], ids=["g", "sheared"])
@pytest.mark.parametrize("name", sorted(DERIVED_READERS))
def test_derived_fields_warm_equal_cold(name, sheared):
    read = DERIVED_READERS[name]
    cold = read(at(fiber_map(sheared), P))
    geo = at(fiber_map(sheared), P.copy())
    for _ in range(2):  # fills the geometry, then reads it
        for other in DERIVED_READERS.values():
            other(geo)
        warm = read(geo)
        assert all(np.array_equal(w, c) for w, c in zip(warm, cold))
    assert getattr(geo, name) is getattr(geo, name)


@pytest.mark.parametrize("name", sorted(DERIVED_READERS))
def test_derived_field_arrays_are_read_only(name):
    for out in DERIVED_READERS[name](at(fiber_map(True), P)):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


def test_derived_fields_fail_on_every_call():
    phi = smooth_map(euclidean_space(4), euclidean_space(2),
                     lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    flat = smooth_map(euclidean_space(2), euclidean_space(2),
                      lambda c: [c[0], c[1]])
    geo, flat_geo = at(phi, np.zeros(4)), at(flat, np.zeros(2))
    for _ in range(2):
        for read in (ortho_split, mean_curvature_vertical):
            with pytest.raises(RankError):
                read(geo)
        with pytest.raises(GeometryError, match="no fibers"):
            mean_curvature_vertical(flat_geo)


def test_gram_schmidt_fails_on_too_few_independent_seeds():
    # the second seed is parallel to the first, the third is too short
    seeds = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1e-9]])
    with pytest.raises(FrameError, match=r"could not assemble 2 frame "
                                         r"vectors \(got 1\)"):
        _gram_schmidt(seeds, np.eye(2), 2)


# ---- the Cholesky certificate of full rank -------------------------------

def with_differential(a):
    """A point context at distinct points whose differential is ``a`` (a
    stack of 2n x m matrices): no map component is evaluated."""
    rows, two_n, m = a.shape
    target = euclidean_space(two_n)
    phi = SmoothMap(euclidean_space(m), target, None, constant_J(target))
    p = np.arange(rows * m, dtype=float).reshape(rows, m) / 7.0
    geo = LocalGeometry(phi, p)
    geo._fields[(None, "map_jets")] = read_only(
        (np.zeros((rows, two_n)), a.copy(), np.zeros((rows, m, two_n, m))))
    return geo


def rank_outcome(geo):
    """The array ``check_submersion`` returns at ``geo``, or the class and
    message it raises."""
    try:
        return check_submersion(geo)
    except RankError as err:
        return type(err), str(err)


def uncertified_rank_outcome(a):
    """``rank_outcome`` with the certificate refusing every differential:
    the ``svd`` test alone, as every call read before the certificate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "certified_above", lambda *_: False)
        return rank_outcome(with_differential(a))


def same_rank_outcome(a):
    geo = with_differential(a)
    got, want = rank_outcome(geo), uncertified_rank_outcome(a)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got is geo.map_jets[1]
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([(2, 2), (2, 3), (2, 4), (4, 4), (4, 6)]),
       st.integers(1, 4), st.floats(-10.0, -6.0), st.floats(0.0, 1.0))
def test_the_rank_certificate_accepts_only_what_svd_accepts(
        seed, shape, rows, log_min, spread):
    # U diag(sigma) V^T near RANK_TOL = 1e-8: sigma_min log-uniform over
    # [1e-10, 1e-6] in one row, the others between it and sigma_max <= 1e4
    two_n, m = shape
    log_max = log_min + spread * (4.0 - log_min)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, two_n, two_n)))
    v, _ = np.linalg.qr(rng.standard_normal((rows, m, m)))
    sigma = 10.0 ** rng.uniform(log_min, log_max, (rows, two_n))
    sigma[:, 0] = 10.0 ** log_max
    sigma[rng.integers(rows), -1] = 10.0 ** log_min
    a = u * sigma[:, None, :] @ v[..., :two_n].mT
    if certified_above(a @ a.mT, RANK_TOL ** 2, m + two_n):
        assert (np.linalg.svd(a, compute_uv=False)[..., -1] > RANK_TOL).all()
    same_rank_outcome(a)


def spied_svd(monkeypatch):
    calls = []
    inner = np.linalg.svd

    def spy(a, **kwargs):
        calls.append(a.shape)
        return inner(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_the_first_rank_deficient_row_is_named(monkeypatch):
    calls = spied_svd(monkeypatch)
    a = np.zeros((3, 2, 4))
    a[:, 0, 0] = 1.0
    a[:, 1, 1] = [1.0, 1e-9, 1e-10]
    geo = with_differential(a)
    got = rank_outcome(geo)
    assert got == rank_outcome(geo)  # the failed chunk's reading is kept,
    assert [rank_outcome(row)[1] for row in geo.rows[1:]] == [
        got[1], got[1].replace("1e-09", "1e-10").replace(
            str(geo.p[1].tolist()), str(geo.p[2].tolist()))]  # for its rows
    assert calls == [(3, 2, 4)]
    assert got == uncertified_rank_outcome(a)
    assert got[1] == ("map is not a submersion at %s: smallest singular "
                      "value 1e-09" % (geo.p[1].tolist(),))
    del calls[:]
    geo = with_differential(a[:1])  # a row the certificate passes reads no svd
    assert check_submersion(geo) is geo.map_jets[1]
    assert calls == []


def test_a_differential_of_entries_near_1e200_takes_the_svd_path(
        monkeypatch):
    # its A A^T would overflow: svd reads it, and passes it
    calls = spied_svd(monkeypatch)
    a = np.stack([np.eye(2, 3), 1e200 * np.eye(2, 3)])
    geo = with_differential(a)
    assert check_submersion(geo) is geo.map_jets[1]
    assert calls == [(2, 2, 3)]
    a[1, 1, 1] = 1e-9
    geo = with_differential(a)
    got = rank_outcome(geo)
    assert calls == [(2, 2, 3)] * 2
    assert got == uncertified_rank_outcome(a)
    assert got[1].endswith("smallest singular value 1e-09")
