"""Almost complex structures, f-structures, adapted frames and defects."""

import math

import numpy as np
import pytest

import phmorph as pm
from phmorph import (
    SmoothMap,
    adapted_frame,
    euclidean_space,
    f_structure,
    get_scenario,
    phh_defect,
    phwc_defect,
    phwc_metric_defect,
    sample_points,
    tension_field,
    tension_via_f_structure,
)
from phmorph.hermitian import d_f_structure, nabla_f_operator
from phmorph.maps import horizontal_projector, local_geometry
from phmorph.manifold import POINT_MEMO_SIZE, DomainError, JetMetric
from phmorph.scenarios import constant_J, standard_J


def test_standard_J_block_form():
    J = standard_J(4)
    assert np.array_equal(J @ J, -np.eye(4))
    # 2x2 rotation blocks down the diagonal: (e1, e2) and (e3, e4) pairs
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(J[:2, :2], block)
    assert np.array_equal(J[2:, 2:], block)
    assert np.array_equal(J[:2, 2:], np.zeros((2, 2)))


def assert_hermitian(J, q):
    # J^2 = -I, and J is an isometry of the target metric h: J^T h J = h
    j = J.matrix(q)
    h = J.target.metric_at(q)
    assert np.max(np.abs(j @ j + np.eye(len(q)))) < 1e-12
    assert np.max(np.abs(j.T @ h @ j - h)) < 1e-10


def nabla_j_norm(J, q):
    # (nabla_c J)^a_b = d_c J^a_b + Gamma^a_cd J^d_b - J^a_d Gamma^d_cb
    j, dj = J.matrix_and_derivs(q)
    gamma = J.target.christoffel(q)
    nab = (dj + np.einsum("acd,db->cab", gamma, j)
           - np.einsum("ad,dcb->cab", j, gamma))
    return float(np.sqrt(np.sum(nab ** 2)))


def test_constant_J_validates_on_flat_target():
    J = constant_J(euclidean_space(2))
    q = np.array([0.3, -0.5])
    assert_hermitian(J, q)
    assert nabla_j_norm(J, q) == pytest.approx(0.0, abs=1e-10)


def test_hopf_target_J_is_kahler():
    sc = get_scenario("hopf")
    for q in ([0.2, 0.4], [-0.9, 1.3]):
        q = np.array(q)
        assert_hermitian(sc.J, q)
        assert nabla_j_norm(sc.J, q) < 1e-7


def test_phwc_defect_negative_control_exact():
    # phi = (x1, 2 x2): dphi dphi* = diag(1, 4) and the commutator with the
    # standard J is [[0, 3], [3, 0]], Frobenius norm 3 sqrt(2)
    sc = get_scenario("nonphwc-anisotropic")
    p = np.array([0.3, -0.2, 0.5, 0.1])
    defect, scale = phwc_defect(sc.phi, sc.J, p)
    assert abs(defect - 3.0 * math.sqrt(2.0)) < 1e-9
    assert phwc_metric_defect(sc.phi, sc.J, p)[0] > 0.1


def test_phwc_defect_zero_on_projection():
    sc = get_scenario("flat-projection-4-2")
    p = np.array([0.3, -0.2, 0.5, 0.1])
    assert phwc_defect(sc.phi, sc.J, p)[0] == pytest.approx(0.0, abs=1e-12)
    assert phwc_metric_defect(sc.phi, sc.J, p)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "curved-fibers-nonharmonic", "hopf"])
def test_defect_equivalence_on_phwc_scenarios(name):
    # operator commutator and metric-compatibility defects vanish together
    sc = get_scenario(name)
    for p in sample_points(sc, 10, seed=5):
        assert phwc_defect(sc.phi, sc.J, p)[0] < 1e-9
        assert phwc_metric_defect(sc.phi, sc.J, p)[0] < 1e-9


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "hopf"])
def test_f_structure_algebra(name):
    # F^3 + F = 0, rank 2n, vanishing on the vertical distribution
    sc = get_scenario(name)
    p = sample_points(sc, 3, seed=9)[1]
    F = f_structure(sc.phi, sc.J, p)
    assert np.allclose(F @ F @ F + F, 0.0, atol=1e-10)
    assert np.linalg.matrix_rank(F, tol=1e-8) == sc.phi.two_n
    pv = np.eye(sc.phi.m) - horizontal_projector(sc.phi, p)
    assert np.allclose(F @ pv, 0.0, atol=1e-10)


def test_adapted_frame_structure():
    sc = get_scenario("flat-projection-6-4")
    p = sample_points(sc, 3, seed=9)[0]
    fr = adapted_frame(sc.phi, sc.J, p)
    g = sc.phi.source.metric_at(p)
    F = f_structure(sc.phi, sc.J, p)
    full = np.vstack([fr.e, fr.fe, fr.vertical])
    assert np.allclose(full @ g @ full.T, np.eye(6), atol=1e-9)
    for i in range(sc.phi.n):
        assert np.allclose(F @ fr.e[i], fr.fe[i], atol=1e-9)
        assert np.allclose(F @ fr.fe[i], -fr.e[i], atol=1e-9)
    for v in fr.vertical:
        assert np.allclose(F @ v, 0.0, atol=1e-9)


def test_adapted_frame_requires_phwc():
    sc = get_scenario("nonphwc-anisotropic")
    with pytest.raises(pm.GeometryError):
        adapted_frame(sc.phi, sc.J, np.array([0.3, -0.2, 0.5, 0.1]))


def test_phh_defect_zero_on_flat_projection():
    sc = get_scenario("flat-projection-6-4")
    for p in sample_points(sc, 5, seed=3):
        defect, scale = phh_defect(sc.phi, sc.J, p)
        assert defect < 1e-8


def phh_frame_sum(sc, p, metric, frame):
    # sqrt(sum over frame pairs (x, y) of |H((nabla_x F) y)|^2), pair by pair
    geo = local_geometry(sc.phi, p, metric)
    nab = nabla_f_operator(f_structure(sc.phi, sc.J, p, metric),
                           d_f_structure(sc.phi, sc.J, p, metric),
                           geo.christoffel)
    ph = horizontal_projector(sc.phi, p)
    g = geo.src.metric_at(p)
    total = 0.0
    for x in frame.horizontal:
        for y in frame.horizontal:
            v = ph @ np.einsum("i,ikj,j->k", x, nab, y)
            total += float(v @ g @ v)
    return math.sqrt(total)


def test_phh_defect_frame_invariant():
    # the defect is a tensorial contraction: taken over the orthonormal
    # frame of H, and summed here over the adapted frame in either seed
    # order, it is the same number.  A nonconstant sigma breaks PHH on the
    # n = 2 projection, so the defect is far from zero.
    sc = get_scenario("flat-projection-6-4")
    gbar = pm.apply_change(sc.phi, pm.BiconformalChange.from_texts(
        "exp(0.2*x1+0.1*x2)", "1"))
    for p in sample_points(sc, 3, seed=3):
        base = phh_defect(sc.phi, sc.J, p, gbar)[0]
        assert base > 0.1
        for seed_order in (None, (3, 2, 1, 0)):
            fr = adapted_frame(sc.phi, sc.J, p, gbar, seed_order=seed_order)
            assert phh_frame_sum(sc, p, gbar, fr) == pytest.approx(
                base, rel=1e-12)


def test_tension_routes_agree_flat():
    sc = get_scenario("flat-projection-4-2")
    p = np.array([0.3, -0.2, 0.5, 0.1])
    tau = tension_via_f_structure(sc.phi, sc.J, p)
    assert np.allclose(tau.components, 0.0, atol=1e-10)


def test_tension_routes_agree_curved_fibers():
    # independent closed form: tau = (2, 0) for the scaled-fiber projection
    sc = get_scenario("curved-fibers-nonharmonic")
    p = np.array([0.4, -0.3, 0.2, 0.6])
    direct = tension_field(sc.phi, p)
    viaf = tension_via_f_structure(sc.phi, sc.J, p)
    assert np.allclose(direct.components, [2.0, 0.0], atol=1e-9)
    assert np.allclose(viaf.components, direct.components, atol=1e-7)


def test_tension_via_f_structure_rejects_nonphwc():
    sc = get_scenario("nonphwc-anisotropic")
    with pytest.raises(pm.GeometryError):
        tension_via_f_structure(sc.phi, sc.J, np.array([0.3, -0.2, 0.5, 0.1]))


# ---- F and dF in the local geometry memo ---------------------------------

def sheared_metric():
    # g(e1, e3) = g(e2, e4) = 0.3: another horizontal space for the flat
    # projection R^4 -> R^2
    g = np.eye(4) + 0.3 * (np.eye(4, k=2) + np.eye(4, k=-2))
    return JetMetric(4, lambda c: g.tolist())


F_READERS = {
    "F": lambda sc, p, metric: f_structure(sc.phi, sc.J, p, metric),
    "dF": lambda sc, p, metric: d_f_structure(sc.phi, sc.J, p, metric),
}
P = np.array([0.3, -0.2, 0.5, 0.1])


@pytest.mark.parametrize("sheared", [False, True], ids=["g", "sheared"])
@pytest.mark.parametrize("name", sorted(F_READERS))
def test_f_structure_warm_equals_cold(name, sheared):
    read = F_READERS[name]
    cold = read(get_scenario("holomorphic-poly"), P,
                sheared_metric() if sheared else None)
    sc = get_scenario("holomorphic-poly")
    metric = sheared_metric() if sheared else None
    for _ in range(2):  # fills the memo, then reads it
        for other in F_READERS.values():
            other(sc, P, metric)
        assert np.array_equal(read(sc, P.copy(), metric), cold)
        assert not read(sc, P, metric).flags.writeable


def test_f_structure_derivative_is_kept_per_j():
    # dF has no step: one entry per J, which a biconformal change of g
    # shares, since F = L J A and the change keeps the lift L
    sc = get_scenario("holomorphic-poly")
    first = d_f_structure(sc.phi, sc.J, P)
    assert d_f_structure(sc.phi, sc.J, P.copy()) is first
    gbar = pm.apply_change(sc.phi, pm.BiconformalChange.from_texts(
        "exp(0.3*x1)", "1+x2^2"))
    assert d_f_structure(sc.phi, sc.J, P, gbar) is first
    minus_j = pm.AlmostComplexStructureField(
        sc.J.target, lambda c: (-standard_J(2)).tolist())
    assert np.array_equal(d_f_structure(sc.phi, minus_j, P), -first)
    assert np.array_equal(
        d_f_structure(get_scenario("holomorphic-poly").phi, sc.J, P), first)


def test_f_structure_under_two_metrics_never_mixes():
    sc = get_scenario("flat-projection-4-2")
    sheared = sheared_metric()
    reads = [f_structure(sc.phi, sc.J, P, metric)
             for metric in (None, sheared, None, sheared)]
    fresh = get_scenario("flat-projection-4-2")
    cold_g = f_structure(fresh.phi, fresh.J, P)
    cold_s = f_structure(fresh.phi, fresh.J, P, sheared_metric())
    assert not np.allclose(cold_g, cold_s)
    for got, cold in zip(reads, [cold_g, cold_s, cold_g, cold_s]):
        assert np.array_equal(got, cold)
    # a second J on the same map, metric and point gets its own F
    minus_j = pm.AlmostComplexStructureField(
        sc.J.target, lambda c: (-standard_J(2)).tolist())
    assert np.array_equal(f_structure(sc.phi, minus_j, P), -cold_g)


def test_f_structure_memo_stays_bounded():
    sc = get_scenario("flat-projection-4-2")
    memo = sc.phi.source.metric.geometry_memo
    for k in range(POINT_MEMO_SIZE + 10):
        f_structure(sc.phi, sc.J, P + 1e-3 * k)
        assert len(memo) <= POINT_MEMO_SIZE
    assert len(memo) == POINT_MEMO_SIZE


def test_f_structure_fails_on_every_call_where_phi_is_singular():
    # z^2 + w^3 has a critical point at the origin; the hopf chart leaves
    # out the circle w = 0
    sc = get_scenario("holomorphic-poly")
    for _ in range(2):
        with pytest.raises(pm.RankError):
            f_structure(sc.phi, sc.J, np.zeros(4))
    hopf = get_scenario("hopf")
    on_the_circle = np.array([1.0, 0.0, 0.0])  # where |w| = 0
    for _ in range(2):
        for read in F_READERS.values():
            with pytest.raises(DomainError):
                read(hopf, on_the_circle, None)


# ---- frames and defects in the local geometry memo -----------------------
# The PHWC defects and F div_H F are kept per J in the local geometry of
# (map, metric, point); an adapted frame is built on each call, the same
# whether the geometry it reads is warm or cold.

CHANGE = pm.BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
METRICS = {
    "g": lambda sc: None,
    "gbar": lambda sc: pm.apply_change(sc.phi, CHANGE),
}
FRAME_READERS = {
    "phwc_defect": lambda sc, p, metric: phwc_defect(sc.phi, sc.J, p, metric),
    "phwc_metric_defect": lambda sc, p, metric: (
        phwc_metric_defect(sc.phi, sc.J, p, metric)),
    "adapted_frame": lambda sc, p, metric: (
        adapted_frame(sc.phi, sc.J, p, metric).e,
        adapted_frame(sc.phi, sc.J, p, metric).fe,
        adapted_frame(sc.phi, sc.J, p, metric).vertical),
    "f_divergence_horizontal": lambda sc, p, metric: (
        pm.f_divergence_horizontal(sc.phi, sc.J, p, metric).base,
        pm.f_divergence_horizontal(sc.phi, sc.J, p, metric).components),
}


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("name", sorted(FRAME_READERS))
def test_frame_fields_warm_equal_cold(name, metric_name):
    read, make_metric = FRAME_READERS[name], METRICS[metric_name]
    fresh = get_scenario("holomorphic-poly")
    cold = read(fresh, P, make_metric(fresh))
    sc = get_scenario("holomorphic-poly")
    metric = make_metric(sc)
    for _ in range(2):  # fills the memo, then reads it
        for other in FRAME_READERS.values():
            other(sc, P, metric)
        warm = read(sc, P.copy(), metric)
        assert len(warm) == len(cold)
        assert all(np.array_equal(w, c) for w, c in zip(warm, cold))


@pytest.mark.parametrize("name", ["f_divergence_horizontal"])
def test_frame_field_arrays_are_read_only(name):
    sc = get_scenario("holomorphic-poly")
    for out in FRAME_READERS[name](sc, P, pm.apply_change(sc.phi, CHANGE)):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


def test_adapted_frame_is_built_on_each_call():
    sc = get_scenario("flat-projection-4-2")
    first = adapted_frame(sc.phi, sc.J, P)
    again = adapted_frame(sc.phi, sc.J, P.copy())
    assert again is not first
    assert np.array_equal(again.e, first.e)
    assert np.array_equal(again.fe, first.fe)
    # a second J gives its own frame: F changes sign, so F e does
    minus_j = pm.AlmostComplexStructureField(
        sc.J.target, lambda c: (-standard_J(2)).tolist())
    negated = adapted_frame(sc.phi, minus_j, P)
    assert np.array_equal(negated.e, first.e)
    assert np.array_equal(negated.fe, -first.fe)


def test_adapted_frame_fails_on_every_call_where_phi_is_not_phwc():
    sc = get_scenario("nonphwc-anisotropic")
    for _ in range(2):
        with pytest.raises(pm.FrameError, match="PHWC"):
            adapted_frame(sc.phi, sc.J, P)
        with pytest.raises(pm.FrameError, match="PHWC"):
            pm.f_divergence_horizontal(sc.phi, sc.J, P)
        with pytest.raises(pm.FrameError, match="PHWC"):
            tension_via_f_structure(sc.phi, sc.J, P)
    # the defects that make it fail are kept
    assert phwc_metric_defect(sc.phi, sc.J, P)[0] > 0.1
