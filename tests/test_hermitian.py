"""Almost complex structures, f-structures, adapted frames and defects."""

import math

import numpy as np
import pytest

import phmorph as pm
from phmorph import (
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
from phmorph.maps import horizontal_projector
from phmorph.manifold import DomainError
from phmorph.scenarios import constant_J, standard_J
from tests.test_maps import at, changed, with_j, with_sheared_metric


def with_minus_j(phi):
    """A second phi into its 2-dimensional target, carrying -J."""
    return with_j(phi, pm.AlmostComplexStructureField(
        phi.target, lambda c: (-standard_J(2)).tolist()))


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
    j = J.matrix_and_derivs(q)[0]
    h = J.target.metric_at(q)[0]
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
        assert_hermitian(sc.phi.J, q)
        assert nabla_j_norm(sc.phi.J, q) < 1e-7


def test_phwc_defect_negative_control_exact():
    # phi = (x1, 2 x2): dphi dphi* = diag(1, 4) and the commutator with the
    # standard J is [[0, 3], [3, 0]], Frobenius norm 3 sqrt(2)
    sc = get_scenario("nonphwc-anisotropic")
    geo = at(sc.phi, np.array([0.3, -0.2, 0.5, 0.1]))
    defect, scale = phwc_defect(geo)
    assert abs(defect - 3.0 * math.sqrt(2.0)) < 1e-9
    assert phwc_metric_defect(geo)[0] > 0.1


def test_phwc_defect_zero_on_projection():
    sc = get_scenario("flat-projection-4-2")
    geo = at(sc.phi, np.array([0.3, -0.2, 0.5, 0.1]))
    assert phwc_defect(geo)[0] == pytest.approx(0.0, abs=1e-12)
    assert phwc_metric_defect(geo)[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "curved-fibers-nonharmonic", "hopf"])
def test_defect_equivalence_on_phwc_scenarios(name):
    # operator commutator and metric-compatibility defects vanish together
    sc = get_scenario(name)
    for p in sample_points(sc, 10, seed=5):
        geo = at(sc.phi, p)
        assert phwc_defect(geo)[0] < 1e-9
        assert phwc_metric_defect(geo)[0] < 1e-9


@pytest.mark.parametrize("name", ["nonphwc-anisotropic", "hopf"])
def test_phwc_metric_defect_is_the_frame_norm(name):
    # the frame-free defect is the Frobenius norm of g(FX, FY) - g(X, Y)
    # over ortho_split's Gram-Schmidt frame of H
    sc = get_scenario(name)
    for p in sample_points(sc, 3, seed=5):
        geo = at(sc.phi, p)
        fr = pm.ortho_split(geo).horizontal_frame
        f = f_structure(geo)
        g = sc.phi.source.metric_at(p)[0]
        form = (fr @ f.T) @ g @ (fr @ f.T).T - fr @ g @ fr.T
        assert phwc_metric_defect(geo)[0] == pytest.approx(
            np.linalg.norm(form), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "hopf"])
def test_f_structure_algebra(name):
    # F^3 + F = 0, rank 2n, vanishing on the vertical distribution
    sc = get_scenario(name)
    geo = at(sc.phi, sample_points(sc, 3, seed=9)[1])
    F = f_structure(geo)
    assert np.allclose(F @ F @ F + F, 0.0, atol=1e-10)
    assert np.linalg.matrix_rank(F, tol=1e-8) == sc.phi.two_n
    pv = np.eye(sc.phi.m) - horizontal_projector(geo)
    assert np.allclose(F @ pv, 0.0, atol=1e-10)


def test_adapted_frame_structure():
    sc = get_scenario("flat-projection-6-4")
    p = sample_points(sc, 3, seed=9)[0]
    geo = at(sc.phi, p)
    fr = adapted_frame(geo)
    g = sc.phi.source.metric_at(p)[0]
    F = f_structure(geo)
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
        adapted_frame(at(sc.phi, np.array([0.3, -0.2, 0.5, 0.1])))


def test_adapted_frame_raises_with_too_few_seeds():
    # n = 2 on flat-projection-6-4: one seed gives one of its two pairs
    sc = get_scenario("flat-projection-6-4")
    geo = at(sc.phi, sample_points(sc, 1, seed=9)[0])
    with pytest.raises(pm.FrameError, match="could not assemble 2"):
        adapted_frame(geo, seed_order=[0])


def test_phh_defect_zero_on_flat_projection():
    sc = get_scenario("flat-projection-6-4")
    for p in sample_points(sc, 5, seed=3):
        defect, scale = phh_defect(at(sc.phi, p))
        assert defect < 1e-8


def phh_frame_sum(sc, geo, frame):
    # sqrt(sum over frame pairs (x, y) of |H((nabla_x F) y)|^2), pair by pair
    nab = nabla_f_operator(f_structure(geo), d_f_structure(geo),
                           geo.christoffel)
    ph = horizontal_projector(geo)
    g = geo.g
    total = 0.0
    for x in frame.horizontal:
        for y in frame.horizontal:
            v = ph @ np.einsum("i,ikj,j->k", x, nab, y)
            total += float(v @ g @ v)
    return math.sqrt(total)


def test_phh_defect_frame_invariant():
    # the defect is a tensorial contraction: taken over the rows of the
    # horizontal factor, and summed here over the adapted frame in either
    # seed order, it is the same number.  A nonconstant sigma breaks PHH on the
    # n = 2 projection, so the defect is far from zero.
    sc = get_scenario("flat-projection-6-4")
    gbar = pm.ChangedMetric.from_texts(sc.phi, "exp(0.2*x1+0.1*x2)", "1")
    for p in sample_points(sc, 3, seed=3):
        geo = at(sc.phi, p, gbar)
        base = phh_defect(geo)[0]
        assert base > 0.1
        for seed_order in (None, (3, 2, 1, 0)):
            fr = adapted_frame(geo, seed_order=seed_order)
            assert phh_frame_sum(sc, geo, fr) == pytest.approx(
                base, rel=1e-12)


def test_tension_routes_agree_flat():
    sc = get_scenario("flat-projection-4-2")
    tau = tension_via_f_structure(at(sc.phi, np.array([0.3, -0.2, 0.5, 0.1])))
    assert np.allclose(tau, 0.0, atol=1e-10)


def test_tension_routes_agree_curved_fibers():
    # independent closed form: tau = (2, 0) for the scaled-fiber projection
    sc = get_scenario("curved-fibers-nonharmonic")
    geo = at(sc.phi, np.array([0.4, -0.3, 0.2, 0.6]))
    direct = tension_field(geo)
    viaf = tension_via_f_structure(geo)
    assert np.allclose(direct, [2.0, 0.0], atol=1e-9)
    assert np.allclose(viaf, direct, atol=1e-7)


def test_tension_via_f_structure_rejects_nonphwc():
    sc = get_scenario("nonphwc-anisotropic")
    with pytest.raises(pm.GeometryError):
        tension_via_f_structure(at(sc.phi, np.array([0.3, -0.2, 0.5, 0.1])))


# ---- F and dF in the local geometry --------------------------------------

F_READERS = {
    "F": lambda sc, geo: f_structure(geo),
    "dF": lambda sc, geo: d_f_structure(geo),
}
P = np.array([0.3, -0.2, 0.5, 0.1])


@pytest.mark.parametrize("sheared", [False, True], ids=["g", "sheared"])
@pytest.mark.parametrize("name", sorted(F_READERS))
def test_f_structure_warm_equals_cold(name, sheared):
    read = F_READERS[name]
    fresh = get_scenario("holomorphic-poly")
    cold = read(fresh, at(with_sheared_metric(fresh.phi) if sheared else fresh.phi, P))
    sc = get_scenario("holomorphic-poly")
    geo = at(with_sheared_metric(sc.phi) if sheared else sc.phi, P.copy())
    for _ in range(2):  # fills the geometry, then reads it
        for other in F_READERS.values():
            other(sc, geo)
        assert np.array_equal(read(sc, geo), cold)
        assert not read(sc, geo).flags.writeable


def test_f_structure_derivative_is_kept_per_j():
    # dF has no step: one entry per map, which a biconformal change of g
    # shares, since F = L J A and the change keeps the lift L; a second map
    # carrying another J gets its own
    sc = get_scenario("holomorphic-poly")
    geo = at(sc.phi, P)
    first = d_f_structure(geo)
    assert d_f_structure(geo) is first
    gbar = pm.ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)", "1+x2^2")
    assert d_f_structure(geo.under(gbar)) is first
    assert np.array_equal(d_f_structure(at(with_minus_j(sc.phi), P)),
                          -first)
    assert np.array_equal(
        d_f_structure(at(get_scenario("holomorphic-poly").phi, P)),
        first)


def test_f_structure_under_two_metrics_never_mixes():
    # g and g-bar share one store: one F, which reads only the lift that
    # g-bar keeps, and the scale of the PHWC defect, |dphi dphi^*|, for each
    sc = get_scenario("holomorphic-poly")
    geo = at(sc.phi, P)
    gbar = changed(sc.phi)

    def reads(sc, geo):
        return [f_structure(geo), phwc_defect(geo)[1]]

    got = [reads(sc, geo if change is None else geo.under(change))
           for change in (None, gbar, None, gbar)]
    fresh = get_scenario("holomorphic-poly")
    cold_g = reads(fresh, at(fresh.phi, P))
    cold_s = reads(fresh, at(fresh.phi, P, changed(fresh.phi)))
    for warm, cold in zip(got, [cold_g, cold_s, cold_g, cold_s]):
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert got[1][0] is got[0][0]
    assert not np.allclose(cold_g[1], cold_s[1])
    # a second J on the same map, metric and point gets its own F
    assert np.array_equal(f_structure(at(with_minus_j(sc.phi), P)),
                          -cold_g[0])


def test_f_structure_fails_on_every_call_where_phi_is_singular():
    # z^2 + w^3 has a critical point at the origin; the hopf chart leaves
    # out the circle w = 0
    sc = get_scenario("holomorphic-poly")
    geo = at(sc.phi, np.zeros(4))
    for _ in range(2):
        with pytest.raises(pm.RankError):
            f_structure(geo)
    hopf = get_scenario("hopf")
    geo = at(hopf.phi, np.array([1.0, 0.0, 0.0]))  # where |w| = 0
    for _ in range(2):
        for read in F_READERS.values():
            with pytest.raises(DomainError):
                read(hopf, geo)


# ---- frames and defects in the local geometry ----------------------------
# The PHWC defects and F div_H F are kept in the local geometry of
# (map, metric, point); an adapted frame is built on each call, the same
# whether the geometry it reads is warm or cold.

CHANGE = ("exp(0.3*x1)", "1+x2^2")  # sigma, rho
METRICS = {
    "g": lambda sc: None,
    "gbar": lambda sc: pm.ChangedMetric.from_texts(sc.phi, *CHANGE),
}
FRAME_READERS = {
    "phwc_defect": lambda sc, geo: phwc_defect(geo),
    "phwc_metric_defect": lambda sc, geo: phwc_metric_defect(geo),
    "adapted_frame": lambda sc, geo: (adapted_frame(geo).e,
                                      adapted_frame(geo).fe,
                                      adapted_frame(geo).vertical),
    "f_divergence_horizontal": lambda sc, geo: (
        pm.f_divergence_horizontal(geo),),
}


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("name", sorted(FRAME_READERS))
def test_frame_fields_warm_equal_cold(name, metric_name):
    read, make_metric = FRAME_READERS[name], METRICS[metric_name]
    fresh = get_scenario("holomorphic-poly")
    cold = read(fresh, at(fresh.phi, P, make_metric(fresh)))
    sc = get_scenario("holomorphic-poly")
    geo = at(sc.phi, P.copy(), make_metric(sc))
    for _ in range(2):  # fills the geometry, then reads it
        for other in FRAME_READERS.values():
            other(sc, geo)
        warm = read(sc, geo)
        assert len(warm) == len(cold)
        assert all(np.array_equal(w, c) for w, c in zip(warm, cold))


@pytest.mark.parametrize("name", ["f_divergence_horizontal"])
def test_frame_field_arrays_are_read_only(name):
    sc = get_scenario("holomorphic-poly")
    geo = at(sc.phi, P, pm.ChangedMetric.from_texts(sc.phi, *CHANGE))
    for out in FRAME_READERS[name](sc, geo):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


def test_adapted_frame_is_built_on_each_call():
    sc = get_scenario("flat-projection-4-2")
    geo = at(sc.phi, P)
    first = adapted_frame(geo)
    again = adapted_frame(geo)
    assert again is not first
    assert np.array_equal(again.e, first.e)
    assert np.array_equal(again.fe, first.fe)
    # a second J gives its own frame: F changes sign, so F e does
    negated = adapted_frame(at(with_minus_j(sc.phi), P))
    assert np.array_equal(negated.e, first.e)
    assert np.array_equal(negated.fe, -first.fe)


def test_adapted_frame_fails_on_every_call_where_phi_is_not_phwc():
    sc = get_scenario("nonphwc-anisotropic")
    geo = at(sc.phi, P)
    for _ in range(2):
        with pytest.raises(pm.FrameError, match="PHWC"):
            adapted_frame(geo)
        with pytest.raises(pm.FrameError, match="PHWC"):
            pm.f_divergence_horizontal(geo)
        with pytest.raises(pm.FrameError, match="PHWC"):
            tension_via_f_structure(geo)
    # the defects that make it fail are kept
    assert phwc_metric_defect(geo)[0] > 0.1
