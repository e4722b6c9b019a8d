"""Biconformal metric changes and the transformation-law verifiers."""

import gc
import math

import numpy as np
import pytest

import phmorph as pm
from phmorph import (
    ChangedMetric,
    GeometryError,
    MetricError,
    PositivityError,
    SmoothMap,
    get_scenario,
    mean_curvature_vertical,
    parse,
    sample_points,
    special_change,
    tension_field,
    verify_f_divergence,
    verify_koszul_h,
    verify_koszul_v,
    verify_mean_curvature,
    verify_phh_covariant_formula,
    verify_phwc_equivalence,
    verify_pullback_characterization,
    verify_tension_equivalence,
    verify_tension_transform,
)
from phmorph.biconformal import (PROPERTIES, IdentityAggregate,
                                 corollary_at, phh_correction)
from phmorph.manifold import (check_metric, directional_derivative, quad,
                              sum_terms)
from phmorph.maps import differential, horizontal_projector
from phmorph.hermitian import adapted_frame, phwc_defect
from phmorph.runner import RunContext, run_identity
from tests.expr_text import to_text
from tests.test_exact_derivatives import rotated_j
from tests.test_maps import at, smooth_map, with_j


P4 = np.array([0.3, -0.2, 0.5, 0.1])


def gbar_for(name, sigma, rho):
    sc = get_scenario(name)
    return sc, ChangedMetric.from_texts(sc.phi, sigma, rho)


def one_function(sc, sigma):
    """The changed metric of the one-function change of ``sigma``."""
    return special_change(sc.phi, sigma)


def factors_at(gbar, p):
    """(sigma, rho) at the point p, read through a 1-row geometry."""
    s, r = gbar.factor_values(at(gbar.phi, [p]))
    return s[0], r[0]


def fold(name, check, geos):
    """A check's readings at the point contexts ``geos``, folded into the
    aggregate that a run folds them into."""
    agg = IdentityAggregate(name)
    for geo in geos:
        agg.fold(geo.p, *check(geo))
    return agg


def passes(reading):
    """Every row of a check's reading is finite and passed."""
    _, _, finite, passed = reading
    return bool(finite.all() and passed.all())


def rel_residual(reading):
    """The largest relative residual of a reading, every row of which is
    finite."""
    _, rel, finite, _ = reading
    assert finite.all(), "non-finite residual"
    return rel.max()


def abs_residual(reading):
    """The largest absolute residual of a reading, every row of which is
    finite."""
    absr, _, finite, _ = reading
    assert finite.all(), "non-finite residual"
    return absr.max()


# ---- the change itself --------------------------------------------------

def test_constant_change_scales_blocks():
    # sigma = 2, rho = 1 on the flat projection: horizontal block shrinks by
    # 1/4, vertical block untouched
    sc = get_scenario("flat-projection-4-2")
    gbar = ChangedMetric.from_texts(sc.phi, "2", "1")
    assert np.allclose(at(sc.phi, P4, gbar).g,
                       np.diag([0.25, 0.25, 1.0, 1.0]), atol=1e-14)


def test_change_preserves_block_orthogonality():
    # H and V stay orthogonal for the changed metric, on a scenario whose
    # horizontal distribution is not coordinate-aligned
    sc = get_scenario("holomorphic-poly")
    gbar = ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)", "1+x2^2")
    for p in sample_points(sc, 5, seed=1):
        ph = horizontal_projector(at(sc.phi, p))
        pv = np.eye(4) - ph
        gb = at(sc.phi, p, gbar).g
        assert np.max(np.abs(ph.T @ gb @ pv)) < 1e-10
        # and the horizontal block is the sigma^-2 rescaling of g's
        g = sc.phi.source.metric_at(p)[0]
        s, _ = gbar.factor_values(at(sc.phi, p))
        assert np.allclose(ph.T @ gb @ ph, ph.T @ g @ ph / s**2, atol=1e-10)


def test_rho_defaults_to_one():
    # omitting rho leaves the vertical block untouched
    phi = get_scenario("flat-projection-4-2").phi
    for gbar in (ChangedMetric.from_texts(phi, "1+x1^2"),
                 ChangedMetric(phi, parse("1+x1^2"))):
        s, r = factors_at(gbar, P4)
        assert s == pytest.approx(1.09, rel=1e-14)
        assert r == 1.0


def test_positivity_enforced():
    phi = get_scenario("flat-projection-4-2").phi
    with pytest.raises(PositivityError):
        factors_at(ChangedMetric.from_texts(phi, "x1", "1"),
                   np.array([-0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(PositivityError):
        factors_at(ChangedMetric.from_texts(phi, "1", "0"), P4)


def test_special_change_exponents():
    # rho = sigma^{-(2n-2)/(m-2n)}
    s = parse("exp(x1)")
    n1 = special_change(get_scenario("flat-projection-4-2").phi, s)
    assert factors_at(n1, P4)[1] == pytest.approx(1.0)
    n2 = special_change(get_scenario("flat-projection-6-4").phi, s)
    sv, rv = factors_at(n2, np.array([0.3, 0, 0, 0, 0, 0]))
    assert rv == pytest.approx(1.0 / sv, rel=1e-14)
    r4 = pm.euclidean_space(4)
    with pytest.raises(GeometryError):  # m = 2n
        special_change(smooth_map(r4, r4, lambda c: c), s)


def test_the_fiber_laws_raise_on_a_map_without_fibers():
    # runs skip both laws where m = 2n; called directly, they find no
    # vertical part and no fibers
    r4 = pm.euclidean_space(4)
    phi = smooth_map(r4, r4, lambda c: c)
    gbar = ChangedMetric.from_texts(phi, "exp(x1)")
    geo = at(phi, [P4])
    with pytest.raises(GeometryError, match="V has no vertical part"):
        verify_koszul_v(gbar, geo, np.array([[1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(GeometryError, match="no fibers"):
        verify_mean_curvature(gbar, geo)


def test_koszul_horizontal_raises_on_a_vertical_x():
    # runs draw X with a horizontal part; e5 is vertical on
    # flat-projection-6-4, so P_H X = 0
    sc, gbar = gbar_for("flat-projection-6-4", "exp(0.2*x1)", "1")
    e = np.eye(6)
    with pytest.raises(GeometryError, match="X has no horizontal part"):
        verify_koszul_h(gbar, at(sc.phi, [np.full(6, 0.1)]), e[[4]], e[[0]])


Q3 = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])  # rows 1 and 2 bad


def _bad_metric(entry):
    """A stack of three 2 x 2 metrics whose rows 1 and 2 read ``entry`` in
    place of g_01."""
    g = np.stack([np.eye(2)] * 3)
    g[1:, 0, 1] = entry
    return g


def _not_phwc_beyond_row_0():
    # phi = (x1, (1 + x3^2) x2) stretches x2 by 1 at x3 = 0 (PHWC) and by
    # 2 at x3 = 1 (not PHWC)
    r4 = pm.euclidean_space(4)
    phi = smooth_map(r4, pm.euclidean_space(2),
                     lambda c: [c[0], c[1] * (1.0 + c[2] * c[2])])
    geo = at(phi, [[0.1, 0.0, 0.0, 0.2], [0.1, 0.0, 1.0, 0.2],
                   [0.1, 0.0, 2.0, 0.2]])
    defect = pm.phwc_metric_defect(geo)[0]
    assert defect[0] <= 1e-6 < defect[1]
    return (lambda: pm.f_divergence_horizontal(geo), pm.FrameError,
            "the PHWC condition fails: metric compatibility defect %g > "
            "1e-06 at [0.1, 0.0, 1.0, 0.2]" % defect[1])


def _flat_6_4_batch():
    sc, gbar = gbar_for("flat-projection-6-4", "exp(0.2*x1)", "1")
    return gbar, at(sc.phi, [np.full(6, 0.1)] * 3), np.eye(6)


def _vertical_x():
    gbar, geo, e = _flat_6_4_batch()  # e1 is horizontal, e5 vertical
    return (lambda: verify_koszul_h(gbar, geo, e[[0, 4, 4]], e[[0, 0, 0]]),
            GeometryError, "X has no horizontal part")


def _horizontal_v():
    gbar, geo, e = _flat_6_4_batch()
    return (lambda: verify_koszul_v(gbar, geo, e[[4, 0, 0]]),
            GeometryError, "V has no vertical part")


# The precondition messages no command line reaches (see
# benchmarks/same_reports.py), each on a batch whose first row is good:
# name -> () -> (call, error, its exact text)
UNREACHED_MESSAGES = {
    "chart domain": lambda: (
        lambda: pm.ChartedRiemannianManifold(
            2, pm.euclidean_space(2).metric,
            lambda p: p[..., 0] < 0.2).check_in_domain(Q3),
        pm.DomainError, "point [0.3, 0.4] outside chart domain"),
    "non-finite metric": lambda: (
        lambda: check_metric(_bad_metric(np.nan), np.zeros((3, 2, 2, 2)),
                             Q3),
        MetricError, "metric not finite at [0.3, 0.4]"),
    "non-symmetric metric": lambda: (
        lambda: check_metric(_bad_metric(0.5), np.zeros((3, 2, 2, 2)), Q3),
        MetricError, "metric matrix not symmetric at [0.3, 0.4]"),
    "PHWC frame": _not_phwc_beyond_row_0,
    "no horizontal part": _vertical_x,
    "no vertical part": _horizontal_v,
}


@pytest.mark.parametrize("name", sorted(UNREACHED_MESSAGES))
def test_a_precondition_names_the_first_bad_row_of_a_batch(name):
    call, error, text = UNREACHED_MESSAGES[name]()
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


def test_compose_matches_sequential_metrics():
    # change a, then change b, is the one change with multiplied factors
    sc = get_scenario("flat-projection-4-2")
    a = ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)", "1+x2^2")
    b = ChangedMetric.from_texts(sc.phi, "2", "exp(0.1*x3)")
    both = ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)*2",
                                    "(1+x2^2)*exp(0.1*x3)")
    once = at(sc.phi, P4, both).g
    sb, rb = factors_at(b, P4)
    ga = at(sc.phi, P4, a).g
    ph = horizontal_projector(at(sc.phi, P4))
    twice = ga @ ph / sb**2 + (ga - ga @ ph) / rb**2
    assert np.max(np.abs(once - twice)) < 1e-12


def test_identity_change_is_identity():
    sc = get_scenario("curved-fibers-nonharmonic")
    gbar = ChangedMetric.from_texts(sc.phi, "1", "1")
    assert np.allclose(at(sc.phi, P4, gbar).g, sc.phi.source.metric_at(P4)[0],
                       atol=1e-14)


# ---- sigma and rho kept per point by the changed metric ------------------

FACTOR_READERS = {
    "factor_values": lambda gbar, geo: gbar.factor_values(geo),
    "factor_jets": lambda gbar, geo: tuple(
        part for jet in gbar.factor_jets(geo)
        for part in (jet.value, jet.grad, jet.hess)),
    "grad_log_factors": lambda gbar, geo: gbar.grad_log_factors(geo),
}
FACTOR_CASE = ("holomorphic-poly", "exp(0.3*x1)", "1+x2^2")


def changed_metric(name, sigma, rho):
    sc = get_scenario(name)
    return ChangedMetric.from_texts(sc.phi, sigma, rho)


@pytest.mark.parametrize("name", sorted(FACTOR_READERS))
def test_factor_fields_warm_equal_cold(name):
    read = FACTOR_READERS[name]
    fresh = changed_metric(*FACTOR_CASE)
    cold = read(fresh, at(fresh.phi, P4))
    gbar = changed_metric(*FACTOR_CASE)
    geo = at(gbar.phi, P4.copy())
    for _ in range(2):  # fills the geometry, then reads it
        for other in FACTOR_READERS.values():
            other(gbar, geo)
        warm = read(gbar, geo)
        assert len(warm) == len(cold)
        assert all(np.array_equal(w, c) for w, c in zip(warm, cold))


def test_factor_field_arrays_are_read_only():
    # sigma and rho are first-order jets: g-bar and the laws read their
    # values and gradients, and no Hessian is built
    gbar = changed_metric(*FACTOR_CASE)
    geo = at(gbar.phi, P4)
    factors = gbar.factor_jets(geo)
    assert all(jet.hess is None for jet in factors)
    arrays = [part for jet in factors for part in (jet.value, jet.grad)]
    arrays += list(gbar.grad_log_factors(geo))
    for out in arrays:
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


def test_changed_metric_reads_the_source_geometry_it_is_handed():
    # handed phi's geometry at the point, g-bar fills it (P_H, the factor
    # jets) and its own geometry reads it
    gbar = changed_metric(*FACTOR_CASE)
    geo = at(gbar.phi, P4)
    value, derivs = gbar.matrix_and_derivs(geo)
    assert (None, "projector_and_lift") in geo._fields
    jets = gbar.factor_jets(geo)
    bar = geo.under(gbar)
    assert bar.source is geo
    assert np.array_equal(bar.g, value)
    assert np.array_equal(bar.metric_and_derivs[1], derivs)
    assert gbar.factor_jets(geo) is jets
    # another map's geometry under g-bar hands on no geometry of phi's, so
    # g-bar refuses it rather than read that map's P_H
    other = SmoothMap(gbar.phi.source, gbar.phi.target,
                      lambda c: [c[0] + 0.1 * c[2], c[1]], gbar.phi.J)
    with pytest.raises(GeometryError, match="its own map's geometry"):
        at(other, P4, gbar).g


@pytest.mark.parametrize("sigma, rho, factor", [("x2", "1", "sigma"),
                                                ("1", "x2", "rho")])
def test_nonpositive_factor_fails_on_every_call(sigma, rho, factor):
    gbar = changed_metric("holomorphic-poly", sigma, rho)  # x2 = -0.2 at P4
    geo = at(gbar.phi, P4)
    for _ in range(2):
        for read in (gbar.factor_values, gbar.factor_jets,
                     gbar.grad_log_factors):
            with pytest.raises(PositivityError, match=factor):
                read(geo)
        with pytest.raises(PositivityError, match=factor):
            gbar.matrix_and_derivs(geo)
        with pytest.raises(PositivityError, match=factor):
            geo.under(gbar).g


def test_a_non_finite_derivative_of_the_weight_is_a_metric_error():
    # at x1 = 0.03, sigma = 1.8e-154 has a finite sigma^-2 = 3.0e307, but
    # d(sigma^-2) = -2 sigma^-2 d(ln sigma) = -40 sigma^-2 overflows; a run
    # reports the point as errored
    sigma = "1e-154*exp(20*x1)"
    gbar = changed_metric("flat-projection-4-2", sigma, "1")
    geo = at(gbar.phi, [[0.03, 0.1, -0.2, 0.3]])
    with np.errstate(over="ignore"):
        with pytest.raises(MetricError, match=r"the derivative of "
                                              r"sigma\^-2 is not finite"):
            gbar.matrix_and_derivs(geo)
    assert np.isfinite(gbar.factor_values(geo)[0][0] ** -2)


def test_changes_built_one_after_another_never_share_factors():
    # each change is dropped before the next is built, which may then reuse
    # its memory and id
    sc = get_scenario("flat-projection-4-2")
    for k in range(1, 31):
        sigma, rho = float(k), float(k % 7 + 1)
        gbar = ChangedMetric(sc.phi, pm.exprs.Lit(sigma),
                             pm.exprs.Lit(rho))
        geo = at(sc.phi, P4)
        assert gbar.factor_values(geo) == (sigma, rho)
        assert gbar.factor_jets(geo)[0].value == sigma
        assert np.array_equal(geo.under(gbar).g, np.diag(
            [sigma ** -2] * 2 + [rho ** -2] * 2))
        del gbar
        gc.collect()


def test_factors_evaluated_once_per_change_point_and_route(monkeypatch):
    # in a run, each factor expression is evaluated once per point, on the
    # one route (as jets, by ChangedMetric.factor_jets): the change's sigma
    # and rho, which the one-function change reads too, taking its rho =
    # sigma^-1 as the power of sigma's jet; a batched call counts once for
    # each of its rows
    calls, changes, reading = [], [], []
    factor_jets, eval_jet = ChangedMetric.factor_jets, pm.exprs.eval_jet

    def reading_factors(self, source):
        changes.append(self)  # keeps each id for the run
        reading.append(self)
        try:
            return factor_jets(self, source)
        finally:
            reading.pop()

    def evaluating(expr, coords):
        # an outermost call is made by the change being read (a call outside
        # factor_jets records a string, failing the type check); the nested
        # calls evaluate its parts
        change = reading[-1] if reading else "no change"
        if change is not None:
            p = np.stack([x.value for x in coords], axis=-1)
            calls.extend((type(change), expr, q.tobytes())
                         for q in p.reshape(-1, p.shape[-1]))
        reading.append(None)
        try:
            return eval_jet(expr, coords)
        finally:
            reading.pop()

    monkeypatch.setattr(ChangedMetric, "factor_jets", reading_factors)
    monkeypatch.setattr(pm.exprs, "eval_jet", evaluating)
    monkeypatch.setattr(pm.runner, "CHUNK", 3)  # a full and a partial chunk
    rep = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-6-4", sigma="exp(0.2*x1)",
        rho="1+0.1*x5^2", samples=4))
    assert rep["verdict"] == "pass"
    assert {route for route, _, _ in calls} == {ChangedMetric}
    assert {expr for _, expr, _ in calls} == {parse("exp(0.2*x1)"),
                                              parse("1+0.1*x5^2")}
    assert len({q for _, _, q in calls}) == 4
    # sigma and rho once each per point, though both changes read them
    assert len(calls) == len(set(calls)) == 2 * 4
    assert len(set(map(id, changes))) == 2


@pytest.mark.parametrize("option", ["sigma", "special_sigma"])
def test_sigma_is_evaluated_once_per_chunk(monkeypatch, option):
    # the one-function change reads the jet of the sigma it shares with the
    # run's change, and takes its rho = sigma^-1 as that jet's power: exp,
    # sigma's one call, is evaluated once in the run's one chunk
    calls, eval_jet = [], pm.exprs.eval_jet

    def evaluating(expr, coords):
        if isinstance(expr, pm.exprs.Call):
            calls.append(expr.func)
        return eval_jet(expr, coords)

    monkeypatch.setattr(pm.exprs, "eval_jet", evaluating)
    rep = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-6-4", samples=5,
        **{option: "exp(0.3*x1)"}))
    assert rep["verdict"] == "pass"
    assert calls == ["exp"]


# ---- identity verifiers, trivial cases ----------------------------------

@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "holomorphic-poly",
             "curved-fibers-nonharmonic"])
def test_identity_change_residuals_vanish(name):
    sc, gbar = gbar_for(name, "1", "1")
    for fn in (verify_tension_transform, verify_mean_curvature,
               verify_f_divergence):
        r = fn(gbar, at(sc.phi, [P4]))
        assert passes(r) and abs_residual(r) < 1e-9, r


# ---- identity verifiers, nontrivial changes -----------------------------

NONTRIVIAL = [
    ("flat-projection-4-2", "exp(0.3*x1)", "1"),
    ("flat-projection-4-2", "1", "exp(0.2*x3)"),
    ("flat-projection-4-2", "exp(0.2*x1+0.1*x3)", "1+0.3*x2^2+0.1*x4^2"),
    ("flat-projection-6-4", "exp(0.2*x1+0.1*x5)", "1+0.2*x2^2+0.1*x6^2"),
    ("holomorphic-poly", "exp(0.2*x1+0.1*x3)", "1+0.2*x2^2"),
    ("curved-fibers-nonharmonic", "exp(0.2*x1+0.1*x3)", "1+0.2*x4^2"),
    ("hopf", "exp(0.2*x1+0.1*x3)", "1+0.2*x2^2"),
]


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_tension_and_curvature_transforms(name, sigma, rho):
    sc, gbar = gbar_for(name, sigma, rho)
    for p in sample_points(sc, 6, seed=2):
        for fn in (verify_tension_transform, verify_mean_curvature,
                   verify_f_divergence):
            r = fn(gbar, at(sc.phi, [p]))
            assert rel_residual(r) < 1e-5, (fn.__name__, p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_koszul_identities(name, sigma, rho):
    sc, gbar = gbar_for(name, sigma, rho)
    m = sc.phi.m
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=8):
        for _ in range(4):
            x = rng.normal(size=m)
            y = rng.normal(size=m)
            r = verify_koszul_h(gbar, at(sc.phi, [p]), x, y)
            assert rel_residual(r) < 1e-5, (p, r)
            if m > sc.phi.two_n:
                v = rng.normal(size=m)
                r = verify_koszul_v(gbar, at(sc.phi, [p]), v)
                assert rel_residual(r) < 1e-5, (p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_phh_covariant_formula(name, sigma, rho):
    sc, gbar = gbar_for(name, sigma, rho)
    rng = np.random.default_rng(13)
    for p in sample_points(sc, 4, seed=8):
        x = rng.normal(size=sc.phi.m)
        y = rng.normal(size=sc.phi.m)
        r = verify_phh_covariant_formula(gbar, at(sc.phi, [p]), x, y)
        assert rel_residual(r) < 1e-5, (p, r)


# ---- the tolerance rejects wrong laws ------------------------------------
# A dropped term, or a wrong sign or coefficient of one, is a generated
# mutant of tests/test_mutants.py: each of a law's named terms dropped or
# times -1, 1/2, 3/2 or 2, caught by the runs of that term's row.  The first
# four wrong laws here drop one such term and are rebuilt by hand, a check
# of the generator that does not go through sum_terms; the rest are not term
# mutants.  Each is rebuilt through the public functions or put in place
# with ``monkeypatch``, and must miss by more than the run's tolerance at
# every point, while the verifier passes there.

TOL_FD = pm.RunConfig(scenario="flat-projection-6-4").tol_fd
MUTATION_CASE = ("flat-projection-6-4", "exp(0.2*x1+0.1*x2)", "1+0.2*x2^2")


def relative_residual(lhs, rhs):
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return np.max(np.abs(lhs - rhs)) / (scale + 1.0)


def test_tolerance_rejects_tension_transform_without_the_rho_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = tension_field(geo.under(gbar))
        tau = tension_field(geo)
        grad_ls, _ = gbar.grad_log_factors(geo)
        s, _ = gbar.factor_values(geo)
        # (2n - m) grad ln rho dropped
        wrong = s ** 2 * (tau + differential(geo)
                          @ ((2.0 - phi.two_n) * grad_ls))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        r = verify_tension_transform(gbar, at(phi, [p]), tol=TOL_FD)
        assert passes(r), p


def test_tolerance_rejects_mean_curvature_without_the_rho_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = mean_curvature_vertical(geo.under(gbar))
        mu = mean_curvature_vertical(geo)
        s, _ = gbar.factor_values(geo)
        wrong = s ** 2 * mu  # H(grad ln rho) dropped
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        r = verify_mean_curvature(gbar, at(phi, [p]), tol=TOL_FD)
        assert passes(r), p


def test_tolerance_rejects_koszul_horizontal_without_the_gxy_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(6)
    for p in sample_points(sc, 4, seed=5):
        x_comp, y_comp = rng.normal(size=(2, phi.m))

        def y_field(q):
            return horizontal_projector(at(phi, q)) @ y_comp

        geo = at(phi, p)
        ph = horizontal_projector(geo)
        x, y = ph @ x_comp, y_field(p)
        dy = directional_derivative(y_field, p, x)  # the Richardson oracle
        lhs = ph @ geo.under(gbar).covariant_derivative(x, y, dy)
        g = phi.source.metric_at(p)[0]
        dls = g @ gbar.grad_log_factors(geo)[0]  # covector of ln sigma
        wrong = ph @ geo.covariant_derivative(x, y, dy)
        for f_i in adapted_frame(geo).horizontal:
            # g(X, Y) grad_H ln sigma, the (dls @ f_i) g(X, Y) f_i sum, dropped
            wrong = wrong + (-(dls @ x) * float(y @ g @ f_i)
                             - (dls @ y) * float(x @ g @ f_i)) * f_i
        dropped = float(x @ g @ y) * (ph @ gbar.grad_log_factors(geo)[0])
        assert np.max(np.abs(dropped)) > 1e-3, p
        assert relative_residual(lhs, wrong) > TOL_FD, p
        r = verify_koszul_h(gbar, at(phi, [p]), x_comp, y_comp,
                              tol=TOL_FD)
        assert passes(r), p


def test_tolerance_rejects_phh_covariant_without_the_y_ln_sigma_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=5):
        x_comp, y_comp = rng.normal(size=(2, phi.m))
        geo = at(phi, p)
        ph = horizontal_projector(geo)
        x, y = ph @ x_comp, ph @ y_comp
        f = pm.f_structure(geo)
        df = pm.hermitian.d_f_structure(geo)
        gamma_bar = geo.under(gbar).christoffel
        nab_bar = pm.hermitian.nabla_f_operator(f, df, gamma_bar)
        lhs = ph @ np.einsum("i,ikj,j->k", x, nab_bar, y)
        nab = pm.hermitian.nabla_f_operator(f, df,
                                            phi.source.christoffel(p))
        g = phi.source.metric_at(p)[0]
        grad_ls = gbar.grad_log_factors(geo)[0]
        grad_h, dls = ph @ grad_ls, g @ grad_ls
        dropped = float(dls @ y) * (f @ x)  # Y(ln sigma) FX
        wrong = (ph @ np.einsum("i,ikj,j->k", x, nab, y)
                 + float(x @ g @ f @ y) * grad_h
                 - float(dls @ f @ y) * x
                 - float(x @ g @ y) * (f @ grad_h))
        assert np.max(np.abs(dropped)) > 1e-3, p
        assert relative_residual(lhs, wrong) > TOL_FD, p
        r = verify_phh_covariant_formula(gbar, at(phi, [p]), x_comp, y_comp,
                                         tol=TOL_FD)
        assert passes(r), p


def test_tolerance_rejects_koszul_vertical_without_the_test_field_derivative():
    # dV = -V^k (d_k P_H) v enters the left side with weight 1 and the right
    # side with sigma^2 rho^-2, so it does not cancel: on hopf, where P_H
    # varies, the law with dV dropped from both sides misses.  The factor 2
    # keeps sigma^2 rho^-2 above 2 on the sample box; near 1 (exp(...) alone
    # near the chart's centre) the dropped term all but cancels there
    sc, gbar = gbar_for("hopf", "2*exp(0.2*x1+0.1*x3)", "1+0.2*x2^2")
    phi = sc.phi
    rng = np.random.default_rng(5)
    for p in sample_points(sc, 4, seed=5):
        v_comp = rng.normal(size=phi.m)
        geo = at(phi, p)
        ph = horizontal_projector(geo)
        v = v_comp - ph @ v_comp
        gamma_bar = geo.under(gbar).christoffel
        lhs = ph @ np.einsum("kij,i,j->k", gamma_bar, v, v)
        s, r = gbar.factor_jets(geo)
        d_rho_m2 = -2.0 * r.value ** -3 * r.grad
        nabla_vv = np.einsum("kij,i,j->k", geo.christoffel, v, v)
        wrong = 0.5 * s.value ** 2 * (
            2.0 * r.value ** -2 * (ph @ nabla_vv)
            - float(v @ geo.g @ v) * (ph @ geo.ginv @ d_rho_m2))
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        r = verify_koszul_v(gbar, at(phi, [p]), v_comp, tol=TOL_FD)
        assert passes(r), p


def test_tolerance_rejects_corollary_psh_with_a_wrong_rho_exponent():
    # rho = sigma^(-(2n-1)/(m-2n)) instead of sigma^(-(2n-2)/(m-2n)): the
    # tension under the changed metric no longer cancels
    sc = get_scenario("flat-projection-6-4")
    phi = sc.phi
    sigma = parse(MUTATION_CASE[1])
    exponent = -(2.0 * phi.n - 1.0) / (phi.m - phi.two_n)
    wrong = ChangedMetric(phi, sigma, pm.exprs.Binary(
        "pow", sigma, pm.exprs.Lit(exponent)))
    right = one_function(sc, sigma)
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        grad_ls = right.grad_log_factors(geo)[0]
        grad_h = horizontal_projector(geo) @ grad_ls
        assert np.max(np.abs(grad_h)) > 1e-3, p
        _, rel, finite, passed = psh(sc, wrong, at(phi, [p]))
        assert finite.all() and rel[0] > TOL_FD and not passed[0], p
        assert passes(psh(sc, right, at(phi, [p]))), p


def test_tolerance_rejects_pullback_of_a_non_holomorphic_function(
        monkeypatch):
    # |z1|^2 is not holomorphic: its pullback has Laplacian 2|d phi_1|^2,
    # nonzero wherever phi is a submersion, so no point passes; the same
    # function in place of the builtin z1 fails the run's pullback identity
    def abs_z1_squared(w):
        return w[0] * w[0] + w[1] * w[1], 0.0 * w[0]

    builtins = pm.biconformal.HOLOMORPHIC_BUILTINS
    monkeypatch.setitem(builtins, "|z1|^2", abs_z1_squared)
    sc = get_scenario("flat-projection-6-4")
    geo = at(sc.phi, sample_points(sc, 4, seed=5))
    _, rel, finite, passed = verify_pullback_characterization(
        geo, "|z1|^2", tol=TOL_FD)
    assert finite.all() and (rel > 100 * TOL_FD).all(), rel
    assert not passed.any()
    assert passes(verify_pullback_characterization(geo, "z1", tol=TOL_FD))
    monkeypatch.setitem(builtins, "z1", abs_z1_squared)
    report = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-6-4", samples=4, identities=["pullback"]))
    row = report["per_identity"][0]
    assert (row["samples_fail"], row["samples_error"]) == (4, 0)
    assert report["verdict"] == "fail"


def test_tolerance_rejects_phwc_equivalence_without_the_metric_defect(
        monkeypatch):
    # nonphwc-anisotropic is not PHWC: its commutator defect is far above
    # the tolerance, so a metric-compatibility defect read as 0 disagrees
    # with it at every point
    monkeypatch.setattr(pm.biconformal, "phwc_metric_defect",
                        lambda geo: (np.zeros(len(geo.p)), 1.0))
    sc = get_scenario("nonphwc-anisotropic")
    with monkeypatch.context() as patch:  # the tolerance the table passes
        seen = []
        patch.setattr(pm.runner, "verify_phwc_equivalence",
                      lambda geo, tol: seen.append(tol))
        pm.runner.IDENTITIES["phwc-equivalence"].check(None, None, 0)
    (tol,) = seen
    _, rel, finite, passed = verify_phwc_equivalence(
        at(sc.phi, sample_points(sc, 5, seed=6)), tol=tol)
    assert len(rel) == 5 and finite.all() and not passed.any()
    assert (rel > 100 * tol).all()
    report = pm.run_verification(pm.RunConfig(
        scenario=sc.name, samples=5, identities=["phwc-equivalence"]))
    row = report["per_identity"][0]
    assert (row["samples_fail"], row["samples_error"]) == (5, 0)
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_side_is_a_sample_error(bad):
    p = np.array([[0.1, 0.2]])
    for lhs, rhs in [([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])]:
        agg = IdentityAggregate("tension-transform")
        # the floating-point state that runner.run_verification sets
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            agg.fold(p, *pm.biconformal._compare([lhs], [rhs], 1e-5))
        assert agg.errors == [{"point": [0.1, 0.2],
                               "error": "non-finite residual"}]
        assert (agg.samples_pass, agg.samples_fail) == (0, 0)
    assert passes(pm.biconformal._compare([[1.0, 0.0]], [[1.0, 0.0]], 1e-5))


def test_vertical_rho_leaves_mean_curvature_pure_scaling():
    # rho depending only on fiber coordinates: H(grad log rho) = 0, so the
    # transformed mean curvature is exactly sigma^2 mu
    sc = get_scenario("curved-fibers-nonharmonic")
    gbar = ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)", "exp(0.2*x3)")
    for p in sample_points(sc, 5, seed=4):
        geo = at(sc.phi, p)
        grad_ls, grad_lr = gbar.grad_log_factors(geo)
        ph = horizontal_projector(geo)
        assert np.max(np.abs(ph @ grad_lr)) < 1e-10
        s, _ = gbar.factor_values(geo)
        mu = mean_curvature_vertical(geo)
        mubar = mean_curvature_vertical(geo.under(gbar))
        assert np.allclose(mubar, s**2 * mu, atol=1e-6)


# ---- equivalences -------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "curved-fibers-nonharmonic", "hopf"])
def test_tension_equivalence(name):
    sc = get_scenario(name)
    for p in sample_points(sc, 5, seed=6):
        r = verify_tension_equivalence(at(sc.phi, [p]))
        assert rel_residual(r) < 1e-6, (p, r)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "nonphwc-anisotropic", "holomorphic-poly"])
def test_phwc_equivalence(name):
    sc = get_scenario(name)
    for p in sample_points(sc, 5, seed=6):
        r = verify_phwc_equivalence(at(sc.phi, [p]))
        assert passes(r), (p, r)


def test_phwc_equivalence_errs_where_phi_has_no_rank(monkeypatch):
    # where dphi drops rank the metric-compatibility defect is not defined:
    # the point is a sample error, as in every other law, and so is any
    # other failure of that defect, never a pass
    z_squared = smooth_map(
        pm.euclidean_space(4), pm.euclidean_space(2),
        lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    with pytest.raises(pm.RankError, match="not a submersion"):
        verify_phwc_equivalence(at(z_squared, np.zeros((1, 4))))

    def failing(geo):
        raise MetricError("metric inversion inaccurate")

    monkeypatch.setattr(pm.maps.LocalGeometry, "horizontal_factor",
                        property(failing))
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises(MetricError):
        verify_phwc_equivalence(at(sc.phi, [P4]))
    report = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-4-2", samples=2,
        identities=["phwc-equivalence"]))
    row = report["per_identity"][0]
    assert (row["samples_error"], row["samples_pass"]) == (2, 0)
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("law", [verify_tension_transform,
                                 verify_mean_curvature, verify_f_divergence])
def test_a_scaled_law_errs_on_its_left_side_first(law):
    # at holomorphic-poly's critical point sigma = x1 - 1 is -1 as well:
    # each sigma^2-scaled law reads its field under g-bar first, which
    # needs phi's horizontal space, so the point errs on phi's rank; sigma,
    # or tension-transform's correction, read first would err on its sign
    sc, gbar = gbar_for("holomorphic-poly", "x1-1", None)
    geo = at(sc.phi, np.zeros((1, 4)))
    with pytest.raises(pm.RankError, match="map is not a submersion"):
        law(gbar, geo)
    with pytest.raises(PositivityError, match="sigma = -1 <= 0"):
        gbar.grad_log_factors(geo)


def test_phwc_equivalence_settles_a_rank_deficient_row_of_a_batch():
    # z^2 has no rank at the origin: the batch raises there, and the run
    # settles it row by row, the origin as an errored row and every other
    # row as in a batch of its own
    z_squared = smooth_map(
        pm.euclidean_space(4), pm.euclidean_space(2),
        lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    scenario = pm.Scenario("z-squared", z_squared, expected_flags={})
    config = pm.RunConfig(scenario="z-squared")
    run = RunContext(scenario, config, config.build_change(scenario))
    points = np.array([P4, [0.2, 0.4, -0.1, 0.3], np.zeros(4),
                       [-0.5, 0.1, 0.2, 0.0], [0.1, -0.3, 0.6, 0.4]])
    with pytest.raises(pm.RankError):
        verify_phwc_equivalence(at(z_squared, points))
    batch, alone = (IdentityAggregate("phwc-equivalence") for _ in range(2))
    run_identity("phwc-equivalence", run, at(z_squared, points), 7, batch)
    [origin] = batch.errors
    assert "not a submersion" in origin["error"]
    assert origin["point"] == [0.0] * 4
    assert (batch.samples_pass, batch.samples_fail) == (4, 0)
    for idx, p in enumerate(points):
        run_identity("phwc-equivalence", run, at(z_squared, [p]), 7 + idx,
                     alone)
    assert batch == alone


@pytest.mark.parametrize("nan", [("phwc_defect", "phwc_metric_defect"),
                                 ("phwc_defect",), ("phwc_metric_defect",)])
def test_a_non_finite_phwc_equivalence_row_is_a_sample_error(monkeypatch,
                                                             nan):
    # a NaN defect reads below no tolerance, so two NaN defects "agree":
    # the row is errored all the same, and so is a row with one NaN defect
    for name in nan:
        monkeypatch.setattr(pm.biconformal, name, lambda geo: (
            np.full(len(geo.p), np.nan), 1.0))
    sc = get_scenario("flat-projection-4-2")
    agg = fold("phwc-equivalence", verify_phwc_equivalence,
               [at(sc.phi, sample_points(sc, 5, 42))])
    assert [err["error"] for err in agg.errors] == ["non-finite residual"] * 5
    assert (agg.samples_pass, agg.samples_fail) == (0, 0)
    report = pm.run_verification(pm.RunConfig(
        scenario=sc.name, samples=5, identities=["phwc-equivalence"]))
    row = report["per_identity"][0]
    assert (row["samples_error"], row["samples_pass"]) == (5, 0)
    assert report["verdict"] == "fail"


def test_pullback_characterization():
    sc = get_scenario("holomorphic-poly")
    for p in sample_points(sc, 5, seed=6):
        for holo in ("z1", "z1^2", "exp(z1)"):
            r = verify_pullback_characterization(at(sc.phi, [p]), holo)
            assert abs_residual(r) < 1e-5, (p, holo, r)


def test_a_non_finite_pullback_reading_is_a_sample_error(monkeypatch):
    # z1^2's Laplacian reads NaN at the first of 5 hopf points: that point
    # errs, though the other test functions pass there
    z1_squared, parts = pm.biconformal.HOLOMORPHIC_BUILTINS["z1^2"], []

    def recording(w):
        re, im = z1_squared(w)
        parts.extend((re, im))
        return re, im

    sc = get_scenario("hopf")
    first = sample_points(sc, 5, 42)[0]
    laplacian = pm.maps.LocalGeometry.laplacian

    def nan_at_first(geo, jet):
        lap = laplacian(geo, jet)
        hit = np.all(geo.p == first, axis=-1) & any(jet is j for j in parts)
        return np.where(hit, np.nan, lap)

    monkeypatch.setitem(pm.biconformal.HOLOMORPHIC_BUILTINS, "z1^2",
                        recording)
    monkeypatch.setattr(pm.maps.LocalGeometry, "laplacian", nan_at_first)
    rep = pm.run_verification(pm.RunConfig(scenario="hopf", samples=5,
                                           identities=["pullback"]))
    [row] = rep["per_identity"]
    assert (row["samples_pass"], row["samples_error"]) == (4, 1)
    assert rep["verdict"] == "fail"


def test_pullback_z1z2_needs_bigger_target():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises(GeometryError):
        verify_pullback_characterization(at(sc.phi, [P4]), "z1*z2")


def test_pullback_rejects_unknown_name():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises((KeyError, ValueError, GeometryError)):
        verify_pullback_characterization(at(sc.phi, [P4]), "z1^7")


# ---- corollaries --------------------------------------------------------

def psh(sc, gbar, geo):
    """corollary-psh at the rows of ``geo``."""
    return corollary_at(("phwc", "harmonic"), gbar, geo, TOL_FD)


def phh(sc, gbar, geo):
    """corollary-phh at the rows of ``geo``."""
    return corollary_at(("phh",), gbar, geo, 1e-6)


def test_corollary_one_function_change_preserves_harmonicity():
    # g_sigma: tension and PHWC defect both stay below tolerance
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 10, seed=11)
    gbar = one_function(sc, parse("1+0.2*x1^2+0.1*x5"))
    out = fold("corollary-psh", lambda geo: psh(sc, gbar, geo),
               [at(sc.phi, [p]) for p in points])
    assert out.passed
    assert out.max_abs_residual < 1e-5


def test_corollary_one_function_change_direct_tension():
    # same content checked without the summary plumbing
    sc = get_scenario("flat-projection-4-2")
    gbar = special_change(sc.phi, parse("1+0.1*x1+0.2*x3^2"))
    for p in sample_points(sc, 5, seed=12):
        geo_bar = at(sc.phi, p, gbar)
        tau = tension_field(geo_bar)
        assert np.max(np.abs(tau)) < 1e-6, p
        defect, _ = phwc_defect(geo_bar)
        assert defect < 1e-8


def test_corollary_converse_nonharmonic_stays_nonharmonic():
    sc = get_scenario("curved-fibers-nonharmonic")
    points = sample_points(sc, 8, seed=11)
    out = fold("corollary-psh", lambda geo: psh(
        sc, one_function(sc, parse("1+0.2*x1^2")), geo),
        [at(sc.phi, [p]) for p in points])
    assert out.passed
    # and directly: the transformed tension keeps its sigma^2 tau magnitude
    gbar = special_change(sc.phi, parse("1+0.2*x1^2"))
    p = points[0]
    s, _ = gbar.factor_values(at(sc.phi, p))
    tau = tension_field(at(sc.phi, p, gbar))
    assert np.allclose(tau, s**2 * np.array([2.0, 0.0]), atol=1e-6)


def test_corollary_phh_constant_sigma_preserved():
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 6, seed=11)
    gbar = one_function(sc, parse("3"))
    out = fold("corollary-phh", lambda geo: phh(sc, gbar, geo),
               [at(sc.phi, [p]) for p in points])
    assert out.passed


def test_corollary_phh_breaking_direction():
    # at n = 2 a nonconstant sigma breaks PHH visibly, and the corollary
    # reads the defect against its prediction sigma ||C||
    sc = get_scenario("flat-projection-6-4")
    geos = [at(sc.phi, [p]) for p in sample_points(sc, 6, seed=11)]
    gbar = one_function(sc, parse("1+0.1*x1"))
    prop = PROPERTIES["phh"]
    for geo in geos:
        assert prop.reading(geo.under(gbar))[0][0] > 1e-3
        assert prop.predict(gbar, geo)[0, 0] > 1e-3
    out = fold("corollary-phh", lambda geo: phh(sc, gbar, geo), geos)
    assert out.passed and out.max_abs_residual < 1e-12


@pytest.mark.parametrize("scenario", ["flat-projection-6-4",
                                      "flat-projection-4-2", "hopf"])
def test_the_phh_prediction_has_a_closed_form(scenario):
    # the prediction sigma sqrt(8 (n - 1)) |grad_H ln sigma| is sigma ||C||,
    # the norm of phh-covariant's correction C over the frame pairs of the
    # horizontal factor's rows: on a PHWC map F is an isometry of H, and the
    # frame sums of C's terms give ||C||^2 = 8 (n - 1) |grad_H ln sigma|^2
    sc = get_scenario(scenario)
    gbar = one_function(sc, parse("exp(0.3*x1+0.2*x3)"))
    geo = at(sc.phi, sample_points(sc, 10, seed=5))
    r = geo.horizontal_factor
    pairs = [sum_terms(phh_correction(gbar, geo, r[:, a], r[:, b]))
             for a in range(sc.phi.two_n) for b in range(sc.phi.two_n)]
    framed = gbar.factor_values(geo)[0] * np.sqrt(
        sum(quad(c, geo.g, c) for c in pairs))
    predicted = PROPERTIES["phh"].predict(gbar, geo)[:, 0]
    assert predicted == pytest.approx(framed, rel=1e-12, abs=1e-14)
    assert (predicted.max() > 1.0) == (sc.phi.n == 2)


def test_corollary_phh_fails_where_phh_does_not_hold():
    # with a J that varies along the target, phi is not PHH under g, and the
    # constant change sigma = 2 keeps it so: the check must fail at every
    # point, where the scenario's own J passes
    sc = get_scenario("flat-projection-6-4")
    gbar = one_function(sc, parse("2"))
    points = sample_points(sc, 5, seed=42)
    geos = [at(sc.phi, [p]) for p in points]
    own = fold("corollary-phh", lambda geo: phh(sc, gbar, geo), geos)
    assert own.passed and own.samples_pass == 5
    phi = with_j(sc.phi, rotated_j(sc.phi.target))
    gbar = special_change(phi, parse("2"))
    out = fold("corollary-phh", lambda geo: phh(sc, gbar, geo),
               [at(phi, [p]) for p in points])
    assert out.samples_fail == 5 and not out.passed
    assert out.max_abs_residual == pytest.approx(1.44, abs=0.01)


# sigma with a visible horizontal log-gradient on both n = 1 PHH scenarios
N1_SIGMA = "exp(0.3*x1+0.2*x3)"


@pytest.mark.parametrize("scenario", ["flat-projection-4-2",
                                      "curved-fibers-nonharmonic"])
def test_corollary_phh_n1_kept_for_every_sigma(scenario):
    # at n = 1 the correction term carries 2n - 2 = 0, and H(nabla_X F)|_H
    # on a 2-dimensional H is skew and anticommutes with F, so it is 0 for
    # every PHWC map: a run checks PHH kept under a nonconstant sigma
    sc = get_scenario(scenario)
    gbar = one_function(sc, parse(N1_SIGMA))
    geo = at(sc.phi, sample_points(sc, 20, seed=5))
    assert np.all(PROPERTIES["phh"].predict(gbar, geo) == 0.0)
    rep = pm.run_verification(pm.RunConfig(
        scenario=scenario, sigma=N1_SIGMA, samples=20, seed=5,
        identities=["corollary-phh"]))
    assert rep["skipped_identities"] == []
    [row] = rep["per_identity"]
    assert (row["samples_pass"], row["passed"]) == (20, True)
    assert row["max_abs_residual"] == 0.0
    assert rep["verdict"] == "pass"


def test_a_phh_defect_under_the_change_fails_the_n1_branch(monkeypatch):
    # no PHWC J can break PHH under an n = 1 change, so a defect of 1.0 is
    # planted under g-bar: the n = 1 branch checks that PHH is kept and
    # fails it at every point, while the flag under g still confirms
    inner = pm.biconformal.phh_defect

    def planted(geo):
        defect, scale = inner(geo)
        return (defect if geo.change is None else np.ones_like(defect),
                scale)

    monkeypatch.setattr(pm.biconformal, "phh_defect", planted)
    rep = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-4-2", sigma=N1_SIGMA, samples=5,
        identities=["corollary-phh"]))
    [row] = rep["per_identity"]
    assert (row["samples_fail"], row["max_abs_residual"]) == (5, 1.0)
    assert rep["flags"]["phh"]["confirmed"] is True
    assert rep["verdict"] == "fail"


def test_report_round_trip_text():
    # the change remembers printable factor expressions
    ch = ChangedMetric.from_texts(get_scenario("flat-projection-4-2").phi,
                                  "exp(0.3*x1)", "1+x2^2")
    assert to_text(ch.sigma) == "exp(0.3 * x1)"
    assert to_text(ch.rho) == "1 + x2^2"
