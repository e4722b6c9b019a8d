"""Biconformal metric changes and the transformation-law verifiers."""

import gc
import math

import numpy as np
import pytest

import phmorph as pm
from phmorph import (
    BiconformalChange,
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
    to_text,
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
from phmorph.biconformal import (PHH_N1_WARNING, corollary_phh_at,
                                 corollary_psh_at)
from phmorph.manifold import directional_derivative
from phmorph.maps import differential, horizontal_projector
from phmorph.hermitian import adapted_frame, phwc_defect
from phmorph.runner import IDENTITIES, RunContext, run_identity
from tests.test_exact_derivatives import rotated_j
from tests.test_maps import at


P4 = np.array([0.3, -0.2, 0.5, 0.1])


def gbar_for(name, sigma, rho):
    sc = get_scenario(name)
    ch = BiconformalChange.from_texts(sigma, rho)
    return sc, ChangedMetric(sc.phi, ch)


def one_function(sc, sigma):
    """The changed metric of the one-function change of ``sigma``."""
    return ChangedMetric(sc.phi, special_change(sigma, sc.phi.m, sc.phi.n))


def fold(name, check, geos):
    """A corollary's reports folded into the aggregate that a run folds
    them into."""
    agg = IDENTITIES[name].aggregate(name)
    for geo in geos:
        for rep in check(geo):
            agg.add(rep)
    return agg


# ---- the change itself --------------------------------------------------

def test_constant_change_scales_blocks():
    # sigma = 2, rho = 1 on the flat projection: horizontal block shrinks by
    # 1/4, vertical block untouched
    sc = get_scenario("flat-projection-4-2")
    ch = BiconformalChange.from_texts("2", "1")
    gbar = ChangedMetric(sc.phi, ch)
    assert np.allclose(at(sc.phi, P4, gbar).g,
                       np.diag([0.25, 0.25, 1.0, 1.0]), atol=1e-14)


def test_change_preserves_block_orthogonality():
    # H and V stay orthogonal for the changed metric, on a scenario whose
    # horizontal distribution is not coordinate-aligned
    sc = get_scenario("holomorphic-poly")
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
    gbar = ChangedMetric(sc.phi, ch)
    for p in sample_points(sc, 5, seed=1):
        ph = horizontal_projector(at(sc.phi, p))
        pv = np.eye(4) - ph
        gb = at(sc.phi, p, gbar).g
        assert np.max(np.abs(ph.T @ gb @ pv)) < 1e-10
        # and the horizontal block is the sigma^-2 rescaling of g's
        g = sc.phi.source.metric_at(p)[0]
        s, _ = ch.factor_values(p)
        assert np.allclose(ph.T @ gb @ ph, ph.T @ g @ ph / s**2, atol=1e-10)


def test_rho_defaults_to_one():
    # omitting rho leaves the vertical block untouched
    ch = BiconformalChange.from_texts("1+x1^2")
    s, r = ch.factor_values(P4)
    assert s == pytest.approx(1.09, rel=1e-14)
    assert r == 1.0


def test_positivity_enforced():
    ch = BiconformalChange.from_texts("x1", "1")
    with pytest.raises(PositivityError):
        ch.factor_values(np.array([-0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(PositivityError):
        BiconformalChange.from_texts("1", "0").factor_values(P4)


def test_special_change_exponents():
    # rho = sigma^{-(2n-2)/(m-2n)}
    s = parse("exp(x1)")
    assert special_change(s, 4, 1).factor_values(P4)[1] == pytest.approx(1.0)
    ch = special_change(s, 6, 2)
    sv, rv = ch.factor_values(np.array([0.3, 0, 0, 0, 0, 0]))
    assert rv == pytest.approx(1.0 / sv, rel=1e-14)
    with pytest.raises(GeometryError):
        special_change(s, 4, 2)


def test_compose_matches_sequential_metrics():
    # change a, then change b, is the one change with multiplied factors
    sc = get_scenario("flat-projection-4-2")
    a = BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
    b = BiconformalChange.from_texts("2", "exp(0.1*x3)")
    both = BiconformalChange.from_texts("exp(0.3*x1)*2",
                                        "(1+x2^2)*exp(0.1*x3)")
    once = at(sc.phi, P4, ChangedMetric(sc.phi, both)).g
    sb, rb = b.factor_values(P4)
    ga = at(sc.phi, P4, ChangedMetric(sc.phi, a)).g
    ph = horizontal_projector(at(sc.phi, P4))
    twice = ga @ ph / sb**2 + (ga - ga @ ph) / rb**2
    assert np.max(np.abs(once - twice)) < 1e-12


def test_identity_change_is_identity():
    sc = get_scenario("curved-fibers-nonharmonic")
    gbar = ChangedMetric(sc.phi, BiconformalChange.from_texts("1", "1"))
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
    return ChangedMetric(sc.phi, BiconformalChange.from_texts(sigma, rho))


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
    assert gbar.factor_values(geo) == gbar.change.factor_values(P4)


def test_factor_field_arrays_are_read_only():
    gbar = changed_metric(*FACTOR_CASE)
    geo = at(gbar.phi, P4)
    arrays = [jet.grad for jet in gbar.factor_jets(geo)]
    arrays += [jet.hess for jet in gbar.factor_jets(geo)]
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
                      lambda c: [c[0] + 0.1 * c[2], c[1]])
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


def test_changes_built_one_after_another_never_share_factors():
    # each change is dropped before the next is built, which may then reuse
    # its memory and id
    sc = get_scenario("flat-projection-4-2")
    for k in range(1, 31):
        sigma, rho = float(k), float(k % 7 + 1)
        gbar = ChangedMetric(sc.phi, BiconformalChange(
            pm.exprs.Lit(sigma), pm.exprs.Lit(rho)))
        geo = at(sc.phi, P4)
        assert gbar.factor_values(geo) == (sigma, rho)
        assert gbar.factor_jets(geo)[0].value == sigma
        assert np.array_equal(geo.under(gbar).g, np.diag(
            [sigma ** -2] * 2 + [rho ** -2] * 2))
        del gbar
        gc.collect()


def test_factors_evaluated_once_per_change_point_and_route(monkeypatch):
    # in a run, sigma and rho are evaluated once per (change, point), on the
    # one route (as jets), for the change and for the one-function change;
    # a batched call counts once for each of its rows
    calls, changes = [], []
    for route in ("factor_values", "factor_jets"):
        inner = getattr(BiconformalChange, route)

        def counting(self, p, route=route, inner=inner):
            changes.append(self)  # keeps each id for the run
            calls.extend((id(self), route, q.tobytes())
                         for q in np.reshape(p, (-1, np.shape(p)[-1])))
            return inner(self, p)

        monkeypatch.setattr(BiconformalChange, route, counting)
    monkeypatch.setattr(pm.runner, "CHUNK", 3)  # a full and a partial chunk
    rep = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-6-4", sigma="exp(0.2*x1)",
        rho="1+0.1*x5^2", samples=4))
    assert rep["verdict"] == "pass"
    assert len(calls) == len(set(calls)) == 2 * 4
    assert {route for _, route, _ in calls} == {"factor_jets"}
    assert len({change for change, _, _ in calls}) == 2


# ---- identity verifiers, trivial cases ----------------------------------

@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "holomorphic-poly",
             "curved-fibers-nonharmonic"])
def test_identity_change_residuals_vanish(name):
    sc, gbar = gbar_for(name, "1", "1")
    for fn in (verify_tension_transform, verify_mean_curvature,
               lambda gbar, geo: verify_f_divergence(gbar, geo, sc.J)):
        [r] = fn(gbar, at(sc.phi, [P4]))
        assert r.passed and r.abs_residual < 1e-9, r


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
                   lambda gbar, geo: verify_f_divergence(gbar, geo, sc.J)):
            [r] = fn(gbar, at(sc.phi, [p]))
            assert r.rel_residual < 1e-5, (fn.__name__, p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_koszul_identities(name, sigma, rho):
    sc, gbar = gbar_for(name, sigma, rho)
    m = sc.phi.m
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=8):
        for _ in range(4):
            x = rng.normal(size=m)
            y = rng.normal(size=m)
            [r] = verify_koszul_h(gbar, at(sc.phi, [p]), x, y)
            assert r.rel_residual < 1e-5, (p, r)
            if m > sc.phi.two_n:
                v = rng.normal(size=m)
                [r] = verify_koszul_v(gbar, at(sc.phi, [p]), v)
                assert r.rel_residual < 1e-5, (p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_phh_covariant_formula(name, sigma, rho):
    sc, gbar = gbar_for(name, sigma, rho)
    rng = np.random.default_rng(13)
    for p in sample_points(sc, 4, seed=8):
        x = rng.normal(size=sc.phi.m)
        y = rng.normal(size=sc.phi.m)
        [r] = verify_phh_covariant_formula(gbar, at(sc.phi, [p]), sc.J, x, y)
        assert r.rel_residual < 1e-5, (p, r)


# ---- the tolerance rejects wrong laws ------------------------------------
# Each law's right side is rebuilt here through the public functions with one
# coefficient changed, on the n = 2 scenario where the 2n-2 terms are nonzero.
# The changed law must miss the directly computed left side by more than the
# run's tolerance at every point, while the verifier passes there.

TOL_FD = pm.RunConfig(scenario="flat-projection-6-4").tol_fd
MUTATION_CASE = ("flat-projection-6-4", "exp(0.2*x1+0.1*x2)", "1+0.2*x2^2")


def relative_residual(lhs, rhs):
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return np.max(np.abs(lhs - rhs)) / (scale + 1.0)


def test_tolerance_rejects_f_divergence_with_2n_minus_1():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = pm.f_divergence_horizontal(geo.under(gbar), sc.J)
        div = pm.f_divergence_horizontal(geo, sc.J)
        grad_ls, _ = gbar.grad_log_factors(geo)
        s, _ = gbar.change.factor_values(p)
        wrong = s ** 2 * (div + (2.0 * phi.n - 1.0)
                          * (horizontal_projector(geo) @ grad_ls))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        [r] = verify_f_divergence(gbar, at(phi, [p]), sc.J, tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_tension_transform_without_the_rho_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = tension_field(geo.under(gbar))
        tau = tension_field(geo)
        grad_ls, _ = gbar.grad_log_factors(geo)
        s, _ = gbar.change.factor_values(p)
        # (2n - m) grad ln rho dropped
        wrong = s ** 2 * (tau + differential(geo)
                          @ ((2.0 - phi.two_n) * grad_ls))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        [r] = verify_tension_transform(gbar, at(phi, [p]), tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_mean_curvature_without_the_rho_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = mean_curvature_vertical(geo.under(gbar))
        mu = mean_curvature_vertical(geo)
        s, _ = gbar.change.factor_values(p)
        wrong = s ** 2 * mu  # H(grad ln rho) dropped
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        [r] = verify_mean_curvature(gbar, at(phi, [p]), tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_koszul_vertical_with_the_gradient_sign_flipped():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(5)
    for p in sample_points(sc, 4, seed=5):
        v_comp = rng.normal(size=phi.m)

        def v_field(q):
            return v_comp - horizontal_projector(at(phi, q)) @ v_comp

        v = v_field(p)
        dv = directional_derivative(v_field, p, v)  # the Richardson oracle
        geo = at(phi, p)
        ph = horizontal_projector(geo)
        lhs = ph @ geo.under(gbar).covariant_derivative(v, v, dv)
        s, r = gbar.change.factor_jets(p)
        g = phi.source.metric_at(p)[0]
        d_rho_m2 = -2.0 * r.value ** -3 * r.grad
        inner = 2.0 * r.value ** -2 * (
            ph @ geo.covariant_derivative(v, v, dv))
        for f_i in adapted_frame(geo, sc.J).horizontal:
            # the law subtracts this gradient term; here it is added
            inner = inner + (d_rho_m2 @ f_i) * float(v @ g @ v) * f_i
        wrong = 0.5 * s.value ** 2 * inner
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        [r] = verify_koszul_v(gbar, at(phi, [p]), v_comp, tol=TOL_FD)
        assert r.passed, p


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
        g = phi.source.metric_at(p)[0]
        v = v_comp - ph @ v_comp
        gamma_bar = geo.under(gbar).christoffel
        lhs = ph @ np.einsum("kij,i,j->k", gamma_bar, v, v)
        s, r = gbar.change.factor_jets(p)
        d_rho_m2 = -2.0 * r.value ** -3 * r.grad
        nabla_vv = np.einsum("kij,i,j->k", phi.source.christoffel(p), v, v)
        wrong = 0.5 * s.value ** 2 * (
            2.0 * r.value ** -2 * (ph @ nabla_vv)
            - float(v @ g @ v) * (ph @ np.linalg.inv(g) @ d_rho_m2))
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        [r] = verify_koszul_v(gbar, at(phi, [p]), v_comp, tol=TOL_FD)
        assert r.passed, p


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
        for f_i in adapted_frame(geo, sc.J).horizontal:
            # g(X, Y) grad_H ln sigma, the (dls @ f_i) g(X, Y) f_i sum, dropped
            wrong = wrong + (-(dls @ x) * float(y @ g @ f_i)
                             - (dls @ y) * float(x @ g @ f_i)) * f_i
        dropped = float(x @ g @ y) * (ph @ gbar.grad_log_factors(geo)[0])
        assert np.max(np.abs(dropped)) > 1e-3, p
        assert relative_residual(lhs, wrong) > TOL_FD, p
        [r] = verify_koszul_h(gbar, at(phi, [p]), x_comp, y_comp,
                              tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_phh_covariant_without_the_y_ln_sigma_term():
    sc, gbar = gbar_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=5):
        x_comp, y_comp = rng.normal(size=(2, phi.m))
        geo = at(phi, p)
        ph = horizontal_projector(geo)
        x, y = ph @ x_comp, ph @ y_comp
        f = pm.f_structure(geo, sc.J)
        df = pm.hermitian.d_f_structure(geo, sc.J)
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
        [r] = verify_phh_covariant_formula(gbar, at(phi, [p]), sc.J, x_comp,
                                           y_comp, tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_tension_f_structure_with_m_minus_2n_plus_1():
    # the flat fibers of flat-projection-6-4 have mu^V = 0, so the check
    # runs where the fibers curve
    sc = get_scenario("curved-fibers-nonharmonic")
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        lhs = tension_field(geo)
        div = pm.f_divergence_horizontal(geo, sc.J)
        mu = mean_curvature_vertical(geo)
        assert np.max(np.abs(differential(geo) @ mu)) > 1e-3, p
        wrong = -(differential(geo)
                  @ (div + (phi.m - phi.two_n + 1.0) * mu))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        [r] = verify_tension_equivalence(at(phi, [p]), sc.J, tol=TOL_FD)
        assert r.passed, p


def test_tolerance_rejects_corollary_psh_with_a_wrong_rho_exponent():
    # rho = sigma^(-(2n-1)/(m-2n)) instead of sigma^(-(2n-2)/(m-2n)): the
    # tension under the changed metric no longer cancels
    sc = get_scenario("flat-projection-6-4")
    phi = sc.phi
    sigma = parse(MUTATION_CASE[1])
    exponent = -(2.0 * phi.n - 1.0) / (phi.m - phi.two_n)
    wrong = ChangedMetric(phi, BiconformalChange(
        sigma, pm.exprs.Binary("pow", sigma, pm.exprs.Lit(exponent))))
    right = one_function(sc, sigma)
    for p in sample_points(sc, 4, seed=5):
        geo = at(phi, p)
        grad_ls = right.grad_log_factors(geo)[0]
        grad_h = horizontal_projector(geo) @ grad_ls
        assert np.max(np.abs(grad_h)) > 1e-3, p
        [rep] = corollary_psh_at(sc, wrong, at(phi, [p]), tol=TOL_FD)
        assert rep.rel_residual > TOL_FD and not rep.passed, p
        [rep] = corollary_psh_at(sc, right, at(phi, [p]), tol=TOL_FD)
        assert rep.passed, p


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
    for rep in verify_pullback_characterization(geo, "|z1|^2", tol=TOL_FD):
        assert rep.rel_residual > 100 * TOL_FD and not rep.passed, rep
    assert all(rep.passed for rep in
               verify_pullback_characterization(geo, "z1", tol=TOL_FD))
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
                        lambda geo, J: (np.zeros(len(geo.p)), 1.0))
    sc = get_scenario("nonphwc-anisotropic")
    tol = pm.RunConfig(scenario=sc.name).tol_ad
    reps = verify_phwc_equivalence(at(sc.phi, sample_points(sc, 5, seed=6)),
                                   sc.J, tol=tol)
    assert len(reps) == 5 and not any(rep.passed for rep in reps)
    assert all(rep.rel_residual > 100 * tol for rep in reps)
    report = pm.run_verification(pm.RunConfig(
        scenario=sc.name, samples=5, identities=["phwc-equivalence"]))
    row = report["per_identity"][0]
    assert (row["samples_fail"], row["samples_error"]) == (5, 0)
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_side_is_a_sample_error(bad):
    p = np.array([[0.1, 0.2]])
    for lhs, rhs in [([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])]:
        # the floating-point state that runner.run_verification sets
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            [rep] = pm.biconformal._report("tension-transform", p, [lhs],
                                           [rhs], 1e-5)
        assert rep.error is not None and not rep.passed
    [rep] = pm.biconformal._report("tension-transform", p, [[1.0, 0.0]],
                                   [[1.0, 0.0]], 1e-5)
    assert rep.passed


def test_vertical_rho_leaves_mean_curvature_pure_scaling():
    # rho depending only on fiber coordinates: H(grad log rho) = 0, so the
    # transformed mean curvature is exactly sigma^2 mu
    sc = get_scenario("curved-fibers-nonharmonic")
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "exp(0.2*x3)")
    gbar = ChangedMetric(sc.phi, ch)
    for p in sample_points(sc, 5, seed=4):
        geo = at(sc.phi, p)
        grad_ls, grad_lr = gbar.grad_log_factors(geo)
        ph = horizontal_projector(geo)
        assert np.max(np.abs(ph @ grad_lr)) < 1e-10
        s, _ = ch.factor_values(p)
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
        [r] = verify_tension_equivalence(at(sc.phi, [p]), sc.J)
        assert r.rel_residual < 1e-6, (p, r)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "nonphwc-anisotropic", "holomorphic-poly"])
def test_phwc_equivalence(name):
    sc = get_scenario(name)
    for p in sample_points(sc, 5, seed=6):
        [r] = verify_phwc_equivalence(at(sc.phi, [p]), sc.J)
        assert r.passed, (p, r)


def test_phwc_equivalence_passes_only_where_phi_has_no_rank(monkeypatch):
    # where dphi drops rank only the commutator defect is defined, and the
    # point passes; any other failure of the metric-compatibility defect is
    # a sample error, never a pass
    z_squared = SmoothMap(pm.euclidean_space(4), pm.euclidean_space(2),
                          lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    [rep] = verify_phwc_equivalence(at(z_squared, np.zeros((1, 4))),
                                    pm.scenarios.constant_J(z_squared.target))
    assert rep.passed and rep.rel_residual == 0.0

    def failing(geo):
        raise MetricError("metric inversion inaccurate")

    monkeypatch.setattr(pm.maps.LocalGeometry, "horizontal_factor",
                        property(failing))
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises(MetricError):
        verify_phwc_equivalence(at(sc.phi, [P4]), sc.J)
    report = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-4-2", samples=2,
        identities=["phwc-equivalence"]))
    row = report["per_identity"][0]
    assert (row["samples_error"], row["samples_pass"]) == (2, 0)
    assert report["verdict"] == "fail"


def test_phwc_equivalence_settles_a_rank_deficient_row_of_a_batch():
    # z^2 has no rank at the origin: the batch raises there, and the run
    # settles it row by row, the origin with the commutator-only reading
    # and every other row as in a batch of its own
    z_squared = SmoothMap(pm.euclidean_space(4), pm.euclidean_space(2),
                          lambda c: [c[0] ** 2 - c[1] ** 2, 2.0 * c[0] * c[1]])
    scenario = pm.Scenario("z-squared", z_squared,
                           pm.scenarios.constant_J(z_squared.target),
                           expected_flags={})
    config = pm.RunConfig(scenario="z-squared")
    run = RunContext(scenario, config, config.build_change(scenario))
    points = np.array([P4, [0.2, 0.4, -0.1, 0.3], np.zeros(4),
                       [-0.5, 0.1, 0.2, 0.0], [0.1, -0.3, 0.6, 0.4]])
    with pytest.raises(pm.RankError):
        verify_phwc_equivalence(at(z_squared, points), scenario.J)
    reports = run_identity("phwc-equivalence", run, at(z_squared, points), 7)
    origin = reports.pop(2)
    assert origin.error is None and origin.passed
    assert origin.point == [0.0] * 4 and origin.rel_residual == 0.0
    alone = [run_identity("phwc-equivalence", run, at(z_squared, [p]), 0)[0]
             for p in np.delete(points, 2, axis=0)]
    assert reports == alone
    assert all(rep.error is None and rep.passed for rep in reports)


def test_pullback_characterization():
    sc = get_scenario("holomorphic-poly")
    for p in sample_points(sc, 5, seed=6):
        for holo in ("z1", "z1^2", "exp(z1)"):
            [r] = verify_pullback_characterization(at(sc.phi, [p]), holo)
            assert r.abs_residual < 1e-5, (p, holo, r)


def test_pullback_z1z2_needs_bigger_target():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises(GeometryError):
        verify_pullback_characterization(at(sc.phi, [P4]), "z1*z2")


def test_pullback_rejects_unknown_name():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises((KeyError, ValueError, GeometryError)):
        verify_pullback_characterization(at(sc.phi, [P4]), "z1^7")


# ---- corollaries --------------------------------------------------------

def test_corollary_one_function_change_preserves_harmonicity():
    # g_sigma: tension and PHWC defect both stay below tolerance
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 10, seed=11)
    gbar = one_function(sc, parse("1+0.2*x1^2+0.1*x5"))
    out = fold("corollary-psh", lambda geo: corollary_psh_at(sc, gbar, geo),
               [at(sc.phi, [p]) for p in points])
    assert out.passed
    assert out.max_abs_residual < 1e-5


def test_corollary_one_function_change_direct_tension():
    # same content checked without the summary plumbing
    sc = get_scenario("flat-projection-4-2")
    ch = special_change(parse("1+0.1*x1+0.2*x3^2"), 4, 1)
    gbar = ChangedMetric(sc.phi, ch)
    for p in sample_points(sc, 5, seed=12):
        geo_bar = at(sc.phi, p, gbar)
        tau = tension_field(geo_bar)
        assert np.max(np.abs(tau)) < 1e-6, p
        defect, _ = phwc_defect(geo_bar, sc.J)
        assert defect < 1e-8


def test_corollary_converse_nonharmonic_stays_nonharmonic():
    sc = get_scenario("curved-fibers-nonharmonic")
    points = sample_points(sc, 8, seed=11)
    out = fold("corollary-psh", lambda geo: corollary_psh_at(
        sc, one_function(sc, parse("1+0.2*x1^2")), geo),
        [at(sc.phi, [p]) for p in points])
    assert out.passed
    # and directly: the transformed tension keeps its sigma^2 tau magnitude
    ch = special_change(parse("1+0.2*x1^2"), 4, 1)
    gbar = ChangedMetric(sc.phi, ch)
    p = points[0]
    s, _ = ch.factor_values(p)
    tau = tension_field(at(sc.phi, p, gbar))
    assert np.allclose(tau, s**2 * np.array([2.0, 0.0]), atol=1e-6)


def test_corollary_phh_constant_sigma_preserved():
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 6, seed=11)
    gbar = one_function(sc, parse("3"))
    out = fold("corollary-phh", lambda geo: corollary_phh_at(gbar, geo, sc.J),
               [at(sc.phi, [p]) for p in points])
    assert out.passed


def test_corollary_phh_breaking_direction():
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 6, seed=11)
    gbar = one_function(sc, parse("1+0.1*x1"))
    out = fold("corollary-phh", lambda geo: corollary_phh_at(gbar, geo, sc.J),
               [at(sc.phi, [p]) for p in points])
    assert out.passed


def test_corollary_phh_fails_where_phh_does_not_hold():
    # with a J that varies along the target, phi is not PHH under g, and the
    # constant change sigma = 2 keeps it so: the check must fail at every
    # point, where the scenario's own J passes
    sc = get_scenario("flat-projection-6-4")
    gbar = one_function(sc, parse("2"))
    geos = [at(sc.phi, [p]) for p in sample_points(sc, 5, seed=42)]
    own = fold("corollary-phh", lambda geo: corollary_phh_at(gbar, geo, sc.J),
               geos)
    assert own.passed and own.samples_pass == 5
    j = rotated_j(sc.phi.target)
    out = fold("corollary-phh", lambda geo: corollary_phh_at(gbar, geo, j),
               geos)
    assert out.samples_fail == 5 and not out.passed
    assert out.max_abs_residual == pytest.approx(1.44, abs=0.01)


def test_corollary_phh_n1_degeneracy_skipped():
    # a run skips it, with the warning in the reason
    rep = pm.run_verification(pm.RunConfig(
        scenario="flat-projection-4-2", sigma="1+0.1*x1", samples=4, seed=11,
        identities=["corollary-phh"]))
    assert rep["per_identity"] == []
    assert rep["skipped_identities"] == [
        {"name": "corollary-phh", "reason": "skipped: " + PHH_N1_WARNING}]


def test_report_round_trip_text():
    # the change remembers printable factor expressions
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
    assert to_text(ch.sigma) == "exp(0.3 * x1)"
    assert to_text(ch.rho) == "1 + x2^2"
