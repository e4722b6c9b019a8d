"""Biconformal metric changes and the transformation-law verifiers."""

import gc
import math

import numpy as np
import pytest

import phmorph as pm
from phmorph import (
    BiconformalChange,
    BiconformalContext,
    GeometryError,
    PositivityError,
    apply_change,
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
from phmorph.biconformal import check_corollary_phh, check_corollary_psh
from phmorph.manifold import TangentVector, directional_derivative
from phmorph.maps import differential, horizontal_projector, local_geometry
from phmorph.hermitian import adapted_frame, phwc_defect


P4 = np.array([0.3, -0.2, 0.5, 0.1])


def ctx_for(name, sigma, rho):
    sc = get_scenario(name)
    ch = BiconformalChange.from_texts(sigma, rho)
    return sc, BiconformalContext.build(sc.phi, sc.J, ch)


# ---- the change itself --------------------------------------------------

def test_constant_change_scales_blocks():
    # sigma = 2, rho = 1 on the flat projection: horizontal block shrinks by
    # 1/4, vertical block untouched
    sc = get_scenario("flat-projection-4-2")
    ch = BiconformalChange.from_texts("2", "1")
    gbar = apply_change(sc.phi, ch)
    assert np.allclose(gbar.matrix(P4), np.diag([0.25, 0.25, 1.0, 1.0]),
                       atol=1e-14)


def test_change_preserves_block_orthogonality():
    # H and V stay orthogonal for the changed metric, on a scenario whose
    # horizontal distribution is not coordinate-aligned
    sc = get_scenario("holomorphic-poly")
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
    gbar = apply_change(sc.phi, ch)
    for p in sample_points(sc, 5, seed=1):
        ph = horizontal_projector(sc.phi, p)
        pv = np.eye(4) - ph
        gb = gbar.matrix(p)
        assert np.max(np.abs(ph.T @ gb @ pv)) < 1e-10
        # and the horizontal block is the sigma^-2 rescaling of g's
        g = sc.phi.source.metric_at(p)
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
    once = apply_change(sc.phi, both).matrix(P4)
    sb, rb = b.factor_values(P4)
    ga = apply_change(sc.phi, a).matrix(P4)
    ph = horizontal_projector(sc.phi, P4)
    twice = ga @ ph / sb**2 + (ga - ga @ ph) / rb**2
    assert np.max(np.abs(once - twice)) < 1e-12


def test_identity_change_is_identity():
    sc = get_scenario("curved-fibers-nonharmonic")
    gbar = apply_change(sc.phi, BiconformalChange.from_texts("1", "1"))
    assert np.allclose(gbar.matrix(P4), sc.phi.source.metric_at(P4), atol=1e-14)


# ---- sigma and rho kept per point by the changed metric ------------------

FACTOR_READERS = {
    "factor_values": lambda gbar, p: gbar.factor_values(p),
    "factor_jets": lambda gbar, p: tuple(
        part for jet in gbar.factor_jets(p)
        for part in (jet.value, jet.grad, jet.hess)),
    "grad_log_factors": lambda gbar, p: gbar.grad_log_factors(p),
}
FACTOR_CASE = ("holomorphic-poly", "exp(0.3*x1)", "1+x2^2")


def changed_metric(name, sigma, rho):
    sc = get_scenario(name)
    return apply_change(sc.phi, BiconformalChange.from_texts(sigma, rho))


@pytest.mark.parametrize("name", sorted(FACTOR_READERS))
def test_factor_fields_warm_equal_cold(name):
    read = FACTOR_READERS[name]
    cold = read(changed_metric(*FACTOR_CASE), P4)
    gbar = changed_metric(*FACTOR_CASE)
    for _ in range(2):  # fills the memo, then reads it
        for other in FACTOR_READERS.values():
            other(gbar, P4)
        warm = read(gbar, P4.copy())
        assert len(warm) == len(cold)
        assert all(np.array_equal(w, c) for w, c in zip(warm, cold))
    assert gbar.factor_values(P4) == gbar.change.factor_values(P4)


def test_factor_field_arrays_are_read_only():
    gbar = changed_metric(*FACTOR_CASE)
    arrays = [jet.grad for jet in gbar.factor_jets(P4)]
    arrays += [jet.hess for jet in gbar.factor_jets(P4)]
    arrays += list(gbar.grad_log_factors(P4))
    for out in arrays:
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 1.0


@pytest.mark.parametrize("sigma, rho, factor", [("x2", "1", "sigma"),
                                                ("1", "x2", "rho")])
def test_nonpositive_factor_fails_on_every_call(sigma, rho, factor):
    gbar = changed_metric("holomorphic-poly", sigma, rho)  # x2 = -0.2 at P4
    for _ in range(2):
        for read in (gbar.factor_values, gbar.factor_jets,
                     gbar.grad_log_factors, gbar.matrix,
                     gbar.matrix_and_derivs):
            with pytest.raises(PositivityError, match=factor):
                read(P4)


def test_changes_built_one_after_another_never_share_factors():
    # each change is dropped before the next is built, which may then reuse
    # its memory and id
    sc = get_scenario("flat-projection-4-2")
    for k in range(1, 31):
        sigma, rho = float(k), float(k % 7 + 1)
        gbar = apply_change(sc.phi, BiconformalChange(
            pm.exprs.Lit(sigma), pm.exprs.Lit(rho)))
        assert gbar.factor_values(P4) == (sigma, rho)
        assert gbar.factor_jets(P4)[0].value == sigma
        assert np.array_equal(gbar.matrix(P4), np.diag(
            [sigma ** -2] * 2 + [rho ** -2] * 2))
        del gbar
        gc.collect()


def test_factors_evaluated_once_per_change_point_and_route(monkeypatch):
    # in a run, sigma and rho are evaluated once per (change, point), on the
    # one route (as jets), for the change and for the one-function change
    calls, changes = [], []
    for route in ("factor_values", "factor_jets"):
        inner = getattr(BiconformalChange, route)

        def counting(self, p, route=route, inner=inner):
            changes.append(self)  # keeps each id for the run
            calls.append((id(self), route, np.asarray(p).tobytes()))
            return inner(self, p)

        monkeypatch.setattr(BiconformalChange, route, counting)
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
    sc, ctx = ctx_for(name, "1", "1")
    for fn in (verify_tension_transform, verify_mean_curvature,
               verify_f_divergence):
        r = fn(ctx, P4)
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
    sc, ctx = ctx_for(name, sigma, rho)
    for p in sample_points(sc, 6, seed=2):
        for fn in (verify_tension_transform, verify_mean_curvature,
                   verify_f_divergence):
            r = fn(ctx, p)
            assert r.rel_residual < 1e-5, (fn.__name__, p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_koszul_identities(name, sigma, rho):
    sc, ctx = ctx_for(name, sigma, rho)
    m = sc.phi.m
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=8):
        for _ in range(4):
            x = rng.normal(size=m)
            y = rng.normal(size=m)
            r = verify_koszul_h(ctx, p, x, y)
            assert r.rel_residual < 1e-5, (p, r)
            if m > sc.phi.two_n:
                v = rng.normal(size=m)
                r = verify_koszul_v(ctx, p, v)
                assert r.rel_residual < 1e-5, (p, r)


@pytest.mark.parametrize("name, sigma, rho", NONTRIVIAL)
def test_phh_covariant_formula(name, sigma, rho):
    sc, ctx = ctx_for(name, sigma, rho)
    rng = np.random.default_rng(13)
    for p in sample_points(sc, 4, seed=8):
        x = rng.normal(size=sc.phi.m)
        y = rng.normal(size=sc.phi.m)
        r = verify_phh_covariant_formula(ctx, p, x, y)
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
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        lhs = pm.f_divergence_horizontal(phi, sc.J, p,
                                         metric=ctx.gbar).components
        div = pm.f_divergence_horizontal(phi, sc.J, p).components
        grad_ls, _ = ctx.gbar.grad_log_factors(p)
        s, _ = ctx.change.factor_values(p)
        wrong = s ** 2 * (div + (2.0 * phi.n - 1.0)
                          * (horizontal_projector(phi, p) @ grad_ls))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        assert verify_f_divergence(ctx, p, tol=TOL_FD).passed, p


def test_tolerance_rejects_tension_transform_without_the_rho_term():
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        lhs = tension_field(phi, p, metric=ctx.gbar).components
        tau = tension_field(phi, p).components
        grad_ls, _ = ctx.gbar.grad_log_factors(p)
        s, _ = ctx.change.factor_values(p)
        # (2n - m) grad ln rho dropped
        wrong = s ** 2 * (tau + differential(phi, p)
                          @ ((2.0 - phi.two_n) * grad_ls))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        assert verify_tension_transform(ctx, p, tol=TOL_FD).passed, p


def test_tolerance_rejects_mean_curvature_without_the_rho_term():
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        lhs = mean_curvature_vertical(phi, p, metric=ctx.gbar).components
        mu = mean_curvature_vertical(phi, p).components
        s, _ = ctx.change.factor_values(p)
        wrong = s ** 2 * mu  # H(grad ln rho) dropped
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        assert verify_mean_curvature(ctx, p, tol=TOL_FD).passed, p


def test_tolerance_rejects_koszul_vertical_with_the_gradient_sign_flipped():
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(5)
    for p in sample_points(sc, 4, seed=5):
        v_comp = rng.normal(size=phi.m)

        def v_field(q):
            return v_comp - horizontal_projector(phi, q) @ v_comp

        v = v_field(p)
        vv = TangentVector(p, v)
        dv = directional_derivative(v_field, p, v)  # the Richardson oracle
        ph = horizontal_projector(phi, p)
        src_bar = local_geometry(phi, p, ctx.gbar).src
        lhs = ph @ src_bar.covariant_derivative(vv, v, dv).components
        s, r = ctx.change.factor_jets(p)
        g = phi.source.metric_at(p)
        d_rho_m2 = -2.0 * r.value ** -3 * r.grad
        inner = 2.0 * r.value ** -2 * (
            ph @ phi.source.covariant_derivative(vv, v, dv).components)
        for f_i in adapted_frame(phi, sc.J, p).horizontal:
            # the law subtracts this gradient term; here it is added
            inner = inner + (d_rho_m2 @ f_i) * float(v @ g @ v) * f_i
        wrong = 0.5 * s.value ** 2 * inner
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        assert verify_koszul_v(ctx, p, v_comp, tol=TOL_FD).passed, p


def test_tolerance_rejects_koszul_vertical_without_the_test_field_derivative():
    # dV = -V^k (d_k P_H) v enters the left side with weight 1 and the right
    # side with sigma^2 rho^-2, so it does not cancel: on hopf, where P_H
    # varies, the law with dV dropped from both sides misses
    sc, ctx = ctx_for("hopf", "exp(0.2*x1+0.1*x3)", "1+0.2*x2^2")
    phi = sc.phi
    rng = np.random.default_rng(5)
    for p in sample_points(sc, 4, seed=5):
        v_comp = rng.normal(size=phi.m)
        ph = horizontal_projector(phi, p)
        g = phi.source.metric_at(p)
        v = v_comp - ph @ v_comp
        gamma_bar = local_geometry(phi, p, ctx.gbar).christoffel
        lhs = ph @ np.einsum("kij,i,j->k", gamma_bar, v, v)
        s, r = ctx.change.factor_jets(p)
        d_rho_m2 = -2.0 * r.value ** -3 * r.grad
        nabla_vv = np.einsum("kij,i,j->k", phi.source.christoffel(p), v, v)
        wrong = 0.5 * s.value ** 2 * (
            2.0 * r.value ** -2 * (ph @ nabla_vv)
            - float(v @ g @ v) * (ph @ np.linalg.inv(g) @ d_rho_m2))
        assert relative_residual(lhs, wrong) > 100 * TOL_FD, p
        assert verify_koszul_v(ctx, p, v_comp, tol=TOL_FD).passed, p


def test_tolerance_rejects_koszul_horizontal_without_the_gxy_term():
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(6)
    for p in sample_points(sc, 4, seed=5):
        x_comp, y_comp = rng.normal(size=(2, phi.m))

        def y_field(q):
            return horizontal_projector(phi, q) @ y_comp

        ph = horizontal_projector(phi, p)
        x, y = ph @ x_comp, y_field(p)
        xv = TangentVector(p, x)
        dy = directional_derivative(y_field, p, x)  # the Richardson oracle
        src_bar = local_geometry(phi, p, ctx.gbar).src
        lhs = ph @ src_bar.covariant_derivative(xv, y, dy).components
        g = phi.source.metric_at(p)
        dls = g @ ctx.gbar.grad_log_factors(p)[0]  # covector of ln sigma
        wrong = ph @ phi.source.covariant_derivative(xv, y, dy).components
        for f_i in adapted_frame(phi, sc.J, p).horizontal:
            # g(X, Y) grad_H ln sigma, the (dls @ f_i) g(X, Y) f_i sum, dropped
            wrong = wrong + (-(dls @ x) * float(y @ g @ f_i)
                             - (dls @ y) * float(x @ g @ f_i)) * f_i
        dropped = float(x @ g @ y) * (ph @ ctx.gbar.grad_log_factors(p)[0])
        assert np.max(np.abs(dropped)) > 1e-3, p
        assert relative_residual(lhs, wrong) > TOL_FD, p
        assert verify_koszul_h(ctx, p, x_comp, y_comp, tol=TOL_FD).passed, p


def test_tolerance_rejects_phh_covariant_without_the_y_ln_sigma_term():
    sc, ctx = ctx_for(*MUTATION_CASE)
    phi = sc.phi
    rng = np.random.default_rng(7)
    for p in sample_points(sc, 4, seed=5):
        x_comp, y_comp = rng.normal(size=(2, phi.m))
        ph = horizontal_projector(phi, p)
        x, y = ph @ x_comp, ph @ y_comp
        f = pm.f_structure(phi, sc.J, p)
        df = pm.hermitian.d_f_structure(phi, sc.J, p)
        gamma_bar = local_geometry(phi, p, ctx.gbar).christoffel
        nab_bar = pm.hermitian.nabla_f_operator(f, df, gamma_bar)
        lhs = ph @ np.einsum("i,ikj,j->k", x, nab_bar, y)
        nab = pm.hermitian.nabla_f_operator(f, df,
                                            phi.source.christoffel(p))
        g = phi.source.metric_at(p)
        grad_ls = ctx.gbar.grad_log_factors(p)[0]
        grad_h, dls = ph @ grad_ls, g @ grad_ls
        dropped = float(dls @ y) * (f @ x)  # Y(ln sigma) FX
        wrong = (ph @ np.einsum("i,ikj,j->k", x, nab, y)
                 + float(x @ g @ f @ y) * grad_h
                 - float(dls @ f @ y) * x
                 - float(x @ g @ y) * (f @ grad_h))
        assert np.max(np.abs(dropped)) > 1e-3, p
        assert relative_residual(lhs, wrong) > TOL_FD, p
        assert verify_phh_covariant_formula(ctx, p, x_comp, y_comp,
                                            tol=TOL_FD).passed, p


def test_tolerance_rejects_tension_f_structure_with_m_minus_2n_plus_1():
    # the flat fibers of flat-projection-6-4 have mu^V = 0, so the check
    # runs where the fibers curve
    sc = get_scenario("curved-fibers-nonharmonic")
    phi = sc.phi
    for p in sample_points(sc, 4, seed=5):
        lhs = tension_field(phi, p).components
        div = pm.f_divergence_horizontal(phi, sc.J, p).components
        mu = mean_curvature_vertical(phi, p).components
        assert np.max(np.abs(differential(phi, p) @ mu)) > 1e-3, p
        wrong = -(differential(phi, p)
                  @ (div + (phi.m - phi.two_n + 1.0) * mu))
        assert relative_residual(lhs, wrong) > TOL_FD, p
        assert verify_tension_equivalence(phi, sc.J, p, tol=TOL_FD).passed, p


def test_tolerance_rejects_corollary_psh_with_a_wrong_rho_exponent():
    # rho = sigma^(-(2n-1)/(m-2n)) instead of sigma^(-(2n-2)/(m-2n)): the
    # tension under the changed metric no longer cancels
    sc = get_scenario("flat-projection-6-4")
    phi = sc.phi
    sigma = parse(MUTATION_CASE[1])
    exponent = -(2.0 * phi.n - 1.0) / (phi.m - phi.two_n)
    wrong = BiconformalContext.build(phi, sc.J, BiconformalChange(
        sigma, pm.exprs.Binary("pow", sigma, pm.exprs.Lit(exponent))))
    right = pm.biconformal.one_function_context(phi, sc.J, sigma)
    for p in sample_points(sc, 4, seed=5):
        grad_ls = right.gbar.grad_log_factors(p)[0]
        grad_h = horizontal_projector(phi, p) @ grad_ls
        assert np.max(np.abs(grad_h)) > 1e-3, p
        rep = pm.biconformal.corollary_psh_at(sc, wrong, p, tol=TOL_FD)
        assert rep.rel_residual > TOL_FD and not rep.passed, p
        assert pm.biconformal.corollary_psh_at(sc, right, p,
                                               tol=TOL_FD).passed, p


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_side_is_a_sample_error(bad):
    p = [0.1, 0.2]
    for lhs, rhs in [([bad, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, bad])]:
        rep = pm.biconformal._report("tension-transform", p, lhs, rhs, 1e-5)
        assert rep.error is not None and not rep.passed
    assert pm.biconformal._report("tension-transform", p, [1.0, 0.0],
                                  [1.0, 0.0], 1e-5).passed


def test_vertical_rho_leaves_mean_curvature_pure_scaling():
    # rho depending only on fiber coordinates: H(grad log rho) = 0, so the
    # transformed mean curvature is exactly sigma^2 mu
    sc = get_scenario("curved-fibers-nonharmonic")
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "exp(0.2*x3)")
    ctx = BiconformalContext.build(sc.phi, sc.J, ch)
    from phmorph.maps import horizontal_projector
    for p in sample_points(sc, 5, seed=4):
        grad_ls, grad_lr = ctx.gbar.grad_log_factors(p)
        ph = horizontal_projector(sc.phi, p)
        assert np.max(np.abs(ph @ grad_lr)) < 1e-10
        s, _ = ch.factor_values(p)
        mu = mean_curvature_vertical(sc.phi, p)
        mubar = mean_curvature_vertical(sc.phi, p, metric=ctx.gbar)
        assert np.allclose(mubar.components, s**2 * mu.components, atol=1e-6)


# ---- equivalences -------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "flat-projection-6-4",
             "holomorphic-poly", "curved-fibers-nonharmonic", "hopf"])
def test_tension_equivalence(name):
    sc = get_scenario(name)
    for p in sample_points(sc, 5, seed=6):
        r = verify_tension_equivalence(sc.phi, sc.J, p)
        assert r.rel_residual < 1e-6, (p, r)


@pytest.mark.parametrize(
    "name", ["flat-projection-4-2", "nonphwc-anisotropic", "holomorphic-poly"])
def test_phwc_equivalence(name):
    sc = get_scenario(name)
    for p in sample_points(sc, 5, seed=6):
        r = verify_phwc_equivalence(sc.phi, sc.J, p)
        assert r.passed, (p, r)


def test_pullback_characterization():
    sc = get_scenario("holomorphic-poly")
    for p in sample_points(sc, 5, seed=6):
        for holo in ("z1", "z1^2", "exp(z1)"):
            r = verify_pullback_characterization(sc.phi, sc.J, p, holo)
            assert r.abs_residual < 1e-5, (p, holo, r)


def test_pullback_z1z2_needs_bigger_target():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises(GeometryError):
        verify_pullback_characterization(sc.phi, sc.J, P4, "z1*z2")


def test_pullback_rejects_unknown_name():
    sc = get_scenario("flat-projection-4-2")
    with pytest.raises((KeyError, ValueError, GeometryError)):
        verify_pullback_characterization(sc.phi, sc.J, P4, "z1^7")


# ---- corollaries --------------------------------------------------------

def test_corollary_one_function_change_preserves_harmonicity():
    # g_sigma: tension and PHWC defect both stay below tolerance
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 10, seed=11)
    out = check_corollary_psh(sc, parse("1+0.2*x1^2+0.1*x5"), points)
    assert out.passed and not out.skipped
    assert out.max_abs_residual < 1e-5


def test_corollary_one_function_change_direct_tension():
    # same content checked without the summary plumbing
    sc = get_scenario("flat-projection-4-2")
    ch = special_change(parse("1+0.1*x1+0.2*x3^2"), 4, 1)
    gbar = apply_change(sc.phi, ch)
    for p in sample_points(sc, 5, seed=12):
        tau = tension_field(sc.phi, p, metric=gbar)
        assert np.max(np.abs(tau.components)) < 1e-6, p
        defect, _ = phwc_defect(sc.phi, sc.J, p, metric=gbar)
        assert defect < 1e-8


def test_corollary_converse_nonharmonic_stays_nonharmonic():
    sc = get_scenario("curved-fibers-nonharmonic")
    points = sample_points(sc, 8, seed=11)
    out = check_corollary_psh(sc, parse("1+0.2*x1^2"), points)
    assert out.passed
    # and directly: the transformed tension keeps its sigma^2 tau magnitude
    ch = special_change(parse("1+0.2*x1^2"), 4, 1)
    gbar = apply_change(sc.phi, ch)
    p = points[0]
    s, _ = ch.factor_values(p)
    tau = tension_field(sc.phi, p, metric=gbar)
    assert np.allclose(tau.components, s**2 * np.array([2.0, 0.0]), atol=1e-6)


def test_corollary_phh_constant_sigma_preserved():
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 6, seed=11)
    out = check_corollary_phh(sc, parse("3"), points)
    assert out.passed and not out.skipped


def test_corollary_phh_breaking_direction():
    sc = get_scenario("flat-projection-6-4")
    points = sample_points(sc, 6, seed=11)
    out = check_corollary_phh(sc, parse("1+0.1*x1"), points)
    assert out.passed and not out.skipped


def test_corollary_phh_n1_degeneracy_skipped():
    sc = get_scenario("flat-projection-4-2")
    points = sample_points(sc, 4, seed=11)
    out = check_corollary_phh(sc, parse("1+0.1*x1"), points)
    assert out.skipped
    assert out.warning


def test_report_round_trip_text():
    # the change remembers printable factor expressions
    ch = BiconformalChange.from_texts("exp(0.3*x1)", "1+x2^2")
    assert to_text(ch.sigma) == "exp(0.3 * x1)"
    assert to_text(ch.rho) == "1 + x2^2"
