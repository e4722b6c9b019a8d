"""Biconformal changes of the domain metric and numerical verification of
their transformation laws.

Every ``verify_*`` routine computes one identity's two sides by genuinely
independent routes (direct finite-difference geometry of the rescaled metric
on one side, the closed-form transformation law on the other) and reports the
residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import exprs, jets
from .exprs import Expr
from .jets import Jet2, JetDomainError
from .manifold import (FDMetric, GeometryError, TangentVector)
from .maps import (SmoothMap, differential, horizontal_projector,
                   mean_curvature_vertical, tension_field,
                   vertical_projector)
from .hermitian import (AlmostComplexStructureField, adapted_frame,
                        d_f_structure, f_divergence_horizontal, f_structure,
                        nabla_f_operator, phh_defect, phwc_defect,
                        phwc_metric_defect, tension_via_f_structure)

REL_FLOOR = 1.0  # residuals are read relative to (scale + this floor)


class PositivityError(GeometryError):
    """A conformal factor failed to be strictly positive at a sample point."""


@dataclass(frozen=True)
class BiconformalChange:
    """Rescale the horizontal metric block by sigma^-2 and the vertical one
    by rho^-2, both factors given as parsed scalar-field expressions."""
    sigma: Expr
    rho: Expr

    @staticmethod
    def from_texts(sigma_text: str, rho_text: Optional[str] = None):
        sigma = exprs.parse(sigma_text)
        rho = exprs.parse(rho_text) if rho_text else exprs.Lit(1.0)
        return BiconformalChange(sigma, rho)

    def factor_values(self, p):
        coords = [float(x) for x in np.asarray(p, dtype=float)]
        s = float(exprs.eval_jet(self.sigma, coords))
        r = float(exprs.eval_jet(self.rho, coords))
        if s <= 0.0:
            raise PositivityError("sigma = %g <= 0 at %s" % (s, coords))
        if r <= 0.0:
            raise PositivityError("rho = %g <= 0 at %s" % (r, coords))
        return s, r

    def factor_jets(self, p):
        coords = jets.seed_coordinates(np.asarray(p, dtype=float))
        dim = len(coords)
        s = exprs.eval_jet(self.sigma, coords)
        r = exprs.eval_jet(self.rho, coords)
        s = (s if isinstance(s, Jet2) else Jet2.constant(float(s), dim)).check()
        r = (r if isinstance(r, Jet2) else Jet2.constant(float(r), dim)).check()
        if s.value <= 0.0:
            raise PositivityError("sigma = %g <= 0 at %s"
                                  % (s.value, np.asarray(p).tolist()))
        if r.value <= 0.0:
            raise PositivityError("rho = %g <= 0 at %s"
                                  % (r.value, np.asarray(p).tolist()))
        return s, r

    def compose(self, other: "BiconformalChange") -> "BiconformalChange":
        """Applying self then other equals one change with multiplied factors."""
        return BiconformalChange(exprs.Binary("mul", self.sigma, other.sigma),
                                 exprs.Binary("mul", self.rho, other.rho))


def identity_change() -> BiconformalChange:
    return BiconformalChange(exprs.Lit(1.0), exprs.Lit(1.0))


def special_change(sigma: Expr, m: int, n: int) -> BiconformalChange:
    """The one-function family: vertical factor rho^-2 = sigma^((4n-4)/(m-2n)),
    i.e. rho = sigma^(-(2n-2)/(m-2n)).  Requires genuine fibers (m > 2n)."""
    if m <= 2 * n:
        raise GeometryError("the one-function change needs m > 2n "
                            "(got m=%d, n=%d)" % (m, n))
    exponent = -(2.0 * n - 2.0) / (m - 2.0 * n)
    if exponent == 0.0:
        rho: Expr = exprs.Lit(1.0)
    else:
        rho = exprs.Binary("pow", sigma, exprs.Lit(exponent))
    return BiconformalChange(sigma, rho)


def apply_change(phi: SmoothMap, change: BiconformalChange,
                 fd_step: float = 1e-4) -> FDMetric:
    """Metric field of gbar = sigma^-2 g^H + rho^-2 g^V as a value-level
    matrix function; derivatives come from Richardson central differences
    (the horizontal/vertical projections involve linear solves)."""
    base = phi.source.metric

    def matrix_fn(p):
        g = base.matrix(p)
        ph = horizontal_projector(phi, p)
        gh = g @ ph
        gh = 0.5 * (gh + gh.T)  # symmetric up to roundoff by construction
        gv = g - gh
        s, r = change.factor_values(p)
        return gh / s ** 2 + gv / r ** 2

    return FDMetric(phi.m, matrix_fn, fd_step)


@dataclass
class BiconformalContext:
    """A map together with a biconformal change of its source metric."""
    phi: SmoothMap
    J: AlmostComplexStructureField
    change: BiconformalChange
    gbar: FDMetric
    fd_step: float = 1e-4

    @staticmethod
    def build(phi, J, change, fd_step: float = 1e-4):
        return BiconformalContext(phi, J, change,
                                  apply_change(phi, change, fd_step), fd_step)

    # frequently used quantities at a point ------------------------------

    def g(self, p):
        return self.phi.source.metric_at(p)

    def grad_log_factors(self, p):
        """g-gradients of ln(sigma) and ln(rho) as component vectors."""
        s, r = self.change.factor_jets(p)
        ginv = self.phi.source.inverse_metric_at(p)
        return ginv @ (s.grad / s.value), ginv @ (r.grad / r.value)


@dataclass
class IdentityResidualReport:
    identity: str
    point: list
    abs_residual: float
    rel_residual: float
    passed: bool
    strategy: str
    error: Optional[str] = None
    extra: dict = dc_field(default_factory=dict)


def _report(identity, p, lhs, rhs, tol, strategy, extra=None):
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    absr = float(np.max(np.abs(lhs - rhs)))
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    rel = absr / (scale + REL_FLOOR)
    return IdentityResidualReport(identity, np.asarray(p).tolist(), absr, rel,
                                  rel < tol, strategy, extra=extra or {})


def _require_horizontal(name, v, ph, g):
    v = np.asarray(v, dtype=float)
    hv = ph @ v
    if float(hv @ g @ hv) <= 1e-16:
        raise GeometryError("%s has no horizontal part" % name)
    return hv


def verify_koszul_h(ctx: BiconformalContext, p, x_comp, y_comp,
                    tol: float = 1e-5) -> IdentityResidualReport:
    """Horizontal part of nabla-bar_X Y for horizontal X, Y against the
    Koszul-derived transformation law."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    g = ctx.g(p)
    ph = horizontal_projector(phi, p)
    x = _require_horizontal("X", x_comp, ph, g)

    def y_field(q):
        return horizontal_projector(phi, q) @ np.asarray(y_comp, dtype=float)

    y = y_field(p)
    src = phi.source
    src_bar = src.with_metric(ctx.gbar)
    xv = TangentVector(p, x)
    lhs = ph @ src_bar.covariant_derivative(y_field, xv).components

    frame = adapted_frame(phi, ctx.J, p)
    grad_ls, _ = ctx.grad_log_factors(p)
    dls = g @ grad_ls  # covector of ln sigma
    rhs = ph @ src.covariant_derivative(y_field, xv).components
    gxy = float(x @ g @ y)
    for f_i in frame.horizontal:
        coeff = (-(dls @ x) * float(y @ g @ f_i)
                 - (dls @ y) * float(x @ g @ f_i)
                 + (dls @ f_i) * gxy)
        rhs = rhs + coeff * f_i
    return _report("koszul-horizontal", p, lhs, rhs, tol, "fd")


def verify_koszul_v(ctx: BiconformalContext, p, v_comp,
                    tol: float = 1e-5) -> IdentityResidualReport:
    """Horizontal part of nabla-bar_V V for vertical V against the
    transformation law."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    if phi.m <= phi.two_n:
        raise GeometryError("no vertical distribution (m = 2n)")
    g = ctx.g(p)
    ph = horizontal_projector(phi, p)
    pv = np.eye(phi.m) - ph

    def v_field(q):
        return vertical_projector(phi, q) @ np.asarray(v_comp, dtype=float)

    v = v_field(p)
    if float(v @ g @ v) <= 1e-16:
        raise GeometryError("V has no vertical part")
    src = phi.source
    src_bar = src.with_metric(ctx.gbar)
    vv = TangentVector(p, v)
    lhs = ph @ src_bar.covariant_derivative(v_field, vv).components

    s_jet, r_jet = ctx.change.factor_jets(p)
    s = s_jet.value
    rho = r_jet.value
    # covector of rho^-2
    d_rho_m2 = -2.0 * rho ** -3 * r_jet.grad
    frame = adapted_frame(phi, ctx.J, p)
    gvv = float(v @ g @ v)
    inner = 2.0 * rho ** -2 * (ph @ src.covariant_derivative(v_field, vv).components)
    for f_i in frame.horizontal:
        inner = inner - (d_rho_m2 @ f_i) * gvv * f_i
    rhs = 0.5 * s ** 2 * inner
    return _report("koszul-vertical", p, lhs, rhs, tol, "fd")


def verify_mean_curvature(ctx: BiconformalContext, p,
                          tol: float = 1e-5) -> IdentityResidualReport:
    """Fiber mean curvature under the change: mu-bar = sigma^2 [mu + H(grad ln rho)]."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    if phi.m <= phi.two_n:
        raise GeometryError("no fibers (m = 2n)")
    lhs = mean_curvature_vertical(phi, p, metric=ctx.gbar,
                                  fd_step=ctx.fd_step).components
    mu = mean_curvature_vertical(phi, p, fd_step=ctx.fd_step).components
    _, grad_lr = ctx.grad_log_factors(p)
    ph = horizontal_projector(phi, p)
    s, _ = ctx.change.factor_values(p)
    rhs = s ** 2 * (mu + ph @ grad_lr)
    return _report("mean-curvature", p, lhs, rhs, tol, "fd")


def verify_f_divergence(ctx: BiconformalContext, p,
                        tol: float = 1e-5) -> IdentityResidualReport:
    """F div_H F under the change: sigma^2 [F div_H F + (2n-2) grad_H ln sigma].

    The full (unprojected) gradient correction is also reported; the two
    differ only by a vertical component that the left side cannot contain.
    """
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    lhs = f_divergence_horizontal(phi, ctx.J, p, metric=ctx.gbar,
                                  fd_step=ctx.fd_step).components
    div = f_divergence_horizontal(phi, ctx.J, p, fd_step=ctx.fd_step).components
    grad_ls, _ = ctx.grad_log_factors(p)
    ph = horizontal_projector(phi, p)
    s, _ = ctx.change.factor_values(p)
    n2 = 2.0 * phi.n - 2.0
    rhs = s ** 2 * (div + n2 * (ph @ grad_ls))
    rhs_full = s ** 2 * (div + n2 * grad_ls)
    rep = _report("f-divergence", p, lhs, rhs, tol, "fd")
    rep.extra["abs_residual_full_gradient"] = float(
        np.max(np.abs(lhs - rhs_full)))
    return rep


def verify_tension_transform(ctx: BiconformalContext, p,
                             tol: float = 1e-5) -> IdentityResidualReport:
    """Tension field under the change:

    tau-bar = sigma^2 [tau + dphi((2n-m) grad ln rho + (2-2n) grad ln sigma)]
    """
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    lhs = tension_field(phi, p, metric=ctx.gbar).components
    tau = tension_field(phi, p).components
    grad_ls, grad_lr = ctx.grad_log_factors(p)
    a = differential(phi, p)
    s, _ = ctx.change.factor_values(p)
    two_n, m = phi.two_n, phi.m
    correction = (two_n - m) * grad_lr + (2.0 - two_n) * grad_ls
    rhs = s ** 2 * (tau + a @ correction)
    return _report("tension-transform", p, lhs, rhs, tol, "fd")


def verify_phh_covariant_formula(ctx: BiconformalContext, p, x_comp, y_comp,
                                 tol: float = 1e-5) -> IdentityResidualReport:
    """Horizontal part of (nabla-bar_X F)Y for horizontal X, Y against its
    expansion in terms of the unchanged connection and ln sigma:

    H((nabla-bar_X F)Y) = H((nabla_X F)Y) + g(X, FY) grad_H(ln sigma)
                          - FY(ln sigma) X + Y(ln sigma) FX
                          - g(X, Y) F(grad_H(ln sigma))
    """
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    g = ctx.g(p)
    ph = horizontal_projector(phi, p)
    x = _require_horizontal("X", x_comp, ph, g)
    y = _require_horizontal("Y", y_comp, ph, g)
    f = f_structure(phi, ctx.J, p)
    df = d_f_structure(phi, ctx.J, p, step=ctx.fd_step)

    gamma_bar = phi.source.with_metric(ctx.gbar).christoffel(p)
    nab_bar = nabla_f_operator(f, df, gamma_bar)
    lhs = ph @ np.einsum("i,ikj,j->k", x, nab_bar, y)

    gamma = phi.source.christoffel(p)
    nab = nabla_f_operator(f, df, gamma)
    grad_ls, _ = ctx.grad_log_factors(p)
    grad_h = ph @ grad_ls
    dls = g @ grad_ls
    fy = f @ y
    fx = f @ x
    rhs = (ph @ np.einsum("i,ikj,j->k", x, nab, y)
           + float(x @ g @ fy) * grad_h
           - float(dls @ fy) * x
           + float(dls @ y) * fx
           - float(x @ g @ y) * (f @ grad_h))
    return _report("phh-covariant", p, lhs, rhs, tol, "fd")


# ---- holomorphic test functions for the pullback characterization --------

def _holo_z1(w):
    return w[0], w[1]


def _holo_z1_sq(w):
    return w[0] * w[0] - w[1] * w[1], 2.0 * w[0] * w[1]


def _holo_exp_z1(w):
    return jets.exp(w[0]) * jets.cos(w[1]), jets.exp(w[0]) * jets.sin(w[1])


def _holo_z1_z2(w):
    if len(w) < 4:
        raise GeometryError("z1*z2 needs a target of complex dimension >= 2")
    return w[0] * w[2] - w[1] * w[3], w[0] * w[3] + w[1] * w[2]


HOLOMORPHIC_BUILTINS = {
    "z1": _holo_z1,
    "z1^2": _holo_z1_sq,
    "exp(z1)": _holo_exp_z1,
    "z1*z2": _holo_z1_z2,
}


def verify_pullback_characterization(phi: SmoothMap,
                                     J: AlmostComplexStructureField,
                                     p, holo_name: str,
                                     metric=None,
                                     tol: float = 1e-5) -> IdentityResidualReport:
    """Laplacian of Re and Im of (holomorphic f) o phi; both vanish for a
    pseudo-harmonic morphism with respect to the supplied metric."""
    fn = HOLOMORPHIC_BUILTINS[holo_name]
    src = phi.source if metric is None else phi.source.with_metric(metric)
    lap = np.array([
        src.laplace_beltrami(lambda c: fn(phi.components(c))[0], p),
        src.laplace_beltrami(lambda c: fn(phi.components(c))[1], p),
    ])
    rep = _report("pullback", p, lap, np.zeros(2), tol,
                  src.metric.strategy)
    rep.extra["function"] = holo_name
    return rep


def verify_tension_equivalence(phi: SmoothMap, J: AlmostComplexStructureField,
                               p, metric=None, tol: float = 1e-6,
                               fd_step: float = 1e-4) -> IdentityResidualReport:
    """Trace-formula tension field against the f-structure route."""
    lhs = tension_field(phi, p, metric=metric).components
    rhs = tension_via_f_structure(phi, J, p, metric=metric,
                                  fd_step=fd_step).components
    return _report("tension-f-structure", p, lhs, rhs, tol, "fd")


def verify_phwc_equivalence(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric=None,
                            tol: float = 1e-6) -> IdentityResidualReport:
    """The operator-commutator defect and the metric-compatibility defect
    vanish together (both below tol, or both above)."""
    d1, s1 = phwc_defect(phi, J, p, metric)
    r1 = d1 / (s1 + REL_FLOOR)
    try:
        d2, s2 = phwc_metric_defect(phi, J, p, metric)
        r2 = d2 / (s2 + REL_FLOOR)
    except GeometryError:
        # no submersion structure; only the commutator defect is defined
        rep = IdentityResidualReport("phwc-equivalence",
                                     np.asarray(p).tolist(), d1, r1,
                                     True, "ad",
                                     extra={"note": "metric defect undefined"})
        return rep
    agree = (r1 < tol) == (r2 < tol)
    rep = IdentityResidualReport(
        "phwc-equivalence", np.asarray(p).tolist(),
        max(d1, d2), max(r1, r2), agree, "ad",
        extra={"commutator_defect": d1, "metric_defect": d2})
    return rep


@dataclass
class CorollarySummary:
    name: str
    samples_pass: int = 0
    samples_fail: int = 0
    samples_error: int = 0
    skipped: bool = False
    warning: str = ""
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    worst_point: Optional[list] = None
    details: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.skipped or (self.samples_fail == 0
                                and self.samples_pass > 0)


def check_corollary_psh(scenario, sigma: Expr, points,
                        tol: float = 1e-5) -> CorollarySummary:
    """Harmonicity and metric compatibility survive the one-function change.

    On a scenario that is harmonic and PHWC under g, both the tension field
    and the PHWC defect must stay below tolerance under g_sigma; on a
    non-harmonic PHWC scenario the tension must stay visibly nonzero
    (here checked through sigma^2 tau, the exact transformed value for this
    change)."""
    phi, J = scenario.phi, scenario.J
    if phi.m <= phi.two_n:
        raise GeometryError("the one-function change needs m > 2n")
    change = special_change(sigma, phi.m, phi.n)
    ctx = BiconformalContext.build(phi, J, change)
    expect_harmonic = scenario.expected_flags.get("harmonic")
    summary = CorollarySummary("corollary-psh")
    for p in points:
        try:
            tau_bar = tension_field(phi, p, metric=ctx.gbar).components
            defect, scale = phwc_defect(phi, J, p, metric=ctx.gbar)
            rel_defect = defect / (scale + REL_FLOOR)
            tau_norm = float(np.max(np.abs(tau_bar))) / REL_FLOOR
            if expect_harmonic:
                ok = tau_norm < tol and rel_defect < tol
                resid = max(tau_norm, rel_defect)
            else:
                # tension must not collapse to zero where tau_g is nonzero
                s, _ = change.factor_values(p)
                tau_g = tension_field(phi, p).components
                ref = s ** 2 * float(np.max(np.abs(tau_g)))
                ok = rel_defect < tol and (
                    ref < 10 * tol or float(np.max(np.abs(tau_bar))) > 0.5 * ref)
                resid = rel_defect
        except (GeometryError, JetDomainError, exprs.EvalError) as err:
            summary.samples_error += 1
            summary.details.append({"point": np.asarray(p).tolist(),
                                    "error": str(err)})
            continue
        if resid >= summary.max_abs_residual:
            summary.max_abs_residual = resid
            summary.max_rel_residual = resid
            summary.worst_point = np.asarray(p).tolist()
        if ok:
            summary.samples_pass += 1
        else:
            summary.samples_fail += 1
    return summary


def check_corollary_phh(scenario, sigma: Expr, points,
                        tol: float = 1e-6,
                        breaking_floor: float = 1e-3) -> CorollarySummary:
    """PHH survives the one-function change exactly for constant sigma.

    Constant sigma: the PHH defect under g_sigma stays below tol.  Nonconstant
    sigma with a horizontally nonvanishing gradient must break PHH visibly
    (defect above ``breaking_floor``) -- but only for n >= 2: for n = 1 the
    correction carries a factor 2n-2 = 0 and the breaking direction is
    reported as skipped."""
    phi, J = scenario.phi, scenario.J
    if phi.m <= phi.two_n:
        raise GeometryError("the one-function change needs m > 2n")
    constant = exprs.max_var_index(sigma) < 0
    summary = CorollarySummary("corollary-phh")
    if not constant and phi.n < 2:
        summary.skipped = True
        summary.warning = ("breaking direction skipped: the correction term "
                           "carries a factor 2n-2 = 0 for n = 1")
        return summary
    change = special_change(sigma, phi.m, phi.n)
    ctx = BiconformalContext.build(phi, J, change)
    for p in points:
        try:
            defect, scale = phh_defect(phi, J, p, metric=ctx.gbar,
                                       fd_step=ctx.fd_step)
            if constant:
                ok = defect / (scale + REL_FLOOR) < tol
            else:
                s_jet, _ = ctx.change.factor_jets(p)
                ph = horizontal_projector(phi, p)
                ginv = phi.source.inverse_metric_at(p)
                g = phi.source.metric_at(p)
                grad_h = ph @ (ginv @ (s_jet.grad / s_jet.value))
                strength = float(np.sqrt(grad_h @ g @ grad_h))
                # only points with a visible horizontal log-gradient must break
                ok = defect > breaking_floor if strength > 0.05 else True
        except (GeometryError, JetDomainError, exprs.EvalError) as err:
            summary.samples_error += 1
            summary.details.append({"point": np.asarray(p).tolist(),
                                    "error": str(err)})
            continue
        val = defect
        if val >= summary.max_abs_residual:
            summary.max_abs_residual = val
            summary.max_rel_residual = val / (scale + REL_FLOOR)
            summary.worst_point = np.asarray(p).tolist()
        if ok:
            summary.samples_pass += 1
        else:
            summary.samples_fail += 1
    return summary
