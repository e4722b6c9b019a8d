"""Biconformal changes of the domain metric and numerical verification of
their transformation laws.

The changed metric g-bar = sigma^-2 g^H + rho^-2 g^V is a ``ChangedMetric``
with exact first derivatives: d(g P_H) comes from the projector algebra of
``maps.LocalGeometry`` and the factors' derivatives from their jets.  The
``ChangedMetric`` holds sigma and rho per point, in phi's local geometry
under g-bar: ``factor_jets``, evaluated once per (change, point), whose
values g-bar and the right sides of the laws read (no float twin), and
``grad_log_factors``.  A factor that is not positive raises
``PositivityError`` on every call.  Every
``verify_*`` routine computes one identity's two sides by independent routes
(the Levi-Civita geometry of g-bar, built from g-bar's own (g-bar, d g-bar),
on one side; the closed-form transformation law on g's connection on the
other) and reports the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import exprs, jets
from .exprs import Expr
from .jets import Jet2, JetDomainError
from .manifold import GeometryError, MetricError, MetricField, TangentVector
from .maps import (SmoothMap, differential, horizontal_projector,
                   local_geometry, mean_curvature_vertical, tension_field)
from .hermitian import (AlmostComplexStructureField, d_f_structure,
                        f_divergence_horizontal, f_structure,
                        nabla_f_operator, phh_defect, phwc_defect,
                        phwc_metric_defect, tension_via_f_structure)

REL_FLOOR = 1.0  # residuals are read relative to (scale + this floor)


class PositivityError(GeometryError):
    """A conformal factor failed to be strictly positive at a sample point."""


# Failures that make one sample point error instead of ending the run.  An
# ArithmeticError is a float overflow at the point, such as sigma^2 for a
# sigma near the largest float.
SAMPLE_ERRORS = (GeometryError, JetDomainError, exprs.EvalError,
                 np.linalg.LinAlgError, ArithmeticError)


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
        """(sigma, rho) at p: the values of ``factor_jets``."""
        s, r = self.factor_jets(p)
        return s.value, r.value

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


def _inverse_square(name, jet, p):
    """(f^-2, d(f^-2)) of a factor jet f, with d(f^-2) = -2 f^-2 d(ln f)
    taken in Python floats (which overflow to inf silently), both checked:
    f^-2 to be finite and positive before anything is divided by it."""
    square = jet.value * jet.value
    weight = 1.0 / square if square > 0.0 else math.inf
    if not 0.0 < weight < math.inf:
        raise MetricError("%s^-2 is not a finite positive number at %s "
                          "(%s = %g)" % (name, np.asarray(p).tolist(), name,
                                         jet.value))
    d_weight = [-2.0 * weight * (float(d) / jet.value) for d in jet.grad]
    if not all(map(math.isfinite, d_weight)):
        raise MetricError("the derivative of %s^-2 is not finite at %s"
                          % (name, np.asarray(p).tolist()))
    return weight, np.array(d_weight)


def _symmetric(a):
    """The symmetric part of a matrix, or of each (k, :, :) slice."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class ChangedMetric(MetricField):
    """g-bar = sigma^-2 g^H + rho^-2 g^V for a map phi and a change, with
    g^H = g P_H.  It keeps phi's horizontal distribution, so phi's P_H, lift
    and their derivatives are read from the source metric's geometry.  Its
    derivatives are exact:

    d g-bar = d(sigma^-2) g P_H + sigma^-2 d(g P_H)
              + d(rho^-2) (g - g P_H) + rho^-2 (dg - d(g P_H)),

    with d(g P_H) = dg P_H + g dP_H.  sigma and rho are evaluated once per
    point, as jets, and kept in phi's local geometry under this metric."""

    def __init__(self, phi: SmoothMap, change: BiconformalChange):
        super().__init__(phi.m)
        self.phi, self.change = phi, change
        self.keeps_horizontal_of = phi

    def _factor_field(self, name, compute, p):
        """A per-point datum of the factors, kept in phi's local geometry
        under this metric."""
        geo = local_geometry(self.phi, p, self)
        return geo.field(name, lambda: compute(geo.p))

    def factor_jets(self, p):
        """(sigma, rho) at p as jets (``BiconformalChange.factor_jets``)."""
        return self._factor_field("factor_jets", self.change.factor_jets, p)

    def factor_values(self, p):
        """(sigma, rho) at p: the values of the kept ``factor_jets``."""
        s, r = self.factor_jets(p)
        return s.value, r.value

    def grad_log_factors(self, p):
        """g-gradients of ln(sigma) and ln(rho) as component vectors."""
        def compute(q):
            s, r = self.factor_jets(q)
            ginv = self.phi.source.inverse_metric_at(q)
            return ginv @ (s.grad / s.value), ginv @ (r.grad / r.value)

        return self._factor_field("grad_log_factors", compute, p)

    def _horizontal_block(self, p):
        """g and g^H = g P_H at p (symmetric up to roundoff by
        construction, so symmetrized)."""
        g = self.phi.source.metric_at(p)
        return g, _symmetric(g @ horizontal_projector(self.phi, p))

    def matrix(self, p):
        p = np.asarray(p, dtype=float)
        g, gh = self._horizontal_block(p)
        s, r = self.factor_jets(p)
        return (gh * _inverse_square("sigma", s, p)[0]
                + (g - gh) * _inverse_square("rho", r, p)[0])

    def matrix_and_derivs(self, p):
        p = np.asarray(p, dtype=float)
        s, r = self.factor_jets(p)
        w_h, dw_h = _inverse_square("sigma", s, p)
        w_v, dw_v = _inverse_square("rho", r, p)
        g, gh = self._horizontal_block(p)
        geo = local_geometry(self.phi, p)
        dg = geo.src.metric_and_derivs_at(p)[1]
        dgh = _symmetric(dg @ geo.projector_and_lift[0]
                         + g @ geo.projector_and_lift_derivs[0])
        gbar = gh * w_h + (g - gh) * w_v
        dgbar = (dw_h[:, None, None] * gh + w_h * dgh
                 + dw_v[:, None, None] * (g - gh) + w_v * (dg - dgh))
        return gbar, dgbar


def apply_change(phi: SmoothMap, change: BiconformalChange) -> ChangedMetric:
    """The metric field g-bar = sigma^-2 g^H + rho^-2 g^V of a change."""
    return ChangedMetric(phi, change)


@dataclass
class BiconformalContext:
    """A map together with a biconformal change of its source metric."""
    phi: SmoothMap
    J: AlmostComplexStructureField
    change: BiconformalChange
    gbar: ChangedMetric

    @staticmethod
    def build(phi, J, change):
        return BiconformalContext(phi, J, change, apply_change(phi, change))


@dataclass
class IdentityResidualReport:
    identity: str
    point: list
    abs_residual: float
    rel_residual: float
    passed: bool
    error: Optional[str] = None


def errored_report(identity, p, err) -> IdentityResidualReport:
    return IdentityResidualReport(identity, np.asarray(p).tolist(), 0.0, 0.0,
                                  False, error=str(err))


@dataclass
class IdentityAggregate:
    """Per-identity tally of sample reports, read in sample-point order.
    A corollary's worst point has the largest absolute residual rather than
    the largest relative one (for corollary-phh, the PHH defect itself); a
    corollary that does not apply is ``skipped``, with a ``warning``."""
    name: str
    samples_pass: int = 0
    samples_fail: int = 0
    samples_error: int = 0
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    worst_point: Optional[list] = None
    errors: list = dc_field(default_factory=list)
    worst_by_abs: bool = False
    skipped: bool = False
    warning: str = ""

    def add(self, rep: IdentityResidualReport):
        if rep.error is not None:
            self.samples_error += 1
            self.errors.append({"point": rep.point, "error": rep.error})
            return
        # ">=": of two equal residuals the later point is the worst; a NaN
        # residual never is
        if self.worst_by_abs:
            beats = rep.abs_residual >= self.max_abs_residual
        else:
            beats = rep.rel_residual >= self.max_rel_residual
        if beats:
            self.max_abs_residual = rep.abs_residual
            self.max_rel_residual = rep.rel_residual
            self.worst_point = rep.point
        if rep.passed:
            self.samples_pass += 1
        else:
            self.samples_fail += 1

    @property
    def passed(self) -> bool:
        """Skipped, or every sample point was checked and passed."""
        return self.skipped or (self.samples_fail == 0
                                and self.samples_error == 0
                                and self.samples_pass > 0)

    def as_dict(self):
        return {
            "name": self.name,
            "samples_pass": self.samples_pass,
            "samples_fail": self.samples_fail,
            "samples_error": self.samples_error,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "worst_point": self.worst_point,
            "passed": self.passed,
        }


def _report(identity, p, lhs, rhs, tol):
    """Residual report of lhs = rhs; a non-finite side is a sample error."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    absr = float(np.max(np.abs(lhs - rhs)))
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    if not (np.isfinite(absr) and np.isfinite(scale)):
        return errored_report(identity, p, "non-finite residual")
    rel = absr / (scale + REL_FLOOR)
    return IdentityResidualReport(identity, np.asarray(p).tolist(), absr, rel,
                                  rel < tol)


def _require_horizontal(name, v, ph, g):
    v = np.asarray(v, dtype=float)
    hv = ph @ v
    if float(hv @ g @ hv) <= 1e-16:
        raise GeometryError("%s has no horizontal part" % name)
    return hv


def verify_koszul_h(ctx: BiconformalContext, p, x_comp, y_comp,
                    tol: float = 1e-5) -> IdentityResidualReport:
    """Horizontal part of nabla-bar_X Y for horizontal X = P_H x_comp and
    Y = P_H y_comp against the closed form the Koszul formula gives:

    H(nabla-bar_X Y) = H(nabla_X Y) - X(ln sigma) Y - Y(ln sigma) X
                       + g(X, Y) grad_H(ln sigma)

    nabla-bar - nabla is a tensor, so the derivative of a test field Y
    cancels between the sides: each contracts its own Christoffel symbols
    on (X, Y), the left side g-bar's and the right side g's."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    geo = local_geometry(phi, p)
    g = geo.src.metric_at(p)
    ph = geo.projector_and_lift[0]
    x = _require_horizontal("X", x_comp, ph, g)
    y = ph @ np.asarray(y_comp, dtype=float)
    gamma_bar = local_geometry(phi, p, ctx.gbar).christoffel
    lhs = ph @ np.einsum("kij,i,j->k", gamma_bar, x, y)

    grad_ls, _ = ctx.gbar.grad_log_factors(p)
    dls = g @ grad_ls  # covector of ln sigma
    rhs = (ph @ np.einsum("kij,i,j->k", geo.christoffel, x, y)
           - (dls @ x) * y - (dls @ y) * x
           + float(x @ g @ y) * (ph @ grad_ls))
    return _report("koszul-horizontal", p, lhs, rhs, tol)


def verify_koszul_v(ctx: BiconformalContext, p, v_comp,
                    tol: float = 1e-5) -> IdentityResidualReport:
    """Horizontal part of nabla-bar_V V for vertical V against the law

    H(nabla-bar_V V) = (sigma^2 / 2) [2 rho^-2 H(nabla_V V)
                                      - g(V, V) P_H g^-1 d(rho^-2)]

    on the test field V = P_V v_comp, with dV = -V^k (d_k P_H) v_comp.  H(dV)
    is part of the fibers' second fundamental form H(nabla_V V): it enters
    the left side with weight 1 and the right with sigma^2 rho^-2, so it
    does not cancel."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    if phi.m <= phi.two_n:
        raise GeometryError("no vertical distribution (m = 2n)")
    geo = local_geometry(phi, p)
    g = geo.src.metric_at(p)
    ph = geo.projector_and_lift[0]
    v_comp = np.asarray(v_comp, dtype=float)
    v = v_comp - ph @ v_comp
    if float(v @ g @ v) <= 1e-16:
        raise GeometryError("V has no vertical part")
    dv = -np.einsum("k,kab,b->a", v, geo.projector_and_lift_derivs[0], v_comp)
    src_bar = local_geometry(phi, p, ctx.gbar).src
    vv = TangentVector(p, v)
    lhs = ph @ src_bar.covariant_derivative(vv, v, dv).components

    s_jet, r_jet = ctx.gbar.factor_jets(p)
    rho = r_jet.value
    # covector of rho^-2
    d_rho_m2 = -2.0 * rho ** -3 * r_jet.grad
    inner = (2.0 * rho ** -2
             * (ph @ geo.src.covariant_derivative(vv, v, dv).components)
             - float(v @ g @ v) * (ph @ geo.ginv @ d_rho_m2))
    rhs = 0.5 * s_jet.value ** 2 * inner
    return _report("koszul-vertical", p, lhs, rhs, tol)


def verify_mean_curvature(ctx: BiconformalContext, p,
                          tol: float = 1e-5) -> IdentityResidualReport:
    """Fiber mean curvature under the change: mu-bar = sigma^2 [mu + H(grad ln rho)]."""
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    if phi.m <= phi.two_n:
        raise GeometryError("no fibers (m = 2n)")
    lhs = mean_curvature_vertical(phi, p, metric=ctx.gbar).components
    mu = mean_curvature_vertical(phi, p).components
    _, grad_lr = ctx.gbar.grad_log_factors(p)
    ph = horizontal_projector(phi, p)
    s, _ = ctx.gbar.factor_values(p)
    rhs = s ** 2 * (mu + ph @ grad_lr)
    return _report("mean-curvature", p, lhs, rhs, tol)


def verify_f_divergence(ctx: BiconformalContext, p,
                        tol: float = 1e-5) -> IdentityResidualReport:
    """F div_H F under the change: sigma^2 [F div_H F + (2n-2) grad_H ln sigma].

    The gradient correction is projected to H: the full gradient differs
    from it by a vertical component that the left side cannot contain.
    """
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    lhs = f_divergence_horizontal(phi, ctx.J, p, metric=ctx.gbar).components
    div = f_divergence_horizontal(phi, ctx.J, p).components
    grad_ls, _ = ctx.gbar.grad_log_factors(p)
    ph = horizontal_projector(phi, p)
    s, _ = ctx.gbar.factor_values(p)
    n2 = 2.0 * phi.n - 2.0
    rhs = s ** 2 * (div + n2 * (ph @ grad_ls))
    return _report("f-divergence", p, lhs, rhs, tol)


def verify_tension_transform(ctx: BiconformalContext, p,
                             tol: float = 1e-5) -> IdentityResidualReport:
    """Tension field under the change:

    tau-bar = sigma^2 [tau + dphi((2n-m) grad ln rho + (2-2n) grad ln sigma)]
    """
    phi = ctx.phi
    p = np.asarray(p, dtype=float)
    lhs = tension_field(phi, p, metric=ctx.gbar).components
    tau = tension_field(phi, p).components
    grad_ls, grad_lr = ctx.gbar.grad_log_factors(p)
    a = differential(phi, p)
    s, _ = ctx.gbar.factor_values(p)
    two_n, m = phi.two_n, phi.m
    correction = (two_n - m) * grad_lr + (2.0 - two_n) * grad_ls
    rhs = s ** 2 * (tau + a @ correction)
    return _report("tension-transform", p, lhs, rhs, tol)


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
    g = phi.source.metric_at(p)
    ph = horizontal_projector(phi, p)
    x = _require_horizontal("X", x_comp, ph, g)
    y = _require_horizontal("Y", y_comp, ph, g)
    f = f_structure(phi, ctx.J, p)
    df = d_f_structure(phi, ctx.J, p)

    gamma_bar = local_geometry(phi, p, ctx.gbar).christoffel
    nab_bar = nabla_f_operator(f, df, gamma_bar)
    lhs = ph @ np.einsum("i,ikj,j->k", x, nab_bar, y)

    gamma = phi.source.christoffel(p)
    nab = nabla_f_operator(f, df, gamma)
    grad_ls, _ = ctx.gbar.grad_log_factors(p)
    grad_h = ph @ grad_ls
    dls = g @ grad_ls
    fy = f @ y
    fx = f @ x
    rhs = (ph @ np.einsum("i,ikj,j->k", x, nab, y)
           + float(x @ g @ fy) * grad_h
           - float(dls @ fy) * x
           + float(dls @ y) * fx
           - float(x @ g @ y) * (f @ grad_h))
    return _report("phh-covariant", p, lhs, rhs, tol)


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
    src = local_geometry(phi, p, metric).src
    src.check_in_domain(p)
    # the jets of f o phi at p: f applied to the (memoized) jets of phi
    parts = fn(phi.jets(p))
    lap = np.array([src.laplace_beltrami(lambda c, part=part: part, p)
                    for part in parts])
    return _report("pullback", p, lap, np.zeros(2), tol)


def verify_tension_equivalence(phi: SmoothMap, J: AlmostComplexStructureField,
                               p, metric=None, tol: float = 1e-6
                               ) -> IdentityResidualReport:
    """Trace-formula tension field against the f-structure route."""
    lhs = tension_field(phi, p, metric=metric).components
    rhs = tension_via_f_structure(phi, J, p, metric=metric).components
    return _report("tension-f-structure", p, lhs, rhs, tol)


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
        return IdentityResidualReport("phwc-equivalence",
                                      np.asarray(p).tolist(), d1, r1, True)
    agree = (r1 < tol) == (r2 < tol)
    return IdentityResidualReport("phwc-equivalence", np.asarray(p).tolist(),
                                  max(d1, d2), max(r1, r2), agree)


def one_function_context(phi: SmoothMap, J: AlmostComplexStructureField,
                         sigma: Expr):
    """The one-function change of sigma; raises GeometryError for m = 2n."""
    return BiconformalContext.build(phi, J,
                                    special_change(sigma, phi.m, phi.n))


def _tally(name, points, check) -> IdentityAggregate:
    summary = IdentityAggregate(name, worst_by_abs=True)
    for p in points:
        try:
            rep = check(p)
        except SAMPLE_ERRORS as err:
            rep = errored_report(name, p, err)
        summary.add(rep)
    return summary


def corollary_psh_at(scenario, ctx: BiconformalContext, p,
                     tol: float = 1e-5) -> IdentityResidualReport:
    """Harmonicity and metric compatibility survive the one-function change.

    On a scenario that is harmonic and PHWC under g, both the tension field
    and the PHWC defect must stay below tolerance under g_sigma; on a
    non-harmonic PHWC scenario the tension must stay visibly nonzero
    (here checked through sigma^2 tau, the exact transformed value for this
    change).  ``ctx`` is the one-function change."""
    phi, J = ctx.phi, ctx.J
    tau_bar = tension_field(phi, p, metric=ctx.gbar).components
    defect, scale = phwc_defect(phi, J, p, metric=ctx.gbar)
    rel_defect = defect / (scale + REL_FLOOR)
    tau_norm = float(np.max(np.abs(tau_bar))) / REL_FLOOR
    if scenario.expected_flags.get("harmonic"):
        ok = tau_norm < tol and rel_defect < tol
        resid = max(tau_norm, rel_defect)
    else:
        # tension must not collapse to zero where tau_g is nonzero
        s, _ = ctx.gbar.factor_values(p)
        tau_g = tension_field(phi, p).components
        ref = s ** 2 * float(np.max(np.abs(tau_g)))
        ok = rel_defect < tol and (
            ref < 10 * tol or float(np.max(np.abs(tau_bar))) > 0.5 * ref)
        resid = rel_defect
    return IdentityResidualReport("corollary-psh", np.asarray(p).tolist(),
                                  resid, resid, ok)


def check_corollary_psh(scenario, sigma: Expr, points,
                        tol: float = 1e-5) -> IdentityAggregate:
    """``corollary_psh_at`` over points, for the one-function change of
    sigma."""
    ctx = one_function_context(scenario.phi, scenario.J, sigma)
    return _tally("corollary-psh", points,
                  lambda p: corollary_psh_at(scenario, ctx, p, tol))


# why corollary-phh has no breaking direction to check
PHH_N1_WARNING = ("breaking direction skipped: the correction term carries "
                  "a factor 2n-2 = 0 for n = 1")


def phh_breaking_checkable(n: int, sigma: Expr) -> bool:
    """Whether corollary-phh applies: for nonconstant sigma the PHH defect
    grows through a factor 2n-2, which vanishes for n = 1."""
    return n >= 2 or exprs.max_var_index(sigma) < 0


def corollary_phh_at(ctx: BiconformalContext, p, tol: float = 1e-6,
                     breaking_floor: float = 1e-3) -> IdentityResidualReport:
    """PHH survives the one-function change ``ctx`` exactly for constant
    sigma.

    Constant sigma: the PHH defect under g_sigma stays below tol.  Nonconstant
    sigma with a horizontally nonvanishing gradient must break PHH visibly
    (defect above ``breaking_floor``); see ``phh_breaking_checkable``."""
    phi = ctx.phi
    defect, scale = phh_defect(phi, ctx.J, p, metric=ctx.gbar)
    if exprs.max_var_index(ctx.change.sigma) < 0:
        ok = defect / (scale + REL_FLOOR) < tol
    else:
        grad_h = horizontal_projector(phi, p) @ ctx.gbar.grad_log_factors(p)[0]
        g = phi.source.metric_at(p)
        strength = float(np.sqrt(grad_h @ g @ grad_h))
        # only points with a visible horizontal log-gradient must break
        ok = defect > breaking_floor if strength > 0.05 else True
    return IdentityResidualReport("corollary-phh", np.asarray(p).tolist(),
                                  defect, defect / (scale + REL_FLOOR), ok)


def check_corollary_phh(scenario, sigma: Expr, points,
                        tol: float = 1e-6,
                        breaking_floor: float = 1e-3) -> IdentityAggregate:
    """``corollary_phh_at`` over points, for the one-function change of
    sigma; skipped with a warning where ``phh_breaking_checkable`` fails."""
    ctx = one_function_context(scenario.phi, scenario.J, sigma)
    if not phh_breaking_checkable(scenario.phi.n, sigma):
        return IdentityAggregate("corollary-phh", worst_by_abs=True,
                                 skipped=True, warning=PHH_N1_WARNING)
    return _tally("corollary-phh", points,
                  lambda p: corollary_phh_at(ctx, p, tol, breaking_floor))
