"""Biconformal changes of the domain metric and numerical verification of
their transformation laws.

The changed metric g-bar = sigma^-2 g^H + rho^-2 g^V is a ``ChangedMetric``
with exact first derivatives: d(g P_H) comes from the projector algebra of
``maps.LocalGeometry`` and the factors' derivatives from their jets.  Its
one evaluation, ``matrix_and_derivs(source)``, reads phi's geometry at the
point under g (the source geometry), where it keeps sigma and rho:
``factor_jets``, evaluated once per (change, point), whose values g-bar and
the right sides of the laws read (no float twin), and ``grad_log_factors``.
A factor that is not positive raises ``PositivityError`` on every call.

Every ``verify_*`` and ``corollary_*_at`` routine takes the point context,
phi's source geometry over a batch of sample points, and, for a law of the
change, the ``ChangedMetric``, whose geometry it reads from the point context
(``LocalGeometry.under``).  It computes one identity's two sides by
independent routes (the Levi-Civita geometry of g-bar, built from g-bar's own
(g-bar, d g-bar), on one side; the closed-form transformation law on g's
connection on the other) and returns one report per row (``row_reports``);
``runner.IDENTITIES`` folds the reports over a run's points.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import repeat
from typing import Optional

import numpy as np

from . import exprs, jets
from .exprs import Expr
from .jets import JetDomainError, first
from .manifold import (GeometryError, MetricError, contract, dot, matvec,
                       outer, per_k, quad)
from .maps import (LocalGeometry, RankError, SmoothMap, differential,
                   horizontal_projector, mean_curvature_vertical,
                   tension_field)
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
        p = np.asarray(p, dtype=float)
        coords = jets.seed_coordinates(p)
        values = [exprs.eval_jet(e, coords) for e in (self.sigma, self.rho)]
        s, r = (jets.lift(v, len(coords), p.shape[:-1]) for v in values)
        for name, f in (("sigma", s), ("rho", r)):
            bad = f.value <= 0.0
            if np.count_nonzero(bad):
                raise PositivityError("%s = %g <= 0 at %s"
                                      % (name, first(f.value, bad),
                                         first(p, bad).tolist()))
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
    (overflowing to inf silently), both checked: f^-2 to be finite and
    positive before anything is divided by it."""
    value = jet.value
    square = value * value
    weight = np.where(square > 0.0, 1.0 / square, np.inf)
    bad = ~((0.0 < weight) & (weight < np.inf))
    if np.count_nonzero(bad):
        raise MetricError("%s^-2 is not a finite positive number at %s "
                          "(%s = %g)" % (name, first(p, bad).tolist(), name,
                                         first(value, bad)))
    d_weight = -2.0 * weight[..., None] * (jet.grad / value[..., None])
    bad = ~np.isfinite(d_weight).all(axis=-1)
    if np.count_nonzero(bad):
        raise MetricError("the derivative of %s^-2 is not finite at %s"
                          % (name, first(p, bad).tolist()))
    return weight, d_weight


def _symmetric(a):
    """The symmetric part of a matrix, or of each (..., k, :, :) slice."""
    return 0.5 * (a + a.mT)


class ChangedMetric:
    """g-bar = sigma^-2 g^H + rho^-2 g^V for a map phi and a change, with
    g^H = g P_H.  It keeps phi's horizontal distribution, so phi's
    geometries under it read P_H, the lift and their derivatives from the
    source geometry.  Its derivatives are exact:

    d g-bar = d(sigma^-2) g P_H + sigma^-2 d(g P_H)
              + d(rho^-2) (g - g P_H) + rho^-2 (dg - d(g P_H)),

    with d(g P_H) = dg P_H + g dP_H.  Each method reads phi's source
    geometry ``source`` at the point (``LocalGeometry.under`` hands it on),
    where sigma and rho are evaluated once, as jets, and kept."""

    def __init__(self, phi: SmoothMap, change: BiconformalChange):
        self.phi, self.change = phi, change

    def factor_jets(self, source: LocalGeometry):
        """(sigma, rho) at the point as jets
        (``BiconformalChange.factor_jets``)."""
        return source.field(("factor_jets", self),
                            lambda: self.change.factor_jets(source.p))

    def factor_values(self, source: LocalGeometry):
        """(sigma, rho) at the point: the values of the kept
        ``factor_jets``."""
        s, r = self.factor_jets(source)
        return s.value, r.value

    def grad_log_factors(self, source: LocalGeometry):
        """g-gradients of ln(sigma) and ln(rho) as component vectors."""
        def compute():
            s, r = self.factor_jets(source)
            ginv = source.ginv
            return (matvec(ginv, s.grad / s.value[..., None]),
                    matvec(ginv, r.grad / r.value[..., None]))

        return source.field(("grad_log_factors", self), compute)

    def matrix_and_derivs(self, source: LocalGeometry):
        """(g-bar, d g-bar) at the point of ``source``, phi's geometry."""
        if getattr(source, "phi", None) is not self.phi:
            raise GeometryError("g-bar reads its own map's geometry")
        p = source.p
        g, dg = source.metric_and_derivs
        ph = source.projector_and_lift[0]
        s, r = self.factor_jets(source)
        w_h, dw_h = _inverse_square("sigma", s, p)
        w_v, dw_v = _inverse_square("rho", r, p)
        # g^H = g P_H is symmetric up to roundoff by construction, so it and
        # its derivative are symmetrized
        gh = _symmetric(g @ ph)
        dgh = _symmetric(dg @ per_k(ph)
                         + per_k(g) @ source.projector_and_lift_derivs[0])
        w_h, w_v = w_h[..., None, None], w_v[..., None, None]
        gbar = gh * w_h + (g - gh) * w_v
        dgbar = (dw_h[..., None, None] * per_k(gh) + per_k(w_h) * dgh
                 + dw_v[..., None, None] * per_k(g - gh)
                 + per_k(w_v) * (dg - dgh))
        return gbar, dgbar


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
    the largest relative one (for corollary-phh, the PHH defect itself)."""
    name: str
    samples_pass: int = 0
    samples_fail: int = 0
    samples_error: int = 0
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    worst_point: Optional[list] = None
    errors: list = dc_field(default_factory=list)
    worst_by_abs: bool = False

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
        """Every sample point was checked and passed."""
        return (self.samples_fail == 0 and self.samples_error == 0
                and self.samples_pass > 0)

    def as_dict(self):
        keys = ("name", "samples_pass", "samples_fail", "samples_error",
                "max_abs_residual", "max_rel_residual", "worst_point")
        return dict({key: getattr(self, key) for key in keys},
                    passed=self.passed)


def row_reports(identity, p, absr, rel, passed, finite=None):
    """One report per row of the batch of points p, from per-row arrays; a
    row that is not ``finite`` (every row is, by default) is errored."""
    rows = zip(p.tolist(), absr.tolist(), rel.tolist(), passed.tolist(),
               repeat(True) if finite is None else finite.tolist())
    return [IdentityResidualReport(identity, q, a, r, ok) if fin
            else errored_report(identity, q, "non-finite residual")
            for q, a, r, ok, fin in rows]


def _report(identity, p, lhs, rhs, tol):
    """Residual reports of lhs = rhs (components on the last axis) at the
    rows of p; a non-finite side is a sample error."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    absr = np.abs(lhs - rhs).max(axis=-1)
    scale = np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1))
    rel = absr / (scale + REL_FLOOR)
    return row_reports(identity, p, absr, rel, rel < tol,
                       np.isfinite(absr) & np.isfinite(scale))


def _require_horizontal(name, v, ph, g):
    v = np.asarray(v, dtype=float)
    hv = matvec(ph, v)
    if (quad(hv, g, hv) <= 1e-16).any():
        raise GeometryError("%s has no horizontal part" % name)
    return hv


def verify_koszul_h(gbar: ChangedMetric, geo: LocalGeometry, x_comp, y_comp,
                    tol: float = 1e-5):
    """Horizontal part of nabla-bar_X Y for horizontal X = P_H x_comp and
    Y = P_H y_comp against the closed form the Koszul formula gives:

    H(nabla-bar_X Y) = H(nabla_X Y) - X(ln sigma) Y - Y(ln sigma) X
                       + g(X, Y) grad_H(ln sigma)

    nabla-bar - nabla is a tensor, so the derivative of a test field Y
    cancels between the sides: each contracts its own Christoffel symbols
    on (X, Y), the left side g-bar's and the right side g's."""
    g = geo.g
    ph = geo.projector_and_lift[0]
    x = _require_horizontal("X", x_comp, ph, g)
    y = matvec(ph, np.asarray(y_comp, dtype=float))
    xy = outer(x, y)
    lhs = matvec(ph, contract(geo.under(gbar).christoffel, xy))

    grad_ls, _ = gbar.grad_log_factors(geo)
    dls = matvec(g, grad_ls)  # covector of ln sigma
    rhs = (matvec(ph, contract(geo.christoffel, xy))
           - dot(dls, x)[..., None] * y - dot(dls, y)[..., None] * x
           + quad(x, g, y)[..., None] * matvec(ph, grad_ls))
    return _report("koszul-horizontal", geo.p, lhs, rhs, tol)


def verify_koszul_v(gbar: ChangedMetric, geo: LocalGeometry, v_comp,
                    tol: float = 1e-5):
    """Horizontal part of nabla-bar_V V for vertical V against the law

    H(nabla-bar_V V) = (sigma^2 / 2) [2 rho^-2 H(nabla_V V)
                                      - g(V, V) P_H g^-1 d(rho^-2)]

    on the test field V = P_V v_comp, with dV = -V^k (d_k P_H) v_comp.  H(dV)
    is part of the fibers' second fundamental form H(nabla_V V): it enters
    the left side with weight 1 and the right with sigma^2 rho^-2, so it
    does not cancel.  Both sides read the same dP_H (the left through
    d g-bar), so this law does not test it; koszul-horizontal and
    tension-f-structure catch a wrong one, as
    ``test_a_wrong_projector_derivative_fails_a_hopf_run`` shows."""
    phi = gbar.phi
    if phi.m <= phi.two_n:
        raise GeometryError("no vertical distribution (m = 2n)")
    g = geo.g
    ph = geo.projector_and_lift[0]
    v_comp = np.asarray(v_comp, dtype=float)
    v = v_comp - matvec(ph, v_comp)
    if (quad(v, g, v) <= 1e-16).any():
        raise GeometryError("V has no vertical part")
    dv = -contract(geo.projector_and_lift_derivs[0].swapaxes(-3, -2),
                   outer(v, v_comp))
    lhs = matvec(ph, geo.under(gbar).covariant_derivative(v, v, dv))

    s_jet, r_jet = gbar.factor_jets(geo)
    rho = r_jet.value
    # covector of rho^-2
    d_rho_m2 = (-2.0 * rho ** -3)[..., None] * r_jet.grad
    inner = ((2.0 * rho ** -2)[..., None]
             * matvec(ph, geo.covariant_derivative(v, v, dv))
             - quad(v, g, v)[..., None] * matvec(ph @ geo.ginv, d_rho_m2))
    rhs = (0.5 * s_jet.value ** 2)[..., None] * inner
    return _report("koszul-vertical", geo.p, lhs, rhs, tol)


def verify_mean_curvature(gbar: ChangedMetric, geo: LocalGeometry,
                          tol: float = 1e-5):
    """Fiber mean curvature under the change: mu-bar = sigma^2 [mu + H(grad ln rho)].

    Both sides read the same dP_H (g-bar keeps H), so this law does not
    test it; koszul-horizontal and tension-f-structure catch a wrong dP_H,
    as ``test_a_wrong_projector_derivative_fails_a_hopf_run`` shows."""
    phi = gbar.phi
    if phi.m <= phi.two_n:
        raise GeometryError("no fibers (m = 2n)")
    lhs = mean_curvature_vertical(geo.under(gbar))
    mu = mean_curvature_vertical(geo)
    _, grad_lr = gbar.grad_log_factors(geo)
    ph = horizontal_projector(geo)
    s, _ = gbar.factor_values(geo)
    rhs = (s ** 2)[..., None] * (mu + matvec(ph, grad_lr))
    return _report("mean-curvature", geo.p, lhs, rhs, tol)


def verify_f_divergence(gbar: ChangedMetric, geo: LocalGeometry,
                        J: AlmostComplexStructureField, tol: float = 1e-5):
    """F div_H F under the change: sigma^2 [F div_H F + (2n-2) grad_H ln sigma].

    The gradient correction is projected to H: the full gradient differs
    from it by a vertical component that the left side cannot contain.
    """
    lhs = f_divergence_horizontal(geo.under(gbar), J)
    div = f_divergence_horizontal(geo, J)
    grad_ls, _ = gbar.grad_log_factors(geo)
    ph = horizontal_projector(geo)
    s, _ = gbar.factor_values(geo)
    n2 = 2.0 * gbar.phi.n - 2.0
    rhs = (s ** 2)[..., None] * (div + n2 * matvec(ph, grad_ls))
    return _report("f-divergence", geo.p, lhs, rhs, tol)


def verify_tension_transform(gbar: ChangedMetric, geo: LocalGeometry,
                             tol: float = 1e-5):
    """Tension field under the change:

    tau-bar = sigma^2 [tau + dphi((2n-m) grad ln rho + (2-2n) grad ln sigma)]
    """
    lhs = tension_field(geo.under(gbar))
    tau = tension_field(geo)
    grad_ls, grad_lr = gbar.grad_log_factors(geo)
    a = differential(geo)
    s, _ = gbar.factor_values(geo)
    two_n, m = gbar.phi.two_n, gbar.phi.m
    correction = (two_n - m) * grad_lr + (2.0 - two_n) * grad_ls
    rhs = (s ** 2)[..., None] * (tau + matvec(a, correction))
    return _report("tension-transform", geo.p, lhs, rhs, tol)


def verify_phh_covariant_formula(gbar: ChangedMetric, geo: LocalGeometry,
                                 J: AlmostComplexStructureField, x_comp,
                                 y_comp, tol: float = 1e-5):
    """Horizontal part of (nabla-bar_X F)Y for horizontal X, Y against its
    expansion in terms of the unchanged connection and ln sigma:

    H((nabla-bar_X F)Y) = H((nabla_X F)Y) + g(X, FY) grad_H(ln sigma)
                          - FY(ln sigma) X + Y(ln sigma) FX
                          - g(X, Y) F(grad_H(ln sigma))
    """
    g = geo.g
    ph = geo.projector_and_lift[0]
    x = _require_horizontal("X", x_comp, ph, g)
    y = _require_horizontal("Y", y_comp, ph, g)
    f = f_structure(geo, J)
    df = d_f_structure(geo, J)

    xy = outer(x, y)
    nab_bar = nabla_f_operator(f, df, geo.under(gbar).christoffel)
    lhs = matvec(ph, contract(nab_bar.swapaxes(-3, -2), xy))

    nab = nabla_f_operator(f, df, geo.christoffel)
    grad_ls, _ = gbar.grad_log_factors(geo)
    grad_h = matvec(ph, grad_ls)
    dls = matvec(g, grad_ls)
    fy = matvec(f, y)
    fx = matvec(f, x)
    rhs = (matvec(ph, contract(nab.swapaxes(-3, -2), xy))
           + quad(x, g, fy)[..., None] * grad_h
           - dot(dls, fy)[..., None] * x
           + dot(dls, y)[..., None] * fx
           - quad(x, g, y)[..., None] * matvec(f, grad_h))
    return _report("phh-covariant", geo.p, lhs, rhs, tol)


# ---- holomorphic test functions for the pullback characterization --------

def _holo_z1_z2(w):
    if len(w) < 4:
        raise GeometryError("z1*z2 needs a target of complex dimension >= 2")
    return w[0] * w[2] - w[1] * w[3], w[0] * w[3] + w[1] * w[2]


HOLOMORPHIC_BUILTINS = {
    "z1": lambda w: (w[0], w[1]),
    "z1^2": lambda w: (w[0] * w[0] - w[1] * w[1], 2.0 * w[0] * w[1]),
    "exp(z1)": lambda w: (jets.exp(w[0]) * jets.cos(w[1]),
                          jets.exp(w[0]) * jets.sin(w[1])),
    "z1*z2": _holo_z1_z2,
}


def verify_pullback_characterization(geo: LocalGeometry, holo_name: str,
                                     tol: float = 1e-5):
    """Laplacian of Re and Im of (holomorphic f) o phi; both vanish for a
    pseudo-harmonic morphism with respect to the metric of ``geo``."""
    fn = HOLOMORPHIC_BUILTINS[holo_name]
    # the jets of f o phi at p: f applied to the kept jets of phi
    lap = np.stack([geo.laplacian(part) for part in fn(geo.jets)], axis=-1)
    return _report("pullback", geo.p, lap, np.zeros_like(lap), tol)


def verify_tension_equivalence(geo: LocalGeometry,
                               J: AlmostComplexStructureField,
                               tol: float = 1e-6):
    """Trace-formula tension field against the f-structure route."""
    lhs = tension_field(geo)
    rhs = tension_via_f_structure(geo, J)
    return _report("tension-f-structure", geo.p, lhs, rhs, tol)


def verify_phwc_equivalence(geo: LocalGeometry,
                            J: AlmostComplexStructureField,
                            tol: float = 1e-6):
    """The operator-commutator defect and the metric-compatibility defect
    vanish together (both below tol, or both above).  Where phi has no
    submersion structure only the commutator defect is defined, and is the
    reading; a batch with a regular row raises there, so that the runner
    settles it one row at a time."""
    d1, s1 = phwc_defect(geo, J)
    r1 = d1 / (s1 + REL_FLOOR)
    try:
        d2, s2 = phwc_metric_defect(geo, J)
    except RankError:
        if len(geo.p) > 1:
            raise
        return row_reports("phwc-equivalence", geo.p, d1, r1,
                           np.ones_like(r1, dtype=bool))
    r2 = d2 / (s2 + REL_FLOOR)
    # the larger of each pair, the first where they tie or one is NaN
    return row_reports("phwc-equivalence", geo.p, np.where(d2 > d1, d2, d1),
                       np.where(r2 > r1, r2, r1), (r1 < tol) == (r2 < tol))


def corollary_psh_at(scenario, gbar: ChangedMetric, geo: LocalGeometry,
                     tol: float = 1e-5):
    """Harmonicity and metric compatibility survive the one-function change.

    On a scenario that is harmonic and PHWC under g, both the tension field
    and the PHWC defect must stay below tolerance under g_sigma; on a
    non-harmonic PHWC scenario the tension must stay visibly nonzero
    (here checked through sigma^2 tau, the exact transformed value for this
    change).  ``gbar`` is the one-function change."""
    bar = geo.under(gbar)
    tau_bar = np.abs(tension_field(bar)).max(axis=-1)
    defect, scale = phwc_defect(bar, scenario.J)
    rel = defect / (scale + REL_FLOOR)
    if scenario.expected_flags.get("harmonic"):
        tau = tau_bar / REL_FLOOR
        ok, resid = (tau < tol) & (rel < tol), np.where(rel > tau, rel, tau)
    else:
        # tension must not collapse to zero where tau_g is nonzero
        s, _ = gbar.factor_values(geo)
        ref = s ** 2 * np.abs(tension_field(geo)).max(axis=-1)
        ok = (rel < tol) & ((ref < 10 * tol) | (tau_bar > 0.5 * ref))
        resid = rel
    return row_reports("corollary-psh", geo.p, resid, resid, ok)


# why corollary-phh has no breaking direction to check
PHH_N1_WARNING = ("breaking direction skipped: the correction term carries "
                  "a factor 2n-2 = 0 for n = 1")

# the PHH defect that a nonconstant sigma must reach where it breaks PHH
BREAKING_FLOOR = 1e-3


def phh_breaking_checkable(n: int, sigma: Expr) -> bool:
    """Whether corollary-phh applies: for nonconstant sigma the PHH defect
    grows through a factor 2n-2, which vanishes for n = 1."""
    return n >= 2 or exprs.max_var_index(sigma) < 0


def corollary_phh_at(gbar: ChangedMetric, geo: LocalGeometry,
                     J: AlmostComplexStructureField, tol: float = 1e-6):
    """PHH survives the one-function change ``gbar`` exactly for constant
    sigma.

    Constant sigma: the PHH defect under g_sigma stays below tol.  Nonconstant
    sigma with a horizontally nonvanishing gradient must break PHH visibly
    (defect above ``BREAKING_FLOOR``); see ``phh_breaking_checkable``."""
    defect, scale = phh_defect(geo.under(gbar), J)
    rel = defect / (scale + REL_FLOOR)
    if exprs.max_var_index(gbar.change.sigma) < 0:
        ok = rel < tol
    else:
        grad_h = matvec(geo.projector_and_lift[0],
                        gbar.grad_log_factors(geo)[0])
        strength = np.sqrt(quad(grad_h, geo.g, grad_h))
        # only points with a visible horizontal log-gradient must break
        ok = (defect > BREAKING_FLOOR) | ~(strength > 0.05)
    return row_reports("corollary-phh", geo.p, defect, rel, ok)
