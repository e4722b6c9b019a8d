"""Biconformal changes of the domain metric and numerical verification of
their transformation laws.

A change g-bar = sigma^-2 g^H + rho^-2 g^V is defined by phi's splitting
H + V, so it is one object with its map: a ``ChangedMetric``, built from
phi and the parsed sigma and rho (``from_texts``), or from sigma and a
number e for rho = sigma^e (``special_change``, the one-function family).
Its first derivatives are exact: d(g P_H) comes from the projector algebra
of ``maps.LocalGeometry`` and the factors' derivatives from their jets.
Its one evaluation, ``matrix_and_derivs(source)``, reads phi's geometry at
the point under g (the source geometry), where it keeps sigma and rho:
``factor_jets``, each expression evaluated once per point, whose values
g-bar and the right sides of the laws read (no float twin), and
``grad_log_factors``.  A factor that is not positive raises
``PositivityError`` on every call; it and every failed precondition here
name the first bad row (``jets.reject``).

Every ``verify_*`` routine takes the point context, phi's source geometry
over a batch of sample points, and, for a law of the change, the
``ChangedMetric``, whose geometry it reads from the point context
(``LocalGeometry.under``); a law that reads J reads the one phi carries.
It computes one identity's two sides by independent routes (the Levi-Civita
geometry of g-bar, built from g-bar's own (g-bar, d g-bar), on one side; the
closed-form law on g's connection, a sum of named terms (``sum_terms``), on
the other) and returns the batch's reading: four per-row arrays (absolute
and relative residual, finite, passed), which the runner folds into an
``IdentityAggregate`` (``fold``); the laws L(g-bar) = sigma^2 (L(g) +
correction) share one reader (``_scaled_law``).  ``PROPERTIES`` (PHWC,
harmonicity, PHH) are read under g by the run's flags, and under the
one-function change by the corollaries (``corollary_at``, given their
names), against exact predictions from g-side quantities: a PHWC defect of
0, the tension field sigma^2 tau, and a PHH defect of
sigma sqrt(8 (n - 1)) |grad_H ln sigma|, the frame norm of phh-covariant's
correction in closed form.  Every residual, defect and flag is read by one
rule (``_reading``): a per-row defect against its scale, which gives the
four arrays; a row passes where its relative residual is below the
tolerance, and a row whose defect or scale is not finite is a sample error.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from . import exprs, jets
from .exprs import Expr
from .jets import JetDomainError, reject
from .manifold import (GeometryError, MetricError, contract, dot, matvec,
                       outer, per_k, quad, sum_terms, symmetric)
from .maps import (LocalGeometry, SmoothMap, differential,
                   horizontal_projector, mean_curvature_vertical,
                   tension_field)
from .hermitian import (f_divergence_horizontal, f_structure, nabla_f,
                        phh_defect, phwc_defect, phwc_metric_defect,
                        tension_via_f_structure)

REL_FLOOR = 1.0  # residuals are read relative to (scale + this floor)


class PositivityError(GeometryError):
    """A conformal factor failed to be strictly positive at a sample point."""


# Failures that make one sample point error instead of ending the run.  An
# ArithmeticError is a float overflow at the point, such as sigma^2 for a
# sigma near the largest float.
SAMPLE_ERRORS = (GeometryError, JetDomainError, exprs.EvalError,
                 np.linalg.LinAlgError, ArithmeticError)


def _inverse_square(name, jet, p):
    """(f^-2, d(f^-2)) of a factor jet f, with d(f^-2) = -2 f^-2 d(ln f)
    (overflowing to inf silently), both checked: f^-2 to be finite and
    positive before anything is divided by it."""
    value = jet.value
    square = value * value
    weight = np.where(square > 0.0, 1.0 / square, np.inf)
    reject(~((0.0 < weight) & (weight < np.inf)), MetricError,
           "%s^-2 is not a finite positive number at %s (%s = %g)",
           name, p, name, value)
    d_weight = -2.0 * weight[..., None] * (jet.grad / value[..., None])
    reject(~np.isfinite(d_weight).all(axis=-1), MetricError,
           "the derivative of %s^-2 is not finite at %s", name, p)
    return weight, d_weight


class ChangedMetric:
    """g-bar = sigma^-2 g^H + rho^-2 g^V for a map phi, with g^H = g P_H,
    sigma a parsed expression and rho one too, or a number e meaning
    rho = sigma^e.  It keeps phi's horizontal distribution, so phi's
    geometries under it read P_H, the lift and their derivatives from the
    source geometry.  Its derivatives are exact:

    d g-bar = d(sigma^-2) g P_H + sigma^-2 d(g P_H)
              + d(rho^-2) (g - g P_H) + rho^-2 (dg - d(g P_H)),

    with d(g P_H) = dg P_H + g dP_H.  Each method reads phi's source
    geometry ``source`` at the point (``LocalGeometry.under`` hands it on),
    where sigma and rho are evaluated once, as jets, and kept."""

    def __init__(self, phi: SmoothMap, sigma: Expr,
                 rho: Expr | float = exprs.Lit(1.0)):
        self.phi, self.sigma, self.rho = phi, sigma, rho

    @staticmethod
    def from_texts(phi: SmoothMap, sigma_text: str,
                   rho_text: Optional[str] = None) -> "ChangedMetric":
        sigma = exprs.parse(sigma_text)
        rho = (exprs.parse(rho_text) if rho_text is not None
               else exprs.Lit(1.0))
        return ChangedMetric(phi, sigma, rho)

    def factor_jets(self, source: LocalGeometry):
        """(sigma, rho) at the point as first-order jets (value and
        gradient: g-bar and the laws read no second derivative of a
        factor), each checked to be positive.
        An expression's jet is kept on it in the source geometry, so that a
        run's change and its one-function change evaluate sigma once; a
        number rho = e is sigma's jet to the power e."""
        def compute():
            p, rho = source.p, self.rho
            coords = jets.seed_coordinates(p, order=1)

            def jet(e):
                return source.field(("jet", e), lambda: jets.lift(
                    exprs.eval_jet(e, coords), len(coords), p.shape[:-1]))

            s = jet(self.sigma)
            r = (jets.lift(s ** rho, s.dim, p.shape[:-1])
                 if isinstance(rho, float) else jet(rho))
            for name, f in (("sigma", s), ("rho", r)):
                reject(f.value <= 0.0, PositivityError, "%s = %g <= 0 at %s",
                       name, f.value, p)
            return s, r

        return source.field(("factor_jets", self), compute)

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
        gh = symmetric(g @ ph)
        dgh = symmetric(dg @ per_k(ph)
                        + per_k(g) @ source.projector_and_lift_derivs[0])
        w_h, w_v = w_h[..., None, None], w_v[..., None, None]
        gbar = gh * w_h + (g - gh) * w_v
        dgbar = (dw_h[..., None, None] * per_k(gh) + per_k(w_h) * dgh
                 + dw_v[..., None, None] * per_k(g - gh)
                 + per_k(w_v) * (dg - dgh))
        return gbar, dgbar


def special_change(phi: SmoothMap, sigma: Expr) -> ChangedMetric:
    """The one-function family of phi: vertical factor
    rho^-2 = sigma^((4n-4)/(m-2n)), i.e. rho = sigma^e with the number
    e = -(2n-2)/(m-2n) (-0 at n = 1, where rho = 1).  Requires genuine
    fibers (m > 2n)."""
    m, n = phi.m, phi.n
    if m <= 2 * n:
        raise GeometryError("the one-function change needs m > 2n "
                            "(got m=%d, n=%d)" % (m, n))
    return ChangedMetric(phi, sigma, -(2.0 * n - 2.0) / (m - 2.0 * n))


class IdentityAggregate:
    """Per-identity tally of the readings of a check, folded in sample-point
    order; the worst point has the largest relative residual.  ``errors``
    keeps the first ``KEPT_ERRORS`` sample errors, ``samples_error`` counts
    them all."""
    KEPT_ERRORS = 3

    def __init__(self, name: str):
        self.name = name
        self.samples_pass = self.samples_fail = self.samples_error = 0
        self.max_abs_residual = self.max_rel_residual = 0.0
        self.worst_point: Optional[list] = None
        self.errors = []

    def fold(self, p, absr, rel, finite, passed):
        """Fold a batch's reading, per-row arrays at the rows of the points
        p (a ``_reading`` and whether the row passed), in row order: a row
        that is not ``finite`` is the error "non-finite residual"."""
        for q, a, r, fin, ok in zip(p.tolist(), absr.tolist(), rel.tolist(),
                                    finite.tolist(), passed.tolist()):
            if not fin:
                self.error(q, "non-finite residual")
                continue
            # ">=": of two equal residuals the later point is the worst; a
            # NaN residual never is
            if r >= self.max_rel_residual:
                self.max_abs_residual, self.max_rel_residual = a, r
                self.worst_point = q
            if ok:
                self.samples_pass += 1
            else:
                self.samples_fail += 1

    def error(self, point, err):
        """Count the sample error ``err`` at ``point``."""
        self.samples_error += 1
        if len(self.errors) < self.KEPT_ERRORS:
            self.errors.append({"point": np.asarray(point).tolist(),
                                "error": str(err)})

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


def _reading(defect, scale, tol=np.inf):
    """The one reading of a per-row defect against its scale: (defect,
    rel = defect / (scale + ``REL_FLOOR``), finite, passed), a row being
    finite where both its defect and its scale are, and passed where
    rel < ``tol`` (every finite row by default, as a flag reads it)."""
    rel = defect / (scale + REL_FLOOR)
    return defect, rel, np.isfinite(defect) & np.isfinite(scale), rel < tol


def _compare(lhs, rhs, tol):
    """The reading of lhs = rhs (components on the last axis) per row, read
    against the larger side, and whether each row is within ``tol``."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    return _reading(
        np.abs(lhs - rhs).max(axis=-1),
        np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1)), tol)


def worst_of(readings):
    """One reading of several of the same rows: per row, the residuals of
    the reading with the largest relative residual (the first of equal
    ones), finite where every reading is, and passed where every one did."""
    absr, rel, finite, passed = readings[0]
    for a, r, fin, ok in readings[1:]:
        worse = r > rel  # a row that is not finite is an error, never read
        absr, rel = np.where(worse, a, absr), np.where(worse, r, rel)
        finite, passed = finite & fin, passed & ok
    return absr, rel, finite, passed


def _require_horizontal(name, v, geo):
    g, ph = geo.g, geo.projector_and_lift[0]
    hv = matvec(ph, np.asarray(v, dtype=float))
    reject(quad(hv, g, hv) <= 1e-16, GeometryError,
           "%s has no horizontal part", name)
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
    x = _require_horizontal("X", x_comp, geo)
    y = matvec(ph, np.asarray(y_comp, dtype=float))
    xy = outer(x, y)
    lhs = matvec(ph, contract(geo.under(gbar).christoffel, xy))

    grad_ls, _ = gbar.grad_log_factors(geo)
    dls = matvec(g, grad_ls)  # covector of ln sigma
    return _compare(lhs, sum_terms({
        "H(nabla_X Y)": matvec(ph, contract(geo.christoffel, xy)),
        "X(ln sigma) Y": -dot(dls, x)[..., None] * y,
        "Y(ln sigma) X": -dot(dls, y)[..., None] * x,
        "g(X, Y) grad_H ln sigma":
            quad(x, g, y)[..., None] * matvec(ph, grad_ls)}), tol)


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
    g = geo.g
    ph = geo.projector_and_lift[0]
    v_comp = np.asarray(v_comp, dtype=float)
    v = v_comp - matvec(ph, v_comp)
    reject(quad(v, g, v) <= 1e-16, GeometryError, "V has no vertical part")
    dv = -contract(geo.projector_and_lift_derivs[0].swapaxes(-3, -2),
                   outer(v, v_comp))
    lhs = matvec(ph, geo.under(gbar).covariant_derivative(v, v, dv))

    s_jet, r_jet = gbar.factor_jets(geo)
    rho = r_jet.value
    # covector of rho^-2
    d_rho_m2 = (-2.0 * rho ** -3)[..., None] * r_jet.grad
    inner = sum_terms({
        "H(nabla_V V)": (2.0 * rho ** -2)[..., None]
        * matvec(ph, geo.covariant_derivative(v, v, dv)),
        "d(rho^-2)":
            -quad(v, g, v)[..., None] * matvec(ph @ geo.ginv, d_rho_m2)})
    return _compare(lhs, (0.5 * s_jet.value ** 2)[..., None] * inner, tol)


def _scaled_law(gbar, geo, field, correction, tol):
    """The reading of L(g-bar) = sigma^2 (L(g) + correction) for a field L
    of phi's geometry: L under g-bar, sigma, L under g, ``correction()``."""
    lhs = field(geo.under(gbar))
    s, _ = gbar.factor_values(geo)
    return _compare(lhs, (s ** 2)[..., None] * sum_terms(
        {"L(g)": field(geo), "correction": correction()}), tol)


def verify_mean_curvature(gbar: ChangedMetric, geo: LocalGeometry,
                          tol: float = 1e-5):
    """Fiber mean curvature under the change: mu-bar = sigma^2 [mu + H(grad ln rho)].

    Both sides read the same dP_H (g-bar keeps H), so this law does not
    test it; koszul-horizontal and tension-f-structure catch a wrong dP_H,
    as ``test_a_wrong_projector_derivative_fails_a_hopf_run`` shows."""
    return _scaled_law(gbar, geo, mean_curvature_vertical, lambda: matvec(
        horizontal_projector(geo), gbar.grad_log_factors(geo)[1]), tol)


def verify_f_divergence(gbar: ChangedMetric, geo: LocalGeometry,
                        tol: float = 1e-5):
    """F div_H F under the change: sigma^2 [F div_H F + (2n-2) grad_H ln sigma].

    The gradient correction is projected to H: the full gradient differs
    from it by a vertical component that the left side cannot contain.
    """
    return _scaled_law(gbar, geo, f_divergence_horizontal, lambda: (
        2.0 * gbar.phi.n - 2.0) * matvec(horizontal_projector(geo),
                                         gbar.grad_log_factors(geo)[0]), tol)


def verify_tension_transform(gbar: ChangedMetric, geo: LocalGeometry,
                             tol: float = 1e-5):
    """Tension field under the change:

    tau-bar = sigma^2 [tau + dphi((2n-m) grad ln rho + (2-2n) grad ln sigma)]
    """
    two_n, m = gbar.phi.two_n, gbar.phi.m
    return _scaled_law(gbar, geo, tension_field, lambda: matvec(
        differential(geo), sum_terms({
            "(2n - m) grad ln rho":
                (two_n - m) * gbar.grad_log_factors(geo)[1],
            "(2 - 2n) grad ln sigma":
                (2.0 - two_n) * gbar.grad_log_factors(geo)[0]})), tol)


def phh_correction(gbar: ChangedMetric, geo: LocalGeometry, x, y):
    """The named terms of C(X, Y), what the change adds to H((nabla_X F)Y)
    for horizontal X, Y (components on the last axis), in order:

    C(X, Y) = g(X, FY) grad_H(ln sigma) - FY(ln sigma) X + Y(ln sigma) FX
              - g(X, Y) F(grad_H(ln sigma))"""
    g, f = geo.g, f_structure(geo)
    grad_ls = gbar.grad_log_factors(geo)[0]
    grad_h = matvec(geo.projector_and_lift[0], grad_ls)
    dls, fy = matvec(g, grad_ls), matvec(f, y)
    return {"g(X, FY) grad_H ln sigma": quad(x, g, fy)[..., None] * grad_h,
            "FY(ln sigma) X": -dot(dls, fy)[..., None] * x,
            "Y(ln sigma) FX": dot(dls, y)[..., None] * matvec(f, x),
            "g(X, Y) F grad_H ln sigma":
                -quad(x, g, y)[..., None] * matvec(f, grad_h)}


def verify_phh_covariant_formula(gbar: ChangedMetric, geo: LocalGeometry,
                                 x_comp, y_comp, tol: float = 1e-5):
    """Horizontal part of (nabla-bar_X F)Y for horizontal X, Y against its
    expansion in terms of the unchanged connection and ln sigma:

    H((nabla-bar_X F)Y) = H((nabla_X F)Y) + C(X, Y)

    with C the sum of the terms of ``phh_correction``."""
    x = _require_horizontal("X", x_comp, geo)
    y = _require_horizontal("Y", y_comp, geo)
    ph, xy = geo.projector_and_lift[0], outer(x, y)

    def along(view):  # H((nabla_X F)Y) under the metric of ``view``
        return matvec(ph, contract(nabla_f(view).swapaxes(-3, -2), xy))

    return _compare(along(geo.under(gbar)), sum_terms(
        {"H((nabla_X F)Y)": along(geo), **phh_correction(gbar, geo, x, y)}),
        tol)


# ---- holomorphic test functions for the pullback characterization --------

def _holo_z1_z2(w):
    if len(w) < 4:
        raise GeometryError("z1*z2 needs a target of complex dimension >= 2")
    return w[0] * w[2] - w[1] * w[3], w[0] * w[3] + w[1] * w[2]


HOLOMORPHIC_BUILTINS = {
    "z1": lambda w: (w[0], w[1]),
    "z1^2": lambda w: (w[0] * w[0] - w[1] * w[1], 2.0 * w[0] * w[1]),
    "exp(z1)": lambda w: ((e := jets.exp(w[0])) * jets.cos(w[1]),
                          e * jets.sin(w[1])),
    "z1*z2": _holo_z1_z2,
}


def verify_pullback_characterization(geo: LocalGeometry, holo_name: str,
                                     tol: float = 1e-5):
    """Laplacian of Re and Im of (holomorphic f) o phi; both vanish for a
    pseudo-harmonic morphism with respect to the metric of ``geo``."""
    fn = HOLOMORPHIC_BUILTINS[holo_name]
    # the jets of f o phi at p: f applied to the kept jets of phi
    lap = np.stack([geo.laplacian(part) for part in fn(geo.jets)], axis=-1)
    return _compare(lap, np.zeros_like(lap), tol)


def verify_tension_equivalence(geo: LocalGeometry, tol: float = 1e-6):
    """Trace-formula tension field against the f-structure route."""
    return _compare(tension_field(geo), tension_via_f_structure(geo), tol)


def verify_phwc_equivalence(geo: LocalGeometry, tol: float = 1e-6):
    """The operator-commutator defect and the metric-compatibility defect
    vanish together (both below tol, or both above).  The second reads phi's
    horizontal space, so at a critical point of phi it raises ``RankError``,
    a sample error, as in every other law; a row where either reading is
    not finite is errored."""
    d1, r1, finite1, ok1 = _reading(*phwc_defect(geo), tol)
    d2, r2, finite2, ok2 = _reading(*phwc_metric_defect(geo), tol)
    # the larger of each pair, the first where they tie
    return (np.where(d2 > d1, d2, d1), np.where(r2 > r1, r2, r1),
            finite1 & finite2, ok1 == ok2)


# ---- properties of phi, read under g and under a change -----------------

class Property(NamedTuple):
    """A property of phi: ``measure(geo)`` gives per row a value
    (components on the last axis) that vanishes where it holds, and its
    scale; ``predict(gbar, geo)``, that value under the one-function
    change ``gbar``, from phi's geometry ``geo`` under g."""
    measure: Callable
    predict: Callable

    def reading(self, geo: LocalGeometry, prediction=0.0, tol=np.inf):
        """The ``_reading`` per row of the largest component of the value
        less ``prediction``, against the scale, within ``tol``."""
        value, scale = self.measure(geo)
        return _reading(np.abs(value - prediction).max(axis=-1), scale, tol)


def _defect(defect, scale):  # a defect as a value of one component
    return defect[..., None], scale


def _phh_prediction(gbar, geo):
    """sigma ||C||, the PHH defect of a PHH map under the one-function
    change: on the g-bar-orthonormal frame {sigma r_a} (r_a the rows of
    the horizontal factor) H(nabla-bar F) is sigma^2 C, of g-bar-norm sigma
    ||C||, with C phh-covariant's correction.  F is an isometry of H on a
    PHWC map, so the frame sums of C's terms give
    ||C||^2 = 8 (n - 1) |grad_H ln sigma|^2: 0 at n = 1 and for constant
    sigma."""
    grad_h = matvec(geo.projector_and_lift[0], gbar.grad_log_factors(geo)[0])
    norm2 = 8.0 * (gbar.phi.n - 1) * quad(grad_h, geo.g, grad_h)
    return (gbar.factor_values(geo)[0] * np.sqrt(norm2))[..., None]


# what a run's flags read under g, and its corollaries under the
# one-function change, where tau-bar = sigma^2 tau: the change's two
# gradient terms in ``verify_tension_transform`` cancel
PROPERTIES = {
    "phwc": Property(lambda geo: _defect(*phwc_defect(geo)),
                     lambda gbar, geo: 0.0),
    "harmonic": Property(
        lambda geo: (tension_field(geo), 0.0),
        lambda gbar, geo: (gbar.factor_values(geo)[0] ** 2)[..., None]
        * tension_field(geo)),
    "phh": Property(lambda geo: _defect(*phh_defect(geo)), _phh_prediction),
}


def corollary_at(props, gbar: ChangedMetric, geo: LocalGeometry, tol: float):
    """A corollary at the rows of the point context ``geo``: each of the
    ``PROPERTIES`` named in ``props``, read under the one-function change
    ``gbar``, equals its prediction from phi's geometry under g.  A row's
    residual is that of the property with the largest relative residual
    (``worst_of``), and a row where any reading is not finite is a sample
    error."""
    bar = geo.under(gbar)
    return worst_of([prop.reading(bar, prop.predict(gbar, geo), tol)
                     for prop in (PROPERTIES[p] for p in props)])
