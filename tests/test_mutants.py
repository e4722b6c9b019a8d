"""Each law of the change, and each corollary's prediction, rejects a wrong
law on the bundled runs (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

A mutant is a wrong law, put in place with ``monkeypatch``:

- in each sigma^2-scaled law L(g-bar) = sigma^2 (L(g) + correction)
  (tension-transform, mean-curvature, f-divergence): L(g) dropped, the
  correction dropped, or sigma in place of sigma^2;
- in corollary-psh's prediction sigma^2 tau: sigma tau, or tau;
- in corollary-phh's prediction sigma sqrt(8 (n - 1)) |grad_H ln sigma|:
  n in place of n - 1, or 0;
- one term of a closed form dropped, in the check that ``runner`` calls
  (``runner.verify_koszul_h`` and its like): koszul-horizontal's
  g(X, Y) grad_H ln sigma or X(ln sigma) Y; koszul-vertical's d(rho^-2) or
  H(nabla_V V) term; phh-covariant's H((nabla_X F)Y), or the
  g(X, FY) grad_H ln sigma term of its correction C; tension-f-structure's
  (m - 2n) mu^V or F div_H F; and the Christoffel term of the Laplacian
  that pullback reads;
- in phwc-equivalence: the commutator defect or the metric-compatibility
  defect read as 0, or a pass only where both are below tol.

Each runs over seven runs at 20 samples and seed 5, each run checking only
the mutated identity: six PHWC runs, where both defects of phwc-equivalence
are round-off, and nonphwc-anisotropic, where both are large and every
other law is skipped.  A run catches a mutant where that identity does not
pass; unmutated, it passes on every run that checks it.  ``CATCHES`` is the
table of the runs that catch each mutant, and every mutant must be caught
by at least one of them, except those that no run catches: each is a strict
xfail naming ROADMAP item 2, whose scenario would reach its term.
"""

import numpy as np
import pytest

from phmorph import RunConfig, biconformal, run_verification, runner
from phmorph.biconformal import (HOLOMORPHIC_BUILTINS, PROPERTIES, Property,
                                 _compare, _reading, _require_horizontal)
from phmorph.hermitian import (f_divergence_horizontal, f_structure,
                               nabla_f, phwc_defect, phwc_metric_defect)
from phmorph.manifold import contract, dot, matvec, outer, quad
from phmorph.maps import differential, hessian, mean_curvature_vertical

RUNS = {
    "readme-6-4": dict(scenario="flat-projection-6-4", sigma="exp(0.2*x1)",
                       rho="1+0.1*x5^2"),
    "hopf": dict(scenario="hopf", sigma="exp(0.2*x1+0.1*x3)",
                 rho="1+0.2*x2^2"),
    "holomorphic-poly": dict(scenario="holomorphic-poly",
                             sigma="exp(0.3*x1+0.2*x3)", rho="1+0.1*x3^2"),
    "curved-fibers": dict(scenario="curved-fibers-nonharmonic",
                          sigma="exp(0.3*x1+0.2*x3)"),
    "flat-4-2": dict(scenario="flat-projection-4-2",
                     sigma="exp(0.3*x1+0.2*x3)"),
    "flat-6-4": dict(scenario="flat-projection-6-4",
                     special_sigma="exp(0.3*x1)"),
    "nonphwc-anisotropic": dict(scenario="nonphwc-anisotropic"),
}

SCALED_LAWS = {"tension-transform": biconformal.tension_field,
               "mean-curvature": biconformal.mean_curvature_vertical,
               "f-divergence": biconformal.f_divergence_horizontal}

# the PHWC runs: every law but phwc-equivalence is skipped on the seventh
ALL = set(RUNS) - {"nonphwc-anisotropic"}
# the runs that catch each mutant; the correction vanishes on curved-fibers
# and flat-4-2 (n = 1, rho = 1), and F div_H F and H((nabla_X F)Y) are
# round-off or 0 on every run, whose J has nabla J = 0
CATCHES = {
    ("tension-transform", "drop L(g)"): {"curved-fibers"},
    ("tension-transform", "drop correction"): {"readme-6-4", "hopf",
                                               "holomorphic-poly"},
    ("tension-transform", "sigma for sigma^2"): {
        "readme-6-4", "hopf", "holomorphic-poly", "curved-fibers"},
    ("mean-curvature", "drop L(g)"): {"curved-fibers"},
    ("mean-curvature", "drop correction"): {"hopf", "holomorphic-poly",
                                            "flat-6-4"},
    ("mean-curvature", "sigma for sigma^2"): {
        "hopf", "holomorphic-poly", "curved-fibers", "flat-6-4"},
    ("f-divergence", "drop L(g)"): set(),
    ("f-divergence", "drop correction"): {"readme-6-4", "flat-6-4"},
    ("f-divergence", "sigma for sigma^2"): {"readme-6-4", "flat-6-4"},
    ("corollary-psh", "sigma tau"): {"curved-fibers"},
    ("corollary-psh", "tau"): {"curved-fibers"},
    ("corollary-phh", "n for n - 1"): {"readme-6-4", "curved-fibers",
                                       "flat-4-2", "flat-6-4"},
    ("corollary-phh", "0"): {"readme-6-4", "flat-6-4"},
    ("koszul-horizontal", "drop g(X, Y) grad_H ln sigma"): ALL,
    ("koszul-horizontal", "drop X(ln sigma) Y"): ALL,
    ("koszul-vertical", "drop d(rho^-2)"): {"hopf", "holomorphic-poly",
                                            "flat-6-4"},
    ("koszul-vertical", "drop H(nabla_V V)"): {"holomorphic-poly",
                                               "curved-fibers"},
    ("phh-covariant", "drop H((nabla_X F)Y)"): set(),
    ("phh-covariant", "drop g(X, FY) grad_H ln sigma"): ALL,
    ("tension-f-structure", "drop (m - 2n) mu^V"): {"curved-fibers"},
    ("tension-f-structure", "drop F div_H F"): set(),
    ("pullback", "drop Christoffel term"): {"hopf"},
    ("phwc-equivalence", "commutator defect read as 0"): {
        "nonphwc-anisotropic"},
    ("phwc-equivalence", "metric-compatibility defect read as 0"): {
        "nonphwc-anisotropic"},
    ("phwc-equivalence", "pass only where both are below tol"): {
        "nonphwc-anisotropic"},
}


def scaled_law_mutant(field, how):
    """``biconformal._scaled_law``, with the law of ``field`` read wrong."""
    real = biconformal._scaled_law

    def read(gbar, geo, law_field, correction, tol):
        if law_field is not field:
            return real(gbar, geo, law_field, correction, tol)
        lhs = law_field(geo.under(gbar))
        s, _ = gbar.factor_values(geo)
        g_side = 0.0 if how == "drop L(g)" else law_field(geo)
        extra = 0.0 if how == "drop correction" else correction()
        scale = s if how == "sigma for sigma^2" else s ** 2
        return _compare(lhs, scale[..., None] * (g_side + extra), tol)

    return read


def psh_prediction(how):
    """corollary-psh's tension prediction read wrong: sigma tau or tau."""
    def predict(gbar, geo):
        s = gbar.factor_values(geo)[0] if how == "sigma tau" else 1.0
        return np.asarray(s)[..., None] * biconformal.tension_field(geo)

    return predict


def phh_prediction(how):
    """corollary-phh's prediction read wrong: 8 n for 8 (n - 1), or 0."""
    def predict(gbar, geo):
        if how == "0":
            return 0.0
        grad_h = matvec(geo.projector_and_lift[0],
                        gbar.grad_log_factors(geo)[0])
        norm2 = 8.0 * gbar.phi.n * quad(grad_h, geo.g, grad_h)
        return (gbar.factor_values(geo)[0] * np.sqrt(norm2))[..., None]

    return predict


# corollary -> the property whose prediction its mutants change, and how
PREDICTIONS = {"corollary-psh": ("harmonic", psh_prediction),
               "corollary-phh": ("phh", phh_prediction)}


def kept(terms, how):
    """The sum of the named ``terms``, in order, less the one that ``how``
    drops."""
    dropped = how.removeprefix("drop ")
    assert dropped in terms, how
    return sum(term for name, term in terms.items() if name != dropped)


def koszul_h_mutant(how):
    """koszul-horizontal with one term of its right side dropped."""
    def check(gbar, geo, x_comp, y_comp, tol):
        g, ph = geo.g, geo.projector_and_lift[0]
        x = _require_horizontal("X", x_comp, geo)
        y = matvec(ph, y_comp)
        xy = outer(x, y)
        grad_ls = gbar.grad_log_factors(geo)[0]
        dls = matvec(g, grad_ls)
        rhs = kept({
            "H(nabla_X Y)": matvec(ph, contract(geo.christoffel, xy)),
            "X(ln sigma) Y": -dot(dls, x)[..., None] * y,
            "Y(ln sigma) X": -dot(dls, y)[..., None] * x,
            "g(X, Y) grad_H ln sigma":
                quad(x, g, y)[..., None] * matvec(ph, grad_ls)}, how)
        lhs = matvec(ph, contract(geo.under(gbar).christoffel, xy))
        return _compare(lhs, rhs, tol)

    return check


def koszul_v_mutant(how):
    """koszul-vertical with one term of its bracket dropped."""
    def check(gbar, geo, v_comp, tol):
        g, ph = geo.g, geo.projector_and_lift[0]
        v = v_comp - matvec(ph, v_comp)
        dv = -contract(geo.projector_and_lift_derivs[0].swapaxes(-3, -2),
                       outer(v, v_comp))
        s, r = gbar.factor_jets(geo)
        d_rho_m2 = (-2.0 * r.value ** -3)[..., None] * r.grad
        inner = kept({
            "H(nabla_V V)": (2.0 * r.value ** -2)[..., None]
            * matvec(ph, geo.covariant_derivative(v, v, dv)),
            "d(rho^-2)": -quad(v, g, v)[..., None]
            * matvec(ph @ geo.ginv, d_rho_m2)}, how)
        lhs = matvec(ph, geo.under(gbar).covariant_derivative(v, v, dv))
        return _compare(lhs, (0.5 * s.value ** 2)[..., None] * inner, tol)

    return check


def phh_covariant_mutant(how):
    """phh-covariant with H((nabla_X F)Y), or one term of C, dropped."""
    def check(gbar, geo, x_comp, y_comp, tol):
        x = _require_horizontal("X", x_comp, geo)
        y = _require_horizontal("Y", y_comp, geo)
        g, ph, f = geo.g, geo.projector_and_lift[0], f_structure(geo)
        xy = outer(x, y)
        grad_ls = gbar.grad_log_factors(geo)[0]
        grad_h, dls, fy = matvec(ph, grad_ls), matvec(g, grad_ls), matvec(f, y)

        def along(view):
            return matvec(ph, contract(nabla_f(view).swapaxes(-3, -2), xy))

        rhs = kept({
            "H((nabla_X F)Y)": along(geo),
            "g(X, FY) grad_H ln sigma": quad(x, g, fy)[..., None] * grad_h,
            "FY(ln sigma) X": -dot(dls, fy)[..., None] * x,
            "Y(ln sigma) FX": dot(dls, y)[..., None] * matvec(f, x),
            "g(X, Y) F grad_H ln sigma":
                -quad(x, g, y)[..., None] * matvec(f, grad_h)}, how)
        return _compare(along(geo.under(gbar)), rhs, tol)

    return check


def tension_f_structure_mutant(how):
    """tension-f-structure, tau = -dphi(F div_H F + (m - 2n) mu^V), with
    one term dropped."""
    def check(geo, tol):
        phi = geo.phi
        total = kept({
            "F div_H F": f_divergence_horizontal(geo),
            "(m - 2n) mu^V":
                (phi.m - phi.two_n) * mean_curvature_vertical(geo)}, how)
        return _compare(biconformal.tension_field(geo),
                        -matvec(differential(geo), total), tol)

    return check


def pullback_mutant(how):
    """pullback, reading g^ij d_i d_j f for the Laplacian: its Christoffel
    term dropped."""
    assert how == "drop Christoffel term", how

    def check(geo, holo_name, tol):
        parts = HOLOMORPHIC_BUILTINS[holo_name](geo.jets)
        lap = np.stack([contract(hessian(part)[..., None, :, :],
                                 geo.ginv)[..., 0] for part in parts],
                       axis=-1)
        return _compare(lap, np.zeros_like(lap), tol)

    return check


def phwc_equivalence_mutant(how):
    """phwc-equivalence with one defect read as 0, or passing only where
    both defects are below tol."""
    def check(geo, tol):
        readings = []
        for name, defect in (("commutator", phwc_defect),
                             ("metric-compatibility", phwc_metric_defect)):
            value, scale = defect(geo)
            if how == "%s defect read as 0" % name:
                value = np.zeros_like(value)
            readings.append(_reading(value, scale))
        (d1, r1, finite1), (d2, r2, finite2) = readings
        passed = ((r1 < tol) & (r2 < tol)
                  if how == "pass only where both are below tol"
                  else (r1 < tol) == (r2 < tol))
        return (np.where(d2 > d1, d2, d1), np.where(r2 > r1, r2, r1),
                finite1 & finite2, passed)

    return check


# law -> the check that runner calls, and its mutant
CHECKS = {"koszul-horizontal": ("verify_koszul_h", koszul_h_mutant),
          "koszul-vertical": ("verify_koszul_v", koszul_v_mutant),
          "phh-covariant": ("verify_phh_covariant_formula",
                            phh_covariant_mutant),
          "tension-f-structure": ("verify_tension_equivalence",
                                  tension_f_structure_mutant),
          "pullback": ("verify_pullback_characterization", pullback_mutant),
          "phwc-equivalence": ("verify_phwc_equivalence",
                               phwc_equivalence_mutant)}


def apply(monkeypatch, law, how):
    if law in SCALED_LAWS:
        monkeypatch.setattr(biconformal, "_scaled_law",
                            scaled_law_mutant(SCALED_LAWS[law], how))
    elif law in CHECKS:
        name, mutant = CHECKS[law]
        monkeypatch.setattr(runner, name, mutant(how))
    else:
        prop, wrong = PREDICTIONS[law]
        monkeypatch.setitem(PROPERTIES, prop, Property(
            PROPERTIES[prop].measure, wrong(how)))


def verdicts(law):
    """Per run, whether ``law`` passed, or None where it is skipped."""
    out = {}
    for run, args in RUNS.items():
        report = run_verification(RunConfig(samples=20, seed=5,
                                            identities=[law], **args))
        rows = report["per_identity"]
        out[run] = rows[0]["passed"] if rows else None
    return out


@pytest.mark.parametrize("law", sorted({law for law, _ in CATCHES}))
def test_every_law_passes_unmutated(law):
    checked = {run: ok for run, ok in verdicts(law).items() if ok is not None}
    assert checked and all(checked.values()), checked


@pytest.mark.parametrize("law, how", [
    pytest.param(*mutant, marks=pytest.mark.xfail(
        strict=True, reason="the dropped term is round-off or 0 on every "
        "bundled run: ROADMAP item 2's conformal-6-4 scenario (nabla J != 0) "
        "would reach it"))
    if not CATCHES[mutant] else mutant for mutant in CATCHES])
def test_a_mutant_is_caught(monkeypatch, law, how):
    apply(monkeypatch, law, how)
    caught = {run for run, ok in verdicts(law).items() if ok is False}
    assert caught == CATCHES[(law, how)]
    assert caught, "no run catches %s: %s" % (law, how)
