"""Each law of the change, and each corollary's prediction, rejects a wrong
law on the bundled runs (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

A mutant is a wrong law, put in place with ``monkeypatch``:

- in each sigma^2-scaled law L(g-bar) = sigma^2 (L(g) + correction)
  (tension-transform, mean-curvature, f-divergence): L(g) dropped, the
  correction dropped, or sigma in place of sigma^2;
- in corollary-psh's prediction sigma^2 tau: sigma tau, or tau;
- in corollary-phh's prediction sigma sqrt(8 (n - 1)) |grad_H ln sigma|:
  n in place of n - 1, or 0.

Each runs over six runs at 20 samples and seed 5, each run checking only
the mutated identity.  A run catches a mutant where that identity does not
pass; unmutated, it passes on every run that checks it.  ``CATCHES`` is the
table of the runs that catch each mutant, and every mutant must be caught
by at least one of them.
"""

import numpy as np
import pytest

from phmorph import RunConfig, biconformal, run_verification
from phmorph.biconformal import PROPERTIES, Property
from phmorph.manifold import matvec, quad

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
}

SCALED_LAWS = {"tension-transform": biconformal.tension_field,
               "mean-curvature": biconformal.mean_curvature_vertical,
               "f-divergence": biconformal.f_divergence_horizontal}

# the runs that catch each mutant; the correction vanishes on curved-fibers
# and flat-4-2 (n = 1, rho = 1), and F div_H F is round-off or 0 on every run
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
        return biconformal._compare(lhs, scale[..., None] * (g_side + extra),
                                    tol)

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


def apply(monkeypatch, law, how):
    if law in SCALED_LAWS:
        monkeypatch.setattr(biconformal, "_scaled_law",
                            scaled_law_mutant(SCALED_LAWS[law], how))
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
        strict=True, reason="F div_H F is round-off or 0 on every bundled "
        "run: ROADMAP item 2's conformal-6-4 scenario (nabla J != 0) would "
        "reach it"))
    if not CATCHES[mutant] else mutant for mutant in CATCHES])
def test_a_mutant_is_caught(monkeypatch, law, how):
    apply(monkeypatch, law, how)
    caught = {run for run, ok in verdicts(law).items() if ok is False}
    assert caught == CATCHES[(law, how)]
    assert caught, "no run catches %s: %s" % (law, how)
