"""Each law of the change, and each corollary's prediction, rejects a wrong
law on the bundled runs (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

Every closed form that a law reads is a sum of named terms, added by one
reader, ``manifold.sum_terms``:

- koszul-horizontal: H(nabla_X Y), X(ln sigma) Y, Y(ln sigma) X and
  g(X, Y) grad_H ln sigma;
- koszul-vertical: H(nabla_V V) and d(rho^-2);
- phh-covariant: H((nabla_X F)Y) and the four terms of its correction C
  (``biconformal.phh_correction``): g(X, FY) grad_H ln sigma,
  FY(ln sigma) X, Y(ln sigma) FX and g(X, Y) F grad_H ln sigma;
- tension-f-structure (``hermitian.tension_via_f_structure``): F div_H F
  and (m - 2n) mu^V;
- each sigma^2-scaled law L(g-bar) = sigma^2 (L(g) + correction)
  (tension-transform, mean-curvature, f-divergence): L(g) and correction,
  and within tension-transform's correction (2n - m) grad ln rho and
  (2 - 2n) grad ln sigma;
- pullback, through ``LocalGeometry.laplacian``: g^ij d_i d_j f and the
  Christoffel term.

A mutant is a wrong law, put in place with ``monkeypatch``:

- five per term, generated from its name: ``sum_terms``, rebound in every
  ``phmorph`` module that binds it, sums a law's terms with the one of that
  name dropped, or times -1, 1/2, 3/2 or 2 (a wrong sign or coefficient:
  2n - 1 for 2n - 2 at n = 2 is 3/2 times f-divergence's correction);
  ``test_each_term_of_a_law_has_a_drop_mutant`` records the names each law
  passes to ``sum_terms`` and asserts that those are its rows, and
  ``test_a_term_scaled_by_one_leaves_every_report_unchanged`` that at
  scale 1 the generator leaves every report byte-identical;
- in each sigma^2-scaled law, sigma in place of sigma^2 (the change's
  ``factor_values`` give the square root of sigma, which only that reader
  squares);
- in corollary-psh's prediction sigma^2 tau: sigma tau, or tau;
- in corollary-phh's prediction sigma sqrt(8 (n - 1)) |grad_H ln sigma|:
  n in place of n - 1, or 0;
- in phwc-equivalence: the commutator defect or the metric-compatibility
  defect read as 0, or a pass only where both are below tol.

Each runs over seven runs at 20 samples and seed 5, each run checking only
the mutated identity: six PHWC runs, where both defects of phwc-equivalence
are round-off, and nonphwc-anisotropic, where both are large and every
other law is skipped.  A run catches a mutant where that identity does not
pass; unmutated, it passes on every run that checks it.  ``CATCHES`` has
one row per (law, term): the runs that catch each of the term's five
mutants.  ``MUTANTS`` adds the other mutants' own rows, and every mutant
must be caught by exactly its row's runs, at least one, except those that
no run catches: each is a strict xfail naming ROADMAP item 2, whose
scenario would reach its term.

A wrong dimension coefficient c'(m, n) for c(m, n) is a scale c'/c that
depends on the run (ROADMAP item 15).  ``DIMENSION_MUTANTS`` holds the four
known to survive, A, B, C and F of ROADMAP item 14, F in two laws: each is
put in place at the run's own (m, n), read from its scenario, by scaling
what reads the coefficient (a named term, corollary-phh's prediction, or
the one-function exponent that ``runner.special_change`` gives).  Every
bundled run has n = 1 or n = 2, where each equals the right coefficient or
its term has no content, so each is a strict xfail naming item 14; read at
(m, n) = (12, 3) each is caught, and with c' = c each leaves every report
byte-identical.
"""

import json
import sys

import numpy as np
import pytest

from phmorph import (RunConfig, biconformal, get_scenario, run_verification,
                     runner)
from phmorph.biconformal import PROPERTIES, ChangedMetric, Property
from phmorph.manifold import matvec, quad, sum_terms

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

# the PHWC runs: every law but phwc-equivalence is skipped on the seventh
ALL = set(RUNS) - {"nonphwc-anisotropic"}
# the runs that catch each term's mutants, one row per (law, term); the
# correction vanishes on curved-fibers and flat-4-2 (n = 1, rho = 1),
# readme-6-4's rho varies along the fibres only, so dphi kills its
# grad ln rho, and F div_H F and H((nabla_X F)Y) are round-off or 0 on every
# run, whose J has nabla J = 0
CATCHES = {
    ("tension-transform", "L(g)"): {"curved-fibers"},
    ("tension-transform", "correction"): {"readme-6-4", "hopf",
                                          "holomorphic-poly"},
    ("tension-transform", "(2n - m) grad ln rho"): {
        "hopf", "holomorphic-poly", "flat-6-4"},
    ("tension-transform", "(2 - 2n) grad ln sigma"): {"readme-6-4",
                                                     "flat-6-4"},
    ("mean-curvature", "L(g)"): {"curved-fibers"},
    ("mean-curvature", "correction"): {"hopf", "holomorphic-poly",
                                       "flat-6-4"},
    ("f-divergence", "L(g)"): set(),
    ("f-divergence", "correction"): {"readme-6-4", "flat-6-4"},
    ("koszul-horizontal", "g(X, Y) grad_H ln sigma"): ALL,
    ("koszul-horizontal", "X(ln sigma) Y"): ALL,
    ("koszul-horizontal", "H(nabla_X Y)"): {"hopf"},
    ("koszul-horizontal", "Y(ln sigma) X"): ALL,
    ("koszul-vertical", "d(rho^-2)"): {"hopf", "holomorphic-poly",
                                       "flat-6-4"},
    ("koszul-vertical", "H(nabla_V V)"): {"holomorphic-poly",
                                          "curved-fibers"},
    ("phh-covariant", "H((nabla_X F)Y)"): set(),
    ("phh-covariant", "g(X, FY) grad_H ln sigma"): ALL,
    ("phh-covariant", "FY(ln sigma) X"): ALL,
    ("phh-covariant", "Y(ln sigma) FX"): ALL,
    ("phh-covariant", "g(X, Y) F grad_H ln sigma"): ALL,
    ("tension-f-structure", "(m - 2n) mu^V"): {"curved-fibers"},
    ("tension-f-structure", "F div_H F"): set(),
    ("pullback", "Christoffel term"): {"hopf"},
    ("pullback", "g^ij d_i d_j f"): {"hopf"},
}
# each term's five mutants, by name: dropped (scale 0), or scaled
SCALINGS = {"drop {}": 0.0, "{} * -1": -1.0, "{} * 1/2": 0.5,
            "{} * 3/2": 1.5, "{} * 2": 2.0}
# (law, mutant) -> (term, scale), for every term of CATCHES
TERM_MUTANTS = {(law, how.format(term)): (term, scale)
                for law, term in CATCHES for how, scale in SCALINGS.items()}
# the runs that catch each mutant: a term's row, or its own below
MUTANTS = {mutant: CATCHES[mutant[0], term]
           for mutant, (term, _) in TERM_MUTANTS.items()} | {
    ("tension-transform", "sigma for sigma^2"): {
        "readme-6-4", "hopf", "holomorphic-poly", "curved-fibers"},
    ("mean-curvature", "sigma for sigma^2"): {
        "hopf", "holomorphic-poly", "curved-fibers", "flat-6-4"},
    ("f-divergence", "sigma for sigma^2"): {"readme-6-4", "flat-6-4"},
    ("corollary-psh", "sigma tau"): {"curved-fibers"},
    ("corollary-psh", "tau"): {"curved-fibers"},
    ("corollary-phh", "n for n - 1"): {"readme-6-4", "curved-fibers",
                                       "flat-4-2", "flat-6-4"},
    ("corollary-phh", "0"): {"readme-6-4", "flat-6-4"},
    ("phwc-equivalence", "commutator defect read as 0"): {
        "nonphwc-anisotropic"},
    ("phwc-equivalence", "metric-compatibility defect read as 0"): {
        "nonphwc-anisotropic"},
    ("phwc-equivalence", "pass only where both are below tol"): {
        "nonphwc-anisotropic"},
}
LAWS = sorted({law for law, _ in MUTANTS})
# the wrong dimension coefficients that no bundled run catches (ROADMAP items
# 14 and 15): (law, mutant) -> (what reads the coefficient: a term, the PHH
# prediction or the one-function exponent, c(m, n), c'(m, n))
DIMENSION_MUTANTS = {
    ("tension-f-structure", "m - 2 for m - 2n"): (
        "(m - 2n) mu^V", lambda m, n: m - 2 * n, lambda m, n: m - 2),
    ("corollary-phh", "4n(n - 1) for 8(n - 1)"): (
        "prediction", lambda m, n: 8 * (n - 1), lambda m, n: 4 * n * (n - 1)),
    ("corollary-psh", "-(n - 1) for the exponent -(2n - 2)/(m - 2n)"): (
        "exponent", lambda m, n: -(2 * n - 2) / (m - 2 * n),
        lambda m, n: -(n - 1)),
    ("f-divergence", "n(n - 1) for 2n - 2"): (
        "correction", lambda m, n: 2 * n - 2, lambda m, n: n * (n - 1)),
    ("tension-transform", "n(1 - n) for 2 - 2n"): (
        "(2 - 2n) grad ln sigma", lambda m, n: 2 - 2 * n,
        lambda m, n: n * (1 - n)),
}


def psh_prediction(how):
    """corollary-psh's tension prediction read wrong: sigma tau or tau."""
    def predict(gbar, geo):
        s = gbar.factor_values(geo)[0] if how == "sigma tau" else 1.0
        return np.asarray(s)[..., None] * biconformal.tension_field(geo)

    return predict


def phh_prediction(how, scale=1.0):
    """corollary-phh's prediction read wrong: 8 n for 8 (n - 1), 0, or
    ``scale`` times 8 (n - 1), a dimension mutant's."""
    def predict(gbar, geo):
        if how == "0":
            return 0.0
        n = gbar.phi.n
        grad_h = matvec(geo.projector_and_lift[0],
                        gbar.grad_log_factors(geo)[0])
        coefficient = (8.0 * n if how == "n for n - 1"
                       else scale * 8.0 * (n - 1))
        norm2 = coefficient * quad(grad_h, geo.g, grad_h)
        return (gbar.factor_values(geo)[0] * np.sqrt(norm2))[..., None]

    return predict


# corollary -> the property whose prediction its mutants change, and how
PREDICTIONS = {"corollary-psh": ("harmonic", psh_prediction),
               "corollary-phh": ("phh", phh_prediction)}


def rebind_sum_terms(monkeypatch, replacement):
    """Rebind ``sum_terms`` in every ``phmorph`` module that binds it, as
    the benchmark's tracer rebinds a name."""
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "phmorph"
                and getattr(module, "sum_terms", None) is sum_terms):
            monkeypatch.setattr(module, "sum_terms", replacement)


def scaling(scaled, scale):
    """``sum_terms`` with the term named ``scaled`` times ``scale``, or
    without it where ``scale`` is 0."""
    def sum_scaled(terms):
        return sum_terms({name: term * scale if name == scaled else term
                          for name, term in terms.items()
                          if name != scaled or scale})

    return sum_scaled


def phwc_equivalence_mutant(monkeypatch, how):
    """phwc-equivalence with one defect read as 0, or passing where its
    reading, the larger of the two, is below tol: only where both are."""
    if how == "pass only where both are below tol":
        check = biconformal.verify_phwc_equivalence

        def both_below(geo, tol):
            absr, rel, finite, _ = check(geo, tol)
            return absr, rel, finite, rel < tol

        monkeypatch.setattr(runner, "verify_phwc_equivalence", both_below)
        return
    name = {"commutator defect read as 0": "phwc_defect",
            "metric-compatibility defect read as 0": "phwc_metric_defect"}[how]
    defect = getattr(biconformal, name)
    monkeypatch.setattr(biconformal, name, lambda geo: (
        np.zeros_like(defect(geo)[0]), defect(geo)[1]))


def apply(monkeypatch, law, how):
    if (law, how) in TERM_MUTANTS:
        rebind_sum_terms(monkeypatch, scaling(*TERM_MUTANTS[law, how]))
    elif how == "sigma for sigma^2":
        # a scaled law's run reads factor_values only in ``_scaled_law``
        values = ChangedMetric.factor_values
        monkeypatch.setattr(ChangedMetric, "factor_values", lambda gbar, geo: (
            np.sqrt(values(gbar, geo)[0]), values(gbar, geo)[1]))
    elif law in PREDICTIONS:
        prop, wrong = PREDICTIONS[law]
        monkeypatch.setitem(PROPERTIES, prop, Property(
            PROPERTIES[prop].measure, wrong(how)))
    else:
        phwc_equivalence_mutant(monkeypatch, how)


def dimension_mutant(law, how, right=False, at=None):
    """The mutant (law, how) of ``DIMENSION_MUTANTS`` as ``put(patch, m,
    n)``, which puts it in place for a run at its (m, n), or at the (m, n)
    ``at``: what reads the coefficient c, times c'(m, n) / c(m, n), or 1
    where both are 0; with ``right``, c' is c."""
    where, right_c, wrong_c = DIMENSION_MUTANTS[law, how]

    def put(patch, m, n):
        m, n = at or (m, n)
        c, c_wrong = right_c(m, n), (right_c if right else wrong_c)(m, n)
        assert c or not c_wrong, (law, how, m, n)
        scale = c_wrong / c if c else 1.0
        if where == "exponent":  # both of the runner's call sites read it
            patch.setattr(runner, "special_change", lambda phi, sigma: (
                ChangedMetric(phi, sigma, scale * biconformal.special_change(
                    phi, sigma).rho)))
        elif where == "prediction":
            prop, wrong = PREDICTIONS[law]
            patch.setitem(PROPERTIES, prop, Property(
                PROPERTIES[prop].measure, wrong(how, scale)))
        else:
            rebind_sum_terms(patch, scaling(where, scale))

    return put


def reports(law, mutant=None):
    """Per run, the report of that run checking ``law`` alone, with
    ``mutant(patch, m, n)`` put in place at the run's (m, n) where given."""
    out = {}
    for run, args in RUNS.items():
        with pytest.MonkeyPatch.context() as patch:
            if mutant is not None:
                phi = get_scenario(args["scenario"]).phi
                mutant(patch, phi.m, phi.n)
            out[run] = run_verification(RunConfig(
                samples=20, seed=5, identities=[law], **args))
    return out


def verdicts(law, mutant=None):
    """Per run, whether ``law`` passed, or None where it is skipped."""
    return {run: rows[0]["passed"] if (rows := report["per_identity"])
            else None for run, report in reports(law, mutant).items()}


@pytest.mark.parametrize("law", LAWS)
def test_every_law_passes_unmutated(law):
    checked = {run: ok for run, ok in verdicts(law).items() if ok is not None}
    assert checked and all(checked.values()), checked


@pytest.mark.parametrize("law", LAWS)
def test_each_term_of_a_law_has_a_drop_mutant(monkeypatch, law):
    names = set()

    def recording(terms):
        names.update(terms)
        return sum_terms(terms)

    rebind_sum_terms(monkeypatch, recording)
    verdicts(law)
    assert names == {term for row, term in CATCHES if row == law}


@pytest.mark.parametrize("law", sorted({law for law, _ in CATCHES}))
def test_a_term_scaled_by_one_leaves_every_report_unchanged(monkeypatch, law):
    # a generator that reorders, copies or re-casts the terms shows here
    unmutated = json.dumps(reports(law))
    for row, term in CATCHES:
        if row == law:
            with monkeypatch.context() as patch:
                rebind_sum_terms(patch, scaling(term, 1.0))
                assert json.dumps(reports(law)) == unmutated, term


@pytest.mark.parametrize("law, how", [
    pytest.param(*mutant, marks=pytest.mark.xfail(
        strict=True, reason="the term is round-off or 0 on every bundled "
        "run: ROADMAP item 2's conformal-6-4 scenario (nabla J != 0) would "
        "reach it"))
    if not MUTANTS[mutant] else mutant for mutant in MUTANTS])
def test_a_mutant_is_caught(monkeypatch, law, how):
    apply(monkeypatch, law, how)
    caught = {run for run, ok in verdicts(law).items() if ok is False}
    assert caught == MUTANTS[law, how]
    assert caught, "no run catches %s: %s" % (law, how)


@pytest.mark.parametrize("law, how", [
    pytest.param(*mutant, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the wrong coefficient "
        "equals the right one at every bundled run's (m, n) where its term "
        "has content: ROADMAP item 14's products (curved-fibers^3, at "
        "m = 12 and n = 3) would catch it"))
    for mutant in DIMENSION_MUTANTS])
def test_a_dimension_mutant_is_caught(law, how):
    caught = {run for run, ok in verdicts(
        law, dimension_mutant(law, how)).items() if ok is False}
    assert caught, "no run catches %s: %s" % (law, how)


@pytest.mark.parametrize("law, how", list(DIMENSION_MUTANTS))
def test_a_dimension_mutant_reaches_its_coefficient(law, how):
    # read at curved-fibers^3's (m, n) = (12, 3) on every run, each is
    # caught: the strict xfail above fails for want of a run, not of a patch
    caught = {run for run, ok in verdicts(
        law, dimension_mutant(law, how, at=(12, 3))).items() if ok is False}
    assert caught


@pytest.mark.parametrize("law, how", list(DIMENSION_MUTANTS))
def test_a_dimension_mutant_with_the_right_coefficient_changes_no_report(
        law, how):
    assert json.dumps(reports(law, dimension_mutant(law, how, right=True))) \
        == json.dumps(reports(law))
