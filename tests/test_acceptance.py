"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line so the
suite output doubles as the verification report.  Tolerances here are the
contract - do not loosen them to make a run green.
"""

import json
import math
import time

import numpy as np

import phmorph as pm
from phmorph import (
    ChangedMetric,
    LocalGeometry,
    RunConfig,
    get_scenario,
    parse,
    sample_points,
    special_change,
    tension_field,
    tension_via_f_structure,
    verify_koszul_h,
    verify_koszul_v,
    verify_mean_curvature,
    verify_phh_covariant_formula,
    verify_pullback_characterization,
    verify_tension_transform,
)
from phmorph.biconformal import corollary_at
from phmorph.cli import main as cli_main
from phmorph.hermitian import phwc_defect, phwc_metric_defect
from phmorph.maps import horizontal_projector
from phmorph.runner import run_verification
from tests.test_biconformal import abs_residual, fold, rel_residual

PHWC_SCENARIOS = ["flat-projection-4-2", "flat-projection-6-4",
                  "holomorphic-poly", "curved-fibers-nonharmonic", "hopf"]

HARMONIC_PHWC_SCENARIOS = ["flat-projection-4-2", "flat-projection-6-4",
                           "holomorphic-poly", "hopf"]


def _report(num, description, ok):
    print("[criterion %2d] %s - %s" % (num, "PASS" if ok else "FAIL",
                                       description))
    assert ok, "criterion %d failed: %s" % (num, description)


def _sigma_rho_pairs(m, two_n):
    # three changes per scenario; the last mixes horizontal and vertical
    # coordinate dependence in both factors
    v = m if m > two_n else 1  # a fiber coordinate (or x1 when none exist)
    return [
        ("2", "1"),
        ("exp(0.25*x1)", "1"),
        ("exp(0.2*x1+0.1*x%d)" % v, "1+0.2*x2^2+0.1*x%d^2" % v),
    ]


def test_criterion_01_tension_route_equivalence():
    # both tension routes agree on every PHWC scenario: rel < 1e-6,
    # >= 200 points in total, < 30 s
    start = time.time()
    worst = 0.0
    count = 0
    for name in PHWC_SCENARIOS:
        sc = get_scenario(name)
        for p in sample_points(sc, 45, seed=20):
            geo = LocalGeometry(sc.phi, p)
            a = tension_field(geo)
            b = tension_via_f_structure(geo)
            rel = np.max(np.abs(a - b)) / (np.max(np.abs(a)) + 1.0)
            worst = max(worst, rel)
            count += 1
    elapsed = time.time() - start
    ok = worst < 1e-6 and count >= 200 and elapsed < 30.0
    _report(1, "tension route equivalence: %d points, max rel %.2e, %.1f s"
            % (count, worst, elapsed), ok)


def test_criterion_02_tension_transformation_law():
    worst = 0.0
    for name in PHWC_SCENARIOS:
        sc = get_scenario(name)
        for sigma, rho in _sigma_rho_pairs(sc.phi.m, sc.phi.two_n):
            gbar = ChangedMetric.from_texts(sc.phi, sigma, rho)
            for p in sample_points(sc, 6, seed=21):
                geo = LocalGeometry(sc.phi, [p])
                worst = max(worst, rel_residual(
                    verify_tension_transform(gbar, geo)))
    _report(2, "tension transformation law: max rel residual %.2e" % worst,
            worst < 1e-5)


def test_criterion_03_koszul_identities():
    worst = 0.0
    rng = np.random.default_rng(2203)
    for name in PHWC_SCENARIOS:
        sc = get_scenario(name)
        m, two_n = sc.phi.m, sc.phi.two_n
        gbar = ChangedMetric.from_texts(sc.phi,
                                        *_sigma_rho_pairs(m, two_n)[2])
        geos = [LocalGeometry(sc.phi, [p])
                for p in sample_points(sc, 10, seed=22)]
        for k in range(50):
            geo = geos[k % len(geos)]
            x, y = rng.normal(size=m), rng.normal(size=m)
            worst = max(worst,
                        rel_residual(verify_koszul_h(gbar, geo, x, y)))
            if m > two_n:
                v = rng.normal(size=m)
                worst = max(worst,
                            rel_residual(verify_koszul_v(gbar, geo, v)))
    _report(3, "Koszul connection identities: max rel residual %.2e" % worst,
            worst < 1e-5)


def test_criterion_04_mean_curvature_transformation():
    worst = 0.0
    for name in PHWC_SCENARIOS:
        sc = get_scenario(name)
        if sc.phi.m == sc.phi.two_n:
            continue
        for sigma, rho in _sigma_rho_pairs(sc.phi.m, sc.phi.two_n):
            gbar = ChangedMetric.from_texts(sc.phi, sigma, rho)
            for p in sample_points(sc, 5, seed=23):
                geo = LocalGeometry(sc.phi, [p])
                worst = max(worst,
                            rel_residual(verify_mean_curvature(gbar, geo)))
    # vertical-only rho: H(grad log rho) = 0 and pure sigma^2 scaling
    sc = get_scenario("curved-fibers-nonharmonic")
    gbar = ChangedMetric.from_texts(sc.phi, "exp(0.3*x1)", "exp(0.2*x3)")
    pure_ok = True
    for p in sample_points(sc, 5, seed=23):
        geo = LocalGeometry(sc.phi, p)
        _, grad_lr = gbar.grad_log_factors(geo)
        ph = horizontal_projector(geo)
        s, _ = gbar.factor_values(geo)
        mu = pm.mean_curvature_vertical(geo)
        mubar = pm.mean_curvature_vertical(geo.under(gbar))
        pure_ok &= np.max(np.abs(ph @ grad_lr)) < 1e-10
        pure_ok &= np.max(np.abs(mubar - s**2 * mu)) < 1e-6
    ok = worst < 1e-5 and pure_ok
    _report(4, "fiber mean-curvature transformation: max rel residual %.2e, "
               "vertical-rho pure scaling %s" % (worst, pure_ok), ok)


def test_criterion_05_f_divergence_transformation():
    # nonconstant sigma on the n = 2 scenario carries a genuine correction
    # term; on n = 1 scenarios the correction vanishes identically
    sc = get_scenario("flat-projection-6-4")
    worst_n2 = 0.0
    gbar = ChangedMetric.from_texts(sc.phi, "exp(0.2*x1+0.1*x2)", "1")
    for p in sample_points(sc, 8, seed=24):
        geo = LocalGeometry(sc.phi, [p])
        worst_n2 = max(worst_n2,
                       rel_residual(pm.verify_f_divergence(gbar, geo)))
    worst_n1 = 0.0
    for name in ("flat-projection-4-2", "curved-fibers-nonharmonic", "hopf"):
        sc1 = get_scenario(name)
        gbar1 = ChangedMetric.from_texts(sc1.phi, "exp(0.2*x1)", "1")
        for p in sample_points(sc1, 6, seed=24):
            geo = LocalGeometry(sc1.phi, [p])
            worst_n1 = max(worst_n1,
                           rel_residual(pm.verify_f_divergence(gbar1, geo)))
    ok = worst_n2 < 1e-5 and worst_n1 < 1e-5
    _report(5, "f-structure divergence transformation: n=2 max %.2e, "
               "n=1 max %.2e" % (worst_n2, worst_n1), ok)


def test_criterion_06_one_function_change_preserves_harmonic_phwc():
    ok = True
    detail = []
    for name in ("flat-projection-4-2", "flat-projection-6-4"):
        sc = get_scenario(name)
        sigma = parse("1+0.2*x1^2+0.1*x2")
        gbar = special_change(sc.phi, sigma)
        worst_tau = worst_defect = 0.0
        for p in sample_points(sc, 10, seed=25):
            geo_bar = LocalGeometry(sc.phi, p).under(gbar)
            tau = tension_field(geo_bar)
            worst_tau = max(worst_tau, float(np.max(np.abs(tau))))
            worst_defect = max(worst_defect, phwc_defect(geo_bar)[0])
        ok &= worst_tau < 1e-5 and worst_defect < 1e-5
        detail.append("%s tau %.2e defect %.2e" % (name, worst_tau, worst_defect))
    _report(6, "one-function change preserves harmonicity and PHWC: %s"
            % "; ".join(detail), ok)


def test_criterion_07_phh_breaking_direction():
    sc = get_scenario("flat-projection-6-4")
    geos = [LocalGeometry(sc.phi, [p])
            for p in sample_points(sc, 10, seed=26)]
    const_gbar = special_change(sc.phi, parse("3"))
    const = fold("corollary-phh", lambda geo: corollary_at(
        ("phh",), const_gbar, geo, 1e-6), geos)
    broken_gbar = special_change(sc.phi, parse("1+0.1*x1"))
    broken = fold("corollary-phh", lambda geo: corollary_at(
        ("phh",), broken_gbar, geo, 1e-6), geos)
    # on n = 1 PHH is kept for every sigma: a run checks it, and it passes
    # at all 5 points (same points: 5 samples at seed 26)
    n1 = run_verification(RunConfig(
        scenario="flat-projection-4-2", sigma="1+0.1*x1", samples=5,
        seed=26, identities=["corollary-phh"]))
    ok = (const.passed and broken.passed
          and n1["skipped_identities"] == []
          and [(row["name"], row["samples_pass"], row["passed"])
               for row in n1["per_identity"]] == [("corollary-phh", 5, True)])
    _report(7, "PHH preserved iff sigma constant (n >= 2), and for every "
               "sigma at n = 1", ok)


def test_criterion_08_phwc_equivalence_and_negative_control():
    ok = True
    for name in PHWC_SCENARIOS + ["nonphwc-anisotropic"]:
        sc = get_scenario(name)
        for p in sample_points(sc, 8, seed=27):
            geo = LocalGeometry(sc.phi, p)
            d1, s1 = phwc_defect(geo)
            d2, s2 = phwc_metric_defect(geo)
            ok &= (d1 / (s1 + 1.0) < 1e-6) == (d2 / (s2 + 1.0) < 1e-6)
    sc = get_scenario("nonphwc-anisotropic")
    exact = phwc_defect(
        LocalGeometry(sc.phi, np.array([0.3, -0.2, 0.5, 0.1])))[0]
    ok &= abs(exact - 3.0 * math.sqrt(2.0)) < 1e-9
    _report(8, "PHWC operator/metric defect equivalence; control defect "
               "%.12f = 3*sqrt(2)" % exact, ok)


def test_criterion_09_pullback_characterization():
    worst = 0.0
    for name in HARMONIC_PHWC_SCENARIOS:
        sc = get_scenario(name)
        holos = ["z1", "z1^2", "exp(z1)"]
        sigma = parse("1+0.1*x1^2")
        gbar = None
        if sc.phi.m > sc.phi.two_n:
            gbar = special_change(sc.phi, sigma)
        for p in sample_points(sc, 5, seed=28):
            geo = LocalGeometry(sc.phi, [p])
            for holo in holos:
                worst = max(worst, abs_residual(
                    verify_pullback_characterization(geo, holo)))
                if gbar is not None:
                    worst = max(worst, abs_residual(
                        verify_pullback_characterization(geo.under(gbar),
                                                         holo)))
    _report(9, "holomorphic pullbacks are harmonic (original and changed "
               "metrics): max residual %.2e" % worst, worst < 1e-5)


def test_criterion_10_ad_fd_cross_validation():
    from tests.test_jets import fd_grad_hess
    import phmorph.jets as jets

    def f_float(p):
        return (math.exp(0.4 * p[0]) * math.sin(p[1])
                + p[2] ** 2 / (1.0 + p[3] ** 2))

    def f_jet(c):
        return (jets.exp(0.4 * c[0]) * jets.sin(c[1])
                + c[2] ** 2 / (1.0 + c[3] ** 2))

    rng = np.random.default_rng(29)
    worst = 0.0
    sym_ok = True
    for _ in range(100):
        p = rng.uniform(-1.0, 1.0, size=4)
        out = f_jet(pm.seed_coordinates(p))
        g, _ = fd_grad_hess(f_float, p)
        worst = max(worst, float(np.max(np.abs(out.grad - g))
                                 / (np.max(np.abs(g)) + 1.0)))
        sym_ok &= np.array_equal(out.hess, out.hess.T)
    ok = worst < 1e-5 and sym_ok
    _report(10, "jet derivatives match central differences (max rel %.2e), "
                "Hessian symmetry exact" % worst, ok)


def test_criterion_11_byte_identical_reports(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    argv = ["verify", "--scenario", "flat-projection-6-4",
            "--sigma", "exp(0.2*x1)", "--rho", "1+0.1*x5^2",
            "--samples", "6", "--seed", "17"]
    for path in paths:
        assert cli_main(argv + ["--report", str(path)]) == 0
    same = paths[0].read_bytes() == paths[1].read_bytes()
    json.loads(paths[0].read_text())  # well-formed
    _report(11, "identical configurations produce byte-identical reports", same)


def test_criterion_12_phh_covariant_formula():
    # H((nabla-bar_X F)Y) = H((nabla_X F)Y) + C(X, Y) for random X and Y at
    # the sample points of every PHWC scenario, under each of its changes
    worst = 0.0
    rng = np.random.default_rng(2212)
    for name in PHWC_SCENARIOS:
        sc = get_scenario(name)
        m, two_n = sc.phi.m, sc.phi.two_n
        points = sample_points(sc, 6, seed=28)
        for sigma, rho in _sigma_rho_pairs(m, two_n):
            gbar = ChangedMetric.from_texts(sc.phi, sigma, rho)
            x, y = rng.normal(size=(2, len(points), m))
            worst = max(worst, rel_residual(verify_phh_covariant_formula(
                gbar, LocalGeometry(sc.phi, points), x, y)))
    _report(12, "phh covariant formula: max rel residual %.2e" % worst,
            worst < 1e-5)
