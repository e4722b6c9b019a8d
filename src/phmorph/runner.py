"""Verification runs: sample points, drive every selected identity, and
assemble a deterministic machine-readable report.

``IDENTITIES`` is the one list of the laws a run checks, in report order.
Each entry names what the identity requires of the scenario and the change
(``REQUIREMENTS``; the first that fails is its skip reason) and the check
that gives its report at one sample point.  ``run_identity`` dispatches one
identity at one point and turns a sample error into an errored report.

A run is point-major: at each sample point, in sample order, every
applicable identity runs and then the flag checks.  So the per-point memos
of the map jets and of the metric (``manifold.POINT_MEMO_SIZE`` points)
serve all of them before later points evict them.  Each identity, and each
flag, folds its one-point reports into one ``IdentityAggregate`` in point
order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import exprs, scenarios
from .biconformal import (BiconformalChange, BiconformalContext,
                          HOLOMORPHIC_BUILTINS, IdentityAggregate,
                          IdentityResidualReport, PHH_N1_WARNING, REL_FLOOR,
                          SAMPLE_ERRORS, corollary_phh_at, corollary_psh_at,
                          errored_report, one_function_context,
                          phh_breaking_checkable, special_change,
                          verify_f_divergence, verify_koszul_h,
                          verify_koszul_v, verify_mean_curvature,
                          verify_phh_covariant_formula,
                          verify_phwc_equivalence,
                          verify_pullback_characterization,
                          verify_tension_equivalence, verify_tension_transform)
from .hermitian import phh_defect, phwc_defect
from .maps import tension_field
from .scenarios import Scenario, sample_points


@dataclass
class RunConfig:
    scenario: str
    sigma: str = "1"
    rho: Optional[str] = None
    special_sigma: Optional[str] = None
    samples: int = 100
    seed: int = 42
    tol_ad: float = 1e-8
    tol_fd: float = 1e-5
    identities: Optional[List[str]] = None

    def validate(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tol_ad <= 0 or self.tol_fd <= 0:
            raise ValueError("tolerances must be positive")
        if self.rho is not None and self.special_sigma is not None:
            raise ValueError("give at most one of rho and special-sigma")
        names = self.identities or ()
        for name in names:
            if name not in IDENTITIES:
                raise ValueError("unknown identity %r; available: %s"
                                 % (name, ", ".join(ALL_IDENTITIES)))
        if len(set(names)) < len(names):
            raise ValueError("identities repeated in %s" % ",".join(names))

    def build_change(self, scenario: Scenario) -> BiconformalChange:
        """The change to verify; raises ValueError if an expression uses a
        variable outside the scenario's chart."""
        if self.special_sigma is not None:
            sigma = exprs.parse(self.special_sigma)
            _check_chart(scenario, {"special-sigma": sigma})
            return special_change(sigma, scenario.phi.m, scenario.phi.n)
        change = BiconformalChange.from_texts(self.sigma, self.rho)
        _check_chart(scenario, {"sigma": change.sigma, "rho": change.rho})
        return change


def _check_chart(scenario: Scenario, expressions):
    m = scenario.phi.m
    for option, expr in expressions.items():
        index = exprs.max_var_index(expr)
        if index >= m:
            raise ValueError("%s uses x%d, but scenario %r has chart "
                             "coordinates x1..x%d"
                             % (option, index + 1, scenario.name, m))


class RunContext:
    """What the one-point checks of a run read: the scenario, the config,
    the biconformal context of the change and that of the one-function
    change of its sigma (None when the scenario has no fibers)."""

    def __init__(self, scenario: Scenario, config: RunConfig,
                 change: BiconformalChange):
        phi, J = scenario.phi, scenario.J
        self.scenario, self.config = scenario, config
        self.change = BiconformalContext.build(phi, J, change)
        self.one_function = (one_function_context(phi, J, change.sigma)
                             if phi.m > phi.two_n else None)

    def draw(self, idx: int, tag: int, count: int = 1):
        """Random test components for sample ``idx``, seeded by the run's
        seed, ``idx`` and the identity's ``tag``."""
        rng = np.random.default_rng([self.config.seed, idx, tag])
        draws = rng.standard_normal((count, self.scenario.phi.m))
        return draws[0] if count == 1 else draws


def _pullback(run: RunContext, p, idx):
    """Worst of the first three holomorphic pullbacks, under g and, for the
    one-function change, under g-bar as well: that change preserves the
    morphism property, so the pullbacks stay harmonic under it."""
    phi, J, tol = run.scenario.phi, run.scenario.J, run.config.tol_fd
    names = [h for h in sorted(HOLOMORPHIC_BUILTINS)
             if h != "z1*z2" or phi.two_n >= 4][:3]
    reps = []
    for holo in names:
        reps.append(verify_pullback_characterization(phi, J, p, holo,
                                                     tol=tol))
        if run.config.special_sigma is not None:
            reps.append(verify_pullback_characterization(
                phi, J, p, holo, metric=run.change.gbar, tol=tol))
    return max(reps, key=lambda r: r.rel_residual)


# requirement -> (holds(scenario, change), skip reason when it does not)
REQUIREMENTS = {
    "phwc": (lambda sc, change: bool(sc.expected_flags.get("phwc")),
             "scenario is not PHWC"),
    "fibers": (lambda sc, change: sc.phi.m > sc.phi.two_n,
               "scenario has no fibers (m = 2n)"),
    "harmonic": (lambda sc, change: bool(sc.expected_flags.get("harmonic")),
                 "scenario is not harmonic"),
    "phh": (lambda sc, change: bool(sc.expected_flags.get("phh")),
            "scenario is not PHH"),
    "n >= 2 or sigma constant": (
        lambda sc, change: phh_breaking_checkable(sc.phi.n, change.sigma),
        "skipped: " + PHH_N1_WARNING),
}


@dataclass(frozen=True)
class Identity:
    """A law's row: the ``REQUIREMENTS`` it needs, its one-point check
    (run, point, sample index) -> IdentityResidualReport, and whether its
    aggregate ranks the worst point by absolute residual (the corollaries)."""
    requires: Tuple[str, ...]
    check: Callable
    worst_by_abs: bool = False

    def aggregate(self, name: str) -> IdentityAggregate:
        """The empty tally that this identity's reports fold into."""
        return IdentityAggregate(name, worst_by_abs=self.worst_by_abs)


IDENTITIES = {
    "phwc-equivalence": Identity((), lambda run, p, idx: (
        verify_phwc_equivalence(run.scenario.phi, run.scenario.J, p,
                                tol=run.config.tol_ad))),
    "tension-f-structure": Identity(("phwc",), lambda run, p, idx: (
        verify_tension_equivalence(run.scenario.phi, run.scenario.J, p,
                                   tol=run.config.tol_fd))),
    "tension-transform": Identity(("phwc",), lambda run, p, idx: (
        verify_tension_transform(run.change, p, tol=run.config.tol_fd))),
    "koszul-horizontal": Identity(("phwc",), lambda run, p, idx: (
        verify_koszul_h(run.change, p, *run.draw(idx, 3, count=2),
                        tol=run.config.tol_fd))),
    "koszul-vertical": Identity(("phwc", "fibers"), lambda run, p, idx: (
        verify_koszul_v(run.change, p, run.draw(idx, 4),
                        tol=run.config.tol_fd))),
    "mean-curvature": Identity(("phwc", "fibers"), lambda run, p, idx: (
        verify_mean_curvature(run.change, p, tol=run.config.tol_fd))),
    "f-divergence": Identity(("phwc",), lambda run, p, idx: (
        verify_f_divergence(run.change, p, tol=run.config.tol_fd))),
    "phh-covariant": Identity(("phwc",), lambda run, p, idx: (
        verify_phh_covariant_formula(run.change, p,
                                     *run.draw(idx, 7, count=2),
                                     tol=run.config.tol_fd))),
    "pullback": Identity(("phwc", "harmonic"), _pullback),
    "corollary-psh": Identity(("phwc", "fibers"), lambda run, p, idx: (
        corollary_psh_at(run.scenario, run.one_function, p,
                         tol=run.config.tol_fd)), worst_by_abs=True),
    "corollary-phh": Identity(
        ("phwc", "fibers", "phh", "n >= 2 or sigma constant"),
        lambda run, p, idx: corollary_phh_at(run.one_function, p,
                                             tol=10.0 * run.config.tol_ad),
        worst_by_abs=True),
}
ALL_IDENTITIES = tuple(IDENTITIES)


def skip_reason(name: str, scenario: Scenario,
                change: BiconformalChange) -> Optional[str]:
    """Why the identity does not apply to this scenario and change, or None."""
    for requirement in IDENTITIES[name].requires:
        holds, reason = REQUIREMENTS[requirement]
        if not holds(scenario, change):
            return reason
    return None


def run_identity(name: str, run: RunContext, p, idx: int):
    """The report of one identity at sample point ``p`` with sample index
    ``idx`` (a point's random test vectors are drawn from it); a sample error
    gives an errored report."""
    try:
        return IDENTITIES[name].check(run, p, idx)
    except SAMPLE_ERRORS as err:
        return errored_report(name, p, err)


def _relative(defect_and_scale):
    defect, scale = defect_and_scale
    return defect / (scale + REL_FLOOR)


# flag -> its relative defect at a point, (phi, J, p) -> float
FLAG_DEFECTS = {
    "phwc": lambda phi, J, p: _relative(phwc_defect(phi, J, p)),
    "harmonic": lambda phi, J, p: (
        float(np.max(np.abs(tension_field(phi, p).components))) / REL_FLOOR),
    "phh": lambda phi, J, p: _relative(phh_defect(phi, J, p)),
}


def _flag_tallies(scenario: Scenario):
    """One empty tally per measured flag; PHH is measured only on a PHWC
    scenario."""
    return {flag: IdentityAggregate(flag) for flag in FLAG_DEFECTS
            if flag != "phh" or scenario.expected_flags.get("phwc")}


def _flag_entries(scenario: Scenario, tallies, tol):
    """The report's flag section: per flag, the expected value, the worst
    defect over the points (None where it is not measured), the errored
    points and whether the expectation is confirmed."""
    out = {}
    for flag in FLAG_DEFECTS:
        expected = scenario.expected_flags.get(flag)
        tally = tallies.get(flag)
        worst = None if tally is None else tally.max_rel_residual
        if expected is None or worst is None:
            confirmed = None
        elif expected:
            confirmed = worst < tol
        else:
            confirmed = worst > 10.0 * tol
        out[flag] = {"expected": expected, "measured_max_defect": worst,
                     "samples_error": 0 if tally is None
                     else tally.samples_error,
                     "confirmed": confirmed}
    return out


def confirm_flags(scenario: Scenario, points, tol: float = 1e-5,
                  tallies=None):
    """Re-measure the scenario's expected PHWC / PHH / harmonicity flags at
    ``points``, into new ``tallies`` or, point by point in a run, into the
    run's (a sample error is an errored report), and return the report's
    flag section over every point folded so far."""
    tallies = _flag_tallies(scenario) if tallies is None else tallies
    for p in points:
        for flag, tally in tallies.items():
            try:
                defect = FLAG_DEFECTS[flag](scenario.phi, scenario.J, p)
                rep = IdentityResidualReport(flag, np.asarray(p).tolist(),
                                             defect, defect, True)
            except SAMPLE_ERRORS as err:
                rep = errored_report(flag, p, err)
            tally.add(rep)
    return _flag_entries(scenario, tallies, tol)


def run_verification(config: RunConfig):
    """Execute a full verification run; returns the report dictionary."""
    config.validate()
    scenario = scenarios.get_scenario(config.scenario)
    warnings = []
    if scenario.optional:
        ok, msg = scenario.self_check()
        if not ok:
            warnings.append("optional scenario construction check failed: "
                            + msg)
            return _assemble(config, scenario, [], {}, [], warnings,
                             verdict="skipped")
    change = config.build_change(scenario)
    points = sample_points(scenario, config.samples, config.seed)

    run = RunContext(scenario, config, change)
    totals, skipped = [], []
    for name in config.identities or ALL_IDENTITIES:
        reason = skip_reason(name, scenario, change)
        if reason is None:
            totals.append(IDENTITIES[name].aggregate(name))
        else:
            skipped.append({"name": name, "reason": reason})
    flag_tallies = _flag_tallies(scenario)
    for idx, p in enumerate(points):
        for agg in totals:
            agg.add(run_identity(agg.name, run, p, idx))
        flags = confirm_flags(scenario, [p], config.tol_fd, flag_tallies)

    per_identity = [agg.as_dict() for agg in totals]
    return _assemble(config, scenario, per_identity, flags, skipped, warnings)


def _assemble(config, scenario, per_identity, flags, skipped, warnings,
              verdict=None):
    flags_confirmed = all(v.get("confirmed") is not False
                          for v in flags.values()) if flags else False
    identities_ok = all(entry["passed"] for entry in per_identity)
    if verdict is None:
        verdict = "pass" if (identities_ok and flags_confirmed) else "fail"
    return {
        "schema_version": 2,
        "scenario": scenario.name,
        "config": {
            "sigma": config.sigma,
            "rho": config.rho,
            "special_sigma": config.special_sigma,
            "samples": config.samples,
            "seed": config.seed,
            "tol_ad": config.tol_ad,
            "tol_fd": config.tol_fd,
            "identities": list(config.identities) if config.identities
                          else list(ALL_IDENTITIES),
        },
        "per_identity": per_identity,
        "skipped_identities": skipped,
        "flags": flags,
        "flags_confirmed": flags_confirmed,
        "warnings": warnings,
        "verdict": verdict,
    }
