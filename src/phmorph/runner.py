"""Verification runs: sample points, drive every selected identity, and
assemble a deterministic machine-readable report.

``IDENTITIES`` is the one list of the laws a run checks, in report order.
Each entry names what the identity requires of the scenario and the change
(``REQUIREMENTS``; the first that fails is its skip reason) and the check
that gives its reports at the sample points of a point context.

A run checks its sample points in chunks of ``CHUNK``, in order: a chunk's
point context, phi's ``maps.LocalGeometry`` over its points as one batch, is
handed to every applicable identity (``run_identity``), then to the flag
checks (``confirm_flags``) and, for an optional scenario, to its
construction check (``Scenario.self_check``, whose failure gives the
"skipped" report), and dropped before the next chunk.  Every check returns
one report per row.  ``_settle`` runs both kinds: a check that raises a
sample error on a batch is re-run on each row as a 1-row batch
(``LocalGeometry.rows``), and a sample error at one row is that row's
errored report.  Each identity, and each flag, folds its reports into one
``IdentityAggregate`` in point order.  The chunks run in one numpy
floating-point error state, in which overflow, invalid operations and
division by zero give inf and NaN silently; the checks report them as sample
errors."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import exprs, scenarios
from .biconformal import (BiconformalChange, ChangedMetric,
                          HOLOMORPHIC_BUILTINS, IdentityAggregate,
                          PHH_N1_WARNING, REL_FLOOR, SAMPLE_ERRORS,
                          corollary_phh_at, corollary_psh_at, errored_report,
                          phh_breaking_checkable, row_reports, special_change,
                          verify_f_divergence, verify_koszul_h,
                          verify_koszul_v, verify_mean_curvature,
                          verify_phh_covariant_formula,
                          verify_phwc_equivalence,
                          verify_pullback_characterization,
                          verify_tension_equivalence, verify_tension_transform)
from .hermitian import phh_defect, phwc_defect
from .maps import LocalGeometry, tension_field
from .scenarios import Scenario, sample_points

# Sample points per batch.  A batch pays numpy's per-call overhead once for
# its rows but keeps their geometries alive (about 40 kB a point on
# flat-projection-6-4), so the chunk bounds peak memory at any sample count.
# At 1,000 samples 64 was the fastest size tried; 1,000 took 35 MB more.
CHUNK = 64


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not all(0 < t < float("inf") for t in (self.tol_ad, self.tol_fd)):
            raise ValueError("tolerances must be finite and positive")
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
    """What the checks of a run read: the scenario, the config, the changed
    metric ``gbar`` and that of the one-function change of its sigma,
    ``one_function`` (None when the scenario has no fibers)."""

    def __init__(self, scenario: Scenario, config: RunConfig,
                 change: BiconformalChange):
        phi = scenario.phi
        self.scenario, self.config = scenario, config
        self.gbar = ChangedMetric(phi, change)
        self.one_function = (
            ChangedMetric(phi, special_change(change.sigma, phi.m, phi.n))
            if phi.m > phi.two_n else None)

    def draw(self, geo: LocalGeometry, idx: int, tag: int, count: int = 1):
        """``count`` test vectors for each row of ``geo``, sample indices
        idx, idx + 1, ..., components in [-1, 1) keyed by the run's seed,
        the sample index and the tag (``scenarios.uniform``)."""
        rows, m = geo.p.shape
        keys = np.stack([idx + np.arange(rows), np.full(rows, tag)], axis=1)
        u = scenarios.uniform(self.config.seed, keys, count * m)
        draws = (2.0 * u - 1.0).reshape(rows, count, m).swapaxes(0, 1)
        return draws[0] if count == 1 else draws


def _pullback(run: RunContext, geo: LocalGeometry, idx):
    """Worst of the first three holomorphic pullbacks, under g and, for the
    one-function change, under g-bar as well: that change preserves the
    morphism property, so the pullbacks stay harmonic under it."""
    tol = run.config.tol_fd
    names = [h for h in sorted(HOLOMORPHIC_BUILTINS)
             if h != "z1*z2" or run.scenario.phi.two_n >= 4][:3]
    reps = []
    for holo in names:
        reps.append(verify_pullback_characterization(geo, holo, tol=tol))
        if run.config.special_sigma is not None:
            reps.append(verify_pullback_characterization(
                geo.under(run.gbar), holo, tol=tol))
    return [max(row, key=lambda r: r.rel_residual) for row in zip(*reps)]


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
    """A law's row: the ``REQUIREMENTS`` it needs, its check (run, point
    context, first sample index) -> a report per point, and whether its
    aggregate ranks the worst point by absolute residual (the corollaries)."""
    requires: Tuple[str, ...]
    check: Callable
    worst_by_abs: bool = False

    def aggregate(self, name: str) -> IdentityAggregate:
        """The empty tally that this identity's reports fold into."""
        return IdentityAggregate(name, worst_by_abs=self.worst_by_abs)


IDENTITIES = {
    "phwc-equivalence": Identity((), lambda run, geo, idx: (
        verify_phwc_equivalence(geo, run.scenario.J, tol=run.config.tol_ad))),
    "tension-f-structure": Identity(("phwc",), lambda run, geo, idx: (
        verify_tension_equivalence(geo, run.scenario.J,
                                   tol=run.config.tol_fd))),
    "tension-transform": Identity(("phwc",), lambda run, geo, idx: (
        verify_tension_transform(run.gbar, geo, tol=run.config.tol_fd))),
    "koszul-horizontal": Identity(("phwc",), lambda run, geo, idx: (
        verify_koszul_h(run.gbar, geo, *run.draw(geo, idx, 3, count=2),
                        tol=run.config.tol_fd))),
    "koszul-vertical": Identity(("phwc", "fibers"), lambda run, geo, idx: (
        verify_koszul_v(run.gbar, geo, run.draw(geo, idx, 4),
                        tol=run.config.tol_fd))),
    "mean-curvature": Identity(("phwc", "fibers"), lambda run, geo, idx: (
        verify_mean_curvature(run.gbar, geo, tol=run.config.tol_fd))),
    "f-divergence": Identity(("phwc",), lambda run, geo, idx: (
        verify_f_divergence(run.gbar, geo, run.scenario.J,
                            tol=run.config.tol_fd))),
    "phh-covariant": Identity(("phwc",), lambda run, geo, idx: (
        verify_phh_covariant_formula(run.gbar, geo, run.scenario.J,
                                     *run.draw(geo, idx, 7, count=2),
                                     tol=run.config.tol_fd))),
    "pullback": Identity(("phwc", "harmonic"), _pullback),
    "corollary-psh": Identity(("phwc", "fibers"), lambda run, geo, idx: (
        corollary_psh_at(run.scenario, run.one_function, geo,
                         tol=run.config.tol_fd)), worst_by_abs=True),
    "corollary-phh": Identity(
        ("phwc", "fibers", "phh", "n >= 2 or sigma constant"),
        lambda run, geo, idx: corollary_phh_at(
            run.one_function, geo, run.scenario.J,
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


def _settle(name: str, check: Callable, geo: LocalGeometry, idx: int):
    """``check(geo, idx)``, the reports named ``name`` at the rows of the
    point context ``geo``, whose first row has sample index ``idx``.  A
    sample error re-runs the check on each row as a 1-row batch, and at one
    row is that row's errored report."""
    try:
        return check(geo, idx)
    except SAMPLE_ERRORS as err:
        if len(geo.p) == 1:
            return [errored_report(name, geo.p[0], err)]
    return [rep for i, row in enumerate(geo.rows)
            for rep in _settle(name, check, row, idx + i)]


def run_identity(name: str, run: RunContext, geo: LocalGeometry, idx: int):
    """The reports of one identity at the rows of the point context ``geo``,
    whose first row has sample index ``idx`` (settled by ``_settle``)."""
    check = IDENTITIES[name].check
    return _settle(name, lambda geo, idx: check(run, geo, idx), geo, idx)


def _relative(defect_and_scale):
    defect, scale = defect_and_scale
    return defect / (scale + REL_FLOOR)


# flag -> its relative defect at each point, (point context, J) -> array
FLAG_DEFECTS = {
    "phwc": lambda geo, J: _relative(phwc_defect(geo, J)),
    "harmonic": lambda geo, J: (
        np.max(np.abs(tension_field(geo)), axis=-1) / REL_FLOOR),
    "phh": lambda geo, J: _relative(phh_defect(geo, J)),
}


def _flag_reports(flag: str, geo: LocalGeometry, J):
    """The flag's defect at each row of ``geo`` as a passing report."""
    defect = FLAG_DEFECTS[flag](geo, J)
    return row_reports(flag, geo.p, defect, defect,
                       np.ones_like(defect, dtype=bool))


def _flag_tallies(scenario: Scenario):
    """One empty tally per measured flag; PHH is measured only on a PHWC
    scenario."""
    return {flag: IdentityAggregate(flag) for flag in FLAG_DEFECTS
            if flag != "phh" or scenario.expected_flags.get("phwc")}


def _flag_entries(scenario: Scenario, tallies, tol):
    """The report's flag section: per flag, the expected value, the worst
    defect over the measured points (None where there is none), the
    errored points and whether the expectation is confirmed: never where a
    point errored."""
    out = {}
    for flag in FLAG_DEFECTS:
        expected = scenario.expected_flags.get(flag)
        tally = tallies.get(flag)
        errors = 0 if tally is None else tally.samples_error
        worst = tally.max_rel_residual if tally and tally.samples_pass \
            else None
        if expected is None or tally is None:
            confirmed = None
        elif errors or worst is None:
            confirmed = False
        elif expected:
            confirmed = worst < tol
        else:
            confirmed = worst > 10.0 * tol
        out[flag] = {"expected": expected, "measured_max_defect": worst,
                     "samples_error": errors, "confirmed": confirmed}
    return out


def confirm_flags(scenario: Scenario, geos, tol: float = 1e-5,
                  tallies=None):
    """Re-measure the scenario's expected PHWC / PHH / harmonicity flags at
    the point contexts ``geos`` (the map's ``LocalGeometry`` over a batch
    of points), into new ``tallies`` or, chunk by chunk in a run, into the
    run's (settled by ``_settle``), and return the report's flag section
    over every point folded so far."""
    tallies = _flag_tallies(scenario) if tallies is None else tallies
    for geo in geos:
        for flag, tally in tallies.items():
            for rep in _settle(flag, lambda row, _: _flag_reports(
                    flag, row, scenario.J), geo, 0):
                tally.add(rep)
    return _flag_entries(scenario, tallies, tol)


def run_verification(config: RunConfig):
    """Execute a full verification run; returns the report dictionary."""
    config.validate()
    scenario = scenarios.get_scenario(config.scenario)
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(points), CHUNK):
            geo = LocalGeometry(scenario.phi, points[start:start + CHUNK])
            for agg in totals:
                for rep in run_identity(agg.name, run, geo, start):
                    agg.add(rep)
            flags = confirm_flags(scenario, [geo], config.tol_fd,
                                  flag_tallies)
            if scenario.optional:
                ok, msg = scenario.self_check(geo)
                if not ok:
                    return _assemble(config, scenario, [], {}, [], [
                        "optional scenario construction check failed: "
                        + msg], verdict="skipped")

    per_identity = [agg.as_dict() for agg in totals]
    return _assemble(config, scenario, per_identity, flags, skipped, [])


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
        "config": dict({key: value for key, value in asdict(config).items()
                        if key != "scenario"},
                       identities=list(config.identities or ALL_IDENTITIES)),
        "per_identity": per_identity,
        "skipped_identities": skipped,
        "flags": flags,
        "flags_confirmed": flags_confirmed,
        "warnings": warnings,
        "verdict": verdict,
    }
