"""Verification runs: sample points, drive every selected identity, and
assemble a deterministic machine-readable report.

``IDENTITIES`` is the one list of the laws a run checks, in report order.
Each entry names what the identity requires of the scenario (``REQUIREMENTS``;
the first that fails is its skip reason) and the check that gives its reading
at the sample points of a point context, against ``tol_fd`` or a constant.
A run verifies one ``biconformal.ChangedMetric`` (``RunConfig.build_change``)
and reads the corollaries, whose rows name the ``biconformal.PROPERTIES``
they read, under the one-function change of its sigma.

A run checks its sample points in chunks of ``CHUNK``, in order: a chunk's
point context, phi's ``maps.LocalGeometry`` over its points as one batch, is
handed to every applicable identity (``run_identity``), then to the flag
checks (``confirm_flags``: ``biconformal.PROPERTIES`` under g, which the
corollaries read under the one-function change against their predictions),
and dropped before the next chunk.  The verdict is "pass" where every
identity passed and every flag is confirmed, else "fail".  Every check
returns its batch's reading as per-row arrays, and ``_settle`` runs both
kinds, folding the reading straight into the identity's, or the flag's,
one ``IdentityAggregate`` in point order: a check that raises a sample
error on a batch is re-run on each row as a 1-row batch
(``LocalGeometry.rows``), and a sample error at one row is that row's
error.  The chunks run in one numpy floating-point error state, in which
overflow, invalid operations and division by zero give inf and NaN
silently; the checks report them as sample errors."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import exprs, scenarios
from .biconformal import (PROPERTIES, ChangedMetric,
                          HOLOMORPHIC_BUILTINS, IdentityAggregate,
                          SAMPLE_ERRORS, corollary_at, special_change,
                          verify_f_divergence, verify_koszul_h,
                          verify_koszul_v, verify_mean_curvature,
                          verify_phh_covariant_formula,
                          verify_phwc_equivalence,
                          verify_pullback_characterization,
                          verify_tension_equivalence, verify_tension_transform,
                          worst_of)
from .maps import LocalGeometry
from .scenarios import Scenario, sample_points

# Sample points per batch.  A batch pays numpy's per-call overhead once for
# its rows but keeps their geometries alive (about 40 kB a point on
# flat-projection-6-4), so the chunk bounds the geometries' memory at any
# sample count; the sample points, drawn first into one array, are kept.
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
    tol_fd: float = 1e-5
    identities: Optional[List[str]] = None

    def validate(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.tol_fd < float("inf"):
            raise ValueError("tol_fd must be finite and positive")
        if self.special_sigma is not None and (self.sigma, self.rho) != (
                "1", None):
            raise ValueError("give special-sigma without sigma or rho")
        names = self.identities or ()
        for name in names:
            if name not in IDENTITIES:
                raise ValueError("unknown identity %r; available: %s"
                                 % (name, ", ".join(ALL_IDENTITIES)))
        if len(set(names)) < len(names):
            raise ValueError("identities repeated in %s" % ",".join(names))

    def build_change(self, scenario: Scenario) -> ChangedMetric:
        """The changed metric to verify; raises ValueError if an expression
        uses a variable outside the scenario's chart."""
        if self.special_sigma is not None:
            sigma = exprs.parse(self.special_sigma)
            _check_chart(scenario, {"special-sigma": sigma})
            return special_change(scenario.phi, sigma)
        gbar = ChangedMetric.from_texts(scenario.phi, self.sigma, self.rho)
        _check_chart(scenario, {"sigma": gbar.sigma, "rho": gbar.rho})
        return gbar


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
    ``one_function``: ``gbar`` itself on a ``--special-sigma`` run, so that
    its geometry is built once, and None when the scenario has no fibers."""

    def __init__(self, scenario: Scenario, config: RunConfig,
                 gbar: ChangedMetric):
        phi = scenario.phi
        self.scenario, self.config, self.gbar = scenario, config, gbar
        self.one_function = gbar if config.special_sigma is not None else (
            special_change(phi, gbar.sigma) if phi.m > phi.two_n else None)

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
    one-function change, under g-bar as well (``worst_of``): that change
    keeps the morphism property, so the pullbacks stay harmonic under it."""
    tol = run.config.tol_fd
    names = [h for h in sorted(HOLOMORPHIC_BUILTINS)
             if h != "z1*z2" or run.scenario.phi.two_n >= 4][:3]
    geos = [geo] if run.config.special_sigma is None else [
        geo, geo.under(run.gbar)]
    return worst_of([verify_pullback_characterization(view, holo, tol=tol)
                     for holo in names for view in geos])


# requirement -> (holds(scenario), skip reason when it does not)
REQUIREMENTS = {
    "phwc": (lambda sc: bool(sc.expected_flags.get("phwc")),
             "scenario is not PHWC"),
    "fibers": (lambda sc: sc.phi.m > sc.phi.two_n,
               "scenario has no fibers (m = 2n)"),
    "harmonic": (lambda sc: bool(sc.expected_flags.get("harmonic")),
                 "scenario is not harmonic"),
    "phh": (lambda sc: bool(sc.expected_flags.get("phh")),
            "scenario is not PHH"),
}


@dataclass(frozen=True)
class Identity:
    """A law's row: the ``REQUIREMENTS`` it needs and its check (run, point
    context, first sample index) -> the reading at its points."""
    requires: Tuple[str, ...]
    check: Callable


IDENTITIES = {
    "phwc-equivalence": Identity((), lambda run, geo, idx: (
        verify_phwc_equivalence(geo, tol=1e-8))),
    "tension-f-structure": Identity(("phwc",), lambda run, geo, idx: (
        verify_tension_equivalence(geo, tol=run.config.tol_fd))),
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
        verify_f_divergence(run.gbar, geo, tol=run.config.tol_fd))),
    "phh-covariant": Identity(("phwc",), lambda run, geo, idx: (
        verify_phh_covariant_formula(run.gbar, geo,
                                     *run.draw(geo, idx, 7, count=2),
                                     tol=run.config.tol_fd))),
    "pullback": Identity(("phwc", "harmonic"), _pullback),
    "corollary-psh": Identity(("phwc", "fibers"), lambda run, geo, idx: (
        corollary_at(("phwc", "harmonic"), run.one_function, geo,
                     run.config.tol_fd))),
    "corollary-phh": Identity(
        ("phwc", "fibers", "phh"), lambda run, geo, idx: corollary_at(
            ("phh",), run.one_function, geo, 10.0 * 1e-8)),
}
ALL_IDENTITIES = tuple(IDENTITIES)


def skip_reason(name: str, scenario: Scenario) -> Optional[str]:
    """Why the identity does not apply to this scenario, or None."""
    for requirement in IDENTITIES[name].requires:
        holds, reason = REQUIREMENTS[requirement]
        if not holds(scenario):
            return reason
    return None


def _settle(agg, check: Callable, geo: LocalGeometry, idx: int):
    """Fold ``check(geo, idx)``, the reading at the rows of the point context
    ``geo``, whose first row has sample index ``idx``, into the aggregate
    ``agg``.  A sample error re-runs the check on each row as a 1-row
    batch, and at one row is that row's error."""
    try:
        reading = check(geo, idx)
    except SAMPLE_ERRORS as err:
        if len(geo.p) == 1:
            return agg.error(geo.p[0], err)
        for i, row in enumerate(geo.rows):
            _settle(agg, check, row, idx + i)
    else:
        agg.fold(geo.p, *reading)


def run_identity(name: str, run: RunContext, geo: LocalGeometry, idx: int,
                 agg: IdentityAggregate):
    """Fold one identity's reading at the rows of the point context ``geo``,
    whose first row has sample index ``idx``, into ``agg`` (``_settle``)."""
    check = IDENTITIES[name].check
    _settle(agg, lambda geo, idx: check(run, geo, idx), geo, idx)


def _flag_tallies(scenario: Scenario):
    """One empty tally per measured flag; PHH is measured only on a PHWC
    scenario."""
    return {flag: IdentityAggregate(flag) for flag in PROPERTIES
            if flag != "phh" or scenario.expected_flags.get("phwc")}


def _flag_entries(scenario: Scenario, tallies, tol):
    """The report's flag section: per flag, the expected value, the worst
    defect over the measured points (None where there is none), the
    errored points and whether the expectation is confirmed: never where a
    point errored."""
    out = {}
    for flag in PROPERTIES:
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
    """Re-measure the scenario's expected flags, the ``PROPERTIES`` under g,
    at the point contexts ``geos`` (the map's ``LocalGeometry`` over a batch
    of points), into new ``tallies`` or, chunk by chunk in a run, into the
    run's (settled by ``_settle``), and return the report's flag section
    over every point folded so far."""
    tallies = _flag_tallies(scenario) if tallies is None else tallies
    for geo in geos:
        for flag, tally in tallies.items():
            reading = PROPERTIES[flag].reading
            _settle(tally, lambda row, _: reading(row), geo, 0)
    return _flag_entries(scenario, tallies, tol)


def run_verification(config: RunConfig):
    """Execute a full verification run; returns the report dictionary."""
    config.validate()
    scenario = scenarios.get_scenario(config.scenario)
    gbar = config.build_change(scenario)
    points = sample_points(scenario, config.samples, config.seed)

    run = RunContext(scenario, config, gbar)
    totals, skipped = [], []
    for name in config.identities or ALL_IDENTITIES:
        reason = skip_reason(name, scenario)
        if reason is None:
            totals.append(IdentityAggregate(name))
        else:
            skipped.append({"name": name, "reason": reason})
    flag_tallies = _flag_tallies(scenario)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(points), CHUNK):
            geo = LocalGeometry(scenario.phi, points[start:start + CHUNK])
            for agg in totals:
                run_identity(agg.name, run, geo, start, agg)
            flags = confirm_flags(scenario, [geo], config.tol_fd,
                                  flag_tallies)

    per_identity = [agg.as_dict() for agg in totals]
    flags_confirmed = all(v["confirmed"] is not False for v in flags.values())
    identities_ok = all(entry["passed"] for entry in per_identity)
    return {
        "schema_version": 4,
        "scenario": scenario.name,
        "config": dict({key: value for key, value in asdict(config).items()
                        if key != "scenario"},
                       identities=list(config.identities or ALL_IDENTITIES)),
        "per_identity": per_identity,
        "skipped_identities": skipped,
        "flags": flags,
        "flags_confirmed": flags_confirmed,
        "warnings": [],  # no run warns; kept in schema 4
        "verdict": "pass" if (identities_ok and flags_confirmed) else "fail",
    }
