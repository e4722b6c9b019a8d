"""Verification runs: sample points, drive every selected identity, and
assemble a deterministic machine-readable report.

A run is point-major: at each sample point, in sample order, every selected
identity runs and then the flag checks.  So the per-point memos of the map
jets and of the metric (``manifold.POINT_MEMO_SIZE`` points) serve all of
them before later points evict them.  The one-point results are folded in
point order, which gives the same report as one pass per identity over all
points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import exprs, scenarios
from .biconformal import (BiconformalChange, BiconformalContext,
                          HOLOMORPHIC_BUILTINS, IdentityAggregate, REL_FLOOR,
                          SAMPLE_ERRORS, check_corollary_phh,
                          check_corollary_psh, errored_report,
                          special_change, verify_f_divergence,
                          verify_koszul_h, verify_koszul_v,
                          verify_mean_curvature, verify_phh_covariant_formula,
                          verify_phwc_equivalence,
                          verify_pullback_characterization,
                          verify_tension_equivalence, verify_tension_transform)
from .hermitian import phh_defect, phwc_defect
from .maps import tension_field
from .scenarios import Scenario, sample_points

ALL_IDENTITIES = (
    "phwc-equivalence",
    "tension-f-structure",
    "tension-transform",
    "koszul-horizontal",
    "koszul-vertical",
    "mean-curvature",
    "f-divergence",
    "phh-covariant",
    "pullback",
    "corollary-psh",
    "corollary-phh",
)

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
    fd_step: float = 1e-4
    identities: Optional[List[str]] = None

    def validate(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tol_ad <= 0 or self.tol_fd <= 0 or self.fd_step <= 0:
            raise ValueError("tolerances and the FD step must be positive")
        if self.rho is not None and self.special_sigma is not None:
            raise ValueError("give at most one of rho and special-sigma")
        for name in self.identities or ():
            if name not in ALL_IDENTITIES:
                raise ValueError("unknown identity %r; available: %s"
                                 % (name, ", ".join(ALL_IDENTITIES)))

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


def _random_components(seed: int, sample_index: int, tag: int, dim: int,
                       count: int = 1):
    rng = np.random.default_rng([seed, sample_index, tag])
    draws = rng.standard_normal((count, dim))
    return draws[0] if count == 1 else draws


def run_identity(name: str, scenario: Scenario, change: BiconformalChange,
                 points, config: RunConfig, first_index: int = 0):
    """Run one identity over sampled points.

    ``first_index`` is the sample index of ``points[0]``; a point's random
    test vectors are drawn from its sample index.  Returns (aggregate,
    skip_reason); a non-empty skip reason means the identity does not apply
    to this scenario / change combination."""
    phi, J = scenario.phi, scenario.J
    flags = scenario.expected_flags
    m, two_n = phi.m, phi.two_n
    tol_fd, tol_ad = config.tol_fd, config.tol_ad
    has_fibers = m > two_n
    is_phwc = bool(flags.get("phwc"))

    needs_phwc = name in ("tension-f-structure", "tension-transform",
                          "koszul-horizontal", "koszul-vertical",
                          "mean-curvature", "f-divergence", "phh-covariant",
                          "corollary-psh", "corollary-phh", "pullback")
    if needs_phwc and not is_phwc:
        return None, "scenario is not PHWC"
    if name in ("koszul-vertical", "mean-curvature", "corollary-psh",
                "corollary-phh") and not has_fibers:
        return None, "scenario has no fibers (m = 2n)"
    if name == "pullback" and not flags.get("harmonic"):
        return None, "scenario is not harmonic"
    if name == "corollary-phh" and not flags.get("phh"):
        return None, "scenario is not PHH"

    if name == "corollary-psh":
        summary = check_corollary_psh(scenario, change.sigma, points,
                                      tol=tol_fd, fd_step=config.fd_step)
        return summary, ""
    if name == "corollary-phh":
        summary = check_corollary_phh(scenario, change.sigma, points,
                                      tol=10.0 * tol_ad,
                                      fd_step=config.fd_step)
        if summary.skipped:
            return None, "skipped: " + summary.warning
        return summary, ""

    agg = IdentityAggregate(name)
    ctx = None
    if name in ("tension-transform", "koszul-horizontal", "koszul-vertical",
                "mean-curvature", "f-divergence", "phh-covariant"):
        ctx = BiconformalContext.build(phi, J, change, config.fd_step)

    for idx, p in enumerate(points, first_index):
        try:
            if name == "phwc-equivalence":
                rep = verify_phwc_equivalence(phi, J, p, tol=tol_ad)
            elif name == "tension-f-structure":
                rep = verify_tension_equivalence(phi, J, p, tol=tol_fd,
                                                 fd_step=config.fd_step)
            elif name == "tension-transform":
                rep = verify_tension_transform(ctx, p, tol=tol_fd)
            elif name == "koszul-horizontal":
                xy = _random_components(config.seed, idx, 3, m, count=2)
                rep = verify_koszul_h(ctx, p, xy[0], xy[1], tol=tol_fd)
            elif name == "koszul-vertical":
                v = _random_components(config.seed, idx, 4, m)
                rep = verify_koszul_v(ctx, p, v, tol=tol_fd)
            elif name == "mean-curvature":
                rep = verify_mean_curvature(ctx, p, tol=tol_fd)
            elif name == "f-divergence":
                rep = verify_f_divergence(ctx, p, tol=tol_fd)
            elif name == "phh-covariant":
                xy = _random_components(config.seed, idx, 7, m, count=2)
                rep = verify_phh_covariant_formula(ctx, p, xy[0], xy[1],
                                                   tol=tol_fd)
            elif name == "pullback":
                reps = []
                names = [h for h in sorted(HOLOMORPHIC_BUILTINS)
                         if h != "z1*z2" or two_n >= 4][:3]
                for holo in names:
                    reps.append(verify_pullback_characterization(
                        phi, J, p, holo, tol=tol_fd))
                    if config.special_sigma is not None:
                        # the one-function change preserves the morphism
                        # property, so the pullbacks stay harmonic under it
                        if ctx is None:
                            ctx = BiconformalContext.build(
                                phi, J, change, config.fd_step)
                        reps.append(verify_pullback_characterization(
                            phi, J, p, holo, metric=ctx.gbar, tol=tol_fd))
                worst = max(reps, key=lambda r: r.rel_residual)
                rep = worst
            else:
                raise ValueError("unhandled identity %r" % name)
        except SAMPLE_ERRORS as err:
            agg.add(errored_report(name, p, err))
            continue
        agg.add(rep)
    return agg, ""


def confirm_flags(scenario: Scenario, points, tol: float = 1e-5,
                  fd_step: float = 1e-4):
    """Re-measure the scenario's expected PHWC / PHH / harmonicity flags."""
    phi, J = scenario.phi, scenario.J
    out = {}

    def measure(fn):
        worst = 0.0
        errors = 0
        for p in points:
            try:
                worst = max(worst, fn(p))
            except SAMPLE_ERRORS:
                errors += 1
        return worst, errors

    def relative(defect_and_scale):
        defect, scale = defect_and_scale
        return defect / (scale + REL_FLOOR)

    phwc_worst, phwc_err = measure(
        lambda p: relative(phwc_defect(phi, J, p)))
    out["phwc"] = _flag_entry(scenario.expected_flags.get("phwc"),
                              phwc_worst, phwc_err, tol)

    tau_worst, tau_err = measure(
        lambda p: float(np.max(np.abs(tension_field(phi, p).components)))
        / REL_FLOOR)
    out["harmonic"] = _flag_entry(scenario.expected_flags.get("harmonic"),
                                  tau_worst, tau_err, tol)

    expected_phh = scenario.expected_flags.get("phh")
    if scenario.expected_flags.get("phwc"):
        phh_worst, phh_err = measure(
            lambda p: relative(phh_defect(phi, J, p, fd_step=fd_step)))
        out["phh"] = _flag_entry(expected_phh, phh_worst, phh_err, tol)
    else:
        out["phh"] = {"expected": expected_phh, "measured_max_defect": None,
                      "samples_error": 0, "confirmed": None}
    return out


def _fold_flags(parts, tol):
    """Flag entries over all points from one-point ``confirm_flags`` results
    in point order."""
    out = {}
    for flag, first in parts[0].items():
        if first["measured_max_defect"] is None:
            out[flag] = first
            continue
        worst, errors = 0.0, 0
        for part in parts:
            worst = max(worst, part[flag]["measured_max_defect"])
            errors += part[flag]["samples_error"]
        out[flag] = _flag_entry(first["expected"], worst, errors, tol)
    return out


def _flag_entry(expected, worst, errors, tol):
    if expected is None:
        confirmed = None
    elif expected:
        confirmed = worst < tol
    else:
        confirmed = worst > 10.0 * tol
    return {"expected": expected, "measured_max_defect": worst,
            "samples_error": errors, "confirmed": confirmed}


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

    selected = list(config.identities) if config.identities else \
        list(ALL_IDENTITIES)
    # one slot per selected name: a one-point result is folded into its
    # aggregate, or the first skip reason ends that identity's run
    totals = [None] * len(selected)
    reasons = [None] * len(selected)
    flag_parts = []
    for idx, p in enumerate(points):
        for slot, name in enumerate(selected):
            if reasons[slot] is not None:
                continue
            part, reason = run_identity(name, scenario, change, [p], config,
                                        first_index=idx)
            if part is None:
                reasons[slot] = reason
            elif totals[slot] is None:
                totals[slot] = part
            else:
                totals[slot].merge(part)
        flag_parts.append(confirm_flags(scenario, [p], tol=config.tol_fd,
                                        fd_step=config.fd_step))

    per_identity = [agg.as_dict() for agg in totals if agg is not None]
    skipped = [{"name": name, "reason": reason}
               for name, reason in zip(selected, reasons) if reason is not None]
    flags = _fold_flags(flag_parts, config.tol_fd)
    return _assemble(config, scenario, per_identity, flags, skipped, warnings)


def _assemble(config, scenario, per_identity, flags, skipped, warnings,
              verdict=None):
    flags_confirmed = all(v.get("confirmed") is not False
                          for v in flags.values()) if flags else False
    identities_ok = all(entry["passed"] for entry in per_identity)
    if verdict is None:
        verdict = "pass" if (identities_ok and flags_confirmed) else "fail"
    return {
        "schema_version": 1,
        "scenario": scenario.name,
        "config": {
            "sigma": config.sigma,
            "rho": config.rho,
            "special_sigma": config.special_sigma,
            "samples": config.samples,
            "seed": config.seed,
            "tol_ad": config.tol_ad,
            "tol_fd": config.tol_fd,
            "fd_step": config.fd_step,
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
