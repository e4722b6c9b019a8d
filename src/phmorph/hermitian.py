"""Almost complex structures on the target, the induced horizontal structure,
the f-structure on the domain, PHWC/PHH defect measures and the horizontal
divergence of the f-structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jets
from .jets import Jet2
from .manifold import (ChartedRiemannianManifold, GeometryError, MetricField,
                       TangentVector)
from .maps import (FrameError, OrthoSplit, SmoothMap, check_submersion,
                   differential, horizontal_lift, horizontal_projector,
                   mean_curvature_vertical, ortho_split)

PHWC_TOL = 1e-6


class AlmostComplexStructureField:
    """Matrix field J on the target chart with J^2 = -I, compatible with h."""

    def __init__(self, target: ChartedRiemannianManifold, component_fn):
        self.target = target
        self.fn = component_fn  # callable(coords) -> (2n, 2n) nested sequence

    def matrix(self, q) -> np.ndarray:
        rows = self.fn(np.asarray(q, dtype=float))
        return np.array([[float(x) for x in row] for row in rows])

    def matrix_and_derivs(self, q):
        d = self.target.dim
        coords = jets.seed_coordinates(np.asarray(q, dtype=float))
        rows = self.fn(coords)
        j = np.empty((d, d))
        dj = np.zeros((d, d, d))
        for a in range(d):
            for b in range(d):
                entry = rows[a][b]
                if isinstance(entry, Jet2):
                    entry.check()
                    j[a, b] = entry.value
                    dj[:, a, b] = entry.grad
                else:
                    j[a, b] = float(entry)
        return j, dj

    def validate_at(self, q, tol=1e-10):
        d = self.target.dim
        j = self.matrix(q)
        if np.max(np.abs(j @ j + np.eye(d))) > 1e-12:
            raise GeometryError("J^2 != -I at %s" % (np.asarray(q).tolist(),))
        h = self.target.metric_at(q)
        if np.max(np.abs(j.T @ h @ j - h)) > tol:
            raise GeometryError("J not compatible with target metric at %s"
                                % (np.asarray(q).tolist(),))

    def kahler_defect(self, q) -> float:
        """Frobenius norm of nabla^N J at q; ~0 for a Kaehler target."""
        j, dj = self.matrix_and_derivs(q)
        gamma = self.target.christoffel(q)
        # (nabla_c J)^a_b = d_c J^a_b + Gamma^a_cd J^d_b - J^a_d Gamma^d_cb
        nab = (dj + np.einsum("acd,db->cab", gamma, j)
               - np.einsum("ad,dcb->cab", j, gamma))
        return float(np.sqrt(np.sum(nab ** 2)))


def j_at_image(phi: SmoothMap, J: AlmostComplexStructureField, p):
    return J.matrix(phi.value(p))


def induced_JH(phi: SmoothMap, J: AlmostComplexStructureField, p,
               split: Optional[OrthoSplit] = None,
               metric: Optional[MetricField] = None) -> np.ndarray:
    """J_H in horizontal-frame coordinates: (A E_h)^{-1} J (A E_h)."""
    if split is None:
        split = ortho_split(phi, p, metric)
    a = differential(phi, p)
    eh = split.horizontal_frame.T  # (m, 2n)
    m_h = a @ eh
    if abs(np.linalg.det(m_h)) < 1e-12:
        raise GeometryError("dphi restricted to the horizontal space is "
                            "singular at %s" % (np.asarray(p).tolist(),))
    jq = j_at_image(phi, J, p)
    return np.linalg.solve(m_h, jq @ m_h)


def f_structure(phi: SmoothMap, J: AlmostComplexStructureField, p,
                metric: Optional[MetricField] = None) -> np.ndarray:
    """The f-structure on the domain, in chart basis: the horizontal lift of
    J composed with dphi.  Kills the vertical distribution, acts as the
    induced complex structure on the horizontal one, and is smooth in p
    (no frame choice involved)."""
    a = check_submersion(phi, p)
    lift = horizontal_lift(phi, p, metric)
    return lift @ j_at_image(phi, J, p) @ a


def phwc_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
                metric: Optional[MetricField] = None):
    """Frobenius norm of [dphi o dphi*, J] plus the scale used for a relative
    reading.  Defined for any map (no submersion requirement)."""
    a = differential(phi, p)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    ginv = src.inverse_metric_at(p)
    h = phi.target.metric_at(phi.value(p))
    op = a @ ginv @ a.T @ h  # dphi o dphi^*
    jq = j_at_image(phi, J, p)
    comm = op @ jq - jq @ op
    defect = float(np.linalg.norm(comm))
    scale = float(np.linalg.norm(op))
    return defect, scale


def phwc_metric_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
                       metric: Optional[MetricField] = None):
    """max over horizontal frame pairs of |g(F X, F Y) - g(X, Y)|."""
    src = phi.source if metric is None else phi.source.with_metric(metric)
    g = src.metric_at(p)
    split = ortho_split(phi, p, metric)
    f = f_structure(phi, J, p, metric)
    fr = split.horizontal_frame  # rows orthonormal
    fx = fr @ f.T  # row a = F applied to frame vector a
    defect = float(np.max(np.abs(fx @ g @ fx.T - fr @ g @ fr.T)))
    return defect, 1.0  # frame vectors are unit, so the natural scale is 1


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame {e_1..e_n, F e_1..F e_n, e_{2n+1}..e_m}."""
    point: np.ndarray
    e: np.ndarray         # (n, m)
    fe: np.ndarray        # (n, m)
    vertical: np.ndarray  # (m - 2n, m)
    pivots: tuple

    @property
    def horizontal(self) -> np.ndarray:
        """All 2n horizontal vectors in the order {e_i} then {F e_i}."""
        return np.vstack([self.e, self.fe])

    @property
    def full(self) -> np.ndarray:
        return np.vstack([self.e, self.fe, self.vertical])


def adapted_frame(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None,
                  pivots=None, phwc_tol: float = PHWC_TOL,
                  seed_order=None) -> AdaptedFrame:
    """Build an adapted orthonormal frame.  Requires metric compatibility of
    the induced horizontal structure (the PHWC condition), which is what makes
    {e, F e} pairs orthonormal."""
    p = np.asarray(p, dtype=float)
    md, _ = phwc_metric_defect(phi, J, p, metric)
    if md > phwc_tol:
        raise FrameError("adapted frame needs the PHWC condition; metric "
                         "compatibility defect %g > %g at %s"
                         % (md, phwc_tol, p.tolist()))
    src = phi.source if metric is None else phi.source.with_metric(metric)
    g = src.metric_at(p)
    split = ortho_split(phi, p, metric,
                        pivots=pivots[0] if pivots is not None else None)
    f = f_structure(phi, J, p, metric)
    n, m = phi.n, phi.m
    seeds = split.horizontal_frame if seed_order is None \
        else split.horizontal_frame[list(seed_order)]
    e_vecs, fe_vecs, used = [], [], []
    order = pivots[1] if pivots is not None else range(len(seeds))
    for idx in order:
        v = np.array(seeds[idx], dtype=float)
        for b in e_vecs + fe_vecs:
            v = v - (b @ g @ v) * b
        norm2 = v @ g @ v
        if pivots is None and norm2 <= 0.3 ** 2:
            continue
        if norm2 <= 1e-20:
            raise FrameError("adapted-frame Gram-Schmidt breakdown")
        e = v / np.sqrt(norm2)
        fe = f @ e
        fn2 = fe @ g @ fe
        if fn2 <= 1e-20:
            raise FrameError("F annihilated a horizontal frame vector")
        e_vecs.append(e)
        fe_vecs.append(fe / np.sqrt(fn2))
        used.append(idx)
        if len(e_vecs) == n:
            break
    if len(e_vecs) < n:
        raise FrameError("could not assemble %d adapted pairs" % n)
    return AdaptedFrame(p, np.array(e_vecs), np.array(fe_vecs),
                        split.vertical_frame,
                        ((split.vertical_pivots, split.horizontal_pivots),
                         tuple(used)))


def d_f_structure(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None,
                  step: float = 1e-4) -> np.ndarray:
    """Coordinate derivatives dF[i, k, j] = d_i F^k_j of the f-structure
    field, by Richardson-extrapolated central differences.  F itself is
    frame-free, so the differencing is robust."""
    p = np.asarray(p, dtype=float)
    m = phi.m
    df = np.empty((m, m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0

        def central(h):
            return (f_structure(phi, J, p + h * e, metric)
                    - f_structure(phi, J, p - h * e, metric)) / (2.0 * h)

        d1 = central(step)
        d2 = central(step / 2.0)
        df[i] = (4.0 * d2 - d1) / 3.0
    return df


def nabla_f_operator(f: np.ndarray, df: np.ndarray,
                     gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of the f-structure as a (i, k, j) array:

    (nabla_i F)^k_j = d_i F^k_j + Gamma^k_il F^l_j - F^k_l Gamma^l_ij

    so that (nabla_X F)Y = X^i Y^j nabla[i, :, j]."""
    return (df + np.einsum("kil,lj->ikj", gamma, f)
            - np.einsum("kl,lij->ikj", f, gamma))


def f_divergence_horizontal(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric: Optional[MetricField] = None,
                            frame: Optional[AdaptedFrame] = None,
                            fd_step: float = 1e-4) -> TangentVector:
    """F applied to the horizontal trace of nabla F:

    F [ sum_i (nabla_{e_i} F)(e_i) + (nabla_{F e_i} F)(F e_i) ]

    The sum runs over the adapted pairs, i.e. over a full orthonormal frame
    of the horizontal distribution; horizontal for PHWC maps and zero for
    PHH ones."""
    p = np.asarray(p, dtype=float)
    if frame is None:
        frame = adapted_frame(phi, J, p, metric)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    gamma = src.christoffel(p)
    f = f_structure(phi, J, p, metric)
    df = d_f_structure(phi, J, p, metric, fd_step)
    nab = nabla_f_operator(f, df, gamma)
    total = np.zeros(phi.m)
    for x in frame.horizontal:
        total += np.einsum("i,ikj,j->k", x, nab, x)
    return TangentVector(p, f @ total)


def phh_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
               metric: Optional[MetricField] = None,
               frame: Optional[AdaptedFrame] = None,
               fd_step: float = 1e-4):
    """Size of the horizontal part of (nabla_X F)Y over horizontal X, Y.

    Contracted over an orthonormal horizontal frame in a Frobenius fashion,
    which makes the value independent of the frame choice (the max over frame
    pairs is not); zero exactly when the map is PHH."""
    p = np.asarray(p, dtype=float)
    if frame is None:
        frame = adapted_frame(phi, J, p, metric)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    g = src.metric_at(p)
    gamma = src.christoffel(p)
    ph = horizontal_projector(phi, p, metric)
    f = f_structure(phi, J, p, metric)
    df = d_f_structure(phi, J, p, metric, fd_step)
    nab = nabla_f_operator(f, df, gamma)
    total = 0.0
    scale = 0.0
    for x in frame.horizontal:
        for y in frame.horizontal:
            v = ph @ np.einsum("i,ikj,j->k", x, nab, y)
            total += float(v @ g @ v)
            w = np.einsum("i,ikj,j->k", x, nab, y)
            scale += float(w @ g @ w)
    return float(np.sqrt(total)), max(float(np.sqrt(scale)), 1.0)


def tension_via_f_structure(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric: Optional[MetricField] = None,
                            fd_step: float = 1e-4,
                            phwc_tol: float = PHWC_TOL) -> TangentVector:
    """Tension field through the f-structure route:

    tau = -dphi( F div_H F + (m - 2n) mu^V )

    Only meaningful for PHWC maps (the adapted frame requires it)."""
    p = np.asarray(p, dtype=float)
    frame = adapted_frame(phi, J, p, metric, phwc_tol=phwc_tol)
    div = f_divergence_horizontal(phi, J, p, metric, frame, fd_step)
    total = div.components.copy()
    if phi.m > phi.two_n:
        mu = mean_curvature_vertical(phi, p, metric, fd_step)
        total += (phi.m - phi.two_n) * mu.components
    a = differential(phi, p)
    return TangentVector(phi.value(p), -(a @ total))
