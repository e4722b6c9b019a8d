"""Almost complex structures on the target, the induced horizontal structure,
the f-structure on the domain, PHWC/PHH defect measures and the horizontal
divergence of the f-structure.

What a check reads at a point is kept, read-only and keyed on J, in the
``maps.LocalGeometry`` of (map, metric, point), and computed once there:

- F = L J(phi) A and its exact derivative dF depend on the metric only
  through the horizontal lift L, so they are kept in the geometry that
  computes the lift (``LocalGeometry.horizontal``), which g and a
  biconformal change of it share;
- ``phwc_defect``, ``phwc_metric_defect``, the ``adapted_frame`` of the
  default seed order and ``f_divergence_horizontal`` over that frame are
  kept in the geometry of their own metric.

A frame of another seed order, or a homothety defect over a given frame, is
computed on each call.  ``adapted_frame`` raises ``FrameError`` on every call
at a point where the PHWC condition fails."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .manifold import (ChartedRiemannianManifold, GeometryError, MetricField,
                       TangentVector, jet_matrix, jet_matrix_and_derivs)
from .maps import (FrameError, OrthoSplit, SmoothMap, check_submersion,
                   differential, local_geometry, mean_curvature_vertical,
                   ortho_split)

PHWC_TOL = 1e-6


class AlmostComplexStructureField:
    """Matrix field J on the target chart with J^2 = -I, compatible with h."""

    def __init__(self, target: ChartedRiemannianManifold, component_fn):
        self.target = target
        self.fn = component_fn  # callable(coords) -> (2n, 2n) nested sequence

    def matrix(self, q) -> np.ndarray:
        return jet_matrix(self.fn, q)

    def matrix_and_derivs(self, q):
        return jet_matrix_and_derivs(self.fn, q)

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
    geo = local_geometry(phi, p, metric).horizontal
    return geo.field(("F", J), lambda: (
        geo.projector_and_lift[1] @ j_at_image(phi, J, geo.p)
        @ check_submersion(phi, geo.p)))


def phwc_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
                metric: Optional[MetricField] = None):
    """Frobenius norm of [dphi o dphi*, J] plus the scale used for a relative
    reading.  Defined for any map (no submersion requirement)."""
    geo = local_geometry(phi, p, metric)

    def compute():
        a = differential(phi, geo.p)
        h = phi.target.metric_at(phi.value(geo.p))
        op = a @ geo.ginv @ a.T @ h  # dphi o dphi^*
        jq = j_at_image(phi, J, geo.p)
        comm = op @ jq - jq @ op
        return float(np.linalg.norm(comm)), float(np.linalg.norm(op))

    return geo.field(("phwc_defect", J), compute)


def phwc_metric_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
                       metric: Optional[MetricField] = None):
    """max over horizontal frame pairs of |g(F X, F Y) - g(X, Y)|."""
    geo = local_geometry(phi, p, metric)

    def compute():
        g = geo.src.metric_at(geo.p)
        fr = geo.ortho_split.horizontal_frame  # rows orthonormal
        fx = fr @ f_structure(phi, J, geo.p, metric).T  # row a: F frame[a]
        defect = float(np.max(np.abs(fx @ g @ fx.T - fr @ g @ fr.T)))
        return defect, 1.0  # frame vectors are unit: the natural scale is 1

    return geo.field(("phwc_metric_defect", J), compute)


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame {e_1..e_n, F e_1..F e_n, e_{2n+1}..e_m}."""
    e: np.ndarray         # (n, m)
    fe: np.ndarray        # (n, m)
    vertical: np.ndarray  # (m - 2n, m)

    @property
    def horizontal(self) -> np.ndarray:
        """All 2n horizontal vectors in the order {e_i} then {F e_i}."""
        return np.vstack([self.e, self.fe])

    @property
    def full(self) -> np.ndarray:
        return np.vstack([self.e, self.fe, self.vertical])


def adapted_frame(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None,
                  seed_order=None) -> AdaptedFrame:
    """Build an adapted orthonormal frame.  Requires metric compatibility of
    the induced horizontal structure (the PHWC condition), which is what makes
    {e, F e} pairs orthonormal.  The frame of the default seed order is kept
    in the local geometry, per J."""
    geo = local_geometry(phi, p, metric)
    if seed_order is not None:
        return _adapted_frame(geo, J, seed_order)
    return geo.field(("adapted_frame", J),
                     lambda: _adapted_frame(geo, J, None))


def _adapted_frame(geo, J, seed_order) -> AdaptedFrame:
    """Gram-Schmidt of the horizontal frame of ``geo.ortho_split`` (in
    ``seed_order``, if given) into pairs {e_i, F e_i}."""
    phi, p, metric = geo.phi, geo.p, geo.src.metric
    md, _ = phwc_metric_defect(phi, J, p, metric)
    if md > PHWC_TOL:
        raise FrameError("adapted frame needs the PHWC condition; metric "
                         "compatibility defect %g > %g at %s"
                         % (md, PHWC_TOL, p.tolist()))
    g = geo.src.metric_at(p)
    split = geo.ortho_split
    f = f_structure(phi, J, p, metric)
    n = phi.n
    seeds = split.horizontal_frame if seed_order is None \
        else split.horizontal_frame[list(seed_order)]
    e_vecs, fe_vecs = [], []
    for seed in seeds:
        v = np.array(seed, dtype=float)
        for b in e_vecs + fe_vecs:
            v = v - (b @ g @ v) * b
        norm2 = v @ g @ v
        if norm2 <= 0.3 ** 2:
            continue
        e = v / np.sqrt(norm2)
        fe = f @ e
        fn2 = fe @ g @ fe
        if fn2 <= 1e-20:
            raise FrameError("F annihilated a horizontal frame vector")
        e_vecs.append(e)
        fe_vecs.append(fe / np.sqrt(fn2))
        if len(e_vecs) == n:
            break
    if len(e_vecs) < n:
        raise FrameError("could not assemble %d adapted pairs" % n)
    return AdaptedFrame(np.array(e_vecs), np.array(fe_vecs),
                        split.vertical_frame)


def d_f_structure(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None) -> np.ndarray:
    """Coordinate derivatives dF[i, k, j] = d_i F^k_j of the f-structure
    F = L J A, exact:

    d_i F = d_i L J A + L (d_c J A^c_i) A + L J d_i A."""
    geo = local_geometry(phi, p, metric).horizontal

    def compute():
        a, da = check_submersion(phi, geo.p), geo.differential_derivs
        lift = geo.projector_and_lift[1]
        d_lift = geo.projector_and_lift_derivs[1]
        jq, dj = J.matrix_and_derivs(phi.value(geo.p))
        dj_along = np.einsum("cab,ci->iab", dj, a)  # d_i of J at phi
        return d_lift @ (jq @ a) + lift @ dj_along @ a + (lift @ jq) @ da

    return geo.field(("dF", J), compute)


def nabla_f_operator(f: np.ndarray, df: np.ndarray,
                     gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of the f-structure as a (i, k, j) array:

    (nabla_i F)^k_j = d_i F^k_j + Gamma^k_il F^l_j - F^k_l Gamma^l_ij

    so that (nabla_X F)Y = X^i Y^j nabla[i, :, j]."""
    return (df + np.einsum("kil,lj->ikj", gamma, f)
            - np.einsum("kl,lij->ikj", f, gamma))


def f_divergence_horizontal(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric: Optional[MetricField] = None
                            ) -> TangentVector:
    """F applied to the horizontal trace of nabla F:

    F [ sum_i (nabla_{e_i} F)(e_i) + (nabla_{F e_i} F)(F e_i) ]

    The sum runs over the adapted pairs, i.e. over a full orthonormal frame
    of the horizontal distribution; horizontal for PHWC maps and zero for
    PHH ones.  The value over the default adapted frame is kept in the local
    geometry, per J."""
    geo = local_geometry(phi, p, metric)

    def compute():
        fr = adapted_frame(phi, J, geo.p, metric)
        f = f_structure(phi, J, geo.p, metric)
        df = d_f_structure(phi, J, geo.p, metric)
        nab = nabla_f_operator(f, df, geo.christoffel)
        total = np.zeros(phi.m)
        for x in fr.horizontal:
            total += np.einsum("i,ikj,j->k", x, nab, x)
        return TangentVector(geo.p, f @ total)

    return geo.field(("f_divergence", J), compute)


def phh_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
               metric: Optional[MetricField] = None,
               frame: Optional[AdaptedFrame] = None):
    """Size of the horizontal part of (nabla_X F)Y over horizontal X, Y.

    Contracted over an orthonormal horizontal frame in a Frobenius fashion,
    which makes the value independent of the frame choice (the max over frame
    pairs is not); zero exactly when the map is PHH."""
    p = np.asarray(p, dtype=float)
    if frame is None:
        frame = adapted_frame(phi, J, p, metric)
    geo = local_geometry(phi, p, metric)
    g = geo.src.metric_at(p)
    gamma = geo.christoffel
    ph = geo.projector_and_lift[0]
    f = f_structure(phi, J, p, metric)
    df = d_f_structure(phi, J, p, metric)
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
                            p, metric: Optional[MetricField] = None
                            ) -> TangentVector:
    """Tension field through the f-structure route:

    tau = -dphi( F div_H F + (m - 2n) mu^V )

    Only meaningful for PHWC maps (the adapted frame requires it)."""
    p = np.asarray(p, dtype=float)
    div = f_divergence_horizontal(phi, J, p, metric)
    total = div.components.copy()
    if phi.m > phi.two_n:
        mu = mean_curvature_vertical(phi, p, metric)
        total += (phi.m - phi.two_n) * mu.components
    a = differential(phi, p)
    return TangentVector(phi.value(p), -(a @ total))
