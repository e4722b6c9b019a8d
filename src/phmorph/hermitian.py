"""Almost complex structures on the target, the f-structure on the domain,
PHWC/PHH defect measures and the horizontal divergence of the f-structure.

What a check reads at a point is kept, read-only and keyed on J, in the
``maps.LocalGeometry`` of (map, metric, point), and computed once there:

- J and dJ at phi(p) come from one jet evaluation per (J, point), kept in
  the source metric's geometry, and F, dF and ``phwc_defect`` read them;
- F = L J(phi) A and its exact derivative dF depend on the metric only
  through the horizontal lift L, so they are kept in the geometry that
  computes the lift (``LocalGeometry.horizontal``), which g and a
  biconformal change of it share;
- ``phwc_defect``, ``phwc_metric_defect`` and ``f_divergence_horizontal``
  are kept in the geometry of their own metric.

The horizontal quantities (``f_divergence_horizontal``, ``phh_defect``,
``phwc_metric_defect``) read a frame {f_a} of H only through
sum_a f_a f_a^T = P_H g^-1 P_H^T, so they contract over the rows of
``LocalGeometry.horizontal_factor``, whose R^T R is that matrix, and no
check builds a frame; ``adapted_frame`` builds {e_i, F e_i} on each call.
It and both traces raise ``FrameError`` on every call where PHWC fails."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .manifold import (ChartedRiemannianManifold, MetricField, TangentVector,
                       jet_matrix_and_derivs)
from .maps import (FrameError, SmoothMap, check_submersion, differential,
                   local_geometry, mean_curvature_vertical)

PHWC_TOL = 1e-6


class AlmostComplexStructureField:
    """Matrix field J on the target chart with J^2 = -I, compatible with h."""

    def __init__(self, target: ChartedRiemannianManifold, component_fn):
        self.target = target
        self.fn = component_fn  # callable(coords) -> (2n, 2n) nested sequence

    def matrix_and_derivs(self, q):
        """(J, dJ) at q with dJ[c, a, b] = d_c J^a_b, exact by AD."""
        return jet_matrix_and_derivs(self.fn, q)


def j_at_image(phi: SmoothMap, J: AlmostComplexStructureField, p):
    """(J, dJ) at phi(p), kept per J in the source metric's geometry."""
    geo = local_geometry(phi, p)
    return geo.field(("J", J), lambda: J.matrix_and_derivs(geo.map_jets[0]))


def f_structure(phi: SmoothMap, J: AlmostComplexStructureField, p,
                metric: Optional[MetricField] = None) -> np.ndarray:
    """The f-structure on the domain, in chart basis: the horizontal lift of
    J composed with dphi.  Kills the vertical distribution, acts as the
    induced complex structure on the horizontal one, and is smooth in p
    (no frame choice involved)."""
    geo = local_geometry(phi, p, metric).horizontal
    return geo.field(("F", J), lambda: (
        geo.projector_and_lift[1] @ j_at_image(phi, J, geo.p)[0]
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
        jq = j_at_image(phi, J, geo.p)[0]
        comm = op @ jq - jq @ op
        return float(np.linalg.norm(comm)), float(np.linalg.norm(op))

    return geo.field(("phwc_defect", J), compute)


def phwc_metric_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
                       metric: Optional[MetricField] = None):
    """Frobenius norm of R (F^T g F - g) R^T, g(F X, F Y) - g(X, Y) over the
    rows of the horizontal factor R; the same over every orthonormal frame
    of H, whose vectors are unit: the natural scale is 1."""
    geo = local_geometry(phi, p, metric)

    def compute():
        g = geo.src.metric_at(geo.p)
        r = geo.horizontal_factor
        fr = r @ f_structure(phi, J, geo.p, metric).T  # row a: F r_a
        return float(np.linalg.norm(fr @ g @ fr.T - r @ g @ r.T)), 1.0

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


def _require_phwc(geo, J):
    """Raise ``FrameError`` where phi is not PHWC at the point of ``geo``:
    the pairs {e, F e} of an adapted frame, and the horizontal traces of
    nabla F, are only meaningful where F is metric compatible on H."""
    md, _ = phwc_metric_defect(geo.phi, J, geo.p, geo.src.metric)
    if md > PHWC_TOL:
        raise FrameError("the PHWC condition fails: metric compatibility "
                         "defect %g > %g at %s" % (md, PHWC_TOL,
                                                   geo.p.tolist()))


def adapted_frame(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None,
                  seed_order=None) -> AdaptedFrame:
    """An adapted orthonormal frame, built on each call: Gram-Schmidt of the
    horizontal frame of ``ortho_split`` (in ``seed_order``, if given) into
    pairs {e_i, F e_i}.  Requires metric compatibility of the induced
    horizontal structure (the PHWC condition), which is what makes the
    {e, F e} pairs orthonormal."""
    geo = local_geometry(phi, p, metric)
    _require_phwc(geo, J)
    g = geo.src.metric_at(geo.p)
    split = geo.ortho_split()
    f = f_structure(phi, J, geo.p, metric)
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
        if len(e_vecs) == phi.n:
            break
    if len(e_vecs) < phi.n:
        raise FrameError("could not assemble %d adapted pairs" % phi.n)
    return AdaptedFrame(np.array(e_vecs), np.array(fe_vecs),
                        split.vertical_frame)


def d_f_structure(phi: SmoothMap, J: AlmostComplexStructureField, p,
                  metric: Optional[MetricField] = None) -> np.ndarray:
    """Coordinate derivatives dF[i, k, j] = d_i F^k_j of the f-structure
    F = L J A, exact:

    d_i F = d_i L J A + L (d_c J A^c_i) A + L J d_i A."""
    geo = local_geometry(phi, p, metric).horizontal

    def compute():
        a, da = check_submersion(phi, geo.p), geo.map_jets[2]
        lift = geo.projector_and_lift[1]
        d_lift = geo.projector_and_lift_derivs[1]
        jq, dj = j_at_image(phi, J, geo.p)
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


def _nabla_f(geo, J) -> np.ndarray:
    """nabla F at the point of ``geo``, on the PHWC condition."""
    _require_phwc(geo, J)
    phi, p, metric = geo.phi, geo.p, geo.src.metric
    return nabla_f_operator(f_structure(phi, J, p, metric),
                            d_f_structure(phi, J, p, metric),
                            geo.christoffel)


def f_divergence_horizontal(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric: Optional[MetricField] = None
                            ) -> TangentVector:
    """F applied to the horizontal trace of nabla F:

    F sum_a (nabla_{f_a} F)(f_a)

    over an orthonormal frame {f_a} of the horizontal distribution (an
    adapted frame {e_i, F e_i} is one; here the horizontal factor's rows);
    horizontal for PHWC maps and zero for PHH ones.  Kept per J."""
    geo = local_geometry(phi, p, metric)

    def compute():
        r = geo.horizontal_factor
        total = np.einsum("ai,ikj,aj->k", r, _nabla_f(geo, J), r)
        return TangentVector(geo.p, f_structure(phi, J, geo.p, metric) @ total)

    return geo.field(("f_divergence", J), compute)


def phh_defect(phi: SmoothMap, J: AlmostComplexStructureField, p,
               metric: Optional[MetricField] = None):
    """Size of the horizontal part of (nabla_X F)Y over horizontal X, Y.

    The Frobenius norm over an orthonormal frame {f_a} of the horizontal
    distribution (the horizontal factor's rows),
    sqrt(sum_ab |H((nabla_{f_a} F) f_b)|^2), which does not depend on the
    frame (the max over frame pairs would); zero exactly when the map is
    PHH.  The scale is the same norm without H, at least 1."""
    geo = local_geometry(phi, p, metric)
    r = geo.horizontal_factor
    g = geo.src.metric_at(geo.p)
    pairs = np.einsum("ai,ikj,bj->abk", r, _nabla_f(geo, J), r)
    horizontal = pairs @ geo.projector_and_lift[0].T
    total = np.einsum("abk,kl,abl->", horizontal, g, horizontal)
    scale = np.einsum("abk,kl,abl->", pairs, g, pairs)
    return float(np.sqrt(total)), max(float(np.sqrt(scale)), 1.0)


def tension_via_f_structure(phi: SmoothMap, J: AlmostComplexStructureField,
                            p, metric: Optional[MetricField] = None
                            ) -> TangentVector:
    """Tension field through the f-structure route:

    tau = -dphi( F div_H F + (m - 2n) mu^V )

    Only meaningful for PHWC maps (``f_divergence_horizontal`` requires
    it)."""
    p = np.asarray(p, dtype=float)
    div = f_divergence_horizontal(phi, J, p, metric)
    total = div.components.copy()
    if phi.m > phi.two_n:
        mu = mean_curvature_vertical(phi, p, metric)
        total += (phi.m - phi.two_n) * mu.components
    a = differential(phi, p)
    return TangentVector(phi.value(p), -(a @ total))
