"""Smooth maps between charted manifolds: differentials, vertical/horizontal
splitting, tension field and fiber mean curvature.

``SmoothMap.jets`` is memoized per point in a bounded ``PointMemo`` keyed on
the exact float64 bytes of the point; its jets are checked for non-finite
components once, when first computed, and their arrays are read-only.

``local_geometry(phi, p, metric)`` holds phi's local data at p under a metric,
memoized per (phi, point) on the metric (``MetricField.geometry_memo``, at
most ``POINT_MEMO_SIZE`` points).  Each field is computed on its first read,
kept read-only, and never kept when its computation fails:

- here: phi(p), dphi and its derivatives (once per point, from the map's
  jets), the rank check, g^-1, Gamma, P_H and the lift, their derivatives,
  the horizontal factor R with R^T R = P_H g^-1 P_H^T (``hermitian`` takes
  its horizontal traces over R's rows), ``tension_field`` and
  ``mean_curvature_vertical``;
- per J, from ``hermitian``: J and dJ at phi(p), F and dF (in the geometry
  that computes the lift), ``phwc_defect``, ``phwc_metric_defect`` and
  ``f_divergence_horizontal``;
- under a ``biconformal.ChangedMetric``: sigma and rho as jets, and the
  g-gradients of their logarithms.

The public functions of the same names read these fields; ``ortho_split``
is built on each call.  The derivatives are exact: with M = A g^-1 A^T, the
lift L = g^-1 A^T M^-1 and P_H = L A are differentiated through d_k A (the
map's Hessian), d_k g and d(M^-1) = -M^-1 dM M^-1, so no check evaluates
the map away from its sample point.  The fiber mean curvature needs no frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import jets
from .jets import Jet2
from .manifold import (ChartedRiemannianManifold, GeometryError, MetricField,
                       PointMemo, TangentVector, read_only)

RANK_TOL = 1e-8


class RankError(GeometryError):
    pass


class FrameError(GeometryError):
    pass


class SmoothMap:
    """Map phi: M^m -> N^2n given by jet-evaluable component functions."""

    def __init__(self, source: ChartedRiemannianManifold,
                 target: ChartedRiemannianManifold, components):
        if target.dim % 2 != 0:
            raise ValueError("target dimension must be even")
        self.source = source
        self.target = target
        self.components = components  # callable(coords) -> sequence of 2n
        self._jet_memo = PointMemo()

    @property
    def m(self) -> int:
        return self.source.dim

    @property
    def two_n(self) -> int:
        return self.target.dim

    @property
    def n(self) -> int:
        return self.target.dim // 2

    def value(self, p) -> np.ndarray:
        """phi(p) in target chart components (read-only)."""
        return local_geometry(self, p).map_jets[0]

    def jets(self, p):
        """Jets of the 2n components at p (memoized; arrays read-only)."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        cached = self._jet_memo.get(key)
        if cached is None:
            out = self.components(jets.seed_coordinates(p))
            cached = tuple(
                x if isinstance(x, Jet2) else Jet2.constant(float(x), self.m)
                for x in out)
            for x in cached:
                read_only(x.check())
            self._jet_memo.put(key, cached)
        return list(cached)


def differential(phi: SmoothMap, p) -> np.ndarray:
    """Matrix A[a, i] = d_i phi^a at p (shape 2n x m, read-only)."""
    return local_geometry(phi, p).map_jets[1]


class LocalGeometry:
    """phi's local data at p on ``src``, its source with one metric (the
    fields are listed in the module docstring).  Fields are read-only; a
    failed computation is not kept, so it fails every read."""

    def __init__(self, phi: SmoothMap, metric: MetricField, p: np.ndarray):
        self.phi, self.p, self._fields = phi, read_only(p.copy()), {}
        self.src = phi.source.with_metric(metric)

    def field(self, key, compute):
        """Further data under a key, made by ``compute`` on the first read
        (the fields of other modules, such as F keyed on ("F", J))."""
        value = self._fields.get(key)
        if value is None:
            value = self._fields[key] = read_only(compute())
        return value

    @cached_property
    def ginv(self) -> np.ndarray:
        return self.src.inverse_metric_at(self.p)

    @cached_property
    def christoffel(self) -> np.ndarray:
        return self.src.christoffel(self.p)

    @cached_property
    def map_jets(self):
        """(phi(p), A, dA) from the map's jets at a point of the chart
        domain, with A[a, i] = d_i phi^a and dA[k, a, i] = d_k A[a, i] =
        d_i d_k phi^a; kept in the source metric's geometry."""
        source = local_geometry(self.phi, self.p)
        if source is not self:
            return source.map_jets
        self.phi.source.check_in_domain(self.p)
        out = self.phi.jets(self.p)
        return read_only((np.array([j.value for j in out]),
                          np.array([j.grad for j in out]),
                          np.transpose(np.array([j.hess for j in out]),
                                       (2, 0, 1))))

    @cached_property
    def _differential(self):
        """dphi and its smallest singular value."""
        a = self.map_jets[1]
        return a, np.linalg.svd(a, compute_uv=False)[-1]

    @cached_property
    def horizontal(self) -> "LocalGeometry":
        """The geometry that computes H and the lift: the source metric's,
        when this metric is a change of it that keeps H."""
        if self.src.metric.keeps_horizontal_of is self.phi:
            return local_geometry(self.phi, self.p)
        return self

    @cached_property
    def _lift_factors(self):
        """A, g^-1 A^T and M^-1 = (A g^-1 A^T)^-1."""
        a = check_submersion(self.phi, self.p)
        adjoint = self.ginv @ a.T
        return a, adjoint, np.linalg.inv(a @ adjoint)

    @cached_property
    def projector_and_lift(self):
        """(P_H, lift): the lift is L = g^-1 A^T M^-1, and P_H = L A."""
        if self.horizontal is not self:
            return self.horizontal.projector_and_lift
        a, adjoint, minv = self._lift_factors
        lift = adjoint @ minv
        return read_only(lift @ a), read_only(lift)

    @cached_property
    def projector_and_lift_derivs(self):
        """(dP_H, dL) with dP_H[k] = d_k P_H and dL[k] = d_k L:

        dL = (d(g^-1) A^T + g^-1 dA^T - L dM) M^-1,  dP_H = dL A + L dA,
        dM = dA g^-1 A^T + A (d(g^-1) A^T + g^-1 dA^T)."""
        if self.horizontal is not self:
            return self.horizontal.projector_and_lift_derivs
        a, adjoint, minv = self._lift_factors
        lift, da = self.projector_and_lift[1], self.map_jets[2]
        dg = self.src.metric_and_derivs_at(self.p)[1]
        dginv = -np.einsum("ij,kjl,lm->kim", self.ginv, dg, self.ginv)
        d_adjoint = dginv @ a.T + self.ginv @ np.transpose(da, (0, 2, 1))
        d_gram = da @ adjoint + a @ d_adjoint
        d_lift = (d_adjoint - lift @ d_gram) @ minv
        return read_only(d_lift @ a + lift @ da), read_only(d_lift)

    @cached_property
    def horizontal_factor(self) -> np.ndarray:
        """R = K^T A g^-1 (2n x m) with K K^T = M^-1 (Cholesky), so that
        R^T R = g^-1 A^T M^-1 A g^-1 = P_H g^-1 P_H^T and R g R^T = I: its
        rows are a g-orthonormal basis of H, found without Gram-Schmidt."""
        _, adjoint, minv = self._lift_factors
        return read_only(np.linalg.cholesky(minv).T @ adjoint.T)

    def ortho_split(self) -> "OrthoSplit":
        """Orthonormal frames of ker dphi and of its complement H under this
        metric, built on each call: Gram-Schmidt of the columns of P_V and
        P_H in index order."""
        m, two_n = self.phi.m, self.phi.two_n
        g = self.src.metric_at(self.p)
        ph = self.projector_and_lift[0]
        pv = np.eye(m) - ph
        v_frame = (_gram_schmidt(pv.T, g, m - two_n) if m > two_n
                   else np.zeros((0, m)))
        return OrthoSplit(v_frame, _gram_schmidt(ph.T, g, two_n))

    @cached_property
    def tension_field(self) -> TangentVector:
        """Trace of the second fundamental form, in target chart components:

        tau^a = g^{ij} (d_i d_j phi^a - Gamma^k_ij(M) d_k phi^a
                        + Gamma^a_bc(N) d_i phi^b d_j phi^c)
        """
        q, a, da = self.map_jets
        ginv = self.ginv
        gamma_n = self.phi.target.christoffel(q)
        tau = (np.einsum("ij,iaj->a", ginv, da)
               - np.einsum("ij,kij,ak->a", ginv, self.christoffel, a)
               + np.einsum("ij,abc,bi,cj->a", ginv, gamma_n, a, a))
        return read_only(TangentVector(q, tau))

    @cached_property
    def mean_curvature_vertical(self) -> TangentVector:
        """Normalized mean curvature of the fibers:

        mu^V = (1 / (m - 2n)) sum_alpha H(nabla_{e_alpha} e_alpha)

        over a g-orthonormal vertical frame.  With the frame extended as
        vertical fields, H(e^i d_i e) = -P_H e^i (d_i P_H) e, and
        sum_alpha e_alpha e_alpha^T = T = P_V g^-1 P_V^T, so

        mu^V = (1 / (m - 2n)) P_H [-T^{ib} d_i (P_H)^k_b + Gamma^k_ij T^{ij}],

        free of any frame choice."""
        m, two_n = self.phi.m, self.phi.two_n
        if m <= two_n:
            raise GeometryError("no fibers: source dimension %d <= target "
                                "dimension %d" % (m, two_n))
        ph = self.projector_and_lift[0]
        dph = self.projector_and_lift_derivs[0]
        pv = np.eye(m) - ph
        t = pv @ self.ginv @ pv.T
        total = (np.einsum("kij,ij->k", self.christoffel, t)
                 - np.einsum("ib,ikb->k", t, dph))
        return read_only(TangentVector(self.p, ph @ total / (m - two_n)))


def local_geometry(phi: SmoothMap, p,
                   metric: Optional[MetricField] = None) -> LocalGeometry:
    """phi's LocalGeometry at p under ``metric`` (default: the source's)."""
    metric = phi.source.metric if metric is None else metric
    p = np.asarray(p, dtype=float)
    key = (phi, p.shape, p.tobytes())  # a wrong shape fails in every field
    geo = metric.geometry_memo.get(key)
    if geo is None:
        geo = LocalGeometry(phi, metric, p)
        metric.geometry_memo.put(key, geo)
    return geo


def check_submersion(phi: SmoothMap, p, rank_tol: float = RANK_TOL):
    """The differential at p, checked to have full rank 2n (read-only)."""
    a, smallest = local_geometry(phi, p)._differential
    if smallest <= rank_tol:
        raise RankError("map is not a submersion at %s: smallest singular "
                        "value %g" % (np.asarray(p).tolist(), smallest))
    return a


def horizontal_projector(phi: SmoothMap, p,
                         metric: Optional[MetricField] = None) -> np.ndarray:
    """g-orthogonal projection onto H = (ker dphi)^perp, in chart basis.

    Closed form P_H = g^{-1} A^T (A g^{-1} A^T)^{-1} A; smooth in p and free
    of any frame choice.
    """
    return local_geometry(phi, p, metric).projector_and_lift[0]


def horizontal_lift(phi: SmoothMap, p,
                    metric: Optional[MetricField] = None) -> np.ndarray:
    """Matrix (m x 2n) sending w in T_phi(p)N to the unique horizontal X with
    dphi(X) = w.  Independent of the metric's vertical scaling (H is fixed by
    the biconformal construction), so callers may pass either g or a changed
    metric."""
    return local_geometry(phi, p, metric).projector_and_lift[1]


@dataclass(frozen=True)
class OrthoSplit:
    vertical_frame: np.ndarray    # (m - 2n, m), rows g-orthonormal, in ker dphi
    horizontal_frame: np.ndarray  # (2n, m), rows g-orthonormal, g-orthogonal to V


def _gram_schmidt(seeds, g, count):
    """Deterministic g-orthonormalization of seed vectors, greedy in index
    order; a seed that is too short, or too close to the span of the
    vectors already kept, is passed over."""
    basis = []
    for v in seeds:
        norm2 = v @ g @ v
        if norm2 <= 1e-16:
            continue
        v = v / np.sqrt(norm2)  # relative residual threshold below
        for b in basis:
            v = v - (b @ g @ v) * b
        res2 = v @ g @ v
        if res2 <= 0.3 ** 2:
            continue
        basis.append(v / np.sqrt(res2))
        if len(basis) == count:
            break
    if len(basis) < count:
        raise FrameError("could not assemble %d frame vectors (got %d)"
                         % (count, len(basis)))
    return np.array(basis)


def ortho_split(phi: SmoothMap, p,
                metric: Optional[MetricField] = None) -> OrthoSplit:
    """Split T_pM into the vertical distribution ker dphi and its g-orthogonal
    complement, with orthonormal frames for both (built on each call)."""
    return local_geometry(phi, p, metric).ortho_split()


def tension_field(phi: SmoothMap, p,
                  metric: Optional[MetricField] = None) -> TangentVector:
    """Trace of the second fundamental form, in target chart components
    (``LocalGeometry``)."""
    return local_geometry(phi, p, metric).tension_field


def mean_curvature_vertical(phi: SmoothMap, p,
                            metric: Optional[MetricField] = None
                            ) -> TangentVector:
    """Normalized mean curvature of the fibers (``LocalGeometry``)."""
    return local_geometry(phi, p, metric).mean_curvature_vertical
