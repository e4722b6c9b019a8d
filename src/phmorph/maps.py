"""Smooth maps between charted manifolds: differentials, adjoints,
vertical/horizontal splitting, tension field and fiber mean curvature.

``SmoothMap.jets`` is memoized per point in a bounded ``PointMemo`` keyed on
the exact float64 bytes of the point; its jets are checked for non-finite
components once, when first computed, and their arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import jets
from .jets import Jet2
from .manifold import (ChartedRiemannianManifold, GeometryError, MetricField,
                       PointMemo, TangentVector, directional_derivative,
                       read_only)

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
        out = self.components(np.asarray(p, dtype=float))
        return np.array([float(x) for x in out])

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
                x.check()
                read_only(x.grad)
                read_only(x.hess)
            self._jet_memo.put(key, cached)
        return list(cached)


def differential(phi: SmoothMap, p) -> np.ndarray:
    """Matrix A[a, i] = d_i phi^a at p (shape 2n x m)."""
    phi.source.check_in_domain(p)
    return np.array([j.grad for j in phi.jets(p)])


def second_derivatives(phi: SmoothMap, p) -> np.ndarray:
    """Array H[a, i, j] = d_i d_j phi^a (shape 2n x m x m)."""
    return np.array([j.hess for j in phi.jets(p)])


def adjoint_differential(phi: SmoothMap, p,
                         metric: Optional[MetricField] = None) -> np.ndarray:
    """Adjoint of the differential: g^{-1} A^T h  (shape m x 2n)."""
    a = differential(phi, p)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    ginv = src.inverse_metric_at(p)
    h = phi.target.metric_at(phi.value(p))
    return ginv @ a.T @ h


def check_submersion(phi: SmoothMap, p, rank_tol: float = RANK_TOL):
    a = differential(phi, p)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= rank_tol:
        raise RankError("map is not a submersion at %s: smallest singular "
                        "value %g" % (np.asarray(p).tolist(), sv[-1]))
    return a


def horizontal_projector(phi: SmoothMap, p,
                         metric: Optional[MetricField] = None) -> np.ndarray:
    """g-orthogonal projection onto H = (ker dphi)^perp, in chart basis.

    Closed form P_H = g^{-1} A^T (A g^{-1} A^T)^{-1} A; smooth in p and free
    of any frame choice.
    """
    a = check_submersion(phi, p)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    ginv = src.inverse_metric_at(p)
    gram = a @ ginv @ a.T
    return ginv @ a.T @ np.linalg.solve(gram, a)


def vertical_projector(phi: SmoothMap, p,
                       metric: Optional[MetricField] = None) -> np.ndarray:
    return np.eye(phi.m) - horizontal_projector(phi, p, metric)


def horizontal_lift(phi: SmoothMap, p,
                    metric: Optional[MetricField] = None) -> np.ndarray:
    """Matrix (m x 2n) sending w in T_phi(p)N to the unique horizontal X with
    dphi(X) = w.  Independent of the metric's vertical scaling (H is fixed by
    the biconformal construction), so callers may pass either g or a changed
    metric."""
    a = check_submersion(phi, p)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    ginv = src.inverse_metric_at(p)
    gram = a @ ginv @ a.T
    return ginv @ a.T @ np.linalg.inv(gram)


@dataclass(frozen=True)
class OrthoSplit:
    point: np.ndarray
    vertical_frame: np.ndarray    # (m - 2n, m), rows g-orthonormal, in ker dphi
    horizontal_frame: np.ndarray  # (2n, m), rows g-orthonormal, g-orthogonal to V
    vertical_pivots: tuple = field(default=())
    horizontal_pivots: tuple = field(default=())


def _gram_schmidt(seeds, g, count, pivots=None, drop_tol=0.3):
    """Deterministic g-orthonormalization of seed vectors, greedy in index
    order (or along explicitly supplied pivot indices for frame-field
    smoothness at displaced points)."""
    basis = []
    used = []
    order = pivots if pivots is not None else range(len(seeds))
    for idx in order:
        v = np.array(seeds[idx], dtype=float)
        norm2 = v @ g @ v
        if pivots is None and norm2 <= 1e-16:
            continue
        if norm2 <= 1e-20:
            raise FrameError("Gram-Schmidt breakdown on seed %d" % idx)
        v = v / np.sqrt(norm2)  # relative residual threshold below
        for b in basis:
            v = v - (b @ g @ v) * b
        res2 = v @ g @ v
        if pivots is None and res2 <= drop_tol ** 2:
            continue
        if res2 <= 1e-20:
            raise FrameError("Gram-Schmidt breakdown on seed %d" % idx)
        basis.append(v / np.sqrt(res2))
        used.append(idx)
        if len(basis) == count:
            break
    if len(basis) < count:
        raise FrameError("could not assemble %d frame vectors (got %d)"
                         % (count, len(basis)))
    return np.array(basis), tuple(used)


def ortho_split(phi: SmoothMap, p, metric: Optional[MetricField] = None,
                pivots=None) -> OrthoSplit:
    """Split T_pM into the vertical distribution ker dphi and its g-orthogonal
    complement, with orthonormal frames for both.

    Deterministic: seeds are the columns of the smooth projector matrices in
    index order.  Passing the pivot record of a nearby base point keeps the
    frames smooth along finite-difference probes.
    """
    p = np.asarray(p, dtype=float)
    m, two_n = phi.m, phi.two_n
    src = phi.source if metric is None else phi.source.with_metric(metric)
    g = src.metric_at(p)
    ph = horizontal_projector(phi, p, metric)
    pv = np.eye(m) - ph
    vp, hp = (pivots if pivots is not None else (None, None))
    v_frame, v_used = (_gram_schmidt(pv.T, g, m - two_n, vp)
                       if m > two_n else (np.zeros((0, m)), ()))
    h_frame, h_used = _gram_schmidt(ph.T, g, two_n, hp)
    return OrthoSplit(p, v_frame, h_frame, v_used, h_used)


def tension_field(phi: SmoothMap, p,
                  metric: Optional[MetricField] = None) -> TangentVector:
    """Trace of the second fundamental form, in target chart components:

    tau^a = g^{ij} (d_i d_j phi^a - Gamma^k_ij(M) d_k phi^a
                    + Gamma^a_bc(N) d_i phi^b d_j phi^c)
    """
    p = np.asarray(p, dtype=float)
    src = phi.source if metric is None else phi.source.with_metric(metric)
    ginv = src.inverse_metric_at(p)
    gamma_m = src.christoffel(p)
    q = phi.value(p)
    gamma_n = phi.target.christoffel(q)
    a = differential(phi, p)
    hess = second_derivatives(phi, p)
    tau = (np.einsum("ij,aij->a", ginv, hess)
           - np.einsum("ij,kij,ak->a", ginv, gamma_m, a)
           + np.einsum("ij,abc,bi,cj->a", ginv, gamma_n, a, a))
    return TangentVector(q, tau)


def mean_curvature_vertical(phi: SmoothMap, p,
                            metric: Optional[MetricField] = None,
                            fd_step: float = 1e-4) -> TangentVector:
    """Normalized mean curvature of the fibers:

    mu^V = (1 / (m - 2n)) sum_alpha H(nabla_{e_alpha} e_alpha)

    over a g-orthonormal vertical frame field (frames at displaced points
    reuse the base point's pivots so the field is smooth along each probe)."""
    p = np.asarray(p, dtype=float)
    m, two_n = phi.m, phi.two_n
    if m <= two_n:
        raise GeometryError("no fibers: source dimension %d <= target "
                            "dimension %d" % (m, two_n))
    src = phi.source if metric is None else phi.source.with_metric(metric)
    split = ortho_split(phi, p, metric)
    pivots = (split.vertical_pivots, split.horizontal_pivots)
    gamma = src.christoffel(p)
    ph = horizontal_projector(phi, p, metric)

    total = np.zeros(m)
    for alpha in range(m - two_n):
        e = split.vertical_frame[alpha]

        def frame_field(q, _alpha=alpha):
            return ortho_split(phi, q, metric, pivots).vertical_frame[_alpha]

        de = directional_derivative(frame_field, p, e, fd_step)
        nabla = de + np.einsum("kij,i,j->k", gamma, e, e)
        total += ph @ nabla
    return TangentVector(p, total / (m - two_n))
