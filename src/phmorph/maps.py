"""Smooth maps between charted manifolds: differentials, vertical/horizontal
splitting, tension field and fiber mean curvature.

A ``LocalGeometry`` is the point context: everything a check reads about phi
at a point p, or at each row of a batch of points (shape (B, m)), under one
metric, each row computed as at one point (batched ``inv`` and ``cholesky``,
a passing run's only LAPACK routines, since each is paged in where called, and
every contraction one BLAS ``@`` per matrix, as in ``manifold.contract``).
``LocalGeometry(phi, p)`` is the geometry under phi's source metric g, its
own ``source``; ``geo.under(change)`` the one under a
``biconformal.ChangedMetric`` g-bar, whose fields the source keeps, on
(change, name): no geometry refers to those built from it, so reference
counting frees them with the source, which the runner drops after each
chunk of sample points.  ``rows`` gives a batch's rows as 1-row batches, on
which a check that fails on the batch is re-run.  Each field is computed on
its first read, kept read-only, and never kept when it fails:

- per metric: (g, dg) from one ``metric_at``, which validates g (under a
  change, ``check_metric`` of g-bar's); g^-1, inverted once, which ``ginv``
  checks for accuracy and Gamma reads unchecked; Gamma (read by
  ``covariant_derivative``) and its trace Gamma^k_ij g^ij (read by
  ``laplacian`` and ``tension_field``), the horizontal factor R with
  R^T R = P_H g^-1 P_H^T (``hermitian`` takes its horizontal traces over
  R's rows), ``tension_field`` and ``mean_curvature_vertical`` (component
  arrays, as every vector here);
- once, in the source, as no change alters them (``_kept_in_source``): the
  map's jets, phi(p), dphi and its derivatives, the rank check, the
  target's (h, dh) from one ``metric_at``, Gamma and (J, dJ) at phi(p), and
  P_H, the lift and their derivatives (g-bar keeps phi's horizontal space);
- from ``hermitian``, on phi's J: F and dF (in the source), ``phwc_defect``,
  ``phwc_metric_defect`` and ``f_divergence_horizontal``;
- per ``ChangedMetric``, in the source: sigma and rho as jets, and the
  g-gradients of their logarithms.

The public functions of the same names take a geometry and read these
fields.  ``ortho_split`` (built on each call, at one point) and the
``horizontal_lift`` wrapper serve only the tests; they stay here until the
benchmark's tracer (``perfbench/tracer.py``) stops naming them.  The
derivatives are exact: with M = A g^-1 A^T, the lift L = g^-1 A^T M^-1 and
P_H = L A are differentiated through d_k A (the map's Hessian), d_k g and
d(M^-1) = -M^-1 dM M^-1, so no check evaluates the map away from its sample
point.  The fiber mean curvature needs no frame.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import jets
from .jets import Jet2, reject
from .manifold import (ChartedRiemannianManifold, GeometryError,
                       certified_above, check_metric, contract, dot,
                       each_array, inverse_metric, levi_civita, matvec,
                       outer, per_k, read_only, sum_terms)

RANK_TOL = 1e-8


class RankError(GeometryError):
    pass


class FrameError(GeometryError):
    pass


class SmoothMap:
    """Map phi: M^m -> (N^2n, h, J) given by jet-evaluable component
    functions; it carries J, its target's almost complex structure."""

    def __init__(self, source: ChartedRiemannianManifold,
                 target: ChartedRiemannianManifold, components, J):
        if target.dim % 2 != 0:
            raise ValueError("target dimension must be even")
        if J.target.dim != target.dim:
            raise ValueError("J acts on dimension %d, the target has "
                             "dimension %d" % (J.target.dim, target.dim))
        self.source = source
        self.target = target
        self.components = components  # callable(coords) -> sequence of 2n
        self.J = J

    @property
    def m(self) -> int:
        return self.source.dim

    @property
    def two_n(self) -> int:
        return self.target.dim

    @property
    def n(self) -> int:
        return self.target.dim // 2

    def jets(self, p):
        """Jets of the 2n components at p, each checked for non-finite
        components (computed on each call)."""
        p = np.asarray(p, dtype=float)
        out = self.components(jets.seed_coordinates(p))
        return [jets.lift(x, self.m, p.shape[:-1]) for x in out]


def hessian(jet: Jet2) -> np.ndarray:
    """The Hessian of a jet that a reader takes second derivatives of,
    which a first-order jet does not carry."""
    if jet.hess is None:
        raise ValueError("a second derivative read from a first-order jet, "
                         "which carries no Hessian")
    return jet.hess


def differential(geo: LocalGeometry) -> np.ndarray:
    """Matrix A[..., a, i] = d_i phi^a at the point (read-only)."""
    return geo.map_jets[1]


def _kept(compute):
    """A ``LocalGeometry`` field, kept by ``field`` under its name."""
    return property(lambda geo: geo.field(compute.__name__, compute, geo),
                    doc=compute.__doc__)


def _kept_in_source(compute):
    """A ``LocalGeometry`` field that no change alters, kept in ``source``."""
    return property(lambda geo: geo.source.field(compute.__name__, compute,
                                                 geo.source),
                    doc=compute.__doc__)


class LocalGeometry:
    """phi's local data at p (or a batch) under phi's source metric g, or
    under a ``biconformal.ChangedMetric`` of it (the fields are listed in
    the module docstring).  Fields are read-only; a failed computation is
    not kept, so it fails every read."""

    def __init__(self, phi: SmoothMap, p, change=None,
                 source: Optional["LocalGeometry"] = None):
        """The geometry under g, or (from ``under``) the one under
        ``change``, whose fields ``source`` keeps."""
        self.phi, self.change, self._source = phi, change, source
        self.p = read_only(np.array(p, dtype=float))
        self._fields = {} if source is None else source._fields

    @property
    def source(self) -> "LocalGeometry":
        """phi's geometry at p under g."""
        return self if self._source is None else self._source

    def under(self, change) -> "LocalGeometry":
        """phi's geometry at p under ``change``, a ``ChangedMetric`` of phi."""
        return LocalGeometry(self.phi, self.p, change, self.source)

    @property
    def rows(self):
        """The batch's rows as 1-row batches, each starting with the fields
        the batch has computed, at its row."""
        def build(i):
            row = LocalGeometry(self.phi, self.p[i:i + 1])
            row._fields.update(
                (key, each_array(lambda a: a[i:i + 1], value))
                for key, value in self._fields.items() if key[1] != "rows")
            return row

        return self.field("rows", lambda: tuple(map(build,
                                                    range(len(self.p)))))

    def field(self, key, compute, *args):
        """Further data under a key, made by ``compute(*args)`` on the first
        read and kept on (change, key) (such as F, keyed on "F")."""
        key = (self.change, key)
        value = self._fields.get(key)
        if value is None:
            value = self._fields[key] = read_only(compute(*args))
        return value

    @_kept
    def metric_and_derivs(self):
        """(g, dg) from one ``metric_at``, which validates g; under a change,
        (g-bar, d g-bar), which ``check_metric`` validates."""
        if self.change is None:
            return self.phi.source.metric_at(self.p)
        return check_metric(*self.change.matrix_and_derivs(self.source),
                            self.p)

    @property
    def g(self) -> np.ndarray:
        return self.metric_and_derivs[0]

    @_kept
    def _inverse(self) -> np.ndarray:
        """g^-1, unchecked: Gamma reads it, and ``ginv`` checks it."""
        return np.linalg.inv(self.g)

    @_kept
    def ginv(self) -> np.ndarray:
        return inverse_metric(self.g, self._inverse, self.p)

    @_kept
    def christoffel(self) -> np.ndarray:
        """Gamma[..., k, i, j] = Gamma^k_ij, from g^-1 and dg."""
        return levi_civita(self._inverse, self.metric_and_derivs[1])

    @_kept
    def christoffel_trace(self) -> np.ndarray:
        """Gamma^k_ij g^ij."""
        return contract(self.christoffel, self.ginv)

    @_kept_in_source
    def jets(self):
        """The map's jets at p, in the chart domain."""
        self.phi.source.check_in_domain(self.p)
        return tuple(self.phi.jets(self.p))

    @_kept_in_source
    def map_jets(self):
        """(phi(p), A, dA) from the map's jets, with A[..., a, i] = d_i phi^a
        and dA[..., k, a, i] = d_k A[a, i] = d_i d_k phi^a."""
        out = self.jets
        return (np.stack([j.value for j in out], axis=-1),
                np.stack([j.grad for j in out], axis=-2),
                np.moveaxis(np.stack([hessian(j) for j in out], axis=-3),
                            -1, -3))

    @_kept_in_source
    def target_metric_and_derivs(self):
        """(h, dh) at phi(p) from one ``metric_at``."""
        return self.phi.target.metric_at(self.map_jets[0])

    @property
    def h(self) -> np.ndarray:
        return self.target_metric_and_derivs[0]

    @_kept_in_source
    def target_christoffel(self) -> np.ndarray:
        """The target's Gamma at phi(p)."""
        h, dh = self.target_metric_and_derivs
        return levi_civita(np.linalg.inv(h), dh)

    @_kept_in_source
    def target_j_and_derivs(self):
        """(J, dJ) of phi's J at phi(p) from one jet evaluation."""
        return self.phi.J.matrix_and_derivs(self.map_jets[0])

    def covariant_derivative(self, x, y, dy_along_x) -> np.ndarray:
        """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at p, for a field
        Y with components y and derivative dy_along_x = X^i d_i Y there."""
        return (np.asarray(dy_along_x, dtype=float)
                + contract(self.christoffel, outer(x, y)))

    def laplacian(self, jet: Jet2):
        """g^ij (d_i d_j f - Gamma^k_ij d_k f) at p for the jet of f there,
        which is checked for non-finite components."""
        jet.check()
        return sum_terms({
            "g^ij d_i d_j f":
                contract(hessian(jet)[..., None, :, :], self.ginv)[..., 0],
            "Christoffel term": -dot(self.christoffel_trace, jet.grad)})

    @_kept_in_source
    def _certified_differential(self):
        """dphi and its least singular value, inf where ``certified_above``
        shows A A^T > ``RANK_TOL``^2 (weight m + 2n; svd's p < 7w assumed)."""
        a = self.map_jets[1]
        if np.abs(a).max() < 1e100 and certified_above(  # no overflow in A A^T
                a @ a.mT, RANK_TOL ** 2, sum(a.shape[-2:])):
            return a, np.full(a.shape[:-2], np.inf)
        return a, np.linalg.svd(a, compute_uv=False)[..., -1]

    @_kept
    def _lift_factors(self):
        """A, g^-1 A^T and M^-1 = (A g^-1 A^T)^-1."""
        a = check_submersion(self)
        adjoint = self.ginv @ a.mT
        return a, adjoint, np.linalg.inv(a @ adjoint)

    @_kept_in_source
    def projector_and_lift(self):
        """(P_H, lift): the lift is L = g^-1 A^T M^-1, and P_H = L A; a
        change keeps H, so they are g's."""
        a, adjoint, minv = self._lift_factors
        lift = adjoint @ minv
        return lift @ a, lift

    @_kept_in_source
    def projector_and_lift_derivs(self):
        """(dP_H, dL) with dP_H[..., k, :, :] = d_k P_H and dL[..., k, :, :]
        = d_k L:

        dL = (d(g^-1) A^T + g^-1 dA^T - L dM) M^-1,  dP_H = dL A + L dA,
        dM = dA g^-1 A^T + A (d(g^-1) A^T + g^-1 dA^T)."""
        a, adjoint, minv = self._lift_factors
        lift, da = self.projector_and_lift[1], self.map_jets[2]
        dg = self.metric_and_derivs[1]
        dginv = -(per_k(self.ginv) @ dg @ per_k(self.ginv))
        d_adjoint = dginv @ per_k(a.mT) + per_k(self.ginv) @ da.mT
        d_gram = da @ per_k(adjoint) + per_k(a) @ d_adjoint
        d_lift = (d_adjoint - per_k(lift) @ d_gram) @ per_k(minv)
        return d_lift @ per_k(a) + per_k(lift) @ da, d_lift

    @_kept
    def horizontal_factor(self) -> np.ndarray:
        """R = K^T A g^-1 (2n x m) with K K^T = M^-1 (Cholesky), so that
        R^T R = g^-1 A^T M^-1 A g^-1 = P_H g^-1 P_H^T and R g R^T = I: its
        rows are a g-orthonormal basis of H, found without Gram-Schmidt."""
        _, adjoint, minv = self._lift_factors
        return np.linalg.cholesky(minv).mT @ adjoint.mT

    @_kept
    def tension_field(self) -> np.ndarray:
        """Trace of the second fundamental form, in target chart components:

        tau^a = g^{ij} (d_i d_j phi^a - Gamma^k_ij(M) d_k phi^a
                        + Gamma^a_bc(N) d_i phi^b d_j phi^c)
        """
        _, a, da = self.map_jets
        ginv = self.ginv
        return (contract(da.swapaxes(-3, -2), ginv)
                - matvec(a, self.christoffel_trace)
                + contract(self.target_christoffel, a @ ginv @ a.mT))

    @_kept
    def mean_curvature_vertical(self) -> np.ndarray:
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
        t = pv @ self.ginv @ pv.mT
        total = contract(self.christoffel - dph.swapaxes(-3, -2), t)
        return matvec(ph, total) / (m - two_n)


def check_submersion(geo: LocalGeometry):
    """dphi at the point, checked to have full rank 2n: its least singular
    value above ``RANK_TOL``, by Cholesky, else by ``svd`` (read-only)."""
    a, smallest = geo._certified_differential
    reject(smallest <= RANK_TOL, RankError, "map is not a submersion at %s: "
           "smallest singular value %g", geo.p, smallest)
    return a


def horizontal_projector(geo: LocalGeometry) -> np.ndarray:
    """g-orthogonal projection onto H = (ker dphi)^perp, in chart basis.

    Closed form P_H = g^{-1} A^T (A g^{-1} A^T)^{-1} A; smooth in p and free
    of any frame choice.
    """
    return geo.projector_and_lift[0]


def horizontal_lift(geo: LocalGeometry) -> np.ndarray:
    """Matrix (m x 2n) sending w in T_phi(p)N to the unique horizontal X with
    dphi(X) = w.  Independent of the metric's vertical scaling (H is fixed by
    the biconformal construction), so the geometry under g or under a
    changed metric gives the same lift."""
    return geo.projector_and_lift[1]


class OrthoSplit(NamedTuple):
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


def ortho_split(geo: LocalGeometry) -> OrthoSplit:
    """Split T_pM into the vertical distribution ker dphi and its g-orthogonal
    complement, with orthonormal frames for both, built on each call:
    Gram-Schmidt of the columns of P_V and P_H in index order."""
    m, two_n = geo.phi.m, geo.phi.two_n
    g = geo.g
    ph = geo.projector_and_lift[0]
    pv = np.eye(m) - ph
    v_frame = (_gram_schmidt(pv.T, g, m - two_n) if m > two_n
               else np.zeros((0, m)))
    return OrthoSplit(v_frame, _gram_schmidt(ph.T, g, two_n))


def tension_field(geo: LocalGeometry) -> np.ndarray:
    """Trace of the second fundamental form, in target chart components
    (``LocalGeometry``)."""
    return geo.tension_field


def mean_curvature_vertical(geo: LocalGeometry) -> np.ndarray:
    """Normalized mean curvature of the fibers (``LocalGeometry``)."""
    return geo.mean_curvature_vertical
