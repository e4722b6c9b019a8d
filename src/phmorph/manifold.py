"""Charted Riemannian manifolds and the Levi-Civita machinery.

A metric is a "metric field": something that can produce the component matrix
g_ij at a chart point and its first coordinate derivatives, exactly.
``JetMetric`` wraps a jet-evaluable component function, whose derivatives
come from the second-order AD path; the biconformal change of a map's source
metric (``biconformal.ChangedMetric``) differentiates its projector algebra in
closed form.  ``FDMetric``, ``richardson_partial`` and
``directional_derivative`` (Richardson-extrapolated central differences) are
oracles for the tests; no verification run calls them.  They, and
``inverse_metric_at`` and ``christoffel``, stay in this module until the
benchmark's tracer (``perfbench/tracer.py``) stops naming them.

Nothing here keeps per-point data: ``metric_at`` (with its domain,
finiteness, symmetry and positive-definiteness checks), ``inverse_metric_at``
and ``christoffel`` compute on each call.  What a run reads at a point is
kept once, read-only, in the ``maps.LocalGeometry`` that the runner builds
for a chunk of points and drops after it.  ``jet_matrix_and_derivs`` is a
boundary where non-finite jets are caught (see ``jets``).  Every function
takes a point (shape (m,)) or a batch of points (shape (B, m)); a check
fails if it fails at some row, and names the first such row.  A vector is a
plain array of its components, on the last axis.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .jets import Jet2, first


class GeometryError(ValueError):
    """Geometric precondition failure (domain, rank, positivity, frames)."""


class DomainError(GeometryError):
    pass


class MetricError(GeometryError):
    pass


def each_array(fn, value):
    """``value`` with ``fn`` applied to every array it holds: itself, or in a
    tuple or a Jet2."""
    if isinstance(value, np.ndarray):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(each_array(fn, item) for item in value)
    if isinstance(value, Jet2):
        return Jet2(fn(value.value), fn(value.grad), fn(value.hess),
                    _check=False)
    return value


def read_only(value):
    """Make every array that ``value`` holds read-only; returns the value."""
    def lock(array):
        array.flags.writeable = False
        return array

    each_array(lock, value)
    return value


# Contractions as numpy's @, one BLAS call per matrix of a batch, which
# gives each row the bits it gets at one point


def matvec(a, v):
    return (a @ v[..., None])[..., 0]


def dot(x, y):
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def quad(x, g, y):
    return (x[..., None, :] @ g @ y[..., :, None])[..., 0, 0]


def per_k(a):  # against a stack of matrices over a derivative index k
    return a[..., None, :, :]


def contract(t, s):  # t[..., k, i, j] s[..., i, j], summed over i and j
    return matvec(t.reshape(t.shape[:-2] + (-1,)),
                  s.reshape(s.shape[:-2] + (-1,)))


def act_first(a, t):  # a[..., p, i] t[..., i, k, j], summed over i
    out = a @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


def outer(x, y):
    return x[..., :, None] * y[..., None, :]


class MetricField:
    """Interface: dim, matrix(p, source), matrix_and_derivs(p, source).

    ``source`` is phi's ``maps.LocalGeometry`` at p under phi's source
    metric, handed on by phi's geometries under other metrics: a metric
    defined through phi (a biconformal change of its source metric) reads
    phi's per-point data there.  Other metrics ignore it."""

    # The map whose horizontal distribution this metric shares with the map's
    # source metric (a biconformal change of it), or None.  That map's
    # projectors and lift are then read from the source metric's geometry.
    keeps_horizontal_of = None

    def __init__(self, dim: int):
        self.dim = dim

    def matrix(self, p, source=None) -> np.ndarray:
        raise NotImplementedError

    def matrix_and_derivs(self, p, source=None):
        """Return (g, dg) with dg[..., k, i, j] = d_k g_ij."""
        raise NotImplementedError


def jet_matrix(fn, p) -> np.ndarray:
    """Values at p of a square matrix field whose entries ``fn`` evaluates
    on coordinate arrays or Jet2 coordinates."""
    p = np.asarray(p, dtype=float)
    # one point is a batch of one row, so that numpy computes an entry
    # (``x ** 2`` as x*x, say) as it does over a batch
    q = np.atleast_2d(p)
    mat = _stack(fn(list(q.T)), q.shape[:-1], None)
    return mat.reshape(p.shape[:-1] + mat.shape[-2:])


def jet_matrix_and_derivs(fn, p):
    """(M, dM) at p of such a field, one row and column per chart
    coordinate: dM[..., k, i, j] = d_k M_ij, exact by AD."""
    p = np.asarray(p, dtype=float)
    return _stack(fn(jets.seed_coordinates(p)), p.shape[:-1], p.shape[-1])


def _stack(rows, shape, dim):  # the entries, and their checked gradients
    d = len(rows)
    mat = np.empty(shape + (d, d))
    dmat = None if dim is None else np.zeros(shape + (dim, d, d))
    for i in range(d):
        for j in range(d):
            entry = rows[i][j]
            if isinstance(entry, Jet2):
                entry.check()
                mat[..., i, j] = entry.value
                dmat[..., :, i, j] = entry.grad
            else:
                mat[..., i, j] = entry
    return mat if dim is None else (mat, dmat)


class JetMetric(MetricField):
    def __init__(self, dim: int, component_fn):
        # component_fn(coords) -> (dim, dim) nested sequence, works on
        # floats or Jet2 coordinates
        super().__init__(dim)
        self.fn = component_fn

    def matrix(self, p, source=None):
        return jet_matrix(self.fn, p)

    def matrix_and_derivs(self, p, source=None):
        return jet_matrix_and_derivs(self.fn, p)


class FDMetric(MetricField):
    """Value-level matrix function with Richardson-extrapolated central
    difference derivatives; a test oracle for the exact metrics."""

    def __init__(self, dim: int, matrix_fn, step: float = 1e-4):
        super().__init__(dim)
        self.fn = matrix_fn
        self.step = step

    def matrix(self, p, source=None):
        return np.asarray(self.fn(np.asarray(p, dtype=float)), dtype=float)

    def matrix_and_derivs(self, p, source=None):
        p = np.asarray(p, dtype=float)
        m = self.dim
        g = self.matrix(p)
        dg = np.empty((m, m, m))
        for k in range(m):
            dg[k] = richardson_partial(self.fn, p, k, self.step)
        return g, dg


def richardson_partial(fn, p, k, step):
    """Central difference d_k fn(p) at steps h and h/2, Richardson-combined."""
    return directional_derivative(fn, p, np.eye(len(p))[k], step)


def directional_derivative(field, p, direction, step=1e-4):
    """Richardson central difference of a vector field along a direction."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(direction, dtype=float)

    def central(h):
        return (np.asarray(field(p + h * v), dtype=float)
                - np.asarray(field(p - h * v), dtype=float)) / (2.0 * h)

    d1 = central(step)
    d2 = central(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


class ChartedRiemannianManifold:
    def __init__(self, dim: int, metric: MetricField, domain_predicate=None,
                 sample_region=None, name: str = ""):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if metric.dim != dim:
            raise ValueError("metric dimension mismatch")
        self.dim = dim
        self.metric = metric
        self.domain_predicate = domain_predicate or (lambda p: True)
        if sample_region is None:
            sample_region = (-np.ones(dim), np.ones(dim))
        self.sample_region = (np.asarray(sample_region[0], dtype=float),
                              np.asarray(sample_region[1], dtype=float))
        self.name = name

    def with_metric(self, metric: MetricField) -> "ChartedRiemannianManifold":
        return ChartedRiemannianManifold(self.dim, metric,
                                         self.domain_predicate,
                                         self.sample_region, self.name)

    def check_in_domain(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise DomainError("point dimension %s != chart dimension %d"
                              % (p.shape, self.dim))
        bad = np.array([not self.domain_predicate(q) for q in
                        p.reshape(-1, self.dim)]).reshape(p.shape[:-1])
        if np.count_nonzero(bad):
            raise DomainError("point %s outside chart domain"
                              % (first(p, bad).tolist(),))
        return p

    def metric_at(self, p, source=None):
        """The metric matrix at p, checked to be finite, symmetric and
        positive definite (computed on each call; ``source`` as in
        ``MetricField``)."""
        q = self.check_in_domain(p)
        g = np.array(self.metric.matrix(q, source), dtype=float)
        bad = ~np.isfinite(g).all(axis=(-2, -1))
        if np.count_nonzero(bad):
            raise MetricError("metric not finite at %s"
                              % (first(q, bad).tolist(),))
        bad = np.max(np.abs(g - g.mT), axis=(-2, -1)) > 1e-12
        if np.count_nonzero(bad):
            raise MetricError("metric matrix not symmetric at %s"
                              % (first(q, bad).tolist(),))
        w = np.linalg.eigvalsh(0.5 * (g + g.mT))[..., 0]
        bad = w <= 1e-12
        if np.count_nonzero(bad):
            raise MetricError("metric not positive definite at %s "
                              "(min eigenvalue %g)"
                              % (first(q, bad).tolist(), first(w, bad)))
        return g

    def inverse_metric_at(self, p):
        """Inverse metric matrix at p (computed on each call)."""
        return inverse_metric(self.metric_at(p), p)

    def christoffel(self, p):
        """Levi-Civita coefficients Gamma[..., k, i, j] = Gamma^k_ij at p
        (computed on each call, after ``metric_at`` validates g there)."""
        self.metric_at(p)
        return levi_civita(*self.metric.matrix_and_derivs(p))


def inverse_metric(g, p):
    """g^-1 of a validated metric matrix g at p, checked for accuracy."""
    ginv = np.linalg.inv(g)
    bad = np.abs(g @ ginv - np.eye(g.shape[-1])).max(axis=(-2, -1)) > 1e-10
    if np.count_nonzero(bad):
        raise MetricError("metric inversion inaccurate at %s"
                          % first(p, bad).tolist())
    return ginv


def levi_civita(g, dg):
    """Gamma[..., k, i, j] = Gamma^k_ij from (g, dg) with dg[..., k, i, j] =
    d_k g_ij, inverting this g (``matrix_and_derivs``' own, not
    ``metric_at``'s)."""
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    # dg[k, i, j] = d_k g_ij; bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    moved = np.moveaxis(dg, -1, -3)  # moved[l, i, j] = d_i g_jl
    return 0.5 * act_first(np.linalg.inv(g), moved + moved.mT - dg)


def euclidean_metric(dim: int) -> JetMetric:
    eye = np.eye(dim)

    def fn(coords):
        return [[eye[i, j] for j in range(dim)] for i in range(dim)]

    return JetMetric(dim, fn)


def euclidean_space(dim: int) -> ChartedRiemannianManifold:
    """Flat R^dim, sampled in the box [-1, 1]^dim."""
    return ChartedRiemannianManifold(dim, euclidean_metric(dim))
