"""Charted Riemannian manifolds and the Levi-Civita machinery.

A metric is a "metric field" (``MetricField``): something that produces the
component matrix g_ij at a chart point and its first coordinate derivatives,
exactly, in one evaluation (``matrix_and_derivs(p)``; the value is the jet's
zeroth order).  ``JetMetric`` wraps a jet-evaluable component function,
whose derivatives come from the second-order AD path.  ``FDMetric``,
``richardson_partial`` and ``directional_derivative`` (Richardson-
extrapolated central differences) are oracles for the tests; no
verification run calls them.  They, and ``inverse_metric_at`` and
``christoffel``, stay in this module until the benchmark's tracer
(``perfbench/tracer.py``) stops naming them.

Nothing here keeps per-point data: ``metric_at``, the one validated
evaluation of a manifold's metric (the chart domain, then ``check_metric``:
g finite, symmetric and positive definite), and its readers
``inverse_metric_at`` and ``christoffel`` compute on each call
(``check_metric`` also validates g-bar, ``biconformal.ChangedMetric``, which
reads a map's geometry).  What a run reads at a point is kept once,
read-only, in the ``maps.LocalGeometry`` that the runner builds for a chunk
of points and drops after it.  ``jet_matrix_and_derivs`` is a boundary where
non-finite jets are caught (see ``jets``).  Every function takes a point
(shape (m,)) or a batch of points (shape (B, m)); a check fails if it fails
at some row, and names the first such row.  A vector is a plain array of its
components, on the last axis.
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
    """Interface: dim, matrix_and_derivs(p)."""

    def __init__(self, dim: int):
        self.dim = dim

    def matrix_and_derivs(self, p):
        """Return (g, dg) with dg[..., k, i, j] = d_k g_ij."""
        raise NotImplementedError


def jet_matrix_and_derivs(fn, p):
    """(M, dM) at p of a square matrix field whose entries ``fn`` evaluates
    on Jet2 coordinates, one row and column per chart coordinate:
    dM[..., k, i, j] = d_k M_ij, exact by AD; each jet entry is checked."""
    p = np.asarray(p, dtype=float)
    rows = fn(jets.seed_coordinates(p))
    d = len(rows)
    mat = np.empty(p.shape[:-1] + (d, d))
    dmat = np.zeros(p.shape[:-1] + (p.shape[-1], d, d))
    for i in range(d):
        for j in range(d):
            entry = rows[i][j]
            if isinstance(entry, Jet2):
                entry.check()
                mat[..., i, j] = entry.value
                dmat[..., :, i, j] = entry.grad
            else:
                mat[..., i, j] = entry
    return mat, dmat


class JetMetric(MetricField):
    def __init__(self, dim: int, component_fn):
        # component_fn(coords) -> (dim, dim) nested sequence of Jet2 entries
        # or constants, on Jet2 coordinates
        super().__init__(dim)
        self.fn = component_fn

    def matrix_and_derivs(self, p):
        return jet_matrix_and_derivs(self.fn, p)


class FDMetric(MetricField):
    """Value-level matrix function with Richardson-extrapolated central
    difference derivatives; a test oracle for the exact metrics."""

    def __init__(self, dim: int, matrix_fn, step: float = 1e-4):
        super().__init__(dim)
        self.fn = matrix_fn
        self.step = step

    def matrix(self, p):
        # a copy: a geometry keeps g read-only, not the function's own array
        return np.array(self.fn(np.asarray(p, dtype=float)), dtype=float)

    def matrix_and_derivs(self, p):
        p = np.asarray(p, dtype=float)
        m = self.dim
        g = self.matrix(p)
        dg = np.full((m, m, m), np.nan)  # inf - inf is undefined, and
        if np.isfinite(g).all():  # metric_at rejects a non-finite g
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
        self.domain_predicate = domain_predicate or (
            lambda p: np.ones(p.shape[:-1], dtype=bool))
        if sample_region is None:
            sample_region = (-np.ones(dim), np.ones(dim))
        self.sample_region = (np.asarray(sample_region[0], dtype=float),
                              np.asarray(sample_region[1], dtype=float))
        self.name = name

    def check_in_domain(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise DomainError("point dimension %s != chart dimension %d"
                              % (p.shape, self.dim))
        bad = np.logical_not(self.domain_predicate(p))
        if np.count_nonzero(bad):
            raise DomainError("point %s outside chart domain"
                              % (first(p, bad).tolist(),))
        return p

    def metric_at(self, p):
        """(g, dg) at p from one ``matrix_and_derivs``, in the chart domain
        and checked by ``check_metric`` (computed on each call)."""
        q = self.check_in_domain(p)
        return check_metric(*self.metric.matrix_and_derivs(q), q)

    def inverse_metric_at(self, p):
        """Inverse metric matrix at p, checked (computed on each call)."""
        g = self.metric_at(p)[0]
        return inverse_metric(g, np.linalg.inv(g), p)

    def christoffel(self, p):
        """Levi-Civita coefficients Gamma[..., k, i, j] = Gamma^k_ij at p
        (computed on each call)."""
        g, dg = self.metric_at(p)
        return levi_civita(np.linalg.inv(g), dg)


def check_metric(g, dg, q):
    """(g, dg) at the points q, with g checked to be finite, symmetric and
    positive definite."""
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
    return g, dg


def inverse_metric(g, ginv, p):
    """g^-1 = ``ginv`` of a validated metric matrix g at p, checked."""
    bad = np.abs(g @ ginv - np.eye(g.shape[-1])).max(axis=(-2, -1)) > 1e-10
    if np.count_nonzero(bad):
        raise MetricError("metric inversion inaccurate at %s"
                          % first(p, bad).tolist())
    return ginv


def levi_civita(ginv, dg):
    """Gamma[..., k, i, j] = Gamma^k_ij from g^-1 and dg[..., k, i, j] =
    d_k g_ij."""
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    # dg[k, i, j] = d_k g_ij; bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    moved = np.moveaxis(dg, -1, -3)  # moved[l, i, j] = d_i g_jl
    return 0.5 * act_first(ginv, moved + moved.mT - dg)


def euclidean_metric(dim: int) -> JetMetric:
    eye = np.eye(dim)

    def fn(coords):
        return [[eye[i, j] for j in range(dim)] for i in range(dim)]

    return JetMetric(dim, fn)


def euclidean_space(dim: int) -> ChartedRiemannianManifold:
    """Flat R^dim, sampled in the box [-1, 1]^dim."""
    return ChartedRiemannianManifold(dim, euclidean_metric(dim))
