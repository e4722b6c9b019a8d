"""Charted Riemannian manifolds and the Levi-Civita machinery.

A metric is a "metric field": something that can produce the component matrix
g_ij at a chart point and its first coordinate derivatives, exactly.
``JetMetric`` wraps a jet-evaluable component function, whose derivatives
come from the second-order AD path; the biconformal change of a map's source
metric (``biconformal.ChangedMetric``) differentiates its projector algebra in
closed form.  ``FDMetric``, ``richardson_partial`` and
``directional_derivative`` (Richardson-extrapolated central differences) are
kept as oracles for the tests; no verification run calls them.

g, g^-1, (g, dg) and the Christoffel symbols are memoized per point in a
bounded least-recently-used ``PointMemo`` on the ``MetricField``, which every
manifold ``with_metric`` builds on it shares.  The domain, finiteness,
symmetry, positive-definiteness and inversion checks run once per point; a
point that fails them is never stored, so it fails on every call.  Memoized
arrays are read-only.  ``field_jet`` and ``jet_matrix_and_derivs`` are
boundaries where non-finite jets are caught (see ``jets``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet2


class GeometryError(ValueError):
    """Geometric precondition failure (domain, rank, positivity, frames)."""


class DomainError(GeometryError):
    pass


class MetricError(GeometryError):
    pass


@dataclass(frozen=True)
class TangentVector:
    base: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "components",
                           np.asarray(self.components, dtype=float))
        if self.base.shape != self.components.shape:
            raise ValueError("tangent vector base/component length mismatch")


# Distinct points a PointMemo keeps.  The runner runs every check at a sample
# point before the next one, and no check reads another point, so each key is
# computed once per run.  The memory does not grow with the sample count.
POINT_MEMO_SIZE = 64


def read_only(value):
    """Make an array read-only, or every array held by a tuple, a Jet2 or a
    dataclass instance (such as a ``TangentVector``); returns the value."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            read_only(item)
    elif isinstance(value, Jet2):
        read_only(value.grad)
        read_only(value.hess)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            read_only(getattr(value, item.name))
    return value


class PointMemo:
    """Least-recently-used store of per-point results, holding at most
    ``POINT_MEMO_SIZE`` entries."""

    __slots__ = ("_store",)

    def __init__(self):
        self._store = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key):
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        return value

    def put(self, key, value):
        self._store[key] = value
        if len(self._store) > POINT_MEMO_SIZE:
            self._store.popitem(last=False)


class MetricField:
    """Interface: dim, matrix(p), matrix_and_derivs(p); per-point memos."""

    # The map whose horizontal distribution this metric shares with the map's
    # source metric (a biconformal change of it), or None.  That map's
    # projectors and lift are then read from the source metric's geometry.
    keeps_horizontal_of = None

    def __init__(self, dim: int):
        self.dim = dim
        self.point_memo, self.geometry_memo = PointMemo(), PointMemo()

    def matrix(self, p) -> np.ndarray:
        raise NotImplementedError

    def matrix_and_derivs(self, p):
        """Return (g, dg) with g shape (m, m) and dg[k, i, j] = d_k g_ij."""
        raise NotImplementedError


def jet_matrix(fn, p) -> np.ndarray:
    """Values at p of a square matrix field whose entries ``fn`` evaluates
    on floats or Jet2 coordinates."""
    rows = fn(np.asarray(p, dtype=float))
    return np.array([[float(x) for x in row] for row in rows])


def jet_matrix_and_derivs(fn, p):
    """(M, dM) at p of such a field, one row and column per chart
    coordinate: dM[k, i, j] = d_k M_ij, exact by AD."""
    coords = jets.seed_coordinates(np.asarray(p, dtype=float))
    d = len(coords)
    rows = fn(coords)
    mat = np.empty((d, d))
    dmat = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            entry = rows[i][j]
            if isinstance(entry, Jet2):
                entry.check()
                mat[i, j] = entry.value
                dmat[:, i, j] = entry.grad
            else:
                mat[i, j] = float(entry)
    return mat, dmat


class JetMetric(MetricField):
    def __init__(self, dim: int, component_fn):
        # component_fn(coords) -> (dim, dim) nested sequence, works on
        # floats or Jet2 coordinates
        super().__init__(dim)
        self.fn = component_fn

    def matrix(self, p):
        return jet_matrix(self.fn, p)

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
        return np.asarray(self.fn(np.asarray(p, dtype=float)), dtype=float)

    def matrix_and_derivs(self, p):
        p = np.asarray(p, dtype=float)
        m = self.dim
        g = self.matrix(p)
        dg = np.empty((m, m, m))
        for k in range(m):
            dg[k] = richardson_partial(self.fn, p, k, self.step)
        return g, dg


def richardson_partial(fn, p, k, step):
    """Central difference d_k fn(p) at steps h and h/2, Richardson-combined."""
    e = np.zeros_like(p)
    e[k] = 1.0
    return directional_derivative(fn, p, e, step)


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
        if p.shape != (self.dim,):
            raise DomainError("point dimension %s != chart dimension %d"
                              % (p.shape, self.dim))
        if not self.domain_predicate(p):
            raise DomainError("point %s outside chart domain" % (p.tolist(),))
        return p

    def _metric_entry(self, p):
        """Memo entry [g, g^-1, Gamma, (g, dg)] of a point, validating g on a
        miss.

        The key includes the domain predicate, since manifolds sharing a
        metric may have different domains."""
        q = np.asarray(p, dtype=float)
        memo = self.metric.point_memo
        key = (self.domain_predicate, q.shape, q.tobytes())
        entry = memo.get(key)
        if entry is None:
            q = self.check_in_domain(q)
            g = self.metric.matrix(q)
            if not np.all(np.isfinite(g)):
                raise MetricError("metric not finite at %s" % (q.tolist(),))
            if np.max(np.abs(g - g.T)) > 1e-12:
                raise MetricError("metric matrix not symmetric at %s"
                                  % (q.tolist(),))
            w = np.linalg.eigvalsh(0.5 * (g + g.T))
            if w[0] <= 1e-12:
                raise MetricError("metric not positive definite at %s "
                                  "(min eigenvalue %g)" % (q.tolist(), w[0]))
            entry = [read_only(np.array(g, dtype=float)), None, None, None]
            memo.put(key, entry)
        return entry

    def metric_at(self, p):
        """Validated metric matrix at p (memoized, read-only)."""
        return self._metric_entry(p)[0]

    def inverse_metric_at(self, p):
        """Inverse metric matrix at p (memoized, read-only)."""
        entry = self._metric_entry(p)
        if entry[1] is None:
            g = entry[0]
            ginv = np.linalg.inv(g)
            if np.max(np.abs(g @ ginv - np.eye(self.dim))) > 1e-10:
                raise MetricError("metric inversion inaccurate at %s" % (p,))
            entry[1] = read_only(ginv)
        return entry[1]

    def metric_and_derivs_at(self, p):
        """(g, dg) with dg[k, i, j] = d_k g_ij, from the metric's
        ``matrix_and_derivs`` at a validated point (memoized, read-only)."""
        entry = self._metric_entry(p)
        if entry[3] is None:
            g, dg = self.metric.matrix_and_derivs(np.asarray(p, dtype=float))
            entry[3] = (read_only(np.asarray(g, dtype=float)),
                        read_only(np.asarray(dg, dtype=float)))
        return entry[3]

    def christoffel(self, p):
        """Levi-Civita coefficients Gamma[k, i, j] = Gamma^k_ij (memoized,
        read-only), from matrix_and_derivs' own g, not ``metric_at``'s."""
        entry = self._metric_entry(p)
        if entry[2] is None:
            g, dg = self.metric_and_derivs_at(p)
            ginv = np.linalg.inv(g)
            # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
            # dg[k, i, j] = d_k g_ij; bracket[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
            bracket = (dg + np.transpose(dg, (1, 0, 2))
                       - np.transpose(dg, (1, 2, 0)))
            entry[2] = read_only(0.5 * np.einsum("kl,ijl->kij", ginv, bracket))
        return entry[2]

    def field_jet(self, f, p):
        """Evaluate a scalar field (Expr or jet-callable) as a Jet2 at p."""
        from . import exprs
        coords = jets.seed_coordinates(np.asarray(p, dtype=float))
        if isinstance(f, (exprs.Lit, exprs.Var, exprs.Unary, exprs.Binary,
                          exprs.Call)):
            out = exprs.eval_jet(f, coords)
        else:
            out = f(coords)
        if not isinstance(out, Jet2):
            out = Jet2.constant(float(out), self.dim)
        return out.check()

    def gradient(self, f, p) -> TangentVector:
        p = self.check_in_domain(p)
        df = self.field_jet(f, p).grad
        return TangentVector(p, self.inverse_metric_at(p) @ df)

    def covariant_derivative(self, X: TangentVector, y,
                             dy_along_x) -> TangentVector:
        """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at X.base, for a
        field Y with components ``y`` there and derivative ``dy_along_x`` =
        X^i d_i Y along X."""
        p = np.asarray(X.base, dtype=float)
        correction = np.einsum("kij,i,j->k", self.christoffel(p),
                               X.components, y)
        return TangentVector(p, np.asarray(dy_along_x, dtype=float)
                             + correction)

    def laplace_beltrami(self, f, p) -> float:
        p = self.check_in_domain(p)
        jet = self.field_jet(f, p)
        ginv = self.inverse_metric_at(p)
        gamma = self.christoffel(p)
        return float(np.einsum("ij,ij->", ginv, jet.hess)
                     - np.einsum("ij,kij,k->", ginv, gamma, jet.grad))


def euclidean_metric(dim: int) -> JetMetric:
    eye = np.eye(dim)

    def fn(coords):
        return [[eye[i, j] for j in range(dim)] for i in range(dim)]

    return JetMetric(dim, fn)


def euclidean_space(dim: int, box: float = 1.0) -> ChartedRiemannianManifold:
    return ChartedRiemannianManifold(
        dim, euclidean_metric(dim),
        sample_region=(-box * np.ones(dim), box * np.ones(dim)))
