"""Forward-mode jets: a value with its gradient, and with its Hessian where
something reads second derivatives.

Every scalar field in the engine is evaluated through this type so that
first derivatives (Christoffel symbols) and second derivatives (tension
fields, Laplacians) come out exact to machine precision.

A jet carries the orders that its readers take.  A second-order jet holds
(value, gradient, Hessian); a first-order jet holds (value, gradient), and
its ``hess`` is None.  Every law compares the Levi-Civita geometry of
g-bar = sigma^-2 g^H + rho^-2 g^V with a closed form, which reads first
derivatives of g, h, J, sigma and rho only, so
``manifold.jet_matrix_and_derivs`` (g, h and J) and
``ChangedMetric.factor_jets`` (sigma and rho) seed first-order coordinates.
Second derivatives are read from the map's jets alone (``SmoothMap.jets``,
by the tension field and, through ``HOLOMORPHIC_BUILTINS``, by the
pullbacks' Laplacians), which stay second order.  The result of an
operation has the lower order of its two operands, and a number operand
stays a number: ``c * x``, ``x + c``, ``c / x`` and ``x / c`` scale or
shift the jet's arrays, with the bits of the product with a constant jet
(``x / c`` is ``x * (1 / c)``).  Subtraction is negated addition: ``x - y``
is ``x + (-y)`` and ``y - x`` is ``-x + y``, which IEEE arithmetic rounds
as the difference, bit for bit.  A jet keeps its reciprocal after the first
division by it.

A jet's value has a batch shape, ``()`` for one point or ``(B,)`` for B
points, its gradient that shape + (d,) and its Hessian that shape + (d, d);
a constant made from a number has shape ``()`` and broadcasts.  Each row is
computed as at one point: the arithmetic and the chain rule's elementary
functions are numpy ufuncs over the whole batch, elementwise, so a row gives
the same bits in a batch of any length as alone.  A value is the
zeroth-order part of its jet: there is no separate evaluation on plain
numbers, and the elementary functions take jets only.

Where non-finite jets are caught: the public ``Jet2(...)`` constructor
checks shapes and every component.  The arithmetic in this module builds its
results with ``_check=False``, which checks only the value.  It follows
numpy's floating-point error state, in which ``runner.run_verification``
gives inf and NaN silently: IEEE arithmetic never turns a non-finite
gradient or Hessian entry finite again, so the full check runs once where a
jet leaves the arithmetic (``lift``, behind ``SmoothMap.jets`` and
``factor_jets``, ``LocalGeometry.laplacian`` and
``manifold.jet_matrix_and_derivs``, behind ``JetMetric`` and
``AlmostComplexStructureField``), through ``Jet2.check``.

A hypothesis that fails at some row of a batch raises through ``reject``,
which names the first bad row; only the finiteness checks above do not.
"""

from __future__ import annotations

import numpy as np


class JetDomainError(ValueError):
    """Raised when an operation leaves its real domain (log of <= 0, division
    by zero, ...) or produces a non-finite component."""


def reject(bad, error, message, *values):
    """Raise ``error(message % values)`` if the per-row mask ``bad`` holds at
    some row, each array of ``values`` read at the first such row by
    ``tolist``: a point as a list, an entry as a float."""
    if np.count_nonzero(bad):
        raise error(message % tuple(
            v[bad][0].tolist() if isinstance(v, np.ndarray) else v
            for v in values))


class Jet2:
    """Value, gradient and, at second order, Hessian of a scalar with respect
    to d chart coordinates, at a point or at each point of a batch.

    The Hessian is stored dense and stays exactly symmetric: every rule below
    builds it from symmetric pieces (scalar multiples of symmetric matrices and
    ``outer(a, b) + outer(b, a)``).
    """

    __slots__ = ("value", "grad", "hess", "_reciprocal")
    __array_ufunc__ = None  # a numpy operand on the left defers to the jet

    def __init__(self, value, grad, hess, _check=True):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)
        self._reciprocal = None
        if _check:
            self.check()
        elif not np.isfinite(self.value).all():
            raise JetDomainError("non-finite jet component")

    def check(self) -> "Jet2":
        """Boundary check: consistent shapes and every component finite.

        Returns the jet itself so boundaries can check and pass it on."""
        shape, d = self.value.shape, self.grad.shape[-1:]
        if self.grad.shape != shape + d or (
                self.hess is not None and self.hess.shape != shape + d + d):
            raise ValueError("jet gradient/Hessian shape mismatch")
        if not all(np.isfinite(a).all() for a in (self.value, self.grad,
                                                  self.hess) if a is not None):
            raise JetDomainError("non-finite jet component")
        return self

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    @property
    def order(self) -> int:
        """2 with a Hessian, 1 without."""
        return 1 if self.hess is None else 2

    @staticmethod
    def constant(value, dim: int, order: int = 2) -> "Jet2":
        value = np.asarray(value, dtype=float)
        return Jet2(value, np.zeros(value.shape + (dim,)),
                    np.zeros(value.shape + (dim, dim)) if order == 2 else None,
                    _check=False)

    def _operand(self, other):
        """``other`` as a jet of this dimension, or as a float if it is a
        number."""
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        if isinstance(other, (float, int)):
            return float(other)
        return Jet2.constant(other, self.dim, self.order)

    def _chain(self, f0, f1, f2) -> "Jet2":
        # chain rule for f with f(u), f'(u) and f''(u) at the jet's values
        # u; a first-order jet does not read f''
        f1, g = f1[..., None], self.grad
        if self.hess is None:
            return Jet2(f0, f1 * g, None, _check=False)
        f2 = f2[..., None, None]
        return Jet2(f0, f1 * g, f1[..., None] * self.hess
                    + f2 * (g[..., :, None] * g[..., None, :]), _check=False)

    # ---- arithmetic -----------------------------------------------------

    def __neg__(self):
        return Jet2(-self.value, -self.grad,
                    None if self.hess is None else -self.hess, _check=False)

    def __add__(self, other):
        o = self._operand(other)
        if isinstance(o, float):
            return Jet2(self.value + o, self.grad, self.hess, _check=False)
        return Jet2(self.value + o.value, self.grad + o.grad,
                    None if self.hess is None or o.hess is None
                    else self.hess + o.hess, _check=False)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._operand(other)

    def __rsub__(self, other):
        return -self + self._operand(other)

    def __mul__(self, other):
        o = self._operand(other)
        if isinstance(o, float):
            return Jet2(self.value * o, self.grad * o,
                        None if self.hess is None else self.hess * o,
                        _check=False)
        a, b = self.value[..., None], o.value[..., None]
        g = self.grad * b + o.grad * a
        h = None
        if self.hess is not None and o.hess is not None:
            # symmetrize the cross term before summing: float addition is
            # not associative, so chaining the two outer products after the
            # Hessian terms would lose bitwise symmetry
            cross = self.grad[..., :, None] * o.grad[..., None, :]
            cross = cross + cross.swapaxes(-1, -2)
            h = self.hess * b[..., None] + o.hess * a[..., None] + cross
        return Jet2(self.value * o.value, g, h, _check=False)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        """1 / self, computed on the first call and kept; a zero value
        raises on every call."""
        if self._reciprocal is None:
            u = self.value
            reject(u == 0.0, JetDomainError, "division by zero jet value")
            self._reciprocal = self._chain(
                1.0 / u, -1.0 / u ** 2,
                None if self.hess is None else 2.0 / u ** 3)
        return self._reciprocal

    def __truediv__(self, other):
        o = self._operand(other)
        if isinstance(o, float):
            reject(o == 0.0, JetDomainError, "division by zero jet value")
            return self * (1.0 / o)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        """The jet to a number power (``exprs.eval_jet`` takes a jet
        exponent through exp and log)."""
        e = float(exponent)
        if e == int(e):
            return self._int_pow(int(e))
        reject(self.value <= 0.0, JetDomainError,
               "non-integer power of non-positive base %r", self.value)
        return exp(log(self) * e)

    def _int_pow(self, k: int) -> "Jet2":
        # repeated multiplication avoids the log-domain restriction
        if k < 0:
            return self.reciprocal()._int_pow(-k)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            return Jet2.constant(1.0, self.dim, self.order)
        return result


def seed_coordinates(coords, order: int = 2) -> list:
    """Seed chart coordinates (shape (d,) or (B, d)) as independent
    variables: the k-th jet carries value coords[..., k], gradient e_k and,
    at order 2, a zero Hessian."""
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1] if coords.ndim else 0
    if d == 0:
        raise ValueError("cannot seed a zero-dimensional chart")
    zeros = np.zeros(coords.shape + (d,))
    grads = zeros + np.eye(d)
    hess = zeros if order == 2 else None
    return [Jet2(coords[..., k], grads[..., k, :], hess, _check=False)
            for k in range(d)]


def lift(x, dim: int, shape) -> Jet2:
    """A jet (or a number, as a second-order constant) leaving the
    arithmetic, checked, over ``shape``."""
    if not isinstance(x, Jet2):
        x = Jet2.constant(float(x), dim)
    if x.value.shape != shape:
        x = Jet2(np.broadcast_to(x.value, shape),
                 np.broadcast_to(x.grad, shape + (dim,)),
                 None if x.hess is None else
                 np.broadcast_to(x.hess, shape + (dim, dim)), _check=False)
    return x.check()


# ---- elementary functions of a jet --------------------------------------

def _unary(x: Jet2, f, derivs, positive=""):
    """f at a jet, with ``derivs(u, f(u))`` = (f'(u), f''(u)); the function
    named by ``positive`` takes positive values only."""
    u = x.value
    if positive:
        reject(~(u > 0.0), JetDomainError, "%s of out-of-domain value %r",
               positive, u)
    value = f(u)
    return x._chain(value, *derivs(u, value))


def sin(x):
    return _unary(x, np.sin, lambda u, s: (np.cos(u), -s))


def cos(x):
    return _unary(x, np.cos, lambda u, c: (-np.sin(u), -c))


def exp(x):
    return _unary(x, np.exp, lambda u, e: (e, e))


def log(x):
    return _unary(x, np.log, lambda u, _: (1.0 / u, -1.0 / u ** 2),
                  positive="log")


def sqrt(x):
    return _unary(x, np.sqrt, lambda u, r: (0.5 / r, -0.25 / u ** 1.5),
                  positive="sqrt")
