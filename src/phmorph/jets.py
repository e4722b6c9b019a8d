"""Second-order forward-mode jets: (value, gradient, Hessian) triples.

Every scalar field in the engine is evaluated through this type so that
first derivatives (Christoffel symbols) and second derivatives (tension
fields, Laplacians) come out exact to machine precision.

A jet's value has a batch shape, ``()`` for one point or ``(B,)`` for B
points, its gradient that shape + (d,) and its Hessian that shape + (d, d);
a constant made from a number has shape ``()`` and broadcasts.  Each row is
computed as at one point: the arithmetic and the chain rule's elementary
functions are numpy ufuncs over the whole batch, elementwise, so a row gives
the same bits in a batch of any length as alone.  On plain numbers and
arrays (``exprs.eval_jet`` on floats, ``manifold.jet_matrix``) the
elementary functions raise an ``ArithmeticError`` on overflow, an invalid
operation or a division by zero; underflow stays silent.

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
"""

from __future__ import annotations

import numpy as np


class JetDomainError(ValueError):
    """Raised when an operation leaves its real domain (log of <= 0, division
    by zero, ...) or produces a non-finite component."""


def first(values, bad):
    """The entry (or point) of the first row where the mask ``bad`` holds,
    which an error message names."""
    return np.asarray(values)[bad][0]


class Jet2:
    """Value, gradient and Hessian of a scalar with respect to d chart
    coordinates, at a point or at each point of a batch.

    The Hessian is stored dense and stays exactly symmetric: every rule below
    builds it from symmetric pieces (scalar multiples of symmetric matrices and
    ``outer(a, b) + outer(b, a)``).
    """

    __slots__ = ("value", "grad", "hess")
    __array_ufunc__ = None  # a numpy operand on the left defers to the jet

    def __init__(self, value, grad, hess, _check=True):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        if _check:
            self.check()
        elif not np.isfinite(self.value).all():
            raise JetDomainError("non-finite jet component")

    def check(self) -> "Jet2":
        """Boundary check: consistent shapes and every component finite.

        Returns the jet itself so boundaries can check and pass it on."""
        shape, d = self.value.shape, self.grad.shape[-1:]
        if self.grad.shape != shape + d or self.hess.shape != shape + d + d:
            raise ValueError("jet gradient/Hessian shape mismatch")
        if not all(np.isfinite(a).all() for a in (self.value, self.grad,
                                                  self.hess)):
            raise JetDomainError("non-finite jet component")
        return self

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    @staticmethod
    def constant(value, dim: int) -> "Jet2":
        value = np.asarray(value, dtype=float)
        return Jet2(value, np.zeros(value.shape + (dim,)),
                    np.zeros(value.shape + (dim, dim)), _check=False)

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        return Jet2.constant(other, self.dim)

    def _chain(self, f0, f1, f2) -> "Jet2":
        # chain rule for f with f(u), f'(u) and f''(u) at the jet's values u
        f1, f2, g = f1[..., None], f2[..., None, None], self.grad
        return Jet2(f0, f1 * g, f1[..., None] * self.hess
                    + f2 * (g[..., :, None] * g[..., None, :]), _check=False)

    # ---- arithmetic -----------------------------------------------------

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess, _check=False)

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.value + o.value, self.grad + o.grad,
                    self.hess + o.hess, _check=False)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Jet2(self.value - o.value, self.grad - o.grad,
                    self.hess - o.hess, _check=False)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        a, b = self.value[..., None], o.value[..., None]
        g = self.grad * b + o.grad * a
        # symmetrize the cross term before summing: float addition is not
        # associative, so chaining the two outer products after the Hessian
        # terms would lose bitwise symmetry
        cross = self.grad[..., :, None] * o.grad[..., None, :]
        cross = cross + cross.swapaxes(-1, -2)
        h = self.hess * b[..., None] + o.hess * a[..., None] + cross
        return Jet2(self.value * o.value, g, h, _check=False)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        u = self.value
        if np.count_nonzero(u == 0.0):
            raise JetDomainError("division by zero jet value")
        return self._chain(1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Jet2):
            # a constant-jet exponent keeps the integer fast path available
            # (so x^2 still works at negative x), for all rows or for none
            varying = (exponent.grad.any(axis=-1)
                       | exponent.hess.any(axis=(-2, -1)))
            if varying.all():
                return exp(log(self) * exponent)
            values = set(exponent.value.ravel().tolist())
            if varying.any() or len(values) > 1:
                raise JetDomainError("a jet exponent that is not constant "
                                     "over the batch")
            exponent = values.pop()
        e = float(exponent)
        if e == int(e):
            return self._int_pow(int(e))
        bad = self.value <= 0.0
        if np.count_nonzero(bad):
            raise JetDomainError("non-integer power of non-positive base %r"
                                 % float(first(self.value, bad)))
        return exp(log(self) * e)

    def _int_pow(self, k: int) -> "Jet2":
        # repeated multiplication avoids the log-domain restriction
        if k < 0:
            return self.reciprocal()._int_pow(-k)
        result = Jet2.constant(1.0, self.dim)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __rpow__(self, other):
        return self._lift(other) ** self

    # ---- misc -----------------------------------------------------------

    def __repr__(self):
        return "Jet2(%r, %r, %r)" % (self.value.tolist(), self.grad.tolist(),
                                     self.hess.tolist())


def seed_coordinates(coords) -> list:
    """Seed chart coordinates (shape (d,) or (B, d)) as independent
    variables: the k-th jet carries value coords[..., k], gradient e_k and
    zero Hessian."""
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[-1] if coords.ndim else 0
    if d == 0:
        raise ValueError("cannot seed a zero-dimensional chart")
    zeros = np.zeros(coords.shape + (d,))
    grads = zeros + np.eye(d)
    return [Jet2(coords[..., k], grads[..., k, :], zeros, _check=False)
            for k in range(d)]


def lift(x, dim: int, shape) -> Jet2:
    """A jet (or a number) leaving the arithmetic, checked, over ``shape``."""
    if not isinstance(x, Jet2):
        x = Jet2.constant(float(x), dim)
    if x.value.shape != shape:
        x = Jet2(np.broadcast_to(x.value, shape),
                 np.broadcast_to(x.grad, shape + (dim,)),
                 np.broadcast_to(x.hess, shape + (dim, dim)), _check=False)
    return x.check()


# ---- elementary functions (dispatch on numbers or Jet2) -----------------

def _unary(x, f, derivs, positive=""):
    """f at a number, an array or a jet, with ``derivs(u, f(u))`` = (f'(u),
    f''(u)); the function named by ``positive`` takes positive values only."""
    u = x.value if isinstance(x, Jet2) else np.asarray(x, dtype=float)
    if positive:
        bad = ~(u > 0.0)
        if np.count_nonzero(bad):
            raise JetDomainError("%s of out-of-domain value %r"
                                 % (positive, float(first(u, bad))))
    if isinstance(x, Jet2):
        value = f(u)
        return x._chain(value, *derivs(u, value))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value = f(u)
    return value if u.ndim else float(value)


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
