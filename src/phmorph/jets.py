"""Second-order forward-mode jets: (value, gradient, Hessian) triples.

Every scalar field in the engine is evaluated through this type so that
first derivatives (Christoffel symbols) and second derivatives (tension
fields, Laplacians) come out exact to machine precision.

Where non-finite jets are caught: the public ``Jet2(...)`` constructor and
``seed_coordinates`` check shapes and every component.  The arithmetic in this
module builds its results with ``_check=False``, which checks only the value:
IEEE arithmetic never turns a non-finite gradient or Hessian entry finite
again, so the full check runs once where a jet leaves the arithmetic
(``SmoothMap.jets``, ``field_jet``, ``BiconformalChange.factor_jets`` and
``manifold.jet_matrix_and_derivs``, behind ``JetMetric`` and
``AlmostComplexStructureField``), through ``Jet2.check``.
"""

from __future__ import annotations

import math

import numpy as np


class JetDomainError(ValueError):
    """Raised when an operation leaves its real domain (log of <= 0, division
    by zero, ...) or produces a non-finite component."""


class Jet2:
    """Value, gradient and Hessian of a scalar with respect to d chart coordinates.

    The Hessian is stored dense and stays exactly symmetric: every rule below
    builds it from symmetric pieces (scalar multiples of symmetric matrices and
    ``outer(a, b) + outer(b, a)``).
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess, _check=True):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        if _check:
            self.check()
        elif not math.isfinite(self.value):
            raise JetDomainError("non-finite jet component")

    def check(self) -> "Jet2":
        """Boundary check: consistent shapes and every component finite.

        Returns the jet itself so boundaries can check and pass it on."""
        d = self.grad.shape[0]
        if self.grad.shape != (d,) or self.hess.shape != (d, d):
            raise ValueError("jet gradient/Hessian shape mismatch")
        if not (math.isfinite(self.value)
                and np.isfinite(self.grad).all()
                and np.isfinite(self.hess).all()):
            raise JetDomainError("non-finite jet component")
        return self

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @staticmethod
    def constant(value, dim: int) -> "Jet2":
        return Jet2(value, np.zeros(dim), np.zeros((dim, dim)), _check=False)

    def _lift(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        return Jet2.constant(float(other), self.dim)

    def _compose(self, f0: float, f1: float, f2: float) -> "Jet2":
        # chain rule for scalar f applied to this jet
        g = self.grad
        return Jet2(f0, f1 * g, f1 * self.hess + f2 * np.outer(g, g),
                    _check=False)

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
        g = self.grad * o.value + o.grad * self.value
        # symmetrize the cross term before summing: float addition is not
        # associative, so chaining the two outer products after the Hessian
        # terms would lose bitwise symmetry
        cross = np.outer(self.grad, o.grad)
        cross = cross + cross.T
        h = self.hess * o.value + o.hess * self.value + cross
        return Jet2(self.value * o.value, g, h, _check=False)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        u = self.value
        if u == 0.0:
            raise JetDomainError("division by zero jet value")
        return self._compose(1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def __pow__(self, exponent):
        if isinstance(exponent, Jet2):
            # a constant-jet exponent keeps the integer fast path available
            # (so x^2 still works at negative x)
            if exponent.grad.any() or exponent.hess.any():
                return exp(exponent * log(self))
            exponent = exponent.value
        e = float(exponent)
        if e == int(e):
            return self._int_pow(int(e))
        if self.value <= 0.0:
            raise JetDomainError(
                "non-integer power of non-positive base %r" % self.value)
        return exp(e * log(self))

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
        return "Jet2(%r, %r, %r)" % (self.value, self.grad.tolist(),
                                     self.hess.tolist())


def seed_coordinates(coords) -> list:
    """Seed chart coordinates as independent variables.

    The k-th jet carries value coords[k], gradient e_k and zero Hessian.
    """
    coords = np.asarray(coords, dtype=float)
    d = coords.shape[0]
    if d == 0:
        raise ValueError("cannot seed a zero-dimensional chart")
    out = []
    for k in range(d):
        g = np.zeros(d)
        g[k] = 1.0
        out.append(Jet2(coords[k], g, np.zeros((d, d))))
    return out


# ---- elementary functions (dispatch on float or Jet2) -------------------

def _unary(x, fv, f1, f2, domain=None, name=""):
    if isinstance(x, Jet2):
        if domain is not None and not domain(x.value):
            raise JetDomainError("%s of out-of-domain value %r" % (name, x.value))
        v = x.value
        return x._compose(fv(v), f1(v), f2(v))
    v = float(x)
    if domain is not None and not domain(v):
        raise JetDomainError("%s of out-of-domain value %r" % (name, v))
    return fv(v)


def sin(x):
    return _unary(x, math.sin, math.cos, lambda v: -math.sin(v))


def cos(x):
    return _unary(x, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))


def exp(x):
    return _unary(x, math.exp, math.exp, math.exp)


def log(x):
    return _unary(x, math.log, lambda v: 1.0 / v, lambda v: -1.0 / v ** 2,
                  domain=lambda v: v > 0.0, name="log")


def sqrt(x):
    return _unary(x, math.sqrt, lambda v: 0.5 / math.sqrt(v),
                  lambda v: -0.25 / v ** 1.5,
                  domain=lambda v: v > 0.0, name="sqrt")

