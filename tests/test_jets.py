"""Second-order jet arithmetic against closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phmorph.jets as jets
from phmorph import Jet2, JetDomainError, seed_coordinates
from phmorph.runner import CHUNK


def fd_grad_hess(f, x, h=1e-5):
    """Central-difference gradient and Hessian oracle for a scalar function."""
    x = np.asarray(x, dtype=float)
    d = x.size
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        grad[i] = (f(x + ei) - f(x - ei)) / (2 * h)
        hess[i, i] = (f(x + ei) - 2 * f(x) + f(x - ei)) / h**2
        for j in range(i):
            ej = np.zeros(d)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return grad, hess


def test_seed_coordinates_basic():
    a, b = seed_coordinates([2.0, 1.0])
    assert a.value == 2.0 and b.value == 1.0
    assert np.array_equal(a.grad, [1.0, 0.0])
    assert np.array_equal(b.grad, [0.0, 1.0])
    assert np.array_equal(a.hess, np.zeros((2, 2)))


def test_polynomial_closed_form():
    # f(x, y) = x^2 y at (2, 1): grad (4, 4), hess [[2, 4], [4, 0]].
    x, y = seed_coordinates([2.0, 1.0])
    f = x * x * y
    assert f.value == 4.0
    assert np.array_equal(f.grad, [4.0, 4.0])
    assert np.array_equal(f.hess, [[2.0, 4.0], [4.0, 0.0]])


def test_transcendental_closed_form():
    (x,) = seed_coordinates([0.7])
    f = jets.exp(jets.sin(x))
    v = math.exp(math.sin(0.7))
    assert f.value == pytest.approx(v, rel=1e-15)
    assert f.grad[0] == pytest.approx(v * math.cos(0.7), rel=1e-14)
    assert f.hess[0, 0] == pytest.approx(
        v * (math.cos(0.7) ** 2 - math.sin(0.7)), rel=1e-13
    )


def test_division_and_sqrt():
    x, y = seed_coordinates([3.0, 2.0])
    f = jets.sqrt(x / y)
    v = math.sqrt(1.5)
    assert f.value == pytest.approx(v, rel=1e-15)
    g, h = fd_grad_hess(lambda p: math.sqrt(p[0] / p[1]), [3.0, 2.0])
    assert np.allclose(f.grad, g, rtol=1e-8)
    assert np.allclose(f.hess, h, rtol=1e-3, atol=1e-5)


def test_integer_power_fast_path_matches_repeated_multiply():
    (x,) = seed_coordinates([1.3])
    direct = x * x * x * x * x
    powed = x**5
    assert powed.value == pytest.approx(direct.value, rel=1e-15)
    assert np.allclose(powed.grad, direct.grad, rtol=1e-14)
    assert np.allclose(powed.hess, direct.hess, rtol=1e-14)


def test_negative_and_fractional_powers():
    (x,) = seed_coordinates([2.0])
    assert (x**-2).value == pytest.approx(0.25, rel=1e-15)
    assert (x**0.5).value == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert (2.0**x).value == pytest.approx(4.0, rel=1e-14)


def test_jet_exponent():
    x, y = seed_coordinates([1.5, 0.8])
    f = x**y
    g, h = fd_grad_hess(lambda p: p[0] ** p[1], [1.5, 0.8])
    assert f.value == pytest.approx(1.5**0.8, rel=1e-15)
    assert np.allclose(f.grad, g, rtol=1e-8)
    assert np.allclose(f.hess, h, rtol=1e-4)


def test_domain_errors():
    (x,) = seed_coordinates([-1.0])
    with pytest.raises(JetDomainError):
        jets.log(x)
    with pytest.raises(JetDomainError):
        jets.sqrt(x)
    zero = x + 1.0
    with pytest.raises(JetDomainError):
        1.0 / zero


def test_domain_errors_name_the_first_bad_value_of_a_batch():
    x, _ = seed_coordinates([[1.0, 0.0], [-2.0, 0.0], [0.0, 0.0]])
    for fn in (jets.log, jets.sqrt):
        with pytest.raises(JetDomainError, match="out-of-domain value -2.0$"):
            fn(x)
        with pytest.raises(JetDomainError, match="out-of-domain value 0.0$"):
            fn(np.array([3.0, 0.0, -1.0]))


BATCH_KERNELS = {
    "sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "log": jets.log,
    "sqrt": jets.sqrt, "reciprocal": Jet2.reciprocal,
    "power": lambda u: u ** 1.7,
}


@pytest.mark.parametrize("rows", [CHUNK, CHUNK + 3])
@pytest.mark.parametrize("kernel", sorted(BATCH_KERNELS))
def test_kernels_give_each_row_its_bits_in_any_batch(kernel, rows):
    # a row of a chunk and the same row re-run alone (a 1-row batch) must
    # agree bit for bit, also in the tail of a batch that is not a multiple
    # of the SIMD width
    fn = BATCH_KERNELS[kernel]
    points = np.random.default_rng(8).uniform(0.2, 1.5, (rows, 2))

    def f(p):
        x, y = seed_coordinates(p)
        return fn(x * y + 0.5 * x)  # positive, with a Hessian

    batch = f(points)
    assert batch.value.shape == (rows,)
    for i in range(rows):
        one = f(points[i:i + 1])
        for part in ("value", "grad", "hess"):
            assert np.array_equal(getattr(batch, part)[i],
                                  getattr(one, part)[0]), (part, i)


def test_hessian_symmetry_is_exact():
    # Bitwise symmetry, not just approximate: the arithmetic only ever builds
    # Hessians from symmetric pieces.
    rng = np.random.default_rng(11)
    for _ in range(50):
        coords = seed_coordinates(rng.uniform(0.2, 2.0, size=4))
        x1, x2, x3, x4 = coords
        f = jets.exp(x1 * x2) / (x3 + x4) + jets.sin(x1 * x3) ** 3 - x2 / x4
        assert np.array_equal(f.hess, f.hess.T)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.3, max_value=2.0), min_size=3, max_size=3),
)
def test_fd_cross_check(vals):
    def f_float(p):
        return math.exp(0.3 * p[0]) * math.sin(p[1]) + p[2] ** 3 / (1.0 + p[0] ** 2)

    def f_jet(c):
        return jets.exp(0.3 * c[0]) * jets.sin(c[1]) + c[2] ** 3 / (1.0 + c[0] ** 2)

    out = f_jet(seed_coordinates(vals))
    g, h = fd_grad_hess(f_float, vals)
    assert out.value == pytest.approx(f_float(np.asarray(vals)), rel=1e-12)
    assert np.allclose(out.grad, g, rtol=1e-6, atol=1e-8)
    assert np.allclose(out.hess, h, rtol=1e-3, atol=1e-4)


def test_nonfinite_rejected():
    with pytest.raises(JetDomainError):
        Jet2(float("nan"), np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(JetDomainError):
        Jet2(1.0, np.array([np.inf, 0.0]), np.zeros((2, 2)))


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        seed_coordinates([])



@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_nonfinite_gradient_caught_at_boundaries():
    # (1e300*x1)^2 at x1 = 1e-200: the value 1e200 is finite, the gradient
    # and Hessian overflow. Arithmetic checks only values, so the boundaries
    # must catch it, on every call.
    from phmorph import BiconformalChange, EvalError, SmoothMap, euclidean_space
    from phmorph.exprs import eval_jet, parse
    from phmorph.maps import LocalGeometry

    expr = parse("(1e300*x1)^2")
    p = np.array([1e-200, 0.5])
    assert math.isfinite(eval_jet(expr, list(p)))
    plane = euclidean_space(2)
    phi = SmoothMap(plane, plane, lambda c: [eval_jet(expr, c), c[1]])
    identity = LocalGeometry(SmoothMap(plane, plane, lambda c: c), p)
    change = BiconformalChange(expr, expr)
    for _ in range(2):
        with pytest.raises((JetDomainError, EvalError)):
            identity.laplacian(eval_jet(expr, seed_coordinates(p)))
        with pytest.raises((JetDomainError, EvalError)):
            phi.jets(p)
        with pytest.raises((JetDomainError, EvalError)):
            change.factor_jets(p)
