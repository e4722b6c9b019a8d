"""Second-order jet arithmetic against closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # a number to a jet power is exp(log(base) * exponent) on a constant
    # jet, as ``exprs.eval_jet`` reads 2^x1
    assert eval_jet(parse("2^x1"), [x]).value == pytest.approx(4.0,
                                                              rel=1e-14)


def test_jet_exponent():
    f = eval_jet(parse("x1^x2"), seed_coordinates([1.5, 0.8]))
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
            fn(seed_coordinates([[3.0], [0.0], [-1.0]])[0])


def test_reject_raises_nothing_where_no_row_is_bad():
    for bad in (np.zeros(3, dtype=bool), np.bool_(False)):
        assert jets.reject(bad, ValueError, "at %s", np.ones((3, 2))) is None


def test_reject_names_the_first_bad_row_by_the_message_format():
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    entries = np.array([1.0, -2.5, -1e-20])
    with pytest.raises(JetDomainError) as info:
        jets.reject(entries < 0.0, JetDomainError, "%s at %s: %g, %r, %s",
                    "u", points, entries, entries, [7, 8])
    assert type(info.value) is JetDomainError
    # a point is a list and an entry a float (a numpy float's %r would
    # read np.float64(-2.5)); a value that is not an array is kept whole
    assert str(info.value) == "u at [0.3, 0.4]: -2.5, -2.5, [7, 8]"
    # one point: a 0-d mask and entry
    with pytest.raises(ValueError, match=r"^\[0.5, 0.6\] -1e-20$"):
        jets.reject(np.bool_(True), ValueError, "%s %r", points[2],
                    entries[2:].reshape(()))


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
    from phmorph import ChangedMetric, EvalError, euclidean_space
    from phmorph.exprs import eval_jet, parse
    from phmorph.maps import LocalGeometry
    from tests.test_maps import smooth_map

    expr = parse("(1e300*x1)^2")
    p = np.array([1e-200, 0.5])
    assert math.isfinite(eval_jet(expr, seed_coordinates(p)).value)
    plane = euclidean_space(2)
    phi = smooth_map(plane, plane, lambda c: [eval_jet(expr, c), c[1]])
    identity = LocalGeometry(smooth_map(plane, plane, lambda c: c), p)
    change = ChangedMetric(identity.phi, expr, expr)
    for _ in range(2):
        with pytest.raises((JetDomainError, EvalError)):
            identity.laplacian(eval_jet(expr, seed_coordinates(p)))
        with pytest.raises((JetDomainError, EvalError)):
            phi.jets(p)
        with pytest.raises((JetDomainError, EvalError)):
            change.factor_jets(identity)


def test_a_jet_of_inconsistent_shapes_is_refused():
    with pytest.raises(ValueError, match="shape mismatch"):
        Jet2(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        Jet2(np.zeros(2), np.zeros((3, 3)), np.zeros((3, 3, 3)))


def test_jets_of_different_dimensions_do_not_combine():
    x = Jet2.constant(1.0, 2)
    y = Jet2.constant(1.0, 3)
    for combine in (lambda: x + y, lambda: x * y, lambda: x - y):
        with pytest.raises(ValueError, match="jet dimension mismatch"):
            combine()


# ---- first-order jets, number operands and the kept reciprocal ----------

from unittest import mock  # noqa: E402

from hypothesis.extra import numpy as hnp  # noqa: E402

from phmorph.exprs import (FUNCTIONS, Binary, Call, EvalError, Lit,  # noqa: E402
                           Unary, Var, eval_jet, parse)
from tests.expr_text import to_text  # noqa: E402

VARIABLES = 3
LITERALS = st.builds(Lit, st.floats(min_value=0.0, max_value=3.0))


def _branches(children):
    return st.one_of(
        st.builds(Unary, st.just("neg"), children),
        st.builds(Binary,
                  st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                  children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children))


# trees of every node kind, printed and parsed again, so each is an
# expression that the grammar, with its depth limit, accepts
EXPRESSIONS = st.recursive(
    st.one_of(LITERALS, st.builds(Var, st.integers(0, VARIABLES - 1))),
    _branches, max_leaves=12).map(lambda e: parse(to_text(e)))
BATCHES = st.integers(1, 3).flatmap(lambda rows: hnp.arrays(
    float, (rows, VARIABLES), elements=st.floats(min_value=-2.0,
                                                 max_value=2.0)))


def evaluate(e, points, order):
    """The jet of ``e`` over the batch at the given order, or the message of
    the error that its evaluation raises."""
    try:
        with np.errstate(all="ignore"):
            return eval_jet(e, seed_coordinates(points, order))
    except EvalError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, BATCHES)
def test_first_order_evaluation_equals_second_order(e, points):
    second, first_order = (evaluate(e, points, k) for k in (2, 1))
    if isinstance(second, str):
        assert first_order == second
        return
    assert first_order.hess is None and second.hess is not None
    for part in ("value", "grad"):
        assert np.array_equal(getattr(first_order, part),
                              getattr(second, part), equal_nan=True), part


@pytest.mark.parametrize("order", [1, 2])
def test_a_variable_exponent_is_a_jet_at_a_critical_point(order):
    # (x2 - 1)^2 has zero gradient at x2 = 1, where its Hessian is not zero:
    # both orders take the base's log there, which a negative base refuses
    with pytest.raises(EvalError, match=r"log of out-of-domain value -0.5 "
                       r"\(at offset 2\)"):
        eval_jet(parse("x1^((x2-1)*(x2-1))"),
                 seed_coordinates([-0.5, 1.0], order))
    f = eval_jet(parse("x1^((x2-1)*(x2-1))"),
                 seed_coordinates([0.5, 1.0], order))
    assert (f.value, f.order) == (1.0, order)
    assert np.array_equal(f.grad, [0.0, 0.0])


NUMBER_OPERATIONS = {
    "c*x": (lambda c, x: c * x, lambda k, x: k * x),
    "x*c": (lambda c, x: x * c, lambda k, x: x * k),
    "x+c": (lambda c, x: x + c, lambda k, x: x + k),
    "c+x": (lambda c, x: c + x, lambda k, x: k + x),
    "x-c": (lambda c, x: x - c, lambda k, x: x - k),
    "c-x": (lambda c, x: c - x, lambda k, x: k - x),
    "c/x": (lambda c, x: c / x, lambda k, x: k / x),
    "x/c": (lambda c, x: x / c, lambda k, x: x / k),
}
# a number, zero among them, of a size whose constant jet has a finite
# reciprocal with finite derivatives
NUMBERS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3),
                    st.floats(min_value=-1e3, max_value=-1e-3))


def same_where_finite(a, b):
    """a and b are equal where finite and not finite at the same entries,
    which ``Jet2.check`` refuses alike."""
    finite = np.isfinite(a)
    return (np.array_equal(finite, np.isfinite(b))
            and np.array_equal(a[finite], b[finite]))


def outcome(operation, *operands):
    try:
        with np.errstate(all="ignore"):
            return operation(*operands)
    except JetDomainError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(NUMBER_OPERATIONS)), NUMBERS, BATCHES,
       st.sampled_from([1, 2]))
# x = -2e-253: -1/x^2 overflows, and 0 times it is NaN on both routes
@example("c/x", 0.0, np.array([[0.0, 2e-253, 0.0]]), 1)
# x = 1e-300 sin(1): 2/x^3 overflows, and the constant jet's zero
# derivatives times it make NaN where the number route keeps -inf
@example("c/x", 1.0, np.array([[1e-300, 0.0, 1.0]]), 2)
def test_a_number_operand_equals_its_constant_jet(name, c, points, order):
    x1, x2, x3 = seed_coordinates(points, order)
    x = x1 * x2 + jets.sin(x3) * x1 - x2  # a jet with a full Hessian
    by_number, by_jet = NUMBER_OPERATIONS[name]
    number = outcome(by_number, c, x)
    jet = outcome(by_jet, Jet2.constant(c, x.dim, order), x)
    if isinstance(jet, str):
        assert number == jet
        return
    assert number.order == jet.order == order
    for part in ("value", "grad", "hess")[:order + 1]:
        assert same_where_finite(getattr(number, part), getattr(jet, part)), \
            part


def same_bits(a, b):
    """a and b hold the same floats, signed zeros included (``array_equal``
    takes -0 for +0)."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


# each subtraction of a jet, and its parts as componentwise differences:
# a number has no derivatives, and an array is a constant jet's value
SUBTRACTIONS = {
    "x-y": (lambda x, y, c, a: x - y,
            lambda x, y, c, a: (x.value - y.value, x.grad - y.grad,
                                None if x.hess is None or y.hess is None
                                else x.hess - y.hess)),
    "x-c": (lambda x, y, c, a: x - c,
            lambda x, y, c, a: (x.value - c, x.grad, x.hess)),
    "c-x": (lambda x, y, c, a: c - x,
            lambda x, y, c, a: (c - x.value, -x.grad,
                                None if x.hess is None else -x.hess)),
    "x-a": (lambda x, y, c, a: x - a,
            lambda x, y, c, a: (x.value - a, x.grad - 0.0,
                                None if x.hess is None else x.hess - 0.0)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SUBTRACTIONS)), NUMBERS, BATCHES,
       st.sampled_from([1, 2]), st.sampled_from([1, 2]))
# signed zeros in every part: at x1 = -0 the products' values and
# derivatives are zeros of both signs
@example("x-y", 0.0, np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]]), 2, 2)
@example("c-x", 0.0, np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]]), 2, 1)
def test_subtraction_gives_the_componentwise_differences(name, c, points,
                                                         order_x, order_y):
    x1, x2, x3 = seed_coordinates(points, order_x)
    y1, y2, y3 = seed_coordinates(points, order_y)
    x = x1 * x2 + jets.sin(x3) * x1  # jets with full Hessians
    y = y2 * y3 + jets.cos(y1) * y3
    a = points[:, 0] * 0.5
    jet_route, parts = SUBTRACTIONS[name]
    result, expected = jet_route(x, y, c, a), parts(x, y, c, a)
    assert result.order == (1 if expected[2] is None else 2)
    for part, want in zip(("value", "grad", "hess"), expected):
        if want is not None:
            assert same_bits(getattr(result, part), want), part


def counting_reciprocals():
    """A patch of ``Jet2._chain`` that records the jet of each reciprocal it
    computes, and the list it records them in."""
    computed, chain = [], Jet2._chain

    def counted(self, f0, f1, f2):
        computed.append(self)
        return chain(self, f0, f1, f2)

    return mock.patch.object(Jet2, "_chain", counted), computed


@settings(max_examples=50, deadline=None)
@given(BATCHES.filter(lambda p: np.all(np.abs(p) > 1e-3)),
       st.integers(2, 5), st.sampled_from([1, 2]))
def test_a_repeated_division_computes_the_reciprocal_once(points, times,
                                                          order):
    x1, x2, x3 = seed_coordinates(points, order)
    d = x1 * x2 * x3
    patch, computed = counting_reciprocals()
    with patch, np.errstate(all="ignore"):
        quotients = [(x1 + k) / d for k in range(times)] + [2.0 / d, d ** -2]
    assert [jet for jet in computed if jet is d] == [d]
    once = (x1 + 0) * d.reciprocal()
    assert np.array_equal(quotients[0].grad, once.grad)


@pytest.mark.parametrize("order", [1, 2])
def test_a_division_by_a_zero_value_raises_at_every_division(order):
    x1, x2 = seed_coordinates([[1.0, 0.5], [2.0, 0.0]], order)
    d = x2 * x1  # zero in the second row
    for divide in (lambda: x1 / d, lambda: 3.0 / d, lambda: d ** -1,
                   lambda: x1 / d, Jet2.reciprocal.__get__(d)):
        with pytest.raises(JetDomainError, match="division by zero"):
            divide()
    with pytest.raises(JetDomainError, match="division by zero"):
        x1 / 0.0
    assert d._reciprocal is None
