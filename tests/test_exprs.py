"""Expression parser: precedence, errors with offsets, printer round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phmorph import ParseError, eval_jet, parse, seed_coordinates
from phmorph.exprs import (MAX_DEPTH, Binary, Call, Lit, Unary, Var,
                           max_var_index)
from tests.expr_text import to_text


def value(e, vals):
    """The value of the expression ``e`` at the coordinates ``vals``, read
    from its jet (one coordinate, unused, when there are none)."""
    return float(eval_jet(e, seed_coordinates(list(vals) or [0.0])).value)


def ev(text, *vals):
    return value(parse(text), vals)


@pytest.mark.parametrize(
    "text, vals, expected",
    [
        ("1+2*3", (), 7.0),
        ("(1+2)*3", (), 9.0),
        ("2^3^2", (), 512.0),  # right-associative power
        ("2^-2", (), 0.25),
        ("-2^2", (), -4.0),  # power binds tighter than unary minus
        ("6/3/2", (), 1.0),  # left-associative division
        ("1-2-3", (), -4.0),
        ("x1+2*x2", (0.5, 0.25), 1.0),
        ("-x1^2", (3.0,), -9.0),
        ("sin(0)", (), 0.0),
        ("exp(log(5))", (), 5.0),
        ("sqrt(x1^2)", (4.0,), 4.0),
        ("2*cos(0)^2", (), 2.0),
    ],
)
def test_evaluation(text, vals, expected):
    assert ev(text, *vals) == pytest.approx(expected, rel=1e-14)


def test_whitespace_insensitive():
    assert ev("  1 +  2* 3 ") == ev("1+2*3")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1+",
        "(1+2",
        "1+*2",
        "foo(1)",
        "x0",
        "x10",
        "1..2",
        "2 3",
        "sin 1",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("1+2*")
    assert exc.value.position == 4


@pytest.mark.parametrize("text, offset", [
    ("x\u0661", 0),  # x and an Arabic-Indic one: an unknown identifier
    ("\u0661.\u0665", 0),  # 1.5 in Arabic-Indic digits
    ("x\u00b2", 0),  # x and a superscript two
    ("2.\u0665", 2),
    ("1e\u0665", 1),  # float() would read it as 1e5
])
def test_only_ascii_digits_are_digits(text, offset):
    # the grammar's literals and x1..x9 are ASCII; str.isdigit is not
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == offset


@pytest.mark.parametrize("text, offset", [("foo(1)", 0), ("x1 + bar", 5)])
def test_an_unknown_identifier_is_reported_where_it_starts(text, offset):
    with pytest.raises(ParseError, match="unknown identifier") as exc:
        parse(text)
    assert exc.value.position == offset


@pytest.mark.parametrize("text, offset", [("exp(x1", 6), ("sin(x1 x2)", 7)])
def test_an_unclosed_call_is_reported_where_its_parenthesis_is_missing(
        text, offset):
    with pytest.raises(ParseError, match="expected '\\)' closing call to "
                                         "'(exp|sin)'") as exc:
        parse(text)
    assert exc.value.position == offset


@pytest.mark.parametrize("text, expected", [
    ("\xa01+x1", Binary("add", Lit(1.0, 1), Var(0, 3), 2)),
    ("x1\u2003*\u2003x2", Binary("mul", Var(0, 0), Var(1, 5), 3)),
    ("é", ("unknown identifier 'é'", 0)),
    ("\u0661", ("expected a number, variable, function or '('", 0)),
    ("x½", ("unknown identifier 'x½'", 0)),
    ("x1_", ("unknown identifier 'x1_'", 0)),
    ("1e", ("unexpected trailing input", 1)),
    ("1e+", ("unexpected trailing input", 1)),
    ("1.e3", Lit(1000.0, 0)),
    (".", ("malformed number '.'", 0)),
    ("1..2", ("malformed number '1..2'", 0)),
    ("sin (x1)", Call("sin", Var(0, 5), 0)),
    ("sin", ("function 'sin' requires parenthesized argument", 3)),
    ("((1)", ("expected ')'", 4)),
    ("exp(x1,x2)", ("expected ')' closing call to 'exp'", 6)),
    ("2 ^ -x1", Binary("pow", Lit(2.0, 0), Unary("neg", Var(0, 5), 4), 2)),
    ("-(-1)", Unary("neg", Unary("neg", Lit(1.0, 3), 2), 0)),
])
def test_edge_inputs_give_their_tree_or_error(text, expected):
    # Unicode spaces separate tokens; only ASCII digits are digits; an
    # identifier runs over every alphanumeric and "_"
    if isinstance(expected, tuple):
        message, offset = expected
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == "%s at offset %d" % (message, offset)
        assert info.value.position == offset
    else:
        assert parse(text) == expected


def test_variables_are_one_based():
    assert ev("x1", 7.0) == 7.0
    assert ev("x3", 0.0, 0.0, 5.0) == 5.0
    # max_var_index is zero-based: x5 reads coordinate slot 4
    assert max_var_index(parse("x2*sin(x5)")) == 4
    assert max_var_index(parse("1+2")) == -1


def test_eval_on_jets_propagates_derivatives():
    e = parse("exp(0.3*x1)*x2")
    out = eval_jet(e, seed_coordinates([0.5, 2.0]))
    v = math.exp(0.15)
    assert out.value == pytest.approx(2.0 * v, rel=1e-14)
    assert out.grad[0] == pytest.approx(0.6 * v, rel=1e-13)
    assert out.grad[1] == pytest.approx(v, rel=1e-14)


def test_integer_power_of_negative_base_on_jets():
    # the literal exponent must keep the repeated-multiplication path even
    # when coordinates are jets (no log of a negative base)
    e = parse("x1^2+x2^3")
    out = eval_jet(e, seed_coordinates([-0.3, -0.5]))
    assert out.value == pytest.approx(0.09 - 0.125, rel=1e-14)
    assert np.allclose(out.grad, [-0.6, 0.75], rtol=1e-14)


def test_eval_jet_rejects_what_is_not_an_expression():
    with pytest.raises(TypeError, match="not an expression node"):
        eval_jet("x1", seed_coordinates([0.5]))


def test_too_few_coordinates_raises():
    from phmorph import EvalError

    with pytest.raises(EvalError):
        ev("x3", 1.0, 2.0)


@pytest.mark.parametrize("text, x1, position", [
    ("exp(1000*x1)", 1.0, 0),  # float overflow
    ("1/(x1-x1)", 1.0, 1),  # division by zero
    ("(x1-2)^0.5", 1.0, 6),  # a non-integer power of a negative base
    ("x1^(-1)", 0.0, 2),  # a negative power of zero
])
def test_domain_errors_carry_the_offset_on_floats_and_jets(text, x1,
                                                          position):
    from phmorph import EvalError

    # in the floating-point state that runner.run_verification sets, a jet
    # overflows to inf silently; there is no evaluation on floats
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            pytest.raises(EvalError) as info:
        eval_jet(parse(text), seed_coordinates([x1]))
    assert info.value.position == position


@pytest.mark.parametrize(
    "text",
    [
        "1+2*3",
        "-x1^2*3 - 4/x2",
        "exp(0.3*x1+0.1*x2)",
        "2^3^2",
        "(x1+x2)^2/sqrt(x1)",
        "sin(x1)*cos(x2)-1",
        "-(x1+x2)",
        "2^-x1",
    ],
)
def test_round_trip_print_parse(text):
    e = parse(text)
    printed = to_text(e)
    e2 = parse(printed)
    rng = np.random.default_rng(3)
    for _ in range(5):
        vals = list(rng.uniform(0.2, 1.5, size=2))
        assert value(e, vals) == pytest.approx(value(e2, vals), rel=1e-14)


def random_expression(rng, variables=3):
    """A random expression text over x1..x<variables>, at most about five
    levels deep."""
    def gen(depth):
        k = rng.integers(0, 7 if depth < 4 else 2)
        if k == 0:
            return f"{rng.uniform(0.1, 3.0):.3f}"
        if k == 1:
            return f"x{rng.integers(1, variables + 1)}"
        if k == 2:
            return f"({gen(depth + 1)}+{gen(depth + 1)})"
        if k == 3:
            return f"{gen(depth + 1)}*{gen(depth + 1)}"
        if k == 4:
            return f"-{gen(depth + 1)}"
        if k == 5:
            return f"{gen(depth + 1)}-{gen(depth + 1)}"
        return f"sin({gen(depth + 1)})"

    return gen(0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_random_expressions(seed):
    text = random_expression(np.random.default_rng(seed))
    e = parse(text)
    e2 = parse(to_text(e))
    vals = [0.37, 0.91, 1.42]
    assert value(e, vals) == pytest.approx(value(e2, vals), rel=1e-13)


@pytest.mark.parametrize("text, offset", [
    ("+".join(["1"] * 3000), 5800),          # the 101st + from the end
    ("(" * 300 + "x1" + ")" * 300, 100),     # the 101st parenthesis
    ("-" * 300 + "1", 100),
    ("2^" * 300 + "1", 201),
    ("sin(" * 300 + "1" + ")" * 300, 400),
], ids=["long-sum", "parentheses", "signs", "powers", "calls"])
def test_trees_deeper_than_the_limit_are_parse_errors(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == offset
    assert "deeper than %d levels" % MAX_DEPTH in str(info.value)


@pytest.mark.parametrize("text", [
    "+".join(["x1"] * MAX_DEPTH),
    "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
    "-" * (MAX_DEPTH - 1) + "x1",
], ids=["long-sum", "parentheses", "signs"])
def test_trees_at_the_limit_parse_and_evaluate(text):
    e = parse(text)
    assert max_var_index(e) == 0
    assert parse(to_text(e)) is not None
    assert math.isfinite(value(e, [0.5]))
