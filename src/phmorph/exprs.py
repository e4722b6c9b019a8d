"""Tiny scalar-field expression language over chart coordinates x1..x9.

Grammar (highest precedence first):

    power   :  ^  (right-associative)
    unary   :  -
    term    :  *  /
    sum     :  +  -

with functions sin, cos, exp, log, sqrt, parentheses, decimal literals and
positional variables x1..x9.  No implicit multiplication.  Parsed trees are
immutable and at most ``MAX_DEPTH`` levels deep, within the recursion limit
of the walks below; evaluation works over floats or Jet2 coordinates alike.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

from . import jets
from .jets import Jet2, JetDomainError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
MAX_DEPTH = 100  # the deepest nesting and the deepest tree a parse accepts


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


class EvalError(ValueError):
    """Domain error during evaluation, carrying the offending node's source offset."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Lit:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    index: int  # zero-based
    pos: int = 0


@dataclass(frozen=True)
class Unary:
    op: str  # "neg"
    child: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Binary:
    op: str  # add sub mul div pow
    left: "Expr"
    right: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"
    pos: int = 0


Expr = Union[Lit, Var, Unary, Binary, Call]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.level = 0

    def nested(self, parse_inner, pos):
        """``parse_inner()`` one nesting level deeper."""
        self.level += 1
        _check_depth(self.level, pos)
        inner = parse_inner()
        self.level -= 1
        return inner

    def error(self, msg):
        raise ParseError(msg, self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self) -> Expr:
        e = self.parse_sum()
        if self.peek():
            self.error("unexpected trailing input")
        return e

    def parse_sum(self) -> Expr:
        left = self.parse_term()
        while True:
            c = self.peek()
            if not c or c not in "+-":
                return left
            pos = self.i
            self.i += 1
            right = self.parse_term()
            left = Binary("add" if c == "+" else "sub", left, right, pos)

    def parse_term(self) -> Expr:
        left = self.parse_unary()
        while True:
            c = self.peek()
            if not c or c not in "*/":
                return left
            pos = self.i
            self.i += 1
            right = self.parse_unary()
            left = Binary("mul" if c == "*" else "div", left, right, pos)

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            pos = self.i
            self.i += 1
            return Unary("neg", self.nested(self.parse_unary, pos), pos)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == "^":
            pos = self.i
            self.i += 1
            # right-associative; allow a unary minus in the exponent
            exponent = self.nested(self.parse_unary, pos)
            return Binary("pow", base, exponent, pos)
        return base

    def parse_atom(self) -> Expr:
        c = self.peek()
        pos = self.i
        if c == "(":
            self.i += 1
            e = self.nested(self.parse_sum, pos)
            if self.peek() != ")":
                self.error("expected ')'")
            self.i += 1
            return e
        if c.isdigit() or c == ".":
            return self.parse_number()
        if c.isalpha():
            return self.parse_ident()
        self.error("expected a number, variable, function or '('")

    def parse_number(self) -> Lit:
        pos = self.i
        j = self.i
        text = self.text
        while j < len(text) and (text[j].isdigit() or text[j] == "."):
            j += 1
        if j < len(text) and text[j] in "eE":
            k = j + 1
            if k < len(text) and text[k] in "+-":
                k += 1
            if k < len(text) and text[k].isdigit():
                while k < len(text) and text[k].isdigit():
                    k += 1
                j = k
        token = text[pos:j]
        try:
            value = float(token)
        except ValueError:
            self.error("malformed number %r" % token)
        self.i = j
        return Lit(value, pos)

    def parse_ident(self) -> Expr:
        pos = self.i
        j = self.i
        text = self.text
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        name = text[pos:j]
        self.i = j
        if len(name) == 2 and name[0] == "x" and name[1].isdigit() and name[1] != "0":
            return Var(int(name[1]) - 1, pos)
        if name in FUNCTIONS:
            if self.peek() != "(":
                self.error("function %r requires parenthesized argument" % name)
            self.i += 1
            arg = self.nested(self.parse_sum, pos)
            if self.peek() != ")":
                self.error("expected ')' closing call to %r" % name)
            self.i += 1
            return Call(name, arg, pos)
        self.error("unknown identifier %r" % name)


def parse(text: str) -> Expr:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    tree = _Parser(text).parse()
    stack = [(tree, 1)]  # chains of + and * deepen a tree without nesting
    while stack:
        node, depth = stack.pop()
        _check_depth(depth, node.pos)
        stack.extend((getattr(node, name), depth + 1) for name in
                     ("child", "left", "right", "arg") if hasattr(node, name))
    return tree


def _check_depth(depth, pos):
    if depth > MAX_DEPTH:
        raise ParseError("expression deeper than %d levels" % MAX_DEPTH, pos)


def _power(base, exponent):
    # on plain floats, as Jet2.__pow__ does: ** would return a complex number
    if (not isinstance(base, Jet2) and not isinstance(exponent, Jet2)
            and base <= 0.0 and not float(exponent).is_integer()):
        raise JetDomainError(
            "non-integer power of non-positive base %r" % base)
    return base ** exponent


_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "pow": _power}
_CALLS = {name: getattr(jets, name) for name in FUNCTIONS}


def eval_jet(e: Expr, coords):
    """Evaluate an expression at seeded coordinates (Jet2 or plain floats).

    A value outside an operation's domain, a division by zero and a float
    overflow raise ``EvalError`` at the offending node."""
    if isinstance(e, Lit):
        if coords and isinstance(coords[0], Jet2):
            return Jet2.constant(e.value, coords[0].dim)
        return e.value
    if isinstance(e, Var):
        if e.index >= len(coords):
            raise EvalError("variable x%d exceeds chart dimension %d"
                            % (e.index + 1, len(coords)), e.pos)
        return coords[e.index]
    if isinstance(e, Unary):
        return -eval_jet(e.child, coords)
    if isinstance(e, Binary):
        a = eval_jet(e.left, coords)
        b = eval_jet(e.right, coords)
        try:
            return _BINARY_OPS[e.op](a, b)
        except (JetDomainError, ArithmeticError) as err:
            raise EvalError(str(err), e.pos) from err
    if isinstance(e, Call):
        a = eval_jet(e.arg, coords)
        try:
            return _CALLS[e.func](a)
        except (JetDomainError, ArithmeticError) as err:
            raise EvalError("%s in call to %s" % (err, e.func), e.pos) from err
    raise TypeError("not an expression node: %r" % (e,))


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}
_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def to_text(e: Expr, _parent_prec: int = 0) -> str:
    """Canonical printer; ``parse(to_text(parse(s)))`` equals ``parse(s)``
    up to source offsets."""
    if isinstance(e, Lit):
        s = repr(e.value)
        return s[:-2] if s.endswith(".0") else s
    if isinstance(e, Var):
        return "x%d" % (e.index + 1)
    if isinstance(e, Unary):
        inner = to_text(e.child, 3)
        s = "-" + inner
        return "(" + s + ")" if _parent_prec > 3 else s
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        # print left/right with a bump where associativity demands parens
        ls = to_text(e.left, prec if e.op != "pow" else prec + 1)
        rs = to_text(e.right, prec + 1 if e.op != "pow" else prec)
        s = "%s %s %s" % (ls, _SYM[e.op], rs) if e.op != "pow" \
            else "%s^%s" % (ls, rs)
        return "(" + s + ")" if prec < _parent_prec else s
    if isinstance(e, Call):
        return "%s(%s)" % (e.func, to_text(e.arg))
    raise TypeError("not an expression node: %r" % (e,))


def max_var_index(e: Expr) -> int:
    """Highest zero-based variable index used, or -1 for constants."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return max_var_index(e.child)
    if isinstance(e, Binary):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Call):
        return max_var_index(e.arg)
    return -1
