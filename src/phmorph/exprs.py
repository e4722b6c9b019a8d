"""Tiny scalar-field expression language over chart coordinates x1..x9:
sin, cos, exp, log, sqrt, parentheses, ASCII decimal literals, variables
x1..x9 and, loosest first, ``+ -`` and ``* /`` (left-associative), unary
``-`` and ``^`` (right-associative).  No implicit multiplication.

One loop over the rows of ``_BINARY_ROWS``, loosest first, reads the
left-associative operators; a unary is ``-`` and a unary, or an atom with an
optional ``^`` whose exponent is again a unary (``2^3^2`` is ``2^(3^2)``).
``MAX_DEPTH`` bounds the nesting of signs, powers, parentheses and calls
while parsing, then the depth of the tree, which chains of ``+`` and ``*``
deepen without nesting: the parser and the walks below stay within the
recursion limit.  Trees are immutable; ``eval_jet`` reads them on jets.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from . import jets
from .jets import Jet2, JetDomainError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
MAX_DEPTH = 100  # the deepest nesting and the deepest tree a parse accepts
_TOO_DEEP = "expression deeper than %d levels" % MAX_DEPTH


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


_BINARY_ROWS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})
_NUMBER = re.compile(r"[0-9.]*(?:[eE][+-]?[0-9]+)?")  # ASCII digits only
_IDENT = re.compile(r"\w*")  # the characters that are isalnum() or "_"


class _Parser:
    def __init__(self, text: str):
        self.text, self.i, self.level = text, 0, 0

    def nested(self, parse_inner, pos):
        """``parse_inner()`` one nesting level deeper."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, pos)
        inner = parse_inner()
        self.level -= 1
        return inner

    def peek(self):
        """The next character that is not a space, moved to, or ""."""
        c = self.text[self.i:self.i + 1]
        while c.isspace():
            self.i += 1
            c = self.text[self.i:self.i + 1]
        return c

    def take(self):
        """The offset of the current character, stepped past."""
        self.i += 1
        return self.i - 1

    def expect(self, char, message):
        if self.peek() != char:
            raise ParseError(message, self.i)
        self.i += 1

    def scan(self, pattern):
        """The text ``pattern`` matches here and its offset, stepped past."""
        pos = self.i
        self.i = pattern.match(self.text, pos).end()
        return self.text[pos:self.i], pos

    def parse_binary(self, row=0) -> Expr:
        """A chain of the operators of ``_BINARY_ROWS[row:]``, or a unary."""
        if row == len(_BINARY_ROWS):
            return self.parse_unary()
        ops = _BINARY_ROWS[row]
        left = self.parse_binary(row + 1)
        while (c := self.peek()) in ops:
            pos = self.take()
            left = Binary(ops[c], left, self.parse_binary(row + 1), pos)
        return left

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            pos = self.take()
            return Unary("neg", self.nested(self.parse_unary, pos), pos)
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        pos = self.take()
        return Binary("pow", base, self.nested(self.parse_unary, pos), pos)

    def parse_atom(self) -> Expr:
        c = self.peek()
        if "0" <= c <= "9" or c == ".":
            return self.parse_number()
        if c.isalpha():
            return self.parse_ident()
        pos = self.i
        self.expect("(", "expected a number, variable, function or '('")
        e = self.nested(self.parse_binary, pos)
        self.expect(")", "expected ')'")
        return e

    def parse_number(self) -> Lit:
        token, pos = self.scan(_NUMBER)
        try:
            return Lit(float(token), pos)
        except ValueError:
            raise ParseError("malformed number %r" % token, pos)

    def parse_ident(self) -> Expr:
        name, pos = self.scan(_IDENT)
        if len(name) == 2 and name[0] == "x" and "1" <= name[1] <= "9":
            return Var(int(name[1]) - 1, pos)
        if name not in FUNCTIONS:
            raise ParseError("unknown identifier %r" % name, pos)
        self.expect("(", "function %r requires parenthesized argument" % name)
        arg = self.nested(self.parse_binary, pos)
        self.expect(")", "expected ')' closing call to %r" % name)
        return Call(name, arg, pos)


def _children(e: Expr):
    """The subtrees of a node, in the order of its fields."""
    if isinstance(e, Binary):
        return e.left, e.right
    if isinstance(e, Unary):
        return (e.child,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def parse(text: str) -> Expr:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    tree = parser.parse_binary()
    if parser.peek():
        raise ParseError("unexpected trailing input", parser.i)
    stack = [(tree, 1)]  # chains of + and * deepen a tree without nesting
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, node.pos)
        stack.extend((child, depth + 1) for child in _children(node))
    return tree


_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "pow": lambda a, b: (
                   jets.exp(jets.log(a) * b) if isinstance(b, Jet2)
                   else a ** b)}
_CALLS = {name: getattr(jets, name) for name in FUNCTIONS}


def eval_jet(e: Expr, coords):
    """Evaluate an expression as a Jet2 at seeded Jet2 coordinates
    (``jets.seed_coordinates``): the value with its derivatives.

    A value outside an operation's domain, a division by zero and a float
    overflow raise ``EvalError`` at the offending node.  The jets have the
    coordinates' order; a literal beside a jet enters the operation as its
    float, so no constant jet is built for it, except as a power's base
    (a jet has no reflected power).  A power's exponent with no variable
    is a number, and one with a variable is a jet, whatever its derivatives
    at the point, taken through exp(log(base) * exponent): both orders take
    one route."""
    if isinstance(e, Lit):
        return Jet2.constant(e.value, coords[0].dim, coords[0].order)
    if isinstance(e, Var):
        if e.index >= len(coords):
            raise EvalError("variable x%d exceeds chart dimension %d"
                            % (e.index + 1, len(coords)), e.pos)
        return coords[e.index]
    if isinstance(e, Unary):
        return -eval_jet(e.child, coords)
    if isinstance(e, Binary):
        left, right = e.left, e.right
        a = (left.value if isinstance(left, Lit) and e.op != "pow"
             and not isinstance(right, Lit) else eval_jet(left, coords))
        b = (right.value if isinstance(right, Lit)
             and not isinstance(left, Lit) else eval_jet(right, coords))
        if e.op == "pow" and isinstance(b, Jet2) and max_var_index(right) < 0:
            b = float(b.value)
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


def max_var_index(e: Expr) -> int:
    """Highest zero-based variable index used, or -1 for constants."""
    if isinstance(e, Var):
        return e.index
    index = -1
    for child in _children(e):
        child_index = max_var_index(child)
        if child_index > index:
            index = child_index
    return index
