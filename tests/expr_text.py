"""Canonical printer of parsed expressions, for the tests that check that
printing and parsing round-trip."""

from phmorph.exprs import Binary, Call, Expr, Lit, Unary, Var

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}
_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def to_text(e: Expr, _parent_prec: int = 0) -> str:
    """The text of ``e``; ``parse(to_text(parse(s)))`` equals ``parse(s)``
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
