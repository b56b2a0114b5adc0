"""Text syntax for polynomials and field elements.

Grammar: integer and rational literals, named variables, operators + - * / ^,
parentheses; whitespace is insignificant. Division requires a nonzero constant
divisor. The same renderer is used for CLI output and certificate files, and
parse(render(p)) == p.
"""

import re
from fractions import Fraction

from .errors import SosfieldError


class ParseError(SosfieldError):
    """Malformed textual input. Carries a human-readable position message."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()+\-*/^]))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, consts, one):
        self.toks = tokens
        self.i = 0
        self.consts = consts
        self.one = one

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            try:
                node = node * rhs if op == "*" else node / rhs
            except ZeroDivisionError:
                raise ParseError("division by zero in expression") from None
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal")
            return base**val
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.one * val
        if kind == "name":
            key = val.upper()
            if key not in self.consts:
                raise ParseError(f"unknown variable {val!r}")
            return self.consts[key]
        if (kind, val) == ("op", "("):
            node = self.expr()
            if self.take() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {val!r}")


def parse_in_algebra(text, consts, one):
    """Parse text into the algebra containing `one`; consts maps names to values."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    p = _Parser(_tokenize(text), consts, one)
    try:
        node = p.expr()
    except (ArithmeticError, TypeError, SosfieldError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"cannot evaluate expression: {e}") from None
    if p.peek() != ("end", None):
        raise ParseError(f"trailing input near token {p.peek()[1]!r}")
    return node


def parse_rational(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}") from None


def _scalar_text(c):
    """Render a coefficient; returns (sign, magnitude_text, needs_parens)."""
    from .extension import QuotElem
    from .fields import FqElem
    from .poly import RatFunc

    if isinstance(c, Fraction):
        sign = -1 if c < 0 else 1
        c = abs(c)
        if c.denominator == 1:
            return sign, str(c.numerator), False
        return sign, f"{c.numerator}/{c.denominator}", False
    if isinstance(c, int):
        return (-1 if c < 0 else 1), str(abs(c)), False
    if isinstance(c, FqElem):
        return 1, str(c.val), False
    if isinstance(c, RatFunc):
        if c.is_poly():
            return _poly_scalar_text(c.as_poly())
        return 1, f"({render_poly(c.num)})/({render_poly(c.den)})", False
    if isinstance(c, QuotElem):
        return _poly_scalar_text(c.rep())
    raise SosfieldError(f"no text rendering for {type(c).__name__}")


def _poly_scalar_text(p):
    """A polynomial appearing in coefficient position."""
    if p.degree() <= 0:
        return _scalar_text(p.coeff(0)) if not p.is_zero() else (1, "0", False)
    nz = [(i, a) for i, a in enumerate(p.coeffs) if a != p.field.zero()]
    if len(nz) == 1:
        i, a = nz[0]
        s, ct, parens = _scalar_text(a)
        if parens:
            ct = f"({ct})"
        v = p.var if i == 1 else f"{p.var}^{i}"
        return s, (v if ct == "1" else f"{ct}*{v}"), False
    return 1, render_poly(p), True


def render_scalar(c):
    sign, text, _ = _scalar_text(c)
    return f"-{text}" if sign < 0 else text


def render_poly(p):
    """Canonical text, highest degree first, e.g. 'T^2 - 2' or 'X^2 + 2*X + 2'."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p.coeff(i)
        if c == p.field.zero():
            continue
        sign, ctext, parens = _scalar_text(c)
        if parens:
            ctext = f"({ctext})"
        if i == 0:
            body = ctext
        else:
            v = p.var if i == 1 else f"{p.var}^{i}"
            body = v if ctext == "1" else f"{ctext}*{v}"
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts)
