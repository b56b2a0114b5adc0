"""Text syntax for polynomials and field elements.

Grammar (whitespace is insignificant, variable names are case-insensitive):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-" unary | power
    power := atom ["^" INT]
    atom  := INT | T | X | "(" expr ")"

Text is read without arithmetic in the target algebra: into a sparse value,
a numerator {(deg_T, deg_X): c} with c in the constant field k and a monic
denominator {(0, deg_X): c} free of T.  So a divisor must be nonzero and free
of T (a constant, or a polynomial in X as `render_scalar` writes k(X)
coefficients), and coefficients are computed in k from the start: `7/7` over
F_7 divides by zero.  Each consumer then builds one Poly and reduces it
once.  Every cap is checked while parsing, before any arithmetic in the
target field, and breaking one raises ParseError naming the character
position (work is charged before each product or sum; degrees and
coefficient sizes are checked as each product or sum produces them):

    MAX_DIGITS = 1000    digits in one integer literal
    MAX_DEGREE = 256     each exponent, and the T- and X-degree of every value
    MAX_BITS = 8192      numerator and denominator of every rational coefficient
    MAX_WORK = 100000    coefficient products and sums in one text

A rational number is

    rational := [SIGN] (DIGITS ["/" DIGITS | "." [DIGITS]] | "." DIGITS)

with optional blanks around it, ASCII digits and no exponent (`1e3`, `1_000`
and `0x10` are malformed).  parse_rational (CLI input) takes at most
MAX_DIGITS digits in each run, read_rational (certificate strings) as many as
int() reads: the tool writes squares of the rationals it is given.

The same renderer is used for CLI output and certificate files, and
parse(render(p)) == p.
"""

import re
from fractions import Fraction

from .errors import SosfieldError
from .poly import Poly, RatFunc, RatFuncField

# Python's int() refuses more than 4,300 digits; MAX_BITS keeps every parsed
# coefficient printable (8,192 bits is about 2,466 digits).
MAX_DIGITS = 1000
MAX_DEGREE = 256
MAX_BITS = 8192
MAX_WORK = 100_000


class ParseError(SosfieldError):
    """Malformed textual input. Carries a human-readable position message."""


_TOKEN = re.compile(r"(\d+)|([A-Za-z]+)|([()+\-*/^])")
_RATIONAL = re.compile(r"\s*[-+]?(?:([0-9]+)(?:/([0-9]+)|\.([0-9]*))?|\.([0-9]+))\s*")
_SPACE = re.compile(r"\s*")


def _tokenize(text):
    """(kind, value, position) triples, closed by ('end', None, len(text))."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        digits, name, op = m.groups()
        if digits is not None:
            if len(digits) > MAX_DIGITS:
                raise ParseError(
                    f"integer literal of more than {MAX_DIGITS} digits at position {pos}"
                )
            out.append(("int", int(digits), pos))
        elif name is not None:
            out.append(("name", name, pos))
        else:
            out.append(("op", op, pos))
        pos = _SPACE.match(text, m.end()).end()
    out.append(("end", None, pos))
    return out


class _Reader:
    """Recursive descent to (num, den) sparse values over k.

    Values own their numerator dicts (sums update the left one in place);
    denominators are never mutated, so the unit denominator is shared.
    """

    def __init__(self, text, k, names):
        self.toks = _tokenize(text)
        self.i = 0
        self.names = names
        self.one = k.one()
        self.from_int = k.from_int
        self.unit = {(0, 0): self.one}
        self.rational = isinstance(self.one, Fraction)
        self.work = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, what, pos):
        raise ParseError(f"{what} at position {pos}")

    def charge(self, n, pos):
        self.work += n
        if self.work > MAX_WORK:
            self.fail(f"more than {MAX_WORK} coefficient operations", pos)

    def fits(self, c, pos):
        bits = max(c.numerator.bit_length(), c.denominator.bit_length()) if self.rational else 0
        if bits > MAX_BITS:
            self.fail(f"coefficient of more than {MAX_BITS} bits", pos)

    def mul(self, a, b, pos):
        self.charge(len(a) * len(b), pos)
        out = {}
        for (i, j), c in a.items():
            for (u, v), d in b.items():
                key = (i + u, j + v)
                e = out.get(key)
                out[key] = c * d if e is None else e + c * d
        for (i, j), c in out.items():
            if i > MAX_DEGREE or j > MAX_DEGREE:
                self.fail(f"degree above {MAX_DEGREE}", pos)
            self.fits(c, pos)
        return {key: c for key, c in out.items() if c}

    def add(self, a, b, pos):
        """a + b, written into a's numerator."""
        (an, ad), (bn, bd) = a, b
        if ad != bd:
            an, ad, bn = self.mul(an, bd, pos), self.mul(ad, bd, pos), self.mul(bn, ad, pos)
        self.charge(len(bn), pos)
        for key, c in bn.items():
            e = an.get(key)
            if e is None:
                an[key] = c
                continue
            e += c
            if e:
                self.fits(e, pos)
                an[key] = e
            else:
                del an[key]
        return an, ad

    def neg(self, a):
        return {key: -c for key, c in a[0].items()}, a[1]

    def times(self, a, b, pos):
        (an, ad), (bn, bd) = a, b
        if ad is self.unit or bd is self.unit:
            return self.mul(an, bn, pos), (bd if ad is self.unit else ad)
        return self.mul(an, bn, pos), self.mul(ad, bd, pos)

    def div(self, a, b, pos):
        (an, ad), (bn, bd) = a, b
        if not bn:
            self.fail("division by zero in expression", pos)
        if any(i for i, _ in bn):
            self.fail("divisor involves T", pos)
        num, den = self.mul(an, bd, pos), self.mul(ad, bn, pos)
        lead = den[max(den)]
        if lead != self.one:
            inv = self.one / lead
            num, den = self.mul(num, {(0, 0): inv}, pos), self.mul(den, {(0, 0): inv}, pos)
        return num, (self.unit if len(den) == 1 and (0, 0) in den else den)

    def pow(self, a, e, pos):
        num, den = a
        if e == 0:
            return {(0, 0): self.one}, self.unit
        return self._pow(num, e, pos), (den if den is self.unit else self._pow(den, e, pos))

    def _pow(self, p, e, pos):
        """p^e for e >= 1 by squaring; each product is charged and checked."""
        out = None
        while True:
            if e & 1:
                out = p if out is None else self.mul(out, p, pos)
            e >>= 1
            if not e:
                return out
            p = self.mul(p, p, pos)

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, pos = self.take()
            rhs = self.term()
            node = self.add(node, rhs if op == "+" else self.neg(rhs), pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.take()
            rhs = self.unary()
            node = self.div(node, rhs, pos) if op == "/" else self.times(node, rhs, pos)
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return self.neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, pos = self.take()
            if kind != "int":
                self.fail("exponent must be a nonnegative integer literal", pos)
            if val > MAX_DEGREE:
                self.fail(f"exponent above {MAX_DEGREE}", pos)
            return self.pow(base, val, pos)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            c = self.from_int(val)
            return ({(0, 0): c} if c else {}), self.unit
        if kind == "name":
            key = val.upper()
            if key not in self.names:
                self.fail(f"unknown variable {val!r}", pos)
            return {(1, 0) if key == "T" else (0, 1): self.one}, self.unit
        if (kind, val) == ("op", "("):
            node = self.expr()
            kind, val, pos = self.take()
            if (kind, val) != ("op", ")"):
                self.fail("missing closing parenthesis", pos)
            return node
        if kind == "end":
            self.fail("unexpected end of input", pos)
        self.fail(f"unexpected token {val!r}", pos)


def _parse(text, k, names):
    """Text in the variables `names` ("T", "X" or "TX") as a (num, den) sparse value."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    r = _Reader(text, k, names)
    node = r.expr()
    kind, val, pos = r.peek()
    if kind != "end":
        r.fail(f"trailing input near token {val!r}", pos)
    return node


def _dense(terms, axis, k):
    """Coefficient list, lowest degree first, of the terms {(i, j): c} along one axis."""
    if not terms:
        return []
    out = [k.zero()] * (max(key[axis] for key in terms) + 1)
    for key, c in terms.items():
        out[key[axis]] = c
    return out


def parse_poly(text, E):
    """A polynomial in T over E = k, or over E = k(X) with X allowed in the text."""
    if not isinstance(E, RatFuncField):
        num, _ = _parse(text, E, "T")  # a T-free divisor over k is a constant
        return Poly(E, _dense(num, 0, E), "T")
    k = E.k
    num, den = _parse(text, k, "TX")
    den = Poly(k, _dense(den, 1, k), E.var)
    cols = {}
    for (i, j), c in num.items():
        cols.setdefault(i, {})[(0, j)] = c
    coeffs = [E.zero()] * (max(cols, default=-1) + 1)
    for i, col in cols.items():
        coeffs[i] = RatFunc(Poly(k, _dense(col, 1, k), E.var), den)
    return Poly(E, coeffs, "T")


def parse_fraction(text, k, var="X"):
    """(num, den), polynomials in var over k, den monic, from text in X alone."""
    num, den = _parse(text, k, "X")
    return Poly(k, _dense(num, 1, k), var), Poly(k, _dense(den, 1, k), var)


def read_rational(text):
    """The rational number written in `text`, by the grammar in the module docstring."""
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):  # ValueError: past int()'s digit limit
            pass
    raise ParseError(f"not a rational number: {text!r}")


def parse_rational(text):
    """read_rational, with at most MAX_DIGITS digits in each run."""
    m = _RATIONAL.fullmatch(text)
    if m and any(len(run or "") > MAX_DIGITS for run in m.groups()):
        raise ParseError(f"rational with a run of more than {MAX_DIGITS} digits")
    return read_rational(text)


def _scalar_text(c):
    """Render a coefficient; returns (sign, magnitude_text, needs_parens)."""
    from .extension import QuotElem
    from .fields import FqElem

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
