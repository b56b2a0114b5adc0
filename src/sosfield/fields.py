"""Coefficient fields: exact rationals and odd prime fields.

A "field object" bundles construction and canonical ordering for one
coefficient domain; elements themselves carry the arithmetic through operator
overloading. Polynomials and quotient rings are generic over this protocol:

    zero(), one(), from_int(n), coerce(x) -> element or None
    char, order() (None when infinite)
    sort_key(x) -> tuple, rand(rng) -> element

Rationals are stdlib Fraction; prime fields use FqElem with q an odd prime.
"""

import random
from fractions import Fraction

from .errors import DegenerateInputError, clipped
from .numtheory import is_prime, is_square_int


class RationalField:
    """The field of rational numbers, elements are fractions.Fraction."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        return None

    def order(self):
        return None

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def rand(self, rng, height=20):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


def rat_is_square(x):
    """Whether the rational x is a square of a rational."""
    return x >= 0 and is_square_int(x.numerator) and is_square_int(x.denominator)


class FqElem:
    """An element of F_q, q an odd prime. Immutable, hashable."""

    __slots__ = ("val", "q")

    def __init__(self, val, q):
        self.val = val % q
        self.q = q

    def _check(self, other):
        if isinstance(other, int):
            return FqElem(other, self.q)
        if isinstance(other, FqElem):
            if other.q != self.q:
                raise DegenerateInputError("mixed moduli")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.val + other.val, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.val - other.val, self.q)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FqElem(self.val * other.val, self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return FqElem(-self.val, self.q)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_q")
        return FqElem(self.val * pow(other.val, -1, self.q), self.q)

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        if n < 0:
            return (FqElem(1, self.q) / self) ** (-n)
        return FqElem(pow(self.val, n, self.q), self.q)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.val == other % self.q
        return isinstance(other, FqElem) and other.q == self.q and other.val == self.val

    def __hash__(self):
        return hash((self.val, self.q))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val}"


class FqField:
    """Field object for F_q, q an odd prime."""

    def __init__(self, q):
        if q == 2 or not is_prime(q):
            raise DegenerateInputError(f"q = {clipped(str(q))} must be an odd prime")
        self.q = q
        self.char = q

    @classmethod
    def of_prime(cls, q):
        """F_q for an odd q the caller has proved prime, with no second proof."""
        F = cls.__new__(cls)
        F.q = F.char = q
        return F

    def zero(self):
        return FqElem(0, self.q)

    def one(self):
        return FqElem(1, self.q)

    def from_int(self, n):
        return FqElem(n, self.q)

    def coerce(self, x):
        if isinstance(x, FqElem) and x.q == self.q:
            return x
        if isinstance(x, int):
            return FqElem(x, self.q)
        if isinstance(x, Fraction):
            if x.denominator % self.q == 0:
                raise ZeroDivisionError("denominator vanishes in F_q")
            return FqElem(x.numerator, self.q) / FqElem(x.denominator, self.q)
        return None

    def order(self):
        return self.q

    def sort_key(self, x):
        return (x.val,)

    def rand(self, rng, height=None):
        return FqElem(rng.randrange(self.q), self.q)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FqField) and other.q == self.q

    def __hash__(self):
        return hash(("Fq", self.q))


def field_sqrt(F, a):
    """Square root in a finite field object F (odd order), or None.

    Generic Tonelli-Shanks driven only by the field protocol, with its
    nonresidue drawn from F.rand under a fixed seed; returns the canonically
    smaller root (by F.sort_key), which no choice of nonresidue changes.
    """
    n = F.order()
    one, minus_one = F.one(), -F.one()
    if a == F.zero():
        return a
    if a ** ((n - 1) // 2) != one:
        return None
    if n % 4 == 3:
        r = a ** ((n + 1) // 4)
        return min(r, -r, key=F.sort_key)
    q, s = n - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    rng = random.Random(0)
    c = F.rand(rng)
    while c ** ((n - 1) // 2) != minus_one:
        c = F.rand(rng)
    c = c ** q
    m, t, r = s, a ** q, a ** ((q + 1) // 2)
    while t != one:
        t2, i = t * t, 1
        while t2 != one:
            t2 = t2 * t2
            i += 1
        b = c ** (1 << (m - i - 1))
        m, c = i, b * b
        t, r = t * c, r * b
    return min(r, -r, key=F.sort_key)
