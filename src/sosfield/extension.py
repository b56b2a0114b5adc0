"""Global bases and finite extensions presented as quotient rings.

A GlobalBase is E = Q (ring Z) or E = k(X) (ring k[X]) with k in {Q, F_q}.
An extension K = E[T]/(f) is a QuotientRing over the fraction field of the
base; the same QuotientRing machinery also serves residue fields k[x]/(pi).
Reducibility of a modulus is detected lazily: inverting a zero divisor raises
ZeroDivisorError carrying the discovered factor.
"""

import itertools
import math
from fractions import Fraction

from .errors import DegenerateInputError, ZeroDivisorError
from .fields import QQ, FqField
from .poly import Poly, RatFunc, RatFuncField, discriminant, poly_ext_gcd, poly_gcd, resultant


class GlobalBase:
    """The base field E together with its ring of integers R."""

    def __init__(self, kind, k=None):
        if kind not in ("Q", "FF"):
            raise DegenerateInputError(f"unknown base kind {kind!r}")
        if kind == "FF" and k is None:
            raise DegenerateInputError("function field base needs a constant field")
        self.kind = kind
        self.k = k
        self._frac = QQ if kind == "Q" else RatFuncField(k, "X")

    @classmethod
    def from_label(cls, label):
        if label == "Q":
            return cls("Q")
        if label == "QX":
            return cls("FF", QQ)
        if label.startswith("Fq:"):
            try:
                q = int(label[3:])
            except ValueError:
                raise DegenerateInputError(f"unknown base label {label!r}") from None
            return cls("FF", FqField(q))
        raise DegenerateInputError(f"unknown base label {label!r}")

    @property
    def label(self):
        if self.kind == "Q":
            return "Q"
        if self.k == QQ:
            return "QX"
        return f"Fq:{self.k.q}"

    @property
    def char(self):
        return 0 if self.kind == "Q" or self.k == QQ else self.k.q

    def fraction_field(self):
        return self._frac

    def is_integral(self, e):
        """Whether the fraction-field element e lies in the base ring R."""
        if self.kind == "Q":
            return e.denominator == 1
        return e.is_poly()

    def to_ring(self, e):
        if self.kind == "Q":
            if e.denominator != 1:
                raise DegenerateInputError(f"{e} is not an integer")
            return e.numerator
        return e.as_poly()

    def from_ring(self, r):
        if self.kind == "Q":
            return Fraction(r)
        return RatFunc(r)

    def ring_one(self):
        return 1 if self.kind == "Q" else Poly(self.k, [self.k.one()], "X")

    def ring_zero(self):
        return 0 if self.kind == "Q" else Poly(self.k, [], "X")

    def is_ring_element(self, r):
        if self.kind == "Q":
            return isinstance(r, int)
        return isinstance(r, Poly) and r.field == self.k and r.var == "X"

    def ring_sort_key(self, r):
        return r if self.kind == "Q" else r.sort_key()

    def common_denominator(self, elems):
        """A base-ring element d with d*e integral for every e given."""
        if self.kind == "Q":
            d = 1
            for e in elems:
                d = d * e.denominator // math.gcd(d, e.denominator)
            return d
        d = Poly(self.k, [self.k.one()], "X")
        for e in elems:
            g = poly_gcd(d, e.den)
            d = (d * e.den) // g if g.degree() > 0 else d * e.den
        return d.monic()

    def __eq__(self, other):
        return isinstance(other, GlobalBase) and other.kind == self.kind and other.k == self.k

    def __hash__(self):
        return hash(("GlobalBase", self.kind, self.k))

    def __repr__(self):
        return self.label


class QuotElem:
    """An element of F[v]/(m), stored as a coordinate tuple of length deg m."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        coords = list(coords)
        if len(coords) > ring.deg:
            raise DegenerateInputError("coordinate vector too long")
        zero = ring.F.zero()
        coords += [zero] * (ring.deg - len(coords))
        self.ring = ring
        self.coords = tuple(ring.F.coerce(c) for c in coords)

    def rep(self):
        """The canonical representative polynomial, degree < deg m."""
        return Poly(self.ring.F, self.coords, self.ring.var)

    def _wrap(self, other):
        if isinstance(other, QuotElem):
            if other.ring != self.ring:
                raise DegenerateInputError("mixed quotient rings")
            return other
        c = self.ring.coerce(other)
        return c if c is not None else NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return QuotElem(self.ring, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return QuotElem(self.ring, [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return QuotElem(self.ring, [-a for a in self.coords])

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.from_poly(self.rep() * other.rep())

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.coords):
            raise ZeroDivisionError("inverting zero in quotient ring")
        g, s, _ = poly_ext_gcd(self.rep(), self.ring.modulus)
        if g.degree() > 0:
            raise ZeroDivisorError(
                f"zero divisor: modulus has factor {g!r}", factor=g
            )
        return self.ring.from_poly(s)

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result, base = self.ring.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, QuotElem) and other.ring != self.ring:
            return False
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return repr(self.rep())


class QuotientRing:
    """F[v]/(m) for a monic modulus m of degree >= 1; a field when m is irreducible."""

    def __init__(self, F, modulus):
        if modulus.degree() < 1:
            raise DegenerateInputError("quotient modulus must have degree >= 1")
        if not modulus.is_monic():
            raise DegenerateInputError("quotient modulus must be monic")
        self.F = F
        self.modulus = modulus
        self.var = modulus.var
        self.deg = modulus.degree()

    @property
    def char(self):
        return self.F.char

    def zero(self):
        return QuotElem(self, [])

    def one(self):
        return QuotElem(self, [self.F.one()])

    def from_int(self, n):
        return QuotElem(self, [self.F.from_int(n)])

    def gen(self):
        if self.deg == 1:
            return QuotElem(self, [-self.modulus.coeff(0)])
        return QuotElem(self, [self.F.zero(), self.F.one()])

    def from_poly(self, p):
        if p.field != self.F or p.var != self.var:
            raise DegenerateInputError("polynomial from wrong domain")
        return QuotElem(self, (p % self.modulus).coeffs)

    def coerce(self, x):
        if isinstance(x, QuotElem):
            return x if x.ring == self else None
        if isinstance(x, Poly):
            if x.field == self.F and x.var == self.var:
                return self.from_poly(x)
            return None
        c = self.F.coerce(x)
        if c is None:
            return None
        return QuotElem(self, [c])

    def order(self):
        base = self.F.order()
        return None if base is None else base**self.deg

    def elements(self):
        """All elements, constants first, then ascending by degree-major order."""
        for tup in itertools.product(list(self.F.elements()), repeat=self.deg):
            yield QuotElem(self, tup[::-1])

    def sort_key(self, x):
        return tuple(self.F.sort_key(c) for c in reversed(x.coords))

    def rand(self, rng, height=20):
        return QuotElem(self, [self.F.rand(rng) for _ in range(self.deg)])

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.F == self.F
            and other.modulus.coeffs == self.modulus.coeffs
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("QuotientRing", self.F, self.var, self.modulus.coeffs))

    def __repr__(self):
        return f"{self.F!r}[{self.var}]/({self.modulus!r})"


def field_norm(x):
    """Norm of a quotient-ring element down to the coefficient field.

    With monic modulus m, this is Res(m, rep(x)) = product of rep over the
    roots of m; multiplicative, and equal to c**deg(m) on scalars c.
    """
    return resultant(x.ring.modulus, x.rep())


def _root_bound(f):
    """Degree bound for base-ring roots of a monic f over k(X)."""
    d, bound = f.degree(), 0
    for i in range(d):
        a = f.coeff(i)
        if a != f.field.zero():
            bound = max(bound, -(-a.num.degree() // (d - i)))
    return bound


def _ratfunc_roots(base, f):
    """All roots in k[X] of a monic f of degree <= 3 over k[X], possibly repeated.

    k[X] is integrally closed, so every root of f in k(X) lies in k[X], with
    degree at most _root_bound(f).  For separable f take the first place pi
    not dividing disc(f): a root reduces to a simple residue root mod pi, whose
    unique Hensel lift to precision bound // deg pi + 1 is the root itself
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    """
    from .factor import fq_roots
    from .local import BasePlace, hensel_lift_root
    from .split import SearchBudget, _candidate_uniformizers, number_field_roots

    E, k = f.field, base.k
    if not f.derivative():
        # char 3 and f = T^3 + c: a root exists iff -c is a cube, i.e. lies in k[X^3]
        c = -f.coeff(0).as_poly()
        if any(a for i, a in enumerate(c.coeffs) if i % 3):
            return []
        return [Poly(k, c.coeffs[::3], "X")]
    disc = discriminant(f)
    if not disc:
        # a repeated factor of a polynomial of degree <= 3 is linear
        g = poly_gcd(f, f.derivative())
        a = -(g if g.degree() == 1 else f // g).coeff(0)
        rest = f // Poly(E, [-a, E.one()], "T") ** 2
        roots = [a] if rest.degree() == 0 else [a, -rest.coeff(0)]
        return [r.as_poly() for r in roots]
    budget = SearchBudget(max_size=disc.num.degree() + 1)
    pi = next(p for p in _candidate_uniformizers(base, budget) if disc.num % p)
    place = BasePlace(base, pi)
    fbar = place.reduce_poly(f)
    R = place.residue_field()
    residue_roots = fq_roots(fbar) if R.order() is not None else number_field_roots(R, fbar)
    bound = _root_bound(f)
    roots = []
    for r in residue_roots:
        g = hensel_lift_root(place, f, r, bound // pi.degree() + 1).value
        if g.degree() <= bound and not f(RatFunc(g)):
            roots.append(g)
    return roots


def verify_irreducible(base, f):
    """Try to decide irreducibility of a monic f with base-ring coefficients.

    Returns (status, factor): status is 'verified' or 'asserted'; a discovered
    proper factor is returned instead of raising so callers can report it.
    """
    if f.degree() == 1:
        return "verified", None
    if base.kind == "Q":
        from .factor import factor_q

        fac = factor_q(f)
        if len(fac.factors) == 1 and fac.factors[0][1] == 1:
            return "verified", None
        return "reducible", fac.factors[0][0]
    if f.degree() > 3:
        return "asserted", None
    roots = _ratfunc_roots(base, f)
    if roots:
        g = min(roots, key=Poly.sort_key)
        t_minus_root = Poly(f.field, [-RatFunc(g), f.field.one()], "T")
        return "reducible", t_minus_root
    return "verified", None


class ExtField(QuotientRing):
    """K = E[T]/(f): f monic with coefficients in the base ring R."""

    def __init__(self, base, f, irreducibility="auto"):
        E = base.fraction_field()
        if f.field != E or f.var != "T":
            raise DegenerateInputError("defining polynomial must live in E[T]")
        if not f.is_monic():
            raise DegenerateInputError("defining polynomial must be monic")
        for c in f.coeffs:
            if not base.is_integral(c):
                raise DegenerateInputError(
                    f"coefficient {c!r} is not in the base ring"
                )
        super().__init__(E, f)
        self.base = base
        self.f = f
        if irreducibility == "asserted":
            self.irreducibility_status = "asserted"
        elif irreducibility in ("auto", "verified"):
            status, factor = verify_irreducible(base, f)
            if status == "reducible":
                raise DegenerateInputError(f"{f!r} is reducible: factor {factor!r}")
            if status == "asserted" and irreducibility == "verified":
                raise DegenerateInputError(f"cannot verify irreducibility of {f!r}")
            self.irreducibility_status = status
        else:
            raise DegenerateInputError(f"unknown irreducibility mode {irreducibility!r}")
        self.disc = discriminant(f)

    def from_base(self, e):
        """Embed a base fraction-field element as a constant."""
        c = self.F.coerce(e)
        if c is None:
            raise DegenerateInputError(f"{e!r} is not a base field element")
        return QuotElem(self, [c])

    def __repr__(self):
        return f"{self.base.label}[T]/({self.f!r})"

