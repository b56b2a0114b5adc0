"""Global bases and finite extensions presented as quotient rings.

A GlobalBase is E = Q (ring Z) or E = k(X) (ring k[X]) with k in {Q, F_q}.
An extension K = E[T]/(f) is a QuotientRing over the fraction field of the
base; the same QuotientRing machinery also serves residue fields k[x]/(pi).
A QuotElem stores its representative packed by the kernel that poly._kernel
picks for the coefficient field (int lists mod p over F_p; ints over one
denominator over Q, for number fields Q[T]/(f) and the residue fields
Q[x]/(pi) of Q(X); lists of RatFunc over k(X)), and its coordinates are
unpacked only when read.  A product is one mulrem by the packed modulus, an
inverse one extended gcd and a power one modular square-and-multiply.
Reducibility of a modulus is detected lazily: inverting a zero divisor
raises ZeroDivisorError carrying the discovered factor.
"""

import functools
import math
import re
from fractions import Fraction

from .errors import DegenerateInputError, ZeroDivisorError, clipped
from .fields import QQ, FqField
from .numtheory import _PSI_13, is_prime, trial_divide
from .poly import (
    Poly,
    RatFunc,
    RatFuncField,
    _coerced,
    _kernel,
    discriminant,
    poly_gcd,
    resultant,
)


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
        if re.fullmatch(r"Fq:[1-9][0-9]*", label):
            try:
                return cls("FF", FqField(int(label[3:])))
            except ValueError:  # more digits than int() converts
                pass
        raise DegenerateInputError(f"unknown base label {clipped(label)!r}")

    @property
    def label(self):
        if self.kind == "Q":
            return "Q"
        if self.k == QQ:
            return "QX"
        return f"Fq:{self.k.q}"

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

    def ring_zero(self):
        return 0 if self.kind == "Q" else Poly(self.k, [], "X")

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
    """An element of F[v]/(m), stored packed by the ring's kernel.

    _p is the packed representative of degree < deg m; coords, the coordinate
    tuple of length deg m, is unpacked from it on first read and cached.
    """

    __slots__ = ("ring", "_p", "_cs")

    def __init__(self, ring, coords):
        coords = list(coords)
        if len(coords) > ring.deg:
            raise DegenerateInputError("coordinate vector too long")
        self.ring = ring
        self._p = ring._k.pack(_coerced(ring.F, coords))
        self._cs = None

    @property
    def coords(self):
        cs = self._cs
        if cs is None:
            R = self.ring
            cs = R._k.unpack(self._p)
            cs = self._cs = tuple(cs) + R._pad[len(cs)]
        return cs

    def rep(self):
        """The canonical representative polynomial, degree < deg m."""
        return Poly(self.ring.F, self.coords, self.ring.var)

    def _packed(self, other):
        """Packed value of an element of the ring or of a coercible value, else NotImplemented."""
        if isinstance(other, QuotElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DegenerateInputError("mixed quotient rings")
            return other._p
        c = self.ring.coerce(other)
        return NotImplemented if c is None else c._p

    def __add__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        R = self.ring
        return R._make(R._k.add(self._p, P))

    __radd__ = __add__

    def __sub__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        R = self.ring
        return R._make(R._k.sub(self._p, P))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        R = self.ring
        return R._make(R._k.sub(R._k.zero, self._p))

    def __mul__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        R = self.ring
        return R._make(R._k.mulrem(self._p, P, R._m))

    __rmul__ = __mul__

    def inverse(self):
        R = self.ring
        k = R._k
        if k.is_zero(self._p):
            raise ZeroDivisionError("inverting zero in quotient ring")
        g, s, _ = k.ext_gcd(self._p, R._m)
        if k.degree(g) > 0:
            g = Poly(R.F, k.unpack(g), R.var)
            raise ZeroDivisorError(f"zero divisor: modulus has factor {g!r}", factor=g)
        return R._make(s)

    def __truediv__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self * self.ring._make(P).inverse()

    def __rtruediv__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self.ring._make(P) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        R = self.ring
        return R._make(R._k.pow_mod(self._p, n, R._m))

    def __eq__(self, other):
        if isinstance(other, QuotElem) and other.ring is not self.ring:
            if other.ring != self.ring:
                return False
            if type(other.ring._k) is not type(self.ring._k):  # an equal ring on another kernel
                return self.coords == other.coords
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._p == P

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __bool__(self):
        return not self.ring._k.is_zero(self._p)

    def __repr__(self):
        return repr(self.rep())


class QuotientRing:
    """F[v]/(m) for a monic modulus m of degree >= 1; a field when m is irreducible.

    The arithmetic runs on poly's kernel for F: _k is that kernel, _m is m's
    packed value, and _make builds an element from a packed value.
    """

    def __init__(self, F, modulus):
        if modulus.degree() < 1:
            raise DegenerateInputError("quotient modulus must have degree >= 1")
        if not modulus.is_monic():
            raise DegenerateInputError("quotient modulus must be monic")
        self.F = F
        self.modulus = modulus
        self.var = modulus.var
        self.deg = modulus.degree()
        self._k = _kernel(F)
        self._m = modulus._p
        # _pad[k] fills a k-entry coordinate list up to deg entries
        self._pad = tuple((F.zero(),) * (self.deg - k) for k in range(self.deg + 1))

    def _make(self, P):
        """Element from a packed value of degree < deg, skipping coerce."""
        e = QuotElem.__new__(QuotElem)
        e.ring, e._p, e._cs = self, P, None
        return e

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
        return self._make(self._k.rem(p._p, self._m))

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

    def sort_key(self, x):
        return tuple(self.F.sort_key(c) for c in reversed(x.coords))

    def rand(self, rng, height=20):
        return QuotElem(self, [self.F.rand(rng) for _ in range(self.deg)])

    def __eq__(self, other):
        return other is self or (
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
    from .local import hensel_lift_root
    from .split import SearchBudget, _candidate_places, residue_roots

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
    place = next(pl for pl in _candidate_places(base, budget) if disc.num % pl.uniformizer)
    bound = _root_bound(f)
    roots = []
    for r in residue_roots(place.residue_field(), place.reduce_modulus(f)[0]):
        g = hensel_lift_root(place, f, r, bound // place.uniformizer.degree() + 1).value
        if g.degree() <= bound and not f(RatFunc(g)):
            roots.append(g)
    return roots


def _eisenstein(base, f):
    """Whether a monic f with base-ring coefficients is Eisenstein at some prime.

    f is Eisenstein at p when p divides every non-leading coefficient and p^2
    does not divide f(0).  With G the gcd of the non-leading coefficients and
    h = f(0)/G, those are the primes of exponent 1 in G that do not divide h,
    so the primes shared with h are divided out of G first.  Over k[X] a
    squarefree G (G' != 0, gcd(G, G') = 1) then needs no factoring; over Z,
    trial division to 10^4 must find such a prime or leave a prime cofactor,
    which is_prime proves below psi_13.  False means only "not shown".
    """
    coeffs = [base.to_ring(c) for c in f.coeffs[:-1]]
    if not coeffs[0]:
        return False
    if base.kind == "Q":
        G = math.gcd(*coeffs)
        h = coeffs[0] // G
        while (g := math.gcd(G, h)) > 1:
            G //= g
        small, rest = trial_divide(G, 10**4)
        return 1 in small.values() or (rest < _PSI_13 and is_prime(rest))
    G = functools.reduce(poly_gcd, coeffs)
    h = coeffs[0] // G
    while (g := poly_gcd(G, h)).degree() > 0:
        G //= g
    dG = G.derivative()
    return bool(dG) and poly_gcd(G, dG).degree() == 0


def verify_irreducible(base, f):
    """Try to decide irreducibility of a monic f with base-ring coefficients.

    Returns (status, factor): status is 'verified', 'reducible' or 'asserted';
    a discovered proper factor is returned instead of raising so callers can
    report it.  Eisenstein's criterion (gcds only) runs first and settles every
    T^n - g with g squarefree and nonconstant; then Q runs factor_q, and k(X)
    looks for roots up to degree 3, leaving a non-Eisenstein f 'asserted' above.
    """
    if f.degree() == 1 or _eisenstein(base, f):
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
        if irreducibility not in ("auto", "asserted"):
            raise DegenerateInputError(f"unknown irreducibility mode {irreducibility!r}")
        self.irreducibility_status = "asserted"
        if irreducibility == "auto":
            self.decide_irreducibility(required=False)

    @functools.cached_property
    def disc(self):
        """disc(f), computed on first use: the split search reads it, a verifier does not."""
        return discriminant(self.f)

    def decide_irreducibility(self, required):
        """Run verify_irreducible on f and record its status.

        Eisenstein fields are 'verified' by gcds alone.  Raises
        DegenerateInputError when f is reducible, or when it stays undecided
        (a non-Eisenstein f of degree > 3 over k(X)) and `required` is set.
        """
        status, factor = verify_irreducible(self.base, self.f)
        if status == "reducible":
            raise DegenerateInputError(f"{self.f!r} is reducible: factor {factor!r}")
        if status == "asserted" and required:
            raise DegenerateInputError(f"cannot verify irreducibility of {self.f!r}")
        self.irreducibility_status = status

    def from_base(self, e):
        """Embed a base fraction-field element as a constant."""
        c = self.F.coerce(e)
        if c is None:
            raise DegenerateInputError(f"{e!r} is not a base field element")
        return QuotElem(self, [c])

    def __repr__(self):
        return f"{self.base.label}[T]/({self.f!r})"

