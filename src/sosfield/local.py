"""Finite places of the base field and valuation machinery on extensions.

A place is pi-adic: pi is an odd prime of Z or a monic irreducible of k[X].
Residue characteristic 2 is out of scope throughout.  Lifting follows Newton
iteration with doubling precision; every valuation returned has been read off
an exact modular computation, never a float.
"""

from dataclasses import dataclass

from .errors import (
    DegenerateInputError,
    InfiniteValuationError,
    PrecisionExhaustedError,
)
from .extension import QuotientRing
from .factor import factor_q, is_irreducible_fq
from .fields import QQ, FqElem, FqField
from .numtheory import is_prime
from .poly import Poly, poly_ext_gcd

PRECISION_CEILING = 2**14


def _mod_inverse(a, m, base):
    """Inverse of the ring element a modulo m (int or monic Poly)."""
    if base.kind == "Q":
        return pow(a, -1, m)
    g, s, _ = poly_ext_gcd(a % m, m)
    if g.degree() != 0:
        raise DegenerateInputError("not a unit modulo the given power")
    return s % m


def _horner_mod(coeffs, x, m, base):
    acc = base.ring_zero()
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _irreducible(k, pi):
    """Whether a monic nonconstant pi over k = Q or F_q is irreducible."""
    if k == QQ:
        fac = factor_q(pi)
        return len(fac.factors) == 1 and fac.factors[0][1] == 1
    return is_irreducible_fq(pi)


class BasePlace:
    """A finite place of Q or k(X), given by its normalized uniformizer."""

    # caches, each set on the instance on first use
    _residue = None
    _nonreal = None  # split.residue_is_nonreal, once computed
    _modulus = None  # (f, fbar, fbar') of the last f reduce_modulus reduced

    def __init__(self, base, uniformizer):
        if base.kind == "Q":
            if not isinstance(uniformizer, int):
                raise DegenerateInputError("rational place needs an integer prime")
            uniformizer = abs(uniformizer)
            if uniformizer == 2:
                raise DegenerateInputError("residue characteristic 2 is not supported")
            if not is_prime(uniformizer):
                raise DegenerateInputError(f"{uniformizer} is not prime")
        else:
            if not isinstance(uniformizer, Poly) or uniformizer.field != base.k:
                raise DegenerateInputError("function field place needs a base polynomial")
            if uniformizer.degree() < 1:
                raise DegenerateInputError("uniformizer must be nonconstant")
            uniformizer = uniformizer.monic()
            if not _irreducible(base.k, uniformizer):
                raise DegenerateInputError(f"{uniformizer!r} is reducible")
        self.base = base
        self.uniformizer = uniformizer

    @classmethod
    def of_prime(cls, base, pi):
        """The place of a uniformizer the caller has proved prime, with no second proof.

        pi is an odd prime of Z (as numtheory.primes yields them) or a monic
        irreducible of k[X].
        """
        place = cls.__new__(cls)
        place.base, place.uniformizer = base, pi
        return place

    @classmethod
    def of_monic(cls, base, pi):
        """The place of a monic nonconstant pi over k(X), or None when pi is reducible.

        The same irreducibility proof as the constructor, without the error.
        """
        return cls.of_prime(base, pi) if _irreducible(base.k, pi) else None

    def residue_field(self):
        if self._residue is None:
            if self.base.kind == "Q":
                self._residue = FqField.of_prime(self.uniformizer)
            else:
                mod = Poly._from(self.base.k, self.uniformizer._p, "x")
                self._residue = QuotientRing(self.base.k, mod)
        return self._residue

    def uniformizer_power(self, n):
        return self.uniformizer**n

    def ring_valuation(self, r):
        """Exact valuation of a nonzero ring element (Z or k[X])."""
        if not r:
            raise InfiniteValuationError("valuation of zero")
        v = 0
        while True:
            q, rem = divmod(r, self.uniformizer)
            if rem:
                return v
            r = q
            v += 1

    def valuation(self, e):
        """Valuation of a nonzero base field element."""
        if not e:
            raise InfiniteValuationError("valuation of zero")
        if self.base.kind == "Q":
            return self.ring_valuation(e.numerator) - self.ring_valuation(e.denominator)
        return self.ring_valuation(e.num) - self.ring_valuation(e.den)

    def reduce_ring(self, r):
        R = self.residue_field()
        if self.base.kind == "Q":
            return R.from_int(r % self.uniformizer)
        # from_poly reduces mod the residue modulus, which is the uniformizer in x
        return R.from_poly(Poly._from(self.base.k, r._p, "x"))

    def reduce(self, e):
        """Image of an integral base field element in the residue field."""
        if self.base.kind == "Q":
            p = self.uniformizer
            den = e.denominator % p
            if not den:
                raise DegenerateInputError("element is not integral at this place")
            return FqElem(e.numerator * pow(den, -1, p), p)
        if e.is_poly():  # den is monic, so it is 1
            return self.reduce_ring(e.num)
        dbar = self.reduce_ring(e.den)
        if not dbar:
            raise DegenerateInputError("element is not integral at this place")
        return self.reduce_ring(e.num) / dbar

    def lift_residue(self, c):
        """Canonical ring representative of a residue class."""
        if self.base.kind == "Q":
            return c.val
        return Poly._from(self.base.k, c._p, "X")

    def reduce_poly(self, f):
        R = self.residue_field()
        return Poly(R, [self.reduce(c) for c in f.coeffs], f.var)

    def reduce_modulus(self, f):
        """(fbar, fbar') for a defining polynomial f, reduced once per f.

        The split test, the places above and Hensel lifting all read the same
        reduction, so it is kept for the last f (by identity).
        """
        if self._modulus is None or self._modulus[0] is not f:
            fbar = self.reduce_poly(f)
            self._modulus = (f, fbar, fbar.derivative())
        return self._modulus[1:]

    def __eq__(self, other):
        return (
            isinstance(other, BasePlace)
            and other.base == self.base
            and other.uniformizer == self.uniformizer
        )

    def __hash__(self):
        if self.base.kind == "Q":
            return hash(("place", self.uniformizer))
        return hash(("place", tuple(self.uniformizer.coeffs)))

    def __repr__(self):
        return f"BasePlace({self.uniformizer!r})"


@dataclass(frozen=True)
class PadicApprox:
    """A ring element known modulo uniformizer**precision."""

    place: BasePlace
    value: object
    precision: int

    def truncate(self, n):
        if n > self.precision:
            raise PrecisionExhaustedError("cannot truncate upward")
        return PadicApprox(self.place, self.value % self.place.uniformizer_power(n), n)


def hensel_lift_root(place, f, residue_root, precision):
    """Lift a simple residue root of f to a root modulo pi**precision.

    f has coefficients in the base field, integral at the place.  Newton
    iteration, doubling the working precision each step.
    """
    if precision < 1 or precision > PRECISION_CEILING:
        raise PrecisionExhaustedError(f"precision {precision} out of range")
    base = place.base
    R = place.residue_field()
    fbar, dbar = place.reduce_modulus(f)
    root = R.coerce(residue_root)
    if fbar(root) != R.zero():
        raise DegenerateInputError("not a residue root")
    if dbar(root) == R.zero():
        raise DegenerateInputError("residue root is not simple")
    coeffs = [base.to_ring(c) for c in f.coeffs]
    deriv = [i * coeffs[i] for i in range(1, len(coeffs))]
    r = place.lift_residue(root)
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        m = place.uniformizer_power(k)
        fr = _horner_mod(coeffs, r, m, base)
        dinv = _mod_inverse(_horner_mod(deriv, r, m, base), m, base)
        r = (r - fr * dinv) % m
    m = place.uniformizer_power(precision)
    r %= m
    if _horner_mod(coeffs, r, m, base):
        raise PrecisionExhaustedError("Newton iteration failed to converge")
    return PadicApprox(place, r, precision)


class ExtPlace:
    """A completely split, residue-degree-1 place of an extension field.

    Determined by the place below and one simple residue root of the defining
    polynomial.  The checked residue root is its own lift at precision 1, so a
    new place holds that lift and does no Hensel lifting; deeper lifts are
    cached at the highest precision computed so far.
    """

    def __init__(self, field, base_place, residue_root):
        if field.base != base_place.base:
            raise DegenerateInputError("place does not live under this field")
        self.field = field
        self.base_place = base_place
        R = base_place.residue_field()
        root = R.coerce(residue_root)
        fbar, dbar = base_place.reduce_modulus(field.modulus)
        if fbar(root) != R.zero():
            raise DegenerateInputError("not a root of the defining polynomial")
        if dbar(root) == R.zero():
            raise DegenerateInputError("residue root is not simple")
        self.residue_root = root
        self.key = ExtPlace.key_of(field, base_place, root)
        self._cache = PadicApprox(base_place, base_place.lift_residue(root), 1)

    def lift(self, precision):
        """Root of the defining polynomial modulo pi**precision."""
        if self._cache.precision < precision:
            self._cache = hensel_lift_root(
                self.base_place, self.field.modulus, self.residue_root, precision
            )
        return self._cache.truncate(precision)

    def root_offset(self):
        """T - a, where a is the canonical lift of the residue root.

        Its valuation is at least 1 here and 0 at every other place over the
        same base place, since their residue roots differ from this one.
        """
        a = self.base_place.lift_residue(self.residue_root)
        return self.field.gen() - self.field.from_base(self.field.base.from_ring(a))

    @staticmethod
    def key_of(field, base_place, residue_root):
        """What identifies a place: its field, the place below and its residue root."""
        return field, base_place, residue_root

    def __eq__(self, other):
        return isinstance(other, ExtPlace) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ExtPlace({self.base_place!r}, root={self.residue_root!r})"


def ext_valuation(place, x):
    """Exact valuation of a nonzero extension element at a split place.

    Clears denominators, evaluates the numerator polynomial h at the lifted
    root modulo pi**N, and reads the valuation, which is certified once it is
    below N.  N starts at the precision cached for the place, which is 1 for
    a new place, and doubles up to PRECISION_CEILING.  At N = 1 the lift is
    the residue root r itself, and h(theta) = h(r) mod pi, so a unit costs
    one evaluation mod pi and no Hensel lifting.
    """
    field = place.field
    x = field.coerce(x)
    if not x:
        raise InfiniteValuationError("valuation of zero")
    base = field.base
    bp = place.base_place
    den = base.common_denominator(list(x.coords))
    den_e = base.from_ring(den)
    coeffs = [base.to_ring(c * den_e) for c in x.coords]
    vden = bp.ring_valuation(den)
    n = place._cache.precision
    while True:
        root = place.lift(n).value
        m = bp.uniformizer_power(n)
        val = _horner_mod(coeffs, root, m, base)
        if val:
            v = bp.ring_valuation(val)
            if v < n:
                return v - vden
        if n >= PRECISION_CEILING:
            raise PrecisionExhaustedError(
                f"valuation at least {n} exceeds the precision ceiling"
            )
        n = min(2 * n, PRECISION_CEILING)


@dataclass(frozen=True)
class ValuationVector:
    """Valuations of one element at a tuple of split places."""

    places: tuple
    values: tuple

    def parity(self):
        return tuple(v % 2 for v in self.values)

    def is_constant_parity(self):
        return len(set(self.parity())) <= 1


def valuation_vector(places, x):
    return ValuationVector(tuple(places), tuple(ext_valuation(w, x) for w in places))


def _uniformizer_in_field(field, base_place):
    return field.from_base(field.base.from_ring(base_place.uniformizer))


def check_places(places):
    """The common field of distinct places over one base place of one field."""
    if not places:
        raise DegenerateInputError("need at least one place")
    field = places[0].field
    bp = places[0].base_place
    for w in places:
        if w.field != field or w.base_place != bp:
            raise DegenerateInputError("places must share the field and base place")
    if len({repr(w.residue_root) for w in places}) != len(places):
        raise DegenerateInputError("places must be distinct")
    return field


def weak_approx(places, targets):
    """Element z of the extension with ext_valuation(places[i], z) == targets[i].

    z = pi^m * prod_i u_i^(t_i - m) with m = min(targets), so no element of
    the extension is inverted.  u_i is root_offset() of place i, or T - a_i -
    pi when the precision-2 lift of the root shows v_i(T - a_i) >= 2; either
    way v_i(u_i) = 1 and v_j(u_i) = 0 for j != i, and pi has valuation 1 at
    every place.  The result is verified at every place before being
    returned.
    """
    if len(places) != len(targets) or not places:
        raise DegenerateInputError("need matching nonempty places and targets")
    if any(not isinstance(t, int) for t in targets):
        raise DegenerateInputError("targets must be integers")
    field = check_places(places)
    bp = places[0].base_place
    pi_e = _uniformizer_in_field(field, bp)
    pi2 = bp.uniformizer_power(2)
    m = min(targets)
    z = pi_e**m
    for w, t in zip(places, targets):
        if t > m:
            u = w.root_offset()
            if not (w.lift(2).value - bp.lift_residue(w.residue_root)) % pi2:
                u = u - pi_e
            z = z * u ** (t - m)
    for w, t in zip(places, targets):
        if ext_valuation(w, z) != t:
            raise PrecisionExhaustedError("weak approximation failed verification")
    return z
