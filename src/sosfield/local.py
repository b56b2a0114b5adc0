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
from .fields import QQ, FqField
from .numtheory import is_prime
from .poly import Poly, poly_ext_gcd

PRECISION_START = 8
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


class BasePlace:
    """A finite place of Q or k(X), given by its normalized uniformizer."""

    def __init__(self, base, uniformizer):
        self.base = base
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
            if base.k == QQ:
                fac = factor_q(uniformizer)
                if len(fac.factors) != 1 or fac.factors[0][1] != 1:
                    raise DegenerateInputError(f"{uniformizer!r} is reducible")
            elif not is_irreducible_fq(uniformizer):
                raise DegenerateInputError(f"{uniformizer!r} is reducible")
        self.uniformizer = uniformizer
        self._residue = None

    def residue_field(self):
        if self._residue is None:
            if self.base.kind == "Q":
                self._residue = FqField(self.uniformizer)
            else:
                mod = Poly(self.base.k, self.uniformizer.coeffs, "x")
                self._residue = QuotientRing(self.base.k, mod)
        return self._residue

    def residue_order(self):
        """Order of the residue field, or None when it is infinite."""
        return self.residue_field().order()

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
        return R.from_poly(Poly(self.base.k, (r % self.uniformizer).coeffs, "x"))

    def reduce(self, e):
        """Image of an integral base field element in the residue field."""
        if self.base.kind == "Q":
            num, den = e.numerator, e.denominator
        else:
            num, den = e.num, e.den
        dbar = self.reduce_ring(den)
        if not dbar:
            raise DegenerateInputError("element is not integral at this place")
        return self.reduce_ring(num) / dbar

    def lift_residue(self, c):
        """Canonical ring representative of a residue class."""
        if self.base.kind == "Q":
            return c.val
        return Poly(self.base.k, c.coords, "X")

    def reduce_poly(self, f):
        R = self.residue_field()
        return Poly(R, [self.reduce(c) for c in f.coeffs], f.var)

    def sort_key(self):
        if self.base.kind == "Q":
            return (0, self.uniformizer)
        return self.uniformizer.sort_key()

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
    fbar = place.reduce_poly(f)
    root = R.coerce(residue_root)
    if fbar(root) != R.zero():
        raise DegenerateInputError("not a residue root")
    if fbar.derivative()(root) == R.zero():
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
    polynomial.  Lifts are cached at the highest precision computed so far.
    """

    def __init__(self, field, base_place, residue_root):
        if field.base != base_place.base:
            raise DegenerateInputError("place does not live under this field")
        self.field = field
        self.base_place = base_place
        R = base_place.residue_field()
        root = R.coerce(residue_root)
        fbar = base_place.reduce_poly(field.modulus)
        if fbar(root) != R.zero():
            raise DegenerateInputError("not a root of the defining polynomial")
        if fbar.derivative()(root) == R.zero():
            raise DegenerateInputError("residue root is not simple")
        self.residue_root = root
        self._cache = None

    def lift(self, precision):
        """Root of the defining polynomial modulo pi**precision."""
        if self._cache is None or self._cache.precision < precision:
            self._cache = hensel_lift_root(
                self.base_place, self.field.modulus, self.residue_root, precision
            )
        return self._cache.truncate(precision)

    def sort_key(self):
        return self.base_place.residue_field().sort_key(self.residue_root)

    def __eq__(self, other):
        return (
            isinstance(other, ExtPlace)
            and other.field == self.field
            and other.base_place == self.base_place
            and other.residue_root == self.residue_root
        )

    def __hash__(self):
        return hash((self.base_place, repr(self.residue_root)))

    def __repr__(self):
        return f"ExtPlace({self.base_place!r}, root={self.residue_root!r})"


def ext_valuation(place, x, ceiling=PRECISION_CEILING):
    """Exact valuation of a nonzero extension element at a split place.

    Clears denominators, evaluates the numerator polynomial at the lifted
    root modulo pi**N, and reads the valuation; N doubles until the value is
    certified below the working precision.
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
    n = PRECISION_START
    if place._cache is not None:
        n = max(n, place._cache.precision)
    n = min(n, ceiling)
    while True:
        root = place.lift(n).value
        m = bp.uniformizer_power(n)
        val = _horner_mod(coeffs, root, m, base)
        if val:
            v = bp.ring_valuation(val)
            if v < n:
                return v - vden
        if n >= ceiling:
            raise PrecisionExhaustedError(
                f"valuation at least {n} exceeds the precision ceiling"
            )
        n = min(2 * n, ceiling)


@dataclass(frozen=True)
class ValuationVector:
    """Valuations of one element at a tuple of split places."""

    places: tuple
    values: tuple

    def parity(self):
        return tuple(v % 2 for v in self.values)

    def is_constant_parity(self):
        return len(set(self.parity())) <= 1


def valuation_vector(places, x, ceiling=PRECISION_CEILING):
    return ValuationVector(
        tuple(places), tuple(ext_valuation(w, x, ceiling) for w in places)
    )


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


def approx_idempotents(places, precision):
    """Lagrange elements e_i with e_i = delta_ij mod pi**precision at place j.

    All places must sit over the same base place of the same field and carry
    distinct residue roots.
    """
    if len(places) < 2:
        raise DegenerateInputError("need at least two places")
    field = check_places(places)
    base = field.base
    m = places[0].base_place.uniformizer_power(precision)
    lifts = [w.lift(precision).value for w in places]
    gen_poly = Poly.gen(field.F, field.var)
    out = []
    for i, ri in enumerate(lifts):
        num = Poly.const(field.F, field.F.one(), field.var)
        denom = base.ring_one()
        for j, rj in enumerate(lifts):
            if j == i:
                continue
            num = num * (gen_poly - Poly.const(field.F, base.from_ring(rj), field.var))
            denom = (denom * (ri - rj)) % m
        dinv = _mod_inverse(denom, m, base)
        scaled = []
        for c in num.coeffs:
            rc = (base.to_ring(c) * dinv) % m
            scaled.append(base.from_ring(rc))
        out.append(field.from_poly(Poly(field.F, scaled, field.var)))
    return out


def weak_approx(places, targets, precision=None):
    """Element z of the extension with ext_valuation(places[i], z) == targets[i].

    Built from approximate idempotents; the result is verified at every place
    before being returned.
    """
    if len(places) != len(targets) or not places:
        raise DegenerateInputError("need matching nonempty places and targets")
    if any(not isinstance(t, int) for t in targets):
        raise DegenerateInputError("targets must be integers")
    field = places[0].field
    pi_e = _uniformizer_in_field(field, places[0].base_place)
    if len(places) == 1:
        z = pi_e ** targets[0]
    else:
        spread = max(targets) - min(targets)
        if precision is None:
            precision = max(PRECISION_START, spread + 2)
        idems = approx_idempotents(places, precision)
        z = field.zero()
        for t, e in zip(targets, idems):
            z = z + pi_e**t * e
    for w, t in zip(places, targets):
        if ext_valuation(w, z) != t:
            raise PrecisionExhaustedError("weak approximation failed verification")
    return z
