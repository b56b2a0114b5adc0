"""The non-containment witness: a sum of squares with mixed valuation parities.

The construction: a base place with nonreal residue field admits a sum of
squares y in E of valuation exactly 1; for a split place w_0 with residue
root lifted to a_0, sigma = y + (T - a_0)^2 has valuation 1 at w_0 and 0 at
the other places above.  So sigma is in Sum(K^2) with valuation parities that
differ between places, which no element of E*K^2 can have.  Certificates
carry the construction and are re-verified from scratch, trusting nothing.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    CheckResult,
    DegenerateInputError,
    RepresentationNotFoundError,
    SosfieldError,
)
from .fields import QQ
from .local import ExtPlace, ValuationVector, ext_valuation
from .numtheory import legendre
from .poly import Poly
from .split import height_tuples, residue_is_nonreal, residue_sqrt, verify_split_place

MINUS_ONE_HEIGHT = 10
MINUS_ONE_CANDIDATES = 4000


def _square_sum(field, terms):
    value = field.zero()
    for t in terms:
        value = value + t * t
    return value


class SosExpr:
    """A formal sum of squares: terms (t_1, ..., t_s) standing for sum t_j^2.

    The value is computed once and cached; it is an invariant violation for
    the value to be zero, so characteristic-p cancellation is caught at
    construction time.  square_sum() gives the sum derived from the terms,
    which a verifier compares with the cached value.
    """

    __slots__ = ("field", "terms", "value", "_squares")

    def __init__(self, field, terms):
        coerced = []
        for t in terms:
            c = field.coerce(t)
            if c is None:
                raise DegenerateInputError(f"term {t!r} is not in the field")
            coerced.append(c)
        if not coerced:
            raise DegenerateInputError("a sum of squares needs at least one term")
        value = _square_sum(field, coerced)
        if value == field.zero():
            raise DegenerateInputError("sum of squares degenerated to zero")
        self.field = field
        self.terms = tuple(coerced)
        self.value = value
        self._squares = (self.terms, value)

    def square_sum(self):
        """sum t_j^2 of the current terms, squared once per terms tuple."""
        terms, value = self._squares
        if terms is not self.terms:
            value = _square_sum(self.field, self.terms)
            self._squares = (self.terms, value)
        return value

    def __eq__(self, other):
        return (
            isinstance(other, SosExpr)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __repr__(self):
        return f"SosExpr({len(self.terms)} terms, value={self.value!r})"


def _elements_by_height(L, height):
    """Nonzero elements of L = Q[x]/(pi), ascending coordinate height."""
    for h in range(1, height + 1):
        for top in height_tuples(L.deg, h):
            e = L.coerce(Poly(QQ, list(reversed(top)), L.var))
            if e:
                yield e


def _minus_one_squares(R, sqrt_minus_one):
    """-1 as a list of squared elements of a nonreal residue field R.

    One square when R has the square root of -1 passed in.  Otherwise a finite
    R has order p^d with p = 3 mod 4 and d odd, so a constant of F_p is a
    square in R exactly when it is one mod p, and the least a >= 1 with
    -1 - a^2 a square mod p gives two squares.  A number field is searched
    by ascending coordinate height up to MINUS_ONE_HEIGHT, at most
    MINUS_ONE_CANDIDATES candidates per stage, for <= 3 squares.
    """
    if sqrt_minus_one is not None:
        return [sqrt_minus_one]
    m1 = -R.one()
    if R.order() is not None:
        p = R.char
        a = R.from_int(next(a for a in range(1, p) if legendre(-1 - a * a, p) == 1))
        return [a, residue_sqrt(R, m1 - a * a)]
    for a in itertools.islice(_elements_by_height(R, MINUS_ONE_HEIGHT), MINUS_ONE_CANDIDATES):
        b = residue_sqrt(R, m1 - a * a)
        if b:
            return [a, b]
    shallow = list(itertools.islice(_elements_by_height(R, 3), 80))
    pairs = itertools.combinations_with_replacement(shallow, 2)
    for a, b in itertools.islice(pairs, MINUS_ONE_CANDIDATES):
        c = residue_sqrt(R, m1 - a * a - b * b)
        if c:
            return [a, b, c]
    raise RepresentationNotFoundError(
        f"-1 not expressed as a sum of squares within coordinate height {MINUS_ONE_HEIGHT}"
    )


def sos_uniformizer(place):
    """A sum of squares y in E with valuation exactly 1 at the place.

    Writes -1 as a sum of squares in the residue field, lifts the terms, and
    adjusts: if 1 + sum x_i^2 vanishes identically the first lift is shifted
    by the uniformizer, and if the valuation still exceeds 1 the leading 1 is
    replaced by (1 + pi).
    """
    nonreal, sqrt_minus_one = residue_is_nonreal(place)
    if not nonreal:
        raise DegenerateInputError("residue field is formally real")
    residue_terms = _minus_one_squares(place.residue_field(), sqrt_minus_one)
    base = place.base
    E = base.fraction_field()
    pi = base.from_ring(place.uniformizer)
    xs = [base.from_ring(place.lift_residue(c)) for c in residue_terms]
    one = E.one()
    y = one + sum((x * x for x in xs), E.zero())
    if y == E.zero():
        xs[0] = xs[0] + pi
        y = one + sum((x * x for x in xs), E.zero())
    if place.valuation(y) == 1:
        return SosExpr(E, [one] + xs)
    expr = SosExpr(E, [one + pi] + xs)
    if place.valuation(expr.value) != 1:
        raise SosfieldError("uniformizer construction failed its valuation check")
    return expr


@dataclass(frozen=True)
class WitnessCertificate:
    """Everything needed to re-check sigma in Sum(K^2) but not in E*K^2."""

    field: object
    record: object
    sos: SosExpr
    valuations: object
    parity_index: int

    @property
    def conditional(self):
        return self.field.irreducibility_status == "asserted"


def nonpyth_witness(field, record):
    """Certificate that Sum(K^2) is not contained in E*K^2.

    sigma = y + (T - a_0)^2, with y from sos_uniformizer and T - a_0 the
    first place's root_offset(), has valuation 1 at that place and 0 at the
    others.  The finished certificate is re-verified, which recomputes every
    valuation, before it is returned.
    """
    if record.field != field:
        raise DegenerateInputError("record belongs to a different field")
    if not record.nonreal:
        raise DegenerateInputError("record must have a nonreal residue field")
    if field.deg < 2:
        raise DegenerateInputError("need an extension of degree at least 2")
    places = record.ext_places()
    y = sos_uniformizer(record.base_place)
    sos = SosExpr(field, [field.from_base(t) for t in y.terms] + [places[0].root_offset()])
    vals = ValuationVector(places, (1,) + (0,) * (len(places) - 1))
    cert = WitnessCertificate(field, record, sos, vals, 0)
    check = verify_certificate(cert)
    if not check:
        raise SosfieldError(f"fresh certificate failed verification: {check.reason}")
    return cert


def verify_certificate(cert):
    """Re-derive every claim in a witness certificate from its raw data.

    Checks the split record, the nonreal flag, the sum-of-squares identity,
    all valuations, and that the parity vector is genuinely mixed.  A passing
    certificate over an asserted-irreducible polynomial is reported as
    conditional in the reason string.
    """
    try:
        rec = cert.record
        ver = verify_split_place(rec)
        if not ver:
            return CheckResult(False, f"split record: {ver.reason}")
        if not rec.nonreal:
            return CheckResult(False, "residue field is not nonreal")
        if rec.field != cert.field:
            return CheckResult(False, "record belongs to a different field")
        field, sos = cert.field, cert.sos
        terms = [field.coerce(t) for t in sos.terms]
        if not terms or any(t is None for t in terms):
            return CheckResult(False, "terms outside the field")
        # reading the certificate already squared its terms in sos.field
        value = sos.square_sum() if sos.field == field else _square_sum(field, terms)
        if value != sos.value:
            return CheckResult(False, "cached value differs from the sum of squares")
        if value == field.zero():
            return CheckResult(False, "sum of squares is zero")
        # the certificate's places were built, their roots checked, when it was made or read
        places = tuple(cert.valuations.places)
        keys = tuple(ExtPlace.key_of(rec.field, rec.base_place, r) for r in rec.roots)
        if tuple(w.key for w in places) != keys:
            return CheckResult(False, "valuations are not at the record's places")
        vals = tuple(ext_valuation(w, value) for w in places)
        if vals != tuple(cert.valuations.values):
            return CheckResult(False, "claimed valuations are wrong")
        if len({v % 2 for v in vals}) < 2:
            return CheckResult(False, "parity vector is constant")
        i = cert.parity_index
        if not isinstance(i, int) or not 0 <= i < len(vals) or vals[i] % 2 == 0:
            return CheckResult(False, "parity claim does not point at an odd entry")
    except SosfieldError as e:
        return CheckResult(False, str(e))
    if cert.conditional:
        return CheckResult(True, "ok, conditional on the defining polynomial being irreducible")
    return CheckResult(True, "ok")
