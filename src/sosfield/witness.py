"""Sums of squares with prescribed valuations, and the non-containment witness.

The pipeline: a base place with nonreal residue field admits a sum of squares
y in E of valuation exactly 1; combining y with weak-approximation elements
hits any integer valuation vector across the split places; asking for an odd
entry at exactly one place produces sigma in Sum(K^2) whose valuation parities
differ between places, which no element of E*K^2 can do.  Certificates carry
the construction and are re-verified from scratch, trusting nothing.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    CheckResult,
    DegenerateInputError,
    PrecisionExhaustedError,
    RepresentationNotFoundError,
    SosfieldError,
)
from .fields import QQ, field_sqrt
from .local import check_places, ext_valuation, valuation_vector, weak_approx
from .poly import Poly
from .split import number_field_roots, residue_is_nonreal, verify_split_place


class SosExpr:
    """A formal sum of squares: terms (t_1, ..., t_s) standing for sum t_j^2.

    The value is computed once and cached; it is an invariant violation for
    the value to be zero, so characteristic-p cancellation is caught at
    construction time.
    """

    __slots__ = ("field", "terms", "value")

    def __init__(self, field, terms):
        coerced = []
        for t in terms:
            c = field.coerce(t)
            if c is None:
                raise DegenerateInputError(f"term {t!r} is not in the field")
            coerced.append(c)
        if not coerced:
            raise DegenerateInputError("a sum of squares needs at least one term")
        value = field.zero()
        for t in coerced:
            value = value + t * t
        if value == field.zero():
            raise DegenerateInputError("sum of squares degenerated to zero")
        self.field = field
        self.terms = tuple(coerced)
        self.value = value

    def __mul__(self, other):
        if not isinstance(other, SosExpr) or other.field != self.field:
            return NotImplemented
        # (sum a_i^2)(sum b_j^2) = sum over pairs (a_i b_j)^2
        return SosExpr(
            self.field, [a * b for a, b in itertools.product(self.terms, other.terms)]
        )

    def plus_square(self, z):
        return SosExpr(self.field, list(self.terms) + [z])

    def scale_square(self, c):
        """Multiply the value by c^2 without changing the term count."""
        cc = self.field.coerce(c)
        if cc is None or cc == self.field.zero():
            raise DegenerateInputError("scale factor must be a nonzero field element")
        return SosExpr(self.field, [cc * t for t in self.terms])

    def __eq__(self, other):
        return (
            isinstance(other, SosExpr)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __repr__(self):
        return f"SosExpr({len(self.terms)} terms, value={self.value!r})"


def _minus_one_squares_finite(R):
    """-1 as a list of squared elements of a finite residue field.

    One square when -1 is itself a square; otherwise the quadratic-residue
    walk over a in canonical order finds -1 - a^2 a square, giving two.
    """
    m1 = -R.one()
    s = field_sqrt(R, m1)
    if s is not None:
        return [s]
    for a in R.elements():
        if not a:
            continue
        b = field_sqrt(R, m1 - a * a)
        if b is not None:
            return [a, b]
    raise SosfieldError("finite field without -1 as a sum of two squares")


def _elements_by_height(L, height):
    """Nonzero elements of L = Q[x]/(pi), ascending coordinate height."""
    from .split import _frac_height, _rational_coeff_pool

    for h in range(1, height + 1):
        pool = _rational_coeff_pool(h)
        for top in itertools.product(pool, repeat=L.deg):
            if max(_frac_height(c) for c in top) != h:
                continue
            e = L.coerce(Poly(QQ, list(reversed(top)), L.var))
            if e:
                yield e


def _minus_one_squares_number_field(L, height=10, max_candidates=4000):
    """-1 as a list of <= 4 squared elements of a nonreal number field L.

    s = 1 is decided exactly (root of T^2 + 1); longer representations are
    searched by ascending coordinate height with an explicit cutoff.
    """
    tsq = Poly(L, [L.one(), L.zero(), L.one()], "T")
    rts = number_field_roots(L, tsq)
    if rts:
        return [rts[0]]
    m1 = -L.one()

    def square_root_of(c):
        if c == L.zero():
            return L.zero()
        g = Poly(L, [-c, L.zero(), L.one()], "T")
        r = number_field_roots(L, g)
        return r[0] if r else None

    seen = 0
    for a in _elements_by_height(L, height):
        seen += 1
        if seen > max_candidates:
            break
        b = square_root_of(m1 - a * a)
        if b is not None and b != L.zero():
            return [a, b]
    seen = 0
    shallow = list(itertools.islice(_elements_by_height(L, min(height, 3)), 80))
    for a, b in itertools.combinations_with_replacement(shallow, 2):
        seen += 1
        if seen > max_candidates:
            break
        c = square_root_of(m1 - a * a - b * b)
        if c is not None and c != L.zero():
            return [a, b, c]
    raise RepresentationNotFoundError(
        f"-1 not expressed as a sum of squares within coordinate height {height}"
    )


def sos_uniformizer(place, height=10):
    """A sum of squares y in E with valuation exactly 1 at the place.

    Writes -1 as a sum of squares in the residue field, lifts the terms, and
    adjusts: if 1 + sum x_i^2 vanishes identically the first lift is shifted
    by the uniformizer, and if the valuation still exceeds 1 the leading 1 is
    replaced by (1 + pi).
    """
    nonreal, _ = residue_is_nonreal(place)
    if not nonreal:
        raise DegenerateInputError("residue field is formally real")
    R = place.residue_field()
    if R.order() is not None:
        residue_terms = _minus_one_squares_finite(R)
    else:
        residue_terms = _minus_one_squares_number_field(R, height)
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


def tau_hit(places, target, height=10):
    """A sum of squares sigma in K with prescribed valuations at the places.

    Odd coordinates each contribute a factor y + z^2 (valuation 1 there, 0
    elsewhere); the remaining even gap is closed by scaling with a square of
    a weak-approximation element.  The achieved vector is verified before
    returning.
    """
    places = list(places)
    field = check_places(places)
    if len(target) != len(places):
        raise DegenerateInputError("one target per place")
    target = [int(t) for t in target]
    odd = [i for i, t in enumerate(target) if t % 2]
    if odd:
        y_expr = sos_uniformizer(places[0].base_place, height)
        y_terms = [field.from_base(t) for t in y_expr.terms]
        sigma = None
        for i in odd:
            z = weak_approx(places, [1 if j == i else 0 for j in range(len(places))])
            piece = SosExpr(field, y_terms + [z])
            sigma = piece if sigma is None else sigma * piece
    else:
        sigma = SosExpr(field, [field.one()])
    current = valuation_vector(places, sigma.value)
    gap = [t - c for t, c in zip(target, current.values)]
    if any(g % 2 for g in gap):
        raise SosfieldError("parity bookkeeping failed in tau_hit")
    if any(gap):
        z0 = weak_approx(places, [g // 2 for g in gap])
        sigma = sigma.scale_square(z0)
    achieved = valuation_vector(places, sigma.value)
    if achieved.values != tuple(target):
        raise PrecisionExhaustedError("constructed element missed its target valuations")
    return sigma


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


def nonpyth_witness(field, record, height=10):
    """Certificate that Sum(K^2) is not contained in E*K^2.

    Builds sigma with valuation 1 at the record's first place and 0 at the
    others, then re-verifies the finished certificate before returning it.
    """
    if record.field != field:
        raise DegenerateInputError("record belongs to a different field")
    if not record.nonreal:
        raise DegenerateInputError("record must have a nonreal residue field")
    if field.deg < 2:
        raise DegenerateInputError("need an extension of degree at least 2")
    places = record.ext_places()
    target = [1] + [0] * (len(places) - 1)
    sos = tau_hit(places, target, height)
    cert = WitnessCertificate(
        field, record, sos, valuation_vector(places, sos.value), 0
    )
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
        field = cert.field
        terms = [field.coerce(t) for t in cert.sos.terms]
        if not terms or any(t is None for t in terms):
            return CheckResult(False, "terms outside the field")
        value = field.zero()
        for t in terms:
            value = value + t * t
        if value != cert.sos.value:
            return CheckResult(False, "cached value differs from the sum of squares")
        if value == field.zero():
            return CheckResult(False, "sum of squares is zero")
        places = rec.ext_places()
        if tuple(cert.valuations.places) != places:
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
