"""Real embeddings of number fields, exact sign evaluation, and sign witnesses.

An embedding is stored as the defining polynomial plus an isolating rational
interval for one of its real roots.  Signs are decided exactly: interval
Horner evaluation, with bisection refinement until the sign is unambiguous.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExhaustedError,
    CheckResult,
    DegenerateInputError,
    PrecisionExhaustedError,
)
from .factor import refine_interval, sturm_isolate
from .split import _frac_height, height_tuples

# indefinite_witness budget: coordinate heights searched, and (x, y) pairs tried
INDEFINITE_MAX_HEIGHT = 8
INDEFINITE_MAX_PAIRS = 20000


@dataclass(frozen=True)
class RealEmbedding:
    """One real root of minpoly, isolated in the open interval (lo, hi)."""

    minpoly: object
    lo: Fraction
    hi: Fraction


def real_embeddings(field):
    """All real embeddings of a number field, ordered by root position.

    Requires verified irreducibility: with a merely asserted modulus the
    isolated roots need not correspond to embeddings of a field at all.
    """
    if field.base.kind != "Q":
        raise DegenerateInputError("real embeddings are for number fields")
    if field.irreducibility_status != "verified":
        raise DegenerateInputError(
            "real_embeddings needs verified irreducibility of the modulus"
        )
    iso = sturm_isolate(field.f)
    return tuple(RealEmbedding(field.f, lo, hi) for lo, hi in iso.intervals)


def _interval_eval(p, lo, hi):
    """Bounds for p over [lo, hi] by interval Horner."""
    acc_lo = acc_hi = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c, max(products) + c
    return acc_lo, acc_hi


def sign_at(emb, x):
    """The exact sign (-1, 0, +1) of a field element under a real embedding."""
    rep = x.rep()
    if list(x.ring.modulus.coeffs) != list(emb.minpoly.coeffs):
        raise DegenerateInputError("element does not live in the embedded field")
    if rep.is_zero():
        return 0
    lo, hi = emb.lo, emb.hi
    for _ in range(256):
        vlo, vhi = _interval_eval(rep, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        lo, hi = refine_interval(emb.minpoly, lo, hi, (hi - lo) / 4)
    # a nonzero element of the field cannot vanish at the root
    raise PrecisionExhaustedError("sign did not stabilize under refinement")


@dataclass(frozen=True)
class SignPatternWitness:
    """beta = x^2 + y^2 * alpha with certified signs under two embeddings."""

    alpha: object
    pair: tuple
    embeddings: tuple
    signs: tuple

    @property
    def beta(self):
        x, y = self.pair
        return x * x + y * y * self.alpha


def _height_layer(field, h):
    """Elements a + b*theta whose coordinate height max(H(a), H(b)) is exactly h.

    Sorted by b, then by a, each by height, magnitude and sign (nonnegative
    first), so constants come before theta terms.
    """
    theta = field.gen()

    def coord_key(c):
        return (_frac_height(c), abs(c), 0 if c >= 0 else 1)

    # coord_key is injective, so the order does not depend on the input order
    fresh = sorted(height_tuples(2, h), key=lambda ab: (coord_key(ab[1]), coord_key(ab[0])))
    return [(field.from_base(a) + field.from_base(b) * theta, h) for a, b in fresh]


def indefinite_witness(field, alpha, e1, e2):
    """Find beta = x^2 + y^2 alpha positive under e1 and negative under e2.

    Precondition: alpha is negative under both embeddings, so neither sign
    of beta is forced.  The pair (x, y) is searched smallest-height first,
    building the candidates of each height only when the search reaches it,
    and the returned witness carries exact certified signs.  The search
    stops after INDEFINITE_MAX_HEIGHT heights or INDEFINITE_MAX_PAIRS pairs.
    """
    alpha = field.coerce(alpha)
    if sign_at(e1, alpha) != -1 or sign_at(e2, alpha) != -1:
        raise DegenerateInputError(
            "indefinite_witness needs alpha negative under both embeddings"
        )
    pool = []  # (element, height) for the heights reached so far, ascending
    tried = 0
    for h in range(1, INDEFINITE_MAX_HEIGHT + 1):
        pool.extend(_height_layer(field, h))
        for x, hx in pool:
            for y, hy in pool:
                if max(hx, hy) != h:
                    continue
                tried += 1
                if tried > INDEFINITE_MAX_PAIRS:
                    raise BudgetExhaustedError(
                        f"no sign-splitting pair within {INDEFINITE_MAX_PAIRS} candidates"
                    )
                beta = x * x + y * y * alpha
                if not beta:
                    continue
                if sign_at(e1, beta) == 1 and sign_at(e2, beta) == -1:
                    return SignPatternWitness(alpha, (x, y), (e1, e2), (1, -1))
    raise BudgetExhaustedError(f"no sign-splitting pair up to height {INDEFINITE_MAX_HEIGHT}")


def verify_sign_witness(witness):
    """Recompute both signs of the witness element from scratch."""
    try:
        e1, e2 = witness.embeddings
        x, y = witness.pair
        beta = x * x + y * y * witness.alpha
        if not beta:
            return CheckResult(False, "witness element is zero")
        if (sign_at(e1, beta), sign_at(e2, beta)) != tuple(witness.signs):
            return CheckResult(False, "claimed signs do not recompute")
        if tuple(witness.signs) != (1, -1):
            return CheckResult(False, "witness must be positive then negative")
    except (DegenerateInputError, PrecisionExhaustedError, AttributeError) as exc:
        return CheckResult(False, f"malformed witness: {exc}")
    return CheckResult(True, "ok")
