"""Search for completely split places of an extension field.

A base place pi is completely split in K = E[T]/(f) when the reduction of f
modulo pi has deg(f) distinct simple roots in the residue field.  Candidates
are enumerated in a canonical order per base (primes ascending; monic
irreducibles by degree then coefficients; rational polynomials by coefficient
height then degree), so searches are reproducible.  Over F_q the search skips
each degree layer d whose residue field F_{q^d} lacks roots of unity that
every qualifying place needs: n | q^d - 1 for a binomial T^n - g with p not
dividing n (the ratios of the n roots are n distinct n-th roots of unity),
and 4 | q^d - 1 when a square root of -1 is required.  A skipped layer holds
no qualifying place, so the places found do not change; only fewer
candidates are tried.  At a finite residue field R of order r, two exact
prefilters reject a candidate before the Frobenius test T^r = T mod f: a
binomial needs n | r - 1 (over Q too), and disc(f), which is the square of
prod(r_i - r_j) at a split place, must be a square in R.  A rejected place
cannot split and still counts as tried, so places and counts do not change.
Residue fields are finite or number fields Q[x]/(pi); both admit a complete
root count, so a place is never reported split on partial evidence.  Over a
number field a missing root is first proved mod a small prime, and Trager's
norm runs only when no such prime is found.  Each candidate place is proved
prime or irreducible once, by BasePlace.
"""

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CheckResult,
    DegenerateInputError,
    RepresentationNotFoundError,
    SosfieldError,
)
from .factor import factor_q, fq_roots, fq_split_roots, sturm_isolate
from .fields import QQ, field_sqrt
from .local import BasePlace, ExtPlace
from .numtheory import primes
from .poly import Poly, RatFunc, RatFuncField, poly_gcd, poly_pow_mod, resultant

NORM_SHIFTS = 16
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the candidate enumeration.

    max_size is interpreted per base: largest prime over Q, largest
    uniformizer degree over a finite constant field, largest coefficient
    height (and degree) over Q(X).  Zero means the per-base default.
    """

    max_candidates: int = 20000
    max_size: int = 0
    wall_seconds: float = 60.0

    def size_for(self, label):
        if self.max_size:
            return self.max_size
        return 10**6 if label == "Q" else 6


@dataclass(frozen=True)
class SplitPlaceRecord:
    """A certified completely split place with its sorted residue roots."""

    field: object
    base_place: BasePlace
    roots: tuple
    nonreal: bool
    sqrt_minus_one: object

    def ext_places(self):
        return tuple(ExtPlace(self.field, self.base_place, r) for r in self.roots)


@dataclass(frozen=True)
class SplitSearchResult:
    records: tuple
    candidates_tried: int
    exhausted: bool
    stopped_by: str = None  # SearchBudget field that ended an exhausted search


def _rational_coeff_pool(height):
    pool = set()
    for den in range(1, height + 1):
        for num in range(-height * den, height * den + 1):
            c = Fraction(num, den)
            if max(abs(c.numerator), c.denominator) <= height:
                pool.add(c)
    return sorted(pool, key=QQ.sort_key)


def _frac_height(c):
    return max(abs(c.numerator), c.denominator)


def height_tuples(n, height):
    """The n-tuples of rationals of coordinate height exactly `height`.

    In itertools.product order over _rational_coeff_pool(height), last entry
    fastest.
    """
    pool = _rational_coeff_pool(height)
    for tup in itertools.product(pool, repeat=n):
        if max(_frac_height(c) for c in tup) == height:
            yield tup


def _candidate_places(base, budget, roots_of_unity=1):
    """BasePlaces of the candidates in canonical order, each proved prime once.

    Over Q, numtheory.primes is the proof.  Over k(X), BasePlace.of_monic's
    proof filters out reducible candidates, which do not count as tried.
    Over F_q only degrees d with roots_of_unity | q^d - 1 are enumerated.
    """
    size = budget.size_for(base.label)
    if base.kind == "Q":
        for p in primes(3):
            if p > size:
                return
            yield BasePlace.of_prime(base, p)
        return
    k = base.k
    if k != QQ:
        # candidate i has the base-q digits of i, lowest first, below a leading 1
        q = k.order()
        for deg in range(1, size + 1):
            if (q**deg - 1) % roots_of_unity:
                continue
            for i in range(q**deg):
                low = [k.from_int(i // q**j % q) for j in range(deg)]
                if place := BasePlace.of_monic(base, Poly(k, low + [k.one()], "X")):
                    yield place
        return
    for height in range(1, size + 1):
        for deg in range(1, size + 1):
            for top in height_tuples(deg, height):
                pi = Poly(QQ, list(reversed(top)) + [Fraction(1)], "X")
                if place := BasePlace.of_monic(base, pi):
                    yield place


def _trager_norm(L, g):
    """Res_x(modulus, g) as a rational polynomial in the outer variable T."""
    RT = RatFuncField(QQ, "T")
    cols = []
    for i in range(L.deg):
        tcoeffs = [g.coeff(j).coords[i] for j in range(g.degree() + 1)]
        cols.append(RatFunc(Poly(QQ, tcoeffs, "T")))
    gx = Poly(RT, cols, "X")
    pix = Poly(RT, [RatFunc(Poly(QQ, [c], "T")) for c in L.modulus.coeffs], "X")
    norm = resultant(pix, gx)
    return norm.as_poly()


def _eval_mod(cs, x, p):
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % p
    return acc


def _no_root_mod_p(L, g):
    """Whether a prime of SIEVE_PRIMES proves that g has no root in L = Q[x]/(pi).

    At a simple root x0 of pi mod p, Hensel's lemma lifts x0 to a root of pi
    in Z_p, and x -> that root embeds L in Q_p.  The image of the monic g then
    has p-integral coefficients, so a root of g in L would lie in Z_p and
    reduce to a root of g(x0, T) mod p.  Primes dividing a denominator of pi
    or of g's coordinates are skipped.
    """
    rows = [L.modulus.coeffs] + [g.coeff(j).coords for j in range(g.degree())]
    for p in SIEVE_PRIMES:
        if any(c.denominator % p == 0 for row in rows for c in row):
            continue
        pim, *gm = [[c.numerator * pow(c.denominator, -1, p) % p for c in row] for row in rows]
        dpim = [i * c % p for i, c in enumerate(pim)][1:]
        for x0 in range(p):
            if _eval_mod(pim, x0, p) or not _eval_mod(dpim, x0, p):
                continue
            gx = [_eval_mod(row, x0, p) for row in gm] + [1]
            if all(_eval_mod(gx, t, p) for t in range(p)):
                return True
    return False


def number_field_roots(L, g):
    """All roots in L = Q[x]/(pi) of a monic squarefree g over L, sorted.

    A missing root is first looked for mod small primes (_no_root_mod_p).
    Otherwise Trager's method: shift until the norm is squarefree (at most
    NORM_SHIFTS shifts), factor it over Q, and read the linear factors back
    off gcds.  Complete: an empty list is a proof that g has no root in L.
    """
    if _no_root_mod_p(L, g):
        return []
    xbar = L.gen()
    for s in range(NORM_SHIFTS):
        if s == 0:
            gs = g
        else:
            point = Poly(L, [L.from_int(-s) * xbar, L.one()], g.var)
            gs = g(point)
        norm = _trager_norm(L, gs)
        if poly_gcd(norm, norm.derivative()).degree() == 0:
            break
    else:
        raise RepresentationNotFoundError("no squarefree norm shift found")
    roots, total = [], 0
    for h, _ in factor_q(norm).factors:
        h_in_l = Poly(L, [L.coerce(c) for c in h.coeffs], g.var)
        common = poly_gcd(gs, h_in_l)
        total += common.degree()
        if common.degree() == 1:
            r = -common.coeff(0)
            roots.append(r - L.from_int(s) * xbar if s else r)
    if total != g.degree():
        raise RepresentationNotFoundError("norm factorization did not cover g")
    return sorted(roots, key=L.sort_key)


def residue_roots(R, g):
    """All roots in a residue field R of a monic squarefree g over R, sorted.

    R is finite (a Frobenius gcd over F_q) or a number field (Trager norms).
    """
    if R.order() is not None:
        return fq_roots(g)
    return number_field_roots(R, g)


def residue_sqrt(R, c):
    """The canonically smaller square root of c in a residue field R, or None."""
    if R.order() is not None:
        return field_sqrt(R, c)
    if not c:
        return c
    roots = residue_roots(R, Poly(R, [-c, R.zero(), R.one()], "T"))
    return roots[0] if roots else None


def residue_is_nonreal(base_place):
    """(nonreal, sqrt_minus_one or None) for the residue field.

    Finite residue fields are always nonreal; a number field Q[x]/(pi) is
    nonreal exactly when pi has no real root.  The square root of -1, when it
    exists, is the canonically smaller of the two.  Computed once per
    BasePlace and kept on it, as its residue field is.
    """
    if base_place._nonreal is None:
        R = base_place.residue_field()
        nonreal = R.order() is not None or sturm_isolate(base_place.uniformizer).count == 0
        base_place._nonreal = nonreal, residue_sqrt(R, -R.one())
    return base_place._nonreal


def analyze_place(field, base_place):
    """SplitPlaceRecord when base_place is completely split in field, else None."""
    if field.base != base_place.base:
        raise DegenerateInputError("place does not belong to the base of the field")
    if not field.disc:
        raise DegenerateInputError("defining polynomial is not separable")
    if base_place.valuation(field.disc) != 0:
        return None
    R = base_place.residue_field()
    q = R.order()
    if q is not None and (q - 1) % _binomial_degree(field.f):
        return None
    if q is not None and base_place.reduce(field.disc) ** ((q - 1) // 2) != R.one():
        return None
    fbar = base_place.reduce_modulus(field.f)[0]
    if q is not None:
        tbar = Poly.gen(R, fbar.var)
        if poly_pow_mod(tbar, q, fbar) != tbar % fbar:
            return None
        # fbar divides T^q - T, so it is the product of deg f distinct linear factors
        roots = fq_split_roots(fbar)
    else:
        roots = number_field_roots(R, fbar)
        if len(roots) != field.deg:
            return None
    nonreal, sqrtm1 = residue_is_nonreal(base_place)
    return SplitPlaceRecord(field, base_place, tuple(roots), nonreal, sqrtm1)


def _binomial_degree(f):
    """n for a binomial f = T^n - g with g != 0, else 1."""
    n = f.degree()
    return n if f.coeff(0) and not any(f.coeffs[1:-1]) else 1


def _roots_of_unity(field, require_sqrt_minus_one):
    """An n with n | q^d - 1 at every qualifying place of degree d over F_q.

    A binomial T^n - g with p not dividing n splits completely only where
    F_{q^d} holds n n-th roots of unity; a square root of -1 needs 4 | q^d - 1.
    """
    k = field.base.k
    if k is None or k == QQ:
        return 1
    n = _binomial_degree(field.f)
    return math.lcm(n if n % k.q else 1, 4 if require_sqrt_minus_one else 1)


def find_split_places(
    field, count=1, budget=None, require_nonreal=True, require_sqrt_minus_one=False
):
    """First `count` completely split places in canonical candidate order.

    require_nonreal keeps only places whose residue field is nonreal (always
    true for finite residue fields); require_sqrt_minus_one additionally
    demands an explicit square root of -1 in the residue field.  The result
    flags exhaustion when the budget ran out first, and names that budget;
    found records are still returned.
    """
    if count < 1:
        raise DegenerateInputError("count must be positive")
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.wall_seconds
    records, tried = [], 0
    roots_of_unity = _roots_of_unity(field, require_sqrt_minus_one)
    for place in _candidate_places(field.base, budget, roots_of_unity):
        if tried >= budget.max_candidates:
            return SplitSearchResult(tuple(records), tried, True, "max_candidates")
        if time.monotonic() > deadline:
            return SplitSearchResult(tuple(records), tried, True, "wall_seconds")
        tried += 1
        rec = analyze_place(field, place)
        if rec is None or (require_nonreal and not rec.nonreal):
            continue
        if require_sqrt_minus_one and rec.sqrt_minus_one is None:
            continue
        records.append(rec)
        if len(records) == count:
            return SplitSearchResult(tuple(records), tried, False)
    return SplitSearchResult(tuple(records), tried, True, "max_size")


def verify_split_place(record):
    """Recompute every claim in a SplitPlaceRecord from scratch."""
    field = record.field
    try:
        place = BasePlace(field.base, record.base_place.uniformizer)
        if place != record.base_place:
            return CheckResult(False, "uniformizer is not normalized")
        # pi does not divide disc(f) once the monic fbar has deg f distinct
        # simple roots, as disc(fbar), which is disc(f) mod pi, is then nonzero
        R = place.residue_field()
        roots = [R.coerce(r) for r in record.roots]
        if any(r is None for r in roots):
            return CheckResult(False, "root outside the residue field")
        if len(roots) != field.deg:
            return CheckResult(False, "root count differs from the degree")
        if len(set(roots)) != len(roots):
            return CheckResult(False, "roots are not distinct")
        if [R.sort_key(r) for r in roots] != sorted(R.sort_key(r) for r in roots):
            return CheckResult(False, "roots are not sorted")
        fbar, dbar = place.reduce_modulus(field.f)
        for r in roots:
            if fbar(r) != R.zero():
                return CheckResult(False, f"{r!r} is not a residue root")
            if dbar(r) == R.zero():
                return CheckResult(False, f"residue root {r!r} is not simple")
        if R.order() is not None:
            # a finite field of odd order n has a square root of -1 iff n = 1 mod 4
            nonreal, has_sqrtm1 = True, R.order() % 4 == 1
        else:
            nonreal, sqrtm1 = residue_is_nonreal(place)
            has_sqrtm1 = sqrtm1 is not None
        if record.nonreal != nonreal:
            return CheckResult(False, "nonreal flag is wrong")
        if record.sqrt_minus_one is not None:
            s = R.coerce(record.sqrt_minus_one)
            if s is None or s * s != -R.one():
                return CheckResult(False, "claimed square root of -1 fails")
        elif has_sqrtm1:
            return CheckResult(False, "residue field has a square root of -1")
    except SosfieldError as e:
        return CheckResult(False, str(e))
    return CheckResult(True, "ok")
