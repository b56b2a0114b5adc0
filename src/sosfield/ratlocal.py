"""Rational and dyadic oracles: two/three squares, Hilbert symbols, Q_2 classes.

Everything here is decided by finite integer arithmetic.  Factoring budgets
are explicit and an out-of-budget answer is "undecided", never a guess; a
refusal always names an obstructing prime that can be checked independently.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CheckResult, DegenerateInputError, PrecisionExhaustedError
from .fields import rat_is_square
from .numtheory import (
    factor_int,
    int_valuation,
    is_prime,
    legendre,
    smallest_nonresidue,
    trial_divide,
)


@dataclass(frozen=True)
class TwoSquareResult:
    """Outcome of the two-square test: decomposed, refused, or undecided."""

    status: str
    pair: tuple = None
    obstructing_prime: int = None
    detail: str = ""


def _cornacchia(p):
    """(a, b) with a <= b and a^2 + b^2 = p, for a prime p = 1 mod 4."""
    # r is a square root of -1 mod p; either one ends in the same (a, b)
    r_prev, r = p, pow(smallest_nonresidue(p), (p - 1) // 4, p)
    while r * r >= p:
        r_prev, r = r, r_prev % r
    a = r
    b = math.isqrt(p - a * a)
    if a * a + b * b != p:
        raise PrecisionExhaustedError(f"descent failed for {p}")
    return (a, b) if a <= b else (b, a)


def two_square_test(q, trial_bound=10**6, rho_rounds=64, seed=0):
    """Decide q = a^2 + b^2 over the rationals, with an explicit decomposition.

    Works on num*den: q is a sum of two rational squares iff every prime
    3 mod 4 divides it to even multiplicity.  The decomposition composes the
    prime pieces in ascending prime order, so the output is deterministic.
    A refusal is emitted only when the named prime's multiplicity is exact,
    which holds even for incomplete factorizations as long as the prime does
    not divide the unfactored cofactor.  Trial division finds every prime up
    to trial_bound, all smaller than the rest, so when one of them refuses q
    Pollard rho does not run.
    """
    q = Fraction(q)
    if q < 0:
        raise DegenerateInputError("two_square_test needs a nonnegative rational")
    if q == 0:
        return TwoSquareResult("decomposed", (Fraction(0), Fraction(0)))
    trial = [trial_divide(n, trial_bound) for n in (q.numerator, q.denominator)]
    exps = {p: e for fac, _ in trial for p, e in fac.items()}  # num, den coprime
    bad = [p for p, e in exps.items() if p <= trial_bound and p % 4 == 3 and e % 2]
    complete = True
    if not bad:  # a rest has no prime up to trial_bound: only rho is left
        for _, rest in trial:
            fac, ok = factor_int(rest, 1, rho_rounds=rho_rounds, seed=seed)
            exps.update(fac)
            complete = complete and ok
        composites = [p for p in exps if not is_prime(p)]
        bad = [
            p
            for p, e in exps.items()
            if p % 4 == 3 and e % 2 and p not in composites and all(c % p for c in composites)
        ]
    if bad:
        return TwoSquareResult(
            "refused",
            obstructing_prime=min(bad),
            detail=f"prime {min(bad)} = 3 mod 4 divides q to odd multiplicity",
        )
    if not complete:
        return TwoSquareResult(
            "undecided", detail=f"unfactored composite cofactor {math.prod(composites)}"
        )
    a, b = 1, 0
    for p in sorted(exps):
        e = exps[p]
        if p % 4 == 3:
            scale = p ** (e // 2)
            a, b = a * scale, b * scale
        else:
            c, d = (1, 1) if p == 2 else _cornacchia(p)
            for _ in range(e):
                a, b = a * c - b * d, a * d + b * c
    den = q.denominator
    pair = (Fraction(abs(a), den), Fraction(abs(b), den))
    if pair[0] ** 2 + pair[1] ** 2 != q:
        raise PrecisionExhaustedError("two-square composition failed its own check")
    return TwoSquareResult("decomposed", pair)


def three_square_test(n):
    """Whether n is a sum of three integer squares: n != 4^a (8b + 7)."""
    if not isinstance(n, int) or n < 0:
        raise DegenerateInputError("three_square_test needs a nonnegative integer")
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7


def _rat_unit_valuation(q, p):
    """(v, u) with q = p^v * u and u a p-adic unit."""
    v = int_valuation(q.numerator, p) - int_valuation(q.denominator, p)
    return v, q / Fraction(p) ** v


def _legendre_rat(u, p):
    """Legendre symbol of a p-adic unit rational, via numerator and denominator."""
    return legendre(u.numerator, p) * legendre(u.denominator, p)


def _mod8(u):
    # odd denominator d has d^2 = 1 mod 8, so 1/d = d there
    return (u.numerator * u.denominator) % 8


def _eps(u):
    return ((_mod8(u) - 1) // 2) % 2


def _omega(u):
    return ((_mod8(u) ** 2 - 1) // 8) % 2


def hilbert_symbol(a, b, p):
    """The Hilbert symbol (a, b)_p over Q_p, p an odd prime, 2, or "real".

    +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial local solution.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DegenerateInputError("Hilbert symbol needs nonzero arguments")
    if p == "real":
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(p, int) or not is_prime(p):
        raise DegenerateInputError(f"{p!r} is not a prime or 'real'")
    alpha, u = _rat_unit_valuation(a, p)
    beta, w = _rat_unit_valuation(b, p)
    if p == 2:
        exp = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exp % 2 else 1
    s = 1
    if (alpha * beta) % 2:
        s *= legendre(p - 1, p)
    if beta % 2:
        s *= _legendre_rat(u, p)
    if alpha % 2:
        s *= _legendre_rat(w, p)
    return s


def q2_is_square(q):
    """Whether q is a square in Q_2: even 2-valuation and unit part 1 mod 8."""
    q = Fraction(q)
    if q == 0:
        raise DegenerateInputError("zero has no square class")
    e, u = _rat_unit_valuation(q, 2)
    return e % 2 == 0 and _mod8(u) == 1


Q2_REPRESENTATIVES = (1, -1, 2, -2, 5, -5, 10, -10)

@dataclass(frozen=True)
class SquareClassQ2:
    representative: int

    def __post_init__(self):
        if self.representative not in Q2_REPRESENTATIVES:
            raise DegenerateInputError(
                f"{self.representative} is not a square class representative"
            )


@dataclass(frozen=True)
class SquareClassTable:
    """The eight square classes of Q_2 with a pairwise inequivalence table."""

    classes: tuple
    inequivalence: tuple


def q2_square_classes():
    """All square classes of Q_2, each pair certified inequivalent.

    The inequivalence entries are (r1, r2, r1/r2, q2_is_square(r1/r2)); the
    last component is False for every pair, which is the proof.
    """
    classes = tuple(SquareClassQ2(r) for r in Q2_REPRESENTATIVES)
    proofs = []
    for i, r1 in enumerate(Q2_REPRESENTATIVES):
        for r2 in Q2_REPRESENTATIVES[i + 1 :]:
            ratio = Fraction(r1, r2)
            proofs.append((r1, r2, ratio, q2_is_square(ratio)))
    return SquareClassTable(classes, tuple(proofs))


@dataclass(frozen=True)
class DyadicHenselCertificate:
    """The fixed five-square isotropy computation over Q_2, with its lift."""

    start: tuple
    value: int
    value_ok: bool
    derivative: int
    e: int
    criterion_ok: bool
    lifted: tuple
    modulus: int
    residue_ok: bool
    conclusion: str


def hensel_criterion(point, index=1, e=1):
    """(ok, value, derivative) for lifting a zero of sum x_i^2 at the point.

    Requires value = 0 mod 2^(2e+1) and the chosen partial derivative of
    exact 2-valuation e; then Newton iteration contracts.
    """
    value = sum(x * x for x in point)
    deriv = 2 * point[index]
    ok = (
        deriv != 0
        and int_valuation(deriv, 2) == e
        and 3 * e >= 2 * e + 1
        and value % 2 ** (2 * e + 1) == 0
    )
    return ok, value, deriv


def dyadic_five_square_check(precision=8):
    """Certify that x1^2 + ... + x5^2 is isotropic over Q_2.

    Starts from 2^2 + 1 + 1 + 1 + 1 = 8, checks the Hensel criterion, and
    Newton-refines the second coordinate to a zero mod 2^precision.
    """
    start = (2, 1, 1, 1, 1)
    ok, value, deriv = hensel_criterion(start)
    if not ok:
        raise PrecisionExhaustedError("fixed starting point failed the criterion")
    others = sum(c * c for i, c in enumerate(start) if i != 1)
    m = 2**precision
    x = start[1]
    for _ in range(precision + 8):
        g = x * x + others
        if g % m == 0:
            break
        x = (x - (g // 2) * pow(x, -1, m)) % m
    else:
        raise PrecisionExhaustedError("Newton refinement did not reach the modulus")
    lifted = tuple(x if i == 1 else c for i, c in enumerate(start))
    residue_ok = sum(c * c for c in lifted) % m == 0
    return DyadicHenselCertificate(
        start=start,
        value=value,
        value_ok=value % 8 == 0,
        derivative=deriv,
        e=1,
        criterion_ok=ok,
        lifted=lifted,
        modulus=m,
        residue_ok=residue_ok,
        conclusion="x1^2+x2^2+x3^2+x4^2+x5^2 is isotropic over Q_2, so Q_2 is nonreal",
    )


def verify_dyadic_certificate(cert):
    """Recompute a DyadicHenselCertificate from its stated data alone."""
    try:
        start = tuple(int(c) for c in cert.start)
        lifted = tuple(int(c) for c in cert.lifted)
        m, e = int(cert.modulus), int(cert.e)
    except (TypeError, ValueError, AttributeError):
        return CheckResult(False, "malformed certificate data")
    if not start or len(start) != len(lifted):
        return CheckResult(False, "start and lifted point shapes differ")
    if e < 1 or m < 2 or m & (m - 1):
        return CheckResult(False, "modulus must be a power of two, e positive")
    diffs = [i for i, (a, b) in enumerate(zip(start, lifted)) if a != b]
    if len(diffs) > 1:
        return CheckResult(False, "lift may move only one coordinate")
    index = diffs[0] if diffs else 1
    ok, value, deriv = hensel_criterion(start, index=index, e=e)
    if (value, deriv) != (cert.value, cert.derivative):
        return CheckResult(False, "criterion data does not recompute")
    # v_2(value) against 2e + 1: e is not bounded yet, so 2^(2e+1) may be huge
    if cert.value_ok != (not value or int_valuation(value, 2) > 2 * e):
        return CheckResult(False, "divisibility flag does not recompute")
    if cert.criterion_ok != ok or not ok:
        return CheckResult(False, "Hensel criterion fails at the start point")
    residue = sum(c * c for c in lifted) % m
    if residue != 0 or cert.residue_ok is not True:
        return CheckResult(False, "lifted point is not a zero mod the modulus")
    # Newton moves the free coordinate by a multiple of 2^(e+1)
    if diffs and (start[index] - lifted[index]) % 2 ** (e + 1) != 0:
        return CheckResult(False, "lift strays outside the Hensel radius")
    return CheckResult(True, "ok")


@dataclass(frozen=True)
class PythChain:
    """Reduction of sigma = sum x_i^2 to u^2 + v^2 along square-root adjunctions.

    radicands are the partial sums s_2, ..., s_{m-1}; a skip flag marks a
    radicand that is already a perfect rational square (nothing to adjoin).
    When sigma itself is a perfect square the chain is empty and v = 0.
    """

    terms: tuple
    sigma: Fraction
    radicands: tuple
    skips: tuple
    u_square: Fraction
    v: Fraction


def pyth_chain_reduce(terms):
    """Build the square-root-adjunction chain writing sum terms^2 as u^2 + v^2."""
    xs = [Fraction(t) for t in terms]
    xs = [x for x in xs if x != 0]
    if not xs:
        raise DegenerateInputError("need at least one nonzero term")
    sigma = sum(x * x for x in xs)
    if rat_is_square(sigma):
        return PythChain(tuple(xs), sigma, (), (), sigma, Fraction(0))
    rad = []
    s = xs[0] * xs[0]
    for x in xs[1:-1]:
        s = s + x * x
        rad.append(s)
    u_square = rad[-1] if rad else xs[0] * xs[0]
    skips = tuple(rat_is_square(r) for r in rad)
    return PythChain(tuple(xs), sigma, tuple(rad), skips, u_square, xs[-1])


def verify_pyth_chain(chain):
    """Recheck every invariant of a PythChain with rational arithmetic only."""
    try:
        xs = [Fraction(t) for t in chain.terms]
    except (TypeError, ValueError):
        return CheckResult(False, "terms are not rationals")
    if not xs or any(x == 0 for x in xs):
        return CheckResult(False, "terms must be nonzero and nonempty")
    sigma = sum(x * x for x in xs)
    if sigma != chain.sigma:
        return CheckResult(False, "sigma differs from the sum of squared terms")
    if chain.u_square + chain.v**2 != sigma:
        return CheckResult(False, "final pair does not reproduce sigma")
    if not chain.radicands and chain.v == 0:
        if not rat_is_square(sigma) or chain.u_square != sigma:
            return CheckResult(False, "square short-circuit claimed for a nonsquare")
        if chain.skips != ():
            return CheckResult(False, "short-circuit chain must have no skips")
        return CheckResult(True, "ok")
    if len(xs) < 2:
        return CheckResult(False, "a single term must short-circuit")
    if len(chain.radicands) != len(xs) - 2:
        return CheckResult(False, "radicand count differs from term count - 2")
    s = xs[0] * xs[0]
    for i, x in enumerate(xs[1:-1]):
        s = s + x * x
        if chain.radicands[i] != s:
            return CheckResult(False, f"radicand {i} is not the partial sum")
    expected_u = chain.radicands[-1] if chain.radicands else xs[0] * xs[0]
    if chain.u_square != expected_u:
        return CheckResult(False, "u^2 is not the last stage")
    if chain.v != xs[-1]:
        return CheckResult(False, "v is not the last term")
    if len(chain.skips) != len(chain.radicands):
        return CheckResult(False, "skip flags do not match radicands")
    for flag, r in zip(chain.skips, chain.radicands):
        if flag != rat_is_square(r):
            return CheckResult(False, f"skip flag wrong for radicand {r}")
    return CheckResult(True, "ok")
