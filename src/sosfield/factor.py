"""Polynomial factorization and real root isolation.

Over a finite field: squarefree split, distinct-degree split, then
Cantor-Zassenhaus equal-degree splitting under a fixed seed. Works over any
finite field object (prime fields and quotient-ring extensions alike).
fq_roots skips the first two: it splits gcd(T^q - T, f) at degree 1.  The
splitting runs on packed values of poly's kernel for the field.

Over Q: Yun squarefree decomposition, reduction modulo a good prime,
multifactor Hensel lifting to a Mignotte-style bound, and subset
recombination. No lattice reduction; degrees here are desk scale.

Real roots: Sturm chains with a Cauchy bound, exact rational bisection.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError
from .fields import QQ, FqField
from .numtheory import is_prime, prime_divisors
from .poly import (
    Poly,
    _Fp,
    _zl_add,
    _zl_divmod,
    _zl_mul,
    _zl_pdivmod,
    _zl_sub,
    _zl_trim,
    discriminant,
    poly_gcd,
    poly_pow_mod,
)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor**multiplicity); factors monic, deterministic order."""

    unit: object
    factors: tuple

    def expand(self):
        first = self.factors[0][0] if self.factors else None
        if first is None:
            raise DegenerateInputError("nothing to expand")
        acc = Poly(first.field, [first.field.one()], first.var)
        for f, m in self.factors:
            acc = acc * f**m
        return acc * self.unit


def _sqf_list_fq(f):
    """Squarefree decomposition of a monic f over a finite field."""
    F = f.field
    p, s = F.char, F.order()
    factors, n = [], 1
    while f.degree() > 0:
        d = f.derivative()
        if not d.is_zero():
            g = poly_gcd(f, d)
            h = f // g
            i = 1
            while h.degree() > 0:
                gh = poly_gcd(g, h)
                part = h // gh
                if part.degree() > 0:
                    factors.append((part.monic(), i * n))
                g, h = g // gh, gh
                i += 1
            if g.degree() == 0:
                break
            f = g
        # here f is a p-th power: deflate and take p-th roots of coefficients
        root = [f.coeffs[j] ** (s // p) for j in range(0, len(f.coeffs), p)]
        f = Poly(F, root, f.var)
        n *= p
    return factors


def _distinct_degree(f):
    """Split monic squarefree f into (product, d) pieces, factors all degree d."""
    F, s = f.field, f.field.order()
    x = Poly.gen(F, f.var)
    h, d, out = x, 0, []
    while f.degree() >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(h, s, f)
        g = poly_gcd(h - x, f)
        if g.degree() > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


def _equal_degree(k, F, A, d, rng):
    """Cantor-Zassenhaus on packed values of the kernel k of a finite field F.

    Splits a monic squarefree A whose factors all have degree d into them.
    """
    n = k.degree(A)
    if n == d:
        return [A]
    e = (F.order() ** d - 1) // 2
    while True:
        a = k.pack([F.rand(rng) for _ in range(n)])
        if k.degree(a) < 1:
            continue
        g = k.gcd(a, A)
        if not 0 < k.degree(g) < n:
            g = k.gcd(k.sub(k.pow_mod(a, e, A), k.one), A)
        if 0 < k.degree(g) < n:
            return _equal_degree(k, F, g, d, rng) + _equal_degree(k, F, k.divmod(A, g)[0], d, rng)


def factor_fq(f):
    """Full factorization over a finite field; deterministic output order.

    Cantor-Zassenhaus draws under the fixed seed 0; the factors are sorted,
    so no seed would change the result, only the running time.
    """
    if f.is_zero():
        raise DegenerateInputError("cannot factor the zero polynomial")
    if f.field.order() is None:
        raise DegenerateInputError("factor_fq needs a finite coefficient field")
    unit = f.lc()
    if f.degree() == 0:
        return Factorization(unit, ())
    F = f.field
    k, rng = f._k, random.Random(0)
    factors = []
    for part, mult in _sqf_list_fq(f.monic()):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(k, F, prod._p, d, rng):
                factors.append((f._new(irr), mult))
    factors.sort(key=lambda t: t[0].sort_key())
    return Factorization(unit, tuple(factors))


def is_irreducible_fq(f):
    """Degree criterion: f | X^(s^n) - X and coprimality at proper iterates."""
    if f.degree() < 1:
        return False
    f = f.monic()
    F, s, n = f.field, f.field.order(), f.degree()
    if n == 1:
        return True
    x = Poly.gen(F, f.var)
    if poly_pow_mod(x, s**n, f) != x % f:
        return False
    for ell in prime_divisors(n):
        g = poly_pow_mod(x, s ** (n // ell), f) - x
        if poly_gcd(g, f).degree() != 0:
            return False
    return True


def fq_roots(f):
    """Roots of f in its finite coefficient field F of order q, canonically sorted.

    g = gcd(T^q - T, f) is the product of the distinct linear factors of f,
    and Cantor-Zassenhaus at degree 1 splits it; only the roots are unpacked.
    """
    if f.is_zero():
        raise DegenerateInputError("cannot factor the zero polynomial")
    F, k = f.field, f._k
    A, x = f._p, k.pack([F.zero(), F.one()])
    g = k.gcd(k.sub(k.pow_mod(x, F.order(), A), x), A)
    if k.degree(g) < 1:
        return []
    return _linear_roots(k, F, g)


def fq_split_roots(f):
    """Roots of a monic f over a finite field F of order q, where f | T^q - T.

    Such an f is a product of distinct linear factors, so it is its own
    gcd(T^q - T, f) and goes straight to the degree-1 split of fq_roots.
    """
    return _linear_roots(f._k, f.field, f._p)


def _linear_roots(k, F, g):
    """Sorted roots of a packed monic g that is a product of distinct linear factors."""
    roots = [-k.unpack(h)[0] for h in _equal_degree(k, F, g, 1, random.Random(0))]
    return sorted(roots, key=F.sort_key)


# ---------------------------------------------------------------------------
# Factorization over Q


def _yun(f):
    """Squarefree decomposition of a monic f over Q: list of (part, mult)."""
    out = []
    fp = f.derivative()
    g = poly_gcd(f, fp)
    if g.degree() == 0:
        return [(f, 1)]
    w, y = f // g, fp // g
    z = y - w.derivative()
    i = 1
    while not z.is_zero():
        h = poly_gcd(w, z)
        if h.degree() > 0:
            out.append((h, i))
        w, y = w // h, z // h
        z = y - w.derivative()
        i += 1
    if w.degree() > 0:
        out.append((w, i))
    return out


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lifting step: from factorization mod m to mod m*m."""
    M = m * m
    e = _zl_sub(f, _zl_mul(g, h, M), M)
    q, r = _zl_divmod(_zl_mul(s, e, M), h, M)
    g1 = _zl_add(g, _zl_add(_zl_mul(t, e, M), _zl_mul(q, g, M), M), M)
    h1 = _zl_add(h, r, M)
    b = _zl_sub(_zl_add(_zl_mul(s, g1, M), _zl_mul(t, h1, M), M), [1], M)
    c, d = _zl_divmod(_zl_mul(s, b, M), h1, M)
    s1 = _zl_sub(s, d, M)
    t1 = _zl_sub(t, _zl_add(_zl_mul(t, b, M), _zl_mul(c, g1, M), M), M)
    return g1, h1, s1, t1


def _hensel_lift(p, f, facs, l):
    """Lift monic factors mod p of f (≡ lc(f)*prod facs) to factors mod p**l."""
    r = len(facs)
    pl = p**l
    if r == 1:
        inv = pow(f[-1] % pl, -1, pl)
        return [_zl_trim([c * inv % pl for c in f])]
    k = r // 2
    g = [f[-1] % p]
    for fi in facs[:k]:
        g = _zl_mul(g, fi, p)
    h = [1]
    for fi in facs[k:]:
        h = _zl_mul(h, fi, p)
    one, s, t = _Fp(p).ext_gcd(g, h)
    if len(one) != 1:
        raise DegenerateInputError("modular factors not coprime; bad prime")
    m = p
    steps = max(1, math.ceil(math.log2(l))) if l > 1 else 0
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    g = _zl_trim([c % pl for c in g])
    h = _zl_trim([c % pl for c in h])
    return _hensel_lift(p, g, facs[:k], l) + _hensel_lift(p, h, facs[k:], l)


def _centered(c, M):
    c %= M
    return c - M if c > M // 2 else c


def _zx_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g or 1


def _zx_primitive(a):
    g = _zx_content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _zx_divides(h, G):
    """Exact division test in Z[X]; returns quotient or None."""
    s, q, r = _zl_pdivmod(G, h, 0)
    if r or any(c % s for c in q):
        return None
    return [c // s for c in q]


def good_prime(G):
    """Smallest odd prime dividing neither lc nor disc of the integer list G."""
    bad = abs(G[-1]) * abs(discriminant(Poly(QQ, G, "X")).numerator)
    if bad == 0:
        raise DegenerateInputError("polynomial not squarefree")
    p = 3
    while not (is_prime(p) and bad % p):
        p += 2
    return p


def _zassenhaus(G):
    """Irreducible integer factors of a primitive squarefree G, lc > 0."""
    n = len(G) - 1
    if n == 1:
        return [G]
    prime = good_prime(G)
    fbar = Poly(FqField.of_prime(prime), G, "X").monic()
    modular = [g._p for g, _ in factor_fq(fbar).factors]
    if len(modular) == 1:
        return [G]
    maxc = max(abs(c) for c in G)
    bound = (n + 1) * (1 << n) * maxc * abs(G[-1])
    l = 1
    while prime**l <= 2 * bound:
        l += 1
    lifted = _hensel_lift(prime, G, modular, l)
    pl = prime**l
    idxs = list(range(len(lifted)))
    result, s = [], 1
    while 2 * s <= len(idxs):
        for subset in itertools.combinations(idxs, s):
            hstar = [G[-1] % pl]
            for i in subset:
                hstar = _zl_mul(hstar, lifted[i], pl)
            h = _zx_primitive([_centered(c, pl) for c in hstar])
            q = _zx_divides(h, G)
            if q is not None:
                result.append(h)
                G = _zx_primitive(q)
                idxs = [i for i in idxs if i not in subset]
                break
        else:
            s += 1
    if len(G) > 1:
        result.append(G)
    return result


def factor_q(f):
    """Factor over Q into monic irreducibles with a rational unit.

    Lifting works modulo the prime from good_prime; the factors found do not
    depend on which good prime that is.
    """
    if f.is_zero():
        raise DegenerateInputError("cannot factor the zero polynomial")
    if f.field != QQ:
        raise DegenerateInputError("factor_q expects rational coefficients")
    unit = f.lc()
    if f.degree() == 0:
        return Factorization(unit, ())
    factors = []
    for part, mult in _yun(f.monic()):
        den = math.lcm(*(c.denominator for c in part.coeffs))
        G = _zx_primitive([int(c * den) for c in part.coeffs])
        for h in _zassenhaus(G):
            factors.append((Poly(QQ, h, f.var).monic(), mult))
    factors.sort(key=lambda t: t[0].sort_key())
    return Factorization(unit, tuple(factors))


# ---------------------------------------------------------------------------
# Real root isolation


def _sign(x):
    return (x > 0) - (x < 0)


def _sturm_chain(f):
    chain = [f, f.derivative()]
    while chain[-1].degree() > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(chain, x):
    signs = [s for s in (_sign(p(x)) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootIntervals:
    """Isolating intervals for the distinct real roots of a polynomial.

    squarefree is the squarefree part actually isolated; intervals are open,
    sorted, pairwise disjoint, and their endpoints are never roots.
    """

    squarefree: Poly
    intervals: tuple

    @property
    def count(self):
        return len(self.intervals)


def _nonroot_midpoint(f, lo, hi):
    mid = (lo + hi) / 2
    step = (hi - lo) / 4
    while f(mid) == 0:
        mid = mid + step
        step = step / 2
    return mid


def sturm_isolate(f):
    """Isolate all distinct real roots of a nonzero rational polynomial."""
    if f.is_zero():
        raise DegenerateInputError("zero polynomial has every point as a root")
    if f.degree() == 0:
        return RootIntervals(f.monic(), ())
    g = (f // poly_gcd(f, f.derivative())).monic()
    bound = 1 + max(abs(c) for c in g.coeffs)
    chain = _sturm_chain(g)
    out = []
    stack = [(Fraction(-bound), Fraction(bound))]
    while stack:
        lo, hi = stack.pop()
        k = _variations(chain, lo) - _variations(chain, hi)
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = _nonroot_midpoint(g, lo, hi)
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort()
    return RootIntervals(g, tuple(out))


def refine_interval(f, lo, hi, width):
    """Shrink an isolating interval of f below `width` by sign bisection."""
    slo = _sign(f(lo))
    if slo == 0 or _sign(f(hi)) == 0 or slo == _sign(f(hi)):
        raise DegenerateInputError("interval endpoints must give opposite signs")
    while hi - lo >= width:
        mid = _nonroot_midpoint(f, lo, hi)
        if _sign(f(mid)) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi
