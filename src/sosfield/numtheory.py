"""Elementary integer number theory used throughout the package.

Everything here is exact integer arithmetic: deterministic Miller-Rabin,
Pollard rho with a trial-division front end, Legendre symbols, Tonelli-Shanks
square roots, p-adic valuations.
"""

import math
import random

from .errors import DegenerateInputError

# The first 13 primes as Miller-Rabin bases: no composite below
# psi_13 = 3317044064679887385961981 (about 3.3e24) is a strong pseudoprime to
# all of them (Sorenson & Webster, Math. Comp. 2017). Bases up to 37 alone
# let psi_12 = 318665857834031151167461 through.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin to the bases _MR_BASES: a proof below psi_13, probable above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime strictly greater than n."""
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k


def primes(start=2):
    """Unbounded ascending prime generator."""
    p = start - 1
    while True:
        p = next_prime(p)
        yield p


def _pollard_rho(n, rng, max_steps=250_000):
    """One bounded split attempt; None when the step budget runs out."""
    if n % 2 == 0:
        return 2
    steps = 0
    while steps < max_steps:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1 and steps < max_steps:
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
    return None


def factor_int(n, trial_bound=10**6, rho_rounds=64, seed=0):
    """Factor a positive integer, returning ({prime: exponent}, complete).

    Trial division up to trial_bound, then Pollard rho with a bounded number
    of split attempts. If the budget runs out, the unfactored composite part
    is included with exponent tagged via the second return value False and the
    leftover stored under its own key; callers must check `complete`.
    """
    if n <= 0:
        raise DegenerateInputError("factor_int needs a positive integer")
    rng = random.Random(seed)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d <= trial_bound and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    stack, complete, rounds = [n] if n > 1 else [], True, 0
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        if rounds >= rho_rounds:
            out[m] = out.get(m, 0) + 1
            complete = False
            continue
        rounds += 1
        d = _pollard_rho(m, rng)
        if d is None:
            out[m] = out.get(m, 0) + 1
            complete = False
            continue
        stack.extend([d, m // d])
    return out, complete


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def smallest_nonresidue(p):
    """Smallest quadratic nonresidue modulo the odd prime p."""
    for a in range(2, p):
        if legendre(a, p) == -1:
            return a
    raise DegenerateInputError(f"{p} has no nonresidue; not an odd prime?")


def sqrt_mod_p(a, p):
    """Tonelli-Shanks square root of a modulo odd prime p, or None.

    Returns the smaller of the two roots, for determinism.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = pow(smallest_nonresidue(p), q, p)
    m, c, t, r = s, z, pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def int_valuation(n, p):
    """Exponent of p in the nonzero integer n."""
    if n == 0:
        raise DegenerateInputError("valuation of 0 is infinite")
    v, n = 0, abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_square_int(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def prime_divisors(n):
    """Sorted prime divisors of a small positive integer."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
