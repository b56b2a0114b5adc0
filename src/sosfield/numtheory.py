"""Elementary integer number theory used throughout the package.

Everything here is exact integer arithmetic: Miller-Rabin (deterministic
below psi_13, Baillie-PSW above), Pollard rho with a trial-division front
end, Legendre symbols, Tonelli-Shanks square roots, p-adic valuations.
"""

import itertools
import math
import random

from .errors import DegenerateInputError

# The first 13 primes as Miller-Rabin bases: no composite below
# psi_13 = 3317044064679887385961981 (about 3.3e24) is a strong pseudoprime to
# all of them (Sorenson & Webster, Math. Comp. 2017). Bases up to 37 alone
# let psi_12 = 318665857834031151167461 through.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin to the bases _MR_BASES: a proof below psi_13.

    From psi_13 on, which is itself a strong pseudoprime to those bases, a
    strong Lucas test joins them (Baillie-PSW): no composite is known to
    pass both, but none is proven impossible either.
    """
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
    return n < _PSI_13 or _is_strong_lucas_prp(n)


def _jacobi(a, n):
    """Jacobi symbol (a/n) in {-1, 0, 1} for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n is odd with no prime factor up to 41. D is the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4; writing
    n + 1 = d * 2^s with d odd, n passes when U_d = 0 or V_(d*2^r) = 0 for
    some r < s (Baillie & Wagstaff, Math. Comp. 1980).
    """
    if is_square_int(n):
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1, and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    # (U_k, V_k, Q^k) mod n for k = the leading bits of d, from k = 1
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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


# Trial division runs over blocks of 1,024 consecutive odd divisors from 7
# and skips a block with one gcd against the product of its primes (Bernstein,
# "How to find smooth parts of integers", 2004). The products of the first
# 512 blocks, every divisor below 2^20 and so the default bound of 10^6, are
# built on first use and kept; divisors past them are tried one by one.
_TRIAL_BLOCK = 2048
_CACHED_BLOCKS = 512
_block_products = []  # for blocks 0, 1, ..., grown on demand


def _block_product(block):
    """Product of the primes in the block that starts at 7 + block * _TRIAL_BLOCK.

    A miss extends the table to twice the blocks asked for (at most
    _CACHED_BLOCKS), sieving afresh up to its new end, so building the
    first k blocks costs O(k) however the calls arrive.
    """
    if block >= len(_block_products):
        end = 7 + min(2 * block + 1, _CACHED_BLOCKS) * _TRIAL_BLOCK
        odd = bytearray([1]) * (end // 2)  # odd[i] stands for 2i + 1
        for i in range(1, (math.isqrt(end) + 1) // 2):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
        first = 7 + len(_block_products) * _TRIAL_BLOCK
        _block_products.extend(
            math.prod(
                itertools.compress(
                    range(s, s + _TRIAL_BLOCK, 2),
                    odd[s // 2 : (s + _TRIAL_BLOCK) // 2],
                )
            )
            for s in range(first, end, _TRIAL_BLOCK)
        )
    return _block_products[block]


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
        # d starts a block; when no prime in it divides n, the loop below
        # would divide out nothing, since every smaller prime is gone from n
        block = (d - 7) // _TRIAL_BLOCK
        if block < _CACHED_BLOCKS and math.gcd(n, _block_product(block)) == 1:
            d += _TRIAL_BLOCK
            continue
        end = d + _TRIAL_BLOCK
        while d < end and d <= trial_bound and d * d <= n:
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
