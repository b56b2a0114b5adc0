import itertools
import math
import random

import pytest

from sosfield.errors import DegenerateInputError
from sosfield.fields import FqField, field_sqrt
from sosfield.numtheory import (
    _TRIAL_BLOCK,
    _block_products,
    _is_strong_lucas_prp,
    _pollard_rho,
    factor_int,
    int_valuation,
    is_prime,
    is_square_int,
    legendre,
    next_prime,
    prime_divisors,
    primes,
    smallest_nonresidue,
)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(-3, 50) if is_prime(n)} == known


def test_is_prime_matches_trial_division_below_5000():
    # covers 41^2, 41*43, 43^2 and 43*47 around the trial-division shortcut
    for n in range(5000):
        want = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == want, n


def test_is_prime_pseudoprimes():
    # Carmichael numbers fool the Fermat test; Miller-Rabin must not budge
    assert not any(map(is_prime, (561, 1105, 1729, 2465, 2821)))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# psi_12, the least strong pseudoprime to every prime base up to 37
PSI_12 = 318665857834031151167461
PSI_12_FACTORS = (399165290221, 798330580441)


def test_is_prime_psi12():
    assert PSI_12 == PSI_12_FACTORS[0] * PSI_12_FACTORS[1]
    assert not is_prime(PSI_12)
    assert all(map(is_prime, PSI_12_FACTORS))
    assert is_prime(41) and not is_prime(41 * 43)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert not sympy.isprime(PSI_12)
    rng = random.Random(7)
    sample = [rng.randrange(10**20, 10**24) | 1 for _ in range(300)]
    sample += [sympy.nextprime(n) for n in sample[:30]]
    assert [is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]


# psi_13, the least strong pseudoprime to every prime base up to 41: the
# Miller-Rabin bases stop being a proof here
PSI_13 = 3317044064679887385961981
PSI_13_FACTORS = (1287836182261, 2575672364521)


def test_is_prime_psi13_needs_lucas():
    assert PSI_13 == PSI_13_FACTORS[0] * PSI_13_FACTORS[1]
    assert not is_prime(PSI_13)
    assert all(map(is_prime, PSI_13_FACTORS))
    # it passes every Miller-Rabin round; the strong Lucas test rejects it
    d, s = (PSI_13 - 1) >> 1, 1
    while d % 2 == 0:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, PSI_13)
        assert x in (1, PSI_13 - 1) or any(
            pow(x, 2**r, PSI_13) == PSI_13 - 1 for r in range(1, s)
        )
    assert not _is_strong_lucas_prp(PSI_13)


def test_strong_lucas_matches_sympy():
    # the strong Lucas pseudoprimes below 20000 (Selfridge parameters)
    spsp = [n for n in range(43, 20000, 2) if _is_strong_lucas_prp(n) and not is_prime(n)]
    assert spsp == [5459, 5777, 10877, 16109, 18971]
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    odd = [n for n in range(43, 20000, 2) if all(n % p for p in range(3, 42, 2))]
    assert [_is_strong_lucas_prp(n) for n in odd] == [
        primetest.is_strong_lucas_prp(n) for n in odd
    ]


def test_is_prime_matches_sympy_above_psi13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    sample = [rng.randrange(PSI_13, 10**30) | 1 for _ in range(300)]
    sample += [sympy.nextprime(n) for n in sample[:30]]
    # semiprimes p * (2p - 1), the shape of psi_12 and psi_13
    for p in (sympy.nextprime(rng.randrange(10**12, 10**15)) for _ in range(200)):
        if sympy.isprime(2 * p - 1):
            sample.append(p * (2 * p - 1))
    sample += [PSI_13, PSI_13 + 2, sympy.nextprime(PSI_13), 10**30 - 33]
    assert [is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]


def test_factor_int_psi12_is_not_reported_prime():
    # one rho attempt (250,000 steps) does not split psi_12, so the cofactor
    # comes back flagged incomplete rather than prime; the default 64
    # attempts split it
    fac, complete = factor_int(PSI_12)
    assert (fac, complete) == ({p: 1 for p in PSI_12_FACTORS}, True)
    assert factor_int(PSI_12, rho_rounds=1) == ({PSI_12: 1}, False)


def test_primes_stream():
    assert list(itertools.islice(primes(), 8)) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert list(itertools.islice(primes(10), 3)) == [11, 13, 17]
    assert next_prime(7) == 11
    assert next_prime(-5) == 2


def test_factor_int_roundtrip():
    rng = random.Random(0)
    for _ in range(120):
        n = rng.randrange(2, 10**9)
        fac, complete = factor_int(n)
        assert complete
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)


def test_factor_int_large_semiprime():
    p, q = 10**9 + 7, 10**9 + 9
    fac, complete = factor_int(p * q, trial_bound=10**3)
    assert complete and fac == {p: 1, q: 1}


def test_factor_int_gives_up_honestly():
    p1 = 1000000000000000000000000000057
    p2 = 2305843009213693951
    fac, complete = factor_int(p1 * p2, trial_bound=10**3, rho_rounds=0)
    assert not complete
    # the leftover is recorded so the partition is still exact
    assert math.prod(p**e for p, e in fac.items()) == p1 * p2


def _factor_int_by_loop(n, trial_bound, rho_rounds):
    """factor_int with its trial division one divisor at a time."""
    rng = random.Random(0)
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
        d = None
        while d is None and rounds < rho_rounds:
            rounds += 1
            d = _pollard_rho(m, rng)
        if d is None:
            out[m] = out.get(m, 0) + 1
            complete = False
            continue
        stack.extend([d, m // d])
    return list(out.items()), complete


def _prev_prime(n):
    """Largest prime below n."""
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


def test_factor_int_blocks_match_loop():
    rng = random.Random(4)
    bounds = (5, 10**3, 12_345, 10**6, 10**6 + 1)

    def straddling(edge):
        return _prev_prime(edge), next_prime(edge - 1)

    # primes on both sides of block starts and of the bounds below 10^6
    low = [7 + k * _TRIAL_BLOCK for k in (1, 2, 6, 7, 300)] + [10**3, 12_345]
    low = sorted({p for e in low for p in straddling(e)})
    cases = list(range(1, 2100, 7))  # smaller than one block
    cases += [p * q for p, q in zip(low, low[1:])]
    cases += [p**e * rng.randrange(1, 50) for p in low for e in (2, 3)]
    cases += [rng.choice(low) * rng.choice(low) * rng.randrange(2, 10**4) for _ in range(30)]
    # the last block starts below 10^6 and the first one past it; squares and
    # cubes of the primes around 10^6; factors just above the bounds
    top, above = straddling(10**6 + 1)  # 999983, 1000003
    cases += [p * q for p, q in map(straddling, (7 + 488 * _TRIAL_BLOCK, 7 + 489 * _TRIAL_BLOCK))]
    cases += [top**2, top**3, above**2, above**3, top * above, 11 * above]
    # no factor up to the bound, so every block is passed
    big = next_prime(10**7)
    cases += [big * next_prime(big), 2**7 * 3 * big * next_prime(10**8)]
    for n in cases:
        for trial_bound in bounds:
            for rho_rounds in (64, 0):
                fac, complete = factor_int(n, trial_bound, rho_rounds)
                got = (list(fac.items()), complete)
                assert got == _factor_int_by_loop(n, trial_bound, rho_rounds), n


def test_factor_int_past_cached_blocks():
    # divisors beyond the cached block products are tried one by one
    p = next_prime(2**20 + 5)
    q = next_prime(p)
    for n in (p * q, p * p * 7, 2 * p * 11**3):
        for trial_bound in (p - 1, p, 2**21):
            fac, complete = factor_int(n, trial_bound)
            assert (list(fac.items()), complete) == _factor_int_by_loop(n, trial_bound, 64)


def test_factor_int_builds_blocks_lazily():
    # trial division of 65 ends before 7 * 7 > 13, so no block is touched
    built = len(_block_products)
    assert factor_int(65) == ({5: 1, 13: 1}, True)
    assert len(_block_products) == built


def test_factor_int_rejects_nonpositive():
    with pytest.raises(DegenerateInputError):
        factor_int(0)


def test_legendre_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101):
        for a in range(1, p):
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
        assert legendre(p, p) == 0


def test_sqrt_mod_p_all_squares():
    # square roots mod p go through the one Tonelli-Shanks, fields.field_sqrt
    for p in (3, 5, 7, 13, 17, 101, 577):
        F = FqField(p)
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            r = field_sqrt(F, F.from_int(a))
            if a in squares:
                assert r is not None and r.val * r.val % p == a and r.val <= p - r.val
            else:
                assert r is None
    assert field_sqrt(FqField(7), FqField(7).zero()).val == 0


def test_smallest_nonresidue():
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(23) == 5


def test_int_valuation():
    assert int_valuation(48, 2) == 4
    assert int_valuation(-45, 3) == 2
    assert int_valuation(7, 5) == 0
    with pytest.raises(DegenerateInputError):
        int_valuation(0, 3)


def test_is_square_int():
    squares = {n * n for n in range(100)}
    for n in range(2000):
        assert is_square_int(n) == (n in squares)
    assert not is_square_int(-4)


def test_prime_divisors():
    assert prime_divisors(360) == [2, 3, 5]
    assert prime_divisors(97) == [97]
