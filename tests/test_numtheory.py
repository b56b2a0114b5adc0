import itertools
import math
import random

import pytest

from sosfield.errors import DegenerateInputError
from sosfield.numtheory import (
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
    sqrt_mod_p,
)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(-3, 50) if is_prime(n)} == known


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


def test_factor_int_psi12_is_not_reported_prime():
    # the default rho budget (250,000 steps per attempt) is too small to split
    # psi_12, so the cofactor comes back flagged incomplete rather than prime
    fac, complete = factor_int(PSI_12)
    assert (fac, complete) == ({PSI_12: 1}, False)
    d = _pollard_rho(PSI_12, random.Random(0), max_steps=3_000_000)
    assert {d, PSI_12 // d} == set(PSI_12_FACTORS)


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


def test_factor_int_rejects_nonpositive():
    with pytest.raises(DegenerateInputError):
        factor_int(0)


def test_legendre_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101):
        for a in range(1, p):
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
        assert legendre(p, p) == 0


def test_sqrt_mod_p_all_squares():
    for p in (3, 5, 7, 13, 17, 101, 577):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            r = sqrt_mod_p(a, p)
            if a in squares:
                assert r is not None and r * r % p == a and r <= p - r
            else:
                assert r is None
    assert sqrt_mod_p(0, 7) == 0


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
