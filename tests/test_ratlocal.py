import dataclasses
import math
import random
from fractions import Fraction

import pytest

from sosfield.errors import DegenerateInputError
from sosfield.numtheory import factor_int, int_valuation, is_prime, primes
from sosfield.ratlocal import (
    Q2_REPRESENTATIVES,
    _cornacchia,
    dyadic_five_square_check,
    hensel_criterion,
    hilbert_symbol,
    pyth_chain_reduce,
    q2_class_of,
    q2_is_square,
    q2_square_classes,
    three_square_test,
    two_square_test,
    verify_dyadic_certificate,
    verify_pyth_chain,
)

HARD_SEMIPRIME = (10**9 + 7) * (10**9 + 9)


def test_cornacchia_matches_brute_force():
    for p in primes(5):
        if p >= 10**5:
            break
        if p % 4 != 1:
            continue
        a = next(a for a in range(1, p) if math.isqrt(p - a * a) ** 2 == p - a * a)
        assert _cornacchia(p) == (a, math.isqrt(p - a * a)), p


def test_cornacchia_large_primes():
    rng = random.Random(20)
    for _ in range(40):
        p = rng.randrange(10**20, 2 * 10**20)
        while p % 4 != 1 or not is_prime(p):
            p += 1
        a, b = _cornacchia(p)
        assert a <= b and a * a + b * b == p


def test_two_square_frozen_values():
    r = two_square_test(5)
    assert r.status == "decomposed" and r.pair == (Fraction(1), Fraction(2))
    r = two_square_test(Fraction(13, 4))
    assert r.status == "decomposed" and r.pair == (Fraction(3, 2), Fraction(1))
    r = two_square_test(7)
    assert r.status == "refused" and r.obstructing_prime == 7
    assert two_square_test(0).pair == (0, 0)
    assert two_square_test(9).pair == (Fraction(3), Fraction(0))
    assert two_square_test(2).pair == (Fraction(1), Fraction(1))
    with pytest.raises(DegenerateInputError):
        two_square_test(-5)


def test_two_square_deterministic():
    q = Fraction(450, 121)
    assert two_square_test(q) == two_square_test(q)


def _rand_positive_rational(rng, height):
    num = rng.randrange(1, height + 1)
    den = rng.randrange(1, height + 1)
    return Fraction(num, den)


def test_two_square_composition_property():
    rng = random.Random(61)
    seen = 0
    while seen < 220:
        q = _rand_positive_rational(rng, 10**4)
        r = two_square_test(q)
        if r.status == "decomposed":
            a, b = r.pair
            assert a * a + b * b == q
            assert a >= 0 and b >= 0
        else:
            assert r.status == "refused"
            p = r.obstructing_prime
            assert p % 4 == 3 and is_prime(p)
            v = int_valuation(q.numerator, p) - int_valuation(q.denominator, p)
            assert v % 2 == 1
        seen += 1


def _all_local_two_square(q):
    """Independent oracle: q is a sum of two squares iff (-1, q) = 1 everywhere."""
    if hilbert_symbol(-1, q, "real") != 1:
        return False
    ps = {2}
    for n in (q.numerator, q.denominator):
        fac, ok = factor_int(n)
        assert ok
        ps.update(fac)
    return all(hilbert_symbol(-1, q, p) == 1 for p in ps)


def test_two_square_matches_all_local_criterion():
    rng = random.Random(62)
    agree = 0
    while agree < 220:
        q = _rand_positive_rational(rng, 10**4)
        r = two_square_test(q)
        assert r.status in ("decomposed", "refused")
        assert (r.status == "decomposed") == _all_local_two_square(q), f"q={q}"
        agree += 1


def test_two_square_undecided_on_hard_composite():
    r = two_square_test(HARD_SEMIPRIME, trial_bound=10**3, rho_rounds=0)
    assert r.status == "undecided"
    assert str(HARD_SEMIPRIME) in r.detail


def test_two_square_refusal_needs_exact_multiplicity():
    # 3 divides q once and the unfactored cofactor is prime to 3: refusing is sound
    n = HARD_SEMIPRIME
    assert n % 3 != 0
    r = two_square_test(3 * n, trial_bound=10**3, rho_rounds=0)
    assert r.status == "refused" and r.obstructing_prime == 3
    # but when 7 stays hidden inside the cofactor nothing may be refused
    r = two_square_test(49 * n, trial_bound=5, rho_rounds=0)
    assert r.status == "undecided"
    # even exponent of a found prime with coprime cofactor: still undecided, never refused
    r = two_square_test(9 * n, trial_bound=10**3, rho_rounds=0)
    assert r.status == "undecided"


def test_three_square():
    assert three_square_test(7) is False
    assert [n for n in range(1, 16) if not three_square_test(n)] == [7, 15]
    assert three_square_test(28) is False  # 4 * 7
    assert three_square_test(112) is False  # 16 * 7
    assert three_square_test(60) is False  # 4 * (8 + 7)
    assert three_square_test(62) is True  # 49 + 9 + 4
    assert three_square_test(0) is True
    with pytest.raises(DegenerateInputError):
        three_square_test(-1)


def test_hilbert_frozen_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, 5, 5) == 1
    assert hilbert_symbol(-1, 7, 7) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(-1, 5, "real") == 1
    assert hilbert_symbol(5, 7, 11) == 1  # both units at 11
    with pytest.raises(DegenerateInputError):
        hilbert_symbol(0, 3, 5)
    with pytest.raises(DegenerateInputError):
        hilbert_symbol(1, 3, 15)


def _rand_nonzero_rational(rng, height=500):
    q = Fraction(rng.randrange(-height, height + 1), rng.randrange(1, height + 1))
    return q if q else Fraction(1)


def test_hilbert_symmetry_and_bilinearity():
    rng = random.Random(63)
    for p in (2, 3, 5, 7, 13, "real"):
        for _ in range(40):
            a = _rand_nonzero_rational(rng)
            b = _rand_nonzero_rational(rng)
            c = _rand_nonzero_rational(rng)
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a * c, b, p) == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p)
            assert hilbert_symbol(a * a, b, p) == 1
            assert hilbert_symbol(a, -a, p) == 1
            if a != 1:
                assert hilbert_symbol(a, 1 - a, p) == 1


def test_hilbert_product_formula():
    rng = random.Random(64)
    for _ in range(100):
        a = _rand_nonzero_rational(rng)
        b = _rand_nonzero_rational(rng)
        ps = {2}
        for n in (a.numerator, a.denominator, b.numerator, b.denominator):
            fac, ok = factor_int(abs(n))
            assert ok
            ps.update(p for p in fac if p > 1)
        prod = hilbert_symbol(a, b, "real")
        for p in sorted(ps):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, f"product formula failed for a={a}, b={b}"


def test_q2_is_square_frozen():
    assert q2_is_square(17)
    assert q2_is_square(Fraction(4, 9))
    assert not q2_is_square(-1)
    assert not q2_is_square(2)
    assert not q2_is_square(5)
    assert q2_is_square(Fraction(1, 4))
    with pytest.raises(DegenerateInputError):
        q2_is_square(0)


def test_q2_square_classes_table():
    table = q2_square_classes()
    assert len(table.classes) == 8
    assert tuple(c.representative for c in table.classes) == Q2_REPRESENTATIVES
    assert len(table.inequivalence) == 28  # all unordered pairs
    seen = set()
    for r1, r2, ratio, is_sq in table.inequivalence:
        assert ratio == Fraction(r1, r2)
        assert is_sq is False  # the proof of pairwise inequivalence
        assert q2_is_square(ratio) is False
        seen.add(frozenset((r1, r2)))
    assert len(seen) == 28


def test_q2_class_of():
    rng = random.Random(65)
    for r in Q2_REPRESENTATIVES:
        assert q2_class_of(r).representative == r
    for _ in range(120):
        q = _rand_nonzero_rational(rng)
        rep = q2_class_of(q).representative
        assert q2_is_square(q / rep)
        s = _rand_nonzero_rational(rng)
        assert q2_class_of(q * s * s).representative == rep
    with pytest.raises(DegenerateInputError):
        q2_class_of(0)


def test_dyadic_certificate_frozen():
    cert = dyadic_five_square_check()
    assert cert.start == (2, 1, 1, 1, 1)
    assert cert.value == 8 and cert.value_ok
    assert cert.derivative == 2 and cert.e == 1
    assert cert.criterion_ok
    assert cert.lifted == (2, 181, 1, 1, 1)
    assert cert.modulus == 256
    assert cert.residue_ok
    assert sum(c * c for c in cert.lifted) % 256 == 0
    assert verify_dyadic_certificate(cert).ok


def test_dyadic_higher_precision():
    cert = dyadic_five_square_check(precision=12)
    assert cert.modulus == 4096
    assert sum(c * c for c in cert.lifted) % 4096 == 0
    assert verify_dyadic_certificate(cert).ok
    # coherent with the shallower run
    assert cert.lifted[1] % 256 in (181, 256 - 181)


def test_hensel_criterion_direct():
    ok, value, deriv = hensel_criterion((2, 1, 1, 1, 1))
    assert (ok, value, deriv) == (True, 8, 2)
    ok, value, deriv = hensel_criterion((1, 1, 1, 1, 1))
    assert not ok and value == 5


def test_dyadic_tamper_rejected():
    cert = dyadic_five_square_check()
    bad = dataclasses.replace(cert, lifted=(2, 180, 1, 1, 1))
    assert not verify_dyadic_certificate(bad).ok
    bad = dataclasses.replace(cert, value=16)
    assert not verify_dyadic_certificate(bad).ok
    bad = dataclasses.replace(cert, modulus=100)
    assert not verify_dyadic_certificate(bad).ok
    bad = dataclasses.replace(cert, e=0)
    assert not verify_dyadic_certificate(bad).ok
    bad = dataclasses.replace(cert, lifted=(3, 181, 1, 1, 1))  # two moved coords
    assert not verify_dyadic_certificate(bad).ok
    # 75^2 + 7 = 0 mod 256 but 75 != 1 mod 4: outside the Hensel radius
    bad = dataclasses.replace(cert, lifted=(2, 75, 1, 1, 1))
    res = verify_dyadic_certificate(bad)
    assert not res.ok and "radius" in res.reason


def test_pyth_chain_frozen_2111():
    chain = pyth_chain_reduce([2, 1, 1, 1])
    assert chain.sigma == 7
    assert chain.radicands == (Fraction(5), Fraction(6))
    assert chain.skips == (False, False)
    assert chain.u_square == 6 and chain.v == 1
    assert chain.u_square + chain.v**2 == 7
    assert not three_square_test(7)
    assert verify_pyth_chain(chain).ok


def test_pyth_chain_perfect_square_short_circuit():
    chain = pyth_chain_reduce([3, 4])
    assert chain.sigma == 25
    assert chain.radicands == () and chain.skips == ()
    assert chain.u_square == 25 and chain.v == 0
    assert verify_pyth_chain(chain).ok


def test_pyth_chain_small_cases():
    chain = pyth_chain_reduce([1, 1, 1])
    assert chain.sigma == 3
    assert chain.radicands == (Fraction(2),)
    assert chain.u_square == 2 and chain.v == 1
    assert verify_pyth_chain(chain).ok
    # zeros are dropped before anything else
    assert pyth_chain_reduce([2, 0, 1, 0, 1, 1]) == pyth_chain_reduce([2, 1, 1, 1])
    with pytest.raises(DegenerateInputError):
        pyth_chain_reduce([0, 0])


def test_pyth_chain_skip_flags():
    chain = pyth_chain_reduce([3, 4, 1])
    assert chain.sigma == 26
    assert chain.radicands == (Fraction(25),)
    assert chain.skips == (True,)
    assert chain.u_square == 25 and chain.v == 1
    assert verify_pyth_chain(chain).ok


def test_pyth_chain_random_roundtrip():
    rng = random.Random(66)
    for _ in range(60):
        n = rng.randrange(1, 7)
        terms = [
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 31)) for _ in range(n)
        ]
        if all(t == 0 for t in terms):
            terms.append(Fraction(1))
        chain = pyth_chain_reduce(terms)
        assert chain.sigma == sum(t * t for t in terms)
        assert chain.u_square + chain.v**2 == chain.sigma
        assert verify_pyth_chain(chain).ok


def test_pyth_chain_tamper_rejected():
    chain = pyth_chain_reduce([2, 1, 1, 1])
    assert not verify_pyth_chain(dataclasses.replace(chain, sigma=Fraction(8))).ok
    assert not verify_pyth_chain(
        dataclasses.replace(chain, radicands=(Fraction(5), Fraction(7)))
    ).ok
    assert not verify_pyth_chain(dataclasses.replace(chain, u_square=Fraction(5))).ok
    assert not verify_pyth_chain(dataclasses.replace(chain, v=Fraction(2))).ok
    assert not verify_pyth_chain(dataclasses.replace(chain, skips=(True, False))).ok
    assert not verify_pyth_chain(
        dataclasses.replace(chain, terms=(Fraction(2), Fraction(0), Fraction(1)))
    ).ok
