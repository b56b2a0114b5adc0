import random
from fractions import Fraction

import pytest

from sosfield import factor
from sosfield.errors import DegenerateInputError
from sosfield.factor import (
    factor_fq,
    factor_q,
    fq_roots,
    good_prime,
    is_irreducible_fq,
    refine_interval,
    sturm_isolate,
)
from sosfield.fields import QQ, FqField
from sosfield.poly import Poly


def _rand_monic(field, rng, deg):
    coeffs = [field.rand(rng, height=9) for _ in range(deg)]
    coeffs.append(field.one())
    return Poly(field, coeffs, "T")


def test_factor_fq_roundtrip_small_degrees():
    rng = random.Random(31)
    for p in (5, 7):
        F = FqField(p)
        for _ in range(60):
            f = _rand_monic(F, rng, rng.randrange(1, 7))
            fac = factor_fq(f)
            assert fac.expand() == f
            for g, m in fac.factors:
                assert g.is_monic() and m >= 1
                assert is_irreducible_fq(g)
            # deterministic factor order and no repeats
            assert fac.factors == factor_fq(f).factors
            assert len({g.coeffs for g, _ in fac.factors}) == len(fac.factors)


def test_factor_fq_known_splittings():
    F = FqField(5)
    T = Poly.gen(F, "T")
    one = Poly(F, [F.one()], "T")
    # T^2 - X at X=... no; plain: T^2 + 1 = (T+2)(T+3) over F5
    fac = factor_fq(T * T + one)
    assert sorted(str(g) for g, _ in fac.factors) == ["T + 2", "T + 3"]
    # T^2 + 2 is irreducible over F5 (-2 is a nonresidue)
    fac = factor_fq(T * T + one * 2)
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_fq_roots_vs_bruteforce():
    rng = random.Random(32)
    for p in (5, 7):
        F = FqField(p)
        for _ in range(40):
            f = _rand_monic(F, rng, rng.randrange(1, 6))
            want = sorted(
                (F.from_int(a) for a in range(p) if f(F.from_int(a)) == F.zero()),
                key=F.sort_key,
            )
            assert list(fq_roots(f)) == want


def _value(f, a):
    """f(a) as a sum of terms, independent of Poly.__call__."""
    acc = f.field.zero()
    for i, c in enumerate(f.coeffs):
        acc = acc + c * a**i
    return acc


def _finite_fields():
    from sosfield.extension import QuotientRing

    for p in (3, 5, 7, 11, 101):
        F = FqField(p)
        yield F, [F.from_int(a) for a in range(p)]
    for p, pi in ((3, [1, 0, 1]), (3, [1, 2, 0, 1]), (5, [2, 0, 1]), (5, [1, 1, 0, 1])):
        F = FqField(p)
        modulus = Poly(F, pi, "x")
        assert is_irreducible_fq(modulus)
        R = QuotientRing(F, modulus)
        d = len(pi) - 1
        elems = [R.from_poly(Poly(F, [i // p**j % p for j in range(d)], "x")) for i in range(p**d)]
        yield R, elems


def test_fq_roots_vs_every_element():
    """Degrees 0-8 with repeated roots, a root at 0 and a non-monic leading coefficient."""
    rng = random.Random(34)
    for R, elems in _finite_fields():
        T = Poly.gen(R, "T")
        for deg in range(9):
            for _ in range(4):
                linear = rng.randint(0, deg)
                f = Poly(R, [rng.choice(elems[1:])], "T")
                for _ in range(linear):
                    f = f * (T - rng.choice(elems[:3] + elems))
                rest = [rng.choice(elems) for _ in range(deg - linear)]
                f = f * Poly(R, rest + [R.one()], "T")
                assert f.degree() == deg
                want = sorted((a for a in elems if not _value(f, a)), key=R.sort_key)
                assert list(fq_roots(f)) == want, (R, f)


def test_factor_q_roundtrip():
    rng = random.Random(33)
    for _ in range(50):
        f = _rand_monic(QQ, rng, rng.randrange(1, 5))
        fac = factor_q(f)
        assert fac.expand() == f
        for g, m in fac.factors:
            assert g.is_monic() and m >= 1
            assert len(factor_q(g).factors) == 1  # factors stay irreducible


def test_factor_q_known_cases():
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    fac = factor_q(T**4 - one)
    degs = sorted(g.degree() for g, _ in fac.factors)
    assert degs == [1, 1, 2]
    fac = factor_q((T - one * 2) ** 3 * (T + one))
    assert sorted(m for _, m in fac.factors) == [1, 3]
    # Eisenstein at 2: irreducible
    fac = factor_q(T**4 - one * 2)
    assert len(fac.factors) == 1 and fac.factors[0][0].degree() == 4
    # non-monic input keeps the unit out front
    fac = factor_q(T * 2 + one)
    assert fac.unit == 2 and fac.expand() == T * 2 + one


def test_factor_q_prime_independence(monkeypatch):
    # same factorization from two different working primes: disc(f) is
    # -2^3 * 3 * 7^2, so 5 is the first good prime; f splits into 2 factors
    # mod 5 and into 3 mod 13, where recombination has to run
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    f = (T * T - one * 2) * (T * T + T + one)
    assert good_prime([-2, -2, -1, 1, 1]) == 5
    want = factor_q(f).factors
    used = []
    monkeypatch.setattr(factor, "good_prime", lambda G: used.append(G) or 13)
    assert factor_q(f).factors == want
    assert used == [[-2, -2, -1, 1, 1]]


def test_good_prime_avoids_disc_and_lc():
    assert good_prime([-2, 0, 1]) == 3  # disc 8, lc 1
    assert good_prime([-2, 0, 3]) == 5  # disc 24, lc 3
    with pytest.raises(DegenerateInputError):
        good_prime([1, -2, 1])


def test_sturm_isolate_counts():
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    assert sturm_isolate(T * T - one * 2).count == 2
    assert sturm_isolate(T * T + one).count == 0
    assert sturm_isolate(T**3 - one * 2).count == 1
    # repeated roots are isolated once
    assert sturm_isolate((T - one) ** 2 * (T + one)).count == 2


def test_sturm_isolate_intervals_bracket_roots():
    rng = random.Random(34)
    for _ in range(30):
        roots = sorted(rng.sample(range(-8, 9), rng.randrange(1, 4)))
        f = Poly(QQ, [QQ.one()], "T")
        T = Poly.gen(QQ, "T")
        for r in roots:
            f = f * (T - Poly(QQ, [Fraction(r)], "T"))
        iso = sturm_isolate(f)
        assert iso.count == len(roots)
        for (lo, hi), r in zip(iso.intervals, roots):
            assert lo < r < hi
            assert iso.squarefree(lo) != 0 and iso.squarefree(hi) != 0


def test_refine_interval():
    T = Poly.gen(QQ, "T")
    f = T * T - Poly(QQ, [Fraction(2)], "T")
    iso = sturm_isolate(f)
    lo, hi = iso.intervals[1]  # positive root
    lo, hi = refine_interval(iso.squarefree, lo, hi, Fraction(1, 10**6))
    assert hi - lo < Fraction(1, 10**6)
    assert lo * lo < 2 < hi * hi
    with pytest.raises(DegenerateInputError):
        refine_interval(f, Fraction(2), Fraction(3), Fraction(1, 2))
