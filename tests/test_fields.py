import random
from fractions import Fraction

import pytest

from sosfield.errors import DegenerateInputError
from sosfield.fields import QQ, FqField, field_sqrt, rat_is_square, rat_sqrt


def test_qq_coercion_and_order():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.order() is None
    assert QQ.one() / QQ.coerce(Fraction(3, 5)) == Fraction(5, 3)


def test_rat_is_square():
    assert rat_is_square(Fraction(9, 4))
    assert rat_is_square(Fraction(0))
    assert not rat_is_square(Fraction(2))
    assert not rat_is_square(Fraction(-1))
    assert not rat_is_square(Fraction(9, 8))


def test_rat_sqrt():
    assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rat_sqrt(Fraction(0)) == 0
    with pytest.raises(DegenerateInputError):
        rat_sqrt(Fraction(2))


def test_fq_requires_odd_prime():
    with pytest.raises(DegenerateInputError):
        FqField(4)
    with pytest.raises(DegenerateInputError):
        FqField(2)


def test_fq_arithmetic_tables():
    F = FqField(5)
    a, b = F.from_int(3), F.from_int(4)
    assert (a + b).val == 2
    assert (a * b).val == 2
    assert (a - b).val == 4
    assert (a / b).val == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (-a).val == 2
    assert a**3 == F.from_int(2)


def test_fq_division_by_zero():
    F = FqField(7)
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


def test_fq_elements_enumeration():
    F = FqField(7)
    assert [e.val for e in F.elements()] == list(range(7))
    assert F.order() == 7


def test_field_sqrt_exhaustive_small():
    # 577 - 1 = 2^6 * 9 runs the Tonelli-Shanks loop several times
    for p in (3, 5, 7, 11, 13, 17, 101, 577):
        F = FqField(p)
        squares = {(x * x) % p for x in range(p)}
        for a in range(p):
            r = field_sqrt(F, F.from_int(a))
            if a in squares:
                assert r is not None and r * r == F.from_int(a)
                # canonical choice: minimal under the field sort key
                other = -r
                assert F.sort_key(r) <= F.sort_key(other)
            else:
                assert r is None


def test_field_sqrt_random_large_prime():
    F = FqField(10**9 + 7)
    rng = random.Random(1)
    for _ in range(25):
        x = F.from_int(rng.randrange(1, 10**9))
        r = field_sqrt(F, x * x)
        assert r is not None and r * r == x * x


def test_qq_sort_key_total_order():
    # (numerator, denominator): any fixed total order keeps enumeration stable
    xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    got = sorted(xs, key=QQ.sort_key)
    assert got == [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2)]
    assert len({QQ.sort_key(x) for x in xs}) == len(xs)
