import random
from fractions import Fraction

import pytest

from sosfield.errors import DegenerateInputError
from sosfield.fields import QQ, FqField
from sosfield.poly import (
    Poly,
    RatFunc,
    RatFuncField,
    discriminant,
    poly_ext_gcd,
    poly_gcd,
    poly_pow_mod,
    poly_sqrt,
    resultant,
)


def P(field, coeffs, var="T"):
    return Poly(field, [field.coerce(c) for c in coeffs], var)


def _rand_poly(field, rng, deg, var="T"):
    coeffs = [field.rand(rng, height=9) for _ in range(deg)]
    coeffs.append(field.one())
    return Poly(field, coeffs, var)


def _sylvester_det(a, b):
    """Independent oracle: resultant as the Sylvester matrix determinant."""
    F = a.field
    m, n = a.degree(), b.degree()
    size = m + n
    if size == 0:
        return F.one()
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    rows = [
        [F.zero()] * i + ac + [F.zero()] * (size - i - len(ac)) for i in range(n)
    ] + [[F.zero()] * i + bc + [F.zero()] * (size - i - len(bc)) for i in range(m)]
    det = F.one()
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != F.zero()), None)
        if piv is None:
            return F.zero()
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = F.one() / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f != F.zero():
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def test_poly_basic_arithmetic():
    f = P(QQ, [1, 2, 1])  # 1 + 2T + T^2
    g = P(QQ, [-1, 1])
    assert (f * g).coeffs == tuple(map(Fraction, (-1, -1, 1, 1)))
    assert f(Fraction(2)) == 9
    assert f.degree() == 2 and g.degree() == 1
    assert (f - f).is_zero()


def test_divmod_roundtrip_random():
    rng = random.Random(2)
    for field in (QQ, FqField(5), FqField(7)):
        for _ in range(40):
            a = _rand_poly(field, rng, rng.randrange(0, 6))
            b = _rand_poly(field, rng, rng.randrange(0, 4))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


def test_gcd_monic_and_divides():
    rng = random.Random(3)
    for field in (QQ, FqField(7)):
        for _ in range(25):
            a = _rand_poly(field, rng, rng.randrange(1, 4))
            b = _rand_poly(field, rng, rng.randrange(1, 4))
            c = _rand_poly(field, rng, rng.randrange(0, 3))
            g = poly_gcd(a * c, b * c)
            assert g.is_monic()
            assert (a * c % g).is_zero() and (b * c % g).is_zero()
            # the common factor always divides the gcd
            assert (g % poly_gcd(c, g)).is_zero()


def test_ext_gcd_identity():
    rng = random.Random(4)
    for _ in range(30):
        a = _rand_poly(QQ, rng, rng.randrange(1, 5))
        b = _rand_poly(QQ, rng, rng.randrange(1, 5))
        g, s, t = poly_ext_gcd(a, b)
        assert s * a + t * b == g
        assert g.is_monic()


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(5)
    for field in (QQ, FqField(5), FqField(7)):
        for _ in range(30):
            a = _rand_poly(field, rng, rng.randrange(1, 5))
            b = _rand_poly(field, rng, rng.randrange(1, 5))
            assert resultant(a, b) == _sylvester_det(a, b)


def test_resultant_multiplicative():
    rng = random.Random(6)
    for _ in range(20):
        a = _rand_poly(QQ, rng, rng.randrange(1, 4))
        b = _rand_poly(QQ, rng, rng.randrange(1, 4))
        c = _rand_poly(QQ, rng, rng.randrange(1, 4))
        assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


def test_resultant_detects_common_root():
    a = P(QQ, [-2, 1]) * P(QQ, [3, 1])
    b = P(QQ, [-2, 1]) * P(QQ, [1, 1])
    assert resultant(a, b) == 0


def test_discriminant():
    assert discriminant(P(QQ, [-2, 0, 1])) == 8
    # product of squared root differences for monic split polynomials
    assert discriminant(P(QQ, [2, -3, 1])) == 1  # roots 1, 2
    assert discriminant(P(QQ, [1, -2, 1])) == 0  # double root
    f = P(QQ, [-1, 0, 0, 1])
    assert discriminant(f) != 0


def test_poly_pow_mod_matches_naive():
    rng = random.Random(7)
    for _ in range(20):
        F = FqField(5)
        a = _rand_poly(F, rng, rng.randrange(1, 4))
        m = _rand_poly(F, rng, rng.randrange(1, 4))
        e = rng.randrange(0, 30)
        assert poly_pow_mod(a, e, m) == (a**e) % m


def test_poly_sqrt():
    rng = random.Random(8)
    from sosfield.fields import rat_sqrt

    for _ in range(15):
        f = _rand_poly(QQ, rng, rng.randrange(1, 4))
        r = poly_sqrt(f * f, rat_sqrt)
        assert r is not None and r * r == f * f
    assert poly_sqrt(P(QQ, [1, 1]), rat_sqrt) is None


def test_poly_sort_key_degree_major():
    a, b, c = P(QQ, [5]), P(QQ, [0, 1]), P(QQ, [0, 0, 1])
    assert sorted([c, a, b], key=lambda p: p.sort_key()) == [a, b, c]


def test_ratfunc_canonical_form():
    E = RatFuncField(QQ, "X")
    x = E.gen()
    r = (x * x - E.one()) / (x - E.one())
    assert r.is_poly() and r.as_poly().degree() == 1  # cancels to X + 1
    s = E.one() / (x * 2)
    assert s.den.is_monic()  # denominator normalized monic


def test_ratfunc_field_axioms_random():
    rng = random.Random(9)
    for k in (QQ, FqField(5)):
        E = RatFuncField(k, "X")
        for _ in range(20):
            a, b = E.rand(rng), E.rand(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + E.one()) == a * b + a
            if b != E.zero():
                assert (a / b) * b == a


def test_poly_rejects_mixed_fields():
    with pytest.raises(DegenerateInputError):
        P(QQ, [1, 1]) + P(FqField(5), [1, 1])
