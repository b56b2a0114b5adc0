import random
from fractions import Fraction

import pytest

from sosfield.errors import DegenerateInputError, ZeroDivisorError
from sosfield.fields import QQ, FqElem, FqField
from sosfield.poly import (
    Poly,
    RatFunc,
    RatFuncField,
    discriminant,
    poly_ext_gcd,
    poly_gcd,
    poly_pow_mod,
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


def test_evaluation_at_prime_field_points():
    """Int Horner at F_p points agrees with the sum of terms; other points keep working."""
    rng = random.Random(8)
    for p in (3, 7, 101):
        F = FqField(p)
        for _ in range(20):
            f = _rand_poly(F, rng, rng.randrange(0, 7))
            for a in range(p):
                x = F.from_int(a)
                want = sum((c * x**i for i, c in enumerate(f.coeffs)), F.zero())
                assert f(x) == want and type(f(x)) is FqElem
                assert f(a) == want
    f = P(FqField(7), [1, 2, 3])
    with pytest.raises(DegenerateInputError):
        f(FqElem(1, 5))
    assert P(FqField(7), [])(FqElem(3, 7)) == FqElem(0, 7)


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


# ---------------------------------------------------------------------------
# The int-list kernel behind Poly over F_q, against a schoolbook reference on
# plain coefficient lists (lowest degree first) and against sympy.

KERNEL_QS = (3, 7, 101, 10007)


def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_add(a, b, q):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _ref_trim([(a[i] + b[i]) % q for i in range(n)])


def _ref_neg(a, q):
    return [(-c) % q for c in a]


def _ref_mul(a, b, q):
    out = [0] * (len(a) + len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] = (out[i + j] + a[i] * b[j]) % q
    return _ref_trim(out)


def _ref_divmod(a, b, q):
    inv = pow(b[-1], -1, q)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        t = rem[-1] * inv % q
        quo[k] = t
        rem = _ref_add(rem, _ref_neg(_ref_mul([0] * k + [t], b, q), q), q)
    return _ref_trim(quo), rem


def _ref_gcd(a, b, q):
    while b:
        a, b = b, _ref_divmod(a, b, q)[1]
    return _ref_mul(a, [pow(a[-1], -1, q)], q) if a else a


def _ref_pow_mod(a, e, m, q):
    if e == 0:
        return [1]  # poly_pow_mod leaves a**0 unreduced, even mod a constant
    result, base = [1], _ref_divmod(a, m, q)[1]
    for bit in bin(e)[2:]:
        result = _ref_divmod(_ref_mul(result, result, q), m, q)[1]
        if bit == "1":
            result = _ref_divmod(_ref_mul(result, base, q), m, q)[1]
    return result


def _ints(p):
    return [c.val for c in p.coeffs]


def _kernel_cases(seed, count):
    """Seeded (q, a, b) with degrees 0-40, zero and non-monic operands, b != 0."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice(KERNEL_QS)

        def rand(lo):
            d = rng.choice([lo, rng.randint(lo, 5), rng.randint(lo, 40)])
            if d < 0:
                return []
            return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]

        yield q, rand(-1), rand(0)


def _fq(q, a):
    return Poly(FqField(q), a, "T")


def test_kernel_arithmetic_matches_schoolbook():
    for q, a, b in _kernel_cases(1, 200):
        A, B = _fq(q, a), _fq(q, b)
        assert _ints(A + B) == _ref_add(a, b, q)
        assert _ints(A - B) == _ref_add(a, _ref_neg(b, q), q)
        assert _ints(B - A) == _ref_add(b, _ref_neg(a, q), q)
        assert _ints(A * B) == _ref_mul(a, b, q)
        quo, rem = divmod(A, B)
        assert (_ints(quo), _ints(rem)) == _ref_divmod(a, b, q)
        for r in (A + B, A * B, quo, rem):
            assert r.field == FqField(q) and r.var == "T"
            assert all(c.q == q for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0


def test_kernel_gcd_matches_schoolbook():
    for q, a, b in _kernel_cases(2, 120):
        A, B = _fq(q, a), _fq(q, b)
        g = _ref_gcd(a, b, q)
        assert _ints(poly_gcd(A, B)) == g
        assert _ints(poly_gcd(B, A)) == g
        G, S, T = poly_ext_gcd(A, B)
        assert _ints(G) == g
        assert _ref_add(_ref_mul(_ints(S), a, q), _ref_mul(_ints(T), b, q), q) == g
    F = FqField(7)
    zero = Poly(F, [], "T")
    assert poly_gcd(zero, zero).is_zero()
    assert poly_ext_gcd(zero, zero) == (zero, Poly(F, [1], "T"), zero)


def test_kernel_pow_mod_matches_schoolbook():
    rng = random.Random(3)
    for q, a, m in _kernel_cases(3, 24):
        m = m[:13] if len(m) > 13 else m
        if not m or m[-1] == 0:
            m = m[:-1] + [1] if m else [1]
        for e in (0, 1, 2, q, q + 1, rng.randrange(q**3)):
            assert _ints(poly_pow_mod(_fq(q, a), e, _fq(q, m))) == _ref_pow_mod(a, e, m, q)


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    x = sympy.Symbol("x")

    def to_sym(a, q):
        return sympy.Poly(list(reversed(a)) or [0], x, modulus=q)

    def from_sym(p, q):
        return _ref_trim([c % q for c in reversed(p.all_coeffs())])

    rng = random.Random(4)
    for q, a, b in _kernel_cases(4, 40):
        A, B, SA, SB = _fq(q, a), _fq(q, b), to_sym(a, q), to_sym(b, q)
        assert _ints(A + B) == from_sym(SA + SB, q)
        assert _ints(A - B) == from_sym(SA - SB, q)
        assert _ints(A * B) == from_sym(SA * SB, q)
        quo, rem = divmod(A, B)
        squo, srem = SA.div(SB)
        assert (_ints(quo), _ints(rem)) == (from_sym(squo, q), from_sym(srem, q))
        assert _ints(poly_gcd(A, B)) == from_sym(SA.gcd(SB), q)
        e = rng.randrange(q**3)
        expected = gf_pow_mod([c % q for c in SA.all_coeffs()], e, [c % q for c in SB.all_coeffs()], q, ZZ)
        assert _ints(poly_pow_mod(A, e, B)) == _ref_trim([int(c) for c in reversed(expected)])


def test_kernel_modulo_prime_power():
    # the ring (Z/p^k)[X] that factor._hensel_step works in: divisors have a
    # unit leading coefficient, inputs may be negative or unreduced
    from sosfield.poly import _zl_add, _zl_divmod, _zl_mul, _zl_sub

    rng = random.Random(5)
    for M in (3**10, 7**4, 101**3):
        for _ in range(40):
            a = _ref_trim([rng.randrange(-3 * M, 3 * M) for _ in range(rng.randint(0, 30))])
            b = [rng.randrange(M) for _ in range(rng.randint(0, 12))]
            b.append(rng.choice([1, M + 1, 2, M - 1]))
            ra = _ref_trim([c % M for c in a])
            assert _zl_add(a, b, M) == _ref_add(ra, b, M)
            assert _zl_sub(a, b, M) == _ref_add(ra, _ref_neg(b, M), M)
            assert _zl_sub(b, a, M) == _ref_add(b, _ref_neg(ra, M), M)
            assert _zl_mul(a, b, M) == _ref_mul(ra, b, M)
            quo, rem = _zl_divmod(a, b, M)
            assert (quo, rem) == _ref_divmod(ra, _ref_trim([c % M for c in b]), M)
            assert len(rem) < len(b)


def test_hensel_step_lifts_mod_prime_square():
    from sosfield.factor import _hensel_step
    from sosfield.poly import _Fp, _zl_add, _zl_mul, _zl_sub

    # f = (X^2 + 1)(X^3 - 2X + 5) + 7(X - 3), a product mod 7 only
    f = [-16, 5, 5, -1, 0, 1]
    p = 7
    g, h = [1, 0, 1], [5, 5, 0, 1]
    one, s, t = _Fp(p).ext_gcd(g, h)
    assert one == [1]
    m = p
    for _ in range(3):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
        assert _zl_sub(f, _zl_mul(g, h, m), m) == []
        assert _zl_add(_zl_mul(s, g, m), _zl_mul(t, h, m), m) == [1]


def test_kernel_keeps_domain_checks():
    F7, F5 = FqField(7), FqField(5)
    a, b = P(F7, [1, 2, 3]), P(F7, [4, 1])
    for other in (P(F5, [4, 1]), P(F7, [4, 1], var="X")):
        for op in (
            lambda u, v: u + v,
            lambda u, v: u - v,
            lambda u, v: u * v,
            divmod,
            poly_gcd,
            poly_ext_gcd,
            lambda u, v: poly_pow_mod(u, 5, v),
        ):
            with pytest.raises(DegenerateInputError):
                op(a, other)
    zero = Poly(F7, [], "T")
    with pytest.raises(ZeroDivisionError):
        divmod(a, zero)
    with pytest.raises(ZeroDivisionError):
        a % zero
    with pytest.raises(ZeroDivisionError):
        poly_pow_mod(a, 3, zero)
    # a non-monic divisor divides through lc^-1 mod q
    quo, rem = divmod(a, P(F7, [1, 3]))
    assert quo * P(F7, [1, 3]) + rem == a and rem.degree() < 1
    # scalars still mix in as constants
    assert a * 3 == P(F7, [3, 6, 2]) and 3 * a == a * 3 and a + 1 == P(F7, [2, 2, 3])


# ---------------------------------------------------------------------------
# Poly over a residue ring F_p[x]/(pi) runs on the _Kr kernel by Kronecker
# substitution; the same ring with _Generic kernels installed runs on lists
# of field elements, which is the reference here.

RESIDUE_PS = (3, 7, 101, 10007, 2**61 - 1)


def _residue_rings(p, pi):
    """The kernel ring F_p[x]/(pi) and its twin on _Generic kernels."""
    from sosfield.extension import QuotientRing
    from sosfield.poly import _Generic, _kernel, _Kr

    F = FqField(p)
    modulus = Poly(F, pi, "x")
    kernel, generic = QuotientRing(F, modulus), QuotientRing(F, modulus)
    generic._k = _Generic(F)
    generic._m = generic._k.pack(modulus.coeffs)
    generic._kernel = _Generic(generic)
    assert type(_kernel(kernel)) is _Kr and kernel == generic
    return kernel, generic


def _irreducible(p, d, rng):
    from sosfield.factor import is_irreducible_fq

    while True:
        pi = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible_fq(Poly(FqField(p), pi, "x")):
            return pi


def _twin(G, a):
    """The residue-ring element or Poly a over the generic twin G of its ring."""
    from sosfield.extension import QuotElem

    if isinstance(a, QuotElem):
        return QuotElem(G, a.coords)
    return Poly(G, [_twin(G, c) for c in a.coeffs], a.var)


def _residue_cases(seed, count):
    """Seeded (rng, R, G, a, b): T-degree -1 to 8, b nonzero and usually non-monic."""
    rng = random.Random(seed)
    for i in range(count):
        p = RESIDUE_PS[i % len(RESIDUE_PS)]
        R, G = _residue_rings(p, _irreducible(p, rng.randint(1, 4), rng))

        def rand(lo):
            return Poly(R, [R.rand(rng) for _ in range(rng.randint(lo, 8) + 1)], "T")

        b = rand(0)
        while b.is_zero():
            b = rand(0)
        yield rng, R, G, rand(-1), b


def test_residue_kernel_matches_generic():
    for rng, R, G, a, b in _residue_cases(11, 40):
        ga, gb = _twin(G, a), _twin(G, b)
        assert a * b == ga * gb and a * a == ga * ga
        assert a + b == ga + gb and a - b == ga - gb and -a == -ga
        assert divmod(a, b) == divmod(ga, gb)
        if a:
            assert divmod(b, a) == divmod(gb, ga)
        assert poly_gcd(a, b) == poly_gcd(ga, gb)
        assert poly_ext_gcd(a, b) == poly_ext_gcd(ga, gb)
        assert poly_ext_gcd(b, a) == poly_ext_gcd(gb, ga)
        m = b if b.degree() > 0 else b + Poly.gen(R, "T")
        for e in (0, 1, 2, min(R.F.q, 10007), rng.randrange(10**4)):
            assert poly_pow_mod(a, e, m) == poly_pow_mod(ga, e, _twin(G, m))
        x = R.rand(rng)
        assert a(x) == ga(_twin(G, x)) and b(x) == gb(_twin(G, x))
        for r in (a * b, *divmod(a, b), *poly_ext_gcd(a, b), poly_pow_mod(a, 5, m)):
            assert r.field is R and r.var == "T"
            assert not r.coeffs or r.coeffs[-1]
            assert all(c.ring is R and len(c.coords) == R.deg for c in r.coeffs)
            assert all(type(v) is FqElem and v.q == R.F.q for c in r.coeffs for v in c.coords)


def test_residue_kernel_zero_operands():
    R, G = _residue_rings(7, [3, 0, 1])  # x^2 + 3 is irreducible mod 7
    zero, a = Poly(R, [], "T"), Poly(R, [R.gen(), 2, R.one()], "T")
    gz, ga = _twin(G, zero), _twin(G, a)
    assert zero * a == gz * ga == zero and a * zero == zero
    assert divmod(zero, a) == divmod(gz, ga) == (zero, zero)
    assert poly_gcd(zero, zero) == zero and poly_gcd(a, zero) == poly_gcd(ga, gz)
    assert poly_ext_gcd(zero, zero) == poly_ext_gcd(gz, gz)
    assert poly_ext_gcd(zero, a) == poly_ext_gcd(gz, ga)
    assert poly_pow_mod(zero, 3, a) == zero and poly_pow_mod(zero, 0, a) == Poly(R, [1], "T")
    with pytest.raises(ZeroDivisionError):
        divmod(a, zero)
    with pytest.raises(ZeroDivisionError):
        poly_pow_mod(a, 3, zero)
    with pytest.raises(DegenerateInputError):
        a * Poly(R, [1], "X")


def test_residue_kernel_zero_divisor_factor():
    # x^2 - 1 = (x - 1)(x + 1) mod 101: a leading coefficient x - 1 is a zero
    # divisor, and both paths report the same factor of the modulus
    R, G = _residue_rings(101, [100, 0, 1])
    lc = R.gen() - 1
    b = Poly(R, [R.one(), 3, lc], "T")
    a = Poly(R, [2, R.gen(), 0, 5, R.one()], "T")
    gb, ga = _twin(G, b), _twin(G, a)
    for op in (
        divmod,
        poly_gcd,
        poly_ext_gcd,
        lambda u, v: poly_pow_mod(u, 7, v),
        lambda u, v: poly_pow_mod(u, 0, v),
    ):
        with pytest.raises(ZeroDivisorError) as kernel:
            op(a, b)
        with pytest.raises(ZeroDivisorError) as generic:
            op(ga, gb)
        assert kernel.value.factor == generic.value.factor == Poly(FqField(101), [100, 1], "x")
        assert str(kernel.value) == str(generic.value)


# ---------------------------------------------------------------------------
# Poly over Q runs on the kernel over Z, packed over one common denominator.
# A subclass of RationalField is equal to QQ, but _kernel gives it a _Generic
# kernel, so its polynomials run on lists of Fractions: the reference.


class _GenericQQ(type(QQ)):
    pass


GQ = _GenericQQ()


def _rand_rational(rng):
    """Small, negative and over-2^64 numerators and denominators."""
    size = rng.choice([3, 3, 3, 40, 70, 90])
    num = rng.randint(-(2**size), 2**size)
    return Fraction(num, rng.choice([1, 1, rng.randint(1, 2**size)]))


def _q_cases(seed, count):
    """Seeded (a, b) over QQ, T-degree -1 to 20, b nonzero: constant, monic or not."""
    rng = random.Random(seed)
    for _ in range(count):

        def rand(lo):
            d = rng.choice([lo, rng.randint(lo, 4), rng.randint(lo, 20)])
            cs = [_rand_rational(rng) for _ in range(d)]
            lead = rng.choice([Fraction(1), Fraction(-1), _rand_rational(rng) or Fraction(3, 7)])
            return Poly(QQ, cs + [lead] if d >= 0 else [], "T")

        yield rng, rand(-1), rand(0)


def _generic(a):
    return Poly(GQ, a.coeffs, a.var)


def test_q_kernel_matches_generic():
    for rng, a, b in _q_cases(21, 150):
        ga, gb = _generic(a), _generic(b)
        assert a.field == ga.field and ga.field is GQ
        assert a * b == ga * gb and a * a == ga * ga
        assert a + b == ga + gb and a - b == ga - gb and b - a == gb - ga
        assert divmod(a, b) == divmod(ga, gb)
        if a:
            assert divmod(b, a) == divmod(gb, ga)
            assert a.monic() == ga.monic()
        m = b if b.degree() > 0 else b + Poly.gen(QQ, "T")
        if a.degree() + b.degree() > 12:
            # Bezout cofactors of random degree-20 inputs run to thousands of digits
            continue
        assert poly_gcd(a, b) == poly_gcd(ga, gb) and poly_gcd(b, a) == poly_gcd(gb, ga)
        assert poly_ext_gcd(a, b) == poly_ext_gcd(ga, gb)
        assert poly_ext_gcd(b, a) == poly_ext_gcd(gb, ga)
        for e in (0, 1, 2, 7, rng.randrange(40)):
            assert poly_pow_mod(a, e, m) == poly_pow_mod(ga, e, _generic(m))
        for r in (a * b, a + b, *divmod(a, b), *poly_ext_gcd(a, b), poly_pow_mod(a, 3, m)):
            assert r.field is QQ and r.var == "T"
            assert all(type(c) is Fraction for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1]


def test_q_kernel_gcd_shares_factors():
    # a common factor of large height survives the primitive remainder sequence
    rng = random.Random(22)
    for _ in range(30):

        def rand(lo, hi, lead):
            return Poly(QQ, [_rand_rational(rng) for _ in range(rng.randint(lo, hi))] + [lead], "T")

        c = rand(1, 5, Fraction(2**70 + 1, 3))
        a, b = c * rand(0, 6, Fraction(1)), c * rand(0, 6, Fraction(-5))
        g = poly_gcd(a, b)
        assert g == poly_gcd(_generic(a), _generic(b))
        assert (g % c.monic()).is_zero() and (a % g).is_zero() and (b % g).is_zero()


def test_q_kernel_zero_operands():
    zero, a = Poly(QQ, [], "T"), Poly(QQ, [Fraction(1, 2), Fraction(-3), Fraction(4, 9)], "T")
    gz, ga = _generic(zero), _generic(a)
    assert zero * a == gz * ga == zero and a * zero == zero and zero + zero == zero
    assert a - a == zero and zero - a == -a
    assert divmod(zero, a) == divmod(gz, ga) == (zero, zero)
    assert poly_gcd(zero, zero) == zero and poly_gcd(a, zero) == poly_gcd(ga, gz) == a.monic()
    assert poly_ext_gcd(zero, zero) == poly_ext_gcd(gz, gz)
    assert poly_ext_gcd(zero, a) == poly_ext_gcd(gz, ga)
    assert poly_ext_gcd(a, zero) == poly_ext_gcd(ga, gz)
    assert poly_pow_mod(zero, 3, a) == zero and poly_pow_mod(zero, 0, a) == Poly(QQ, [1], "T")
    # a constant divisor divides through; a constant modulus leaves zero
    c = Poly(QQ, [Fraction(-2, 3)], "T")
    assert divmod(a, c) == divmod(ga, _generic(c)) and divmod(a, c)[0] * c == a
    assert poly_pow_mod(a, 5, c) == zero and poly_pow_mod(a, 0, c) == Poly(QQ, [1], "T")
    with pytest.raises(ZeroDivisionError):
        divmod(a, zero)
    with pytest.raises(ZeroDivisionError):
        poly_pow_mod(a, 3, zero)
    with pytest.raises(DegenerateInputError):
        a * Poly(QQ, [1], "X")
    with pytest.raises(DegenerateInputError):
        poly_gcd(a, Poly(FqField(7), [1, 1], "T"))


def _q_rings(pi):
    """QuotientRing(QQ, pi) on the kernel, and its twin over the generic rationals."""
    from sosfield.extension import QuotientRing
    from sosfield.poly import _Generic, _Zq

    kernel = QuotientRing(QQ, Poly(QQ, pi, "x"))
    generic = QuotientRing(GQ, Poly(GQ, pi, "x"))
    assert type(kernel._k) is _Zq and type(generic._k) is _Generic and kernel == generic
    return kernel, generic


def test_q_residue_ring_matches_generic():
    from sosfield.extension import QuotElem

    rng = random.Random(23)
    for pi in (
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(3, 4), Fraction(-1, 2), Fraction(0), Fraction(1)],
        [Fraction(2**70 + 3, 5), Fraction(1), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(-7, 2**65), Fraction(1)],
    ):
        R, G = _q_rings(pi)
        elems = [R.zero(), R.one(), R.gen()] + [
            QuotElem(R, [_rand_rational(rng) for _ in range(R.deg)]) for _ in range(5)
        ]
        for x in elems:
            gx = QuotElem(G, x.coords)
            for y in elems[:4] + elems[-2:]:
                gy = QuotElem(G, y.coords)
                assert x * y == gx * gy and x + y == gx + gy and x - y == gx - gy
                if y:
                    assert x / y == gx / gy
            for n in (0, 1, 2, 5, rng.randrange(30)):
                assert x**n == gx**n
            if x:
                assert x.inverse() == gx.inverse() and x**-2 == gx**-2
            p = Poly(QQ, [_rand_rational(rng) for _ in range(rng.randint(0, 9))], "x")
            assert R.from_poly(p) == G.from_poly(Poly(GQ, p.coeffs, "x"))
            for r in (x * x, x**3, R.from_poly(p), x.inverse() if x else x):
                assert r.ring is R and len(r.coords) == R.deg
                assert all(type(c) is Fraction for c in r.coords)


def test_q_residue_ring_zero_divisor_factor():
    from sosfield.extension import QuotElem

    # x^3 - x/4 = x(x - 1/2)(x + 1/2): both paths report the same factor
    R, G = _q_rings([Fraction(0), Fraction(-1, 4), Fraction(0), Fraction(1)])
    x = R.gen()
    for z in (x, x * x - Fraction(1, 4), 2 * x + 1):
        with pytest.raises(ZeroDivisorError) as kernel:
            z.inverse()
        with pytest.raises(ZeroDivisorError) as generic:
            QuotElem(G, z.coords).inverse()
        assert kernel.value.factor == generic.value.factor
        assert kernel.value.factor.field is QQ
        assert str(kernel.value) == str(generic.value)
        with pytest.raises(ZeroDivisorError):
            R.one() / z
    assert (x + 2).inverse() * (x + 2) == R.one()


# ---------------------------------------------------------------------------
# One kernel per coefficient field, chosen by _kernel alone.


def test_kernel_registry():
    from sosfield.extension import ExtField, GlobalBase, QuotElem, QuotientRing
    from sosfield.local import BasePlace
    from sosfield.parsing import parse_poly
    from sosfield.poly import _Fp, _Generic, _kernel, _Kr, _Zq

    F7 = FqField(7)
    qx, f7x = GlobalBase("FF", QQ), GlobalBase("FF", F7)
    residue_q = BasePlace(qx, Poly(QQ, [1, 1, 1], "X")).residue_field()  # Q[x]/(x^2 + x + 1)
    K = ExtField(f7x, parse_poly("T^3-X", f7x.fraction_field()))
    residue_7 = QuotientRing(F7, Poly(F7, [3, 0, 1], "x"))
    for F, kind in (
        (F7, _Fp),
        (QQ, _Zq),
        (residue_7, _Kr),
        (qx.fraction_field(), _Generic),
        (f7x.fraction_field(), _Generic),
        (residue_q, _Generic),
        (K, _Generic),
        (GQ, _Generic),
    ):
        k = _kernel(F)
        assert type(k) is kind, F
        assert _kernel(F) is k and Poly.gen(F, "T").field._kernel is k
    # the element arithmetic of a ring runs on the kernel of its coefficient field
    assert type(residue_q._k) is _Zq and residue_q._k is _kernel(QQ)
    assert type(residue_7._k) is _Fp and type(K._k) is _Generic

    # QuotElem products and inverses agree with the Poly route
    rng = random.Random(31)
    for R in (residue_q, K):
        for _ in range(6):
            x = QuotElem(R, [R.F.rand(rng) for _ in range(R.deg)])
            y = QuotElem(R, [R.F.rand(rng) for _ in range(R.deg)])
            assert x * y == R.from_poly(x.rep() * y.rep())
            if x:
                g, s, _ = poly_ext_gcd(x.rep(), R.modulus)
                assert g == Poly(R.F, [1], R.var) and x.inverse() == R.from_poly(s)


# ---------------------------------------------------------------------------
# Poly and QuotElem keep their kernel's packed value _p; coeffs and coords are
# unpacked from it on first read.  Packed values are canonical, so each
# result's _p is its kernel's pack of its own coefficients, and == and hash
# agree with a value rebuilt from those coefficients.


def _contract_fields():
    """One coefficient field per kernel, and for each a quotient ring over it."""
    from sosfield.extension import ExtField, GlobalBase, QuotientRing
    from sosfield.parsing import parse_poly
    from sosfield.poly import _Fp, _Generic, _Kr, _Zq

    F7, F5 = FqField(7), FqField(5)
    residue_5 = QuotientRing(F5, Poly(F5, [2, 0, 1], "x"))  # F_5[x]/(x^2 + 2)
    gaussian = QuotientRing(QQ, Poly(QQ, [1, 0, 1], "x"))  # Q[x]/(x^2 + 1)
    f7x, qx = GlobalBase("FF", F7), GlobalBase("FF", QQ)
    return [
        (_Fp, F7, QuotientRing(F7, Poly(F7, [1, 0, 1], "x"))),
        (_Zq, QQ, gaussian),
        (_Kr, residue_5, QuotientRing(residue_5, Poly(residue_5, [-residue_5.gen(), 0, 1], "T"))),
        (_Generic, f7x.fraction_field(), ExtField(f7x, parse_poly("T^3-X", f7x.fraction_field()))),
        (_Generic, qx.fraction_field(), ExtField(qx, parse_poly("T^2-X", qx.fraction_field()))),
        (_Generic, gaussian, QuotientRing(gaussian, Poly(gaussian, [-3, 0, 1], "T"))),
    ]


def _assert_canonical(r):
    """r's packed value is its kernel's pack of its coefficients; == and hash match a rebuilt r."""
    from sosfield.extension import QuotElem

    if isinstance(r, QuotElem):
        k, rebuilt = r.ring._k, QuotElem(r.ring, r.coords)
        assert k.pack(r.coords) == r._p
    else:
        k, rebuilt = r._k, Poly(r.field, r.coeffs, r.var)
        assert k.pack(r.coeffs) == r._p
    assert r == rebuilt and rebuilt == r and hash(r) == hash(rebuilt)


def test_packed_values_are_canonical():
    from sosfield.poly import _kernel

    rng = random.Random(41)
    for kind, F, R in _contract_fields():
        assert type(_kernel(F)) is kind and type(R._k) is kind
        for _ in range(4):
            # degree <= 2: Bezout cofactors over Q(X) grow fast with the degree
            a = Poly(F, [F.rand(rng) for _ in range(rng.randint(0, 3))], "T")
            b = Poly(F, [F.rand(rng) for _ in range(rng.randint(0, 2))] + [F.rand(rng) or F.one()], "T")
            m = b if b.degree() > 0 else b + Poly.gen(F, "T")
            results = [a + b, a - b, -a, a * b, b * b, *divmod(a, b), a % b, b.monic(), a**3]
            results += [poly_gcd(a, b), *poly_ext_gcd(a, b), poly_pow_mod(a, 5, m)]
            for r in results:
                _assert_canonical(r)
            x, y = R.rand(rng), R.rand(rng)
            results = [x + y, x - y, -x, x * y, x**3, x**0, y * 3, 1 - x]
            if y:
                results += [y.inverse(), x / y, y**-2]
            for r in results:
                _assert_canonical(r)


def test_values_stay_packed(monkeypatch):
    """*, +, ** and inverse run on packed values; only reading coords unpacks over F_p."""
    from sosfield.extension import ExtField, GlobalBase, QuotElem, QuotientRing
    from sosfield.parsing import parse_poly
    from sosfield.poly import _Fp

    F5, f7x = FqField(5), GlobalBase("FF", FqField(7))
    R = QuotientRing(F5, Poly(F5, [2, 0, 1], "x"))  # F_5[x]/(x^2 + 2)
    K = ExtField(f7x, parse_poly("T^3-X", f7x.fraction_field()))
    X = f7x.fraction_field().gen()

    def cases():
        """(ring, a, b), built afresh, so that no coordinates are cached."""
        yield R, QuotElem(R, [1, 2]), QuotElem(R, [3, 4])
        yield K, K.gen() + X, K.gen() ** 2 - 2 * X + 1

    want = [(a * b, a + b, a**7, a.inverse()) for _, a, b in cases()]

    def refuse(self, P):
        raise AssertionError("unpacked")

    monkeypatch.setattr(_Fp, "unpack", refuse)
    results = []
    for ring, a, b in cases():
        results.append((a * b, a + b, a**7, a.inverse()))
        with pytest.raises(AssertionError, match="unpacked"):
            c = results[-1][0].coords
            if ring is K:  # coordinates are rational functions; their polynomials unpack
                c[0].num.coeffs  # noqa: B018
    monkeypatch.undo()
    for got, expected in zip(results, want):
        assert got == expected and [g.coords for g in got] == [e.coords for e in expected]
