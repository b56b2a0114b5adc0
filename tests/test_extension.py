import itertools
import random
from fractions import Fraction

import pytest

from sosfield.errors import DegenerateInputError, ZeroDivisorError
from sosfield.extension import (
    ExtField,
    GlobalBase,
    QuotElem,
    QuotientRing,
    field_norm,
    verify_irreducible,
)
from sosfield.fields import QQ, FqField
from sosfield.poly import Poly, RatFunc, RatFuncField


def _over_q(coeffs):
    return Poly(QQ, [Fraction(c) for c in coeffs], "T")


def _base_ff(p):
    return GlobalBase("FF", FqField(p))


def _ff_poly(base, coeffs_in_x):
    """coeffs_in_x: list of X-polynomials given as coefficient lists."""
    E = base.fraction_field()
    k = base.k
    cs = [RatFunc(Poly(k, [k.coerce(a) for a in c], "X")) for c in coeffs_in_x]
    return Poly(E, cs, "T")


def test_global_base_labels():
    assert GlobalBase.from_label("Q").kind == "Q"
    assert GlobalBase.from_label("Fq:5").k == FqField(5)
    assert GlobalBase.from_label("QX").k == QQ
    assert GlobalBase.from_label("Fq:5").label == "Fq:5"
    with pytest.raises(DegenerateInputError):
        GlobalBase.from_label("R")
    # only the canonical digits str(q) name F_q
    for label in ("Fq: 7", "Fq:07", "Fq:0_7", "Fq:7_0", "Fq:+7", "Fq:7 ", "Fq:\u0667"):
        with pytest.raises(DegenerateInputError, match="unknown base label"):
            GlobalBase.from_label(label)
    with pytest.raises(DegenerateInputError) as ei:
        GlobalBase.from_label("Fq:" + "7" * 5000)
    assert len(str(ei.value)) < 100


def test_base_ring_predicates():
    b = GlobalBase("Q")
    assert b.is_integral(Fraction(4)) and not b.is_integral(Fraction(1, 2))
    assert b.to_ring(Fraction(4)) == 4
    assert b.common_denominator([Fraction(1, 4), Fraction(1, 6)]) == 12
    bf = _base_ff(5)
    x = bf.fraction_field().gen()
    assert bf.is_integral(x) and not bf.is_integral(bf.fraction_field().one() / x)


def test_quotient_ring_element_arithmetic():
    K = ExtField(GlobalBase("Q"), _over_q([-2, 0, 1]))
    t = K.gen()
    assert t * t == K.from_int(2)
    a = t + 1
    b = t - 3
    assert a * b == t * t - 2 * t - 3
    assert (a - a) == K.zero()
    assert a * K.one() == a
    assert (a / b) * b == a
    assert t**5 == 4 * t


def test_quotelem_inverse_and_zero_division():
    K = ExtField(GlobalBase("Q"), _over_q([-2, 0, 1]))
    t = K.gen()
    inv = t.inverse()
    assert inv * t == K.one()
    assert inv == t / 2
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()


def test_zero_divisor_reports_modulus_factor():
    # T^2 - 1 is reducible, so the non-unit T - 1 exposes a factor
    R = QuotientRing(QQ, _over_q([-1, 0, 1]))
    x = R.gen() - R.one()
    with pytest.raises(ZeroDivisorError) as ei:
        x.inverse()
    g = ei.value.factor
    assert g.degree() == 1
    assert (_over_q([-1, 0, 1]) % g).is_zero()


def test_field_norm_multiplicative():
    rng = random.Random(21)
    for base, f in (
        (GlobalBase("Q"), _over_q([-2, 0, 1])),
        (GlobalBase("Q"), _over_q([-2, 0, 0, 1])),
        (_base_ff(5), None),
    ):
        if f is None:
            f = _ff_poly(base, [[0, -1], [0], [1]])  # T^2 - X
        K = ExtField(base, f)
        for _ in range(25):
            a, b = K.rand(rng), K.rand(rng)
            assert field_norm(a * b) == field_norm(a) * field_norm(b)
        c = K.F.rand(rng)
        assert field_norm(K.from_base(c)) == c ** K.deg


def test_field_norm_frozen_values():
    K = ExtField(GlobalBase("Q"), _over_q([-2, 0, 1]))
    t = K.gen()
    assert field_norm(t) == -2
    assert field_norm(t - 1) == -1  # (1 - sqrt2)(1 + sqrt2)
    assert field_norm(t + 3) == 7


def test_verify_irreducible_statuses():
    assert verify_irreducible(GlobalBase("Q"), _over_q([-2, 0, 1]))[0] == "verified"
    st, factor = verify_irreducible(GlobalBase("Q"), _over_q([-1, 0, 1]))
    assert st == "reducible" and factor.degree() >= 1
    b5 = _base_ff(5)
    assert verify_irreducible(b5, _ff_poly(b5, [[0, -1], [0], [1]]))[0] == "verified"
    st, factor = verify_irreducible(b5, _ff_poly(b5, [[0, 0, -1], [0], [1]]))
    assert st == "reducible"  # T^2 - X^2 has root X
    # a non-Eisenstein quartic over a function field is only asserted
    assert verify_irreducible(b5, _ff_poly(b5, [[0, 1], [1], [0], [0], [1]]))[0] == "asserted"
    # Eisenstein at X proves binomials of any degree
    assert verify_irreducible(b5, _ff_poly(b5, [[0, -1], [0], [0], [0], [1]]))[0] == "verified"
    b7 = _base_ff(7)
    assert verify_irreducible(b7, _ff_poly(b7, [[0, -1]] + [[0]] * 4 + [[1]]))[0] == "verified"
    bqx = GlobalBase("FF", QQ)
    assert verify_irreducible(bqx, _ff_poly(bqx, [[0, -1]] + [[0]] * 5 + [[1]]))[0] == "verified"


def test_extfield_rejects_bad_input():
    with pytest.raises(DegenerateInputError):
        ExtField(GlobalBase("Q"), _over_q([-1, 0, 1]))  # reducible
    with pytest.raises(DegenerateInputError):
        ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(1, 2), Fraction(1)], "T"))
    f = _ff_poly(_base_ff(5), [[0, 1], [1], [0], [0], [1]])  # T^4 + T + X, not Eisenstein
    K = ExtField(_base_ff(5), f, irreducibility="asserted")
    assert K.irreducibility_status == "asserted"
    with pytest.raises(DegenerateInputError):
        K.decide_irreducibility(required=True)
    assert ExtField(_base_ff(5), f).irreducibility_status == "asserted"


def test_extfield_attributes():
    K = ExtField(GlobalBase("Q"), _over_q([-2, 0, 1]))
    assert K.deg == 2
    assert K.disc == 8
    assert K.irreducibility_status == "verified"
    assert K.from_base(Fraction(1, 3)) * 3 == K.one()
    with pytest.raises(DegenerateInputError):
        K.from_base("nope")


def test_quotient_rings_compare_by_value():
    f = _over_q([-2, 0, 1])
    assert ExtField(GlobalBase("Q"), f) == ExtField(GlobalBase("Q"), f)
    t1 = ExtField(GlobalBase("Q"), f).gen()
    t2 = ExtField(GlobalBase("Q"), f).gen()
    assert t1 == t2 and hash(t1) == hash(t2)
    assert QuotientRing(QQ, _over_q([-3, 0, 1])) != QuotientRing(QQ, f)


def test_mixed_ring_arithmetic_rejected():
    K1 = ExtField(GlobalBase("Q"), _over_q([-2, 0, 1]))
    K2 = ExtField(GlobalBase("Q"), _over_q([-3, 0, 1]))
    with pytest.raises(DegenerateInputError):
        K1.gen() + K2.gen()
    assert K1.gen() != K2.gen()


def test_finite_quotient_enumeration():
    F5 = FqField(5)
    m = Poly(F5, [F5.coerce(2), F5.zero(), F5.one()], "v")  # v^2 + 2, irreducible
    R = QuotientRing(F5, m)
    elems = [QuotElem(R, cs) for cs in itertools.product(range(5), repeat=2)]
    assert len(elems) == 25 == R.order()
    assert len(set(elems)) == 25
    assert elems[0] == R.zero()
    # field structure: every nonzero element inverts
    for e in elems:
        if e != R.zero():
            assert e * e.inverse() == R.one()


# ---------------------------------------------------------------------------
# QuotElem over F_p runs on the int kernel; the same ring with _Generic
# kernels installed runs on lists of field elements, which is the reference.


def _kernel_and_generic(p, pi):
    from sosfield.poly import _Fp, _Generic

    F = FqField(p)
    modulus = Poly(F, pi, "x")
    kernel, generic = QuotientRing(F, modulus), QuotientRing(F, modulus)
    generic._k = _Generic(F)
    generic._m = generic._k.pack(modulus.coeffs)
    generic._kernel = _Generic(generic)
    assert type(kernel._k) is _Fp and kernel == generic
    return kernel, generic


def _irreducible_pi(p, d, rng):
    from sosfield.factor import is_irreducible_fq

    while True:
        pi = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible_fq(Poly(FqField(p), pi, "x")):
            return pi


def test_quot_elem_kernel_matches_generic():
    from sosfield.fields import FqElem, field_sqrt

    rng = random.Random(12)
    for p in (3, 7, 101, 10007, 2**61 - 1):
        for d in (1, 2, 3, 4):
            R, G = _kernel_and_generic(p, _irreducible_pi(p, d, rng))
            elems = [R.zero(), R.one(), R.gen()] + [R.rand(rng) for _ in range(5)]
            for x in elems:
                gx = QuotElem(G, x.coords)
                for y in elems[:4] + [R.rand(rng)]:
                    gy = QuotElem(G, y.coords)
                    assert x * y == gx * gy and x + y == gx + gy and x - y == gx - gy
                    assert x * 3 == gx * 3 and 2 - x == 2 - gx
                    if y:
                        assert x / y == gx / gy
                for n in (0, 1, 2, 5, rng.randrange(10**4)):
                    assert x**n == gx**n
                assert -x == -gx and x == gx and (x == R.zero()) == (not x)
                if x:
                    assert x.inverse() == gx.inverse() and x**-3 == gx**-3
                assert field_sqrt(R, x) == field_sqrt(G, gx)
                assert field_sqrt(R, x * x) in (x, -x)
                for r in (x * x, x + R.one(), -x, x**7):
                    assert r.ring is R and len(r.coords) == d
                    assert all(type(c) is FqElem and c.q == p for c in r.coords)
            with pytest.raises(ZeroDivisionError):
                R.zero().inverse()


def test_quot_elem_kernel_zero_divisor_factor():
    # x^3 - x = x(x - 1)(x + 1) mod 7: x^2 - 1 meets the modulus in x^2 - 1
    R, G = _kernel_and_generic(7, [0, 6, 0, 1])
    x = R.gen()
    for z in (x, x * x - 1, x + 1):
        with pytest.raises(ZeroDivisorError) as kernel:
            z.inverse()
        with pytest.raises(ZeroDivisorError) as generic:
            QuotElem(G, z.coords).inverse()
        assert kernel.value.factor == generic.value.factor
        assert str(kernel.value) == str(generic.value)
        with pytest.raises(ZeroDivisorError):
            R.one() / z
    assert (x + 2).inverse() * (x + 2) == R.one()


def test_quot_elem_rejects_a_coordinate_it_cannot_coerce():
    # this once stored the coordinates (None, 0), and the next + raised AttributeError
    F7 = FqField(7)
    R = QuotientRing(F7, Poly(F7, [1, 0, 1], "x"))
    for bad in (["abc"], [1, 2.5], [None]):
        with pytest.raises(DegenerateInputError, match="cannot coerce"):
            QuotElem(R, bad)
    with pytest.raises(DegenerateInputError, match="cannot coerce"):
        Poly(F7, ["abc"], "x")
    assert QuotElem(R, [Fraction(1, 2), 3]) == QuotElem(R, [4, 3])
