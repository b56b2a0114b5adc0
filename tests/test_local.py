import random
from fractions import Fraction

import pytest

from sosfield.errors import (
    DegenerateInputError,
    InfiniteValuationError,
    PrecisionExhaustedError,
)
from sosfield.certs import parse_field, parse_place
from sosfield.extension import ExtField, GlobalBase, QuotElem, field_norm
from sosfield.fields import QQ, FqField
from sosfield.local import (
    PRECISION_CEILING,
    BasePlace,
    ExtPlace,
    ValuationVector,
    ext_valuation,
    hensel_lift_root,
    valuation_vector,
    weak_approx,
)
from sosfield.poly import Poly, RatFunc
from sosfield.split import analyze_place, find_split_places


def _q_base():
    return GlobalBase("Q")


def _ff_base(p):
    return GlobalBase("FF", FqField(p))


def _sqrt2_field():
    E = QQ
    f = Poly(E, [Fraction(-2), Fraction(0), Fraction(1)], "T")
    return ExtField(_q_base(), f)


def _t2_minus_x_field(p):
    base = _ff_base(p)
    E = base.fraction_field()
    x = E.gen()
    f = Poly(E, [-x, E.zero(), E.one()], "T")
    return ExtField(base, f)


def _x_place(base, c):
    # the place X + c of k(X)
    k = base.k
    return BasePlace(base, Poly(k, [k.coerce(c), k.one()], "X"))


def test_base_place_validation():
    b = _q_base()
    with pytest.raises(DegenerateInputError):
        BasePlace(b, 2)  # residue characteristic 2 unsupported
    with pytest.raises(DegenerateInputError):
        BasePlace(b, 15)
    with pytest.raises(DegenerateInputError):
        BasePlace(b, Fraction(7))
    assert BasePlace(b, -7).uniformizer == 7
    bf = _ff_base(5)
    with pytest.raises(DegenerateInputError):
        BasePlace(bf, Poly(FqField(5), [FqField(5).one()], "X"))  # constant
    red = Poly(FqField(5), [FqField(5).coerce(4), FqField(5).zero(), FqField(5).one()], "X")
    with pytest.raises(DegenerateInputError):
        BasePlace(bf, red)  # X^2 + 4 = (X+1)(X+4)
    # uniformizers normalize to monic
    two_x = Poly(FqField(5), [FqField(5).coerce(2), FqField(5).coerce(2)], "X")
    assert BasePlace(bf, two_x).uniformizer.is_monic()


def test_base_valuation_axioms_q():
    rng = random.Random(41)
    w = BasePlace(_q_base(), 7)
    assert w.valuation(Fraction(7)) == 1
    assert w.valuation(Fraction(1, 49)) == -2
    assert w.valuation(Fraction(3, 5)) == 0
    with pytest.raises(InfiniteValuationError):
        w.valuation(Fraction(0))
    for _ in range(200):
        a = QQ.rand(rng, height=50)
        b = QQ.rand(rng, height=50)
        if a == 0 or b == 0:
            continue
        assert w.valuation(a * b) == w.valuation(a) + w.valuation(b)
        if a + b != 0:
            va, vb = w.valuation(a), w.valuation(b)
            assert w.valuation(a + b) >= min(va, vb)
            if va != vb:
                assert w.valuation(a + b) == min(va, vb)


def test_base_valuation_axioms_function_field():
    rng = random.Random(42)
    base = _ff_base(5)
    E = base.fraction_field()
    w = _x_place(base, 4)
    x = E.gen()
    assert w.valuation(x - E.one()) == 1
    assert w.valuation((x - E.one()) ** 3 / x) == 3
    for _ in range(120):
        a, b = E.rand(rng), E.rand(rng)
        if a == E.zero() or b == E.zero():
            continue
        assert w.valuation(a * b) == w.valuation(a) + w.valuation(b)
        if a + b != E.zero():
            assert w.valuation(a + b) >= min(w.valuation(a), w.valuation(b))


def test_residue_reduction_roundtrip():
    w = BasePlace(_q_base(), 7)
    R = w.residue_field()
    assert R.q == 7
    assert w.reduce(Fraction(10)) == R.coerce(3)
    assert w.reduce(Fraction(1, 3)) == R.coerce(5)  # 3*5 = 15 = 1 mod 7
    with pytest.raises(DegenerateInputError):
        w.reduce(Fraction(1, 7))
    b5 = _ff_base(5)
    w5 = _x_place(b5, 4)
    r = w5.reduce(RatFunc(Poly(FqField(5), [FqField(5).coerce(3), FqField(5).one()], "X")))
    # X + 3 at X = 1 is 4
    assert r == w5.residue_field().from_int(4)


def test_hensel_lift_frozen_sqrt2_mod_powers_of_7():
    w = BasePlace(_q_base(), 7)
    f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T")
    r3 = hensel_lift_root(w, f, 3, 2)
    r4 = hensel_lift_root(w, f, 4, 2)
    assert (r3.value, r3.precision) == (10, 2)
    assert (r4.value, r4.precision) == (39, 2)
    assert (10 * 10 - 2) % 49 == 0 and (39 * 39 - 2) % 49 == 0


def test_hensel_precision_doubling_coherence():
    w = BasePlace(_q_base(), 7)
    f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T")
    deep = hensel_lift_root(w, f, 3, 32)
    assert (deep.value**2 - 2) % 7**32 == 0
    for n in (1, 2, 4, 8, 16, 32):
        shallow = hensel_lift_root(w, f, 3, n)
        assert shallow.value == deep.value % 7**n
        assert deep.truncate(n).value == shallow.value
    with pytest.raises(PrecisionExhaustedError):
        deep.truncate(64)


def test_hensel_rejects_bad_roots():
    w = BasePlace(_q_base(), 7)
    f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T")
    with pytest.raises(DegenerateInputError):
        hensel_lift_root(w, f, 5, 4)  # 25 != 2 mod 7
    g = Poly(QQ, [Fraction(4), Fraction(-4), Fraction(1)], "T")  # (T-2)^2
    with pytest.raises(DegenerateInputError):
        hensel_lift_root(w, g, 2, 4)  # double root is not liftable


def test_hensel_lift_function_field():
    base = _ff_base(5)
    E = base.fraction_field()
    x = E.gen()
    w = _x_place(base, 4)
    f = Poly(E, [-x, E.zero(), E.one()], "T")  # T^2 - X
    r = hensel_lift_root(w, f, 1, 3)
    pi3 = w.uniformizer_power(3)
    assert ((r.value * r.value - Poly(FqField(5), [FqField(5).zero(), FqField(5).one()], "X")) % pi3).is_zero()


def test_ext_place_validation_and_valuations():
    K = _sqrt2_field()
    w7 = BasePlace(_q_base(), 7)
    with pytest.raises(DegenerateInputError):
        ExtPlace(K, w7, 5)
    w3 = ExtPlace(K, w7, 3)
    w4 = ExtPlace(K, w7, 4)
    t = K.gen()
    assert ext_valuation(w3, K.from_int(7)) == 1
    assert ext_valuation(w3, K.from_int(14)) == 1
    assert ext_valuation(w3, t) == 0
    assert ext_valuation(w3, t - 3) == 1
    assert ext_valuation(w4, t - 3) == 0
    assert ext_valuation(w3, (t - 3) ** 2 / 7) == 1
    assert ext_valuation(w3, K.one() / 7) == -1
    with pytest.raises(InfiniteValuationError):
        ext_valuation(w3, K.zero())


def test_ext_valuation_axioms_random():
    rng = random.Random(43)
    K = _sqrt2_field()
    w = ExtPlace(K, BasePlace(_q_base(), 7), 3)
    for _ in range(80):
        a, b = K.rand(rng), K.rand(rng)
        if not a or not b:
            continue
        assert ext_valuation(w, a * b) == ext_valuation(w, a) + ext_valuation(w, b)
        if a + b:
            assert ext_valuation(w, a + b) >= min(ext_valuation(w, a), ext_valuation(w, b))


def test_ext_valuation_function_field():
    K = _t2_minus_x_field(5)
    w = _x_place(K.base, 4)
    w1 = ExtPlace(K, w, 1)
    w4 = ExtPlace(K, w, 4)
    t = K.gen()
    x = K.from_base(K.base.fraction_field().gen())
    # unramified split place: base elements keep their base valuation
    assert ext_valuation(w1, x - 1) == 1
    assert ext_valuation(w1, t - 1) == 1
    assert ext_valuation(w4, t - 1) == 0
    assert ext_valuation(w4, t + 1) == 1


def test_valuation_vector_parity():
    K = _sqrt2_field()
    bp = BasePlace(_q_base(), 7)
    places = (ExtPlace(K, bp, 3), ExtPlace(K, bp, 4))
    t = K.gen()
    vv = valuation_vector(places, (t - 3) * 7)
    assert vv.values == (2, 1)
    assert vv.parity() == (0, 1)
    assert not vv.is_constant_parity()
    assert valuation_vector(places, K.from_int(7)).is_constant_parity()


def test_weak_approx_hits_targets():
    K = _sqrt2_field()
    bp = BasePlace(_q_base(), 7)
    places = [ExtPlace(K, bp, 3), ExtPlace(K, bp, 4)]
    for targets in ((1, 0), (0, 1), (3, -2), (2, 2)):
        z = weak_approx(places, list(targets))
        assert tuple(ext_valuation(w, z) for w in places) == targets
    z = weak_approx(places[:1], [5])
    assert ext_valuation(places[0], z) == 5
    with pytest.raises(DegenerateInputError):
        weak_approx(places, [1])
    with pytest.raises(DegenerateInputError):
        weak_approx(places, ["x", "y"])
    with pytest.raises(DegenerateInputError):
        weak_approx([places[0], places[0]], [1, 0])


def test_weak_approx_random_targets(split_field):
    _, rec = split_field
    rng = random.Random(repr(rec.field))
    for _ in range(6):
        targets = [rng.randint(-4, 4) for _ in rec.roots]
        z = weak_approx(rec.ext_places(), targets)
        # read back on fresh places, so no cached lift is shared
        assert valuation_vector(rec.ext_places(), z).values == tuple(targets)


def test_weak_approx_root_offset_of_valuation_two():
    # 3^2 - 58 = -49, so the 7-adic root of T^2 - 58 near 3 is 3 mod 49:
    # v(T - 3) >= 2 there, and weak_approx uses T - 3 - 7 instead
    K = parse_field(GlobalBase("Q"), "T^2-58")
    bp = BasePlace(K.base, 7)
    w3, w4 = ExtPlace(K, bp, 3), ExtPlace(K, bp, 4)
    t = K.gen()
    assert w3.root_offset() == t - 3 and w4.root_offset() == t - 4
    assert ext_valuation(w3, t - 3) >= 2
    assert weak_approx([w3, w4], [1, 0]) == t - 10
    assert weak_approx([w3, w4], [0, 1]) == t - 4
    for targets in ((1, 0), (0, 1), (3, -2), (-1, 4)):
        z = weak_approx([w3, w4], list(targets))
        assert valuation_vector([ExtPlace(K, bp, 3), ExtPlace(K, bp, 4)], z).values == targets


def test_precision_ceiling_raises():
    K = _sqrt2_field()
    w = ExtPlace(K, BasePlace(_q_base(), 7), 3)
    with pytest.raises(PrecisionExhaustedError):
        ext_valuation(w, K.from_int(7 ** (PRECISION_CEILING + 1)))


# split places over Q, F_5(X) and F_7(X); None takes the first split place
VALUATION_FIELDS = [
    ("Q", "T^2-2", None),
    ("Q", "T^3-2", None),
    ("Q", "T^4+6*T^3-4*T+2", None),
    ("Fq:5", "T^2-X", None),
    ("Fq:7", "T^3-X", None),
    ("Fq:7", "T^2-X", "X^2+1"),  # residue field F_49
]


def _lifted_valuation(w, x, precision=16):
    """v_w(x) read off h(theta) mod pi^precision, theta a fresh Hensel lift.

    h is x times a common denominator; a nonzero value mod pi^precision has
    valuation below precision, so the result is exact.
    """
    bp, base = w.base_place, w.field.base
    theta = hensel_lift_root(bp, w.field.f, w.residue_root, precision).value
    m = bp.uniformizer**precision
    den = base.common_denominator(list(x.coords))
    acc = base.ring_zero()
    for c in reversed(x.coords):
        acc = (acc * theta + base.to_ring(c * base.from_ring(den))) % m
    assert acc, "valuation beyond the oracle's precision"
    return bp.ring_valuation(acc) - bp.ring_valuation(den)


def _integral(K, rng):
    """A random element of K whose coordinates lie in the base ring."""
    base = K.base
    if base.kind == "Q":
        coords = [rng.randint(-30, 30) for _ in range(K.deg)]
    else:
        coords = [Poly(base.k, [base.k.rand(rng) for _ in range(3)], "X") for _ in range(K.deg)]
    return QuotElem(K, [base.from_ring(r) for r in coords])


@pytest.mark.parametrize("label,f,place", VALUATION_FIELDS, ids=lambda v: v or "first")
def test_ext_valuation_matches_deep_lift(label, f, place):
    K = parse_field(GlobalBase.from_label(label), f)
    if place is None:
        rec = find_split_places(K).records[0]
    else:
        rec = analyze_place(K, parse_place(K.base, place))
    bp = rec.base_place
    pi = K.from_base(K.base.from_ring(bp.uniformizer))
    offsets = [w.root_offset() for w in rec.ext_places()]
    rng = random.Random(f"{label} {f}")
    shared = rec.ext_places()  # its lifts deepen as the samples need them
    samples = []
    for size in range(K.deg + 1):
        for _ in range(3):
            # residue zero exactly at the places of S: T - a_i vanishes at r_i
            S = set(rng.sample(range(K.deg), size))
            x = K.one()
            for i in S:
                x = x * offsets[i]
            x = x + pi * _integral(K, rng)
            if not x:
                continue
            zeros = {i for i, w in enumerate(rec.ext_places()) if ext_valuation(w, x) > 0}
            assert zeros == S
            samples.append(x)
            samples.append(x / pi ** rng.randint(1, 3))  # denominator divisible by pi
    for k in range(-2, 5):
        u = K.one() + pi * _integral(K, rng)  # a unit at every place
        assert [ext_valuation(w, pi**k * u) for w in rec.ext_places()] == [k] * K.deg
        samples.append(pi**k * u)
    samples += [x for x in (K.rand(rng) for _ in range(12)) if x]
    for x in samples:
        want = [_lifted_valuation(w, x) for w in shared]
        assert [ext_valuation(w, x) for w in rec.ext_places()] == want
        assert [ext_valuation(w, x) for w in shared] == want
        if label == "Q":
            # p splits completely and unramified, so sum_w v_w(x) = v_p(N(x))
            assert sum(want) == bp.valuation(field_norm(x))
