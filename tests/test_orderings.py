import dataclasses
import random
from fractions import Fraction

import pytest

from sosfield import orderings
from sosfield.errors import BudgetExhaustedError, DegenerateInputError
from sosfield.extension import ExtField, GlobalBase
from sosfield.factor import factor_q, refine_interval
from sosfield.fields import QQ, FqField
from sosfield.orderings import (
    indefinite_witness,
    real_embeddings,
    sign_at,
    verify_sign_witness,
)
from sosfield.poly import Poly
from sosfield.split import _frac_height, _rational_coeff_pool


def _q_field(coeffs):
    return ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(c) for c in coeffs], "T"))


def test_real_embedding_counts():
    assert len(real_embeddings(_q_field([-2, 0, 1]))) == 2  # sqrt(2)
    assert len(real_embeddings(_q_field([1, 0, 1]))) == 0  # imaginary
    assert len(real_embeddings(_q_field([-2, 0, 0, 1]))) == 1  # cbrt(2)


def test_real_embedding_count_parity_random():
    rng = random.Random(71)
    built = 0
    while built < 25:
        deg = rng.randrange(2, 5)
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(deg)] + [Fraction(1)]
        f = Poly(QQ, coeffs, "T")
        fac = factor_q(f)
        if len(fac.factors) != 1 or fac.factors[0][1] != 1:
            continue
        K = ExtField(GlobalBase("Q"), f)
        built += 1
        embs = real_embeddings(K)
        # conjugate pairs come in twos
        assert (deg - len(embs)) % 2 == 0
        for e in embs:
            assert e.lo < e.hi
            lo, hi = refine_interval(e.minpoly, e.lo, e.hi, Fraction(1, 10**9))
            assert hi - lo < Fraction(1, 10**9)


def test_real_embeddings_preconditions():
    b5 = GlobalBase("FF", FqField(5))
    E = b5.fraction_field()
    Kf = ExtField(b5, Poly(E, [-E.gen(), E.zero(), E.one()], "T"))
    with pytest.raises(DegenerateInputError):
        real_embeddings(Kf)
    f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T")
    K = ExtField(GlobalBase("Q"), f, irreducibility="asserted")
    with pytest.raises(DegenerateInputError):
        real_embeddings(K)


def test_sign_at_sqrt2():
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)  # ordered by root position
    t = K.gen()
    assert sign_at(pos, t) == 1
    assert sign_at(neg, t) == -1
    assert sign_at(pos, t - 1) == 1  # sqrt(2) > 1
    assert sign_at(pos, t - 2) == -1  # sqrt(2) < 2
    assert sign_at(pos, K.from_base(Fraction(3, 7))) == 1
    assert sign_at(pos, K.zero()) == 0
    assert sign_at(neg, t * t - 2) == 0  # the modulus itself vanishes


def test_sign_at_needs_tight_separation():
    # sign of t - 239/169, a convergent of sqrt(2): forces deep refinement
    K = _q_field([-2, 0, 1])
    _, pos = real_embeddings(K)
    t = K.gen()
    assert sign_at(pos, t - K.from_base(Fraction(239, 169))) == 1
    assert sign_at(pos, t - K.from_base(Fraction(577, 408))) == -1


def test_sign_at_multiplicative():
    rng = random.Random(72)
    K = _q_field([-2, 0, 1])
    for emb in real_embeddings(K):
        for _ in range(40):
            a, b = K.rand(rng), K.rand(rng)
            sa, sb = sign_at(emb, a), sign_at(emb, b)
            assert sign_at(emb, a * b) == sa * sb
            assert sign_at(emb, a * a) in (0, 1)


def test_sign_at_wrong_field_rejected():
    K1 = _q_field([-2, 0, 1])
    K2 = _q_field([-3, 0, 1])
    emb = real_embeddings(K1)[0]
    with pytest.raises(DegenerateInputError):
        sign_at(emb, K2.gen())


def test_indefinite_witness_frozen():
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    t = K.gen()
    alpha = t - 2  # sqrt(2) - 2 < 0 under both embeddings
    w = indefinite_witness(K, alpha, pos, neg)
    assert w.pair == (K.one(), K.one())
    assert w.signs == (1, -1)
    # beta = 1 + alpha = sqrt(2) - 1: positive at sqrt(2), negative at -sqrt(2)
    assert w.beta == K.one() + alpha
    assert verify_sign_witness(w).ok


def test_indefinite_witness_swapped_embeddings():
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    alpha = K.gen() - 2
    w = indefinite_witness(K, alpha, neg, pos)
    assert verify_sign_witness(w).ok
    assert sign_at(neg, w.beta) == 1 and sign_at(pos, w.beta) == -1


def test_indefinite_witness_rational_alpha():
    # rational alpha: no rational pair works, but a + b*theta pairs do
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    t = K.gen()
    w = indefinite_witness(K, K.from_int(-2), pos, neg)
    assert verify_sign_witness(w).ok
    assert w.pair == (K.one(), t - 1)
    beta = w.beta
    assert beta == 4 * t - 5  # 1 + (theta-1)^2 * (-2)
    assert sign_at(pos, beta) == 1 and sign_at(neg, beta) == -1


def _indefinite_witness(
    monkeypatch,
    field,
    alpha,
    e1,
    e2,
    max_height=orderings.INDEFINITE_MAX_HEIGHT,
    max_pairs=orderings.INDEFINITE_MAX_PAIRS,
):
    """indefinite_witness under the given search budget."""
    monkeypatch.setattr(orderings, "INDEFINITE_MAX_HEIGHT", max_height)
    monkeypatch.setattr(orderings, "INDEFINITE_MAX_PAIRS", max_pairs)
    return indefinite_witness(field, alpha, e1, e2)


def test_indefinite_witness_preconditions_and_budget(monkeypatch):
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    t = K.gen()
    with pytest.raises(DegenerateInputError):
        indefinite_witness(K, t, pos, neg)  # positive under pos
    with pytest.raises(BudgetExhaustedError):
        _indefinite_witness(monkeypatch, K, K.from_int(-2), pos, neg, max_pairs=3)
    with pytest.raises(BudgetExhaustedError):
        _indefinite_witness(monkeypatch, K, K.from_int(-2), pos, neg, max_height=0)


def _eager_element_pool(field, max_height):
    """Every candidate up to max_height, built before the search starts."""
    theta = field.gen()

    def coord_key(c):
        return (_frac_height(c), abs(c), 0 if c >= 0 else 1)

    out = []
    for h in range(1, max_height + 1):
        coords = _rational_coeff_pool(h)
        fresh = [
            (a, b)
            for b in coords
            for a in coords
            if max(_frac_height(a), _frac_height(b)) == h
        ]
        fresh.sort(key=lambda ab: (coord_key(ab[1]), coord_key(ab[0])))
        out.extend(
            (field.from_base(a) + field.from_base(b) * theta, h) for a, b in fresh
        )
    return out


def _eager_search(field, alpha, e1, e2, max_height=8, max_pairs=20000):
    """The search over the eager pool; returns (pair, candidates tried)."""
    pool = _eager_element_pool(field, max_height)
    tried = 0
    for h in range(1, max_height + 1):
        for x, hx in pool:
            if hx > h:
                break
            for y, hy in pool:
                if hy > h:
                    break
                if max(hx, hy) != h:
                    continue
                tried += 1
                if tried > max_pairs:
                    raise BudgetExhaustedError(
                        f"no sign-splitting pair within {max_pairs} candidates"
                    )
                beta = x * x + y * y * alpha
                if beta and sign_at(e1, beta) == 1 and sign_at(e2, beta) == -1:
                    return (x, y), tried
    raise BudgetExhaustedError(f"no sign-splitting pair up to height {max_height}")


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_indefinite_witness_matches_eager_pool(d, monkeypatch):
    K = _q_field([-d, 0, 1])
    e0, e1 = real_embeddings(K)
    t = K.gen()
    # -20 needs height 2 for d = 3, 5, 7 and 11
    cases = ((t - d, e1, e0), (t - d, e0, e1), (K.from_int(-2), e1, e0))
    cases += ((K.from_int(-20), e1, e0),)
    for alpha, pos, neg in cases:
        pair, tried = _eager_search(K, alpha, pos, neg, max_height=3)
        w = _indefinite_witness(monkeypatch, K, alpha, pos, neg, max_height=3)
        assert (w.pair, w.embeddings, w.signs) == (pair, (pos, neg), (1, -1))
        # the budget runs out at the same candidate
        for budget in (tried - 1, tried // 2):
            if budget < 1:
                continue
            with pytest.raises(BudgetExhaustedError) as lazy:
                _indefinite_witness(
                    monkeypatch, K, alpha, pos, neg, max_height=3, max_pairs=budget
                )
            with pytest.raises(BudgetExhaustedError) as eager:
                _eager_search(K, alpha, pos, neg, max_height=3, max_pairs=budget)
            assert str(lazy.value) == str(eager.value)
        w = _indefinite_witness(monkeypatch, K, alpha, pos, neg, max_height=3, max_pairs=tried)
        assert w.pair == pair


def test_indefinite_witness_height_exhaustion_matches_eager_pool(monkeypatch):
    # up to height 2, x^2 < 24 and y^2 > 1/25 for y != 0 under both
    # embeddings, so alpha = -1000 leaves every beta with y != 0 negative
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    alpha = K.from_int(-1000)
    for max_height in (0, 1, 2):
        with pytest.raises(BudgetExhaustedError) as lazy:
            _indefinite_witness(monkeypatch, K, alpha, pos, neg, max_height=max_height)
        with pytest.raises(BudgetExhaustedError) as eager:
            _eager_search(K, alpha, pos, neg, max_height=max_height)
        assert str(lazy.value) == str(eager.value)


def test_verify_sign_witness_rejects_tampering():
    K = _q_field([-2, 0, 1])
    neg, pos = real_embeddings(K)
    w = indefinite_witness(K, K.gen() - 2, pos, neg)
    assert verify_sign_witness(w).ok

    flipped = dataclasses.replace(w, signs=(-1, 1))
    assert not verify_sign_witness(flipped).ok

    wrong_pair = dataclasses.replace(w, pair=(K.from_int(3), K.zero()))
    assert not verify_sign_witness(wrong_pair).ok

    swapped = dataclasses.replace(w, embeddings=(neg, pos))
    assert not verify_sign_witness(swapped).ok

    zero_beta = dataclasses.replace(w, pair=(K.zero(), K.zero()))
    assert not verify_sign_witness(zero_beta).ok
