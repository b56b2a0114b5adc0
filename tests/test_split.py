import collections
import dataclasses
import random
from fractions import Fraction

import pytest

from sosfield import split
from sosfield.errors import DegenerateInputError
from sosfield.extension import ExtField, GlobalBase, QuotElem, QuotientRing
from sosfield.factor import factor_q
from sosfield.fields import QQ, FqField
from sosfield.local import BasePlace
from sosfield.numtheory import primes
from sosfield.poly import Poly, RatFuncField, poly_gcd
from sosfield.parsing import parse_poly
from sosfield.split import (
    SearchBudget,
    _candidate_places,
    analyze_place,
    find_split_places,
    number_field_roots,
    residue_is_nonreal,
    verify_split_place,
)


def _sqrt2_field():
    return ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T"))


def _ff_field(p, f_from_x):
    base = GlobalBase("FF", FqField(p))
    E = base.fraction_field()
    return ExtField(base, f_from_x(E))


def _qx_field():
    base = GlobalBase("FF", QQ)
    E = base.fraction_field()
    x = E.gen()
    return ExtField(base, Poly(E, [x * x + 2, E.zero(), E.one()], "T"))


def _residue_product_check(rec):
    """Independent oracle: the claimed roots multiply back to the reduction."""
    R = rec.base_place.residue_field()
    fbar = rec.base_place.reduce_poly(rec.field.f)
    prod = Poly(R, [R.one()], "T")
    for r in rec.roots:
        prod = prod * Poly(R, [-R.coerce(r), R.one()], "T")
    return prod == fbar


def test_first_split_places_over_q():
    K = _sqrt2_field()
    res = find_split_places(K, count=2)
    assert not res.exhausted
    assert res.candidates_tried == 6  # 3, 5, 7, 11, 13, 17
    (r7, r17) = res.records
    assert r7.base_place.uniformizer == 7
    assert tuple(c.val for c in r7.roots) == (3, 4)
    assert r7.nonreal and r7.sqrt_minus_one is None  # 7 = 3 mod 4
    assert r17.base_place.uniformizer == 17
    assert tuple(c.val for c in r17.roots) == (6, 11)
    assert r17.sqrt_minus_one.val == 4
    for rec in res.records:
        assert verify_split_place(rec).ok
        assert _residue_product_check(rec)


def test_split_search_matches_euler_criterion():
    # for T^2 - 2 the split odd primes are exactly those where 2 is a
    # quadratic residue; checked against pow() for the first 25 odd primes
    K = _sqrt2_field()
    ps = []
    for p in primes(3):
        ps.append(p)
        if len(ps) == 25:
            break
    for p in ps:
        rec = analyze_place(K, BasePlace(K.base, p))
        want_split = pow(2, (p - 1) // 2, p) == 1
        assert (rec is not None) == want_split, f"disagreement at p={p}"
        if rec is not None:
            assert verify_split_place(rec).ok


def test_third_split_place_is_23():
    K = _sqrt2_field()
    res = find_split_places(K, count=3)
    assert [r.base_place.uniformizer for r in res.records] == [7, 17, 23]
    assert tuple(c.val for c in res.records[2].roots) == (5, 18)


def test_require_sqrt_minus_one_filter():
    K = _sqrt2_field()
    res = find_split_places(K, count=1, require_sqrt_minus_one=True)
    assert res.records[0].base_place.uniformizer == 17


def test_split_places_f5():
    K = _ff_field(5, lambda E: Poly(E, [-E.gen(), E.zero(), E.one()], "T"))
    res = find_split_places(K, count=2)
    assert not res.exhausted
    u0, u1 = (r.base_place.uniformizer for r in res.records)
    assert str(u0) == "X + 1" and str(u1) == "X + 4"
    assert [c.rep().coeff(0).val for c in res.records[0].roots] == [2, 3]
    assert [c.rep().coeff(0).val for c in res.records[1].roots] == [1, 4]
    for rec in res.records:
        assert rec.nonreal
        assert rec.sqrt_minus_one * rec.sqrt_minus_one == -rec.base_place.residue_field().one()
        assert verify_split_place(rec).ok
        assert _residue_product_check(rec)


def test_split_places_f7_cubic():
    K = _ff_field(7, lambda E: Poly(E, [-E.gen(), E.zero(), E.zero(), E.one()], "T"))
    res = find_split_places(K, count=2)
    u0, u1 = (r.base_place.uniformizer for r in res.records)
    assert str(u0) == "X + 1" and str(u1) == "X + 6"
    assert [c.rep().coeff(0).val for c in res.records[0].roots] == [3, 5, 6]
    assert [c.rep().coeff(0).val for c in res.records[1].roots] == [1, 2, 4]
    for rec in res.records:
        assert verify_split_place(rec).ok
        assert _residue_product_check(rec)


def test_explicit_place_x_minus_1_f7():
    K = _ff_field(7, lambda E: Poly(E, [-E.gen(), E.zero(), E.zero(), E.one()], "T"))
    F7 = FqField(7)
    bp = BasePlace(K.base, Poly(F7, [F7.coerce(-1), F7.one()], "X"))
    assert str(bp.uniformizer) == "X + 6"  # normalized
    rec = analyze_place(K, bp)
    assert rec is not None
    assert [c.rep().coeff(0).val for c in rec.roots] == [1, 2, 4]


def test_split_place_over_qx():
    K = _qx_field()
    res = find_split_places(K, count=1)
    assert not res.exhausted
    rec = res.records[0]
    assert str(rec.base_place.uniformizer) == "X^2 + 1"
    R = rec.base_place.residue_field()
    x = R.gen()
    assert list(rec.roots) == sorted([-x, x], key=R.sort_key)
    assert rec.nonreal
    assert rec.sqrt_minus_one == -x
    assert verify_split_place(rec).ok
    assert _residue_product_check(rec)


def test_quartic_split_at_17():
    f = Poly(QQ, [Fraction(9), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)], "T")
    K = ExtField(GlobalBase("Q"), f)
    rec = analyze_place(K, BasePlace(K.base, 17))
    assert rec is not None
    assert tuple(c.val for c in rec.roots) == (2, 7, 10, 15)
    assert verify_split_place(rec).ok
    assert _residue_product_check(rec)


def test_nonsplit_places_return_none():
    K = _sqrt2_field()
    assert analyze_place(K, BasePlace(K.base, 3)) is None
    assert analyze_place(K, BasePlace(K.base, 5)) is None
    with pytest.raises(DegenerateInputError):
        analyze_place(K, BasePlace(GlobalBase("FF", FqField(5)),
                                   Poly(FqField(5), [FqField(5).one(), FqField(5).one()], "X")))


def test_budget_exhaustion():
    K = _sqrt2_field()
    res = find_split_places(K, count=3, budget=SearchBudget(max_candidates=2))
    assert res.exhausted
    assert res.stopped_by == "max_candidates"
    assert res.candidates_tried == 2
    assert res.records == ()
    # the first split place of T^2 - 2 is 7: primes up to 5 run out first
    res = find_split_places(K, budget=SearchBudget(max_size=5))
    assert (res.stopped_by, res.candidates_tried) == ("max_size", 2)
    res = find_split_places(K, budget=SearchBudget(wall_seconds=0))
    assert (res.exhausted, res.stopped_by, res.candidates_tried) == (True, "wall_seconds", 0)
    assert find_split_places(K).stopped_by is None
    with pytest.raises(DegenerateInputError):
        find_split_places(K, count=0)


def test_number_field_roots_complete():
    L = QuotientRing(QQ, Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "x"))
    x = L.gen()
    t2_minus_2 = Poly(L, [L.from_int(-2), L.zero(), L.one()], "T")
    roots = number_field_roots(L, t2_minus_2)
    assert roots == sorted([x, -x], key=L.sort_key)
    # sqrt(3) does not live in Q(sqrt(2)); the empty answer is a completeness proof
    t2_minus_3 = Poly(L, [L.from_int(-3), L.zero(), L.one()], "T")
    assert number_field_roots(L, t2_minus_3) == []


def test_residue_is_nonreal():
    b = GlobalBase("Q")
    assert residue_is_nonreal(BasePlace(b, 7)) == (True, None)
    nonreal, i17 = residue_is_nonreal(BasePlace(b, 17))
    assert nonreal and i17.val == 4
    bq = GlobalBase("FF", QQ)
    w_real = BasePlace(bq, Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "X"))
    assert residue_is_nonreal(w_real) == (False, None)
    w_im = BasePlace(bq, Poly(QQ, [Fraction(1), Fraction(0), Fraction(1)], "X"))
    nonreal, i = residue_is_nonreal(w_im)
    R = w_im.residue_field()
    assert nonreal and i == -R.gen()


# ---------------------------------------------------------------------------
# Over Q(X) a missing residue root is first ruled out mod small primes.


def _random_number_field(rng, deg):
    """Q[x]/(pi) for a random monic irreducible pi of degree deg, small rational coefficients."""
    while True:
        low = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(deg)]
        pi = Poly(QQ, low + [Fraction(1)], "x")
        fac = factor_q(pi)
        if len(fac.factors) == 1 and fac.factors[0][1] == 1:
            return QuotientRing(QQ, pi)


def _random_elem(rng, L):
    coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 5))) for _ in range(L.deg)]
    return QuotElem(L, coords)


@pytest.mark.parametrize("deg_pi", [1, 2, 3, 4])
def test_sieve_keeps_every_number_field_root(deg_pi, monkeypatch):
    """number_field_roots with the sieve equals the Trager-only answer.

    Half the cases build g as a product of distinct T - r_i with r_i in L, so
    a wrong rejection by the sieve would drop the r_i.
    """
    rng = random.Random(deg_pi)
    checked = 0
    while checked < 8:
        L = _random_number_field(rng, deg_pi)
        deg_g = 1 + checked // 2 % 4
        if checked % 2:
            planted = {_random_elem(rng, L) for _ in range(deg_g)}
            g = Poly(L, [L.one()], "T")
            for r in planted:
                g = g * Poly(L, [-r, L.one()], "T")
        else:
            planted = set()
            g = Poly(L, [_random_elem(rng, L) for _ in range(deg_g)] + [L.one()], "T")
        if poly_gcd(g, g.derivative()).degree():
            continue
        roots = number_field_roots(L, g)
        with monkeypatch.context() as m:
            m.setattr(split, "SIEVE_PRIMES", ())
            assert roots == number_field_roots(L, g), (L.modulus, g)
        assert planted <= set(roots)
        checked += 1


def test_sieve_uses_only_simple_roots_mod_p():
    """In L = Q(x) with x^2 = 45, T^2 - 5 has the roots +-x/3.

    Mod 3 the double root 0 of x^2 - 45 gives T^2 - 5 = T^2 + 1, which has no
    root; only a simple root of pi mod p lifts to Z_p, so 3 proves nothing.
    """
    L = QuotientRing(QQ, Poly(QQ, [Fraction(-45), Fraction(0), Fraction(1)], "x"))
    x = L.gen()
    g = Poly(L, [L.from_int(-5), L.zero(), L.one()], "T")
    third = x * Fraction(1, 3)
    assert number_field_roots(L, g) == sorted([third, -third], key=L.sort_key)


@pytest.mark.parametrize(
    "coeffs,sqrt_minus_one",
    [([1, 0, 1], [0, -1]), ([1, 1, 1], None), ([1, 0, -1, 0, 1], [0, 0, 0, -1])],
    ids=["X^2+1", "X^2+X+1", "X^4-X^2+1"],
)
def test_residue_is_nonreal_over_qx(coeffs, sqrt_minus_one, monkeypatch):
    """Q(i), Q(sqrt(-3)) and Q(zeta_12) as residue fields, with and without the sieve."""
    bq = GlobalBase("FF", QQ)
    pi = Poly(QQ, [Fraction(c) for c in coeffs], "X")
    for sieve in (split.SIEVE_PRIMES, ()):
        monkeypatch.setattr(split, "SIEVE_PRIMES", sieve)
        place = BasePlace(bq, pi)
        R = place.residue_field()
        want = sqrt_minus_one and QuotElem(R, [Fraction(c) for c in sqrt_minus_one])
        assert residue_is_nonreal(place) == (True, want)


def test_qx_witness_counts(monkeypatch):
    """One proof per candidate place and the mod-p sieve bound the work of a Q(X) witness.

    Without them, witness --base QX --f "T^2-5*X" made 62 Trager norms, 234
    factor_q calls and 219 factor.discriminant calls.
    """
    from sosfield import cli, factor, local

    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: counts.update([name]) or real(*a))

    for module in (factor, local, split):
        count(module, "factor_q")
    count(factor, "discriminant")
    count(split, "_trager_norm")
    assert cli.main(["witness", "--base", "QX", "--f", "T^2-5*X"]) == 0
    assert counts["_trager_norm"] <= 4
    assert counts["factor_q"] <= 124
    assert counts["discriminant"] <= 112


def test_residue_is_nonreal_is_kept_on_the_place(monkeypatch):
    from sosfield.witness import sos_uniformizer

    rec = find_split_places(_qx_field()).records[0]
    calls = []
    real = split.sturm_isolate
    monkeypatch.setattr(split, "sturm_isolate", lambda f: calls.append(f) or real(f))
    assert residue_is_nonreal(rec.base_place) == (rec.nonreal, rec.sqrt_minus_one)
    sos_uniformizer(rec.base_place)
    assert calls == []
    # the verifier recomputes on a fresh place
    assert verify_split_place(rec).ok and len(calls) == 1


def _count_roots(fbar, elems):
    """Roots of fbar among elems, evaluated term by term."""
    return sum(1 for a in elems if not sum((c * a**i for i, c in enumerate(fbar.coeffs)), a * 0))


@pytest.mark.parametrize(
    "text", ["T^2-2", "T^3-T-1", "T^3-3*T+1", "T^4+6*T^3-4*T+2", "T^5-3", "T^6+3"]
)
def test_prefilters_keep_every_split_prime_over_q(text):
    """analyze_place is None exactly when f has fewer than deg f roots mod p."""
    base = GlobalBase("Q")
    K = ExtField(base, parse_poly(text, QQ))
    coeffs = [int(c) for c in K.f.coeffs]
    values = [sum(c * x**i for i, c in enumerate(coeffs)) for x in range(2000)]
    disc = K.disc.numerator
    for p in primes(3):
        if p >= 2000:
            break
        if disc % p:
            roots = sum(1 for v in values[:p] if v % p == 0)
            assert (analyze_place(K, BasePlace(base, p)) is None) == (roots < K.deg), p


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("text", ["T^2-X^2-X-1", "T^3-X", "T^3-T-X", "T^4-X"])
def test_prefilters_keep_every_split_place_over_fq(q, text):
    base = GlobalBase("FF", FqField(q))
    K = ExtField(base, parse_poly(text, base.fraction_field()))
    for place in _candidate_places(base, SearchBudget(max_size=2)):
        pi = place.uniformizer
        if place.valuation(K.disc):
            continue
        R, d = place.residue_field(), pi.degree()
        elems = [R.from_poly(Poly(R.F, [i // q**j % q for j in range(d)], "x")) for i in range(q**d)]
        roots = _count_roots(place.reduce_poly(K.f), elems)
        assert (analyze_place(K, place) is None) == (roots < K.deg), pi


def test_verify_split_place_rejects_tampering():
    K = _sqrt2_field()
    rec = analyze_place(K, BasePlace(K.base, 17))
    R = rec.base_place.residue_field()
    assert verify_split_place(rec).ok

    bad_roots = dataclasses.replace(rec, roots=(R.coerce(6), R.coerce(12)))
    assert not verify_split_place(bad_roots).ok

    unsorted_roots = dataclasses.replace(rec, roots=(R.coerce(11), R.coerce(6)))
    assert not verify_split_place(unsorted_roots).ok

    duplicated = dataclasses.replace(rec, roots=(R.coerce(6), R.coerce(6)))
    assert not verify_split_place(duplicated).ok

    short = dataclasses.replace(rec, roots=(R.coerce(6),))
    assert not verify_split_place(short).ok

    wrong_flag = dataclasses.replace(rec, nonreal=False)
    assert not verify_split_place(wrong_flag).ok

    wrong_i = dataclasses.replace(rec, sqrt_minus_one=R.coerce(5))
    assert not verify_split_place(wrong_i).ok

    dropped_i = dataclasses.replace(rec, sqrt_minus_one=None)
    assert not verify_split_place(dropped_i).ok

    moved = dataclasses.replace(rec, base_place=BasePlace(K.base, 3))
    assert not verify_split_place(moved).ok


# ---------------------------------------------------------------------------
# Over F_q the search skips degree layers that cannot hold a qualifying place.


def _first_by_full_scan(K, require_sqrt_minus_one):
    """(record, candidates tried) for the first qualifying place of an unskipped scan."""
    for tried, place in enumerate(_candidate_places(K.base, SearchBudget()), 1):
        rec = analyze_place(K, place)
        if rec is not None and (rec.sqrt_minus_one is not None or not require_sqrt_minus_one):
            return rec, tried


def _binomial(p, n, g):
    """T^n - g(X) over F_p(X), g given by its coefficients in X."""

    def f(E):
        return Poly(E, [-E.coerce(Poly(E.k, g, "X"))] + [E.zero()] * (n - 1) + [E.one()], "T")

    return _ff_field(p, f)


@pytest.mark.parametrize("q", [5, 11, 17])
def test_binomial_layer_skip_keeps_first_place(q):
    for n, g in ((3, [0, 1]), (3, [2, 1, 1]), (4, [0, 1]), (4, [3, 0, 1]), (6, [1, 1])):
        K = _binomial(q, n, g)
        res = find_split_places(K, count=1)
        rec, tried = _first_by_full_scan(K, False)
        assert res.records[0] == rec
        if (q - 1) % n:
            # at least the q candidates X + a of the degree-1 layer are skipped
            assert rec.base_place.uniformizer.degree() > 1
            assert res.candidates_tried <= tried - q
        else:
            assert res.candidates_tried == tried


@pytest.mark.parametrize("q", [3, 7])
def test_sqrt_minus_one_skips_odd_layers(q):
    for n, g in ((2, [0, 1]), (2, [1, 1]), (4, [0, 1])):
        K = _binomial(q, n, g)
        res = find_split_places(K, count=1, require_sqrt_minus_one=True)
        rec, tried = _first_by_full_scan(K, True)
        assert res.records[0] == rec and res.candidates_tried < tried
        assert rec.base_place.uniformizer.degree() % 2 == 0 and rec.sqrt_minus_one is not None


def test_q_candidates_are_proved_prime_once(monkeypatch):
    """numtheory.primes proves each Q candidate; its place and residue field take it as it is.

    BasePlace and FqField each proved it again, so a seed-1 numfield pass
    made 39,534 is_prime calls, 26,326 of them in next_prime.
    """
    from sosfield import fields, local, numtheory

    field = ExtField(GlobalBase("Q"), parse_poly("T^3-T-1", QQ))
    want = find_split_places(field, count=2, require_sqrt_minus_one=True)
    calls = collections.Counter()
    real = numtheory.is_prime
    for module in (numtheory, local, fields):
        monkeypatch.setattr(module, "is_prime", lambda n: calls.update([n]) or real(n))
    got = find_split_places(field, count=2, require_sqrt_minus_one=True)
    assert got.candidates_tried == want.candidates_tried == 39
    assert [(r.base_place, r.roots, r.sqrt_minus_one) for r in got.records] == [
        (r.base_place, r.roots, r.sqrt_minus_one) for r in want.records
    ]
    assert [r.base_place.uniformizer for r in got.records] == [101, 173]
    assert max(calls.values()) == 1 and calls[173] == 1
    # a place named from outside (a certificate, --place) is still proved
    with pytest.raises(DegenerateInputError, match="not prime"):
        BasePlace(GlobalBase("Q"), 1001)
    assert calls[1001] == 1
