import collections
import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from sosfield import cli, extension, local, witness
from sosfield.errors import DegenerateInputError
from sosfield.extension import ExtField, GlobalBase, QuotElem, QuotientRing
from sosfield.fields import QQ, FqField, field_sqrt
from sosfield.local import BasePlace, ValuationVector, valuation_vector
from sosfield.poly import Poly
from sosfield.split import analyze_place, find_split_places
from sosfield.witness import (
    SosExpr,
    WitnessCertificate,
    _minus_one_squares,
    nonpyth_witness,
    sos_uniformizer,
    verify_certificate,
)


def _sqrt2_field():
    return ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T"))


def _t2_minus_x(p, **kw):
    base = GlobalBase("FF", FqField(p))
    E = base.fraction_field()
    return ExtField(base, Poly(E, [-E.gen(), E.zero(), E.one()], "T"), **kw)


def _t3_minus_x(p):
    base = GlobalBase("FF", FqField(p))
    E = base.fraction_field()
    return ExtField(base, Poly(E, [-E.gen(), E.zero(), E.zero(), E.one()], "T"))


def _qx_field():
    base = GlobalBase("FF", QQ)
    E = base.fraction_field()
    x = E.gen()
    return ExtField(base, Poly(E, [x * x + 2, E.zero(), E.one()], "T"))


def _x_place(base, c):
    k = base.k
    return BasePlace(base, Poly(k, [k.coerce(c), k.one()], "X"))


def test_sos_expr_basics():
    K = _sqrt2_field()
    e = SosExpr(K, [K.one(), K.from_int(2)])
    assert e.value == K.from_int(5)
    assert e.terms == (K.one(), K.from_int(2)) and e.square_sum() == e.value
    with pytest.raises(DegenerateInputError):
        SosExpr(K, [])


def test_sos_expr_zero_value_rejected():
    # 1^2 + 2^2 = 5 = 0 over F5(X)
    K = _t2_minus_x(5)
    with pytest.raises(DegenerateInputError):
        SosExpr(K, [K.one(), K.from_int(2)])


def test_sos_uniformizer_frozen_q7():
    bp = BasePlace(GlobalBase("Q"), 7)
    e = sos_uniformizer(bp)
    assert [t for t in e.terms] == [Fraction(1), Fraction(2), Fraction(3)]
    assert e.value == 14
    assert bp.valuation(e.value) == 1


def test_sos_uniformizer_frozen_f5():
    base = GlobalBase("FF", FqField(5))
    bp = _x_place(base, 4)
    e = sos_uniformizer(bp)
    F5 = FqField(5)
    assert [str(t.num) for t in e.terms] == ["1", "X + 1"]
    assert str(e.value.num) == "X^2 + 2*X + 2"
    assert bp.valuation(e.value) == 1


def test_sos_uniformizer_frozen_qx():
    base = GlobalBase("FF", QQ)
    bp = BasePlace(base, Poly(QQ, [Fraction(1), Fraction(0), Fraction(1)], "X"))
    e = sos_uniformizer(bp)
    assert [str(t.num) for t in e.terms] == ["1", "-X"]
    assert str(e.value.num) == "X^2 + 1"
    assert bp.valuation(e.value) == 1


@pytest.mark.parametrize(
    "p, modulus", [(3, None), (7, None), (11, None), (3, [1, 2, 0, 1]), (7, [-2, 0, 0, 1])]
)
def test_minus_one_squares_matches_element_walk(p, modulus):
    # F_3, F_7, F_11, F_27, F_343: no square root of -1, so the closed form
    # must give the terms of the walk over all elements, constants first
    F = FqField(p)
    if modulus is None:
        R, elems = F, [F.from_int(a) for a in range(p)]
    else:
        R = QuotientRing(F, Poly(F, [F.from_int(c) for c in modulus], "x"))
        tuples = itertools.product(range(p), repeat=R.deg)
        elems = [QuotElem(R, t[::-1]) for t in tuples]
    m1 = -R.one()
    assert field_sqrt(R, m1) is None
    walk = None
    for a in elems:
        b = field_sqrt(R, m1 - a * a) if a else None
        if b is not None:
            walk = [a, b]
            break
    assert _minus_one_squares(R, None) == walk


def test_sos_uniformizer_rejects_real_residue():
    base = GlobalBase("FF", QQ)
    bp = BasePlace(base, Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "X"))
    with pytest.raises(DegenerateInputError):
        sos_uniformizer(bp)


def test_closed_form_piece_at_every_place(split_field):
    K, rec = split_field
    places = rec.ext_places()
    y = sos_uniformizer(rec.base_place)
    T = K.gen()
    for i, w in enumerate(places):
        a = K.from_base(K.base.from_ring(rec.base_place.lift_residue(w.residue_root)))
        indicator = tuple(int(j == i) for j in range(len(places)))
        sigma = SosExpr(K, [K.from_base(t) for t in y.terms] + [w.root_offset()])
        assert sigma.value == K.from_base(y.value) + (T - a) ** 2
        assert sigma.terms[-1] == T - a
        assert valuation_vector(rec.ext_places(), sigma.value).values == indicator
        cert = WitnessCertificate(K, rec, sigma, ValuationVector(places, indicator), i)
        assert verify_certificate(cert).ok
    # nonpyth_witness builds the piece at place 0, term for term
    assert nonpyth_witness(K, rec).sos.terms == (
        tuple(K.from_base(t) for t in y.terms) + (places[0].root_offset(),)
    )


def test_each_valuation_computed_once_per_witness(split_field, monkeypatch):
    K, rec = split_field
    calls = []
    real = local.ext_valuation

    def counted(place, x):
        calls.append(place)
        return real(place, x)

    # witness and local each hold a binding; count calls through either one
    monkeypatch.setattr(local, "ext_valuation", counted)
    monkeypatch.setattr(witness, "ext_valuation", counted)
    nonpyth_witness(K, rec)
    assert len(calls) == len(rec.ext_places())


@pytest.mark.parametrize(
    "base,f", [("Q", "T^3-2"), ("Q", "T^6-T^2+3*T+5"), ("Fq:7", "T^5-X"), ("QX", "T^2-5*X")],
    ids=" ".join,
)
def test_one_lift_and_one_reduction_per_place(base, f, tmp_path, monkeypatch):
    lifts, reduced, moduli, evals, discs = [], [], [], [], []
    real_lift, real_reduce = local.hensel_lift_root, local.BasePlace.reduce_poly
    real_modulus, real_call = local.BasePlace.reduce_modulus, Poly.__call__
    real_disc = extension.discriminant

    def lift(place, g, root, precision):
        lifts.append(precision)
        return real_lift(place, g, root, precision)

    def reduce_poly(place, g):
        reduced.append(place)  # kept alive, so ids stay distinct
        return real_reduce(place, g)

    def reduce_modulus(place, g):
        pair = real_modulus(place, g)
        moduli.extend(pair)
        return pair

    def call(g, x):
        if any(g is m for m in moduli):  # fbar or fbar' at a residue value
            evals.append(x)
        return real_call(g, x)

    monkeypatch.setattr(local, "hensel_lift_root", lift)
    monkeypatch.setattr(local.BasePlace, "reduce_poly", reduce_poly)
    monkeypatch.setattr(local.BasePlace, "reduce_modulus", reduce_modulus)
    monkeypatch.setattr(Poly, "__call__", call)
    monkeypatch.setattr(extension, "discriminant", lambda g: discs.append(g) or real_disc(g))
    path = str(tmp_path / "w.json")
    for argv, places, disc_count in (
        # the split search reads disc(f), on first use
        (["witness", "--base", base, "--f", f, "--out", path], None, 1),
        # the certificate's place and the fresh one of verify_split_place
        (["verify", path], 2, 0),
    ):
        for log in (lifts, reduced, moduli, evals, discs):
            log.clear()
        assert cli.main(argv) == 0
        # sigma is a unit at every place but w_0, where one lift to precision 2 shows v = 1
        assert lifts == [2]
        counts = collections.Counter(map(id, reduced))
        assert set(counts.values()) == {1}
        assert places is None or len(counts) == places
        # each of the n roots checked (fbar and fbar' each) where its place is
        # built and by verify_split_place, and one root by the one lift
        n = len(json.loads((tmp_path / "w.json").read_text())["payload"]["valuations"])
        assert len(evals) == 4 * n + 2
        assert len(discs) == disc_count


@pytest.mark.parametrize(
    "base,f,pi,root", [("Q", "T^3-2", 3, 2), ("Fq:7", "T^3-X", "X", "0")], ids=["Q", "Fq:7"]
)
def test_place_dividing_the_discriminant_is_rejected(base, f, pi, root, tmp_path, capsys):
    """A record moved to a place dividing disc(f), with fbar = (T - r)^3 there, exits 1.

    No test of v(disc) is needed for this: a degree-3 fbar with three distinct
    simple roots has a nonzero discriminant, which is disc(f) mod pi.
    """
    path = tmp_path / "c.json"
    for argv, records in (
        (["witness"], lambda payload: [payload["place"]]),
        (["split-places", "--count", "1"], lambda payload: payload["records"]),
    ):
        assert cli.main(argv + ["--base", base, "--f", f, "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        for rec in records(doc["payload"]):
            rec.update(uniformizer=pi, residue_roots=[root] * 3, sqrt_minus_one=None)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith("INVALID")


def test_nonpyth_witness_q():
    K = _sqrt2_field()
    rec = find_split_places(K).records[0]
    cert = nonpyth_witness(K, rec)
    assert cert.valuations.values == (1, 0)
    assert cert.parity_index == 0
    assert not cert.conditional
    res = verify_certificate(cert)
    assert res.ok and res.reason == "ok"


def test_nonpyth_witness_function_fields():
    for K in (_t2_minus_x(5), _t3_minus_x(7), _qx_field()):
        rec = find_split_places(K).records[0]
        cert = nonpyth_witness(K, rec)
        assert verify_certificate(cert).ok
        vals = cert.valuations.values
        assert vals[0] % 2 == 1 and all(v % 2 == 0 for v in vals[1:])


def test_nonpyth_witness_conditional_flag():
    K = _t2_minus_x(5, irreducibility="asserted")
    rec = find_split_places(K).records[0]
    cert = nonpyth_witness(K, rec)
    assert cert.conditional
    res = verify_certificate(cert)
    assert res.ok and "conditional" in res.reason


def test_nonpyth_witness_preconditions():
    base = GlobalBase("FF", QQ)
    E = base.fraction_field()
    x = E.gen()
    K = ExtField(base, Poly(E, [-x, E.zero(), E.one()], "T"))  # T^2 - X
    rec = analyze_place(K, BasePlace(base, Poly(QQ, [Fraction(-4), Fraction(1)], "X")))
    assert rec is not None and not rec.nonreal  # residue field Q is real
    with pytest.raises(DegenerateInputError):
        nonpyth_witness(K, rec)
    lin = ExtField(base, Poly(E, [-x, E.one()], "T"))
    lrec = analyze_place(lin, BasePlace(base, Poly(QQ, [Fraction(-1), Fraction(1)], "X")))
    with pytest.raises(DegenerateInputError):
        nonpyth_witness(lin, lrec)
    K2 = _sqrt2_field()
    with pytest.raises(DegenerateInputError):
        nonpyth_witness(K2, find_split_places(_t2_minus_x(5)).records[0])


def _base_square_scaled_samples(K, rec, n, rng):
    """Random c * beta^2 with c in the base field, beta in K, both nonzero."""
    places = rec.ext_places()
    E = K.F
    out = 0
    while out < n:
        c = E.rand(rng)
        beta = K.rand(rng)
        if not c or not beta:
            continue
        x = K.from_base(c) * beta * beta
        vv = valuation_vector(places, x)
        assert vv.is_constant_parity(), f"parity broke for c={c!r}, beta={beta!r}"
        out += 1
    return out


def test_base_square_multiples_have_constant_parity():
    rng = random.Random(53)
    K1 = _sqrt2_field()
    rec1 = find_split_places(K1).records[0]
    K2 = _t2_minus_x(5)
    rec2 = find_split_places(K2).records[0]
    total = _base_square_scaled_samples(K1, rec1, 260, rng)
    total += _base_square_scaled_samples(K2, rec2, 260, rng)
    assert total >= 500
    # and the witness value itself never has constant parity
    for K, rec in ((K1, rec1), (K2, rec2)):
        assert not nonpyth_witness(K, rec).valuations.is_constant_parity()


def test_verify_certificate_rejects_tampering():
    K = _sqrt2_field()
    rec = find_split_places(K).records[0]
    cert = nonpyth_witness(K, rec)
    places = rec.ext_places()

    wrong_vals = dataclasses.replace(
        cert, valuations=dataclasses.replace(cert.valuations, values=(0, 0))
    )
    res = verify_certificate(wrong_vals)
    assert not res.ok

    other_sos = SosExpr(K, [K.one(), K.from_int(3)])
    swapped_sos = dataclasses.replace(cert, sos=other_sos)
    assert not verify_certificate(swapped_sos).ok

    corrupted = SosExpr(K, list(cert.sos.terms))
    corrupted.value = corrupted.value + K.one()
    assert not verify_certificate(dataclasses.replace(cert, sos=corrupted)).ok

    bad_index = dataclasses.replace(cert, parity_index=1)
    assert not verify_certificate(bad_index).ok

    R = rec.base_place.residue_field()
    bad_rec = dataclasses.replace(rec, roots=(R.coerce(3), R.coerce(5)))
    assert not verify_certificate(dataclasses.replace(cert, record=bad_rec)).ok
