"""Roots over k(X): the Hensel root finder behind verify_irreducible.

Cross-checked against a brute-force enumerator over small F_q and against
sympy's factorization over Q(X); plus the regressions for a missed zero root
and for inputs whose cost used to grow with q.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from sosfield.certs import serialize
from sosfield.cli import main
from sosfield.extension import (
    ExtField,
    GlobalBase,
    _ratfunc_roots,
    _root_bound,
    verify_irreducible,
)
from sosfield.factor import _zl_add, _zl_mul, _zl_trim
from sosfield.fields import QQ, FqField
from sosfield.parsing import parse_poly
from sosfield.poly import Poly
from sosfield.split import find_split_places
from sosfield.witness import nonpyth_witness


def _parse(label, text):
    base = GlobalBase.from_label(label)
    return base, parse_poly(text, base.fraction_field())


def _from_x_polys(base, xpolys):
    """T-polynomial whose coefficients (lowest first) are the given k[X] elements."""
    return Poly(base.fraction_field(), xpolys, "T")


# ---------------------------------------------------------------------------
# Reference: every polynomial of degree <= the root bound, zero included.


def _enumerated_roots(f, q):
    """Roots of f in F_q[X], as coefficient tuples without trailing zeros."""
    coeffs = [[c.val for c in a.as_poly().coeffs] for a in f.coeffs]
    roots = set()
    for g in itertools.product(range(q), repeat=_root_bound(f) + 1):
        g = _zl_trim(list(g))
        acc = []
        for c in reversed(coeffs):
            acc = _zl_add(_zl_mul(acc, g, q), c, q)
        if not acc:
            roots.add(tuple(g))
    return roots


def _rand_xpoly(rng, k, max_deg):
    return Poly(k, [k.rand(rng) for _ in range(rng.randint(0, max_deg) + 1)], "X")


def _sample_fq(rng, q):
    """A monic f of degree 2-3 with coefficient degrees <= 3; 40% (T - g)*h."""
    k = FqField(q)
    base = GlobalBase("FF", k)
    d = rng.choice((2, 3))
    if rng.random() < 0.4:
        g = _rand_xpoly(rng, k, 1)
        h = _from_x_polys(base, [_rand_xpoly(rng, k, 2) for _ in range(d - 1)] + [k.one()])
        f = _from_x_polys(base, [-g, k.one()]) * h
    else:
        f = _from_x_polys(base, [_rand_xpoly(rng, k, 3) for _ in range(d)] + [k.one()])
    return base, f


@pytest.mark.parametrize("q", [3, 5, 7])
def test_roots_match_enumeration_over_fq(q):
    rng = random.Random(1000 + q)
    reducible = 0
    for _ in range(100):
        base, f = _sample_fq(rng, q)
        expected = _enumerated_roots(f, q)
        assert {tuple(c.val for c in g.coeffs) for g in _ratfunc_roots(base, f)} == expected, f
        reducible += bool(expected)
    assert 30 <= reducible <= 90


def test_roots_match_sympy_over_qx():
    sympy = pytest.importorskip("sympy")
    T, X = sympy.symbols("T X")
    rng = random.Random(7)
    base = GlobalBase("FF", QQ)

    def rand_q(max_deg):
        cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2))) for _ in range(max_deg + 1)]
        return Poly(QQ, cs, "X")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(p.coeffs))

    for _ in range(40):
        d = rng.choice((2, 3))
        if rng.random() < 0.4:
            g = rand_q(1)
            h = _from_x_polys(base, [rand_q(2) for _ in range(d - 1)] + [Fraction(1)])
            f = _from_x_polys(base, [-g, Fraction(1)]) * h
        else:
            f = _from_x_polys(base, [rand_q(2) for _ in range(d)] + [Fraction(1)])
        expr = sum(to_sympy(c.as_poly()) * T**i for i, c in enumerate(f.coeffs))
        expected = set()
        for fac, _ in sympy.factor_list(expr, T, X)[1]:
            lin = sympy.Poly(fac, T)
            if lin.degree() == 1:
                root = sympy.Poly(-lin.coeff_monomial(1) / lin.coeff_monomial(T), X)
                cs = [Fraction(int(c.p), int(c.q)) for c in reversed(root.all_coeffs())]
                expected.add(Poly(QQ, cs, "X"))
        assert set(_ratfunc_roots(base, f)) == expected, f


# ---------------------------------------------------------------------------
# Regressions


_ZERO_ROOT = "T^3+(X+3)*T^2+T"  # T * (T^2 + (X+3)*T + 1)


def test_zero_root_is_found():
    base, f = _parse("Fq:7", _ZERO_ROOT)
    status, factor = verify_irreducible(base, f)
    assert status == "reducible"
    assert factor == Poly.gen(f.field, "T")


def test_witness_rejects_modulus_with_zero_root(capsys):
    code = main(["witness", "--base", "Fq:7", "--f", _ZERO_ROOT])
    assert code == 2
    assert "factor T\n" in capsys.readouterr().err


def test_verify_rejects_false_irreducibility_claim(capsys, tmp_path):
    base, f = _parse("Fq:7", _ZERO_ROOT)
    K = ExtField(base, f, irreducibility="asserted")
    cert = nonpyth_witness(K, find_split_places(K, require_nonreal=True).records[0])
    doc = json.loads(serialize(cert))
    assert doc["payload"]["field"]["irreducibility"] == "asserted"
    doc["payload"]["field"]["irreducibility"] = "verified"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    assert code == 1
    assert capsys.readouterr().out.startswith("INVALID")


@pytest.mark.parametrize(
    "label, text, expected",
    [
        ("Fq:3", "T^3-X", None),  # f' = 0 and X is not a cube
        ("Fq:3", "T^3-X^3", "T + 2*X"),  # f' = 0, (T - X)^3
        ("Fq:3", "T^3", "T"),
        ("QX", "(T-X)^2", "T - X"),
        ("Fq:5", "(T-X)^2*(T+1)", "T + 1"),  # the least root, not the repeated one
        ("Fq:7", "(T-X-1)^3", "T + (6*X + 6)"),
    ],
)
def test_zero_discriminant(label, text, expected):
    base, f = _parse(label, text)
    status, factor = verify_irreducible(base, f)
    if expected is None:
        assert (status, factor) == ("verified", None)
    else:
        assert status == "reducible" and repr(factor) == expected


def test_large_q_decided_without_enumeration(capsys):
    for text, status in (("T^2-X", "verified"), ("T^3-(X^2+1)", "verified"), ("T^2-X^2", "reducible")):
        base, f = _parse("Fq:10007", text)
        assert verify_irreducible(base, f)[0] == status, text
    assert main(["witness", "--base", "Fq:10007", "--f", "T^2-X"]) == 0
    assert "place X + 5" in capsys.readouterr().out
