"""Eisenstein's criterion in verify_irreducible: it may accept only irreducible f.

Each acceptance is cross-checked against the path it short-cuts: factor_q
over Q, the k[X] root finder at degree <= 3, and sympy's factorization over
Q(X) when sympy is installed.  Products whose factors share a prime in every
non-leading coefficient look Eisenstein-like and must be refused.
"""

import json
import random
from fractions import Fraction

import pytest

from sosfield.cli import main
from sosfield.extension import GlobalBase, _eisenstein, _ratfunc_roots, verify_irreducible
from sosfield.factor import factor_q
from sosfield.fields import QQ
from sosfield.parsing import parse_poly
from sosfield.poly import Poly, RatFunc


def _parse(label, text):
    base = GlobalBase.from_label(label)
    return base, parse_poly(text, base.fraction_field())


def _near_eisenstein(d, p, rand_coeff, one):
    """Lowest-first coefficients of a monic degree-d f, every non-leading one a multiple of p."""
    a0 = rand_coeff()
    while not a0:
        a0 = rand_coeff()
    return [p * a0] + [p * rand_coeff() for _ in range(d - 1)] + [one]


def _mul(g, h):
    out = [g[0] * 0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] = out[i + j] + a * b
    return out


def _samples(rng, count, degrees, primes, rand_coeff, one):
    """(coeffs, is_product) pairs: near-Eisenstein f, products of two of them, random f.

    A product of two near-Eisenstein factors at the same p has p in every
    non-leading coefficient and p^2 in f(0), so it looks almost Eisenstein.
    """
    for _ in range(count):
        kind, p = rng.random(), rng.choice(primes)
        if kind < 0.45:
            yield _near_eisenstein(rng.choice(degrees), p, rand_coeff, one), False
        elif kind < 0.75:
            d = rng.choice([d for d in degrees if d >= 2])
            a = rng.randint(1, d - 1)
            g = _near_eisenstein(a, p, rand_coeff, one)
            yield _mul(g, _near_eisenstein(d - a, p, rand_coeff, one)), True
        else:
            yield [rand_coeff() for _ in range(rng.choice(degrees))] + [one], False


def test_eisenstein_over_z_agrees_with_factor_q():
    rng = random.Random(13)
    base = GlobalBase("Q")
    accepted = refused_products = 0
    for cs, is_product in _samples(
        rng, 300, range(2, 9), (2, 3, 5, 6, 12), lambda: rng.randint(-9, 9), 1
    ):
        f = Poly(QQ, [Fraction(c) for c in cs], "T")
        if _eisenstein(base, f):
            assert not is_product, f
            fac = factor_q(f)
            assert len(fac.factors) == 1 and fac.factors[0][1] == 1, f
            assert verify_irreducible(base, f) == ("verified", None)
            accepted += 1
        elif is_product:
            assert verify_irreducible(base, f)[0] == "reducible", f
            refused_products += 1
    assert accepted >= 60 and refused_products >= 60


def _kx_sampler(rng, k, rand_scalar):
    """(rand_x, primes, one): rand_x(d) is a random X-polynomial of degree <= d,
    primes are X, X + 1 and X^2 + 1, and one is the unit of k[X]."""

    def rand_x(max_deg):
        return Poly(k, [rand_scalar() for _ in range(rng.randint(0, max_deg) + 1)], "X")

    one, zero = k.one(), k.zero()
    primes = tuple(Poly(k, cs, "X") for cs in ([zero, one], [one, one], [one, zero, one]))
    return rand_x, primes, Poly(k, [one], "X")


@pytest.mark.parametrize("label", ["Fq:3", "Fq:5", "Fq:7", "QX"])
def test_eisenstein_over_kx_finds_no_root(label):
    rng = random.Random(label)
    base = GlobalBase.from_label(label)
    k = base.k
    if k == QQ:
        rand_scalar = lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))  # noqa: E731
    else:
        rand_scalar = lambda: k.rand(rng)  # noqa: E731
    rand_x, primes, one = _kx_sampler(rng, k, rand_scalar)
    accepted = refused_products = 0
    for cs, is_product in _samples(rng, 150, (2, 3), primes, lambda: rand_x(2), one):
        f = Poly(base.fraction_field(), [RatFunc(c) for c in cs], "T")
        if _eisenstein(base, f):
            assert not is_product, f
            assert _ratfunc_roots(base, f) == [], f
            accepted += 1
        elif is_product:
            assert verify_irreducible(base, f)[0] == "reducible", f
            refused_products += 1
    assert accepted >= 30 and refused_products >= 20


def test_eisenstein_over_qx_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    T, X = sympy.symbols("T X")
    rng = random.Random(29)
    base = GlobalBase("FF", QQ)
    rand_x, primes, one = _kx_sampler(rng, QQ, lambda: Fraction(rng.randint(-3, 3)))
    accepted = 0
    for cs, is_product in _samples(rng, 60, range(2, 7), primes, lambda: rand_x(1), one):
        f = Poly(base.fraction_field(), [RatFunc(c) for c in cs], "T")
        if not _eisenstein(base, f):
            continue
        assert not is_product, f
        expr = sum(
            sympy.Rational(a.numerator, a.denominator) * X**j * T**i
            for i, c in enumerate(cs)
            for j, a in enumerate(c.coeffs)
        )
        # f is monic in T, so irreducible over Q(X) iff irreducible in Q[X, T] (Gauss)
        in_t = [(g, e) for g, e in sympy.factor_list(expr, T, X)[1] if g.has(T)]
        assert len(in_t) == 1 and in_t[0][1] == 1, f
        assert sympy.degree(in_t[0][0], T) == f.degree(), f
        accepted += 1
    assert accepted >= 15


@pytest.mark.parametrize(
    "label, text, eisenstein, status",
    [
        ("Q", "T^2-8", False, "verified"),  # 8 = 2^3: factor_q decides
        ("Q", "T^2-72", False, "verified"),  # 72 = 2^3 * 3^2
        ("Q", "T^2-12", True, "verified"),  # 12 = 2^2 * 3: Eisenstein at 3
        ("Q", "T^2-1000000000039", True, "verified"),  # a prime past the trial bound
        ("Q", "T^2-4000000000156", True, "verified"),  # 2^2 times that prime
        ("Q", "T^3-1000000000000000000000000000057", False, "verified"),  # prime past psi_13
        ("Q", "T^2-1000036000099", False, "verified"),  # 1000003 * 1000033: not factored
        ("Q", "T^2-4", False, "reducible"),
        ("Q", "(T-1)^4", False, "reducible"),
        ("Fq:7", "T^4-X^2", False, "asserted"),  # reducible, but above degree 3
        ("Fq:3", "T^3-X^3", False, "reducible"),  # G' = 0: no proof from G = X^3
        ("Fq:3", "T^3-X", True, "verified"),
        ("Fq:7", "T^3+X*T+X^2", False, "verified"),  # v_X(f(0)) = 2: roots decide
        ("Fq:7", "T^3+(X^2+X)*T+X", True, "verified"),  # Eisenstein at X, not at X + 1
        ("Fq:7", "T^3", False, "reducible"),
    ],
)
def test_eisenstein_or_old_answer(label, text, eisenstein, status):
    base, f = _parse(label, text)
    assert _eisenstein(base, f) is eisenstein
    assert verify_irreducible(base, f)[0] == status


def test_reducible_quartic_over_q_still_exits_2(capsys):
    assert main(["witness", "--base", "Q", "--f", "(T-1)^4"]) == 2
    assert "factor T - 1" in capsys.readouterr().err


@pytest.mark.parametrize("label, modulus", [("Q", "T^2-4"), ("Fq:7", "T^4-X^2")])
def test_verified_claim_on_reducible_modulus_exits_1(capsys, tmp_path, label, modulus):
    path = tmp_path / "w.json"
    f = "T^2-2" if label == "Q" else "T^2-X"
    assert main(["witness", "--base", label, "--f", f, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["payload"]["field"]["irreducibility"] == "verified"
    doc["payload"]["field"]["modulus"] = modulus
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID")
