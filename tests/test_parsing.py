import random
import re
from fractions import Fraction

import pytest

from sosfield.certs import _residue_in, parse_place
from sosfield.cli import main
from sosfield.extension import ExtField, GlobalBase, QuotientRing
from sosfield.fields import QQ, FqField
from sosfield.local import BasePlace
from sosfield.parsing import (
    MAX_BITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_WORK,
    ParseError,
    _Reader,
    parse_fraction,
    parse_poly,
    parse_rational,
    read_rational,
    render_poly,
    render_scalar,
)
from sosfield.poly import Poly, RatFunc, RatFuncField


# ---------------------------------------------------------------------------
# Reference: the evaluate-in-the-algebra parser the sparse front end replaced.
# Every operation runs in the target algebra, so it is slow but obviously
# right; the sparse reader must give the same values.

_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()+\-*/^]))")


def _ref_tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    out.append(("end", None))
    return out


class _RefParser:
    def __init__(self, tokens, consts, one):
        self.toks, self.i, self.consts, self.one = tokens, 0, consts, one

    def peek(self):
        return self.toks[self.i]

    def take(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            rhs = self.unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            assert kind == "int"
            return base**val
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.one * val
        if kind == "name":
            return self.consts[val.upper()]
        assert (kind, val) == ("op", "(")
        node = self.expr()
        assert self.take() == ("op", ")")
        return node


def _reference(text, consts, one):
    p = _RefParser(_ref_tokenize(text), consts, one)
    node = p.expr()
    assert p.peek() == ("end", None)
    return node


def _ref_element(text, K):
    consts = {"T": K.gen()}
    if K.base.kind == "FF":
        consts["X"] = K.from_base(K.F.gen())
    return K.coerce(_reference(text, consts, K.one()))


def _ref_modulus(text, E):
    consts = {"T": Poly.gen(E, "T")}
    if isinstance(E, RatFuncField):
        consts["X"] = Poly(E, [E.gen()], "T")
    return _reference(text, consts, Poly(E, [E.one()], "T"))


# ---------------------------------------------------------------------------
# Assertions kept from the evaluate-in-the-algebra parser, same inputs and values


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -7 ") == -7
    with pytest.raises(ParseError):
        parse_rational("x")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    assert [parse_rational(t) for t in ("2.5", "5.", ".5", "+3", "-.25")] == [
        Fraction(5, 2), 5, Fraction(1, 2), 3, Fraction(-1, 4)
    ]
    for text in ("1e3", "1.5E2", "1/2e3", "1_000", "0x10", ".", "+", "", "1/ 2", "2/-3", "\uff13"):
        with pytest.raises(ParseError):
            parse_rational(text)
        with pytest.raises(ParseError):
            read_rational(text)


def test_parse_poly_over_q():
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    f = parse_poly("T^2 - 2", QQ)
    assert f == T * T - one * 2
    assert parse_poly("(T+1)*(T-1)", QQ) == T * T - one
    assert parse_poly("T^3 - 2*T + 1/2", QQ) == (T**3 - T * 2 + one * Fraction(1, 2))


def test_parse_case_insensitive_variable():
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    assert parse_poly("t^2 - 2", QQ) == T * T - one * 2


def test_parse_render_roundtrip_poly():
    rng = random.Random(11)
    for field in (QQ, FqField(5), FqField(7)):
        for _ in range(60):
            deg = rng.randrange(0, 6)
            coeffs = [field.rand(rng, height=9) for _ in range(deg + 1)]
            f = Poly(field, coeffs, "T")
            assert parse_poly(render_poly(f), field) == f


def test_parse_render_roundtrip_ratfunc():
    rng = random.Random(12)
    E = RatFuncField(QQ, "X")
    for _ in range(40):
        a, b = E.rand(rng), E.rand(rng)
        r = a if b == E.zero() else a / b
        assert RatFunc(*parse_fraction(render_scalar(r), QQ)) == r


def test_parse_render_roundtrip_quotelem():
    rng = random.Random(13)
    base = GlobalBase("Q")
    E = base.fraction_field()
    f = Poly(E, [E.coerce(-2), E.zero(), E.one()], "T")
    K = ExtField(base, f)
    for _ in range(40):
        a = K.rand(rng)
        assert K.from_poly(parse_poly(render_scalar(a), K.F)) == a


def test_parse_division_and_unary_minus():
    one = Poly(QQ, [QQ.one()], "T")
    T = Poly.gen(QQ, "T")
    assert parse_poly("-T/2 + 1", QQ) == T * Fraction(-1, 2) + one
    assert parse_poly("--3", QQ) == one * 3


def test_parse_errors_are_precise():
    for bad in ("", "   ", "T +", "(T", "T^", "T ^ -2", "1 2", "Y + 1", "T//2"):
        with pytest.raises(ParseError):
            parse_poly(bad, QQ)


def test_parse_division_by_zero_is_parse_error():
    with pytest.raises(ParseError):
        parse_poly("1/0", QQ)


def test_render_poly_frozen_forms():
    T = Poly.gen(QQ, "T")
    one = Poly(QQ, [QQ.one()], "T")
    assert render_poly(T * T - one * 2) == "T^2 - 2"
    assert render_poly(Poly(QQ, [Fraction(1, 2), -1, 1], "T")) == "T^2 - T + 1/2"
    assert render_poly(Poly(QQ, [], "T")) == "0"
    F7 = FqField(7)
    X = Poly.gen(F7, "X")
    assert render_poly(X + Poly(F7, [F7.coerce(6)], "X")) == "X + 6"


# ---------------------------------------------------------------------------
# The sparse reader against the reference


def _number_field(rng, d):
    E = QQ
    coeffs = [Fraction(rng.randint(-30, 30)) for _ in range(d)] + [Fraction(1)]
    return ExtField(GlobalBase("Q"), Poly(E, coeffs, "T"), irreducibility="asserted")


def _function_field(k, f_text):
    base = GlobalBase("FF", k)
    return ExtField(base, parse_poly(f_text, base.fraction_field()), irreducibility="asserted")


# hand-written texts: exponents above deg f, nesting, X-divisors, repeated signs
_HAND_TEXTS = (
    "(T+1)^7 - 3/4*T^2*(T-1)",
    "-(2*T - 5)^3/5 + --T",
    "((T))^0 + 0*T^9 - 0",
    "T^5*T^4 - (1 - T)^2*(1 + T)^3",
)
_HAND_TEXTS_X = (
    "(X^3 + 1)/(X^2 + 3)*T^2 - (X + 2)/(X^2 + 3)*T + 1/(X + 1)",
    "(T - X)^4/(2*X^2 + 1)^2 + X^5*T/X^2",
    "(X + 1)*(X - 1)/(X^2 - 1) - T/(X + 5)*(X + 5)",
    "T^3/((X + 1)/(X + 2)) + (1/(X+1) + 1/(X+2))*T",
)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_number_field_elements_match_reference(d):
    rng = random.Random(100 + d)
    K = _number_field(rng, d)
    texts = list(_HAND_TEXTS)
    for _ in range(40):
        a = K.rand(rng)
        if rng.random() < 0.3:  # coefficients of a few hundred bits
            a = a * Fraction(rng.randint(1, 10**90), rng.randint(1, 10**90))
        texts.append(render_scalar(a))
    for text in texts:
        got = K.from_poly(parse_poly(text, K.F))
        assert got.coords == _ref_element(text, K).coords, text


@pytest.mark.parametrize(
    "k, f_text",
    [
        (FqField(3), "T^2 - X"),
        (FqField(7), "T^3 - (X^2 + 1)"),
        (FqField(101), "T^2 - X^3 - 2"),
        (FqField(10007), "T^3 - X"),
        (QQ, "T^2 - 7*X"),
        (QQ, "T^3 - X^2 - 1/2*X"),
    ],
)
def test_function_field_elements_match_reference(k, f_text):
    rng = random.Random(f"{k!r} {f_text}")
    K = _function_field(k, f_text)
    texts = list(_HAND_TEXTS) + list(_HAND_TEXTS_X)
    for _ in range(30):
        texts.append(render_scalar(K.rand(rng)))  # RatFunc coefficients with denominators
    assert any("/(" in t for t in texts[len(_HAND_TEXTS) + len(_HAND_TEXTS_X):])
    for text in texts:
        got = K.from_poly(parse_poly(text, K.F))
        assert got.coords == _ref_element(text, K).coords, text


def test_moduli_match_reference():
    rng = random.Random(21)
    for base in (GlobalBase("Q"), GlobalBase("FF", FqField(7)), GlobalBase("FF", QQ)):
        E = base.fraction_field()
        for _ in range(25):
            coeffs = [E.rand(rng) for _ in range(rng.randint(1, 6))] + [E.one()]
            f = Poly(E, coeffs, "T")
            text = render_poly(f)
            assert parse_poly(text, E) == _ref_modulus(text, E) == f, text
    for text in ("T^3+(X+3)*T^2+T", "(T-X-1)^3", "T^2 - X/(X+1)*T"):
        E = RatFuncField(FqField(7), "X")
        assert parse_poly(text, E) == _ref_modulus(text, E), text


def test_residues_and_places_match_reference():
    rng = random.Random(22)
    for k, pi_coeffs in (
        (FqField(7), [1, 0, 1]),
        (FqField(101), [1, 1, 0, 1]),
        (QQ, [1, 0, 1, -1, 1]),  # X^4 - X^3 + X^2 + 1, a number-field residue ring
    ):
        base = GlobalBase("FF", k)
        pi = Poly(k, pi_coeffs, "X")
        assert parse_place(base, render_poly(pi)).uniformizer == pi
        R = BasePlace(base, pi).residue_field()
        assert isinstance(R, QuotientRing)
        texts = [render_scalar(R.rand(rng)) for _ in range(30)]
        texts += ["(x^2 + 1)/(x + 1)", "1/(2*x)", "(x - 1)^5*x^3"]
        for i, text in enumerate(texts):
            ref = R.coerce(_reference(text, {"X": R.gen()}, R.one()))
            assert _residue_in(text, R, f"r[{i}]") == ref, text
        E = base.fraction_field()
        for _ in range(10):
            g = Poly(k, [k.rand(rng) for _ in range(rng.randint(1, 5))], "X")
            text = render_poly(g)
            num, den = parse_fraction(text, k)
            assert (num, den) == (g, Poly(k, [1], "X"))
            assert RatFunc(num, den) == _reference(text, {"X": E.gen()}, E.one()), text
        assert parse_place(base, "(X^2 - 1)/(X - 1)").uniformizer == Poly(k, [1, 1], "X")
        with pytest.raises(ParseError, match="must be a polynomial"):
            parse_place(base, "1/(X + 1)")


# ---------------------------------------------------------------------------
# Caps: just under is read, just over is a ParseError and exit 2


def _work(text, k, names):
    r = _Reader(text, k, names)
    r.expr()
    return r.work


def _exit_code(capsys, f_text, base="Q"):
    code = main(["witness", "--base", base, "--f", f_text])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_cap_digits(capsys):
    under = "9" * MAX_DIGITS
    assert parse_poly(f"T - {under}", QQ).coeff(0) == -int(under)
    code, err = _exit_code(capsys, f"T^2 - {under}9")
    assert code == 2 and f"more than {MAX_DIGITS} digits at position 6" in err
    # each digit run of a rational
    for text in ("-{}", "1/{}", "{}/3", "1.{}", "{}.5", ".{}"):
        assert parse_rational(text.format(under)) != 0
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse_rational(text.format(under + "9"))
    # certificate rationals go up to int()'s limit of 4,300 digits
    assert read_rational("1/" + "7" * 4300) == Fraction(1, int("7" * 4300))
    with pytest.raises(ParseError, match="not a rational"):
        read_rational("1/" + "7" * 4301)


def test_cap_exponent_and_degree(capsys):
    half = MAX_DEGREE // 2
    for text in (f"T^{MAX_DEGREE}", f"T^{half}*T^{half}", f"(T^2)^{half}"):
        assert parse_poly(text, QQ).degree() == MAX_DEGREE
    E = RatFuncField(FqField(7), "X")
    assert parse_poly(f"X^{half}*X^{half}*T", E).coeff(1).num.degree() == MAX_DEGREE
    for text, base in (
        (f"T^{MAX_DEGREE + 1}", "Q"),
        (f"T^{half}*T^{half + 1}", "Q"),
        (f"(T^2)^{half + 1}", "Q"),
        (f"T^2 - X^{half}*X^{half + 1}", "Fq:7"),
        (f"T^2 - 1/X^{half}/X^{half + 1}", "Fq:7"),
        ("T^99999999 - 2", "Q"),
    ):
        code, err = _exit_code(capsys, text, base)
        assert code == 2 and f"above {MAX_DEGREE}" in err, text


def test_cap_bits(capsys):
    # 2^255 has 256 bits; products are checked exactly, powers by e * bits(base)
    p2 = "*".join(["2^255"] * 32)
    assert parse_poly(f"T - {p2}*2^31", QQ).coeff(0) == -(2 ** (MAX_BITS - 1))
    assert parse_poly("T - (2^255)^32", QQ).coeff(0) == -(2**8160)
    assert parse_poly(f"T - 1/({p2}*2^31)", QQ).coeff(0) == Fraction(-1, 2 ** (MAX_BITS - 1))
    for text in (f"T^2 - {p2}*2^32", "T^2 - (2^255)^33", f"T^2 - 1/({p2}*2^32)"):
        code, err = _exit_code(capsys, text)
        assert code == 2 and f"more than {MAX_BITS} bits" in err, text


def test_cap_work(capsys):
    a = "(" + " + ".join(f"T^{i}" for i in range(200)) + ")"
    b = "(" + " + ".join(f"X^{j}" for j in range(200)) + ")"
    head = f"T^2 - {a}*{b}"
    fill = MAX_WORK - _work(head, QQ, "TX")
    assert 0 < fill < MAX_WORK // 2
    under = head + " + 1" * fill
    assert _work(under, QQ, "TX") == MAX_WORK
    parse_poly(under, RatFuncField(QQ, "X"))
    code, err = _exit_code(capsys, under + " + 1", "QX")
    assert code == 2 and f"more than {MAX_WORK} coefficient operations" in err


def test_divisor_involving_t_exits_2(capsys):
    for text in ("T^2 - 1/T", "T^2 - 2/(T + 1)", "T^2 - X/(X*T)"):
        code, err = _exit_code(capsys, text, "Fq:7")
        assert code == 2 and "divisor involves T" in err, text


def test_division_by_zero_in_k_exits_2(capsys):
    # coefficients live in k from the start, so 7 is already 0 in F_7
    for text in ("T^2 - X*7/7", "T^2 - X/(7*X)", "T^2 - 1/(X - X)"):
        code, err = _exit_code(capsys, text, "Fq:7")
        assert code == 2 and "division by zero in expression" in err, text
    assert parse_poly("T^2 - X*7/7", RatFuncField(QQ, "X")) == parse_poly("T^2 - X", RatFuncField(QQ, "X"))


def test_errors_name_the_position():
    for text, message in (
        ("T^2 -", "unexpected end of input at position 5"),
        ("T^2 - (T + 1", "missing closing parenthesis at position 12"),
        ("T ^ -2", "exponent must be a nonnegative integer literal at position 4"),
        ("T + Y", "unknown variable 'Y' at position 4"),
        ("T 2", "trailing input near token 2 at position 2"),
        ("T + $", "unexpected character '$' at position 4"),
        ("T + )", "unexpected token ')' at position 4"),
        ("1/(T - T)", "division by zero in expression at position 1"),
    ):
        with pytest.raises(ParseError) as e:
            parse_poly(text, QQ)
        assert str(e.value) == message, text
