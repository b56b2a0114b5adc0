"""Acceptance gate: ten end-to-end criteria with pinned time limits.

Each test prints one PASS/FAIL line with capture disabled so the verdicts
stay visible in piped pytest runs.  A criterion that misses its expected
values or its time budget fails its test; nothing here is approximate.
"""

import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from sosfield.cli import main
from sosfield.extension import ExtField, GlobalBase, field_norm
from sosfield.factor import factor_fq, factor_q
from sosfield.fields import QQ, FqField
from sosfield.local import BasePlace, hensel_lift_root, valuation_vector
from sosfield.numtheory import factor_int, primes
from sosfield.orderings import (
    indefinite_witness,
    real_embeddings,
    verify_sign_witness,
)
from sosfield.poly import Poly
from sosfield.ratlocal import (
    dyadic_five_square_check,
    hilbert_symbol,
    pyth_chain_reduce,
    q2_square_classes,
    three_square_test,
    two_square_test,
    verify_dyadic_certificate,
    verify_pyth_chain,
)
from sosfield.split import analyze_place, find_split_places, verify_split_place
from sosfield.witness import nonpyth_witness, verify_certificate


def _report(cap, name, ok, elapsed, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}"
    with cap.disabled():
        print(line)
        sys.stdout.flush()


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _sqrt2_field():
    return ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T"))


def _ff_field(p, coeffs_of_t):
    base = GlobalBase("FF", FqField(p))
    E = base.fraction_field()
    x = E.gen()
    built = [-x if c == "-x" else E.coerce(Fraction(c)) for c in coeffs_of_t]
    return ExtField(base, Poly(E, built, "T"))


def test_ac01_square_classes_q2(capfd):
    def work():
        table = q2_square_classes()
        code, out = _run_cli("square-classes-q2")
        return table, code, out

    (table, code, out), dt = _timed(work)
    ok = (
        len(table.classes) == 8
        and len(table.inequivalence) == 28
        and all(row[3] is False for row in table.inequivalence)
        and code == 0
        and "8 square classes" in out
        and dt < 1.0
    )
    _report(capfd, "AC1", ok, dt, "8 classes of Q_2*, 28 pairwise ratios certified non-square")
    assert ok


def test_ac02_dyadic_hensel(capfd):
    def work():
        cert = dyadic_five_square_check()
        code, out = _run_cli("dyadic-check")
        return cert, code, out

    (cert, code, out), dt = _timed(work)
    lifted_sum = sum(c * c for c in cert.lifted)
    ok = (
        cert.start == (2, 1, 1, 1, 1)
        and cert.value == 8
        and cert.value % 2**3 == 0
        and cert.derivative == 2
        and cert.e == 1
        and cert.modulus == 2**8
        and lifted_sum % 2**8 == 0
        and verify_dyadic_certificate(cert).ok
        and code == 0
        and dt < 1.0
    )
    _report(capfd,
        "AC2", ok, dt,
        f"value 8 = 0 mod 8, derivative 2, e=1; lifted {cert.lifted} has "
        f"sum of squares {lifted_sum} = 0 mod 256",
    )
    assert ok


def test_ac03_witness_pipeline_q(tmp_path, capfd):
    path = tmp_path / "witness_q.json"

    def work():
        code_w, out_w = _run_cli(
            "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path)
        )
        code_v, out_v = _run_cli("verify", str(path))
        return code_w, out_w, code_v, out_v

    (code_w, out_w, code_v, out_v), dt = _timed(work)
    doc = json.loads(path.read_text())
    ok = (
        code_w == 0
        and "place 7: roots [3, 4]" in out_w
        and "parities: (odd, even)" in out_w
        and doc["payload"]["place"]["uniformizer"] == 7
        and doc["payload"]["place"]["residue_roots"] == ["3", "4"]
        and doc["payload"]["valuations"] == [1, 0]
        and code_v == 0
        and out_v.startswith("valid witness certificate")
        and dt < 5.0
    )
    _report(capfd, "AC3", ok, dt, "Q(sqrt 2): certificate at p=7, parities (odd, even), re-verified")
    assert ok


def test_ac04_witness_pipeline_function_fields(tmp_path, capfd):
    p5 = tmp_path / "witness_f5.json"
    p7 = tmp_path / "witness_f7.json"

    def work():
        r5 = _run_cli(
            "witness", "--base", "Fq:5", "--f", "T^2-X", "--place", "X-1",
            "--out", str(p5),
        )
        v5 = _run_cli("verify", str(p5))
        r7 = _run_cli(
            "witness", "--base", "Fq:7", "--f", "T^3-X", "--place", "X-1",
            "--out", str(p7),
        )
        v7 = _run_cli("verify", str(p7))
        return r5, v5, r7, v7

    ((c5, o5), (cv5, ov5), (c7, o7), (cv7, ov7)), dt = _timed(work)
    d5 = json.loads(p5.read_text())
    d7 = json.loads(p7.read_text())
    ok = (
        c5 == 0
        and "roots [1, 4]" in o5
        and "parities: (odd, even)" in o5
        and d5["payload"]["place"]["residue_roots"] == ["1", "4"]
        and cv5 == 0 and ov5.startswith("valid witness")
        and c7 == 0
        and "roots [1, 2, 4]" in o7
        and "parities: (odd, even, even)" in o7
        and d7["payload"]["place"]["residue_roots"] == ["1", "2", "4"]
        and len(d7["payload"]["valuations"]) == 3
        and cv7 == 0 and ov7.startswith("valid witness")
        and dt < 10.0
    )
    _report(capfd,
        "AC4", ok, dt,
        "F5(X) T^2-X at X-1 roots (1,4); F7(X) T^3-X at X-1 roots (1,2,4), "
        "parities (odd, even, even); both re-verified",
    )
    assert ok


def test_ac05_split_search_vs_euler(capfd):
    def work():
        K = _sqrt2_field()
        res = find_split_places(K, count=2)
        found = [r.base_place.uniformizer for r in res.records]
        verified = all(verify_split_place(r).ok for r in res.records)
        ps = []
        for p in primes(3):
            ps.append(p)
            if len(ps) == 25:
                break
        agree = all(
            (analyze_place(K, BasePlace(K.base, p)) is not None)
            == (pow(2, (p - 1) // 2, p) == 1)
            for p in ps
        )
        return found, verified, agree

    (found, verified, agree), dt = _timed(work)
    ok = found == [7, 17] and verified and agree
    _report(capfd,
        "AC5", ok, dt,
        "first split primes of T^2-2 are 7 and 17, verified; Euler-criterion "
        "oracle agrees on the first 25 odd primes",
    )
    assert ok


def test_ac06_pyth_chain(capfd):
    def work():
        chain = pyth_chain_reduce([2, 1, 1, 1])
        code, out = _run_cli("pyth-chain", "--terms", "2,1,1,1")
        return chain, code, out

    (chain, code, out), dt = _timed(work)
    ok = (
        chain.radicands == (Fraction(5), Fraction(6))
        and chain.sigma == 7
        and chain.u_square == 6
        and chain.v == 1
        and verify_pyth_chain(chain).ok
        and three_square_test(7) is False
        and code == 0
        and "radicands: (5, 6)" in out
        and "7 = (sqrt(6))^2 + (1)^2" in out
        and dt < 1.0
    )
    _report(capfd, "AC6", ok, dt, "radicands (5, 6); 7 = (sqrt 6)^2 + 1^2; 7 fails the three-square test")
    assert ok


def test_ac07_two_squares_vs_all_local(capfd):
    def work():
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            q = Fraction(rng.randrange(1, 10**4 + 1), rng.randrange(1, 10**4 + 1))
            r = two_square_test(q)
            if r.status not in ("decomposed", "refused"):
                return checked, False
            if hilbert_symbol(-1, q, "real") != 1:
                local = False
            else:
                ps = {2}
                for n in (q.numerator, q.denominator):
                    fac, complete = factor_int(n)
                    assert complete
                    ps.update(fac)
                local = all(hilbert_symbol(-1, q, p) == 1 for p in ps)
            if (r.status == "decomposed") != local:
                return checked, False
            if r.status == "decomposed":
                a, b = r.pair
                if a * a + b * b != q:
                    return checked, False
            checked += 1
        return checked, True

    (checked, agree), dt = _timed(work)
    ok = checked >= 200 and agree
    _report(capfd,
        "AC7", ok, dt,
        f"{checked} random rationals of height <= 10^4: two-square decision "
        "matches the all-local Hilbert criterion exactly",
    )
    assert ok


def test_ac08_base_square_multiples_constant_parity(capfd):
    def work():
        rng = random.Random(8)
        fields = [
            _sqrt2_field(),
            _ff_field(5, ["-x", 0, 1]),
            _ff_field(7, ["-x", 0, 0, 1]),
        ]
        total = violations = 0
        for K in fields:
            rec = find_split_places(K).records[0]
            places = rec.ext_places()
            done = 0
            while done < 170:
                c = K.F.rand(rng)
                beta = K.rand(rng)
                if not c or not beta:
                    continue
                vv = valuation_vector(places, K.from_base(c) * beta * beta)
                if not vv.is_constant_parity():
                    violations += 1
                done += 1
                total += 1
        return total, violations

    (total, violations), dt = _timed(work)
    ok = total >= 500 and violations == 0
    _report(capfd,
        "AC8", ok, dt,
        f"{total} random c*beta^2 over three extension fields: "
        f"{violations} parity violations",
    )
    assert ok


def test_ac09_invariant_suites(capfd):
    def work():
        rng = random.Random(9)
        notes = []

        # valuation axioms at a rational and an extension place
        w = BasePlace(GlobalBase("Q"), 7)
        for _ in range(100):
            a, b = QQ.rand(rng, height=60), QQ.rand(rng, height=60)
            if not a or not b:
                continue
            assert w.valuation(a * b) == w.valuation(a) + w.valuation(b)
            if a + b:
                assert w.valuation(a + b) >= min(w.valuation(a), w.valuation(b))
        notes.append("valuation axioms")

        # Hensel coherence across doubling precisions
        f = Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T")
        deep = hensel_lift_root(w, f, 3, 16)
        for n in (1, 2, 4, 8, 16):
            part = hensel_lift_root(w, f, 3, n)
            assert part.value == deep.value % 7**n
            assert (part.value**2 - 2) % 7**n == 0
        notes.append("Hensel coherence")

        # factorization round-trips
        for p in (5, 7):
            F = FqField(p)
            for _ in range(40):
                deg = rng.randrange(1, 7)
                coeffs = [F.rand(rng) for _ in range(deg)] + [F.one()]
                g = Poly(F, coeffs, "T")
                assert factor_fq(g).expand() == g
        for _ in range(40):
            deg = rng.randrange(1, 5)
            coeffs = [QQ.rand(rng, height=9) for _ in range(deg)] + [QQ.one()]
            g = Poly(QQ, coeffs, "T")
            assert factor_q(g).expand() == g
        notes.append("factor round-trips")

        # norm product identity on 100 samples over a cubic field
        K3 = ExtField(
            GlobalBase("Q"), Poly(QQ, [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)], "T")
        )
        # N(alpha * N(alpha)) = N(alpha)^(n+1) on seeded sums of squares alpha
        sample_rng = random.Random(9)
        samples = 0
        while samples < 100:
            alpha = K3.zero()
            for _ in range(sample_rng.randint(2, 4)):
                t = K3.rand(sample_rng)
                alpha = alpha + t * t
            if not alpha:
                continue
            samples += 1
            na = field_norm(alpha)
            assert field_norm(alpha * K3.from_base(na)) == na ** (K3.deg + 1)
        for _ in range(20):
            a, b = K3.rand(rng), K3.rand(rng)
            assert field_norm(a * b) == field_norm(a) * field_norm(b)
        notes.append("norm identity 100/100")

        # Hilbert product formula on 100 samples
        for _ in range(100):
            a = Fraction(rng.randrange(-300, 301) or 1, rng.randrange(1, 301))
            b = Fraction(rng.randrange(-300, 301) or 1, rng.randrange(1, 301))
            ps = {2}
            for n in (a.numerator, a.denominator, b.numerator, b.denominator):
                fac, complete = factor_int(abs(n))
                assert complete
                ps.update(q for q in fac)
            prod = hilbert_symbol(a, b, "real")
            for p in ps:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1
        notes.append("Hilbert product formula 100/100")

        # sign witness re-verification
        K = _sqrt2_field()
        neg, pos = real_embeddings(K)
        wit = indefinite_witness(K, K.gen() - 2, pos, neg)
        assert verify_sign_witness(wit).ok
        notes.append("sign witness re-verified")

        # full witness certificate re-verification
        cert = nonpyth_witness(K, find_split_places(K).records[0])
        assert verify_certificate(cert).ok
        notes.append("witness certificate re-verified")
        return notes

    notes, dt = _timed(work)
    ok = len(notes) == 7 and dt < 120.0
    _report(capfd, "AC9", ok, dt, "; ".join(notes))
    assert ok


def test_ac10_sign_witness_sqrt2(capfd):
    def work():
        K = _sqrt2_field()
        neg, pos = real_embeddings(K)
        alpha = K.gen() - 2
        w = indefinite_witness(K, alpha, pos, neg)
        return K, w

    (K, w), dt = _timed(work)
    x, y = w.pair
    height_ok = all(
        max(abs(c.numerator), c.denominator) <= 1 for e in (x, y) for c in e.coords
    )
    ok = (
        w.pair == (K.one(), K.one())
        and height_ok
        and w.signs == (1, -1)
        and verify_sign_witness(w).ok
        and dt < 1.0
    )
    _report(capfd,
        "AC10", ok, dt,
        "alpha = sqrt(2) - 2: pair (1, 1) gives beta = sqrt(2) - 1 with "
        "certified signs (+1, -1), re-verified by Sturm refinement",
    )
    assert ok
