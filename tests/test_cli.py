import functools
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from sosfield import cli
from sosfield.cli import _build_parser, main
from sosfield.split import SearchBudget


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witness_q_sqrt2(capsys):
    code, out, err = run(capsys, "witness", "--base", "Q", "--f", "T^2-2")
    assert code == 0
    assert "place 7: roots [3, 4]" in out
    assert "valuations: (1, 0)  parities: (odd, even)" in out
    assert "odd-parity coordinate: 0" in out
    assert "note:" not in out


def test_witness_writes_verifiable_certificate(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("valid witness certificate")


def test_witness_fq_10007_cubic_skips_degree_one(capsys, tmp_path):
    # q = 2 mod 3: no degree-1 place splits T^3 - X, and the search skips that
    # layer instead of trying all q of its candidates
    path = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "--base", "Fq:10007", "--f", "T^3-X", "--out", str(path))
    assert code == 0 and out.startswith("place X^2 + 1: roots [")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("valid witness certificate")
    code, out, _ = run(capsys, "split-places", "--base", "Fq:10007", "--f", "T^3-X")
    assert code == 0 and "tried 1 candidates" in out


def test_witness_explicit_place_f7(capsys):
    code, out, _ = run(
        capsys, "witness", "--base", "Fq:7", "--f", "T^3-X", "--place", "X-1"
    )
    assert code == 0
    assert "place X + 6: roots [1, 2, 4]" in out
    assert "parities: (odd, even, even)" in out


def test_witness_place_not_split(capsys):
    code, _, err = run(
        capsys, "witness", "--base", "Q", "--f", "T^2-2", "--place", "5"
    )
    assert code == 3
    assert "not completely split" in err


def test_witness_conditional_note(capsys):
    # a non-Eisenstein quartic over a function field: irreducibility is only
    # asserted (T^4 + T + X is irreducible, being linear in X)
    code, out, _ = run(capsys, "witness", "--base", "Fq:5", "--f", "T^4+T+X")
    assert code == 0
    assert "note: conditional" in out


def test_eisenstein_quartic_witness_is_verified(capsys, tmp_path):
    path = tmp_path / "q4.json"
    code, out, _ = run(capsys, "witness", "--base", "Fq:5", "--f", "T^4-X", "--out", str(path))
    assert code == 0
    assert "note:" not in out
    assert json.loads(path.read_text())["payload"]["field"]["irreducibility"] == "verified"
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.strip().endswith("(ok)")


def test_split_places_output(capsys):
    code, out, _ = run(
        capsys, "split-places", "--base", "Q", "--f", "T^2-2", "--count", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("place 7:")
    assert lines[1].startswith("place 17:")
    assert "sqrt(-1)=4" in lines[1]
    assert lines[2] == "tried 6 candidates"


def test_split_places_budget_failure(capsys):
    # the first split place of T^2 - 2 is the 3rd odd prime; a 2-candidate cap fails
    code, out, err = run(
        capsys, "split-places", "--base", "Q", "--f", "T^2-2",
        "--count", "1", "--max-candidates", "2",
    )
    assert code == 3
    assert "tried 2 candidates" in out
    assert "found 0 of 1" in err
    assert "(max_candidates = 2)" in err


def test_split_places_negative_cap_is_malformed(capsys):
    # 0 means the library default; a negative cap is malformed input, like --count -1
    for flag, value in (("--max-candidates", "-1"), ("--count", "-1")):
        code, out, err = run(capsys, "split-places", "--base", "Q", "--f", "T^2-2", flag, value)
        assert (code, out) == (2, ""), flag
        assert err.startswith("error: ") and "Traceback" not in err, flag
    code, out, _ = run(
        capsys, "split-places", "--base", "Q", "--f", "T^2-2", "--max-candidates", "0"
    )
    assert code == 0 and "tried 3 candidates" in out


def test_two_squares_negative_bounds_are_malformed(capsys):
    # 0 is a valid trial bound, and --rho-rounds 0 disables Pollard rho
    for argv in (
        ("221", "--bound", "-5"),
        ("21", "--bound", "-1", "--rho-rounds", "0"),
        ("221", "--rho-rounds", "-1"),
    ):
        code, out, err = run(capsys, "two-squares", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    code, out, _ = run(capsys, "two-squares", "221", "--bound", "0")
    assert code == 0 and "221 = " in out
    code, out, _ = run(capsys, "two-squares", "9", "--rho-rounds", "0")
    assert code == 0 and "9 = " in out


def test_wall_budget_is_named_on_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SearchBudget", functools.partial(SearchBudget, wall_seconds=0))
    for argv in (("split-places", "--max-candidates", "5"), ("witness",)):
        code, out, err = run(capsys, *argv, "--base", "Q", "--f", "T^2-2")
        assert code == 3, argv
        assert "wall_seconds = 0, so this result depends on machine speed" in err, argv
        assert "place" not in out, argv


def test_verify_tampered_witness(capsys, tmp_path):
    path = tmp_path / "w.json"
    run(capsys, "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["payload"]["valuations"] = [0, 0]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("INVALID witness certificate")


def test_verify_semantically_broken_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    run(capsys, "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["payload"]["place"]["residue_roots"] = ["3", "5"]  # 5 is not a root
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "claims do not reconstruct" in out


def test_verify_structurally_broken_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_pyth_chain_output(capsys):
    code, out, _ = run(capsys, "pyth-chain", "--terms", "2,1,1,1")
    assert code == 0
    assert "sigma = 7" in out
    assert "radicands: (5, 6)" in out
    assert "7 = (sqrt(6))^2 + (1)^2" in out


def test_pyth_chain_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "chain.json"
    code, _, _ = run(capsys, "pyth-chain", "--terms", "2,1,1,1", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "valid pyth-chain" in out


def test_pyth_chain_verify_long_terms(capsys, tmp_path):
    # a 600-digit term is within the CLI cap; sigma, its sum of squares,
    # has 1,200 digits, past the cap but within what a certificate holds
    path = tmp_path / "chain.json"
    code, _, _ = run(capsys, "pyth-chain", "--terms", "1" * 600 + "/2,1", "--out", str(path))
    assert code == 0
    assert len(json.loads(path.read_text())["payload"]["sigma"]) > 1200
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "valid pyth-chain" in out


def test_square_classes(capsys):
    code, out, _ = run(capsys, "square-classes-q2")
    assert code == 0
    assert "8 square classes in Q_2: 1 -1 2 -2 5 -5 10 -10" in out
    assert "28 pairwise ratios checked: all non-squares" in out


def test_hilbert_cli(capsys):
    code, out, _ = run(capsys, "hilbert", "-a", "-1", "-b", "-1", "-p", "2")
    assert code == 0 and "(-1, -1)_2 = -1" in out
    code, out, _ = run(capsys, "hilbert", "-a", "-1", "-b", "5", "-p", "real")
    assert code == 0 and "= +1" in out
    code, _, err = run(capsys, "hilbert", "-a", "-1", "-b", "5", "-p", "six")
    assert code == 2


def test_two_squares_cli(capsys):
    code, out, _ = run(capsys, "two-squares", "5")
    assert code == 0 and "5 = (1)^2 + (2)^2" in out
    code, out, _ = run(capsys, "two-squares", "13/4")
    assert code == 0 and "13/4 = (3/2)^2 + (1)^2" in out
    code, out, _ = run(capsys, "two-squares", "7")
    assert code == 0 and "not a sum of two rational squares" in out
    code, _, err = run(capsys, "two-squares", "-5")
    assert code == 2
    big = str((10**9 + 7) * (10**9 + 9))
    code, _, err = run(capsys, "two-squares", big, "--bound", "100", "--rho-rounds", "0")
    assert code == 3 and "undecided" in err
    # with factoring enabled the same number is decided: 10^9+7 = 3 mod 4 obstructs
    code, out, _ = run(capsys, "two-squares", big, "--bound", "100")
    assert code == 0 and "not a sum of two rational squares" in out


def test_sign_witness_cli(capsys):
    code, out, _ = run(
        capsys, "sign-witness", "--f", "T^2-2", "--alpha", "T-2", "--emb", "1,0"
    )
    assert code == 0
    assert "beta = (1)^2 + (1)^2 * alpha" in out
    assert "signs at embeddings (1, 0): (+1, -1)" in out
    code, _, err = run(
        capsys, "sign-witness", "--f", "T^2-2", "--alpha", "T-2", "--emb", "0,5"
    )
    assert code == 2
    code, _, err = run(
        capsys, "sign-witness", "--f", "T^2+1", "--alpha", "T", "--emb", "0,1"
    )
    assert code == 2  # no real embeddings at all


def test_dyadic_check_cli(capsys, tmp_path):
    path = tmp_path / "dyadic.json"
    code, out, _ = run(capsys, "dyadic-check", "--out", str(path))
    assert code == 0
    assert "start (2, 1, 1, 1, 1): value 8, derivative 2" in out
    assert "lifted point mod 256: (2, 181, 1, 1, 1)" in out
    assert "isotropic over Q_2" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "valid dyadic-hensel" in out


def test_parse_errors_exit_2(capsys):
    for argv in (
        ["witness", "--base", "Q", "--f", "T^2 -"],
        ["witness", "--base", "Fq:7", "--f", "T^3-X", "--place", "X +"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "unexpected end of input" in err
    code, _, err = run(capsys, "witness", "--base", "Z9", "--f", "T^2-2")
    assert code == 2
    code, _, err = run(capsys, "witness", "--base", "Q", "--f", "T^2-4")
    assert code == 2  # reducible
    code, _, err = run(capsys, "pyth-chain", "--terms", "2,banana")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "-a", "1e100000000", "-b", "3", "-p", "5"],
        ["hilbert", "-a", "1e5000", "-b", "3", "-p", "5"],
        ["two-squares", "1e5000"],
        ["pyth-chain", "--terms", "1e5000,1"],
    ],
)
def test_exponent_rationals_exit_2(capsys, argv):
    # Fraction() reads exponents: 1e5000 ended in a traceback when printed,
    # and 1e100000000 ran for minutes building 10**100000000
    start = time.monotonic()
    code, _, err = run(capsys, *argv)
    assert code == 2 and "Traceback" not in err and "1e" in err
    assert time.monotonic() - start < 1


def test_verify_exponent_rational_exits_2(capsys, tmp_path):
    path = tmp_path / "p.json"
    code, _, _ = run(capsys, "pyth-chain", "--terms", "2,1,1,1", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["payload"]["terms"][0] = "1e100000000"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "Traceback" not in err and "terms[0]: not a rational" in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("base, f", [("Q", "T^2-2"), ("Fq:7", "T^3-X"), ("QX", "T^2-X")])
def test_seed_changes_only_provenance(capsys, tmp_path, base, f):
    # no search depends on --seed; a written certificate records it
    path = tmp_path / "c.json"
    for cmd in ("witness", "split-places"):
        runs = []
        for seed in (0, 7):
            code, out, _ = run(
                capsys, cmd, "--base", base, "--f", f, "--seed", str(seed), "--out", str(path)
            )
            assert code == 0
            runs.append((out, json.loads(path.read_text())))
        (out0, doc0), (out7, doc7) = runs
        assert out0 == out7
        assert doc0["provenance"]["seed"] == 0 and doc7["provenance"]["seed"] == 7
        doc7["provenance"]["seed"] = 0
        assert doc0 == doc7


def test_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["witness", "--base", "Q", "--f", "T^2-2", "--seed", "0"]
    code, out1, _ = run(capsys, *argv, "--out", str(f1))
    code, out2, _ = run(capsys, *argv, "--out", str(f2))
    assert f1.read_text() == f2.read_text()
    assert out1.replace(str(f1), "F") == out2.replace(str(f2), "F")


def test_main_repeated_in_one_process(capsys):
    # the parser is built once per process; a run of calls, with an argparse
    # error in the middle, must print what separate calls print
    calls = [
        ["witness", "--base", "Q", "--f", "T^2-2"],
        ["hilbert", "-a", "2", "-b", "3", "-p", "3"],
        ["witness", "--base", "Q", "--bogus"],
        ["split-places", "--base", "Q", "--f", "T^2-2", "--count", "2"],
        ["two-squares", "65"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    separate = []
    for argv in calls:
        _build_parser.cache_clear()
        separate.append(call(argv))
    _build_parser.cache_clear()
    together = [call(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert together == separate
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 0]


def test_witness_rejects_composite_place_psi12(capsys):
    # a strong pseudoprime to the bases 2..37; was accepted as a place
    code, _, err = run(
        capsys, "witness", "--base", "Q", "--f", "T^2-3",
        "--place", "318665857834031151167461",
    )
    assert code == 2
    assert "not prime" in err


def test_witness_rejects_composite_place_psi13(capsys):
    # a strong pseudoprime to the bases 2..41; T^2-3 was accepted as split
    # there and the other two died with a traceback
    for f in ("T^2-3", "T^2+1", "T^2-7"):
        code, _, err = run(
            capsys, "witness", "--base", "Q", "--f", f,
            "--place", "3317044064679887385961981",
        )
        assert code == 2
        assert "not prime" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert "sosfield" in capsys.readouterr().out


def test_malformed_fq_label_exits_2(capsys, tmp_path):
    for label in ("Fq:abc", "Fq:", "Fq: 7", "Fq:07", "Fq:0_7", "Fq:7_0"):
        code, _, err = run(capsys, "witness", "--base", label, "--f", "T^2-X")
        assert code == 2
        assert f"unknown base label {label!r}" in err
    code, _, err = run(capsys, "witness", "--base", "Fq:" + "7" * 5000, "--f", "T^2-X")
    assert code == 2 and len(err) < 100
    # a canonical label whose q is not prime: FqField clips q in its message
    code, _, err = run(capsys, "witness", "--base", f"Fq:{10**200 + 1}", "--f", "T^2-X")
    assert code == 2 and "must be an odd prime" in err and len(err) < 100
    path = tmp_path / "w.json"
    run(capsys, "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path))
    doc = json.loads(path.read_text())
    for base in ("Fq:zz", "Fq:07"):
        doc["payload"]["field"]["base"] = base
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert f"unknown base {base!r}" in err
    doc["payload"]["field"]["base"] = "Fq:" + "7" * 5000
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and len(err) < 100


def test_witness_large_prime_fields(capsys, tmp_path):
    # no step lists the q elements of F_q, so q = 2^61 - 1 runs like a small q
    path = tmp_path / "w.json"
    for f in ("T^2-X", "T^3-X^2-1"):
        argv = ["witness", "--base", f"Fq:{2**61 - 1}", "--f", f, "--out", str(path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out == "valid witness certificate (ok)\n"
    code, out, _ = run(capsys, "witness", "--base", "Fq:1000003", "--f", "T^2-X")
    assert code == 0
    assert out.startswith("place X + 2: roots [410588, 589415], nonreal=True")


@pytest.mark.parametrize(
    "kind, argv, tamper",
    [
        ("witness", ["witness", "--base", "Q", "--f", "T^2-2"],
         lambda p: p["place"].update(nonreal=False)),
        ("pyth-chain", ["pyth-chain", "--terms", "2,1,1,1"],
         lambda p: p.update(sigma=8)),
        ("split-places", ["split-places", "--base", "Q", "--f", "T^2-2", "--count", "2"],
         lambda p: p["records"][0].update(nonreal=False)),
        ("sign-pattern", ["sign-witness", "--f", "T^2-2", "--alpha", "T-2", "--emb", "1,0"],
         lambda p: p.update(signs=[1, 1])),
        ("dyadic-hensel", ["dyadic-check"],
         lambda p: p.update(residue_ok=False)),
    ],
)
def test_verify_every_kind(capsys, tmp_path, kind, argv, tamper):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out == f"valid {kind} certificate (ok)\n"
    doc = json.loads(path.read_text())
    tamper(doc["payload"])
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith(f"INVALID {kind} certificate")


def _tamper_witness(payload, how):
    if how == "swap-valuations":
        v = payload["valuations"]
        v[0], v[1] = v[1], v[0]
    elif how == "parity-index":
        payload["parity_index"] = 1
    else:  # wrong-root: a Q-base residue root moved off the root set
        roots = payload["place"]["residue_roots"]
        roots[0] = str((int(roots[0]) + 1) % payload["place"]["uniformizer"])


@pytest.mark.parametrize(
    "base, f, how",
    [
        ("Q", "T^2-3*T-3", "swap-valuations"),
        ("Q", "T^3-5*T-5", "parity-index"),
        ("Q", "T^4+7*T+7", "wrong-root"),
        ("Fq:5", "T^2-X", "swap-valuations"),
        ("Fq:7", "T^3-(X+1)", "parity-index"),
        ("Fq:11", "T^2-(X^2+1)", "swap-valuations"),
        ("Fq:13", "T^3-(X^2+X+1)", "parity-index"),
        ("Fq:19", "T^2-(X+3)", "swap-valuations"),
        ("Fq:23", "T^3-(X+5)", "parity-index"),
    ],
)
def test_verify_rejects_tampered_closed_form_witness(capsys, tmp_path, base, f, how):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, "witness", "--base", base, "--f", f, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("valid witness certificate")
    doc = json.loads(path.read_text())
    _tamper_witness(doc["payload"], how)
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out.startswith("INVALID")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--base", "Fq:41", "--f", "T^3-(7*X+35)"],
         "d2a519203194fd7971047018f69e9f835b648ffe135415d9183845ff65bac9a4"),
        (["--base", "Fq:101", "--f", "T^3-X"],
         "6eee61b697c1c5fb3b1f1b0fc042e01067f4e54c5682732be7e768717a309221"),
    ],
    ids=["Fq41", "Fq101"],
)
def test_witness_stdout_golden(capsys, argv, digest):
    # SHA-256 of the stdout, pinned when the odd entry of sigma became the
    # closed form y + (T - a)^2, which changed sigma and its terms; the place
    # lines are the same as before
    code, out, _ = run(capsys, "witness", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "sqrt_minus_one, reason",
    [
        # residue field F_49: 49 = 1 mod 4, so a square root of -1 exists
        (None, "residue field has a square root of -1"),
        ("x + 1", "claimed square root of -1 fails"),
    ],
)
def test_verify_rejects_tampered_sqrt_minus_one(capsys, tmp_path, sqrt_minus_one, reason):
    path = tmp_path / "w.json"
    code, out, _ = run(
        capsys, "witness", "--base", "Fq:7", "--f", "T^2-X", "--place", "X^2+1", "--out", str(path)
    )
    assert code == 0 and "sqrt(-1)=x\n" in out
    doc = json.loads(path.read_text())
    doc["payload"]["place"]["sqrt_minus_one"] = sqrt_minus_one
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and out == f"INVALID witness certificate: split record: {reason}\n"


def test_internal_error_exits_4_without_traceback(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "hilbert_symbol", broken)
    code, out, err = run(capsys, "hilbert", "-a", "-1", "-b", "-1", "-p", "2")
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_closed_stdout_exits_120_without_traceback():
    # the BrokenPipeError is raised inside the command, so this also checks
    # that the internal-error handler (exit 4) lets it through to main
    # the second line is far longer than a pipe buffer, so the child is still
    # writing it when the reader closes the pipe after the first line
    terms = ",".join(["1"] * 10001)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "sosfield.cli", "pyth-chain", "--terms", terms],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert child.stdout.readline() == b"sigma = 10001\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in err and err == ""
    assert code == 120
