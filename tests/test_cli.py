import json

import pytest

from sosfield.cli import _build_parser, main


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
    # degree > 3 over a function field: irreducibility is only asserted
    code, out, _ = run(capsys, "witness", "--base", "Fq:5", "--f", "T^4-X")
    assert code == 0
    assert "note: conditional" in out


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
    code, _, err = run(capsys, "witness", "--base", "Q", "--f", "T^2 -")
    assert code == 2
    code, _, err = run(capsys, "witness", "--base", "Z9", "--f", "T^2-2")
    assert code == 2
    code, _, err = run(capsys, "witness", "--base", "Q", "--f", "T^2-4")
    assert code == 2  # reducible
    code, _, err = run(capsys, "pyth-chain", "--terms", "2,banana")
    assert code == 2


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
    for label in ("Fq:abc", "Fq:"):
        code, _, err = run(capsys, "witness", "--base", label, "--f", "T^2-X")
        assert code == 2
        assert f"unknown base label {label!r}" in err
    path = tmp_path / "w.json"
    run(capsys, "witness", "--base", "Q", "--f", "T^2-2", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["payload"]["field"]["base"] = "Fq:zz"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "unknown base 'Fq:zz'" in err


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
