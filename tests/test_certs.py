import json
from fractions import Fraction

import pytest

from sosfield.certs import (
    deserialize,
    read_certificate,
    serialize,
    verify,
    write_certificate,
)
from sosfield.extension import ExtField, GlobalBase
from sosfield.fields import QQ, FqField
from sosfield.parsing import ParseError
from sosfield.poly import Poly
from sosfield.ratlocal import dyadic_five_square_check, pyth_chain_reduce
from sosfield.split import find_split_places
from sosfield.witness import nonpyth_witness
from sosfield.orderings import indefinite_witness, real_embeddings


def _sqrt2_field():
    return ExtField(GlobalBase("Q"), Poly(QQ, [Fraction(-2), Fraction(0), Fraction(1)], "T"))


def _t2_minus_x(p):
    base = GlobalBase("FF", FqField(p))
    E = base.fraction_field()
    return ExtField(base, Poly(E, [-E.gen(), E.zero(), E.one()], "T"))


def _all_certificates():
    K = _sqrt2_field()
    search = find_split_places(K, count=2)
    witness = nonpyth_witness(K, search.records[0])
    neg, pos = real_embeddings(K)
    sign = indefinite_witness(K, K.gen() - 2, pos, neg)
    return [
        witness,
        pyth_chain_reduce([2, 1, 1, 1]),
        search,
        sign,
        dyadic_five_square_check(),
    ]


def test_roundtrip_every_kind():
    for cert in _all_certificates():
        text = serialize(cert)
        again = deserialize(text)
        assert again == cert, type(cert).__name__
        assert serialize(again) == text  # canonical bytes are stable


def test_roundtrip_function_field_witness():
    for p in (5, 7):
        K = _t2_minus_x(p)
        cert = nonpyth_witness(K, find_split_places(K).records[0])
        assert deserialize(serialize(cert)) == cert


def test_envelope_shape():
    doc = json.loads(serialize(pyth_chain_reduce([2, 1, 1, 1]), seed=3, budgets={"height": 10}))
    assert doc["format_version"] == 1
    assert doc["kind"] == "pyth-chain"
    assert doc["tool"]["name"] == "sosfield"
    assert doc["provenance"]["seed"] == 3
    assert doc["provenance"]["budgets"] == {"height": 10}
    assert isinstance(doc["payload"], dict)


def test_serialize_is_deterministic():
    K = _sqrt2_field()
    cert = nonpyth_witness(K, find_split_places(K).records[0])
    assert serialize(cert) == serialize(cert)


def test_unknown_version_and_kind_rejected():
    text = serialize(pyth_chain_reduce([1, 1]))
    doc = json.loads(text)
    doc["format_version"] = 99
    with pytest.raises(ParseError, match="format_version"):
        deserialize(json.dumps(doc))
    doc = json.loads(text)
    doc["kind"] = "mystery"
    with pytest.raises(ParseError, match="kind"):
        deserialize(json.dumps(doc))
    with pytest.raises(ParseError):
        deserialize("not json at all {")
    with pytest.raises(ParseError):
        deserialize(json.dumps([1, 2, 3]))


def test_missing_fields_named_in_errors():
    text = serialize(pyth_chain_reduce([2, 1, 1, 1]))
    doc = json.loads(text)
    del doc["payload"]["sigma"]
    with pytest.raises(ParseError, match="sigma"):
        deserialize(json.dumps(doc))
    doc = json.loads(text)
    del doc["payload"]["terms"]
    with pytest.raises(ParseError, match="terms"):
        deserialize(json.dumps(doc))
    doc = json.loads(text)
    doc["payload"]["sigma"] = "7/0"
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_bad_rational_text_rejected():
    text = serialize(pyth_chain_reduce([2, 1, 1, 1]))
    doc = json.loads(text)
    doc["payload"]["v"] = "one"
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_witness_payload_field_errors():
    K = _sqrt2_field()
    cert = nonpyth_witness(K, find_split_places(K).records[0])
    doc = json.loads(serialize(cert))
    doc["payload"]["field"]["base"] = "Z"
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))
    doc = json.loads(serialize(cert))
    doc["payload"]["field"]["modulus"] = "T^2 -"
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))
    doc = json.loads(serialize(cert))
    del doc["payload"]["place"]["residue_roots"]
    with pytest.raises(ParseError, match="residue_roots"):
        deserialize(json.dumps(doc))


def test_file_roundtrip(tmp_path):
    path = tmp_path / "cert.json"
    cert = dyadic_five_square_check()
    write_certificate(path, cert)
    assert read_certificate(path) == cert
    with pytest.raises(ParseError):
        read_certificate(tmp_path / "missing.json")


def test_non_certificate_rejected():
    with pytest.raises(ParseError):
        serialize(42)
    with pytest.raises(ParseError):
        verify("text")


# ---------------------------------------------------------------------------
# Untrusted input: bounded, and malformed means exit 2 without a traceback


def _verify_exit(capsys, tmp_path, doc):
    from sosfield.cli import main

    path = tmp_path / "cert.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def _fq_witness_doc():
    K = _t2_minus_x(7)
    return json.loads(serialize(nonpyth_witness(K, find_split_places(K).records[0])))


def test_huge_modulus_literal_exits_2(capsys):
    from sosfield.cli import main

    code = main(["witness", "--base", "Q", "--f", "T^2-" + "9" * 5000])
    err = capsys.readouterr().err
    assert code == 2 and "digits at position 4" in err


def test_huge_json_uniformizer_exits_2(capsys, tmp_path):
    K = _sqrt2_field()
    text = serialize(nonpyth_witness(K, find_split_places(K).records[0]))
    doc = json.loads(text)
    old = f'"uniformizer": {doc["payload"]["place"]["uniformizer"]}'
    assert old in text
    code, err = _verify_exit(capsys, tmp_path, text.replace(old, '"uniformizer": ' + "7" * 5000))
    assert code == 2 and "certificate: Exceeds the limit" in err


def test_huge_sos_term_literal_exits_2(capsys, tmp_path):
    doc = _fq_witness_doc()
    doc["payload"]["sos_terms"][0] = "9" * 5000
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "sos_terms[0]: integer literal of more than" in err


def test_unbounded_exponents_exit_2(capsys, tmp_path):
    doc = _fq_witness_doc()
    doc["payload"]["sos_terms"][1] = "T^99999999"
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "sos_terms[1]: exponent above" in err
    doc = _fq_witness_doc()
    doc["payload"]["field"]["modulus"] = "T^99999999 - 2"
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "bad modulus: exponent above" in err


def test_sos_terms_squaring_to_zero_exit_2(capsys, tmp_path):
    # 1 + 4 + 9 = 0 in F_7
    doc = _fq_witness_doc()
    doc["payload"]["sos_terms"] = ["1", "2", "3"]
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "sum of squares degenerated to zero" in err


def test_sos_terms_squared_once_per_read_and_verify(capsys, tmp_path, monkeypatch):
    import sosfield.witness as witness

    calls, square_sum = [], witness._square_sum

    def counted(F, terms):
        calls.append(len(terms))
        return square_sum(F, terms)

    monkeypatch.setattr(witness, "_square_sum", counted)
    K = _t2_minus_x(7)
    cert = nonpyth_witness(K, find_split_places(K).records[0])
    calls.clear()
    # a fresh certificate is checked against the sum its construction made
    assert witness.verify_certificate(cert).ok and calls == []
    doc = json.loads(serialize(cert))
    code, _ = _verify_exit(capsys, tmp_path, doc)
    assert code == 0 and calls == [len(doc["payload"]["sos_terms"])]


def test_reading_a_field_builds_it_once(monkeypatch):
    import sosfield.certs as certs
    import sosfield.extension as extension

    doc = _fq_witness_doc()
    built, decided = [], []

    class Counted(ExtField):
        def __init__(self, *a, **kw):
            built.append(a)
            super().__init__(*a, **kw)

    real = extension.verify_irreducible
    monkeypatch.setattr(certs, "ExtField", Counted)
    monkeypatch.setattr(
        extension, "verify_irreducible", lambda *a: decided.append(a) or real(*a)
    )
    assert doc["payload"]["field"]["irreducibility"] == "verified"
    cert = deserialize(json.dumps(doc))
    assert (len(built), len(decided)) == (1, 1)
    assert cert.field.irreducibility_status == "verified"
    doc["payload"]["field"]["irreducibility"] = "asserted"
    built.clear(), decided.clear()
    assert deserialize(json.dumps(doc)).field.irreducibility_status == "asserted"
    assert (len(built), len(decided)) == (1, 0)


def _sign_doc():
    K = _sqrt2_field()
    neg, pos = real_embeddings(K)
    return json.loads(serialize(indefinite_witness(K, K.gen() - 2, pos, neg)))


def test_pyth_chain_null_sigma_exits_2(capsys, tmp_path):
    doc = json.loads(serialize(pyth_chain_reduce([2, 1, 1, 1])))
    doc["payload"]["sigma"] = None
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "sigma: expected a rational, got NoneType" in err


def test_sign_pattern_list_bound_exits_2(capsys, tmp_path):
    doc = _sign_doc()
    doc["payload"]["embeddings"][0]["lo"] = [1]
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "embeddings[0]: lo: expected a rational, got list" in err


@pytest.mark.parametrize("count", [1, 3])
def test_sign_pattern_embedding_count_exits_2(count, capsys, tmp_path):
    doc = _sign_doc()
    embs = doc["payload"]["embeddings"]
    doc["payload"]["embeddings"] = (embs * 2)[:count]
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "embeddings must have two entries" in err


@pytest.mark.parametrize("base,f", [("Q", "T^2-2"), ("Fq:7", "T^2-X"), ("QX", "T^2-5*X")])
def test_null_residue_root_exits_2(base, f, capsys, tmp_path):
    from sosfield.cli import main

    path = tmp_path / "w.json"
    assert main(["witness", "--base", base, "--f", f, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["payload"]["place"]["residue_roots"][1] = None
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and "residue_roots[1]" in err


@pytest.mark.parametrize(
    "edit,message",
    [
        pytest.param(lambda d: d.update(tool=["sosfield"]), "'tool' must be dict, got list",
                     id="tool_list"),
        pytest.param(lambda d: d.update(tool=7), "'tool' must be dict, got int", id="tool_number"),
        pytest.param(lambda d: d.pop("tool"), "missing field 'tool'", id="tool_missing"),
        pytest.param(lambda d: d["tool"].update(name=None), "'name' must be str, got NoneType",
                     id="tool_name_null"),
        pytest.param(lambda d: d["tool"].pop("version"), "missing field 'version'",
                     id="tool_version_missing"),
        pytest.param(lambda d: d["tool"].update(version=1), "'version' must be str, got int",
                     id="tool_version_number"),
        pytest.param(lambda d: d.update(provenance="seed 0"), "'provenance' must be dict, got str",
                     id="provenance_string"),
        pytest.param(lambda d: d.pop("provenance"), "missing field 'provenance'",
                     id="provenance_missing"),
        pytest.param(lambda d: d["provenance"].update(seed="0"), "'seed' must be int, got str",
                     id="provenance_seed_string"),
        pytest.param(lambda d: d["provenance"].update(seed=True), "'seed' must be int, got bool",
                     id="provenance_seed_bool"),
        pytest.param(lambda d: d["provenance"].pop("budgets"), "missing field 'budgets'",
                     id="provenance_budgets_missing"),
        pytest.param(lambda d: d["provenance"].update(budgets=[]),
                     "'budgets' must be dict, got list", id="provenance_budgets_list"),
    ],
)
def test_malformed_envelope_exits_2(edit, message, capsys, tmp_path):
    doc = json.loads(serialize(pyth_chain_reduce([2, 1, 1, 1]), seed=3, budgets={"height": 10}))
    edit(doc)
    code, err = _verify_exit(capsys, tmp_path, doc)
    assert code == 2 and message in err


def test_huge_dyadic_e_exits_1_promptly(capsys, tmp_path):
    import time

    doc = json.loads(serialize(dyadic_five_square_check()))
    doc["payload"]["e"] = 10**30
    start = time.process_time()
    code, _ = _verify_exit(capsys, tmp_path, doc)
    # e is compared with 2-adic valuations first, so 2^(2e+1) is never built
    assert code == 1 and time.process_time() - start < 2
