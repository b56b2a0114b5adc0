"""Certificate files: a canonical JSON envelope around each checkable payload.

Serialization is canonical (sorted keys, fixed layout, exact-arithmetic text
for field elements), so equal inputs give byte-identical files.  The reader
rejects unknown format versions and kinds, names the offending field in every
error, and rebuilds the original objects: deserialize(serialize(c)) == c.
One table gives each kind's type, name, writer, reader and verifier.  The
text forms of fields and places are parsed and rendered here for the CLI too.
"""

import json
from collections import namedtuple
from fractions import Fraction

from .errors import CheckResult, SosfieldError, clipped
from .extension import ExtField, GlobalBase
from .fields import FqField
from .local import BasePlace, ValuationVector
from .orderings import RealEmbedding, SignPatternWitness, verify_sign_witness
from .parsing import (
    ParseError,
    parse_fraction,
    parse_poly,
    read_rational,
    render_poly,
    render_scalar,
)
from .poly import RatFunc
from .ratlocal import (
    DyadicHenselCertificate,
    PythChain,
    verify_dyadic_certificate,
    verify_pyth_chain,
)
from .split import SplitPlaceRecord, SplitSearchResult, verify_split_place
from .witness import SosExpr, WitnessCertificate, verify_certificate

FORMAT_VERSION = 1
TOOL_NAME = "sosfield"
TOOL_VERSION = "0.1.0"


def _need(obj, key, typ, where):
    """obj[key], which must be a typ; with typ object the caller checks the value."""
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    v = obj[key]
    if typ in (int, float) and isinstance(v, bool):
        raise ParseError(f"{where}: field {key!r} must be {typ.__name__}, got bool")
    if not isinstance(v, typ):
        raise ParseError(
            f"{where}: field {key!r} must be {typ.__name__}, got {type(v).__name__}"
        )
    return v


def _int_list(p, key, where):
    vals = _need(p, key, list, where)
    if any(isinstance(v, bool) or not isinstance(v, int) for v in vals):
        raise ParseError(f"{where}: {key} must be integers")
    return tuple(vals)


def _rat_out(q):
    q = Fraction(q)
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rat_in(v, where):
    if isinstance(v, bool):
        raise ParseError(f"{where}: expected a rational, got bool")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return read_rational(v)
        except ParseError as e:
            raise ParseError(f"{where}: {e}") from None
    raise ParseError(f"{where}: expected a rational, got {type(v).__name__}")


def _field_out(field):
    return {
        "base": field.base.label,
        "modulus": render_poly(field.f),
        "irreducibility": field.irreducibility_status,
    }


def parse_field(base, text, irreducibility="auto"):
    """K = E[T]/(f) with f parsed from text in T (and X over a function field)."""
    f = parse_poly(text, base.fraction_field())
    if f.degree() < 1:
        raise ParseError("defining polynomial must be nonconstant")
    return ExtField(base, f, irreducibility=irreducibility)


def _field_in(p, where):
    label = _need(p, "base", str, where)
    try:
        base = GlobalBase.from_label(label)
    except SosfieldError:
        raise ParseError(f"{where}: unknown base {clipped(label)!r}") from None
    text = _need(p, "modulus", str, where)
    mode = _need(p, "irreducibility", str, where)
    if mode not in ("verified", "asserted"):
        raise ParseError(f"{where}: irreducibility must be verified or asserted")
    try:
        field = parse_field(base, text, irreducibility="asserted")
    except SosfieldError as e:
        raise ParseError(f"{where}: bad modulus: {e}") from None
    if mode == "verified":
        # a false irreducibility claim is a wrong claim (exit 1), not a malformed file
        field.decide_irreducibility(required=True)
    return field


def _elem_out(x):
    return render_scalar(x)


def _elem_in(text, field, where):
    if not isinstance(text, str):
        raise ParseError(f"{where}: expected element text, got {type(text).__name__}")
    try:
        return field.from_poly(parse_poly(text, field.F))
    except SosfieldError as e:
        raise ParseError(f"{where}: {e}") from None


def _residue_in(v, residue_field, where):
    if isinstance(residue_field, FqField):
        if isinstance(v, str):
            try:
                v = int(v)
            except ValueError:
                raise ParseError(f"{where}: not a residue value: {v!r}") from None
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"{where}: not a residue value: {v!r}")
        return residue_field.from_int(v)
    if not isinstance(v, str):
        raise ParseError(f"{where}: expected residue element text")
    try:
        num, den = parse_fraction(v, residue_field.F, residue_field.var)
        x = residue_field.from_poly(num)
        return x if den.degree() == 0 else x / residue_field.from_poly(den)
    except (ZeroDivisionError, SosfieldError) as e:
        raise ParseError(f"{where}: {e}") from None


def parse_place(base, text):
    """The base place with uniformizer text: a prime of Z or a polynomial in X."""
    if base.kind == "Q":
        try:
            return BasePlace(base, int(text))
        except ValueError:
            raise ParseError(f"not an integer prime: {text!r}") from None
    rf = RatFunc(*parse_fraction(text, base.k))
    if not rf.is_poly():
        raise ParseError(f"uniformizer must be a polynomial: {text!r}")
    return BasePlace(base, rf.as_poly())


def render_place(bp):
    """The uniformizer of a base place: an int over Q, polynomial text otherwise."""
    return bp.uniformizer if bp.base.kind == "Q" else render_poly(bp.uniformizer)


def _place_out(rec):
    return {
        "uniformizer": render_place(rec.base_place),
        "residue_roots": [_elem_out(r) for r in rec.roots],
        "nonreal": rec.nonreal,
        "sqrt_minus_one": None if rec.sqrt_minus_one is None else _elem_out(rec.sqrt_minus_one),
    }


def _place_in(p, field, where):
    if field.base.kind == "Q":
        raw = _need(p, "uniformizer", int, where)
    else:
        raw = p.get("uniformizer")
        if not isinstance(raw, str):
            raise ParseError(f"{where}: uniformizer must be polynomial text")
    try:
        bp = parse_place(field.base, raw)
    except SosfieldError as e:
        raise ParseError(f"{where}: bad uniformizer: {e}") from None
    R = bp.residue_field()
    roots_raw = _need(p, "residue_roots", list, where)
    roots = tuple(
        _residue_in(r, R, f"{where}: residue_roots[{i}]")
        for i, r in enumerate(roots_raw)
    )
    nonreal = _need(p, "nonreal", bool, where)
    sqrt_m1 = p.get("sqrt_minus_one")
    if sqrt_m1 is not None:  # the one field that may be null
        sqrt_m1 = _residue_in(sqrt_m1, R, f"{where}: sqrt_minus_one")
    return SplitPlaceRecord(field, bp, roots, nonreal, sqrt_m1)


def _witness_out(cert):
    return {
        "field": _field_out(cert.field),
        "place": _place_out(cert.record),
        "sos_terms": [_elem_out(t) for t in cert.sos.terms],
        "valuations": list(cert.valuations.values),
        "parity_index": cert.parity_index,
    }


def _witness_in(p):
    where = "witness payload"
    field = _field_in(_need(p, "field", dict, where), where)
    rec = _place_in(_need(p, "place", dict, where), field, where)
    terms_raw = _need(p, "sos_terms", list, where)
    if not terms_raw:
        raise ParseError(f"{where}: sos_terms is empty")
    terms = [
        _elem_in(t, field, f"{where}: sos_terms[{i}]") for i, t in enumerate(terms_raw)
    ]
    try:
        sos = SosExpr(field, terms)
    except SosfieldError as e:
        raise ParseError(f"{where}: sos_terms: {e}") from None
    vals = _int_list(p, "valuations", where)
    places = rec.ext_places()
    if len(vals) != len(places):
        raise ParseError(f"{where}: valuations do not match the place count")
    idx = _need(p, "parity_index", int, where)
    return WitnessCertificate(field, rec, sos, ValuationVector(places, tuple(vals)), idx)


def _pyth_out(chain):
    return {
        "terms": [_rat_out(t) for t in chain.terms],
        "sigma": _rat_out(chain.sigma),
        "radicands": [_rat_out(r) for r in chain.radicands],
        "skips": list(chain.skips),
        "u_square": _rat_out(chain.u_square),
        "v": _rat_out(chain.v),
    }


def _pyth_in(p):
    where = "pyth-chain payload"
    terms = tuple(
        _rat_in(t, f"{where}: terms[{i}]")
        for i, t in enumerate(_need(p, "terms", list, where))
    )
    rads = tuple(
        _rat_in(r, f"{where}: radicands[{i}]")
        for i, r in enumerate(_need(p, "radicands", list, where))
    )
    skips = _need(p, "skips", list, where)
    for s in skips:
        if not isinstance(s, bool):
            raise ParseError(f"{where}: skips must be booleans")
    return PythChain(
        terms,
        _rat_in(_need(p, "sigma", object, where), f"{where}: sigma"),
        rads,
        tuple(skips),
        _rat_in(_need(p, "u_square", object, where), f"{where}: u_square"),
        _rat_in(_need(p, "v", object, where), f"{where}: v"),
    )


def _split_out(res):
    if not res.records:
        raise ParseError("split-places certificate needs at least one record")
    field = res.records[0].field
    return {
        "field": _field_out(field),
        "records": [_place_out(r) for r in res.records],
        "candidates_tried": res.candidates_tried,
        "exhausted": res.exhausted,
    }


def _split_in(p):
    where = "split-places payload"
    field = _field_in(_need(p, "field", dict, where), where)
    recs = tuple(
        _place_in(r if isinstance(r, dict) else {}, field, f"{where}: records[{i}]")
        for i, r in enumerate(_need(p, "records", list, where))
    )
    if not recs:
        raise ParseError(f"{where}: records is empty")
    return SplitSearchResult(
        recs,
        _need(p, "candidates_tried", int, where),
        _need(p, "exhausted", bool, where),
    )


def _sign_out(w):
    field = w.alpha.ring
    return {
        "field": _field_out(field),
        "alpha": _elem_out(w.alpha),
        "pair": [_elem_out(w.pair[0]), _elem_out(w.pair[1])],
        "embeddings": [
            {"lo": _rat_out(e.lo), "hi": _rat_out(e.hi)} for e in w.embeddings
        ],
        "signs": list(w.signs),
    }


def _sign_in(p):
    where = "sign-pattern payload"
    field = _field_in(_need(p, "field", dict, where), where)
    alpha = _elem_in(_need(p, "alpha", str, where), field, f"{where}: alpha")
    for key in ("pair", "embeddings"):
        if len(_need(p, key, list, where)) != 2:
            raise ParseError(f"{where}: {key} must have two entries")
    pair = tuple(
        _elem_in(t, field, f"{where}: pair[{i}]") for i, t in enumerate(p["pair"])
    )
    embs = []
    for i, e in enumerate(p["embeddings"]):
        ew = f"{where}: embeddings[{i}]"
        if not isinstance(e, dict):
            raise ParseError(f"{ew}: must be an object")
        lo = _rat_in(_need(e, "lo", object, ew), f"{ew}: lo")
        hi = _rat_in(_need(e, "hi", object, ew), f"{ew}: hi")
        embs.append(RealEmbedding(field.f, lo, hi))
    signs = _need(p, "signs", list, where)
    if len(signs) != 2 or any(s not in (-1, 1) or isinstance(s, bool) for s in signs):
        raise ParseError(f"{where}: signs must be two values in {{-1, +1}}")
    return SignPatternWitness(alpha, pair, tuple(embs), tuple(signs))


def _dyadic_out(c):
    return {
        "start": list(c.start),
        "value": c.value,
        "value_ok": c.value_ok,
        "derivative": c.derivative,
        "e": c.e,
        "criterion_ok": c.criterion_ok,
        "lifted": list(c.lifted),
        "modulus": c.modulus,
        "residue_ok": c.residue_ok,
        "conclusion": c.conclusion,
    }


def _dyadic_in(p):
    where = "dyadic-hensel payload"
    return DyadicHenselCertificate(
        start=_int_list(p, "start", where),
        value=_need(p, "value", int, where),
        value_ok=_need(p, "value_ok", bool, where),
        derivative=_need(p, "derivative", int, where),
        e=_need(p, "e", int, where),
        criterion_ok=_need(p, "criterion_ok", bool, where),
        lifted=_int_list(p, "lifted", where),
        modulus=_need(p, "modulus", int, where),
        residue_ok=_need(p, "residue_ok", bool, where),
        conclusion=_need(p, "conclusion", str, where),
    )


def _verify_split(res):
    for rec in res.records:
        result = verify_split_place(rec)
        if not result:
            return result
    return CheckResult(True, "ok")


# The one registry of certificate kinds.  Verifiers are looked up by name when
# called, so a wrapper bound over the imported name (perfbench's tracer
# installs such wrappers) sees the calls.
_Kind = namedtuple("_Kind", "type name write read verify")
_KINDS = (
    _Kind(WitnessCertificate, "witness", _witness_out, _witness_in,
          lambda c: verify_certificate(c)),
    _Kind(PythChain, "pyth-chain", _pyth_out, _pyth_in, lambda c: verify_pyth_chain(c)),
    _Kind(SplitSearchResult, "split-places", _split_out, _split_in, _verify_split),
    _Kind(SignPatternWitness, "sign-pattern", _sign_out, _sign_in,
          lambda c: verify_sign_witness(c)),
    _Kind(DyadicHenselCertificate, "dyadic-hensel", _dyadic_out, _dyadic_in,
          lambda c: verify_dyadic_certificate(c)),
)
_BY_NAME = {k.name: k for k in _KINDS}


def _kind_of(obj):
    for k in _KINDS:
        if isinstance(obj, k.type):
            return k
    raise ParseError(f"{type(obj).__name__} is not a certificate type")


def verify(obj):
    """(kind name, CheckResult) of an independent re-check of a certificate."""
    kind = _kind_of(obj)
    return kind.name, kind.verify(obj)


def serialize(cert, seed=0, budgets=None):
    """Canonical JSON text for a certificate: stable bytes for equal inputs."""
    kind = _kind_of(cert)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind.name,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "provenance": {"seed": seed, "budgets": dict(budgets or {})},
        "payload": kind.write(cert),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def deserialize(text):
    """Rebuild a certificate object from its canonical JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"certificate is not valid JSON: {e}") from None
    except ValueError as e:  # an integer of more digits than int() converts
        raise ParseError(f"certificate: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("certificate: top level must be an object")
    version = _need(doc, "format_version", int, "certificate")
    if version != FORMAT_VERSION:
        raise ParseError(f"certificate: unsupported format_version {version}")
    kind = _need(doc, "kind", str, "certificate")
    if kind not in _BY_NAME:
        raise ParseError(f"certificate: unknown kind {kind!r}")
    tool = _need(doc, "tool", dict, "certificate")
    _need(tool, "name", str, "certificate: tool")
    _need(tool, "version", str, "certificate: tool")
    provenance = _need(doc, "provenance", dict, "certificate")
    _need(provenance, "seed", int, "certificate: provenance")
    _need(provenance, "budgets", dict, "certificate: provenance")
    payload = _need(doc, "payload", dict, "certificate")
    return _BY_NAME[kind].read(payload)


def write_certificate(path, cert, seed=0, budgets=None):
    text = serialize(cert, seed=seed, budgets=budgets)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_certificate(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return deserialize(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read certificate file: {e}") from None
