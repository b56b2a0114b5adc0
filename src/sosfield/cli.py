"""Command-line front end: every pipeline behind one reproducible binary.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3
mathematical failure (search budget exhausted, undecided).  Output for a
fixed (argv, seed) is byte-identical across runs.
"""

import argparse
import functools
import sys

from .certs import (
    TOOL_VERSION,
    parse_field,
    parse_place,
    read_certificate,
    render_place,
    verify,
    write_certificate,
)
from .errors import DegenerateInputError, SosfieldError, UndecidedError
from .extension import GlobalBase
from .orderings import indefinite_witness, real_embeddings
from .parsing import ParseError, parse_in_algebra, parse_rational, render_scalar
from .ratlocal import (
    dyadic_five_square_check,
    pyth_chain_reduce,
    q2_square_classes,
    hilbert_symbol,
    two_square_test,
)
from .split import SearchBudget, analyze_place, find_split_places
from .witness import nonpyth_witness


def _place_summary(rec):
    pi = render_place(rec.base_place)
    roots = ", ".join(render_scalar(r) for r in rec.roots)
    s = "none" if rec.sqrt_minus_one is None else render_scalar(rec.sqrt_minus_one)
    return f"place {pi}: roots [{roots}], nonreal={rec.nonreal}, sqrt(-1)={s}"


def _emit(args, cert):
    if getattr(args, "out", None):
        write_certificate(args.out, cert, seed=args.seed)
        print(f"certificate written to {args.out}")


def _cmd_split_places(args):
    field = parse_field(GlobalBase.from_label(args.base), args.f)
    budget = SearchBudget(max_candidates=args.max_candidates) if args.max_candidates else None
    res = find_split_places(
        field,
        count=args.count,
        budget=budget,
        require_nonreal=args.nonreal,
        require_sqrt_minus_one=args.sqrt_minus_one,
        seed=args.seed,
    )
    for rec in res.records:
        print(_place_summary(rec))
    print(f"tried {res.candidates_tried} candidates")
    if len(res.records) < args.count:
        print(
            f"failure: found {len(res.records)} of {args.count} places "
            "before the search budget ran out",
            file=sys.stderr,
        )
        return 3
    _emit(args, res)
    return 0


def _cmd_witness(args):
    field = parse_field(GlobalBase.from_label(args.base), args.f)
    if args.place:
        rec = analyze_place(field, parse_place(field.base, args.place), args.seed)
        if rec is None:
            print("failure: the requested place is not completely split", file=sys.stderr)
            return 3
        if not rec.nonreal:
            print("failure: the requested place has a real residue field", file=sys.stderr)
            return 3
    else:
        res = find_split_places(field, count=1, require_nonreal=True, seed=args.seed)
        if not res.records:
            print("failure: no completely split nonreal place in budget", file=sys.stderr)
            return 3
        rec = res.records[0]
    cert = nonpyth_witness(field, rec)
    names = {0: "even", 1: "odd"}
    parities = ", ".join(names[v % 2] for v in cert.valuations.values)
    print(_place_summary(rec))
    print(f"sigma = {render_scalar(cert.sos.value)}")
    print("terms: " + "; ".join(render_scalar(t) for t in cert.sos.terms))
    print(f"valuations: {tuple(cert.valuations.values)}  parities: ({parities})")
    print(f"odd-parity coordinate: {cert.parity_index}")
    if cert.conditional:
        print("note: conditional on the defining polynomial being irreducible")
    _emit(args, cert)
    return 0


def _cmd_verify(args):
    # a ParseError means the file is structurally malformed (exit 2); any
    # other failure while rebuilding means the claims are false (exit 1)
    try:
        obj = read_certificate(args.file)
    except ParseError:
        raise
    except SosfieldError as e:
        print(f"INVALID certificate: claims do not reconstruct: {e}")
        return 1
    kind, result = verify(obj)
    if result:
        print(f"valid {kind} certificate ({result.reason})")
        return 0
    print(f"INVALID {kind} certificate: {result.reason}")
    return 1


def _cmd_pyth_chain(args):
    try:
        terms = [parse_rational(t) for t in args.terms.split(",") if t.strip()]
    except ParseError:
        raise ParseError(f"--terms must be comma-separated rationals: {args.terms!r}")
    chain = pyth_chain_reduce(terms)
    print(f"sigma = {chain.sigma}")
    if chain.radicands:
        rads = ", ".join(str(r) for r in chain.radicands)
        skips = ", ".join("skip" if s else "adjoin" for s in chain.skips)
        print(f"radicands: ({rads})  [{skips}]")
    else:
        print("radicands: ()")
    print(f"{chain.sigma} = (sqrt({chain.u_square}))^2 + ({chain.v})^2")
    _emit(args, chain)
    return 0


def _cmd_square_classes(args):
    table = q2_square_classes()
    reps = " ".join(str(c.representative) for c in table.classes)
    print(f"{len(table.classes)} square classes in Q_2: {reps}")
    bad = [row for row in table.inequivalence if row[3]]
    print(
        f"{len(table.inequivalence)} pairwise ratios checked: "
        + ("all non-squares" if not bad else f"FAILED on {bad[0][:2]}")
    )
    return 0 if not bad else 1


def _cmd_hilbert(args):
    a, b = parse_rational(args.a), parse_rational(args.b)
    if args.p == "real":
        p = "real"
    else:
        try:
            p = int(args.p)
        except ValueError:
            raise ParseError(f"-p must be a prime or 'real': {args.p!r}") from None
    s = hilbert_symbol(a, b, p)
    print(f"({a}, {b})_{p} = {s:+d}")
    return 0


def _cmd_two_squares(args):
    q = parse_rational(args.q)
    res = two_square_test(
        q, trial_bound=args.bound, rho_rounds=args.rho_rounds, seed=args.seed
    )
    if res.status == "decomposed":
        a, b = res.pair
        print(f"{q} = ({a})^2 + ({b})^2")
        return 0
    if res.status == "refused":
        print(f"{q} is not a sum of two rational squares: {res.detail}")
        return 0
    raise UndecidedError(f"two-square test undecided: {res.detail}")


def _cmd_sign_witness(args):
    field = parse_field(GlobalBase("Q"), args.f)
    embs = real_embeddings(field)
    try:
        i, j = (int(t) for t in args.emb.split(","))
    except ValueError:
        raise ParseError(f"--emb must be two indices 'i,j': {args.emb!r}") from None
    if not (0 <= i < len(embs) and 0 <= j < len(embs)) or i == j:
        raise ParseError(
            f"embedding indices out of range: field has {len(embs)} real embeddings"
        )
    alpha = field.coerce(parse_in_algebra(args.alpha, {"T": field.gen()}, field.one()))
    w = indefinite_witness(field, alpha, embs[i], embs[j])
    x, y = w.pair
    print(f"alpha = {render_scalar(alpha)}")
    print(f"beta = ({render_scalar(x)})^2 + ({render_scalar(y)})^2 * alpha")
    print(f"signs at embeddings ({i}, {j}): ({w.signs[0]:+d}, {w.signs[1]:+d})")
    _emit(args, w)
    return 0


def _cmd_dyadic_check(args):
    cert = dyadic_five_square_check()
    print(f"start {cert.start}: value {cert.value}, derivative {cert.derivative}")
    print(
        f"criterion (value = 0 mod 8, valuation(derivative) = {cert.e}): "
        f"{'ok' if cert.criterion_ok else 'FAILED'}"
    )
    print(f"lifted point mod {cert.modulus}: {cert.lifted}")
    print(f"sum of squares = 0 mod {cert.modulus}: {cert.residue_ok}")
    print(cert.conclusion)
    _emit(args, cert)
    return 0 if cert.criterion_ok and cert.residue_ok else 1


def _add_common(p, out=True):
    p.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    if out:
        p.add_argument("--out", help="write the certificate to this file")


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    ap = argparse.ArgumentParser(
        prog="sosfield",
        description="exact certificates for sums of squares over global fields",
    )
    ap.add_argument("--version", action="version", version=f"sosfield {TOOL_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split-places", help="search completely split places")
    p.add_argument("--base", required=True, help="Q, Fq:<p>, or QX")
    p.add_argument("--f", required=True, help="monic defining polynomial in T")
    p.add_argument("--count", type=int, default=1)
    p.add_argument(
        "--max-candidates",
        type=int,
        default=0,
        dest="max_candidates",
        help="cap on uniformizer candidates tried (0 = library default)",
    )
    p.add_argument("--nonreal", action="store_true", help="require nonreal residue")
    p.add_argument(
        "--sqrt-minus-one",
        action="store_true",
        dest="sqrt_minus_one",
        help="require an explicit square root of -1 in the residue field",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_split_places)

    p = sub.add_parser("witness", help="non-pythagorean containment witness")
    p.add_argument("--base", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--place", help="uniformizer of the base place (searched if omitted)")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pyth-chain", help="square-root tower reduction to u^2 + v^2")
    p.add_argument("--terms", required=True, help='comma-separated rationals, e.g. "2,1,1,1"')
    _add_common(p)
    p.set_defaults(func=_cmd_pyth_chain)

    p = sub.add_parser("square-classes-q2", help="the eight square classes of Q_2")
    p.set_defaults(func=_cmd_square_classes)

    p = sub.add_parser("hilbert", help="Hilbert symbol (a, b)_p")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("-p", required=True, help="an odd prime, 2, or 'real'")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("two-squares", help="sum-of-two-squares decomposition")
    p.add_argument("q", help="a nonnegative rational")
    p.add_argument("--bound", type=int, default=10**6, help="trial-division bound")
    p.add_argument(
        "--rho-rounds",
        type=int,
        default=64,
        dest="rho_rounds",
        help="Pollard rho split attempts after trial division (0 disables)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_two_squares)

    p = sub.add_parser("sign-witness", help="indefiniteness witness over a number field")
    p.add_argument("--f", required=True, help="monic defining polynomial in T")
    p.add_argument("--alpha", required=True, help="field element, e.g. 'T - 2'")
    p.add_argument("--emb", required=True, help="two embedding indices 'i,j'")
    _add_common(p)
    p.set_defaults(func=_cmd_sign_witness)

    p = sub.add_parser("dyadic-check", help="five-square isotropy certificate over Q_2")
    _add_common(p)
    p.set_defaults(func=_cmd_dyadic_check)

    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DegenerateInputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SosfieldError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
