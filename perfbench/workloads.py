"""Seeded request pools for the benchmark's workloads, with output checks.

A workload builds a pool of CLI requests from the seed; the benchmark runs
the pool in whole passes.  Each pool has a fixed composition (how many
requests of each stratum: degree, field size, command) and the seed picks
the inputs inside each stratum, so seeds change the inputs but not the mix.
Every check here uses plain integer arithmetic or the CLI's own exit codes
and never calls into sosfield directly.
"""

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Request:
    """One CLI call, the exit code it must give and how to check its output.

    ``cert`` is the certificate file the request writes (``writes``) or
    reads.  ``check(stdout, cert_text)`` returns None when the output is
    right and a reason otherwise.
    """

    label: str
    argv: list
    expect: int = 0
    cert: str = None
    writes: bool = False
    check: object = None


@dataclass
class Pool:
    """The requests of one pass, plus checks that span several requests."""

    requests: list
    warmup: list
    group_checks: list = field(default_factory=list)


class SetupError(Exception):
    """Set-up could not produce the inputs of the workload."""


# ---------------------------------------------------------------- integers


def is_prime(n):
    """Trial division; the benchmark only meets primes below 10**8."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def _random_prime(rng, lo, hi, residue=None):
    while True:
        n = rng.randrange(lo, hi) | 1
        if (residue is None or n % 4 == residue) and is_prime(n):
            return n


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _horner(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def poly_text(coeffs, var):
    """Text of an integer polynomial given low-to-high coefficients."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += ("-" if c < 0 else "+") + body
    return out or "0"


_PLACE = re.compile(r"^place (.+?): roots \[(.*?)\], nonreal=(True|False)")


def _place_line(stdout):
    m = _PLACE.match(stdout)
    if not m:
        return None
    roots = [r for r in m.group(2).split(", ") if r]
    return m.group(1), roots, m.group(3) == "True"


def _cert_place(cert_text):
    return json.loads(cert_text)["payload"]["place"]


# ---------------------------------------------------------------- numfield


def _eisenstein(rng, d):
    """Monic integer polynomial of degree d, Eisenstein at 2 or 3.

    Degrees 5 and 6 are binomials T^d - p*u: a general sextic has Galois
    group S6, so its first completely split prime is geometric with mean
    about 720 and one field costs 0.3-4 s, which no run-length here can
    average out.
    """
    p = rng.choice((2, 3))
    units = [u for u in range(-7, 8) if u % p]
    if d >= 5:
        return [-p * rng.choice(units)] + [0] * (d - 1) + [1]
    return [p * rng.choice(units[1:-1])] + [p * rng.randint(-2, 2) for _ in range(d - 1)] + [1]


def _check_q_witness(coeffs):
    d = len(coeffs) - 1

    def check(stdout, cert_text):
        parsed = _place_line(stdout)
        if parsed is None:
            return "no place line in the output"
        place, roots, nonreal = parsed
        if not place.isdigit() or not is_prime(int(place)):
            return f"place {place} is not a prime"
        p = int(place)
        ints = [int(r) for r in roots]
        if len(ints) != d or len(set(ints)) != d:
            return f"expected {d} distinct residue roots, got {roots}"
        for r in ints:
            if not 0 <= r < p or _horner(coeffs, r, p):
                return f"{r} is not a root of f modulo {p}"
        if not nonreal:
            return "a finite residue field was reported real"
        cp = _cert_place(cert_text)
        if cp["uniformizer"] != p or cp["residue_roots"] != roots:
            return "certificate place differs from the printed place"
        return None

    return check


# Requests per pass for each degree.
NUMFIELD_MIX = ((2, 100), (3, 100), (4, 120), (5, 40), (6, 40))


def numfield(rng, scale, work, run):
    requests, seen = [], set()
    for d, count in NUMFIELD_MIX:
        for _ in range(_scaled(count, scale)):
            for _ in range(100):
                coeffs = _eisenstein(rng, d)
                if tuple(coeffs) not in seen:
                    break
            seen.add(tuple(coeffs))
            path = f"{work}/nf-{len(requests):04d}.json"
            argv = ["witness", "--base", "Q", "--f", poly_text(coeffs, "T"), "--out", path]
            requests.append(
                Request(f"Q deg {d}", argv, 0, path, True, _check_q_witness(coeffs))
            )
    rng.shuffle(requests)
    return Pool(requests, [["witness", "--base", "Q", "--f", "T^2-2"]])


# ---------------------------------------------------------------- funcfield


def _squarefree_g(rng, q, deg):
    """Coefficients (low to high) of a squarefree g in F_q[X] of degree deg."""
    while True:
        g = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
        if deg == 1:
            return g
        c, b, a = g
        if (b * b - 4 * a * c) % q:
            return g


def _check_fq_witness(q, d, g):
    def check(stdout, cert_text):
        parsed = _place_line(stdout)
        if parsed is None:
            return "no place line in the output"
        place, roots, _ = parsed
        cp = _cert_place(cert_text)
        if cp["uniformizer"] != place or cp["residue_roots"] != roots:
            return "certificate place differs from the printed place"
        m = re.fullmatch(r"X(?: \+ (\d+))?", place)
        if m is None:
            return None  # residue field F_q^k, k > 1: the verifier re-checks it
        a = -int(m.group(1) or 0) % q
        ints = [int(r) for r in roots]
        if len(ints) != d or len(set(ints)) != d:
            return f"expected {d} distinct residue roots, got {roots}"
        target = _horner(g, a, q)
        for r in ints:
            if pow(r, d, q) != target:
                return f"{r}^{d} != g({a}) modulo {q}"
        return None

    return check


# (q, d, deg g) of the F_q requests of one pass.  q = 3 skips d = 3, where
# T^3 - g is inseparable.
FUNCFIELD_FQ = (
    [(3, 2, 1), (3, 2, 2)]
    + [(q, d, e) for q in (5, 7, 11, 13, 17, 19, 23) for d, e in ((2, 1), (3, 2))]
    + [(29, 2, 2), (31, 3, 1), (37, 2, 1), (41, 3, 1), (43, 2, 2), (101, 2, 1)]
)
# QX requests of one pass, each T^2 - a*X with |a| <= 3.
FUNCFIELD_QX = 3
QX_SLOPES = (1, -1, 2, -2, 3, -3)


def funcfield(rng, scale, work, run):
    requests = []
    for q, d, e in _scaled_list(FUNCFIELD_FQ, scale):
        g = _squarefree_g(rng, q, e)
        path = f"{work}/ff-{len(requests):04d}.json"
        f = f"T^{d}-({poly_text(g, 'X')})"
        argv = ["witness", "--base", f"Fq:{q}", "--f", f, "--out", path]
        requests.append(Request(f"Fq:{q} d={d}", argv, 0, path, True, _check_fq_witness(q, d, g)))
    for _ in range(_scaled(FUNCFIELD_QX, scale)):
        a = rng.choice(QX_SLOPES)
        path = f"{work}/ff-{len(requests):04d}.json"
        argv = ["witness", "--base", "QX", "--f", f"T^2-({poly_text([0, a], 'X')})", "--out", path]
        requests.append(Request("QX", argv, 0, path, True, _check_place_printed))
    rng.shuffle(requests)
    return Pool(requests, [["witness", "--base", "Fq:5", "--f", "T^2-X"]])


def _check_place_printed(stdout, cert_text):
    return None if _place_line(stdout) else "no place line in the output"


# ---------------------------------------------------------------- verify


def _tamper(doc, how, rng):
    """Change one claim of a witness certificate so that it becomes false."""
    payload = doc["payload"]
    if how == "swap-valuations":
        v = payload["valuations"]
        v[0], v[1] = v[1], v[0]
    elif how == "parity-index":
        payload["parity_index"] = 1
    else:  # wrong-root: a Q-base residue root moved off the root set
        roots = payload["place"]["residue_roots"]
        p = payload["place"]["uniformizer"]
        i = rng.randrange(len(roots))
        roots[i] = str((int(roots[i]) + 1) % p)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Certificates of one pass: Q-base witnesses by degree, F_q witnesses as
# (q, d, deg g), split-places certificates, sign-pattern certificates and
# tampered copies of witnesses.
VERIFY_Q = ((2, 4), (3, 4), (4, 4))
VERIFY_FQ = ((5, 2, 1), (7, 3, 1), (11, 2, 2), (13, 3, 2), (19, 2, 1), (23, 3, 1))
VERIFY_SPLIT = 2
VERIFY_SIGN = 2
# Tampered copies: one of every F_q witness (their check cost depends on q)
# and this many of seeded Q-base witnesses.
VERIFY_TAMPERED_Q = 3


def verify(rng, scale, work, run):
    made = []  # (label, path, can move a root)

    def produce(label, argv, path, integer_roots=False):
        code, stdout = run(argv + ["--out", path])
        if code != 0:
            raise SetupError(f"{' '.join(argv)} exited {code}: {stdout.strip()[:200]}")
        made.append((label, path, integer_roots))

    for d, count in VERIFY_Q:
        for _ in range(_scaled(count, scale)):
            f = poly_text(_eisenstein(rng, d), "T")
            produce("witness Q", ["witness", "--base", "Q", "--f", f], f"{work}/vq-{len(made):03d}.json", True)
    for q, d, e in _scaled_list(VERIFY_FQ, scale):
        f = f"T^{d}-({poly_text(_squarefree_g(rng, q, e), 'X')})"
        produce("witness Fq", ["witness", "--base", f"Fq:{q}", "--f", f], f"{work}/vf-{len(made):03d}.json")
    witnesses = list(made)
    for _ in range(_scaled(VERIFY_SPLIT, scale)):
        f = poly_text(_eisenstein(rng, 3), "T")
        argv = ["split-places", "--base", "Q", "--f", f, "--count", str(rng.randint(3, 5))]
        produce("split-places", argv, f"{work}/vs-{len(made):03d}.json")
    for _ in range(_scaled(VERIFY_SIGN, scale)):
        d = rng.choice(_NONSQUARES)
        argv = ["sign-witness", "--f", f"T^2-{d}", "--alpha", f"T-{d}", "--emb", "0,1"]
        produce("sign-pattern", argv, f"{work}/vg-{len(made):03d}.json")

    requests = [
        Request(f"verify {label}", ["verify", path], 0, path, False, _check_verdict(True))
        for label, path, _ in made
    ]
    q_base = [w for w in witnesses if w[2]]
    targets = rng.sample(q_base, min(len(q_base), _scaled(VERIFY_TAMPERED_Q, scale)))
    targets += [w for w in witnesses if not w[2]]
    for i, (_, src, integer_roots) in enumerate(targets):
        kinds = ["swap-valuations", "parity-index"] + (["wrong-root"] if integer_roots else [])
        how = rng.choice(kinds)
        with open(src, encoding="utf-8") as fh:
            doc = json.load(fh)
        path = f"{work}/vt-{i:03d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_tamper(doc, how, rng))
        requests.append(
            Request(f"verify tampered {how}", ["verify", path], 1, path, False, _check_verdict(False))
        )
    rng.shuffle(requests)
    return Pool(requests, [["verify", made[0][1]]])


def _check_verdict(valid):
    def check(stdout, cert_text):
        if valid and not re.match(r"valid [a-z-]+ certificate \(ok\)\n", stdout):
            return f"expected a valid verdict, got {stdout.strip()[:80]!r}"
        if not valid and not stdout.startswith("INVALID"):
            return f"expected an INVALID verdict, got {stdout.strip()[:80]!r}"
        return None

    return check


# ---------------------------------------------------------------- oracles

_NONSQUARES = [d for d in range(2, 40) if math.isqrt(d) ** 2 != d]


def _linear_in_t(text):
    """(u, v) with text = u + v*T, for rendered elements of Q(sqrt d)."""
    u = v = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if term == "T":
            v += sign
        elif term.endswith("*T"):
            v += sign * Fraction(term[:-2])
        else:
            u += sign * Fraction(term)
    return u, v


def _sign(u, v, d):
    """Exact sign of u + v*sqrt(d)."""
    if u >= 0 and v >= 0:
        return 1 if u or v else 0
    if u <= 0 and v <= 0:
        return -1
    a, b = u * u, v * v * d
    return (1 if u > 0 else -1) if a > b else (1 if v > 0 else -1)


def _check_sign_witness(d):
    pattern = re.compile(r"beta = \((.*)\)\^2 \+ \((.*)\)\^2 \* alpha\n")

    def check(stdout, cert_text):
        m = pattern.search(stdout)
        if m is None or "signs at embeddings (0, 1): (+1, -1)" not in stdout:
            return "no sign witness in the output"
        (xu, xv), (yu, yv) = _linear_in_t(m.group(1)), _linear_in_t(m.group(2))
        # beta = x^2 + y^2 (T - d), and T^2 = d
        x2 = (xu * xu + xv * xv * d, 2 * xu * xv)
        y2 = (yu * yu + yv * yv * d, 2 * yu * yv)
        beta = (x2[0] + y2[1] * d - y2[0] * d, x2[1] + y2[0] - y2[1] * d)
        signs = {_sign(beta[0], s * beta[1], d) for s in (1, -1)}
        if signs != {1, -1}:
            return "beta does not take both signs"
        return None

    return check


def _check_two_squares(n, obstruction):
    def check(stdout, cert_text):
        m = re.match(r"(\d+) = \((\d+)\)\^2 \+ \((\d+)\)\^2\n", stdout)
        if m:
            if obstruction is not None:
                return f"decomposed although {obstruction} divides n oddly"
            a, b = int(m.group(2)), int(m.group(3))
            return None if a * a + b * b == n else "a^2 + b^2 != n"
        m = re.search(r"prime (\d+) = 3 mod 4 divides", stdout)
        if m is None:
            return f"no verdict in {stdout.strip()[:80]!r}"
        p = int(m.group(1))
        if not (is_prime(p) and p % 4 == 3 and _valuation(n, p) % 2):
            return f"{p} is not a 3 mod 4 prime dividing n to odd power"
        return None if obstruction is not None else "refused a sum of two squares"

    return check


def _two_squares_input(rng, kind):
    """A composite near 10**20 and the prime that obstructs it, if any."""

    def big(residue):
        return _random_prime(rng, 10**6, 10**7, residue)

    if kind == 0:  # three primes 1 mod 4: a sum of two squares
        return big(1) * big(1) * big(1), None
    if kind == 1:  # one prime 3 mod 4 to the first power
        q = big(3)
        return big(1) * big(1) * q, q
    q = big(3)  # a prime 3 mod 4 squared
    return q * q * big(1), None


_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _hilbert_group(rng):
    """Arguments a, b and the four places where (a, b)_v can be -1.

    a = +-2^i p and b = +-2^j p' for distinct odd primes p, p', so every
    group has the same size: the real place, 2, p and p'.
    """
    p, p2 = rng.sample(_ODD_PRIMES, 2)
    a = rng.choice((1, -1)) * 2 ** rng.randint(0, 1) * p
    b = rng.choice((1, -1)) * 2 ** rng.randint(0, 1) * p2
    return a, b, ["real", "2", str(p), str(p2)]


def _hilbert_product():
    def check(outputs):
        product = 1
        for stdout in outputs:
            m = re.search(r"= ([+-]1)\n", stdout)
            if m is None:
                return f"no symbol in {stdout.strip()[:80]!r}"
            product *= int(m.group(1))
        return None if product == 1 else "Hilbert symbols break the product formula"

    return check


OR_SIGN = 3
OR_TWO_SQUARES = 12
OR_HILBERT_GROUPS = 10


def oracles(rng, scale, work, run):
    requests, groups = [], []
    for _ in range(_scaled(OR_SIGN, scale)):
        d = rng.choice(_NONSQUARES)
        path = f"{work}/or-{len(requests):03d}.json"
        argv = ["sign-witness", "--f", f"T^2-{d}", "--alpha", f"T-{d}", "--emb", "0,1", "--out", path]
        requests.append(Request("sign-witness", argv, 0, path, True, _check_sign_witness(d)))
    for i in range(_scaled(OR_TWO_SQUARES, scale)):
        n, obstruction = _two_squares_input(rng, i % 3)
        requests.append(
            Request("two-squares", ["two-squares", str(n)], 0, None, False, _check_two_squares(n, obstruction))
        )
    for _ in range(_scaled(OR_HILBERT_GROUPS, scale)):
        a, b, places = _hilbert_group(rng)
        members = []
        for p in places:
            members.append(len(requests))
            requests.append(Request("hilbert", ["hilbert", "-a", str(a), "-b", str(b), "-p", p]))
        groups.append((members, _hilbert_product()))
    order = list(range(len(requests)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    requests = [requests[i] for i in order]
    groups = [([where[i] for i in members], fn) for members, fn in groups]
    warmup = [["hilbert", "-a", "2", "-b", "3", "-p", "3"], ["two-squares", "65"]]
    return Pool(requests, warmup, groups)


# ---------------------------------------------------------------- sizing


def _scaled(count, scale):
    return max(1, round(count * scale))


def _scaled_list(items, scale):
    return items[: _scaled(len(items), scale)]


WORKLOADS = {
    "numfield": numfield,
    "funcfield": funcfield,
    "verify": verify,
    "oracles": oracles,
}
