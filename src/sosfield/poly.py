"""Dense univariate polynomials over an exact field, and rational functions.

Coefficients are stored lowest degree first with no trailing zeros. A Poly is
generic over the field objects from fields.py (and over RatFuncField below),
so the same code serves Q[T], F_q[X], Q(X)[T] and F_q(X)[T].

Over a prime field F_q the arithmetic runs on plain int lists, through the
(Z/M)[X] kernel below with M = q; factor.py's Hensel lifting uses the same
kernel with M = p^k. Poly.coeffs stays a tuple of FqElem either way.

Over a residue field F_p[x]/(pi) (an extension.QuotientRing over an
FqField) the same kernel serves by Kronecker substitution: the residues of a
Poly are packed into one F_p[Y] list, so a product in (F_p[x]/(pi))[T] is
one kernel product.  Poly.coeffs stays a tuple of QuotElem.

Over Q the kernel serves Z[X] (M = 0): a Poly packs to an int list over one
positive denominator, a product is one integer convolution and a division is
pseudo-division, and gcds and powers stay packed until the result, which is
unpacked once into normalized Fractions.  Poly.coeffs stays a tuple of
Fraction.  The generic path is left for Q(X) and F_q(X) coefficients, and for
residue rings Q[x]/(pi), whose elements multiply on the kernel.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import DegenerateInputError, ZeroDivisorError
from .fields import FqElem, FqField, RationalField

# ---------------------------------------------------------------------------
# Int-list kernel for (Z/M)[X], and for Z[X] with M = 0: coefficient lists
# lowest degree first, no trailing zeros. Inputs need not be reduced mod M,
# but a divisor's leading coefficient must be a unit mod M; results are
# reduced into [0, M).  Only the product and the division serve M = 0.


def _zl_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zl_add(a, b, M):
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % M for x, y in zip(a, b)]
    out += [x % M for x in a[len(b) :]]
    return _zl_trim(out)


def _zl_sub(a, b, M):
    out = [(x - y) % M for x, y in zip(a, b)]
    if len(a) > len(b):
        out += [x % M for x in a[len(b) :]]
    else:
        out += [-y % M for y in b[len(a) :]]
    return _zl_trim(out)


def _zl_mul(a, b, M):
    if not a or not b:
        return []
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + lb] = [o + x * y for o, y in zip(out[i : i + lb], b)]
    return _zl_trim([c % M for c in out] if M else out)


def _zl_pdivmod(a, b, M):
    """(s, q, r) with s*a = q*b + r and deg r < deg b, for a nonzero b.

    Over Z/M, lc(b) must be a unit mod M, and s = 1.  Over Z (M = 0) this is
    pseudo-division: a step whose leading coefficient t is not a multiple of
    lc(b) first scales r and q by lc(b)/gcd(t, lc(b)), so s > 0 divides a
    power of lc(b).
    """
    db, lc = len(b) - 1, b[-1]
    inv = pow(lc, -1, M) if M else None
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        top = k + db
        t = r[top]
        if M:
            t = t * inv % M
        elif t % lc:
            m = abs(lc) // math.gcd(t, lc)
            r[:top] = [x * m for x in r[:top]]
            q = [x * m for x in q]
            s *= m
            t = t * m // lc
        else:
            t //= lc
        if t:
            q[k] = t
            # position top cancels and is never read again
            r[k:top] = [x - t * y for x, y in zip(r[k:top], b)]
    r = r[:db]
    return s, _zl_trim(q), _zl_trim([c % M for c in r] if M else r)


def _zl_divmod(a, b, M):
    """Quotient and remainder of a by b mod M; lc(b) must be a unit mod M."""
    return _zl_pdivmod(a, b, M)[1:]


def _zl_scale(a, c, M):
    return _zl_trim([x * c % M for x in a])


def _zl_pow_mod(a, e, m, M):
    """a**e mod m, left-to-right square and multiply; 1 for e = 0."""
    if not e:
        return [1]
    base = result = _zl_divmod(a, m, M)[1]
    for bit in bin(e)[3:]:
        result = _zl_divmod(_zl_mul(result, result, M), m, M)[1]
        if bit == "1":
            result = _zl_divmod(_zl_mul(result, base, M), m, M)[1]
    return result


def _zl_gcd(a, b, M):
    """Monic gcd mod a prime M; gcd(0, 0) = 0."""
    while b:
        a, b = b, _zl_divmod(a, b, M)[1]
    return _zl_scale(a, pow(a[-1], -1, M), M) if a else a


def _zl_ext_gcd(a, b, M):
    """(g, s, t) mod a prime M with g monic (or zero) and s*a + t*b = g."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _zl_divmod(r0, r1, M)
        r0, r1 = r1, r
        s0, s1 = s1, _zl_sub(s0, _zl_mul(q, s1, M), M)
        t0, t1 = t1, _zl_sub(t0, _zl_mul(q, t1, M), M)
    if not r0:
        return r0, s0, t0
    inv = pow(r0[-1], -1, M)
    return _zl_scale(r0, inv, M), _zl_scale(s0, inv, M), _zl_scale(t0, inv, M)


def _zl_rem(a, m, M):
    """a mod the monic m over Z/M."""
    dm = len(m) - 1
    r = list(a)
    for k in range(len(r) - 1 - dm, -1, -1):
        t = r[k + dm] % M
        if t:
            r[k : k + dm] = [x - t * y for x, y in zip(r[k : k + dm], m)]
    return _zl_trim([c % M for c in r[:dm]])


def _ints(p):
    return [c.val for c in p.coeffs]


# ---------------------------------------------------------------------------
# Q[X] on the kernel over Z: a rational polynomial is packed as (a, d), the
# int list a over one positive denominator d.  Results are normalized, so
# gcd(d, content(a)) = 1 and zero is ([], 1); products and pseudo-division
# run on _zl_mul/_zl_pdivmod with M = 0.


def _zq_pack(cs):
    """Rational coefficients, possibly with trailing zeros, packed."""
    dens = [c.denominator for c in cs]
    d = math.lcm(*dens)
    if d == 1:
        return _zl_trim([c.numerator for c in cs]), 1
    return _zl_trim([c.numerator * (d // e) for c, e in zip(cs, dens)]), d


def _zq_unpack(A):
    a, d = A
    if d == 1:
        return [Fraction(x) for x in a]
    return [Fraction(x, d) for x in a]


def _zq_norm(a, d):
    g = math.gcd(d, *a)
    return (a, d) if g == 1 else ([x // g for x in a], d // g)


def _zq_scale(A, n, d):
    """A * n/d for ints n and d != 0."""
    a, da = A
    if d < 0:
        n, d = -n, -d
    return _zq_norm(a if n == 1 else [x * n for x in a], da * d)


def _zq_add(A, B, sign=1):
    """A + sign*B."""
    (a, da), (b, db) = A, B
    d = math.lcm(da, db)
    ma, mb = d // da, sign * (d // db)
    return _zq_norm(_zl_trim([x * ma + y * mb for x, y in zip_longest(a, b, fillvalue=0)]), d)


def _zq_mul(A, B):
    return _zq_norm(_zl_mul(A[0], B[0], 0), A[1] * B[1])


def _zq_divmod(A, B):
    """Quotient and remainder by a nonzero B, from s*a = q*b + r over Z."""
    (a, da), (b, db) = A, B
    if len(b) == 1:
        return _zq_scale(A, db, b[0]), ([], 1)
    s, q, r = _zl_pdivmod(a, b, 0)
    return _zq_scale((q, da * s), db, 1), _zq_norm(r, da * s)


def _zq_rem(A, B):
    """Remainder by a nonzero B."""
    if len(B[0]) == 1:
        return [], 1
    s, _, r = _zl_pdivmod(A[0], B[0], 0)
    return _zq_norm(r, A[1] * s)


def _zq_monic(A):
    return _zq_scale((A[0], 1), 1, A[0][-1]) if A[0] else A


def _zq_gcd(A, B):
    """Monic gcd, by pseudo-remainders made primitive at each step; gcd(0, 0) = 0."""
    a, b = A[0], B[0]
    while b:
        a, b = b, _zl_pdivmod(a, b, 0)[2]
        g = math.gcd(*b)
        if g > 1:
            b = [x // g for x in b]
    return _zq_monic((a, 1))


def _zq_ext_gcd(A, B):
    """(g, s, t) with g monic (or zero) and s*A + t*B = g."""
    one, zero = ([1], 1), ([], 1)
    r0, r1, s0, s1, t0, t1 = A, B, one, zero, zero, one
    while r1[0]:
        q, r = _zq_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _zq_add(s0, _zq_mul(q, s1), -1)
        t0, t1 = t1, _zq_add(t0, _zq_mul(q, t1), -1)
    if not r0[0]:
        return r0, s0, t0
    n, d = r0[1], r0[0][-1]
    return _zq_monic(r0), _zq_scale(s0, n, d), _zq_scale(t0, n, d)


def _zq_pow_mod(A, e, m):
    """A**e mod a nonzero m; 1 for e = 0."""
    if not e:
        return [1], 1
    base = result = _zq_rem(A, m)
    for bit in bin(e)[3:]:
        result = _zq_rem(_zq_mul(result, result), m)
        if bit == "1":
            result = _zq_rem(_zq_mul(result, base), m)
    return result


# ---------------------------------------------------------------------------
# Kronecker substitution for (F_p[x]/(pi))[T], pi monic of degree d, on the
# kernel above (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).  A
# residue is its coordinate list in F_p, of degree < d.  A polynomial over
# the residue ring is packed into one F_p[Y] list, residue i at offset i*s
# with stride s = 2d - 1, so that one _zl_mul forms every product of two
# residues without overlap.  A packed list is reduced when each stride chunk
# is a reduced residue; the functions below take and return reduced lists.
# R is a QuotientRing over an FqField: R._pi is pi as ints.


def _kr_stride(R):
    return 2 * R.deg - 1


def _kr_pack(p):
    """The Poly p over R as a reduced packed list."""
    coeffs, d = p.coeffs, p.field.deg
    if d == 1:
        return [c.coords[0].val for c in coeffs]
    pad = [0] * (d - 1)
    out = []
    for c in coeffs:
        out += [x.val for x in c.coords]
        out += pad
    return _zl_trim(out)


def _kr_reduce(P, R):
    """Reduce each chunk of P (chunks of degree < s, any ints) mod pi and p."""
    M, pi = R.F.q, R._pi
    if R.deg == 1:
        return _zl_trim([c % M for c in P])
    s = _kr_stride(R)
    out = []
    for i in range(0, len(P), s):
        c = _zl_rem(P[i : i + s], pi, M)
        out += c
        out += [0] * (s - len(c))
    return _zl_trim(out)


def _kr_inverse(c, R):
    """Inverse of the nonzero residue c; ZeroDivisorError when pi is reducible."""
    g, s, _ = _zl_ext_gcd(c, R._pi, R.F.q)
    if len(g) > 1:
        g = Poly._from_ints(R.F, g, R.var)
        raise ZeroDivisorError(f"zero divisor: modulus has factor {g!r}", factor=g)
    return s


def _kr_mul(A, B, R):
    return _kr_reduce(_zl_mul(A, B, R.F.q), R)


def _kr_lc(A, R):
    s = _kr_stride(R)
    return A[(len(A) - 1) // s * s :]


def _kr_monic(A, R):
    lc = _kr_lc(A, R)
    return A if not A or lc == [1] else _kr_mul(_kr_inverse(lc, R), A, R)


def _kr_divmod(A, B, R):
    """Quotient and remainder of A by a nonzero reduced B.

    The chunks of A need only have degree < s (an unreduced product is fine).
    lc(B) is inverted first, as in the generic division.
    """
    M, pi, s = R.F.q, R._pi, _kr_stride(R)
    if s == 1:
        # pi is linear: the residue ring is F_p and A, B are F_p[T] lists
        return _zl_divmod(A, B, M)
    nb = (len(B) - 1) // s
    lc = _kr_lc(B, R)
    inv = None if lc == [1] else _kr_inverse(lc, R)
    na = (len(A) - 1) // s
    if na < nb:
        return [], _kr_reduce(A, R)
    low, r = B[: nb * s], list(A)
    q = [0] * ((na - nb + 1) * s)
    for k in range(na - nb, -1, -1):
        top = (k + nb) * s
        t = _zl_rem(r[top : top + s], pi, M)
        if not t:
            continue
        if inv is not None:
            t = _zl_rem(_zl_mul(t, inv, M), pi, M)
        off = k * s
        q[off : off + len(t)] = t
        # each chunk of t * low has degree <= 2d - 2 < s; chunk k + nb is not read again
        tb = _zl_mul(t, low, M)
        r[off : off + len(tb)] = [x - y for x, y in zip(r[off : off + len(tb)], tb)]
    return _zl_trim(q), _kr_reduce(r[: nb * s], R)


def _kr_pow_mod(A, e, m, R):
    """A**e mod a nonzero m; 1 for e = 0, as in the generic poly_pow_mod."""
    m = _kr_monic(m, R)
    if not e:
        return [1]
    M = R.F.q
    base = result = _kr_divmod(A, m, R)[1]
    for bit in bin(e)[3:]:
        result = _kr_divmod(_zl_mul(result, result, M), m, R)[1]
        if bit == "1":
            result = _kr_divmod(_zl_mul(result, base, M), m, R)[1]
    return result


def _kr_gcd(A, B, R):
    """Monic gcd, as poly_gcd."""
    while B:
        A, B = B, _kr_divmod(A, B, R)[1]
    return _kr_monic(A, R)


class Poly:
    """Immutable dense polynomial over a field object, in one named variable."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var):
        cs = []
        for c in coeffs:
            e = field.coerce(c)
            if e is None:
                raise DegenerateInputError(f"cannot coerce {c!r} into {field!r}")
            cs.append(e)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def _from_ints(cls, field, ints, var):
        """Poly over the prime field `field` from a kernel result (reduced, trimmed)."""
        p = cls.__new__(cls)
        q = field.q
        p.field = field
        p.coeffs = tuple([FqElem(v, q) for v in ints])
        p.var = var
        return p

    @classmethod
    def _from_zq(cls, field, A, var):
        """Poly over the rational field `field` from a packed (a, d)."""
        p = cls.__new__(cls)
        p.field = field
        p.coeffs = tuple(_zq_unpack(A))
        p.var = var
        return p

    @classmethod
    def _from_packed(cls, R, P, var):
        """Poly over a kernel residue ring R from a reduced packed list."""
        p = cls.__new__(cls)
        d, s = R.deg, _kr_stride(R)
        p.field = R
        p.coeffs = tuple([R._from_ints(P[i : i + d]) for i in range(0, len(P), s)])
        p.var = var
        return p

    @classmethod
    def const(cls, field, c, var):
        return cls(field, [c], var)

    @classmethod
    def gen(cls, field, var):
        return cls(field, [field.zero(), field.one()], var)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lc(self):
        if self.is_zero():
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return not self.is_zero() and self.lc() == self.field.one()

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def _wrap(self, other):
        if isinstance(other, Poly):
            if (other.field is not self.field and other.field != self.field) or other.var != self.var:
                raise DegenerateInputError("mixed polynomial domains")
            return other
        c = self.field.coerce(other)
        if c is None:
            return NotImplemented
        return Poly(self.field, [c], self.var)

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        if type(F) is FqField:
            return Poly._from_ints(F, _zl_add(_ints(self), _ints(other), F.q), self.var)
        if type(F) is RationalField:
            A, B = _zq_pack(self.coeffs), _zq_pack(other.coeffs)
            return Poly._from_zq(F, _zq_add(A, B), self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)], self.var)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        if type(F) is FqField:
            return Poly._from_ints(F, _zl_sub(_ints(self), _ints(other), F.q), self.var)
        if type(F) is RationalField:
            A, B = _zq_pack(self.coeffs), _zq_pack(other.coeffs)
            return Poly._from_zq(F, _zq_add(A, B, -1), self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)], self.var)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.field
        if type(F) is FqField:
            return Poly._from_ints(F, _zl_mul(_ints(self), _ints(other), F.q), self.var)
        if type(F) is RationalField:
            A, B = _zq_pack(self.coeffs), _zq_pack(other.coeffs)
            return Poly._from_zq(F, _zq_mul(A, B), self.var)
        if _on_kernel(F):
            return Poly._from_packed(F, _kr_mul(_kr_pack(self), _kr_pack(other), F), self.var)
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [], self.var)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DegenerateInputError("negative polynomial power")
        result = Poly(self.field, [self.field.one()], self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        if type(F) is FqField:
            q, r = _zl_divmod(_ints(self), _ints(other), F.q)
            return Poly._from_ints(F, q, self.var), Poly._from_ints(F, r, self.var)
        if type(F) is RationalField:
            q, r = _zq_divmod(_zq_pack(self.coeffs), _zq_pack(other.coeffs))
            return Poly._from_zq(F, q, self.var), Poly._from_zq(F, r, self.var)
        if _on_kernel(F):
            q, r = _kr_divmod(_kr_pack(self), _kr_pack(other), F)
            return Poly._from_packed(F, q, self.var), Poly._from_packed(F, r, self.var)
        q = [self.field.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d, inv_lc = other.degree(), self.field.one() / other.lc()
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            t = rem[-1] * inv_lc
            q[k] = t
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - t * b
            while rem and rem[-1] == self.field.zero():
                rem.pop()
        return Poly(self.field, q, self.var), Poly(self.field, rem, self.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        F = self.field
        if type(F) is not RationalField:
            return divmod(self, other)[1]
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return Poly._from_zq(F, _zq_rem(_zq_pack(self.coeffs), _zq_pack(other.coeffs)), self.var)

    def __truediv__(self, other):
        """Division by a constant, or exact polynomial division."""
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.degree() == 0:
            inv = self.field.one() / other.coeffs[0]
            return self * inv
        q, r = divmod(self, other)
        if r.is_zero():
            return q
        raise DegenerateInputError("non-exact polynomial division")

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (
                self.field == other.field
                and self.var == other.var
                and self.coeffs == other.coeffs
            )
        c = self.field.coerce(other)
        if c is None:
            return NotImplemented
        return self.coeffs == () if c == self.field.zero() else self.coeffs == (c,)

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def monic(self):
        if self.is_zero():
            raise DegenerateInputError("zero polynomial cannot be made monic")
        if type(self.field) is RationalField:
            return Poly._from_zq(self.field, _zq_monic(_zq_pack(self.coeffs)), self.var)
        inv = self.field.one() / self.lc()
        return Poly(self.field, [c * inv for c in self.coeffs], self.var)

    def derivative(self):
        return Poly(
            self.field,
            [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:],
            self.var,
        )

    def __call__(self, point):
        """Horner evaluation. `point` must live in the coefficient domain."""
        acc = self.field.zero() * point if not isinstance(point, (int, Fraction)) else self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def sort_key(self):
        # degree-major, then coefficients from the leading term down
        return (self.degree(), tuple(self.field.sort_key(c) for c in reversed(self.coeffs)))

    def __repr__(self):
        from .parsing import render_poly

        return render_poly(self)


def _on_kernel(F):
    """Whether F is a residue ring F_p[x]/(pi) whose arithmetic runs on the kernel."""
    return getattr(F, "_pi", None) is not None


def _kernel_field(a, b):
    """a.field when a and b are polys over one of Q, F_q or a kernel residue ring, else None."""
    F = a.field
    if type(F) is not FqField and type(F) is not RationalField and not _on_kernel(F):
        return None
    if not isinstance(b, Poly) or (b.field is not F and b.field != F) or b.var != a.var:
        raise DegenerateInputError("mixed polynomial domains")
    return F


def poly_gcd(a, b):
    """Monic gcd over a field; gcd(0, 0) = 0."""
    F = _kernel_field(a, b)
    if type(F) is FqField:
        return Poly._from_ints(F, _zl_gcd(_ints(a), _ints(b), F.q), a.var)
    if type(F) is RationalField:
        return Poly._from_zq(F, _zq_gcd(_zq_pack(a.coeffs), _zq_pack(b.coeffs)), a.var)
    if F is not None:
        return Poly._from_packed(F, _kr_gcd(_kr_pack(a), _kr_pack(b), F), a.var)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_ext_gcd(a, b):
    """Extended gcd: returns (g, s, t) with g monic (or zero) and s*a + t*b = g."""
    F = _kernel_field(a, b)
    if type(F) is FqField:
        g, s, t = _zl_ext_gcd(_ints(a), _ints(b), F.q)
        return tuple([Poly._from_ints(F, c, a.var) for c in (g, s, t)])
    if type(F) is RationalField:
        gst = _zq_ext_gcd(_zq_pack(a.coeffs), _zq_pack(b.coeffs))
        return tuple([Poly._from_zq(F, c, a.var) for c in gst])
    F, var = a.field, a.var
    one, zero = Poly(F, [F.one()], var), Poly(F, [], var)
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = F.one() / r0.lc()
    return r0.monic(), s0 * inv, t0 * inv


def resultant(a, b):
    """Resultant of two polynomials over a field, by Euclidean PRS."""
    if a.field != b.field or a.var != b.var:
        raise DegenerateInputError("mixed polynomial domains")
    F = a.field
    if a.is_zero() or b.is_zero():
        return F.one() if max(a.degree(), b.degree()) <= 0 else F.zero()
    acc = F.one()
    if a.degree() < b.degree():
        if (a.degree() * b.degree()) % 2 == 1:
            acc = -acc
        a, b = b, a
    while b.degree() > 0:
        r = a % b
        if r.is_zero():
            return F.zero()
        acc = acc * b.lc() ** (a.degree() - r.degree())
        if (a.degree() * b.degree()) % 2 == 1:
            acc = -acc
        a, b = b, r
    return acc * b.coeffs[0] ** a.degree()


def discriminant(f):
    """Discriminant: (-1)^(d(d-1)/2) * Res(f, f') / lc(f)."""
    d = f.degree()
    if d < 1:
        raise DegenerateInputError("discriminant needs degree >= 1")
    r = resultant(f, f.derivative()) / f.lc()
    return -r if (d * (d - 1) // 2) % 2 == 1 else r


def poly_pow_mod(a, e, m):
    """a**e mod m by square and multiply."""
    F = _kernel_field(a, m)
    if F is not None and m.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if type(F) is FqField:
        return Poly._from_ints(F, _zl_pow_mod(_ints(a), e, _ints(m), F.q), a.var)
    if type(F) is RationalField:
        return Poly._from_zq(F, _zq_pow_mod(_zq_pack(a.coeffs), e, _zq_pack(m.coeffs)), a.var)
    if F is not None:
        return Poly._from_packed(F, _kr_pow_mod(_kr_pack(a), e, _kr_pack(m), F), a.var)
    result = Poly(a.field, [a.field.one()], a.var)
    a = a % m
    while e:
        if e & 1:
            result = result * a % m
        a = a * a % m
        e >>= 1
    return result


class RatFunc:
    """A rational function num/den over k[X]: den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly(num.field, [num.field.one()], num.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly(num.field, [num.field.one()], num.var)
        else:
            if den.degree() > 0:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, den = num // g, den // g
            lc = den.lc()
            if lc != den.field.one():
                num, den = num * (num.field.one() / lc), den.monic()
        self.num = num
        self.den = den

    def is_poly(self):
        return self.den.degree() == 0

    def as_poly(self):
        if not self.is_poly():
            raise DegenerateInputError(f"{self!r} is not polynomial")
        return self.num

    def _wrap(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly) and other.field == self.num.field and other.var == self.num.var:
            return RatFunc(other)
        c = self.num.field.coerce(other)
        if c is None:
            return NotImplemented
        return RatFunc(Poly(self.num.field, [c], self.num.var))

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n):
        if n < 0:
            return (self._wrap(1) / self) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def __eq__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def __repr__(self):
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class RatFuncField:
    """Field object for k(X), elements are RatFunc over the field object k."""

    def __init__(self, k, var="X"):
        self.k = k
        self.var = var
        self.char = k.char

    def _poly(self, coeffs):
        return Poly(self.k, coeffs, self.var)

    def zero(self):
        return RatFunc(self._poly([]))

    def one(self):
        return RatFunc(self._poly([self.k.one()]))

    def from_int(self, n):
        return RatFunc(self._poly([self.k.from_int(n)]))

    def gen(self):
        return RatFunc(Poly.gen(self.k, self.var))

    def coerce(self, x):
        if isinstance(x, RatFunc):
            if x.num.field == self.k and x.num.var == self.var:
                return x
            return None
        if isinstance(x, Poly):
            if x.field == self.k and x.var == self.var:
                return RatFunc(x)
            return None
        c = self.k.coerce(x)
        if c is None:
            return None
        return RatFunc(self._poly([c]))

    def order(self):
        return None

    def sort_key(self, x):
        return (x.num.sort_key(), x.den.sort_key())

    def rand(self, rng, height=6):
        num = self._poly([self.k.rand(rng) for _ in range(rng.randint(1, 3))])
        den = self._poly([self.k.rand(rng) for _ in range(rng.randint(1, 3))])
        if den.is_zero():
            den = self._poly([self.k.one()])
        return RatFunc(num, den)

    def __repr__(self):
        return f"{self.k!r}({self.var})"

    def __eq__(self, other):
        return isinstance(other, RatFuncField) and other.k == self.k and other.var == self.var

    def __hash__(self):
        return hash(("RatFuncField", self.k, self.var))
