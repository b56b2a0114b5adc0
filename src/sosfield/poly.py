"""Dense univariate polynomials over an exact field, and rational functions.

Coefficients are stored lowest degree first with no trailing zeros. A Poly is
generic over the field objects from fields.py (and over RatFuncField below),
so the same code serves Q[T], F_q[X], Q(X)[T] and F_q(X)[T].

The arithmetic runs on one kernel per coefficient field, which _kernel picks
once and keeps on the field object; nothing else chooses a representation.
A Poly (and an extension.QuotElem) stores its kernel's packed value, and its
operations compute on packed values alone.  Field elements are made only when
coefficients are read: Poly.coeffs (and QuotElem.coords) is unpacked on first
read and cached, for rendering, hashing, coeff and lc.  Packed values are
canonical, so == compares them directly when both sides share a kernel type.
The kernels are:

- _Fp, for a prime field F_q: int lists mod q.  factor.py's Hensel lifting
  uses the same (Z/M)[X] functions with M = p^k.
- _Zq, for Q: int lists over one positive denominator; a product is one
  integer convolution and a division is pseudo-division over Z.
- _Kr, for a residue field F_p[x]/(pi): the residues of a polynomial are
  packed into one F_p[Y] list by Kronecker substitution, so a product in
  (F_p[x]/(pi))[T] is one int-list product.
- _Generic, for every other field (Q(X), F_q(X), Q[x]/(pi), number fields and
  extensions of k(X)): lists of field elements, schoolbook product and long
  division.

The _Kernel base class holds the one Euclid loop, extended Euclid loop and
modular square-and-multiply loop that all kernels share.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import DegenerateInputError
from .fields import FqElem, FqField, RationalField

# ---------------------------------------------------------------------------
# Int-list functions for (Z/M)[X], and for Z[X] with M = 0: coefficient lists
# lowest degree first, no trailing zeros. Inputs need not be reduced mod M,
# but a divisor's leading coefficient must be a unit mod M; results are
# reduced into [0, M).  Only the product and the division serve M = 0.


def _zl_trim(a):
    while a and not a[-1]:
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


def _zl_rem(a, m, M):
    """a mod the monic m over Z/M."""
    dm = len(m) - 1
    r = list(a)
    for k in range(len(r) - 1 - dm, -1, -1):
        t = r[k + dm] % M
        if t:
            r[k : k + dm] = [x - t * y for x, y in zip(r[k : k + dm], m)]
    return _zl_trim([c % M for c in r[:dm]])


# ---------------------------------------------------------------------------
# The kernels.  Each one has pack (field elements, trailing zeros allowed, to
# a packed value), unpack (a packed value to a trimmed list of field
# elements), degree, add, sub, mul, divmod and rem by a nonzero divisor, and
# inv_lc (the inverse of the leading coefficient, as a packed constant).
# Packed results are canonical, so equal polynomials pack to equal values,
# and no operation changes its inputs.


class _Kernel:
    """The loops every kernel shares: Euclid, extended Euclid, powers mod m."""

    zero, one = [], [1]

    def is_zero(self, A):
        return not A

    def degree(self, A):
        """Degree of a packed value, with -1 for zero."""
        return len(A) - 1

    def rem(self, A, B):
        return self.divmod(A, B)[1]

    def mulrem(self, A, B, m):
        """A*B mod a monic m."""
        return self.rem(self.mul(A, B), m)

    def monic(self, A):
        if self.is_zero(A):
            return A
        inv = self.inv_lc(A)
        return A if inv == self.one else self.mul(inv, A)

    def gcd(self, A, B):
        """Monic gcd; gcd(0, 0) = 0."""
        while not self.is_zero(B):
            A, B = B, self.rem(A, B)
        return self.monic(A)

    def ext_gcd(self, A, B):
        """(g, s, t) with g monic (or zero) and s*A + t*B = g."""
        r0, r1, s0, s1, t0, t1 = A, B, self.one, self.zero, self.zero, self.one
        while not self.is_zero(r1):
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        if self.is_zero(r0) or (inv := self.inv_lc(r0)) == self.one:
            return r0, s0, t0
        return self.mul(inv, r0), self.mul(inv, s0), self.mul(inv, t0)

    def pow_mod(self, A, e, m):
        """A**e mod a nonzero m, left-to-right square and multiply; 1 for e = 0.

        m is made monic first, so a leading coefficient that is a zero divisor
        raises even for e = 0.
        """
        m = self.monic(m)
        base = result = self.rem(A, m)
        if not e:
            return self.one
        for bit in bin(e)[3:]:
            result = self.mulrem(result, result, m)
            if bit == "1":
                result = self.mulrem(result, base, m)
        return result


class _Fp(_Kernel):
    """F_q[X] as int lists mod q."""

    def __init__(self, q):
        self.q = q

    def pack(self, cs):
        return _zl_trim([c.val for c in cs])

    def unpack(self, P):
        q = self.q
        return [FqElem(v, q) for v in P]

    def add(self, A, B):
        return _zl_add(A, B, self.q)

    def sub(self, A, B):
        return _zl_sub(A, B, self.q)

    def mul(self, A, B):
        return _zl_mul(A, B, self.q)

    def divmod(self, A, B):
        return _zl_divmod(A, B, self.q)

    def rem(self, A, B):
        return _zl_rem(A, B, self.q) if B[-1] == 1 else _zl_pdivmod(A, B, self.q)[2]

    def mulrem(self, A, B, m):
        return _zl_rem(_zl_mul(A, B, 0), m, self.q)

    def inv_lc(self, A):
        return [pow(A[-1], -1, self.q)]

    def eval(self, A, x):
        """A(x) mod q for an int x, by Horner's rule on ints."""
        acc = 0
        for c in reversed(A):
            acc = (acc * x + c) % self.q
        return acc


class _Zq(_Kernel):
    """Q[X] as (a, d), the int list a over one positive denominator d.

    Values are normalized, so gcd(d, content(a)) = 1 and zero is ([], 1);
    products and pseudo-division run on _zl_mul/_zl_pdivmod with M = 0.
    """

    zero, one = ([], 1), ([1], 1)

    def is_zero(self, A):
        return not A[0]

    def degree(self, A):
        return len(A[0]) - 1

    def pack(self, cs):
        dens = [c.denominator for c in cs]
        d = math.lcm(*dens)
        if d == 1:
            return _zl_trim([c.numerator for c in cs]), 1
        return _zl_trim([c.numerator * (d // e) for c, e in zip(cs, dens)]), d

    def unpack(self, A):
        a, d = A
        if d == 1:
            return [Fraction(x) for x in a]
        return [Fraction(x, d) for x in a]

    @staticmethod
    def _norm(a, d):
        g = math.gcd(d, *a)
        return (a, d) if g == 1 else ([x // g for x in a], d // g)

    def _scale(self, A, n, d):
        """A * n/d for ints n and d != 0."""
        a, da = A
        if d < 0:
            n, d = -n, -d
        return self._norm(a if n == 1 else [x * n for x in a], da * d)

    def add(self, A, B, sign=1):
        """A + sign*B."""
        (a, da), (b, db) = A, B
        d = math.lcm(da, db)
        ma, mb = d // da, sign * (d // db)
        return self._norm(_zl_trim([x * ma + y * mb for x, y in zip_longest(a, b, fillvalue=0)]), d)

    def sub(self, A, B):
        return self.add(A, B, -1)

    def mul(self, A, B):
        return self._norm(_zl_mul(A[0], B[0], 0), A[1] * B[1])

    def divmod(self, A, B):
        """Quotient and remainder, from s*a = q*b + r over Z."""
        (a, da), (b, db) = A, B
        if len(b) == 1:
            return self._scale(A, db, b[0]), self.zero
        s, q, r = _zl_pdivmod(a, b, 0)
        return self._scale((q, da * s), db, 1), self._norm(r, da * s)

    def rem(self, A, B):
        if len(B[0]) == 1:
            return self.zero
        s, _, r = _zl_pdivmod(A[0], B[0], 0)
        return self._norm(r, A[1] * s)

    def mulrem(self, A, B, m):
        return self.rem((_zl_mul(A[0], B[0], 0), A[1] * B[1]), m)

    def inv_lc(self, A):
        return self._scale(self.one, A[1], A[0][-1])

    def monic(self, A):
        return self._scale((A[0], 1), 1, A[0][-1]) if A[0] else A

    def gcd(self, A, B):
        """Monic gcd, by pseudo-remainders made primitive at each step; gcd(0, 0) = 0."""
        a, b = A[0], B[0]
        while b:
            a, b = b, _zl_pdivmod(a, b, 0)[2]
            g = math.gcd(*b)
            if g > 1:
                b = [x // g for x in b]
        return self.monic((a, 1))


class _Kr(_Kernel):
    """(F_p[x]/(pi))[T] by Kronecker substitution, for R = F_p[x]/(pi) with pi monic of degree d.

    (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4.)  A residue is
    its coordinate list in F_p, of degree < d.  A polynomial over R is packed
    into one F_p[Y] list, residue i at offset i*s with stride s = 2d - 1, so
    that one _zl_mul forms every product of two residues without overlap.  A
    packed value is reduced when each stride chunk is a reduced residue;
    divmod and mulrem also take chunks of any degree < s.
    """

    def __init__(self, R):
        self.R, self.q, self.pi, self.d = R, R.F.q, R._m, R.deg
        self.s = 2 * R.deg - 1

    def pack(self, cs):
        s, out = self.s, []
        for c in cs:
            out += c._p
            out += [0] * (s - len(c._p))
        return _zl_trim(out)

    def unpack(self, P):
        make, d = self.R._make, self.d
        return [make(_zl_trim(P[i : i + d])) for i in range(0, len(P), self.s)]

    def _reduce(self, P):
        """Reduce each chunk of P (chunks of degree < s, any ints) mod pi and p."""
        M, pi, s = self.q, self.pi, self.s
        if s == 1:
            return _zl_trim([c % M for c in P])
        out = []
        for i in range(0, len(P), s):
            c = _zl_rem(P[i : i + s], pi, M)
            out += c
            out += [0] * (s - len(c))
        return _zl_trim(out)

    def degree(self, A):
        return (len(A) - 1) // self.s

    def add(self, A, B):
        return _zl_add(A, B, self.q)

    def sub(self, A, B):
        return _zl_sub(A, B, self.q)

    def mul(self, A, B):
        return self._reduce(_zl_mul(A, B, self.q))

    def inv_lc(self, A):
        """ZeroDivisorError from QuotElem.inverse when lc(A) is a zero divisor."""
        lc = A[(len(A) - 1) // self.s * self.s :]
        return lc if lc == [1] else self.R._make(lc).inverse()._p

    def divmod(self, A, B):
        """Quotient and remainder by a nonzero reduced B; lc(B) is inverted first."""
        M, pi, s = self.q, self.pi, self.s
        if s == 1:
            # pi is linear: the residue ring is F_p and A, B are F_p[T] lists
            return _zl_divmod(A, B, M)
        nb = (len(B) - 1) // s
        inv = self.inv_lc(B)
        na = (len(A) - 1) // s
        if na < nb:
            return [], self._reduce(A)
        low, r = B[: nb * s], list(A)
        q = [0] * ((na - nb + 1) * s)
        for k in range(na - nb, -1, -1):
            top = (k + nb) * s
            t = _zl_rem(r[top : top + s], pi, M)
            if not t:
                continue
            if inv != [1]:
                t = _zl_rem(_zl_mul(t, inv, M), pi, M)
            off = k * s
            q[off : off + len(t)] = t
            # each chunk of t * low has degree <= 2d - 2 < s; chunk k + nb is not read again
            tb = _zl_mul(t, low, M)
            r[off : off + len(tb)] = [x - y for x, y in zip(r[off : off + len(tb)], tb)]
        return _zl_trim(q), self._reduce(r[: nb * s])

    def mulrem(self, A, B, m):
        return self.divmod(_zl_mul(A, B, self.q), m)[1]


class _Generic(_Kernel):
    """Lists of field elements, for any field: schoolbook product and long division."""

    def __init__(self, F):
        self._0, self._1 = F.zero(), F.one()
        self.one = [self._1]

    def pack(self, cs):
        return _zl_trim(list(cs))

    def unpack(self, P):
        return P

    def add(self, A, B):
        if len(A) < len(B):
            A, B = B, A
        return _zl_trim([x + y for x, y in zip(A, B)] + A[len(B) :])

    def sub(self, A, B):
        out = [x - y for x, y in zip(A, B)]
        out += A[len(B) :] if len(A) > len(B) else [-y for y in B[len(A) :]]
        return _zl_trim(out)

    def mul(self, A, B):
        if not A or not B:
            return []
        out = [self._0] * (len(A) + len(B) - 1)
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                out[i + j] = out[i + j] + a * b
        return _zl_trim(out)

    def inv_lc(self, A):
        c = A[-1]
        return self.one if c == self._1 else [self._1 / c]

    def divmod(self, A, B):
        d, inv = len(B) - 1, self.inv_lc(B)[0]
        q = [self._0] * max(len(A) - d, 0)
        rem = list(A)
        while len(rem) > d:
            k = len(rem) - 1 - d
            t = rem[-1] * inv
            q[k] = t
            for i, b in enumerate(B):
                rem[k + i] = rem[k + i] - t * b
            _zl_trim(rem)
        return _zl_trim(q), rem


def _kernel(F):
    """The kernel of the coefficient field F, made on first use and kept as F._kernel."""
    try:
        return F._kernel
    except AttributeError:
        pass
    if type(F) is FqField:
        k = _Fp(F.q)
    elif type(F) is RationalField:
        k = _Zq()
    elif type(getattr(F, "_k", None)) is _Fp:
        k = _Kr(F)  # a QuotientRing over a prime field
    else:
        k = _Generic(F)
    F._kernel = k
    return k


def _coerced(field, values):
    """The values as elements of field; DegenerateInputError for one that does not coerce."""
    out = []
    for c in values:
        e = field.coerce(c)
        if e is None:
            raise DegenerateInputError(f"cannot coerce {c!r} into {field!r}")
        out.append(e)
    return out


class Poly:
    """Immutable dense polynomial over a field object, in one named variable.

    It stores the packed value _p of its field's kernel _k.  coeffs, the
    tuple of field elements, is kept from the constructor, or unpacked from
    _p on first read and then cached.
    """

    __slots__ = ("field", "var", "_k", "_p", "_cs")

    def __init__(self, field, coeffs, var):
        cs = _coerced(field, coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.var = var
        self._k = _kernel(field)
        self._p = self._k.pack(cs)
        self._cs = tuple(cs)

    def _new(self, P):
        """A Poly over this one's field and variable from a packed value."""
        p = Poly.__new__(Poly)
        p.field, p.var, p._k, p._p, p._cs = self.field, self.var, self._k, P, None
        return p

    @classmethod
    def _from(cls, field, P, var):
        """A Poly from a packed value of the kernel of field."""
        p = cls.__new__(cls)
        p.field, p.var, p._k, p._p, p._cs = field, var, _kernel(field), P, None
        return p

    @property
    def coeffs(self):
        """The coefficients as field elements, lowest degree first, no trailing zeros."""
        cs = self._cs
        if cs is None:
            cs = self._cs = tuple(self._k.unpack(self._p))
        return cs

    @classmethod
    def gen(cls, field, var):
        return cls(field, [field.zero(), field.one()], var)

    def is_zero(self):
        return self._k.is_zero(self._p)

    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return self._k.degree(self._p)

    def lc(self):
        if self.is_zero():
            raise DegenerateInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return not self.is_zero() and self.lc() == self.field.one()

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def _packed(self, other):
        """The packed value of a Poly over the same domain or of a constant, else NotImplemented."""
        if isinstance(other, Poly):
            if other.var != self.var or (other.field is not self.field and other.field != self.field):
                raise DegenerateInputError("mixed polynomial domains")
            return other._p
        c = self.field.coerce(other)
        if c is None:
            return NotImplemented
        return self._k.pack([c])

    def __add__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._new(self._k.add(self._p, P))

    __radd__ = __add__

    def __sub__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._new(self._k.sub(self._p, P))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return self._new(self._k.sub(self._k.zero, self._p))

    def __mul__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._new(self._k.mul(self._p, P))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DegenerateInputError("negative polynomial power")
        k, result, base = self._k, self._k.one, self._p
        while n:
            if n & 1:
                result = k.mul(result, base)
            n >>= 1
            if n:
                base = k.mul(base, base)
        return self._new(result)

    def _divisor(self, other):
        """other's packed value as a divisor: ZeroDivisionError when it is zero."""
        P = self._packed(other)
        if P is not NotImplemented and self._k.is_zero(P):
            raise ZeroDivisionError("polynomial division by zero")
        return P

    def __divmod__(self, other):
        P = self._divisor(other)
        if P is NotImplemented:
            return NotImplemented
        q, r = self._k.divmod(self._p, P)
        return self._new(q), self._new(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        P = self._divisor(other)
        if P is NotImplemented:
            return NotImplemented
        return self._new(self._k.rem(self._p, P))

    def __truediv__(self, other):
        """Division by a constant, or exact polynomial division."""
        P = self._divisor(other)
        if P is NotImplemented:
            return NotImplemented
        k = self._k
        if k.degree(P) == 0:
            return self._new(k.mul(self._p, k.inv_lc(P)))
        q, r = k.divmod(self._p, P)
        if k.is_zero(r):
            return self._new(q)
        raise DegenerateInputError("non-exact polynomial division")

    def __rtruediv__(self, other):
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._new(P) / self

    def __eq__(self, other):
        if isinstance(other, Poly):
            if other.var != self.var or (other.field is not self.field and other.field != self.field):
                return False
            if type(other._k) is not type(self._k):  # an equal field on another kernel
                return self.coeffs == other.coeffs
            return self._p == other._p
        P = self._packed(other)
        if P is NotImplemented:
            return NotImplemented
        return self._p == P

    def __hash__(self):
        return hash((self.field, self.var, self.coeffs))

    def __bool__(self):
        return not self._k.is_zero(self._p)

    def monic(self):
        if self.is_zero():
            raise DegenerateInputError("zero polynomial cannot be made monic")
        return self._new(self._k.monic(self._p))

    def derivative(self):
        return Poly(
            self.field,
            [self.field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:],
            self.var,
        )

    def __call__(self, point):
        """Horner evaluation. `point` must live in the coefficient domain."""
        k = self._k
        if type(k) is _Fp and type(point) is FqElem and point.q == k.q:
            return FqElem(k.eval(self._p, point.val), k.q)
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


def _operands(a, b):
    """(kernel, packed a, packed b) for polys a and b over one field and variable."""
    if not isinstance(b, Poly):
        raise DegenerateInputError("mixed polynomial domains")
    return a._k, a._p, a._packed(b)


def poly_gcd(a, b):
    """Monic gcd over a field; gcd(0, 0) = 0."""
    k, A, B = _operands(a, b)
    return a._new(k.gcd(A, B))


def poly_ext_gcd(a, b):
    """Extended gcd: returns (g, s, t) with g monic (or zero) and s*a + t*b = g."""
    k, A, B = _operands(a, b)
    return tuple([a._new(c) for c in k.ext_gcd(A, B)])


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
    k, A, M = _operands(a, m)
    if k.is_zero(M):
        raise ZeroDivisionError("polynomial division by zero")
    return a._new(k.pow_mod(A, e, M))


class RatFunc:
    """A rational function num/den over k[X]: den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num._new(num._k.one)
        elif den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        elif num.is_zero():
            den = num._new(num._k.one)
        else:
            if den.degree() > 0:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, den = num // g, den // g
            k = den._k
            inv = k.inv_lc(den._p)
            if inv != k.one:
                num, den = num._new(num._k.mul(num._p, inv)), den._new(k.mul(inv, den._p))
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
        return RatFunc(self.num._new(self.num._k.pack([c])))

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
