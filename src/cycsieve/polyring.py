"""The polynomial ring F_q[T]: exact arithmetic, irreducibles, factoring,
residue fields and the fraction field F_q(T).

A polynomial is a normalized little-endian tuple of field elements with no
trailing zero; the zero polynomial is the empty tuple ``()`` and its degree is
the sentinel ``NEG_INF = float("-inf")``.  All functions take the coefficient
field ``k`` (a ``PrimeField`` or ``ExtensionField``) as first argument.

Determinism conventions used by everything downstream:

* Polynomials of degree < b are enumerated by ``poly_from_index(k, i, b)`` for
  i = 0 .. q^b - 1 (little-endian digits of i in base q).
* Monic polynomials of degree exactly d are enumerated by
  ``monic_from_index(k, i, d)``, i = 0 .. q^d - 1; ascending i sorts them
  lexicographically by coefficient sequence read from the T^(d-1) coefficient
  down to the constant.  Irreducibles are listed in this order.

Text format (used by every CLI surface): ``c0+c1*T+c2*T^2`` with integer
coefficients 0 <= c < p, e.g. ``1+2*T^3``; the parser rejects coefficients
outside that range and duplicate powers; the zero polynomial is ``"0"``.
"""

from __future__ import annotations

import functools
import itertools
import re

from .ffield import ExtensionField, GF, PrimeField, prime_factors

NEG_INF = float("-inf")

# bounds of the memo caches; no shipped workload comes near them
FIELD_CACHE_SIZE = 64
IRREDUCIBLES_CACHE_SIZE = 256
FACTOR_CACHE_SIZE = 1 << 14


# ---------------------------------------------------------------------------
# ring arithmetic


def normalize(k, coeffs):
    """Strip trailing zeros; return a canonical tuple."""
    c = list(coeffs)
    while c and k.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def degree(f):
    """deg f, with NEG_INF for the zero polynomial."""
    return len(f) - 1 if f else NEG_INF


def leading(k, f):
    if not f:
        raise ValueError("zero polynomial has no leading coefficient")
    return f[-1]


def constant(k, c):
    """The constant polynomial c (normalized)."""
    return () if k.is_zero(c) else (c,)


def from_ints(k, ints):
    """Build a polynomial from small-integer coefficients (little-endian)."""
    return normalize(k, [k.from_int(c) for c in ints])


def add(k, f, g):
    n = max(len(f), len(g))
    fz, gz = f + (k.zero,) * (n - len(f)), g + (k.zero,) * (n - len(g))
    return normalize(k, [k.add(a, b) for a, b in zip(fz, gz)])


def neg(k, f):
    return tuple(k.neg(a) for a in f)


def sub(k, f, g):
    return add(k, f, neg(k, g))


def smul(k, c, f):
    if k.is_zero(c):
        return ()
    return normalize(k, [k.mul(c, a) for a in f])


def mul(k, f, g):
    if not f or not g:
        return ()
    out = [k.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if k.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = k.add(out[i + j], k.mul(a, b))
    return normalize(k, out)


def divrem(k, f, g):
    """(quotient, remainder) with f = q*g + r and deg r < deg g.  g != 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = len(g) - 1
    lg_inv = None if g[-1] == k.one else k.inv(g[-1])  # None: g is monic
    q = [k.zero] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        top = r[i]
        if k.is_zero(top):
            continue
        c = top if lg_inv is None else k.mul(top, lg_inv)
        q[i - dg] = c
        for j in range(dg + 1):
            r[i - dg + j] = k.sub(r[i - dg + j], k.mul(c, g[j]))
    return normalize(k, q), normalize(k, r)


def poly_mod(k, f, g):
    return divrem(k, f, g)[1]


def monic(k, f):
    """(leading coefficient, monic multiple) with f = lc * monic."""
    if not f:
        raise ValueError("zero polynomial cannot be made monic")
    lc = f[-1]
    if lc == k.one:
        return lc, f
    inv = k.inv(lc)
    return lc, tuple(k.mul(inv, a) for a in f)


def gcd(k, f, g):
    """Monic gcd (gcd(0, 0) = 0)."""
    while g:
        f, g = g, poly_mod(k, f, g)
    return monic(k, f)[1] if f else ()


def ext_gcd(k, f, g):
    """(d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = f, g
    s0, s1 = (k.one,), ()
    t0, t1 = (), (k.one,)
    while r1:
        q, r = divrem(k, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(k, s0, mul(k, q, s1))
        t0, t1 = t1, sub(k, t0, mul(k, q, t1))
    if not r0:
        return (), s0, t0
    lc, d = monic(k, r0)
    inv = k.inv(lc)
    return d, smul(k, inv, s0), smul(k, inv, t0)


def invert_mod(k, f, m):
    """Inverse of f modulo m (f, m coprime)."""
    d, s, _ = ext_gcd(k, f, m)
    if degree(d) != 0:
        raise ZeroDivisionError("polynomial is not invertible modulo m")
    return poly_mod(k, s, m)


def pow_mod(k, f, e: int, m):
    """f^e mod m, square-and-multiply (e >= 0)."""
    out = (k.one,)
    acc = poly_mod(k, f, m)
    while e:
        if e & 1:
            out = poly_mod(k, mul(k, out, acc), m)
        acc = poly_mod(k, mul(k, acc, acc), m)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# deterministic enumeration


def poly_from_index(k, i: int, b: int):
    """The i-th polynomial of degree < b (i in range(q^b)), little-endian digits."""
    out = []
    for _ in range(b):
        out.append(k.from_index(i % k.size))
        i //= k.size
    return normalize(k, out)


def box(k, bound: int, arity: int):
    """All tuples in O_K^arity with every coordinate of degree < bound,
    coordinates enumerated by ascending index (deterministic order)."""
    coords = [poly_from_index(k, i, bound) for i in range(k.size ** max(bound, 0))]
    return itertools.product(coords, repeat=arity)


def poly_to_index(k, f, b: int) -> int:
    """Inverse of poly_from_index for deg f < b."""
    out = 0
    for j in range(b - 1, -1, -1):
        c = f[j] if j < len(f) else k.zero
        out = out * k.size + k.index(c)
    return out


def monic_from_index(k, i: int, d: int):
    """The i-th monic polynomial of degree exactly d (i in range(q^d))."""
    out = []
    for _ in range(d):
        out.append(k.from_index(i % k.size))
        i //= k.size
    out.append(k.one)
    return tuple(out)


def monic_to_index(k, f) -> int:
    d = len(f) - 1
    out = 0
    for j in range(d - 1, -1, -1):
        out = out * k.size + k.index(f[j])
    return out


# ---------------------------------------------------------------------------
# irreducibility and factorization


def is_irreducible(k, f) -> bool:
    """Rabin's deterministic irreducibility test over F_q.

    f (deg d >= 1) is irreducible iff T^(q^d) = T (mod f) and, for every
    prime r | d, gcd(T^(q^(d/r)) - T mod f, f) = 1.  The Frobenius chain is
    computed by iterating u -> u^q mod f starting from u = T.
    """
    d = degree(f)
    if d is NEG_INF or d < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    _, f = monic(k, f)
    if d == 1:
        return True
    q = k.size
    t = (k.zero, k.one)
    frob = [t]
    for _ in range(d):
        frob.append(pow_mod(k, frob[-1], q, f))
    if poly_mod(k, sub(k, frob[d], t), f):
        return False
    for r in prime_factors(d):
        if degree(gcd(k, sub(k, frob[d // r], t), f)) != 0:
            return False
    return True


@functools.lru_cache(maxsize=IRREDUCIBLES_CACHE_SIZE)
def irreducibles(k, d: int):
    """All monic irreducibles of degree exactly d, in enumeration order.

    Product sieve: a monic composite of degree d has an irreducible factor of
    degree <= d/2, so marking every product g*h (g irreducible of degree
    <= d/2, h monic of complementary degree) leaves exactly the irreducibles.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = k.size
    if d == 1:
        return tuple(monic_from_index(k, i, 1) for i in range(q))
    composite = bytearray(q**d)
    for dg in range(1, d // 2 + 1):
        dh = d - dg
        for g in irreducibles(k, dg):
            for hi in range(q**dh):
                h = monic_from_index(k, hi, dh)
                composite[monic_to_index(k, mul(k, g, h))] = 1
    return tuple(
        monic_from_index(k, i, d) for i in range(q**d) if not composite[i]
    )


def irreducibles_cost(q: int, d: int) -> int:
    """Work of irreducibles(k, d) over F_q, priced without enumerating:
    q^d composite marks plus one product g*h per irreducible g of degree
    e <= d/2 and monic h of degree d - e."""
    return q**d + sum(count_irreducibles_formula(q, e) * q ** (d - e)
                      for e in range(1, d // 2 + 1))


def count_irreducibles_formula(q: int, d: int) -> int:
    """Independent count via Moebius inversion: (1/d) sum_{e|d} mu(e) q^(d/e)."""

    def mu(n):
        out = 1
        for r in prime_factors(n):
            if n % (r * r) == 0:
                return 0
            out = -out
        return out

    total = sum(mu(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor(k, f):
    """(leading coefficient, tuple of (monic irreducible, multiplicity)).

    Trial division by enumerated irreducibles of increasing degree; once the
    remaining cofactor has degree < 2*(current degree) it is itself
    irreducible.  Factors are sorted by (degree, enumeration index).
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc, g = monic(k, f)
    out = []
    d = 1
    while degree(g) >= 1:
        if degree(g) < 2 * d:
            out.append((g, 1))
            g = (k.one,)
            break
        for pi in irreducibles(k, d):
            e = 0
            while True:
                qt, r = divrem(k, g, pi)
                if r:
                    break
                g = qt
                e += 1
            if e:
                out.append((pi, e))
            if degree(g) < 1:
                break
        d += 1
    out.sort(key=lambda pe: (len(pe[0]), monic_to_index(k, pe[0])))
    return lc, tuple(out)


# ---------------------------------------------------------------------------
# text format


_TERM_RE = re.compile(r"^(?:(\d+)|(?:(\d+)\*)?T(?:\^(\d+))?)$")


def parse_poly(k, text: str):
    """Parse ``c0+c1*T+c2*T^2`` (e.g. ``1+2*T^3``) into a polynomial over k.

    Coefficients must be integers in [0, char); duplicate powers rejected.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ()
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad polynomial term {term!r}")
        const, coef, power = m.groups()
        if const is not None:
            c, e = int(const), 0
        else:
            c = int(coef) if coef is not None else 1
            e = int(power) if power is not None else 1
        if c >= k.char:
            raise ValueError(
                f"coefficient {c} out of range for characteristic {k.char}"
            )
        if e in coeffs:
            raise ValueError(f"duplicate term for power {e}")
        coeffs[e] = c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return from_ints(k, out)


def format_poly(k, f) -> str:
    """Inverse of parse_poly; ascending powers, zero terms omitted."""
    if not f:
        return "0"
    parts = []
    for e, c in enumerate(f):
        if k.is_zero(c):
            continue
        ci = k.index(c)
        if e == 0:
            parts.append(str(ci))
        elif e == 1:
            parts.append("T" if ci == 1 else f"{ci}*T")
        else:
            parts.append(f"T^{e}" if ci == 1 else f"{ci}*T^{e}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# the fraction field K = F_q(T)


class RationalFunctionField:
    """K = F_q(T) with the same element API as the finite fields.

    Elements are normalized pairs (num, den): den monic, gcd(num, den) = 1,
    zero = ((), (one,)).  This gives the geometry routines (determinants,
    kernels, closed-form regularity) one exact code path that works over both
    residue fields and the global function field.
    """

    def __init__(self, k):
        self.k = k
        self.char = k.char
        self.size = None  # infinite
        self.zero = ((), (k.one,))
        self.one = ((k.one,), (k.one,))

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.k == self.k

    def __hash__(self):
        return hash(("RationalFunctionField", self.k))

    def __repr__(self):
        return f"GF({self.k.size})(T)"

    def normalize(self, num, den):
        k = self.k
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (k.one,))
        g = gcd(k, num, den)
        if degree(g) > 0:
            num = divrem(k, num, g)[0]
            den = divrem(k, den, g)[0]
        lc, den = monic(k, den)
        if lc != k.one:
            num = smul(k, k.inv(lc), num)
        return (num, den)

    def from_poly(self, f):
        return (normalize(self.k, f), (self.k.one,))

    def from_int(self, c):
        return self.from_poly((self.k.from_int(c),))

    def is_zero(self, a):
        return not a[0]

    def add(self, a, b):
        k = self.k
        num = add(k, mul(k, a[0], b[1]), mul(k, b[0], a[1]))
        return self.normalize(num, mul(k, a[1], b[1]))

    def neg(self, a):
        return (neg(self.k, a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.k
        return self.normalize(mul(k, a[0], b[0]), mul(k, a[1], b[1]))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of zero")
        return self.normalize(a[1], a[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, e: int):
        if e < 0:
            return self.power(self.inv(a), -e)
        out = self.one
        acc = a
        while e:
            if e & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return out


# ---------------------------------------------------------------------------
# field construction


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def make_field(p: int, e: int = 1):
    """F_{p^e}; for e > 1 the modulus is the first irreducible of degree e
    over F_p in enumeration order (fixed, documented choice)."""
    base = GF(p)
    if e == 1:
        return base
    return ExtensionField(base, irreducibles(base, e)[0])


def extension_of(field, r: int):
    """Degree-r extension of a finite field, deterministic modulus choice."""
    if r == 1:
        return field
    return ExtensionField(field, irreducibles(field, r)[0])


def residue_field(k, pi) -> ExtensionField:
    """k_pi = F_q[T]/(pi) as an extension field; elements are coefficient
    tuples of length deg(pi)."""
    return ExtensionField(k, pi)
