"""Exact finite fields F_q (q = p^e, p an odd prime) and their extension towers.

Elements of ``PrimeField(p)`` are plain ints in ``range(p)``.  Elements of
``ExtensionField(base, modulus)`` are length-d tuples of base elements
(little-endian coordinates on the power basis of the adjoined root, where
d = deg(modulus)).  Residue fields k_pi = F_q[T]/(pi) are built uniformly as
``ExtensionField(F_q, pi)``, even for deg(pi) = 1.

Both classes share one small API:

    zero, one, char, size, degree_over_prime
    add(a, b)  sub(a, b)  neg(a)  mul(a, b)  inv(a)  power(a, e)
    is_zero(a)  from_int(c)  index(a)  from_index(i)  elements()
    trace_to_prime(a)  multiplicative_generator()

Every element representation is immutable and hashable; fields compare by
value so they can key caches.  The enumeration order ``from_index(0), ...,
from_index(size-1)`` is the single deterministic ordering used everywhere
(generator choice, character tables, fixtures).
"""

from __future__ import annotations

import functools

FIELD_CACHE_SIZE = 64  # fields whose constructor or generator is memoized


def is_prime_int(n: int) -> bool:
    """Deterministic trial-division primality for small integers."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _find_generator(field):
    """Smallest generator of field^* in the field's enumeration order.

    An element g generates the cyclic group field^* (order N = size - 1)
    iff g^(N/r) != 1 for every prime r | N.
    """
    n = field.size - 1
    rs = prime_factors(n)
    for i in range(1, field.size):
        g = field.from_index(i)
        if field.is_zero(g):
            continue
        if all(field.power(g, n // r) != field.one for r in rs):
            return g
    raise ArithmeticError("no generator found (impossible for a field)")


class PrimeField:
    """F_p with elements represented as ints in range(p)."""

    def __init__(self, p: int):
        if not is_prime_int(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.size = p
        self.degree_over_prime = 1
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def power(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_zero(self, a):
        return a == 0

    def from_int(self, c: int):
        return c % self.p

    def index(self, a) -> int:
        return a

    def from_index(self, i: int):
        return i

    def elements(self):
        return range(self.p)

    def trace_to_prime(self, a) -> int:
        return a

    def multiplicative_generator(self):
        return _find_generator(self)


class ExtensionField:
    """base[t]/(modulus): elements are length-d tuples over base (d = deg modulus).

    ``modulus`` is a monic polynomial over ``base`` given as a coefficient
    tuple of length d+1 (little-endian, leading coefficient = base.one).
    """

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        d = len(modulus) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.deg = d
        self.char = base.char
        self.size = base.size**d
        self.degree_over_prime = base.degree_over_prime * d
        self.zero = (base.zero,) * d
        self.one = tuple(base.one if i == 0 else base.zero for i in range(d))

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))

    def __repr__(self):
        return f"GF({self.char}^{self.degree_over_prime})"

    def add(self, a, b):
        ba = self.base.add
        return tuple(ba(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bs = self.base.sub
        return tuple(bs(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bn = self.base.neg
        return tuple(bn(x) for x in a)

    def reduce_poly(self, coeffs):
        """Reduce an arbitrary-length coefficient list over base mod modulus."""
        base, d, m = self.base, self.deg, self.modulus
        c = list(coeffs)
        if len(c) < d:
            c += [base.zero] * (d - len(c))
        for i in range(len(c) - 1, d - 1, -1):
            top = c[i]
            if not base.is_zero(top):
                for j in range(d):
                    c[i - d + j] = base.sub(c[i - d + j], base.mul(top, m[j]))
            c.pop()
        return tuple(c)

    def mul(self, a, b):
        base, d = self.base, self.deg
        conv = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if base.is_zero(x):
                continue
            for j, y in enumerate(b):
                conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        return self.reduce_poly(conv)

    def power(self, a, e: int):
        """a^e by squaring from the top bit of e down: (bits - 1) squarings
        and (set bits - 1) products, so a^1 takes none and a^2 one."""
        if e < 0:
            return self.power(self.inv(a), -e)
        if e == 0:
            return self.one
        out = a
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return self.power(a, self.size - 2)

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def from_int(self, c: int):
        out = list(self.zero)
        out[0] = self.base.from_int(c)
        return tuple(out)

    def embed_base(self, c):
        """Embed a base-field element as a constant."""
        out = list(self.zero)
        out[0] = c
        return tuple(out)

    def index(self, a) -> int:
        bi, bs = self.base.index, self.base.size
        out = 0
        for x in reversed(a):
            out = out * bs + bi(x)
        return out

    def from_index(self, i: int):
        bf, bs = self.base.from_index, self.base.size
        out = []
        for _ in range(self.deg):
            out.append(bf(i % bs))
            i //= bs
        return tuple(out)

    def elements(self):
        return [self.from_index(i) for i in range(self.size)]

    def trace_to_prime(self, a) -> int:
        """Absolute trace Tr_{F_q/F_p}(a) = sum a^(p^i), returned as an int mod p."""
        k = self.degree_over_prime
        s = a
        x = a
        for _ in range(k - 1):
            x = self.power(x, self.char)
            s = self.add(s, x)
        for c in range(self.char):
            if s == self.from_int(c):
                return c
        raise ArithmeticError("trace did not land in the prime field")

    def multiplicative_generator(self):
        return _find_generator(self)


class FieldTables:
    """Dense index-arithmetic tables for a small field (char-sum kernels).

    Elements are addressed by their enumeration index 0..size-1:
        add[i * size + j], mul[i * size + j], neg[i], inv[i] (inv[0] = -1).
    """

    def __init__(self, field):
        n = field.size
        elems = [field.from_index(i) for i in range(n)]
        idx = {e: i for i, e in enumerate(elems)}
        self.field = field
        self.size = n
        self.elems = elems
        self.index = idx
        self.add = [0] * (n * n)
        self.mul = [0] * (n * n)
        self.neg = [0] * n
        self.inv = [-1] * n
        for i, a in enumerate(elems):
            self.neg[i] = idx[field.neg(a)]
            if not field.is_zero(a):
                self.inv[i] = idx[field.inv(a)]
            for j, b in enumerate(elems):
                self.add[i * n + j] = idx[field.add(a, b)]
                self.mul[i * n + j] = idx[field.mul(a, b)]


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def GF(p: int) -> PrimeField:
    """Memoized prime field constructor."""
    return PrimeField(p)
