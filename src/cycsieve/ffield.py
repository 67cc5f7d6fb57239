"""Exact finite fields F_q (q = p^e, p any prime) and their extension towers.

Every element of every field is an int, its index in range(size).  In
``PrimeField(p)`` the index is the residue itself.  In
``ExtensionField(base, modulus)``, with t the adjoined root and d =
deg(modulus), the element c_0 + c_1 t + ... + c_(d-1) t^(d-1) (c_j base
elements) has index c_0 + c_1 B + ... + c_(d-1) B^(d-1), B = base.size: its
coordinates are the base-B digits of its index, so a base element is its own
index as a constant.  Residue fields k_pi = F_q[T]/(pi) are built uniformly
as ``ExtensionField(F_q, pi)``, even for deg(pi) = 1.

An extension field computes on log and antilog tables of O(size) entries
(Zech logarithms; Lidl and Niederreiter, *Finite Fields*, ch. 2 and 9), built
once in ``__init__`` from the smallest generator g of the unit group:
products, inverses and powers add logarithms, and a + b = a (1 + b/a) reads
log(1 + g^n) from the Zech table.  Polynomial arithmetic over the base runs
only while the tables are built.

Both classes share one small API:

    zero, one, char, size, degree_over_prime
    add(a, b)  sub(a, b)  neg(a)  mul(a, b)  inv(a)  power(a, e)
    is_zero(a)  from_int(c)  elements()
    trace_to_prime(a)  multiplicative_generator()

Fields compare by value so they can key caches.  Ascending index is the
single deterministic ordering used everywhere (generator choice, character
tables, fixtures).
"""

from __future__ import annotations

import functools

FIELD_CACHE_SIZE = 64  # fields whose constructor is memoized
FIELD_SIZE_CAP = 1 << 20  # elements of the largest extension field built


def check_field_size(size: int) -> int:
    """size, unless a field of size elements is above the cap."""
    if size > FIELD_SIZE_CAP:
        raise ValueError(f"a field of {size} elements is above the cap "
                         f"of {FIELD_SIZE_CAP}")
    return size


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


def _smallest_generator(size: int, power):
    """The smallest index g generating the unit group of a field of the
    given size, or None: g generates the cyclic group of order N = size - 1
    iff power(g, N/r) != 1 for every prime r | N."""
    n = size - 1
    rs = prime_factors(n)
    return next((g for g in range(1, size)
                 if all(power(g, n // r) != 1 for r in rs)), None)


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

    def elements(self):
        return range(self.p)

    def trace_to_prime(self, a) -> int:
        return a

    def multiplicative_generator(self):
        return _smallest_generator(self.p, lambda g, e: pow(g, e, self.p))


class ExtensionField:
    """base[t]/(modulus) on element indices, by log and antilog tables.

    ``modulus`` is a monic irreducible polynomial over ``base`` given as a
    coefficient tuple of length d+1 (little-endian, leading coefficient =
    base.one); a modulus that is not irreducible is refused while the tables
    are built.
    """

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        d = len(modulus) - 1
        if d < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        size = check_field_size(base.size**d)
        self.base = base
        self.modulus = modulus
        self.deg = d
        self.char = base.char
        self.size = size
        self.degree_over_prime = base.degree_over_prime * d
        self.zero = 0
        self.one = 1
        self._hash = hash(("ExtensionField", base, modulus))
        self._build_tables()

    def _build_tables(self):
        """The antilog table exp (g^i for i < 2N, N = size - 1, so a sum
        of two logs needs no reduction), the log table (-1 at 0), the Zech
        table zech[n] = log(1 + g^n) (-1 where 1 + g^n = 0), the log of -1
        and the element t, from coefficient lists over the base."""
        base, m, d, size = self.base, self.modulus, self.deg, self.size
        B, n = base.size, size - 1

        def coeffs(i):
            return [i // B**j % B for j in range(d)]

        def index(c):
            return sum(x * B**j for j, x in enumerate(c))

        def mulmod(a, b):
            prod = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            prod[i + j] = base.add(prod[i + j],
                                                   base.mul(x, y))
            for i in range(2 * d - 2, d - 1, -1):
                top = prod.pop()
                if top:
                    for j in range(d):
                        prod[i - d + j] = base.sub(prod[i - d + j],
                                                   base.mul(top, m[j]))
            return prod

        def power(g, e):
            out, acc = coeffs(1), coeffs(g)
            while e:
                if e & 1:
                    out = mulmod(out, acc)
                acc = mulmod(acc, acc)
                e >>= 1
            return index(out)

        g = _smallest_generator(size, power)
        log = [-1] * size
        exp = [0] * n
        x, step = coeffs(1), coeffs(g) if g is not None else None
        for i in range(n):
            j = index(x)
            if step is None or not j or log[j] >= 0:
                raise ValueError("modulus must be irreducible")
            exp[i], log[j] = j, i
            x = mulmod(x, step)
        self._generator, self._order = g, n
        self._exp = exp + exp
        self._log = log
        self._zech = [log[j - j % B + base.add(j % B, 1)] for j in exp]
        self._neg_one = log[base.neg(1)]
        self._t = B if d > 1 else base.neg(m[0])

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.char}^{self.degree_over_prime})"

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]  # a negative index reads it mod N
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        if not b:
            return a
        return self.add(a, self._exp[self._log[b] + self._neg_one])

    def neg(self, a):
        if not a:
            return 0
        return self._exp[self._log[a] + self._neg_one]

    def reduce_poly(self, coeffs):
        """The element of an arbitrary-length coefficient list over base
        (little-endian) mod modulus, by Horner's rule in t."""
        t, out = self._t, 0
        for c in reversed(coeffs):
            out = self.add(self.mul(out, t), c)
        return out

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def power(self, a, e: int):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._order]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._order - self._log[a]]

    def is_zero(self, a):
        return a == 0

    def from_int(self, c: int):
        return self.base.from_int(c)

    def elements(self):
        return range(self.size)

    def trace_to_prime(self, a) -> int:
        """Absolute trace Tr_{F_q/F_p}(a) = sum a^(p^i), returned as an int mod p."""
        s = x = a
        for _ in range(self.degree_over_prime - 1):
            x = self.power(x, self.char)
            s = self.add(s, x)
        if s >= self.char:
            raise ArithmeticError("trace did not land in the prime field")
        return s

    def multiplicative_generator(self):
        return self._generator


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def GF(p: int) -> PrimeField:
    """Memoized prime field constructor."""
    return PrimeField(p)
