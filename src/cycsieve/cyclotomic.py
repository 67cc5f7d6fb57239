"""Exact arithmetic in Z[zeta_p, zeta_ell] for distinct primes p and ell.

Every character value and character sum in this package lives in the ring
Z[zeta_p, zeta_ell] (p = field characteristic, ell = character order, and
ell | q - 1 forces ell != p).  Values are integer coordinate tuples on the
basis

    { zeta_p^i * zeta_ell^j : 0 <= i <= p-2, 0 <= j <= ell-2 },

which is an integral basis of Z[zeta_{p*ell}] (product of the power bases of
the two cyclotomic fields, whose discriminants are coprime).  Consequently,
tuple equality is algebraic equality and every identity check is bit-exact.

Out-of-range exponents are folded in with the relations
sum_{i=0}^{p-1} zeta_p^i = 0 and sum_{j=0}^{ell-1} zeta_ell^j = 0; for
ell = 2 this makes zeta_2 = -1 automatic, so the ring degenerates to Z with
coordinates of length (p-1).

The class also converts exponent-pair counters into ring elements: a
character-sum kernel accumulates integer counts keyed by (i mod p, j mod ell)
— an order-independent, parallel-merge-safe representation — and calls
``from_exponent_counts`` exactly once at the end.

A ring tabulates its p * ell monomials, the products of its basis elements
and the complex embeddings of its basis once, when it is built;
``monomial``, ``from_exponent_counts``, ``conj``, ``mul`` and ``embed`` read
those tables.
"""

from __future__ import annotations

import cmath
import functools

from .ffield import is_prime_int

RING_CACHE_SIZE = 64  # (p, ell) rings kept by cyc_ring


def _power_coords(k: int, prime: int) -> list:
    """zeta^k (0 <= k < prime, zeta of order prime) on the basis 1, zeta,
    ..., zeta^(prime-2): a unit vector, or all -1 for the top power."""
    if k < prime - 1:
        return [int(t == k) for t in range(prime - 1)]
    return [-1] * (prime - 1)


class CycRing:
    """Z[zeta_p, zeta_ell] with dense integer-tuple values."""

    def __init__(self, p: int, ell: int):
        if not (is_prime_int(p) and is_prime_int(ell)):
            raise ValueError("p and ell must be prime")
        if p == ell:
            raise ValueError("p and ell must be distinct (ell | q-1 forces this)")
        self.p = p
        self.ell = ell
        self.dim_p = p - 1
        self.dim_l = ell - 1
        self.dim = self.dim_p * self.dim_l
        self.zero = (0,) * self.dim
        # _monomials[i * ell + j]: zeta_p^i * zeta_ell^j in the basis, for
        # 0 <= i < p, 0 <= j < ell
        self._monomials = [
            tuple(a * b for a in _power_coords(i, p)
                  for b in _power_coords(j, ell))
            for i in range(p) for j in range(ell)]
        # _embeddings[u]: the complex embedding of basis element u
        self._embeddings = [
            cmath.exp(2j * cmath.pi * (iu / p + ju / ell))
            for iu in range(self.dim_p) for ju in range(self.dim_l)]
        self.one = self.monomial(0, 0)
        # _mul_table[u][v]: basis_u * basis_v in the basis, a monomial
        self._mul_table = [
            [self.monomial(iu + iv, ju + jv)
             for iv in range(self.dim_p) for jv in range(self.dim_l)]
            for iu in range(self.dim_p) for ju in range(self.dim_l)]

    def __eq__(self, other):
        return isinstance(other, CycRing) and (other.p, other.ell) == (self.p, self.ell)

    def __hash__(self):
        return hash(("CycRing", self.p, self.ell))

    def __repr__(self):
        return f"Z[zeta_{self.p}, zeta_{self.ell}]"

    # -- construction -------------------------------------------------------

    def monomial(self, i: int, j: int) -> tuple:
        """zeta_p^i * zeta_ell^j in basis coordinates (any integer exponents)."""
        return self._monomials[i % self.p * self.ell + j % self.ell]

    def from_int(self, n: int) -> tuple:
        return tuple(n * c for c in self.one)

    def from_exponent_counts(self, counts) -> tuple:
        """sum over (i, j) of counts[(i, j)] * zeta_p^i * zeta_ell^j.

        ``counts`` is any mapping from exponent pairs to integers; exponents
        may be arbitrary ints (folded mod p, mod ell).
        """
        p, ell, monomials = self.p, self.ell, self._monomials
        out = [0] * self.dim
        for (i, j), c in counts.items():
            if not c:
                continue
            for t, m in enumerate(monomials[i % p * ell + j % ell]):
                if m:
                    out[t] += c * m
        return tuple(out)

    # -- ring operations ----------------------------------------------------

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, n: int, a):
        return tuple(n * x for x in a)

    def mul(self, a, b):
        table = self._mul_table
        out = [0] * self.dim
        for u, x in enumerate(a):
            if not x:
                continue
            row = table[u]
            for v, y in enumerate(b):
                if not y:
                    continue
                prod = row[v]
                for t, m in enumerate(prod):
                    if m:
                        out[t] += x * y * m
        return tuple(out)

    def conj(self, a):
        """Complex conjugation: zeta -> zeta^(-1) on both generators."""
        out = [0] * self.dim
        for u, x in enumerate(a):
            if not x:
                continue
            iu, ju = divmod(u, self.dim_l)
            for t, m in enumerate(self.monomial(-iu, -ju)):
                if m:
                    out[t] += x * m
        return tuple(out)

    def div_int(self, a, n: int):
        """Exact division by a nonzero integer; raises if any coordinate
        fails divisibility (the identity checks rely on this)."""
        if n == 0:
            raise ZeroDivisionError("division by zero")
        out = []
        for x in a:
            if x % n:
                raise ArithmeticError(f"non-exact division of {a} by {n}")
            out.append(x // n)
        return tuple(out)

    # -- recognition and embedding ------------------------------------------

    def as_int(self, a):
        """The rational integer n with a == n, or None."""
        n = a[0]
        if a == self.from_int(n):
            return n
        return None

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def embed(self, a) -> complex:
        """Complex embedding zeta_p -> exp(2 pi i / p), zeta_ell -> exp(2 pi i / ell)."""
        out = 0j
        for x, z in zip(a, self._embeddings):
            if x:
                out += x * z
        return out

    def abs_embed(self, a) -> float:
        return abs(self.embed(a))

    # -- serialization -------------------------------------------------------

    def serialize(self, a) -> dict:
        return {"p": self.p, "ell": self.ell, "coords": list(a)}


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def cyc_ring(p: int, ell: int) -> CycRing:
    return CycRing(p, ell)
