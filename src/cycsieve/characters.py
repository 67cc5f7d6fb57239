"""Power-residue characters, the additive character at infinity, Gauss sums.

For a monic irreducible pi over F_q and a prime ell | q - 1:

* the ell-th power residue symbol (a/pi)_ell is 0 if pi | a, else the
  unique alpha in mu_ell(F_q) with a^((q^deg pi - 1)/ell) = alpha (mod pi);
  alpha = 1 iff X^ell = a (mod pi) is solvable.
* theta is the fixed isomorphism mu_ell(F_q) -> mu_ell(C) determined by the
  smallest primitive root g of F_q^* (smallest in the field's enumeration
  order): theta(g^((q-1)/ell)) = zeta_ell.
* chi_{pi,i}(a) = theta((a/pi)_ell)^i for i = 0..ell-1, extended by
  chi_{pi,0}(a) = 1 for all a and chi_{pi,i}(a) = 0 for pi | a, i != 0.
* psi_infty(x) = zeta_p^(Tr_{F_q/F_p}(a_{-1})) where a_{-1} is the T^(-1)
  coefficient of the Laurent expansion of x at infinity; for x = f/u this is
  lc(u)^(-1) times the T^(deg u - 1) coefficient of (f mod u).  psi_infty of
  a polynomial is 1 and psi_infty is additive.
* tau(chi) = sum over alpha in k_pi of chi(alpha) psi_infty(alpha/pi); it
  satisfies tau * conj(tau) = q^(deg pi) exactly ("Gauss sum RH").

A residue mod pi is its element index in k_pi, which is the value index of
its lift of degree < deg pi (``pr.poly_to_index``), so the tables below are
lists over range(q^deg pi) read without any conversion.

The per-prime ``ResidueData`` tables (character exponents, psi exponents,
discrete logs) are what the bulk character-sum kernels consume: every value
is a pair of exponents (psi exponent mod p, character exponent mod ell) or
"zero", so sums accumulate as integer counters and canonicalize once.
"""

from __future__ import annotations

import functools
from collections import Counter

from . import polyring as pr
from .cyclotomic import CycRing, cyc_ring
from .ffield import is_prime_int


RESIDUE_CACHE_SIZE = 256  # (k, pi, ell) residue tables kept


def check_cover(k, ell: int, m: int | None = None):
    """The conditions on a cover y^ell = F of degree m over F_q: ell prime,
    ell | q - 1, ell | m and char(F_q) not dividing m.  Without m only the
    two conditions on ell are checked."""
    if not is_prime_int(ell):
        raise ValueError("ell must be prime")
    if (k.size - 1) % ell:
        raise ValueError(f"ell = {ell} does not divide q - 1 = {k.size - 1}")
    if m is None:
        return
    if m % ell:
        raise ValueError(f"ell = {ell} does not divide the degree m = {m}")
    if m % k.char == 0:
        raise ValueError(f"characteristic {k.char} divides the degree m = {m}")


class ResidueData:
    """Precomputed residue-field tables for one (pi, ell).

    Attributes:
        kpi         residue field k_pi (ExtensionField over k; residues
                    are its element indices)
        chi_exp     per residue index: theta-exponent t(r) in Z/ell of the
                    residue symbol (so chi_{pi,i}(r) = zeta_ell^(i*t(r))),
                    or None at r = 0
        psi_exp     per residue index: Tr_{F_q/F_p} of the T^(deg pi - 1)
                    coefficient of the canonical lift (psi_infty(r/pi) =
                    zeta_p^psi_exp[r])
        root_count  per residue index: #{y in k_pi : y^ell = r}
    """

    def __init__(self, k, pi, ell: int):
        check_cover(k, ell)
        self.k = k
        self.pi = pi
        self.ell = ell
        self.deg = pr.degree(pi)
        self.ring: CycRing = cyc_ring(k.char, ell)
        kpi = pr.residue_field(k, pi)
        self.kpi = kpi
        q = k.size
        Q = kpi.size

        # theta over F_q: dlog table w.r.t. the smallest generator
        g = k.multiplicative_generator()
        dlog = [None] * q
        x = k.one
        for t in range(q - 1):
            dlog[x] = t
            x = k.mul(x, g)
        self._dlog_q = dlog
        self._theta_step = (q - 1) // ell

        # psi exponents: the trace of the T^(deg pi - 1) coefficient of the
        # lift, the top base-q digit of the residue index
        top = q ** (self.deg - 1)
        traces = [k.trace_to_prime(c) for c in range(q)]
        self.psi_exp = [traces[idx // top] for idx in range(Q)]

        # residue symbol exponents per residue index
        e = (Q - 1) // ell
        self.chi_exp = [None] + [
            self._theta_exponent_of_constant(kpi.power(r, e))
            for r in range(1, Q)]

        # ell-th power fiber sizes
        root_count = [0] * Q
        for y in range(Q):
            root_count[kpi.power(y, ell)] += 1
        self.root_count = root_count

    def _theta_exponent_of_constant(self, s):
        """theta-exponent of s in mu_ell(F_q), where s is a k_pi element that
        must be a constant, an index below q (this is a theorem; asserted,
        not assumed)."""
        if s >= self.k.size:
            raise ArithmeticError(
                "residue symbol did not land in the constant field"
            )
        t = self._dlog_q[s]
        if t % self._theta_step:
            raise ArithmeticError("residue symbol is not an ell-th root of unity")
        return (t // self._theta_step) % self.ell


@functools.lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def residue_data(k, pi, ell: int) -> ResidueData:
    return ResidueData(k, pi, ell)


def chi_exponents(data: ResidueData, index: int) -> list:
    """chi_{pi,index} over the residue indices: its theta-exponent at each
    residue, None where it vanishes (at 0, for index != 0)."""
    if not 0 <= index < data.ell:
        raise ValueError("character index out of range")
    if index == 0:
        return [0] * data.kpi.size
    return [None if t is None else index * t % data.ell
            for t in data.chi_exp]


def psi_exponent(k, num, u) -> int:
    """The exponent c with psi_infty(num/u) = zeta_p^c: c = Tr_{F_q/F_p} of
    lc(u)^(-1) times the T^(deg u - 1) coefficient of (num mod u).

    Works for any nonzero modulus u (not necessarily prime or monic), which
    the composite-modulus identities need.
    """
    if not u:
        raise ZeroDivisionError("zero modulus")
    r = pr.poly_mod(k, num, u)
    d = pr.degree(u)
    c = r[d - 1] if len(r) >= d else k.zero
    lc = u[-1]
    if lc != k.one:
        c = k.mul(k.inv(lc), c)
    return k.trace_to_prime(c)


def gauss_sum(data: ResidueData, index: int) -> tuple:
    """tau(chi_{pi,index}) = sum over alpha in k_pi of chi(alpha)
    psi_infty(alpha/pi)."""
    if index == 0:
        raise ValueError("Gauss sum is defined for non-principal characters")
    # a non-principal character vanishes at residue 0 only
    return data.ring.from_exponent_counts(Counter(
        zip(data.psi_exp[1:], chi_exponents(data, index)[1:])))


def character_sum(data: ResidueData, idx: int) -> tuple:
    """The sum of chi_{pi,i}, i = 0, ..., ell - 1, at the residue of index
    idx, in the ring of the characters."""
    t = data.chi_exp[idx]
    if t is None:  # only chi_0 is nonzero at 0
        return data.ring.one
    return data.ring.from_exponent_counts(Counter(
        (0, i * t) for i in range(data.ell)))


def root_count_routes(data: ResidueData, check: bool = False) -> tuple:
    """(root_count, the character route) at every residue index of one
    prime: the table, filled by raising every y in k_pi to the ell-th
    power, against the sum over the characters chi mod pi of order
    dividing ell of chi at each residue.  With check, raise on the first
    residue where they differ."""
    by_chars = [data.ring.as_int(character_sum(data, idx))
                for idx in range(data.kpi.size)]
    if None in by_chars:
        raise ArithmeticError("character sum failed to be a rational integer")
    if check:
        for idx, (a, b) in enumerate(zip(data.root_count, by_chars)):
            if a != b:
                raise ArithmeticError(
                    f"fiber routes disagree mod "
                    f"{pr.format_poly(data.k, data.pi)} at residue {idx}: "
                    f"table {a}, characters {b}")
    return list(data.root_count), by_chars
