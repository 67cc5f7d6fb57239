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

The per-prime ``ResidueData`` tables (character exponents, psi exponents,
discrete logs) are what the bulk character-sum kernels consume: every value
is a pair of exponents (psi exponent mod p, character exponent mod ell) or
"zero", so sums accumulate as integer counters and canonicalize once.
"""

from __future__ import annotations

import functools

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
        kpi         residue field k_pi (ExtensionField over k)
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
        if not pr.is_irreducible(k, pi) or pi[-1] != k.one:
            raise ValueError("modulus must be a monic irreducible")
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
        dlog = {}
        x = k.one
        for t in range(q - 1):
            dlog[x] = t
            x = k.mul(x, g)
        self._dlog_q = dlog
        self._theta_step = (q - 1) // ell

        # residue symbol exponents and psi exponents per residue index
        e = (Q - 1) // ell
        chi_exp: list = [None] * Q
        psi_exp = [0] * Q
        for idx in range(Q):
            r = kpi.from_index(idx)
            psi_exp[idx] = k.trace_to_prime(r[self.deg - 1])
            if kpi.is_zero(r):
                continue
            s = kpi.power(r, e)
            chi_exp[idx] = self._theta_exponent_of_constant(s)
        self.chi_exp = chi_exp
        self.psi_exp = psi_exp

        # ell-th power fiber sizes
        root_count = [0] * Q
        for idx in range(Q):
            y = kpi.from_index(idx)
            root_count[kpi.index(kpi.power(y, ell))] += 1
        self.root_count = root_count

    def _theta_exponent_of_constant(self, s):
        """theta-exponent of s in mu_ell(F_q), where s is a k_pi element that
        must be a constant (this is a theorem; asserted, not assumed)."""
        k = self.k
        if any(not k.is_zero(c) for c in s[1:]):
            raise ArithmeticError(
                "residue symbol did not land in the constant field"
            )
        s0 = s[0]
        t = self._dlog_q[s0]
        if t % self._theta_step:
            raise ArithmeticError("residue symbol is not an ell-th root of unity")
        return (t // self._theta_step) % self.ell


@functools.lru_cache(maxsize=RESIDUE_CACHE_SIZE)
def residue_data(k, pi, ell: int) -> ResidueData:
    return ResidueData(k, pi, ell)


class MultChar:
    """chi_{pi,i}: the order-(ell/gcd) multiplicative character mod pi."""

    def __init__(self, data: ResidueData, index: int):
        if not 0 <= index < data.ell:
            raise ValueError("character index out of range")
        self.data = data
        self.index = index
        self.ring = data.ring

    @property
    def principal(self) -> bool:
        return self.index == 0

    def exponent_at(self, residue_index: int):
        """theta-exponent of chi at a residue (None means chi = 0 there)."""
        if self.index == 0:
            return 0
        t = self.data.chi_exp[residue_index]
        if t is None:
            return None
        return (self.index * t) % self.data.ell

    def __repr__(self):
        return (
            f"chi(pi={pr.format_poly(self.data.k, self.data.pi)},"
            f" ell={self.data.ell}, i={self.index})"
        )


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


def gauss_sum(chi: MultChar) -> tuple:
    """tau(chi) = sum over alpha in k_pi of chi(alpha) psi_infty(alpha/pi)."""
    if chi.principal:
        raise ValueError("Gauss sum is defined for non-principal characters")
    data = chi.data
    counts: dict = {}
    for idx in range(data.kpi.size):
        e = chi.exponent_at(idx)
        if e is None:
            continue
        key = (data.psi_exp[idx], e)
        counts[key] = counts.get(key, 0) + 1
    return chi.ring.from_exponent_counts(counts)


def residue_root_count(data: ResidueData, idx: int) -> int:
    """The character route to root_count[idx]: sum over the characters chi
    mod pi of order dividing ell of chi at the residue of index idx."""
    ring = data.ring
    total = ring.zero
    for i in range(data.ell):
        e = MultChar(data, i).exponent_at(idx)
        if e is not None:
            total = ring.add(total, ring.monomial(0, e))
    n = ring.as_int(total)
    if n is None:
        raise ArithmeticError("character sum failed to be a rational integer")
    return n


def root_count_routes(data: ResidueData, check: bool = False) -> tuple:
    """(root_count, the character route) at every residue index of one
    prime: the table, filled by raising every y in k_pi to the ell-th
    power, against residue_root_count.  With check, raise on the first
    residue where they differ."""
    by_chars = [residue_root_count(data, idx) for idx in range(data.kpi.size)]
    if check:
        for idx, (a, b) in enumerate(zip(data.root_count, by_chars)):
            if a != b:
                raise ArithmeticError(
                    f"fiber routes disagree mod "
                    f"{pr.format_poly(data.k, data.pi)} at residue {idx}: "
                    f"table {a}, characters {b}")
    return list(data.root_count), by_chars
