"""Bit-exact verification of the character identities that convert incomplete
sieve sums over boxes {deg x < b} into complete character sums modulo primes.

Each verifier returns a report dict {"id", "params", "lhs", "rhs", "equal",
...extras}.  Both sides are computed by genuinely different routes (direct
enumeration versus character machinery), all accumulation is exact (integers
and cyclotomic-integer values), and q-power prefactors with negative exponent
are applied as exact divisions whose divisibility is asserted — a division
failure raises instead of rounding, because it signals an arithmetic or
convention bug, not a numerical issue.

The verified identities:

- root-count: #{y mod pi : y^ell = a} equals the sum of chi(a) over all
  characters of order dividing ell, for every residue a.
- gauss-magnitude: tau(chi) * conj(tau(chi)) == q^deg(pi) exactly for every
  non-principal chi (the Riemann hypothesis for Gauss sums).
- count-mod: the box-and-congruence count equals its additive-character
  expansion with modulus u (u may be composite and non-monic).  Both sides
  are products over the coordinates: the congruence is one per coordinate
  and psi_infty is additive, so each side counts one coordinate at a time.
- completion: sum over a box of chi_pi(G(x)) chi_pi'(G(x)) equals the dual
  short sum of products S_G(pibar' x, chi_pi) S_G(pibar x, chi_pi') scaled by
  an exact q-power, where pibar, pibar' are the CRT inverses.
- unramified-expansion: the two-prime sieve term with fiber counts
  (|fiber| - 1)(|fiber| - 1) restricted to F(x) not divisible by pi1*pi2
  equals the complete-sum expansion over non-principal character pairs;
  additionally the discarded F(x) == 0 portion is verified to vanish and the
  pointwise fiber identity |fiber| - 1 = sum of non-principal chi(F(x)) is
  checked at every residue index that a value of F on the box takes.

The two-prime identities share one preamble (_two_prime_sides): the box
counted per pair of residue indices, and the character side on the
complementary box, divided exactly.  The pointwise check reads the
character route of characters.root_count_routes.
"""

import itertools
import math
from collections import Counter

from . import geometry as geo
from . import polyring as pr
from .characters import (
    chi_exponents,
    gauss_sum,
    psi_exponent,
    residue_data,
    root_count_routes,
)
from .charsums import CharSumContext, base_digits, sums_cost
from .cyclotomic import cyc_ring
from .ffield import prime_factors
from .polyring import box
from .sieve import box_histogram, residue_indices, value_digits


# ---------------------------------------------------------------------------
# root counts and Gauss magnitudes


def verify_root_count(k, pi, ell: int) -> dict:
    """For every residue a mod pi: #{y : y^ell = a} (the table, filled by
    enumeration) versus the sum of chi(a) over all characters of order
    dividing ell; the lists run over the residue indices."""
    lhs, rhs = root_count_routes(residue_data(k, pi, ell))
    return {
        "id": "root-count",
        "params": {"q": k.size, "pi": pr.format_poly(k, pi), "ell": ell},
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


def gauss_cost(q: int, delta: int, ell: int) -> int:
    """The work of verify_gauss_magnitude mod a prime of degree delta: the
    residue tables over the q^delta residues, then one pass over them for
    each of the ell - 1 Gauss sums."""
    return ell * q ** delta


def verify_gauss_magnitude(k, pi, ell: int) -> dict:
    """tau(chi) * conj(tau(chi)) == q^deg(pi), exactly, for every
    non-principal character modulo pi of order dividing ell; gauss_cost
    prices it."""
    data = residue_data(k, pi, ell)
    ring = data.ring
    Q = k.size ** pr.degree(pi)
    expect = ring.from_int(Q)
    taus = [gauss_sum(data, index) for index in range(1, ell)]
    lhs = [ring.mul(tau, ring.conj(tau)) for tau in taus]
    return {
        "id": "gauss-magnitude",
        "params": {"q": k.size, "pi": pr.format_poly(k, pi), "ell": ell},
        "lhs": [ring.as_int(v) for v in lhs],
        "rhs": [Q] * (ell - 1),
        "equal": all(v == expect for v in lhs),
    }


# ---------------------------------------------------------------------------
# congruence detection in a box


def verify_count_mod(k, u, a, b: int) -> dict:
    """#{x in O_K^(n+1) : deg x < b, x == a mod u} counted directly, against
    q^((n+1)(b - deg u)) * sum over {deg x < deg u - b} of psi(-x.a/u).

    Each side is a product of one-coordinate factors: the count of the x
    of degree < b with x == a_i mod u, and in Z[zeta_p] the sum of
    psi(-y a_i/u) over the y of degree < deg u - b.  The modulus u may be
    composite and non-monic; needs 0 < b < deg u."""
    d = pr.degree(u)
    if not 0 < b < d:
        raise ValueError("need 0 < b < deg u")

    lhs = math.prod(
        sum(not pr.poly_mod(k, pr.sub(k, x, ai), u) for (x,) in box(k, b, 1))
        for ai in a)

    # the sums lie in Z[zeta_p], inside Z[zeta_p, zeta_ell] for any prime
    # ell != p; ell = 2 (zeta_2 = -1) makes it plain Z[zeta_p]
    ring = cyc_ring(k.char, 3 if k.char == 2 else 2)
    total = ring.one
    for ai in a:
        total = ring.mul(total, ring.from_exponent_counts(Counter(
            (psi_exponent(k, pr.neg(k, pr.mul(k, y, ai)), u), 0)
            for (y,) in box(k, d - b, 1))))
    quotient = ring.div_int(total, k.size ** (len(a) * (d - b)))
    rhs = ring.as_int(quotient)
    if rhs is None:
        raise ArithmeticError("additive-character side is not a rational integer")
    return {
        "id": "count-mod",
        "params": {
            "q": k.size,
            "u": pr.format_poly(k, u),
            "a": [pr.format_poly(k, ai) for ai in a],
            "b": b,
        },
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# completion of a two-prime incomplete sum


def two_prime_cost(q: int, degrees, n: int, ell: int, b: int) -> tuple:
    """The charges of a two-prime identity on the box {deg x < b} mod primes
    of the given degrees: the box, then the character side (the
    complementary box, and sums_cost mod each prime on a span no larger
    over F_p than that box or the residue field)."""
    width, p = sum(degrees) - b, prime_factors(q)[0]
    return (q ** (b * (n + 1)),
            q ** (width * (n + 1)) + sum(sums_cost(
                q, d, n, ell, base_digits(p, q ** (min(width, d) * (n + 1))))
                for d in degrees))


def _complementary_sum(pi1, pi2, ell: int, form: geo.MultiForm, width: int,
                       chi_pairs):
    """The character side of the two-prime identities: the sum over the
    index pairs (i1, i2) in chi_pairs and over the box {deg x < width} of
    S_F(pibar2 x, chi_i1 mod pi1) * S_F(pibar1 x, chi_i2 mod pi2), where
    pi1 pibar1 == 1 (mod pi2) and pi2 pibar2 == 1 (mod pi1).

    The points are counted per pair of covectors (mod pi1, mod pi2), each
    read as its flat index in the order of g_values, one coordinate at a
    time.  Each prime's sums come from one transform on the span of the
    covectors that occur, and each pair is multiplied once per pair of
    characters."""
    k = form.k
    ctxs = (CharSumContext(pi1, ell, form), CharSumContext(pi2, ell, form))
    twists = (pr.invert_mod(k, pi2, pi1), pr.invert_mod(k, pi1, pi2))
    column = Counter(  # the index of a twisted coordinate value mod each
        tuple(ctx.kpi.reduce_poly(pr.mul(k, t, x))
              for ctx, t in zip(ctxs, twists))
        for (x,) in box(k, width, 1))
    Q1, Q2 = ctxs[0].Q, ctxs[1].Q
    pairs = Counter({(0, 0): 1})  # (flat index mod pi1, mod pi2) -> points
    for _ in range(form.n + 1):
        pairs, last = Counter(), pairs
        for (a1, a2), count in last.items():
            for (r1, r2), weight in column.items():
                pairs[a1 * Q1 + r1, a2 * Q2 + r2] += count * weight
    chi_pairs, sums = list(chi_pairs), []
    for slot, ctx in enumerate(ctxs):  # {character: {flat index: S}}
        at = sorted({pair[slot] for pair in pairs})
        sums.append({i: dict(zip(at, values)) for i, values in ctx.sums(
            sorted({chis[slot] for chis in chi_pairs}), at).items()})
    ring = ctxs[0].ring
    total = ring.zero
    for i1, i2 in chi_pairs:
        for (a1, a2), count in pairs.items():
            total = ring.add(total, ring.scale(
                count, ring.mul(sums[0][i1][a1], sums[1][i2][a2])))
    return total


def _two_prime_sides(pi1, pi2, ell: int, form: geo.MultiForm, b: int,
                     chi_pairs) -> tuple:
    """(data1, data2, pairs, character side) of a two-prime identity on
    the box {deg x < b}: the ResidueData mod each prime, the points of the
    box counted per pair (residue index of F(x) mod pi1, mod pi2), and
    _complementary_sum over chi_pairs divided exactly by
    q^((n+1)(deg(pi1 pi2) - b)).  Needs distinct non-constant primes and
    0 < b < deg(pi1 pi2)."""
    k = form.k
    if pr.degree(pi1) < 1 or pr.degree(pi2) < 1:
        raise ValueError("moduli must be non-constant primes")
    if pr.monic(k, pi1)[1] == pr.monic(k, pi2)[1]:
        raise ValueError("the two primes must be distinct")
    D = pr.degree(pi1) + pr.degree(pi2)
    if not 0 < b < D:
        raise ValueError("need 0 < b < deg(pi1 * pi2)")

    data1, data2 = residue_data(k, pi1, ell), residue_data(k, pi2, ell)
    hist = box_histogram(form, b)
    values, digits = list(hist), value_digits(form, b)
    pairs: Counter = Counter()
    for idx1, idx2, count in zip(residue_indices(data1, values, digits),
                                 residue_indices(data2, values, digits),
                                 hist.values()):
        pairs[idx1, idx2] += count

    total = _complementary_sum(pi1, pi2, ell, form, D - b, chi_pairs)
    side = data1.ring.div_int(total, k.size ** ((form.n + 1) * (D - b)))
    return data1, data2, pairs, side


def verify_completion(pi, pi2, ell: int, chi_index: int, chi2_index: int,
                      form: geo.MultiForm, b: int) -> dict:
    """Sum over {deg x < b} of chi_pi(G(x)) chi_pi'(G(x)) against
    q^((n+1)(b - deg(pi pi'))) * sum over the complementary box of
    S_G(pibar' x, chi_pi) S_G(pibar x, chi_pi'), all exact.  two_prime_cost
    prices it."""
    k = form.k
    if not (0 < chi_index < ell and 0 < chi2_index < ell):
        raise ValueError("both characters must be non-principal")
    data1, data2, pairs, rhs = _two_prime_sides(
        pi, pi2, ell, form, b, [(chi_index, chi2_index)])
    chi1 = chi_exponents(data1, chi_index)
    chi2 = chi_exponents(data2, chi2_index)

    counts: Counter = Counter()
    for (idx1, idx2), count in pairs.items():
        if idx1 and idx2:  # non-principal characters vanish at 0 only
            counts[0, chi1[idx1] + chi2[idx2]] += count
    lhs = data1.ring.from_exponent_counts(counts)

    return {
        "id": "completion",
        "params": {
            "q": k.size,
            "ell": ell,
            "pi": pr.format_poly(k, pi),
            "pi2": pr.format_poly(k, pi2),
            "chi_index": chi_index,
            "chi2_index": chi2_index,
            "b": b,
        },
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# the full unramified sieve term


def verify_unramified_expansion(pi1, pi2, ell: int, form: geo.MultiForm,
                                b: int) -> dict:
    """The two-prime unramified sieve term, three ways.

    Route A (integers): sum over {deg x < b, F(x) not divisible by pi1*pi2}
    of (#fiber_1 - 1)(#fiber_2 - 1) with fibers counted by enumeration.

    Route B (characters): q^((n+1)(b - deg(pi1 pi2))) times the sum over
    non-principal pairs (chi_1, chi_2) and the complementary box of
    S_F(pibar_2 x, chi_1) S_F(pibar_1 x, chi_2), divided exactly.

    Extra checks: route A's own weight (#fiber_1 - 1)(#fiber_2 - 1) on the
    {F(x) == 0 mod pi1*pi2} points it leaves out vanishes, and the pointwise identity #fiber - 1 = sum of non-principal chi(F(x))
    holds at every residue index that a value of F on the box takes, read
    from the character route of characters.root_count_routes, the sum over
    all characters, less the principal one.  two_prime_cost prices it.
    """
    k = form.k
    data1, data2, pairs, quotient = _two_prime_sides(
        pi1, pi2, ell, form, b, itertools.product(range(1, ell), repeat=2))
    n1, n2 = data1.root_count, data2.root_count
    lhs = sum(count * (n1[idx1] - 1) * (n2[idx2] - 1)
              for (idx1, idx2), count in pairs.items()
              if idx1 or idx2)  # pi1 pi2 | F(x), F(x) = 0 included, left out

    # per prime: the sum over all characters at each residue index, checked
    # against the fiber size at each index that occurs; the non-principal
    # sum is that minus 1, which is 0 at residue 0
    by_chars = [root_count_routes(data)[1] for data in (data1, data2)]
    pointwise_ok = all(
        by_chars[slot][idx] == data.root_count[idx]
        for slot, data in enumerate((data1, data2))
        for idx in {pair[slot] for pair in pairs})
    # route A's own weight for the {F(x) = 0 mod pi1 pi2} points it leaves out
    zero_portion = pairs[0, 0] * (n1[0] - 1) * (n2[0] - 1)
    rhs = data1.ring.as_int(quotient)
    if rhs is None:
        raise ArithmeticError("character side is not a rational integer")

    return {
        "id": "unramified-expansion",
        "params": {
            "q": k.size,
            "ell": ell,
            "pi1": pr.format_poly(k, pi1),
            "pi2": pr.format_poly(k, pi2),
            "b": b,
            "m": form.m,
            "n": form.n,
        },
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "zero_portion_vanishes": zero_portion == 0,
        "pointwise_fiber_identity": pointwise_ok,
    }
