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
  expansion with modulus u (u may be composite and non-monic).
- completion: sum over a box of chi_pi(G(x)) chi_pi'(G(x)) equals the dual
  short sum of products S_G(pibar' x, chi_pi) S_G(pibar x, chi_pi') scaled by
  an exact q-power, where pibar, pibar' are the CRT inverses.
- unramified-expansion: the two-prime sieve term with fiber counts
  (|fiber| - 1)(|fiber| - 1) restricted to F(x) not divisible by pi1*pi2
  equals the complete-sum expansion over non-principal character pairs;
  additionally the discarded F(x) == 0 portion is verified to vanish and the
  pointwise fiber identity |fiber| - 1 = sum of non-principal chi(F(x)) is
  checked at every value F takes on the box.
"""

import itertools
from collections import Counter

from . import geometry as geo
from . import polyring as pr
from .characters import (
    MultChar,
    gauss_sum,
    psi_exponent,
    residue_data,
    root_count_routes,
)
from .charsums import CharSumContext, all_sums_cost
from .cyclotomic import cyc_ring
from .polyring import box
from .sieve import box_histogram, residue_indices, value_digits


def dot(k, xs, ys):
    total = ()
    for x, y in zip(xs, ys):
        total = pr.add(k, total, pr.mul(k, x, y))
    return total


def _require_distinct_primes(k, pi1, pi2):
    if pr.degree(pi1) < 1 or pr.degree(pi2) < 1:
        raise ValueError("moduli must be non-constant primes")
    if pr.monic(k, pi1)[1] == pr.monic(k, pi2)[1]:
        raise ValueError("the two primes must be distinct")


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


def verify_gauss_magnitude(k, pi, ell: int) -> dict:
    """tau(chi) * conj(tau(chi)) == q^deg(pi), exactly, for every
    non-principal character modulo pi of order dividing ell."""
    data = residue_data(k, pi, ell)
    ring = data.ring
    Q = k.size ** pr.degree(pi)
    expect = ring.from_int(Q)
    lhs = []
    for index in range(1, ell):
        tau = gauss_sum(MultChar(data, index))
        lhs.append(ring.mul(tau, ring.conj(tau)))
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

    The modulus u may be composite and non-monic; needs 0 < b < deg u."""
    d = pr.degree(u)
    if not 0 < b < d:
        raise ValueError("need 0 < b < deg u")
    arity = len(a)

    lhs = 0
    for xs in box(k, b, arity):
        if all(not pr.poly_mod(k, pr.sub(k, x, ai), u) for x, ai in zip(xs, a)):
            lhs += 1

    # zeta_2 = -1, so the ambient ring is plain Z[zeta_p]
    ring = cyc_ring(k.char, 2)
    counts: dict = {}
    for xs in box(k, d - b, arity):
        e = psi_exponent(k, pr.neg(k, dot(k, xs, a)), u)
        key = (e, 0)
        counts[key] = counts.get(key, 0) + 1
    total = ring.from_exponent_counts(counts)
    quotient = ring.div_int(total, k.size ** (arity * (d - b)))
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
    complementary box and all_sums_cost mod each prime)."""
    return (q ** (b * (n + 1)),
            q ** ((sum(degrees) - b) * (n + 1))
            + sum(all_sums_cost(q, d, n, ell) for d in degrees))


def _complementary_sum(k, pi1, pi2, ell: int, form: geo.MultiForm,
                       width: int, chi_pairs):
    """The character side of the two-prime identities: the sum over the
    index pairs (i1, i2) in chi_pairs and over the box {deg x < width} of
    S_F(pibar2 x, chi_i1 mod pi1) * S_F(pibar1 x, chi_i2 mod pi2), where
    pi1 pibar1 == 1 (mod pi2) and pi2 pibar2 == 1 (mod pi1).

    The points are counted per pair of covectors (mod pi1, mod pi2), each
    read as its flat index in the order of g_values, one coordinate at a
    time.  Each prime's sums come from one all_sums, read at the indices
    that occur, and each pair is multiplied once per pair of characters."""
    ctxs = (CharSumContext(k, pi1, ell, form),
            CharSumContext(k, pi2, ell, form))
    twists = (pr.invert_mod(k, pi2, pi1), pr.invert_mod(k, pi1, pi2))
    column = Counter(  # the index of a twisted coordinate value mod each
        tuple(ctx.tables.index[ctx.kpi.reduce_poly(pr.mul(k, t, x))]
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
        sums.append({i: dict(zip(at, values)) for i, values in ctx.all_sums(
            sorted({chis[slot] for chis in chi_pairs}), at).items()})
    ring = ctxs[0].ring
    total = ring.zero
    for i1, i2 in chi_pairs:
        for (a1, a2), count in pairs.items():
            total = ring.add(total, ring.scale(
                count, ring.mul(sums[0][i1][a1], sums[1][i2][a2])))
    return total


def _value_residues(data1, data2, form: geo.MultiForm, b: int):
    """(residue index mod pi1, residue index mod pi2, count) for each
    distinct value of F on the box {deg x < b}."""
    hist = box_histogram(form.k, form, b)
    values, digits = list(hist), value_digits(form, b)
    return zip(residue_indices(data1, values, digits),
               residue_indices(data2, values, digits), hist.values())


def verify_completion(k, pi, pi2, ell: int, chi_index: int, chi2_index: int,
                      form: geo.MultiForm, b: int) -> dict:
    """Sum over {deg x < b} of chi_pi(G(x)) chi_pi'(G(x)) against
    q^((n+1)(b - deg(pi pi'))) * sum over the complementary box of
    S_G(pibar' x, chi_pi) S_G(pibar x, chi_pi'), all exact.  two_prime_cost
    prices it."""
    _require_distinct_primes(k, pi, pi2)
    if not (0 < chi_index < ell and 0 < chi2_index < ell):
        raise ValueError("both characters must be non-principal")
    D = pr.degree(pi) + pr.degree(pi2)
    if not 0 < b < D:
        raise ValueError("need 0 < b < deg(pi * pi2)")
    arity = form.n + 1

    data1 = residue_data(k, pi, ell)
    data2 = residue_data(k, pi2, ell)
    chi1 = MultChar(data1, chi_index)
    chi2 = MultChar(data2, chi2_index)
    ring = data1.ring

    counts: dict = {}
    for idx1, idx2, count in _value_residues(data1, data2, form, b):
        e1 = chi1.exponent_at(idx1)
        if e1 is None:
            continue
        e2 = chi2.exponent_at(idx2)
        if e2 is None:
            continue
        key = (0, (e1 + e2) % ell)
        counts[key] = counts.get(key, 0) + count
    lhs = ring.from_exponent_counts(counts)

    total = _complementary_sum(k, pi, pi2, ell, form, D - b,
                               [(chi_index, chi2_index)])
    rhs = ring.div_int(total, k.size ** (arity * (D - b)))

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


def verify_unramified_expansion(k, pi1, pi2, ell: int, form: geo.MultiForm,
                                b: int) -> dict:
    """The two-prime unramified sieve term, three ways.

    Route A (integers): sum over {deg x < b, F(x) not divisible by pi1*pi2}
    of (#fiber_1 - 1)(#fiber_2 - 1) with fibers counted by enumeration.

    Route B (characters): q^((n+1)(b - deg(pi1 pi2))) times the sum over
    non-principal pairs (chi_1, chi_2) and the complementary box of
    S_F(pibar_2 x, chi_1) S_F(pibar_1 x, chi_2), divided exactly.

    Extra checks: the discarded
    {F(x) == 0 mod pi1*pi2} portion of the character-product sum vanishes,
    and the pointwise identity #fiber - 1 = sum of non-principal chi(F(x))
    holds at every value F takes on the box.  two_prime_cost prices it.
    """
    _require_distinct_primes(k, pi1, pi2)
    D = pr.degree(pi1) + pr.degree(pi2)
    if not 0 < b < D:
        raise ValueError("need 0 < b < deg(pi1 * pi2)")
    arity = form.n + 1

    data1 = residue_data(k, pi1, ell)
    data2 = residue_data(k, pi2, ell)
    ring = data1.ring
    chis1 = [MultChar(data1, i) for i in range(1, ell)]
    chis2 = [MultChar(data2, i) for i in range(1, ell)]

    def nonprincipal_sum(data, chis, idx):
        total = ring.zero
        for chi in chis:
            e = chi.exponent_at(idx)
            if e is not None:
                total = ring.add(total, ring.monomial(0, e))
        return total

    lhs = 0
    zero_portion = ring.zero
    pointwise_ok = True
    for idx1, idx2, count in _value_residues(data1, data2, form, b):
        n1 = data1.root_count[idx1]
        n2 = data2.root_count[idx2]
        s1 = nonprincipal_sum(data1, chis1, idx1)
        s2 = nonprincipal_sum(data2, chis2, idx2)
        if ring.as_int(s1) != n1 - 1 or ring.as_int(s2) != n2 - 1:
            pointwise_ok = False
        if idx1 == 0 and idx2 == 0:  # pi1 pi2 | F(x), F(x) = 0 included
            zero_portion = ring.add(zero_portion,
                                    ring.scale(count, ring.mul(s1, s2)))
        else:
            lhs += count * (n1 - 1) * (n2 - 1)

    total = _complementary_sum(
        k, pi1, pi2, ell, form, D - b,
        itertools.product(range(1, ell), repeat=2))
    quotient = ring.div_int(total, k.size ** (arity * (D - b)))
    rhs = ring.as_int(quotient)
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
        "zero_portion_vanishes": ring.is_zero(zero_portion),
        "pointwise_fiber_identity": pointwise_ok,
    }
