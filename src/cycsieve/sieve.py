"""The geometric sieve at desk scale: the box A = {deg x < b}, fiber counts
of the cyclic cover y^ell = F(x) at sieving primes, ramified sets, the three
sieve terms, both sieve-inequality formulations with the c_{i,j}(alpha)
expansion, parameter selection Delta(n, b) and the minimal admissible b, and
the brute-force count M_n(F; b) of points with a global ell-th root.

All terms are exact: counts are integers, normalized terms are Fractions,
and every inequality is checked as a comparison of rationals.  Global
solvability of y^ell = F(x) is decided by two independent routes per
distinct value of F (membership in a precomputed set of ell-th powers,
versus the factorization criterion: every irreducible multiplicity divisible
by ell and the leading coefficient an ell-th power in F_q); a disagreement
raises instead of returning a number.

Every term depends on a box point x only through the value F(x), so the
pass over the box has two steps.  accumulate_chunk builds the histogram
Counter(F(x)) over a contiguous range of box positions (box_histogram over
the whole box), so a caller can split the box into one range per worker;
merge_accumulators adds the histograms, whose exact counts do not depend on
the split or the order of the parts; value_moments then does the per-prime
work once per distinct value, weighted by its count.  The sieve terms read
the resulting moments.

Each distinct value is reduced once per prime to its residue index, and that
index is all the per-prime work reads: index 0 is a ramified prime (pi | F(x)),
any other index gives the fiber size from the prime's root-count table.  The
tables are checked against the character route at every residue before the
first value (characters.root_count_routes); a disagreement raises.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import geometry as geo
from . import polyring as pr
from .characters import (check_cover, residue_data, residue_root_count,
                         root_count_routes)
from .charsums import Budget


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SieveParams:
    """Validated sieve input: the cover y^ell = F over F_q[T], the box bound
    b, the sieving degree delta, and the scan bound for bad primes."""

    k: object
    n: int
    ell: int
    form: geo.MultiForm
    b: int
    delta: int
    delta_max: int = 0

    def __post_init__(self):
        k, form = self.k, self.form
        if self.n < 2:
            raise ValueError("need n >= 2 (the degree constraints on b are "
                             "unsatisfiable for n = 1)")
        if form.n != self.n:
            raise ValueError("form arity does not match n")
        if not form.terms:
            raise ValueError("the zero form has no cover to sieve")
        check_cover(k, self.ell, form.m)
        if self.delta < 1:
            raise ValueError("delta must be positive")
        if not self.delta < self.b < 2 * self.delta:
            raise ValueError("need delta < b < 2*delta")
        if self.delta_max and self.delta_max < self.delta:
            raise ValueError("delta_max must cover the sieving degree")

    @property
    def q(self) -> int:
        return self.k.size

    @property
    def box_size(self) -> int:
        return self.q ** (self.b * (self.n + 1))


def choose_delta(n: int, b: int) -> int:
    """The sieving degree floor(n*b/(n+1)); n = 1 is rejected because
    delta < b < 2*delta can then never hold."""
    if n < 2:
        raise ValueError("need n >= 2")
    return n * b // (n + 1)


def min_b(n: int, q: int, p_exc_size: int, cap: int = 10000) -> int:
    """The least b whose delta = choose_delta(n, b) satisfies all the
    admissibility constraints: delta != 0; |P_exc| <= q^delta/(4*delta);
    4(b+1) <= q^(delta/2); and delta < b < 2*delta.  The root-free
    equivalents 4*delta*|P_exc| <= q^delta and (4(b+1))^2 <= q^delta are
    tested so everything stays in integers; choose_delta rejects n < 2."""
    for b in range(1, cap + 1):
        delta = choose_delta(n, b)
        if delta == 0:
            continue
        qd = q ** delta
        if 4 * delta * p_exc_size > qd:
            continue
        if (4 * (b + 1)) ** 2 > qd:
            continue
        if not delta < b < 2 * delta:
            continue
        return b
    raise ArithmeticError(f"no admissible b below {cap}")


def verify_card_p(q: int, delta: int, p_exc_size: int) -> dict:
    """|P| >= q^delta / (2*delta) with |P| the count of monic irreducibles
    of degree delta minus the excluded primes (exact rationals)."""
    total = pr.count_irreducibles_formula(q, delta)
    count = total - p_exc_size
    required = Fraction(q ** delta, 2 * delta)
    return {
        "delta": delta,
        "count": count,
        "required": required,
        "pass": Fraction(count) >= required,
    }


def verify_prime_count(q: int, delta: int) -> dict:
    """|#{monic irreducible pi : deg pi = delta} - q^delta/delta| <=
    q^(delta/2)/delta + q^(delta/3), checked after scaling by delta against
    integer floors of the roots (a stricter test than the statement, so a
    pass is conclusive)."""
    count = pr.count_irreducibles_formula(q, delta)
    lhs = abs(count * delta - q ** delta)
    half = _integer_root(q ** delta, 2)
    third = _integer_root(q ** delta, 3)
    rhs_floor = half + delta * third
    return {
        "delta": delta,
        "count": count,
        "pass": lhs <= rhs_floor,
    }


def _integer_root(x: int, r: int) -> int:
    lo, hi = 0, 1
    while hi ** r <= x:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid ** r <= x:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# sieving set


@dataclass(frozen=True)
class SievingSet:
    """Monic irreducibles of degree exactly delta, bad primes excluded."""

    primes: tuple
    delta: int
    excluded: tuple

    def __len__(self):
        return len(self.primes)


def exceptional_primes_of(form: geo.MultiForm, delta_max: int,
                          dual: str = "auto", search_bound: int = 4,
                          budget: Budget | None = None) -> list:
    """The bad primes of the form up to degree delta_max, as polynomials;
    the scan's searches are charged to budget before they start."""
    report = geo.compute_exceptional_primes(form, delta_max, dual=dual,
                                            search_bound=search_bound,
                                            budget=budget)
    return [pr.parse_poly(form.k, text) for text in report["exceptional"]]


def build_sieving_set(k, delta: int, exceptional=()) -> SievingSet:
    excluded = {pr.monic(k, f)[1] for f in exceptional}
    primes = tuple(f for f in pr.irreducibles(k, delta) if f not in excluded)
    return SievingSet(primes=primes, delta=delta,
                      excluded=tuple(sorted(excluded)))


# ---------------------------------------------------------------------------
# fibers and ramification


def fiber_count(k, pi, ell: int, form: geo.MultiForm, x) -> int:
    """#{y in k_pi : y^ell = F(x) mod pi}, via the residue root table and,
    independently, via the character-sum expression; the two must agree."""
    data = residue_data(k, pi, ell)
    idx = data.index_of_poly(geo.eval_form_at_polys(form, x))
    by_table = data.root_count[idx]
    by_chars = residue_root_count(data, idx)
    if by_table != by_chars:
        raise ArithmeticError(
            f"fiber routes disagree at {x}: table {by_table}, "
            f"characters {by_chars}")
    return by_table


def ramified_set(k, sset: SievingSet, form: geo.MultiForm, x) -> tuple:
    """The sieving primes dividing F(x) (all of them when F(x) = 0)."""
    g = geo.eval_form_at_polys(form, x)
    if not g:
        return tuple(sset.primes)
    return tuple(p for p in sset.primes if not pr.poly_mod(k, g, p))


# ---------------------------------------------------------------------------
# global solvability of y^ell = F(x) and the count M_n(F; b)


def _ell_th_power_set(k, ell: int, max_deg: int) -> set:
    """{y^ell : y in F_q[T], deg y <= max_deg} as a set of polynomials."""
    out = set()
    for i in range(k.size ** (max_deg + 1)):
        y = pr.poly_from_index(k, i, max_deg + 1)
        p = (k.one,)
        for _ in range(ell):
            p = pr.mul(k, p, y)
        out.add(p)
    return out


def _solvable_by_factoring(k, ell: int, g) -> bool:
    if not g:
        return True
    lc, factors = pr.factor(k, g)
    if any(e % ell for _, e in factors):
        return False
    return k.power(lc, (k.size - 1) // ell) == k.one


def _root_degree(ell: int, form: geo.MultiForm, b: int) -> int:
    """The largest degree of an ell-th root of a value F can reach on the
    box {deg x < b}."""
    return max(form.deg_T() + form.m * (b - 1), 0) // ell


def _globally_solvable(k, ell: int, g, powers: set) -> bool:
    by_set = g in powers if g else True
    by_factor = _solvable_by_factoring(k, ell, g)
    if by_set != by_factor:
        raise ArithmeticError(
            f"solvability routes disagree at value {g}: "
            f"power-set {by_set}, factorization {by_factor}")
    return by_set


def _solvable_weight(k, ell: int, form: geo.MultiForm, b: int, hist) -> int:
    """The total count of the values in hist with a global ell-th root; each
    distinct value is decided once, by both solvability routes."""
    powers = _ell_th_power_set(k, ell, _root_degree(ell, form, b))
    return sum(count for g, count in hist.items()
               if _globally_solvable(k, ell, g, powers))


def charge_box_pass(budget: Budget | None, k, ell: int, form: geo.MultiForm,
                    b: int) -> None:
    """Charge a pass over the box {deg x < b} before it starts: first its
    q^(b(n+1)) points, then the q^(d+1) polynomials of degree <= d whose
    ell-th powers the solvability test enumerates."""
    if budget is not None:
        budget.charge(k.size ** (b * (form.n + 1)))
        budget.charge(k.size ** (_root_degree(ell, form, b) + 1))


def brute_force_count(k, ell: int, form: geo.MultiForm, b: int,
                      budget: Budget | None = None) -> int:
    """M_n(F; b): the number of x in the box {deg x < b} such that
    y^ell = F(x) has a solution y in F_q[T].  Each distinct value of F on
    the box is decided by the two independent solvability routes and
    weighted by the number of points taking it."""
    charge_box_pass(budget, k, ell, form, b)
    return _solvable_weight(k, ell, form, b, box_histogram(k, form, b))


# ---------------------------------------------------------------------------
# the box pass: value histograms of chunks, then the sieve work per value


def accumulate_chunk(k, form: geo.MultiForm, b: int, *, start: int,
                     stop: int, budget: Budget | None = None) -> Counter:
    """Counter(F(x)) over the box points at positions [start, stop) of the
    enumeration pr.box(k, b, n + 1).

    The positions are walked row by row, a row being the q^b points that
    share x_0 .. x_{n-1} (x_n varies fastest).  Once per row, F is written
    as a polynomial in x_n: its free part, and the key tuple of its
    coefficients of x_n^1 .. x_n^m, from per-coordinate power tables.  Full
    rows are grouped by key, and each group's Counter of free parts is
    convolved with the Counter of the key's values over x_n; the partial
    rows at the edges of the range go point by point.
    """
    n, m = form.n, form.m
    coords = [pr.poly_from_index(k, i, b) for i in range(k.size ** max(b, 0))]
    width = len(coords)
    if not 0 <= start <= stop <= width ** (n + 1):
        raise ValueError(f"positions [{start}, {stop}) are not in the box")
    if budget is not None:
        budget.charge(stop - start)
    powers = []  # powers[i][e] = coords[i]^e for e = 0 .. m
    for x in coords:
        xe = [(k.one,)]
        for _ in range(m):
            xe.append(pr.mul(k, xe[-1], x))
        powers.append(xe)
    terms = [(exps[:n], exps[n], coeff) for exps, coeff in form.terms.items()]

    def split_row(r):
        """(free part, key) of F on row r."""
        digits = []
        for _ in range(n):
            r, d = divmod(r, width)
            digits.append(d)
        digits.reverse()
        parts = [()] * (m + 1)
        for head, j, coeff in terms:
            t = coeff
            for d, e in zip(digits, head):
                if e:
                    t = pr.mul(k, t, powers[d][e])
            parts[j] = pr.add(k, parts[j], t)
        return parts[0], tuple(parts[1:])

    def values_over_row(key):
        """sum_j key[j-1] * x_n^j at every x_n, in box order."""
        out = []
        for xe in powers:
            v = ()
            for c, power in zip(key, xe[1:]):
                if c:
                    v = pr.add(k, v, pr.mul(k, c, power))
            out.append(v)
        return out

    hist = Counter()
    groups = {}  # key -> Counter of the free parts of the full rows
    for r in range(start // width, -(-stop // width)):
        lo = max(start - r * width, 0)
        hi = min(stop - r * width, width)
        free, key = split_row(r)
        if hi - lo == width:
            groups.setdefault(key, Counter())[free] += 1
            continue
        for v in values_over_row(key)[lo:hi]:
            hist[pr.add(k, free, v)] += 1
    for key, frees in groups.items():
        over_row = Counter(values_over_row(key))
        for free, c in frees.items():
            for v, d in over_row.items():
                hist[pr.add(k, free, v)] += c * d
    return hist


def box_histogram(k, form: geo.MultiForm, b: int,
                  budget: Budget | None = None) -> Counter:
    """Counter(F(x)) over the whole box {deg x < b}, as one chunk; its points
    are charged to budget first."""
    return accumulate_chunk(k, form, b, start=0,
                            stop=k.size ** (b * (form.n + 1)), budget=budget)


def merge_accumulators(parts) -> Counter:
    """The sum of chunk histograms; counts are exact, so the order of the
    parts does not matter."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to merge")
    total = Counter()
    for part in parts:
        total.update(part)
    return total


def value_moments(k, form: geo.MultiForm, ell: int, b: int, primes,
                  hist) -> dict:
    """Every integer the sieve terms need, as exact sums over the box, from
    its value histogram hist = Counter(F(x)): each distinct value g is
    reduced mod each prime and decided by both solvability routes once, and
    weighted by its count.  The residue index of g decides ramification:
    index 0 means pi | g (g = 0 included), any other index reads the fiber
    from the prime's root-count table.  Each table is first checked against
    the characters at every residue (characters.root_count_routes).

    Returned counters (P = len(primes)):
      - ram_sum: #{(x, pi) : pi | F(x)}
      - psi_square_ok: Psi^2 = (ell-1) + (ell-2) Psi at every unramified pair
      - M: points with a globally solvable y^ell = F(x) (dual routes)
      - S: P*P nested lists, S[i1][i2][i][j] = sum over x unramified at both
        primes of fiber_1^i * fiber_2^j for i, j in {0, 1, 2}
      - sum_u2, sum_us, sum_s2: moments of (u, s) where u = #unramified
        primes at x and s = sum of Psi(ell-1-Psi) over them, so that
        I_alpha(x) = alpha*u + s for every alpha.
    """
    P = len(primes)
    datas = [residue_data(k, p, ell) for p in primes]
    for data in datas:
        root_count_routes(data, check=True)
    ram_sum = 0
    psi_square_ok = True
    sum_u2 = sum_us = sum_s2 = 0
    states = Counter()  # fiber at each prime (None where ramified) -> weight
    for g, count in hist.items():
        state = []
        u = s = 0
        for data in datas:
            idx = data.index_of_poly(g)
            if idx:
                fiber = data.root_count[idx]
                psi = fiber - 1
                if psi * psi != (ell - 1) + (ell - 2) * psi:
                    psi_square_ok = False
                u += 1
                s += psi * (ell - 1 - psi)
                state.append(fiber)
            else:
                ram_sum += count
                state.append(None)
        sum_u2 += count * u * u
        sum_us += count * u * s
        sum_s2 += count * s * s
        states[tuple(state)] += count

    S = [[[[0] * 3 for _ in range(3)] for _ in range(P)] for _ in range(P)]
    for state, count in states.items():
        live = [(i, (1, f, f * f)) for i, f in enumerate(state)
                if f is not None]
        for i1, pow1 in live:
            for i2, pow2 in live:
                cell = S[i1][i2]
                for i in range(3):
                    a = count * pow1[i]
                    for j in range(3):
                        cell[i][j] += a * pow2[j]
    return {
        "ram_sum": ram_sum,
        "psi_square_ok": psi_square_ok,
        "M": _solvable_weight(k, ell, form, b, hist),
        "S": S,
        "sum_u2": sum_u2,
        "sum_us": sum_us,
        "sum_s2": sum_s2,
    }


# ---------------------------------------------------------------------------
# sieve terms (the prime-degree cyclic-cover inequality)


def _pair_psi_sum(S, i1: int, i2: int) -> int:
    """Sum over x unramified at both primes of Psi_1 * Psi_2, from the
    moment table: (f1-1)(f2-1) = S11 - S10 - S01 + S00."""
    cell = S[i1][i2]
    return cell[1][1] - cell[1][0] - cell[0][1] + cell[0][0]


def sieve_terms(params: SieveParams, sset: SievingSet, acc: dict) -> dict:
    """All terms of the prime-degree cyclic-cover sieve inequality, exactly,
    from the value moments acc of the box (see value_moments):

        M <= (ell-1)^2 |A| / |P|  +  (2/|P|) sum_x |V_P^ram(x)|
             + max over distinct prime pairs |sum_x' Psi_1 Psi_2|

    with x' running over the box points unramified at both primes.  Also
    re-checks Psi^2 = (ell-1) + (ell-2) Psi at every unramified pair, the
    coarse majorization of the ramified count, and the symmetry of the pair
    sums under exchanging the primes."""
    if len(sset) < 2:
        raise ValueError("need at least two sieving primes for the pair max")
    k, form, ell = params.k, params.form, params.ell
    P = len(sset)
    A = params.box_size

    pair_sums = {(i1, i2): _pair_psi_sum(acc["S"], i1, i2)
                 for i1 in range(P) for i2 in range(P) if i1 != i2}
    unram_max = max(abs(v) for v in pair_sums.values())

    main = Fraction((ell - 1) ** 2 * A, P)
    ram_term = Fraction(2 * acc["ram_sum"], P)
    rhs = main + ram_term + unram_max

    ram_bound = (A * (form.deg_T() + form.m * params.b)
                 + P * form.m * params.q ** (params.b * params.n))

    pair_symmetric = all(pair_sums[(i, j)] == pair_sums[(j, i)]
                         for (i, j) in pair_sums)

    return {
        "q": params.q,
        "n": params.n,
        "ell": ell,
        "m": form.m,
        "b": params.b,
        "delta": params.delta,
        "primes": [pr.format_poly(k, p) for p in sset.primes],
        "A": A,
        "trivial_bound": params.q ** (params.b * (params.n + 1)),
        "M": acc["M"],
        "main_term": main,
        "ramified_term": ram_term,
        "unramified_term": unram_max,
        "rhs": rhs,
        "inequality_pass": Fraction(acc["M"]) <= rhs,
        "count_within_box": acc["M"] <= A,
        "psi_square_identity": acc["psi_square_ok"],
        "ramified_majorization": acc["ram_sum"] <= ram_bound,
        "pair_symmetric": pair_symmetric,
    }


# ---------------------------------------------------------------------------
# the general inequality with the c_{i,j}(alpha) expansion


def c_coefficients(alpha, ell: int) -> dict:
    """The coefficient table of the expansion of I_alpha(x)^2 in fiber-size
    powers, for a cover of degree ell: the per-prime contribution of an
    unramified prime with fiber size N is (alpha-ell) + (1+ell)N - N^2, and
    c_{i,j} is the coefficient of N_1^i N_2^j in the product of two such."""
    a = alpha - ell
    d = 1 + ell
    return {
        (0, 0): a * a,
        (1, 0): a * d,
        (0, 1): a * d,
        (1, 1): d * d,
        (2, 0): -a,
        (0, 2): -a,
        (2, 1): -d,
        (1, 2): -d,
        (2, 2): 1,
    }


def sieve_inequality_general(params: SieveParams, sset: SievingSet,
                             acc: dict, alpha_grid=(1, 2, 3, 4)) -> dict:
    """For each alpha >= 1 in the grid: sum_x I_alpha(x)^2 from the (u, s)
    moments of the box in acc (see value_moments); the same integer
    recomputed through the c_{i,j}(alpha) expansion over all ordered prime
    pairs (exact equality reported); and both right-hand sides of the
    general sieve inequality — the direct one with sum_x I_alpha^2 and the
    dominating one with per-pair absolute values — checked against M."""
    for alpha in alpha_grid:
        if alpha < 1:
            raise ValueError("alpha must be at least 1")
    P = len(sset)
    if P < 1:
        raise ValueError("empty sieving set")
    ell = params.ell
    M, ram_sum = acc["M"], acc["ram_sum"]

    rows = []
    for alpha in alpha_grid:
        sum_I2 = (alpha * alpha * acc["sum_u2"] + 2 * alpha * acc["sum_us"]
                  + acc["sum_s2"])
        coeffs = c_coefficients(alpha, ell)
        expansion = 0
        abs_pair_total = 0
        for i1 in range(P):
            for i2 in range(P):
                cell = acc["S"][i1][i2]
                inner = sum(c * cell[i][j] for (i, j), c in coeffs.items())
                expansion += inner
                abs_pair_total += abs(inner)
        rhs1 = Fraction(2 * ram_sum, P) + Fraction(sum_I2, P * P)
        rhs2 = Fraction(2 * ram_sum, P) + Fraction(abs_pair_total, P * P)
        rows.append({
            "alpha": alpha,
            "sum_I2": sum_I2,
            "c_expansion": expansion,
            "expansion_equal": sum_I2 == expansion,
            "rhs_direct": rhs1,
            "rhs_absolute": rhs2,
            "rhs_dominates": rhs1 <= rhs2,
            "pass_direct": Fraction(M) <= rhs1,
            "pass_absolute": Fraction(M) <= rhs2,
        })

    argmin = min(rows, key=lambda r: r["sum_I2"])["alpha"]
    return {
        "M": M,
        "ram_sum": ram_sum,
        "rows": rows,
        "argmin_alpha": argmin,
        "all_pass": all(r["pass_direct"] and r["pass_absolute"]
                        and r["expansion_equal"] and r["rhs_dominates"]
                        for r in rows),
    }
