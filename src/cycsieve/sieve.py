"""The geometric sieve at desk scale: the box A = {deg x < b}, the three
sieve terms, both sieve-inequality formulations with the c_{i,j}(alpha)
expansion, and the count M_n(F; b) of points with a global ell-th root.

All terms are exact: counts are integers, normalized terms are Fractions,
and every inequality is checked as a comparison of rationals.  Global
solvability of y^ell = F(x) is decided by two independent routes per
distinct value of F (membership in a precomputed set of ell-th powers,
versus a local obstruction, a sieving prime where the value is unramified
and its residue is no ell-th power, or else the multiplicity criterion read
off a squarefree decomposition); a disagreement raises instead of returning
a number.

Every term depends on a box point x only through the value F(x), and a value
is carried from the box to its residues as one integer, its value index: the
index pr.poly_to_index gives it with D = deg_T(F) + m(b-1) + 1 base-q digits
(value_digits).  Polynomials add digit by digit, which one block-sum table
over h-digit blocks does for indices (block_sums).  The box pass builds the
histogram Counter(value index of F(x)) without walking rows: it convolves
one small Counter per group of linked coordinates (box_convolution), and
deals the pairs of its last convolution into shares, one per worker, by
the low digits of their sums (deal_shares), so that the shares'
histograms have no value in common and sum to the box's (convolve_share).
prime_fibers reads each distinct value's fiber at every sieving prime
once; solvable_count decides M from them, value_moments does the
per-prime work, each value weighted by its count, and the sieve terms read
M and the moments.

Each prime reads the residue index of every distinct value from the
recurrence red[v] = digit(v mod q) + (T mod pi) red[v div q] on index
arithmetic in k_pi (residue_indices), and that index is all the per-prime work
reads: index 0 is a ramified prime (pi | F(x)), any other index gives the
fiber size from the prime's root-count table.  The tables are checked
against the character route at every residue before the first value
(characters.root_count_routes); a disagreement raises.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction

from . import geometry as geo
from . import polyring as pr
from .characters import check_cover, residue_data, root_count_routes


# ---------------------------------------------------------------------------
# parameters


class SieveParams:
    """Validated sieve input: the cover y^ell = F over F_q[T], the box bound
    b and the sieving degree delta."""

    __slots__ = ("ell", "form", "b", "delta")

    def __init__(self, form: geo.MultiForm, ell: int, b: int, delta: int):
        if form.n < 2:
            raise ValueError("need n >= 2 (the degree constraints on b are "
                             "unsatisfiable for n = 1)")
        if not form.terms:
            raise ValueError("the zero form has no cover to sieve")
        check_cover(form.k, ell, form.m)
        if not delta < b < 2 * delta:
            raise ValueError(f"need delta < b < 2*delta, got delta = {delta}, "
                             f"b = {b}")
        self.ell, self.form = ell, form
        self.b, self.delta = b, delta

    # the field, arity and field size are the form's
    k = property(lambda self: self.form.k)
    n = property(lambda self: self.form.n)
    q = property(lambda self: self.form.k.size)

    @property
    def box_size(self) -> int:
        return self.q ** (self.b * (self.n + 1))


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


def build_sieving_set(k, delta: int, exceptional=()) -> tuple:
    """(primes, excluded): the monic irreducibles of degree exactly delta
    with the bad primes left out, and the monic bad primes, sorted."""
    excluded = {pr.monic(k, f)[1] for f in exceptional}
    primes = tuple(f for f in pr.irreducibles(k, delta) if f not in excluded)
    return primes, tuple(sorted(excluded))


# ---------------------------------------------------------------------------
# value indices


BLOCK_SUM_SIZE = 1 << 17  # entries of one digitwise block-sum table
RESIDUE_TABLE_SIZE = 1 << 20  # entries of one residue recurrence table
SUMS_CACHE_SIZE = 16  # block-sum tables kept, one per (field, block width)


def value_digits(form: geo.MultiForm, b: int) -> int:
    """D = deg_T(F) + m(b-1) + 1: the base-q digits of the index that
    pr.poly_to_index gives any value of F on the box {deg x < b}."""
    return max(form.deg_T() + form.m * (b - 1), 0) + 1


def _block_digits(base: int, digits: int, size: int) -> int:
    """h: the digits of each block when the given digits are cut into as
    few blocks as keep base^h <= size, as even as they can be (h >= 1)."""
    blocks = 1
    while blocks < digits and base ** -(-digits // blocks) > size:
        blocks += 1
    return -(-digits // blocks)


@functools.lru_cache(maxsize=SUMS_CACHE_SIZE)
def block_sums(k, h: int) -> list:
    """sums[a * q^h + c] = the index of the sum of the polynomials of
    indices a and c in range(q^h), digit by digit through k.add; each pass
    puts one more top digit on the last pass's table."""
    q = k.size
    add = [k.add(a, c) for a in range(q) for c in range(q)]
    sums, width = add, q
    for _ in range(h - 1):
        wider = []
        for a in range(width * q):
            top, low = divmod(a, width)
            row = sums[low * width:(low + 1) * width]
            for c_top in range(q):
                shift = add[top * q + c_top] * width
                wider += [s + shift for s in row]
        sums, width = wider, width * q
    return sums


class ValueAdder:
    """Sums of value indices of the given number of base-q digits, digit by
    digit: one block_sums lookup per block of h digits, in as few blocks as
    keep the table's q^(2h) entries within BLOCK_SUM_SIZE and within the
    count of sums it is built for (or q^2), so a small pass builds a small
    table."""

    def __init__(self, k, digits: int, count: int):
        size = min(BLOCK_SUM_SIZE, max(count, k.size ** 2))
        h = _block_digits(k.size ** 2, digits, size)
        self.width = k.size ** h
        self.scales = [self.width ** i for i in range(-(-digits // h))]
        self.sums = block_sums(k, h)

    def add(self, a: int, c: int) -> int:
        sums, width = self.sums, self.width
        if len(self.scales) == 1:
            return sums[a * width + c]
        return sum(sums[a // s % width * width + c // s % width] * s
                   for s in self.scales)

    def columns(self, values) -> list:
        """The blocks of the values, one list per block."""
        width = self.width
        return [[v // s % width for v in values] for s in self.scales]

    def add_to_each(self, a: int, columns) -> list:
        """[add(a, c) for c in values], the values given by their columns."""
        sums, width = self.sums, self.width
        out = None
        for s, column in zip(self.scales, columns):
            lo = a // s % width * width
            part = map(sums[lo:lo + width].__getitem__, column)
            out = (list(part) if out is None
                   else [o + p * s for o, p in zip(out, part)])
        return out


def residue_digits(q: int, digits: int, count: int) -> int:
    """s: the block digits residue_indices reads count value indices in; its
    table of q^s entries has at most RESIDUE_TABLE_SIZE entries and no more
    than there are values (or q)."""
    return _block_digits(q, digits, min(RESIDUE_TABLE_SIZE, max(count, q)))


def residue_indices(data, values, digits: int) -> list:
    """The residue index mod data.pi of the value of each index in values
    (value indices of the given number of digits).  Residues are indexed
    like values of deg pi digits, so k_pi adds them digit by digit
    (block_sums), and T mod pi multiplies them through one row of Q
    products.  The recurrence red[v] = digit(v mod q) + (T mod pi)
    red[v div q] fills red over the q^s indices of s digits
    (s = residue_digits; s = digits when one table covers every index); a
    longer index is read in s-digit blocks from the top, as
    red = red[block] + (T^s mod pi) red."""
    k, kpi = data.k, data.kpi
    q, Q = k.size, kpi.size
    add = block_sums(k, data.deg)
    t = kpi.reduce_poly((k.zero, k.one))
    times_t = [kpi.mul(t, r) for r in range(Q)]
    s = residue_digits(q, digits, len(values))
    red = list(range(q))  # the digit a is the constant of index a in k_pi
    for _ in range(s - 1):
        red = [add[a * Q + x] for x in [times_t[r] for r in red]
               for a in range(q)]
    width, blocks = q ** s, -(-digits // s)
    top = width ** (blocks - 1)
    out = [red[v // top] for v in values]
    if blocks > 1:
        scaled = [r * Q for r in red]
        times_tau = list(range(Q))  # times T^s mod pi
        for _ in range(s):
            times_tau = [times_t[r] for r in times_tau]
        for i in reversed(range(blocks - 1)):
            step = width ** i
            out = [add[scaled[v // step % width] + times_tau[o]]
                   for v, o in zip(values, out)]
    return out


# ---------------------------------------------------------------------------
# global solvability of y^ell = F(x) and the count M_n(F; b)


def _ell_th_power_set(k, ell: int, digits: int) -> set:
    """The value indices of {y^ell : y in F_q[T], deg y <= (digits-1)/ell},
    every ell-th power with at most the given number of digits."""
    max_deg = (digits - 1) // ell
    out = set()
    for i in range(k.size ** (max_deg + 1)):
        y = pr.poly_from_index(k, i, max_deg + 1)
        p = (k.one,)
        for _ in range(ell):
            p = pr.mul(k, p, y)
        out.add(pr.poly_to_index(k, p, digits))
    return out


def _solvable_by_squarefree(k, ell: int, g) -> bool:
    """Has y^ell = g a root y in F_q[T]?  Yes iff g = 0, or the leading
    coefficient of g is an ell-th power in F_q and the multiplicity of
    every irreducible factor of its monic part f is divisible by ell.  The
    multiplicities come from Yun's squarefree decomposition over F_q (von zur
    Gathen and Gerhard, Modern Computer Algebra, 14.6): with c = gcd(f, f')
    and w = f / c, step i of the loop splits off y = gcd(w, c), and w / y is
    the product of the irreducibles of multiplicity exactly i among those
    whose multiplicity p does not divide.  What is left in c is a p-th
    power, whose p-th root has every multiplicity divided by p; as ell
    divides q - 1, p is prime to ell, and the root is decided in turn."""
    if not g:
        return True
    lc, f = pr.monic(k, g)
    if k.power(lc, (k.size - 1) // ell) != k.one:
        return False
    p, root = k.char, k.size // k.char
    while len(f) > 1:
        df = pr.normalize(k, [k.mul(k.from_int(i), a)
                              for i, a in enumerate(f)][1:])
        c = pr.gcd(k, f, df)
        if len(c) == 1:  # f is squarefree: each multiplicity is 1
            return False
        w = pr.divrem(k, f, c)[0]
        i = 1
        while len(w) > 1:
            y = pr.gcd(k, w, c)
            if i % ell and len(y) < len(w):
                return False
            c, w, i = pr.divrem(k, c, y)[0], y, i + 1
        f = tuple(k.power(a, root) for a in c[::p])
    return True


def _globally_solvable(k, ell: int, v: int, digits: int, powers: set) -> bool:
    """Both solvability routes at the value of index v: the power set reads
    the index, the squarefree decomposition its polynomial."""
    by_set = v in powers
    g = pr.poly_from_index(k, v, digits)
    by_squarefree = _solvable_by_squarefree(k, ell, g)
    if by_set != by_squarefree:
        raise ArithmeticError(
            f"solvability routes disagree at value {pr.format_poly(k, g)}: "
            f"power-set {by_set}, squarefree decomposition {by_squarefree}")
    return by_set


def box_pass_cost(form: geo.MultiForm, ell: int, b: int) -> tuple:
    """The charges of a pass over the box {deg x < b}, in order: its
    q^(b(n+1)) points, then the q^(d+1) polynomials of degree <= d whose
    ell-th powers the solvability test enumerates."""
    return (form.k.size ** (b * (form.n + 1)),
            form.k.size ** ((value_digits(form, b) - 1) // ell + 1))


def solvable_count(form: geo.MultiForm, ell: int, b: int, hist,
                   fibers=()) -> int:
    """M_n(F; b): the number of x in the box {deg x < b} such that
    y^ell = F(x) has a solution y in F_q[T], from the box's value histogram
    hist = Counter(value index of F(x)).  Each distinct value is decided
    once, by the power set against a local obstruction (a prime of the
    fibers from prime_fibers where the value is unramified with a fiber of
    0) or else its squarefree decomposition, and weighted by its count;
    without fibers every value is decomposed."""
    k, digits = form.k, value_digits(form, b)
    powers = _ell_th_power_set(k, ell, digits)
    values = list(hist)
    left = range(len(values))  # the positions of the values not obstructed
    for fiber in fibers:
        left = [i for i in left if fiber[i] != 1]
    left = [values[i] for i in left]
    for v in powers.intersection(hist).difference(left):
        raise ArithmeticError(
            f"solvability routes disagree at value "
            f"{pr.format_poly(k, pr.poly_from_index(k, v, digits))}: "
            f"power-set True, a local obstruction")
    return sum(hist[v] for v in left
               if _globally_solvable(k, ell, v, digits, powers))


# ---------------------------------------------------------------------------
# the box pass: value histograms of chunks, then the sieve work per value


def _convolve(adder: ValueAdder, a, c, out: dict) -> dict:
    """Adds to the counts in out those of the sums of an index in a and one
    in c, each weighted by the product of their counts (out is a plain
    dict: its lookups are faster than a Counter's)."""
    columns = adder.columns(c)
    weights = list(c.values())
    get = out.get
    for v, count in a.items():
        for s, d in zip(adder.add_to_each(v, columns), weights):
            out[s] = get(s, 0) + count * d
    return out


def box_convolution(form: geo.MultiForm, b: int) -> tuple:
    """(adder, operands): the box pass over {deg x < b} up to its last
    convolution, whose pairs convolve_share sums.

    A row is the q^b points that share x_0 .. x_{n-1} (x_n varies
    fastest), and on a row F is a polynomial in x_n: its free part and its
    key, the coefficients of x_n^1 .. x_n^m.  The row is packed as one
    integer, the m + 1 value indices as (m + 1) D base-q digits, so row
    parts add digit by digit (ValueAdder).  Two of x_0 .. x_{n-1} are
    linked when a term of F holds both; each component of linked
    coordinates gives a Counter of its packed contributions over its
    values (a coordinate alone reads its index table; a term in more
    coordinates is multiplied out and encoded), and the Counter of the
    rows is their convolution.  Rows are grouped by key: the operands are
    one ({free part: count}, Counter of the key's values over the row) per
    key, and adder adds value indices of value_digits digits.
    """
    k, n, m = form.k, form.n, form.m
    digits = value_digits(form, b)
    width = k.size ** max(b, 0)
    packed = (m + 1) * digits
    slot = k.size ** digits  # the scale of x_n-degree 1 in a packed row

    def encode(f):
        return pr.poly_to_index(k, f, digits)

    powers = []  # powers[i][e] = (coordinate value i)^e for e = 0 .. m
    for i in range(width):
        x, xe = pr.poly_from_index(k, i, b), [(k.one,)]
        for _ in range(m):
            xe.append(pr.mul(k, xe[-1], x))
        powers.append(xe)
    # F is homogeneous, so a coordinate alone has one term per x_n-degree,
    # and its terms fill distinct slots of the packed row
    const = 0  # the term in x_n alone
    tables = [[0] * width for _ in range(n)]  # packed one-coordinate terms
    label = list(range(n))  # one label per component of linked coordinates
    products = []  # (coordinates, exponents, scale, table over the first)
    for exps, coeff in form.terms.items():
        head, scale = exps[:n], slot ** exps[n]
        used = [i for i, e in enumerate(head) if e]
        if not used:
            const = encode(coeff) * scale
        elif len(used) == 1:
            i = used[0]
            tables[i] = [t + encode(pr.mul(k, coeff, xe[head[i]])) * scale
                         for t, xe in zip(tables[i], powers)]
        else:
            products.append((used, [head[i] for i in used], scale,
                             [pr.mul(k, coeff, xe[head[used[0]]])
                              for xe in powers]))
            linked = {label[i] for i in used}
            label = [min(linked) if c in linked else c for c in label]
    components = {}  # label -> ([coordinates], [their product terms])
    for i in range(n):
        components.setdefault(label[i], ([], []))[0].append(i)
    for term in products:
        components[label[term[0][0]]][1].append(term)

    rows = {const: 1}
    for coords, terms in components.values():
        if len(coords) == 1:
            parts = Counter(tables[coords[0]])
        else:
            count = width ** len(coords) * (len(coords) + len(terms))
            add = ValueAdder(k, packed, count).add
            where = {i: p for p, i in enumerate(coords)}
            plan = [(where[used[0]], [where[i] for i in used[1:]], exps[1:],
                     scale, first) for used, exps, scale, first in terms]

            def value(point):
                v = 0
                for i, d in zip(coords, point):
                    v = add(v, tables[i][d])
                for p0, rest, exps, scale, first in plan:
                    t = first[point[p0]]
                    for p, e in zip(rest, exps):
                        t = pr.mul(k, t, powers[point[p]][e])
                    v = add(v, encode(t) * scale)
                return v
            parts = Counter(map(value, itertools.product(
                range(width), repeat=len(coords))))
        rows = _convolve(ValueAdder(k, packed, len(rows) * len(parts)),
                         rows, parts, {})

    groups = {}  # key -> {free part: count} of its rows, each row once
    for v, count in rows.items():
        key, free = divmod(v, slot)
        groups.setdefault(key, {})[free] = count
    operands = []
    for key, frees in groups.items():
        polys = [pr.poly_from_index(k, key // slot ** j % slot, digits)
                 for j in range(m)]
        over = Counter()  # the index of sum_j key_j x_n^j on the row
        for xe in powers:
            v = ()
            for c, power in zip(polys, xe[1:]):
                if c:
                    v = pr.add(k, v, pr.mul(k, c, power))
            over[encode(v)] += 1
        operands.append((frees, over))
    return ValueAdder(k, digits, pair_count(operands)), operands


def pair_count(operands) -> int:
    """The pairs (free part, x_n value) of the last convolution."""
    return sum(len(frees) * len(over) for frees, over in operands)


def deal_shares(k, operands, shares: int) -> tuple:
    """(sums, owner): the plan that deals the pairs of the last convolution
    of box_convolution into shares with no value in common.  The class of
    a value is its low d digits, its index mod q^d, for the least d with
    q^d >= 8 * shares (while q^(2d) <= BLOCK_SUM_SIZE).  Digitwise sums
    carry nothing from digit to digit, so the class of f + x is
    sums[(f mod q^d) q^d + x mod q^d] (sums = block_sums(k, d)), and a pair
    goes to the share of the class of its sum: owner[c] is the share of
    class c.  The classes, heaviest first by their pairs, each go to the
    share with the fewest pairs so far."""
    q, d = k.size, 1
    while q ** d < 8 * shares and q ** (2 * d + 2) <= BLOCK_SUM_SIZE:
        d += 1
    classes = q ** d
    sums = block_sums(k, d)
    weight = [0] * classes
    for frees, over in operands:
        overs = Counter(x % classes for x in over)
        for a, count in Counter(f % classes for f in frees).items():
            row = a * classes
            for c, times in overs.items():
                weight[sums[row + c]] += count * times
    load, owner = [0] * shares, [0] * classes
    for c in sorted(range(classes), key=weight.__getitem__, reverse=True):
        owner[c] = share = load.index(min(load))
        load[share] += weight[c]
    return sums, owner


def convolve_share(adder: ValueAdder, operands, plan=None,
                   share: int = 0) -> dict:
    """The value histogram {value index: count} of one share of the last
    convolution of box_convolution: the pairs whose sums the plan of
    deal_shares gives to share, or every pair without a plan.  The shares
    of one plan have no value in common, and their histograms sum to the
    box's."""
    hist = {}
    if plan is not None:
        sums, owner = plan
        classes = len(owner)
        # wanted[a]: the classes whose sums with class a are this share's
        wanted = [[c for c in range(classes)
                   if owner[sums[a * classes + c]] == share]
                  for a in range(classes)]
    for operand in operands:
        # one call per entry of the smaller operand, over the larger one
        outer, inner = sorted(operand, key=len)
        if plan is None:
            _convolve(adder, outer, inner, hist)
            continue
        groups, parts = {}, {}  # class -> {index: count} of inner, outer
        for v, count in inner.items():
            groups.setdefault(v % classes, {})[v] = count
        for v, count in outer.items():
            parts.setdefault(v % classes, {})[v] = count
        for a, part in parts.items():
            mine = {}
            for c in wanted[a]:
                mine.update(groups.get(c, ()))
            _convolve(adder, part, mine, hist)
    return hist


def box_histogram(form: geo.MultiForm, b: int) -> Counter:
    """Counter of the value indices of F(x) over the whole box {deg x < b},
    in one share."""
    return Counter(convolve_share(*box_convolution(form, b)))


def residue_tables_cost(form: geo.MultiForm, b: int, primes: int,
                        values: int) -> int:
    """Entries of the residue tables of value_moments for the given numbers
    of primes and distinct values: q^s per prime (s = residue_digits)."""
    q = form.k.size
    return primes * q ** residue_digits(q, value_digits(form, b), values)


def prime_fibers(form: geo.MultiForm, ell: int, b: int, primes,
                 hist) -> list:
    """The fibers of the distinct values of hist, in its order, at each
    prime: 0 where the prime divides the value (g = 0 included), else
    fiber + 1, read from the value's residue index (residue_indices;
    residue_tables_cost prices the tables) through the prime's root-count
    table, which is checked against the characters first
    (characters.root_count_routes)."""
    k, digits = form.k, value_digits(form, b)
    values = list(hist)
    out = []
    for p in primes:
        data = residue_data(k, p, ell)
        root_count_routes(data, check=True)
        fiber = map([0, *(f + 1 for f in data.root_count[1:])].__getitem__,
                    residue_indices(data, values, digits))
        # a byte a value where they fit, as every prime's are held at once
        out.append(bytes(fiber) if ell < 255 else list(fiber))
    return out


def value_moments(ell: int, fibers, hist) -> dict:
    """Every integer the sieve terms need, as exact sums over the box, from
    its value histogram hist = Counter(value index of F(x)) and the fibers
    of its distinct values at the sieving primes (prime_fibers), every
    value weighted by its count.

    Returned counters (P = len(fibers), the sieving primes):
      - ram_sum: #{(x, pi) : pi | F(x)}
      - psi_square_ok: Psi^2 = (ell-1) + (ell-2) Psi at every unramified pair
      - S: P*P nested lists, S[i1][i2][i][j] = sum over x unramified at both
        primes of fiber_1^i * fiber_2^j for i, j in {0, 1, 2}
      - sum_u2, sum_us, sum_s2: moments of (u, s) where u = #unramified
        primes at x and s = sum of Psi(ell-1-Psi) over them, so that
        I_alpha(x) = alpha*u + s for every alpha.
    """
    P = len(fibers)
    # the fibers of each value at every prime, as the base-(ell+2) digits
    # of one integer
    base = ell + 2
    codes = [0] * len(hist)
    for fiber in fibers:
        codes = [c * base + d for c, d in zip(codes, fiber)]
    states = Counter()  # fiber code -> weight
    for code, count in zip(codes, hist.values()):
        states[code] += count

    # the weight of the values with digit a at prime i1 and digit c at
    # prime i2, unramified only, is field i2 * base + c of
    # pairs[i1 * base + a], in fields of `bits` bits that no weight fills:
    # a value adds its count in the fields of its unramified primes to the
    # row of each of them
    slots = P * base
    bits = sum(hist.values()).bit_length()
    unit = [1 << (bits * a) for a in range(slots)]
    pairs = [0] * slots
    ram_sum = 0
    psi_square_ok = True
    sum_u2 = sum_us = sum_s2 = 0
    for code, count in states.items():
        live = []  # i * base + digit at each unramified prime i
        u = s = row = 0
        for i in reversed(range(P)):
            code, d = divmod(code, base)
            if not d:
                ram_sum += count
                continue
            psi = d - 2  # the fiber is d - 1
            if psi * psi != (ell - 1) + (ell - 2) * psi:
                psi_square_ok = False
            u += 1
            s += psi * (ell - 1 - psi)
            live.append(i * base + d)
            row += unit[live[-1]]
        sum_u2 += count * u * u
        sum_us += count * u * s
        sum_s2 += count * s * s
        row *= count
        for a in live:
            pairs[a] += row
    S = [[[[0] * 3 for _ in range(3)] for _ in range(P)] for _ in range(P)]
    mask = (1 << bits) - 1
    for x, row in enumerate(pairs):
        i1, a = divmod(x, base)
        for y in range(slots):
            weight = row >> (bits * y) & mask
            if not weight:
                continue
            i2, c = divmod(y, base)
            cell = S[i1][i2]
            for i in range(3):
                for j in range(3):
                    cell[i][j] += weight * (a - 1) ** i * (c - 1) ** j
    return {
        "ram_sum": ram_sum,
        "psi_square_ok": psi_square_ok,
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


def sieve_terms(params: SieveParams, primes, M: int, acc: dict) -> dict:
    """All terms of the prime-degree cyclic-cover sieve inequality at the
    sieving primes, exactly, from the count M (see solvable_count) and the
    value moments acc of the box (see value_moments):

        M <= (ell-1)^2 |A| / |P|  +  (2/|P|) sum_x |V_P^ram(x)|
             + max over distinct prime pairs |sum_x' Psi_1 Psi_2|

    with x' running over the box points unramified at both primes.  Also
    re-checks Psi^2 = (ell-1) + (ell-2) Psi at every unramified pair, the
    coarse majorization of the ramified count, and the symmetry of the pair
    sums under exchanging the primes."""
    if len(primes) < 2:
        raise ValueError("need at least two sieving primes for the pair max")
    k, form, ell = params.k, params.form, params.ell
    P = len(primes)
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
        "primes": [pr.format_poly(k, p) for p in primes],
        "A": A,
        "trivial_bound": A,
        "M": M,
        "main_term": main,
        "ramified_term": ram_term,
        "unramified_term": unram_max,
        "rhs": rhs,
        "inequality_pass": Fraction(M) <= rhs,
        "count_within_box": M <= A,
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


ALPHA_GRID = (1, 2, 3, 4)  # the weights alpha of the general inequality


def sieve_inequality_general(params: SieveParams, primes, M: int,
                             acc: dict) -> dict:
    """For each alpha in ALPHA_GRID at the sieving primes: sum_x
    I_alpha(x)^2 from the (u, s) moments of the box in acc (see
    value_moments); the same integer
    recomputed through the c_{i,j}(alpha) expansion over all ordered prime
    pairs (exact equality reported); and both right-hand sides of the
    general sieve inequality — the direct one with sum_x I_alpha^2 and the
    dominating one with per-pair absolute values — checked against M."""
    P = len(primes)
    if P < 1:
        raise ValueError("empty sieving set")
    ell, ram_sum = params.ell, acc["ram_sum"]

    rows = []
    for alpha in ALPHA_GRID:
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
