"""Functions only the tests call: slow or sliced second routes that the
program is checked against, kept out of the package because no command runs
them.

* The tuple arithmetic of extension fields: ``ExtensionField`` with
  elements as coefficient tuples over the base (an oracle ``PrimeField`` or
  another tuple field), schoolbook products reduced mod the modulus and
  powers by squaring, the reference the index arithmetic of
  ``cycsieve.ffield`` is checked against.
* The table of a form over a finite field term by term, each term's table
  an outer product of rows of powers, the route ``geometry.form_values``
  is checked against.
* The points of P^n over a finite field and its extensions one by one, and
  the zeros of a form on them with one evaluation per point, the walk the
  table-read zeros of ``geometry._zeros`` are checked against.
* Sieve quantities recomputed point by point on polynomials: F at a box
  point, the fiber size and the ramified set of one box point, the count
  of the sieving set against its lower bound and the least admissible b;
  the bad primes of the scan as polynomials.
* The moments of the sieve with each value's fibers at every prime packed
  into one base-(ell+2) integer and unpacked by ``divmod`` at each prime
  (``value_moments_packed``), the reference the digit rows of
  ``sieve.value_moments`` are checked against.
* Factoring in F_q[T] by trial division, the oracle of the squarefree
  solvability route, and the adjugate from n^2 cofactors, the oracle of the
  one-elimination adjugate.
* The fraction field K = F_q(T) (``RationalFunctionField``) and a form
  lifted to it, over which the field routines of ``geometry`` give the
  determinant and adjugate of a matrix over F_q[T] by elimination: the
  reference the division-free cofactors (``geometry._poly_det``) are
  checked against.
* Linear solving and proportionality of vectors, and the affine
  singularity verdict (closed forms for quadratics and sums of pure powers,
  else a search over the points of ext^n) with the slice checks built on
  it.
* The rows of a ``wd_audit`` result one dict at a time, the reference
  the artifacts' table route (``cli.audit_table``) is checked against.
* The JSON-normal form of a report, whose json.dumps with sorted keys and
  an indent of 2 is the reference the bytes of the streaming writer
  (``reports.write_artifact``) are checked against.
* The character sum one w at a time, from the phases of w, and term by
  term (no transform); the slicing identity for S_G(0, chi) with its
  per-slice bound audit, which reports the pinned cubic violation; and the
  Gauss-sum completion of S_G(w, chi) for w != 0.
* Both sides of the count-mod identity by a walk over the points of its
  boxes.
* The additive character as a cyclotomic value, the check of a serialized
  cyclotomic value, the degree of a dual hypersurface and a Schwartz-Zippel
  zero count.
* The places of K = F_q(T) and the heights, as follows.

Places of K = F_q(T): the infinite place |x/y|_oo = q^(deg x - deg y) and one
finite place per monic irreducible pi with |x/y|_pi = q^(ord_pi y - ord_pi x);
|0|_v = 0.  The product of |x|_v over the infinite place and all primes
dividing numerator or denominator equals 1 exactly (product formula).
Heights: ht_K(x) = |x|_oo; on affine tuples the max of coordinate heights; on
projective points the max of |x_i|_oo over coprime integral coordinates.
"""

import functools
import itertools
from collections import Counter
from fractions import Fraction

from cycsieve import charsums as cs
from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve.characters import (
    character_sum,
    chi_exponents,
    gauss_sum,
    psi_exponent,
    residue_data,
)
from cycsieve.cyclotomic import cyc_ring
from cycsieve import ffield
from cycsieve.ffield import FIELD_CACHE_SIZE, prime_factors
from cycsieve.polyring import NEG_INF


class PrimeField(ffield.PrimeField):
    """F_p as a base of the tuple ExtensionField, which reads its base
    through index and from_index, both the identity on F_p."""

    def index(self, a) -> int:
        return a

    def from_index(self, i: int):
        return i


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


def exceptional_primes_of(form: geo.MultiForm, delta_max: int) -> list:
    """The bad primes of the form up to degree delta_max, as polynomials."""
    report = geo.compute_exceptional_primes(form, delta_max)
    return [pr.parse_poly(form.k, text) for text in report["exceptional"]]


def eval_form_at_polys(form: geo.MultiForm, xs):
    """F(x_0, .., x_n) in F_q[T] for polynomial arguments."""
    if len(xs) != form.n + 1:
        raise ValueError(f"need {form.n + 1} arguments, got {len(xs)}")
    k = form.k
    out = ()
    for exps, coeff in form.terms.items():
        t = coeff
        for x, e in zip(xs, exps):
            for _ in range(e):
                t = pr.mul(k, t, x)
        out = pr.add(k, out, t)
    return out


def form_values_by_terms(field, terms, nvars: int) -> list:
    """The table of geo.form_values term by term, the route it is checked
    against.  Each term's table is built from the last coordinate to the
    first, starting from its coefficient: a coordinate of exponent e > 0
    takes the outer product of its row of e-th powers with the table so
    far, one of exponent 0 repeats the table Q times; the terms' tables are
    added entrywise."""
    Q, mul, add = field.size, field.mul, field.add
    out = None
    for exps, coeff in terms.items():
        tab = [coeff]
        for e in reversed(exps):
            if not e:
                tab *= Q
                continue
            outer = []
            for x in range(Q):
                outer += map(mul, itertools.repeat(field.power(x, e)), tab)
            tab = outer
        out = tab if out is None else list(map(add, out, tab))
    return [field.zero] * Q ** nvars if out is None else out


def projective_points(field, nvars: int):
    """P^{nvars-1}(field), one representative per point: the first nonzero
    coordinate is 1.  Deterministic order (pivot, then element order)."""
    elems = list(field.elements())
    for pivot in range(nvars):
        for rest in itertools.product(elems, repeat=nvars - pivot - 1):
            yield (field.zero,) * pivot + (field.one,) + rest


def _extension_points(field, nvars: int, search_bound: int):
    """The extension-point search: for r = 1 .. search_bound, yield
    (r, ext, point) for every point of P^(nvars-1)(ext), where ext is the
    degree-r extension of field, whose elements include field's as they
    are.  Deterministic order."""
    if field.size is None:
        raise ValueError("an extension-point search needs a finite field")
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(field, r)
        for point in projective_points(ext, nvars):
            yield r, ext, point


def zeros_by_points(field, terms, nvars: int, search_bound: int):
    """The zeros of the form on the extension-point search: (r, ext, point,
    gradient) at each point where the form vanishes, in the order of
    _extension_points, with the gradient of the form there; the per-point
    walk geo._zeros is checked against."""
    grads = [geo.partial_terms(field, terms, i) for i in range(nvars)]
    for r, ext, point in _extension_points(field, nvars, search_bound):
        if ext.is_zero(geo.eval_terms(ext, terms, point)):
            yield r, ext, point, tuple(geo.eval_terms(ext, g, point)
                                       for g in grads)


def fiber_count(k, pi, ell: int, form: geo.MultiForm, x) -> int:
    """#{y in k_pi : y^ell = F(x) mod pi}, via the residue root table and,
    independently, via the character-sum expression; the two must agree."""
    data = residue_data(k, pi, ell)
    idx = data.kpi.reduce_poly(eval_form_at_polys(form, x))
    by_table = data.root_count[idx]
    by_chars = data.ring.as_int(character_sum(data, idx))
    if by_table != by_chars:
        raise ArithmeticError(
            f"fiber routes disagree at {x}: table {by_table}, "
            f"characters {by_chars}")
    return by_table


def ramified_set(k, primes, form: geo.MultiForm, x) -> tuple:
    """The sieving primes dividing F(x) (all of them when F(x) = 0)."""
    g = eval_form_at_polys(form, x)
    if not g:
        return tuple(primes)
    return tuple(p for p in primes if not pr.poly_mod(k, g, p))


def value_moments_packed(ell: int, fibers, hist) -> dict:
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


def min_b(n: int, q: int, p_exc_size: int, cap: int = 10000) -> int:
    """The least b whose delta = choose_delta(n, b) satisfies all the
    admissibility constraints: delta != 0; |P_exc| <= q^delta/(4*delta);
    4(b+1) <= q^(delta/2); and delta < b < 2*delta.  The root-free
    equivalents 4*delta*|P_exc| <= q^delta and (4(b+1))^2 <= q^delta are
    tested so everything stays in integers; choose_delta rejects n < 2."""
    for b in range(1, cap + 1):
        delta = rp.choose_delta(n, b)
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


FACTOR_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor(k, f):
    """(leading coefficient, tuple of (monic irreducible, multiplicity)).

    Trial division by enumerated irreducibles of increasing degree; once the
    remaining cofactor has degree < 2*(current degree) it is itself
    irreducible.  Factors are sorted by (degree, enumeration index).
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc, g = pr.monic(k, f)
    out = []
    d = 1
    while pr.degree(g) >= 1:
        if pr.degree(g) < 2 * d:
            out.append((g, 1))
            g = (k.one,)
            break
        for pi in pr.irreducibles(k, d):
            e = 0
            while True:
                qt, r = pr.divrem(k, g, pi)
                if r:
                    break
                g = qt
                e += 1
            if e:
                out.append((pi, e))
            if pr.degree(g) < 1:
                break
        d += 1
    out.sort(key=lambda pe: (len(pe[0]), pr.monic_to_index(k, pe[0])))
    return lc, tuple(out)


def solvable_by_factoring(k, ell: int, g) -> bool:
    """Has y^ell = g a root in F_q[T]?  From the factorization: g = 0, or
    every multiplicity divisible by ell and the leading coefficient an
    ell-th power in F_q."""
    if not g:
        return True
    lc, factors = factor(k, g)
    if any(e % ell for _, e in factors):
        return False
    return k.power(lc, (k.size - 1) // ell) == k.one


def cofactor_adjugate(field, mat):
    """Adjugate (transposed cofactor matrix) from n^2 cofactor
    determinants, so mat * adj = det * I."""
    n = len(mat)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            d = geo.mat_det(field, minor)
            adj[i][j] = d if (i + j) % 2 == 0 else field.neg(d)
    return adj


# ---------------------------------------------------------------------------
# the fraction field K = F_q(T)


class RationalFunctionField:
    """K = F_q(T) with the same element API as the finite fields.

    Elements are normalized pairs (num, den): den monic, gcd(num, den) = 1,
    zero = ((), (one,)).  The field routines of geometry (determinants,
    kernels, adjugates, closed-form regularity) run over it unchanged, so
    over the global function field they are the reference the
    division-free cofactors over F_q[T] are checked against.
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
        g = pr.gcd(k, num, den)
        if pr.degree(g) > 0:
            num = pr.divrem(k, num, g)[0]
            den = pr.divrem(k, den, g)[0]
        lc, den = pr.monic(k, den)
        if lc != k.one:
            num = pr.smul(k, k.inv(lc), num)
        return (num, den)

    def from_poly(self, f):
        return (pr.normalize(self.k, f), (self.k.one,))

    def from_int(self, c):
        return self.from_poly((self.k.from_int(c),))

    def is_zero(self, a):
        return not a[0]

    def add(self, a, b):
        k = self.k
        num = pr.add(k, pr.mul(k, a[0], b[1]), pr.mul(k, b[0], a[1]))
        return self.normalize(num, pr.mul(k, a[1], b[1]))

    def neg(self, a):
        return (pr.neg(self.k, a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        k = self.k
        return self.normalize(pr.mul(k, a[0], b[0]), pr.mul(k, a[1], b[1]))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of zero")
        return self.normalize(a[1], a[0])

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


def form_over_fraction_field(form: geo.MultiForm):
    """The same form with coefficients in K = F_q(T); lets the closed-form
    regularity routes run over the global field."""
    K = RationalFunctionField(form.k)
    return K, {exps: K.from_poly(c) for exps, c in form.terms.items()}


# ---------------------------------------------------------------------------
# places, valuations, heights


def abs_infty(k, num, den=None) -> Fraction:
    """|num/den|_oo = q^(deg num - deg den); |0|_oo = 0."""
    if not num:
        return Fraction(0)
    dden = 0 if den is None else pr.degree(den)
    if den is not None and not den:
        raise ZeroDivisionError("zero denominator")
    return Fraction(k.size) ** (pr.degree(num) - dden)


def ord_at(k, f, pi) -> int:
    """Multiplicity of the prime pi in f != 0."""
    if not f:
        raise ValueError("ord of zero is +infinity")
    e = 0
    while True:
        q, r = pr.divrem(k, f, pi)
        if r:
            return e
        f = q
        e += 1


def abs_at(k, num, den, pi) -> Fraction:
    """|num/den|_pi = q^((ord_pi den - ord_pi num) * deg pi); |0|_pi = 0."""
    if not num:
        return Fraction(0)
    if den is None:
        den = (k.one,)
    if not den:
        raise ZeroDivisionError("zero denominator")
    e = ord_at(k, den, pi) - ord_at(k, num, pi)
    return Fraction(k.size) ** (e * pr.degree(pi))


def valuation(k, num, den, place) -> Fraction:
    """|num/den| at a place: the string "infty" or a monic irreducible."""
    if place == "infty":
        return abs_infty(k, num, den)
    return abs_at(k, num, den, place)


def places_of(k, num, den):
    """The infinite place plus every prime dividing num or den."""
    out = ["infty"]
    seen = set()
    for f in (num, den):
        if not f or pr.degree(f) == 0:
            continue
        for pi, _ in factor(k, f)[1]:
            if pi not in seen:
                seen.add(pi)
                out.append(pi)
    return out


def product_over_places(k, num, den) -> Fraction:
    """Product of |num/den|_v over the infinite place and all primes dividing
    numerator or denominator.  Equals 1 exactly for num, den != 0."""
    if not num or not den:
        raise ValueError("product formula needs a nonzero rational function")
    out = Fraction(1)
    for v in places_of(k, num, den):
        out *= valuation(k, num, den, v)
    return out


def height_field(k, num, den=None) -> Fraction:
    """ht_K(x) = |x|_oo."""
    return abs_infty(k, num, den)


def height_affine(k, coords) -> Fraction:
    """Height of an affine tuple of polynomials: max of coordinate heights."""
    return max(abs_infty(k, f) for f in coords)


def height_projective(k, coords) -> Fraction:
    """Height of a projective point with polynomial coordinates: divide out the
    common gcd (making the coordinates coprime and integral), then take the
    max of |x_i|_oo."""
    nonzero = [f for f in coords if f]
    if not nonzero:
        raise ValueError("projective point needs a nonzero coordinate")
    g = ()
    for f in nonzero:
        g = pr.gcd(k, g, f)
    reduced = [pr.divrem(k, f, g)[0] if f else () for f in coords]
    return max(abs_infty(k, f) for f in reduced)


def reduce_mod(kpi, f):
    """Reduce a polynomial over F_q into the residue field k_pi."""
    return kpi.reduce_poly(f)


def lift_from(kpi, a):
    """Canonical lift of a residue to a polynomial of degree < deg(pi)."""
    return pr.poly_from_index(kpi.base, a, kpi.deg)


# ---------------------------------------------------------------------------
# characters, cyclotomic values, geometry


def additive_char_eval(k, x, pi, ell: int) -> tuple:
    """psi_infty(x/pi) as an exact cyclotomic value in Z[zeta_p, zeta_ell]
    (the value itself only involves zeta_p; ell picks the ambient ring)."""
    return cyc_ring(k.char, ell).monomial(psi_exponent(k, x, pi), 0)


def count_mod_by_points(k, u, a, b: int) -> tuple:
    """Both sides of the count-mod identity by walking the (n+1)-variable
    boxes point by point: #{x : deg x < b, x == a mod u}, and
    q^((n+1)(b - deg u)) * sum over {deg x < deg u - b} of psi(-x.a/u) as
    an integer (None if it is not one)."""
    d, arity = pr.degree(u), len(a)
    lhs = sum(
        all(not pr.poly_mod(k, pr.sub(k, x, ai), u) for x, ai in zip(xs, a))
        for xs in pr.box(k, b, arity))
    counts = [0] * k.char
    for xs in pr.box(k, d - b, arity):
        dot = ()
        for x, ai in zip(xs, a):
            dot = pr.add(k, dot, pr.mul(k, x, ai))
        counts[psi_exponent(k, pr.neg(k, dot), u)] += 1
    # sum of counts[e] zeta_p^e is the integer counts[0] - counts[1] when
    # the counts of the p - 1 exponents e > 0 agree, and irrational else
    if len(set(counts[1:])) > 1:
        return lhs, None
    quotient, left = divmod(counts[0] - counts[1],
                            k.size ** (arity * (d - b)))
    return lhs, None if left else quotient


def deserialize(ring, obj) -> tuple:
    """The coordinates of ring.serialize(a), checked against the ring."""
    if (obj["p"], obj["ell"]) != (ring.p, ring.ell):
        raise ValueError("cyclotomic header mismatch")
    coords = tuple(int(c) for c in obj["coords"])
    if len(coords) != ring.dim:
        raise ValueError("coordinate length mismatch")
    return coords


def dual_degree(d: int, n: int) -> int:
    """Degree of the dual of a smooth degree-d hypersurface in P^n."""
    return d * (d - 1) ** (n - 1)



def schwartz_zippel_audit(field, terms, nvars: int, sample=None) -> dict:
    """Count zeros of a nonzero polynomial on sample^nvars and compare with
    the degree * |sample|^(nvars-1) bound."""
    if not terms:
        raise ValueError("the zero polynomial has no Schwartz-Zippel bound")
    elems = list(sample) if sample is not None else list(field.elements())
    deg = max(sum(e) for e in terms)
    zeros = 0
    for point in itertools.product(elems, repeat=nvars):
        if field.is_zero(geo.eval_terms(field, terms, point)):
            zeros += 1
    bound = deg * len(elems) ** (nvars - 1)
    return {
        "degree": deg,
        "sample_size": len(elems),
        "zeros": zeros,
        "bound": bound,
        "pass": zeros <= bound,
    }


def proportional(field, u, w) -> bool:
    """u and w nonzero vectors: same projective point iff all 2x2 minors vanish."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            d = field.sub(field.mul(u[i], w[j]), field.mul(u[j], w[i]))
            if not field.is_zero(d):
                return False
    return True


def solve_linear(field, mat, rhs):
    """One solution of mat * x = rhs (square system), or None if inconsistent.
    Free variables are set to zero."""
    n = len(mat)
    m = [list(row) + [rhs[r]] for r, row in enumerate(mat)]
    pivots, _ = geo._rref(field, m, n)
    for r in range(len(pivots), n):
        if not field.is_zero(m[r][n]):
            return None
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        x[c] = m[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# affine smoothness and slices


def _pure_power_degrees(terms):
    """{variable: exponent} when every non-constant monomial is a pure power
    of a distinct variable; None when that shape does not hold."""
    powers = {}
    for exps in terms:
        sup = [i for i, e in enumerate(exps) if e]
        if not sup:
            continue
        if len(sup) > 1 or sup[0] in powers:
            return None
        powers[sup[0]] = exps[sup[0]]
    return powers


def _quadratic_singular(field, terms, nvars: int):
    """The closed form for deg g <= 2: critical points solve the linear
    system A x = -b/2, and g is constant on the critical space, so one
    value decides.  Returns a singular point or None."""
    quad = {e: c for e, c in terms.items() if sum(e) == 2}
    A = geo.quadric_matrix_over(field, quad, nvars)
    b = [field.zero] * nvars
    for exps, c in terms.items():
        if sum(exps) == 1:
            b[exps.index(1)] = c
    half = field.inv(field.from_int(2))
    x0 = solve_linear(field, A, [field.neg(field.mul(x, half)) for x in b])
    if x0 is not None and field.is_zero(geo.eval_terms(field, terms, x0)):
        return x0
    return None


def _pure_powers_singular(field, terms, nvars: int, powers):
    """The closed form for a sum of pure powers plus a constant, exponents
    coprime to the characteristic: dg/dX_i = d_i c_i X_i^(d_i - 1), so a
    linear monomial makes the gradient never vanish; otherwise the origin is
    the only critical point and g there equals the constant term.  Returns
    the origin when it is singular, else None."""
    origin = (field.zero,) * nvars
    if all(d > 1 for d in powers.values()) and field.is_zero(
            geo.eval_terms(field, terms, origin)):
        return origin
    return None


def search_affine_singular(field, terms, nvars: int,
                           search_bound: int) -> geo.Verdict:
    """A point of ext^nvars where g and every partial derivative vanish,
    searched over the extensions ext of degree <= search_bound."""
    grads = [geo.partial_terms(field, terms, i) for i in range(nvars)]
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(field, r)
        for point in itertools.product(ext.elements(), repeat=nvars):
            if all(ext.is_zero(geo.eval_terms(ext, t, point))
                   for t in (terms, *grads)):
                return geo.Verdict("singular", point, r)
    return geo.Verdict("unknown", search_bound=search_bound)


def affine_singularity(field, terms, nvars: int,
                       search_bound: int = 4) -> geo.Verdict:
    """Singular-point verdict for the affine hypersurface {g = 0}.

    The shape of g picks the route: closed forms for deg g <= 2 and for sums
    of pure powers (each variable in exactly one monomial, exponents coprime
    to the characteristic, plus a constant), else a search over the
    extensions of degree <= search_bound ("unknown" if none found).
    """
    if max((sum(e) for e in terms), default=NEG_INF) <= 2:
        return geo._singularity(_quadratic_singular(field, terms, nvars))
    powers = _pure_power_degrees(terms)
    if powers is not None and all(d % field.char for d in powers.values()):
        return geo._singularity(
            _pure_powers_singular(field, terms, nvars, powers))
    return search_affine_singular(field, terms, nvars, search_bound)


def slice_and_check(field, terms, nvars: int, m: int, S, j: int,
                    search_bound: int = 4):
    """Dehomogenize H_S (the monomials supported inside S) at X_j = 1.

    Returns (g, checks) where g is an affine polynomial in the variables
    S - {j} (ascending order) and checks reports: the degree is preserved,
    the top-degree form of g equals H_{S - {j}}, that top form is smooth
    projectively, and {g = 0} is smooth as an affine hypersurface.
    """
    S = sorted(set(S))
    if not all(0 <= i < nvars for i in S):
        raise ValueError("S must be a set of variable indices")
    if j not in S:
        raise ValueError("j must lie in S")
    rest = [i for i in S if i != j]
    g = {}
    for exps, coeff in terms.items():
        if any(e and i not in S for i, e in enumerate(exps)):
            continue
        nexps = tuple(exps[i] for i in rest)
        g[nexps] = field.add(g.get(nexps, field.zero), coeff)
    g = {e: c for e, c in g.items() if not field.is_zero(c)}
    gdeg = max((sum(e) for e in g), default=NEG_INF)
    top = {e: c for e, c in g.items() if sum(e) == m}
    h_rest = {}
    for exps, coeff in terms.items():
        if any(e and i not in rest for i, e in enumerate(exps)):
            continue
        h_rest[tuple(exps[i] for i in rest)] = coeff
    checks = {
        "degree_preserved": gdeg == m,
        "top_form_matches": top == h_rest,
        "top_form_smooth": (
            geo.hypersurface_verdicts(field, h_rest, len(rest),
                                      search_bound=search_bound)[0]
            if rest
            else None
        ),
        "affine_smooth": affine_singularity(field, g, len(rest),
                                            search_bound=search_bound),
    }
    return g, checks


# ---------------------------------------------------------------------------
# character sums: term by term, sliced, and completed by Gauss sums

# extension degree up to which the slice and twist checks search for
# singular points
SLICE_SEARCH_BOUND = 2


def w_indices(ctx: cs.CharSumContext, w) -> list:
    """The coordinates of w, after a length check."""
    if len(w) != ctx.nvars:
        raise ValueError(f"w needs {ctx.nvars} coordinates, got {len(w)}")
    return list(w)


def phases(ctx: cs.CharSumContext, w) -> list:
    """The exponent of psi_infty(-w.a/pi) = zeta_p^phase at every point a,
    mod p, in the order of g_values.  psi_exp is additive, so the phase of
    a is the sum over its coordinates of one Q-entry row x ->
    psi_exp[-w_i x]: the list is the outer sum of the rows."""
    kpi, psi = ctx.kpi, ctx.data.psi_exp
    p, Q = kpi.char, ctx.Q
    out = [0]
    for i in w_indices(ctx, w):
        row = [psi[kpi.mul(kpi.neg(i), x)] for x in range(Q)]
        out = [(c + r) % p for c in out for r in row]
    return out


def char_sum(ctx: cs.CharSumContext, w, chi_index: int):
    """S_G(w, chi_index) for one w, the route CharSumContext.sums is checked
    against: the count of each (phase, chi exponent) pair over the points,
    with chi_index = 0 counting the zeros of G too."""
    # per residue index: the zeta_ell exponent of chi_index there, or None
    # where the character vanishes
    jtab = chi_exponents(ctx.data, chi_index)
    counts = Counter(zip(phases(ctx, w),
                         map(jtab.__getitem__, ctx.g_values)))
    return ctx.ring.from_exponent_counts(
        {key: c for key, c in counts.items() if key[1] is not None})


def char_sum_bruteforce(ctx: cs.CharSumContext, w, chi_index: int):
    """S_G(w, chi_index) of a context by the generic field and character
    code, chi and psi_infty term by term (no transform)."""
    w_indices(ctx, w)  # the length check of the per-w route
    kpi, ring = ctx.kpi, ctx.ring
    chi = chi_exponents(ctx.data, chi_index)
    total = ring.zero
    for a in itertools.product(kpi.elements(), repeat=ctx.nvars):
        g = geo.eval_terms(kpi, ctx.reduced_terms, a)
        e = chi[g]
        if e is None:
            continue
        dot = kpi.zero
        for wi, ai in zip(w, a):
            dot = kpi.add(dot, kpi.mul(wi, ai))
        pe = ctx.data.psi_exp[kpi.neg(dot)]
        total = ring.add(total, ring.monomial(pe, e))
    return total


def slicing_identity(k, pi, ell: int, form: geo.MultiForm,
                     chi_index: int) -> dict:
    """S_G(0, chi) = sum_j [sum_{u != 0} chi(u)^m] * sum_b chi(g_j(b)).

    Stratify k_pi^(n+1) by the first nonzero coordinate j; on that stratum
    factor out chi(a_j)^m, leaving the dehomogenized slice g_j of
    G_{ {j..n} } at X_j = 1 in the variables j+1..n.  Both routes are exact
    cyclotomic values; "equal" compares them bit for bit.
    """
    ctx = cs.CharSumContext(pi, ell, form)
    kpi, ring = ctx.kpi, ctx.ring
    nvars = ctx.nvars
    chi = chi_exponents(ctx.data, chi_index)

    lhs = char_sum(ctx, (kpi.zero,) * nvars, chi_index)

    # sum over units of chi(u)^m
    unit_counts: dict = {}
    for r in range(1, ctx.Q):
        key = (0, (chi[r] * form.m) % ell)
        unit_counts[key] = unit_counts.get(key, 0) + 1
    unit_factor = ring.from_exponent_counts(unit_counts)

    rhs = ring.zero
    slices = []
    for j in range(nvars):
        S_j = set(range(j, nvars))
        g, checks = slice_and_check(kpi, ctx.reduced_terms, nvars, form.m,
                                    S_j, j, search_bound=SLICE_SEARCH_BOUND)
        r_vars = nvars - 1 - j
        counts: dict = {}
        for b in itertools.product(kpi.elements(), repeat=r_vars):
            e = chi[geo.eval_terms(kpi, g, b)]
            if e is not None:
                key = (0, e)
                counts[key] = counts.get(key, 0) + 1
        affine_sum = ring.from_exponent_counts(counts)
        slices.append({"j": j, "r": r_vars, "sum": affine_sum,
                       "checks": checks})
        rhs = ring.add(rhs, ring.mul(unit_factor, affine_sum))
    # the a = 0 point contributes chi(G(0)) = chi(0) exactly
    zero_term = ring.zero if chi_index else ring.one
    rhs = ring.add(rhs, zero_term)

    return {
        "id": "slicing",
        "params": {
            "q": k.size, "pi": pr.format_poly(k, pi), "ell": ell,
            "chi_index": chi_index, "n": form.n, "m": form.m,
        },
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "unit_factor": unit_factor,
        "slices": slices,
    }


def katz_slice_audit(k, pi, ell: int, form: geo.MultiForm,
                     chi_index: int) -> dict:
    """Per-slice audit: |sum_b chi(g_j(b))| <= (m - 1) * Q^(r/2) whenever the
    slice is a certified Deligne polynomial (degree preserved, coprime to the
    characteristic, smooth top form); otherwise the row is marked
    not-applicable instead of pass/fail.  Also reports whether the slicing
    identity held exactly.
    """
    if not 0 < chi_index < ell:
        raise ValueError("the slice audit needs a non-principal character")
    res = slicing_identity(k, pi, ell, form, chi_index)
    ring = residue_data(k, pi, ell).ring
    Q = k.size ** pr.degree(pi)
    rows = []
    all_pass = True
    for item in res["slices"]:
        checks = item["checks"]
        top_smooth = checks["top_form_smooth"]
        deligne = (
            checks["degree_preserved"]
            and checks["top_form_matches"]
            and form.m % k.char != 0
            and (top_smooth is None or top_smooth.status == "smooth")
        )
        abs_s = ring.abs_embed(item["sum"])
        bound = (form.m - 1) * Q ** (item["r"] / 2.0)
        row = {
            "j": item["j"],
            "r": item["r"],
            "abs_sum": abs_s,
            "bound": bound,
            "deligne": deligne,
            "pass": ((abs_s <= bound * (1 + cs.MAGNITUDE_TOL)) if deligne
                     else None),
        }
        if deligne and not row["pass"]:
            all_pass = False
        rows.append(row)
    return {
        "identity_equal": res["equal"],
        "rows": rows,
        "all_pass": all_pass and res["equal"],
    }


def gauss_twist_identity(k, pi, ell: int, form: geo.MultiForm, w,
                         chi_index: int) -> dict:
    """Complete S_G(w, chi) through Gauss sums, exactly, for w != 0.

    With tau(chi) = sum_alpha chi(alpha) psi(alpha/pi) and
    T_beta = sum_a psi((beta G(a) - w.a)/pi), checks both

        S_G(w, chi) * tau(conj chi)  ==  sum_{beta != 0} conj(chi)(beta) T_beta
        S_G(w, chi) * chi(-1) * q^Delta  ==  tau(chi) * (same right side)

    as exact cyclotomic values, and audits every |T_beta| against the
    additive-sum bound (m - 1)^(n+1) * Q^((n+1)/2) (applicable when the
    reduced form is smooth: beta G is then a Deligne polynomial).
    """
    if not 0 < chi_index < ell:
        raise ValueError("completion needs a non-principal character")
    ctx = cs.CharSumContext(pi, ell, form)
    kpi, ring = ctx.kpi, ctx.ring
    Q, nvars = ctx.Q, ctx.nvars
    if all(kpi.is_zero(i) for i in w_indices(ctx, w)):
        raise ValueError("completion requires w != 0")

    S = char_sum(ctx, w, chi_index)
    conj_index = (ell - chi_index) % ell
    tau_chi = gauss_sum(ctx.data, chi_index)
    tau_conj = gauss_sum(ctx.data, conj_index)

    p = kpi.char
    psi = ctx.data.psi_exp
    chi_exp = ctx.data.chi_exp
    g_vals = ctx.g_values
    # psi((beta G(a) - w.a)/pi) = psi(beta G(a)/pi) psi(-w.a/pi)
    phase_list = phases(ctx, w)

    texts = cs.element_texts(kpi)
    bound_beta = (form.m - 1) ** nvars * Q ** (nvars / 2.0)
    smooth = geo.hypersurface_verdicts(kpi, ctx.reduced_terms, nvars,
                                       search_bound=SLICE_SEARCH_BOUND)[0]
    deligne_applicable = smooth.status == "smooth"

    rhs_counts: dict = {}
    beta_rows = []
    betas_pass = True
    for b_idx in range(1, Q):
        jb = (conj_index * chi_exp[b_idx]) % ell
        inner: dict = {}
        for gv, phase in zip(g_vals, phase_list):
            pe = (psi[kpi.mul(b_idx, gv)] + phase) % p
            inner[pe] = inner.get(pe, 0) + 1
        t_beta = ring.from_exponent_counts({(pe, 0): c for pe, c in inner.items()})
        abs_t = ring.abs_embed(t_beta)
        ok = abs_t <= bound_beta * (1 + cs.MAGNITUDE_TOL)
        if deligne_applicable and not ok:
            betas_pass = False
        beta_rows.append({
            "beta": texts[b_idx],
            "abs": abs_t,
            "bound": bound_beta,
            "pass": ok if deligne_applicable else None,
        })
        for pe, c in inner.items():
            key = (pe, jb)
            rhs_counts[key] = rhs_counts.get(key, 0) + c
    rhs = ring.from_exponent_counts(rhs_counts)

    lhs1 = ring.mul(S, tau_conj)
    chi_minus1 = ring.monomial(
        0, (chi_index * chi_exp[kpi.neg(kpi.one)]) % ell)
    lhs2 = ring.mul(ring.mul(S, chi_minus1), ring.from_int(Q))
    rhs2 = ring.mul(tau_chi, rhs)

    completion_exact = lhs1 == rhs
    normalized_exact = lhs2 == rhs2
    return {
        "id": "gauss-twist",
        "params": {
            "q": k.size, "pi": pr.format_poly(k, pi), "ell": ell,
            "chi_index": chi_index, "w": cs.format_covector(kpi, w),
        },
        "lhs": lhs1,
        "rhs": rhs,
        "equal": completion_exact and normalized_exact,
        "completion_exact": completion_exact,
        "normalized_exact": normalized_exact,
        "deligne_applicable": deligne_applicable,
        "beta_rows": beta_rows,
        "all_pass": completion_exact and normalized_exact and betas_pass,
    }


def audit_rows(audit: dict):
    """Each row of a wd_audit result, made as it is asked for, in the order
    of the characters and, for each, of the ws: a dict of q, Delta, pi,
    ell, chi_index, w, case, abs_S, bound, ratio, pass.  Every pass makes
    new rows."""
    head, verdicts = audit["head"], audit["verdicts"]
    for chi_index, sums in audit["sums"].items():
        for w_text, case, S in zip(audit["w"], audit["case"], sums):
            abs_s, bound, ratio, ok = verdicts[case, S]
            yield {
                **head,
                "chi_index": chi_index,
                "w": w_text,
                "case": case,
                "abs_S": abs_s,
                "bound": bound,
                "ratio": ratio,
                "pass": ok,
            }


def normalize(obj):
    """JSON-normal form: Fractions become exact integers or "num/den"
    strings, floats are rounded to 12 significant digits, tuples become
    lists, dict keys become strings.  normalize is idempotent, so parsing an
    emitted artifact gives back exactly the normalized report."""
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(key): normalize(value) for key, value in obj.items()}
    return str(obj)
