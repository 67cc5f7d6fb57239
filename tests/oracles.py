"""Functions only the tests call.  Sieve quantities recomputed point by
point on polynomials, to check the program against: the fiber size and the
ramified set of one box point, and the count of the sieving set against its
lower bound.  Factoring in F_q[T] by trial division, the oracle of the
squarefree solvability route, and the adjugate from n^2 cofactors, the
oracle of the one-elimination adjugate.  The additive character as a cyclotomic value, the check
of a serialized cyclotomic value, the degree of a dual hypersurface and a
Schwartz-Zippel zero count.  And the places of K = F_q(T) with the heights:

Places of K = F_q(T): the infinite place |x/y|_oo = q^(deg x - deg y) and one
finite place per monic irreducible pi with |x/y|_pi = q^(ord_pi y - ord_pi x);
|0|_v = 0.  The product of |x|_v over the infinite place and all primes
dividing numerator or denominator equals 1 exactly (product formula).
Heights: ht_K(x) = |x|_oo; on affine tuples the max of coordinate heights; on
projective points the max of |x_i|_oo over coprime integral coordinates.
"""

import functools
import itertools
from fractions import Fraction

from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve.characters import psi_exponent, residue_data, residue_root_count
from cycsieve.cyclotomic import cyc_ring


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


def ramified_set(k, sset, form: geo.MultiForm, x) -> tuple:
    """The sieving primes dividing F(x) (all of them when F(x) = 0)."""
    g = geo.eval_form_at_polys(form, x)
    if not g:
        return tuple(sset.primes)
    return tuple(p for p in sset.primes if not pr.poly_mod(k, g, p))


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
    return pr.normalize(kpi.base, a)


# ---------------------------------------------------------------------------
# characters, cyclotomic values, geometry


def additive_char_eval(k, x, pi, ell: int) -> tuple:
    """psi_infty(x/pi) as an exact cyclotomic value in Z[zeta_p, zeta_ell]
    (the value itself only involves zeta_p; ell picks the ambient ring)."""
    return cyc_ring(k.char, ell).monomial(psi_exponent(k, x, pi), 0)


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
