"""Functions only the tests call: slow or sliced second routes that the
program is checked against, kept out of the package because no command runs
them.

* Sieve quantities recomputed point by point on polynomials: F at a box
  point, the fiber size and the ramified set of one box point, and the
  count of the sieving set against its lower bound; the bad primes of the
  scan as polynomials.
* Factoring in F_q[T] by trial division, the oracle of the squarefree
  solvability route, and the adjugate from n^2 cofactors, the oracle of the
  one-elimination adjugate.
* Linear solving and proportionality of vectors, and the affine
  singularity verdict (closed forms for quadratics and sums of pure powers,
  else a search over the points of ext^n) with the slice checks built on
  it.
* The character sum term by term (no index tables); the slicing identity
  for S_G(0, chi) with its per-slice bound audit, which reports the pinned
  cubic violation; and the Gauss-sum completion of S_G(w, chi) for w != 0.
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
from fractions import Fraction

from cycsieve import charsums as cs
from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve.characters import (
    MultChar,
    gauss_sum,
    psi_exponent,
    residue_data,
    residue_root_count,
)
from cycsieve.cyclotomic import cyc_ring
from cycsieve.polyring import NEG_INF


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


def fiber_count(k, pi, ell: int, form: geo.MultiForm, x) -> int:
    """#{y in k_pi : y^ell = F(x) mod pi}, via the residue root table and,
    independently, via the character-sum expression; the two must agree."""
    data = residue_data(k, pi, ell)
    idx = data.kpi.index(data.kpi.reduce_poly(eval_form_at_polys(form, x)))
    by_table = data.root_count[idx]
    by_chars = residue_root_count(data, idx)
    if by_table != by_chars:
        raise ArithmeticError(
            f"fiber routes disagree at {x}: table {by_table}, "
            f"characters {by_chars}")
    return by_table


def ramified_set(k, sset, form: geo.MultiForm, x) -> tuple:
    """The sieving primes dividing F(x) (all of them when F(x) = 0)."""
    g = eval_form_at_polys(form, x)
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
        emb = (lambda c: c) if r == 1 else ext.embed_base
        maps = [{e: emb(c) for e, c in t.items()} for t in (terms, *grads)]
        for point in itertools.product(ext.elements(), repeat=nvars):
            if all(ext.is_zero(geo.eval_terms(ext, t, point)) for t in maps):
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
            geo.projective_singularity(field, h_rest, len(rest),
                                       search_bound=search_bound)
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


def char_sum_bruteforce(ctx: cs.CharSumContext, w, chi_index: int):
    """S_G(w, chi_index) of a context by the generic field and character
    code, chi and psi_infty term by term (no index tables)."""
    ctx._w_indices(w)  # the length check of the kernel's routes
    kpi, ring = ctx.kpi, ctx.ring
    chi = MultChar(ctx.data, chi_index)
    total = ring.zero
    for a in itertools.product(kpi.elements(), repeat=ctx.nvars):
        g = geo.eval_terms(kpi, ctx.reduced_terms, a)
        e = chi.exponent_at(kpi.index(g))
        if e is None:
            continue
        dot = kpi.zero
        for wi, ai in zip(w, a):
            dot = kpi.add(dot, kpi.mul(wi, ai))
        pe = ctx.data.psi_exp[kpi.index(kpi.neg(dot))]
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
    ctx = cs.CharSumContext(k, pi, ell, form)
    kpi, ring = ctx.kpi, ctx.ring
    nvars = ctx.nvars
    chi = MultChar(ctx.data, chi_index)

    lhs = ctx.char_sum((kpi.zero,) * nvars, chi_index)

    # sum over units of chi(u)^m
    unit_counts: dict = {}
    for r in range(1, ctx.Q):
        e = chi.exponent_at(r)
        key = (0, (e * form.m) % ell)
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
            e = chi.exponent_at(kpi.index(geo.eval_terms(kpi, g, b)))
            if e is not None:
                key = (0, e)
                counts[key] = counts.get(key, 0) + 1
        affine_sum = ring.from_exponent_counts(counts)
        slices.append({"j": j, "r": r_vars, "sum": affine_sum,
                       "checks": checks})
        rhs = ring.add(rhs, ring.mul(unit_factor, affine_sum))
    # the a = 0 point contributes chi(G(0)) = chi(0) exactly
    zero_term = ring.zero if not chi.principal else ring.one
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
    ctx = cs.CharSumContext(k, pi, ell, form)
    kpi, ring, tables = ctx.kpi, ctx.ring, ctx.tables
    Q, nvars = ctx.Q, ctx.nvars
    widx = ctx._w_indices(w)
    if all(i == ctx.idx_zero for i in widx):
        raise ValueError("completion requires w != 0")

    S = ctx.char_sum(w, chi_index)
    conj_index = (ell - chi_index) % ell
    tau_chi = gauss_sum(MultChar(ctx.data, chi_index))
    tau_conj = gauss_sum(MultChar(ctx.data, conj_index))

    mul, p = tables.mul, kpi.char
    psi = ctx.data.psi_exp
    chi_exp = ctx.data.chi_exp
    g_vals = ctx.g_values
    # psi((beta G(a) - w.a)/pi) = psi(beta G(a)/pi) psi(-w.a/pi)
    phases = ctx.phases(w)

    texts = cs.element_texts(kpi)
    bound_beta = (form.m - 1) ** nvars * Q ** (nvars / 2.0)
    smooth = geo.projective_singularity(kpi, ctx.reduced_terms, nvars,
                                        search_bound=SLICE_SEARCH_BOUND)
    deligne_applicable = smooth.status == "smooth"

    rhs_counts: dict = {}
    beta_rows = []
    betas_pass = True
    for b_idx in range(Q):
        if b_idx == ctx.idx_zero:
            continue
        jb = (conj_index * chi_exp[b_idx]) % ell
        inner: dict = {}
        for gv, phase in zip(g_vals, phases):
            pe = (psi[mul[b_idx * Q + gv]] + phase) % p
            inner[pe] = inner.get(pe, 0) + 1
        t_beta = ring.from_exponent_counts({(pe, 0): c for pe, c in inner.items()})
        abs_t = ring.abs_embed(t_beta)
        ok = abs_t <= bound_beta * (1 + cs.MAGNITUDE_TOL)
        if deligne_applicable and not ok:
            betas_pass = False
        beta_rows.append({
            "beta": texts[tables.elems[b_idx]],
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
        0, (chi_index * chi_exp[tables.index[kpi.neg(kpi.one)]]) % ell)
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
