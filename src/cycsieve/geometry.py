"""Projective hypersurface geometry for forms over F_q[T].

Provides the geometric side of the sieve: multivariate forms with polynomial
coefficients, reduction modulo primes, Dwork-regularity verdicts (a form is
Dwork-regular when the system H = 0, X_i * dH/dX_i = 0 for all i has no
projective solution over the algebraic closure), smoothness verdicts,
projective duality and the exceptional-prime scan.

Conventions:
  * a "terms" mapping sends an exponent tuple (one entry per variable) to a
    nonzero coefficient; coefficients live either in F_q[T] (MultiForm) or in
    a field object (reduced forms),
  * verdicts carry a witness point plus the degree of the extension it lives
    in (``extension_of(field, ext_degree)`` reconstructs that field), or the
    search bound that was exhausted when the answer is "unknown",
  * each verdict picks its route from the shape of the form, with no option:
    a closed form (the missing-variable rule for diagonal forms, the matrix
    of a quadric) where one applies, else a search,
  * all decisions are exact; a search never reports a negative, it reports
    "unknown" when it finds no witness,
  * every search over points of extension fields goes through the one
    generator ``_extension_points``,
  * linear algebra runs through one row reduction (``_rref``), under
    ``mat_det``, ``mat_kernel_vector`` and ``mat_adjugate``; matrices over
    F_q[T] are handled by these field routines over K = F_q(T)
    (``RationalFunctionField``),
  * dual-variety membership mod a prime is decided by the test that
    ``dual_membership_test`` builds once per (form, pi, route): the closed-form
    quadric dual ("auto" for m = 2), a supplied dual, or the set of tangent
    covectors at smooth points found by the extension search,
  * the closed-form routes evaluate the reduced dual on the index tables of
    k_pi that the char-sum kernel caches (``charsums.field_tables``), through
    ``index_evaluator``, the one per-point evaluation the kernel's table of
    G also uses; the tangency route and the extension search stay in tuple
    arithmetic.
"""

from __future__ import annotations

import dataclasses
import itertools

from . import polyring as pr
from .polyring import NEG_INF, RationalFunctionField

# ---------------------------------------------------------------------------
# forms with coefficients in F_q[T]


class MultiForm:
    """A homogeneous form of degree m in the n+1 variables X_0 .. X_n with
    coefficients in F_q[T]."""

    def __init__(self, k, n: int, m: int, terms):
        if n < 0 or m < 1:
            raise ValueError("need n >= 0 and degree m >= 1")
        self.k = k
        self.n = n
        self.m = m
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n + 1:
                raise ValueError(f"exponent tuple {exps} needs {n + 1} entries")
            if any(e < 0 for e in exps) or sum(exps) != m:
                raise ValueError(f"monomial {exps} is not of total degree {m}")
            coeff = pr.normalize(k, coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = {e: clean[e] for e in sorted(clean, reverse=True)}

    def __eq__(self, other):
        return (
            isinstance(other, MultiForm)
            and other.k == self.k
            and (other.n, other.m, other.terms) == (self.n, self.m, self.terms)
        )

    def __repr__(self):
        return f"MultiForm(n={self.n}, m={self.m}, {len(self.terms)} terms)"

    def deg_T(self):
        """Largest T-degree among the coefficients (NEG_INF for the zero form)."""
        return max((pr.degree(c) for c in self.terms.values()), default=NEG_INF)


def _is_diagonal(terms) -> bool:
    """Is every monomial a pure power of one variable?"""
    return all(sum(1 for e in exps if e) <= 1 for exps in terms)


def form_from_json(k, obj) -> MultiForm:
    """Build a form from ``{"n": .., "m": .., "terms": [{"exps": [..],
    "coeff": "poly text"}, ..]}``; duplicate exponent tuples are rejected."""
    try:
        n, m, raw = int(obj["n"]), int(obj["m"]), obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError("form object needs keys n, m, terms") from exc
    terms = {}
    for item in raw:
        exps = tuple(int(e) for e in item["exps"])
        if exps in terms:
            raise ValueError(f"duplicate monomial {exps}")
        terms[exps] = pr.parse_poly(k, item["coeff"])
    return MultiForm(k, n, m, terms)


def form_to_json(form: MultiForm) -> dict:
    """Inverse of form_from_json; terms in descending exponent order."""
    return {
        "n": form.n,
        "m": form.m,
        "terms": [
            {"exps": list(exps), "coeff": pr.format_poly(form.k, coeff)}
            for exps, coeff in form.terms.items()
        ],
    }


def reduce_form(form: MultiForm, pi):
    """Reduce every coefficient mod pi.

    Returns (k_pi, terms over k_pi, dropped) where ``dropped`` lists the
    monomials whose coefficient vanished mod pi (a degree drop of the model).
    """
    kpi = pr.residue_field(form.k, pi)
    terms, dropped = {}, []
    for exps, coeff in form.terms.items():
        r = kpi.reduce_poly(coeff)
        if kpi.is_zero(r):
            dropped.append(exps)
        else:
            terms[exps] = r
    return kpi, terms, dropped


def form_over_fraction_field(form: MultiForm):
    """The same form with coefficients in K = F_q(T); lets the closed-form
    regularity routes run over the global field."""
    K = RationalFunctionField(form.k)
    return K, {exps: K.from_poly(c) for exps, c in form.terms.items()}


# ---------------------------------------------------------------------------
# evaluation and derivatives of terms over a field


def eval_terms(field, terms, point):
    """Sum of coeff * prod(point_i ** e_i) over the terms."""
    out = field.zero
    for exps, coeff in terms.items():
        t = coeff
        for x, e in zip(point, exps):
            if e:
                t = field.mul(t, field.power(x, e))
        out = field.add(out, t)
    return out


def index_evaluator(tables, terms):
    """eval_terms on the index tables of a field: the function that takes a
    point as the element indices of its coordinates and returns the index
    of the value of the terms there."""
    Q, mul, add = tables.size, tables.mul, tables.add
    monomials = [(tables.index[c], exps) for exps, c in terms.items()]
    maxe = max((max(exps) for exps in terms), default=0)
    one, zero = tables.index[tables.field.one], tables.index[tables.field.zero]
    # powers[x][e]: the index of x^e
    powers = []
    for x in range(Q):
        row = [one]
        for _ in range(maxe):
            row.append(mul[row[-1] * Q + x])
        powers.append(row)

    def evaluate(point):
        acc = zero
        for t, exps in monomials:
            for x, e in zip(point, exps):
                if e:
                    t = mul[t * Q + powers[x][e]]
            acc = add[acc * Q + t]
        return acc
    return evaluate


def partial_terms(field, terms, i: int):
    """Formal partial derivative with respect to variable i."""
    out = {}
    for exps, coeff in terms.items():
        e = exps[i]
        if e == 0:
            continue
        factor = field.from_int(e)
        if field.is_zero(factor):
            continue
        nexps = exps[:i] + (e - 1,) + exps[i + 1 :]
        out[nexps] = field.add(out.get(nexps, field.zero), field.mul(coeff, factor))
    return {e: c for e, c in out.items() if not field.is_zero(c)}


def dwork_system_holds(field, terms, nvars: int, point) -> bool:
    """H(P) = 0 and P_i * (dH/dX_i)(P) = 0 for every i, with P != 0."""
    if all(field.is_zero(x) for x in point):
        return False
    if not field.is_zero(eval_terms(field, terms, point)):
        return False
    for i in range(nvars):
        if field.is_zero(point[i]):
            continue
        di = eval_terms(field, partial_terms(field, terms, i), point)
        if not field.is_zero(field.mul(point[i], di)):
            return False
    return True


def projective_points(field, nvars: int):
    """P^{nvars-1}(field), one representative per point: the first nonzero
    coordinate is 1.  Deterministic order (pivot, then element order)."""
    elems = list(field.elements())
    for pivot in range(nvars):
        for rest in itertools.product(elems, repeat=nvars - pivot - 1):
            yield (field.zero,) * pivot + (field.one,) + rest


def _projective_count(Q: int, nvars: int, search_bound: int) -> int:
    """The number of points _extension_points walks over F_Q: those of
    P^(nvars-1) over each extension of degree 1 .. search_bound."""
    return sum((Q ** (r * nvars) - 1) // (Q ** r - 1)
               for r in range(1, search_bound + 1))


def _extension_points(field, term_maps, nvars: int, search_bound: int):
    """The extension-point search: for r = 1 .. search_bound, yield
    (r, ext, term maps embedded in ext, point) for every point of
    P^(nvars-1)(ext), where ext is the degree-r extension of field.
    Deterministic order."""
    if field.size is None:
        raise ValueError("an extension-point search needs a finite field")
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(field, r)
        emb = (lambda c: c) if r == 1 else ext.embed_base
        maps = [{e: emb(c) for e, c in t.items()} for t in term_maps]
        for point in projective_points(ext, nvars):
            yield r, ext, maps, point


# ---------------------------------------------------------------------------
# exact linear algebra over any field object


def _rref(field, m, n):
    """In-place reduced row echelon form of the n-row matrix m on its
    leading n columns.  Returns the pivot column list and the product of
    the pivots, negated for each row swap: the determinant of the leading
    n x n block when all n columns have a pivot."""
    pivots = []
    det = field.one
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if not field.is_zero(m[r][col])), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = field.neg(det)
        det = field.mul(det, m[row][col])
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, v) for v in m[row]]
        for r in range(n):
            if r != row and not field.is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return pivots, det


def mat_det(field, mat):
    """Determinant of a square matrix, read off its row reduction."""
    n = len(mat)
    pivots, det = _rref(field, [list(row) for row in mat], n)
    return det if len(pivots) == n else field.zero


def mat_kernel_vector(field, mat):
    """A nonzero kernel vector of a square matrix, or None if nonsingular."""
    n = len(mat)
    m = [list(row) for row in mat]
    pivots, _ = _rref(field, m, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    j = free[0]
    vec = [field.zero] * n
    vec[j] = field.one
    for r, c in enumerate(pivots):
        vec[c] = field.neg(m[r][j])
    return tuple(vec)


def mat_adjugate(field, mat):
    """Adjugate (transposed cofactor matrix), so mat * adj = det * I, from
    one row reduction of [A | I] to [R | E], where E A = R.  With d the
    signed product of the pivots, E has determinant 1/d, and
    adj(A) = d adj(R) E.  At full rank R = I, so adj(A) = d E.  At rank
    <= n - 2 every cofactor vanishes.  At rank n - 1 the last row of R is
    zero and one column j has no pivot, so the only nonzero column of
    adj(R) is its last, (-1)^(j+n-1) times the kernel vector v of R with
    v_j = 1: adj(A) = (-1)^(j+n-1) d v w, w the last row of E."""
    n = len(mat)
    m = [list(row) + [field.one if c == r else field.zero for c in range(n)]
         for r, row in enumerate(mat)]
    pivots, det = _rref(field, m, n)
    if len(pivots) == n:
        return [[field.mul(det, e) for e in row[n:]] for row in m]
    if len(pivots) < n - 1:
        return [[field.zero] * n for _ in range(n)]
    j = next(c for c in range(n) if c not in pivots)
    v = [field.zero] * n
    v[j] = field.one
    for r, c in enumerate(pivots):
        v[c] = field.neg(m[r][j])
    scale = det if (j + n - 1) % 2 == 0 else field.neg(det)
    w = [field.mul(scale, e) for e in m[n - 1][n:]]
    return [[field.mul(a, e) for e in w] for a in v]


# ---------------------------------------------------------------------------
# regularity and smoothness verdicts


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Outcome of a geometric decision.

    status       -- "regular" | "irregular" (Dwork checks),
                    "smooth" | "singular" (smoothness checks), or "unknown"
    witness      -- point over extension_of(field, ext_degree) demonstrating
                    the negative verdict, when there is one
    ext_degree   -- degree of the witness field over the field that was asked
    search_bound -- for "unknown": extensions of degree <= this were searched
    """

    status: str
    witness: tuple | None = None
    ext_degree: int | None = None
    search_bound: int | None = None


def quadric_matrix_over(field, terms, nvars: int):
    """Symmetric matrix A with x^T A x equal to the quadratic form (char != 2)."""
    if field.char == 2:
        raise ValueError("quadric matrix needs odd characteristic")
    half = field.inv(field.from_int(2))
    A = [[field.zero] * nvars for _ in range(nvars)]
    for exps, coeff in terms.items():
        sup = [i for i, e in enumerate(exps) if e]
        if len(sup) == 1 and exps[sup[0]] == 2:
            A[sup[0]][sup[0]] = coeff
        elif len(sup) == 2 and all(exps[i] == 1 for i in sup):
            i, j = sup
            A[i][j] = A[j][i] = field.mul(coeff, half)
        else:
            raise ValueError("terms do not describe a quadratic form")
    return A


def _validated_irregular(field, terms, nvars, witness, ext_degree):
    if ext_degree == 1:
        fld, wterms = field, terms
    else:
        fld = pr.extension_of(field, ext_degree)
        emb = fld.embed_base
        wterms = {e: emb(c) for e, c in terms.items()}
    if not dwork_system_holds(fld, wterms, nvars, witness):
        raise RuntimeError("internal error: irregularity witness failed re-validation")
    return Verdict("irregular", tuple(witness), ext_degree)


def _missing_variable(field, terms, nvars: int):
    """The closed form of both checks for a diagonal form, sum c_i X_i^m
    over a subset of the variables with m coprime to the characteristic:
    dH/dX_i = m c_i X_i^(m-1), so a common zero has X_i = 0 wherever c_i
    != 0, and the form is regular and smooth iff every variable appears.
    Returns the witness e_i of the first missing variable i, or None."""
    present = {next(i for i, e in enumerate(exps) if e) for exps in terms}
    missing = next((i for i in range(nvars) if i not in present), None)
    if missing is None:
        return None
    return tuple(field.one if j == missing else field.zero for j in range(nvars))


def _quadric_irregular(field, terms, nvars: int):
    """The closed form for m = 2: the form is irregular iff some principal
    minor A_S of its symmetric matrix is singular.  A witness P with support
    S solves A_S v = 0 on v = P|_S, and conversely a kernel vector of A_S
    extended by zeros solves the whole system.  Returns that witness for the
    first singular minor (by size, then S in lexicographic order), or None."""
    A = quadric_matrix_over(field, terms, nvars)
    for size in range(1, nvars + 1):
        for S in itertools.combinations(range(nvars), size):
            v = mat_kernel_vector(field, [[A[i][j] for j in S] for i in S])
            if v is not None:
                witness = [field.zero] * nvars
                for pos, i in enumerate(S):
                    witness[i] = v[pos]
                return tuple(witness)
    return None


def _search_irregular(field, terms, nvars: int, search_bound: int) -> Verdict:
    """A projective point solving the Dwork system, searched over the
    extensions of degree <= search_bound."""
    for r, ext, (ext_terms,), point in _extension_points(
            field, [terms], nvars, search_bound):
        if dwork_system_holds(ext, ext_terms, nvars, point):
            return _validated_irregular(field, terms, nvars, point, r)
    return Verdict("unknown", search_bound=search_bound)


def is_dwork_regular(field, terms, nvars: int, m: int,
                     search_bound: int = 4) -> Verdict:
    """Decide Dwork regularity of a degree-m form over the given field.

    The shape of the form picks the route: the missing-variable rule for a
    diagonal form (the zero form included), the principal-minor criterion
    for m = 2, else a search over the extensions of degree <= search_bound,
    which finds witnesses but never certifies regularity (and needs a
    finite field).  Requires char(field) coprime to m.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    if m % field.char == 0:
        raise ValueError("degree divisible by the characteristic; not supported")
    if _is_diagonal(terms):
        witness = _missing_variable(field, terms, nvars)
    elif m == 2:
        witness = _quadric_irregular(field, terms, nvars)
    else:
        return _search_irregular(field, terms, nvars, search_bound)
    if witness is None:
        return Verdict("regular")
    return _validated_irregular(field, terms, nvars, witness, 1)


def _search_singular(field, terms, nvars: int, search_bound: int) -> Verdict:
    """A projective point where the form and every partial derivative
    vanish, searched over extensions of degree <= search_bound."""
    grads = [partial_terms(field, terms, i) for i in range(nvars)]
    for r, ext, (h, *gs), point in _extension_points(
            field, [terms, *grads], nvars, search_bound):
        if all(ext.is_zero(eval_terms(ext, t, point)) for t in (h, *gs)):
            return Verdict("singular", point, r)
    return Verdict("unknown", search_bound=search_bound)


def _singularity(witness) -> Verdict:
    """The verdict of a closed form that returns a singular point or None."""
    return Verdict("smooth") if witness is None else Verdict("singular", witness, 1)


def projective_singularity(field, terms, nvars: int,
                           search_bound: int = 4) -> Verdict:
    """Singular-point verdict for the projective hypersurface {form = 0}.

    A singular point is a projective point where the form and all partial
    derivatives vanish.  The shape of the form picks the route: the
    missing-variable rule for a diagonal form of degree coprime to the
    characteristic (the zero form included), the kernel of the symmetric
    matrix for a quadric, else a search over the extensions of degree
    <= search_bound ("unknown" if none found).
    """
    degs = {sum(e) for e in terms}
    if len(degs) > 1:
        raise ValueError("form must be homogeneous")
    if _is_diagonal(terms) and all(m % field.char for m in degs):
        return _singularity(_missing_variable(field, terms, nvars))
    if degs == {2}:
        return _singularity(mat_kernel_vector(
            field, quadric_matrix_over(field, terms, nvars)))
    return _search_singular(field, terms, nvars, search_bound)


# ---------------------------------------------------------------------------
# duality


def _polynomial(K, a):
    """An element of K = F_q(T) known to lie in F_q[T], as a polynomial."""
    num, den = a
    if den != (K.k.one,):
        raise RuntimeError("internal error: expected a polynomial entry")
    return num


def _quadric_adjugate(form: MultiForm):
    """Adjugate of the symmetric matrix of a quadratic form (m = 2,
    char != 2), computed over K = F_q(T); its entries are polynomials."""
    if form.m != 2:
        raise ValueError("need a quadratic form")
    K, terms = form_over_fraction_field(form)
    adj = mat_adjugate(K, quadric_matrix_over(K, terms, form.n + 1))
    return [[_polynomial(K, e) for e in row] for row in adj]


def quadric_dual_form(form: MultiForm) -> MultiForm:
    """Dual quadric: x^T A x dualizes to w^T adj(A) w (projectively A^{-1})."""
    k = form.k
    adj = _quadric_adjugate(form)
    nv = form.n + 1
    terms = {}
    for i in range(nv):
        exps = tuple(2 if t == i else 0 for t in range(nv))
        if adj[i][i]:
            terms[exps] = adj[i][i]
        for j in range(i + 1, nv):
            coeff = pr.smul(k, k.from_int(2), adj[i][j])
            if coeff:
                exps = tuple(1 if t in (i, j) else 0 for t in range(nv))
                terms[exps] = coeff
    return MultiForm(k, form.n, 2, terms)


def _normalized(field, v):
    """The nonzero vector v scaled so its first nonzero coordinate is 1."""
    inv = field.inv(next(x for x in v if not field.is_zero(x)))
    return tuple(field.mul(inv, x) for x in v)


def _tangent_covectors(field, terms, nvars: int, search_bound: int) -> dict:
    """{ext: normalized gradients grad H(P) != 0 at the points P of
    {H = 0} over ext} for the extensions of degree <= search_bound."""
    grads = [partial_terms(field, terms, i) for i in range(nvars)]
    found: dict = {}
    for _, ext, (h, *gs), point in _extension_points(
            field, [terms, *grads], nvars, search_bound):
        covectors = found.setdefault(ext, set())
        if not ext.is_zero(eval_terms(ext, h, point)):
            continue
        grad = tuple(eval_terms(ext, g, point) for g in gs)
        if not all(ext.is_zero(x) for x in grad):
            covectors.add(_normalized(ext, grad))
    return found


def _dual_route(form: MultiForm, dual):
    """The route of a dual: "auto" is the closed-form quadric for m = 2 and
    the tangency search otherwise; "tangency" and a supplied MultiForm are
    their own routes."""
    if dual == "auto":
        return "quadric" if form.m == 2 else "tangency"
    if dual == "tangency" or isinstance(dual, MultiForm):
        return dual
    raise ValueError(f"unknown dual specification {dual!r}")


def dual_test_cost(form: MultiForm, Q: int, dual="auto",
                   search_bound: int = 1) -> int:
    """The points dual_membership_test searches mod a prime with Q
    residues: P^n over the extensions up to search_bound on the tangency
    route, none on a closed-form route."""
    if _dual_route(form, dual) != "tangency":
        return 0
    return _projective_count(Q, form.n + 1, search_bound)


def dual_membership_test(form: MultiForm, pi, dual="auto",
                         search_bound: int = 1):
    """The test w -> True | False | None of "does the hyperplane w lie on the
    dual of {F = 0} mod pi?", with the per-prime work done once.

    dual selects the route:
      * "auto": for m = 2 the closed-form dual quadric mod pi, which raises
        if the quadric degenerates mod pi (such a prime belongs in the
        exceptional set); the tangency route otherwise,
      * a MultiForm: caller-supplied dual form, evaluated mod pi,
      * "tangency": is w proportional to a (nonzero) gradient at a point of
        {F = 0 mod pi} over an extension of degree <= search_bound?  True on
        a witness, None when there is none (certifies nothing).
    The test raises on a w of the wrong length or w = 0.  dual_test_cost
    prices the tangency search.
    """
    kpi, terms, _ = reduce_form(form, pi)
    nv = form.n + 1
    dual = _dual_route(form, dual)

    if dual == "tangency":
        tangents = _tangent_covectors(kpi, terms, nv, search_bound)

        def member(w):
            w = _normalized(kpi, w)
            for ext, covectors in tangents.items():
                ext_w = w if ext is kpi else tuple(map(ext.embed_base, w))
                if ext_w in covectors:
                    return True
            return None
    else:
        if dual == "quadric":
            dual = quadric_dual_form(form)
            if kpi.is_zero(mat_det(kpi, quadric_matrix_over(kpi, terms, nv))):
                raise ValueError(
                    "quadric degenerates mod pi; the dual is undefined there "
                    "(exceptional prime)")
        _, dual_terms, _ = reduce_form(dual, pi)
        if not dual_terms:
            raise ValueError("supplied dual form vanishes mod pi")
        # the char-sum kernel's cached tables of k_pi (charsums imports this
        # module, so the import waits until a test is built)
        from .charsums import field_tables
        tables = field_tables(kpi)
        evaluate = index_evaluator(tables, dual_terms)
        index, zero = tables.index, tables.index[kpi.zero]

        def member(w):
            return evaluate([index[x] for x in w]) == zero

    def test(w):
        w = tuple(w)
        if len(w) != nv:
            raise ValueError(f"w needs {nv} coordinates")
        if all(kpi.is_zero(x) for x in w):
            raise ValueError("w must be a nonzero (projective) covector")
        return member(w)
    return test


# ---------------------------------------------------------------------------
# exceptional primes


def exceptional_scan_cost(form: MultiForm, delta_max: int, dual="auto",
                          search_bound: int = 4) -> tuple:
    """The charges of compute_exceptional_primes, in order: its prime
    enumeration, then the points of its smoothness, Dwork and tangent
    searches, priced from the number of primes of each degree.  A reduction
    that turns diagonal or vanishes searches less: never under-charged."""
    q, nv, degrees = form.k.size, form.n + 1, range(1, delta_max + 1)
    searches = 2 * (form.m != 2 and not _is_diagonal(form.terms))
    tangents = form.m != 2 and isinstance(dual, MultiForm)
    return (sum(pr.irreducibles_cost(q, d) for d in degrees),
            sum(pr.count_irreducibles_formula(q, d)
                * (searches * _projective_count(q ** d, nv, search_bound)
                   + tangents * _projective_count(q ** d, nv, 1))
                for d in degrees))


def compute_exceptional_primes(form: MultiForm, delta_max: int, dual="auto",
                               search_bound: int = 4) -> dict:
    """Scan the monic primes of degree <= delta_max and flag the bad ones.

    Tags per prime: "degree-drop" (some coefficient vanishes mod pi),
    "smoothness-fail" (the reduced hypersurface is singular), "dwork-fail"
    (the reduced form is not Dwork-regular), "dual-mismatch" (reduction does
    not commute with the dual: for quadrics an exact adjugate comparison,
    for a supplied dual a check that it vanishes on every tangent covector
    at the smooth k_pi-points).  Checks a search could not decide are listed
    under "unknown" for that prime rather than silently passed.
    exceptional_scan_cost prices the scan.
    """
    k = form.k
    nv = form.n + 1
    if form.m % k.char == 0:
        raise ValueError("degree divisible by the characteristic; not supported")
    quadric = form.m == 2
    adj_poly = _quadric_adjugate(form) if quadric else None
    user_dual = dual if isinstance(dual, MultiForm) else None
    scan = [(d, piv, *reduce_form(form, piv))
            for d in range(1, delta_max + 1) for piv in pr.irreducibles(k, d)]
    entries = []
    exceptional = []
    for d, piv, kpi, terms, dropped in scan:
        tags, unknown = [], []
        if dropped:
            tags.append("degree-drop")
        if not terms:
            tags.extend(["smoothness-fail", "dwork-fail"])
        else:
            sv = projective_singularity(kpi, terms, nv,
                                        search_bound=search_bound)
            if sv.status == "singular":
                tags.append("smoothness-fail")
            elif sv.status == "unknown":
                unknown.append("smoothness")
            dv = is_dwork_regular(kpi, terms, nv, form.m,
                                  search_bound=search_bound)
            if dv.status == "irregular":
                tags.append("dwork-fail")
            elif dv.status == "unknown":
                unknown.append("dwork")
        if quadric:
            adj_then_reduce = [[kpi.reduce_poly(e) for e in row]
                               for row in adj_poly]
            reduce_then_adj = mat_adjugate(
                kpi, quadric_matrix_over(kpi, terms, nv))
            if adj_then_reduce != reduce_then_adj:
                tags.append("dual-mismatch")
        elif user_dual is not None and terms:
            if _user_dual_mismatch(form, piv, user_dual):
                tags.append("dual-mismatch")
        if tags or unknown:
            entries.append({
                "pi": pr.format_poly(k, piv),
                "degree": d,
                "tags": tags,
                "unknown": unknown,
            })
        if tags:
            exceptional.append(pr.format_poly(k, piv))
    return {
        "delta_max": delta_max,
        "scanned": len(scan),
        "entries": entries,
        "exceptional": exceptional,
    }


def _user_dual_mismatch(form: MultiForm, piv, user_dual) -> bool:
    """True when the supplied dual vanishes mod pi or fails to vanish on some
    tangent covector grad H(P) at a smooth k_pi-point of {H = 0}."""
    try:
        on_dual = dual_membership_test(form, piv, dual=user_dual)
    except ValueError:  # the supplied dual vanishes mod pi
        return True
    kpi, terms, _ = reduce_form(form, piv)
    return not all(map(on_dual,
                       _tangent_covectors(kpi, terms, form.n + 1, 1)[kpi]))
