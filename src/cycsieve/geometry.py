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
  * one call, ``hypersurface_verdicts``, gives both verdicts of a form,
    smoothness and Dwork regularity, from one route that the shape of the
    form picks, with no option: a closed form (the missing-variable rule
    for diagonal forms, the matrix of a quadric) where one applies, else
    one search that serves both checks,
  * all decisions are exact; a search never reports a positive, it reports
    "unknown" when it finds no witness,
  * every search over points of extension fields is one walk over the
    zeros of a form, with its gradient there, ``_zeros``, which reads each
    chart of P^n over each extension as ``form_values`` blocks,
  * linear algebra runs through one row reduction (``_rref``), under
    ``mat_det``, ``mat_kernel_vector`` and ``mat_adjugate``; a quadric's
    matrix over F_q[T] gets its adjugate from cofactors by ``_poly_det``,
  * dual-variety membership mod a prime is one column, ``dual_column``,
    with a verdict for every covector in the order of ``form_values``: the
    zeros of the closed-form quadric dual ("auto" for m = 2) or of a
    supplied dual, or the multiples of the tangent covectors at smooth
    points found by the extension search,
  * elements of every finite field, residue fields and their extensions
    alike, are element indices (``ffield``), and a field element is its own
    index in every extension of it, so a form reduced mod pi is also a form
    over each extension the search walks; ``form_values`` builds the whole
    table of a form by outer sums, peeling off one coordinate at a time,
    for the char-sum kernel's table of G, the closed-form dual column and
    the zero walk, and ``eval_terms`` evaluates one point: the gradient at
    a zero, a witness, or a supplied dual at a tangent covector.
"""

from __future__ import annotations

import functools
import itertools
import json

from . import polyring as pr
from .polyring import NEG_INF

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


def json_int(name: str, value) -> int:
    """value, an int or its text (never a bool or a float), as an int."""
    if type(value) in (int, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")


def form_from_json(k, obj) -> MultiForm:
    """Build a form from ``{"n": .., "m": .., "terms": [{"exps": [..],
    "coeff": "poly text"}, ..]}``; duplicate exponent tuples are rejected."""
    try:
        n, m, raw = obj["n"], obj["m"], obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError("form object needs keys n, m, terms") from exc
    n, m = json_int("form n", n), json_int("form m", m)
    if type(raw) is not list or not all(
            type(item) is dict and type(item.get("exps")) is list
            and type(item.get("coeff")) is str for item in raw):
        raise ValueError('form terms must be a list of {"exps": [..], '
                         '"coeff": "poly text"} objects')
    terms = {}
    for item in raw:
        exps = tuple(json_int("form exponent", e) for e in item["exps"])
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


# ---------------------------------------------------------------------------
# evaluation and derivatives of terms over a field


def eval_terms(field, terms, point):
    """Sum of coeff * prod(point_i ** e_i) over the terms."""
    mul, power, add = field.mul, field.power, field.add
    out = field.zero
    for exps, coeff in terms.items():
        t = coeff
        for x, e in zip(point, exps):
            if e:
                t = mul(t, power(x, e))
        out = add(out, t)
    return out


def form_values(field, terms, nvars: int) -> list:
    """The form at every point of field^nvars, in the order of
    itertools.product(range(Q), repeat=nvars), with no Python call per
    entry.  The coordinates are peeled off from x_0 on.  The terms free of
    x_0 form the rest, a form in the other coordinates.  The terms in x_0
    alone add one constant c(a) per value a of x_0.  A term that links x_0
    to other coordinates joins the rest with a^e folded into its
    coefficient, so it is combined only over the coordinates it links.  The
    block of a is the table of its rest read through the row of sums with
    c(a), or its one entry plus c(a) when no coordinate is left; the blocks
    are chained in the order of x_0.  Each distinct rest's table, (c(a),
    rest) block, row of sums and row of constants is built once."""
    Q, zero, add, mul = field.size, field.zero, field.add, field.mul
    repeat = itertools.repeat

    @functools.cache
    def plus(c):
        # x -> c + x
        return [add(c, x) for x in range(Q)]

    @functools.cache
    def consts(alone):
        # a -> the sum of c a^e over the (e, c) in alone
        out = [zero] * Q
        for e, c in alone:
            out = list(map(add, out, map(mul, repeat(c), map(
                field.power, range(Q), repeat(e)))))
        return out

    @functools.cache
    def table(key, nvars):
        if not nvars:
            return [dict(key).get((), zero)]
        rest, alone, linked = {}, [], []
        for exps, c in key:
            if not exps[0]:
                rest[exps[1:]] = c
            elif any(exps[1:]):
                linked.append((exps, c))
            else:
                alone.append((exps[0], c))
        subs = [tuple(rest.items())] * Q
        if linked:
            for a in range(Q):
                sub = dict(rest)
                for exps, c in linked:
                    tail = exps[1:]
                    sub[tail] = add(sub.get(tail, zero),
                                    mul(c, field.power(a, exps[0])))
                subs[a] = tuple(sorted(
                    (exps, c) for exps, c in sub.items() if c))
        keys = list(zip(consts(tuple(alone)), subs))
        blocks = {}
        for c, sub in set(keys):
            tab = table(sub, nvars - 1)
            blocks[c, sub] = (tab if not c else [add(c, *tab)] if nvars == 1
                              else list(map(plus(c).__getitem__, tab)))
        return list(itertools.chain.from_iterable(
            map(blocks.__getitem__, keys)))

    out = table(tuple(sorted(terms.items())), nvars)
    # table refers to itself, so only a collection of the cycle would free
    # the tables it keeps
    table.cache_clear()
    return out


def flat_index(Q: int, point) -> int:
    """The position of point in itertools.product(range(Q), repeat=len(point)),
    the order of form_values."""
    pos = 0
    for x in point:
        pos = pos * Q + x
    return pos


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


def _projective_count(Q: int, nvars: int, search_bound: int) -> int:
    """The number of table cells _zeros reads over F_Q: the points of
    P^(nvars-1) over each extension of degree 1 .. search_bound."""
    return sum((Q ** (r * nvars) - 1) // (Q ** r - 1)
               for r in range(1, search_bound + 1))


# ---------------------------------------------------------------------------
# exact linear algebra over any field object


def _rref(field, m, n):
    """In-place reduced row echelon form of the rows m on their leading n
    columns.  Returns the pivot column list and the product of the pivots,
    negated for each row swap: the determinant of the leading n x n block
    when all n columns have a pivot."""
    pivots = []
    det = field.one
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, len(m)) if not field.is_zero(m[r][col])), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = field.neg(det)
        det = field.mul(det, m[row][col])
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, v) for v in m[row]]
        for r in range(len(m)):
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


class Verdict:
    """Outcome of a geometric decision.

    status       -- "regular" | "irregular" (Dwork checks),
                    "smooth" | "singular" (smoothness checks), or "unknown"
    witness      -- point over extension_of(field, ext_degree) demonstrating
                    the negative verdict, when there is one
    ext_degree   -- degree of the witness field over the field that was asked
    search_bound -- for "unknown": extensions of degree <= this were searched
    """

    __slots__ = ("status", "witness", "ext_degree", "search_bound")

    def __init__(self, status: str, witness: tuple | None = None,
                 ext_degree: int | None = None,
                 search_bound: int | None = None):
        self.status, self.witness = status, witness
        self.ext_degree, self.search_bound = ext_degree, search_bound

    def __eq__(self, other):
        return type(other) is Verdict and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


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
    fld = pr.extension_of(field, ext_degree)
    if not dwork_system_holds(fld, terms, nvars, witness):
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


def _quadric_irregular(field, A):
    """The closed form for m = 2: the form is irregular iff some principal
    minor A_S of its symmetric matrix A is singular.  A witness P with
    support S solves A_S v = 0 on v = P|_S, and conversely a kernel vector
    of A_S extended by zeros solves the whole system.  Returns that witness
    for the first singular minor (by size, then S in lexicographic order),
    or None."""
    nvars = len(A)
    for size in range(1, nvars + 1):
        for S in itertools.combinations(range(nvars), size):
            v = mat_kernel_vector(field, [[A[i][j] for j in S] for i in S])
            if v is not None:
                witness = [field.zero] * nvars
                for pos, i in enumerate(S):
                    witness[i] = v[pos]
                return tuple(witness)
    return None


def _zeros(field, terms, nvars: int, search_bound: int):
    """(r, ext, point, gradient) at each zero of the form on P^(nvars-1)
    over ext, the degree-r extension of field (r = 1 .. search_bound), in
    the order r, the chart {x_pivot = 1, x_i = 0 for i < pivot}, its free
    coordinates in itertools.product order; a chart is read as form_values
    blocks, one for each value a of x_(pivot+1), the form over the rest."""
    if field.size is None:
        raise ValueError("a zero walk needs a finite field")
    grads = [partial_terms(field, terms, i) for i in range(nvars)]
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(field, r)
        for pivot in range(nvars):
            lead = (ext.zero,) * pivot + (ext.one,)
            for head in ([lead + (a,) for a in ext.elements()]
                         if pivot < nvars - 1 else [lead]):
                block, rest = {}, nvars - len(head)
                for exps, c in terms.items():
                    for x, e in zip(head, exps):
                        c = ext.mul(c, ext.power(x, e))
                    if c:
                        tail = exps[len(head):]
                        block[tail] = ext.add(block.get(tail, ext.zero), c)
                for tail in itertools.compress(
                        itertools.product(ext.elements(), repeat=rest),
                        map(ext.zero.__eq__, form_values(ext, block, rest))):
                    point = head + tail
                    yield r, ext, point, tuple(eval_terms(ext, g, point)
                                               for g in grads)


def _search_verdicts(field, terms, nvars: int, search_bound: int) -> tuple:
    """Both verdicts from one walk over the zeros of the form on the
    extensions of degree <= search_bound: the first point solving the Dwork
    system, P_i * dH/dX_i(P) = 0 for every i, and the first singular point,
    where the walk stops; a singular point solves the Dwork system, so the
    Dwork witness is set by then."""
    unknown = Verdict("unknown", search_bound=search_bound)
    dwork = None
    for r, ext, point, grad in _zeros(field, terms, nvars, search_bound):
        if dwork is None and all(ext.is_zero(x) or ext.is_zero(g)
                                 for x, g in zip(point, grad)):
            dwork = _validated_irregular(field, terms, nvars, point, r)
        if all(ext.is_zero(g) for g in grad):
            return Verdict("singular", point, r), dwork
    return unknown, dwork or unknown


def hypersurface_verdicts(field, terms, nvars: int,
                          search_bound: int = 4) -> tuple:
    """The smoothness and the Dwork-regularity verdict of the projective
    hypersurface {H = 0} of a homogeneous form of degree prime to the
    characteristic.

    A singular point is a projective point where the form and every partial
    derivative vanish; a Dwork point one where H and every X_i * dH/dX_i
    vanish.  The shape of the form picks one route for both: the
    missing-variable rule for a diagonal form (the zero form included), the
    symmetric matrix for a quadric (its kernel, and its first singular
    principal minor), else one search over the extensions of degree
    <= search_bound, which finds witnesses but never certifies a positive
    ("unknown"), and needs a finite field.
    """
    degs = {sum(e) for e in terms}
    if len(degs) > 1:
        raise ValueError("form must be homogeneous")
    if any(m % field.char == 0 for m in degs):
        raise ValueError("degree divisible by the characteristic; not supported")
    if _is_diagonal(terms):
        smooth = dwork = _missing_variable(field, terms, nvars)
    elif degs == {2}:
        A = quadric_matrix_over(field, terms, nvars)
        smooth, dwork = mat_kernel_vector(field, A), _quadric_irregular(field, A)
    else:
        return _search_verdicts(field, terms, nvars, search_bound)
    return _singularity(smooth), (
        Verdict("regular") if dwork is None
        else _validated_irregular(field, terms, nvars, dwork, 1))


def _singularity(witness) -> Verdict:
    """The verdict of a closed form that returns a singular point or None."""
    return Verdict("smooth") if witness is None else Verdict("singular", witness, 1)


# ---------------------------------------------------------------------------
# duality


def _poly_det(k, mat):
    """Determinant of a square matrix over F_q[T] by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968), whose every division is exact by
    Sylvester's identity; a remainder raises ArithmeticError."""
    m, sign, last = [list(row) for row in mat], (k.one,), (k.one,)
    for c in range(len(m) - 1):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return ()
        if piv != c:
            m[c], m[piv], sign = m[piv], m[c], pr.neg(k, sign)
        for row in m[c + 1:]:
            for j in range(c + 1, len(m)):
                row[j], rem = pr.divrem(k, pr.sub(k, pr.mul(
                    k, m[c][c], row[j]), pr.mul(k, row[c], m[c][j])), last)
                if rem:
                    raise ArithmeticError("inexact fraction-free division")
        last = m[c][c]
    return pr.mul(k, sign, m[-1][-1]) if m else (k.one,)


def _quadric_adjugate(form: MultiForm):
    """Adjugate of the matrix A of a quadratic form (char != 2) over F_q[T]
    with no fraction field: A is quadric_matrix_over on each T-degree layer
    of the coefficients, adj(A)[i][j] the (j, i) cofactor by _poly_det."""
    k, nv = form.k, form.n + 1
    layers = [quadric_matrix_over(k, {e: c[d] if d < len(c) else k.zero
                                      for e, c in form.terms.items()}, nv)
              for d in range(max(map(len, form.terms.values()), default=0))]
    A = [[pr.normalize(k, [layer[i][j] for layer in layers])
          for j in range(nv)] for i in range(nv)]
    return [[pr.smul(k, k.from_int((-1) ** (i + j)), _poly_det(
        k, [row[:i] + row[i + 1:] for row in A[:j] + A[j + 1:]]))
        for j in range(nv)] for i in range(nv)]


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


def _tangent_covectors(field, terms, nvars: int, search_bound: int) -> set:
    """The normalized gradients grad H(P) != 0 at the points P of {H = 0}
    over the extensions of degree <= search_bound, in one set: field's
    elements keep their indices in every extension, so a covector over
    field is proportional to one of them iff its normalized form is in it."""
    return {_normalized(ext, grad)
            for _, ext, _, grad in _zeros(field, terms, nvars, search_bound)
            if not all(ext.is_zero(x) for x in grad)}


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
    """The work of dual_column mod a prime with Q residues: the points of
    P^n over the extensions up to search_bound on the tangency route, the
    table of the dual form on the Q^(n+1) covectors on a closed-form
    route."""
    if _dual_route(form, dual) != "tangency":
        return Q ** (form.n + 1)
    return _projective_count(Q, form.n + 1, search_bound)


def dual_column(form: MultiForm, pi, dual="auto",
                search_bound: int = 1) -> list:
    """The verdict True | False | None of "does the hyperplane w lie on the
    dual of {F = 0} mod pi?" for every covector w of k_pi^(n+1), in the
    order of form_values; entry 0, w = 0, is None on every route.

    dual selects the route:
      * "auto": for m = 2 the closed-form dual quadric mod pi, which raises
        if the quadric degenerates mod pi (such a prime belongs in the
        exceptional set); the tangency route otherwise,
      * a MultiForm: caller-supplied dual form, evaluated mod pi,
      * "tangency": True where w is proportional to a (nonzero) gradient at
        a point of {F = 0 mod pi} over an extension of degree
        <= search_bound, None elsewhere (certifies nothing).
    A closed-form route is the zero set of the dual form's table.
    dual_test_cost prices the tangency search or the table.
    """
    kpi, terms, _ = reduce_form(form, pi)
    nv, Q = form.n + 1, kpi.size
    dual = _dual_route(form, dual)

    if dual == "tangency":
        column = [None] * Q ** nv
        for w in _tangent_covectors(kpi, terms, nv, search_bound):
            # a covector over k_pi normalizes to one over k_pi; mark its
            # Q - 1 unit multiples
            if max(w) < Q:
                for c in range(1, Q):
                    column[flat_index(Q, [kpi.mul(c, x) for x in w])] = True
        return column
    if dual == "quadric":
        dual = quadric_dual_form(form)
        if kpi.is_zero(mat_det(kpi, quadric_matrix_over(kpi, terms, nv))):
            raise ValueError(
                "quadric degenerates mod pi; the dual is undefined there "
                "(exceptional prime)")
    _, dual_terms, _ = reduce_form(dual, pi)
    if not dual_terms:
        raise ValueError("supplied dual form vanishes mod pi")
    column = [not v for v in form_values(kpi, dual_terms, nv)]
    column[0] = None
    return column


# ---------------------------------------------------------------------------
# exceptional primes


def exceptional_scan_cost(form: MultiForm, delta_max: int, dual="auto",
                          search_bound: int = 4) -> tuple:
    """The charges of compute_exceptional_primes, in order: its prime
    enumeration, then for each prime the q^d entries of its residue tables,
    the points of the one walk that serves its smoothness and Dwork checks,
    and those of its tangent search, priced from the number of primes of
    each degree d.  A reduction that turns diagonal or vanishes, or a walk
    that stops at a singular point, searches less: never under-charged."""
    q, nv, degrees = form.k.size, form.n + 1, range(1, delta_max + 1)
    searches = form.m != 2 and not _is_diagonal(form.terms)
    tangents = isinstance(dual, MultiForm)
    return (sum(pr.irreducibles_cost(q, d) for d in degrees),
            sum(pr.count_irreducibles_formula(q, d)
                * (q ** d
                   + searches * _projective_count(q ** d, nv, search_bound)
                   + tangents * _projective_count(q ** d, nv, 1))
                for d in degrees))


def compute_exceptional_primes(form: MultiForm, delta_max: int, dual="auto",
                               search_bound: int = 4) -> dict:
    """Scan the monic primes of degree <= delta_max and flag the bad ones.

    Tags per prime: "degree-drop" (some coefficient vanishes mod pi),
    "smoothness-fail" (the reduced hypersurface is singular), "dwork-fail"
    (the reduced form is not Dwork-regular), "dual-mismatch" (a supplied
    dual vanishes mod pi or fails to vanish on some tangent covector at the
    smooth k_pi-points).  Checks a search could not decide are listed under
    "unknown" for that prime rather than silently passed.  A quadric's
    adjugate by _quadric_adjugate, reduced mod pi, must equal mat_adjugate
    over k_pi, else ArithmeticError.  exceptional_scan_cost prices the scan.
    """
    k = form.k
    nv = form.n + 1
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
        sv, dv = hypersurface_verdicts(kpi, terms, nv, search_bound)
        if sv.status == "singular":
            tags.append("smoothness-fail")
        elif sv.status == "unknown":
            unknown.append("smoothness")
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
                raise ArithmeticError(
                    f"adjugate routes disagree mod {pr.format_poly(k, piv)}: "
                    "cofactors over F_q[T] reduced, elimination over k_pi")
        if user_dual is not None and terms:
            if _user_dual_mismatch(kpi, terms, nv, piv, user_dual):
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


def _user_dual_mismatch(kpi, terms, nvars: int, piv, user_dual) -> bool:
    """True when the supplied dual vanishes mod pi or fails to vanish on some
    tangent covector grad H(P) at a smooth k_pi-point of {H = 0}, H the form
    reduced mod pi (terms over kpi); the dual is evaluated at those
    covectors only."""
    _, dual_terms, _ = reduce_form(user_dual, piv)
    if not dual_terms:
        return True
    return not all(kpi.is_zero(eval_terms(kpi, dual_terms, w))
                   for w in _tangent_covectors(kpi, terms, nvars, 1))
