"""Mixed character sums over residue fields and their bound audits.

The central object is

    S_G(w, chi) = sum over a in k_pi^(n+1) of chi(G(a)) * psi_infty(-w.a / pi)

for a form G reduced mod a monic prime pi, a multiplicative character chi of
order dividing ell, and a covector w in k_pi^(n+1).  Values are exact
elements of Z[zeta_p, zeta_ell]: the kernel accumulates integer exponent
counters over index tables and canonicalizes once per sum.  The table of G
over k_pi^(n+1) comes from ``geometry.index_evaluator``, the evaluation the
closed-form dual test also runs on the same cached tables (``field_tables``).

Both fast routes rest on the additivity of the psi exponent over k_pi,
psi_exp[x + y] = psi_exp[x] + psi_exp[y] (mod p).  ``char_sum`` builds the
phase of -w.a at every point a as the outer sum of one Q-entry row per
coordinate (``CharSumContext.phases``) and counts (phase, chi exponent)
pairs.  The family {S_G(w, chi)}_w over every covector w is a Fourier
transform over F_p^N (N = Delta e (n+1), q = p^e): ``all_sums`` reads the
phase as an F_p-linear functional of the point's base-p digits, runs one
exact radix-p transform of integer counters and reads every chi of order
dividing ell from the same counters, for about N ell p^2 Q^(n+1) steps
against Q^(2(n+1)) for one ``char_sum`` per w.  ``char_sum_bruteforce``
evaluates psi term by term and is the one route that assumes neither.

On top of the kernel:
  * the square-root cancellation audit: every |S_G(w, chi)| is compared with
    the proved bound for its case -- w = 0 ("i"), w on the dual variety
    ("ii"), w off the dual variety ("iii"; here the normalized ratio
    |S| / q^((n+1) Delta / 2) is also logged, since no explicit constant is
    asserted for this case); the case comes from the dual-membership test
    that ``geometry.dual_membership_test`` builds once per prime, and the
    case and the text of each w are computed once for every chi,
  * the slicing identity (S_G(0, chi) decomposed along first-nonzero-
    coordinate strata) with the per-slice multiplicative-sum bound
    (d-1) * |field|^(r/2) for Deligne slices,
  * the Gauss-sum completion of S_G(w, chi) for w != 0, exact on both
    sides, with the per-beta additive-sum bound (d-1)^r * |field|^(r/2).

Every loop that runs over a full k_pi^(n+1) charges an evaluation budget, so
callers can refuse oversized requests up front.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from collections import Counter

from . import geometry as geo
from . import polyring as pr
from .characters import MultChar, gauss_sum, residue_data
from .cyclotomic import CycRing
from .ffield import FieldTables, prime_factors

TABLES_CACHE_SIZE = 64  # residue fields with tables kept
# relative slack of every comparison of a float magnitude with its bound
MAGNITUDE_TOL = 1e-9


@functools.lru_cache(maxsize=TABLES_CACHE_SIZE)
def field_tables(field) -> FieldTables:
    return FieldTables(field)


# ---------------------------------------------------------------------------
# evaluation budget


class BudgetExceeded(RuntimeError):
    """Raised before starting work that would overrun the evaluation budget."""

    def __init__(self, needed: int, limit: int):
        super().__init__(
            f"evaluation budget exceeded: need >= {needed} innermost "
            f"evaluations, limit is {limit}")
        self.needed = needed
        self.limit = limit


class Budget:
    """Counts innermost evaluations; charge() raises before overrunning."""

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError("budget limit must be nonnegative")
        self.limit = limit
        self.spent = 0

    def charge(self, n: int):
        if self.limit is not None and self.spent + n > self.limit:
            raise BudgetExceeded(self.spent + n, self.limit)
        self.spent += n


# ---------------------------------------------------------------------------
# the kernel


class CharSumContext:
    """Per-(pi, ell, form) tables for bulk evaluation of S_G(w, chi).

    G is the reduction of the given form mod pi; monomials whose coefficient
    vanished are simply absent (the sum is still over the stated form's
    reduction, whatever its shape).
    """

    def __init__(self, k, pi, ell: int, form: geo.MultiForm,
                 budget: Budget | None = None):
        if form.k != k:
            raise ValueError("form is defined over a different field")
        self.k = k
        self.pi = pi
        self.ell = ell
        self.form = form
        self.nvars = form.n + 1
        self.budget = budget
        self.data = residue_data(k, pi, ell)
        self.kpi = self.data.kpi
        self.ring: CycRing = self.data.ring
        self.tables = field_tables(self.kpi)
        self.Q = self.kpi.size
        self.idx_zero = self.tables.index[self.kpi.zero]
        _, self.reduced_terms, _ = geo.reduce_form(form, pi)
        self._g_vals = None

    # -- shared precomputation ------------------------------------------------

    def g_values(self):
        """G(a) as an element index for every a in k_pi^(n+1), the points
        in the order itertools.product(range(Q), repeat=n+1) gives their
        coordinate indices (the order of every per-point list here)."""
        if self._g_vals is None:
            if self.budget is not None:
                self.budget.charge(self.Q ** self.nvars)
            evaluate = geo.index_evaluator(self.tables, self.reduced_terms)
            self._g_vals = list(map(evaluate, itertools.product(
                range(self.Q), repeat=self.nvars)))
        return self._g_vals

    def chi_exponents(self, chi_index: int):
        """Per residue index: the zeta_ell exponent of chi_index at that
        residue, or None where the character vanishes."""
        chi = MultChar(self.data, chi_index)
        return [chi.exponent_at(r) for r in range(self.Q)]

    def _w_indices(self, w):
        if len(w) != self.nvars:
            raise ValueError(
                f"w needs {self.nvars} coordinates, got {len(w)}")
        return [self.tables.index[x] for x in w]

    # -- sums -------------------------------------------------------------

    def phases(self, w):
        """The exponent of psi_infty(-w.a/pi) = zeta_p^phase at every point
        a, mod p.  psi_exp is additive, so the phase of a is the sum over
        its coordinates of one Q-entry row x -> psi_exp[-w_i x]: the list is
        the outer sum of the rows.  The pass is charged to the budget."""
        widx = self._w_indices(w)
        if self.budget is not None:
            self.budget.charge(self.Q ** self.nvars)
        p, Q, mul, neg = self.kpi.char, self.Q, self.tables.mul, self.tables.neg
        psi = self.data.psi_exp
        out = [0]
        for i in widx:
            row = [psi[mul[neg[i] * Q + x]] for x in range(Q)]
            out = [(c + r) % p for c in out for r in row]
        return out

    def char_sum(self, w, chi_index: int):
        """S_G(w, chi_index) as an exact cyclotomic value: the count of each
        (phase, chi exponent) pair over the points."""
        jtab = self.chi_exponents(chi_index)
        counts = Counter(zip(self.phases(w),
                             map(jtab.__getitem__, self.g_values())))
        return self.ring.from_exponent_counts(
            {key: c for key, c in counts.items() if key[1] is not None})

    def char_sum_bruteforce(self, w, chi_index: int):
        """Independent slow route: evaluate chi and psi_infty term by term
        through the generic field/character code (no index tables)."""
        widx = self._w_indices(w)
        kpi, ring = self.kpi, self.ring
        chi = MultChar(self.data, chi_index)
        total = ring.zero
        for a in itertools.product(kpi.elements(), repeat=self.nvars):
            g = geo.eval_terms(kpi, self.reduced_terms, a)
            e = chi.exponent_at(kpi.index(g))
            if e is None:
                continue
            dot = kpi.zero
            for wi, ai in zip(w, a):
                dot = kpi.add(dot, kpi.mul(wi, ai))
            pe = self.data.psi_exp[kpi.index(kpi.neg(dot))]
            total = ring.add(total, ring.monomial(pe, e))
        return total

    def all_sums(self, chi_indices):
        """{chi_index: an iterator over S_G(w, chi_index) for every w, in
        the order of g_values} for non-principal characters, from one exact
        radix-p transform.

        Read a point a through the N base-p digits a_s of its flat index in
        that order (check_digitwise_addition makes that an F_p-linear
        reading).
        Then psi_infty(-w.a/pi) = zeta_p^<c(w), a> with c(w)_s =
        psi_exp[-(w.e_s)], e_s the point of flat index p^s, and

            S_G(w, chi_i) = sum over (k, t) of
                            L[k][t][c(w)] * zeta_p^k * zeta_ell^(i t),

        where L[k][t][c] = #{a : <c, a> = k, chi_exp[G(a)] = t}.  The layers
        L start as the indicator of chi_exp[G(a)] = t in layer k = 0; each of
        the N passes transforms the top digit of the flat index and writes
        the output digit at the bottom, so the digits end in order.  Every
        chi_i comes from the same layers by relabeling t -> i t mod ell.
        """
        if not all(0 < i < self.ell for i in chi_indices):
            raise ValueError("the transform needs non-principal characters")
        p, ell, Q = self.kpi.char, self.ell, self.Q
        size = Q ** self.nvars
        if self.budget is not None:
            self.budget.charge(transform_cost(p, ell, size))
        check_digitwise_addition(self.tables, p)
        chi_exp = self.data.chi_exp
        # 64-bit integer arrays, not lists of int objects, to keep the
        # layers small; a count is at most size, so it stays exact (an
        # array raises on overflow, it never wraps)
        layers = [[array('q', [0]) * size for _ in range(ell)]
                  for _ in range(p)]
        for pos, gv in enumerate(self.g_values()):
            t = chi_exp[gv]
            if t is not None:
                layers[0][t][pos] = 1
        block = size // p
        for _ in range(_base_digits(p, size)):
            # blocks[k][t][d]: the points whose top digit is d
            blocks = [[[layer[d * block:(d + 1) * block] for d in range(p)]
                       for layer in by_t] for by_t in layers]
            layers = []
            for k in range(p):
                by_t = []
                for t in range(ell):
                    out = array('q', [0]) * size
                    for c in range(p):
                        acc = blocks[k][t][0]
                        for d in range(1, p):
                            acc = map(operator.add, acc,
                                      blocks[(k - c * d) % p][t][d])
                        out[c::p] = array('q', acc)
                    by_t.append(out)
                layers.append(by_t)

        # col[x]: the digits of a -> psi_exp[-(x a)] on one coordinate
        mul, neg, psi = self.tables.mul, self.tables.neg, self.data.psi_exp
        units = [p ** r for r in range(_base_digits(p, Q))]
        col = [sum(psi[neg[mul[x * Q + u]]] * u for u in units)
               for x in range(Q)]
        cs = [0]
        for _ in range(self.nvars):
            cs = [c * Q + col[x] for c in cs for x in range(Q)]
        ring = self.ring

        def sums(i):
            for c in cs:
                yield ring.from_exponent_counts(
                    {(k, i * t): layers[k][t][c]
                     for k in range(p) for t in range(ell)})
        return {i: sums(i) for i in chi_indices}

    def trivial_bound(self) -> int:
        return self.Q ** self.nvars


def _base_digits(p: int, size: int) -> int:
    """N with p^N = size."""
    n = 0
    while size > 1:
        size //= p
        n += 1
    return n


def transform_cost(p: int, ell: int, size: int) -> int:
    """Steps of the transform of all_sums over size = p^N points: N passes,
    each summing p blocks of size/p counters for every one of the p outputs
    of the p * ell layers."""
    return _base_digits(p, size) * ell * p * p * size


def check_digitwise_addition(tables: FieldTables, p: int):
    """Raise unless adding two field elements adds the base-p digits of
    their indices mod p, with no carry: all_sums reads the digits of an
    index as its coordinates over F_p."""
    Q = tables.size
    units = [p ** r for r in range(_base_digits(p, Q))]
    digits = [[i // u % p for u in units] for i in range(Q)]
    for i in range(Q):
        for j in range(Q):
            want = sum((x + y) % p * u
                       for x, y, u in zip(digits[i], digits[j], units))
            if tables.add[i * Q + j] != want:
                raise ArithmeticError(
                    f"field addition is not digitwise mod {p} at indices "
                    f"{i} and {j}")


# ---------------------------------------------------------------------------
# square-root cancellation audit


def wd_case_bounds(q: int, delta: int, n: int, m: int):
    """(case-i bound, case-ii bound, normalizer for case iii) as floats."""
    Q = float(q**delta)
    half_codim = Q ** ((n + 2) / 2.0)
    bound_i = n * (m - 1) * half_codim + Q
    bound_ii = (m - 1) ** (n + 1) * half_codim
    normalizer_iii = Q ** ((n + 1) / 2.0)
    return bound_i, bound_ii, normalizer_iii


# dual-membership verdict of a nonzero w -> its audit case
_CASES = {True: "ii", False: "iii", None: "unknown"}


def wd_audit_cost(q: int, delta: int, n: int, ell: int,
                  num_ws: int | None = None,
                  num_chis: int | None = None) -> int:
    """Innermost evaluations of an audit mod a prime of degree delta: the
    table of G on k_pi^(n+1) that the sums share, then the transform of
    all_sums when w runs over all of k_pi^(n+1) (num_ws None), or else one
    sum over k_pi^(n+1) per (w, chi) for num_ws covectors and num_chis
    characters (default: the ell - 1 non-principal ones)."""
    size = q ** (delta * (n + 1))
    if num_ws is None:
        return size + transform_cost(prime_factors(q)[0], ell, size)
    chis = ell - 1 if num_chis is None else num_chis
    return size + chis * num_ws * size


def wd_audit(k, pi, ell: int, form: geo.MultiForm, chi_indices=None,
             dual="auto", ws=None, budget: Budget | None = None) -> dict:
    """Audit |S_G(w, chi)| against the per-case bounds.

    Defaults: every non-principal chi of order dividing ell and every
    w in k_pi^(n+1), whose sums come from one transform (all_sums); given
    ws, each sum is its own char_sum.  Returns {"rows": [...],
    "summary": {...}}; each row carries q, Delta, pi, ell, chi_index, w,
    case, abs_S, bound, ratio, pass.  For case "iii" (and "unknown") the
    ratio column is |S| / q^((n+1) Delta / 2); for cases "i"/"ii" it is
    |S| / bound.  The table of G and the sums are charged to budget before
    any of them runs, and the dual test charges its search before it.
    """
    ctx = CharSumContext(k, pi, ell, form)
    kpi, ring = ctx.kpi, ctx.ring
    n, m = form.n, form.m
    delta = pr.degree(pi)
    bound_i, bound_ii, norm_iii = wd_case_bounds(k.size, delta, n, m)

    if chi_indices is None:
        chi_indices = range(1, ell)
    if not all(0 < chi_index < ell for chi_index in chi_indices):
        raise ValueError("audit characters must be non-principal")
    every_w = ws is None
    if every_w:
        ws = list(itertools.product(kpi.elements(), repeat=ctx.nvars))
    if budget is not None:
        budget.charge(wd_audit_cost(k.size, delta, n, ell,
                                    None if every_w else len(ws),
                                    len(chi_indices)))

    on_dual = geo.dual_membership_test(form, pi, dual=dual, budget=budget)
    if every_w:
        sums = ctx.all_sums(chi_indices)
    else:
        sums = {i: [ctx.char_sum(w, i) for w in ws] for i in chi_indices}

    # the case and the text of each w, shared by every character
    w_cases = ["i" if all(kpi.is_zero(x) for x in w) else _CASES[on_dual(w)]
               for w in ws]
    w_texts = [format_covector(kpi, w) for w in ws]
    rows = []
    cases = {"i": 0, "ii": 0, "iii": 0, "unknown": 0}
    max_ratio_iii = None
    all_pass = True
    pi_text = pr.format_poly(k, pi)
    for chi_index in chi_indices:
        for w_text, case, S in zip(w_texts, w_cases, sums[chi_index]):
            abs_s = ring.abs_embed(S)
            cases[case] += 1
            if case == "i":
                bound, ratio = bound_i, abs_s / bound_i
            elif case == "ii":
                bound, ratio = bound_ii, abs_s / bound_ii
            else:
                bound, ratio = bound_ii, abs_s / norm_iii
                if max_ratio_iii is None or ratio > max_ratio_iii:
                    max_ratio_iii = ratio
            ok = abs_s <= bound * (1 + MAGNITUDE_TOL)
            all_pass = all_pass and ok
            rows.append({
                "q": k.size,
                "Delta": delta,
                "pi": pi_text,
                "ell": ell,
                "chi_index": chi_index,
                "w": w_text,
                "case": case,
                "abs_S": abs_s,
                "bound": bound,
                "ratio": ratio,
                "pass": ok,
            })
    return {
        "rows": rows,
        "summary": {
            "rows": len(rows),
            "cases": cases,
            "all_pass": all_pass,
            "max_ratio_iii": max_ratio_iii,
            "trivial_bound": ctx.trivial_bound(),
        },
    }


@functools.lru_cache(maxsize=TABLES_CACHE_SIZE)
def element_texts(kpi) -> dict:
    """The text of each element of k_pi, its canonical lift, by element."""
    k = kpi.base
    return {x: pr.format_poly(k, pr.normalize(k, x)) for x in kpi.elements()}


def format_covector(kpi, w) -> str:
    """Canonical lifts of the coordinates, semicolon-joined."""
    texts = element_texts(kpi)
    return ";".join([texts[x] for x in w])


# ---------------------------------------------------------------------------
# slicing identity and the per-slice multiplicative bound


def slicing_identity(k, pi, ell: int, form: geo.MultiForm, chi_index: int,
                     budget: Budget | None = None,
                     search_bound: int = 2) -> dict:
    """S_G(0, chi) = sum_j [sum_{u != 0} chi(u)^m] * sum_b chi(g_j(b)).

    Stratify k_pi^(n+1) by the first nonzero coordinate j; on that stratum
    factor out chi(a_j)^m, leaving the dehomogenized slice g_j of
    G_{ {j..n} } at X_j = 1 in the variables j+1..n.  Both routes are exact
    cyclotomic values; "equal" compares them bit for bit.
    """
    ctx = CharSumContext(k, pi, ell, form, budget=budget)
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
        g, checks = geo.slice_and_check(kpi, ctx.reduced_terms, nvars,
                                        form.m, S_j, j,
                                        search_bound=search_bound)
        r_vars = nvars - 1 - j
        counts: dict = {}
        total_points = 0
        for b in itertools.product(kpi.elements(), repeat=r_vars):
            total_points += 1
            e = chi.exponent_at(kpi.index(geo.eval_terms(kpi, g, b)))
            if e is not None:
                key = (0, e)
                counts[key] = counts.get(key, 0) + 1
        if budget is not None:
            budget.charge(total_points)
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


def katz_slice_audit(k, pi, ell: int, form: geo.MultiForm, chi_index: int,
                     budget: Budget | None = None,
                     search_bound: int = 2) -> dict:
    """Per-slice audit: |sum_b chi(g_j(b))| <= (m - 1) * Q^(r/2) whenever the
    slice is a certified Deligne polynomial (degree preserved, coprime to the
    characteristic, smooth top form); otherwise the row is marked
    not-applicable instead of pass/fail.  Also reports whether the slicing
    identity held exactly.
    """
    if not 0 < chi_index < ell:
        raise ValueError("the slice audit needs a non-principal character")
    res = slicing_identity(k, pi, ell, form, chi_index, budget=budget,
                           search_bound=search_bound)
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
            "pass": ((abs_s <= bound * (1 + MAGNITUDE_TOL)) if deligne
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


# ---------------------------------------------------------------------------
# Gauss-sum completion (w != 0)


def gauss_twist_identity(k, pi, ell: int, form: geo.MultiForm, w,
                         chi_index: int, budget: Budget | None = None,
                         search_bound: int = 2) -> dict:
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
    ctx = CharSumContext(k, pi, ell, form, budget=budget)
    kpi, ring, tables = ctx.kpi, ctx.ring, ctx.tables
    Q, nvars = ctx.Q, ctx.nvars
    widx = ctx._w_indices(w)
    if all(i == ctx.idx_zero for i in widx):
        raise ValueError("completion requires w != 0")

    S = ctx.char_sum(w, chi_index)
    conj_index = (ell - chi_index) % ell
    tau_chi = gauss_sum(MultChar(ctx.data, chi_index))
    tau_conj = gauss_sum(MultChar(ctx.data, conj_index))

    if budget is not None:
        budget.charge((Q - 1) * Q**nvars)
    mul, p = tables.mul, kpi.char
    psi = ctx.data.psi_exp
    chi_exp = ctx.data.chi_exp
    g_vals = ctx.g_values()
    # psi((beta G(a) - w.a)/pi) = psi(beta G(a)/pi) psi(-w.a/pi)
    phases = ctx.phases(w)

    texts = element_texts(kpi)
    bound_beta = (form.m - 1) ** nvars * Q ** (nvars / 2.0)
    smooth = geo.projective_singularity(kpi, ctx.reduced_terms, nvars,
                                        search_bound=search_bound)
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
        ok = abs_t <= bound_beta * (1 + MAGNITUDE_TOL)
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
            "chi_index": chi_index, "w": format_covector(kpi, w),
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
