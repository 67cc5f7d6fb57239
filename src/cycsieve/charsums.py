"""Mixed character sums over residue fields and their bound audit.

The central object is

    S_G(w, chi) = sum over a in k_pi^(n+1) of chi(G(a)) * psi_infty(-w.a / pi)

for a form G reduced mod a monic prime pi, a multiplicative character chi of
order dividing ell, and a covector w in k_pi^(n+1).  Values are exact
elements of Z[zeta_p, zeta_ell]: the kernel accumulates integer exponent
counters over index tables and canonicalizes once per sum.  The table of G
over k_pi^(n+1) comes from ``geometry.index_evaluator``, the evaluation the
closed-form dual test also runs on the same cached tables (``field_tables``).

Both routes rest on the additivity of the psi exponent over k_pi,
psi_exp[x + y] = psi_exp[x] + psi_exp[y] (mod p).  ``char_sum`` builds the
phase of -w.a at every point a as the outer sum of one Q-entry row per
coordinate (``CharSumContext.phases``) and counts (phase, chi exponent)
pairs.  The family {S_G(w, chi)}_w over every covector w is a Fourier
transform over F_p^N (N = Delta e (n+1), q = p^e): ``all_sums`` reads the
phase as an F_p-linear functional of the point's base-p digits, runs one
exact radix-p transform of integer counters and reads every chi of order
dividing ell from the same counters, for about N ell p^2 Q^(n+1) steps
against Q^(2(n+1)) for one ``char_sum`` per w.

On top of the kernel, the square-root cancellation audit (``wd_audit``):
every |S_G(w, chi)| is compared with the proved bound for its case -- w = 0
("i"), w on the dual variety ("ii"), w off the dual variety ("iii"; here the
normalized ratio |S| / q^((n+1) Delta / 2) is also logged, since no explicit
constant is asserted for this case).  The case comes from the
dual-membership test that ``geometry.dual_membership_test`` builds once per
prime, and the case and the text of each w are computed once for every chi.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from collections import Counter

from . import geometry as geo
from . import polyring as pr
from .characters import MultChar, residue_data
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

    def charge_each(self, charges):
        """Charge each of the charges in turn."""
        for n in charges:
            self.charge(n)


# ---------------------------------------------------------------------------
# the kernel


class CharSumContext:
    """Per-(pi, ell, form) tables for bulk evaluation of S_G(w, chi).

    G is the reduction of the given form mod pi; monomials whose coefficient
    vanished are simply absent (the sum is still over the stated form's
    reduction, whatever its shape).
    """

    def __init__(self, k, pi, ell: int, form: geo.MultiForm):
        if form.k != k:
            raise ValueError("form is defined over a different field")
        self.ell = ell
        self.nvars = form.n + 1
        self.data = residue_data(k, pi, ell)
        self.kpi = self.data.kpi
        self.ring: CycRing = self.data.ring
        self.tables = field_tables(self.kpi)
        self.Q = self.kpi.size
        self.idx_zero = self.tables.index[self.kpi.zero]
        _, self.reduced_terms, _ = geo.reduce_form(form, pi)
        # G(a) as an element index at every a in k_pi^(n+1), in the order of
        # itertools.product(range(Q), repeat=n+1) on coordinate indices
        evaluate = geo.index_evaluator(self.tables, self.reduced_terms)
        self.g_values = list(map(evaluate, itertools.product(
            range(self.Q), repeat=self.nvars)))

    # -- sums -------------------------------------------------------------

    def _w_indices(self, w):
        if len(w) != self.nvars:
            raise ValueError(
                f"w needs {self.nvars} coordinates, got {len(w)}")
        return [self.tables.index[x] for x in w]

    def phases(self, w):
        """The exponent of psi_infty(-w.a/pi) = zeta_p^phase at every point
        a, mod p.  psi_exp is additive, so the phase of a is the sum over
        its coordinates of one Q-entry row x -> psi_exp[-w_i x]: the list is
        the outer sum of the rows."""
        widx = self._w_indices(w)
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
        # per residue index: the zeta_ell exponent of chi_index there, or
        # None where the character vanishes
        jtab = list(map(MultChar(self.data, chi_index).exponent_at,
                        range(self.Q)))
        counts = Counter(zip(self.phases(w),
                             map(jtab.__getitem__, self.g_values)))
        return self.ring.from_exponent_counts(
            {key: c for key, c in counts.items() if key[1] is not None})

    def all_sums(self, chi_indices, positions=None):
        """{chi_index: an iterator over S_G(w, chi_index) for every w, in
        the order of g_values, or for the w at the given flat positions in
        that order} for non-principal characters, from one exact radix-p
        transform.

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
        check_digitwise_addition(self.tables, p)
        chi_exp = self.data.chi_exp
        # 64-bit integer arrays, not lists of int objects, to keep the
        # layers small; a count is at most size, so it stays exact (an
        # array raises on overflow, it never wraps)
        layers = [[array('q', [0]) * size for _ in range(ell)]
                  for _ in range(p)]
        for pos, gv in enumerate(self.g_values):
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
        if positions is not None:
            cs = [cs[pos] for pos in positions]
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


def all_sums_cost(q: int, delta: int, n: int, ell: int) -> int:
    """Innermost evaluations of all_sums mod a prime of degree delta: the
    table of G on k_pi^(n+1) that the context builds, then the
    transform."""
    size = q ** (delta * (n + 1))
    return size + transform_cost(prime_factors(q)[0], ell, size)


def wd_audit(k, pi, ell: int, form: geo.MultiForm, chi_indices=None,
             dual="auto", ws=None) -> dict:
    """Audit |S_G(w, chi)| against the per-case bounds.

    Defaults: every non-principal chi of order dividing ell and every
    w in k_pi^(n+1), whose sums come from one transform (all_sums); given
    ws, each sum is its own char_sum.  Returns {"rows": [...],
    "summary": {...}}; each row carries q, Delta, pi, ell, chi_index, w,
    case, abs_S, bound, ratio, pass.  For case "iii" (and "unknown") the
    ratio column is |S| / q^((n+1) Delta / 2); for cases "i"/"ii" it is
    |S| / bound.  A caller prices the audit of every w first, by
    all_sums_cost and the dual test's dual_test_cost.
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

    on_dual = geo.dual_membership_test(form, pi, dual=dual)
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
