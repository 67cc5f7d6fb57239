"""Mixed character sums over residue fields and their bound audit.

The central object is

    S_G(w, chi) = sum over a in k_pi^(n+1) of chi(G(a)) * psi_infty(-w.a / pi)

for a form G reduced mod a monic prime pi, a multiplicative character chi of
order dividing ell, and a covector w in k_pi^(n+1).  Values are exact
elements of Z[zeta_p, zeta_ell]: the kernel accumulates integer exponent
counters and canonicalizes each distinct column of counters once.  Elements
of k_pi are its element indices, and the table of G over k_pi^(n+1) is
``geometry.form_values``: the table of the other coordinates read through
one row of sums per value of x_0, the construction the closed-form dual
column also tabulates its dual form with.

``CharSumContext.sums`` is the one route: psi_exp is additive over k_pi, so
psi_infty(-w.a/pi) = zeta_p^<c(w), a> for an F_p-linear functional c(w) of
the base-p digits of a.  One pass weighs the points by their projection on
the span of the c(w) read, in ell - 1 layers for the non-principal
characters (the zeta_ell^(i t) sum to 0, so ell - 1 differences of chi
exponent classes suffice) and one for chi_0, and one exact radix-p
transform over that span gives every sum on it.  Its counters are 64-bit
fields of arrays, and each pass adds whole blocks of them as packed
integers.

On top of the kernel, the square-root cancellation audit (``wd_audit``):
every |S_G(w, chi)| is compared with the proved bound for its case -- w = 0
("i"), w on the dual variety ("ii"), w off the dual variety ("iii"; here the
normalized ratio |S| / q^((n+1) Delta / 2) is also logged, since no explicit
constant is asserted for this case).  The case comes from the verdict at
w's position in the prime's ``geometry.dual_column``, and the case and the
text of each w are computed once for every chi.  An audit keeps columns,
not rows: the text and case of each w, each chi's references to the
distinct sums, and one verdict per distinct (case, sum).  A row is the
verdict of its (case, sum) with its head, chi and w; the writer of the
artifacts (``reports.Table``) renders each distinct (chi, case, sum) once.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import Counter

from . import geometry as geo
from . import polyring as pr
from .characters import residue_data
from .cyclotomic import CycRing
from .ffield import FIELD_CACHE_SIZE, GF, prime_factors

# relative slack of every comparison of a float magnitude with its bound
MAGNITUDE_TOL = 1e-9


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

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("budget limit must be nonnegative")
        self.limit = limit
        self.spent = 0

    def charge(self, n: int):
        if self.spent + n > self.limit:
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

    def __init__(self, pi, ell: int, form: geo.MultiForm):
        self.ell = ell
        self.nvars = form.n + 1
        self.data = residue_data(form.k, pi, ell)
        self.kpi = self.data.kpi
        self.ring: CycRing = self.data.ring
        self.Q = self.kpi.size
        _, self.reduced_terms, _ = geo.reduce_form(form, pi)
        # G(a) at every a in k_pi^(n+1), in the order of
        # itertools.product(range(Q), repeat=n+1)
        self.g_values = geo.form_values(self.kpi, self.reduced_terms,
                                        self.nvars)

    # -- sums -------------------------------------------------------------

    def sums(self, chi_indices, positions=None):
        """{chi_index: an iterator over S_G(w, chi_index) for the w at the
        given flat positions in that order, or for every w in the order of
        g_values}, from one exact radix-p transform.

        Read a point a through the N base-p digits a_s of its flat index
        (check_digitwise_addition makes that an F_p-linear reading).  Then
        psi_infty(-w.a/pi) = zeta_p^<c(w), a> with c(w)_s =
        psi_exp[-(w.e_s)], e_s the point of flat index p^s.  With b_1..b_r
        the reduced echelon basis of the span of the c(w) read, pivots s_j
        (the standard basis when every w is read), and u(a) = (<b_j, a>)_j,
        the transform of a weight D on the points is

            T(D)[k][c] = sum of D(a) over the a with <c, u(a)> = k,

        and S_G(w, chi) = sum over k of T(chi(G))[k][c(w) at the pivots]
        zeta_p^k.  For i != 0 the zeta_ell^(i t), t < ell, sum to 0, so with
        D_t = 1[chi_exp G = t] - 1[chi_exp G = ell - 1],

            S_G(w, chi_i) = sum over t < ell - 1 and k of
                T(D_t)[k][c] * zeta_p^k * zeta_ell^(i t):

        ell - 1 layers serve every non-principal character.  Each layer is
        the transform of D_t + 1, whose values 0..2 keep the counters
        nonnegative.  u is onto F_p^r, so the transform of the 1 is
        constant in k at every c != 0, where it adds nothing to S, and is
        size at c = 0, k = 0, where it is taken off.  chi_0 is 1 at the
        zeros of G too, so it has its own layer, the transform of 1, built
        only when 0 is in chi_indices.

        The first layer holds the weights of the points by u(a); for every
        w, u(a) is a's flat index.  Each of the r passes transforms the top
        digit and writes the output digit at the bottom, so the digits end
        in order.  A pass reads each digit block of each layer once as one
        int of 64-bit fields and forms each output block as the sum of p
        such ints, with no loop over the counters.
        """
        p, ell, Q = self.kpi.char, self.ell, self.Q
        size = Q ** self.nvars
        r = base_digits(p, size)
        kpi, psi = self.kpi, self.data.psi_exp
        check_digitwise_addition(kpi, p)
        # col[x]: the digits of a -> psi_exp[-(x a)] on one coordinate
        units = [p ** s for s in range(base_digits(p, Q))]
        col = [sum(psi[kpi.neg(kpi.mul(x, u))] * u for u in units)
               for x in range(Q)]
        cs = [0]
        for _ in range(self.nvars):
            cs = [c + x for c in map(Q.__mul__, cs) for x in col]
        proj = None
        if positions is not None:
            cs = [cs[pos] for pos in positions]
            basis = [[c // p ** s % p for s in range(r)] for c in set(cs)]
            pivots, _ = geo._rref(GF(p), basis, r)
            proj = [0] * size
            for j, row in enumerate(basis[:len(pivots)]):
                u = [0]
                for s in reversed(range(r)):
                    u = [(x + d * row[s]) % p for x in u for d in range(p)]
                proj = [v + x * p ** j for v, x in zip(proj, u)]
            cs = [sum(c // p ** s % p * p ** j for j, s in enumerate(pivots))
                  for c in cs]
            r = len(pivots)
        # the weight of each layer at each residue index: D_t + 1 for t <
        # ell - 1 if a non-principal character is read, then 1 for chi_0
        chi_exp = self.data.chi_exp
        diffs = ell - 1 if any(chi_indices) else 0
        weights = [[1 + (e == t) - (e == ell - 1) for e in chi_exp]
                   for t in range(diffs)]
        if 0 in chi_indices:
            weights.append([1] * Q)
        # 64-bit counters in arrays, not lists of int objects, to keep the
        # layers small.  Every counter weighs points by at most 2, so it is
        # at most 2 size, and size points already sit in g_values: a
        # counter never fills its 64-bit field, and the sum of fields never
        # carries
        if proj is None:
            first = [array('q', map(weight.__getitem__, self.g_values))
                     for weight in weights]
        else:
            first = [array('q', [0]) * p ** r for _ in weights]
            for (u, gv), n in Counter(zip(proj, self.g_values)).items():
                for layer, weight in zip(first, weights):
                    layer[u] += n * weight[gv]
        layers = [first] + [[array('q', [0]) * p ** r for _ in weights]
                            for _ in range(p - 1)]
        block = p ** r // p
        order = sys.byteorder  # that of array('q'), which is native
        for _ in range(r):
            # blocks[k][t][d]: the counters of the points whose top digit
            # is d, packed in one int of 64-bit fields
            blocks = [[[int.from_bytes(layer[d * block:(d + 1) * block],
                                       order) for d in range(p)]
                       for layer in by_t] for by_t in layers]
            layers = []
            for k in range(p):
                by_t = []
                for t in range(len(weights)):
                    out = array('q', [0]) * p ** r
                    for c in range(p):
                        # the p blocks of output digit c, field by field
                        acc = sum(blocks[(k - c * d) % p][t][d]
                                  for d in range(p))
                        out[c::p] = array('q', acc.to_bytes(8 * block, order))
                    by_t.append(out)
                layers.append(by_t)
        # the transform of the 1 under each D_t, at c = 0, k = 0
        for layer in layers[0][:diffs]:
            layer[0] -= size
        ring = self.ring

        def read(i):
            # one map over the ws, made when the first sum is asked for
            ts = range(diffs) if i else [diffs]
            keys = [(k, i * t) for k in range(p) for t in ts]

            def columns():
                # the counters of each w in turn
                return zip(*[map(layers[k][t].__getitem__, cs)
                             for k in range(p) for t in ts])
            # each distinct column of counters is canonicalized once
            seen = {counts: ring.from_exponent_counts(dict(zip(keys, counts)))
                    for counts in set(columns())}
            yield map(seen.__getitem__, columns())
        return {i: itertools.chain.from_iterable(read(i))
                for i in chi_indices}

    def trivial_bound(self) -> int:
        return self.Q ** self.nvars


def base_digits(p: int, size: int) -> int:
    """N with p^N = size."""
    n = 0
    while size > 1:
        size //= p
        n += 1
    return n


def sums_cost(q: int, delta: int, n: int, ell: int, r: int) -> int:
    """Innermost evaluations of CharSumContext.sums mod a prime of degree
    delta, reading a span of dimension r over F_p: the table of G on the
    points, their projection on the span unless it is all N dimensions (r
    = N: every w), then r passes, each summing p blocks of p^(r-1) counters
    for every one of the p outputs of the p * ell layers."""
    p, size = prime_factors(q)[0], q ** (delta * (n + 1))
    return (size + (r < base_digits(p, size)) * r * size
            + r * ell * p * p * p ** r)


def check_digitwise_addition(field, p: int):
    """Raise unless adding two field elements (through the field's Zech
    table) adds the base-p digits of their indices mod p, with no carry:
    sums reads the digits of an index as its coordinates over F_p."""
    Q = field.size
    units = [p ** r for r in range(base_digits(p, Q))]
    digits = [[i // u % p for u in units] for i in range(Q)]
    for i in range(Q):
        for j in range(Q):
            want = sum((x + y) % p * u
                       for x, y, u in zip(digits[i], digits[j], units))
            if field.add(i, j) != want:
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


def wd_audit(pi, ell: int, form: geo.MultiForm, chi_indices=None,
             dual="auto", ws=None) -> dict:
    """Audit |S_G(w, chi)| against the per-case bounds.

    Defaults: every non-principal chi of order dividing ell and every
    w in k_pi^(n+1); the sums of the ws come from one transform (sums).
    Returns the columns its rows are made from and the summary: {"head":
    the q, Delta, pi and ell of every row, "w": the text of each w, "case":
    its case, "sums": {chi_index: the sum at each w}, "verdicts": {(case,
    S): (|S|, bound, ratio, pass)}, "summary": {...}}, the summary computed
    from them in one pass over the distinct pairs.  Its rows, in the order
    of the characters and, for each, of the ws, are each the head and
    chi_index, w, case, abs_S, bound, ratio and pass.
    For case "iii" (and "unknown") the ratio is |S| / q^((n+1) Delta / 2),
    and summary.max_ratio_iii is the largest ratio of those rows; for cases
    "i"/"ii" it is |S| / bound.  A caller prices the audit of every w
    first, by sums_cost and the dual column's dual_test_cost.
    """
    ctx = CharSumContext(pi, ell, form)
    kpi, ring = ctx.kpi, ctx.ring
    k, n, m = form.k, form.n, form.m
    delta = pr.degree(pi)
    bound_i, bound_ii, norm_iii = wd_case_bounds(k.size, delta, n, m)

    if chi_indices is None:
        chi_indices = range(1, ell)
    if not all(0 < chi_index < ell for chi_index in chi_indices):
        raise ValueError("audit characters must be non-principal")
    if ws is None:
        w_texts = covector_texts(kpi, ctx.nvars)
        positions = None
    else:
        w_texts = [format_covector(kpi, w) for w in ws]
        positions = [geo.flat_index(ctx.Q, w) for w in ws]

    on_dual = geo.dual_column(form, pi, dual=dual)
    transform = ctx.sums(chi_indices, positions)

    # the case of each w, shared by every character; w = 0 is at position 0
    w_cases = list(map(_CASES.__getitem__, on_dual))
    w_cases[0] = "i"
    if positions is not None:
        w_cases = list(map(w_cases.__getitem__, positions))
    # the sums of each character: references to the distinct sums
    sums = {i: list(transform[i]) for i in chi_indices}
    counts = Counter(w_cases)
    cases = {case: counts[case] * len(sums)
             for case in ("i", "ii", "iii", "unknown")}
    ratios_iii = []
    # (case, S) -> (|S|, bound, ratio, pass), each computed once per
    # distinct pair, and the rows share those floats
    verdicts = {}
    for case, S in dict.fromkeys(itertools.chain.from_iterable(
            zip(w_cases, column) for column in sums.values())):
        abs_s = ring.abs_embed(S)
        if case == "i":
            bound, ratio = bound_i, abs_s / bound_i
        elif case == "ii":
            bound, ratio = bound_ii, abs_s / bound_ii
        else:
            bound, ratio = bound_ii, abs_s / norm_iii
            ratios_iii.append(ratio)
        verdicts[case, S] = abs_s, bound, ratio, (
            abs_s <= bound * (1 + MAGNITUDE_TOL))
    return {
        "head": {"q": k.size, "Delta": delta, "pi": pr.format_poly(k, pi),
                 "ell": ell},
        "w": w_texts,
        "case": w_cases,
        "sums": sums,
        "verdicts": verdicts,
        "summary": {
            "rows": len(w_texts) * len(sums),
            "cases": cases,
            "all_pass": all(ok for *_, ok in verdicts.values()),
            "max_ratio_iii": max(ratios_iii, default=None),
            "trivial_bound": ctx.trivial_bound(),
        },
    }


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def element_texts(kpi) -> list:
    """The text of each element of k_pi, its canonical lift, by index."""
    k = kpi.base
    return [pr.format_poly(k, pr.poly_from_index(k, x, kpi.deg))
            for x in kpi.elements()]


def covector_texts(kpi, nvars: int) -> list:
    """format_covector of every w in k_pi^nvars, in flat-index order."""
    return list(map(";".join, itertools.product(element_texts(kpi),
                                                repeat=nvars)))


def format_covector(kpi, w) -> str:
    """Canonical lifts of the coordinates, semicolon-joined."""
    texts = element_texts(kpi)
    return ";".join([texts[x] for x in w])
