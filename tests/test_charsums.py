"""Character-sum kernel tests.

Frozen values are cross-checked against hand computations recorded inline;
the table-driven kernel is compared against an independent term-by-term
route; bound audits and the exact completion identities run on small
instances.
"""

import copy
import itertools
import pathlib
import random
import tracemalloc

import pytest

from cycsieve import charsums as cs
from cycsieve import cli
from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve.characters import gauss_sum, residue_data
from cycsieve.cyclotomic import CycRing
from cycsieve.ffield import GF

from oracles import (
    audit_rows,
    char_sum,
    char_sum_bruteforce,
    gauss_twist_identity,
    katz_slice_audit,
    lift_from,
    slicing_identity,
)

K3 = GF(3)
K7 = GF(7)
CONFIG = str(pathlib.Path(__file__).resolve().parent.parent
             / "configs" / "quadric_q3.json")


def P(k, text):
    return pr.parse_poly(k, text)


def const_form(k, n, m, coeff_map):
    return geo.MultiForm(k, n, m, {e: (k.from_int(c),) for e, c in coeff_map.items()})


def diag3(k):
    return const_form(k, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


def ctx_T(ell=2):
    return cs.CharSumContext(P(K3, "T"), ell, diag3(K3))


def forbid_contexts(monkeypatch):
    """Fail the test if a CharSumContext is built."""
    def built(*args, **kwargs):
        raise AssertionError("a CharSumContext was built")
    monkeypatch.setattr(cs, "CharSumContext", built)


def all_ws(ctx):
    return list(itertools.product(range(ctx.Q), repeat=ctx.nvars))


def sum_at(ctx, w, chi_index):
    """S_G(w, chi_index) from the transform on the line of w."""
    return next(ctx.sums([chi_index], [geo.flat_index(ctx.Q, w)])[chi_index])


class TestKernel:
    def test_frozen_sum_mod_T(self):
        # S(0, chi) = sum over F_3^3 of chi(a0^2+a1^2+a2^2).  The quadric
        # takes the value 0 on 9 points, 1 on 6, 2 on 12; chi(1) = 1 and
        # chi(2) = -1, so S = 6 - 12 = -6.
        ctx = ctx_T()
        zero_w = (ctx.kpi.zero,) * 3
        assert sum_at(ctx, zero_w, 1) == ctx.ring.from_int(-6)
        assert ctx.ring.abs_embed(sum_at(ctx, zero_w, 1)) == pytest.approx(6.0)

    def test_principal_counts_everything(self):
        ctx = ctx_T()
        zero_w = (ctx.kpi.zero,) * 3
        assert sum_at(ctx, zero_w, 0) == ctx.ring.from_int(27)

    def test_matches_bruteforce_mod_T(self):
        ctx = ctx_T()
        sums = ctx.sums([0, 1])
        for chi_index in (0, 1):
            for w, S in zip(all_ws(ctx), sums[chi_index]):
                assert S == char_sum_bruteforce(ctx, w, chi_index)

    def test_matches_bruteforce_degree_two(self):
        ctx = cs.CharSumContext(P(K3, "1+T^2"), 2, diag3(K3))
        kpi = ctx.kpi
        ws = [
            (kpi.zero, kpi.zero, kpi.zero),
            (kpi.one, kpi.zero, kpi.zero),
            (2, 7, kpi.one),
            (5, 5, 3),
        ]
        sums = ctx.sums([1], [geo.flat_index(ctx.Q, w) for w in ws])[1]
        for w, S in zip(ws, sums):
            assert S == char_sum_bruteforce(ctx, w, 1)

    def test_trivial_bound(self):
        ctx = ctx_T()
        assert ctx.trivial_bound() == 27
        for S in ctx.sums([1])[1]:
            assert ctx.ring.abs_embed(S) <= 27 + 1e-9

    def test_w_arity_rejected(self):
        # the per-w oracle checks the length; the command checks it before
        # reading the position of w (test_cli)
        ctx = ctx_T()
        with pytest.raises(ValueError):
            char_sum(ctx, (ctx.kpi.zero,) * 2, 1)

    def test_one_shot_helper(self):
        kpi = pr.residue_field(K3, P(K3, "T"))
        got = sum_at(cs.CharSumContext(P(K3, "T"), 2, diag3(K3)),
                     (kpi.zero, kpi.zero, kpi.zero), 1)
        ring = residue_data(K3, P(K3, "T"), 2).ring
        assert got == ring.from_int(-6)


def indexed_form(k, n, m, terms):
    """terms: {exps: [indices of the coefficients of 1, T, T^2, ...]}."""
    return geo.MultiForm(k, n, m, {
        e: tuple(coeffs)
        for e, coeffs in terms.items()})


K5 = GF(5)
K9 = pr.make_field(3, 2)
TERNARY_QUADRIC = {(2, 0, 0): [1], (0, 2, 0): [1], (0, 0, 2): [1]}
NONDIAG_QUADRIC = {(2, 0, 0): [1], (1, 1, 0): [1], (0, 2, 0): [2],
                   (0, 1, 1): [1], (0, 0, 2): [1]}
T_QUADRIC = {(2, 0, 0): [1, 1], (0, 2, 0): [0, 1], (1, 0, 1): [2],
             (0, 0, 2): [1]}
DIAG_CUBIC = {(3, 0, 0): [1], (0, 3, 0): [2], (0, 0, 3): [1]}
NONDIAG_CUBIC = {(3, 0, 0): [1], (0, 3, 0): [2], (0, 0, 3): [1],
                 (1, 1, 1): [1]}
T_CUBIC = {(3, 0, 0): [1], (0, 3, 0): [0, 1], (1, 1, 1): [3, 1],
           (0, 0, 3): [2]}
# (field, ell, prime, n, m, terms): q in {3, 5, 7, 9}, ell in {2, 3} with
# ell | q - 1, diagonal, non-diagonal and T-coefficient forms, primes of
# degree 1 and of degree 2 with Q^(n+1) <= 729.  When ell | m,
# S_G(-w, chi) = chi((-1)^m) S_G(w, chi) = S_G(w, chi); the cubics with
# ell = 2 over F_7, where chi(-1) = -1, are there so the sign of w shows.
TRANSFORM_CASES = [
    (K7, 2, "1+T", 2, 3, NONDIAG_CUBIC),
    (K7, 2, "T", 2, 3, T_CUBIC),
    (K3, 2, "T", 2, 2, TERNARY_QUADRIC),
    (K3, 2, "1+T^2", 2, 2, NONDIAG_QUADRIC),
    (K3, 2, "1+T^2", 2, 2, T_QUADRIC),
    (K3, 2, "2+T+T^2", 2, 2, TERNARY_QUADRIC),
    (K5, 2, "T", 2, 2, TERNARY_QUADRIC),
    (K5, 2, "1+T", 2, 2, NONDIAG_QUADRIC),
    (K5, 2, "2+T^2", 1, 2, {(2, 0): [1], (1, 1): [1, 1], (0, 2): [2]}),
    (K7, 2, "T", 2, 2, NONDIAG_QUADRIC),
    (K7, 3, "T", 2, 3, DIAG_CUBIC),
    (K7, 3, "1+T", 2, 3, DIAG_CUBIC),
    (K7, 3, "1+T", 2, 3, NONDIAG_CUBIC),
    (K7, 3, "2+T", 2, 3, T_CUBIC),
    (K9, 2, "T", 2, 2, {(2, 0, 0): [1], (1, 1, 0): [4], (0, 2, 0): [5],
                        (0, 1, 1): [7], (0, 0, 2): [3]}),
    (K9, 2, "1+T", 2, 2, {(2, 0, 0): [0, 1], (0, 2, 0): [1],
                          (0, 0, 2): [2, 4]}),
]


@pytest.mark.parametrize("case", TRANSFORM_CASES,
                         ids=lambda c: f"q{c[0].size}-ell{c[1]}-{c[2]}-m{c[4]}")
class TestTransform:
    def context(self, case):
        k, ell, prime, n, m, terms = case
        pi = P(k, prime)
        assert pr.is_irreducible(k, pi)
        return cs.CharSumContext(pi, ell, indexed_form(k, n, m, terms))

    def test_equals_char_sum_for_every_w(self, case):
        ctx = self.context(case)
        assert ctx.Q ** ctx.nvars <= 729
        chis = range(ctx.ell)
        sums = {i: list(it) for i, it in ctx.sums(chis).items()}
        ws = all_ws(ctx)
        for chi_index in chis:
            assert len(sums[chi_index]) == len(ws)
            for w, S in zip(ws, sums[chi_index]):
                assert S == char_sum(ctx, w, chi_index), (w, chi_index)

    def test_spans_equal_char_sum(self, case):
        # the transform on the span of the covectors read, for every
        # character (chi_0 counts the zeros of G too), against the per-w
        # route on lists of positions whose spans run from {0} to all
        k, ctx = case[0], self.context(case)
        kpi, ws = ctx.kpi, all_ws(ctx)
        w1 = ws[-1]
        pi2 = next(f for f in pr.irreducibles(k, 1) if f != ctx.data.pi)
        twist = pr.invert_mod(k, pi2, ctx.data.pi)
        lists = {
            "zero": [0],
            "one w": [len(ws) - 1],
            "multiples": [geo.flat_index(ctx.Q, [kpi.mul(c, x) for x in w1])
                          for c in kpi.elements()],
            "twisted box": [
                geo.flat_index(ctx.Q, [kpi.reduce_poly(pr.mul(k, twist, x))
                                       for x in xs])
                for xs in pr.box(k, 1, ctx.nvars)],
            "repeated": [len(ws) - 1, 0, 5, len(ws) - 1, 1, 5, 0],
            "every w": list(range(len(ws))),
        }
        chis = range(ctx.ell)
        want = {i: [char_sum(ctx, w, i) for w in ws] for i in chis}
        for name, positions in lists.items():
            got = ctx.sums(chis, positions)
            for i in chis:
                assert list(got[i]) == [want[i][pos] for pos in positions], \
                    (name, i)

    def test_character_sets_equal_char_sum(self, case):
        # ell - 1 layers serve the non-principal characters and chi_0 has
        # its own: each set of characters, with and without chi_0, for
        # every w and at given positions (w = 0 among them, twice), against
        # the per-w route
        ctx = self.context(case)
        ws = all_ws(ctx)
        want = {i: [char_sum(ctx, w, i) for w in ws] for i in range(ctx.ell)}
        positions = [0, len(ws) - 1, 0, len(ws) // 2, 1]
        for chis in ([0], [ctx.ell - 1], list(range(1, ctx.ell)),
                     [ctx.ell - 1, 0], list(range(ctx.ell))):
            every, given = ctx.sums(chis), ctx.sums(chis, positions)
            for i in chis:
                assert list(every[i]) == want[i], (chis, i)
                assert list(given[i]) == [want[i][pos] for pos in positions]

    def test_sample_equals_bruteforce(self, case):
        # sums and char_sum both read psi through its additivity; the
        # term-by-term route is the one that does not
        ctx = self.context(case)
        chi = ctx.ell - 1
        sums = list(ctx.sums([chi])[chi])
        ws = all_ws(ctx)
        full = tuple(1 + i % (ctx.Q - 1)
                     for i in range(ctx.nvars))  # every coordinate nonzero
        for pos in sorted({0, 1, len(ws) // 3, len(ws) - 1, ws.index(full)}):
            brute = char_sum_bruteforce(ctx, ws[pos], chi)
            assert sums[pos] == brute
            assert char_sum(ctx, ws[pos], chi) == brute

    def test_psi_exponent_adds_over_the_table(self, case):
        ctx = self.context(case)
        Q, add, psi = ctx.Q, ctx.kpi.add, ctx.data.psi_exp
        p = ctx.kpi.char
        for i in range(Q):
            for j in range(Q):
                assert psi[add(i, j)] == (psi[i] + psi[j]) % p, (i, j)


def test_transform_charged_before_the_table(tmp_path, monkeypatch, capsys):
    cost = 3 * 2 * 3 * 3 * 27
    assert cs.sums_cost(3, 1, 2, 2, 3) == 27 + cost
    # wd-audit prices the table of G on 27 points, the transform mod T and
    # the dual quadric's table on the 27 covectors before the context
    # builds either
    forbid_contexts(monkeypatch)
    code = cli.main(["wd-audit", "--config", CONFIG, "--pi", "T",
                     "--budget", str(27 + cost + 27 - 1),
                     "--out", str(tmp_path)])
    assert code == 3
    assert f"needs {27 + cost + 27}," in capsys.readouterr().err


def test_transform_takes_the_principal_character():
    # chi_0 is 1 at the zeros of G too, so S_G(w, chi_0) is the sum of
    # psi_infty(-w.a/pi) over every point: 27 at w = 0 and 0 elsewhere
    ctx = ctx_T()
    sums = ctx.sums([0, 1])
    assert list(sums[0]) == [ctx.ring.from_int(27)] + [ctx.ring.zero] * 26
    assert next(sums[1]) == ctx.ring.from_int(-6)


class TestDigitwiseAddition:
    def test_residue_fields_pass(self):
        for k, prime in ((K3, "1+T^2"), (K5, "2+T^2"), (K9, "T")):
            cs.check_digitwise_addition(
                pr.residue_field(k, P(k, prime)), k.char)

    def test_broken_table_raises(self):
        field = copy.copy(pr.residue_field(K3, P(K3, "1+T^2")))
        right = field.add
        # swap two sums in the row of index 4: 4 + 1 and 4 + 2
        swap = {(4, 1): (4, 2), (4, 2): (4, 1)}
        field.add = lambda a, b: right(*swap.get((a, b), (a, b)))
        with pytest.raises(ArithmeticError, match="digitwise"):
            cs.check_digitwise_addition(field, 3)

    def test_sums_checks_the_table(self, monkeypatch):
        ctx = ctx_T()
        ctx.kpi = copy.copy(ctx.kpi)
        right = ctx.kpi.add
        # 1 + 1 = 0 in F_3: false
        ctx.kpi.add = lambda a, b: 0 if (a, b) == (1, 1) else right(a, b)
        with pytest.raises(ArithmeticError):
            ctx.sums([1])


class TestBudget:
    def test_charge_and_raise(self):
        b = cs.Budget(100)
        b.charge(60)
        assert b.spent == 60
        with pytest.raises(cs.BudgetExceeded) as err:
            b.charge(50)
        assert err.value.needed == 110 and err.value.limit == 100

    def test_char_sum_respects_budget(self, tmp_path, monkeypatch, capsys):
        # the table of G and the projection on the line of w, 27 points
        # each mod T, and one pass over 3 * 2 layers of 3 counters are
        # priced before the context is built
        forbid_contexts(monkeypatch)
        code = cli.main(["charsum", "--config", CONFIG, "--pi", "T",
                         "--budget", "10", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 108, limit 10;" in capsys.readouterr().err

    def test_charge_each_in_turn(self):
        b = cs.Budget(100)
        with pytest.raises(cs.BudgetExceeded) as err:
            b.charge_each([60, 30, 20, 5])
        assert err.value.needed == 110 and b.spent == 90

    def test_estimate(self):
        # every covector: the table of G on 27 = 3^3 points, then the
        # transform, 3 passes over 3 * 2 layers with 3 outputs of 3 blocks
        assert cs.sums_cost(3, 1, 2, 2, 3) == 27 + 3 * 2 * 3 * 3 * 27
        # a span of dimension 1 or 2: the table, the projection of the 27
        # points on each basis vector, then 1 or 2 passes over 3^1 or 3^2
        assert cs.sums_cost(3, 1, 2, 2, 1) == 27 + 27 + 2 * 3 * 3 * 3
        assert cs.sums_cost(3, 1, 2, 2, 2) == 27 + 2 * 27 + 2 * 2 * 3 * 3 * 9
        # mod 1+T^2 (N = 6), the multiples of one w span 2 dimensions
        assert cs.sums_cost(3, 2, 2, 2, 2) == 729 + 2 * 729 + 2 * 2 * 3 * 3 * 9


# the n = 3 unit quadric over F_3
N3_QUADRIC = const_form(K3, 3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                                   (0, 0, 2, 0): 1, (0, 0, 0, 2): 1})


def count_canonicalizations(monkeypatch) -> list:
    """Record each CycRing.from_exponent_counts call in the returned list."""
    calls = []
    real = CycRing.from_exponent_counts

    def counted(self, counts):
        calls.append(counts)
        return real(self, counts)
    monkeypatch.setattr(CycRing, "from_exponent_counts", counted)
    return calls


def test_counters_above_one_byte():
    # the n = 3 unit quadric mod 1+T^2 has 6561 points, so its counters
    # pass 255 and fill more than one byte of their 64-bit fields: every
    # character on a seeded sample of 40 w, read from the transform of
    # every w and from the transform on the sample's span
    ctx = cs.CharSumContext(P(K3, "1+T^2"), 2, N3_QUADRIC)
    ws = all_ws(ctx)
    sample = random.Random(24).sample(range(len(ws)), 40)
    chis = range(ctx.ell)
    want = {i: [char_sum(ctx, ws[pos], i) for pos in sample] for i in chis}
    every = {i: list(it) for i, it in ctx.sums(chis).items()}
    on_span = ctx.sums(chis, sample)
    for i in chis:
        assert [every[i][pos] for pos in sample] == want[i], i
        assert list(on_span[i]) == want[i], i


class TestWorkBounds:
    def test_tables_make_no_eval_terms_call(self, monkeypatch):
        # the table of G and the closed-form dual columns come from
        # form_values; eval_terms is the per-point evaluator of searches
        def called(*args, **kwargs):
            raise AssertionError("eval_terms was called")
        monkeypatch.setattr(geo, "eval_terms", called)
        for k, ell, prime, n, m, terms in TRANSFORM_CASES:
            cs.CharSumContext(P(k, prime), ell, indexed_form(k, n, m, terms))
        pi = P(K3, "1+T^2")
        cs.CharSumContext(pi, 2, N3_QUADRIC)
        kpi = pr.residue_field(K3, pi)
        for dual in ("auto", geo.quadric_dual_form(N3_QUADRIC)):
            on_dual = geo.dual_column(N3_QUADRIC, pi, dual=dual)
            members = [on_dual[geo.flat_index(kpi.size, w)] for w in
                       itertools.product(range(kpi.size), repeat=4)
                       if any(w)]
            assert 0 < sum(members) < len(members)

    def test_audit_canonicalizes_each_count_column_once(self, monkeypatch):
        # 3^4 + 9^4 = 6642 sums, of which only a few columns of counts differ
        calls = count_canonicalizations(monkeypatch)
        rows = sum(len(list(audit_rows(cs.wd_audit(
            P(K3, t), 2, N3_QUADRIC)))) for t in ("T", "1+T^2"))
        assert rows == 3 ** 4 + 9 ** 4
        assert 0 < len(calls) <= 8

    def test_audit_works_once_per_distinct_value(self, tmp_path,
                                                 monkeypatch):
        # |S| once per distinct (case, S) of a prime, and the texts of a
        # row's floats once per distinct (case, S) in either artifact
        embeds = []
        abs_embed = CycRing.abs_embed
        monkeypatch.setattr(CycRing, "abs_embed", lambda self, a: (
            embeds.append(a) or abs_embed(self, a)))
        audits, rows, pairs = [], [], 0
        for t in ("T", "1+T^2"):
            pi = P(K3, t)
            audits.append(cs.wd_audit(pi, 2, N3_QUADRIC))
            audit = list(audit_rows(audits[-1]))
            sums = cs.CharSumContext(pi, 2, N3_QUADRIC).sums([1])[1]
            pairs += len({(row["case"], S) for row, S in zip(audit, sums)})
            rows += audit
        assert len(rows) == 3 ** 4 + 9 ** 4
        assert 0 < len(embeds) <= pairs

        renders = {"json": 0, "csv": 0}
        json_text, cell = rp._SCALAR_TEXTS[float]

        def counted(kind, render):
            def text(value):
                renders[kind] += 1
                return render(value)
            return text
        monkeypatch.setitem(rp._SCALAR_TEXTS, float, (
            counted("json", json_text), counted("csv", cell)))
        rp.write_artifact(str(tmp_path), "wd_audit.json",
                          {"rows": cli.audit_table(audits)})
        rp.write_artifact(str(tmp_path), "wd_audit.csv",
                          cli.audit_table(audits), columns=rp.WD_CSV_COLUMNS)
        # a row's floats are its abs_S, bound and ratio
        assert 0 < renders["json"] <= 3 * pairs
        assert 0 < renders["csv"] <= 3 * pairs

    def test_audit_keeps_no_rows(self):
        # the result holds columns and the distinct verdicts, and each pass
        # of audit_rows makes the 6561 rows afresh (3.34 MB were held as
        # one dict per row)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = cs.wd_audit(P(K3, "1+T^2"), 2, N3_QUADRIC)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20
        first, second = (list(audit_rows(report)) for _ in range(2))
        assert len(first) == 9 ** 4
        assert first == second
        assert len({id(row) for row in first + second}) == 2 * len(first)

    def test_repeated_columns_read_through_positions(self, monkeypatch):
        # every w in reverse order and some again: each sum equals the
        # per-w route, chi_0 included, and a column seen before is not
        # canonicalized again
        ctx = cs.CharSumContext(P(K3, "T"), 2, N3_QUADRIC)
        ws = all_ws(ctx)
        positions = list(reversed(range(len(ws)))) + [0, 5, 0, 80]
        want = {i: [char_sum(ctx, ws[pos], i) for pos in positions]
                for i in (0, 1)}
        calls = count_canonicalizations(monkeypatch)
        for i, got in ctx.sums([0, 1], positions).items():
            before = len(calls)
            assert list(got) == want[i], i
            assert len(set(want[i])) <= len(calls) - before < 9, i


class TestAudit:
    def test_full_audit_mod_T(self):
        report = cs.wd_audit(P(K3, "T"), 2, diag3(K3))
        summary = report["summary"]
        assert summary["rows"] == 27
        assert summary["all_pass"]
        # w = 0 once; w != 0 on the dual quadric w0^2+w1^2+w2^2 = 0: the
        # affine count of a nondegenerate ternary quadric is q^2 = 9,
        # minus the origin leaves 8; the remaining 18 are off the dual.
        assert summary["cases"] == {"i": 1, "ii": 8, "iii": 18, "unknown": 0}
        assert summary["max_ratio_iii"] is not None
        for row in list(audit_rows(report)):
            assert row["pass"]
            if row["case"] == "i":
                assert row["bound"] == pytest.approx(2 * 9 + 3)  # 21
                assert row["abs_S"] == pytest.approx(6.0)
            else:
                assert row["bound"] == pytest.approx(9.0)
                assert row["abs_S"] < 9.0

    def test_audit_subset_degree_two(self):
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        ws = list(itertools.product(range(3), repeat=3))
        report = cs.wd_audit(pi, 2, diag3(K3), ws=ws)
        assert report["summary"]["all_pass"]
        assert report["summary"]["rows"] == 27
        bound_i, bound_ii, norm = cs.wd_case_bounds(3, 2, 2, 2)
        assert bound_i == pytest.approx(2 * 81 + 9)    # 171
        assert bound_ii == pytest.approx(81.0)
        assert norm == pytest.approx(27.0)

    def test_degenerate_prime_refused(self):
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        with pytest.raises(ValueError):
            cs.wd_audit(P(K3, "T"), 2, f)

    def test_principal_index_refused(self):
        with pytest.raises(ValueError):
            cs.wd_audit(P(K3, "T"), 2, diag3(K3), chi_indices=[0])

    def test_classify(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)

        def case(w):
            report = cs.wd_audit(pi, 2, f, ws=[w])
            return list(audit_rows(report))[0]["case"]
        assert case((kpi.zero,) * 3) == "i"
        one = kpi.one
        assert case((one, one, one)) == "ii"   # 1+1+1 = 0
        assert case((one, kpi.zero, kpi.zero)) == "iii"

    def test_quintic_case_i_violation_reported(self):
        # With a character of order 5 and a degree-5 diagonal form the
        # stated whole-sum bound for w = 0 is itself too small: over F_31,
        # |S(0, chi)| ~ 9279.9 while n(m-1)Q^((n+2)/2) + Q = 7719.  The
        # audit reports the failing row instead of passing it.
        K31 = GF(31)
        f = const_form(K31, 2, 5,
                       {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1})
        pi = P(K31, "T")
        kpi = pr.residue_field(K31, pi)
        zero_w = (kpi.zero,) * 3
        report = cs.wd_audit(pi, 5, f, chi_indices=[1], ws=[zero_w])
        row = list(audit_rows(report))[0]
        assert row["case"] == "i"
        assert row["bound"] == pytest.approx(7719.0)
        assert row["abs_S"] == pytest.approx(9279.876, abs=1e-3)
        assert row["pass"] is False
        assert not report["summary"]["all_pass"]

    def test_cubic_audit_with_tangency_classification(self):
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        pi = P(K7, "T")
        kpi = pr.residue_field(K7, pi)
        ws = list(itertools.product(range(3), repeat=3))
        report = cs.wd_audit(pi, 3, f, dual="tangency", ws=ws)
        assert report["summary"]["all_pass"]
        for row in list(audit_rows(report)):
            assert row["case"] in ("i", "ii", "iii", "unknown")


class TestCovectorTexts:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    @pytest.mark.parametrize("delta", [1, 2])
    def test_table_texts_equal_per_coordinate_formatting(self, q, delta):
        k = pr.make_field(*{3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q])
        kpi = pr.residue_field(k, pr.irreducibles(k, delta)[-1])

        # the lift of each element found by reducing every polynomial of
        # degree < deg pi
        lifts = {kpi.reduce_poly(f): f for f in (
            pr.poly_from_index(k, i, kpi.deg) for i in range(kpi.size))}

        def lift(x):
            return pr.format_poly(k, lifts[x])

        texts = cs.element_texts(kpi)
        assert len(texts) == kpi.size
        # every covector of k_pi^2, and a seeded sample of k_pi^3
        elems = kpi.elements()
        ws = list(itertools.product(elems, repeat=2))
        ws += [tuple(elems[(i * 7 + j * 31) % kpi.size] for j in range(3))
               for i in range(200)]
        for w in ws:
            want = ";".join(lift(x) for x in w)
            assert cs.format_covector(kpi, w) == want
            assert ";".join([texts[x] for x in w]) == want

    def test_audit_rows_carry_the_lift_texts(self):
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        report = cs.wd_audit(pi, 2, diag3(K3))
        ws = list(itertools.product(kpi.elements(), repeat=3))
        assert [row["w"] for row in list(audit_rows(report))] == [
            ";".join(pr.format_poly(K3, lift_from(kpi, x)) for x in w)
            for w in ws]


class TestSlicing:
    def test_identity_and_frozen_slices_mod_T(self):
        res = slicing_identity(K3, P(K3, "T"), 2, diag3(K3), 1)
        ring = residue_data(K3, P(K3, "T"), 2).ring
        assert res["equal"]
        assert res["lhs"] == ring.from_int(-6)
        assert res["unit_factor"] == ring.from_int(2)
        # slice sums: j=0 -> 1 + x^2 + y^2 over F_3^2 gives -3;
        # j=1 -> 1 + x^2 over F_3 gives -1; j=2 -> constant 1 gives 1.
        assert [s["sum"] for s in res["slices"]] == [
            ring.from_int(-3), ring.from_int(-1), ring.from_int(1)]

    def test_identity_principal_character(self):
        res = slicing_identity(K3, P(K3, "T"), 2, diag3(K3), 0)
        ring = residue_data(K3, P(K3, "T"), 2).ring
        assert res["equal"] and res["lhs"] == ring.from_int(27)

    def test_identity_degree_two_prime(self):
        res = slicing_identity(K3, P(K3, "1+T^2"), 2, diag3(K3), 1)
        assert res["equal"]

    def test_katz_rows_mod_T(self):
        report = katz_slice_audit(K3, P(K3, "T"), 2, diag3(K3), 1)
        assert report["identity_equal"]
        assert report["all_pass"]
        rows = report["rows"]
        assert [r["r"] for r in rows] == [2, 1, 0]
        # positive-dimensional strata are certified; the constant stratum
        # (r = 0) is not a degree-m polynomial, so it is marked inapplicable
        assert [r["deligne"] for r in rows] == [True, True, False]
        assert [r["pass"] for r in rows] == [True, True, None]
        # j=0 hits the bound exactly: |sum| = 3 = (2-1) * 3^(2/2)
        assert rows[0]["abs_sum"] == pytest.approx(3.0)
        assert rows[0]["bound"] == pytest.approx(3.0)

    def test_katz_cubic_slice_violation_is_reported(self):
        # For a character whose order divides the slice degree, the audited
        # per-slice constant (m-1) is too small in two or more variables:
        # sum over F_7^2 of chi3(1 + x^3 + y^3) has |sum| = sqrt(427) ~ 20.66,
        # above (3-1)*7 = 14 (the true isotypic dimension here is 3, and
        # indeed 20.66 <= 3*7).  The audit must report the violation rather
        # than hide it; the slicing identity itself still holds exactly.
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        report = katz_slice_audit(K7, P(K7, "T"), 3, f, 1)
        assert report["identity_equal"]
        assert not report["all_pass"]
        rows = report["rows"]
        assert [r["deligne"] for r in rows] == [True, True, False]
        assert [r["pass"] for r in rows] == [False, True, None]
        assert rows[0]["abs_sum"] == pytest.approx(427 ** 0.5)
        assert rows[0]["bound"] == pytest.approx(14.0)
        # the one-variable slice stays within its bound (classical case)
        assert rows[1]["abs_sum"] == pytest.approx(7 ** 0.5)

    def test_principal_rejected_in_audit(self):
        with pytest.raises(ValueError):
            katz_slice_audit(K3, P(K3, "T"), 2, diag3(K3), 0)


class TestGaussTwist:
    def test_completion_mod_T(self):
        kpi = pr.residue_field(K3, P(K3, "T"))
        w = (kpi.one, kpi.zero, kpi.zero)
        res = gauss_twist_identity(K3, P(K3, "T"), 2, diag3(K3), w, 1)
        assert res["completion_exact"]
        assert res["normalized_exact"]
        assert res["deligne_applicable"]
        assert res["all_pass"]
        bound = 1 * 3 ** 1.5
        for row in res["beta_rows"]:
            assert row["pass"] and row["abs"] <= bound * (1 + 1e-9)

    def test_completion_degree_two(self):
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        w = (4, kpi.one, kpi.zero)
        res = gauss_twist_identity(K3, pi, 2, diag3(K3), w, 1)
        assert res["equal"] and res["all_pass"]

    def test_completion_cubic_order_three(self):
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        kpi = pr.residue_field(K7, P(K7, "T"))
        w = (kpi.one, 3, kpi.zero)
        for chi_index in (1, 2):
            res = gauss_twist_identity(K7, P(K7, "T"), 3, f, w, chi_index)
            assert res["equal"]
            assert res["deligne_applicable"] and res["all_pass"]

    def test_gauss_sum_consistency(self):
        # the completion at a degenerate-looking w reproduces tau itself:
        # G = X0^2 in one variable... instead check tau via the identity
        # tau(chi) * conj(tau(chi)) = q^Delta used by the normalized form.
        data = residue_data(K3, P(K3, "1+T^2"), 2)
        tau = gauss_sum(data, 1)
        ring = data.ring
        assert ring.mul(tau, ring.conj(tau)) == ring.from_int(9)

    def test_preconditions(self):
        kpi = pr.residue_field(K3, P(K3, "T"))
        zero_w = (kpi.zero,) * 3
        w = (kpi.one, kpi.zero, kpi.zero)
        with pytest.raises(ValueError):
            gauss_twist_identity(K3, P(K3, "T"), 2, diag3(K3), zero_w, 1)
        with pytest.raises(ValueError):
            gauss_twist_identity(K3, P(K3, "T"), 2, diag3(K3), w, 0)
