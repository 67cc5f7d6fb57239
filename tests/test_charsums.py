"""Character-sum kernel tests.

Frozen values are cross-checked against hand computations recorded inline;
the table-driven kernel is compared against an independent term-by-term
route; bound audits and the exact completion identities run on small
instances.
"""

import copy
import itertools
import pathlib

import pytest

from cycsieve import charsums as cs
from cycsieve import cli
from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve.characters import gauss_sum, residue_data
from cycsieve.ffield import GF

from oracles import (
    char_sum_bruteforce,
    gauss_twist_identity,
    katz_slice_audit,
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
    return cs.CharSumContext(K3, P(K3, "T"), ell, diag3(K3))


def forbid_contexts(monkeypatch):
    """Fail the test if a CharSumContext is built."""
    def built(*args, **kwargs):
        raise AssertionError("a CharSumContext was built")
    monkeypatch.setattr(cs, "CharSumContext", built)


def all_ws(ctx):
    return [tuple(ctx.kpi.from_index(i) for i in a)
            for a in itertools.product(range(ctx.Q), repeat=ctx.nvars)]


class TestKernel:
    def test_frozen_sum_mod_T(self):
        # S(0, chi) = sum over F_3^3 of chi(a0^2+a1^2+a2^2).  The quadric
        # takes the value 0 on 9 points, 1 on 6, 2 on 12; chi(1) = 1 and
        # chi(2) = -1, so S = 6 - 12 = -6.
        ctx = ctx_T()
        zero_w = (ctx.kpi.zero,) * 3
        assert ctx.char_sum(zero_w, 1) == ctx.ring.from_int(-6)
        assert ctx.ring.abs_embed(ctx.char_sum(zero_w, 1)) == pytest.approx(6.0)

    def test_principal_counts_everything(self):
        ctx = ctx_T()
        zero_w = (ctx.kpi.zero,) * 3
        assert ctx.char_sum(zero_w, 0) == ctx.ring.from_int(27)

    def test_matches_bruteforce_mod_T(self):
        ctx = ctx_T()
        for chi_index in (0, 1):
            for w in all_ws(ctx):
                assert ctx.char_sum(w, chi_index) == \
                    char_sum_bruteforce(ctx, w, chi_index)

    def test_matches_bruteforce_degree_two(self):
        ctx = cs.CharSumContext(K3, P(K3, "1+T^2"), 2, diag3(K3))
        kpi = ctx.kpi
        ws = [
            (kpi.zero, kpi.zero, kpi.zero),
            (kpi.one, kpi.zero, kpi.zero),
            (kpi.from_index(2), kpi.from_index(7), kpi.one),
            (kpi.from_index(5), kpi.from_index(5), kpi.from_index(3)),
        ]
        for w in ws:
            assert ctx.char_sum(w, 1) == char_sum_bruteforce(ctx, w, 1)

    def test_trivial_bound(self):
        ctx = ctx_T()
        assert ctx.trivial_bound() == 27
        for w in all_ws(ctx):
            assert ctx.ring.abs_embed(ctx.char_sum(w, 1)) <= 27 + 1e-9

    def test_w_arity_rejected(self):
        ctx = ctx_T()
        with pytest.raises(ValueError):
            ctx.char_sum((ctx.kpi.zero,) * 2, 1)

    def test_one_shot_helper(self):
        kpi = pr.residue_field(K3, P(K3, "T"))
        got = cs.CharSumContext(K3, P(K3, "T"), 2, diag3(K3)).char_sum(
            (kpi.zero, kpi.zero, kpi.zero), 1)
        ring = residue_data(K3, P(K3, "T"), 2).ring
        assert got == ring.from_int(-6)


def indexed_form(k, n, m, terms):
    """terms: {exps: [indices of the coefficients of 1, T, T^2, ...]}."""
    return geo.MultiForm(k, n, m, {
        e: tuple(k.from_index(c) for c in coeffs)
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
        return cs.CharSumContext(k, pi, ell, indexed_form(k, n, m, terms))

    def test_equals_char_sum_for_every_w(self, case):
        ctx = self.context(case)
        assert ctx.Q ** ctx.nvars <= 729
        chis = range(1, ctx.ell)
        sums = {i: list(it) for i, it in ctx.all_sums(chis).items()}
        ws = all_ws(ctx)
        for chi_index in chis:
            assert len(sums[chi_index]) == len(ws)
            for w, S in zip(ws, sums[chi_index]):
                assert S == ctx.char_sum(w, chi_index), (w, chi_index)

    def test_sample_equals_bruteforce(self, case):
        # all_sums and char_sum both read psi through its additivity; the
        # term-by-term route is the one that does not
        ctx = self.context(case)
        chi = ctx.ell - 1
        sums = list(ctx.all_sums([chi])[chi])
        ws = all_ws(ctx)
        full = tuple(ctx.kpi.from_index(1 + i % (ctx.Q - 1))
                     for i in range(ctx.nvars))  # every coordinate nonzero
        for pos in sorted({0, 1, len(ws) // 3, len(ws) - 1, ws.index(full)}):
            brute = char_sum_bruteforce(ctx, ws[pos], chi)
            assert sums[pos] == brute
            assert ctx.char_sum(ws[pos], chi) == brute

    def test_psi_exponent_adds_over_the_table(self, case):
        ctx = self.context(case)
        Q, add, psi = ctx.Q, ctx.tables.add, ctx.data.psi_exp
        p = ctx.kpi.char
        for i in range(Q):
            for j in range(Q):
                assert psi[add[i * Q + j]] == (psi[i] + psi[j]) % p, (i, j)


def test_transform_charged_before_the_table(tmp_path, monkeypatch, capsys):
    cost = cs.transform_cost(3, 2, 27)
    assert cost == 3 * 2 * 3 * 3 * 27
    assert cs.all_sums_cost(3, 1, 2, 2) == 27 + cost
    # wd-audit prices the table of G on 27 points and the transform mod T
    # before the context builds either
    forbid_contexts(monkeypatch)
    code = cli.main(["wd-audit", "--config", CONFIG, "--pi", "T",
                     "--budget", str(27 + cost - 1), "--out", str(tmp_path)])
    assert code == 3
    assert f"needs {27 + cost}," in capsys.readouterr().err


def test_transform_needs_non_principal_characters():
    # chi_0 is 1 at the zeros of G, which the layers do not count
    with pytest.raises(ValueError):
        ctx_T().all_sums([0, 1])


class TestDigitwiseAddition:
    def test_residue_fields_pass(self):
        for k, prime in ((K3, "1+T^2"), (K5, "2+T^2"), (K9, "T")):
            tables = cs.field_tables(pr.residue_field(k, P(k, prime)))
            cs.check_digitwise_addition(tables, k.char)

    def test_broken_table_raises(self):
        tables = copy.copy(cs.field_tables(
            pr.residue_field(K3, P(K3, "1+T^2"))))
        tables.add = list(tables.add)
        Q = tables.size
        # swap two sums in the row of index 4: 4 + 1 and 4 + 2
        tables.add[4 * Q + 1], tables.add[4 * Q + 2] = \
            tables.add[4 * Q + 2], tables.add[4 * Q + 1]
        with pytest.raises(ArithmeticError, match="digitwise"):
            cs.check_digitwise_addition(tables, 3)

    def test_all_sums_checks_the_table(self, monkeypatch):
        ctx = ctx_T()
        ctx.tables = copy.copy(ctx.tables)
        ctx.tables.add = list(ctx.tables.add)
        ctx.tables.add[1 * 3 + 1] = 0  # 1 + 1 = 0 in F_3: false
        with pytest.raises(ArithmeticError):
            ctx.all_sums([1])


class TestBudget:
    def test_charge_and_raise(self):
        b = cs.Budget(100)
        b.charge(60)
        assert b.spent == 60
        with pytest.raises(cs.BudgetExceeded) as err:
            b.charge(50)
        assert err.value.needed == 110 and err.value.limit == 100

    def test_char_sum_respects_budget(self, tmp_path, monkeypatch, capsys):
        # the table of G and the phases of w, 27 points each mod T, are
        # priced before the context is built
        forbid_contexts(monkeypatch)
        code = cli.main(["charsum", "--config", CONFIG, "--pi", "T",
                         "--budget", "10", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 54, limit 10;" in capsys.readouterr().err

    def test_charge_each_in_turn(self):
        b = cs.Budget(100)
        with pytest.raises(cs.BudgetExceeded) as err:
            b.charge_each([60, 30, 20, 5])
        assert err.value.needed == 110 and b.spent == 90

    def test_estimate(self):
        # every covector: the table of G on 27 = 3^3 points, then the
        # transform, 3 passes over 3 * 2 layers with 3 outputs of 3 blocks
        assert cs.all_sums_cost(3, 1, 2, 2) == 27 + 3 * 2 * 3 * 3 * 27


class TestAudit:
    def test_full_audit_mod_T(self):
        report = cs.wd_audit(K3, P(K3, "T"), 2, diag3(K3))
        summary = report["summary"]
        assert summary["rows"] == 27
        assert summary["all_pass"]
        # w = 0 once; w != 0 on the dual quadric w0^2+w1^2+w2^2 = 0: the
        # affine count of a nondegenerate ternary quadric is q^2 = 9,
        # minus the origin leaves 8; the remaining 18 are off the dual.
        assert summary["cases"] == {"i": 1, "ii": 8, "iii": 18, "unknown": 0}
        assert summary["max_ratio_iii"] is not None
        for row in report["rows"]:
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
        ws = [tuple(kpi.from_index(i) for i in a)
              for a in itertools.product(range(3), repeat=3)]
        report = cs.wd_audit(K3, pi, 2, diag3(K3), ws=ws)
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
            cs.wd_audit(K3, P(K3, "T"), 2, f)

    def test_principal_index_refused(self):
        with pytest.raises(ValueError):
            cs.wd_audit(K3, P(K3, "T"), 2, diag3(K3), chi_indices=[0])

    def test_classify(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)

        def case(w):
            return cs.wd_audit(K3, pi, 2, f, ws=[w])["rows"][0]["case"]
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
        report = cs.wd_audit(K31, pi, 5, f, chi_indices=[1], ws=[zero_w])
        row = report["rows"][0]
        assert row["case"] == "i"
        assert row["bound"] == pytest.approx(7719.0)
        assert row["abs_S"] == pytest.approx(9279.876, abs=1e-3)
        assert row["pass"] is False
        assert not report["summary"]["all_pass"]

    def test_cubic_audit_with_tangency_classification(self):
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        pi = P(K7, "T")
        kpi = pr.residue_field(K7, pi)
        ws = [tuple(kpi.from_index(i) for i in a)
              for a in itertools.product(range(3), repeat=3)]
        report = cs.wd_audit(K7, pi, 3, f, dual="tangency", ws=ws)
        assert report["summary"]["all_pass"]
        for row in report["rows"]:
            assert row["case"] in ("i", "ii", "iii", "unknown")


class TestCovectorTexts:
    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    @pytest.mark.parametrize("delta", [1, 2])
    def test_table_texts_equal_per_coordinate_formatting(self, q, delta):
        k = pr.make_field(*{3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}[q])
        kpi = pr.residue_field(k, pr.irreducibles(k, delta)[-1])

        def lift(x):
            return pr.format_poly(k, pr.normalize(k, x))

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
        report = cs.wd_audit(K3, pi, 2, diag3(K3))
        ws = list(itertools.product(kpi.elements(), repeat=3))
        assert [row["w"] for row in report["rows"]] == [
            ";".join(pr.format_poly(K3, pr.normalize(K3, x)) for x in w)
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
        w = (kpi.from_index(4), kpi.one, kpi.zero)
        res = gauss_twist_identity(K3, pi, 2, diag3(K3), w, 1)
        assert res["equal"] and res["all_pass"]

    def test_completion_cubic_order_three(self):
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        kpi = pr.residue_field(K7, P(K7, "T"))
        w = (kpi.one, kpi.from_index(3), kpi.zero)
        for chi_index in (1, 2):
            res = gauss_twist_identity(K7, P(K7, "T"), 3, f, w, chi_index)
            assert res["equal"]
            assert res["deligne_applicable"] and res["all_pass"]

    def test_gauss_sum_consistency(self):
        # the completion at a degenerate-looking w reproduces tau itself:
        # G = X0^2 in one variable... instead check tau via the identity
        # tau(chi) * conj(tau(chi)) = q^Delta used by the normalized form.
        data = residue_data(K3, P(K3, "1+T^2"), 2)
        from cycsieve.characters import MultChar
        tau = gauss_sum(MultChar(data, 1))
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
