"""Sieve tests: fiber counts and ramified sets at sieving primes, the
global count M_n(F; b) from the value histogram with its two independent
solvability routes, decided once per run, both sieve-inequality
formulations on the diagonal-quadric instance q = 3, n = 2, ell = 2, b = 3,
delta = 2 (every term frozen from exact enumeration), the c_{i,j}(alpha)
expansion, the value-histogram box pass and its shares against the
per-point pass as a differential oracle, the local obstruction against the
squarefree decomposition of every value, its value indices against the
tuple pass (tuple_box_histogram), the forks of the worker pool, the block
sums and the residue recurrence against
polynomial arithmetic, and the parameter-selection helpers
reports.choose_delta / oracles.min_b / the prime-count bounds.
"""

import json
import os
import pathlib
import random
import signal
import time
from collections import Counter
from fractions import Fraction

import pytest

from cycsieve import cli
from cycsieve import ffield
from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve import sieve as sv
from cycsieve.characters import residue_data
from cycsieve.charsums import Budget, BudgetExceeded

from oracles import (eval_form_at_polys, exceptional_primes_of,
                     fiber_count, min_b, ramified_set, solvable_by_factoring,
                     verify_card_p)

K3 = ffield.GF(3)
K7 = ffield.GF(7)
CONFIG = str(pathlib.Path(__file__).resolve().parent.parent
             / "configs" / "quadric_q3.json")


def P(k, text):
    return pr.parse_poly(k, text)


def diag(k, n, m):
    """X_0^m + ... + X_n^m with coefficient 1."""
    terms = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = m
        terms[tuple(e)] = (k.one,)
    return geo.MultiForm(k, n, m, terms)


QUADRIC = diag(K3, 2, 2)


def forbidden(*args, **kwargs):
    raise AssertionError("called before the budget refused the run")


def assert_no_child_left():
    """This process has no child, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def quadric_instance():
    primes, _ = sv.build_sieving_set(K3, 2, exceptional_primes_of(QUADRIC, 2))
    params = sv.SieveParams(form=QUADRIC, ell=2, b=3, delta=2)
    return params, primes


# one full box pass shared by the term tests (exactness makes reuse safe)
_PARAMS, _PRIMES = quadric_instance()
_HIST = rp.parallel_accumulator(_PARAMS)
_FIBERS = sv.prime_fibers(QUADRIC, 2, 3, _PRIMES, _HIST)
_M = sv.solvable_count(QUADRIC, 2, 3, _HIST, _FIBERS)
_ACC = sv.value_moments(2, _FIBERS, _HIST)


def count_m(form, ell, b):
    """M on the box {deg x < b} as count decides it: solvable_count on the
    box's histogram with the fibers at the q linear primes."""
    hist = sv.box_histogram(form, b)
    return sv.solvable_count(form, ell, b, hist, sv.prime_fibers(
        form, ell, b, pr.irreducibles(form.k, 1), hist))


def moments(form, ell, b, primes, hist):
    """value_moments on the fibers of hist's values at the primes."""
    return sv.value_moments(
        ell, sv.prime_fibers(form, ell, b, primes, hist), hist)


class TestParams:
    def test_n_one_rejected(self):
        with pytest.raises(ValueError):
            sv.SieveParams(form=diag(K3, 1, 2), ell=2, b=3, delta=2)

    def test_zero_form_rejected(self):
        zero = geo.MultiForm(K3, 2, 2, {(2, 0, 0): ()})
        with pytest.raises(ValueError):
            sv.SieveParams(form=zero, ell=2, b=3, delta=2)

    def test_composite_ell_rejected(self):
        with pytest.raises(ValueError):
            sv.SieveParams(form=diag(K3, 2, 4), ell=4, b=3, delta=2)

    def test_ell_must_divide_degree(self):
        # ell = 3 divides q - 1 = 6 but not m = 2
        with pytest.raises(ValueError):
            sv.SieveParams(form=diag(K7, 2, 2), ell=3, b=3, delta=2)

    def test_ell_must_divide_group_order(self):
        # ell = 5 divides m = 5 but not q - 1 = 6
        with pytest.raises(ValueError):
            sv.SieveParams(form=diag(K7, 2, 5), ell=5, b=3, delta=2)

    def test_characteristic_dividing_degree_rejected(self):
        # m = 6 = 2 * char over F_3; ell = 2 divides both m and q - 1
        with pytest.raises(ValueError):
            sv.SieveParams(form=diag(K3, 2, 6), ell=2, b=3, delta=2)

    def test_b_delta_window(self):
        for b, delta in ((4, 2), (2, 2), (5, 2)):
            with pytest.raises(ValueError):
                sv.SieveParams(form=QUADRIC, ell=2, b=b, delta=delta)

    def test_delta_max_must_cover_delta(self):
        # checked with the params, before any charge or scan
        config = rp.resolve_config(rp.load_config(CONFIG), {"delta_max": 1})
        with pytest.raises(ValueError, match="delta_max must cover"):
            rp.build_instance(config, Budget(10 ** 9), forbidden)

    def test_box_size(self):
        params, _ = quadric_instance()
        assert params.box_size == 3 ** 9 == 19683
        assert params.q == 3


class TestParameterSelection:
    def test_choose_delta_quadric_point(self):
        # floor(2*3/3) = 2 and the window 2 < 3 < 4 holds
        assert rp.choose_delta(2, 3) == 2

    def test_choose_delta_formula(self):
        for n in range(2, 5):
            for b in range(1, 20):
                assert rp.choose_delta(n, b) == n * b // (n + 1)

    def test_choose_delta_rejects_n_one(self):
        with pytest.raises(ValueError):
            rp.choose_delta(1, 5)

    def test_min_b_frozen(self):
        # b = 11 gives delta = 7 and (4*12)^2 = 2304 > 3^7 = 2187; b = 12
        # gives delta = 8 with (4*13)^2 = 2704 <= 6561 and 8 < 12 < 16
        b = min_b(2, 3, 0)
        assert b == 12
        assert rp.choose_delta(2, b) == 8

    def test_min_b_all_constraints_hold(self):
        for q in (3, 5, 7):
            b = min_b(2, q, 1)
            delta = rp.choose_delta(2, b)
            assert delta >= 1
            assert 4 * delta * 1 <= q ** delta
            assert (4 * (b + 1)) ** 2 <= q ** delta
            assert delta < b < 2 * delta

    def test_min_b_rejects_n_one(self):
        with pytest.raises(ValueError):
            min_b(1, 3, 0)

    def test_min_b_cap(self):
        with pytest.raises(ArithmeticError):
            min_b(2, 3, 10 ** 9, cap=5)

    def test_card_p_at_min_b(self):
        # 810 = (3^8 - 3^4)/8 monic irreducible octics >= 3^8/16
        r = verify_card_p(3, 8, 0)
        assert r["count"] == 810
        assert r["required"] == Fraction(6561, 16)
        assert r["pass"]

    def test_prime_count_bound(self):
        for q in (3, 5, 7):
            for delta in range(1, 7):
                assert pr.verify_prime_count(q, delta)["pass"], (q, delta)


class TestSievingSet:
    def test_quadric_set_frozen(self):
        # the diagonal unit quadric has good reduction everywhere, so the
        # set is all three monic irreducible quadratics over F_3
        assert exceptional_primes_of(QUADRIC, 2) == []
        primes, excluded = sv.build_sieving_set(K3, 2)
        names = [pr.format_poly(K3, p) for p in primes]
        assert names == ["1+T^2", "2+T+T^2", "2+2*T+T^2"]
        assert excluded == ()

    def test_exclusion(self):
        primes, excluded = sv.build_sieving_set(K3, 2, [P(K3, "1+T^2")])
        assert len(primes) == 2
        assert P(K3, "1+T^2") not in primes
        assert excluded == (P(K3, "1+T^2"),)

    def test_degree_drop_prime_is_excluded(self):
        # T * X_0^2 + X_1^2 + X_2^2 loses its X_0^2 term mod T
        form = geo.MultiForm(K3, 2, 2, {
            (2, 0, 0): P(K3, "T"),
            (0, 2, 0): (K3.one,),
            (0, 0, 2): (K3.one,),
        })
        exc = exceptional_primes_of(form, 1)
        assert P(K3, "T") in exc
        primes, _ = sv.build_sieving_set(K3, 1, exc)
        assert P(K3, "T") not in primes
        assert all(pr.degree(p) == 1 for p in primes)

    def test_members_are_monic_irreducible(self):
        primes, _ = sv.build_sieving_set(K7, 2)
        pool = set(pr.irreducibles(K7, 2))
        assert all(p in pool for p in primes)
        assert len(primes) == pr.count_irreducibles_formula(7, 2)


class TestFiberCount:
    def test_unit_point(self):
        # F(1,0,0) = 1, roots {1, 2} mod T
        x = ((K3.one,), (), ())
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) == 2
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) - 1 == 1

    def test_ramified_point(self):
        # F(1,1,1) = 3 = 0 in F_3, only y = 0
        x = ((K3.one,), (K3.one,), (K3.one,))
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) == 1
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) - 1 == 0

    def test_nonsquare_point(self):
        # F(1,1,0) = 2, a nonsquare in F_3
        x = ((K3.one,), (K3.one,), ())
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) == 0
        assert fiber_count(K3, P(K3, "T"), 2, QUADRIC, x) - 1 == -1

    def test_trichotomy_sample(self):
        # dual routes agree (checked inside fiber_count) and land in
        # {0, 1, ell} across all constant points and two primes
        from cycsieve.identities import box
        for pi_text in ("T", "1+T^2"):
            pi = P(K3, pi_text)
            for x in box(K3, 1, 3):
                assert fiber_count(K3, pi, 2, QUADRIC, x) in (0, 1, 2)

    def test_cubic_cover(self):
        # F(1,1,0) = 2 over F_7: 2 is not a cube (cubes are {1, 6}), and
        # F(1,1,1) = 3 likewise; F(0,1,2) = 1 + 1 = 2... use (1,0,0) = 1
        cubic = diag(K7, 2, 3)
        one = ((K7.one,), (), ())
        assert fiber_count(K7, P(K7, "T"), 3, cubic, one) == 3
        two = ((K7.one,), (K7.one,), ())
        assert fiber_count(K7, P(K7, "T"), 3, cubic, two) == 0


class TestRamifiedSet:
    def test_nonzero_constant_value(self):
        x = ((K3.one,), (), ())
        assert ramified_set(K3, _PRIMES, QUADRIC, x) == ()

    def test_zero_value_hits_every_prime(self):
        x = ((K3.one,), (K3.one,), (K3.one,))
        assert ramified_set(K3, _PRIMES, QUADRIC, x) == _PRIMES

    def test_size_bounded_by_value_degree(self):
        # distinct degree-delta divisors of a nonzero value g satisfy
        # (#divisors) * delta <= deg g
        delta = pr.degree(_PRIMES[0])
        from cycsieve.identities import box
        seen_nonempty = False
        for x in box(K3, 2, 3):
            g = eval_form_at_polys(QUADRIC, x)
            if not g:
                continue
            ram = ramified_set(K3, _PRIMES, QUADRIC, x)
            assert len(ram) * delta <= pr.degree(g)
            seen_nonempty = seen_nonempty or bool(ram)
        assert seen_nonempty


class TestBruteForce:
    def test_constant_box_frozen(self):
        # F = X_0^2+X_1^2+X_2^2 on constants over F_3: 9 zero values (all
        # counted via y = 0) and 6 values equal to 1 (the square) -> 15
        assert count_m(QUADRIC, 2, 1) == 15

    def test_within_trivial_bound(self):
        assert count_m(QUADRIC, 2, 1) <= 3 ** 3

    def test_cubic_against_local_enumeration(self):
        # third route, test-local: a constant value c is an ell-th power of
        # a polynomial iff c = 0 or c is an ell-th power in F_q
        cubic = diag(K7, 2, 3)
        cubes = {K7.power(a, 3) for a in K7.elements()}
        expected = 0
        for a in K7.elements():
            for b in K7.elements():
                for c in K7.elements():
                    val = K7.add(K7.add(K7.power(a, 3), K7.power(b, 3)),
                                 K7.power(c, 3))
                    if val in cubes:
                        expected += 1
        assert count_m(cubic, 3, 1) == expected

    def test_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sv, "box_convolution", forbidden)
        monkeypatch.setattr(sv, "solvable_count", forbidden)
        code = cli.main(["count", "--config", CONFIG, "--b", "3",
                         "--budget", "100", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 19683, limit 100;" in capsys.readouterr().err

    def test_residue_table_budget(self, tmp_path, monkeypatch, capsys):
        # at b = 2 the box (729), the power set (9) and the 3 linear primes
        # fit 741; the residue tables of 27 entries at each prime do not
        monkeypatch.setattr(sv, "prime_fibers", forbidden)
        code = cli.main(["count", "--config", CONFIG, "--b", "2",
                         "--budget", "741", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 822, limit 741;" in capsys.readouterr().err

    def test_power_set_budget(self):
        # the box {deg x < 1} has 27 points, but F reaches T-degree 8, so the
        # solvability test enumerates the 3^5 = 243 polynomials of degree
        # <= 4; that charge alone overruns the budget
        form = geo.MultiForm(K3, 2, 2, {
            (2, 0, 0): P(K3, "T^8"),
            (0, 2, 0): (K3.one,),
            (0, 0, 2): (K3.one,),
        })
        assert sv.box_pass_cost(form, 2, 1) == (27, 243)
        with pytest.raises(BudgetExceeded) as info:
            Budget(100).charge_each(sv.box_pass_cost(form, 2, 1))
        assert info.value.needed == 27 + 243
        budget = Budget(270)
        budget.charge_each(sv.box_pass_cost(form, 2, 1))
        assert budget.spent == 270
        assert count_m(form, 2, 1) > 0

    def test_power_set_budget_of_sieve_pass(self):
        # 19683 box points fit the budget; the 3^18 polynomials of degree
        # <= 17 whose squares can reach the values of degree 34 do not
        form = geo.MultiForm(K3, 2, 2, {
            (2, 0, 0): P(K3, "T^30"),
            (0, 2, 0): (K3.one,),
            (0, 0, 2): (K3.one,),
        })
        with pytest.raises(BudgetExceeded) as info:
            Budget(10 ** 5).charge_each(sv.box_pass_cost(form, 2, 3))
        assert info.value.needed == 19683 + 3 ** 18

    def test_polynomial_coefficient_form(self):
        # degree-raising coefficient: the value set leaves the constants
        form = geo.MultiForm(K3, 2, 2, {
            (2, 0, 0): P(K3, "T"),
            (0, 2, 0): (K3.one,),
            (0, 0, 2): (K3.one,),
        })
        assert 0 < count_m(form, 2, 2) <= 3 ** 6


class TestSieveTerms:
    def test_quadric_instance_frozen(self):
        report = sv.sieve_terms(_PARAMS, _PRIMES, _M, acc=_ACC)
        assert report["A"] == 19683
        assert report["trivial_bound"] == 19683
        assert report["M"] == 927
        assert report["main_term"] == 6561
        # ram_sum = 6561: each quadratic prime divides F(x) for exactly
        # |A| * 81/729 = 2187 box points (the quadric has 81 points over
        # F_9 and reduction mod a quadratic is uniform on the box)
        assert report["ramified_term"] == 4374
        assert report["unramified_term"] == 1782
        assert report["rhs"] == 12717
        assert report["inequality_pass"] is True
        assert report["count_within_box"] is True
        assert report["psi_square_identity"] is True
        assert report["ramified_majorization"] is True
        assert report["pair_symmetric"] is True
        assert report["primes"] == ["1+T^2", "2+T+T^2", "2+2*T+T^2"]

    def test_terms_are_exact_rationals(self):
        report = sv.sieve_terms(_PARAMS, _PRIMES, _M, acc=_ACC)
        assert isinstance(report["main_term"], Fraction)
        assert isinstance(report["ramified_term"], Fraction)
        assert isinstance(report["M"], int)

    def test_pair_minimum(self):
        primes, _ = sv.build_sieving_set(
            K3, 2, [P(K3, "1+T^2"), P(K3, "2+T+T^2")])
        assert len(primes) == 1
        with pytest.raises(ValueError):
            sv.sieve_terms(_PARAMS, primes, _M, _ACC)

    def test_pair_minimum_refused_before_box_pass(self, tmp_path,
                                                  monkeypatch, capsys):
        # 1+T^2 and 2+T+T^2 divide a coefficient, so the scan leaves one
        # quadratic prime, and the run stops before its box pass
        form = {"n": 2, "m": 2, "terms": [
            {"exps": [2, 0, 0], "coeff": "1"},
            {"exps": [0, 2, 0], "coeff": "1+T^2"},
            {"exps": [0, 0, 2], "coeff": "2+T+T^2"}]}
        monkeypatch.setattr(sv, "box_convolution", forbidden)
        code = cli.main(["sieve-run", "--config", CONFIG, "--form",
                         json.dumps(form), "--out", str(tmp_path)])
        assert code == 2
        assert "need at least two sieving primes for the pair max" \
            in capsys.readouterr().err
        assert not (tmp_path / "sieve_report.json").exists()

    def test_budget(self, tmp_path, monkeypatch, capsys):
        # a sieve run charges its box pass while it builds the instance,
        # before the scan
        monkeypatch.setattr(geo, "compute_exceptional_primes", forbidden)
        code = cli.main(["sieve-run", "--config", CONFIG, "--budget", "1000",
                         "--out", str(tmp_path)])
        assert code == 3
        assert "needs 19683, limit 1000;" in capsys.readouterr().err


class TestGeneralInequality:
    def test_coefficient_table(self):
        # ell = 2, alpha = 1: per-prime factor is -1 + 3N - N^2
        c = sv.c_coefficients(1, 2)
        assert c == {(0, 0): 1, (1, 0): -3, (0, 1): -3, (1, 1): 9,
                     (2, 0): 1, (0, 2): 1, (2, 1): -3, (1, 2): -3,
                     (2, 2): 1}

    def test_coefficient_corners_any_alpha(self):
        for ell in (2, 3, 5):
            for alpha in (1, 2, 7):
                c = sv.c_coefficients(alpha, ell)
                assert c[(2, 2)] == 1
                assert c[(1, 1)] == (1 + ell) ** 2
                assert c[(1, 0)] == c[(0, 1)]
                assert c[(2, 1)] == c[(1, 2)] == -(1 + ell)

    def test_quadric_grid_frozen(self):
        assert sv.ALPHA_GRID == (1, 2, 3, 4)
        table = sv.sieve_inequality_general(_PARAMS, _PRIMES, _M, acc=_ACC)
        assert table["M"] == 927
        assert table["ram_sum"] == 6561
        assert [r["sum_I2"] for r in table["rows"]] == [
            63180, 242352, 713772, 1477440]
        assert all(r["expansion_equal"] for r in table["rows"])
        assert all(r["rhs_dominates"] for r in table["rows"])
        assert all(r["pass_direct"] and r["pass_absolute"]
                   for r in table["rows"])
        assert table["rows"][0]["rhs_direct"] == Fraction(11394)
        assert table["argmin_alpha"] == 1  # = ell - 1
        assert table["all_pass"] is True

    def test_empty_sieving_set_rejected(self):
        with pytest.raises(ValueError):
            sv.sieve_inequality_general(_PARAMS, (), _M, _ACC)


def per_point_moments(k, form, ell, b, primes):
    """M and the sieve integers of value_moments, recomputed point by
    point: every point of the box pr.box is evaluated with
    eval_form_at_polys and decided on its own, by the power set and the
    squarefree decomposition.  The differential oracle of the
    value-histogram pass."""
    arity = form.n + 1
    P = len(primes)
    datas = [residue_data(k, p, ell) for p in primes]
    digits = sv.value_digits(form, b)
    powers = sv._ell_th_power_set(k, ell, digits)

    ram_sum = 0
    psi_square_ok = True
    M = 0
    S = [[[[0] * 3 for _ in range(3)] for _ in range(P)] for _ in range(P)]
    sum_u2 = sum_us = sum_s2 = 0

    for x in pr.box(k, b, arity):
        g = eval_form_at_polys(form, x)
        if sv._globally_solvable(k, ell, pr.poly_to_index(k, g, digits),
                                 digits, powers):
            M += 1
        unram = []
        fibers = []
        u = 0
        s = 0
        for p, data in zip(primes, datas):
            fiber = data.root_count[data.kpi.reduce_poly(g)]
            is_unram = bool(pr.poly_mod(k, g, p)) if g else False
            unram.append(is_unram)
            fibers.append(fiber)
            if is_unram:
                psi = fiber - 1
                if psi * psi != (ell - 1) + (ell - 2) * psi:
                    psi_square_ok = False
                u += 1
                s += psi * (ell - 1 - psi)
            else:
                ram_sum += 1
        sum_u2 += u * u
        sum_us += u * s
        sum_s2 += s * s
        live = [i for i in range(P) if unram[i]]
        for i1 in live:
            f1 = fibers[i1]
            pow1 = (1, f1, f1 * f1)
            for i2 in live:
                f2 = fibers[i2]
                pow2 = (1, f2, f2 * f2)
                cell = S[i1][i2]
                for i in range(3):
                    row = cell[i]
                    a = pow1[i]
                    for j in range(3):
                        row[j] += a * pow2[j]
    return {
        "ram_sum": ram_sum,
        "psi_square_ok": psi_square_ok,
        "M": M,
        "S": S,
        "sum_u2": sum_u2,
        "sum_us": sum_us,
        "sum_s2": sum_s2,
    }


K4 = pr.make_field(2, 2)
K5 = ffield.GF(5)
K9 = pr.make_field(3, 2)


def _form(k, n, m, terms):
    return geo.MultiForm(k, n, m, {e: P(k, c) if isinstance(c, str) else c
                                   for e, c in terms.items()})


def _histogram_cases():
    """(label, k, ell, form, b): diagonal, linked and T-coefficient forms
    over F_3, F_4, F_5, F_7 and F_9, each the cover y^ell = F on the box
    {deg x < b}."""
    g9 = 4  # a non-square of F_9 (F_9^* has even order)
    return [
        ("q3-diagonal", K3, 2, diag(K3, 2, 2), 2),
        ("q3-T-coefficients", K3, 2, _form(K3, 2, 2, {
            (2, 0, 0): "1+T", (1, 1, 0): "T", (0, 1, 1): "2",
            (0, 0, 2): "2*T^2"}), 2),
        # F_4: the coefficient 2 is the generator, outside the prime field
        ("q4-cubic-diagonal", K4, 3, diag(K4, 2, 3), 2),
        ("q4-cubic-T-coefficients", K4, 3, _form(K4, 2, 3, {
            (3, 0, 0): "1", (0, 3, 0): "2", (0, 0, 3): "1+T",
            (1, 1, 1): "3"}), 2),
        ("q5-diagonal", K5, 2, _form(K5, 2, 2, {
            (2, 0, 0): "1", (0, 2, 0): "2", (0, 0, 2): "3"}), 2),
        ("q7-quadric-non-diagonal", K7, 2, _form(K7, 2, 2, {
            (1, 1, 0): "1", (0, 0, 2): "3+T", (1, 0, 1): "2"}), 1),
        ("q7-cubic-diagonal", K7, 3, diag(K7, 2, 3), 1),
        ("q7-cubic-T-coefficients", K7, 3, _form(K7, 2, 3, {
            (3, 0, 0): "1", (0, 3, 0): "2", (0, 0, 3): "T",
            (1, 1, 1): "1+T"}), 2),
        ("q9-non-diagonal", K9, 2, _form(K9, 2, 2, {
            (2, 0, 0): (K9.one,), (0, 1, 1): (g9,), (0, 0, 2): (g9, K9.one)}),
         1),
        # n = 3, q = 3, b = 2: 6 561 points
        ("q3-n3-diagonal", K3, 2, diag(K3, 3, 2), 2),
        ("q3-n3-linked-pair", K3, 2, _form(K3, 3, 2, {
            (2, 0, 0, 0): "1", (1, 1, 0, 0): "T", (0, 0, 2, 0): "2",
            (0, 1, 0, 1): "2", (0, 0, 0, 2): "1+T"}), 2),
        ("q3-n3-xn-linked", K3, 2, _form(K3, 3, 4, {
            (4, 0, 0, 0): "1", (1, 1, 0, 2): "1+T", (0, 0, 4, 0): "2",
            (0, 0, 1, 3): "1", (0, 0, 0, 4): "T"}), 2),
    ]


def _case_primes(k):
    return tuple(pr.irreducibles(k, 1)[:2]) + tuple(pr.irreducibles(k, 2)[:1])


@pytest.mark.parametrize("case", _histogram_cases(), ids=lambda c: c[0])
def test_value_moments_equal_per_point_pass(case):
    _, k, ell, form, b = case
    if k.size ** (b * (form.n + 1)) > 60000:
        b -= 1  # the per-point walk takes seconds on 7^6 points
    hist = sv.box_histogram(form, b)
    assert sum(hist.values()) == k.size ** (b * (form.n + 1))
    primes = _case_primes(k)
    fibers = sv.prime_fibers(form, ell, b, primes, hist)
    found = sv.value_moments(ell, fibers, hist)
    found["M"] = sv.solvable_count(form, ell, b, hist, fibers)
    assert found == per_point_moments(k, form, ell, b, primes)


@pytest.mark.parametrize("case", _histogram_cases(), ids=lambda c: c[0])
def test_local_obstruction_count_equals_squarefree_on_every_value(
        case, monkeypatch):
    # route 2 with the fibers at every prime of degree <= 2 against the
    # squarefree decomposition of every value, for each ell | q - 1 in
    # {2, 3}; the obstruction settles values, so fewer reach the squarefree
    # route
    _, k, _, form, b = case
    hist = sv.box_histogram(form, b)
    digits = sv.value_digits(form, b)
    primes = pr.irreducibles(k, 1) + pr.irreducibles(k, 2)
    decide, decided = sv._solvable_by_squarefree, []

    def recording(k, ell, g):
        decided.append(g)
        return decide(k, ell, g)

    for ell in (2, 3):
        if (k.size - 1) % ell:
            continue
        oracle = sum(count for v, count in hist.items() if decide(
            k, ell, pr.poly_from_index(k, v, digits)))
        fibers = sv.prime_fibers(form, ell, b, primes, hist)
        monkeypatch.setattr(sv, "_solvable_by_squarefree", recording)
        decided.clear()
        assert sv.solvable_count(form, ell, b, hist, fibers) == oracle
        assert len(decided) < len(hist)
        monkeypatch.undo()
        assert sv.solvable_count(form, ell, b, hist, ()) == oracle


@pytest.mark.parametrize("case", _histogram_cases(), ids=lambda c: c[0])
def test_count_decides_m_by_the_local_obstruction(case, tmp_path,
                                                  monkeypatch):
    # count's M against the squarefree decomposition of every value; the
    # values its q linear primes obstruct skip the decomposition, so fewer
    # reach it than there are distinct values.  Not on the diagonal F_4
    # cubic: at T = c each value is a sum of cubes in F_4, each 0 or 1, so
    # no linear prime obstructs it
    label, k, ell, form, b = case
    hist = sv.box_histogram(form, b)
    digits = sv.value_digits(form, b)
    decide, decided = sv._solvable_by_squarefree, []
    oracle = sum(count for v, count in hist.items() if decide(
        k, ell, pr.poly_from_index(k, v, digits)))

    def recording(k, ell, g):
        decided.append(g)
        return decide(k, ell, g)

    config = {"p": k.char, "e": k.degree_over_prime, "ell": ell, "b": b,
              "form": geo.form_to_json(form)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setattr(sv, "_solvable_by_squarefree", recording)
    assert cli.main(["count", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "count.json").read_text())
    assert report["M"] == oracle
    linear = pr.irreducibles(k, 1)
    assert len(decided) == len(hist) - len(
        obstructed(k, ell, digits, linear, hist))
    assert len(decided) < len(hist) or label == "q4-cubic-diagonal"


@pytest.mark.parametrize("case", _histogram_cases(), ids=lambda c: c[0])
def test_squarefree_route_equals_factoring_on_box_values(case):
    _, k, _, form, b = case
    digits = sv.value_digits(form, b)
    values = [pr.poly_from_index(k, v, digits)
              for v in sv.box_histogram(form, b)]
    for ell in (2, 3):
        if (k.size - 1) % ell:
            continue
        for g in values:
            assert sv._solvable_by_squarefree(k, ell, g) \
                == solvable_by_factoring(k, ell, g), (ell, g)


@pytest.mark.parametrize("k", [K3, K5, K7, K9], ids=lambda k: str(k.size))
def test_squarefree_route_on_powers_and_frobenius_values(k):
    q, p = k.size, k.char
    rng = random.Random(q)
    for ell in (2, 3):
        if (q - 1) % ell:
            continue
        ell_th = {k.power(u, ell) for u in k.elements() if u != k.zero}
        # every ell-th power of a polynomial of degree <= 2, times every unit
        for i in range(1, q ** 3):
            y = pr.poly_from_index(k, i, 3)
            power = (k.one,)
            for _ in range(ell):
                power = pr.mul(k, power, y)
            for u in k.elements():
                if u == k.zero:
                    continue
                g = pr.smul(k, u, power)
                assert sv._solvable_by_squarefree(k, ell, g) is (u in ell_th)
        # values g(T^p), alone and times an ell-th power, which reach the
        # p-th-root step
        for _ in range(60):
            h = pr.poly_from_index(k, rng.randrange(1, q ** 3), 3)
            g = pr.normalize(k, [c if e % p == 0 else k.zero
                                 for e in range(p * (len(h) - 1) + 1)
                                 for c in [h[e // p]]])
            assert pr.degree(g) == p * pr.degree(h)
            y = pr.poly_from_index(k, rng.randrange(1, q ** 2), 2)
            for value in (g, pr.mul(k, g, pr.mul(k, y, y)),
                          pr.mul(k, pr.mul(k, g, g), g)):
                assert sv._solvable_by_squarefree(k, ell, value) \
                    == solvable_by_factoring(k, ell, value), (ell, value)


def tuple_box_histogram(k, form, b):
    """Counter(F(x)) as polynomials over the box {deg x < b}, on tuple
    arithmetic: rows split into a free part and a key from per-coordinate
    power tables, rows grouped by key and convolved with the key's values
    over x_n.  The differential oracle of the value-index pass."""
    n, m = form.n, form.m
    coords = [pr.poly_from_index(k, i, b) for i in range(k.size ** max(b, 0))]
    width = len(coords)
    powers = []  # powers[i][e] = coords[i]^e for e = 0 .. m
    for x in coords:
        xe = [(k.one,)]
        for _ in range(m):
            xe.append(pr.mul(k, xe[-1], x))
        powers.append(xe)
    terms = [(exps[:n], exps[n], coeff) for exps, coeff in form.terms.items()]

    def split_row(r):
        digits = []
        for _ in range(n):
            r, d = divmod(r, width)
            digits.append(d)
        digits.reverse()
        parts = [()] * (m + 1)
        for head, j, coeff in terms:
            t = coeff
            for d, e in zip(digits, head):
                if e:
                    t = pr.mul(k, t, powers[d][e])
            parts[j] = pr.add(k, parts[j], t)
        return parts[0], tuple(parts[1:])

    def values_over_row(key):
        out = []
        for xe in powers:
            v = ()
            for c, power in zip(key, xe[1:]):
                if c:
                    v = pr.add(k, v, pr.mul(k, c, power))
            out.append(v)
        return out

    hist = Counter()
    groups = {}
    for r in range(width ** n):
        free, key = split_row(r)
        groups.setdefault(key, Counter())[free] += 1
    for key, frees in groups.items():
        over_row = Counter(values_over_row(key))
        for free, c in frees.items():
            for v, d in over_row.items():
                hist[pr.add(k, free, v)] += c * d
    return hist


def decoded(k, hist, digits):
    """A histogram of value indices as a Counter of polynomials."""
    out = Counter()
    for v, count in hist.items():
        assert 0 <= v < k.size ** digits
        out[pr.poly_from_index(k, v, digits)] += count
    return out


@pytest.mark.parametrize("case", _histogram_cases(), ids=lambda c: c[0])
def test_value_index_histogram_equals_tuple_pass(case):
    # the whole box, and the shares of its last convolution for 1 to 4
    # workers, which hold every pair once and no value twice between them
    _, k, _, form, b = case
    digits = sv.value_digits(form, b)
    assert digits == form.deg_T() + form.m * (b - 1) + 1
    expected = tuple_box_histogram(k, form, b)
    full = sv.box_histogram(form, b)
    assert all(type(v) is int for v in full)
    assert decoded(k, full, digits) == expected
    adder, operands = sv.box_convolution(form, b)
    for shares in (1, 2, 3, 4):
        plan = sv.deal_shares(k, operands, shares)
        parts = [Counter(sv.convolve_share(adder, operands, plan, share))
                 for share in range(shares)]
        assert all(part for part in parts)
        classes = len(plan[1])
        assert all(plan[1][v % classes] == share
                   for share, part in enumerate(parts) for v in part)
        assert sum(map(len, parts)) == len(full)
        assert sum(parts, Counter()) == full


def test_box_pass_work_is_per_coordinate_not_per_row(monkeypatch):
    # the unit quaternary box (n = 3, q = 3, b = 3, m = 2): 19 683 rows; the
    # pass multiplies O(n q^b m) times and makes one digitwise-sum call per
    # distinct partial sum of row parts, never one per row, whether its last
    # convolution runs as one share or as three
    form = diag(K3, 3, 2)
    n, width, m = 3, 27, 2
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pr, "mul", counted("mul", pr.mul))
    for name in ("add", "add_to_each"):
        monkeypatch.setattr(sv.ValueAdder, name,
                            counted(name, getattr(sv.ValueAdder, name)))
    for shares in (1, 3):
        calls.clear()
        adder, operands = sv.box_convolution(form, 3)
        assert sv.pair_count(operands) == 3290
        plan = sv.deal_shares(K3, operands, shares)
        total = sum(sum(sv.convolve_share(adder, operands, plan,
                                          share).values())
                    for share in range(shares))
        assert total == 3 ** 12
        assert calls["mul"] <= 2 * n * width * m
        assert calls["add"] + calls["add_to_each"] <= 4 * n * width * m
        assert 4 * n * width * m < width ** n // 10


@pytest.mark.parametrize("k, h", [(K3, 5), (K5, 3), (K9, 2)])
def test_block_sums_equal_polynomial_addition(k, h):
    # h is the widest block whose table of q^(2h) sums ValueAdder builds
    assert k.size ** (2 * h) <= sv.BLOCK_SUM_SIZE < k.size ** (2 * h + 2)
    assert sv.ValueAdder(k, h, sv.BLOCK_SUM_SIZE).scales == [1]
    # a pass of fewer points builds a table no larger than its points
    small = sv.ValueAdder(k, h, k.size ** (2 * h) - 1)
    assert len(small.scales) == 2 and len(small.sums) < k.size ** (2 * h)
    sums = sv.block_sums(k, h)
    width = k.size ** h
    assert len(sums) == width * width
    polys = [pr.poly_from_index(k, i, h) for i in range(width)]
    for a, f in enumerate(polys):
        for c, g in enumerate(polys):
            assert sums[a * width + c] == pr.poly_to_index(
                k, pr.add(k, f, g), h)


def test_multi_block_value_sums():
    # q = 7, D = 5: blocks of 3 digits, two of them per value
    adder = sv.ValueAdder(K7, 5, 7 ** 10)
    assert adder.width == 7 ** 3 and adder.scales == [1, 7 ** 3]
    rng = random.Random(2000)
    pairs = [(rng.randrange(7 ** 5), rng.randrange(7 ** 5))
             for _ in range(2000)]
    for a, c in pairs:
        f, g = pr.poly_from_index(K7, a, 5), pr.poly_from_index(K7, c, 5)
        assert adder.add(a, c) == pr.poly_to_index(K7, pr.add(K7, f, g), 5)
    cs = [c for _, c in pairs[:50]]
    for a, _ in pairs[:50]:
        assert adder.add_to_each(a, adder.columns(cs)) \
            == [adder.add(a, c) for c in cs]


@pytest.mark.parametrize("k, digits", [(K3, 5), (K5, 4), (K7, 3), (K9, 3)])
def test_residue_recurrence_equals_index_of_poly(k, digits):
    values = range(k.size ** digits)
    for pi in pr.irreducibles(k, 1)[:2] + pr.irreducibles(k, 2)[:2]:
        data = residue_data(k, pi, 2)
        assert sv.residue_indices(data, values, digits) == [
            data.kpi.reduce_poly(pr.poly_from_index(k, v, digits))
            for v in values]


def test_residue_recurrence_in_blocks():
    # one table for every value when it is no larger than the values; else
    # as few blocks as keep it so, and never above RESIDUE_TABLE_SIZE
    assert sv.residue_digits(3, 5, 243) == 5
    assert sv.residue_digits(7, 7, 171955) == 4
    assert 3 ** 13 > sv.RESIDUE_TABLE_SIZE >= 3 ** 7
    assert sv.residue_digits(3, 13, 3 ** 13) == 7
    # 2003 values of 13 digits: blocks of 5, 5 and 3 digits from the top
    digits = 13
    rng = random.Random(13)
    values = [rng.randrange(3 ** digits) for _ in range(2000)] + [
        0, 3 ** 12, 3 ** digits - 1]
    assert sv.residue_digits(3, digits, len(values)) == 5
    for pi in pr.irreducibles(K3, 1)[:1] + pr.irreducibles(K3, 2)[:1]:
        data = residue_data(K3, pi, 2)
        assert sv.residue_indices(data, values, digits) == [
            data.kpi.reduce_poly(pr.poly_from_index(K3, v, digits))
            for v in values]


def seeded_quadric_terms(seed):
    """Config terms of a ternary quadric over F_3 with every monomial's
    coefficient drawn from the polynomials of degree < 2 (zeros dropped)."""
    rng = random.Random(seed)
    terms = []
    for exps in ([2, 0, 0], [0, 2, 0], [0, 0, 2],
                 [1, 1, 0], [0, 1, 1], [1, 0, 1]):
        c0, c1 = rng.randrange(3), rng.randrange(3)
        parts = ([str(c0)] if c0 else []) + ([f"{c1}*T"] if c1 else [])
        if parts:
            terms.append({"exps": exps, "coeff": "+".join(parts)})
    return terms


def test_non_diagonal_sieve_run_end_to_end(tmp_path, capsys):
    # a seeded quadric with cross terms and T coefficients through sieve-run:
    # the artifacts of one and two workers agree byte for byte, and M is the
    # per-point pass's and the brute-force count's
    terms = seeded_quadric_terms(1)
    config = {"p": 3, "e": 1, "n": 2, "ell": 2, "b": 3, "delta": "auto",
              "delta_max": 2, "form": {"n": 2, "m": 2, "terms": terms}}
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert cli.main(["sieve-run", "--config", str(path), "--workers",
                         str(workers), "--out", str(out)]) == 0
    for name in ("sieve_report.json", "sieve_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "sieve_report.json").read_text())
    assert report["pass"] is True
    form = geo.form_from_json(K3, config["form"])
    assert not geo._is_diagonal(form.terms)
    assert any(len(c) > 1 for c in form.terms.values())
    primes = [P(K3, text) for text in report["sieve"]["primes"]]
    moments = per_point_moments(K3, form, 2, 3, primes)
    assert report["sieve"]["M"] == moments["M"] == count_m(form, 2, 3)
    assert f"M={moments['M']} " in capsys.readouterr().out


def obstructed(k, ell, digits, primes, hist) -> set:
    """The values of hist (value indices of the given digits) that some
    prime obstructs: the value is unramified there and its residue is no
    ell-th power, read from k_pi's own arithmetic."""
    out = set()
    for p in primes:
        kpi = pr.residue_field(k, p)
        powers = {kpi.power(y, ell) for y in range(kpi.size)}
        for v in hist:
            r = kpi.reduce_poly(pr.poly_from_index(k, v, digits))
            if r and r not in powers:
                out.add(v)
    return out


class TestSolvableCount:
    def test_value_moments_make_no_solvability_call(self, monkeypatch):
        # M is solvable_count's alone: the moments are the per-point pass's
        # without it
        expected = per_point_moments(K3, QUADRIC, 2, 3, _PRIMES)
        assert expected.pop("M") == 927
        monkeypatch.setattr(sv, "_globally_solvable", forbidden)
        monkeypatch.setattr(sv, "_solvable_by_squarefree", forbidden)
        assert sv.value_moments(2, _FIBERS, _HIST) == expected

    def test_each_value_decided_once_per_run(self, monkeypatch):
        # the values no sieving prime obstructs take the squarefree route,
        # each once
        decide, decided = sv._globally_solvable, []

        def recording(k, ell, v, digits, powers):
            decided.append(v)
            return decide(k, ell, v, digits, powers)

        monkeypatch.setattr(sv, "_globally_solvable", recording)
        config = rp.resolve_config(rp.load_config(CONFIG))
        assert rp.run_sieve(config, workers=1)["sieve"]["M"] == 927
        closed = obstructed(K3, 2, 5, _PRIMES, _HIST)
        assert sorted(decided) == sorted(set(_HIST) - closed)
        assert 0 < len(decided) < len(closed)

    @pytest.mark.parametrize("how", ("obstructed power", "missing power",
                                     "refuted power"))
    def test_forced_disagreement_raises(self, tmp_path, monkeypatch,
                                        capsys, how):
        # route 1 and route 2 made to disagree on one value each way: a
        # power-set value that a prime obstructs, or that the squarefree
        # decomposition refutes, and a square (the value 1) missing from
        # the power set
        power_set = sv._ell_th_power_set
        if how == "obstructed power":
            v = min(obstructed(K3, 2, 5, _PRIMES, _HIST))
            monkeypatch.setattr(sv, "_ell_th_power_set",
                                lambda *args: power_set(*args) | {v})
            word = "power-set True, a local obstruction"
        elif how == "missing power":
            monkeypatch.setattr(sv, "_ell_th_power_set",
                                lambda *args: power_set(*args) - {1})
            word = "power-set False, squarefree decomposition True"
        else:
            monkeypatch.setattr(sv, "_solvable_by_squarefree",
                                lambda *args: False)
            word = "power-set True, squarefree decomposition False"
        code = cli.main(["sieve-run", "--config", CONFIG,
                         "--out", str(tmp_path)])
        assert code == 1
        assert word in capsys.readouterr().err
        assert not (tmp_path / "sieve_report.json").exists()

    def test_forced_disagreement_through_count(self, tmp_path, monkeypatch,
                                               capsys):
        # a power-set value that one of count's linear primes obstructs
        # stops the run before its artifact
        power_set = sv._ell_th_power_set
        v = min(obstructed(K3, 2, 5, pr.irreducibles(K3, 1), _HIST))
        monkeypatch.setattr(sv, "_ell_th_power_set",
                            lambda *args: power_set(*args) | {v})
        code = cli.main(["count", "--config", CONFIG, "--out",
                         str(tmp_path)])
        assert code == 1
        assert ("power-set True, a local obstruction"
                in capsys.readouterr().err)
        assert not (tmp_path / "count.json").exists()

    def test_count_and_sieve_run_report_one_m(self, tmp_path, capsys):
        assert cli.main(["count", "--config", CONFIG, "--b", "3", "--out",
                         str(tmp_path / "count")]) == 0
        assert cli.main(["sieve-run", "--config", CONFIG, "--out",
                         str(tmp_path / "sieve")]) == 0
        out = capsys.readouterr().out
        assert "M_2(F; 3) = 927 " in out and "M=927 " in out
        count = json.loads((tmp_path / "count" / "count.json").read_text())
        sieve = json.loads(
            (tmp_path / "sieve" / "sieve_report.json").read_text())
        assert count["M"] == sieve["sieve"]["M"] == 927


def counted_forks(monkeypatch) -> list:
    """Patch os.fork to note each call in the returned list."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


LINKED = _form(K3, 2, 2, {(2, 0, 0): "1", (1, 1, 0): "1", (0, 1, 1): "1",
                          (0, 2, 0): "1", (0, 0, 2): "1"})
T_FORM = _form(K3, 2, 2, {(2, 0, 0): "1+T", (1, 1, 0): "T", (0, 1, 1): "2",
                          (0, 0, 2): "2*T^2"})


class TestChunking:
    def test_chunked_merge_equals_full_pass(self):
        adder, operands = sv.box_convolution(QUADRIC, 3)
        full = sv.box_histogram(QUADRIC, 3)
        assert sum(full.values()) == _PARAMS.box_size
        for shares in (2, 7):
            plan = sv.deal_shares(K3, operands, shares)
            parts = [sv.convolve_share(adder, operands, plan, share)
                     for share in range(shares)]
            merged = sum(map(Counter, parts), Counter())
            assert merged == full
            assert moments(QUADRIC, 2, 3, _PRIMES, merged) == _ACC

    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_parallel_accumulator_any_worker_count(self, monkeypatch,
                                                   workers):
        # every pass forks here, as one pair pays for a fork
        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        forks = counted_forks(monkeypatch)
        for form in (QUADRIC, LINKED, T_FORM):
            params = sv.SieveParams(form=form, ell=2, b=3, delta=2)
            full = sv.box_histogram(form, 3)
            assert rp.parallel_accumulator(params, workers) == full
        assert len(forks) == 3 * (workers - 1)
        assert_no_child_left()

    def test_forks_only_where_the_pairs_pay(self, monkeypatch):
        # the reference pass convolves 1 302 pairs, too few for a fork at
        # any worker count; the q = 5 pass convolves 98 595 and forks 2
        # children at 3 workers
        forks = counted_forks(monkeypatch)
        assert sv.pair_count(sv.box_convolution(QUADRIC, 3)[1]) == 1302
        assert rp.parallel_accumulator(_PARAMS, 4) == _HIST
        assert forks == []
        q5 = sv.SieveParams(form=diag(K5, 2, 2), ell=2, b=3, delta=2)
        assert sv.pair_count(sv.box_convolution(q5.form, 3)[1]) == 98595
        assert 98595 >= 3 * rp.FORK_PAIRS > 1302
        assert rp.parallel_accumulator(q5, 3) == sv.box_histogram(q5.form, 3)
        assert forks == [os.getpid()] * 2
        assert_no_child_left()

    @pytest.mark.parametrize("shares", (2, 3, 4))
    def test_deal_shares_balances_the_pairs(self, shares):
        # a pair goes to the share of its sum's class, and each share holds
        # within a tenth of its even part of the pairs
        for form in (QUADRIC, LINKED, T_FORM, diag(K5, 2, 2)):
            adder, operands = sv.box_convolution(form, 3)
            sums, owner = sv.deal_shares(form.k, operands, shares)
            classes = len(owner)
            load = Counter(owner[sums[f % classes * classes + x % classes]]
                           for frees, over in operands
                           for f in frees for x in over)
            even = sv.pair_count(operands) / shares
            assert all(abs(load[share] - even) <= even / 10
                       for share in range(shares))

    def test_overlapping_shares_raise(self, monkeypatch):
        # shares that both hold a value would lose a count when joined
        share_of = sv.convolve_share
        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        monkeypatch.setattr(sv, "convolve_share",
                            lambda adder, operands, plan=None, share=0:
                            share_of(adder, operands))
        with pytest.raises(ArithmeticError, match="two shares"):
            rp.parallel_accumulator(_PARAMS, 2)
        assert_no_child_left()

    @pytest.mark.parametrize("how", ("raises", "killed"))
    def test_failed_child_share_raises(self, monkeypatch, how):
        # with 3 workers share 0 is the first forked child's
        share_of = sv.convolve_share

        def failing(adder, operands, plan=None, share=0):
            if share == 0:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ZeroDivisionError("child share")
            return share_of(adder, operands, plan, share)

        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        monkeypatch.setattr(sv, "convolve_share", failing)
        word = "status 1" if how == "raises" else "signal"
        with pytest.raises(RuntimeError, match=rf"share 1 of 3 .*{word}"):
            rp.parallel_accumulator(_PARAMS, 3)
        assert_no_child_left()

    @pytest.mark.parametrize("error", (ZeroDivisionError, KeyboardInterrupt))
    def test_failed_own_share_kills_children(self, monkeypatch, error):
        # the last share, 2 of 0 .. 2, is this process's; the children
        # would sleep on past the test unless they are killed
        def failing(adder, operands, plan=None, share=0):
            if share == 2:
                raise error("own share")
            time.sleep(60)

        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        monkeypatch.setattr(sv, "convolve_share", failing)
        began = time.monotonic()
        with pytest.raises(error, match="own share"):
            rp.parallel_accumulator(_PARAMS, 3)
        assert time.monotonic() - began < 30
        assert_no_child_left()

    def test_without_fork_every_range_runs_here(self, monkeypatch):
        # a pass that would fork runs its whole last convolution here, as
        # one share, at any worker count
        share_of = sv.convolve_share
        shares = []

        def recording(adder, operands, plan=None, share=0):
            shares.append((plan, share))
            return share_of(adder, operands, plan, share)

        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(sv, "convolve_share", recording)
        for workers in (3, 100):
            shares.clear()
            assert rp.parallel_accumulator(_PARAMS, workers) == _HIST
            assert shares == [(None, 0)]
        assert_no_child_left()

    def test_chunk_budget(self, tmp_path, monkeypatch, capsys):
        # the box is priced before any of its pass runs
        monkeypatch.setattr(sv, "box_convolution", forbidden)
        code = cli.main(["sieve-run", "--config", CONFIG, "--budget", "100",
                         "--workers", "2", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 19683, limit 100;" in capsys.readouterr().err
