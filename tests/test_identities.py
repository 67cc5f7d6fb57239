"""Identity-verifier tests.

The verifiers already compute both sides by independent routes; the tests
here pin frozen instance values (computed by hand, recorded inline), check
the error contracts, and run the verifiers across small parameter sweeps.
"""

import pytest

from cycsieve import geometry as geo
from cycsieve import identities as idn
from cycsieve import polyring as pr
from cycsieve.charsums import Budget, BudgetExceeded
from cycsieve.ffield import GF

K3 = GF(3)
K7 = GF(7)


def P(k, text):
    return pr.parse_poly(k, text)


def const_form(k, n, m, coeff_map):
    return geo.MultiForm(k, n, m, {e: (k.from_int(c),) for e, c in coeff_map.items()})


def diag3(k):
    return const_form(k, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


class TestRootCount:
    def test_small_primes(self):
        for k, ell in ((K3, 2), (K7, 2), (K7, 3)):
            for pi in list(pr.irreducibles(k, 1)) + list(pr.irreducibles(k, 2))[:2]:
                res = idn.verify_root_count(k, pi, ell)
                assert res["equal"], res["params"]

    def test_values_mod_T_ell2(self):
        # residues 0,1,2 of F_3: squares are {0,1}; fibers have sizes 1,2,0
        res = idn.verify_root_count(K3, P(K3, "T"), 2)
        assert res["lhs"] == [1, 2, 0]
        assert res["equal"]


class TestGaussMagnitude:
    def test_all_small_moduli(self):
        for k, ell in ((K3, 2), (K7, 2), (K7, 3)):
            for pi in list(pr.irreducibles(k, 1)) + list(pr.irreducibles(k, 2))[:2]:
                res = idn.verify_gauss_magnitude(k, pi, ell)
                assert res["equal"], res["params"]
                Q = k.size ** pr.degree(pi)
                assert res["lhs"] == [Q] * (ell - 1)


class TestCountMod:
    def test_zero_point_composite_modulus(self):
        u = pr.mul(K3, P(K3, "T"), P(K3, "1+T"))
        a = ((), (), ())
        res = idn.verify_count_mod(K3, u, a, 1)
        assert res["equal"]
        assert res["lhs"] == 1  # only the zero tuple lies in the box

    def test_missed_residue_single_coordinate(self):
        # no constant is congruent to T mod T^2
        res = idn.verify_count_mod(K3, P(K3, "T^2"), (P(K3, "T"),), 1)
        assert res["equal"]
        assert res["lhs"] == 0

    def test_depends_on_a_only_mod_u(self):
        u = pr.mul(K3, P(K3, "T"), P(K3, "1+T"))
        a = (P(K3, "1+T"), P(K3, "2"), ())
        shift = (P(K3, "T"), P(K3, "1+T^2"), P(K3, "2"))
        a2 = tuple(pr.add(K3, ai, pr.mul(K3, u, h)) for ai, h in zip(a, shift))
        r1 = idn.verify_count_mod(K3, u, a, 1)
        r2 = idn.verify_count_mod(K3, u, a2, 1)
        assert r1["equal"] and r2["equal"]
        assert (r1["lhs"], r1["rhs"]) == (r2["lhs"], r2["rhs"])

    def test_nonmonic_modulus(self):
        u = P(K3, "2*T^2+T")  # 2T(T+2), non-monic composite
        res = idn.verify_count_mod(K3, u, (P(K3, "1"), P(K3, "T")), 1)
        assert res["equal"]

    def test_sweep_b_and_u(self):
        t = P(K3, "T")
        moduli = [
            P(K3, "1+2*T+T^3"),
            pr.mul(K3, P(K3, "T^2"), P(K3, "1+T")),
            pr.mul(K3, pr.mul(K3, P(K3, "1+T"), P(K3, "2+T")), t),
        ]
        for u in moduli:
            for b in range(1, pr.degree(u)):
                a = (P(K3, "1+T"), P(K3, "2*T^2"))
                res = idn.verify_count_mod(K3, u, a, b)
                assert res["equal"], (pr.format_poly(K3, u), b)

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            idn.verify_count_mod(K3, P(K3, "T^2"), ((),), 2)
        with pytest.raises(ValueError):
            idn.verify_count_mod(K3, P(K3, "T^2"), ((),), 0)


class TestCompletion:
    def test_crt_inverse_example(self):
        # T * pibar == 1 mod (T+1): T == -1 there, so pibar = -1 = 2
        pibar = pr.invert_mod(K3, P(K3, "T"), P(K3, "1+T"))
        assert pibar == P(K3, "2")

    def test_quadric_fixture(self):
        res = idn.verify_completion(
            K3, P(K3, "T"), P(K3, "1+T"), 2, 1, 1, diag3(K3), 1)
        assert res["equal"]

    def test_swap_symmetry(self):
        a = idn.verify_completion(
            K3, P(K3, "T"), P(K3, "1+T"), 2, 1, 1, diag3(K3), 1)
        b = idn.verify_completion(
            K3, P(K3, "1+T"), P(K3, "T"), 2, 1, 1, diag3(K3), 1)
        assert a["equal"] and b["equal"]
        assert a["lhs"] == b["lhs"] and a["rhs"] == b["rhs"]

    def test_mixed_degrees_and_b(self):
        for b in (1, 2):
            res = idn.verify_completion(
                K3, P(K3, "T"), P(K3, "1+T^2"), 2, 1, 1, diag3(K3), b)
            assert res["equal"], b

    def test_order_three_characters(self):
        f = const_form(K7, 1, 3, {(3, 0): 1, (0, 3): 1})
        for c1 in (1, 2):
            res = idn.verify_completion(
                K7, P(K7, "T"), P(K7, "1+T"), 3, c1, 2, f, 1)
            assert res["equal"], c1

    def test_preconditions(self):
        f = diag3(K3)
        with pytest.raises(ValueError):
            idn.verify_completion(K3, P(K3, "T"), P(K3, "2*T"), 2, 1, 1, f, 1)
        with pytest.raises(ValueError):
            idn.verify_completion(K3, P(K3, "T"), P(K3, "1+T"), 2, 0, 1, f, 1)
        with pytest.raises(ValueError):
            idn.verify_completion(K3, P(K3, "T"), P(K3, "1+T"), 2, 1, 1, f, 2)


class TestUnramifiedExpansion:
    def test_quadric_two_prime_fixture(self):
        res = idn.verify_unramified_expansion(
            K3, P(K3, "1+T^2"), P(K3, "2+T+T^2"), 2, diag3(K3), 3)
        assert res["equal"]
        assert res["zero_portion_vanishes"]
        assert res["pointwise_fiber_identity"]

    def test_degree_one_primes_all_b(self):
        for b in (1,):
            res = idn.verify_unramified_expansion(
                K3, P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), b)
            assert res["equal"], b
            assert res["zero_portion_vanishes"]

    def test_order_three(self):
        f = const_form(K7, 1, 3, {(3, 0): 1, (0, 3): 1})
        res = idn.verify_unramified_expansion(
            K7, P(K7, "T"), P(K7, "1+T"), 3, f, 1)
        assert res["equal"]
        assert res["zero_portion_vanishes"]
        assert res["pointwise_fiber_identity"]

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            idn.verify_unramified_expansion(
                K3, P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), 1,
                budget=Budget(5))

    def test_box_histograms_are_charged(self):
        # the 27 points of the box {deg x < 1} are charged before any sum
        for verify in (
                lambda budget: idn.verify_unramified_expansion(
                    K3, P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), 1,
                    budget=budget),
                lambda budget: idn.verify_completion(
                    K3, P(K3, "T"), P(K3, "1+T"), 2, 1, 1, diag3(K3), 1,
                    budget=budget)):
            with pytest.raises(BudgetExceeded) as info:
                verify(Budget(26))
            assert info.value.needed == 27

    def test_b_range(self):
        with pytest.raises(ValueError):
            idn.verify_unramified_expansion(
                K3, P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), 2)
