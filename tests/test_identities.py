"""Identity-verifier tests.

The verifiers already compute both sides by independent routes; the tests
here pin frozen instance values (computed by hand, recorded inline), check
the error contracts, and run the verifiers across small parameter sweeps.
"""

import copy
import pathlib
import random
from collections import Counter

import pytest

from cycsieve import characters
from cycsieve import cli
from cycsieve import geometry as geo
from cycsieve import identities as idn
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve import sieve as sv
from cycsieve.charsums import Budget, BudgetExceeded
from cycsieve.cyclotomic import CycRing
from cycsieve.ffield import GF
from oracles import count_mod_by_points

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

    @pytest.mark.parametrize("p, e, arity", [(3, 1, 3), (5, 1, 2),
                                             (7, 1, 2), (3, 2, 2),
                                             (2, 2, 2), (2, 3, 2)])
    def test_battery_rows_match_the_point_walk(self, p, e, arity):
        # every count-mod row of the battery (composite, prime-power and
        # prime moduli, every b < deg u), and for each (u, b) a non-monic
        # multiple of u with a seeded target of higher degree, against the
        # walk over the points of both boxes
        k = pr.make_field(p, e)
        low = {d: pr.irreducibles(k, d) for d in (1, 2)}
        unit = k.size - 1
        rng = random.Random(p * e)
        rows = list(cli.count_mod_cases(k, low, arity))
        assert len(rows) == 3 * (3 * 1 + 2 * 2)
        for u, b in dict.fromkeys((u, b) for u, _, b in rows):
            d = pr.degree(u)
            rows.append((pr.mul(k, (unit,), u), tuple(
                pr.poly_from_index(k, rng.randrange(k.size ** (d + 2)), d + 2)
                for _ in range(arity)), b))
        for u, a, b in rows:
            res = idn.verify_count_mod(k, u, a, b)
            assert res["equal"], res["params"]
            assert (res["lhs"], res["rhs"]) == count_mod_by_points(
                k, u, a, b), res["params"]

    def test_work_is_per_coordinate(self, monkeypatch):
        # per row: one psi_infty phase per coordinate and point of the dual
        # box {deg y < deg u - b}, and one reduction mod u per coordinate
        # and point of {deg x < b}; a point walk makes q^(b(n+1)) and
        # q^((deg u - b)(n+1))
        calls = Counter()
        poly_mod, psi_exponent = pr.poly_mod, idn.psi_exponent

        def counted_mod(*args):
            calls["poly_mod"] += 1
            return poly_mod(*args)

        def counted_psi(*args):
            calls["psi_exponent"] += 1
            outside = calls["poly_mod"]
            try:
                return psi_exponent(*args)
            finally:  # the phase's own reduction is not the count's
                calls["poly_mod"] = outside

        monkeypatch.setattr(pr, "poly_mod", counted_mod)
        monkeypatch.setattr(idn, "psi_exponent", counted_psi)
        arity, q = 3, 3
        low = {d: pr.irreducibles(K3, d) for d in (1, 2)}
        for u, a, b in cli.count_mod_cases(K3, low, arity):
            d = pr.degree(u)
            calls.clear()
            assert idn.verify_count_mod(K3, u, a, b)["equal"]
            assert calls["psi_exponent"] <= arity * q ** (d - b)
            assert calls["poly_mod"] <= arity * q ** b
            assert arity * q ** b < q ** (b * arity)

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
            P(K3, "T"), P(K3, "1+T"), 2, 1, 1, diag3(K3), 1)
        assert res["equal"]

    def test_swap_symmetry(self):
        a = idn.verify_completion(
            P(K3, "T"), P(K3, "1+T"), 2, 1, 1, diag3(K3), 1)
        b = idn.verify_completion(
            P(K3, "1+T"), P(K3, "T"), 2, 1, 1, diag3(K3), 1)
        assert a["equal"] and b["equal"]
        assert a["lhs"] == b["lhs"] and a["rhs"] == b["rhs"]

    def test_mixed_degrees_and_b(self):
        for b in (1, 2):
            res = idn.verify_completion(
                P(K3, "T"), P(K3, "1+T^2"), 2, 1, 1, diag3(K3), b)
            assert res["equal"], b

    def test_order_three_characters(self):
        f = const_form(K7, 1, 3, {(3, 0): 1, (0, 3): 1})
        for c1 in (1, 2):
            res = idn.verify_completion(
                P(K7, "T"), P(K7, "1+T"), 3, c1, 2, f, 1)
            assert res["equal"], c1

    def test_preconditions(self):
        f = diag3(K3)
        with pytest.raises(ValueError):
            idn.verify_completion(P(K3, "T"), P(K3, "2*T"), 2, 1, 1, f, 1)
        with pytest.raises(ValueError):
            idn.verify_completion(P(K3, "T"), P(K3, "1+T"), 2, 0, 1, f, 1)
        with pytest.raises(ValueError):
            idn.verify_completion(P(K3, "T"), P(K3, "1+T"), 2, 1, 1, f, 2)


class TestUnramifiedExpansion:
    def test_quadric_two_prime_fixture(self):
        res = idn.verify_unramified_expansion(
            P(K3, "1+T^2"), P(K3, "2+T+T^2"), 2, diag3(K3), 3)
        assert res["equal"]
        assert res["zero_portion_vanishes"]
        assert res["pointwise_fiber_identity"]

    def test_degree_one_primes_all_b(self):
        for b in (1,):
            res = idn.verify_unramified_expansion(
                P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), b)
            assert res["equal"], b
            assert res["zero_portion_vanishes"]

    def test_order_three(self):
        f = const_form(K7, 1, 3, {(3, 0): 1, (0, 3): 1})
        res = idn.verify_unramified_expansion(
            P(K7, "T"), P(K7, "1+T"), 3, f, 1)
        assert res["equal"]
        assert res["zero_portion_vanishes"]
        assert res["pointwise_fiber_identity"]

    def test_character_table_is_per_residue_index(self, monkeypatch):
        # the quadric mod two quadratic primes on {deg x < 3}: F takes more
        # distinct values than there are residue indices mod both primes,
        # and the sums over the characters are built (by the root-count
        # check of characters) and checked once per residue index, never
        # once per value
        form, Q, ell = diag3(K3), 9, 2
        values = len(sv.box_histogram(form, 3))
        assert values > 2 * Q
        calls = Counter()
        character_sum, as_int = characters.character_sum, CycRing.as_int

        def counted_sum(data, idx):
            calls["character_sum"] += 1
            return character_sum(data, idx)

        def counted_as_int(ring, a):
            calls["as_int"] += 1
            return as_int(ring, a)

        monkeypatch.setattr(characters, "character_sum", counted_sum)
        monkeypatch.setattr(CycRing, "as_int", counted_as_int)
        res = idn.verify_unramified_expansion(
            P(K3, "1+T^2"), P(K3, "2+T+T^2"), ell, form, 3)
        assert res["equal"] and res["pointwise_fiber_identity"]
        assert calls["character_sum"] <= 2 * Q
        assert calls["as_int"] <= 2 * Q + 1  # and once for the quotient

    def test_pointwise_check_reads_the_fiber_table(self, monkeypatch):
        # a fiber size off by one at a residue the box reaches fails the
        # pointwise identity
        real = idn.residue_data

        def corrupted(k, pi, ell):
            data = copy.copy(real(k, pi, ell))
            data.root_count = list(data.root_count)
            data.root_count[1] += 1
            return data

        monkeypatch.setattr(idn, "residue_data", corrupted)
        res = idn.verify_unramified_expansion(
            P(K3, "1+T^2"), P(K3, "2+T+T^2"), 2, diag3(K3), 3)
        assert not res["pointwise_fiber_identity"]

    def test_zero_portion_reads_route_a(self, monkeypatch):
        # a fiber size other than 1 at residue 0 gives the {pi1 pi2 | F(x)}
        # points route A leaves out a weight, x = 0 among them; the
        # reference battery then fails, on its expansion row alone
        real, expansion = idn.residue_data, idn.verify_unramified_expansion

        def corrupted(k, pi, ell):
            data = copy.copy(real(k, pi, ell))
            data.root_count = list(data.root_count)
            data.root_count[0] = 2
            return data

        def corrupted_expansion(*args):
            monkeypatch.setattr(idn, "residue_data", corrupted)
            try:
                return expansion(*args)
            finally:
                monkeypatch.setattr(idn, "residue_data", real)

        monkeypatch.setattr(idn, "verify_unramified_expansion",
                            corrupted_expansion)
        suite = cli.run_identity_suite(
            rp.resolve_config(rp.load_config(CONFIG)))
        row, = [r for r in suite["rows"] if r["id"] == "unramified-expansion"]
        assert not row["zero_portion_vanishes"]
        assert not suite["all_pass"]
        assert all(r["equal"] for r in suite["rows"] if r is not row)

    def test_budget_propagates(self):
        # mod two linear primes on {deg x < 1}: the box, then the 27 points
        # of the complementary box and, mod each prime, the table of F on
        # 27 points and the transform (3 passes over 3 * 2 layers, 3
        # outputs of 3 blocks)
        price = idn.two_prime_cost(3, (1, 1), 2, 2, 1)
        assert price == (27, 27 + 2 * (27 + 3 * 2 * 3 * 3 * 27))
        with pytest.raises(BudgetExceeded) as info:
            Budget(5).charge_each(price)
        assert info.value.needed == 27

    def test_box_histograms_are_charged(self):
        # the 27 points of the box {deg x < 1} come first in the price of
        # both two-prime identities, before any sum, and they are the
        # points the box histogram counts
        box = sum(sv.box_histogram(diag3(K3), 1).values())
        assert idn.two_prime_cost(3, (1, 1), 2, 2, 1)[0] == box == 27
        with pytest.raises(BudgetExceeded) as info:
            Budget(26).charge_each(idn.two_prime_cost(3, (1, 1), 2, 2, 1))
        assert info.value.needed == 27

    def test_b_range(self):
        with pytest.raises(ValueError):
            idn.verify_unramified_expansion(
                P(K3, "T"), P(K3, "2+T"), 2, diag3(K3), 2)
