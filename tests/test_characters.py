"""Character tests: residue symbols, chi/psi conventions, Gauss sums, root counts."""

import random

import pytest

import cycsieve.characters as ch
import cycsieve.polyring as pr
from cycsieve.cyclotomic import cyc_ring
from cycsieve.ffield import GF

from oracles import additive_char_eval, lift_from

K3 = GF(3)
K7 = GF(7)


def P(k, *ints):
    return pr.normalize(k, [k.from_int(c) for c in ints])


T3 = P(K3, 0, 1)


def residue_index(data, a):
    """The index in k_pi of the residue of the polynomial a."""
    return data.kpi.reduce_poly(a)


def symbol_exponent(k, a, pi, ell):
    """The theta-exponent of (a/pi)_ell, None when pi | a."""
    data = ch.residue_data(k, pi, ell)
    return data.chi_exp[residue_index(data, a)]


def test_residue_symbol_examples():
    # q=3, ell=2, pi=T: (a/pi) = Legendre symbol of a(0) mod 3, and theta
    # sends the nonsquare 2 = -1 to zeta_2
    assert symbol_exponent(K3, P(K3, 1, 1), T3, 2) == 0  # a(0)=1 square
    assert symbol_exponent(K3, P(K3, 2, 1), T3, 2) == 1  # a(0)=2 nonsquare
    assert symbol_exponent(K3, P(K3, 0, 2), T3, 2) is None  # pi | a
    with pytest.raises(ValueError):
        symbol_exponent(K3, P(K3, 1), T3, 3)  # 3 does not divide q-1=2


def test_residue_symbol_is_power_detector():
    # alpha = 1 iff a is an ell-th power mod pi (nonzero a)
    for k, ell in [(K3, 2), (K7, 2), (K7, 3)]:
        for pi in pr.irreducibles(k, 2)[:3]:
            data = ch.residue_data(k, pi, ell)
            kpi = data.kpi
            powers = {kpi.power(y, ell) for y in kpi.elements() if not kpi.is_zero(y)}
            for idx in range(1, kpi.size):
                a = lift_from(kpi, idx)
                sym = symbol_exponent(k, a, pi, ell)
                assert (sym == 0) == (idx in powers)


def test_mult_char_conventions():
    data = ch.residue_data(K3, T3, 2)
    chi0, chi1 = ch.chi_exponents(data, 0), ch.chi_exponents(data, 1)
    # principal character: zeta^0 = 1 everywhere, even at pi | a
    assert chi0[residue_index(data, P(K3, 0, 1))] == 0
    assert chi0[residue_index(data, P(K3, 2))] == 0
    # non-principal: 0 (None) at pi | a; zeta_2 = -1 at the nonsquare 2
    assert chi1[residue_index(data, P(K3, 0, 2))] is None
    assert chi1[residue_index(data, P(K3, 2))] == 1
    assert chi1[residue_index(data, P(K3, 1))] == 0
    for index in (-1, 2):
        with pytest.raises(ValueError):
            ch.chi_exponents(data, index)


def test_char_multiplicativity_on_units():
    rng = random.Random(17)
    for k, ell, deg in [(K3, 2, 1), (K3, 2, 2), (K7, 2, 1), (K7, 3, 2)]:
        pi = pr.irreducibles(k, deg)[0]
        data = ch.residue_data(k, pi, ell)
        for i in range(1, ell):
            chi = ch.chi_exponents(data, i)
            for _ in range(125):
                a = pr.poly_from_index(k, rng.randrange(k.size**3), 3)
                b = pr.poly_from_index(k, rng.randrange(k.size**3), 3)
                if pr.poly_mod(k, a, pi) == () or pr.poly_mod(k, b, pi) == ():
                    continue
                ea, eb, eab = (chi[residue_index(data, x)]
                               for x in (a, b, pr.mul(k, a, b)))
                assert eab == (ea + eb) % ell


def test_psi_examples():
    ring = cyc_ring(3, 2)
    # psi(1/T) = zeta_3
    assert additive_char_eval(K3, P(K3, 1), T3, 2) == ring.monomial(1, 0)
    # deg(x mod pi) <= deg pi - 2 -> 1
    pi2 = P(K3, 1, 0, 1)
    assert additive_char_eval(K3, P(K3, 2), pi2, 2) == ring.one
    # x = pi -> 1
    assert additive_char_eval(K3, T3, T3, 2) == ring.one
    # polynomial part irrelevant: psi((x + u*pi)/pi) = psi(x/pi)
    x = P(K3, 2, 1)
    u = P(K3, 1, 2, 1)
    assert ch.psi_exponent(K3, pr.add(K3, x, pr.mul(K3, u, pi2)), pi2) == \
        ch.psi_exponent(K3, x, pi2)


def test_psi_additivity():
    rng = random.Random(19)
    for k, u in [(K3, P(K3, 1, 0, 1)), (K7, P(K7, 3, 1)),
                 (K3, pr.mul(K3, T3, P(K3, 1, 0, 1)))]:  # composite modulus too
        for _ in range(170):
            x = pr.poly_from_index(k, rng.randrange(k.size**4), 4)
            y = pr.poly_from_index(k, rng.randrange(k.size**4), 4)
            ex = ch.psi_exponent(k, x, u)
            ey = ch.psi_exponent(k, y, u)
            exy = ch.psi_exponent(k, pr.add(k, x, y), u)
            assert exy == (ex + ey) % k.char


def test_psi_nonmonic_modulus():
    # psi(x/u) for u = 2T: x/u = (x * inv(2))/T scaled; check lc normalization
    u = P(K3, 0, 2)
    # x = 1: 1/(2T): Laurent coefficient of T^-1 is inv(2) = 2 -> zeta_3^2
    assert ch.psi_exponent(K3, P(K3, 1), u) == 2


def test_gauss_sum_frozen_value():
    ring = cyc_ring(3, 2)
    tau = ch.gauss_sum(ch.residue_data(K3, T3, 2), 1)
    # tau = zeta_3 - zeta_3^2 = 1 + 2*zeta_3 in basis coordinates
    assert tau == ring.add(ring.monomial(1, 0),
                           ring.scale(-1, ring.monomial(2, 0)))
    assert ring.mul(tau, ring.conj(tau)) == ring.from_int(3)


def test_gauss_sum_rh_exact_all_small_primes():
    for k, ells in [(K3, [2]), (K7, [2, 3])]:
        for ell in ells:
            for d in (1, 2):
                for pi in pr.irreducibles(k, d):
                    data = ch.residue_data(k, pi, ell)
                    ring = data.ring
                    for i in range(1, ell):
                        tau = ch.gauss_sum(data, i)
                        assert ring.mul(tau, ring.conj(tau)) == ring.from_int(
                            k.size**d
                        ), (pi, ell, i)


def test_gauss_sum_rejects_principal():
    with pytest.raises(ValueError):
        ch.gauss_sum(ch.residue_data(K3, T3, 2), 0)


def test_char_sum_root_count_examples():
    data = ch.residue_data(K3, T3, 2)
    by_chars = ch.root_count_routes(data)[1]
    # pi | a; 1 = (+-1)^2; 2 a nonsquare
    assert [by_chars[residue_index(data, a)]
            for a in (P(K3, 0, 1), P(K3, 1), P(K3, 2))] == [1, 2, 0]


def test_char_sum_equals_fiber_size_everywhere():
    # the identity: sum over order-dividing-ell characters of chi(a) counts
    # ell-th roots of a in k_pi; checked for every a, small primes, q in {3,7}
    for k, ells in [(K3, [2]), (K7, [2, 3])]:
        for ell in ells:
            for d in (1, 2):
                for pi in pr.irreducibles(k, d)[: (4 if d == 2 else None)]:
                    data = ch.residue_data(k, pi, ell)
                    by_chars = ch.root_count_routes(data, check=True)[1]
                    for idx in range(data.kpi.size):
                        a = lift_from(data.kpi, idx)
                        i = residue_index(data, a)
                        assert by_chars[i] == data.root_count[i]


def test_residue_data_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ch.residue_data(K3, P(K3, 1, 2, 1), 2)  # reducible
    with pytest.raises(ValueError):
        ch.residue_data(K3, P(K3, 0, 2), 2)  # not monic
