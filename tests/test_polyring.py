"""F_q[T] tests: division, irreducibility, enumeration, places, text format.

Oracle routes used here are independent of the implementation under test:
evaluation-based remainder checks, trial-division irreducibility, the Moebius
count formula, sympy factorization over GF(p), and hand-frozen constants.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cycsieve.polyring as pr
from cycsieve.ffield import GF

from oracles import (abs_at, abs_infty, factor, height_affine, height_field,
                     height_projective, lift_from, ord_at,
                     product_over_places, reduce_mod, valuation)

K3 = GF(3)
K5 = GF(5)
K7 = GF(7)


def P(k, *ints):
    """Little-endian polynomial builder."""
    return pr.normalize(k, [k.from_int(c) for c in ints])


# ---------------------------------------------------------------------------
# division


def test_divrem_examples():
    # (T^2+1) / T = (T, 1)
    assert pr.divrem(K3, P(K3, 1, 0, 1), P(K3, 0, 1)) == (P(K3, 0, 1), P(K3, 1))
    # deg a < deg b
    assert pr.divrem(K3, P(K3, 0, 1), P(K3, 1, 0, 1)) == ((), P(K3, 0, 1))
    # remainder by T+1 equals evaluation at -1: a = T^3+2T+1, a(-1) = 1
    q, r = pr.divrem(K3, P(K3, 1, 2, 0, 1), P(K3, 1, 1))
    assert r == P(K3, 1)
    with pytest.raises(ZeroDivisionError):
        pr.divrem(K3, P(K3, 1), ())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_divrem_property(data):
    k = data.draw(st.sampled_from([K3, K7]))
    f = pr.poly_from_index(k, data.draw(st.integers(0, k.size**6 - 1)), 6)
    g = pr.poly_from_index(k, data.draw(st.integers(1, k.size**4 - 1)), 4)
    if not g:
        g = (k.one,)
    q, r = pr.divrem(k, f, g)
    assert pr.add(k, pr.mul(k, q, g), r) == f
    assert pr.degree(r) < pr.degree(g)


def test_divrem_inverts_only_a_non_monic_divisor(monkeypatch):
    k = pr.make_field(3, 2)
    prime = pr.irreducibles(k, 2)[0]
    non_monic = pr.smul(k, k.from_int(2), prime)
    f = pr.poly_from_index(k, 12345, 6)
    calls = []
    inv = k.inv
    monkeypatch.setattr(k, "inv", lambda a: calls.append(a) or inv(a))
    for g, inversions in ((prime, 0), (non_monic, 1)):
        q, r = pr.divrem(k, f, g)
        assert len(calls) == inversions
        assert pr.add(k, pr.mul(k, q, g), r) == f
        assert pr.degree(r) < pr.degree(g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ext_gcd_identity(data):
    k = data.draw(st.sampled_from([K3, K5]))
    f = pr.poly_from_index(k, data.draw(st.integers(0, k.size**5 - 1)), 5)
    g = pr.poly_from_index(k, data.draw(st.integers(0, k.size**5 - 1)), 5)
    d, s, t = pr.ext_gcd(k, f, g)
    assert pr.add(k, pr.mul(k, s, f), pr.mul(k, t, g)) == d
    if f and g:
        assert d == pr.gcd(k, f, g)
        assert not pr.poly_mod(k, f, d) if d else True


def test_invert_mod():
    # T * 2 = 2T = 1 + (T+2)... inverse of T mod T+2: T = -2 = 1 mod (T+2),
    # so inverse is 1.  Check the defining property instead of the value.
    for fi in range(1, 27):
        f = pr.poly_from_index(K3, fi, 3)
        m = P(K3, 2, 1)  # T + 2
        if not f or pr.poly_mod(K3, f, m) == ():
            continue
        inv = pr.invert_mod(K3, f, m)
        assert pr.poly_mod(K3, pr.mul(K3, f, inv), m) == (K3.one,)


# ---------------------------------------------------------------------------
# irreducibility and enumeration


def _naive_irreducible(k, f):
    """Trial-division oracle: no monic divisor of degree 1..deg//2."""
    d = pr.degree(f)
    for dd in range(1, d // 2 + 1):
        for i in range(k.size**dd):
            g = pr.monic_from_index(k, i, dd)
            if not pr.divrem(k, f, g)[1]:
                return False
    return True


def test_is_irreducible_examples():
    assert pr.is_irreducible(K3, P(K3, 0, 1))  # T
    assert not pr.is_irreducible(K3, P(K3, 1, 2, 1))  # (T+1)^2
    assert pr.is_irreducible(K3, P(K3, 1, 0, 1))  # T^2+1
    with pytest.raises(ValueError):
        pr.is_irreducible(K3, P(K3, 2))


def test_rabin_agrees_with_trial_division():
    for d in range(1, 5):
        for i in range(3**d):
            f = pr.monic_from_index(K3, i, d)
            assert pr.is_irreducible(K3, f) == _naive_irreducible(K3, f), f


def test_rabin_agrees_with_sympy_samples():
    sympy = pytest.importorskip("sympy")
    T = sympy.symbols("T")
    rng = random.Random(7)
    for _ in range(40):
        k = rng.choice([K3, K5, K7])
        d = rng.randrange(1, 7)
        f = pr.monic_from_index(k, rng.randrange(k.size**d), d)
        sf = sympy.Poly([int(c) for c in reversed(f)], T, modulus=k.size)
        # sympy factors over GF(p); irreducible iff single factor, mult 1
        facs = sf.factor_list()[1]
        sym_irr = len(facs) == 1 and facs[0][1] == 1
        assert pr.is_irreducible(k, f) == sym_irr


def test_enumeration_q3():
    assert pr.irreducibles(K3, 1) == (P(K3, 0, 1), P(K3, 1, 1), P(K3, 2, 1))
    quad = pr.irreducibles(K3, 2)
    assert quad == (P(K3, 1, 0, 1), P(K3, 2, 1, 1), P(K3, 2, 2, 1))
    assert all(pr.is_irreducible(K3, f) for f in quad)


def test_enumeration_order_is_index_order():
    for k in (K3, K5):
        for d in (2, 3):
            lst = pr.irreducibles(k, d)
            idxs = [pr.monic_to_index(k, f) for f in lst]
            assert idxs == sorted(idxs)


def test_counts_match_moebius_formula():
    for k in (K3, K5, K7):
        for d in range(1, 7):
            assert len(pr.irreducibles(k, d)) == pr.count_irreducibles_formula(
                k.size, d
            )


def test_counts_frozen_values():
    # hand-computed via (1/d) sum mu(e) q^(d/e)
    assert [len(pr.irreducibles(K3, d)) for d in range(1, 7)] == [3, 3, 8, 18, 48, 116]
    assert [len(pr.irreducibles(K5, d)) for d in range(1, 7)] == [
        5, 10, 40, 150, 624, 2580]
    assert [len(pr.irreducibles(K7, d)) for d in range(1, 7)] == [
        7, 21, 112, 588, 3360, 19544]


def test_irreducibles_cost():
    # q^d marks plus N_q(e) * q^(d-e) products for e <= d/2
    assert pr.irreducibles_cost(3, 3) == 27 + 3 * 9
    assert pr.irreducibles_cost(7, 9) == 121060821
    assert pr.irreducibles_cost(5, 1) == 5


def test_box_order():
    pts = list(pr.box(K3, 2, 2))
    assert len(pts) == 81
    assert pts[0] == ((), ()) and pts[1] == ((), (K3.one,))
    assert pts[9] == ((K3.one,), ())


def test_prime_polynomial_theorem_inequality():
    for k in (K3, K5, K7):
        q = k.size
        for d in range(1, 7):
            n = len(pr.irreducibles(k, d))
            assert abs(n - q**d / d) <= q ** (d / 2) / d + q ** (d / 3) + 1e-9


# ---------------------------------------------------------------------------
# factorization


def test_factor_reassembles():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.choice([K3, K7])
        f = pr.poly_from_index(k, rng.randrange(1, k.size**7), 7)
        if not f:
            continue
        lc, facs = factor(k, f)
        out = pr.normalize(k, (lc,))
        for p_, e in facs:
            assert pr.is_irreducible(k, p_) and p_[-1] == k.one
            for _ in range(e):
                out = pr.mul(k, out, p_)
        assert out == f


def test_factor_against_sympy():
    sympy = pytest.importorskip("sympy")
    T = sympy.symbols("T")
    rng = random.Random(13)
    for _ in range(25):
        k = rng.choice([K3, K5])
        f = pr.poly_from_index(k, rng.randrange(1, k.size**6), 6)
        if not f:
            continue
        _, facs = factor(k, f)
        sf = sympy.Poly([int(c) for c in reversed(f)], T, modulus=k.size)
        sym = sorted(
            (tuple(int(c) % k.size for c in reversed(g.all_coeffs())), e)
            for g, e in sf.factor_list()[1]
        )
        ours = sorted((tuple(p_), e) for p_, e in facs)
        assert ours == sym


# ---------------------------------------------------------------------------
# places, valuations, heights


def test_valuation_examples():
    t, t1 = P(K3, 0, 1), P(K3, 1, 1)
    assert abs_infty(K3, t, t1) == 1
    assert abs_at(K3, t, t1, t) == Fraction(1, 3)
    assert abs_at(K3, t, t1, t1) == 3
    assert product_over_places(K3, t, t1) == 1
    assert abs_infty(K3, P(K3, 0, 0, 1)) == 9
    assert valuation(K3, t, t1, "infty") == 1


def test_valuation_degree_two_prime():
    # |pi|_pi must be q^(-deg pi) for the product formula to close
    pi = P(K3, 1, 0, 1)
    assert abs_infty(K3, pi) == 9
    assert abs_at(K3, pi, (K3.one,), pi) == Fraction(1, 9)
    assert product_over_places(K3, pi, (K3.one,)) == 1


def test_product_formula_random():
    rng = random.Random(3)
    for k in (K3, K5, K7):
        for _ in range(70):
            num = pr.poly_from_index(k, rng.randrange(1, k.size**6), 6)
            den = pr.poly_from_index(k, rng.randrange(1, k.size**6), 6)
            if not num or not den:
                continue
            assert product_over_places(k, num, den) == 1


def test_heights():
    assert height_field(K3, P(K3, 0, 0, 1)) == 9
    assert height_affine(K3, [P(K3, 0, 1), P(K3, 1), ()]) == 3
    # projective: (T^2, T) ~ (T, 1) -> height 3
    assert height_projective(K3, [P(K3, 0, 0, 1), P(K3, 0, 1)]) == 3
    with pytest.raises(ValueError):
        height_projective(K3, [(), ()])


def test_ord_at():
    f = pr.mul(K3, pr.mul(K3, P(K3, 0, 1), P(K3, 0, 1)), P(K3, 1, 1))
    assert ord_at(K3, f, P(K3, 0, 1)) == 2
    assert ord_at(K3, f, P(K3, 1, 1)) == 1
    assert ord_at(K3, f, P(K3, 2, 1)) == 0


# ---------------------------------------------------------------------------
# text format


def test_parse_format_roundtrip():
    cases = ["0", "1", "T", "2*T", "T^2", "1+2*T^3", "2+T+2*T^2"]
    for s in cases:
        f = pr.parse_poly(K3, s)
        assert pr.format_poly(K3, f) == s
    assert pr.parse_poly(K3, "0+T") == P(K3, 0, 1)


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_parse_format_roundtrip_over_extensions(p, e):
    # every polynomial of degree < 2 and seeded ones of degree < 5 over
    # F_(p^e): format_poly writes each coefficient as its element index,
    # and parse_poly reads it back; the index q is refused
    k = pr.make_field(p, e)
    rng = random.Random(k.size)
    fs = [pr.poly_from_index(k, i, 2) for i in range(k.size ** 2)]
    fs += [pr.poly_from_index(k, rng.randrange(k.size ** 5), 5)
           for _ in range(50)]
    assert any(c >= p for f in fs for c in f)
    for f in fs:
        text = pr.format_poly(k, f)
        assert pr.parse_poly(k, text) == f, text
        assert pr.format_poly(k, pr.parse_poly(k, text)) == text
    for text in (str(k.size), f"{k.size}*T", f"1+{k.size}*T^2"):
        with pytest.raises(ValueError):
            pr.parse_poly(k, text)


def test_parse_rejects():
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "3*T")  # coefficient >= p
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "4")
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "T+T")  # duplicate power
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "T*2")
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "")
    with pytest.raises(ValueError):
        pr.parse_poly(K3, "x^2")


def test_format_normalizes_zero():
    assert pr.format_poly(K3, ()) == "0"
    assert pr.parse_poly(K3, "T^2+0") == P(K3, 0, 0, 1)


# ---------------------------------------------------------------------------
# enumeration helpers


def test_poly_index_roundtrip():
    for i in range(3**3):
        f = pr.poly_from_index(K3, i, 3)
        assert pr.poly_to_index(K3, f, 3) == i
    for i in range(3**2):
        f = pr.monic_from_index(K3, i, 2)
        assert pr.monic_to_index(K3, f) == i
        assert pr.degree(f) == 2 and f[-1] == K3.one


def test_make_field_and_extension():
    k9 = pr.make_field(3, 2)
    assert k9.size == 9
    k_pi = pr.residue_field(K3, P(K3, 1, 0, 1))
    assert k_pi.size == 9
    assert reduce_mod(k_pi, P(K3, 0, 0, 1)) == 2  # T^2 = -1
    assert lift_from(k_pi, 2) == P(K3, 2)
    k81 = pr.extension_of(k_pi, 2)
    assert k81.size == 81
