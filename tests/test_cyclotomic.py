"""Exact cyclotomic ring tests: relations, ring axioms, embedding, integrality."""

import cmath
import random

import pytest

from cycsieve.cyclotomic import cyc_ring

from oracles import deserialize

RINGS = [cyc_ring(3, 2), cyc_ring(7, 2), cyc_ring(7, 3), cyc_ring(5, 2), cyc_ring(3, 5)]


def rand_val(ring, rng, span=6):
    return tuple(rng.randrange(-span, span + 1) for _ in range(ring.dim))


def test_dimensions():
    assert cyc_ring(3, 2).dim == 2
    assert cyc_ring(7, 3).dim == 12
    with pytest.raises(ValueError):
        cyc_ring(3, 3)
    with pytest.raises(ValueError):
        cyc_ring(4, 3)


def test_zeta2_is_minus_one():
    r = cyc_ring(3, 2)
    assert r.monomial(0, 1) == r.from_int(-1)
    assert r.mul(r.monomial(0, 1), r.monomial(0, 1)) == r.one


def test_root_of_unity_relations():
    for ring in RINGS:
        sp = ring.zero
        for i in range(ring.p):
            sp = ring.add(sp, ring.monomial(i, 0))
        assert ring.is_zero(sp)
        sl = ring.zero
        for j in range(ring.ell):
            sl = ring.add(sl, ring.monomial(0, j))
        assert ring.is_zero(sl)
        # (sum of all zeta_p^i) * anything = 0
        assert ring.is_zero(ring.mul(sp, ring.monomial(3, 1)))


def test_monomial_orders():
    for ring in RINGS:
        zp = ring.monomial(1, 0)
        acc = ring.one
        for _ in range(ring.p):
            acc = ring.mul(acc, zp)
        assert acc == ring.one
        zl = ring.monomial(0, 1)
        acc = ring.one
        for _ in range(ring.ell):
            acc = ring.mul(acc, zl)
        assert acc == ring.one


def test_ring_axioms_random():
    rng = random.Random(5)
    for ring in RINGS:
        for _ in range(30):
            a, b, c = (rand_val(ring, rng) for _ in range(3))
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.mul(a, ring.mul(b, c)) == ring.mul(ring.mul(a, b), c)
            assert ring.mul(a, ring.add(b, c)) == ring.add(
                ring.mul(a, b), ring.mul(a, c)
            )
            assert ring.mul(a, ring.one) == a
            assert ring.add(a, ring.scale(-1, a)) == ring.zero


def test_conjugation():
    rng = random.Random(6)
    for ring in RINGS:
        assert ring.conj(ring.monomial(1, 1)) == ring.monomial(-1, -1)
        for _ in range(20):
            a, b = rand_val(ring, rng), rand_val(ring, rng)
            assert ring.conj(ring.conj(a)) == a
            assert ring.conj(ring.mul(a, b)) == ring.mul(ring.conj(a), ring.conj(b))
            # a * conj(a) embeds to |a|^2 (real, nonnegative)
            z = ring.embed(ring.mul(a, ring.conj(a)))
            assert abs(z.imag) < 1e-9 and z.real >= -1e-9


def test_embedding_homomorphism():
    rng = random.Random(8)
    for ring in RINGS:
        assert cmath.isclose(
            ring.embed(ring.monomial(1, 0)),
            cmath.exp(2j * cmath.pi / ring.p),
            rel_tol=1e-12,
        )
        for _ in range(20):
            a, b = rand_val(ring, rng), rand_val(ring, rng)
            assert cmath.isclose(
                ring.embed(ring.mul(a, b)),
                ring.embed(a) * ring.embed(b),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )


def test_exponent_counts():
    ring = cyc_ring(3, 2)
    val = ring.from_exponent_counts({(1, 0): 2, (4, 1): 3, (0, 0): -1})
    expect = ring.add(
        ring.scale(2, ring.monomial(1, 0)),
        ring.add(ring.scale(3, ring.monomial(1, 1)), ring.from_int(-1)),
    )
    assert val == expect


def test_div_int():
    ring = cyc_ring(3, 2)
    a = ring.scale(6, ring.monomial(1, 1))
    assert ring.div_int(a, 3) == ring.scale(2, ring.monomial(1, 1))
    with pytest.raises(ArithmeticError):
        ring.div_int(ring.from_int(5), 3)
    with pytest.raises(ZeroDivisionError):
        ring.div_int(a, 0)


def test_as_int():
    ring = cyc_ring(7, 3)
    assert ring.as_int(ring.from_int(-42)) == -42
    assert ring.as_int(ring.monomial(1, 0)) is None
    assert ring.as_int(ring.zero) == 0


def test_integral_basis_no_collision():
    # distinct exponent pairs in the fundamental box give distinct values
    ring = cyc_ring(5, 2)
    seen = set()
    for i in range(ring.p):
        for j in range(ring.ell):
            seen.add(ring.monomial(i, j))
    # zeta_2 = -1 collapses j=1 into negatives of j=0 monomials: 5 + 5 distinct
    assert len(seen) == 10


def test_serialization_roundtrip():
    ring = cyc_ring(7, 2)
    val = ring.from_exponent_counts({(2, 1): 5, (6, 0): -3})
    obj = ring.serialize(val)
    assert obj["p"] == 7 and obj["ell"] == 2
    assert deserialize(ring, obj) == val
    with pytest.raises(ValueError):
        deserialize(cyc_ring(3, 2), obj)


def monomial_oracle(ring, i, j):
    """zeta_p^i * zeta_ell^j built coordinate by coordinate: zeta^k is a
    unit vector for k below the top power and all -1 at the top power."""
    def power_vec(k, prime):
        k %= prime
        if k < prime - 1:
            return [int(t == k) for t in range(prime - 1)]
        return [-1] * (prime - 1)
    return tuple(a * b for a in power_vec(i, ring.p)
                 for b in power_vec(j, ring.ell))


def test_monomial_table_equals_construction():
    for ring in RINGS:
        for i in range(-2 * ring.p, 2 * ring.p):
            for j in range(-2 * ring.ell, 2 * ring.ell):
                assert ring.monomial(i, j) == monomial_oracle(ring, i, j)


def test_basis_products_equal_construction():
    # the product table the ring builds with itself: basis_u * basis_v is
    # the monomial of the summed exponents
    for ring in RINGS:
        basis = [tuple(int(t == u) for t in range(ring.dim))
                 for u in range(ring.dim)]
        for u, a in enumerate(basis):
            iu, ju = divmod(u, ring.dim_l)
            for v, b in enumerate(basis):
                iv, jv = divmod(v, ring.dim_l)
                assert ring.mul(a, b) == monomial_oracle(ring, iu + iv,
                                                         ju + jv)


def test_exponent_counts_and_conj_equal_construction():
    rng = random.Random(9)
    for ring in RINGS:
        for _ in range(20):
            counts = {(rng.randrange(-9, 9), rng.randrange(-9, 9)):
                      rng.randrange(-5, 6) for _ in range(6)}
            expect = ring.zero
            for (i, j), c in counts.items():
                expect = ring.add(expect,
                                  ring.scale(c, monomial_oracle(ring, i, j)))
            assert ring.from_exponent_counts(counts) == expect
            a = rand_val(ring, rng)
            conj = ring.zero
            for u, x in enumerate(a):
                iu, ju = divmod(u, ring.dim_l)
                conj = ring.add(conj, ring.scale(
                    x, monomial_oracle(ring, -iu, -ju)))
            assert ring.conj(a) == conj


@pytest.mark.parametrize("p, ell", [(3, 2), (5, 2), (7, 3)])
def test_embedding_is_the_per_coordinate_formula_bitwise(p, ell):
    ring = cyc_ring(p, ell)
    rng = random.Random(p * ell)
    for _ in range(50):
        a = rand_val(ring, rng, span=1000)
        expect = 0j
        for u, x in enumerate(a):
            if x:
                iu, ju = divmod(u, ring.dim_l)
                expect += x * cmath.exp(2j * cmath.pi * (iu / p + ju / ell))
        assert ring.embed(a) == expect
        assert ring.abs_embed(a) == abs(expect)
