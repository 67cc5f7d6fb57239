"""Finite-field tower tests: arithmetic on element indices, enumeration
order, traces, and every operation against the tuple arithmetic of
``oracles.ExtensionField`` with exact equality."""

import importlib
import itertools
import pkgutil
import random

import pytest

import cycsieve
from cycsieve import polyring as pr
from cycsieve.ffield import FIELD_SIZE_CAP, GF, ExtensionField, prime_factors

import oracles


def test_prime_field_basics():
    k = GF(3)
    assert k.add(2, 2) == 1
    assert k.mul(2, 2) == 1
    assert k.neg(1) == 2
    assert k.inv(2) == 2
    assert k.power(2, 5) == 2
    assert k.power(2, -1) == 2
    assert list(k.elements()) == [0, 1, 2]
    assert k.trace_to_prime(2) == 2


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(9)


def test_smallest_primitive_roots():
    # classical smallest primitive roots: 3 -> 2, 5 -> 2, 7 -> 3
    assert GF(3).multiplicative_generator() == 2
    assert GF(5).multiplicative_generator() == 2
    assert GF(7).multiplicative_generator() == 3


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(49) == [7]


def f9():
    # F_9 = F_3[t]/(t^2 + 1); c0 + c1 t has index c0 + 3 c1
    k3 = GF(3)
    return ExtensionField(k3, (1, 0, 1))


def f9_oracle():
    return oracles.ExtensionField(oracles.PrimeField(3), (1, 0, 1))


def test_extension_field_arithmetic():
    k = f9()
    t = 3
    assert k.size == 9 and k.char == 3
    # t^2 = -1
    assert k.mul(t, t) == 2
    # (1+t)(1-t) = 1 - t^2 = 2
    assert k.mul(4, 7) == 2
    # t^-1 = -t
    assert k.inv(t) == 6
    assert k.mul(t, k.inv(t)) == k.one
    assert k.power(t, 8) == k.one  # group order


def test_extension_index_roundtrip():
    # the index of a coefficient tuple, reduced as a polynomial over the
    # base, is the index the tuple field gives it
    k, oracle = f9(), f9_oracle()
    seen = set()
    for i in range(9):
        e = oracle.from_index(i)
        assert k.reduce_poly(e) == i
        seen.add(e)
    assert len(seen) == 9
    assert k.elements()[0] == k.zero


def test_extension_elements_are_a_fresh_list():
    # the elements are the indices in ascending order, in a range, which a
    # caller cannot change under the next enumeration
    k = f9()
    elems = k.elements()
    assert elems == range(9)
    assert list(elems) == [f9_oracle().index(x)
                           for x in f9_oracle().elements()]


def test_extension_trace():
    # Tr_{F_9/F_3}(x) = x + x^3; for t with t^2 = -1: t^3 = -t so Tr(t) = 0;
    # Tr(1) = 2; Tr over all elements hits each value of F_3 equally often.
    k = f9()
    assert k.trace_to_prime(3) == 0
    assert k.trace_to_prime(k.one) == 2
    counts = {0: 0, 1: 0, 2: 0}
    for e in k.elements():
        counts[k.trace_to_prime(e)] += 1
    assert counts == {0: 3, 1: 3, 2: 3}


def test_extension_generator_order():
    k = f9()
    g = k.multiplicative_generator()
    powers = set()
    x = k.one
    for _ in range(8):
        x = k.mul(x, g)
        powers.add(x)
    assert len(powers) == 8


def test_tower_of_towers():
    # F_81 built on top of F_9: trace to prime field consistent with
    # transitivity (spot value) and correct cardinality bookkeeping.
    k9 = f9()
    # find an irreducible quadratic over F_9 by brute force
    mod = None
    for i in range(81):
        cand = (i % 9, i // 9, k9.one)
        # irreducible iff no root in F_9
        if all(
            k9.add(k9.add(cand[0], k9.mul(cand[1], x)), k9.mul(x, x)) != k9.zero
            for x in k9.elements()
        ):
            mod = cand
            break
    k81 = ExtensionField(k9, mod)
    assert k81.size == 81 and k81.degree_over_prime == 4
    for c in range(3):
        assert k81.trace_to_prime(k81.from_int(c)) == (4 * c) % 3


def test_reducible_modulus_is_refused():
    # t^2 - 1 = (t - 1)(t + 1) over F_3: no field, so no tables
    with pytest.raises(ValueError, match="irreducible"):
        ExtensionField(GF(3), (2, 0, 1))
    with pytest.raises(ValueError, match="monic irreducible"):
        pr.residue_field(GF(3), (0, 0, 1))


def test_field_above_the_cap_is_refused_before_any_table(monkeypatch):
    # F_7^8 has 5 764 801 elements; the cap refuses it before a generator
    # is sought
    assert 7 ** 8 > FIELD_SIZE_CAP
    monkeypatch.setattr(ExtensionField, "_build_tables", None)
    with pytest.raises(ValueError, match="cap"):
        ExtensionField(GF(7), (3,) + (0,) * 7 + (1,))


def power_test_fields():
    """F_9, F_25, F_27 as residue fields and F_81 as a tower over F_9."""
    fields = [pr.residue_field(GF(p), pr.irreducibles(GF(p), d)[0])
              for p, d in ((3, 2), (5, 2), (3, 3))]
    return fields + [pr.extension_of(fields[0], 2)]


@pytest.mark.parametrize("field", power_test_fields(), ids=repr)
def test_power_equals_repeated_mul(field):
    Q = field.size
    elems = field.elements()
    if Q > 27:  # a seeded sample of units
        elems = random.Random(Q).sample(elems[1:], 6)
    for a in elems:
        acc = field.one
        for e in range(2 * Q):
            assert field.power(a, e) == acc, (a, e)
            acc = field.mul(acc, a)
        if field.is_zero(a):
            continue
        inv = field.inv(a)
        assert field.mul(a, inv) == field.one
        acc = field.one
        for e in range(1, Q + 1):
            acc = field.mul(acc, inv)
            assert field.power(a, -e) == acc, (a, -e)


def test_power_multiplication_count(monkeypatch):
    # the tuple oracle's powers by squaring: one squaring per bit below the
    # top one and one product per set bit below the top one: a^1 takes
    # none, a^2 one, a^3 two, a^8 three
    k = f9_oracle()
    calls = []
    mul = k.mul
    monkeypatch.setattr(k, "mul", lambda a, b: calls.append(1) or mul(a, b))
    for e, want in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (7, 4)):
        calls.clear()
        k.power((1, 1), e)
        assert len(calls) == want, e


# ---------------------------------------------------------------------------
# index arithmetic against the tuple oracle


def field_pair(p, d, over=None):
    """(the index field, the tuple oracle) of one field, both with the first
    monic irreducible of degree d as modulus: over F_p, or over the base of
    the (index field, tuple oracle) pair given as over."""
    if over is None:
        new = pr.residue_field(GF(p), pr.irreducibles(GF(p), d)[0])
        return new, oracles.ExtensionField(oracles.PrimeField(p),
                                           new.modulus)
    base, base_oracle = over
    new = pr.extension_of(base, d)
    return new, oracles.ExtensionField(
        base_oracle, tuple(map(base_oracle.from_index, new.modulus)))


def exponents(Q):
    return (-Q, -3, -1, 0, 1, 2, 3, Q - 2, Q - 1, Q, 2 * Q + 5)


def check_against_oracle(new, old, pairs, seed):
    """Every operation of the index field equals the tuple oracle's, read
    through the oracle's index, at the given pairs of indices."""
    assert (new.size, new.char, new.degree_over_prime) \
        == (old.size, old.char, old.degree_over_prime)
    ix, el = old.index, old.from_index
    singles = sorted({i for pair in pairs for i in pair})
    for i, j in pairs:
        a, b = el(i), el(j)
        assert new.add(i, j) == ix(old.add(a, b)), (i, j)
        assert new.sub(i, j) == ix(old.sub(a, b)), (i, j)
        assert new.mul(i, j) == ix(old.mul(a, b)), (i, j)
    for i in singles:
        a = el(i)
        assert new.neg(i) == ix(old.neg(a)), i
        assert new.trace_to_prime(i) == old.trace_to_prime(a), i
        for e in exponents(new.size):
            if i or e >= 0:
                assert new.power(i, e) == ix(old.power(a, e)), (i, e)
        if i:
            assert new.inv(i) == ix(old.inv(a)), i
        else:
            with pytest.raises(ZeroDivisionError):
                new.inv(i)
    assert new.multiplicative_generator() \
        == ix(old.multiplicative_generator())
    rng = random.Random(seed)
    base, base_old = new.base, old.base
    for _ in range(100):
        coeffs = [rng.randrange(base.size)
                  for _ in range(rng.randrange(3 * new.deg + 2))]
        assert new.reduce_poly(coeffs) \
            == ix(old.reduce_poly([base_old.from_index(c) for c in coeffs]))


@pytest.mark.parametrize("p, d", ((3, 2), (5, 2), (3, 3), (7, 2)),
                         ids=("F_9", "F_25", "F_27", "F_49"))
def test_every_pair_matches_the_tuple_oracle(p, d):
    new, old = field_pair(p, d)
    pairs = list(itertools.product(range(new.size), repeat=2))
    check_against_oracle(new, old, pairs, seed=p ** d)


@pytest.mark.parametrize("name", ("F_343", "F_81 over F_9"))
def test_a_sample_matches_the_tuple_oracle(name):
    if name == "F_343":
        new, old = field_pair(7, 3)
    else:
        base, base_old = field_pair(3, 2)
        new, old = field_pair(3, 2, over=(base, base_old))
        assert new.base is base and new.size == 81
    rng = random.Random(name)
    pairs = [(0, 0), (0, 1), (1, 0), (new.size - 1, new.size - 1)] + [
        (rng.randrange(new.size), rng.randrange(new.size))
        for _ in range(300)]
    check_against_oracle(new, old, pairs, seed=name)


def test_module_caches_are_bounded():
    caches = {}
    for info in pkgutil.iter_modules(cycsieve.__path__):
        mod = importlib.import_module(f"cycsieve.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    for name in ("characters.residue_data", "polyring.irreducibles",
                 "polyring.residue_field", "polyring.extension_of",
                 "charsums.element_texts"):
        assert name in caches
    assert all(size is not None for size in caches.values()), caches
