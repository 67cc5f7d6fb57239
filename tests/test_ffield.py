"""Finite-field tower tests: arithmetic, enumeration order, traces, tables."""

import importlib
import pkgutil
import random

import pytest

import cycsieve
from cycsieve import polyring as pr
from cycsieve.ffield import GF, ExtensionField, FieldTables, prime_factors


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
    # F_9 = F_3[t]/(t^2 + 1)
    k3 = GF(3)
    return ExtensionField(k3, (1, 0, 1))


def test_extension_field_arithmetic():
    k = f9()
    t = (0, 1)
    assert k.size == 9 and k.char == 3
    # t^2 = -1
    assert k.mul(t, t) == (2, 0)
    # (1+t)(1-t) = 1 - t^2 = 2
    assert k.mul((1, 1), (1, 2)) == (2, 0)
    # t^-1 = -t
    assert k.inv(t) == (0, 2)
    assert k.mul(t, k.inv(t)) == k.one
    assert k.power(t, 8) == k.one  # group order


def test_extension_index_roundtrip():
    k = f9()
    seen = set()
    for i in range(9):
        e = k.from_index(i)
        assert k.index(e) == i
        seen.add(e)
    assert len(seen) == 9
    assert k.elements()[0] == k.zero


def test_extension_elements_are_a_fresh_list():
    # the field keeps no copy of the list, so a caller that changes it
    # cannot change the next enumeration
    k = f9()
    elems = k.elements()
    assert elems == [k.from_index(i) for i in range(9)]
    elems.clear()
    assert len(k.elements()) == 9


def test_extension_trace():
    # Tr_{F_9/F_3}(x) = x + x^3; for t with t^2 = -1: t^3 = -t so Tr(t) = 0;
    # Tr(1) = 2; Tr over all elements hits each value of F_3 equally often.
    k = f9()
    assert k.trace_to_prime((0, 1)) == 0
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
        cand = (k9.from_index(i % 9), k9.from_index(i // 9), k9.one)
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


def test_field_tables_match_direct_ops():
    k = f9()
    tab = FieldTables(k)
    n = k.size
    for i in range(n):
        a = tab.elems[i]
        assert tab.neg[i] == tab.index[k.neg(a)]
        if i:
            assert k.mul(a, tab.elems[tab.inv[i]]) == k.one
        for j in range(n):
            b = tab.elems[j]
            assert tab.elems[tab.add[i * n + j]] == k.add(a, b)
            assert tab.elems[tab.mul[i * n + j]] == k.mul(a, b)


def power_test_fields():
    """F_9, F_25, F_27 as residue fields and F_81 as a tower over F_9."""
    fields = [pr.residue_field(GF(p), pr.irreducibles(GF(p), d)[0])
              for p, d in ((3, 2), (5, 2), (3, 3))]
    return fields + [pr.extension_of(fields[0], 2)]


@pytest.mark.parametrize("field", power_test_fields(), ids=repr)
def test_power_equals_repeated_mul(field):
    Q = field.size
    elems = field.elements()
    if Q > 27:  # a tower multiplication is slow; a seeded sample of units
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
    # one squaring per bit below the top one and one product per set bit
    # below the top one: a^1 takes none, a^2 one, a^3 two, a^8 three
    k = f9()
    calls = []
    mul = k.mul
    monkeypatch.setattr(k, "mul", lambda a, b: calls.append(1) or mul(a, b))
    for e, want in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (7, 4)):
        calls.clear()
        k.power((1, 1), e)
        assert len(calls) == want, e


def test_module_caches_are_bounded():
    caches = {}
    for info in pkgutil.iter_modules(cycsieve.__path__):
        mod = importlib.import_module(f"cycsieve.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    for name in ("charsums.field_tables", "characters.residue_data",
                 "polyring.irreducibles", "ffield._find_generator"):
        assert name in caches
    assert all(size is not None for size in caches.values()), caches
