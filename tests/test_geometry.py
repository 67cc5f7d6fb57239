"""Geometry tests: forms, regularity verdicts, slices, duality, the
exceptional-prime scan, and the Schwartz-Zippel audit.

Closed-form verdicts are cross-checked against independent brute-force
enumeration oracles written inline here.
"""

import functools
import itertools
import random
from collections import Counter

import pytest

from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve.ffield import GF

from oracles import (
    RationalFunctionField,
    _extension_points,
    affine_singularity,
    cofactor_adjugate,
    dual_degree,
    eval_form_at_polys,
    form_over_fraction_field,
    form_values_by_terms,
    projective_points,
    proportional,
    schwartz_zippel_audit,
    search_affine_singular,
    slice_and_check,
    solve_linear,
    zeros_by_points,
)

K3 = GF(3)
K5 = GF(5)
K7 = GF(7)
K9 = pr.make_field(3, 2)


def P(k, text):
    return pr.parse_poly(k, text)


def const_form(k, n, m, coeff_map):
    """Form whose coefficients are the given integers (as constants)."""
    return geo.MultiForm(k, n, m, {e: (k.from_int(c),) for e, c in coeff_map.items()})


def field_terms(field, coeff_map):
    """Terms over a field with integer coefficients."""
    out = {}
    for exps, c in coeff_map.items():
        v = field.from_int(c)
        if not field.is_zero(v):
            out[exps] = v
    return out


def diag3(k):
    return const_form(k, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


# ---------------------------------------------------------------------------
# MultiForm construction, JSON, evaluation


class TestMultiForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            geo.MultiForm(K3, 2, 2, {(2, 0): ((1,))})  # wrong arity
        with pytest.raises(ValueError):
            geo.MultiForm(K3, 2, 2, {(1, 0, 0): (1,)})  # not homogeneous
        with pytest.raises(ValueError):
            geo.MultiForm(K3, 2, 0, {})
        with pytest.raises(ValueError):
            geo.MultiForm(K3, 2, 2, {(1, 1, -2): (1,)})

    def test_zero_coefficients_dropped(self):
        f = geo.MultiForm(K3, 2, 2, {(2, 0, 0): (1,), (0, 2, 0): ()})
        assert list(f.terms) == [(2, 0, 0)]

    def test_json_round_trip(self):
        obj = {
            "n": 2,
            "m": 2,
            "terms": [
                {"exps": [2, 0, 0], "coeff": "1"},
                {"exps": [0, 2, 0], "coeff": "1"},
                {"exps": [0, 0, 2], "coeff": "1"},
            ],
        }
        f = geo.form_from_json(K3, obj)
        assert f == diag3(K3)
        assert geo.form_to_json(f) == obj

    def test_json_rejections(self):
        with pytest.raises(ValueError):
            geo.form_from_json(K3, {"n": 2, "terms": []})
        with pytest.raises(ValueError):
            geo.form_from_json(
                K3,
                {"n": 2, "m": 2, "terms": [
                    {"exps": [2, 0, 0], "coeff": "1"},
                    {"exps": [2, 0, 0], "coeff": "2"},
                ]},
            )

    @pytest.mark.parametrize("n, exp, message", [
        (2.5, 2, "form n must be an integer, got 2.5"),
        (True, 2, "form n must be an integer, got true"),
        (2, 2.5, "form exponent must be an integer, got 2.5"),
        (2, 2.0, "form exponent must be an integer, got 2.0"),
        (2, "two", 'form exponent must be an integer, got "two"'),
    ])
    def test_json_integers_only(self, n, exp, message):
        # an int or its text; a float or a bool is never truncated
        obj = {"n": n, "m": 2, "terms": [{"exps": [exp, 0, 0], "coeff": "1"},
                                         {"exps": [0, 2, 0], "coeff": "1"}]}
        with pytest.raises(ValueError, match=message):
            geo.form_from_json(K3, obj)
        text = {"n": "2", "m": "2", "terms": [
            {"exps": ["2", 0, 0], "coeff": "1"}]}
        assert geo.form_from_json(K3, text).terms == {(2, 0, 0): (K3.one,)}

    def test_deg_T(self):
        assert diag3(K3).deg_T() == 0
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        assert f.deg_T() == 1

    def test_eval_at_polys(self):
        f = diag3(K3)
        xs = (P(K3, "T"), P(K3, "1+T"), P(K3, "2"))
        # T^2 + (1+T)^2 + 4 = 2T^2 + 2T + 5 = 2T^2 + 2T + 2 over F_3
        assert eval_form_at_polys(f, xs) == P(K3, "2+2*T+2*T^2")
        with pytest.raises(ValueError):
            eval_form_at_polys(f, xs[:2])

    def test_is_diagonal(self):
        assert geo._is_diagonal(diag3(K3).terms)
        f = const_form(K3, 2, 2, {(1, 1, 0): 1, (0, 0, 2): 1})
        assert not geo._is_diagonal(f.terms)


class TestReduceForm:
    def test_degree_drop(self):
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        kpi, terms, dropped = geo.reduce_form(f, P(K3, "T"))
        assert dropped == [(2, 0, 0)]
        assert set(terms) == {(0, 2, 0), (0, 0, 2)}
        assert all(c == kpi.one for c in terms.values())
        _, terms1, dropped1 = geo.reduce_form(f, P(K3, "1+T"))
        assert dropped1 == [] and len(terms1) == 3

    def test_fraction_field_lift(self):
        K, terms = form_over_fraction_field(diag3(K3))
        assert isinstance(K, RationalFunctionField)
        assert all(c == K.one for c in terms.values())


def table_fields():
    """F_3, F_5, F_7; F_9 and F_25 as residue fields; F_81 as a tower over
    F_9."""
    f9 = pr.residue_field(K3, P(K3, "1+T^2"))
    return [K3, K5, K7, f9, pr.residue_field(K5, P(K5, "2+T^2")),
            pr.extension_of(f9, 2)]


def table_forms(field, nvars: int, rng):
    """Named term maps over field in nvars variables, random nonzero
    coefficients: diagonal, linked (X0 X1 X2, or X0 ... X_(nvars-1) when
    nvars < 3), zero exponents between and around nonzero ones, exponents
    at and above Q - 1, and the empty form."""
    def coeff():
        return rng.randrange(1, field.size)

    def unit(i, e):
        return tuple(e if j == i else 0 for j in range(nvars))

    linked = tuple(int(j < 3) for j in range(nvars))
    gaps = {(3,) + (0,) * (nvars - 2) + (1,) if nvars > 1 else (4,): coeff(),
            unit(nvars - 1, 2): coeff()}
    if nvars > 2:
        gaps[(0, 2) + (0,) * (nvars - 3) + (1,)] = coeff()
    return {
        "diagonal": {unit(i, 3): coeff() for i in range(nvars)},
        "linked": {linked: coeff(), unit(0, sum(linked)): coeff()},
        "gaps": gaps,
        "high": {unit(0, field.size - 1): coeff(),
                 unit(nvars - 1, field.size + 1): coeff()},
        "empty": {},
    }


class TestFormValues:
    @pytest.mark.parametrize("field", table_fields(), ids=repr)
    def test_equals_eval_terms_at_every_point(self, field):
        # every nvars in 1..4 with at most 9^4 points
        rng = random.Random(field.size)
        for nvars in range(1, 5):
            if field.size ** nvars > 9 ** 4:
                break
            points = list(itertools.product(range(field.size),
                                            repeat=nvars))
            for name, terms in table_forms(field, nvars, rng).items():
                table = geo.form_values(field, terms, nvars)
                assert table == [geo.eval_terms(field, terms, a)
                                 for a in points], (nvars, name)

    @pytest.mark.parametrize("p, e, d", [(3, 1, 2), (2, 2, 1), (2, 2, 2),
                                         (5, 1, 1), (7, 1, 1), (3, 2, 1)])
    def test_equals_the_term_by_term_oracle(self, p, e, d):
        # reductions mod a prime of degree d of n = 3 quadrics over
        # F_(p^e): diagonal, with T in the coefficients, with a term that
        # vanishes mod pi, linked x_0 to x_2, x_1 to x_3 or both, and a
        # cubic with X0 X1 X2, against the route term by term
        k = pr.make_field(p, e)
        pi = pr.irreducibles(k, d)[0]
        rng = random.Random(k.size * 10 + d)

        def c():
            return (rng.randrange(1, k.size),)

        def t():
            return (rng.randrange(k.size), rng.randrange(1, k.size))

        def diagonal(coeff):
            return {tuple(2 * (j == i) for j in range(4)): coeff()
                    for i in range(4)}
        forms = {
            "diagonal": (3, 2, diagonal(c)),
            "T coefficients": (3, 2, diagonal(t)),
            "vanished": (3, 2, {**diagonal(c), (0, 0, 0, 2): pi,
                                (1, 1, 0, 0): pr.mul(k, pi, t())}),
            "x0 x2": (3, 2, {**diagonal(c), (1, 0, 1, 0): t()}),
            "x1 x3": (3, 2, {**diagonal(t), (0, 1, 0, 1): c()}),
            "both": (3, 2, {**diagonal(c), (1, 0, 1, 0): c(),
                            (0, 1, 0, 1): t()}),
            "cubic": (2, 3, {(3, 0, 0): c(), (0, 3, 0): t(), (0, 0, 3): c(),
                             (1, 1, 1): t()}),
        }
        for name, (n, m, terms) in forms.items():
            kpi, reduced, dropped = geo.reduce_form(
                geo.MultiForm(k, n, m, terms), pi)
            assert dropped or name != "vanished"
            assert geo.form_values(kpi, reduced, n + 1) == \
                form_values_by_terms(kpi, reduced, n + 1), name

    @pytest.mark.parametrize("p, d, n, m, terms", [
        (3, 2, 3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
                      (0, 0, 0, 2): 2}),
        (7, 2, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1,
                      (1, 1, 1): 1}),
        (3, 2, 3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
                      (0, 0, 0, 2): 1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 2}),
    ], ids=["n3 quadric", "linked cubic", "linked quadric"])
    def test_makes_few_field_calls(self, monkeypatch, p, d, n, m, terms):
        # the field's add, mul and power are called for rows of Q entries,
        # not per entry of the table: here for under a quarter of them
        field = pr.residue_field(GF(p), pr.irreducibles(GF(p), d)[0])
        calls = []
        for name in ("add", "mul", "power"):
            real = getattr(field, name)
            monkeypatch.setattr(field, name, lambda *a, real=real: (
                calls.append(1) or real(*a)))
        table = geo.form_values(field, terms, n + 1)
        assert len(table) == field.size ** (n + 1)
        assert 0 < len(calls) < len(table) / 4

    def test_flat_index_is_the_product_order(self):
        points = itertools.product(range(5), repeat=3)
        assert [geo.flat_index(5, a) for a in points] == list(range(125))


# ---------------------------------------------------------------------------
# exact linear algebra


def leibniz_det3(field, m):
    """Independent 3x3 determinant via the Leibniz formula."""
    out = field.zero
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]:
        t = field.one
        for r, c in enumerate(perm):
            t = field.mul(t, m[r][c])
        out = field.add(out, t) if sign == 1 else field.sub(out, t)
    return out


class TestLinearAlgebra:
    def test_det_matches_leibniz(self):
        rng = random.Random(11)
        for _ in range(40):
            m = [[K7.from_int(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
            assert geo.mat_det(K7, m) == leibniz_det3(K7, m)

    def test_kernel_vector(self):
        ident = [[K7.one if i == j else K7.zero for j in range(3)] for i in range(3)]
        assert geo.mat_kernel_vector(K7, ident) is None
        rng = random.Random(12)
        found = 0
        for _ in range(200):
            m = [[K7.from_int(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
            v = geo.mat_kernel_vector(K7, m)
            if geo.mat_det(K7, m) == K7.zero:
                assert v is not None and any(not K7.is_zero(x) for x in v)
                for row in m:
                    s = K7.zero
                    for a, b in zip(row, v):
                        s = K7.add(s, K7.mul(a, b))
                    assert K7.is_zero(s)
                found += 1
            else:
                assert v is None
        assert found > 0

    def test_solve_linear(self):
        rng = random.Random(13)
        for _ in range(60):
            m = [[K5.from_int(rng.randrange(5)) for _ in range(3)] for _ in range(3)]
            x = [K5.from_int(rng.randrange(5)) for _ in range(3)]
            rhs = [K5.zero] * 3
            for r in range(3):
                for c in range(3):
                    rhs[r] = K5.add(rhs[r], K5.mul(m[r][c], x[c]))
            sol = solve_linear(K5, m, rhs)
            assert sol is not None
            for r in range(3):
                s = K5.zero
                for c in range(3):
                    s = K5.add(s, K5.mul(m[r][c], sol[c]))
                assert s == rhs[r]
        # inconsistent: 0 * x = 1
        assert solve_linear(K5, [[K5.zero]], [K5.one]) is None

    def test_adjugate_identity(self):
        # the cofactor of a 1 x 1 matrix is the empty determinant, 1
        assert geo.mat_adjugate(K7, [[K7.from_int(3)]]) == [[K7.one]]
        rng = random.Random(14)
        for _ in range(25):
            m = [[K7.from_int(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
            adj = geo.mat_adjugate(K7, m)
            det = geo.mat_det(K7, m)
            for i in range(3):
                for j in range(3):
                    s = K7.zero
                    for t in range(3):
                        s = K7.add(s, K7.mul(m[i][t], adj[t][j]))
                    assert s == (det if i == j else K7.zero)

    @pytest.mark.parametrize("label", ["F3", "F7", "F9", "F3(T)"])
    def test_adjugate_equals_cofactor_oracle(self, label):
        # matrices of rank n, n - 1 and n - 2, built as products B C of an
        # n x r and an r x n matrix and kept when their rank is exactly r
        if label == "F3(T)":
            field = RationalFunctionField(K3)

            def draw(rng):
                return field.from_poly(pr.poly_from_index(
                    K3, rng.randrange(9), 2))
        else:
            field = {"F3": K3, "F7": K7, "F9": K9}[label]

            def draw(rng):
                return rng.randrange(field.size)

        def product(b, c):
            out = []
            for row in b:
                out.append([])
                for col in zip(*c):
                    s = field.zero
                    for x, y in zip(row, col):
                        s = field.add(s, field.mul(x, y))
                    out[-1].append(s)
            return out

        def rank(mat):
            return len(geo._rref(field, [list(r) for r in mat], len(mat))[0])

        rng = random.Random(label)
        seen = set()
        for n in (1, 2, 3, 4):
            for r in (n, n - 1, n - 2):
                if r < 0:
                    continue
                found = 0
                while found < 6:
                    b = [[draw(rng) for _ in range(r)] for _ in range(n)]
                    c = [[draw(rng) for _ in range(n)] for _ in range(r)]
                    mat = (product(b, c) if r else
                           [[field.zero] * n for _ in range(n)])
                    if rank(mat) != r:
                        continue
                    found += 1
                    seen.add((n, r))
                    assert geo.mat_adjugate(field, mat) == \
                        cofactor_adjugate(field, mat), (n, r, mat)
        assert len(seen) == 11

    def test_poly_matrix_det_and_adjugate(self):
        # matrices over F_q[T] go through the field routines over K = F_q(T)
        K = RationalFunctionField(K3)

        def over_K(m):
            return [[K.from_poly(e) for e in row] for row in m]

        def as_poly(a):
            assert a[1] == (K3.one,)  # det and adjugate stay polynomial
            return a[0]

        t, t1 = P(K3, "T"), P(K3, "1+T")
        m = [[t, ()], [(), t1]]
        assert geo.mat_det(K, over_K(m)) == K.from_poly(P(K3, "T+T^2"))
        rng = random.Random(15)
        for _ in range(15):
            m = [[pr.poly_from_index(K3, rng.randrange(27), 3) for _ in range(3)]
                 for _ in range(3)]
            det = as_poly(geo.mat_det(K, over_K(m)))
            adj = [[as_poly(e) for e in row]
                   for row in geo.mat_adjugate(K, over_K(m))]
            for i in range(3):
                for j in range(3):
                    s = ()
                    for k_ in range(3):
                        s = pr.add(K3, s, pr.mul(K3, m[i][k_], adj[k_][j]))
                    assert s == (det if i == j else ())


# ---------------------------------------------------------------------------
# Dwork regularity


def brute_irregular_witness(field, terms, nvars):
    """Inline oracle: first projective point over the field itself that
    solves the full system, or None."""
    for point in projective_points(field, nvars):
        if geo.dwork_system_holds(field, terms, nvars, point):
            return point
    return None


def singular_at(field, terms, nvars):
    """Inline oracle: the test "the form and every partial vanish at P"."""
    grads = [geo.partial_terms(field, terms, i) for i in range(nvars)]
    return lambda point: all(field.is_zero(geo.eval_terms(field, t, point))
                             for t in (terms, *grads))


def walk_witnesses(field, terms, nvars, bound):
    """Inline oracle: for the smoothness and the Dwork check, in that order,
    every (extension degree, point) of the extension-point walk up to bound
    where the check's system holds, in the walk's order."""
    out, tests = ([], []), {}
    for r, ext, point in _extension_points(field, nvars, bound):
        if r not in tests:
            tests[r] = (singular_at(ext, terms, nvars),
                        functools.partial(geo.dwork_system_holds, ext, terms,
                                          nvars))
        for found, holds in zip(out, tests[r]):
            if holds(point):
                found.append((r, point))
    return out


def checks_vs_search(field, terms, nvars, bound=1):
    """For the smoothness and the Dwork check: the dispatched verdict, the
    verdict of the private search route at bound, and every witness of the
    check in the search's point order."""
    for verdict, searched, found in zip(
            geo.hypersurface_verdicts(field, terms, nvars),
            geo._search_verdicts(field, terms, nvars, bound),
            walk_witnesses(field, terms, nvars, bound)):
        yield verdict, searched, [point for _, point in found]


NEGATIVE = ("irregular", "singular")


class TestDworkRegularity:
    def test_diagonal_regular(self):
        for k in (K3, K7):
            terms = field_terms(k, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
            assert geo.hypersurface_verdicts(k, terms, 3)[1].status == "regular"

    def test_missing_variable_every_route(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1})
        expected = (K3.zero, K3.zero, K3.one)
        v = geo.hypersurface_verdicts(K3, terms, 3)[1]
        assert v.status == "irregular"
        assert v.ext_degree == 1
        assert v.witness == expected
        # the closed forms and the search the dispatch could have taken
        assert geo._missing_variable(K3, terms, 3) == expected
        assert geo._quadric_irregular(
            K3, geo.quadric_matrix_over(K3, terms, 3)) == expected
        assert geo._search_verdicts(K3, terms, 3, 4)[1] == v

    def test_char_divides_degree_rejected(self):
        terms = field_terms(K3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        with pytest.raises(ValueError):
            geo.hypersurface_verdicts(K3, terms, 3)[1]

    def test_nondiagonal_quadric(self):
        coeffs = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 1}
        # Over F_3 the {0,1} principal minor is singular: witness (1,1,0).
        v3 = geo.hypersurface_verdicts(K3, field_terms(K3, coeffs), 3)[1]
        assert v3.status == "irregular"
        assert v3.witness == (K3.one, K3.one, K3.zero)
        # Over F_7 all principal minors are nonsingular.
        v7 = geo.hypersurface_verdicts(K7, field_terms(K7, coeffs), 3)[1]
        assert v7.status == "regular"
        assert brute_irregular_witness(K7, field_terms(K7, coeffs), 3) is None

    def test_zero_form_irregular(self):
        v = geo.hypersurface_verdicts(K3, {}, 3)[1]
        assert v.status == "irregular" and v.witness == (K3.one, K3.zero, K3.zero)

    def test_search_unknown_on_regular(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        v = geo._search_verdicts(K3, terms, 3, 2)[1]
        assert v.status == "unknown" and v.search_bound == 2

    def test_quadric_vs_search_oracle(self):
        rng = random.Random(16)
        for k in (K3, K5, K7, K9):
            elems = list(k.elements())
            for _ in range(40):
                terms = {}
                for exps in [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                             (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
                    c = rng.choice(elems)
                    if not k.is_zero(c):
                        terms[exps] = c
                if not terms:
                    continue
                # For quadrics the principal-minor and kernel criteria place
                # any witness over the base field, so the search at bound 1
                # decides, and both checks must agree with it exactly.
                for verdict, searched, witnesses in checks_vs_search(
                        k, terms, 3):
                    assert (verdict.status in NEGATIVE) \
                        == (searched.status != "unknown")
                    assert searched.witness == (witnesses[0] if witnesses
                                                else None)
                    if witnesses:
                        # the closed forms take a witness of least support,
                        # which need not be the first point the search meets
                        assert verdict.ext_degree == 1
                        assert geo._normalized(k, verdict.witness) in witnesses

    def test_diagonal_cubics_vs_search(self):
        rng = random.Random(18)
        for missing in ((), (0,), (2,), (0, 2)):
            for _ in range(3):
                terms = {}
                for i in range(3):
                    if i not in missing:
                        exps = tuple(3 if j == i else 0 for j in range(3))
                        terms[exps] = K7.from_int(rng.randrange(1, 7))
                unit = (tuple(K7.one if j == missing[0] else K7.zero
                              for j in range(3)) if missing else None)
                for verdict, searched, witnesses in checks_vs_search(
                        K7, terms, 3):
                    assert (verdict.status in NEGATIVE) == bool(missing)
                    assert (searched.status != "unknown") == bool(missing)
                    # the missing-variable rule meets the search's first point
                    assert verdict.witness == searched.witness == unit
                    assert (witnesses[0] if witnesses else None) == unit

    def test_fraction_field_regularity(self):
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        K, terms = form_over_fraction_field(f)
        assert geo.hypersurface_verdicts(K, terms, 3)[1].status == "regular"
        # (X_0 + T X_1)^2 + X_2^2 is irregular over F_3(T): the {0,1} minor
        # is identically singular, kernel direction (-T, 1).
        g = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): (K3.one,), (1, 1, 0): P(K3, "2*T"),
             (0, 2, 0): P(K3, "T^2"), (0, 0, 2): (K3.one,)})
        Kg, gterms = form_over_fraction_field(g)
        v = geo.hypersurface_verdicts(Kg, gterms, 3)[1]
        assert v.status == "irregular" and v.ext_degree == 1
        assert geo.dwork_system_holds(Kg, gterms, 3, v.witness)
        assert proportional(
            Kg, v.witness, (Kg.from_poly(P(K3, "2*T")), Kg.one, Kg.zero))

    def test_auto_without_closed_form_over_K(self):
        f = geo.MultiForm(
            K3, 2, 4, {(3, 1, 0): (K3.one,), (0, 2, 2): (K3.one,)})
        K, terms = form_over_fraction_field(f)
        with pytest.raises(ValueError):
            geo.hypersurface_verdicts(K, terms, 3)[1]


class TestOneWalk:
    CUBICS = [e for e in itertools.product(range(4), repeat=3)
              if sum(e) == 3]

    def test_search_verdicts_vs_walk_oracle(self):
        # seeded non-diagonal cubics: the three cubes and two mixed terms,
        # or four terms without X2^3, X0 X2^2 and X1 X2^2, singular at
        # (0, 0, 1), the last point of P^2 over the base field, or without
        # X0^3, X0^2 X1 and X0^2 X2, singular at (1, 0, 0), the first; the
        # walk's first witness of each check is the searched one, and
        # "unknown" means the walk has none
        rng = random.Random(35)
        cubes = [e for e in self.CUBICS if max(e) == 3]
        mixed = [e for e in self.CUBICS if max(e) < 3]
        seen = Counter()
        for k in (pr.make_field(2, 2), K5, K7):
            units = [x for x in k.elements() if not k.is_zero(x)]
            for bound, shape, _ in itertools.product(
                    (1, 2), ("cubes", "x2", "x0"), range(2)):
                if shape == "cubes":
                    monomials = cubes + rng.sample(mixed, 2)
                else:
                    slot = 2 if shape == "x2" else 0
                    monomials = rng.sample(
                        [e for e in self.CUBICS if e[slot] <= 1], 4)
                terms = {e: rng.choice(units) for e in monomials}
                verdicts = geo.hypersurface_verdicts(k, terms, 3,
                                                     search_bound=bound)
                assert verdicts == geo._search_verdicts(k, terms, 3, bound)
                for verdict, found, status in zip(
                        verdicts, walk_witnesses(k, terms, 3, bound),
                        ("singular", "irregular")):
                    if found:
                        r, point = found[0]
                        assert verdict == geo.Verdict(status, point, r)
                    else:
                        assert verdict == geo.Verdict(
                            "unknown", search_bound=bound)
                    seen[status, verdict.ext_degree] += 1
                if shape != "cubes":
                    assert verdicts[0].status == "singular"
        assert set(seen) == {(status, r) for status in ("singular",
                                                        "irregular")
                             for r in (1, None)}

    def test_walk_stops_at_a_singular_point_of_an_extension(self):
        # X2 (X0^2 - 2 X1^2 + X2^2) over F_5: every point of the line
        # X2 = 0 solves the Dwork system, and the two singular points, where
        # the line meets the conic, have X0 / X1 = sqrt(2), in F_25 only
        terms = field_terms(K5, {(2, 0, 1): 1, (0, 2, 1): -2, (0, 0, 3): 1})
        for bound in (1, 2):
            smooth, dwork = geo.hypersurface_verdicts(K5, terms, 3,
                                                      search_bound=bound)
            singular, irregular = walk_witnesses(K5, terms, 3, bound)
            assert dwork == geo.Verdict("irregular", irregular[0][1], 1)
            assert dwork.witness == (K5.one, K5.zero, K5.zero)
            if bound == 1:
                assert not singular
                assert smooth == geo.Verdict("unknown", search_bound=1)
            else:
                assert smooth == geo.Verdict("singular", singular[0][1], 2)

    def test_one_evaluation_of_h_per_walked_point(self, monkeypatch):
        # the linked cubic mod T has no singular point on the walk, so the
        # walk runs to its end; it evaluates H once at each of its points,
        # as one cell of a form_values table, and eval_terms only at the
        # zeros, on the three partials
        f = const_form(K7, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1,
                                  (1, 1, 1): 1})
        kpi, terms, _ = geo.reduce_form(f, P(K7, "T"))
        bound = 2
        zeros = list(zeros_by_points(kpi, terms, 3, bound))
        cells, calls = Counter(), Counter()
        tabulate, evaluate = geo.form_values, geo.eval_terms

        def counted_values(field, t, nvars):
            out = tabulate(field, t, nvars)
            cells[field.size] += len(out)
            return out

        def counted_eval(field, t, point):
            calls[t == terms] += 1
            return evaluate(field, t, point)

        monkeypatch.setattr(geo, "form_values", counted_values)
        monkeypatch.setattr(geo, "eval_terms", counted_eval)
        smooth, dwork = geo.hypersurface_verdicts(kpi, terms, 3, bound)
        assert smooth.status == dwork.status == "unknown"
        assert cells == {7: 57, 49: 2451}
        assert sum(cells.values()) == geo._projective_count(7, 3, bound) \
            == 2508
        assert calls == {False: 3 * len(zeros)}

    @staticmethod
    def walk_cases():
        """(field, nvars, bound, terms): seeded forms of degree 2 and 3
        over F_3, F_4, F_5, F_7, F_9 and F_25, coefficients from the whole
        field, in 2, 3 and 4 variables at bounds 1 and 2, with a linked
        form, one without its last variable, the product of the first
        variables (zero on whole charts) and the zero form in each; a cell
        whose walk passes 17 000 points is left out: (7, 4, 2), (9, 4, 2),
        (25, 3, 2) and (25, 4, 2)."""
        rng = random.Random(39)
        for k, nvars, bound in itertools.product(
                (K3, pr.make_field(2, 2), K5, K7, K9, pr.make_field(5, 2)),
                (2, 3, 4), (1, 2)):
            if geo._projective_count(k.size, nvars, bound) > 17000:
                continue
            units = [x for x in k.elements() if not k.is_zero(x)]
            for m in (2, 3):
                monomials = [e for e in itertools.product(
                    range(m + 1), repeat=nvars) if sum(e) == m]
                linked = [e for e in monomials if max(e) < m]
                missing = [e for e in monomials if not e[-1]]
                for chosen in (rng.sample(monomials, 3),
                               rng.sample(linked, min(len(linked), 3)),
                               rng.sample(missing, min(len(missing), 2))):
                    yield k, nvars, bound, {e: rng.choice(units)
                                            for e in chosen}
            product = tuple(int(i < 3) for i in range(nvars))
            yield k, nvars, bound, {product: k.one}
            yield k, nvars, bound, {}

    def test_zeros_equal_the_per_point_walk(self):
        cells = set()
        for k, nvars, bound, terms in self.walk_cases():
            assert [(r, ext.size, point, grad) for r, ext, point, grad
                    in geo._zeros(k, terms, nvars, bound)] == \
                [(r, ext.size, point, grad) for r, ext, point, grad
                 in zeros_by_points(k, terms, nvars, bound)], \
                (k.size, nvars, bound, terms)
            cells.add((k.size, nvars, bound))
        assert len(cells) == 32

    def test_zero_walk_needs_a_finite_field(self):
        K = RationalFunctionField(K3)
        with pytest.raises(ValueError, match="finite field"):
            next(geo._zeros(K, {(1, 1): K.one}, 2, 1))


class TestProjectivePoints:
    def test_counts_and_distinctness(self):
        pts3 = list(projective_points(K3, 3))
        assert len(pts3) == 13  # 9 + 3 + 1
        assert len(list(projective_points(K9, 2))) == 10
        for u, w in itertools.combinations(pts3, 2):
            assert not proportional(K3, u, w)


# ---------------------------------------------------------------------------
# smoothness verdicts


class TestSingularity:
    def test_projective_quadrics(self):
        smooth = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert geo.hypersurface_verdicts(K3, smooth, 3)[0].status == "smooth"
        cone = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1})
        v = geo.hypersurface_verdicts(K3, cone, 3)[0]
        assert v.status == "singular" and v.witness == (K3.zero, K3.zero, K3.one)

    def test_projective_cubics(self):
        fermat = field_terms(K5, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        # the diagonal closed form certifies smoothness; a search cannot
        assert geo.hypersurface_verdicts(K5, fermat, 3)[0].status == "smooth"
        v = geo._search_verdicts(K5, fermat, 3, 2)[0]
        assert v.status == "unknown" and v.search_bound == 2
        cone = field_terms(K5, {(3, 0, 0): 1, (0, 3, 0): 1})
        w = geo.hypersurface_verdicts(K5, cone, 3, search_bound=2)[0]
        assert w.status == "singular"
        assert w.witness == (K5.zero, K5.zero, K5.one) and w.ext_degree == 1
        # nondiagonal cubic with a rational singular point, found by search
        nodal = field_terms(K5, {(1, 1, 1): 1, (3, 0, 0): 1})
        u = geo.hypersurface_verdicts(K5, nodal, 3, search_bound=1)[0]
        assert u.status == "singular"
        assert u.witness == (K5.zero, K5.one, K5.zero)

    def test_affine_fixtures(self):
        # x^2 + y^2 + 1 = 0 over F_3: gradient vanishes only at the origin,
        # where the value is 1.
        g = field_terms(K3, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
        assert affine_singularity(K3, g, 2).status == "smooth"
        cone = field_terms(K3, {(2, 0): 1, (0, 2): 1})
        v = affine_singularity(K3, cone, 2)
        assert v.status == "singular" and v.witness == (K3.zero, K3.zero)
        parabola = field_terms(K3, {(2, 0): 1, (0, 1): 1})
        assert affine_singularity(K3, parabola, 2).status == "smooth"
        double_line = field_terms(K3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert affine_singularity(K3, double_line, 2).status == "singular"

    def test_affine_pure_powers(self):
        smooth = field_terms(K5, {(3, 0): 1, (0, 3): 1, (0, 0): 1})
        assert affine_singularity(K5, smooth, 2).status == "smooth"
        cone = field_terms(K5, {(3, 0): 1, (0, 3): 1})
        v = affine_singularity(K5, cone, 2)
        assert v.status == "singular" and v.witness == (K5.zero, K5.zero)
        # a linear monomial keeps the gradient from vanishing anywhere
        line = field_terms(K5, {(3, 0): 1, (0, 1): 1})
        assert affine_singularity(K5, line, 2).status == "smooth"
        # char | exponent disables the closed form; search still decides
        frob = field_terms(K5, {(5, 0): 1, (0, 3): 1})
        w = affine_singularity(K5, frob, 2, search_bound=1)
        assert w.status == "singular" and w.witness == (K5.zero, K5.zero)

    def test_affine_closed_form_vs_search(self):
        rng = random.Random(17)
        exps_pool = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        for _ in range(40):
            terms = field_terms(
                K3, {e: rng.randrange(3) for e in exps_pool})
            closed = affine_singularity(K3, terms, 2)
            searched = search_affine_singular(K3, terms, 2, search_bound=1)
            # Critical points of a quadratic solve a linear system over the
            # base field, so a base-field search decides it completely.
            if closed.status == "singular":
                assert searched.status == "singular"
            else:
                assert searched.status == "unknown"


# ---------------------------------------------------------------------------
# slices


class TestSlice:
    def test_dehomogenize_diagonal(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        g, checks = slice_and_check(K3, terms, 3, 2, {0, 1, 2}, 2)
        assert g == field_terms(K3, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
        assert checks["degree_preserved"]
        assert checks["top_form_matches"]
        assert checks["top_form_smooth"].status == "smooth"
        assert checks["affine_smooth"].status == "smooth"

    def test_sub_slice(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        g, checks = slice_and_check(K3, terms, 3, 2, {1, 2}, 1)
        assert g == field_terms(K3, {(2,): 1, (0,): 1})
        assert checks["degree_preserved"] and checks["top_form_matches"]
        assert checks["top_form_smooth"].status == "smooth"
        assert checks["affine_smooth"].status == "smooth"

    def test_residue_field_slice(self):
        kpi = pr.residue_field(K3, P(K3, "1+T^2"))
        terms = field_terms(kpi, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        g, checks = slice_and_check(kpi, terms, 3, 2, {0, 1, 2}, 0)
        assert checks["degree_preserved"] and checks["top_form_matches"]
        assert checks["affine_smooth"].status == "smooth"

    def test_degenerate_slice(self):
        terms = field_terms(K3, {(2, 0): 1, (1, 1): 1})
        g, checks = slice_and_check(K3, terms, 2, 2, {0, 1}, 0)
        assert g == field_terms(K3, {(0,): 1, (1,): 1})
        assert not checks["degree_preserved"]

    def test_bad_inputs(self):
        terms = field_terms(K3, {(2, 0): 1, (0, 2): 1})
        with pytest.raises(ValueError):
            slice_and_check(K3, terms, 2, 2, {0, 1}, 2)
        with pytest.raises(ValueError):
            slice_and_check(K3, terms, 2, 2, {0, 5}, 0)


# ---------------------------------------------------------------------------
# duality


def t_quadric(k):
    """X_0^2 + X_1^2 + X_2^2 + T X_0 X_1; degenerates exactly where
    1 - T^2 vanishes (T = 1 and T = -1 over F_3)."""
    return geo.MultiForm(
        k, 2, 2,
        {(2, 0, 0): (k.one,), (0, 2, 0): (k.one,), (0, 0, 2): (k.one,),
         (1, 1, 0): P(k, "T")})


def tangency_oracle(form, pi, w, search_bound):
    """Slow reference for the tangency route: the per-covector scan the
    dual column replaced.  True when w is proportional to a nonzero gradient
    at a point of {F = 0 mod pi} over an extension of degree
    <= search_bound, else None."""
    kpi, h_terms, _ = geo.reduce_form(form, pi)
    nv = form.n + 1
    grads = [geo.partial_terms(kpi, h_terms, i) for i in range(nv)]
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(kpi, r)
        for point in projective_points(ext, nv):
            if not ext.is_zero(geo.eval_terms(ext, h_terms, point)):
                continue
            grad = tuple(geo.eval_terms(ext, g, point) for g in grads)
            if all(ext.is_zero(x) for x in grad):
                continue
            if proportional(ext, grad, w):
                return True
    return None


def nonzero_covectors(kpi, nvars):
    for w in itertools.product(range(kpi.size), repeat=nvars):
        if not all(kpi.is_zero(x) for x in w):
            yield w


def cubic7(coeffs):
    return const_form(K7, 2, 3, coeffs)


def indexed_form(k, n, m, terms):
    """Form whose coefficients are given as lists of element indices of k,
    constant term first."""
    return geo.MultiForm(k, n, m, {
        e: pr.normalize(k, tuple(coeffs))
        for e, coeffs in terms.items()})


DIAG_QUADRIC = {(2, 0, 0): [1], (0, 2, 0): [1], (0, 0, 2): [1]}
NONDIAG_QUADRIC = {(2, 0, 0): [1], (1, 1, 0): [1], (0, 2, 0): [2],
                   (0, 1, 1): [1], (0, 0, 2): [2]}
T_QUADRIC = {(2, 0, 0): [1, 1], (0, 2, 0): [0, 1], (1, 0, 1): [2],
             (0, 0, 2): [1]}
# supplied "duals" need not be duals: the route evaluates whatever it is
# given, and a cubic with a T coefficient reaches exponent 3 and X0 X1 X2
T_CUBIC = {(3, 0, 0): [1], (0, 3, 0): [0, 1], (1, 1, 1): [2, 1],
           (0, 0, 3): [2]}
# (field, prime, n, quadric, supplied cubic or None for the auto dual):
# q in {3, 5, 7, 9}, primes of degree 1 and 2, diagonal, non-diagonal and
# T-coefficient quadrics
CLOSED_FORM_CASES = [
    (K3, "T", 2, DIAG_QUADRIC, None),
    (K3, "T", 3, {(2, 0, 0, 0): [1], (0, 2, 0, 0): [1], (0, 0, 2, 0): [1],
                  (0, 0, 0, 2): [2], (1, 0, 0, 1): [1]}, None),
    (K3, "1+T^2", 2, NONDIAG_QUADRIC, None),
    (K3, "1+T^2", 2, T_QUADRIC, None),
    (K3, "2+T+T^2", 2, DIAG_QUADRIC, T_CUBIC),
    (K5, "1+T", 2, T_QUADRIC, None),
    (K5, "2+T^2", 2, DIAG_QUADRIC, None),
    (K5, "T", 2, NONDIAG_QUADRIC, T_CUBIC),
    (K7, "T", 2, NONDIAG_QUADRIC, None),
    (K7, "3+T", 2, T_QUADRIC, None),
    (K7, "1+T", 2, DIAG_QUADRIC, T_CUBIC),
    (K9, "T", 2, {(2, 0, 0): [1], (1, 1, 0): [4], (0, 2, 0): [5],
                  (0, 1, 1): [7], (0, 0, 2): [3]}, None),
    (K9, "1+T", 2, {(2, 0, 0): [0, 1], (0, 2, 0): [1], (0, 0, 2): [2, 4]},
     None),
    (K9, "T", 2, T_QUADRIC, T_CUBIC),
]


class TestDualTest:
    """The dual column of a prime against the slow per-covector tangency
    scan, on every nonzero covector."""

    @pytest.mark.parametrize("form, pi_text, bound", [
        (cubic7({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), "T", 1),
        (cubic7({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), "1+T", 1),
        (cubic7({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 1, 1): 1}),
         "T", 1),
        (diag3(K3), "T", 1),
        (diag3(K3), "T", 2),
        (diag3(K3), "1+T^2", 1),
        (const_form(K5, 3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                               (0, 0, 2, 0): 1, (0, 0, 0, 2): 1,
                               (1, 1, 0, 0): 1, (0, 0, 1, 1): 1}), "T", 1),
    ])
    def test_tangency_matches_oracle(self, form, pi_text, bound):
        pi = P(form.k, pi_text)
        kpi = pr.residue_field(form.k, pi)
        on_dual = geo.dual_column(form, pi, "tangency", bound)
        quadric = (geo.dual_column(form, pi, "auto")
                   if form.m == 2 else None)
        for w in nonzero_covectors(kpi, form.n + 1):
            expect = tangency_oracle(form, pi, w, bound)
            pos = geo.flat_index(kpi.size, w)
            assert on_dual[pos] is expect
            if quadric is not None:
                # a tangent hyperplane of a smooth quadric touches it at a
                # point of the base field
                assert quadric[pos] is (expect is True)

    def test_tangency_matches_oracle_degree_two_prime_bound_two(self):
        # the oracle scans P^2(F_81) for each covector off the dual (about
        # 2 s each), so this instance takes covectors on and off the dual
        # rather than all 728
        f = diag3(K3)
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        on_dual = geo.dual_column(f, pi, "tangency", 2)
        t = 3  # the class of T, a square root of -1
        one, zero = kpi.one, kpi.zero
        for w, member in (((one, one, one), True), ((one, t, zero), True),
                          ((one, zero, zero), None), ((one, t, one), None)):
            assert tangency_oracle(f, pi, w, 2) is member
            assert on_dual[geo.flat_index(kpi.size, w)] is member

    @pytest.mark.parametrize(
        "k, pi_text, n, terms, supplied", CLOSED_FORM_CASES,
        ids=[f"q{c[0].size}-{c[1]}-n{c[2]}-case{i}"
             for i, c in enumerate(CLOSED_FORM_CASES)])
    def test_closed_form_matches_eval_terms(self, k, pi_text, n, terms,
                                            supplied):
        # the verdict of the test against the dual evaluated by hand, on
        # every nonzero covector
        form = indexed_form(k, n, 2, terms)
        pi = P(k, pi_text)
        if supplied is None:
            dual_form, on_dual = (geo.quadric_dual_form(form),
                                  geo.dual_column(form, pi))
        else:
            dual_form = indexed_form(k, n, 3, supplied)
            on_dual = geo.dual_column(form, pi, dual=dual_form)
        kpi, dual_terms, _ = geo.reduce_form(dual_form, pi)
        members = 0
        for w in nonzero_covectors(kpi, n + 1):
            expect = kpi.is_zero(geo.eval_terms(kpi, dual_terms, w))
            assert on_dual[geo.flat_index(kpi.size, w)] is expect
            members += expect
        assert 0 < members < kpi.size ** (n + 1) - 1

    def test_column_shape(self):
        # Q^(n+1) entries on every route, no verdict at w = 0, and the
        # tangency route never certifies a covector off the dual
        f = diag3(K3)
        for pi_text in ("T", "1+T^2"):
            pi = P(K3, pi_text)
            Q = pr.residue_field(K3, pi).size
            for route in ("auto", geo.quadric_dual_form(f), "tangency"):
                column = geo.dual_column(f, pi, route)
                assert len(column) == Q ** 3
                assert column[0] is None
                if route == "tangency":
                    assert set(column) == {True, None}
                else:
                    assert set(column[1:]) == {True, False}

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            geo.dual_column(diag3(K3), P(K3, "T"), "resultant")
        # the closed-form quadric is what "auto" picks for m = 2; it is not
        # a route of its own
        with pytest.raises(ValueError):
            geo.dual_column(diag3(K3), P(K3, "T"), "quadric")
        with pytest.raises(ValueError):
            geo.dual_test_cost(diag3(K3), 3, "quadric")


class TestDuality:
    def test_dual_degree_formula(self):
        assert dual_degree(2, 2) == 2
        assert dual_degree(3, 2) == 6
        assert dual_degree(2, 5) == 2

    def test_diagonal_dual(self):
        f = diag3(K3)
        dual = geo.quadric_dual_form(f)
        assert dual == f  # adj(I) = I
        assert dual.m == 2 == dual_degree(f.m, f.n)

    def test_double_dual_is_det_times_form(self):
        f = t_quadric(K3)
        K, terms = form_over_fraction_field(f)
        num, den = geo.mat_det(K, geo.quadric_matrix_over(K, terms, 3))
        assert den == (K3.one,)
        det = num
        double = geo.quadric_dual_form(geo.quadric_dual_form(f))
        assert set(double.terms) == set(f.terms)
        for exps, coeff in f.terms.items():
            assert double.terms[exps] == pr.mul(K3, det, coeff)

    def test_membership_matches_tangency_mod_T(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)
        closed = geo.dual_column(f, pi, dual="auto")
        tangency = geo.dual_column(f, pi, dual="tangency", search_bound=1)
        members = 0
        for w in projective_points(kpi, 3):
            via_dual = closed[geo.flat_index(kpi.size, w)]
            via_tangency = tangency[geo.flat_index(kpi.size, w)]
            assert via_dual == (via_tangency is True)
            members += via_dual
        # a smooth conic over F_q has exactly q + 1 rational points
        assert members == 4

    def test_membership_matches_tangency_mod_degree_two(self):
        f = t_quadric(K3)
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        closed = geo.dual_column(f, pi, dual="auto")
        tangency = geo.dual_column(f, pi, dual="tangency", search_bound=1)
        members = 0
        for w in projective_points(kpi, 3):
            via_dual = closed[geo.flat_index(kpi.size, w)]
            via_tangency = tangency[geo.flat_index(kpi.size, w)]
            assert via_dual == (via_tangency is True)
            members += via_dual
        assert members == 10  # q + 1 over F_9

    def test_user_supplied_dual_agrees(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)
        supplied = geo.dual_column(f, pi, dual=geo.quadric_dual_form(f))
        closed = geo.dual_column(f, pi, dual="auto")
        for w in projective_points(kpi, 3):
            pos = geo.flat_index(kpi.size, w)
            assert supplied[pos] == closed[pos]

    def test_degenerate_prime_rejected(self):
        with pytest.raises(ValueError, match="degenerates"):
            geo.dual_column(t_quadric(K3), P(K3, "1+T"), dual="auto")
        # a supplied dual whose every coefficient is a multiple of T
        t_dual = indexed_form(K3, 2, 2, {e: [0, 1] for e in DIAG_QUADRIC})
        with pytest.raises(ValueError, match="vanishes"):
            geo.dual_column(diag3(K3), P(K3, "T"), dual=t_dual)


# ---------------------------------------------------------------------------
# the division-free adjugate over F_q[T] against elimination over F_q(T)


K25 = pr.make_field(5, 2)
ADJUGATE_FIELDS = {"F3": K3, "F5": K5, "F7": K7, "F9": K9, "F25": K25}


def poly_product(k, b, c):
    """The product of two matrices over F_q[T]."""
    return [[functools.reduce(lambda s, t: pr.add(k, s, t),
                              (pr.mul(k, x, y) for x, y in zip(row, col)), ())
             for col in zip(*c)] for row in b]


def over_fraction_field(K, mat):
    return [[K.from_poly(e) for e in row] for row in mat]


def polynomial_entries(K, mat):
    """The entries of a matrix over K = F_q(T), each asserted a polynomial."""
    assert all(den == (K.k.one,) for row in mat for _, den in row)
    return [[num for num, _ in row] for row in mat]


def seeded_quadric(k, nvars, r, rng):
    """The quadric x^T B D B^T x, B an nvars x r matrix of polynomials of
    degree < 2 and D a diagonal of nonzero constants: its matrix has rank
    at most r over F_q(T)."""
    b = [[pr.poly_from_index(k, rng.randrange(k.size ** 2), 2)
          for _ in range(r)] for _ in range(nvars)]
    d = [(rng.randrange(1, k.size),) for _ in range(r)]
    bd = [[pr.mul(k, x, y) for x, y in zip(row, d)] for row in b]
    A = poly_product(k, bd, list(zip(*b))) if r else \
        [[()] * nvars for _ in range(nvars)]
    two = (k.from_int(2),)
    terms = {}
    for i in range(nvars):
        for j in range(i, nvars):
            exps = tuple((t == i) + (t == j) for t in range(nvars))
            terms[exps] = A[i][j] if i == j else pr.mul(k, two, A[i][j])
    return geo.MultiForm(k, nvars - 1, 2, terms), A


class TestDivisionFreeAdjugate:
    @pytest.mark.parametrize("label", ["F3", "F5", "F9", "F25"])
    def test_poly_det_equals_elimination_over_K(self, label):
        # square matrices of every rank, products B C of an n x r and an
        # r x n matrix, and ones with a zero first column entry, so the
        # elimination swaps rows
        k = ADJUGATE_FIELDS[label]
        K = RationalFunctionField(k)
        rng = random.Random(label)

        def draw():
            return pr.poly_from_index(k, rng.randrange(k.size ** 3), 3)

        assert geo._poly_det(k, []) == (k.one,)
        for n in range(1, 6):
            for r in range(n + 1):
                for _ in range(3):
                    b = [[draw() for _ in range(r)] for _ in range(n)]
                    c = [[draw() for _ in range(n)] for _ in range(r)]
                    mat = poly_product(k, b, c) if r else \
                        [[()] * n for _ in range(n)]
                    mat[0][0] = () if rng.randrange(2) else mat[0][0]
                    det = geo.mat_det(K, over_fraction_field(K, mat))
                    assert geo._poly_det(k, mat) == \
                        polynomial_entries(K, [[det]])[0][0], (n, r, mat)

    @pytest.mark.parametrize("label", sorted(ADJUGATE_FIELDS))
    def test_quadric_adjugate_equals_elimination_over_K(self, label):
        # seeded quadrics in N = 1 .. 5 variables whose matrices have rank
        # N, N - 1 and at most N - 2 over F_q(T), told apart by the
        # corank's bucket: 0, 1, or 2 and more
        k = ADJUGATE_FIELDS[label]
        K = RationalFunctionField(k)
        rng = random.Random(label)
        seen = set()
        for nvars in range(1, 6):
            for r in range(nvars, max(nvars - 3, -1), -1):
                found = 0
                while found < 3:
                    form, A = seeded_quadric(k, nvars, r, rng)
                    corank = min(nvars - len(geo._rref(
                        K, over_fraction_field(K, A), nvars)[0]), 2)
                    if corank != nvars - r:
                        continue
                    found += 1
                    seen.add((nvars, corank))
                    Kf, terms = form_over_fraction_field(form)
                    assert geo.quadric_matrix_over(Kf, terms, nvars) == \
                        over_fraction_field(K, A)
                    assert geo._quadric_adjugate(form) == polynomial_entries(
                        K, geo.mat_adjugate(
                            K, over_fraction_field(K, A))), (nvars, r, A)
        assert len(seen) == 2 + 3 + 3 + 3 + 3

    def test_inexact_division_raises(self, monkeypatch):
        m = [[P(K3, "T"), P(K3, "1")], [P(K3, "1+T"), P(K3, "T^2")]]
        assert geo._poly_det(K3, m) == P(K3, "2+2*T+T^3")
        monkeypatch.setattr(pr, "divrem", lambda k, f, g: (f, (k.one,)))
        with pytest.raises(ArithmeticError, match="inexact"):
            geo._poly_det(K3, m)


# ---------------------------------------------------------------------------
# exceptional primes


class TestExceptionalPrimes:
    def test_clean_diagonal(self):
        report = geo.compute_exceptional_primes(diag3(K3), 2)
        assert report["exceptional"] == []
        assert report["entries"] == []
        assert report["scanned"] == 3 + 3  # monic irreducibles of degree 1, 2

    def test_t_coefficient_flags_T(self):
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        report = geo.compute_exceptional_primes(f, 2)
        assert report["exceptional"] == ["T"]
        entry = report["entries"][0]
        assert entry["pi"] == "T"
        assert set(entry["tags"]) == {"degree-drop", "smoothness-fail",
                                      "dwork-fail"}

    def test_degenerating_quadric(self):
        report = geo.compute_exceptional_primes(t_quadric(K3), 2)
        # T: the X_0 X_1 coefficient vanishes (model degenerates);
        # T +/- 1: the quadric matrix determinant 1 - T^2 vanishes.
        assert report["exceptional"] == ["T", "1+T", "2+T"]
        by_pi = {e["pi"]: e for e in report["entries"]}
        assert by_pi["T"]["tags"] == ["degree-drop"]
        for pi in ("1+T", "2+T"):
            assert "smoothness-fail" in by_pi[pi]["tags"]
            assert "dwork-fail" in by_pi[pi]["tags"]
            assert "dual-mismatch" not in by_pi[pi]["tags"]

    def test_wrong_user_dual_trips_mismatch(self):
        f = const_form(K5, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        wrong = const_form(K5, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        report = geo.compute_exceptional_primes(f, 1, dual=wrong, search_bound=1)
        entry = next(e for e in report["entries"] if e["pi"] == "T")
        assert entry["tags"] == ["dual-mismatch"]

    def test_user_dual_checked_at_tangent_covectors(self):
        # u^5 v - u v^5 vanishes at every covector over F_5, so at every
        # tangent covector mod a linear prime; times T it vanishes mod T
        f = const_form(K5, 2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        for coeffs, tagged in ((((1,), (4,)), []),
                               (((0, 1), (0, 4)), ["T"])):
            dual = geo.MultiForm(K5, 2, 6, dict(zip(((5, 1, 0), (1, 5, 0)),
                                                    coeffs)))
            report = geo.compute_exceptional_primes(f, 1, dual=dual,
                                                    search_bound=1)
            assert [e["pi"] for e in report["entries"]
                    if "dual-mismatch" in e["tags"]] == tagged

    def test_supplied_dual_of_a_quadric_is_checked(self):
        # the unit quadric over F_3 is its own dual; X0 X1 misses the
        # tangent covector (1, 1, 1) at the point (1, 1, 1) mod every prime,
        # and the zero form vanishes mod every prime, so both tag each of
        # the 6 primes of degree <= 2 and nothing else
        f = diag3(K3)
        own = geo.quadric_dual_form(f)
        assert own == f
        assert geo.compute_exceptional_primes(f, 2, dual=own)["entries"] \
            == []
        for dual in (const_form(K3, 2, 2, {(1, 1, 0): 1}),
                     geo.MultiForm(K3, 2, 2, {})):
            report = geo.compute_exceptional_primes(f, 2, dual=dual)
            assert report["scanned"] == len(report["exceptional"]) == 6
            assert [(e["tags"], e["unknown"]) for e in report["entries"]] \
                == [(["dual-mismatch"], [])] * 6

    def test_quadric_with_supplied_dual_prices_its_tangent_walk(self):
        # the residues of each prime, then P^2 over its residue field:
        # 3 linear primes over F_3 and 3 quadratic ones over F_9
        f = diag3(K3)
        assert geo.exceptional_scan_cost(f, 2) == (
            pr.irreducibles_cost(3, 1) + pr.irreducibles_cost(3, 2),
            3 * 3 + 3 * 9)
        assert geo.exceptional_scan_cost(f, 2, geo.quadric_dual_form(f))[1] \
            == 3 * (3 + 13) + 3 * (9 + 91)


# ---------------------------------------------------------------------------
# Schwartz-Zippel audit


class TestSchwartzZippel:
    def test_frozen_example(self):
        # X_0 X_1 - X_2^2 over F_3: 9 zeros against the bound 2 * 3^2 = 18.
        terms = field_terms(K3, {(1, 1, 0): 1, (0, 0, 2): 2})
        report = schwartz_zippel_audit(K3, terms, 3)
        assert report == {"degree": 2, "sample_size": 3, "zeros": 9,
                          "bound": 18, "pass": True}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            schwartz_zippel_audit(K3, {}, 3)

    def test_subsample(self):
        terms = field_terms(K7, {(1, 0): 1, (0, 1): 6})  # x - y
        report = schwartz_zippel_audit(K7, terms, 2,
                                           sample=[K7.from_int(i) for i in range(4)])
        assert report["zeros"] == 4 and report["bound"] == 4 and report["pass"]


# ---------------------------------------------------------------------------
# the fraction field itself


class TestRationalFunctionField:
    def test_normalization(self):
        K = RationalFunctionField(K3)
        a = K.normalize(P(K3, "2+2*T"), P(K3, "2*T+2*T^2"))  # (2T+2)/(2T^2+2T) = 1/T
        assert a == ((K3.one,), P(K3, "T"))

    def test_field_axioms_random(self):
        K = RationalFunctionField(K3)
        rng = random.Random(18)

        def rand_elem():
            num = pr.poly_from_index(K3, rng.randrange(27), 3)
            den = ()
            while not den:
                den = pr.poly_from_index(K3, rng.randrange(27), 3)
            return K.normalize(num, den)

        for _ in range(40):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
            assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
            assert K.sub(a, a) == K.zero
            if not K.is_zero(a):
                assert K.mul(a, K.inv(a)) == K.one
                assert K.power(a, 3) == K.mul(a, K.mul(a, a))
        with pytest.raises(ZeroDivisionError):
            K.inv(K.zero)
