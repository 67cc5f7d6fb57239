"""Geometry tests: forms, regularity verdicts, slices, duality, the
exceptional-prime scan, and the Schwartz-Zippel audit.

Closed-form verdicts are cross-checked against independent brute-force
enumeration oracles written inline here.
"""

import itertools
import random

import pytest

from cycsieve import geometry as geo
from cycsieve import polyring as pr
from cycsieve.ffield import GF
from cycsieve.polyring import RationalFunctionField

from oracles import dual_degree, schwartz_zippel_audit

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
        assert geo.eval_form_at_polys(f, xs) == P(K3, "2+2*T+2*T^2")
        with pytest.raises(ValueError):
            geo.eval_form_at_polys(f, xs[:2])

    def test_is_diagonal(self):
        assert diag3(K3).is_diagonal()
        f = const_form(K3, 2, 2, {(1, 1, 0): 1, (0, 0, 2): 1})
        assert not f.is_diagonal()


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
        K, terms = geo.form_over_fraction_field(diag3(K3))
        assert isinstance(K, RationalFunctionField)
        assert all(c == K.one for c in terms.values())


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
            sol = geo.solve_linear(K5, m, rhs)
            assert sol is not None
            for r in range(3):
                s = K5.zero
                for c in range(3):
                    s = K5.add(s, K5.mul(m[r][c], sol[c]))
                assert s == rhs[r]
        # inconsistent: 0 * x = 1
        assert geo.solve_linear(K5, [[K5.zero]], [K5.one]) is None

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
    for point in geo.projective_points(field, nvars):
        if geo.dwork_system_holds(field, terms, nvars, point):
            return point
    return None


def singular_at(field, terms, nvars):
    """Inline oracle: the test "the form and every partial vanish at P"."""
    grads = [geo.partial_terms(field, terms, i) for i in range(nvars)]
    return lambda point: all(field.is_zero(geo.eval_terms(field, t, point))
                             for t in (terms, *grads))


def checks_vs_search(field, terms, nvars, m):
    """For the Dwork and the smoothness check: the dispatched verdict, the
    verdict of the private search route at bound 1, and every base-field
    witness of the check in the search's point order."""
    routes = [
        (geo.is_dwork_regular(field, terms, nvars, m),
         geo._search_irregular(field, terms, nvars, 1),
         lambda point: geo.dwork_system_holds(field, terms, nvars, point)),
        (geo.projective_singularity(field, terms, nvars),
         geo._search_singular(field, terms, nvars, 1, affine=False),
         singular_at(field, terms, nvars)),
    ]
    for verdict, searched, holds in routes:
        witnesses = [p for p in geo.projective_points(field, nvars) if holds(p)]
        yield verdict, searched, witnesses


NEGATIVE = ("irregular", "singular")


class TestDworkRegularity:
    def test_diagonal_regular(self):
        for k in (K3, K7):
            terms = field_terms(k, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
            assert geo.is_dwork_regular(k, terms, 3, 2).status == "regular"

    def test_missing_variable_every_route(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1})
        expected = (K3.zero, K3.zero, K3.one)
        v = geo.is_dwork_regular(K3, terms, 3, 2)
        assert v.status == "irregular"
        assert v.ext_degree == 1
        assert v.witness == expected
        # the closed forms and the search the dispatch could have taken
        assert geo._missing_variable(K3, terms, 3) == expected
        assert geo._quadric_irregular(K3, terms, 3) == expected
        assert geo._search_irregular(K3, terms, 3, 4) == v

    def test_char_divides_degree_rejected(self):
        terms = field_terms(K3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        with pytest.raises(ValueError):
            geo.is_dwork_regular(K3, terms, 3, 3)

    def test_nondiagonal_quadric(self):
        coeffs = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 1}
        # Over F_3 the {0,1} principal minor is singular: witness (1,1,0).
        v3 = geo.is_dwork_regular(K3, field_terms(K3, coeffs), 3, 2)
        assert v3.status == "irregular"
        assert v3.witness == (K3.one, K3.one, K3.zero)
        # Over F_7 all principal minors are nonsingular.
        v7 = geo.is_dwork_regular(K7, field_terms(K7, coeffs), 3, 2)
        assert v7.status == "regular"
        assert brute_irregular_witness(K7, field_terms(K7, coeffs), 3) is None

    def test_zero_form_irregular(self):
        v = geo.is_dwork_regular(K3, {}, 3, 2)
        assert v.status == "irregular" and v.witness == (K3.one, K3.zero, K3.zero)

    def test_search_unknown_on_regular(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        v = geo._search_irregular(K3, terms, 3, search_bound=2)
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
                        k, terms, 3, 2):
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
                        K7, terms, 3, 3):
                    assert (verdict.status in NEGATIVE) == bool(missing)
                    assert (searched.status != "unknown") == bool(missing)
                    # the missing-variable rule meets the search's first point
                    assert verdict.witness == searched.witness == unit
                    assert (witnesses[0] if witnesses else None) == unit

    def test_fraction_field_regularity(self):
        f = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
        K, terms = geo.form_over_fraction_field(f)
        assert geo.is_dwork_regular(K, terms, 3, 2).status == "regular"
        # (X_0 + T X_1)^2 + X_2^2 is irregular over F_3(T): the {0,1} minor
        # is identically singular, kernel direction (-T, 1).
        g = geo.MultiForm(
            K3, 2, 2,
            {(2, 0, 0): (K3.one,), (1, 1, 0): P(K3, "2*T"),
             (0, 2, 0): P(K3, "T^2"), (0, 0, 2): (K3.one,)})
        Kg, gterms = geo.form_over_fraction_field(g)
        v = geo.is_dwork_regular(Kg, gterms, 3, 2)
        assert v.status == "irregular" and v.ext_degree == 1
        assert geo.dwork_system_holds(Kg, gterms, 3, v.witness)
        assert geo.proportional(
            Kg, v.witness, (Kg.from_poly(P(K3, "2*T")), Kg.one, Kg.zero))

    def test_auto_without_closed_form_over_K(self):
        f = geo.MultiForm(
            K3, 2, 4, {(3, 1, 0): (K3.one,), (0, 2, 2): (K3.one,)})
        K, terms = geo.form_over_fraction_field(f)
        with pytest.raises(ValueError):
            geo.is_dwork_regular(K, terms, 3, 4)


class TestProjectivePoints:
    def test_counts_and_distinctness(self):
        pts3 = list(geo.projective_points(K3, 3))
        assert len(pts3) == 13  # 9 + 3 + 1
        assert len(list(geo.projective_points(K9, 2))) == 10
        for u, w in itertools.combinations(pts3, 2):
            assert not geo.proportional(K3, u, w)


# ---------------------------------------------------------------------------
# smoothness verdicts


class TestSingularity:
    def test_projective_quadrics(self):
        smooth = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert geo.projective_singularity(K3, smooth, 3).status == "smooth"
        cone = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1})
        v = geo.projective_singularity(K3, cone, 3)
        assert v.status == "singular" and v.witness == (K3.zero, K3.zero, K3.one)

    def test_projective_cubics(self):
        fermat = field_terms(K5, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        # the diagonal closed form certifies smoothness; a search cannot
        assert geo.projective_singularity(K5, fermat, 3).status == "smooth"
        v = geo._search_singular(K5, fermat, 3, search_bound=2, affine=False)
        assert v.status == "unknown" and v.search_bound == 2
        cone = field_terms(K5, {(3, 0, 0): 1, (0, 3, 0): 1})
        w = geo.projective_singularity(K5, cone, 3, search_bound=2)
        assert w.status == "singular"
        assert w.witness == (K5.zero, K5.zero, K5.one) and w.ext_degree == 1
        # nondiagonal cubic with a rational singular point, found by search
        nodal = field_terms(K5, {(1, 1, 1): 1, (3, 0, 0): 1})
        u = geo.projective_singularity(K5, nodal, 3, search_bound=1)
        assert u.status == "singular"
        assert u.witness == (K5.zero, K5.one, K5.zero)

    def test_affine_fixtures(self):
        # x^2 + y^2 + 1 = 0 over F_3: gradient vanishes only at the origin,
        # where the value is 1.
        g = field_terms(K3, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
        assert geo.affine_singularity(K3, g, 2).status == "smooth"
        cone = field_terms(K3, {(2, 0): 1, (0, 2): 1})
        v = geo.affine_singularity(K3, cone, 2)
        assert v.status == "singular" and v.witness == (K3.zero, K3.zero)
        parabola = field_terms(K3, {(2, 0): 1, (0, 1): 1})
        assert geo.affine_singularity(K3, parabola, 2).status == "smooth"
        double_line = field_terms(K3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert geo.affine_singularity(K3, double_line, 2).status == "singular"

    def test_affine_pure_powers(self):
        smooth = field_terms(K5, {(3, 0): 1, (0, 3): 1, (0, 0): 1})
        assert geo.affine_singularity(K5, smooth, 2).status == "smooth"
        cone = field_terms(K5, {(3, 0): 1, (0, 3): 1})
        v = geo.affine_singularity(K5, cone, 2)
        assert v.status == "singular" and v.witness == (K5.zero, K5.zero)
        # a linear monomial keeps the gradient from vanishing anywhere
        line = field_terms(K5, {(3, 0): 1, (0, 1): 1})
        assert geo.affine_singularity(K5, line, 2).status == "smooth"
        # char | exponent disables the closed form; search still decides
        frob = field_terms(K5, {(5, 0): 1, (0, 3): 1})
        w = geo.affine_singularity(K5, frob, 2, search_bound=1)
        assert w.status == "singular" and w.witness == (K5.zero, K5.zero)

    def test_affine_closed_form_vs_search(self):
        rng = random.Random(17)
        exps_pool = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
        for _ in range(40):
            terms = field_terms(
                K3, {e: rng.randrange(3) for e in exps_pool})
            closed = geo.affine_singularity(K3, terms, 2)
            searched = geo._search_singular(K3, terms, 2, search_bound=1,
                                            affine=True)
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
        g, checks = geo.slice_and_check(K3, terms, 3, 2, {0, 1, 2}, 2)
        assert g == field_terms(K3, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
        assert checks["degree_preserved"]
        assert checks["top_form_matches"]
        assert checks["top_form_smooth"].status == "smooth"
        assert checks["affine_smooth"].status == "smooth"

    def test_sub_slice(self):
        terms = field_terms(K3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        g, checks = geo.slice_and_check(K3, terms, 3, 2, {1, 2}, 1)
        assert g == field_terms(K3, {(2,): 1, (0,): 1})
        assert checks["degree_preserved"] and checks["top_form_matches"]
        assert checks["top_form_smooth"].status == "smooth"
        assert checks["affine_smooth"].status == "smooth"

    def test_residue_field_slice(self):
        kpi = pr.residue_field(K3, P(K3, "1+T^2"))
        terms = field_terms(kpi, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        g, checks = geo.slice_and_check(kpi, terms, 3, 2, {0, 1, 2}, 0)
        assert checks["degree_preserved"] and checks["top_form_matches"]
        assert checks["affine_smooth"].status == "smooth"

    def test_degenerate_slice(self):
        terms = field_terms(K3, {(2, 0): 1, (1, 1): 1})
        g, checks = geo.slice_and_check(K3, terms, 2, 2, {0, 1}, 0)
        assert g == field_terms(K3, {(0,): 1, (1,): 1})
        assert not checks["degree_preserved"]

    def test_bad_inputs(self):
        terms = field_terms(K3, {(2, 0): 1, (0, 2): 1})
        with pytest.raises(ValueError):
            geo.slice_and_check(K3, terms, 2, 2, {0, 1}, 2)
        with pytest.raises(ValueError):
            geo.slice_and_check(K3, terms, 2, 2, {0, 5}, 0)


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
    built test replaced.  True when w is proportional to a nonzero gradient
    at a point of {F = 0 mod pi} over an extension of degree
    <= search_bound, else None."""
    kpi, h_terms, _ = geo.reduce_form(form, pi)
    nv = form.n + 1
    grads = [geo.partial_terms(kpi, h_terms, i) for i in range(nv)]
    for r in range(1, search_bound + 1):
        ext = pr.extension_of(kpi, r)
        emb = (lambda c: c) if r == 1 else ext.embed_base
        ext_terms = {e: emb(c) for e, c in h_terms.items()}
        ext_grads = [{e: emb(c) for e, c in g.items()} for g in grads]
        ext_w = tuple(emb(x) for x in w)
        for point in geo.projective_points(ext, nv):
            if not ext.is_zero(geo.eval_terms(ext, ext_terms, point)):
                continue
            grad = tuple(geo.eval_terms(ext, g, point) for g in ext_grads)
            if all(ext.is_zero(x) for x in grad):
                continue
            if geo.proportional(ext, grad, ext_w):
                return True
    return None


def nonzero_covectors(kpi, nvars):
    for idx in itertools.product(range(kpi.size), repeat=nvars):
        w = tuple(kpi.from_index(i) for i in idx)
        if not all(kpi.is_zero(x) for x in w):
            yield w


def cubic7(coeffs):
    return const_form(K7, 2, 3, coeffs)


def indexed_form(k, n, m, terms):
    """Form whose coefficients are given as lists of element indices of k,
    constant term first."""
    return geo.MultiForm(k, n, m, {
        e: pr.normalize(k, tuple(k.from_index(c) for c in coeffs))
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
    """The dual-membership test built once per prime against the slow
    per-covector tangency scan, on every nonzero covector."""

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
        on_dual = geo.dual_membership_test(form, pi, "tangency", bound)
        quadric = (geo.dual_membership_test(form, pi, "quadric")
                   if form.m == 2 else None)
        for w in nonzero_covectors(kpi, form.n + 1):
            expect = tangency_oracle(form, pi, w, bound)
            assert on_dual(w) is expect
            if quadric is not None:
                # a tangent hyperplane of a smooth quadric touches it at a
                # point of the base field
                assert quadric(w) is (expect is True)

    def test_tangency_matches_oracle_degree_two_prime_bound_two(self):
        # the oracle scans P^2(F_81) for each covector off the dual (about
        # 2 s each), so this instance takes covectors on and off the dual
        # rather than all 728
        f = diag3(K3)
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        on_dual = geo.dual_membership_test(f, pi, "tangency", 2)
        t = kpi.from_index(3)  # the class of T, a square root of -1
        one, zero = kpi.one, kpi.zero
        for w, member in (((one, one, one), True), ((one, t, zero), True),
                          ((one, zero, zero), None), ((one, t, one), None)):
            assert tangency_oracle(f, pi, w, 2) is member
            assert on_dual(w) is member

    @pytest.mark.parametrize(
        "k, pi_text, n, terms, supplied", CLOSED_FORM_CASES,
        ids=[f"q{c[0].size}-{c[1]}-n{c[2]}-case{i}"
             for i, c in enumerate(CLOSED_FORM_CASES)])
    def test_closed_form_matches_eval_terms(self, k, pi_text, n, terms,
                                            supplied):
        # the verdict read off the index tables against the dual evaluated
        # in tuple arithmetic, on every nonzero covector
        form = indexed_form(k, n, 2, terms)
        pi = P(k, pi_text)
        if supplied is None:
            dual_form, on_dual = (geo.quadric_dual_form(form),
                                  geo.dual_membership_test(form, pi))
        else:
            dual_form = indexed_form(k, n, 3, supplied)
            on_dual = geo.dual_membership_test(form, pi, dual=dual_form)
        kpi, dual_terms, _ = geo.reduce_form(dual_form, pi)
        members = 0
        for w in nonzero_covectors(kpi, n + 1):
            expect = kpi.is_zero(geo.eval_terms(kpi, dual_terms, w))
            assert on_dual(w) is expect
            members += expect
        assert 0 < members < kpi.size ** (n + 1) - 1

    def test_covectors_validated(self):
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)
        for route in ("quadric", "tangency", geo.quadric_dual_form(diag3(K3))):
            on_dual = geo.dual_membership_test(diag3(K3), pi, route)
            with pytest.raises(ValueError):
                on_dual((kpi.one, kpi.one))
            with pytest.raises(ValueError):
                on_dual((kpi.zero,) * 3)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            geo.dual_membership_test(diag3(K3), P(K3, "T"), "resultant")


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
        K, terms = geo.form_over_fraction_field(f)
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
        closed = geo.dual_membership_test(f, pi, dual="quadric")
        tangency = geo.dual_membership_test(f, pi, dual="tangency",
                                            search_bound=1)
        members = 0
        for w in geo.projective_points(kpi, 3):
            via_dual = closed(w)
            via_tangency = tangency(w)
            assert via_dual == (via_tangency is True)
            members += via_dual
        # a smooth conic over F_q has exactly q + 1 rational points
        assert members == 4

    def test_membership_matches_tangency_mod_degree_two(self):
        f = t_quadric(K3)
        pi = P(K3, "1+T^2")
        kpi = pr.residue_field(K3, pi)
        closed = geo.dual_membership_test(f, pi, dual="quadric")
        tangency = geo.dual_membership_test(f, pi, dual="tangency",
                                            search_bound=1)
        members = 0
        for w in geo.projective_points(kpi, 3):
            via_dual = closed(w)
            via_tangency = tangency(w)
            assert via_dual == (via_tangency is True)
            members += via_dual
        assert members == 10  # q + 1 over F_9

    def test_user_supplied_dual_agrees(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)
        supplied = geo.dual_membership_test(f, pi,
                                            dual=geo.quadric_dual_form(f))
        closed = geo.dual_membership_test(f, pi, dual="quadric")
        for w in geo.projective_points(kpi, 3):
            assert supplied(w) == closed(w)

    def test_degenerate_prime_rejected(self):
        f = t_quadric(K3)
        kpi = pr.residue_field(K3, P(K3, "1+T"))
        w = (kpi.one, kpi.one, kpi.one)
        with pytest.raises(ValueError):
            geo.dual_membership_test(f, P(K3, "1+T"), dual="quadric")(w)
        with pytest.raises(ValueError):
            geo.dual_membership_test(f, P(K3, "1+T"), "quadric")

    def test_w_validation(self):
        f = diag3(K3)
        pi = P(K3, "T")
        kpi = pr.residue_field(K3, pi)
        test = geo.dual_membership_test(f, pi, dual="quadric")
        with pytest.raises(ValueError):
            test((kpi.one, kpi.one))
        with pytest.raises(ValueError):
            test((kpi.zero,) * 3)


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
