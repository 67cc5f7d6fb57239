"""Acceptance suite: the nine instance-exact guarantees of this package,
one criterion per test, each emitting a single visible PASS/FAIL line with
its tolerance and time budget.

Reference instance I0: q = 3, n = 2, ell = 2, F = X_0^2 + X_1^2 + X_2^2,
b = 3, delta = 2, sieving set = all three monic irreducible quadratics
over F_3 (the exceptional-prime scan comes back empty).
"""

import json
import math
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from cycsieve import charsums as cs
from cycsieve import cli
from cycsieve import ffield
from cycsieve import geometry as geo
from cycsieve import identities as ids
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve import sieve as sv
from cycsieve.identities import box

from oracles import (dual_degree, eval_form_at_polys, exceptional_primes_of,
                     min_b, product_over_places, schwartz_zippel_audit,
                     verify_card_p)

K3 = ffield.GF(3)
K7 = ffield.GF(7)
CONFIG = str(pathlib.Path(__file__).resolve().parent.parent
             / "configs" / "quadric_q3.json")


def P(k, text):
    return pr.parse_poly(k, text)


def diag(k, n, m):
    terms = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = m
        terms[tuple(e)] = (k.one,)
    return geo.MultiForm(k, n, m, terms)


QUADRIC = diag(K3, 2, 2)


@pytest.fixture
def report(capsys):
    def emit(ok, line):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    return emit


def test_criterion_1_identity_suite(report):
    t0 = time.perf_counter()
    rows = []
    # residue-count identity for every a in k_pi, every prime of degree <= 2
    for k, ells in ((K3, (2,)), (K7, (2, 3))):
        for d in (1, 2):
            for piv in pr.irreducibles(k, d):
                for ell in ells:
                    rows.append(ids.verify_root_count(k, piv, ell))
    # the configured battery: count-mod (21), completion (7), and the full
    # two-prime unramified expansion on I0's own sieving primes
    suite = cli.run_identity_suite(rp.resolve_config(rp.load_config(CONFIG)))
    rows.extend(suite["rows"])
    # count-mod sample over the larger field
    lin7 = pr.irreducibles(K7, 1)
    u7 = pr.mul(K7, lin7[0], lin7[1])
    for a in (((), (), ()), ((K7.one,), (), (K7.one,))):
        rows.append(ids.verify_count_mod(K7, u7, a, 1))

    counts = Counter(r["id"] for r in rows)
    exact = all(r["equal"] and r.get("zero_portion_vanishes", True)
                and r.get("pointwise_fiber_identity", True) for r in rows)
    elapsed = time.perf_counter() - t0
    ok = (exact and counts["count-mod"] >= 20 and counts["completion"] >= 5
          and counts["unramified-expansion"] >= 1 and elapsed < 60)
    report(ok, f"1. identity suite, zero tolerance: {len(rows)} instances "
               f"(root-count {counts['root-count']}, count-mod "
               f"{counts['count-mod']}, completion {counts['completion']}, "
               f"unramified-expansion {counts['unramified-expansion']}) "
               f"all exactly equal ({elapsed:.1f}s < 60s)")
    assert ok


def test_criterion_2_gauss_riemann_hypothesis(report):
    t0 = time.perf_counter()
    rows = []
    for k, ells in ((K3, (2,)), (K7, (2, 3))):
        for d in (1, 2):
            for piv in pr.irreducibles(k, d):
                for ell in ells:
                    rows.append(ids.verify_gauss_magnitude(k, piv, ell))
    exact = all(r["equal"] for r in rows)
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 5
    report(ok, f"2. Gauss-sum magnitude tau*conj(tau) = q^deg(pi) as exact "
               f"integers: {len(rows)} primes x character batches, "
               f"q in {{3,7}}, ell in {{2,3 | ell divides q-1}} "
               f"({elapsed:.1f}s < 5s)")
    assert ok


def test_criterion_3_weil_deligne_audit(report):
    t0 = time.perf_counter()
    audits = [cs.wd_audit(P(K3, pi_text), 2, QUADRIC)
              for pi_text in ("T", "1+T^2")]
    rows = sum(a["summary"]["rows"] for a in audits)
    all_pass = all(a["summary"]["all_pass"] for a in audits)
    ratios = [a["summary"]["max_ratio_iii"] for a in audits]
    finite = all(r is not None and math.isfinite(r) for r in ratios)
    complete = (audits[0]["summary"]["rows"] == 27
                and audits[1]["summary"]["rows"] == 729)
    elapsed = time.perf_counter() - t0
    ok = all_pass and finite and complete and elapsed < 120
    report(ok, f"3. Weil-Deligne audit, case-(i)/(ii) bounds at rel tol "
               f"1e-9 over all {rows} (w, chi) mod T and mod 1+T^2; "
               f"case-(iii) max ratios {ratios[0]:.6f}, {ratios[1]:.6f} "
               f"finite ({elapsed:.1f}s < 120s)")
    assert ok


def test_criterion_4_sieve_inequalities(report):
    t0 = time.perf_counter()
    primes, _ = sv.build_sieving_set(K3, 2, exceptional_primes_of(QUADRIC, 2))
    params = sv.SieveParams(form=QUADRIC, ell=2, b=3, delta=2)
    hist = rp.parallel_accumulator(params)
    fibers = sv.prime_fibers(QUADRIC, 2, 3, primes, hist)
    M = sv.solvable_count(QUADRIC, 2, 3, hist, fibers)
    acc = sv.value_moments(2, fibers, hist)
    terms = sv.sieve_terms(params, primes, M, acc)
    general = sv.sieve_inequality_general(params, primes, M, acc)
    expansion = all(r["expansion_equal"] for r in general["rows"])
    grid = all(r["pass_direct"] and r["pass_absolute"]
               for r in general["rows"])
    elapsed = time.perf_counter() - t0
    ok = (terms["inequality_pass"] and terms["psi_square_identity"]
          and grid and expansion and general["argmin_alpha"] == 1
          and elapsed < 120)
    report(ok, f"4. sieve inequalities, exact rationals: pair-max form "
               f"M={terms['M']} <= {terms['rhs']}; general form holds for "
               f"alpha in {{1,2,3,4}} with the c_ij expansion an exact "
               f"integer identity; grid argmin alpha=1=ell-1 "
               f"({elapsed:.1f}s < 120s)")
    assert ok


def test_criterion_5_counting_cross_checks(report):
    t0 = time.perf_counter()
    x = sympy.Symbol("x")

    def sympy_solvable(g, ell, q):
        # external oracle: factor over GF(q) with an independent library
        if not g:
            return True
        poly = sympy.Poly(list(reversed([int(c) for c in g])), x, modulus=q)
        lc, factors = poly.factor_list()
        if any(e % ell for _, e in factors):
            return False
        return pow(int(lc) % q, (q - 1) // ell, q) == 1

    counts = {}
    agree = True
    for b in (1, 2):
        hist = sv.box_histogram(QUADRIC, b)
        mine = sv.solvable_count(QUADRIC, 2, b, hist, sv.prime_fibers(
            QUADRIC, 2, b, pr.irreducibles(K3, 1), hist))
        ext = sum(1 for xs in box(K3, b, 3)
                  if sympy_solvable(eval_form_at_polys(QUADRIC, xs),
                                    2, 3))
        counts[b] = (mine, ext)
        agree = agree and mine == ext and mine <= 3 ** (b * 3)
    frozen = counts[1][0] == 15 and counts[2][0] == 57
    sz = schwartz_zippel_audit(
        K3, {(1, 1, 0): K3.one, (0, 0, 2): K3.neg(K3.one)}, 3)
    elapsed = time.perf_counter() - t0
    ok = (agree and frozen and sz["zeros"] == 9 and sz["bound"] == 18
          and sz["pass"] and elapsed < 60)
    report(ok, f"5. counting cross-checks: M_2(F;1)={counts[1][0]}, "
               f"M_2(F;2)={counts[2][0]} agree across enumeration, "
               f"factorization, and an external factorization oracle, "
               f"within the box bound; Schwartz-Zippel zeros "
               f"{sz['zeros']} <= {sz['bound']} ({elapsed:.1f}s < 60s)")
    assert ok


def test_criterion_6_prime_infrastructure(report):
    t0 = time.perf_counter()
    pnt = True
    for q in (3, 5, 7):
        k = ffield.GF(q)
        for delta in range(1, 7):
            enumerated = len(pr.irreducibles(k, delta))
            check = pr.verify_prime_count(q, delta)
            pnt = (pnt and check["pass"]
                   and enumerated == check["count"])
    rng = random.Random(20260815)
    product = True
    k = ffield.GF(3)
    trials = 0
    while trials < 200:
        num = pr.poly_from_index(k, rng.randrange(3 ** 6), 6)
        den = pr.poly_from_index(k, rng.randrange(3 ** 6), 6)
        if not num or not den:
            continue
        trials += 1
        product = product and product_over_places(
            k, num, den) == Fraction(1)
    elapsed = time.perf_counter() - t0
    ok = pnt and product and elapsed < 10
    report(ok, f"6. prime infrastructure: enumerated irreducible counts "
               f"satisfy the prime-count bound for all delta <= 6, "
               f"q in {{3,5,7}}; product formula exactly 1 on 200 random "
               f"rational functions ({elapsed:.1f}s < 10s)")
    assert ok


def test_criterion_7_geometry(report):
    t0 = time.perf_counter()
    regular = geo.hypersurface_verdicts(
        K3, {e: c for e, c in
             (((2, 0, 0), K3.one), ((0, 2, 0), K3.one),
              ((0, 0, 2), K3.one))}, 3)[1]
    degenerate = geo.hypersurface_verdicts(
        K3, {(2, 0, 0): K3.one, (0, 2, 0): K3.one}, 3)[1]
    dwork_ok = (regular.status == "regular"
                and degenerate.status == "irregular"
                and degenerate.witness is not None)

    dual_deg_ok = dual_degree(2, 2) == 2

    tangency_ok = True
    for pi_text in ("T", "1+T^2"):
        pi = P(K3, pi_text)
        kpi = pr.residue_field(K3, pi)
        closed_column = geo.dual_column(QUADRIC, pi, dual="auto")
        witness_column = geo.dual_column(QUADRIC, pi, dual="tangency",
                                         search_bound=1)
        import itertools
        for w in itertools.product(range(kpi.size), repeat=3):
            if all(kpi.is_zero(v) for v in w):
                continue
            closed = closed_column[geo.flat_index(kpi.size, w)]
            witness = witness_column[geo.flat_index(kpi.size, w)]
            tangency_ok = tangency_ok and ((closed is True)
                                           == (witness is True))

    bad_form = geo.MultiForm(K3, 2, 2, {
        (2, 0, 0): P(K3, "T"), (0, 2, 0): (K3.one,), (0, 0, 2): (K3.one,)})
    exc = geo.compute_exceptional_primes(bad_form, 1)
    flags_t = "T" in exc["exceptional"]

    elapsed = time.perf_counter() - t0
    ok = dwork_ok and dual_deg_ok and tangency_ok and flags_t and elapsed < 60
    report(ok, f"7. geometry: unit diagonal quadric regular, X_0^2+X_1^2 "
               f"in three variables irregular with witness; quadric dual "
               f"degree 2; dual membership matches tangency search for all "
               f"w mod T and mod 1+T^2; T flagged for T*X_0^2+X_1^2+X_2^2 "
               f"({elapsed:.1f}s < 60s)")
    assert ok


def test_criterion_8_parameter_selection(report):
    t0 = time.perf_counter()
    delta = rp.choose_delta(2, 3)
    window = delta == 2 and delta < 3 < 2 * delta
    b = min_b(2, 3, 0)
    card = verify_card_p(3, rp.choose_delta(2, b), 0)
    rejected = False
    try:
        rp.choose_delta(1, 5)
    except ValueError:
        rejected = True
    elapsed = time.perf_counter() - t0
    ok = window and b == 12 and card["pass"] and rejected and elapsed < 1
    report(ok, f"8. parameter selection: choose_delta(2,3)=2 with 2<3<4; "
               f"min_b(2,3,0)={b} terminates with |P|={card['count']} >= "
               f"q^delta/(2 delta) = {card['required']}; n=1 rejected "
               f"({elapsed:.3f}s < 1s)")
    assert ok


def test_criterion_9_determinism(report, tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    code1 = cli.main(["sieve-run", "--config", CONFIG, "--workers", "1",
                      "--out", str(out1)])
    code2 = cli.main(["sieve-run", "--config", CONFIG, "--workers", "2",
                      "--out", str(out2)])
    json1 = (out1 / "sieve_report.json").read_bytes()
    json2 = (out2 / "sieve_report.json").read_bytes()
    csv1 = (out1 / "sieve_report.csv").read_bytes()
    csv2 = (out2 / "sieve_report.csv").read_bytes()
    identical = json1 == json2 and csv1 == csv2
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and identical
    report(ok, f"9. determinism: sieve-run artifacts byte-identical for "
               f"worker counts 1 and 2 ({elapsed:.1f}s)")
    assert ok
