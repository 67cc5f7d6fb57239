"""Command-line experiment runner: every library check as a subcommand with
config files and byte-stable JSON/CSV artifacts.

Subcommands: primes, charsum, gauss, identity-check, wd-audit, dual-check,
exc-primes, sieve-run, count.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 usage or config error, 3 enumeration budget
exceeded (the required budget is printed).
"""

import argparse
import itertools
import json
import sys

from . import charsums as cs
from . import geometry as geo
from . import identities as ids
from . import polyring as pr
from . import reports as rp
from . import sieve as sv
from .charsums import Budget, BudgetExceeded


# the flags, each added only to the subcommands that read it
FLAGS = {
    "config": {"help": "JSON config file"},
    "q": {"type": int, "help": "field size (prime power)"},
    "n": {"type": int, "help": "projective dimension"},
    "ell": {"type": int, "help": "cover degree (prime)"},
    "b": {"type": int, "help": "box degree bound"},
    "delta": {"help": "sieving degree or 'auto'"},
    "budget": {"type": int, "help": f"max innermost evaluations "
                                    f"(default {rp.DEFAULT_BUDGET})"},
    "out": {"default": "artifacts",
            "help": "artifact directory (default artifacts/)"},
    "form": {"help": "inline form JSON (overrides config)"},
}


def _flags(*names) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(f"--{name}", **FLAGS[name])
    return parent


def build_parser() -> argparse.ArgumentParser:
    config = _flags(*FLAGS)

    parser = argparse.ArgumentParser(
        prog="cycsieve",
        description="exact desk-scale checks for the geometric sieve on "
                    "prime-degree cyclic covers over F_q(T)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", parents=[_flags("q", "delta", "budget",
                                                 "out")],
                       help="enumerate monic irreducibles of one degree and "
                            "check the prime-count bound")
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("charsum", parents=[config],
                       help="one mixed character sum S_G(w, chi), exact")
    p.add_argument("--pi", default="T", help="prime modulus (poly text)")
    p.add_argument("--chi", type=int, default=1, help="character index")
    p.add_argument("--w", help="covector, semicolon-joined poly texts")
    p.set_defaults(func=cmd_charsum)

    p = sub.add_parser("gauss", parents=[_flags("q", "ell", "out")],
                       help="Gauss sums mod one prime; exact |tau|^2 = Q")
    p.add_argument("--pi", default="T", help="prime modulus (poly text)")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("identity-check", parents=[config],
                       help="run the exact identity suite on the config")
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("wd-audit", parents=[config],
                       help="audit |S_G(w, chi)| against the case bounds "
                            "for every w mod the given primes")
    p.add_argument("--pi", action="append",
                   help="prime modulus; repeatable (default: first linear "
                        "and first quadratic prime)")
    p.set_defaults(func=cmd_wd_audit)

    p = sub.add_parser("dual-check", parents=[config],
                       help="dual membership: closed form against tangency "
                            "witness search, all w mod one prime")
    p.add_argument("--pi", default="T", help="prime modulus (poly text)")
    p.add_argument("--search-bound", type=int, default=1,
                   help="extension degree for the witness search")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("exc-primes", parents=[config],
                       help="scan for primes of bad reduction")
    p.add_argument("--delta-max", type=int,
                   help="scan bound (overrides config)")
    p.set_defaults(func=cmd_exc_primes)

    p = sub.add_parser("sieve-run", parents=[config],
                       help="both sieve inequalities on the configured "
                            "instance; JSON + CSV artifacts")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1)")
    p.set_defaults(func=cmd_sieve_run)

    p = sub.add_parser("count", parents=[config],
                       help="brute-force M_n(F;b) with dual solvability "
                            "routes")
    p.set_defaults(func=cmd_count)
    return parser


def _config(args) -> dict:
    """The resolved config: the file under the flags that override it."""
    raw = rp.load_config(args.config) if args.config else {}
    over = {"q": args.q, "n": args.n, "ell": args.ell, "b": args.b,
            "delta": args.delta, "budget": args.budget,
            "delta_max": getattr(args, "delta_max", None)}
    if args.form:
        over["form"] = json.loads(args.form)
    return rp.resolve_config(raw, over)


def _emit(args, name: str, report: dict) -> None:
    path = rp.write_artifact(args.out, name, report)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands


def cmd_primes(args) -> int:
    if args.q is None or args.delta in (None, "auto"):
        raise ValueError("primes needs --q and an integer --delta")
    q, delta = args.q, int(args.delta)
    k = rp.field_from_q(q)
    budget = Budget(rp.DEFAULT_BUDGET if args.budget is None else args.budget)
    budget.charge(pr.irreducibles_cost(q, delta))
    names = [pr.format_poly(k, f) for f in pr.irreducibles(k, delta)]
    pnt = sv.verify_prime_count(q, delta)
    for name in names:
        print(name)
    print(f"prime-count bound (q={q}, delta={delta}): count={pnt['count']} "
          f"{'pass' if pnt['pass'] else 'FAIL'}")
    _emit(args, "primes.json", {
        "config": {"q": q, "delta": delta},
        "primes": names,
        "pnt": pnt,
    })
    return 0 if pnt["pass"] else 1


def cmd_charsum(args) -> int:
    cfg = _config(args)
    form, _ = rp.config_objects(cfg)
    k = form.k
    pi = pr.parse_poly(k, args.pi)
    # the table of G and the phases of w, one pass over k_pi^(n+1) each,
    # before the residue tables are built
    Budget(cfg["budget"]).charge(
        2 * pr.residue_field(k, pi).size ** (form.n + 1))
    ctx = cs.CharSumContext(k, pi, cfg["ell"], form)
    if args.w:
        w = tuple(ctx.kpi.reduce_poly(pr.parse_poly(k, t))
                  for t in args.w.split(";"))
    else:
        w = (ctx.kpi.zero,) * ctx.nvars
    S = ctx.char_sum(w, args.chi)
    abs_s = ctx.ring.abs_embed(S)
    trivial = ctx.trivial_bound()
    ok = abs_s <= trivial * (1 + cs.MAGNITUDE_TOL)
    as_int = ctx.ring.as_int(S)
    print(f"S = {as_int if as_int is not None else ctx.ring.serialize(S)}")
    print(f"|S| = {abs_s:.12g}  (trivial bound {trivial} "
          f"{'pass' if ok else 'FAIL'})")
    _emit(args, "charsum.json", {
        "config": cfg,
        "pi": pr.format_poly(k, pi),
        "chi_index": args.chi,
        "w": cs.format_covector(ctx.kpi, w),
        "exact": ctx.ring.serialize(S),
        "as_int": as_int,
        "abs": abs_s,
        "trivial_bound": trivial,
        "pass": ok,
    })
    return 0 if ok else 1


def cmd_gauss(args) -> int:
    if args.q is None or args.ell is None:
        raise ValueError("gauss needs --q and --ell")
    k = rp.field_from_q(args.q)
    pi = pr.parse_poly(k, args.pi)
    row = ids.verify_gauss_magnitude(k, pi, args.ell)
    for i, value in enumerate(row["lhs"], start=1):
        print(f"chi_{i}: tau * conj(tau) = {value} "
              f"(expected {row['rhs'][i - 1]})")
    print("gauss magnitude: " + ("pass" if row["equal"] else "FAIL"))
    _emit(args, "gauss.json", {"config": {"q": args.q, "ell": args.ell},
                               **row})
    return 0 if row["equal"] else 1


# the battery's primes, as (degree, index among the monic irreducibles of
# that degree): the count-mod moduli (each the product of its primes, run
# at every b < deg u on COUNT_MOD_TARGETS targets) and the completions
# (pi, pi2, b), the mixed-degree ones only over F_3, where they stay small
L0, L1, L2, Q0 = (1, 0), (1, 1), (1, 2), (2, 0)
COUNT_MODULI = ((L0, L1), (L0, L0), (L0, L0, L1), (Q0,), (Q0, L1))
COUNT_MOD_TARGETS = 3
COMPLETIONS = ((L0, L1, 1), (L1, L0, 1), (L0, L2, 1), (L1, L2, 1), (L2, L0, 1))
MIXED_COMPLETIONS = ((L0, Q0, 1), (L0, Q0, 2))


def _completions(q: int) -> tuple:
    return COMPLETIONS + (MIXED_COMPLETIONS if q == 3 else ())


def identity_suite_cost(params: sv.SieveParams) -> list:
    """The charges of run_identity_suite, in order: the expansion's box (even
    if the scan leaves fewer than two sieving primes); the primes of degree
    <= 2 and their residues; the count-mod rows, completions and the
    expansion's character side."""
    q, n, ell = params.q, params.n, params.ell
    rows = COUNT_MOD_TARGETS * sum(  # the two boxes of each count-mod row
        q ** (b * (n + 1)) + q ** ((d - b) * (n + 1))
        for d in (sum(deg for deg, _ in u) for u in COUNT_MODULI)
        for b in range(1, d))
    rows += sum(sum(ids.two_prime_cost(q, (d1, d2), n, ell, b))
                for (d1, _), (d2, _), b in _completions(q))
    box, expansion = ids.two_prime_cost(q, (params.delta,) * 2, n, ell,
                                        params.b)
    low = sum(pr.irreducibles_cost(q, d) + pr.count_irreducibles_formula(
        q, d) * q ** d for d in (1, 2))
    return [box, low, rows + expansion]


def run_identity_suite(cfg: dict) -> dict:
    """The exact identity battery on a configured instance: root-count and
    Gauss-magnitude for every prime of degree <= 2, a count-mod battery over
    composite and prime-power moduli, completions over distinct prime pairs,
    and the unramified two-prime expansion on the instance's own sieving
    primes.  The whole battery is priced (identity_suite_cost) before the
    instance's scan."""
    k, form, params, sset = rp.build_instance(
        cfg, Budget(cfg["budget"]), identity_suite_cost)
    ell, arity = cfg["ell"], cfg["n"] + 1
    rows = []

    low = {1: pr.irreducibles(k, 1), 2: pr.irreducibles(k, 2)}
    for piv in low[1] + low[2]:
        rows.append(ids.verify_root_count(k, piv, ell))
        rows.append(ids.verify_gauss_magnitude(k, piv, ell))

    targets = [
        tuple(() for _ in range(arity)),
        tuple((k.one,) if i % 2 == 0 else () for i in range(arity)),
        tuple(low[1][1] for _ in range(arity)),
    ]
    for names in COUNT_MODULI:
        u = (k.one,)
        for d, i in names:
            u = pr.mul(k, u, low[d][i])
        for b in range(1, pr.degree(u)):
            for a in targets:
                rows.append(ids.verify_count_mod(k, u, a, b))

    for (d1, i1), (d2, i2), b in _completions(k.size):
        rows.append(ids.verify_completion(k, low[d1][i1], low[d2][i2], ell,
                                          1, ell - 1, form, b))

    if len(sset) >= 2:
        rows.append(ids.verify_unramified_expansion(
            k, sset.primes[0], sset.primes[1], ell, form, params.b))

    all_pass = all(r["equal"] and r.get("zero_portion_vanishes", True)
                   and r.get("pointwise_fiber_identity", True)
                   for r in rows)
    return {"config": cfg, "rows": rows, "all_pass": all_pass}


def cmd_identity_check(args) -> int:
    cfg = _config(args)
    suite = run_identity_suite(cfg)
    counts = {}
    for row in suite["rows"]:
        counts[row["id"]] = counts.get(row["id"], 0) + 1
        if not row["equal"]:
            print(f"FAIL {row['id']}: {row['params']}")
    for name in sorted(counts):
        print(f"{name}: {counts[name]} instances")
    print("identity suite: " + ("pass" if suite["all_pass"] else "FAIL"))
    _emit(args, "identity_check.json", suite)
    return 0 if suite["all_pass"] else 1


def cmd_wd_audit(args) -> int:
    cfg = _config(args)
    form, dual = rp.config_objects(cfg)
    k = form.k
    budget = Budget(cfg["budget"])
    if args.pi:
        pis = [pr.parse_poly(k, text) for text in args.pi]
    else:
        budget.charge(sum(pr.irreducibles_cost(k.size, d) for d in (1, 2)))
        pis = [pr.irreducibles(k, 1)[0], pr.irreducibles(k, 2)[0]]
    # every audit, its table of G, its transform and its dual test, before
    # the first
    budget.charge(sum(
        cs.all_sums_cost(k.size, pr.degree(pi), form.n, cfg["ell"])
        + geo.dual_test_cost(form, k.size ** pr.degree(pi), dual)
        for pi in pis))
    audits = []
    all_rows = []
    ok = True
    for pi in pis:
        audit = cs.wd_audit(k, pi, cfg["ell"], form, dual=dual)
        summary = audit["summary"]
        audits.append({"pi": pr.format_poly(k, pi), "summary": summary})
        all_rows.extend(audit["rows"])
        ok = ok and summary["all_pass"]
        print(f"pi={pr.format_poly(k, pi)}: rows={summary['rows']} "
              f"cases={summary['cases']} "
              f"max_ratio_iii={summary['max_ratio_iii']} "
              f"{'pass' if summary['all_pass'] else 'FAIL'}")
    _emit(args, "wd_audit.json",
          {"config": cfg, "audits": audits, "rows": all_rows,
           "all_pass": ok})
    path = rp.write_artifact(args.out, "wd_audit.csv", all_rows,
                             columns=rp.WD_CSV_COLUMNS)
    print(f"wrote {path}")
    return 0 if ok else 1


def cmd_dual_check(args) -> int:
    cfg = _config(args)
    form, dual = rp.config_objects(cfg)
    k = form.k
    pi = pr.parse_poly(k, args.pi)
    kpi = pr.residue_field(k, pi)
    # the searches of both tests, then the walk over the nonzero covectors,
    # before either test is built
    Budget(cfg["budget"]).charge_each([
        geo.dual_test_cost(form, kpi.size, dual),
        geo.dual_test_cost(form, kpi.size, "tangency", args.search_bound),
        kpi.size ** (form.n + 1) - 1])
    closed_test = geo.dual_membership_test(form, pi, dual=dual)
    witness_test = geo.dual_membership_test(form, pi, dual="tangency",
                                            search_bound=args.search_bound)
    rows = []
    agree_all = True
    for w in itertools.product(kpi.elements(), repeat=form.n + 1):
        if all(kpi.is_zero(x) for x in w):
            continue
        closed = closed_test(w)
        witness = witness_test(w)
        agree = (closed is True) == (witness is True)
        agree_all = agree_all and agree
        rows.append({
            "w": cs.format_covector(kpi, w),
            "closed_form": closed,
            "tangency_witness": witness is True,
            "agree": agree,
        })
    print(f"pi={pr.format_poly(k, pi)}: {len(rows)} covectors, "
          f"{'all agree' if agree_all else 'DISAGREEMENT'}")
    _emit(args, "dual_check.json",
          {"config": cfg, "pi": pr.format_poly(k, pi),
           "search_bound": args.search_bound, "rows": rows,
           "all_agree": agree_all})
    return 0 if agree_all else 1


def cmd_exc_primes(args) -> int:
    cfg = _config(args)
    form, dual = rp.config_objects(cfg)
    delta_max = cfg["delta_max"]
    scan = (form, delta_max, dual, cfg["search_bound"])
    Budget(cfg["budget"]).charge_each(geo.exceptional_scan_cost(*scan))
    report = geo.compute_exceptional_primes(*scan)
    for entry in report["entries"]:
        print(f"{entry['pi']}: tags={entry['tags']} "
              f"unknown={entry['unknown']}")
    print(f"scanned {report['scanned']} primes up to degree {delta_max}; "
          f"{len(report['exceptional'])} exceptional")
    _emit(args, "exc_primes.json", {"config": cfg, **report})
    return 0


def cmd_sieve_run(args) -> int:
    cfg = _config(args)
    result = rp.run_sieve(cfg, workers=args.workers)
    rep = result["sieve"]
    print(f"q={rep['q']} delta={rep['delta']} b={rep['b']} "
          f"|P|={len(rep['primes'])} |A|={rep['A']}")
    print(f"M={rep['M']}  rhs={rep['rhs']}  main={rep['main_term']} "
          f"ram={rep['ramified_term']} unram={rep['unramified_term']}")
    print(f"argmin alpha={result['general']['argmin_alpha']}")
    print("sieve inequalities: " + ("pass" if result["pass"] else "FAIL"))
    _emit(args, "sieve_report.json", result)
    path = rp.write_artifact(args.out, "sieve_report.csv",
                             [rp.sieve_csv_row(result)],
                             columns=rp.SIEVE_CSV_COLUMNS)
    print(f"wrote {path}")
    return 0 if result["pass"] else 1


def cmd_count(args) -> int:
    cfg = _config(args)
    form, _ = rp.config_objects(cfg)
    count = (form.k, cfg["ell"], form, cfg["b"])
    Budget(cfg["budget"]).charge_each(sv.box_pass_cost(*count))
    M = sv.brute_force_count(*count)
    trivial = cfg["q"] ** (cfg["b"] * (cfg["n"] + 1))
    ok = M <= trivial
    print(f"M_{cfg['n']}(F; {cfg['b']}) = {M}  (box {trivial} "
          f"{'pass' if ok else 'FAIL'})")
    _emit(args, "count.json", {
        "config": cfg,
        "M": M,
        "trivial_bound": trivial,
        "pass": ok,
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: needs {exc.needed}, limit {exc.limit}; "
              f"raise --budget to proceed", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
