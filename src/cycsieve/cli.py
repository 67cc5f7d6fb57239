"""Command-line experiment runner: every library check as a subcommand with
config files and byte-stable JSON/CSV artifacts.

Subcommands: primes, charsum, gauss, identity-check, wd-audit, dual-check,
exc-primes, sieve-run, count.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 usage or config error, 3 enumeration budget
exceeded (the required budget is printed), 4 internal error (a sieve-run
worker that failed or was killed among them).
"""

import argparse
import itertools
import json
import sys

from . import charsums as cs
from . import geometry as geo
from . import polyring as pr
from . import reports as rp
from .charsums import Budget, BudgetExceeded


# the flags, each added only to the subcommands that read it
FLAGS = {
    "config": {"help": "JSON config file"},
    "q": {"type": int, "help": "field size (prime power)"},
    "ell": {"type": int, "help": "cover degree (prime)"},
    "b": {"type": int, "help": "box degree bound"},
    "delta": {"help": "sieving degree or 'auto'"},
    "budget": {"type": int, "help": f"max innermost evaluations "
                                    f"(default {rp.DEFAULT_BUDGET})"},
    "out": {"default": "artifacts",
            "help": "artifact directory (default artifacts/)"},
    "form": {"help": "inline form JSON (overrides config)"},
}


def build_parser(built=()) -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, with the flags (--help
    among them) of the commands named in built only.  Every other command
    keeps its name and summary, so the top-level help and usage errors are
    the same whatever is built."""
    parser = argparse.ArgumentParser(
        prog="cycsieve",
        description="exact desk-scale checks for the geometric sieve on "
                    "prime-degree cyclic covers over F_q(T)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags, own) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, add_help=name in built)
        p.set_defaults(func=func)
        if name in built:
            for flag in flags:
                p.add_argument(f"--{flag}", **FLAGS[flag])
            for flag, options in own.items():
                p.add_argument(f"--{flag}", **options)
    return parser


def _config(args) -> dict:
    """The resolved config: the file under the flags that override it."""
    raw = rp.load_config(args.config) if args.config else {}
    over = {"q": args.q, "ell": args.ell, "b": args.b,
            "delta": args.delta, "budget": args.budget,
            "delta_max": getattr(args, "delta_max", None)}
    if args.form:
        over["form"] = json.loads(args.form)
    return rp.resolve_config(raw, over)


def _modulus(k, text: str):
    """The prime of a --pi flag, checked before anything is priced."""
    pi = pr.parse_poly(k, text)
    pr.check_modulus(k, pi)
    return pi


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
    pnt = pr.verify_prime_count(q, delta)
    if len(names) != pnt["count"]:
        raise ArithmeticError(f"{len(names)} irreducibles enumerated, the "
                              f"Moebius count is {pnt['count']}")
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
    k, ell = form.k, cfg["ell"]
    pi = _modulus(k, args.pi)
    w = ([pr.parse_poly(k, t) for t in args.w.split(";")] if args.w
         else [()] * (form.n + 1))
    if len(w) != form.n + 1 or not 0 <= args.chi < ell:
        raise ValueError(f"need {form.n + 1} coordinates in --w and "
                         f"0 <= --chi < {ell}")
    # the table of G, the projection on the line of w and its transform,
    # before k_pi and its residue tables are built; chi_0 adds the layer of
    # zeros
    Budget(cfg["budget"]).charge(cs.sums_cost(
        k.size, pr.degree(pi), form.n, ell + (args.chi == 0), 1))
    ctx = cs.CharSumContext(pi, ell, form)
    w = [ctx.kpi.reduce_poly(x) for x in w]
    S = next(ctx.sums([args.chi], [geo.flat_index(ctx.Q, w)])[args.chi])
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
    from . import identities as ids

    if args.q is None or args.ell is None:
        raise ValueError("gauss needs --q and --ell")
    k = rp.field_from_q(args.q)
    pi = _modulus(k, args.pi)
    # the residue tables and the Gauss sums, before k_pi is built
    Budget(rp.DEFAULT_BUDGET).charge(
        ids.gauss_cost(args.q, pr.degree(pi), args.ell))
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


def count_mod_cases(k, low: dict, arity: int):
    """(u, a, b) for each count-mod row of the battery, in order, with the
    primes of degree 1 and 2 in low."""
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
                yield u, a, b


def identity_suite_cost(params) -> list:
    """The charges of run_identity_suite on its sieve.SieveParams, in order:
    the expansion's box (even if the scan leaves fewer than two sieving
    primes); the primes of degree <= 2, and mod each its Gauss row
    (ids.gauss_cost), whose residue tables the root-count row reads too; the
    count-mod rows, completions and the expansion's character side."""
    from . import identities as ids

    q, n, ell = params.q, params.n, params.ell
    rows = COUNT_MOD_TARGETS * sum(  # one pass per coordinate and box
        (n + 1) * (q ** b + q ** (d - b))
        for d in (sum(deg for deg, _ in u) for u in COUNT_MODULI)
        for b in range(1, d))
    rows += sum(sum(ids.two_prime_cost(q, (d1, d2), n, ell, b))
                for (d1, _), (d2, _), b in _completions(q))
    box, expansion = ids.two_prime_cost(q, (params.delta,) * 2, n, ell,
                                        params.b)
    low = sum(pr.irreducibles_cost(q, d) + pr.count_irreducibles_formula(
        q, d) * ids.gauss_cost(q, d, ell) for d in (1, 2))
    return [box, low, rows + expansion]


def run_identity_suite(cfg: dict) -> dict:
    """The exact identity battery on a configured instance: root-count and
    Gauss-magnitude for every prime of degree <= 2, a count-mod battery over
    composite and prime-power moduli, completions over distinct prime pairs,
    and the unramified two-prime expansion on the instance's own sieving
    primes, which the suite lists under "skipped" when the scan leaves
    fewer than two.  The whole battery is priced (identity_suite_cost)
    before the instance's scan."""
    from . import identities as ids

    params, primes, _ = rp.build_instance(
        cfg, Budget(cfg["budget"]), identity_suite_cost)
    k, form, ell = params.k, params.form, params.ell
    rows = []

    low = {1: pr.irreducibles(k, 1), 2: pr.irreducibles(k, 2)}
    for piv in low[1] + low[2]:
        rows.append(ids.verify_root_count(k, piv, ell))
        rows.append(ids.verify_gauss_magnitude(k, piv, ell))

    for u, a, b in count_mod_cases(k, low, params.n + 1):
        rows.append(ids.verify_count_mod(k, u, a, b))

    for (d1, i1), (d2, i2), b in _completions(k.size):
        rows.append(ids.verify_completion(low[d1][i1], low[d2][i2], ell, 1,
                                          ell - 1, form, b))

    if len(primes) >= 2:
        rows.append(ids.verify_unramified_expansion(
            primes[0], primes[1], ell, form, params.b))

    all_pass = all(r["equal"] and r.get("zero_portion_vanishes", True)
                   and r.get("pointwise_fiber_identity", True)
                   for r in rows)
    suite = {"config": cfg, "rows": rows, "all_pass": all_pass}
    if len(primes) < 2:
        suite["skipped"] = [{"id": "unramified-expansion",
                             "reason": f"needs two sieving primes, the scan "
                                       f"leaves {len(primes)}"}]
    return suite


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
    for skip in suite.get("skipped", ()):
        print(f"{skip['id']}: skipped, {skip['reason']}")
    print("identity suite: " + ("pass" if suite["all_pass"] else "FAIL"))
    _emit(args, "identity_check.json", suite)
    return 0 if suite["all_pass"] else 1


def audit_table(audits) -> rp.Table:
    """The rows of the wd_audit results in turn, as a table with w free: a
    class for each audit, character and verdict, read from the columns."""
    classes, keys, texts = {}, [], []
    for n, audit in enumerate(audits):
        for chi_index, sums in audit["sums"].items():
            for (case, S), verdict in audit["verdicts"].items():
                abs_s, bound, ratio, ok = verdict
                classes[n, chi_index, case, S] = {
                    **audit["head"], "chi_index": chi_index, "case": case,
                    "abs_S": abs_s, "bound": bound, "ratio": ratio,
                    "pass": ok}
            keys.append(zip(itertools.repeat(n), itertools.repeat(chi_index),
                            audit["case"], sums))
            texts.append(audit["w"])
    return rp.Table("w", classes, itertools.chain.from_iterable(keys),
                    itertools.chain.from_iterable(texts))


def cmd_wd_audit(args) -> int:
    cfg = _config(args)
    form, dual = rp.config_objects(cfg)
    k = form.k
    budget = Budget(cfg["budget"])
    if args.pi:
        pis = [_modulus(k, text) for text in args.pi]
    else:
        budget.charge(sum(pr.irreducibles_cost(k.size, d) for d in (1, 2)))
        pis = [pr.irreducibles(k, 1)[0], pr.irreducibles(k, 2)[0]]
    # every audit, its table of G, its transform and its dual column, before
    # the first
    budget.charge(sum(
        cs.sums_cost(k.size, pr.degree(pi), form.n, cfg["ell"],
                     pr.degree(pi) * k.degree_over_prime * (form.n + 1))
        + geo.dual_test_cost(form, k.size ** pr.degree(pi), dual)
        for pi in pis))
    audits = []
    for pi in pis:
        audits.append(cs.wd_audit(pi, cfg["ell"], form, dual=dual))
        summary = audits[-1]["summary"]
        print(f"pi={pr.format_poly(k, pi)}: rows={summary['rows']} "
              f"cases={summary['cases']} "
              f"max_ratio_iii={summary['max_ratio_iii']} "
              f"{'pass' if summary['all_pass'] else 'FAIL'}")
    ok = all(audit["summary"]["all_pass"] for audit in audits)
    # each artifact reads its own table of the rows as it writes them
    _emit(args, "wd_audit.json", {
        "config": cfg,
        "audits": [{"pi": audit["head"]["pi"], "summary": audit["summary"]}
                   for audit in audits],
        "rows": audit_table(audits),
        "all_pass": ok})
    path = rp.write_artifact(args.out, "wd_audit.csv", audit_table(audits),
                             columns=rp.WD_CSV_COLUMNS)
    print(f"wrote {path}")
    return 0 if ok else 1


def cmd_dual_check(args) -> int:
    cfg = _config(args)
    form, dual = rp.config_objects(cfg)
    k = form.k
    if args.search_bound < 1:
        raise ValueError("search_bound must be at least 1")
    pi = _modulus(k, args.pi)
    Q = k.size ** pr.degree(pi)
    # the searches of both columns, then the walk over the nonzero
    # covectors, before k_pi or either column is built
    Budget(cfg["budget"]).charge_each([
        geo.dual_test_cost(form, Q, dual),
        geo.dual_test_cost(form, Q, "tangency", args.search_bound),
        Q ** (form.n + 1) - 1])
    kpi = pr.residue_field(k, pi)
    closed = geo.dual_column(form, pi, dual=dual)
    found = [witness is True for witness in geo.dual_column(
        form, pi, dual="tangency", search_bound=args.search_bound)]
    # (closed-form verdict, witness found) of each w but w = 0, entry 0
    keys = list(zip(closed, found))[1:]
    classes = {(verdict, witness): {"closed_form": verdict,
                                    "tangency_witness": witness,
                                    "agree": (verdict is True) == witness}
               for verdict, witness in set(keys)}
    agree_all = all(row["agree"] for row in classes.values())
    print(f"pi={pr.format_poly(k, pi)}: {len(keys)} covectors, "
          f"{'all agree' if agree_all else 'DISAGREEMENT'}")
    rows = rp.Table("w", classes, keys, itertools.islice(
        cs.covector_texts(kpi, form.n + 1), 1, None))
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
    from . import sieve as sv

    cfg = _config(args)
    form, _ = rp.config_objects(cfg)
    ell, b, q = cfg["ell"], cfg["b"], form.k.size
    budget = Budget(cfg["budget"])
    budget.charge_each([*sv.box_pass_cost(form, ell, b),
                        pr.irreducibles_cost(q, 1)])
    hist = sv.box_histogram(form, b)
    # a local obstruction holds at every prime, good or bad, so the q
    # linear primes settle most values before any is decomposed
    budget.charge(sv.residue_tables_cost(form, b, q, len(hist)))
    fibers = sv.prime_fibers(form, ell, b, pr.irreducibles(form.k, 1), hist)
    M = sv.solvable_count(form, ell, b, hist, fibers)
    trivial = q ** (b * (form.n + 1))
    ok = M <= trivial
    print(f"M_{form.n}(F; {b}) = {M}  (box {trivial} "
          f"{'pass' if ok else 'FAIL'})")
    _emit(args, "count.json", {
        "config": cfg,
        "M": M,
        "trivial_bound": trivial,
        "pass": ok,
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------


PI = {"default": "T", "help": "prime modulus (poly text)"}

# name -> (function, summary, flags of FLAGS it reads, flags of its own)
COMMANDS = {
    "primes": (cmd_primes, "enumerate monic irreducibles of one degree and "
               "check the prime-count bound",
               ("q", "delta", "budget", "out"), {}),
    "charsum": (cmd_charsum, "one mixed character sum S_G(w, chi), exact",
                FLAGS, {
                    "pi": PI,
                    "chi": {"type": int, "default": 1,
                            "help": "character index"},
                    "w": {"help": "covector, semicolon-joined poly texts"}}),
    "gauss": (cmd_gauss, "Gauss sums mod one prime; exact |tau|^2 = Q",
              ("q", "ell", "out"), {"pi": PI}),
    "identity-check": (cmd_identity_check,
                       "run the exact identity suite on the config", FLAGS,
                       {}),
    "wd-audit": (cmd_wd_audit, "audit |S_G(w, chi)| against the case "
                 "bounds for every w mod the given primes", FLAGS, {
                     "pi": {"action": "append",
                            "help": "prime modulus; repeatable (default: "
                                    "first linear and first quadratic "
                                    "prime)"}}),
    "dual-check": (cmd_dual_check, "dual membership: closed form against "
                   "tangency witness search, all w mod one prime", FLAGS, {
                       "pi": PI,
                       "search-bound": {
                           "type": int, "default": 1,
                           "help": "extension degree for the witness "
                                   "search"}}),
    "exc-primes": (cmd_exc_primes, "scan for primes of bad reduction", FLAGS,
                   {"delta-max": {"type": int,
                                  "help": "scan bound (overrides config)"}}),
    "sieve-run": (cmd_sieve_run, "both sieve inequalities on the configured "
                  "instance; JSON + CSV artifacts", FLAGS, {
                      "workers": {"type": int, "default": 1,
                                  "help": "worker processes (default 1)"}}),
    "count": (cmd_count, "brute-force M_n(F;b) with dual solvability routes",
              FLAGS, {}),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first word that is no option, as cycsieve itself
    # takes none but --help
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser([command]).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: needs {exc.needed}, limit {exc.limit}; "
              f"raise --budget to proceed", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
