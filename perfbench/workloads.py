"""The benchmark's workloads: inputs made from a seed, the CLI invocations
that run on them, and the checks on what the invocations print and write.

Every invocation runs with the workload's working directory as its current
directory, so arguments (and the digests taken over them) hold no absolute
paths.  The program sees only the generated config files.  Seed 0 gives the
unit forms and the default primes.
"""

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

# monic irreducible quadratics over F_3 and linear primes over F_7, as
# cycsieve writes them
F3_QUADRATIC_PRIMES = ("1+T^2", "2+T+T^2", "2+2*T+T^2")
F7_LINEAR_PRIMES = ("T", "1+T", "2+T", "3+T", "4+T", "5+T", "6+T")
CUBIC_PRIMES = 2  # linear primes audited on cubic-geometry

# digests of the reference artifacts at the commit that defined the
# benchmark; the acceptance byte-compare of the roadmap
REFERENCE_DIGESTS = {
    "w1/sieve_report.json":
        "06d6af649e9c20a2fd89d3bec136eebc226189467a6d4547bb863e06f43e5be5",
    "w1/sieve_report.csv":
        "63dd67e700ffb1dc5289c422d9544eebd3e5a10a413211cf6f097ae8213a60f4",
    "wd/wd_audit.csv":
        "c30c4f4beb7ee10f85a80872bd78b549a141d2d59b2ed44f510b3193b677b4d9",
    "ids/identity_check.json":
        "7db7a0ba9d3cd2e06ac2796fb21da39b2f930c94e4cbd5dc08135cb34bd33fa5",
}
REFERENCE_HEADLINE = ("M=927", "rhs=12717", "argmin alpha=1")


@dataclass
class Invocation:
    args: list  # cycsieve CLI arguments, without --out
    out: str    # artifact directory, relative to the iteration directory


@dataclass
class Workload:
    name: str
    files: dict  # config file name -> text
    invocations: list
    check: object  # check(iteration_dir, stdouts) -> {index: [problem, ...]}
    notes: dict = field(default_factory=dict)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps([self.name, sorted(self.files.items()),
                             [i.args for i in self.invocations]]).encode())
        return h.hexdigest()


def _load(name):
    with open(os.path.join(HERE, "inputs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _with_coeffs(config, coeffs):
    config = json.loads(json.dumps(config))
    for term, c in zip(config["form"]["terms"], coeffs):
        term["coeff"] = str(c)
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_digest(path) -> str:
    """sha256 over the names and bytes of every file under path."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def digest_problems(it_dir, expected):
    """(relative path, problem) for each file whose sha256 is not the
    expected one."""
    found = []
    for rel, want in expected.items():
        path = os.path.join(it_dir, rel)
        got = file_digest(path) if os.path.exists(path) else "missing"
        if got != want:
            found.append((rel, f"{rel}: sha256 {got[:16]}, "
                               f"expected {want[:16]}"))
    return found


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _problems_of(check_one):
    """Run check_one(problems) and turn any read or parse error of an
    artifact into a problem instead of a crash."""
    problems = []
    try:
        check_one(problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"artifact unreadable: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# sieve-quaternary


def sieve_quaternary(seed):
    rng = _rng("sieve-quaternary", seed)
    coeffs = [1] * 4 if seed == 0 else [rng.choice((1, 2)) for _ in range(4)]
    files = {"quadric.json": _with_coeffs(_load("quadric_n3_q3.json"),
                                          coeffs)}
    inv = [Invocation(["sieve-run", "--config", "quadric.json",
                       "--workers", "2"], "sieve")]

    def check(it_dir, stdouts):
        def one(problems):
            report = _read_json(os.path.join(it_dir, "sieve",
                                             "sieve_report.json"))
            rep = report["sieve"]
            if not report["pass"]:
                problems.append("sieve_report.json says pass = false")
            if rep["A"] != 3 ** 12:
                problems.append(f"|A| = {rep['A']}, expected 531441")
            if not re.search(rf"^M={rep['M']}\s+rhs={rep['rhs']}\s",
                             stdouts[0], re.M):
                problems.append("printed headline disagrees with the artifact")
            if coeffs == [1] * 4 and (rep["M"], rep["rhs"]) != (35721, 310797):
                problems.append(f"unit form: M={rep['M']} rhs={rep['rhs']}, "
                                "expected M=35721 rhs=310797")
            os.stat(os.path.join(it_dir, "sieve", "sieve_report.csv"))
        return {0: _problems_of(one)}

    return Workload("sieve-quaternary", files, inv, check,
                    {"coeffs": coeffs})


# ---------------------------------------------------------------------------
# audit-quaternary


def audit_quaternary(seed):
    rng = _rng("audit-quaternary", seed)
    if seed == 0:
        coeffs, prime = [1] * 4, F3_QUADRATIC_PRIMES[0]
    else:
        coeffs = [rng.choice((1, 2)) for _ in range(4)]
        prime = rng.choice(F3_QUADRATIC_PRIMES)
    files = {"quadric.json": _with_coeffs(_load("quadric_n3_q3.json"),
                                          coeffs)}
    inv = [Invocation(["wd-audit", "--config", "quadric.json", "--pi", "T",
                       "--pi", prime], "wd")]
    rows = 3 ** 4 + 9 ** 4  # every w mod T and mod the quadratic prime

    def check(it_dir, stdouts):
        def one(problems):
            report = _read_json(os.path.join(it_dir, "wd", "wd_audit.json"))
            if not report["all_pass"]:
                problems.append("wd_audit.json says all_pass = false")
            if len(report["rows"]) != rows:
                problems.append(f"{len(report['rows'])} audit rows, "
                                f"expected {rows}")
            with open(os.path.join(it_dir, "wd", "wd_audit.csv"),
                      encoding="utf-8") as fh:
                lines = fh.read().count("\n")
            if lines != rows + 1:
                problems.append(f"wd_audit.csv has {lines} lines, "
                                f"expected {rows + 1}")
        return {0: _problems_of(one)}

    return Workload("audit-quaternary", files, inv, check,
                    {"coeffs": coeffs, "prime": prime})


# ---------------------------------------------------------------------------
# reference-suite


def reference_suite(root):
    with open(os.path.join(root, "configs", "quadric_q3.json"),
              encoding="utf-8") as fh:
        files = {"quadric_q3.json": fh.read()}
    cfg = ["--config", "quadric_q3.json"]
    inv = [
        Invocation(["sieve-run", *cfg, "--workers", "1"], "w1"),
        Invocation(["sieve-run", *cfg, "--workers", "2"], "w2"),
        Invocation(["identity-check", *cfg], "ids"),
        Invocation(["wd-audit", *cfg], "wd"),
        Invocation(["exc-primes", *cfg], "exc"),
        Invocation(["dual-check", *cfg, "--pi", "T"], "dual"),
        Invocation(["count", *cfg, "--b", "2"], "count"),
        Invocation(["primes", "--q", "3", "--delta", "3"], "primes"),
        Invocation(["charsum", *cfg, "--pi", "1+T^2"], "charsum"),
        Invocation(["gauss", "--q", "7", "--ell", "3"], "gauss"),
    ]
    owner = {i.out: n for n, i in enumerate(inv)}

    def check(it_dir, stdouts):
        found = {}
        for rel, problem in digest_problems(it_dir, REFERENCE_DIGESTS):
            found.setdefault(owner[rel.split("/")[0]], []).append(problem)
        for n in (0, 1):
            missing = [s for s in REFERENCE_HEADLINE if s not in stdouts[n]]
            if missing:
                found.setdefault(n, []).append(f"headline lacks {missing}")
        for name in ("sieve_report.json", "sieve_report.csv"):
            a, b = (os.path.join(it_dir, d, name) for d in ("w1", "w2"))
            if not (os.path.exists(a) and os.path.exists(b)
                    and file_digest(a) == file_digest(b)):
                found.setdefault(1, []).append(
                    f"{name} differs between --workers 1 and --workers 2")
        return found

    return Workload("reference-suite", files, inv, check)


# ---------------------------------------------------------------------------
# cubic-geometry


def cubic_geometry(seed):
    # The coefficients are cubes of F_7^*, i.e. 1 or 6 = -1, so every form is
    # the unit form after some x_i -> -x_i, and the forms are constant in T,
    # so every linear prime looks alike: the seed changes the inputs and the
    # artifacts but not the amount of work (other cube classes change the
    # number of undecided tangency searches, and so the run time).
    rng = _rng("cubic-geometry", seed)
    if seed == 0:
        coeffs, primes = [1] * 3, list(F7_LINEAR_PRIMES[:CUBIC_PRIMES])
    else:
        coeffs = [rng.choice((1, 6)) for _ in range(3)]
        primes = rng.sample(F7_LINEAR_PRIMES, CUBIC_PRIMES)
    files = {"cubic.json": _with_coeffs(_load("cubic_n2_q7.json"), coeffs)}
    cfg = ["--config", "cubic.json"]
    inv = [Invocation(["dual-check", *cfg, "--pi", p], f"dual{n}")
           for n, p in enumerate(primes)]
    audit_args = ["wd-audit", *cfg]
    for p in primes:
        audit_args += ["--pi", p]
    inv.append(Invocation(audit_args, "wd"))
    inv.append(Invocation(["exc-primes", *cfg, "--delta-max", "2"], "exc"))
    covectors = 7 ** 3 - 1
    audit_rows = CUBIC_PRIMES * 2 * 7 ** 3  # two characters of order 3

    def check(it_dir, stdouts):
        found = {}
        for n in range(len(primes)):
            def one(problems, n=n):
                rep = _read_json(os.path.join(it_dir, f"dual{n}",
                                              "dual_check.json"))
                if not rep["all_agree"] or len(rep["rows"]) != covectors:
                    problems.append("dual_check.json: routes disagree or "
                                    "covectors missing")
            found[n] = _problems_of(one)

        def audit(problems):
            rep = _read_json(os.path.join(it_dir, "wd", "wd_audit.json"))
            if not rep["all_pass"] or len(rep["rows"]) != audit_rows:
                problems.append(f"wd_audit.json: all_pass={rep['all_pass']} "
                                f"rows={len(rep['rows'])}, expected "
                                f"{audit_rows}")
        found[len(primes)] = _problems_of(audit)

        def exc(problems):
            _read_json(os.path.join(it_dir, "exc", "exc_primes.json"))
        found[len(primes) + 1] = _problems_of(exc)
        return found

    return Workload("cubic-geometry", files, inv, check,
                    {"coeffs": coeffs, "primes": primes})


NAMES = ("sieve-quaternary", "audit-quaternary", "reference-suite",
         "cubic-geometry")


def make(name, seed, root):
    if name == "sieve-quaternary":
        return sieve_quaternary(seed)
    if name == "audit-quaternary":
        return audit_quaternary(seed)
    if name == "reference-suite":
        return reference_suite(root)
    if name == "cubic-geometry":
        return cubic_geometry(seed)
    raise ValueError(f"unknown workload {name!r}")
