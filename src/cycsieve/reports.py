"""Experiment configs and reproducible artifacts: config loading/validation
with CLI overrides, byte-stable JSON and CSV emission (sorted keys, exact
integers, magnitudes at 12 significant digits), and the worker-parallel
sieve runner whose artifacts are byte-identical for every worker count
(the box is split into one range of x_0 per worker, and the exact value
histograms of the ranges sum to the histogram of the whole box however it
is split; the runner forks a child for every range but the last, builds
the last itself, and reads each child's histogram back from a pipe).

One streaming writer emits every artifact, a few pieces per write.  A
report is closed: dicts with str keys, lists, tuples and Tables, with str,
int, bool, None, float and Fraction leaves, each of exactly that type; any
other value or key is a TypeError.  The bytes of a JSON artifact are those
of json.dumps(report, sort_keys=True, indent=2) and a newline, with each
Fraction an exact integer or a "num/den" string and each float rounded to
12 significant digits.  A scalar's text, JSON or CSV cell, comes from one
table keyed by exact type (_SCALAR_TEXTS), which gains the Fraction's row
with the first Fraction written.  A Table holds rows that share all
columns but one free str column class by class (audit and dual-check
rows): either writer renders each class once, with a mark in the free
column, and joins each row's text around its free text by C-level maps,
streaming the rows a block at a time.
"""

import csv
import functools
import itertools
import json
import marshal
import math
import operator
import os
import sys
import types
from collections import Counter
from json.encoder import encode_basestring_ascii

from . import geometry as geo
from . import polyring as pr
from .characters import check_cover
from .charsums import Budget
from .ffield import is_prime_int, prime_factors

DEFAULT_BUDGET = 10 ** 8
FLUSH_PIECES = 64  # JSON pieces, or CSV lines of a Table, in one write

# the keys of a resolved config, the only keys a config may have
CONFIG_KEYS = ("p", "e", "q", "n", "ell", "m", "b", "delta", "delta_max",
               "search_bound", "budget", "form", "dual")


# ---------------------------------------------------------------------------
# configuration


def factor_prime_power(q: int) -> tuple:
    """(p, e) with q = p^e, or ValueError."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"field size {q} is not a prime power")
    p, e = factors[0], 1
    while p ** e < q:
        e += 1
    return p, e


def field_from_q(q: int):
    p, e = factor_prime_power(q)
    return pr.make_field(p, e)


def config_objects(config: dict) -> tuple:
    """(form, dual) of a config: the form F over F_q, q = p^e, and the
    supplied dual form or "auto" when there is none.  The field is form.k."""
    k = pr.make_field(int(config["p"]), int(config.get("e", 1)))
    dual = config.get("dual")
    return (geo.form_from_json(k, config["form"]),
            geo.form_from_json(k, dual) if dual else "auto")


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def choose_delta(n: int, b: int) -> int:
    """The sieving degree floor(n*b/(n+1)); n = 1 is rejected because
    delta < b < 2*delta can then never hold."""
    if n < 2:
        raise ValueError("need n >= 2")
    return n * b // (n + 1)


def _config_int(cfg: dict, key: str, default=None) -> int:
    """cfg[key] (default when absent) as an int, or a config error."""
    return geo.json_int(key, cfg.get(key, default))


def resolve_config(raw: dict, overrides: dict | None = None) -> dict:
    """Merge CLI overrides over the raw config, fill defaults, resolve
    delta = "auto", and make every check a config gets (see README.md,
    "Configuration"), so a bad config stops before any work.  Returns the
    fully resolved config embedded in every artifact; fed back as input it
    resolves to itself."""
    cfg = dict(raw)
    live = {k: v for k, v in (overrides or {}).items() if v is not None}
    if "q" in live:
        cfg.pop("p", None)
        cfg.pop("e", None)
    cfg.update(live)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; the keys are "
                         f"{' '.join(CONFIG_KEYS)}")

    if "q" in cfg and "p" not in cfg:
        cfg["p"], e = factor_prime_power(_config_int(cfg, "q"))
        cfg.setdefault("e", e)
    if "p" not in cfg:
        raise ValueError("config needs a field: p (and optional e) or q")
    p = _config_int(cfg, "p")
    e = _config_int(cfg, "e", 1)
    if "q" in cfg and p ** e != _config_int(cfg, "q"):
        raise ValueError(f"q = {cfg['q']} does not match p^e = {p}^{e}")
    if not is_prime_int(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be positive")

    for key in ("ell", "b", "form"):
        if key not in cfg:
            raise ValueError(f"config needs {key}")
    ell, b = _config_int(cfg, "ell"), _config_int(cfg, "b")
    if b < 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    form, dual = config_objects(cfg)
    n = form.n
    if _config_int(cfg, "n", n) != n:
        raise ValueError("form arity does not match n")
    if dual != "auto" and dual.n != n:
        raise ValueError("dual form arity does not match n")
    if _config_int(cfg, "m", form.m) != form.m:
        raise ValueError(f"m = {cfg['m']} is not the form's degree {form.m}")
    check_cover(form.k, ell, form.m)

    if cfg.get("delta", "auto") in ("auto", None):
        cfg["delta"] = choose_delta(n, b)
    delta = _config_int(cfg, "delta")
    delta_max = _config_int(cfg, "delta_max", max(delta, 1))
    search_bound = _config_int(cfg, "search_bound", 4)
    for key, value in (("delta_max", delta_max),
                       ("search_bound", search_bound)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")

    return {
        "p": p,
        "e": e,
        "q": form.k.size,
        "n": n,
        "ell": ell,
        "m": form.m,
        "b": b,
        "delta": delta,
        "delta_max": delta_max,
        "search_bound": search_bound,
        "budget": _config_int(cfg, "budget", DEFAULT_BUDGET),
        "form": geo.form_to_json(form),
        "dual": cfg.get("dual"),
    }


def build_instance(config: dict, budget: Budget, price):
    """(params, primes, excluded) for a resolved config: the sieving primes
    and the bad primes left out of them (sieve.build_sieving_set).  The
    params are validated first, and delta_max must cover delta.  Then the
    caller's charges price(params), in order, and the scan's
    (geometry.exceptional_scan_cost) go to budget, before the bad primes are
    rescanned up to delta_max and excluded.  So an invalid or oversized run
    stops before the scan."""
    from . import sieve as sv

    form, dual = config_objects(config)
    params = sv.SieveParams(form, config["ell"], config["b"], config["delta"])
    if config["delta_max"] < config["delta"]:
        raise ValueError("delta_max must cover the sieving degree")
    scan = (form, config["delta_max"], dual, config["search_bound"])
    budget.charge_each(price(params))
    budget.charge_each(geo.exceptional_scan_cost(*scan))
    exc = geo.compute_exceptional_primes(*scan)["exceptional"]
    primes, excluded = sv.build_sieving_set(
        form.k, config["delta"], [pr.parse_poly(form.k, text) for text in exc])
    return params, primes, excluded


# ---------------------------------------------------------------------------
# byte-stable serialization


def _float_json(value) -> str:
    """The JSON text of value rounded to 12 significant digits."""
    value = float(f"{value:.12g}")
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# exact type of a scalar -> (its JSON text, its CSV cell); a float's cell is
# also that of its JSON value, as a 12-digit decimal survives the round trip
# through a float
_SCALAR_TEXTS = {
    str: (encode_basestring_ascii, str),
    bool: (("false", "true").__getitem__,) * 2,
    type(None): (lambda _: "null", lambda _: ""),
    int: (int.__repr__, int.__repr__),
    float: (_float_json, "{:.12g}".format),
}


def _fraction_texts(value):
    """The texts of value if it is a Fraction, which are then added to
    _SCALAR_TEXTS, else None.  This module does not import fractions: a
    Fraction exists only once its maker has loaded it."""
    kind = type(value)
    if kind is not getattr(sys.modules.get("fractions"), "Fraction", None):
        return None
    texts = _SCALAR_TEXTS[kind] = (
        lambda v: str(v) if v.denominator == 1 else f'"{v}"', str)
    return texts


def _refused(value) -> TypeError:
    return TypeError(f"a report holds no {type(value).__name__}")


def _row(row) -> dict:
    """row, a dict with str keys, or TypeError."""
    if type(row) is not dict:
        raise _refused(row)
    for key in row:
        if type(key) is not str:
            raise _refused(key)
    return row


def cell_text(value) -> str:
    """One CSV cell: exact integers, 12-significant-digit magnitudes,
    lowercase booleans, exact fractions as num/den, lists and tuples joined
    by ";"."""
    texts = _SCALAR_TEXTS.get(type(value)) or _fraction_texts(value)
    if texts is not None:
        return texts[1](value)
    if type(value) not in (list, tuple):
        raise _refused(value)
    return ";".join(map(cell_text, value))


class Table:
    """Rows that share all but one column class by class: the row of a key
    and a text is the dict classes[key] with the text, a str, under the
    column free.  keys and texts are iterables of one item per row, in row
    order, read once.  A report may hold a Table where it holds a list of
    rows, and a CSV artifact may be written from one; either writer
    renders each class once, by the rules of any other row."""

    def __init__(self, free: str, classes: dict, keys, texts):
        self.free, self.classes = free, classes
        self.keys, self.texts = keys, texts


def _table_texts(table: Table, render, quote):
    """The text of each row of table, made as it is asked for: its class's
    text by render (a row -> its text), rendered once with a mark in the
    free column, joined around the row's free text quoted by quote (texts
    -> their texts) where the mark's text was.  The mark is the first of
    "\\x1f0", "\\x1f1", ... whose text occurs just once in each class's
    text."""
    for n in itertools.count():
        mark = f"\x1f{n}"
        spot = next(quote([mark]))
        parts = {key: tuple(render({**row, table.free: mark}).split(spot))
                 for key, row in table.classes.items()}
        counts = set(map(len, parts.values()))
        if 1 in counts:
            raise ValueError(f"no column {table.free!r} for the free texts")
        if counts <= {2}:
            return map(str.join, quote(table.texts),
                       map(parts.__getitem__, table.keys))


def _json_pieces(obj, level: int):
    """The JSON text of obj with sorted keys and an indent of 2, in pieces:
    its scalars by _SCALAR_TEXTS, and a Table as the list of its rows, one
    piece a row."""
    texts = _SCALAR_TEXTS.get(type(obj)) or _fraction_texts(obj)
    if texts is not None:
        yield texts[0](obj)
        return
    inner = "\n" + "  " * (level + 1)
    if type(obj) is dict:
        if not obj:
            yield "{}"
            return
        keys = sorted(_row(obj))
        heads = [("{" if i == 0 else ",") + inner
                 + encode_basestring_ascii(key) + ": "
                 for i, key in enumerate(keys)]
        close, values = "\n" + "  " * level + "}", map(obj.get, keys)
    elif type(obj) in (list, tuple, Table):
        heads = itertools.chain(["[" + inner], itertools.repeat("," + inner))
        close, values = "\n" + "  " * level + "]", obj
    else:
        raise _refused(obj)
    if type(obj) is Table:
        pieces = map(operator.add, heads, _table_texts(
            obj, lambda row: "".join(_json_pieces(row, level + 1)),
            functools.partial(map, encode_basestring_ascii)))
    else:
        pieces = itertools.chain.from_iterable(
            itertools.chain((head,), _json_pieces(value, level + 1))
            for head, value in zip(heads, values))
    first = next(pieces, None)
    if first is None:
        yield "[]"
        return
    yield first
    yield from pieces
    yield close


def write_csv(fh, columns, rows) -> None:
    """The CSV table of rows under a header of columns, written to fh
    through csv.writer: a Table FLUSH_PIECES rows per write, a list or
    tuple of dicts row by row, each cell by cell_text."""
    if type(rows) not in (list, tuple, Table):
        raise _refused(rows)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    if type(rows) is not Table:
        for row in rows:
            writer.writerow(map(cell_text, map(_row(row).get, columns)))
        return
    # writerow returns what the file's write does, here the line itself
    echo = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n")
    # a free text's cell, cut from the line of it and an empty cell; alone
    # when it is the only column, as a lone empty cell is quoted
    pad = [""] * (len(columns) > 1)
    cut = operator.itemgetter(slice(None, -1 - len(pad)))

    def quote(texts):
        return map(cut, map(echo.writerow, zip(
            texts, *map(itertools.repeat, pad))))
    lines = _table_texts(rows, lambda row: echo.writerow(
        map(cell_text, map(_row(row).get, columns))), quote)
    while block := list(itertools.islice(lines, FLUSH_PIECES)):
        fh.write("".join(block))


def write_artifact(out_dir: str, name: str, content, columns=None) -> str:
    """Write out_dir/name: with columns, content is the rows of a CSV table
    (write_csv); without, a report as byte-stable JSON (_json_pieces and a
    newline), FLUSH_PIECES pieces per write, so the whole text of an
    artifact is never held in memory.  The rows, or any array of a report,
    may be a Table, written as the list of its rows would be, as they are
    made."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if columns is not None:
            write_csv(fh, columns, content)
        else:
            pieces = itertools.chain(_json_pieces(content, 0), ["\n"])
            while block := list(itertools.islice(pieces, FLUSH_PIECES)):
                fh.write("".join(block))
    return path


WD_CSV_COLUMNS = ["q", "Delta", "pi", "ell", "chi_index", "w", "case",
                  "abs_S", "bound", "ratio", "pass"]

SIEVE_CSV_COLUMNS = ["q", "delta", "n", "ell", "m", "b", "A",
                     "trivial_bound", "M", "main_term", "ramified_term",
                     "unramified_term", "rhs", "primes", "argmin_alpha",
                     "inequality_pass", "count_within_box",
                     "psi_square_identity", "ramified_majorization",
                     "pair_symmetric", "general_all_pass"]


# ---------------------------------------------------------------------------
# the parallel sieve runner


def _fork_share(form, b, start: int, stop: int) -> tuple:
    """(pid, read end of its pipe) of a forked child that writes the
    marshalled histogram of the box positions [start, stop) to the pipe.
    The child leaves only by os._exit, 0 once the bytes are written and 1
    on any error (after printing it), so none of this process's cleanup,
    buffered output or exit hooks run in it."""
    from . import sieve as sv

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        part = sv.accumulate_chunk(form, b, start=start, stop=stop)
        with open(write, "wb") as fh:
            fh.write(marshal.dumps(dict(part)))
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def parallel_accumulator(params, workers: int = 1):
    """The value histogram of the full box of params, a sieve.SieveParams.
    The q^b values of x_0 are split into workers contiguous ranges, each
    passed as the box positions of its values of x_0; this process forks one
    child per non-empty range but the last, builds the last range's
    histogram itself, then reads each child's histogram from its pipe to the
    end before reaping it, and the histograms are added in range order.  A
    child that fails raises here; if this process's own share fails, every
    child is killed and reaped before the error propagates.  Without os.fork
    every range runs in this process.  The exact counts do not depend on the
    split, so the result is the same for any worker count."""
    from . import sieve as sv

    form, b = params.form, params.b
    width, unit = params.q ** b, params.q ** (b * params.n)
    edges = [width * i // workers * unit for i in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    hist = Counter()
    if not hasattr(os, "fork"):
        for lo, hi in ranges:
            hist.update(sv.accumulate_chunk(form, b, start=lo, stop=hi))
        return hist
    pids, reads = [], []
    try:
        for lo, hi in ranges[:-1]:
            pid, read = _fork_share(form, b, lo, hi)
            pids.append(pid)
            reads.append(read)
        lo, hi = ranges[-1]
        own = sv.accumulate_chunk(form, b, start=lo, stop=hi)
        blobs = []
        while reads:
            with open(reads.pop(0), "rb") as fh:
                blobs.append(fh.read())
        codes = []
        while pids:
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1]))
            pids.pop(0)
    except BaseException:
        from signal import SIGKILL

        for read in reads:
            os.close(read)
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        raise
    for (lo, hi), code in zip(ranges, codes):
        if code:
            how = (f"exited with status {code}" if code > 0
                   else f"was killed by signal {-code}")
            raise RuntimeError(f"the worker for box positions [{lo}, {hi}) "
                               f"{how}")
    for part in [*map(marshal.loads, blobs), own]:
        hist.update(part)
    return hist


def run_sieve(config: dict, workers: int = 1) -> dict:
    """Both sieve inequalities on the configured instance.  The box pass is
    priced before the bad-prime scan, and a sieving set of fewer than two
    primes is refused after the scan, before the box pass.  The residue
    tables, whose size depends on the number of distinct values, are priced
    after the box pass, before M and the moments."""
    from . import sieve as sv

    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    budget = Budget(config["budget"])
    params, primes, excluded = build_instance(
        config, budget, lambda p: sv.box_pass_cost(p.form, p.ell, p.b))
    if len(primes) < 2:
        raise ValueError("need at least two sieving primes for the pair max")
    form, ell, b = params.form, params.ell, params.b
    hist = parallel_accumulator(params, workers)
    budget.charge(sv.residue_tables_cost(form, b, len(primes), len(hist)))
    M = sv.solvable_count(form, ell, b, hist)
    acc = sv.value_moments(form, ell, b, primes, hist)
    report = sv.sieve_terms(params, primes, M, acc)
    general = sv.sieve_inequality_general(params, primes, M, acc)
    passed = (report["inequality_pass"] and report["count_within_box"]
              and report["psi_square_identity"]
              and report["ramified_majorization"]
              and report["pair_symmetric"] and general["all_pass"])
    return {
        "config": config,
        "sieve": report,
        "general": general,
        "excluded": [pr.format_poly(params.k, p) for p in excluded],
        "pass": passed,
    }


def sieve_csv_row(result: dict) -> dict:
    row = dict(result["sieve"])
    row["argmin_alpha"] = result["general"]["argmin_alpha"]
    row["general_all_pass"] = result["general"]["all_pass"]
    return row
