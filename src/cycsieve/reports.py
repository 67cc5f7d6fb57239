"""Experiment configs and reproducible artifacts: config loading/validation
with CLI overrides, byte-stable JSON and CSV emission (sorted keys, exact
integers, magnitudes at 12 significant digits), and the worker-parallel
sieve runner whose artifacts are byte-identical for every worker count
(the box is split into one range of positions per worker, and the exact
value histograms of the ranges sum to the histogram of the whole box however
it is split; multiprocessing is imported only when a pool starts).

One streaming writer emits every artifact.  The bytes of a JSON artifact are
those of json.dumps(normalize(report), sort_keys=True, indent=2) and a
newline, but it renders straight from the report, each scalar once through
one table keyed by exact type (_SCALAR_TEXTS, which also gives the CSV cells)
and each dict of scalars in one join, and writes a few rows at a time; a CSV
table goes to the file row by row through csv.writer.
"""

import csv
import functools
import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import geometry as geo
from . import polyring as pr
from . import sieve as sv
from .characters import check_cover
from .charsums import Budget
from .ffield import is_prime_int, prime_factors

DEFAULT_BUDGET = 10 ** 8
FLUSH_PIECES = 64  # JSON pieces joined into one write of an artifact
LAYOUT_CACHE_SIZE = 256  # (nesting level, key tuple) dict layouts kept

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
        cfg["p"], cfg["e"] = factor_prime_power(int(cfg["q"]))
    if "p" not in cfg:
        raise ValueError("config needs a field: p (and optional e) or q")
    p = int(cfg["p"])
    e = int(cfg.get("e", 1))
    if "q" in cfg and p ** e != int(cfg["q"]):
        raise ValueError(f"q = {cfg['q']} does not match p^e = {p}^{e}")
    if not is_prime_int(p):
        raise ValueError(f"characteristic {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be positive")

    for key in ("n", "ell", "b", "form"):
        if key not in cfg:
            raise ValueError(f"config needs {key}")
    n, ell, b = int(cfg["n"]), int(cfg["ell"]), int(cfg["b"])
    form, dual = config_objects(cfg)
    if form.n != n:
        raise ValueError("form arity does not match n")
    if dual != "auto" and dual.n != n:
        raise ValueError("dual form arity does not match n")
    if int(cfg.get("m", form.m)) != form.m:
        raise ValueError(f"m = {cfg['m']} is not the form's degree {form.m}")
    check_cover(form.k, ell, form.m)

    delta = cfg.get("delta", "auto")
    if delta in ("auto", None):
        delta = sv.choose_delta(n, b)
    delta = int(delta)
    delta_max = int(cfg.get("delta_max", max(delta, 1)))
    search_bound = int(cfg.get("search_bound", 4))
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
        "budget": int(cfg.get("budget", DEFAULT_BUDGET)),
        "form": geo.form_to_json(form),
        "dual": cfg.get("dual"),
    }


def build_instance(config: dict, budget: Budget, price):
    """(k, form, params, sieving set) for a resolved config.  The params are
    validated first.  Then the caller's charges price(params), in order,
    and the scan's (geometry.exceptional_scan_cost) go to budget, before the
    bad primes are rescanned up to delta_max and excluded.  So an invalid
    or oversized run stops before the scan."""
    form, dual = config_objects(config)
    k = form.k
    params = sv.SieveParams(k=k, n=config["n"], ell=config["ell"], form=form,
                            b=config["b"], delta=config["delta"],
                            delta_max=config["delta_max"])
    scan = (form, config["delta_max"], dual, config["search_bound"])
    budget.charge_each(price(params))
    budget.charge_each(geo.exceptional_scan_cost(*scan))
    exc = geo.compute_exceptional_primes(*scan)["exceptional"]
    sset = sv.build_sieving_set(k, config["delta"],
                                [pr.parse_poly(k, text) for text in exc])
    return k, form, params, sset


# ---------------------------------------------------------------------------
# byte-stable serialization


def normalize(obj):
    """JSON-normal form: Fractions become exact integers or "num/den"
    strings, floats are rounded to 12 significant digits, tuples become
    lists, dict keys become strings.  normalize is idempotent, so parsing an
    emitted artifact gives back exactly the normalized report."""
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(key): normalize(value) for key, value in obj.items()}
    return str(obj)


def _bool_text(value) -> str:
    return "true" if value else "false"


def _float_json(value) -> str:
    """The JSON text of value rounded to 12 significant digits, with json's
    spellings of the non-finite floats."""
    value = float(f"{value:.12g}")
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _float_cell(value) -> str:
    # a 12-digit decimal survives the round trip through a float, so this
    # is also the cell of the normalized value
    return f"{value:.12g}"


def _fraction_cell(value) -> str:
    if value.denominator == 1:
        return int.__repr__(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fraction_json(value) -> str:
    text = _fraction_cell(value)
    return text if value.denominator == 1 else f'"{text}"'


# exact type of a scalar -> (its JSON text, its CSV cell), both of its
# normal form
_SCALAR_TEXTS = {
    str: (encode_basestring_ascii, str),
    bool: (_bool_text, _bool_text),
    type(None): (lambda _: "null", lambda _: ""),
    int: (int.__repr__, int.__repr__),
    float: (_float_json, _float_cell),
    Fraction: (_fraction_json, _fraction_cell),
}


def _other_texts(value) -> tuple:
    """(JSON text, CSV cell) of a scalar of no exact type in _SCALAR_TEXTS:
    those of its normal form, where an int subclass stays itself (json
    writes int's digits for it, and the cell is its own str)."""
    value = normalize(value)
    texts = _SCALAR_TEXTS.get(type(value))
    if texts is None:
        return int.__repr__(value), str(value)
    return texts[0](value), texts[1](value)


def cell_text(value) -> str:
    """One CSV cell: exact integers, 12-significant-digit magnitudes,
    lowercase booleans, exact fractions as num/den, lists joined by ";"."""
    texts = _SCALAR_TEXTS.get(type(value))
    if texts is not None:
        return texts[1](value)
    if isinstance(value, (list, tuple)):
        return ";".join(cell_text(v) for v in value)
    if isinstance(value, dict):
        return str(normalize(value))
    return _other_texts(value)[1]


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _dict_layout(level: int, keys: tuple) -> tuple:
    """(the str keys sorted, the text before each value, the closing text)
    of a non-empty dict with these keys at this nesting level."""
    order = sorted(keys)
    inner = "\n" + "  " * (level + 1)
    heads = [("{" if i == 0 else ",") + inner + encode_basestring_ascii(key)
             + ": " for i, key in enumerate(order)]
    return order, heads, "\n" + "  " * level + "}"


def _json_pieces(obj, level: int = 0):
    """The text of json.dumps(normalize(obj), sort_keys=True, indent=2) in
    pieces, each scalar rendered by _SCALAR_TEXTS; a dict whose values are
    all scalars is one piece."""
    texts = _SCALAR_TEXTS.get(type(obj))
    if texts is not None:
        yield texts[0](obj)
        return
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        keys = tuple(obj)
        if not all(type(key) is str for key in keys):
            obj = {str(key): value for key, value in obj.items()}
            keys = tuple(obj)
        keys, heads, close = _dict_layout(level, keys)
        values = [obj[key] for key in keys]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = "\n" + "  " * (level + 1)
        heads = ["[" + inner] + ["," + inner] * (len(obj) - 1)
        close = "\n" + "  " * level + "]"
        values = obj
    else:
        yield _other_texts(obj)[0]
        return
    scalar = _SCALAR_TEXTS.get
    texts = [scalar(type(v)) for v in values]
    if None not in texts and isinstance(obj, dict):
        yield "".join([head + t[0](v)
                       for head, t, v in zip(heads, texts, values)]) + close
        return
    for head, t, v in zip(heads, texts, values):
        if t is None:
            yield head
            yield from _json_pieces(v, level + 1)
        else:
            yield head + t[0](v)
    yield close


def write_csv(fh, columns, rows) -> None:
    """The CSV table of rows (dicts) under a header of columns, written to
    fh one line per row through csv.writer, each cell by cell_text."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell_text(row.get(c)) for c in columns])


def write_artifact(out_dir: str, name: str, content, columns=None) -> str:
    """Write out_dir/name: with columns, content is the rows of a CSV table
    (write_csv); without, content is a report written as byte-stable JSON,
    the bytes of json.dumps(normalize(content), sort_keys=True, indent=2)
    and a final newline.  The JSON is rendered straight from the report,
    each scalar once and each dict of scalars (an audit row) in one join,
    and written every FLUSH_PIECES pieces, so neither a normalized copy of
    the report nor the whole text of an artifact is ever held in memory."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if columns is not None:
            write_csv(fh, columns, content)
        else:
            buf = []
            for piece in _json_pieces(content):
                buf.append(piece)
                if len(buf) == FLUSH_PIECES:
                    fh.write("".join(buf))
                    buf.clear()
            buf.append("\n")
            fh.write("".join(buf))
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


def _chunk_job(spec):
    k, form, b, start, stop = spec
    return sv.accumulate_chunk(k, form, b, start=start, stop=stop)


def parallel_accumulator(params: sv.SieveParams, workers: int = 1):
    """The value histogram of the full box.  The box positions are split
    into workers contiguous ranges, each range builds the histogram of F
    over its points (in this process for one worker, in a pool of at most
    one process per non-empty range otherwise), and the histograms are
    summed.  The exact counts do not depend on the split, so the result is
    the same for any worker count."""
    k, form, b = params.k, params.form, params.b
    if workers == 1:
        parts = [sv.box_histogram(k, form, b)]
    else:
        import multiprocessing

        size = params.box_size
        edges = [size * i // workers for i in range(workers + 1)]
        specs = [(k, form, b, lo, hi) for lo, hi in zip(edges, edges[1:])
                 if lo < hi]
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        with multiprocessing.get_context(method).Pool(len(specs)) as pool:
            parts = pool.map(_chunk_job, specs)
    return sv.merge_accumulators(parts)


def run_sieve(config: dict, workers: int = 1) -> dict:
    """Both sieve inequalities on the configured instance.  The box pass is
    priced before the bad-prime scan, and the residue tables, whose size
    depends on the number of distinct values, after it."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    budget = Budget(config["budget"])
    k, form, params, sset = build_instance(
        config, budget, lambda p: sv.box_pass_cost(p.k, p.ell, p.form, p.b))
    hist = parallel_accumulator(params, workers)
    budget.charge(sv.residue_tables_cost(form, params.b, len(sset),
                                         len(hist)))
    acc = sv.value_moments(k, form, params.ell, params.b, sset.primes, hist)
    report = sv.sieve_terms(params, sset, acc)
    general = sv.sieve_inequality_general(params, sset, acc)
    passed = (report["inequality_pass"] and report["count_within_box"]
              and report["psi_square_identity"]
              and report["ramified_majorization"]
              and report["pair_symmetric"] and general["all_pass"])
    return {
        "config": config,
        "sieve": report,
        "general": general,
        "excluded": [pr.format_poly(params.k, p) for p in sset.excluded],
        "pass": passed,
    }


def sieve_csv_row(result: dict) -> dict:
    row = dict(result["sieve"])
    row["argmin_alpha"] = result["general"]["argmin_alpha"]
    row["general_all_pass"] = result["general"]["all_pass"]
    return row
