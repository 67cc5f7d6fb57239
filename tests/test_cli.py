"""CLI and artifact tests: every subcommand end-to-end on the reference
quadric instance (q = 3, n = 2, ell = 2, b = 3, delta = 2), exit-code
contract (0 pass / 1 math failure / 2 config or usage / 3 budget), byte
stability of emitted JSON/CSV including independence from the worker count,
and the config resolution rules."""

import argparse
import copy
import csv
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cycsieve import charsums as cs
from cycsieve import cli
from cycsieve import geometry as geo
from cycsieve import identities as ids
from cycsieve import polyring as pr
from cycsieve import reports as rp
from cycsieve import sieve as sv

from oracles import audit_rows, normalize

CONFIG = str(pathlib.Path(__file__).resolve().parent.parent
             / "configs" / "quadric_q3.json")


# sha256 of the wd-audit artifacts of the shipped config
WD_REFERENCE_DIGESTS = {
    "wd_audit.csv":
        "c30c4f4beb7ee10f85a80872bd78b549a141d2d59b2ed44f510b3193b677b4d9",
    "wd_audit.json":
        "09510d4315f4902b615f73ecdaf5e76c9c3a45274bfebd19f0ee43656da4c39b",
}

# sha256 of the sieve-run (any worker count) and identity-check artifacts of
# the shipped config: the benchmark's reference digests of the same runs
SIEVE_REFERENCE_DIGESTS = {
    "sieve_report.json":
        "06d6af649e9c20a2fd89d3bec136eebc226189467a6d4547bb863e06f43e5be5",
    "sieve_report.csv":
        "63dd67e700ffb1dc5289c422d9544eebd3e5a10a413211cf6f097ae8213a60f4",
}
IDENTITY_REFERENCE_DIGEST = \
    "7db7a0ba9d3cd2e06ac2796fb21da39b2f930c94e4cbd5dc08135cb34bd33fa5"

# the diagonal cubic over F_7 with ell = 3, and the sha256 of its wd-audit
# artifacts mod T and 1+T, where the case and the text of each w serve both
# non-principal characters
CUBIC_CONFIG = (pathlib.Path(__file__).resolve().parent.parent
                / "perfbench" / "inputs" / "cubic_n2_q7.json")
CUBIC_WD_DIGESTS = {
    "wd_audit.csv":
        "7c57d565ab783b2db5b0903c9fb2a449441f5522a7d80cb3a397d5331ccad2f7",
    "wd_audit.json":
        "ddd37c47a0991a1fe66baf493ab1891c13bd75498769ca8ede632091f5b18f22",
}

# the audit-quaternary instance (the unit n = 3 quadric over F_3): sha256 of
# wd-audit mod T and 1+T^2; and of dual-check mod T on the cubic
QUADRIC_N3_CONFIG = (pathlib.Path(__file__).resolve().parent.parent
                     / "perfbench" / "inputs" / "quadric_n3_q3.json")
QUATERNARY_WD_DIGESTS = {
    "wd_audit.csv":
        "c10b5cfdef1d8b1248a771d497afdf15d476d6d0ea66dde8715f8e909ad297d5",
    "wd_audit.json":
        "3ae044ba0400805fafbbb5b090e5c1bc0a418a931bb383798b449c8dbf43f583",
}
CUBIC_DUAL_DIGEST = \
    "991e54159381bc30c31ea284cabf8cf01465f073d12f52bdc835cee665f8757b"

# the cubic's form over F_4 (p = 2, e = 2) with ell = 3, and the sha256 of
# its identity-check and sieve-run artifacts
F4_CUBIC = {"p": 2, "e": 2}
F4_CUBIC_DIGESTS = {
    "identity_check.json":
        "737b407e53e79c898a5f40c2036b9daed62e4ccda432d0b12ded6f5057a9e47f",
    "sieve_report.json":
        "44e41893b4a3b05a2aaae2af79a98af05615dabc21f1f5b9fcad3379296a5507",
    "sieve_report.csv":
        "5a807e277ae86f9778f633f266099f03063fa662015c9950bc08e211c38d1c19",
}

# sha256 of the artifacts that the smoothness, Dwork and dual checks of
# geometry reach: exc-primes on the shipped config, on the cubic and on
# NONDIAG_CUBIC (search_bound 1, delta_max 1), and dual-check mod T on the
# shipped config
EXC_PRIMES_DIGESTS = {
    "quadric":
        "f06d6d495846cdc3255b8b00cd2c9e0b585418cd369405baea0cfec83fb80dd1",
    "cubic":
        "118a4ad0556ce1f217dc6c02b11eb8ca1e959f223ad3836fc86a83add1c2af37",
    "nondiag":
        "6fc1d96b21bcefdb64cc651eea760dd7a408b5372a03d0607e59e0a83fef5395",
}
REFERENCE_DUAL_DIGEST = \
    "6547fe4bd0a5a5b1e8249198b30ba1a592a623cbf0e80b01a2ad0f66405c7212"
# dual-check mod 1+T^2 on the shipped config at search bound 2
TOWER_DUAL_DIGEST = \
    "b4bfa22453ea36c69f425d398d3c12e1c79fdf2ba26540af224d959cee5c2d30"
# count --b 0 on the shipped config: the box of the zero vector alone
COUNT_B0_DIGEST = \
    "f95e13ff05a73d9b0f4bd17910a8ac2198157b48bf7a2d4b61a268f2d6733dea"

# X0^3 + 2 X1^3 + X2^3 + X0 X1 X2 over F_7: neither diagonal nor a quadric,
# so its auto dual is the tangency search
NONDIAG_CUBIC = {
    "p": 7, "ell": 3, "form": {"n": 2, "m": 3, "terms": [
        {"exps": [3, 0, 0], "coeff": "1"},
        {"exps": [0, 3, 0], "coeff": "2"},
        {"exps": [0, 0, 3], "coeff": "1"},
        {"exps": [1, 1, 1], "coeff": "1"}]}}


def read(path):
    return pathlib.Path(path).read_text(encoding="utf-8")


def config_without_delta_max(tmp_path):
    """The shipped config without delta_max, which then defaults to delta."""
    config = json.loads(read(CONFIG))
    del config["delta_max"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


ABSENT = object()  # a patch value that takes its key out of the config


def write_config(tmp_path, patch):
    """The shipped config with the keys of patch set, as a file."""
    config = json.loads(read(CONFIG))
    config.update(patch)
    config = {key: v for key, v in config.items() if v is not ABSENT}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def forbid(monkeypatch, module, name):
    """Make module.name fail the test if it is called."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    monkeypatch.setattr(module, name, called)


class TestConfig:
    def test_shipped_config_resolves(self):
        cfg = rp.resolve_config(rp.load_config(CONFIG))
        assert cfg["q"] == 3 and cfg["p"] == 3 and cfg["e"] == 1
        assert cfg["delta"] == 2  # "auto" -> floor(2*3/3)
        assert cfg["m"] == 2
        assert cfg["budget"] == rp.DEFAULT_BUDGET

    def test_q_override_replaces_field(self):
        raw = rp.load_config(CONFIG)
        cfg = rp.resolve_config(raw, {"q": 7})
        assert (cfg["p"], cfg["e"], cfg["q"]) == (7, 1, 7)

    def test_inconsistent_q_rejected(self):
        raw = dict(rp.load_config(CONFIG))
        raw["q"] = 9
        with pytest.raises(ValueError):
            rp.resolve_config(raw)

    def test_ell_constraints_validated(self):
        raw = rp.load_config(CONFIG)
        with pytest.raises(ValueError):
            rp.resolve_config(raw, {"ell": 3})  # 3 does not divide q-1
        with pytest.raises(ValueError):
            rp.resolve_config(raw, {"q": 7, "ell": 3})  # 3 nmid m = 2

    def test_missing_form_rejected(self):
        with pytest.raises(ValueError):
            rp.resolve_config({"p": 3, "n": 2, "ell": 2, "b": 3})

    def test_resolved_config_resolves_to_itself(self):
        dual = {"n": 2, "m": 2, "terms": [
            {"exps": [2, 0, 0], "coeff": "1"},
            {"exps": [0, 2, 0], "coeff": "1"},
            {"exps": [0, 0, 2], "coeff": "1"}]}
        for raw in (rp.load_config(CONFIG),
                    {**rp.load_config(CONFIG), "dual": dual}):
            cfg = rp.resolve_config(raw)
            assert rp.resolve_config(cfg) == cfg

    def test_n_is_read_from_the_form(self):
        # like m, n is optional and must match the form when given
        raw = rp.load_config(CONFIG)
        without = {key: v for key, v in raw.items() if key != "n"}
        assert "n" not in without
        assert rp.resolve_config(without) == rp.resolve_config(raw)
        assert rp.resolve_config(without)["n"] == 2
        with pytest.raises(ValueError, match="form arity does not match n"):
            rp.resolve_config({**raw, "n": 3})

    def test_config_objects(self):
        cfg = rp.resolve_config(rp.load_config(CONFIG))
        form, dual = rp.config_objects(cfg)
        assert form.k.size == 3 and (form.n, form.m) == (2, 2)
        assert dual == "auto"

    def test_prime_power_field(self):
        assert rp.factor_prime_power(9) == (3, 2)
        assert rp.factor_prime_power(7) == (7, 1)
        assert rp.factor_prime_power(2) == (2, 1)
        assert rp.factor_prime_power(3 ** 5) == (3, 5)
        for q in (-4, 0, 1, 12, 2 * 3 ** 4):
            with pytest.raises(ValueError):
                rp.factor_prime_power(q)


class TestSerialization:
    def test_normalize(self):
        from fractions import Fraction
        assert normalize(Fraction(6, 2)) == 3
        assert normalize(Fraction(1, 3)) == "1/3"
        assert normalize((1, 2.0, (True, None))) == [1, 2.0, [True, None]]
        assert normalize(0.12345678901234567) == 0.123456789012

    def test_json_round_trip(self, tmp_path):
        report = {"a": 19683, "b": [1.5, True], "c": {"d": None}}
        path = rp.write_artifact(str(tmp_path), "report.json", report)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert json.loads(text) == normalize(report)
        # streamed into the file, byte for byte the one-shot encoding
        assert text == json.dumps(normalize(report), sort_keys=True,
                                  indent=2) + "\n"

    def test_cell_text(self):
        from fractions import Fraction
        assert rp.cell_text(True) == "true"
        assert rp.cell_text(Fraction(3, 2)) == "3/2"
        assert rp.cell_text(Fraction(4, 2)) == "2"
        assert rp.cell_text(["a", "b"]) == "a;b"
        assert rp.cell_text(("a", 1)) == "a;1"
        assert rp.cell_text(None) == ""
        with pytest.raises(TypeError, match="holds no dict$"):
            rp.cell_text({"a": 1})

    def test_csv_text_fixed_order(self, tmp_path):
        path = rp.write_artifact(str(tmp_path), "t.csv", [{"y": 2, "x": 1}],
                                 columns=["x", "y"])
        text = pathlib.Path(path).read_bytes().decode()
        assert text == "x,y\n1,2\n"

    def test_csv_rows_are_written_as_they_come(self):
        writes = []

        class Recording:
            def write(self, text):
                writes.append(text)

        def keys():
            for i in range(1000):
                # each block of a table's rows is written before the first
                # row of the next block is made
                assert len(writes) == 1 + i // rp.FLUSH_PIECES
                yield i % 2

        table = rp.Table("w", {0: {"x": 0}, 1: {"x": 1.5}}, keys(),
                         map(str, range(1000)))
        rp.write_csv(Recording(), ["x", "w"], table)
        assert "".join(writes) == "x,w\n" + "".join(
            f"{(0, 1.5)[i % 2]},{i}\n" for i in range(1000))

    def test_json_writer_never_normalizes_and_writes_small_pieces(
            self, tmp_path, monkeypatch):
        rows = [{"q": 9, "Delta": i % 3, "pi": "1+T^2", "w": f"{i};0;T;1",
                 "abs_S": i / 7, "bound": Fraction(i, 3), "ratio": -0.0,
                 "pass": i % 2 == 0, "case": None}
                for i in range(20000)]
        report = {"rows": rows, "all_pass": True, "summary": {"rows": 20000}}
        want = oracle_json(report)
        sizes = []

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                sizes.append(len(text))
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        monkeypatch.setattr(rp, "open",
                            lambda *a, **kw: Recording(open(*a, **kw)),
                            raising=False)
        path = rp.write_artifact(str(tmp_path), "big.json", report)
        # digests, so a failure does not diff two 4 MB texts
        got = pathlib.Path(path).read_bytes()
        assert hashlib.sha256(got).hexdigest() \
            == hashlib.sha256(want.encode()).hexdigest()
        assert len(sizes) > 100
        assert max(sizes) <= 64 * 1024


# ---------------------------------------------------------------------------
# the streaming writer and the CSV cells against the one-shot encoding


def oracle_json(obj) -> str:
    return json.dumps(normalize(obj), sort_keys=True, indent=2) + "\n"


def oracle_cell(value) -> str:
    value = normalize(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return ";".join(oracle_cell(v) for v in value)
    return str(value)


class Flag(int):
    """An int subclass whose str is not its digits."""

    def __str__(self):
        return f"Flag({int(self)})"


class Opaque:
    """No JSON type."""

    def __str__(self):
        return "opaque"


def rows_made():
    yield {"x": 1}


# (report, CSV rows, the type the writers refuse in them): an int subclass,
# an arbitrary object, a non-str key and a generator, none of which a
# command builds
REFUSED = [
    ({"x": Flag(1)}, [{"x": Flag(1)}], "Flag"),
    ({"x": [Opaque()]}, [{"x": (Opaque(),)}], "Opaque"),
    ({"x": {1: "one"}}, [{"x": 1, 1: "one"}], "int"),
    ([{None: 1}], ({None: 1},), "NoneType"),
    ({"rows": rows_made()}, rows_made(), "generator"),
]


@pytest.mark.parametrize("report, rows, name", REFUSED, ids=[
    "int-subclass", "object", "int-key", "none-key", "generator"])
def test_writers_refuse_any_other_type(tmp_path, report, rows, name):
    with pytest.raises(TypeError, match=f"holds no {name}$"):
        rp.write_artifact(str(tmp_path), "r.json", report)
    with pytest.raises(TypeError, match=f"holds no {name}$"):
        rp.write_artifact(str(tmp_path), "r.csv", rows, columns=["x"])


# the leaves of a report: JSON's own scalars and Fractions, with the floats
# and texts the encodings treat specially
SPECIAL_SCALARS = [True, False, 0, 1, Fraction(4, 2), Fraction(-1, 3),
                   Fraction(10 ** 20, 7), -0.0, 0.0, 1e16, 5e-324, 0.1 + 0.2,
                   float("inf"), float("-inf"), float("nan"), 1e12 + 0.5,
                   123456.7890123456, None, "", "é ∑ \u2028", "\x00\x1f\"\\/",
                   "\ud800"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.fractions(),
    st.text(), st.sampled_from(SPECIAL_SCALARS))
reports = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=5)),
    max_leaves=40)

MIXED_ROWS = [{"b": 1, "a": [1, 2.5]}, {"a": True, "c": {}}, {},
              {"1": "one", "": "empty", "true": 0}, {"0.5": [], "null": ()},
              {"\x1f0": Fraction(1, 2), "z": (-0.0, None)}]

# scalars that compare and hash equal in groups but render differently: a
# memo of texts keyed by value alone would give one the text of another
HASH_EQUAL = [0.0, -0.0, 0, False, 1, True, 1.0, Fraction(1),
              float("nan"), float("nan")]
ROW_KEYS = ("x", "%s", "y%")  # the % of a key must not reach a template


def equal_scalar_rows(count: int, cells: list) -> list:
    """count rows of one layout whose columns cycle through cells at three
    different strides, so every column mixes them."""
    n = len(cells)
    return [dict(zip(ROW_KEYS, (cells[i % n], cells[i * 5 % n],
                                cells[(i * 7 + 3) % n])))
            for i in range(count)]


# a run longer than FLUSH_PIECES of the table's scalars only, broken by a
# row with another key set and one with a nested value, then a longer run
# of the scalars in the other order
ROW_RUN = (equal_scalar_rows(rp.FLUSH_PIECES + 3, HASH_EQUAL)
           + [{"x": 1}, {"x": -0.0, "%s": [0.0, True], "y%": 1.0}]
           + equal_scalar_rows(2 * rp.FLUSH_PIECES + 1, HASH_EQUAL[::-1]))


@st.composite
def row_runs(draw):
    """More than FLUSH_PIECES rows of one layout, every column mixing some
    of HASH_EQUAL, broken here and there by a row with another key set or
    a nested value."""
    pool = draw(st.lists(st.sampled_from(HASH_EQUAL), min_size=2,
                         unique_by=id))
    cell = st.sampled_from(pool)
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(ROW_KEYS, cell)),
                         min_size=rp.FLUSH_PIECES + 1,
                         max_size=2 * rp.FLUSH_PIECES + 1))
    breaks = st.one_of(st.fixed_dictionaries({"x": cell}),
                       st.fixed_dictionaries({"x": cell, "%s": st.lists(cell),
                                              "y%": cell}))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(breaks))
    return rows


def oracle_csv(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([oracle_cell(row.get(c)) for c in columns])
    return out.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reports)
@example(SPECIAL_SCALARS)
@example({"scalars": SPECIAL_SCALARS, "rows": MIXED_ROWS, "t": (1, (2,)),
          "e": [[], {}, ()], "3": {"x": -0.0}})
@example(MIXED_ROWS)
@example(float("nan"))
@example([{"a": 0, "b": False}, {"a": False, "b": 0}, {"a": 1.0, "b": 1}])
@example({"rows": ROW_RUN, "reversed": ROW_RUN[::-1], "zeros": [0.0, -0.0]})
@example([{"a": -0.0}, {"a": 0.0}, {"a": float("nan")}, {"a": float("nan")}])
def test_writer_bytes_equal_one_shot_json(tmp_path, report):
    path = rp.write_artifact(str(tmp_path), "r.json", report)
    assert pathlib.Path(path).read_bytes() == oracle_json(report).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(scalars, st.lists(scalars, max_size=3),
                          st.lists(scalars, max_size=3).map(tuple)),
                min_size=3, max_size=3))
@example([True, 1, 1.0])
@example([-0.0, 5e-324, float("nan")])
@example([Fraction(4, 2), Fraction(1, 3), [0.1 + 0.2, None, "a,b"]])
@example(["\ud800", "é\n\"", (False, 0)])
@example([0.0, -0.0, 0.0])
@example([1.0, True, Fraction(1)])
@example([float("nan"), float("nan"), 1])
def test_csv_cells_equal_the_normalized_cells(cells):
    assert [rp.cell_text(v) for v in cells] == [oracle_cell(v) for v in cells]
    columns = ["x", "y", "z"]
    # the same key set twice, then the first cell in every column
    rows = [dict(zip(columns, cells)), dict(zip(columns, cells[::-1])),
            {"y": cells[0]}, dict.fromkeys(columns, cells[0])]
    text = io.StringIO()
    rp.write_csv(text, columns, rows)
    assert text.getvalue() == oracle_csv(columns, rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row_runs())
@example(ROW_RUN)
@example([])
def test_row_runs_equal_the_one_shot_encodings(tmp_path, rows):
    # runs longer than a block, whose columns mix hash-equal scalars, in
    # both artifacts, given as a list and as a tuple
    want_json = oracle_json({"rows": rows}).encode()
    want_csv = oracle_csv(list(ROW_KEYS), rows).encode()
    for given_as in (list, tuple):
        path = rp.write_artifact(str(tmp_path), "r.json",
                                 {"rows": given_as(rows)})
        assert pathlib.Path(path).read_bytes() == want_json, given_as
        path = rp.write_artifact(str(tmp_path), "r.json", given_as(rows))
        assert pathlib.Path(path).read_bytes() \
            == oracle_json(rows).encode(), given_as
        path = rp.write_artifact(str(tmp_path), "r.csv", given_as(rows),
                                 columns=list(ROW_KEYS))
        assert pathlib.Path(path).read_bytes() == want_csv, given_as


# ---------------------------------------------------------------------------
# the table route of wd-audit and dual-check against the generic writers


def written(tmp_path, report, columns=None) -> bytes:
    """The bytes write_artifact writes for report (a CSV table of rows with
    columns)."""
    name = "t.csv" if columns else "t.json"
    return pathlib.Path(rp.write_artifact(str(tmp_path), name, report,
                                          columns)).read_bytes()


def diagonal(k, n, m):
    return geo.MultiForm(k, n, m, {tuple(m * (i == j) for j in range(n + 1)):
                                   (k.one,) for i in range(n + 1)})


# (q, ell, n, m, primes): q in {3, 5, 7, 9} and ell in {2, 3} where ell
# divides q - 1; the cubics' dual columns come from the tangency search,
# with "unknown" rows
TABLE_AUDITS = [
    (3, 2, 2, 2, ("T", "1+T^2")),
    (5, 2, 2, 2, ("T", "2+T^2")),
    (7, 2, 2, 2, ("T", "1+T")),
    (7, 3, 2, 3, ("T", "1+T")),
    (9, 2, 2, 2, ("T",)),
]


@pytest.mark.parametrize("q, ell, n, m, primes", TABLE_AUDITS)
def test_audit_table_equals_the_generic_writers(tmp_path, q, ell, n, m,
                                                primes):
    k = rp.field_from_q(q)
    form = diagonal(k, n, m)
    audits = [cs.wd_audit(pr.parse_poly(k, t), ell, form)
              for t in primes]
    assert any(audit["summary"]["cases"]["unknown"]
               for audit in audits) == (m == 3)

    rows = list(itertools.chain.from_iterable(map(audit_rows, audits)))
    assert written(tmp_path, {"rows": cli.audit_table(audits)}) \
        == written(tmp_path, {"rows": rows})
    assert written(tmp_path, cli.audit_table(audits), rp.WD_CSV_COLUMNS) \
        == written(tmp_path, rows, rp.WD_CSV_COLUMNS)


@pytest.mark.parametrize("ws", [
    [(0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 0, 1), (1, 1, 1)],
    [(0, 0, 0)],
    [],
])
def test_audit_table_of_given_ws(tmp_path, ws):
    # repeated ws and w = 0 among them; no ws at all is "rows": [] and a
    # header alone
    k = rp.field_from_q(3)
    audits = [cs.wd_audit(pr.parse_poly(k, "T"), 2, diagonal(k, 2, 2),
                          ws=ws)]
    rows = list(audit_rows(audits[0]))
    assert len(rows) == len(ws)
    assert written(tmp_path, {"rows": cli.audit_table(audits)}) \
        == written(tmp_path, {"rows": rows})
    assert written(tmp_path, cli.audit_table(audits), rp.WD_CSV_COLUMNS) \
        == written(tmp_path, rows, rp.WD_CSV_COLUMNS)
    if not ws:
        assert json.loads(written(tmp_path, {
            "rows": cli.audit_table(audits)}))["rows"] == []
        assert written(tmp_path, cli.audit_table(audits),
                       rp.WD_CSV_COLUMNS) \
            == (",".join(rp.WD_CSV_COLUMNS) + "\n").encode()


@pytest.mark.parametrize("config, pi, search_bound", [
    (CONFIG, "T", 1), (CONFIG, "1+T^2", 2), (str(CUBIC_CONFIG), "T", 1),
    (str(QUADRIC_N3_CONFIG), "T", 1)])
def test_dual_check_table_equals_the_generic_writer(tmp_path, config, pi,
                                                     search_bound):
    # the rows dual-check wrote one dict per nonzero w, in flat order
    code = cli.main(["dual-check", "--config", config, "--pi", pi,
                     "--search-bound", str(search_bound),
                     "--out", str(tmp_path)])
    report = json.loads(read(tmp_path / "dual_check.json"))
    form, dual = rp.config_objects(report["config"])
    k = form.k
    modulus = pr.parse_poly(k, pi)
    columns = zip(cs.covector_texts(pr.residue_field(k, modulus), form.n + 1),
                  geo.dual_column(form, modulus, dual=dual),
                  geo.dual_column(form, modulus, dual="tangency",
                                  search_bound=search_bound))
    rows = [{"w": w, "closed_form": closed,
             "tangency_witness": witness is True,
             "agree": (closed is True) == (witness is True)}
            for w, closed, witness in itertools.islice(columns, 1, None)]
    agree = all(row["agree"] for row in rows)
    assert code == (0 if agree else 1)
    assert written(tmp_path, {
        "config": report["config"], "pi": pi, "search_bound": search_bound,
        "rows": rows, "all_agree": agree}) \
        == (tmp_path / "dual_check.json").read_bytes()


# a class's scalars, hash-equal in groups, and texts that are, or hold, the
# mark of the free column, so the route must pass over them
CLASS_SCALARS = [0, False, 0.0, -0.0, float("nan"), float("inf"),
                 float("-inf"), 1, True, 1.0, Fraction(1, 2), None, "",
                 "%s", "\x1f0", "\x1f1", "a\x1f2b", '"\x1f3"', "a,b"]
FREE_TEXTS = st.one_of(st.text(), st.text(alphabet=[
    ",", '"', "\r", "\n", "%", "s", "\x00", "\x1f", "0", "é", "∑", " ",
    "a"]))
TABLE_KEYS = ("a", "w", "%s", "z")  # "w" is the free column


@st.composite
def tables(draw):
    """(classes, rows as (class key, free text), CSV columns)."""
    value = st.sampled_from(CLASS_SCALARS)
    classes = draw(st.lists(st.fixed_dictionaries(
        {}, optional=dict.fromkeys(("a", "%s", "z"), value)), min_size=1,
        max_size=4))
    rows = draw(st.lists(st.tuples(st.integers(0, len(classes) - 1),
                                   FREE_TEXTS), max_size=2 * rp.FLUSH_PIECES))
    others = draw(st.lists(st.sampled_from(("a", "%s", "z")), unique=True))
    columns = others[:]
    columns.insert(draw(st.integers(0, len(others))), "w")
    return dict(enumerate(classes)), rows, columns


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
@example(({0: {"a": 0, "z": False}, 1: {"a": -0.0, "z": float("nan")}},
          [(0, "x,\"y\"\r\n%"), (1, ""), (0, "\x00é"), (1, "\x1f0")],
          ["w", "a", "z"]))
@example(({0: {"a": "\x1f0", "z": "\x1f1"}}, [(0, "")], ["z", "w", "a"]))
@example(({0: {}}, [(0, ""), (0, "a")], ["w"]))
@example(({0: {"a": 1}}, [], ["a", "w"]))
def test_table_equals_the_one_shot_encodings(tmp_path, table):
    classes, rows, columns = table
    dicts = [{**classes[key], "w": text} for key, text in rows]

    def make():
        return rp.Table("w", classes, (key for key, _ in rows),
                        (text for _, text in rows))
    assert written(tmp_path, {"rows": make(), "n": 1}) \
        == oracle_json({"rows": dicts, "n": 1}).encode()
    assert written(tmp_path, make()) == oracle_json(dicts).encode()
    try:
        want = oracle_csv(columns, dicts).encode()
    except csv.Error:  # a NUL, which csv.writer refuses before Python 3.11
        with pytest.raises(csv.Error):
            written(tmp_path, make(), columns)
    else:
        assert written(tmp_path, make(), columns) == want


def test_table_needs_its_free_column(tmp_path):
    table = rp.Table("w", {0: {"a": 1}}, [0], ["x"])
    with pytest.raises(ValueError, match="no column 'w'"):
        rp.write_artifact(str(tmp_path), "t.csv", table, columns=["a"])


class TestCommands:
    def test_primes(self, tmp_path, capsys):
        code = cli.main(["primes", "--q", "3", "--delta", "2",
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[:3] == ["1+T^2", "2+T+T^2", "2+2*T+T^2"]
        assert "pass" in out
        data = json.loads(read(tmp_path / "primes.json"))
        assert data["primes"] == ["1+T^2", "2+T+T^2", "2+2*T+T^2"]
        assert data["pnt"]["pass"] is True

    def test_primes_enumeration_checked_against_count(self, tmp_path,
                                                      monkeypatch, capsys):
        # an enumeration that drops a prime disagrees with the Moebius count
        irreducibles = pr.irreducibles
        monkeypatch.setattr(pr, "irreducibles",
                            lambda k, d: irreducibles(k, d)[1:])
        code = cli.main(["primes", "--q", "3", "--delta", "2",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "2 irreducibles enumerated, the Moebius count is 3" \
            in capsys.readouterr().err
        assert not (tmp_path / "primes.json").exists()

    def test_charsum_frozen(self, tmp_path, capsys):
        code = cli.main(["charsum", "--config", CONFIG, "--pi", "T",
                         "--chi", "1", "--w", "0;0;0",
                         "--out", str(tmp_path)])
        assert code == 0
        assert "S = -6" in capsys.readouterr().out
        data = json.loads(read(tmp_path / "charsum.json"))
        assert data["as_int"] == -6
        assert data["abs"] == 6.0
        assert data["pass"] is True

    @pytest.mark.parametrize("argv", (
        ["--w", "1;T"], ["--w", "1;T;2;1"], ["--chi", "2"], ["--chi", "-1"]))
    def test_charsum_outside_input_is_two(self, tmp_path, monkeypatch,
                                          capsys, argv):
        # a covector of the wrong length or a character index outside
        # range(ell) would read the wrong sum; both are refused first
        forbid(monkeypatch, cs.CharSumContext, "__init__")
        code = cli.main(["charsum", "--config", CONFIG, *argv,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "0 <= --chi < 2" in capsys.readouterr().err
        assert not (tmp_path / "charsum.json").exists()

    @pytest.mark.parametrize("w, want", (("0;0;0", 729), ("1;T;2+T", 0)))
    def test_charsum_principal_character(self, tmp_path, w, want):
        # chi_0 is 1 at every point, zeros of G included: the sum of
        # psi_infty(-w.a/pi) over k_pi^3 is 9^3 at w = 0 and 0 elsewhere
        code = cli.main(["charsum", "--config", CONFIG, "--pi", "1+T^2",
                         "--chi", "0", "--w", w, "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(read(tmp_path / "charsum.json"))["as_int"] == want

    def test_gauss(self, tmp_path):
        code = cli.main(["gauss", "--q", "3", "--ell", "2",
                         "--pi", "1+T^2", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "gauss.json"))
        assert data["lhs"] == [9]
        assert data["equal"] is True

    def test_identity_check(self, tmp_path):
        code = cli.main(["identity-check", "--config", CONFIG,
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "identity_check.json"))
        assert data["all_pass"] is True
        by_id = {}
        for row in data["rows"]:
            by_id[row["id"]] = by_id.get(row["id"], 0) + 1
        assert by_id["count-mod"] >= 20
        assert by_id["completion"] >= 5
        assert by_id["root-count"] == 6  # every prime of degree <= 2
        assert by_id["unramified-expansion"] == 1
        assert "skipped" not in data

    def test_identity_check_names_a_skipped_expansion(self, tmp_path,
                                                      capsys):
        # 1+T^2 and 2+T+T^2 divide a coefficient, so the scan leaves one
        # quadratic prime and the unramified expansion has no pair to run
        form = {"n": 2, "m": 2, "terms": [
            {"exps": [2, 0, 0], "coeff": "1"},
            {"exps": [0, 2, 0], "coeff": "1+T^2"},
            {"exps": [0, 0, 2], "coeff": "2+T+T^2"}]}
        code = cli.main(["identity-check", "--config", CONFIG, "--form",
                         json.dumps(form), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert ("unramified-expansion: skipped, needs two sieving primes, "
                "the scan leaves 1\nidentity suite: pass\n") in out
        data = json.loads(read(tmp_path / "identity_check.json"))
        assert data["skipped"] == [{
            "id": "unramified-expansion",
            "reason": "needs two sieving primes, the scan leaves 1"}]
        assert "unramified-expansion" not in {row["id"]
                                              for row in data["rows"]}
        assert data["all_pass"] is True

    def test_f4_cubic_identity_check_and_sieve_run(self, tmp_path, capsys):
        # characteristic 2: count-mod reads its sums in Z[zeta_2, zeta_3],
        # since Z[zeta_2, zeta_2] is no ring; both commands pass and write
        # the pinned bytes
        config = json.loads(CUBIC_CONFIG.read_text(encoding="utf-8"))
        config.update(F4_CUBIC)
        path = tmp_path / "f4.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        for command in ("identity-check", "sieve-run"):
            assert cli.main([command, "--config", str(path),
                             "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "identity suite: pass" in printed
        assert "M=35344 " in printed
        assert "sieve inequalities: pass" in printed
        rows = json.loads(read(out / "identity_check.json"))["rows"]
        assert len(rows) == 47
        for name, want in F4_CUBIC_DIGESTS.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == want, name

    @pytest.mark.parametrize("q, delta", ((4, 1), (4, 2), (9, 1), (9, 2)))
    def test_every_printed_prime_is_taken_back(self, tmp_path, capsys, q,
                                               delta):
        # primes writes each coefficient as its element index, 0..q-1, and
        # --pi reads it back: gauss mod each prime over F_4 (ell = 3) and
        # F_9 (ell = 2) prints the text it was given
        assert cli.main(["primes", "--q", str(q), "--delta", str(delta),
                         "--out", str(tmp_path)]) == 0
        primes = json.loads(read(tmp_path / "primes.json"))["primes"]
        capsys.readouterr()
        ell = 3 if q == 4 else 2
        for text in primes:
            assert cli.main(["gauss", "--q", str(q), "--ell", str(ell),
                             "--pi", text, "--out", str(tmp_path)]) == 0
            assert json.loads(read(tmp_path / "gauss.json"))["params"][
                "pi"] == text
        # some prime has a coefficient outside the prime field
        k = pr.make_field(*{4: (2, 2), 9: (3, 2)}[q])
        assert any(max(pr.parse_poly(k, text)) >= k.char for text in primes)

    def test_charsum_reads_an_f9_coefficient(self, tmp_path, capsys):
        # 5+T is prime over F_9, and 5 is the index of an element outside F_3
        assert cli.main(["charsum", "--config", CONFIG, "--q", "9",
                         "--pi", "5+T", "--out", str(tmp_path)]) == 0
        assert json.loads(read(tmp_path / "charsum.json"))["pi"] == "5+T"

    def test_wd_audit(self, tmp_path):
        code = cli.main(["wd-audit", "--config", CONFIG,
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "wd_audit.json"))
        assert data["all_pass"] is True
        assert [a["pi"] for a in data["audits"]] == ["T", "1+T^2"]
        assert data["audits"][0]["summary"]["rows"] == 27
        assert data["audits"][1]["summary"]["rows"] == 729
        csv_lines = read(tmp_path / "wd_audit.csv").splitlines()
        assert csv_lines[0] == ",".join(rp.WD_CSV_COLUMNS)
        assert len(csv_lines) == 1 + 27 + 729
        # byte for byte; the CSV digest is the benchmark's reference digest
        # of the same run
        for name, want in WD_REFERENCE_DIGESTS.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == want, name

    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_sieve_run_reference_digests(self, tmp_path, workers):
        assert cli.main(["sieve-run", "--config", CONFIG, "--workers",
                         workers, "--out", str(tmp_path)]) == 0
        for name, want in SIEVE_REFERENCE_DIGESTS.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == want, name

    def test_identity_check_reference_digest(self, tmp_path):
        assert cli.main(["identity-check", "--config", CONFIG,
                         "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "identity_check.json").read_bytes())
        assert got.hexdigest() == IDENTITY_REFERENCE_DIGEST

    def test_wd_audit_cubic_ell3_frozen(self, tmp_path, capsys):
        config = tmp_path / "cubic.json"
        config.write_bytes(CUBIC_CONFIG.read_bytes())
        out = tmp_path / "out"
        code = cli.main(["wd-audit", "--config", str(config), "--pi", "T",
                         "--pi", "1+T", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert ("pi=T: rows=686 cases={'i': 2, 'ii': 108, 'iii': 0, "
                "'unknown': 576}") in printed
        for name, want in CUBIC_WD_DIGESTS.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == want, name

    def test_wd_audit_quaternary_frozen(self, tmp_path):
        config = tmp_path / "quadric.json"
        config.write_bytes(QUADRIC_N3_CONFIG.read_bytes())
        out = tmp_path / "out"
        code = cli.main(["wd-audit", "--config", str(config), "--pi", "T",
                         "--pi", "1+T^2", "--out", str(out)])
        assert code == 0
        for name, want in QUATERNARY_WD_DIGESTS.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == want, name

    def test_dual_check_cubic_frozen(self, tmp_path):
        config = tmp_path / "cubic.json"
        config.write_bytes(CUBIC_CONFIG.read_bytes())
        out = tmp_path / "out"
        code = cli.main(["dual-check", "--config", str(config), "--pi", "T",
                         "--out", str(out)])
        assert code == 0
        got = hashlib.sha256((out / "dual_check.json").read_bytes())
        assert got.hexdigest() == CUBIC_DUAL_DIGEST

    def test_exc_primes_frozen(self, tmp_path):
        cubic = tmp_path / "cubic.json"
        cubic.write_bytes(CUBIC_CONFIG.read_bytes())
        nondiag = tmp_path / "nondiag"
        nondiag.mkdir()
        runs = {
            "quadric": ["--config", CONFIG],
            "cubic": ["--config", str(cubic)],
            "nondiag": ["--config", write_config(
                nondiag, {**NONDIAG_CUBIC, "search_bound": 1}),
                "--delta-max", "1"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            assert cli.main(["exc-primes", *argv, "--out", str(out)]) == 0
            got = hashlib.sha256((out / "exc_primes.json").read_bytes())
            assert got.hexdigest() == EXC_PRIMES_DIGESTS[name], name

    def test_dual_check_tower_digest(self, tmp_path):
        # search_bound 2 walks P^2 over F_9 and over the tower F_81
        assert cli.main(["dual-check", "--config", CONFIG, "--pi", "1+T^2",
                         "--search-bound", "2", "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "dual_check.json").read_bytes())
        assert got.hexdigest() == TOWER_DUAL_DIGEST

    def test_dual_check_reference_digest(self, tmp_path):
        assert cli.main(["dual-check", "--config", CONFIG, "--pi", "T",
                         "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "dual_check.json").read_bytes())
        assert got.hexdigest() == REFERENCE_DUAL_DIGEST

    def test_wd_audit_q5_fits_default_budget(self, tmp_path):
        code = cli.main(["wd-audit", "--config", CONFIG, "--q", "5",
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "wd_audit.json"))
        assert data["all_pass"] is True
        assert [a["summary"]["rows"] for a in data["audits"]] == [125, 15625]
        assert len(read(tmp_path / "wd_audit.csv").splitlines()) \
            == 1 + 125 + 15625

    def test_dual_check(self, tmp_path):
        code = cli.main(["dual-check", "--config", CONFIG, "--pi", "T",
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "dual_check.json"))
        assert data["all_agree"] is True
        assert len(data["rows"]) == 26  # nonzero covectors mod T

    def test_exc_primes(self, tmp_path):
        code = cli.main(["exc-primes", "--config", CONFIG,
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "exc_primes.json"))
        assert data["exceptional"] == []
        assert data["scanned"] == 6

    def test_exc_primes_flags_degenerate_prime(self, tmp_path):
        form = {"n": 2, "m": 2, "terms": [
            {"exps": [2, 0, 0], "coeff": "T"},
            {"exps": [0, 2, 0], "coeff": "1"},
            {"exps": [0, 0, 2], "coeff": "1"}]}
        code = cli.main(["exc-primes", "--config", CONFIG,
                         "--form", json.dumps(form),
                         "--delta-max", "1", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "exc_primes.json"))
        assert "T" in data["exceptional"]

    def test_count_frozen(self, tmp_path):
        code = cli.main(["count", "--config", CONFIG, "--b", "1",
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "count.json"))
        assert data["M"] == 15
        assert data["trivial_bound"] == 27

    def test_count_empty_box(self, tmp_path):
        # b = 0: the box holds the zero vector alone, and F(0) = 0 is an
        # ell-th power
        code = cli.main(["count", "--config", CONFIG, "--b", "0",
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "count.json"))
        assert data["M"] == 1
        assert data["trivial_bound"] == 1
        assert hashlib.sha256(read(tmp_path / "count.json").encode()) \
            .hexdigest() == COUNT_B0_DIGEST

    def test_sieve_run_frozen(self, tmp_path):
        code = cli.main(["sieve-run", "--config", CONFIG,
                         "--out", str(tmp_path)])
        assert code == 0
        data = json.loads(read(tmp_path / "sieve_report.json"))
        assert data["pass"] is True
        assert data["sieve"]["M"] == 927
        assert data["sieve"]["rhs"] == 12717
        assert data["general"]["argmin_alpha"] == 1
        csv_lines = read(tmp_path / "sieve_report.csv").splitlines()
        assert csv_lines[0].startswith("q,delta,")
        assert csv_lines[0].endswith(",general_all_pass")
        assert csv_lines[1] == ("3,2,2,2,2,3,19683,19683,927,6561,4374,"
                                "1782,12717,1+T^2;2+T+T^2;2+2*T+T^2,1,"
                                "true,true,true,true,true,true")

    def test_sieve_run_worker_independence(self, tmp_path, monkeypatch):
        # one pair pays for a fork here, so 3 workers fork 2 children
        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["sieve-run", "--config", CONFIG, "--workers", "1",
                         "--out", str(out1)]) == 0
        assert cli.main(["sieve-run", "--config", CONFIG, "--workers", "3",
                         "--out", str(out2)]) == 0
        assert read(out1 / "sieve_report.json") == read(
            out2 / "sieve_report.json")
        assert read(out1 / "sieve_report.csv") == read(
            out2 / "sieve_report.csv")

    def test_repeat_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli.main(["wd-audit", "--config", CONFIG, "--pi", "T",
                             "--out", str(out)]) == 0
        assert read(out1 / "wd_audit.json") == read(out2 / "wd_audit.json")
        assert read(out1 / "wd_audit.csv") == read(out2 / "wd_audit.csv")


class TestExitCodes:
    def test_budget_exceeded_is_three(self, tmp_path, capsys):
        code = cli.main(["count", "--config", CONFIG, "--b", "5",
                         "--budget", "1000000", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "14348907" in err  # the required budget is printed

    def test_failed_worker_is_four(self, tmp_path, monkeypatch, capsys):
        # with 2 workers, and one pair enough to pay for a fork, share 0 of
        # the last convolution is the forked child's
        share_of = sv.convolve_share

        def failing(adder, operands, plan=None, share=0):
            if share == 0:
                raise ZeroDivisionError("child share")
            return share_of(adder, operands, plan, share)

        monkeypatch.setattr(rp, "FORK_PAIRS", 1)
        monkeypatch.setattr(sv, "convolve_share", failing)
        code = cli.main(["sieve-run", "--config", CONFIG, "--workers", "2",
                         "--out", str(tmp_path)])
        assert code == 4
        assert "internal error: the worker for share 1 of 2 " \
            in capsys.readouterr().err
        assert not (tmp_path / "sieve_report.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_config_error_is_two(self, tmp_path, capsys):
        code = cli.main(["sieve-run", "--config", CONFIG, "--ell", "3",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "ell" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ("0", "-1"))
    def test_workers_below_one_is_two(self, tmp_path, monkeypatch, capsys,
                                      workers):
        forbid(monkeypatch, os, "fork")
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        code = cli.main(["sieve-run", "--config", CONFIG, "--workers",
                         workers, "--out", str(tmp_path)])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_sieve_params_checked_before_scan(self, tmp_path, monkeypatch,
                                              capsys):
        # --b 8 gives delta 5, beyond the shipped delta_max of 2
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main(["sieve-run", "--config", CONFIG, "--b", "8",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "delta_max" in capsys.readouterr().err

    def test_sieve_budget_charged_before_scan(self, tmp_path, monkeypatch,
                                              capsys):
        path = config_without_delta_max(tmp_path)  # delta_max = delta = 5
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main(["sieve-run", "--config", path, "--b", "8",
                         "--out", str(tmp_path)])
        assert code == 3
        assert f"needs {3 ** 24}," in capsys.readouterr().err

    def test_identity_box_budget_is_three(self, tmp_path, monkeypatch,
                                          capsys):
        path = config_without_delta_max(tmp_path)
        forbid(monkeypatch, ids, "verify_root_count")
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        code = cli.main(["identity-check", "--config", path, "--b", "6",
                         "--out", str(tmp_path)])
        assert code == 3
        # the rows and the scan share one budget, and the box of 3^18
        # points is charged to it before either
        assert f"needs {3 ** 18}," in capsys.readouterr().err

    def test_dual_check_covector_walk_is_three(self, tmp_path, monkeypatch,
                                               capsys):
        forbid(monkeypatch, geo, "dual_column")
        code = cli.main(["dual-check", "--config", CONFIG, "--pi", "1+T^2",
                         "--budget", "1000", "--out", str(tmp_path)])
        assert code == 3
        # the closed-form quadric tabulates its dual on the 9^3 covectors,
        # the tangency column searches P^2(F_9), and the walk visits the
        # 9^3 - 1 nonzero covectors
        assert f"needs {9 ** 3 + 9 ** 2 + 9 + 1 + 9 ** 3 - 1}," \
            in capsys.readouterr().err
        assert not (tmp_path / "dual_check.json").exists()

    def test_primes_budget_exceeded_is_three(self, tmp_path, capsys):
        # priced before the sieve allocates 7^9 marks
        code = cli.main(["primes", "--q", "7", "--delta", "9",
                         "--out", str(tmp_path)])
        assert code == 3
        assert "121060821" in capsys.readouterr().err

    def test_missing_flags_is_two(self, tmp_path):
        assert cli.main(["primes", "--out", str(tmp_path)]) == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["nosuch"])
        assert info.value.code == 2

    def test_missing_config_file_is_two(self, tmp_path):
        code = cli.main(["sieve-run", "--config",
                         str(tmp_path / "absent.json"),
                         "--out", str(tmp_path)])
        assert code == 2


# a binary quadric: the dual of a form in three variables needs three
UNIT_QUADRIC = json.loads(read(CONFIG))["form"]
BINARY_DUAL = {"n": 1, "m": 2, "terms": [{"exps": [2, 0], "coeff": "1"},
                                         {"exps": [0, 2], "coeff": "1"}]}

# (command and flags, config patch, fragment of the error message)
CONFIG_ERRORS = [
    (["sieve-run"], {"delta_max": 0}, "delta_max must be at least 1"),
    (["exc-primes", "--delta-max", "0"], {}, "delta_max must be at least 1"),
    (["exc-primes", "--delta-max", "-1"], {}, "delta_max must be at least 1"),
    (["exc-primes"], {"search_bound": 0}, "search_bound must be at least 1"),
    (["wd-audit", "--pi", "T"], {"dual": BINARY_DUAL},
     "dual form arity does not match n"),
    (["sieve-run"], {"deltamax": 2}, "unknown config keys ['deltamax']"),
    (["exc-primes"], {"search-bound": 1},
     "unknown config keys ['search-bound']"),
    (["count", "--b", "1"], {"m": 4}, "is not the form's degree 2"),
    (["dual-check", "--search-bound", "0"], {},
     "search_bound must be at least 1"),
    (["dual-check", "--pi", "T^2"], {}, "modulus must be a monic irreducible"),
    (["count", "--b", "-1"], {}, "b must be nonnegative, got -1"),
    (["count", "--b", "2"], {"p": None}, "p must be an integer, got null"),
    (["count", "--b", "2"], {"n": None}, "n must be an integer, got null"),
    (["sieve-run"], {"delta_max": [2]},
     "delta_max must be an integer, got [2]"),
    (["sieve-run"], {"budget": {}}, "budget must be an integer, got {}"),
    (["count", "--b", "2"], {"p": "three"},
     'p must be an integer, got "three"'),
    (["count", "--b", "2"], {"q": 9, "p": ABSENT, "e": 1},
     "q = 9 does not match p^e = 3^1"),
    (["count"], {"b": 2.5}, "b must be an integer, got 2.5"),
    (["count", "--b", "2"], {"ell": True}, "ell must be an integer, got true"),
    (["count", "--b", "2"], {"n": 2.0}, "n must be an integer, got 2.0"),
    (["sieve-run"], {"delta": 2.0}, "delta must be an integer, got 2.0"),
    (["count", "--b", "2"], {"form": {**UNIT_QUADRIC, "n": 2.5}},
     "form n must be an integer, got 2.5"),
    (["count", "--b", "2"], {"form": {**UNIT_QUADRIC, "terms": [
        {"exps": [2.5, 0, 0], "coeff": "1"}]}},
     "form exponent must be an integer, got 2.5"),
    (["wd-audit", "--pi", "T"], {"dual": {**UNIT_QUADRIC, "m": False}},
     "form m must be an integer, got false"),
    (["sieve-run", "--b", "1"], {},
     "need delta < b < 2*delta, got delta = 0, b = 1"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("argv, patch, fragment", CONFIG_ERRORS)
    def test_config_error_before_any_scan(self, tmp_path, monkeypatch,
                                          capsys, argv, patch, fragment):
        path = write_config(tmp_path, patch)
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main([*argv, "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ["count", "--config", CONFIG, "--workers", "2"],
        ["primes", "--q", "3", "--delta", "2", "--config", CONFIG],
        ["gauss", "--q", "3", "--ell", "2", "--b", "3"],
        ["count", "--config", CONFIG, "--n", "2"],
    ))
    def test_flag_a_command_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    def test_identity_params_checked_before_first_row(self, tmp_path,
                                                      monkeypatch, capsys):
        forbid(monkeypatch, ids, "verify_root_count")
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        code = cli.main(["identity-check", "--config", CONFIG, "--b", "8",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "delta_max" in capsys.readouterr().err


class TestUpFrontBudgets:
    def test_wd_audit_charged_before_first_sum(self, tmp_path, monkeypatch,
                                               capsys):
        forbid(monkeypatch, cs.CharSumContext, "sums")
        code = cli.main(["wd-audit", "--config", CONFIG, "--pi", "1+T^2",
                         "--budget", "75000", "--out", str(tmp_path)])
        assert code == 3
        # the table of G on 9^3 points, then the transform: 6 base-3 digits,
        # 3 * 2 layers, 3 outputs of 3 blocks each; then the dual quadric's
        # table on the 9^3 covectors
        assert f"needs {9 ** 3 + 6 * 2 * 3 * 3 * 9 ** 3 + 9 ** 3}," \
            in capsys.readouterr().err

    def test_wd_audit_prices_every_prime_first(self, tmp_path, monkeypatch,
                                               capsys):
        forbid(monkeypatch, cs.CharSumContext, "sums")
        code = cli.main(["wd-audit", "--config", CONFIG, "--pi", "T",
                         "--pi", "1+T^2", "--budget", "75000",
                         "--out", str(tmp_path)])
        assert code == 3
        needs = (3 ** 3 + 3 * 2 * 3 * 3 * 3 ** 3 + 3 ** 3
                 + 9 ** 3 + 6 * 2 * 3 * 3 * 9 ** 3 + 9 ** 3)
        assert f"needs {needs}," in capsys.readouterr().err

    def test_scan_searches_charged_before_first_prime(self, tmp_path,
                                                      monkeypatch, capsys):
        # neither diagonal nor a quadric, so each prime gets one walk over
        # P^2 of F_7, F_49, F_343 and F_2401 for its smoothness and Dwork
        # checks
        path = write_config(tmp_path, {
            "p": 7, "ell": 3, "delta_max": 1,
            "form": {"n": 2, "m": 3, "terms": [
                {"exps": [3, 0, 0], "coeff": "1"},
                {"exps": [0, 3, 0], "coeff": "2"},
                {"exps": [0, 0, 3], "coeff": "1"},
                {"exps": [1, 1, 1], "coeff": "1"}]}})
        forbid(monkeypatch, geo, "_extension_points")
        code = cli.main(["exc-primes", "--config", path,
                         "--budget", "100000", "--out", str(tmp_path)])
        assert code == 3
        points = sum(7 ** (2 * r) + 7 ** r + 1 for r in range(1, 5))
        assert points == 5887704
        # the 7 linear primes, then the 7 residues and one walk for each
        assert f"needs {7 + 7 * (7 + points)}," in capsys.readouterr().err

    def test_dual_check_prices_the_tangency_search(self, tmp_path,
                                                   monkeypatch, capsys):
        path = write_config(tmp_path, NONDIAG_CUBIC)
        forbid(monkeypatch, geo, "_extension_points")
        code = cli.main(["dual-check", "--config", path, "--pi", "T",
                         "--search-bound", "2", "--budget", "1",
                         "--out", str(tmp_path)])
        assert code == 3
        # the auto dual searches P^2(F_7) first
        assert f"needs {7 ** 2 + 7 + 1}," in capsys.readouterr().err

    def test_wd_audit_prices_the_tangency_search(self, tmp_path,
                                                 monkeypatch, capsys):
        path = write_config(tmp_path, NONDIAG_CUBIC)
        forbid(monkeypatch, geo, "_extension_points")
        forbid(monkeypatch, cs.CharSumContext, "sums")
        # the table of G on 7^3 points, the transform (3 base-7 digits,
        # 7 * 3 layers, 7 outputs of 7 blocks) and P^2(F_7)
        needs = 7 ** 3 + 3 * 3 * 7 * 7 * 7 ** 3 + 7 ** 2 + 7 + 1
        code = cli.main(["wd-audit", "--config", path, "--pi", "T",
                         "--budget", str(needs - 1), "--out", str(tmp_path)])
        assert code == 3
        assert f"needs {needs}," in capsys.readouterr().err

    def test_charsum_priced_before_residue_tables(self, tmp_path,
                                                  monkeypatch, capsys):
        forbid(monkeypatch, cs.CharSumContext, "__init__")
        forbid(monkeypatch, pr, "residue_field")
        code = cli.main(["charsum", "--config", CONFIG, "--pi", "2+T^2+T^7",
                         "--budget", "1", "--out", str(tmp_path)])
        assert code == 3
        # the table of G and the projection on the line of w, each over
        # k_pi^3 with Q = 3^7, then one pass over 3 * 2 layers of 3
        assert f"needs {2 * 3 ** 21 + 2 * 3 * 3 * 3}," \
            in capsys.readouterr().err

    def test_gauss_priced_before_residue_field(self, tmp_path, monkeypatch,
                                               capsys):
        # 1 + 2T + T^17 is irreducible over F_3: the residue tables over
        # the 3^17 residues and one Gauss sum over them pass the default
        # budget, so the run is refused before k_pi is built
        forbid(monkeypatch, pr, "residue_field")
        code = cli.main(["gauss", "--q", "3", "--ell", "2",
                         "--pi", "1+2*T+T^17", "--out", str(tmp_path)])
        assert code == 3
        assert f"needs {2 * 3 ** 17}, limit {rp.DEFAULT_BUDGET};" \
            in capsys.readouterr().err
        assert not (tmp_path / "gauss.json").exists()

    def test_dual_check_priced_before_residue_field(self, tmp_path,
                                                    monkeypatch, capsys):
        # k_pi builds its tables when it is made, so an oversize modulus
        # is refused by the budget before any field is built
        forbid(monkeypatch, pr, "residue_field")
        # the closed-form quadric tabulates its dual on the 3^21 covectors,
        # the tangency column searches P^2(F_(3^7)), and the walk visits the
        # 3^21 - 1 nonzero covectors; the budget covers the two columns
        tests = 3 ** 21 + 3 ** 14 + 3 ** 7 + 1
        code = cli.main(["dual-check", "--config", CONFIG,
                         "--pi", "2+T^2+T^7", "--budget", str(tests),
                         "--out", str(tmp_path)])
        assert code == 3
        assert f"needs {tests + 3 ** 21 - 1}," in capsys.readouterr().err

    def test_wd_audit_prices_the_default_primes(self, tmp_path, monkeypatch,
                                                capsys):
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main(["wd-audit", "--config", CONFIG, "--budget", "1",
                         "--out", str(tmp_path)])
        assert code == 3
        needs = pr.irreducibles_cost(3, 1) + pr.irreducibles_cost(3, 2)
        assert f"needs {needs}," in capsys.readouterr().err

    def test_identity_check_prices_its_primes(self, tmp_path, monkeypatch,
                                              capsys):
        # the expansion box of 3^9 points fits the budget exactly; the
        # primes of degree <= 2 that the rows run over, and a pass over the
        # residues of each, come after it and before any enumeration
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main(["identity-check", "--config", CONFIG,
                         "--budget", str(3 ** 9), "--out", str(tmp_path)])
        assert code == 3
        needs = (3 ** 9 + pr.irreducibles_cost(3, 1)
                 + pr.irreducibles_cost(3, 2) + 3 * 2 * 3 + 3 * 2 * 9)
        assert f"needs {needs}," in capsys.readouterr().err

    def test_identity_check_price_is_the_sum_of_its_parts(
            self, tmp_path, monkeypatch, capsys):
        transform = 3 * 2 * 3 * 3 * 3 ** 3  # mod a linear prime
        transform2 = 6 * 2 * 3 * 3 * 9 ** 3  # mod a quadratic prime
        # mod a quadratic prime on a span of dimension 3: the table, the
        # projection on each basis vector, 3 passes over 3^3 counters
        span3 = 9 ** 3 + 3 * 9 ** 3 + 3 * 2 * 3 * 3 * 3 ** 3
        parts = [
            3 ** 9,  # the box of the unramified expansion, b = 3
            3 + (9 + 3 * 3),  # the primes of degree 1 and 2
            # mod each, the residue tables (which the root counts read too)
            # and one Gauss sum: ell = 2 passes over the residues
            3 * 2 * 3 + 3 * 2 * 9,
            # count-mod: 3 targets, three moduli of degree 2 (b = 1) and
            # two of degree 3 (b = 1, 2), each row one pass over
            # {deg x < b} and one over {deg y < deg u - b} per coordinate
            3 * 3 * (3 * (3 + 3) + 2 * 2 * (3 + 9)),
            # five completions mod linear primes, b = 1: the box, the
            # complementary box, and the table of G and the transform mod
            # each prime
            5 * (27 + 27 + 2 * (27 + transform)),
            # the mixed-degree completions: with b = 1 the complementary
            # box spans every w mod both primes, with b = 2 it spans 3 of
            # the 6 dimensions mod the quadratic prime
            27 + 729 + 27 + transform + 729 + transform2,
            729 + 27 + 27 + transform + span3,
            # the character side of the expansion mod two quadratic primes
            27 + 2 * span3,
            3 + (9 + 3 * 3),  # the scan's primes
            3 * 3 + 3 * 9,  # their residues; a quadric searches none
        ]
        price = sum(parts)
        assert price == 132639
        forbid(monkeypatch, geo, "compute_exceptional_primes")
        code = cli.main(["identity-check", "--config", CONFIG,
                         "--budget", str(price - 1), "--out", str(tmp_path)])
        assert code == 3
        assert f"needs {price}, limit {price - 1};" in capsys.readouterr().err
        monkeypatch.undo()
        out = tmp_path / "exact"
        assert cli.main(["identity-check", "--config", CONFIG,
                         "--budget", str(price), "--out", str(out)]) == 0

    def test_cubic_identity_check_refused_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # the battery on the F_7 cubic is priced at 43 122 891, and the
        # scan's 7 + 21 primes of degree <= 2 and their 7 * 7 + 21 * 49
        # residues after it; a budget one short of the whole is refused
        # before any box pass or residue-field sum, and no artifact is
        # written
        price = 43122891 + pr.irreducibles_cost(7, 1) \
            + pr.irreducibles_cost(7, 2) + 7 * 7 + 21 * 49
        assert price == 43124074
        forbid(monkeypatch, cs.CharSumContext, "__init__")
        forbid(monkeypatch, sv, "box_convolution")
        code = cli.main(["identity-check", "--config", str(CUBIC_CONFIG),
                         "--budget", "43124073", "--out", str(tmp_path)])
        assert code == 3
        assert "needs 43124074, limit 43124073;" in capsys.readouterr().err
        assert not (tmp_path / "identity_check.json").exists()

    def test_scan_prime_enumeration_charged_first(self, tmp_path,
                                                 monkeypatch, capsys):
        forbid(monkeypatch, pr, "irreducibles")
        code = cli.main(["exc-primes", "--config", CONFIG, "--delta-max",
                         "20", "--out", str(tmp_path)])
        assert code == 3
        needs = sum(pr.irreducibles_cost(3, d) for d in range(1, 21))
        assert needs > 3 ** 20
        assert f"needs {needs}," in capsys.readouterr().err

    def test_sieve_run_prices_the_scan(self, tmp_path, monkeypatch,
                                       capsys):
        # the box of 7^9 points fits the default budget, the searches over
        # P^2 of F_49^4 for the quadratic primes do not
        path = write_config(tmp_path, {
            "p": 7, "ell": 3, "b": 3, "delta_max": 2,
            "form": {"n": 2, "m": 3, "terms": [
                {"exps": [3, 0, 0], "coeff": "1"},
                {"exps": [0, 3, 0], "coeff": "1"},
                {"exps": [1, 1, 1], "coeff": "1"}]}})
        forbid(monkeypatch, geo, "_extension_points")
        code = cli.main(["sieve-run", "--config", path,
                         "--out", str(tmp_path)])
        assert code == 3
        needs = re.search(r"needs (\d+),", capsys.readouterr().err)
        assert int(needs.group(1)) > 49 ** 8


def test_sieve_run_checks_root_tables_by_characters(tmp_path, monkeypatch,
                                                    capsys):
    real = sv.residue_data

    def corrupted(k, pi, ell):
        data = copy.copy(real(k, pi, ell))
        data.root_count = list(data.root_count)
        data.root_count[1] += 1
        return data

    monkeypatch.setattr(sv, "residue_data", corrupted)
    code = cli.main(["sieve-run", "--config", CONFIG, "--out", str(tmp_path)])
    assert code == 1
    assert "fiber routes disagree" in capsys.readouterr().err


class TestParser:
    """main builds the flags of the command it runs only; its help and its
    usage errors are those of the parser with every command's flags."""

    @staticmethod
    def outcome(run, argv, capsys) -> tuple:
        """(exit code, stdout, stderr) of run(argv), which exits."""
        with pytest.raises(SystemExit) as info:
            run(argv)
        out = capsys.readouterr()
        return info.value.code, out.out, out.err

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [name, "--help"] for name in cli.COMMANDS] + [
        ["bogus"], ["primes", "--workers", "2"], ["gauss", "--config", "x"],
        ["count", "--delta-max", "3"], ["sieve-run", "--pi", "T"]],
        ids=" ".join)
    def test_help_and_usage_errors_equal_the_full_parser(
            self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        full = cli.build_parser(cli.COMMANDS).parse_args
        built = []
        build = cli.build_parser

        def recording(commands=()):
            built.append(list(commands))
            return build(commands)

        monkeypatch.setattr(cli, "build_parser", recording)
        code, out, err = self.outcome(cli.main, argv, capsys)
        assert (code, out, err) == self.outcome(full, argv, capsys)
        assert code == (0 if argv[-1] == "--help" else 2)
        assert (out if code == 0 else err).startswith("usage: cycsieve")
        assert built == [[None if argv == ["--help"] else argv[0]]]

    def test_only_the_invoked_command_has_flags(self):
        parser = cli.build_parser(["gauss"])
        args = parser.parse_args(["gauss", "--q", "5", "--ell", "2"])
        assert (args.q, args.ell, args.pi, args.func) \
            == (5, 2, "T", cli.cmd_gauss)
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert {name: len(p._actions) for name, p in sub.choices.items()} \
            == {name: 5 if name == "gauss" else 0 for name in cli.COMMANDS}
