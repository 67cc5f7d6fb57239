"""A form is the one source of its field and arity.

A ``geometry.MultiForm`` carries its field (``form.k``) and its arity
(``form.n``), so a function that takes a form reads them from it; a second
``k`` or ``n`` next to the form could only disagree with it.  The guard walks
the syntax tree of every module under ``src/cycsieve/`` and fails on any
function, method or lambda with a parameter named ``form`` and one named
``k`` or ``n``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycsieve"

RESTATED = {"k", "n"}


def restating_functions(text):
    """(name, line) of every function, method or lambda in text that has a
    parameter named form and one named k or n."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            names = {p.arg for p in [*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg] if p is not None}
            if "form" in names and names & RESTATED:
                found.append((getattr(node, "name", "<lambda>"),
                              node.lineno))
    return found


def test_no_form_next_to_its_field_or_arity():
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for name, line in restating_functions(
                     path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_guard_finds_every_kind_of_parameter():
    text = (
        "def chunk(k, form, b, *, start, stop):\n"
        "    return k\n"
        "\n"
        "def keyword(form, *, n):\n"
        "    return n\n"
        "\n"
        "class Params:\n"
        "    def __init__(self, k, n, ell, form):\n"
        "        self.form = form\n"
        "\n"
        "    def priced(self, form):\n"
        "        return lambda k, form: form.k == k\n"
        "\n"
        "def fine(form, b):\n"
        "    k, n = form.k, form.n\n"
        "    return k, n\n"
        "\n"
        "def field_only(k, delta):\n"
        "    return k\n")
    assert restating_functions(text) == [
        ("chunk", 1), ("keyword", 4), ("__init__", 8), ("<lambda>", 12)]
