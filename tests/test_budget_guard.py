"""Only the command layer holds a budget.

Every command prices its run through pure ``*_cost`` functions and charges
the price before the work it covers, so no function below the commands takes
a budget.  The guard walks the syntax tree of every module under
``src/cycsieve/`` except ``cli.py`` and ``reports.py`` and fails on any
function, method or lambda with a parameter named ``budget``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycsieve"

COMMAND_LAYER = {"cli.py", "reports.py"}


def budget_parameters(text):
    """(name, line) of every function, method or lambda in text that has a
    parameter named budget."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg]
            if any(p is not None and p.arg == "budget" for p in params):
                found.append((getattr(node, "name", "<lambda>"),
                              node.lineno))
    return found


def test_no_budget_below_the_command_layer():
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted(SRC.glob("*.py"))
                 if path.name not in COMMAND_LAYER
                 for name, line in budget_parameters(
                     path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_guard_finds_every_kind_of_parameter():
    text = (
        "def plain(k, budget=None):\n"
        "    return k\n"
        "\n"
        "def keyword(k, *, budget):\n"
        "    return k\n"
        "\n"
        "class Context:\n"
        "    def __init__(self, k, budget):\n"
        "        self.k = k\n"
        "\n"
        "    def priced(self, spent):\n"
        "        return lambda budget: budget.charge(spent)\n"
        "\n"
        "def fine(k, cost):\n"
        "    budget = cost\n"
        "    return budget\n")
    assert budget_parameters(text) == [
        ("plain", 1), ("keyword", 4), ("__init__", 8), ("<lambda>", 12)]
