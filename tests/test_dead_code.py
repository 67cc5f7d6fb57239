"""The package holds only code that some path of it runs.

The guard walks out from the roots: the names ``cycsieve/__init__.py``
exports, ``cli.main``, and every name that module-level code outside any
definition uses.  It keeps adding the definitions that a live body names
until nothing changes; a module-level function or class, or a method, that
the walk does not reach fails the test.  A method is reached only when its
class is.  Names in strings, comments and import statements do not count, so
a function is not kept alive by a module of the same name.  The dunders that
Python calls on any object (``OBJECT_DUNDERS``) are part of their class's
body; any other dunder, ``__call__`` among them, must be named like a plain
method, since a token scan cannot see an instance being called."""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycsieve"

OBJECT_DUNDERS = {"__init__", "__new__", "__post_init__", "__eq__",
                  "__hash__", "__repr__", "__str__", "__len__"}


def first_line(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def units(tree):
    """(qualname, class qualname or None, first line, last line) of every
    module-level function and class and of every method that is not an
    object dunder, decorators included."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, None, first_line(node), node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name not in OBJECT_DUNDERS):
                    out.append((f"{node.name}.{item.name}", node.name,
                                first_line(item), item.end_lineno))
    return out


def name_uses(text, tree):
    """(name, line) of every NAME token outside import statements; strings
    and comments are other token types, so the names in them are not seen."""
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
    return [(tok.string, tok.start[0])
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NAME and tok.start[0] not in imports]


def exported_roots():
    """(module, name) of every name ``__init__`` imports from a module."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreachable(sources, roots):
    """The definitions of sources ({module: text}) that the walk from roots
    ({(module, qualname)}) and the module-level code does not reach, as
    "module.qualname", sorted."""
    defs = {}     # (module, qualname) -> its class's key or None
    uses = {}     # (module, qualname) -> names its own body uses
    named = set()
    for module, text in sources.items():
        tree = ast.parse(text)
        spans = []
        for qualname, cls, first, last in units(tree):
            key = (module, qualname)
            defs[key] = None if cls is None else (module, cls)
            uses[key] = set()
            spans.append((cls is not None, first, last, key))
        # a method's lines lie inside its class's: test methods first
        spans.sort(reverse=True)
        for name, line in name_uses(text, tree):
            owner = next((key for _, first, last, key in spans
                          if first <= line <= last), None)
            if owner is None:
                named.add(name)
            else:
                uses[owner].add(name)
    live = set()
    frontier = set(roots) & set(defs)
    while frontier:
        live |= frontier
        for key in frontier:
            named |= uses[key]
        frontier = {key for key, cls in defs.items()
                    if key not in live and key[1].split(".")[-1] in named
                    and (cls is None or cls in live)}
    return sorted(f"{m}.{q}" for m, q in defs if (m, q) not in live)


def test_every_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unreachable(sources, exported_roots() | {("cli", "main")}) == []


def test_guard_finds_a_chain_of_dead_helpers():
    text = (
        "from . import shadow\n"
        "\n"
        "def main():\n"
        "    return used() + Box().live()\n"
        "\n"
        "def used():\n"
        "    return 1  # dead_entry\n"
        "\n"
        "def dead_entry():\n"
        "    '''calls dead_helper'''\n"
        "    return dead_helper() + dead_entry()\n"
        "\n"
        "def dead_helper():\n"
        "    return 2\n"
        "\n"
        "def ping():\n"
        "    return pong()\n"
        "\n"
        "def pong():\n"
        "    return ping()\n"
        "\n"
        "def shadow():\n"
        "    return 3\n"
        "\n"
        "def held():\n"
        "    return 4\n"
        "\n"
        "def from_table():\n"
        "    return 5\n"
        "\n"
        "TABLE = {'t': from_table}\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = init_helper()\n"
        "\n"
        "    def __call__(self):\n"
        "        return held()\n"
        "\n"
        "    def live(self):\n"
        "        return 6\n"
        "\n"
        "    def unused(self):\n"
        "        return 'unused'\n"
        "\n"
        "def init_helper():\n"
        "    return 7\n")
    assert unreachable({"cli": text}, {("cli", "main")}) == [
        "cli.Box.__call__", "cli.Box.unused", "cli.dead_entry",
        "cli.dead_helper", "cli.held", "cli.ping", "cli.pong", "cli.shadow"]
