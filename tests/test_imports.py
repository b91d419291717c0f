"""Every top-level import of a package module is used in that module, and
every function, class and method the package defines has a caller.

No linter runs on the package, so this parses each module with ``ast``.
``__init__.py`` is left out of the import check, since its imports are
re-exports, and so are ``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import sbdsim

PACKAGE = Path(sbdsim.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))

# The package's definitions that only callers outside src/ and scripts/ name.
UNCALLED_BY_DESIGN = (
    ("u_theta", "the energy that acceptance criterion 01 evaluates"),
    ("u_theta_increment", "the telescoping step of acceptance criterion 02"),
    ("bp_meanfield_density", "an oracle of the acceptance tests"),
    ("scaled", "the negative control of bench/test_bench.py"),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Torus"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom typing import Sequence\n"
        "from .geometry import Torus, Window as W\n"
        "def f(x) -> 'Torus':\n    return math.pi * os.sep\n"
    )
    assert unused_imports(source) == ["Sequence (line 4)", "W (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unnamed_definitions(defining: dict[str, str], using=()) -> list[tuple[str, int, str]]:
    """(source, line, name) of each function, class and method, dunders
    aside, of the ``defining`` sources (by label) that no source, of those
    and the ``using`` ones, names outside its own definition.  A name is a
    ``Name``, an attribute, an imported name, or a string constant that is
    an identifier, such as an entry of ``cli.REPLICA_LISTS``."""
    defs, uses = [], set()
    sources = [*defining.items(), *((None, source) for source in using)]
    for label, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                uses.add((label, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.add((label, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.add((label, node.lineno, node.name.rpartition(".")[2]))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    uses.add((label, node.lineno, node.value))
            elif label is not None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((label, node.lineno, node.end_lineno, node.name))
    return sorted(
        (label, first, name)
        for label, first, last, name in defs
        if not any(
            used == name and not (where == label and first <= line <= last)
            for where, line, used in uses
        )
    )


def test_checker_flags_a_definition_nothing_else_names():
    source = (
        "from .kernels import gaussian as g\n"
        "class Store:\n"
        "    def __len__(self):\n        return 0\n"
        "    def query(self):\n        return self._helper()\n"
        "    def _helper(self):\n        return g\n"
        "    def recurse(self):\n        return self.recurse()\n"
        "def by_string():\n    pass\n"
        "def imported():\n    pass\n"
        "def lonely():\n    pass\n"
        "TABLE = ('by_string', 'not an identifier')\n"
        "Store().query()\n"
    )
    using = ["from sbdsim.mod import imported\n"]
    assert unnamed_definitions({"mod": source}, using) == [
        ("mod", 9, "recurse"),
        ("mod", 15, "lonely"),
    ]


def test_every_package_definition_has_a_caller():
    defining = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unnamed = unnamed_definitions(defining, [p.read_text() for p in SCRIPTS])
    exempt = {name for name, _ in UNCALLED_BY_DESIGN}
    assert [u for u in unnamed if u[2] not in exempt] == []
    # each exemption is still needed: nothing in the package names it
    assert exempt <= {name for _, _, name in unnamed}
