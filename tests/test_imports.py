"""Every top-level import of a package module is used in that module;
every function, class and method the package defines has a caller, and
every module-level UPPER_CASE constant a reader; every optional parameter
of a function is passed by some caller; no module but ``geometry.py``
reaches into the point store's private members, and no method of the store
into its load regime's; and every owner the benchmark's tracer patches
imports.

No linter runs on the package, so this parses each module with ``ast``.
``__init__.py`` is left out of the import check, since its imports are
re-exports, and so are ``from __future__`` imports.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sbdsim

PACKAGE = Path(sbdsim.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))
BENCH = sorted((PACKAGE.parent.parent / "bench").glob("*.py"))

# The package's definitions that only callers outside src/ and scripts/ name.
UNCALLED_BY_DESIGN = (
    ("u_theta", "the energy that acceptance criterion 01 evaluates"),
    ("u_theta_increment", "the telescoping step of acceptance criterion 02"),
    ("bp_meanfield_density", "an oracle of the acceptance tests"),
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
    aside, and each module-level UPPER_CASE constant, of the ``defining``
    sources (by label) that no source, of those and the ``using`` ones,
    names outside its own definition.  A name is a ``Name``, an attribute,
    an imported name, or a string constant that is an identifier, such as
    an entry of ``cli.REPLICA_LISTS``."""
    defs, uses = [], set()
    sources = [*defining.items(), *((None, source) for source in using)]
    for label, source in sources:
        tree = ast.parse(source)
        for node in tree.body if label is not None else ():
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        defs.append((label, node.lineno, node.end_lineno, target.id))
        for node in ast.walk(tree):
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
        "WIDTH: int = len(TABLE)\n"
    )
    using = ["from sbdsim.mod import imported\n"]
    assert unnamed_definitions({"mod": source}, using) == [
        ("mod", 9, "recurse"),
        ("mod", 15, "lonely"),
        ("mod", 19, "WIDTH"),
    ]


def test_every_package_definition_has_a_caller():
    defining = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unnamed = unnamed_definitions(defining, [p.read_text() for p in SCRIPTS])
    exempt = {name for name, _ in UNCALLED_BY_DESIGN}
    assert [u for u in unnamed if u[2] not in exempt] == []
    # each exemption is still needed: nothing in the package names it
    assert exempt <= {name for _, _, name in unnamed}


def _functions(tree: ast.AST):
    """(node, names a call reaches it by, leading parameters a call does not
    pass) of each function and method: a method is called through an
    attribute, which passes ``self``, unless it is a staticmethod, and a
    class's name calls its ``__init__``."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(item)
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    names = {item.name}
                    if item.name == "__init__":
                        names.add(node.name)
                    yield item, names, 0 if static else 1
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node not in methods:
            yield node, {node.name}, 0


def unset_options(defining: dict[str, str], using=()) -> list[tuple[str, int, str, str]]:
    """(source, line, function, parameter) of each optional parameter of the
    functions and methods of the ``defining`` sources (by label) that no
    call, in those and the ``using`` sources, passes, by keyword or by
    position.  A call reaches every definition of the name it calls, a
    ``Name`` or an attribute, except the one it sits in; a ``*args`` passes
    every position from its own on, and a ``**kwargs`` every keyword."""
    calls, defs = [], []
    sources = [*defining.items(), *((None, source) for source in using)]
    for label, source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            positions = starred[0] if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.append((label, node.lineno, name, positions, bool(starred), keywords))
        if label is not None:
            defs.extend((label, *f) for f in _functions(tree))
    unset = []
    for label, fn, names, skipped in defs:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first_default = len(positional) - len(args.defaults)
        optional = [
            (i, p.arg, i < len(args.posonlyargs))
            for i, p in enumerate(positional)
            if i >= first_default
        ]
        optional += [
            (None, p.arg, False)
            for p, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for index, param, positional_only in optional:
            def passes(where, line, name, positions, starred, keywords):
                if name not in names or (where == label and fn.lineno <= line <= fn.end_lineno):
                    return False
                if not positional_only and (None in keywords or param in keywords):
                    return True
                if index is None or index < skipped:
                    return False
                return starred or index - skipped < positions

            if not any(passes(*call) for call in calls):
                unset.append((label, fn.lineno, fn.name, param))
    return sorted(unset)


def test_checker_flags_an_option_no_call_passes():
    source = (
        "class Store:\n"
        "    def __init__(self, side, dim=1, audit=False):\n        pass\n"
        "    def query(self, x, radius=None, *, keep=True):\n"
        "        return self.query(x, radius, keep=keep)\n"
        "    @staticmethod\n"
        "    def wrap(x, side=1.0):\n        return x\n"
        "def draw(rng, size=None, /, scale=1.0):\n    pass\n"
        "def forward(a, b=0, c=0):\n    pass\n"
        "def lonely(a, b=0):\n    return lonely(a, b)\n"
        "Store(1.0, 2).query(0.0, 0.5)\n"
        "Store.wrap(0.0, 2.0)\n"
    )
    using = [
        "draw(rng, size=3, **{'scale': 2.0})\n",  # size is positional-only
        "forward(1, *rest)\n",
        "from mod import lonely\nlonely(1)\n",
    ]
    assert unset_options({"mod": source}, using) == [
        ("mod", 2, "__init__", "audit"),
        ("mod", 4, "query", "keep"),
        ("mod", 9, "draw", "size"),
        ("mod", 13, "lonely", "b"),
    ]


def test_every_optional_parameter_has_a_setter():
    defining = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    using = [p.read_text() for p in (*SCRIPTS, *BENCH)]
    assert unset_options(defining, using) == []


# The load regimes' private members: the pair-term matrix, and the cell
# index's columns and buckets.
REGIME_PRIVATE = ("_terms", "_rows", "_fill", "_bpos", "_slot", "_cell")
# The point store's private members, its regimes', and the load calls it no
# longer has, that no package module but geometry.py names: a birth and a
# death are each one store call, which keeps the loads itself.
STORE_PRIVATE = (
    "_in_box",
    "_neighbors",
    "_insert",
    "_load",
    "_total",
    "_due",
    *REGIME_PRIVATE,
    "add_loads",
    "lower_loads",
)


def names_among(source, names) -> list[str]:
    """``name (line n)`` of each ``Name``, attribute, imported name,
    definition or string constant of ``source``, a source or a parsed node,
    that is one of ``names``, in the order of the source."""
    found = []
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in names:
            found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_checker_flags_a_store_private_name():
    source = (
        "from .geometry import add_loads as grow\n"
        "def f(cfg):\n"
        "    cfg._load.take(0)\n"
        "    return getattr(cfg, '_fill'), cfg._in_boxes, _cell\n"
        "def _insert():\n    pass\n"
    )
    assert names_among(source, STORE_PRIVATE) == [
        "add_loads (line 1)",
        "_load (line 3)",
        "_fill (line 4)",
        "_cell (line 4)",
        "_insert (line 5)",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "geometry.py"],
    ids=lambda p: p.name,
)
def test_only_the_store_names_its_private_members(path):
    assert names_among(path.read_text(), STORE_PRIVATE) == []


def regime_reaches(source: str, cls: str = "TorusConfiguration") -> list[str]:
    """``method: name (line n)`` of each regime private member that a
    method of class ``cls`` in ``source`` names, and ``method: BLOCK_ROWS
    (line n)`` of each comparison of one with BLOCK_ROWS."""
    (store,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    ]
    found = []
    for method in store.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reached = names_among(method, REGIME_PRIVATE)
        for node in ast.walk(method):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(
                    getattr(o, "id", getattr(o, "attr", None)) == "BLOCK_ROWS"
                    for o in operands
                ):
                    reached.append(f"BLOCK_ROWS (line {node.lineno})")
        found += [f"{method.name}: {name}" for name in reached]
    return found


def test_checker_flags_a_store_method_that_reaches_into_a_regime():
    source = (
        "class TorusConfiguration:\n"
        "    def remove(self, row):\n"
        "        if self._n > BLOCK_ROWS:\n"
        "            self.upkeep._fill -= 1\n"
        "        return self.upkeep.removed(self, row)\n"
        "    def sample_row(self, t):\n"
        "        return t if geometry.BLOCK_ROWS < t else self.upkeep._terms\n"
        "class CellIndex:\n"
        "    def added(self):\n"
        "        self._cell[0] = BLOCK_ROWS == 1\n"
    )
    assert regime_reaches(source) == [
        "remove: _fill (line 4)",
        "remove: BLOCK_ROWS (line 3)",
        "sample_row: _terms (line 7)",
        "sample_row: BLOCK_ROWS (line 7)",
    ]


def test_no_store_method_reaches_into_a_regime():
    # the store keeps the shared columns; what each regime keeps, and the
    # block edge it switches at, are the regime's own
    assert regime_reaches((PACKAGE / "geometry.py").read_text()) == []


# The point store's load regimes, and the death draw's hooks that none of
# them defines: the store keeps the load bound and draws against it itself.
REGIMES = ("Unloaded", "PairTerms", "CellIndex")
STORE_DRAW = ("sample_row", "resum", "stale_sum")


def second_draws(source: str) -> list[str]:
    """``Class.method (line n)`` of each method of a regime class in
    ``source`` named in STORE_DRAW, and ``Class.method: searchsorted (line
    n)`` of each call of ``searchsorted`` in a method of the store or of a
    regime, in the order of the source."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name not in (
            "TorusConfiguration",
            *REGIMES,
        ):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{node.name}.{method.name}"
            if node.name in REGIMES and method.name in STORE_DRAW:
                found.append(f"{where} (line {method.lineno})")
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                if getattr(call.func, "attr", getattr(call.func, "id", None)) == "searchsorted":
                    found.append(f"{where}: searchsorted (line {call.lineno})")
    return found


def test_checker_flags_a_second_death_draw():
    source = (
        "class TorusConfiguration:\n"
        "    def sample_row(self, draws, rng):\n"
        "        return self._load.searchsorted(draws.row(self._total, rng))\n"
        "class PairTerms:\n"
        "    def resum(self, cfg):\n"
        "        pass\n"
        "class CellIndex:\n"
        "    def stale_sum(self, cfg):\n"
        "        return searchsorted(cfg.loads, 0)\n"
        "class Window:\n"
        "    def sample_row(self):\n"
        "        return self.lo.searchsorted(0)\n"
    )
    assert second_draws(source) == [
        "TorusConfiguration.sample_row: searchsorted (line 3)",
        "PairTerms.resum (line 5)",
        "CellIndex.stale_sum (line 8)",
        "CellIndex.stale_sum: searchsorted (line 9)",
    ]


def test_the_store_draws_a_death_one_way():
    # the store's sample_row, by acceptance against its load bound, is the
    # one death draw by competition: no regime draws, keeps the bound or
    # checks it, and no method of the store or of a regime inverts a
    # running sum
    assert second_draws((PACKAGE / "geometry.py").read_text()) == []


def tracer_targets() -> tuple:
    """The (owner, attribute, span name) triples of ``bench/tracer.py``'s
    TARGETS, read from its source without importing it."""
    tree = ast.parse((PACKAGE.parent.parent / "bench" / "tracer.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    return ast.literal_eval(value)


def test_every_owner_the_tracer_patches_imports():
    # the tracer imports each owner's module and looks its class up by name,
    # so an owner that moves crashes every traced benchmark run; an
    # attribute the owner lacks is only listed as missing
    targets = tracer_targets()
    assert ("sbdsim.geometry:TorusConfiguration", "remove", "geometry.remove") in targets
    for owner, _, _ in targets:
        module, _, cls = owner.partition(":")
        imported = importlib.import_module(module)
        assert not cls or isinstance(getattr(imported, cls, None), type), owner
