"""Every Python file of the package, its scripts and its tests parses at the
oldest Python that ``pyproject.toml`` declares (``requires-python``), with
``ast.parse``'s ``feature_version``, so that syntax newer than the floor
fails here even on a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/sbdsim", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def declared_floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_floor_check_refuses_newer_syntax():
    # except* came with Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_every_source_file_parses_at_the_declared_floor():
    floor = declared_floor()
    assert {path.parent.name for path in SOURCES} >= {"sbdsim", "scripts", "tests"}
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
