"""Every module of the package parses as Python 3.10, the oldest version
``pyproject.toml`` admits (``requires-python = ">=3.10"``).

``ast.parse`` with ``feature_version`` rejects syntax added later, such as
``except*`` (3.11) and type parameters (3.12), on any newer interpreter
too.  It checks syntax only, not the standard library names a module uses.
"""

import ast
import pathlib
import re

import pytest

import gemkit

OLDEST = (3, 10)
PACKAGE = sorted(pathlib.Path(gemkit.__file__).parent.rglob("*.py"))
PYPROJECT = pathlib.Path(gemkit.__file__).parents[2] / "pyproject.toml"


def _newer_syntax(source: str) -> list[str]:
    try:
        ast.parse(source, feature_version=OLDEST)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    return []


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_module_parses_as_oldest_supported_python(path):
    assert _newer_syntax(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",
        "def first[T](items: list[T]) -> T:\n    return items[0]\n",
    ],
    ids=["except-star", "type-parameters"],
)
def test_newer_syntax_is_reported(source):
    assert _newer_syntax(source) != []


def test_oldest_matches_requires_python():
    if not PYPROJECT.is_file():
        pytest.skip("no pyproject.toml beside an installed package")
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    assert found and tuple(map(int, found.groups())) == OLDEST
