"""Every module of the package uses each name it imports.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import gemkit

MODULES = sorted(
    p for p in pathlib.Path(gemkit.__file__).parent.rglob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import itertools\nfrom os import path, sep\nfrom x import y as z\nprint(sep, z)\n"
    assert _unused_imports(source) == ["line 1: itertools", "line 2: path"]
