"""Every module of the package uses each name it imports, every private
top-level name of the package is referenced somewhere in it, every
function defined inside another one is referenced in that one, and every
function or lambda reads each of its parameters (``self`` and ``cls``
aside).

``__init__.py`` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
import pathlib

import pytest

import gemkit

PACKAGE = sorted(pathlib.Path(gemkit.__file__).parent.rglob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level ``_name`` functions, classes and assignments, with their lines."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _dead_private_definitions(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = set().union(*map(_references, trees.values()))
    return [
        f"{name} line {line}: {defined}"
        for name, tree in trees.items()
        for defined, line in _private_definitions(tree).items()
        if defined not in refs
    ]


def _dead_nested_functions(source: str) -> list[str]:
    """Functions defined inside another function and never referenced in it."""
    found: list[str] = []

    def visit(node: ast.AST, outer) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if outer is not None and child.name not in _references(outer):
                    found.append(f"line {child.lineno}: {child.name}")
                visit(child, child)
            else:
                visit(child, outer)

    visit(ast.parse(source), None)
    return found


def _unread_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        found += [
            (node.lineno, f"line {node.lineno}: {name}({p})")
            for p in params
            if p not in read and p not in ("self", "cls")
        ]
    return [message for _, message in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import itertools\nfrom os import path, sep\nfrom x import y as z\nprint(sep, z)\n"
    assert _unused_imports(source) == ["line 1: itertools", "line 2: path"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_module_references_every_nested_function(path):
    assert _dead_nested_functions(path.read_text()) == []


def test_dead_nested_function_is_reported():
    source = (
        "def outer(xs):\n"
        "    def used(x):\n        return x\n"
        "    def dead():\n        return 2\n"
        "    def sort_key(x):\n        return -x\n"
        "    return sorted(map(used, xs), key=sort_key)\n"
        "class K:\n"
        "    def method(self):\n"
        "        def inner():\n            pass\n"
        "        return self.method\n"
        "def top():\n"
        "    def a():\n"
        "        def deep():\n            pass\n"
        "        return 0\n"
        "    return a\n"
    )
    assert _dead_nested_functions(source) == ["line 4: dead", "line 11: inner", "line 16: deep"]


def test_package_references_every_private_definition():
    assert _dead_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_dead_private_definition_is_reported():
    sources = {
        "a.py": "_USED = 1\n_DEAD = [3, 5]\ndef _helper():\n    return _USED\n"
        "class _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _helper\nimport a\na._Other = 2\n",
    }
    assert _dead_private_definitions(sources) == ["a.py line 2: _DEAD", "a.py line 5: _Gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_module_reads_every_parameter(path):
    assert _unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    # A parameter whose one read was deleted is reported; a closure's read
    # counts for the outer function, and self and cls are exempt.
    source = (
        "def _matching_dfs(spec, leaf, limit=None):\n"
        "    hits = []\n"
        "    for g in spec.leaves():\n"
        "        hits.append(g)\n"
        "        if limit is not None and len(hits) >= limit:\n"
        "            return hits, False\n"
        "    return hits, True\n"
        "def outer(a, *rest, key, **kw):\n"
        "    def inner(b):\n        return a + len(rest)\n"
        "    return inner(key)\n"
        "class K:\n"
        "    def method(self, x):\n        return self\n"
        "    @classmethod\n"
        "    def make(cls, *, y=0):\n        return cls(y)\n"
        "f = lambda u, v: u\n"
        "g = lambda: 0\n"
    )
    assert _unread_parameters(source) == [
        "line 1: _matching_dfs(leaf)",
        "line 8: outer(kw)",
        "line 9: inner(b)",
        "line 13: method(x)",
        "line 18: lambda(v)",
    ]
