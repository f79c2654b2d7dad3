"""One writer, ``cli._indented``, defines the CLI's indented JSON, and its
output equals ``json.dumps(x, indent=2)`` byte for byte.  ``analyze``
fills its reports into templates that this writer rendered.

Outside the writer no call in the package passes ``indent=`` at all, not
even an ``indent`` parameter of the function it is in.
"""

import ast
import json
import pathlib

import pytest

import gemkit
from gemkit.cli import _indented

PACKAGE = sorted(pathlib.Path(gemkit.__file__).parent.rglob("*.py"))
WRITER = "_indented"


def _indent_choices(source: str) -> list[str]:
    """Calls outside the writer that pass ``indent=``."""
    found: list[str] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == WRITER:
                continue
            if isinstance(child, ast.Call) and any(kw.arg == "indent" for kw in child.keywords):
                found.append(f"line {child.lineno}")
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_indented_json_goes_through_the_writer(path):
    assert _indent_choices(path.read_text()) == []


def test_indent_choice_is_reported():
    source = (
        "import json\nfrom json import dumps\nINDENT = 2\n"
        "def _indented(x):\n    return json.dumps(x, indent=2)\n"
        "def to_json(x, indent=None):\n    return json.dumps(x, indent=indent)\n"
        "def report(x, args):\n    print(json.dumps(x, indent=2), json.dumps(x))\n"
        "    f = lambda y: dumps(y, indent=INDENT)\n"
        "    return to_json(x, indent=args.indent) + json.JSONEncoder(indent=1).encode(x)\n"
        "print(to_json(1, indent=4))\n"
    )
    assert _indent_choices(source) == [
        "line 7", "line 9", "line 10", "line 11", "line 11", "line 12"
    ]


HAND_CASES = [
    [],
    {},
    [[]],
    [{}],
    {"a": [], "b": {}, "c": [[], {}]},
    [True, 1, False, 0],
    {"t": True, "one": 1, "f": False, "zero": 0},
    None,
    [None, [None]],
    -7,
    [-(10**40), 10**40],
    'quote " backslash \\ newline \n tab \t',
    ["café", "ρ²", "\U0001f600", "\x00\x1f"],
    (1, 2, 3),
    [(1, (2, [])), ()],
    ["q", 2],
    [{"type": "(4^2,q^1)", "runs": [[4, 2], ["q", 1]], "order": None}],
    [1.5, -0.0, float("inf"), float("nan"), 1e300],
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key"},
    {"nested": {3: [1, {"x": ()}]}},
]


@pytest.mark.parametrize("value", HAND_CASES, ids=range(len(HAND_CASES)))
def test_writer_matches_stdlib_on_hand_cases(value):
    assert _indented(value) == json.dumps(value, indent=2)


def test_writer_matches_stdlib_on_generated_trees():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    keys = st.text() | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
    trees = st.recursive(
        scalars,
        lambda children: st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.dictionaries(keys, children),
        max_leaves=30,
    )

    @settings(max_examples=300, deadline=None)
    @given(trees)
    def check(value):
        assert _indented(value) == json.dumps(value, indent=2)

    check()
