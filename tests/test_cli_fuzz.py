"""Fuzzing the CLI's input boundary: gem files and search specs.

Whatever a gem file or a ``search --spec`` file holds, ``gemkit`` exits
with 0, 1 or 2 and never prints a traceback.  Inputs are kept small (few
colors, few vertices, small orders) so every example runs in milliseconds.
"""

import contextlib
import io as stdio
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from gemkit import cli  # noqa: E402

# Orders stay small enough for an unconstrained 4-color search to be quick;
# the huge values hit the order budget.
small_ints = st.integers(-2, 6) | st.sampled_from([40, 2**64, -(2**64)])
words = st.sampled_from(
    ["any", "only", "none", "include", "exclude", "01", "02", "12", "23", "0a"]
)
leaves = (
    st.none()
    | st.booleans()
    | small_ints
    | st.floats(allow_nan=False, allow_infinity=False)
    | words
    | st.text(max_size=6)
)
keys = st.sampled_from(
    [
        "colors",
        "order",
        "pair_lengths",
        "vertex_types",
        "bipartite",
        "bigons",
        "chi",
        "dimension",
        "vertices",
        "matchings",
        "01",
        "02",
        "12",
    ]
) | st.text(max_size=4)
json_data = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=12,
)


@st.composite
def involutions(draw, n):
    """A fixed-point-free involution on 0..n-1, as an array."""
    order = draw(st.permutations(range(n)))
    m = [0] * n
    for i in range(0, n, 2):
        m[order[i]], m[order[i + 1]] = order[i + 1], order[i]
    return m


@st.composite
def valid_gems(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.sampled_from([2, 4, 6, 8]))
    mats = [draw(involutions(n)) for _ in range(d + 1)]
    return {"dimension": d, "vertices": n, "matchings": mats}


gem_shaped = st.fixed_dictionaries(
    {
        "dimension": small_ints | json_data,
        "vertices": small_ints | json_data,
        "matchings": st.lists(st.lists(st.integers(-1, 8), max_size=8), max_size=5)
        | json_data,
    }
)
edge_lines = st.lists(
    st.tuples(st.integers(-1, 8), st.integers(-1, 8), st.integers(-1, 4)), max_size=12
)
text_gems = st.builds(
    lambda head, edges: "\n".join(
        [" ".join(map(str, head))] + [" ".join(map(str, e)) for e in edges]
    ),
    st.tuples(st.integers(-1, 4), st.integers(-1, 8)),
    edge_lines,
)
gem_files = (
    st.text(max_size=80)
    | text_gems
    | st.builds(json.dumps, valid_gems() | gem_shaped | json_data)
)

# Spec fields drawn from values a search accepts, or close to them.
plausible_spec = {
    "colors": st.sampled_from([3, 4]),
    "order": st.sampled_from([2, 4, 6]),
    "pair_lengths": st.dictionaries(
        st.sampled_from(["01", "02", "12", "03", "13", "23", "00", "31"]),
        st.lists(st.integers(-2, 8), max_size=3),
        max_size=3,
    ),
    "vertex_types": st.lists(st.sampled_from([2, 4, 6, 8, 3]), max_size=4),
    "bipartite": st.sampled_from(["any", "only", "none"]),
    "bigons": st.sampled_from(["include", "exclude"]),
    "chi": st.integers(-4, 2),
}


def spec_dicts(mix):
    values = {key: mix(value) for key, value in plausible_spec.items()}
    required = {key: values.pop(key) for key in ("colors", "order")}
    return st.fixed_dictionaries(required, optional=values)


spec_files = st.text(max_size=80) | st.builds(
    json.dumps,
    spec_dicts(lambda s: s)
    | spec_dicts(lambda s: s | small_ints | json_data)
    | json_data,
)

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def run_main(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(
    text=gem_files,
    argv=st.sampled_from(
        [
            ["analyze"],
            ["analyze", "--json", "--bigons", "include"],
            ["homology", "--json"],
            ["export", "--format", "dot"],
            ["export"],
        ]
    ),
)
def test_any_gem_file_exits_cleanly(workdir, text, argv):
    path = workdir / "gem.txt"
    path.write_text(text, encoding="utf-8")
    code, err = run_main(argv[:1] + [str(path)] + argv[1:])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@FUZZ
@given(text=spec_files, as_json=st.booleans())
def test_any_search_spec_exits_cleanly(workdir, text, as_json):
    path = workdir / "spec.json"
    path.write_text(text, encoding="utf-8")
    code, err = run_main(["search", "--spec", str(path)] + (["--json"] if as_json else []))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
