import random

import pytest

from gemkit import io
from gemkit.generators import lens_gem, standard_sphere, torus_sum_gem

from helpers import random_surface_gem

rng = random.Random(7)


@pytest.mark.parametrize(
    "gem",
    [standard_sphere(2), standard_sphere(4), lens_gem(3, 1, 2), torus_sum_gem(2)],
)
def test_json_round_trip(gem):
    assert io.from_json(io.to_json(gem)) == gem


def test_text_round_trip():
    for _ in range(20):
        g = random_surface_gem(rng, 10)
        assert io.from_text(io.to_text(g)) == g


def test_loads_sniffs_format():
    g = lens_gem(2, 1, 2)
    assert io.loads(io.to_json(g)) == g
    assert io.loads(io.to_text(g)) == g


def test_json_dict_schema():
    g = standard_sphere(3)
    data = io.to_json_dict(g)
    assert set(data) == {"dimension", "vertices", "matchings"}
    assert data["dimension"] == 3
    assert data["vertices"] == 2
    assert len(data["matchings"]) == 4


def test_json_errors():
    with pytest.raises(ValueError):
        io.from_json("[]")
    with pytest.raises(ValueError):
        io.from_json("{\"dimension\": 1, \"vertices\": 2}")
    with pytest.raises(ValueError):
        io.from_json(
            "{\"dimension\": 1, \"vertices\": 2, \"matchings\": [[1, 0]]}"
        )
    with pytest.raises(ValueError):
        io.from_json("not json at all {")


def test_text_errors():
    with pytest.raises(ValueError):
        io.from_text("")
    with pytest.raises(ValueError):
        io.from_text("2\n0 1 0\n")
    with pytest.raises(ValueError):
        io.from_text("1 2\n0 1 0\n0 1 0\n")  # color 0 repeated at vertex 0
    with pytest.raises(ValueError):
        io.from_text("1 2\n0 1 0\n")  # color 1 missing entirely
    with pytest.raises(ValueError):
        io.from_text("1 2\n0 1 0\n0 9 1\n")  # vertex out of range
    with pytest.raises(ValueError, match=r"edge line '0 0 0' is a loop at vertex 0"):
        io.from_text("1 2\n0 0 0\n0 1 1\n")


def test_text_header_checked_before_allocating():
    # A 20-byte file must not make the parser allocate (d+1) * n entries.
    with pytest.raises(ValueError, match="needs 300000000 edge lines, got 1"):
        io.from_text("2 200000000\n0 1 0\n")
    with pytest.raises(ValueError, match="needs 3 edge lines, got 4"):
        io.from_text("2 2\n0 1 0\n0 1 1\n0 1 2\n0 1 2\n")
    for header in ("0 2", "-1 2", "2 0", "2 3", "2 -4"):
        with pytest.raises(ValueError, match="need d >= 1 and even n >= 2"):
            io.from_text(header + "\n0 1 0\n")


def test_error_messages_quote_a_bounded_prefix():
    cases = [
        ("[" * 200_000, "bad header line"),
        ("1 2\n" + "0 " * 100_000 + "1\n", "bad edge line"),
        ("1 2\n0 1 " + "9" * 4000 + "\n", "out of range"),
    ]
    for text, needle in cases:
        with pytest.raises(ValueError, match=needle) as exc:
            io.from_text(text)
        msg = str(exc.value)
        assert len(msg) < 120, msg
        assert "..." in msg
    with pytest.raises(ValueError, match=r"bad header line '\[\[\[\[.*\.\.\., expected 'd n'"):
        io.from_text("[" * 200_000)
    with pytest.raises(ValueError, match="bad edge line '0 x 1', expected 'u v c'"):
        io.from_text("1 2\n0 x 1\n")


def test_json_nested_too_deeply():
    with pytest.raises(ValueError, match="nested too deeply"):
        io.from_json("[" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        io.parse_json('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")


def test_dot_export():
    g = standard_sphere(2)
    dot = io.to_dot(g)
    assert dot.startswith("graph gem {")
    assert dot.rstrip().endswith("}")
    assert "0 -- 1 [color=0];" in dot
    assert "0 -- 1 [color=2];" in dot
    assert dot.count("--") == 3
