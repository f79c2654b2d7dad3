"""Reading and writing colored graphs.

Two lossless on-disk forms are supported.  The JSON form is an object
with keys "dimension", "vertices" and "matchings" (one involution array
per color).  The compact text form has a header line ``d n`` followed by
one ``u v c`` line per edge.  Both round-trip exactly.
"""

from __future__ import annotations

import json
from typing import TextIO

from .core import ColoredGraph


def to_json_dict(g: ColoredGraph) -> dict:
    return {
        "dimension": g.dimension,
        "vertices": g.vertex_count,
        "matchings": [list(m) for m in g.matchings],
    }


def to_json(g: ColoredGraph) -> str:
    return json.dumps(to_json_dict(g))


def from_json_dict(data: object) -> ColoredGraph:
    if not isinstance(data, dict):
        raise ValueError("gem JSON must be an object")
    try:
        d = data["dimension"]
        n = data["vertices"]
        matchings = data["matchings"]
    except KeyError as exc:
        raise ValueError(f"gem JSON is missing key {exc.args[0]!r}") from None
    # Exact ints only: JSON true/false load as bool, an int subclass.
    if type(d) is not int or type(n) is not int:
        raise ValueError("dimension and vertices must be integers")
    if not isinstance(matchings, list) or len(matchings) != d + 1:
        raise ValueError(f"expected {d + 1} matchings")
    for m in matchings:
        if not isinstance(m, list) or len(m) != n:
            raise ValueError(f"each matching must list {n} vertices")
        if any(type(w) is not int for w in m):
            raise ValueError("matching entries must be integers")
    return ColoredGraph(matchings)


def parse_json(text: str) -> object:
    """``json.loads`` that reports malformed or too deeply nested text as ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None


def from_json(text: str) -> ColoredGraph:
    return from_json_dict(parse_json(text))


def to_text(g: ColoredGraph) -> str:
    lines = [f"{g.dimension} {g.vertex_count}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in g.edges())
    return "\n".join(lines) + "\n"


_QUOTE_LIMIT = 40


def _quote(line: str) -> str:
    """The line as quoted in an error message, cut to ``_QUOTE_LIMIT`` characters."""
    if len(line) <= _QUOTE_LIMIT:
        return repr(line)
    return repr(line[:_QUOTE_LIMIT]) + "..."


def _int_fields(line: str, kind: str, fields: str) -> list[int]:
    """The integers of a header or edge line laid out as ``fields``."""
    parts = line.split()
    try:
        if len(parts) == len(fields.split()):
            return [int(x) for x in parts]
    except ValueError:
        pass
    raise ValueError(f"bad {kind} line {_quote(line)}, expected {fields!r}")


def from_text(text: str) -> ColoredGraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty gem file")
    d, n = _int_fields(lines[0], "header", "d n")
    if d < 1 or n < 2 or n % 2:
        raise ValueError(f"bad header line {_quote(lines[0])}, need d >= 1 and even n >= 2")
    edges = []
    for ln in lines[1:]:
        u, v, c = _int_fields(ln, "edge", "u v c")
        if not (0 <= u < n and 0 <= v < n and 0 <= c <= d):
            raise ValueError(f"edge line {_quote(ln)} out of range")
        if u == v:
            raise ValueError(f"edge line {_quote(ln)} is a loop at vertex {u}")
        edges.append((u, v, c, ln))
    # Checked before allocating (d+1) lists of n entries: the header alone
    # must not be able to ask for more memory than the file's size implies.
    expected = (d + 1) * n // 2
    if len(edges) != expected:
        raise ValueError(f"header {d} {n} needs {expected} edge lines, got {len(edges)}")
    # The count, no loops and no revisits give each color n/2 disjoint edges.
    matchings = [[-1] * n for _ in range(d + 1)]
    for u, v, c, ln in edges:
        if matchings[c][u] != -1 or matchings[c][v] != -1:
            raise ValueError(f"vertex revisited by color {c} in line {_quote(ln)}")
        matchings[c][u] = v
        matchings[c][v] = u
    return ColoredGraph(matchings)


def loads(text: str) -> ColoredGraph:
    """Parse either supported format, sniffing by the leading character."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_json(text)
    return from_text(text)


def load(fh: TextIO) -> ColoredGraph:
    return loads(fh.read())


def to_dot(g: ColoredGraph) -> str:
    """DOT multigraph with a ``color`` attribute per edge."""
    lines = ["graph gem {"]
    for u, v, c in g.edges():
        lines.append(f"  {u} -- {v} [color={c}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
