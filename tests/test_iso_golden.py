"""Golden isomorphism witnesses: the exact output of ``isomorphic``, pinned.

``isomorphic`` returns the lexicographically first color map admitting an
isomorphism and the vertex map that its BFS matching finds for it.  Both
are part of the output (``gemkit iso`` prints them), so a faster search
has to return them byte for byte.  Each group of pairs below is reduced to
the SHA-256 of its witnesses in both modes; the pins were computed with
the search that tried every color map in lexicographic order.
"""

import hashlib
import itertools
import json
import random

import pytest

from gemkit import core
from gemkit.core import ColoredGraph, isomorphic, residue_count
from gemkit.generators import catalog, lens_gem, sphere_times_circle_gem

from helpers import random_matching, random_permutation


def _random_gem(rng: random.Random, d: int, n: int) -> ColoredGraph:
    """Every color a uniform random matching, as the benchmark draws gems."""
    while True:
        g = ColoredGraph([random_matching(rng, n) for _ in range(d + 1)])
        if g.is_connected():
            return g


def _disjoint_union(a: ColoredGraph, b: ColoredGraph) -> ColoredGraph:
    shift = a.vertex_count
    return ColoredGraph(
        list(ma) + [w + shift for w in mb] for ma, mb in zip(a.matchings, b.matchings)
    )


def _sorted_pair_counts(g: ColoredGraph) -> list[int]:
    return sorted(residue_count(g, pair) for pair in itertools.combinations(g.colors, 2))


def _moved(rng: random.Random, g: ColoredGraph, recolor: bool = True) -> ColoredGraph:
    k = g.dimension + 1
    cmap = random_permutation(rng, k) if recolor else list(range(k))
    return g.relabel(random_permutation(rng, g.vertex_count)).recolor(cmap)


def _swap_two_edges(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    c = rng.randrange(g.dimension + 1)
    m = list(g.matchings[c])
    u = rng.randrange(g.vertex_count)
    x = rng.choice([v for v in range(g.vertex_count) if v not in (u, m[u])])
    v, y = m[u], m[x]
    m[u], m[x], m[v], m[y] = x, u, y, v
    mats = list(g.matchings)
    mats[c] = m
    return ColoredGraph(mats)


def random_pairs():
    rng = random.Random(20261018)
    out = []
    for d, n in [(2, 16), (3, 16), (4, 14), (5, 12), (6, 12)]:
        for recolor in (False, True, True):
            a = _random_gem(rng, d, n)
            out.append((a, _moved(rng, a, recolor)))
    return out


def family_pairs():
    rng = random.Random(4488)
    gems = [
        sphere_times_circle_gem(4),
        sphere_times_circle_gem(4, twisted=True),
        sphere_times_circle_gem(5),
        lens_gem(5, 2, 4),
        catalog("torus-4.8.8"),
    ]
    out = [(g, _moved(rng, g)) for g in gems]
    out.append((gems[0], _moved(rng, gems[1])))  # every pair ties, not isomorphic
    return out


def disconnected_pairs():
    rng = random.Random(777)
    out = []
    for d in (2, 3, 4):
        a = _disjoint_union(_random_gem(rng, d, 6), _random_gem(rng, d, 8))
        out.append((a, _moved(rng, a)))
        twin = _random_gem(rng, d, 6)
        b = _disjoint_union(twin, twin)
        out.append((b, _moved(rng, b)))
        out.append((a, _moved(rng, _disjoint_union(_random_gem(rng, d, 8), _random_gem(rng, d, 6)))))
    return out


def nonisomorphic_pairs():
    """Pairs that the sorted residue counts of color pairs cannot tell apart."""
    rng = random.Random(31337)
    out = [
        (lens_gem(7, 1, 4), _moved(rng, lens_gem(7, 2, 4))),
        (lens_gem(5, 1, 4), _moved(rng, lens_gem(5, 2, 4))),
    ]
    for d, n in [(2, 12), (3, 12), (4, 10), (5, 10)]:
        found = 0
        while found < 2:
            a = _random_gem(rng, d, n)
            b = _swap_two_edges(rng, a)
            if b.is_connected() and _sorted_pair_counts(a) == _sorted_pair_counts(b):
                out.append((a, _moved(rng, b)))
                found += 1
    return out


GROUPS = {
    "random": (
        random_pairs,
        "9b549c182138df07c329521bfc4807bf149b433c1649c20bfd36aa6809011b3c",
    ),
    "family": (
        family_pairs,
        "d78b572ba55bdfa12e7f9a4b6960cd5d20479c952220ed2dce76de791b35c648",
    ),
    "disconnected": (
        disconnected_pairs,
        "c463658979583979fee7cdab754d9a377ced1c010fbcb3364201bd4e2912bede",
    ),
    "nonisomorphic": (
        nonisomorphic_pairs,
        "44c99ef067f3661b896804a1e642daaa593166529726ad4282ec323979597cf0",
    ),
}


def witnesses(pairs) -> list:
    out = []
    for a, b in pairs:
        row = []
        for mode in ("color-fixed", "color-permuting"):
            wit = isomorphic(a, b, mode)
            row.append(None if wit is None else [list(wit.vertex_map), list(wit.color_map)])
        out.append(row)
    return out


def digest(results: list) -> str:
    return hashlib.sha256(json.dumps(results, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_isomorphic_witnesses_are_pinned(name):
    build, expected = GROUPS[name]
    results = witnesses(build())
    assert digest(results) == expected


# The color maps of the family witnesses, per pair (color-fixed,
# color-permuting), pinned apart from the group's digest: relabeling the
# vertices of a catalog gem moves its vertex maps only.
FAMILY_COLOR_MAPS = [
    [None, [0, 2, 3, 1, 4]],
    [None, [0, 2, 1, 4, 3]],
    [None, [0, 1, 2, 3, 5, 4]],
    [None, [1, 0, 2, 3]],
    [None, [1, 2, 0]],
    [None, None],
]


def test_family_witness_color_maps_are_pinned():
    rows = witnesses(family_pairs())
    assert [[None if w is None else w[1] for w in row] for row in rows] == FAMILY_COLOR_MAPS


def test_nonisomorphic_group_finds_nothing():
    for row in witnesses(nonisomorphic_pairs()):
        assert row == [None, None]


def _count_vertex_maps(monkeypatch, a: ColoredGraph, b: ColoredGraph, mode: str):
    calls = []
    inner = core._vertex_map

    def counted(parts_a, slots_b):
        calls.append(1)
        return inner(parts_a, slots_b)

    monkeypatch.setattr(core, "_vertex_map", counted)
    return isomorphic(a, b, mode), len(calls)


def test_late_color_map_is_the_only_one_tried(monkeypatch):
    # A random d = 6, n = 12 gem recolored by the map of rank 3780 of 7!:
    # trying maps in lexicographic order matches vertices ~3780 times.
    rng = random.Random(612)
    a = _random_gem(rng, 6, 12)
    cmap = next(itertools.islice(itertools.permutations(range(7)), 3780, None))
    b = a.relabel(random_permutation(rng, 12)).recolor(cmap)
    wit, calls = _count_vertex_maps(monkeypatch, a, b, "color-permuting")
    assert wit is not None and wit.color_map == cmap
    assert calls == 1


def test_bipartiteness_rejects_before_vertex_matching(monkeypatch):
    # Every color pair's cycle lengths tie, so only bipartiteness tells
    # the orientable bundle from the twisted one.
    a, b = sphere_times_circle_gem(4), sphere_times_circle_gem(4, twisted=True)
    for mode in ("color-fixed", "color-permuting"):
        assert _count_vertex_maps(monkeypatch, a, b, mode) == (None, 0)
