"""Canonical labeling and isomorphism checked against networkx on random gems.

networkx's VF2 matcher and hypothesis's random gems are independent of the
library's BFS-labeling engine; both are optional, so this module is
skipped where they are not installed.
"""

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gemkit.core import (  # noqa: E402
    ColoredGraph,
    _color_maps,
    _pair_table,
    canonical_form,
    canonical_labeling,
    isomorphic,
)

from helpers import oracle_components, random_matching, random_permutation  # noqa: E402

COLOR_MATCH = nx.algorithms.isomorphism.categorical_multiedge_match("color", None)
MODES = ("color-fixed", "color-permuting")


def to_multigraph(g: ColoredGraph):
    out = nx.MultiGraph()
    out.add_nodes_from(range(g.vertex_count))
    for u, v, c in g.edges():
        out.add_edge(u, v, color=c)
    return out


def assert_witness(wit, a: ColoredGraph, b: ColoredGraph) -> None:
    assert sorted(wit.vertex_map) == list(range(a.vertex_count))
    assert wit.valid_between(a, b)


def nx_isomorphic(a: ColoredGraph, b: ColoredGraph) -> bool:
    """Color-fixed isomorphism decided by networkx alone."""
    return nx.is_isomorphic(to_multigraph(a), to_multigraph(b), edge_match=COLOR_MATCH)


def random_gem(rng: random.Random, d: int, n: int, connected: bool = True) -> ColoredGraph:
    while True:
        g = ColoredGraph([random_matching(rng, n) for _ in range(d + 1)])
        if g.is_connected() or not connected:
            return g


def swap_two_edges(rng: random.Random, g: ColoredGraph) -> ColoredGraph:
    """Re-pair two edges of one color: a near miss of the original graph."""
    c = rng.randrange(g.dimension + 1)
    m = list(g.matchings[c])
    u = rng.randrange(g.vertex_count)
    x = rng.choice([v for v in range(g.vertex_count) if v not in (u, m[u])])
    v, y = m[u], m[x]
    m[u], m[x], m[v], m[y] = x, u, y, v
    mats = list(g.matchings)
    mats[c] = m
    return ColoredGraph(mats)


@st.composite
def gem_pairs(draw, connected: bool = True):
    """(a, b): b is a relabeled, recolored copy of a, a near miss or unrelated."""
    rng = draw(st.randoms(use_true_random=False))
    d = draw(st.integers(1, 4))
    n = 2 * draw(st.integers(1, 6))
    a = random_gem(rng, d, n, connected)
    kind = draw(st.sampled_from(["copy", "near", "other"]))
    if kind == "near" and n >= 4:
        b = swap_two_edges(rng, a)
    elif kind == "other":
        b = random_gem(rng, d, n, connected)
    else:
        b = a
    if connected and not b.is_connected():
        b = a
    cmap = random_permutation(rng, d + 1)
    return a, b.relabel(random_permutation(rng, n)).recolor(cmap)


@settings(max_examples=60, deadline=None)
@given(gem_pairs())
def test_color_fixed_forms_agree_with_networkx(pair):
    a, b = pair
    same = canonical_form(a, "color-fixed") == canonical_form(b, "color-fixed")
    assert same == nx_isomorphic(a, b)


@settings(max_examples=50, deadline=None)
@given(gem_pairs(connected=False))
def test_isomorphic_finds_first_color_map_by_brute_force(pair):
    a, b = pair
    k = a.dimension + 1
    expected = next(
        (cmap for cmap in itertools.permutations(range(k)) if nx_isomorphic(a.recolor(cmap), b)),
        None,
    )
    wit = isomorphic(a, b, "color-permuting")
    assert (wit is None) == (expected is None)
    if wit is not None:
        assert wit.color_map == expected
        assert_witness(wit, a, b)

    fixed = isomorphic(a, b, "color-fixed")
    assert (fixed is not None) == nx_isomorphic(a, b)
    if fixed is not None:
        assert fixed.color_map == tuple(range(k))
        assert_witness(fixed, a, b)


def cycle_lengths(g: ColoredGraph, i: int, j: int) -> list[int]:
    return sorted(len(comp) for comp in oracle_components(g, (i, j)))


@settings(max_examples=60, deadline=None)
@given(gem_pairs(connected=False))
def test_color_maps_are_the_permutations_every_pair_allows(pair):
    a, b = pair
    k = a.dimension + 1
    expected = [
        cmap
        for cmap in itertools.permutations(range(k))
        if all(
            cycle_lengths(a, i, j) == cycle_lengths(b, cmap[i], cmap[j])
            for i, j in itertools.combinations(range(k), 2)
        )
    ]
    ta, tb = ({pair: sorted(ls) for pair, ls in _pair_table(g).items()} for g in (a, b))
    assert list(_color_maps(ta, tb, k)) == expected


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 6))
def test_canonical_labeling_ignores_vertex_labels(rng, d, half_n):
    g = random_gem(rng, d, 2 * half_n)
    h = g.relabel(random_permutation(rng, g.vertex_count))
    for mode in MODES:
        enc, label, sigma = canonical_labeling(g, mode)
        assert canonical_labeling(h, mode)[0] == enc
        # The returned labeling reproduces the encoding it claims.
        order = sorted(range(g.vertex_count), key=label.__getitem__)
        assert enc == tuple(label[g.matchings[c][v]] for v in order for c in sigma)
