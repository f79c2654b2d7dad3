import itertools
import random

import pytest

from gemkit.core import (
    ColoredGraph,
    Isomorphism,
    NotConnectedError,
    _best_labelings,
    canonical_form,
    canonical_labeling,
    is_bipartite,
    is_contracted,
    component_index,
    isomorphic,
    residue_count,
    residue_graphs,
)
from gemkit.complexes import homology
from gemkit.search import SearchSpec, _run_search
from gemkit.generators import (
    catalog,
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
)

from helpers import (
    oracle_canonical_labeling,
    oracle_component_count,
    oracle_components,
    random_matching,
    random_permutation,
    random_surface_gem,
)

rng = random.Random(0xC0FFEE)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        ColoredGraph([[1, 0]])  # single color
    with pytest.raises(ValueError):
        ColoredGraph([[0, 1], [1, 0]])  # loop at 0
    with pytest.raises(ValueError):
        ColoredGraph([[1, 0, 2], [1, 0, 2]])  # odd order
    with pytest.raises(ValueError):
        ColoredGraph([[1, 2, 0, 3], [1, 0, 3, 2]])  # not an involution
    with pytest.raises(ValueError, match="^color 1: not an involution at vertex 0$"):
        ColoredGraph([[1, 0], [1, 5]])  # vertex 0 fails before 5 is read
    with pytest.raises(ValueError, match="^matching for color 1 has 4 entries, expected 2$"):
        ColoredGraph([[1, 0], [1, 0, 3, 2]])
    with pytest.raises(ValueError, match="^color 1: vertex 0 maps to 5$"):
        ColoredGraph([[1, 0], [5, 0]])


def test_basic_accessors():
    g = standard_sphere(3)
    assert g.dimension == 3
    assert g.vertex_count == 2
    assert list(g.colors) == [0, 1, 2, 3]
    assert g.matchings[2][0] == 1
    assert sorted(g.edges()) == [(0, 1, c) for c in range(4)]


def test_residues_on_sphere():
    g = standard_sphere(3)
    assert component_index(g, {0, 1}) == ([0, 0], 1)
    assert [comp for _, comp in residue_graphs(g, {0, 1})] == [(0, 1)]


def test_residues_on_lens_gems():
    # Two double cycles in the {0,2} residue.
    assert residue_count(lens_gem(2, 1, 2), (0, 2)) == 2
    # Three 4-cycles in the {0,1} residue of the order-12 member.
    comps = [comp for _, comp in residue_graphs(lens_gem(3, 1, 2), (0, 1))]
    assert len(comps) == 3
    assert all(len(comp) == 4 for comp in comps)
    assert comps == [tuple(c) for c in oracle_components(lens_gem(3, 1, 2), (0, 1))]


def test_residue_color_out_of_range():
    with pytest.raises(ValueError):
        component_index(standard_sphere(2), {0, 5})
    with pytest.raises(ValueError, match="^a residue graph needs at least two colors$"):
        residue_graphs(standard_sphere(2), {1})


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_residue_counts_match_oracle(n):
    for _ in range(25):
        g = random_surface_gem(rng, n)
        for size in (1, 2, 3):
            for colors in itertools.combinations(range(3), size):
                assert residue_count(g, colors) == oracle_component_count(g, colors)


def test_residue_monotonicity_and_identities():
    for _ in range(25):
        g = random_surface_gem(rng, 10)
        n = g.vertex_count
        for c in range(3):
            assert residue_count(g, (c,)) == n // 2
        for small in itertools.combinations(range(3), 2):
            assert residue_count(g, range(3)) <= residue_count(g, small)
        comps = [comp for _, comp in residue_graphs(g, (0, 1))]
        assert sorted(v for comp in comps for v in comp) == list(range(n))


def test_bipartite():
    assert is_bipartite(standard_sphere(4))
    assert is_bipartite(lens_gem(2, 1, 2))
    g = rp2_sum_gem(1)
    assert not is_bipartite(g)
    # The odd cycle is explicit: 0-1 by color 0, 1-2 by color 1, 2-0 by color 2.
    assert g.matchings[0][0] == 1
    assert g.matchings[1][1] == 2
    assert g.matchings[2][2] == 0


def test_contracted():
    assert is_contracted(standard_sphere(5))
    assert is_contracted(lens_gem(2, 1, 2))
    g = lens_gem(2, 1, 4)
    assert not is_contracted(g)
    # Dropping the closing color splits the ladder into k/2 pieces.
    assert residue_count(g, (0, 1, 2)) == 2


def test_contracted_requires_connected():
    disconnected = ColoredGraph(
        [[1, 0, 3, 2], [1, 0, 3, 2], [1, 0, 3, 2]]
    )
    assert not disconnected.is_connected()
    with pytest.raises(NotConnectedError):
        is_contracted(disconnected)


def test_residue_graphs_extraction():
    g = lens_gem(2, 1, 2)
    pieces = residue_graphs(g, (0, 2))
    assert len(pieces) == 2
    for piece, verts in pieces:
        assert piece.dimension == 1
        assert piece.vertex_count == 4
        assert len(verts) == 4
        assert piece.is_connected()


def test_isomorphic_under_relabeling():
    for _ in range(10):
        g = random_surface_gem(rng, 8)
        perm = random_permutation(rng, 8)
        h = g.relabel(perm)
        wit = isomorphic(g, h, "color-fixed")
        assert wit is not None
        assert wit.valid_between(g, h)
        assert wit.color_map == (0, 1, 2)


def test_isomorphic_rejects_different_orders():
    assert isomorphic(standard_sphere(2), rp2_sum_gem(1)) is None


def test_isomorphic_distinguishes_lens_shifts():
    a, b = lens_gem(2, 0, 2), lens_gem(2, 1, 2)
    assert isomorphic(a, b, "color-permuting") is None
    # Independent reason: their homologies differ.
    assert homology(a) != homology(b)


def test_isomorphic_color_permuting_mode():
    g = random_surface_gem(rng, 8)
    h = g.recolor((2, 0, 1))
    assert isomorphic(g, h, "color-permuting") is not None
    wit = isomorphic(g, h, "color-permuting")
    assert wit.valid_between(g, h)


def test_isomorphism_of_disconnected_graphs():
    a = ColoredGraph([[1, 0, 3, 2], [1, 0, 3, 2], [1, 0, 3, 2]])
    perm = [2, 3, 0, 1]
    b = a.relabel(perm)
    wit = isomorphic(a, b, "color-fixed")
    assert wit is not None and wit.valid_between(a, b)
    assert sorted(wit.vertex_map) == [0, 1, 2, 3]
    # Folding both components onto one preserves every edge but is no
    # bijection, so it is not a witness.
    assert not Isomorphism((0, 1, 0, 1), (0, 1, 2)).valid_between(a, b)
    assert not Isomorphism((2, 3, 0, 1), (0, 0, 0)).valid_between(a, b)
    # A bijection on both that breaks an edge, and graphs of another order
    # or dimension, are no witnesses either.
    assert not Isomorphism((0, 2, 1, 3), (0, 1, 2)).valid_between(a, b)
    assert not Isomorphism((0, 1), (0, 1, 2)).valid_between(a, standard_sphere(2))
    assert not Isomorphism(wit.vertex_map, (0, 1, 2)).valid_between(a, ColoredGraph([[1, 0, 3, 2]] * 4))


def test_canonical_form_invariance():
    g = rp2_sum_gem(1)
    forms = {
        canonical_form(g.relabel(random_permutation(rng, g.vertex_count)))
        for _ in range(100)
    }
    assert len(forms) == 1
    assert forms == {canonical_form(g)}


def test_canonical_form_of_more_than_255_dimensions_is_comma_separated():
    # The body starts with the dimension, so a small gem of dimension 256
    # cannot take the byte form either.
    sphere = standard_sphere(256)
    assert canonical_form(sphere) == canonical_form(sphere.relabel((1, 0)))
    assert canonical_form(sphere).startswith(b"256,2,1,1,")
    square = ColoredGraph([(1, 0, 3, 2), (3, 2, 1, 0)] * 128 + [(2, 3, 0, 1)])
    assert canonical_form(square) == canonical_form(square.relabel((2, 0, 3, 1)))
    assert canonical_form(standard_sphere(255)) == bytes([255, 2] + [1] * 256 + [0] * 256)


def test_canonical_form_separates_lens_shifts():
    assert canonical_form(lens_gem(2, 0, 2), "color-permuting") != canonical_form(
        lens_gem(2, 1, 2), "color-permuting"
    )


def test_canonical_form_modes_are_consistent():
    g = random_surface_gem(rng, 8)
    h = g.recolor((1, 2, 0))
    assert canonical_form(g, "color-permuting") == canonical_form(h, "color-permuting")


@pytest.mark.parametrize("mode", ["color-fixed", "color-permuting"])
def test_canonical_labeling_matches_unpruned_reference(mode):
    # Symmetric gems have many labelings tying for the minimum, so this
    # also pins the tie-break: the first (slot order, start) pair wins.
    # Vertex-transitive gems put every start in one automorphism orbit,
    # which is where the orbit skip cuts deepest.
    local = random.Random(2207)
    gems = [
        standard_sphere(3),
        lens_gem(2, 1, 2),
        lens_gem(3, 1, 2),
        lens_gem(5, 2, 4),
        rp2_sum_gem(3),
        sphere_times_circle_gem(4),
    ]
    gems += [catalog(name) for name in ("torus-4.8.8", "klein-4.8.8", "torus-6.6.6", "s2-6.6.4")]
    gems += _run_search(SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)))[0]
    for d in (1, 2, 3, 4):
        for n in (2, 6, 10):
            while True:
                g = ColoredGraph([random_matching(local, n) for _ in range(d + 1)])
                if g.is_connected():
                    break
            gems += [g, g.relabel(random_permutation(local, n))]
    for g in gems:
        assert canonical_labeling(g, mode) == oracle_canonical_labeling(g, mode)


def test_color_permuting_search_passes_through_the_color_fixed_labeling():
    # Dedup reads both forms off one search: its state after the first slot
    # order (the identity) is the color-fixed labeling, its last state the
    # color-permuting one.
    local = random.Random(3511)
    gems = [lens_gem(3, 1, 2), rp2_sum_gem(3), catalog("torus-4.8.8"), sphere_times_circle_gem(3)]
    gems += [random_surface_gem(local, 2 * local.randint(2, 8)) for _ in range(6)]
    for g in gems:
        states = [
            (tuple(enc), label, sigma)
            for enc, label, sigma, _ in _best_labelings(g, "color-permuting")
        ]
        assert len(states) == len(list(itertools.permutations(g.colors)))
        assert states[0] == oracle_canonical_labeling(g, "color-fixed")
        assert states[-1] == oracle_canonical_labeling(g, "color-permuting")


def test_canonical_form_requires_connected():
    disconnected = ColoredGraph([[1, 0, 3, 2], [1, 0, 3, 2], [1, 0, 3, 2]])
    with pytest.raises(NotConnectedError):
        canonical_form(disconnected)


def test_bad_mode_rejected():
    g = standard_sphere(2)
    with pytest.raises(ValueError):
        canonical_form(g, "sideways")
    with pytest.raises(ValueError):
        isomorphic(g, g, "sideways")


def test_relabel_and_recolor_validation():
    g = standard_sphere(2)
    with pytest.raises(ValueError):
        g.relabel([0, 0])
    with pytest.raises(ValueError):
        g.recolor([0, 1, 1])


def test_full_residue_count_detects_connectivity():
    connected = rp2_sum_gem(2)
    assert residue_count(connected, connected.colors) == 1
    disconnected = ColoredGraph([[1, 0, 3, 2]] * 3)
    assert residue_count(disconnected, disconnected.colors) == 2
    assert disconnected.is_connected() is False


def test_bipartite_invariant_under_isomorphism():
    for _ in range(10):
        g = random_surface_gem(rng, 10)
        h = g.relabel(random_permutation(rng, 10)).recolor([2, 0, 1])
        assert is_bipartite(g) == is_bipartite(h)


def _brute_force_isomorphic(a, b):
    """Exhaust all vertex bijections; tractable only for tiny graphs."""
    n = a.vertex_count
    for perm in itertools.permutations(range(n)):
        if all(
            b.matchings[c][perm[v]] == perm[a.matchings[c][v]]
            for c in range(3)
            for v in range(n)
        ):
            return True
    return False


def test_isomorphic_matches_brute_force_on_small_graphs():
    graphs = [random_surface_gem(rng, 6) for _ in range(12)]
    for a, b in itertools.combinations(graphs, 2):
        expected = _brute_force_isomorphic(a, b)
        witness = isomorphic(a, b, "color-fixed")
        assert (witness is not None) == expected
        if witness is not None:
            assert witness.valid_between(a, b)


def test_canonical_form_separates_different_homology():
    # Graphs with different homology are non-isomorphic, so their forms
    # must differ; an independent consistency net around the canonical code.
    for _ in range(15):
        a = random_surface_gem(rng, 8)
        b = random_surface_gem(rng, 8)
        if homology(a) != homology(b):
            assert canonical_form(a, "color-permuting") != canonical_form(
                b, "color-permuting"
            )
