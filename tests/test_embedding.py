import random

import pytest

from gemkit import embedding
from gemkit.core import ColoredGraph, NotConnectedError
from gemkit.embedding import (
    CyclicPermutation,
    EmbeddingReport,
    TypeSignature,
    all_cyclic_permutations,
    euler_characteristic,
    face_cycle_type,
    regular_genus,
    rho_times_2,
    semi_equivelar_report,
    semi_equivelar_type,
)
from gemkit.core import _pair_table, component_index
from gemkit.embedding import _g_values
from gemkit.generators import (
    catalog,
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)

from helpers import (
    oracle_chi_from_counts,
    oracle_regular_genus,
    oracle_semi_equivelar_report,
    oracle_semi_equivelar_type,
    random_gem,
    random_permutation,
    random_surface_gem,
)

rng = random.Random(99)

EPS3 = CyclicPermutation((0, 1, 2))
EPS4 = CyclicPermutation((0, 1, 2, 3))


# -- cyclic permutations ----------------------------------------------------


@pytest.mark.parametrize("d,count", [(1, 1), (2, 1), (3, 3), (4, 12), (5, 60), (6, 360)])
def test_cyclic_permutation_counts(d, count):
    perms = all_cyclic_permutations(d)
    assert len(perms) == count
    assert perms == sorted(perms, key=lambda e: e.order)


@pytest.mark.parametrize("d", range(1, 7))
def test_cached_arrangements_carry_their_pairs(d):
    # The cache hands each arrangement out with its consecutive pairs; they
    # equal pairs(), which still builds them from the order alone.
    cached = embedding._arrangements(d)
    assert [eps for eps, _ in cached] == all_cyclic_permutations(d)
    for eps, pairs in cached:
        k = len(eps.order)
        assert pairs == eps.pairs() == tuple(
            (eps.order[i], eps.order[(i + 1) % k]) for i in range(k)
        )


def test_cyclic_permutations_d3_explicit():
    assert [e.order for e in all_cyclic_permutations(3)] == [
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (0, 2, 1, 3),
    ]


def test_cyclic_permutation_normalization():
    assert CyclicPermutation.from_sequence((2, 3, 0, 1)).order == (0, 1, 2, 3)
    # Reflection is applied when the canonical rule asks for it.
    assert CyclicPermutation.from_sequence((0, 3, 2, 1)).order == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        CyclicPermutation((1, 0, 2))
    with pytest.raises(ValueError):
        CyclicPermutation((0, 3, 2, 1))
    with pytest.raises(ValueError):
        CyclicPermutation((0, 1, 1))


def test_empty_arrangement_is_a_value_error():
    with pytest.raises(ValueError, match=r"^\(\) is not an arrangement"):
        CyclicPermutation(())
    with pytest.raises(ValueError, match=r"^\(\) is not an arrangement"):
        CyclicPermutation.from_sequence(())


def test_pairs_wrap_around():
    assert EPS4.pairs() == ((0, 1), (1, 2), (2, 3), (3, 0))


# -- Euler characteristic and genus ----------------------------------------


def test_chi_standard_sphere_any_arrangement():
    for d in range(2, 6):
        g = standard_sphere(d)
        for eps in all_cyclic_permutations(d):
            assert euler_characteristic(g, eps) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chi_lens_identity(p):
    assert euler_characteristic(lens_gem(p, 1, 2), EPS4) == 0


def test_chi_projective_plane():
    assert euler_characteristic(rp2_sum_gem(1), EPS3) == 1


def test_chi_matches_face_count_derivation():
    gems = [lens_gem(2, 1, 2), torus_sum_gem(2), rp2_sum_gem(3)]
    gems += [random_surface_gem(rng, 10) for _ in range(30)]
    for g in gems:
        for eps in all_cyclic_permutations(g.dimension):
            assert euler_characteristic(g, eps) == oracle_chi_from_counts(
                g, eps.pairs()
            )


def test_chi_rejects_disconnected():
    disconnected = ColoredGraph([[1, 0, 3, 2]] * 3)
    with pytest.raises(NotConnectedError):
        euler_characteristic(disconnected, EPS3)


def test_regular_genus_sphere():
    for d in range(2, 7):
        rg = regular_genus(standard_sphere(d))
        assert rg.rho_times_2 == 0
        assert rg.rho == 0
        assert rg.bipartite


def test_regular_genus_lens():
    rg = regular_genus(lens_gem(2, 1, 2))
    assert rg.rho_times_2 == 2
    assert EPS4 in rg.witnesses
    rg = regular_genus(lens_gem(3, 1, 2))
    assert rg.rho_times_2 == 2
    assert rg.witnesses == (EPS4,)


def test_regular_genus_trivial_closing_reaches_zero():
    # With a zero closing shift the colors 1 and 3 run parallel, so the
    # arrangements separating them embed this 3-sphere gem on the 2-sphere.
    rg = regular_genus(lens_gem(2, 0, 2))
    assert rg.rho_times_2 == 0
    assert EPS4 not in rg.witnesses


def test_regular_genus_torus_sum():
    rg = regular_genus(torus_sum_gem(2))
    assert rg.rho_times_2 == 4
    assert len(rg.witnesses) == 1


# -- face-cycle types -------------------------------------------------------


def test_face_cycle_type_sphere():
    g = standard_sphere(3)
    for eps in all_cyclic_permutations(3):
        for v in (0, 1):
            assert face_cycle_type(g, eps, v) == (2, 2, 2, 2)


def test_face_cycle_type_lens():
    g = lens_gem(2, 1, 2)
    for v in range(g.vertex_count):
        assert face_cycle_type(g, EPS4, v) == (4, 4, 4, 4)


def test_face_cycle_type_sphere_circle():
    g = sphere_times_circle_gem(3)
    want = TypeSignature.from_tuple((6, 6, 6, 2))
    for v in range(g.vertex_count):
        raw = face_cycle_type(g, EPS4, v)
        assert TypeSignature.from_tuple(raw) == want


def test_face_cycle_type_vertex_range():
    with pytest.raises(ValueError):
        face_cycle_type(standard_sphere(2), EPS3, 5)


@pytest.mark.parametrize("size", [3, 5])
def test_face_cycle_type_rejects_an_arrangement_of_another_size(size):
    # A 4-color gem: 3 colors used to give the wrong (4, 4, 6), 5 an IndexError.
    eps = CyclicPermutation(tuple(range(size)))
    with pytest.raises(ValueError, match="does not match dimension 3"):
        face_cycle_type(lens_gem(3, 1, 2), eps, 0)


def test_face_cycle_type_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        face_cycle_type(ColoredGraph([[1, 0, 3, 2]] * 3), EPS3, 0)


# -- type signatures --------------------------------------------------------


def test_signature_canonicalization():
    assert TypeSignature.from_tuple((6, 4, 6)).faces == (4, 6, 6)
    assert TypeSignature.from_tuple((4, 6, 8)) == TypeSignature.from_tuple((4, 8, 6))
    assert TypeSignature.from_tuple((4, 4, 4, 4)).condensed == ((4, 4),)
    assert TypeSignature.from_tuple((6, 6, 2, 6)).condensed == ((2, 1), (6, 3))
    assert str(TypeSignature.from_tuple((4, 6, 6))) == "(4^1,6^2)"


def test_signature_distinguishes_arrangements():
    # Same multiset, genuinely different cyclic orders.
    assert TypeSignature.from_tuple((4, 4, 6, 6)) != TypeSignature.from_tuple(
        (4, 6, 4, 6)
    )


def test_signature_validation():
    with pytest.raises(ValueError):
        TypeSignature.from_tuple((3, 4, 5))
    with pytest.raises(ValueError):
        TypeSignature((6, 4, 6))  # not canonical
    for build in (TypeSignature, TypeSignature.from_tuple):
        with pytest.raises(ValueError, match="at least one face"):
            build(())


# -- semi-equivelar detection ------------------------------------------------


def test_semi_equivelar_torus():
    sig = semi_equivelar_type(torus_sum_gem(1), EPS3)
    assert sig == TypeSignature.from_tuple((6, 6, 6))


def test_semi_equivelar_bigon_policy():
    g = sphere_times_circle_gem(3)
    assert semi_equivelar_type(g, EPS4, "exclude") is None
    sig = semi_equivelar_type(g, EPS4, "include")
    assert sig == TypeSignature.from_tuple((2, 6, 6, 6))
    with pytest.raises(ValueError):
        semi_equivelar_type(g, EPS4, "sometimes")


def test_semi_equivelar_detects_irregular_vertices():
    g = torus_sum_gem(1)
    # Replace the antipodal matching so vertex 0 sits on a square while
    # vertex 4 sits on a bigon; faces stop being uniform.
    broken = ColoredGraph([g.matchings[0], g.matchings[1], [2, 3, 0, 1, 5, 4]])
    assert semi_equivelar_type(broken, EPS3, "include") is None
    assert semi_equivelar_type(broken, EPS3, "exclude") is None
    types = {
        TypeSignature.from_tuple(face_cycle_type(broken, EPS3, v)) for v in range(6)
    }
    assert len(types) > 1


def test_semi_equivelar_report_lens():
    rep = semi_equivelar_report(lens_gem(2, 1, 2), bigons="include")
    assert rep.witness_rho_times_2 == 2
    assert EPS4 in rep.witness_permutations
    assert [r.rho_times_2 for r in rep.reports] == sorted(
        r.rho_times_2 for r in rep.reports
    )


def test_semi_equivelar_report_sphere():
    rep = semi_equivelar_report(standard_sphere(3), bigons="include")
    assert rep.witness_rho_times_2 == 0
    best = rep.reports[0]
    assert best.signature == TypeSignature.from_tuple((2, 2, 2, 2))


def test_semi_equivelar_report_projective_plane():
    rep = semi_equivelar_report(rp2_sum_gem(1))
    assert rep.witness_rho_times_2 == 1
    assert rep.reports[0].signature == TypeSignature.from_tuple((4, 4, 4))
    assert not rep.reports[0].orientable


def test_embedding_report_is_immutable_and_hashable():
    rep = semi_equivelar_report(lens_gem(2, 1, 2)).reports[0]
    with pytest.raises(AttributeError):
        rep.chi = 5
    assert rep.chi == 0
    assert hash(rep) == hash(EmbeddingReport(*rep))
    assert len({rep, EmbeddingReport(*rep)}) == 1


def test_report_json_shape():
    rep = semi_equivelar_report(lens_gem(2, 1, 2))
    data = rep.reports[0].to_json_dict()
    assert set(data) == {
        "epsilon",
        "g_values",
        "chi",
        "rho_times_2",
        "orientable",
        "type",
        "condensed",
    }
    assert data["epsilon"] == [0, 1, 2, 3]
    assert data["chi"] == 0
    assert data["rho_times_2"] == 2
    assert data["type"] == [4, 4, 4, 4]
    assert data["condensed"] == "(4^4)"


def test_no_witness_when_nothing_qualifies():
    rep = semi_equivelar_report(standard_sphere(3), bigons="exclude")
    assert rep.witness_rho_times_2 is None
    assert rep.witness_permutations == ()


def _face_multisets(g, eps):
    """The distinct sorted face-length tuples over all vertices."""
    return {tuple(sorted(face_cycle_type(g, eps, v))) for v in range(g.vertex_count)}


def test_multiset_diagnostic_is_weaker():
    # Vertex-uniform tuples imply uniform multisets, never the reverse.
    for g in (lens_gem(3, 1, 2), torus_sum_gem(1), sphere_times_circle_gem(4)):
        eps = CyclicPermutation(tuple(range(g.dimension + 1)))
        if semi_equivelar_type(g, eps, "include") is not None:
            assert len(_face_multisets(g, eps)) == 1
    broken = ColoredGraph(
        [torus_sum_gem(1).matchings[0], torus_sum_gem(1).matchings[1], [2, 3, 0, 1, 5, 4]]
    )
    assert len(_face_multisets(broken, EPS3)) > 1


def test_witness_never_beats_regular_genus():
    # The vertex-uniform witness minimizes over a subset of arrangements.
    for g in (
        lens_gem(2, 1, 2),
        lens_gem(2, 0, 2),
        rp2_sum_gem(2),
        torus_sum_gem(3),
        sphere_times_circle_gem(4),
    ):
        for policy in ("include", "exclude"):
            rep = semi_equivelar_report(g, bigons=policy)
            if rep.witness_rho_times_2 is not None:
                assert rep.witness_rho_times_2 >= regular_genus(g).rho_times_2


# -- invariance under isomorphism -------------------------------------------


def test_equivariance_under_relabeling():
    for _ in range(10):
        g = random_surface_gem(rng, 8)
        h = g.relabel(random_permutation(rng, 8))
        assert regular_genus(g).rho_times_2 == regular_genus(h).rho_times_2
        assert semi_equivelar_type(g, EPS3) == semi_equivelar_type(h, EPS3)


def test_equivariance_under_recoloring():
    # A color bijection carries the arrangement along with the graph.
    g = lens_gem(2, 1, 4)
    cmap = (2, 0, 3, 1)
    h = g.recolor(cmap)
    eps_h = CyclicPermutation.from_sequence(cmap[c] for c in EPS4)
    assert semi_equivelar_type(g, EPS4) == semi_equivelar_type(h, eps_h)
    assert regular_genus(g).rho_times_2 == regular_genus(h).rho_times_2


def test_all_face_lengths_even():
    for _ in range(20):
        g = random_surface_gem(rng, 10)
        for v in range(g.vertex_count):
            for f in face_cycle_type(g, EPS3, v):
                assert f >= 2 and f % 2 == 0


def test_rho_exactness():
    # Doubled genus is always an exact integer, an odd one only for
    # non-orientable surfaces.
    g = rp2_sum_gem(1)
    assert rho_times_2(g, EPS3) == 1
    assert isinstance(rho_times_2(g, EPS3), int)


def test_genus_parity_on_manifold_gems():
    # Bipartite manifold gems embed into orientable surfaces: chi is even
    # and the doubled genus a nonnegative even number for every arrangement.
    for g in (lens_gem(3, 1, 2), lens_gem(2, 0, 2), torus_sum_gem(2)):
        for eps in all_cyclic_permutations(g.dimension):
            r2 = rho_times_2(g, eps)
            assert r2 >= 0 and r2 % 2 == 0
    for g in (rp2_sum_gem(1), rp2_sum_gem(4)):
        assert rho_times_2(g, EPS3) >= 0


# -- the pair-cycle table against the per-arrangement reference -------------


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_pair_cycles_count_components(d):
    g = random_gem(random.Random(d), d, 12)
    table = _pair_table(g)
    counts = _g_values(table)
    assert len(table) == len(counts) == d * (d + 1)
    for (a, b), lengths in table.items():
        idx, count = component_index(g, (a, b))
        assert lengths == [idx.count(i) for i in idx]  # each vertex's cycle length
        assert counts[a, b] == count
        assert table[b, a] == lengths and counts[b, a] == counts[a, b]


# Orders and gems per order: the per-arrangement reference slows with d!/2.
_REFERENCE_SHAPES = {6: ((2, 4, 8, 12), 2), 7: ((8, 12), 1)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_report_and_genus_match_per_arrangement_reference(d):
    r = random.Random(1000 + d)
    orders, count = _REFERENCE_SHAPES.get(d, ((2, 4, 8, 12), 4))
    for n in orders:
        for _ in range(count):
            g = random_gem(r, d, n)
            assert regular_genus(g) == oracle_regular_genus(g)
            for policy in ("include", "exclude"):
                rep = semi_equivelar_report(g, policy)
                assert rep == oracle_semi_equivelar_report(g, policy)
            for eps in all_cyclic_permutations(d)[:3]:
                assert semi_equivelar_type(g, eps, "include") == (
                    oracle_semi_equivelar_type(g, eps, "include")
                )


def _uniform_gems():
    return [
        standard_sphere(4),
        lens_gem(5, 2, 2),
        lens_gem(3, 1, 4),
        rp2_sum_gem(3),
        torus_sum_gem(2),
    ] + [
        sphere_times_circle_gem(d, twisted)
        for d in (4, 5, 6)
        for twisted in (False, True)
    ] + [
        sphere_times_circle_gem(7),  # 2 qualifying arrangements with bigons
    ] + [
        catalog(name)
        for name in ("torus-4.8.8", "klein-6.6.6", "s2-6.6.4", "rp2-4.4.2p", "s2-4.4.p")
    ]


def test_genus_zero_matches_regular_genus():
    # The exhaustive regular_genus is the reference for the early-exit scan
    # and its degree-two bound; random gems of small order are often genus 0.
    gems = _uniform_gems() + [standard_sphere(d) for d in (2, 3, 7)]
    gems += [catalog("s2-4.4.4"), lens_gem(2, 0, 2), lens_gem(3, 1, 2)]
    r = random.Random(2106)
    for d in range(2, 7):
        gems += [random_gem(r, d, 2 * r.randint(1, 5)) for _ in range(40)]
    zero = 0
    for g in gems:
        assert embedding._genus_zero(g) == (regular_genus(g).rho_times_2 == 0)
        zero += embedding._genus_zero(g)
    assert 0 < zero < len(gems)


@pytest.mark.parametrize("d", range(1, 8))
def test_genus_zero_matches_the_per_arrangement_reference(d):
    # The search's bound must hold at d = 1 too, where both pairs of the
    # one arrangement (0, 1) join the same two colors.
    r = random.Random(2600 + d)
    gems = [random_gem(r, d, 2 * r.randint(1, 4 if d < 7 else 3)) for _ in range(12)]
    if d == 1:
        gems.append(ColoredGraph([[1, 0], [1, 0]]))
    for g in gems:
        assert embedding._genus_zero(g) == (oracle_regular_genus(g).rho_times_2 == 0)


@pytest.mark.parametrize("d", range(1, 8))
def test_sphere_genus_keeps_every_tie_in_order(d):
    # Every arrangement of the standard sphere has chi = 2, so the search
    # cuts nothing and must return all of them in their order.
    assert regular_genus(standard_sphere(d)).witnesses == tuple(all_cyclic_permutations(d))


def test_report_matches_reference_on_relabeled_uniform_gems():
    # These gems have arrangements where every vertex sees one signature, so
    # the uniformity test compares all vertices; random gems almost never do.
    # The d >= 5 gems are not vertex-uniform, so they take the witness-sum
    # reject of semi_equivelar_report, whose qualifying arrangements it must
    # keep.
    r = random.Random(7)
    qualified = 0
    for g in _uniform_gems():
        h = g.relabel(random_permutation(r, g.vertex_count))
        assert regular_genus(h) == oracle_regular_genus(h)
        for policy in ("include", "exclude"):
            rep = semi_equivelar_report(h, policy)
            assert rep == oracle_semi_equivelar_report(h, policy)
            qualified += rep.witness_rho_times_2 is not None
    assert qualified >= 26


# Under (0,2,1,3) every vertex sees the faces {2, 4, 4, 8}, but as two
# different cyclic words, (2,4,4,8) and (2,4,8,4).
MULTISET_ONLY = ColoredGraph(
    [
        (1, 0, 3, 2, 5, 4, 7, 6),
        (7, 6, 4, 5, 2, 3, 1, 0),
        (7, 6, 3, 2, 5, 4, 1, 0),
        (2, 5, 0, 6, 7, 1, 3, 4),
    ]
)


def test_same_multiset_is_not_the_same_cyclic_word():
    eps = CyclicPermutation((0, 2, 1, 3))
    assert len(_face_multisets(MULTISET_ONLY, eps)) == 1
    assert semi_equivelar_type(MULTISET_ONLY, eps, "include") is None
    rep = semi_equivelar_report(MULTISET_ONLY, "include")
    assert rep == oracle_semi_equivelar_report(MULTISET_ONLY, "include")
    assert next(r for r in rep.reports if r.epsilon == eps).signature is None


def test_report_rejects_bad_bigon_policy():
    with pytest.raises(ValueError):
        semi_equivelar_report(lens_gem(2, 1, 2), bigons="maybe")
    with pytest.raises(NotConnectedError):
        semi_equivelar_report(ColoredGraph([[1, 0, 3, 2]] * 3), bigons="maybe")
