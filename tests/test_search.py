import hashlib
import inspect
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from gemkit.core import ColoredGraph, canonical_form, is_bipartite, isomorphic
from gemkit.embedding import (
    CyclicPermutation,
    _canonical_cyclic,
    euler_characteristic,
    face_cycle_type,
)
from gemkit.complexes import homology
from gemkit import search
from gemkit.search import (
    BudgetExceededError,
    SearchSpec,
    classify_4_4,
    enumerate_embedding_types,
    find_gems,
    first_gem,
    search_report,
)

from helpers import (
    all_perfect_matchings,
    oracle_canonical_labeling,
    oracle_components,
    oracle_is_bipartite,
    stored_hit_list,
    standard_matching,
)


# -- type enumeration ---------------------------------------------------------


def _table(chi, qmax=16):
    return {
        s.type_str(): s.order for s in enumerate_embedding_types(chi, qmax)
    }


def test_types_chi_positive():
    assert _table(1) == {
        "(4^3)": 4,
        "(4^1,6^2)": 12,
        "(4^1,6^1,8^1)": 24,
        "(4^1,6^1,10^1)": 60,
        "(4^2,q^1)": "q",
    }
    assert _table(2) == {
        "(4^3)": 8,
        "(4^1,6^2)": 24,
        "(4^1,6^1,8^1)": 48,
        "(4^1,6^1,10^1)": 120,
        "(4^2,q^1)": "2q",
    }


def test_types_chi_zero():
    assert _table(0) == {
        "(4^4)": None,
        "(6^3)": None,
        "(4^1,8^2)": None,
        "(4^1,6^1,12^1)": None,
    }


def test_types_validation():
    with pytest.raises(ValueError):
        enumerate_embedding_types(3)
    with pytest.raises(ValueError):
        enumerate_embedding_types(1, q_max=2)


def test_types_negative_chi_contains_expected_members():
    table = _table(-1, qmax=12)
    assert table.get("(4^5)") == 4
    assert table.get("(8^3)") == 8


def test_types_against_brute_force():
    # Independent re-derivation: loop over every multiset of even face
    # lengths and keep those whose identity gives a positive integer order.
    qmax = 12
    for chi in (2, 1, 0, -1, -2):
        degrees = range(3, max(4, 4 - chi) + 1)
        brute = set()
        for dp in degrees:
            for combo in itertools.combinations_with_replacement(
                range(4, qmax + 1, 2), dp
            ):
                r = 1 - Fraction(dp, 2) + sum(Fraction(1, q) for q in combo)
                if r == 0:
                    if chi == 0:
                        brute.add((combo, None))
                elif (Fraction(chi) / r).denominator == 1 and Fraction(chi) / r >= 4:
                    brute.add((combo, int(Fraction(chi) / r)))
        produced = set()
        for s in enumerate_embedding_types(chi, qmax):
            if s.parametric:
                for q in range(6, qmax + 1, 2):
                    produced.add(((4, 4, q), chi * q))
            else:
                faces = []
                for qv, k in s.runs:
                    faces.extend([qv] * k)
                produced.add((tuple(sorted(faces)), s.order))
        assert produced == brute


def test_cyclic_arrangements_match_brute_force():
    r = random.Random(5)
    for size in range(1, 9):
        for _ in range(1 if size == 8 else 4):
            combo = tuple(sorted(r.choice((4, 6, 8, 10)) for _ in range(size)))
            brute = sorted({_canonical_cyclic(p) for p in itertools.permutations(combo)})
            assert search._cyclic_arrangements(combo) == brute


def test_types_chi_minus_6_pinned():
    # Count and SHA-256 of the JSON list, as produced when every
    # permutation of each face multiset was canonicalized.
    sols = enumerate_embedding_types(-6)
    assert len(sols) == 719
    raw = json.dumps([s.to_json_dict() for s in sols]).encode()
    assert hashlib.sha256(raw).hexdigest() == (
        "95e5842885f8c6015bd44b96d3e95ac3d782fbdf6a319148273b65377261872a"
    )


def test_type_solution_json():
    sols = enumerate_embedding_types(1)
    data = [s.to_json_dict() for s in sols]
    assert {"type", "runs", "order", "chi"} == set(data[0])
    parametric = [s for s in sols if s.parametric]
    assert len(parametric) == 1
    assert parametric[0].order_str() == "q"


# -- constrained search --------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(colors=5, order=8)
    with pytest.raises(ValueError):
        SearchSpec(colors=3, order=7)
    with pytest.raises(ValueError):
        SearchSpec(colors=3, order=8, bipartite="maybe")
    with pytest.raises(ValueError):
        SearchSpec(colors=3, order=8, vertex_types=(4, 4))
    with pytest.raises(ValueError):
        SearchSpec(colors=3, order=8, pair_lengths={(0, 5): (4,)})
    with pytest.raises(ValueError):
        SearchSpec(colors=3, order=8, pair_lengths={(0, 1): (3,)})


def test_spec_json_round_trip():
    spec = SearchSpec(
        colors=3,
        order=12,
        vertex_types=(6, 4, 6),
        bipartite="none",
        chi=1,
    )
    again = SearchSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec
    assert again.vertex_types == (4, 6, 6)


@pytest.mark.parametrize("vertex_types", [0, False, "", {}, []])
def test_spec_json_rejects_falsy_vertex_types(vertex_types):
    with pytest.raises(ValueError, match="vertex_types"):
        SearchSpec.from_json_dict({"colors": 3, "order": 8, "vertex_types": vertex_types})


def test_spec_json_rejects_an_unknown_key():
    # A misspelt key must not silently drop its constraint.
    with pytest.raises(ValueError, match="unknown key 'vertex_type'"):
        SearchSpec.from_json_dict({"colors": 3, "order": 8, "vertex_type": [4, 4, 4]})


def test_spec_json_null_or_missing_vertex_types_is_no_constraint():
    for data in ({"colors": 3, "order": 8, "vertex_types": None}, {"colors": 3, "order": 8}):
        assert SearchSpec.from_json_dict(data).vertex_types is None


def test_spec_rejects_a_color_pair_given_twice():
    # "01" and "10" name the same pair; neither length set may win silently.
    data = {"colors": 3, "order": 12, "pair_lengths": {"01": [4], "10": [6]}}
    with pytest.raises(ValueError, match="color pair 01 is given twice"):
        SearchSpec.from_json_dict(data)
    with pytest.raises(ValueError, match="color pair 01 is given twice"):
        SearchSpec(colors=3, order=12, pair_lengths={(0, 1): (4,), (1, 0): (4,)})


def test_search_order_4_squares_matches_brute_force():
    spec = SearchSpec(
        colors=3,
        order=4,
        pair_lengths={(0, 1): (4,), (0, 2): (4,), (1, 2): (4,)},
    )
    gems = find_gems(spec)
    assert len(gems) == 1

    # Brute force: all pairs of matchings over the fixed first color.
    m0 = standard_matching(4)
    survivors = []
    for m1 in all_perfect_matchings(4):
        for m2 in all_perfect_matchings(4):
            try:
                from gemkit.core import ColoredGraph

                g = ColoredGraph([m0, m1, m2])
            except ValueError:
                continue
            eps = CyclicPermutation((0, 1, 2))
            if not g.is_connected():
                continue
            if all(
                face_cycle_type(g, eps, v) == (4, 4, 4) for v in range(4)
            ):
                survivors.append(g)
    assert survivors
    assert all(
        isomorphic(g, gems[0], "color-permuting") is not None for g in survivors
    )


# Count and SHA-256 of the JSON list of each hit's matchings, in search
# order, as the search produced them before color 2 skipped
# interchangeable alternating cycles.  The lists themselves are in
# tests/data/hit_lists_before_orbit_rule.json; ORBIT_HIT_LISTS below pins
# the lists of today's search.
PINNED_HIT_LISTS = [
    (
        SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)),
        546,
        "602097b2d5e7d11f417301ee91e38508fbe1defb98651ab69239ba5f81c174b2",
    ),
    (
        SearchSpec(colors=3, order=8, vertex_types=(4, 8, 8)),
        30,
        "9ec2221403c6c23dfbf658a8416b6b66047a0595e70ed860c0a629ca91eaebac",
    ),
    (
        SearchSpec(colors=4, order=8, vertex_types=(4, 4, 4, 4)),
        36,
        "e3449dc73e47eb23c2d9b64853643d6cafb1ac57f9c23f734828be16f167bb68",
    ),
]


_SQUARES = {(0, 1): (4,), (1, 2): (4,), (2, 3): (4,), (0, 3): (4,)}

# The same for bipartite searches (the lists were already those of checking
# bipartiteness at the leaves alone).  Today's bipartite search covers only
# the parity normal form, so its hits are relabelings of stored ones and are
# checked by color-fixed class instead of as a subsequence.
PINNED_BIPARTITE_HIT_LISTS = [
    (
        SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8), bipartite="only"),
        1200,
        "d15d2179887296812815e2ccac51ed4524ba96e7280a18bd4bfa26a9854ca529",
    ),
    (
        SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12), bipartite="only"),
        78,
        "0058d9d858bdd6852a3cf44b15310a655af89b8f04879e8503390f5086e7b586",
    ),
    (
        SearchSpec(colors=3, order=12, vertex_types=(6, 6, 6), bipartite="only"),
        18,
        "f26f0749fe1ba6a38a2219b8faa73fa3dfcf3b107c5c561d6d6e3d24d3ac8491",
    ),
    (
        SearchSpec(colors=4, order=12, pair_lengths=_SQUARES, bipartite="only"),
        128,
        "2abcc228adbbfba1817becb2883d6e9d9464ec229eb6e38daa28b5ff3009e7d2",
    ),
]


# Stored list's digest -> count and SHA-256 of the list the search returns now.
ORBIT_HIT_LISTS = {
    "602097b2d5e7d11f417301ee91e38508fbe1defb98651ab69239ba5f81c174b2": (
        42,
        "7164d1528a6cbf28b6ed1d30b40632a3acf2b5a0567f7909115cf1641e3a5b73",
    ),
    "9ec2221403c6c23dfbf658a8416b6b66047a0595e70ed860c0a629ca91eaebac": (
        15,
        "1c49b10503d900df6ed3f22bb5da3a30b168294e6e288c86e6693e73b79ae61e",
    ),
    "e3449dc73e47eb23c2d9b64853643d6cafb1ac57f9c23f734828be16f167bb68": (
        18,
        "28c32aca60b4f2736c1350d9ab15b9deec5cfdf22026316d4ec7881a0fe4f88c",
    ),
    "d15d2179887296812815e2ccac51ed4524ba96e7280a18bd4bfa26a9854ca529": (
        9,
        "a2c07a827bd2f000ca031a298fcd4936ef6ff39fc37338a5e6e159bef3562417",
    ),
    "0058d9d858bdd6852a3cf44b15310a655af89b8f04879e8503390f5086e7b586": (
        6,
        "8135393767743918cb8e6fdac6b84267e62a1b8fa42c4fc43bc5d87348be1da2",
    ),
    "f26f0749fe1ba6a38a2219b8faa73fa3dfcf3b107c5c561d6d6e3d24d3ac8491": (
        3,
        "5473df19ae5fda5850b4ade43a96dc73220a6c4602a81fe04bfe701d9a49bc45",
    ),
    "2abcc228adbbfba1817becb2883d6e9d9464ec229eb6e38daa28b5ff3009e7d2": (
        11,
        "7490afdd6ad6c361581616e2d77cd036f7b2e70c1cecbede36ab7f3fbf67a151",
    ),
}


def _json_digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _fixed_classes(graphs) -> set[bytes]:
    return {canonical_form(g, "color-fixed") for g in graphs}


def _in_parity_normal_form(matchings) -> bool:
    # every edge joins an even and an odd vertex
    return all((v ^ w) & 1 for m in matchings for v, w in enumerate(m))


@pytest.mark.parametrize(
    "spec, count, digest", PINNED_HIT_LISTS + PINNED_BIPARTITE_HIT_LISTS
)
def test_search_hit_lists_pinned(spec, count, digest):
    # The orbit rule only drops hits whose automorphic image came earlier, so
    # today's list is a subsequence of the stored one that still holds the
    # first hit of every color-fixed class.  A bipartite search keeps to the
    # parity normal form instead of the stored labelings, so there the two
    # lists must have the same color-fixed classes.
    before = stored_hit_list(spec)
    assert len(before) == count and _json_digest(before) == digest
    hits, exhaustive = search._run_search(spec)
    assert exhaustive
    now = [[list(m) for m in g.matchings] for g in hits]
    assert all(a < b for a, b in zip(now, now[1:]))  # DFS order is lexicographic
    firsts: dict[bytes, list] = {}
    for h in before:
        firsts.setdefault(canonical_form(ColoredGraph(h), "color-fixed"), h)
    if spec.bipartite == "only":
        assert all(_in_parity_normal_form(h) for h in now)
        assert _fixed_classes(hits) == firsts.keys()
    else:
        rest = iter(before)
        assert all(h in rest for h in now)
        assert all(h in now for h in firsts.values())
    assert (len(now), _json_digest(now)) == ORBIT_HIT_LISTS[digest]


# Specs whose pair (0, 1) allows bigons, so color 1 starts at vertex 0 with
# every partner open; every other pinned spec excludes them and starts at
# vertex 1.  Count and SHA-256 of the hit list (as above) and the number of
# classes.
VERTEX_0_HIT_LISTS = [
    (
        SearchSpec(colors=3, order=12, pair_lengths={(0, 2): (6,), (1, 2): (6,)}, bigons="include"),
        117,
        "01f9c24b2603b1aa1382b77a3e23bde2ec85ea85c78cb48e28758fae7222b76f",
        13,
    ),
    (
        SearchSpec(colors=4, order=8, vertex_types=(2, 4, 4, 8), bigons="include"),
        64,
        "6c0b9a2ede3d645a5dae28406d00f9ca2d17efa8080a91903feca936f4af3ab2",
        3,
    ),
]


@pytest.mark.parametrize("spec, count, digest, classes", VERTEX_0_HIT_LISTS)
def test_vertex_0_start_hit_lists_pinned(spec, count, digest, classes):
    hits, exhaustive = search._run_search(spec)
    assert exhaustive
    now = [[list(m) for m in g.matchings] for g in hits]
    assert all(a < b for a, b in zip(now, now[1:]))
    assert (len(now), _json_digest(now)) == (count, digest)
    assert len(search._dedup_canonical(hits)) == classes


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8)),
        SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12), bipartite="only"),
    ],
)
def test_limit_returns_the_first_hits(spec):
    hits, exhaustive = search._run_search(spec)
    assert exhaustive
    assert first_gem(spec).matchings == hits[0].matchings
    for k in range(1, len(hits) + 1):
        head, done = search._run_search(spec, limit=k)
        assert not done
        assert [g.matchings for g in head] == [g.matchings for g in hits[:k]]


# SHA-256 of search_report(spec).to_json_dict(), keys sorted, for the five
# specs of the perfbench `search` workload: the classes, their order and
# their representatives do not depend on how many duplicates the DFS emits.
PINNED_REPORTS = [
    (
        SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8)),
        "f57acf40772acea68f634828c96ba98682f5eace0b836b72af0850575002ec9a",
    ),
    (
        SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8), bipartite="only"),
        "ecd78aa1a68498b62d3f90afc7766c3a6cae97503fb219194cd9782214f5a1df",
    ),
    (
        SearchSpec(colors=3, order=18, pair_lengths={(0, 1): (6,), (0, 2): (6,), (1, 2): (6,)}),
        "75e847835cdf36ff15b122df922a7cc27269f60b1fb2eee771282fef35181497",
    ),
    (
        SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)),
        "c740a1ed7b8721079bc43d9676c95b1e5719beee2593b1290f07d5b07701976b",
    ),
    (
        SearchSpec(colors=3, order=12, vertex_types=(6, 6, 4), chi=1),
        "cd807643f368c20dbd1a03793b3a9b3977640076adba6995c65e60314cb7f800",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_REPORTS)
def test_search_report_pinned(spec, digest):
    assert _json_digest(search_report(spec).to_json_dict()) == digest


def _counted_dfs(spec):
    """Run the DFS of ``spec``; return its hits and every leaf it reached."""
    reached = list(search._matching_dfs(spec))
    return list(filter(search._leaf_filter(spec), reached)), reached


# Specs where the room cut prunes most of the DFS: each open path is bounded
# by the longest cycle its vertices may still lie on.  Count and SHA-256 of
# the hit list (as above), leaves reached and classes, pinned from the
# search without that cut.  The cut drops only branches that would reach no
# leaf (the cycle counts cut them when the cycle closes), so the number of
# leaves is pinned too.
ROOM_CUT_HIT_LISTS = [
    (
        SearchSpec(colors=3, order=20, vertex_types=(4, 4, 10)),
        3,
        "983e587fd1738bcba37557ea23e6acc172a74dd6bbe4ca66fc33abdc8f394084",
        3,
        1,
    ),
    (
        SearchSpec(colors=3, order=16, vertex_types=(4, 6, 8)),
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        0,
        0,
    ),
    (
        SearchSpec(colors=4, order=12, vertex_types=(4, 4, 6, 6)),
        3072,
        "0e051d3b21a881fa50cd65b61bdcfe57f73b6779d969b4f6742f1c61b1373a84",
        3072,
        None,  # 57 classes; deduplicating 3,072 hits takes about a second
    ),
    (
        SearchSpec(colors=3, order=24, vertex_types=(4, 6, 12), bipartite="only"),
        18,
        "3d312f67d5ec04076fbe07200017a803231b0a427574519d1619553834ba28b8",
        98,
        1,
    ),
]


@pytest.mark.parametrize("spec, count, digest, leaves, classes", ROOM_CUT_HIT_LISTS)
def test_room_cut_hit_lists_pinned(spec, count, digest, leaves, classes):
    hits, reached = _counted_dfs(spec)
    now = [[list(m) for m in g.matchings] for g in hits]
    assert (len(now), _json_digest(now), len(reached)) == (count, digest, leaves)
    if classes is not None:
        assert len(search._dedup_canonical(hits)) == classes


def test_bigon_free_hits_take_the_edge_1_2():
    # Color 1 starts at vertex 1, where the orbit rule leaves only partner 2.
    for spec, *_ in PINNED_HIT_LISTS + PINNED_BIPARTITE_HIT_LISTS + ROOM_CUT_HIT_LISTS:
        assert spec.bigons == "exclude"
        hits, _ = search._run_search(spec)
        assert all(g.matchings[1][1] == 2 for g in hits)


def test_vertex_types_prune_inside_the_dfs():
    # (4,6,12)/12: the per-vertex cycle counts cut every branch whose
    # leaves would fail the vertex-type check, so every leaf reached is a
    # hit (42 of them; without the counts and the orbit rule on color 2,
    # 5,816 leaves reached the leaf filter for 546 hits).
    hits, reached = _counted_dfs(SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)))
    assert len(hits) == len(reached) == 42


def test_bipartite_prunes_inside_the_dfs():
    # (4,8,8)/16: the "any" spec has no parity cut, and 320 leaves reach
    # the leaf filter, 300 of them not bipartite.  The "only" spec covers
    # the parity normal form, where every edge joins an even and an odd
    # vertex: it reaches 20 leaves, all bipartite, for 9 hits.  Those are
    # other labelings than the bipartite hits of "any", of the same
    # color-fixed classes.
    runs = {
        mode: _counted_dfs(
            SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8), bipartite=mode)
        )
        for mode in ("any", "only")
    }
    (plain, plain_reached), (cut, cut_reached) = runs["any"], runs["only"]
    assert len(plain_reached) == 320
    assert sum(not oracle_is_bipartite(g) for g in plain_reached) == 300
    assert len(cut_reached) == 20
    assert all(oracle_is_bipartite(g) for g in cut_reached)
    assert len(cut) == 9
    assert all(_in_parity_normal_form(g.matchings) for g in cut)
    assert _fixed_classes(cut) == _fixed_classes(g for g in plain if oracle_is_bipartite(g))


@pytest.mark.parametrize("order, raw", [(8, 4), (12, 11)])
def test_bipartite_squares_search_keeps_the_color_fixed_classes(order, raw):
    # The 4-color all-squares spec, which the 3-color brute-force oracle
    # does not reach: the normal form's raw hits (at order 12, 11 where
    # every bipartite labeling gave 35) fall into the same color-fixed
    # classes as the bipartite hits of the "any" search.
    only, _ = _counted_dfs(SearchSpec(colors=4, order=order, pair_lengths=_SQUARES, bipartite="only"))
    plain, _ = _counted_dfs(SearchSpec(colors=4, order=order, pair_lengths=_SQUARES))
    assert len(only) == raw
    assert all(_in_parity_normal_form(g.matchings) for g in only)
    assert _fixed_classes(only) == _fixed_classes(g for g in plain if oracle_is_bipartite(g))


@pytest.mark.parametrize(
    "spec",
    [spec for spec, *_ in PINNED_BIPARTITE_HIT_LISTS]
    + [SearchSpec(colors=4, order=16, pair_lengths=_SQUARES, bipartite="only")],
)
def test_bipartite_search_reaches_only_bipartite_leaves(spec):
    # The leaf filter does not test bipartiteness for a bipartite-only spec:
    # the DFS builds the parity normal form, so every leaf is bipartite.
    reached = list(search._matching_dfs(spec))
    assert reached
    assert all(oracle_is_bipartite(g) for g in reached)


def test_dfs_takes_no_python_frame_per_level():
    # The DFS keeps its own stack of frames, so it runs within a few Python
    # frames of headroom above its caller, however deep the search goes.
    spec = SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8), bipartite="only")
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        hits, exhaustive = search._run_search(spec)
    finally:
        sys.setrecursionlimit(old)
    assert exhaustive
    assert len(hits) == 9


def test_order_24_bipartite_4_6_12_search_finds_a_torus():
    spec = SearchSpec(colors=3, order=24, vertex_types=(4, 6, 12), bipartite="only")
    g = first_gem(spec)
    assert g is not None
    assert g.is_connected()
    assert oracle_is_bipartite(g)
    eps = CyclicPermutation((0, 1, 2))
    for v in range(g.vertex_count):
        assert sorted(face_cycle_type(g, eps, v)) == [4, 6, 12]
    assert euler_characteristic(g, eps) == 0


def test_vertex_type_search_matches_brute_force():
    # Every 3-colored graph of order <= 8 over the fixed first matching,
    # sorted by the face multiset its vertices share (if they share one)
    # and by bipartiteness, with face lengths taken from component sizes,
    # bipartiteness from a BFS 2-colouring and classes from the unpruned
    # canonical labeling in both color modes.  The raw hits must meet every
    # class the brute force finds and no other: the DFS's orbit rules keep a
    # representative of each color-fixed class.
    from gemkit.core import ColoredGraph

    modes = ("color-fixed", "color-permuting")

    def forms(g):
        return tuple(oracle_canonical_labeling(g, mode)[0] for mode in modes)

    for n in (4, 6, 8):
        classes: dict[tuple[int, ...], set] = {}
        bipartite: dict[tuple[int, ...], set] = {}
        matchings = all_perfect_matchings(n)
        for m1, m2 in itertools.product(matchings, repeat=2):
            try:
                g = ColoredGraph([standard_matching(n), m1, m2])
            except ValueError:
                continue
            if len(oracle_components(g, g.colors)) != 1:
                continue
            face = [[0] * n for _ in range(3)]
            for i, pair in enumerate(((0, 1), (1, 2), (0, 2))):
                for comp in oracle_components(g, pair):
                    for v in comp:
                        face[i][v] = len(comp)
            types = {tuple(sorted(col[v] for col in face)) for v in range(n)}
            if len(types) == 1:
                vt = types.pop()
                classes.setdefault(vt, set()).add(forms(g))
                if oracle_is_bipartite(g):
                    bipartite.setdefault(vt, set()).add(forms(g))
        for vt in itertools.combinations_with_replacement(range(2, n + 1, 2), 3):
            every = classes.get(vt, set())
            only = bipartite.get(vt, set())
            for policy, want in (("any", every), ("only", only), ("none", every - only)):
                spec = SearchSpec(
                    colors=3,
                    order=n,
                    vertex_types=vt,
                    bipartite=policy,
                    bigons="include" if 2 in vt else "exclude",
                )
                hits, exhaustive = search._run_search(spec)
                assert exhaustive
                got = {forms(g) for g in hits}
                for i, mode in enumerate(modes):
                    assert {f[i] for f in got} == {f[i] for f in want}, (n, vt, policy, mode)
                assert len(find_gems(spec)) == len({f[1] for f in want}), (n, vt, policy)


def test_search_hexagons_order_12():
    spec = SearchSpec(
        colors=3,
        order=12,
        pair_lengths={(0, 1): (6,), (0, 2): (6,), (1, 2): (6,)},
        bipartite="only",
    )
    gems = find_gems(spec)
    assert gems
    for g in gems:
        assert is_bipartite(g)
        assert euler_characteristic(g, CyclicPermutation((0, 1, 2))) == 0
        assert homology(g).groups[1] == (2, ())


def test_search_results_pairwise_nonisomorphic():
    spec = SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12))
    gems = find_gems(spec)
    assert len(gems) >= 2
    for a, b in itertools.combinations(gems, 2):
        assert isomorphic(a, b, "color-permuting") is None


def test_search_reverification_of_constraints():
    from gemkit.embedding import TypeSignature, semi_equivelar_type

    spec = SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12))
    eps = CyclicPermutation((0, 1, 2))
    for g in find_gems(spec):
        for v in range(g.vertex_count):
            assert sorted(face_cycle_type(g, eps, v)) == [4, 6, 12]
        # Closure: the detected vertex-uniform type is the requested one.
        assert semi_equivelar_type(g, eps) == TypeSignature.from_tuple((4, 6, 12))


def test_search_budget():
    spec = SearchSpec(colors=3, order=26)
    with pytest.raises(BudgetExceededError, match=r"^order 26 exceeds the search budget 24$"):
        find_gems(spec)
    with pytest.raises(BudgetExceededError):
        first_gem(spec)
    with pytest.raises(BudgetExceededError):
        search_report(spec)


def test_search_report_serialization():
    spec = SearchSpec(colors=3, order=6, vertex_types=(6, 6, 6), bipartite="only")
    report = search_report(spec)
    assert report.exhaustive
    data = report.to_json_dict()
    assert data["hit_count"] == len(report.gems) == 1
    assert data["gems"][0]["order"] == 6
    assert data["gems"][0]["vertex_type"] == [6, 6, 6]
    assert data["spec"]["bipartite"] == "only"


def test_search_limit_marks_nonexhaustive():
    spec = SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12))
    report = search_report(spec, limit=1)
    assert not report.exhaustive
    assert len(report.gems) == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_search_limit_below_one_is_rejected(limit):
    spec = SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12))
    with pytest.raises(ValueError, match="limit must be at least 1"):
        search_report(spec, limit=limit)


def test_first_gem_none_when_empty():
    spec = SearchSpec(colors=3, order=12, vertex_types=(4, 6, 6), chi=1)
    assert first_gem(spec) is None


UNSATISFIABLE_SPECS = [
    SearchSpec(colors=3, order=8, vertex_types=(10, 10, 10)),
    SearchSpec(colors=3, order=8, pair_lengths={(0, 2): (10,)}),
    SearchSpec(colors=4, order=8, pair_lengths={(0, 1): (2,)}, bigons="exclude"),
    SearchSpec.from_json_dict({"colors": 3, "order": 8, "pair_lengths": {"02": []}}),
]


@pytest.mark.parametrize("spec", UNSATISFIABLE_SPECS)
def test_pair_without_allowed_lengths_is_a_complete_empty_search(spec):
    # Some pair admits no cycle length at all, so no gem exists.
    assert find_gems(spec) == []
    assert first_gem(spec) is None
    report = search_report(spec)
    assert report.exhaustive
    assert report.to_json_dict()["hit_count"] == 0


# -- all-squares classification -------------------------------------------------


def test_classify_small():
    rep = classify_4_4(8)
    assert rep.exhaustive
    assert rep.count_color_permuting == len(rep.entries) == 6
    assert rep.count_color_fixed >= rep.count_color_permuting
    bip = rep.bipartite_manifold_entries
    assert len(bip) == 3
    assert rep.all_bipartite_manifolds_are_lens
    assert rep.all_bipartite_are_lens
    torsions = sorted(e.homology.torsion(1) for e in bip)
    assert torsions == [(), (), (2,)]
    assert rep.nonbipartite_manifold_count == 0
    assert rep.sphere_bundle_candidates == 0


def test_classify_monotone_in_order():
    small = classify_4_4(8)
    large = classify_4_4(12)
    assert large.exhaustive
    for e in small.entries:
        matches = [
            f
            for f in large.entries
            if f.order == e.order
            and isomorphic(e.graph, f.graph, "color-permuting") is not None
        ]
        assert len(matches) == 1


def test_classify_order_16_pinned():
    rep = classify_4_4(16)
    assert rep.exhaustive
    assert (rep.count_color_permuting, rep.count_color_fixed) == (17, 35)
    assert _json_digest(rep.to_json_dict()) == (
        "fa6e3c7715369e8869df9d536c2c965d3c58cbe5d3660d39942ade6d17ba672f"
    )


def test_classify_budget():
    with pytest.raises(BudgetExceededError, match=r"^order 20 exceeds the search budget 16$"):
        classify_4_4(20)


def test_classify_report_json():
    rep = classify_4_4(8)
    data = rep.to_json_dict()
    assert data["exhaustive"] is True
    assert data["count_color_permuting"] == 6
    assert len(data["entries"]) == 6
    assert all("homology" in e for e in data["entries"])
