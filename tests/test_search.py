import dataclasses
import hashlib
import inspect
import itertools
import json
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

from gemkit.core import ColoredGraph, canonical_form, is_bipartite, isomorphic
from gemkit.embedding import (
    CyclicPermutation,
    _canonical_cyclic,
    euler_characteristic,
    face_cycle_type,
)
from gemkit.complexes import homology, manifold_check
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
    oracle_chi_from_counts,
    oracle_component_count,
    oracle_components,
    oracle_is_bipartite,
    reference_dedup_canonical,
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
    # chi = 0 (r must be 0), chi > 0 (the (4, 4, q) fold) and q_max = 4 (a
    # single length) are the enumeration's pruning bound at its edges.
    r_of = {}  # multiset of lengths 4..16 of degree 3..10 -> r
    for dp in range(3, 11):
        for combo in itertools.combinations_with_replacement(range(4, 17, 2), dp):
            r_of[combo] = 1 - Fraction(dp, 2) + sum(Fraction(1, q) for q in combo)
    for chi in range(2, -7, -1):
        degrees = range(3, max(4, 4 - chi) + 1)
        for qmax in (4, 6, 8, 12, 16):
            brute = set()
            for combo, r in r_of.items():
                if len(combo) not in degrees or combo[-1] > qmax:
                    continue
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
            assert produced == brute, (chi, qmax)


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
    # An empty pair_lengths map is no constraint: stored, written and read as None.
    empty = SearchSpec(colors=3, order=8, pair_lengths={})
    for s in (spec, empty):
        assert SearchSpec.from_json_dict(json.loads(json.dumps(s.to_json_dict()))) == s
    assert SearchSpec.from_json_dict(spec.to_json_dict()).vertex_types == (4, 6, 6)
    assert empty.pair_lengths is None
    assert SearchSpec.from_json_dict({"colors": 3, "order": 8, "pair_lengths": {}}) == empty


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


def _spec_id(spec) -> str:
    """A test id naming the spec alone, so that a re-pinned value keeps the id."""
    parts = [f"{spec.colors}c", f"n{spec.order}"]
    if spec.vertex_types:
        parts.append("vt" + ".".join(map(str, spec.vertex_types)))
    parts += [f"{a}{b}:" + ".".join(map(str, ls)) for (a, b), ls in spec.pair_lengths or ()]
    if spec.bipartite != "any":
        parts.append(spec.bipartite)
    if spec.bigons == "include":
        parts.append("bigons")
    if spec.chi is not None:
        parts.append(f"chi{spec.chi}")
    return "-".join(parts)


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
# vertex 1.  Count and SHA-256 of the hit list (as above) before the DFS
# skipped a lower-color completion isomorphic to an earlier one, and the
# number of classes; BASE_RULE_HIT_LISTS below pins today's lists.
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


# Stored list's digest -> count and SHA-256 of the list the search returns
# now that it skips a lower-color completion isomorphic to an earlier one.
# The stored lists are in tests/data/hit_lists_before_base_rule.json.
BASE_RULE_HIT_LISTS = {
    "01f9c24b2603b1aa1382b77a3e23bde2ec85ea85c78cb48e28758fae7222b76f": (
        60,
        "84fd421e2c4575b387689089ef23640390b5feaf7b2251474cb898ea9a55c127",
    ),
    "6c0b9a2ede3d645a5dae28406d00f9ca2d17efa8080a91903feca936f4af3ab2": (
        40,
        "db521a91a2d738cf67d5d63c907b08fe110d1103fe40ecf326541c4b561417ce",
    ),
    "0e051d3b21a881fa50cd65b61bdcfe57f73b6779d969b4f6742f1c61b1373a84": (
        1658,
        "73a5f1c7b1baf55ddaa13d5c68633a1f541059ea62acdfe24ce791d39b85a575",
    ),
}


def _base_rule_hits(spec, count, digest):
    """Run ``spec``; check its hits against the list stored before the base rule.

    Every leaf below an earlier completion of the lower colors precedes
    every leaf below a later one, so skipping the subtree of a completion
    isomorphic to an earlier one leaves a subsequence of the stored list
    that still holds the first hit of every color-fixed class.
    """
    before = stored_hit_list(spec, "base_rule")
    assert (len(before), _json_digest(before)) == (count, digest)
    hits, exhaustive = search._run_search(spec)
    assert exhaustive
    now = [[list(m) for m in g.matchings] for g in hits]
    assert all(a < b for a, b in zip(now, now[1:]))  # DFS order is lexicographic
    rest = iter(before)
    assert all(h in rest for h in now)
    firsts: dict[bytes, list] = {}
    for h in before:
        firsts.setdefault(canonical_form(ColoredGraph(h), "color-fixed"), h)
    assert all(h in now for h in firsts.values())
    assert (len(now), _json_digest(now)) == BASE_RULE_HIT_LISTS[digest]
    return hits


@pytest.mark.parametrize("spec, count, digest, classes", VERTEX_0_HIT_LISTS)
def test_vertex_0_start_hit_lists_pinned(spec, count, digest, classes):
    hits = _base_rule_hits(spec, count, digest)
    assert len(search._dedup_canonical(hits)) == classes


@pytest.mark.parametrize(
    "spec",
    [spec for spec, *_ in PINNED_HIT_LISTS + PINNED_BIPARTITE_HIT_LISTS],
    ids=[_spec_id(spec) for spec, *_ in PINNED_HIT_LISTS + PINNED_BIPARTITE_HIT_LISTS],
)
def test_dedup_matches_the_one_stage_reference(spec):
    # Keying by color-fixed form first must keep the same representative of
    # every color-permuting class, in any hit order.
    hits = [ColoredGraph(h) for h in stored_hit_list(spec)]
    r = random.Random(26)
    for order in [hits] + [r.sample(hits, len(hits)) for _ in range(2)]:
        fixed = {}
        got = search._dedup_canonical(order, fixed)
        assert [g.matchings for g in got] == [
            g.matchings for g in reference_dedup_canonical(order)
        ]
        assert len(fixed) == len(_fixed_classes(order))


def test_4_4_6_6_hit_list_keeps_the_first_hits():
    # The 4-color room-cut spec, where the base rule skips color-1 and
    # color-2 completions; ROOM_CUT_HIT_LISTS pins today's list and leaves.
    spec = SearchSpec(colors=4, order=12, vertex_types=(4, 4, 6, 6))
    _base_rule_hits(spec, 3072, "0e051d3b21a881fa50cd65b61bdcfe57f73b6779d969b4f6742f1c61b1373a84")


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
    """Run the DFS of ``spec`` once; return its hits and every leaf it reached.

    The hits are those ``_run_search`` keeps of the leaves reached.
    """
    reached = list(search._matching_dfs(spec))
    with mock.patch.object(search, "_matching_dfs", lambda _: iter(reached)):
        hits, _ = search._run_search(spec)
    return hits, reached


# Specs where the room cut prunes most of the DFS: each open path is bounded
# by the longest cycle its vertices may still lie on.  Count and SHA-256 of
# the hit list (as above), leaves reached and classes, pinned from the
# search without that cut.  The cut drops only branches that would reach no
# leaf (the cycle counts cut them when the cycle closes), so the number of
# leaves is pinned too.  The (4,4,6,6)/12 list and the (4,6,12)/24 leaves
# (3,072 hits; 98 leaves) were re-pinned when the DFS began to skip
# lower-color completions isomorphic to earlier ones, and the (4,6,12)/24
# leaves again (42 -> 18, its 18 hits) when the seal cut began to drop
# every disconnected leaf.
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
        1658,
        "73a5f1c7b1baf55ddaa13d5c68633a1f541059ea62acdfe24ce791d39b85a575",
        1658,
        None,  # 57 classes; deduplicating 1,658 hits takes about a third of a second
    ),
    (
        SearchSpec(colors=3, order=24, vertex_types=(4, 6, 12), bipartite="only"),
        18,
        "3d312f67d5ec04076fbe07200017a803231b0a427574519d1619553834ba28b8",
        18,
        1,
    ),
]


@pytest.mark.parametrize(
    "spec, count, digest, leaves, classes",
    ROOM_CUT_HIT_LISTS,
    ids=[_spec_id(spec) for spec, *_ in ROOM_CUT_HIT_LISTS],
)
def test_room_cut_hit_lists_pinned(spec, count, digest, leaves, classes):
    hits, reached = _counted_dfs(spec)
    now = [[list(m) for m in g.matchings] for g in hits]
    assert (len(now), _json_digest(now), len(reached)) == (count, digest, leaves)
    if classes is not None:
        assert len(search._dedup_canonical(hits)) == classes


# The coupled cut (at the last color, the shorter of uv's two path sizes is
# at most the second length each end still owes) brought these searches
# into tier-1.  The first two are pinned from the search without that cut,
# which took about 14 s and 19 s for them.
def test_coupled_cut_keeps_the_order_24_4_6_12_hit_list():
    spec = SearchSpec(colors=3, order=24, vertex_types=(4, 6, 12), bipartite="none")
    hits, reached = _counted_dfs(spec)
    now = [[list(m) for m in g.matchings] for g in hits]
    assert (len(now), _json_digest(now), len(reached)) == (
        108,
        "03ad73d7d4b1fc493b82ea055718995b483cacaeac1527d721c3d9785a491bbc",
        126,
    )
    assert len(search._dedup_canonical(hits)) == 4


def test_coupled_cut_keeps_the_first_rp2_4_6_10_hit():
    # The search of the disabled catalog entry rp2-4.6.10 (order 60).
    spec = SearchSpec(colors=3, order=60, vertex_types=(4, 6, 10), bipartite="none")
    g = first_gem(spec, max_order=60)
    assert _json_digest([list(m) for m in g.matchings]) == (
        "019ccbff097816ec7213e067d38e5913bac1f1629b7c395f8f985ae84ea5a73f"
    )


def test_first_s2_4_6_10_hit_is_a_sphere_of_its_type():
    # The search of the disabled catalog entry s2-4.6.10 (order 120) did not
    # return within 300 s without the cut, so its first hit has no earlier
    # pin; the oracles check it instead.
    spec = SearchSpec(colors=3, order=120, vertex_types=(4, 6, 10), bipartite="only")
    g = first_gem(spec, max_order=120)
    pairs = ((0, 1), (1, 2), (0, 2))
    assert oracle_component_count(g, g.colors) == 1
    assert oracle_is_bipartite(g)
    assert set(_oracle_vertex_types(g, pairs)) == {(4, 6, 10)}
    assert oracle_chi_from_counts(g, pairs) == 2
    assert manifold_check(g).kind == "certified-surface"


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(colors=3, order=8, vertex_types=(4, 4, 10)),
        SearchSpec(colors=3, order=12, vertex_types=(4, 6, 20)),
        SearchSpec(colors=4, order=12, vertex_types=(4, 4, 6, 20)),
        # Two faces of 10 at order 8: a vertex runs out of room mid-search.
        SearchSpec(colors=3, order=8, vertex_types=(4, 10, 10)),
    ],
    ids=_spec_id,
)
def test_a_face_longer_than_the_order_leaves_an_empty_search(spec):
    # At the last color each vertex owes fewer than two lengths: no leaf.
    report = search_report(spec)
    assert report.exhaustive
    assert report.gems == ()


def test_bigon_free_hits_take_the_edge_1_2():
    # Color 1 starts at vertex 1, where the orbit rule leaves only partner 2.
    for spec, *_ in PINNED_HIT_LISTS + PINNED_BIPARTITE_HIT_LISTS + ROOM_CUT_HIT_LISTS:
        assert spec.bigons == "exclude"
        hits, _ = search._run_search(spec)
        assert all(g.matchings[1][1] == 2 for g in hits)


def test_vertex_types_prune_inside_the_dfs():
    # (4,6,12)/12: the per-vertex cycle counts cut every branch whose
    # leaves would have another vertex type, so every leaf reached is a
    # hit (42 of them; without the counts and the orbit rule on color 2,
    # 5,816 leaves reached the leaf tests for 546 hits).
    hits, reached = _counted_dfs(SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)))
    assert len(hits) == len(reached) == 42


def test_bipartite_prunes_inside_the_dfs():
    # (4,8,8)/16: the "any" spec has no parity cut, and 45 leaves reach
    # the leaf tests, 36 of them not bipartite.  The "only" spec covers
    # the parity normal form, where every edge joins an even and an odd
    # vertex: it reaches 9 leaves, all bipartite, all hits.  Those are
    # other labelings than the bipartite hits of "any", of the same
    # color-fixed classes.  (Before the DFS skipped color-1 completions
    # isomorphic to an earlier one: 320 leaves, 300 not bipartite, and 20;
    # before the seal cut dropped the disconnected leaves: 220, 204 and 16.)
    runs = {
        mode: _counted_dfs(
            SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8), bipartite=mode)
        )
        for mode in ("any", "only")
    }
    (plain, plain_reached), (cut, cut_reached) = runs["any"], runs["only"]
    assert len(plain_reached) == 45
    assert sum(not oracle_is_bipartite(g) for g in plain_reached) == 36
    assert len(cut_reached) == 9
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
    # _run_search does not test bipartiteness for a bipartite-only spec:
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


def _oracle_vertex_types(g, pairs):
    """Each vertex's sorted face lengths over ``pairs``, from component sizes."""
    face = [[0] * g.vertex_count for _ in pairs]
    for i, pair in enumerate(pairs):
        for comp in oracle_components(g, pair):
            for v in comp:
                face[i][v] = len(comp)
    return [tuple(sorted(col)) for col in zip(*face)]


def _oracle_pair_lengths(g, pairs):
    """The set of cycle lengths of each color pair in ``pairs``, from component sizes."""
    return {pair: {len(comp) for comp in oracle_components(g, pair)} for pair in pairs}


def _meets_pair_lengths(lengths, pair_lengths):
    """Whether the per-pair cycle lengths ``lengths`` all lie in ``pair_lengths``."""
    return all(lengths[pair] <= set(ls) for pair, ls in (pair_lengths or {}).items())


def _three_color_oracle_specs(n):
    """(vertex type, policy, pair lengths, spec) for every spec of the 3-color brute force.

    Each vertex type comes alone and with its least length imposed on pair
    (0, 1), whose tracked path state is then narrower than the type.
    """
    for vt in itertools.combinations_with_replacement(range(2, n + 1, 2), 3):
        for pl in (None, {(0, 1): vt[:1]}):
            for policy in ("any", "only", "none"):
                bigons = "include" if 2 in vt else "exclude"
                spec = SearchSpec(
                    colors=3, order=n, pair_lengths=pl, vertex_types=vt, bipartite=policy, bigons=bigons
                )
                yield vt, policy, pl, spec


# Pair lengths of the 4-color brute force.  Pairs (0, 2) and (1, 3) are not
# consecutive: with a vertex type, colors 2 and 3 then hold an untracked
# constrained path state beside their tracked ones.  (0, 1) narrows a
# tracked pair.
FOUR_COLOR_PAIR_LENGTHS = (
    None,
    {(0, 2): (2,)},
    {(0, 2): (4,)},
    {(0, 2): (6,)},
    {(1, 3): (4, 6)},
    {(0, 2): (2, 6), (1, 3): (2,)},
    {(0, 1): (4,)},
)


def _four_color_oracle_specs(n=6):
    """(vertex type, bigons, policy, pair lengths, spec) for every spec of the 4-color brute force."""
    for pl in FOUR_COLOR_PAIR_LENGTHS:
        for vt in [None, *itertools.combinations_with_replacement(range(2, n + 1, 2), 4)]:
            for bigons in ("include", "exclude"):
                for policy in ("any", "only", "none"):
                    spec = SearchSpec(
                        colors=4, order=n, pair_lengths=pl, vertex_types=vt, bipartite=policy, bigons=bigons
                    )
                    yield vt, bigons, policy, pl, spec


def test_vertex_type_search_matches_brute_force():
    # Every 3-colored graph of order <= 8 over the fixed first matching
    # whose vertices share one face multiset, with face and pair (0, 1)
    # cycle lengths taken from component sizes, bipartiteness from a BFS
    # 2-colouring and classes from the unpruned canonical labeling in both
    # color modes.  The raw hits must meet every class the brute force finds
    # and no other: the DFS's orbit rules keep a representative of each
    # color-fixed class.
    from gemkit.core import ColoredGraph

    modes = ("color-fixed", "color-permuting")

    def forms(g):
        return tuple(oracle_canonical_labeling(g, mode)[0] for mode in modes)

    for n in (4, 6, 8):
        graphs = []  # (forms, bipartite, vertex type, pair (0, 1)'s cycle lengths)
        matchings = all_perfect_matchings(n)
        for m1, m2 in itertools.product(matchings, repeat=2):
            try:
                g = ColoredGraph([standard_matching(n), m1, m2])
            except ValueError:
                continue
            if len(oracle_components(g, g.colors)) != 1:
                continue
            types = set(_oracle_vertex_types(g, ((0, 1), (1, 2), (0, 2))))
            if len(types) == 1:
                lengths = _oracle_pair_lengths(g, ((0, 1),))
                graphs.append((forms(g), oracle_is_bipartite(g), types.pop(), lengths))
        for vt, policy, pl, spec in _three_color_oracle_specs(n):
            want = {
                f
                for f, bip, t, lengths in graphs
                if t == vt
                and policy != ("none" if bip else "only")
                and _meets_pair_lengths(lengths, pl)
            }
            hits, exhaustive = search._run_search(spec)
            assert exhaustive
            got = {forms(g) for g in hits}
            for i, mode in enumerate(modes):
                assert {f[i] for f in got} == {f[i] for f in want}, (n, vt, policy, pl, mode)
            assert len(find_gems(spec)) == len({f[1] for f in want}), (n, vt, policy, pl)


def test_four_color_search_matches_brute_force():
    # Every 4-colored graph of order 6 over the fixed first matching, all
    # 15**3 of them, with face lengths taken from component sizes over the
    # identity arrangement's pairs (01, 12, 23, 03) and over the pairs
    # FOUR_COLOR_PAIR_LENGTHS constrains, bipartiteness from a BFS
    # 2-colouring and classes from the unpruned canonical labeling, all
    # computed once per graph.  The raw hits of every vertex type (and of
    # none), bipartite policy, bigon policy and pair lengths must meet
    # every class the brute force finds and no other.  Here the DFS skips
    # color-1 and color-2 completions isomorphic to earlier ones:
    # unconstrained with bigons, 221 raw hits ("only": 56) where it kept
    # 479 (104) before.
    n = 6
    pairs = ((0, 1), (1, 2), (2, 3), (0, 3))
    constrained = sorted({pair for pl in FOUR_COLOR_PAIR_LENGTHS for pair in pl or ()})
    permuting: dict[tuple, tuple] = {}  # color-fixed form -> color-permuting form
    forms: dict[tuple, tuple] = {}  # matchings -> both forms
    graphs = []  # (forms, bipartite, vertex type or None, has a bigon face, pair lengths)
    matchings = all_perfect_matchings(n)
    for rest in itertools.product(matchings, repeat=3):
        g = ColoredGraph([standard_matching(n), *rest])
        if len(oracle_components(g, g.colors)) != 1:
            continue
        fixed = oracle_canonical_labeling(g, "color-fixed")[0]
        if fixed not in permuting:
            permuting[fixed] = oracle_canonical_labeling(g, "color-permuting")[0]
        f = forms[g.matchings] = (fixed, permuting[fixed])
        types = set(_oracle_vertex_types(g, pairs))
        bigon = any(2 in t for t in types)
        vt = types.pop() if len(types) == 1 else None
        graphs.append((f, oracle_is_bipartite(g), vt, bigon, _oracle_pair_lengths(g, constrained)))
    raw = {}
    for vt, bigons, policy, pl, spec in _four_color_oracle_specs(n):
        want = {
            f
            for f, bip, t, bigon, lengths in graphs
            if (vt is None or t == vt)
            and (bigons == "include" or not bigon)
            and policy != ("none" if bip else "only")
            and _meets_pair_lengths(lengths, pl)
        }
        hits, exhaustive = search._run_search(spec)
        assert exhaustive
        got = {forms[g.matchings] for g in hits}
        for i, mode in enumerate(("color-fixed", "color-permuting")):
            assert {f[i] for f in got} == {f[i] for f in want}, (vt, bigons, policy, pl, mode)
        if pl is None:
            raw[vt, bigons, policy] = len(hits)
    assert (raw[None, "include", "any"], raw[None, "include", "only"]) == (221, 56)


def _leaf_test_specs():
    """The specs whose every leaf the leaf-level tests below check.

    Those of both brute-force oracles, every pinned list and an
    unconstrained one with bigons, which keeps no path state at the last
    color.
    """
    specs = [spec for n in (4, 6, 8) for *_, spec in _three_color_oracle_specs(n)]
    specs += [spec for *_, spec in _four_color_oracle_specs()]
    specs += [
        spec
        for spec, *_ in PINNED_HIT_LISTS
        + PINNED_BIPARTITE_HIT_LISTS
        + VERTEX_0_HIT_LISTS
        + ROOM_CUT_HIT_LISTS
    ]
    specs.append(SearchSpec(colors=4, order=8, bigons="include"))
    return specs


def test_every_leaf_is_connected():
    # The seal cut drops a branch once a last-color edge closes a component
    # short of every vertex, so every graph the DFS completes is connected
    # (by the union-find of tests/helpers, not the library's walk).  The
    # hit lists of these specs are pinned above, so the cut drops only
    # leaves that the hits never held.
    leaves = 0
    for spec in _leaf_test_specs():
        for g in search._matching_dfs(spec):
            assert oracle_component_count(g, g.colors) == 1, spec
            leaves += 1
    assert leaves > 10_000


def test_every_leaf_has_its_vertex_type():
    # The per-vertex cycle counts decide the vertex type, so _run_search
    # does not test it: every leaf the DFS yields for a vertex-type spec
    # has the type at every vertex, over the identity arrangement's pairs,
    # with face lengths from the union-find of tests/helpers.
    leaves = 0
    for spec in _leaf_test_specs():
        if spec.vertex_types is None:
            continue
        pairs = [(c, (c + 1) % spec.colors) for c in range(spec.colors)]
        for g in search._matching_dfs(spec):
            assert set(_oracle_vertex_types(g, pairs)) == {spec.vertex_types}, spec
            leaves += 1
    assert leaves > 2_000


def test_disconnected_hit_raises(monkeypatch):
    # The per-hit net: a disconnected graph that reaches the hits (here two
    # copies of the 4-vertex 3-colored graph, which the leaf tests of an
    # unconstrained spec pass) raises instead of being returned.
    m = [(1, 0, 3, 2, 5, 4, 7, 6), (3, 2, 1, 0, 7, 6, 5, 4), (2, 3, 0, 1, 6, 7, 4, 5)]
    monkeypatch.setattr(search, "_matching_dfs", lambda spec: iter([ColoredGraph(m)]))
    with pytest.raises(AssertionError, match="disconnected"):
        search._run_search(SearchSpec(colors=3, order=8))


@pytest.mark.parametrize(
    "spec, m, message",
    [
        # every face of colors 0 and 1 is a bigon, which the spec excludes
        (
            SearchSpec(colors=3, order=4),
            [(1, 0, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1)],
            "violating its spec",
        ),
        # every face is a square: each length is allowed (the pairs are
        # unconstrained at order 4 with bigons), but the type is (4, 4, 4)
        (
            SearchSpec(colors=3, order=4, vertex_types=(2, 4, 4), bigons="include"),
            [(1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)],
            "another vertex type",
        ),
    ],
    ids=["pair-length", "vertex-type"],
)
def test_connected_hit_breaking_its_spec_raises(monkeypatch, spec, m, message):
    # The per-hit net re-checks each hit on the walks _run_search made:
    # a connected graph that breaks its spec raises instead of being
    # returned.
    g = ColoredGraph(m)
    assert g.is_connected()
    monkeypatch.setattr(search, "_matching_dfs", lambda spec: iter([g]))
    with pytest.raises(AssertionError, match=message):
        search._run_search(spec)


CHI_FILTER_SPECS = [
    SearchSpec(colors=3, order=8, bigons="include"),
    SearchSpec(colors=3, order=10, bipartite="none"),
    SearchSpec(colors=4, order=6, bigons="include"),
    SearchSpec(colors=4, order=8),
]


@pytest.mark.parametrize("spec", CHI_FILTER_SPECS, ids=_spec_id)
def test_chi_filters_hits_without_a_vertex_type(spec):
    # A vertex type fixes chi, so on the pinned specs the chi test never
    # discriminates.  Unconstrained, the hits of each chi from -4 to 2 are
    # the chi-free hits of that Euler characteristic (vertices - edges +
    # faces, counted by tests/helpers), in order, and together all of them.
    pairs = [(c, (c + 1) % spec.colors) for c in range(spec.colors)]
    every, _ = search._run_search(spec)
    kept = 0
    for chi in range(-4, 3):
        hits, _ = search._run_search(dataclasses.replace(spec, chi=chi))
        want = [g for g in every if oracle_chi_from_counts(g, pairs) == chi]
        assert [g.matchings for g in hits] == [g.matchings for g in want], chi
        kept += len(hits)
    assert kept == len(every)


def test_base_key_matches_brute_force_isomorphism():
    # _base_key(slots, step) of random 3-colored bases over the fixed color
    # 0, against every relabeling that keeps color 0: a permutation of the
    # blocks with or without swapping each block's ends.  With step 1 the
    # keys of two bases are equal exactly when some such relabeling maps one
    # onto the other; with step 2 (the parity normal form) exactly when one
    # that maps even vertices to even ones, i.e. swaps no block, does.  A
    # base and its flip (every v to v ^ 1) always share the step-1 key;
    # from order 10 some bases have no even-to-even map onto their flip.
    rng = random.Random(22)

    def normal_form_matching(n):
        odd = list(range(1, n, 2))
        rng.shuffle(odd)
        m = [0] * n
        for v, w in zip(range(0, n, 2), odd):
            m[v], m[w] = w, v
        return m

    def relabelings(n, swaps):
        for blocks in itertools.permutations(range(n // 2)):
            for flips in itertools.product((0, 1) if swaps else (0,), repeat=n // 2):
                yield [2 * blocks[v >> 1] + ((v & 1) ^ flips[v >> 1]) for v in range(n)]

    def image(mats, p):
        out = []
        for m in mats:
            q = [0] * len(m)
            for v, w in enumerate(m):
                q[p[v]] = p[w]
            out.append(q)
        return out

    outcomes = set()
    for n in (4, 6, 8, 10):
        for _ in range(15):
            a = [standard_matching(n)] + [normal_form_matching(n) for _ in range(2)]
            b = [standard_matching(n)] + [normal_form_matching(n) for _ in range(2)]
            flip = [[m[v ^ 1] ^ 1 for v in range(n)] for m in a]
            assert search._base_key(a, 1) == search._base_key(flip, 1)
            for other in (b, flip):
                for step in (1, 2) if n < 10 else (2,):
                    iso = any(image(a, p) == other for p in relabelings(n, step == 1))
                    assert (search._base_key(a, step) == search._base_key(other, step)) == iso
                    outcomes.add((other is flip, step, iso))
    # chiral bases (no even-to-even map onto their flip) and equal random pairs occur
    assert {(True, 2, False), (True, 2, True), (False, 1, True)} <= outcomes


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(colors=3, order=16, vertex_types=(4, 8, 8)),
        SearchSpec(colors=4, order=12, pair_lengths=_SQUARES),
        VERTEX_0_HIT_LISTS[1][0],
    ],
)
def test_search_keeps_no_keys_across_calls(spec):
    # The keys of the completions a search has opened are local to one
    # DFS: a full run after first_gem, or after another full run, skips
    # nothing more.
    hits, _ = search._run_search(spec)
    assert first_gem(spec).matchings == hits[0].matchings
    again, _ = search._run_search(spec)
    assert [g.matchings for g in again] == [g.matchings for g in hits]


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
    torsions = sorted(e.homology.groups[1][1] for e in bip)
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


def test_first_base_of_a_color_is_keyed_only_when_a_second_comes(monkeypatch):
    # A search stopped at its first hit keys no base; a full search keys as
    # many as when every completion was keyed at once (3 and 80 then).
    from gemkit import generators

    calls = []
    real = search._base_key
    monkeypatch.setattr(search, "_base_key", lambda slots, step: calls.append(step) or real(slots, step))
    monkeypatch.setattr(generators, "_cache", {})
    generators.catalog("torus-4.6.12")
    assert calls == []
    for spec, keyed in (
        (SearchSpec(colors=3, order=12, vertex_types=(4, 6, 12)), 3),
        (SearchSpec(colors=4, order=8), 80),
    ):
        calls.clear()
        search_report(spec)
        assert len(calls) == keyed
