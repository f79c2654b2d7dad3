import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import gemkit.complexes
from gemkit.core import (
    ColoredGraph,
    NotConnectedError,
    component_index,
    is_bipartite,
    residue_count,
    residue_graphs,
)
from gemkit.complexes import (
    CERTIFIED_3_MANIFOLD,
    FAILED,
    CERTIFIED_SURFACE,
    HOMOLOGY_CERTIFIED,
    HomologyProfile,
    PseudoComplex,
    _manifold_check,
    _partition_table,
    _sparse_snf,
    build_complex,
    homology,
    manifold_check,
    orientable,
    smith_invariant_factors,
    sphere_profile,
)
from gemkit.embedding import CyclicPermutation, _genus_zero, euler_characteristic, regular_genus
from gemkit.generators import (
    catalog,
    lens_gem,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)

from helpers import (
    complex_chi,
    complex_json_dict,
    doubled,
    matrix_product,
    oracle_manifold_check,
    per_map_homology,
    random_bipartite_gem,
    random_gem,
    random_matching,
    random_permutation,
    random_surface_gem,
)

rng = random.Random(4242)


# -- complex construction -----------------------------------------------------


def test_f_vector_sphere_surface():
    assert build_complex(standard_sphere(2)).f_vector == (3, 3, 2)


def test_f_vector_lens():
    assert build_complex(lens_gem(2, 1, 2)).f_vector == (4, 12, 16, 8)


def test_f_vector_projective_plane():
    assert build_complex(rp2_sum_gem(1)).f_vector == (3, 6, 4)


def test_cell_count_identities():
    for g in (lens_gem(3, 1, 2), torus_sum_gem(2), sphere_times_circle_gem(4)):
        k = build_complex(g)
        n = g.vertex_count
        d = g.dimension
        assert k.f_vector[d] == n
        assert k.f_vector[d - 1] == (d + 1) * n // 2
        colors = set(g.colors)
        assert k.f_vector[0] == sum(
            residue_count(g, colors - {c}) for c in g.colors
        )


census_rng = random.Random(3001)  # its own stream: leaves ``rng``'s draws as they were


def test_f_vector_matches_residue_census():
    # Independent derivation: h-cells are components of complement residues.
    gems = [lens_gem(2, 1, 2), rp2_sum_gem(3)]
    gems += [random_gem(census_rng, d, 2 * census_rng.randint(1, 6)) for d in range(1, 6)]
    for g in gems:
        k = build_complex(g)
        d = g.dimension
        colors = set(g.colors)
        for h in range(d + 1):
            expected = 0
            for C in itertools.combinations(range(d + 1), h + 1):
                rest = colors - set(C)
                if rest:
                    expected += residue_count(g, rest)
                else:
                    expected += g.vertex_count
            assert k.f_vector[h] == expected
            # Each label set's components, label sets in ``combinations`` order.
            assert k.counts[h] == tuple(
                residue_count(g, colors - set(C))
                for C in itertools.combinations(range(d + 1), h + 1)
            )


def test_boundary_squares_to_zero():
    gems = [
        standard_sphere(4),
        lens_gem(3, 1, 2),
        torus_sum_gem(2),
        sphere_times_circle_gem(4),
    ]
    for g in gems:
        k = build_complex(g)
        for h in range(2, g.dimension + 1):
            prod = matrix_product(k.boundaries[h - 1], k.boundaries[h])
            assert all(all(x == 0 for x in row) for row in prod)


def test_complex_requires_connected():
    disconnected = ColoredGraph([[1, 0, 3, 2]] * 3)
    for compute in (build_complex, homology):
        with pytest.raises(NotConnectedError, match="^the complex is built for connected graphs$"):
            compute(disconnected)


@pytest.mark.parametrize("check", [manifold_check, orientable, regular_genus])
def test_gem_level_checks_reject_a_disconnected_graph(check):
    # Two copies of the two-vertex 3-sphere gem.
    with pytest.raises(NotConnectedError):
        check(ColoredGraph([[1, 0, 3, 2]] * 4))


# SHA-256 of the compact, key-sorted JSON of ``helpers.complex_json_dict``,
# pinned from the dense construction that built every boundary matrix entry
# by entry.
COMPLEX_JSON_SHA256 = {
    "standard_sphere(3)": (
        standard_sphere(3),
        "7129d5df6b516b90c5e7a1819213401003f0b6af2b7801e739ec43b4a6235ea9",
    ),
    "lens_gem(5,2,4)": (
        lens_gem(5, 2, 4),
        "38d71f08a1e1a88ca6b8f17cc33be10074fd8ca9e419dd1ea2ad00a4813d3de1",
    ),
    "sphere_times_circle_gem(4,twisted=True)": (
        sphere_times_circle_gem(4, twisted=True),
        "5454289dde060925d56e2ed4d6348816dac0edd2c2075ee4ac7bc085007c8a3c",
    ),
    "rp2_sum_gem(3)": (
        rp2_sum_gem(3),
        "9fe20d2075284d9d50d894990e39e9f184bbf11d4767b7fffe83b525c644cf0c",
    ),
}


@pytest.mark.parametrize("label", list(COMPLEX_JSON_SHA256))
def test_complex_json_golden(label):
    gem, digest = COMPLEX_JSON_SHA256[label]
    data = complex_json_dict(build_complex(gem))
    raw = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(raw).hexdigest() == digest


relabel_rng = random.Random(2207)  # its own stream: leaves ``rng``'s draws as they were


def _relabeled(g: ColoredGraph) -> ColoredGraph:
    return g.relabel(random_permutation(relabel_rng, g.vertex_count))


def assert_table_matches_component_index(g: ColoredGraph) -> None:
    table = _partition_table(g)
    assert len(table) == 2 ** (g.dimension + 1) - 1  # all but the full color set
    for mask, (idx, least) in enumerate(table):
        colors = [c for c in g.colors if mask >> c & 1]
        assert (idx, len(least)) == component_index(g, colors)
        assert least == [idx.index(j) for j in range(len(least))]


FAMILY_GEMS = [
    standard_sphere(3),
    lens_gem(5, 2, 4),
    lens_gem(7, 3, 2),
    torus_sum_gem(3),
    rp2_sum_gem(4),
    doubled(lens_gem(3, 1, 2)),
] + [sphere_times_circle_gem(d, t) for d in (3, 4, 5) for t in (False, True)]


@pytest.mark.parametrize("g", FAMILY_GEMS, ids=str)
def test_partition_table_matches_component_index_on_families(g):
    assert_table_matches_component_index(g)
    assert_table_matches_component_index(_relabeled(g))


def test_partition_table_matches_component_index_on_random_gems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 10), st.integers(0, 2**32))
    def check(d, half, seed):
        assert_table_matches_component_index(random_gem(random.Random(seed), d, 2 * half))

    check()


def test_dense_boundaries_are_a_cached_view():
    k = build_complex(lens_gem(3, 1, 2))
    assert k.boundaries is k.boundaries
    for h in range(1, k.dimension + 1):
        assert len(k.boundaries[h]) == k.f_vector[h - 1]
        assert all(len(row) == k.f_vector[h] for row in k.boundaries[h])
        assert len(k.columns[h]) == k.f_vector[h]
    assert k.boundaries[0] == () and k.columns[0] == ()


def test_homology_never_builds_dense_matrices(monkeypatch):
    def refused(self):
        raise AssertionError("dense boundary matrices built on the homology path")

    monkeypatch.setattr(PseudoComplex, "boundaries", property(refused))
    with pytest.raises(AssertionError):
        build_complex(standard_sphere(2)).boundaries
    bundle = ((1, ()), (1, ()), (0, ()), (0, ()), (1, ()), (1, ()))
    twisted = ((1, ()), (1, ()), (0, ()), (0, ()), (0, (2,)), (0, ()))
    assert homology(sphere_times_circle_gem(5)).groups == bundle
    assert homology(sphere_times_circle_gem(5, twisted=True)).groups == twisted
    for tw in (False, True):
        assert manifold_check(sphere_times_circle_gem(5, twisted=tw)).kind == HOMOLOGY_CERTIFIED


# -- Euler characteristic ------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_chi_complex_spheres(d):
    k = build_complex(standard_sphere(d))
    assert complex_chi(k) == (2 if d % 2 == 0 else 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chi_complex_surfaces(n):
    assert complex_chi(build_complex(torus_sum_gem(n))) == 2 - 2 * n
    assert complex_chi(build_complex(rp2_sum_gem(n))) == 2 - n


def test_consistency_surface():
    # The complex's chi and the embedding's agree on a surface.
    eps = CyclicPermutation((0, 1, 2))
    for g in (rp2_sum_gem(3), torus_sum_gem(1)):
        assert complex_chi(build_complex(g)) == euler_characteristic(g, eps)
    assert complex_chi(build_complex(rp2_sum_gem(3))) == -1


# -- Smith normal form ---------------------------------------------------------


def test_snf_hand_cases():
    assert smith_invariant_factors([]) == []
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[4, 0], [0, 6]]) == [2, 12]
    assert smith_invariant_factors([[1, 2], [3, 4]]) == [1, 2]
    assert smith_invariant_factors([[-3]]) == [3]


def test_snf_rejects_ragged_rows():
    with pytest.raises(ValueError, match="rows must have equal length"):
        smith_invariant_factors([[1, 0], [0]])
    with pytest.raises(ValueError, match="rows must have equal length"):
        smith_invariant_factors([[], [1]])
    for rows in ([1, 2], [[1, 2], 3], [None], 7, iter([[1]])):
        with pytest.raises(ValueError, match="rows must be sequences"):
            smith_invariant_factors(rows)


def test_snf_rejects_inexact_entries():
    # Floats, bools and other numbers would give non-exact "factors".
    for rows in (
        [[1.5, 2]],
        [[2.0, 0], [0, 3.0]],
        [[True, 2]],
        [[0, False]],
        [[Fraction(1), 0]],
        [[1, 0], [0, 1.0]],
    ):
        with pytest.raises(ValueError, match="exact ints"):
            smith_invariant_factors(rows)
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors(((1, 0), (0, -1))) == [1, 1]


def test_snf_dense_remainder_after_unit_pivots():
    # The unit pivot leaves diag(2, 3) behind, whose factors are 1 and 6.
    assert smith_invariant_factors([[1, 5, 7], [0, 2, 0], [0, 0, 3]]) == [1, 1, 6]
    assert smith_invariant_factors([[2, 1], [4, 2], [6, 3]]) == [1]
    # No unit entry: the least entry's row leaves a remainder that is
    # swapped into the pivot column (values checked against sympy).
    assert smith_invariant_factors([[2, 3]]) == [1]
    assert smith_invariant_factors([[6, 10, 15]]) == [1]
    assert smith_invariant_factors([[4, 6], [6, 4]]) == [2, 10]
    assert smith_invariant_factors([[6, 4], [10, 6], [15, 9]]) == [1, 2]


def test_snf_divisibility_chain_property():
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        factors = smith_invariant_factors(m)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_snf_invariant_under_unimodular_ops():
    for _ in range(30):
        m = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(3)]
        base = smith_invariant_factors(m)
        # random integer row and column operations
        mm = [row[:] for row in m]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            f = rng.randrange(-3, 4)
            for c in range(4):
                mm[i][c] += f * mm[j][c]
            a, b = rng.sample(range(4), 2)
            f = rng.randrange(-3, 4)
            for r in range(3):
                mm[r][a] += f * mm[r][b]
        assert smith_invariant_factors(mm) == base


def _sparse_rows(m):
    return [{j: v for j, v in enumerate(r) if v} for r in m]


def test_snf_reports_only_the_first_sweeps_unit_columns():
    assert _sparse_snf(_sparse_rows([[1, 5, 7], [0, 2, 0], [0, 0, 3]]), 3) == ([1, 1, 6], [0])
    # No unit: the gcd sweep swaps the remainder 1 into column 0 and
    # pivots there.  Cancelling cell 0 of d_h = (2, 3) against a next map
    # d_(h-1) = (3, -2) would leave (-2), factor 2 where the map has 1.
    assert _sparse_snf(_sparse_rows([[2, 3]]), 2) == ([1], [])


def test_cancelling_reported_columns_keeps_the_next_maps_factors():
    # Random pairs d_(h-1) d_h = 0, built as [0 | M] U^-1 and U [D; 0]
    # with U unimodular and then mixed by column operations, so rows hold
    # coprime entries above 1 and the gcd sweep pivots and swaps too.
    pair_rng = random.Random(2929)
    for _ in range(300):
        m, r, cols, k = (pair_rng.randint(1, 6) for _ in range(4))
        m += r
        u = [[int(i == j) for j in range(m)] for i in range(m)]
        u_inv = [row[:] for row in u]
        for _ in range(2 * m):
            i, j = pair_rng.sample(range(m), 2)
            f = pair_rng.choice((-2, -1, 1, 2))
            for c in range(m):
                u[i][c] += f * u[j][c]
            for row in u_inv:
                row[j] -= f * row[i]
        diag = [pair_rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(r)]
        d_h = [[u[i][j] * diag[j] if j < r else 0 for j in range(cols + r)] for i in range(m)]
        for _ in range(cols + r):
            a, b = pair_rng.sample(range(cols + r), 2)
            f = pair_rng.choice((-2, -1, 1, 2))
            for row in d_h:
                row[a] += f * row[b]
        m_block = [[0] * r + [pair_rng.randint(-3, 3) for _ in range(m - r)] for _ in range(k)]
        d_next = matrix_product(m_block, u_inv)
        assert not any(any(row) for row in matrix_product(d_next, d_h))
        factors, units = _sparse_snf(_sparse_rows(list(zip(*d_h))), m)
        assert factors == smith_invariant_factors(list(zip(*d_h)))
        kept = [row for i, row in enumerate(zip(*d_next)) if i not in units]
        assert _sparse_snf(_sparse_rows(kept), k)[0] == smith_invariant_factors(d_next)


# -- homology -------------------------------------------------------------------


def test_homology_spheres():
    assert homology(standard_sphere(3)) == sphere_profile(3)
    assert homology(standard_sphere(2)) == sphere_profile(2)
    assert str(homology(standard_sphere(3))) == "H0=Z H1=0 H2=0 H3=Z"


def test_homology_lens():
    prof = homology(lens_gem(3, 1, 2))
    assert prof.groups == ((1, ()), (0, (3,)), (0, ()), (1, ()))
    assert homology(lens_gem(5, 2, 2)).groups[1] == (0, (5,))
    assert homology(lens_gem(3, 0, 2)) == sphere_profile(3)


def test_homology_surfaces():
    assert homology(rp2_sum_gem(2)).groups == ((1, ()), (1, (2,)), (0, ()))
    assert homology(torus_sum_gem(2)).groups == ((1, ()), (4, ()), (1, ()))
    assert homology(rp2_sum_gem(1)).group_str(1) == "Z_2"


def test_homology_json():
    data = homology(rp2_sum_gem(2)).to_json()
    assert data == [
        {"rank": 1, "torsion": []},
        {"rank": 1, "torsion": [2]},
        {"rank": 0, "torsion": []},
    ]


def test_homology_profile_formatting():
    prof = HomologyProfile(((1, ()), (2, (2, 4)), (0, ())))
    assert prof.group_str(1) == "Z^2+Z_2+Z_4"
    assert prof.group_str(2) == "0"


# -- orientability and manifold verdicts ----------------------------------------


def test_orientable():
    assert orientable(torus_sum_gem(2))
    assert not orientable(rp2_sum_gem(1))
    assert orientable(lens_gem(3, 1, 2))


def test_manifold_check_surfaces_always_pass():
    for _ in range(10):
        g = random_surface_gem(rng, 8)
        assert manifold_check(g).kind == CERTIFIED_SURFACE


@pytest.mark.parametrize("pqk", [(2, 1, 2), (3, 1, 2), (5, 2, 2)])
def test_manifold_check_lens(pqk):
    verdict = manifold_check(lens_gem(*pqk))
    assert verdict.ok
    assert verdict.kind == CERTIFIED_3_MANIFOLD


def test_manifold_check_rejects_torus_double():
    # Two copies of the order-6 torus gem joined by a fourth perfect
    # matching: the new color's residues are tori, not spheres.
    base = torus_sum_gem(1)
    n = base.vertex_count
    mats = []
    for m in base.matchings:
        doubled = list(m) + [v + n for v in m]
        mats.append(doubled)
    mats.append([(v + n) % (2 * n) for v in range(2 * n)])
    g = ColoredGraph(mats)
    verdict = manifold_check(g)
    assert not verdict.ok
    assert verdict.kind == "failed"
    assert "chi" in verdict.detail


def test_manifold_check_higher_dimensions():
    assert manifold_check(sphere_times_circle_gem(4)).kind == HOMOLOGY_CERTIFIED
    assert manifold_check(standard_sphere(4)).kind == HOMOLOGY_CERTIFIED


def test_manifold_check_matches_oracle_on_families():
    gems = [sphere_times_circle_gem(d, t) for d in (3, 4, 5) for t in (False, True)]
    for g in (lens_gem(3, 1, 2), lens_gem(5, 2, 2), torus_sum_gem(3), rp2_sum_gem(4)):
        gems.append(g.relabel(random_permutation(rng, g.vertex_count)))
    for g in gems:
        got, want = manifold_check(g), oracle_manifold_check(g)
        assert (got.kind, got.detail) == (want.kind, want.detail)
        assert got.ok


def test_manifold_check_failures_match_oracle():
    g4 = doubled(lens_gem(3, 1, 2))
    detail = "residue without color 4, component 0: homology differs from the 3-sphere"
    g5 = doubled(g4)
    for g, pinned in [(g4, detail), (g5, "residue without color 4, component 0: " + detail)]:
        got, want = manifold_check(g), oracle_manifold_check(g)
        assert (got.kind, got.detail) == (want.kind, want.detail) == (FAILED, pinned)


SPHERE_TEST_GEMS = {
    **{
        f"bundle({d},twisted={t})": _relabeled(sphere_times_circle_gem(d, t))
        for d in (3, 4, 5, 6)
        for t in (False, True)
    },
    **{f"lens{pqk}": _relabeled(lens_gem(*pqk)) for pqk in [(3, 1, 2), (5, 2, 2), (7, 2, 4)]},
    # The three pieces that fail: non-bipartite, H_1 = Z, H_1 = Z_5.
    "doubled twisted bundle(4)": doubled(sphere_times_circle_gem(4, twisted=True)),
    "doubled bundle(4)": doubled(sphere_times_circle_gem(4)),
    "doubled lens(5,2,2)": doubled(lens_gem(5, 2, 2)),
}


@pytest.mark.parametrize("label", list(SPHERE_TEST_GEMS))
def test_residue_recursion_matches_full_homology(label):
    g = SPHERE_TEST_GEMS[label]
    memo = {}
    failure = _manifold_check(g, memo)
    got, want = manifold_check(g), oracle_manifold_check(g)
    assert (got.kind, got.detail) == (want.kind, want.detail)
    assert failure == want.detail
    checked = 0
    for piece, failure in memo.items():
        m = piece.dimension
        if m >= 3 and _genus_zero(piece):
            assert failure is None and homology(piece) == sphere_profile(m)
        if m < 3 or not (failure is None or failure == f"homology differs from the {m}-sphere"):
            continue  # a surface, or a piece whose own residues failed
        assert (failure is None) == (homology(piece) == sphere_profile(m))
        checked += 1
    assert checked or g.dimension == 3  # the pieces of a 3-gem are surfaces


@pytest.mark.parametrize("d", range(1, 7))
def test_homology_matches_per_map_snf_on_random_gems(d):
    # A profile fixes every map's rank (from the Betti numbers, top down)
    # and its factors above 1, so equal profiles mean equal factor lists.
    gem_rng = random.Random(2900 + d)
    for i in range(50):
        make = random_bipartite_gem if i % 2 else random_gem
        g = make(gem_rng, d, 2 * gem_rng.randint(1, 8))
        assert homology(g) == per_map_homology(g), g.matchings


@pytest.mark.parametrize(
    "g",
    [
        lens_gem(3, 0, 4),
        lens_gem(4, 0, 2),
        lens_gem(6, 2, 2),
        lens_gem(4, 2, 4),
        lens_gem(9, 3, 2),
        lens_gem(20, 1, 8),
        doubled(lens_gem(5, 2, 2)),
        doubled(sphere_times_circle_gem(4)),
        doubled(sphere_times_circle_gem(4, twisted=True)),
        doubled(sphere_times_circle_gem(5)),
        doubled(sphere_times_circle_gem(5, twisted=True)),
    ],
    ids=[
        "lens(3,0,4)",
        "lens(4,0,2)",
        "lens(6,2,2)",
        "lens(4,2,4)",
        "lens(9,3,2)",
        "lens(20,1,8)",
        "doubled lens(5,2,2)",
        "doubled bundle(4)",
        "doubled twisted bundle(4)",
        "doubled bundle(5)",
        "doubled twisted bundle(5)",
    ],
)
def test_homology_matches_per_map_snf_on_families(g):
    assert homology(g) == per_map_homology(g)


def bigon_rich_gem(rng: random.Random, d: int, n: int) -> ColoredGraph:
    """Random connected gem whose colors mostly repeat an earlier color's
    edges, with one edge pair switched, so bigons abound."""
    while True:
        mats = [random_matching(rng, n)]
        for _ in range(d):
            m = list(rng.choice(mats))
            if n > 2 and rng.random() < 0.8:
                a = rng.randrange(n)
                b = rng.choice([v for v in range(n) if v not in (a, m[a])])
                x, y = m[a], m[b]
                m[a], m[b], m[x], m[y] = b, a, y, x
            else:
                m = random_matching(rng, n)
            mats.append(m)
        g = ColoredGraph(mats)
        if g.is_connected():
            return g


@pytest.mark.parametrize("d", range(1, 7))
def test_homology_matches_per_map_snf_on_nonbipartite_and_bigon_rich_gems(d):
    # The closed forms of d_d and d_1 meet what they depend on: the factor
    # 2 of a non-bipartite gem, and the parallel edges of bigons, which
    # give the tree and the 1-skeleton parallel cells.
    gem_rng = random.Random(3500 + d)
    nonbipartite = 0
    for i in range(40):
        g = bigon_rich_gem(gem_rng, d, 2 * gem_rng.randint(1, 8))
        nonbipartite += not is_bipartite(g)
        assert homology(g) == per_map_homology(g), g.matchings
        if d > 1:
            while is_bipartite(g := random_gem(gem_rng, d, 2 * gem_rng.randint(2, 8))):
                pass
            assert homology(g) == per_map_homology(g), g.matchings
    assert nonbipartite or d == 1  # a 2-colored gem is one even cycle


@pytest.mark.parametrize("d", range(1, 7))
def test_homology_reduces_only_the_interior_maps(monkeypatch, d):
    # d_d and d_1 have closed forms, so one Smith normal form runs per map
    # d_(d-1) .. d_2, each on the rows of its transpose (width f_(h-1)).
    # The n - 1 edges of a spanning tree are left out of d_(d-1)'s rows.
    shapes = []
    real = gemkit.complexes._sparse_snf

    def counted(rows, width):
        shapes.append((len(rows), width))
        return real(rows, width)

    monkeypatch.setattr(gemkit.complexes, "_sparse_snf", counted)
    g = random_gem(random.Random(3600 + d), d, 12)
    homology(g)
    f = build_complex(g).f_vector
    assert len(shapes) == max(0, d - 2)
    assert [width for _, width in shapes] == [f[h - 1] for h in range(d - 1, 1, -1)]
    if shapes:
        assert shapes[0][0] == f[d - 1] - (f[d] - 1)


def test_outer_maps_closed_forms_against_sympy():
    # d_d up to row signs is the unsigned vertex-edge incidence matrix of
    # the gem: factors 1^(n-1), and 2 iff the gem is not bipartite.  d_1 is
    # the directed incidence matrix of the connected 1-skeleton: 1^(f_0-1).
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    def sympy_factors(rows):
        return [abs(int(x)) for x in invariant_factors(Matrix(rows), domain=ZZ) if x]

    gem_rng = random.Random(3700)
    seen = set()
    for i in range(30):
        d = gem_rng.randint(1, 4)
        make = (random_gem, random_bipartite_gem, bigon_rich_gem)[i % 3]
        g = make(gem_rng, d, 2 * gem_rng.randint(1, 6))
        n = g.vertex_count
        incidence = [[int(v in (u, w)) for u, w, _ in g.edges()] for v in range(n)]
        bipartite = is_bipartite(g)
        seen.add(bipartite)
        assert sympy_factors(incidence) == [1] * (n - 1) + ([] if bipartite else [2])
        k = build_complex(g)
        assert sympy_factors([list(r) for r in k.boundaries[1]]) == [1] * (k.f_vector[0] - 1)
    assert seen == {False, True}


@pytest.mark.parametrize("label", list(SPHERE_TEST_GEMS))
def test_homology_matches_per_map_snf_on_residue_pieces(label):
    memo = {}
    _manifold_check(SPHERE_TEST_GEMS[label], memo)
    for piece in memo:
        assert homology(piece) == per_map_homology(piece), piece.matchings


def test_sphere_test_failure_branches():
    twisted = doubled(sphere_times_circle_gem(4, twisted=True))
    memo = {}
    _manifold_check(twisted, memo)
    rejected = [p for p, failure in memo.items() if failure == "homology differs from the 4-sphere"]
    assert rejected and not any(is_bipartite(p) for p in rejected)
    for g, m, h1 in [
        (doubled(sphere_times_circle_gem(4)), 4, (1, ())),
        (doubled(lens_gem(5, 2, 2)), 3, (0, (5,))),
    ]:
        memo = {}
        _manifold_check(g, memo)
        rejected = [p for p, failure in memo.items() if failure == f"homology differs from the {m}-sphere"]
        assert rejected
        assert all(is_bipartite(p) and homology(p).groups[1] == h1 for p in rejected)


@pytest.mark.parametrize("d", range(3, 9))
@pytest.mark.parametrize("twisted", [False, True])
def test_bundle_residues_are_genus_zero_spheres(d, twisted):
    g = sphere_times_circle_gem(d, twisted)
    for c in g.colors:
        for piece, _ in residue_graphs(g, [x for x in g.colors if x != c]):
            assert _genus_zero(piece)
            assert homology(piece) == sphere_profile(d - 1)


def test_manifold_check_matches_oracle_on_random_gems():
    # Random gems are almost never manifolds, so this mostly compares the
    # first failure found; the certificate meets pieces of every genus.
    gem_rng = random.Random(2105)
    kinds = set()
    for _ in range(300):
        d = gem_rng.randint(3, 6)
        g = random_gem(gem_rng, d, 2 * gem_rng.randint(1, 6))
        got, want = manifold_check(g), oracle_manifold_check(g)
        assert (got.kind, got.detail) == (want.kind, want.detail)
        kinds.add(got.kind)
    assert FAILED in kinds and len(kinds) > 1


def test_manifold_check_twisted_bundle_dimension_6():
    assert manifold_check(sphere_times_circle_gem(6, twisted=True)).kind == HOMOLOGY_CERTIFIED


def test_manifold_check_dimension_bounds():
    circle = ColoredGraph([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        manifold_check(circle)


def test_homology_invariance_under_recoloring():
    g = lens_gem(2, 1, 2)
    assert homology(g) == homology(g.recolor((3, 2, 1, 0)))


def test_klein_bottle_homology_via_catalog():
    assert homology(catalog("klein-6.6.6")).groups == ((1, ()), (1, (2,)), (0, ()))
