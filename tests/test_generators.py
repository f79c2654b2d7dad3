import re
import threading
import time
from fractions import Fraction

import pytest

from gemkit.core import ColoredGraph, is_bipartite, is_contracted, isomorphic, residue_count
from gemkit.embedding import (
    CyclicPermutation,
    TypeSignature,
    euler_characteristic,
    face_cycle_type,
    regular_genus,
    semi_equivelar_type,
)
from gemkit.complexes import FAILED, ManifoldVerdict, homology, manifold_check, sphere_profile
from gemkit import generators
from gemkit.search import SearchSpec, first_gem
from gemkit.generators import (
    FamilyValidationError,
    catalog,
    catalog_manifest,
    lens_gem,
    lens_nonbipartite_attempt,
    rp2_sum_gem,
    sphere_times_circle_gem,
    standard_sphere,
    torus_sum_gem,
)

from helpers import all_perfect_matchings, oracle_component_count, oracle_is_bipartite

EPS3 = CyclicPermutation((0, 1, 2))
EPS4 = CyclicPermutation((0, 1, 2, 3))


def test_standard_sphere():
    g = standard_sphere(2)
    assert g.vertex_count == 2
    assert homology(g) == sphere_profile(2)
    g = standard_sphere(3)
    assert semi_equivelar_type(g, EPS4, "include") == TypeSignature.from_tuple(
        (2, 2, 2, 2)
    )
    assert regular_genus(g).rho_times_2 == 0
    with pytest.raises(ValueError):
        standard_sphere(0)


def test_lens_gem_parameters():
    with pytest.raises(ValueError):
        lens_gem(0, 0, 2)
    with pytest.raises(ValueError):
        lens_gem(2, 2, 2)
    with pytest.raises(ValueError):
        lens_gem(2, -1, 2)
    with pytest.raises(ValueError):
        lens_gem(2, 1, 3)
    with pytest.raises(ValueError):
        lens_gem(2, 1, 0)


def test_lens_gem_structure():
    g = lens_gem(2, 1, 2)
    assert g.vertex_count == 8
    assert is_bipartite(g)
    assert residue_count(g, (0, 2)) == 2
    assert semi_equivelar_type(g, EPS4) == TypeSignature.from_tuple((4, 4, 4, 4))
    assert euler_characteristic(g, EPS4) == 0
    assert homology(g).groups[1] == (0, (2,))


def test_lens_gem_all_consecutive_cycles_are_squares():
    g = lens_gem(3, 1, 4)
    for v in range(g.vertex_count):
        assert face_cycle_type(g, EPS4, v) == (4, 4, 4, 4)
    assert residue_count(g, (0, 2)) == 4
    assert not is_contracted(g)


def test_lens_gem_homologies():
    assert homology(lens_gem(3, 0, 2)) == sphere_profile(3)
    assert homology(lens_gem(5, 2, 2)).groups[1] == (0, (5,))
    assert homology(lens_gem(1, 0, 2)) == sphere_profile(3)


def test_lens_gem_caching():
    assert lens_gem(2, 1, 2) is lens_gem(2, 1, 2)


def test_lens_gem_mirror_shift_exploration():
    # Mirror shifts encode homeomorphic spaces; whether the graphs are
    # isomorphic is not asserted, only that the evidence stays consistent.
    a, b = lens_gem(5, 2, 2), lens_gem(5, 3, 2)
    assert homology(a) == homology(b)
    wit = isomorphic(a, b, "color-permuting")
    assert wit is None or wit.valid_between(a, b)


@pytest.mark.parametrize(
    "p,k,extras",
    [(1, 2, True), (2, 2, False), (3, 2, False), (1, 4, True), (2, 4, False), (3, 4, False)],
)
def test_nonbipartite_attempt_matches_predictions(p, k, extras):
    g, diag = lens_nonbipartite_attempt(p, k, 0)
    assert not is_bipartite(g)
    assert diag.matches_prediction
    assert diag.computed["02"] == k
    assert diag.computed["03"] == 1 + p * (k - 2) // 2
    assert diag.computed["23"] == 1 + p * (k - 2) // 2
    assert diag.computed["023"] == k // 2
    assert ("12" in diag.computed) == extras
    if extras:
        assert diag.computed["12"] == k // 2
        assert diag.computed["13"] == 1
        assert diag.computed["123"] == 1
    assert not diag.verdict.ok


def test_nonbipartite_attempt_other_even_positions():
    g, diag = lens_nonbipartite_attempt(3, 2, 2)
    assert not is_bipartite(g)
    assert not diag.verdict.ok


def test_nonbipartite_attempt_rejects_odd_position():
    with pytest.raises(ValueError):
        lens_nonbipartite_attempt(2, 2, 1)


# n = 700 is deeper than a recursive matching search can go.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 700])
def test_rp2_sum_family(n):
    g = rp2_sum_gem(n)
    size = 2 * n + 2
    assert g.vertex_count == size
    assert not is_bipartite(g)
    assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple((size,) * 3)
    assert euler_characteristic(g, EPS3) == 2 - n
    assert homology(g).groups[1] == (n - 1, (2,))
    assert regular_genus(g).rho_times_2 == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_torus_sum_family(n):
    g = torus_sum_gem(n)
    size = 4 * n + 2
    assert g.vertex_count == size
    assert is_bipartite(g)
    assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple((size,) * 3)
    assert euler_characteristic(g, EPS3) == 2 - 2 * n
    assert homology(g).groups[1] == (2 * n, ())
    assert regular_genus(g).rho_times_2 == 2 * n


def test_surface_family_parameter_checks():
    with pytest.raises(ValueError):
        rp2_sum_gem(0)
    with pytest.raises(ValueError):
        torus_sum_gem(0)


def test_rp2_sum_closed_form_is_the_first_non_bipartite_hit():
    # A hit is a third matching on the base cycle that makes the pairs
    # {0,2} and {1,2} Hamiltonian and the gem non-bipartite; the closed form
    # is the lexicographically first one.  Brute force over every matching,
    # with components and bipartiteness from the independent test oracles.
    for n in (1, 2, 3, 4, 5):
        size = 2 * n + 2
        base = generators._base_cycle(size)
        hits = []
        for m2 in all_perfect_matchings(size):
            g = ColoredGraph([*base, m2])
            if (
                oracle_component_count(g, (0, 2)) == 1
                and oracle_component_count(g, (1, 2)) == 1
                and not oracle_is_bipartite(g)
            ):
                hits.append(m2)
        assert list(rp2_sum_gem(n).matchings[2]) == min(hits)


def test_expect_surface_names_the_family_on_a_wrong_orientability():
    g = torus_sum_gem(1)
    generators._expect_surface(g, "torus", 6, True, 0, (6, 6, 6))
    with pytest.raises(FamilyValidationError, match=r"^torus: orientability mismatch"):
        generators._expect_surface(g, "torus", 6, False, 0, (6, 6, 6))


def test_cached_hands_every_caller_of_one_key_the_same_object(monkeypatch):
    monkeypatch.setattr(generators, "_cache", {})
    key = ("reentrant",)
    inner = []

    def build_outer():
        # A build for the same key lands in the cache before this one returns.
        inner.append(generators._cached(key, lambda: ColoredGraph([(1, 0)] * 3)))
        return ColoredGraph([(1, 0)] * 3)

    outer = generators._cached(key, build_outer)
    assert outer is inner[0] is generators._cache[key]


def test_cached_hands_concurrent_builders_of_one_key_the_same_object(monkeypatch):
    monkeypatch.setattr(generators, "_cache", {})
    barrier = threading.Barrier(8, timeout=10)
    results = []

    def build():
        time.sleep(0.01)  # every thread misses the cache before any build lands
        return ColoredGraph([(1, 0)] * 3)

    def worker():
        barrier.wait()
        results.append(generators._cached(("concurrent",), build))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(g is generators._cache[("concurrent",)] for g in results)


# Every builder validates through one check; each must name its family when
# bipartiteness reads the wrong way.
ORIENTABILITY_CASES = [
    ("standard_sphere", lambda: standard_sphere(3)),
    ("lens_gem(3,1,2)", lambda: lens_gem(3, 1, 2)),
    ("rp2_sum_gem(2)", lambda: rp2_sum_gem(2)),
    ("torus_sum_gem(2)", lambda: torus_sum_gem(2)),
    ("sphere_times_circle_gem(4, twisted=True)", lambda: sphere_times_circle_gem(4, True)),
    ("catalog[klein-6.6.6]", lambda: catalog("klein-6.6.6")),
    ("catalog[s2-4.4.p]", lambda: catalog("s2-4.4.p", p=8)),
]


@pytest.mark.parametrize(
    "family, build", ORIENTABILITY_CASES, ids=[family for family, _ in ORIENTABILITY_CASES]
)
def test_every_builder_checks_orientability(monkeypatch, family, build):
    monkeypatch.setattr(generators, "_cache", {})
    monkeypatch.setattr(generators, "is_bipartite", lambda g: not is_bipartite(g))
    with pytest.raises(
        FamilyValidationError, match="^" + re.escape(family) + ": orientability mismatch"
    ):
        build()


# The builders that declare H1 must also run the manifold check.
MANIFOLD_CHECK_CASES = [
    ("lens_gem(3,1,2)", lambda: lens_gem(3, 1, 2)),
    ("sphere_times_circle_gem(4, twisted=False)", lambda: sphere_times_circle_gem(4)),
    ("torus_sum_gem(2)", lambda: torus_sum_gem(2)),
    ("catalog[klein-6.6.6]", lambda: catalog("klein-6.6.6")),
]


def _failing_manifold_check(monkeypatch):
    monkeypatch.setattr(generators, "_cache", {})
    monkeypatch.setattr(
        generators, "manifold_check", lambda g: ManifoldVerdict(FAILED, "stub")
    )


@pytest.mark.parametrize(
    "family, build", MANIFOLD_CHECK_CASES, ids=[family for family, _ in MANIFOLD_CHECK_CASES]
)
def test_builders_declaring_h1_run_the_manifold_check(monkeypatch, family, build):
    _failing_manifold_check(monkeypatch)
    with pytest.raises(
        FamilyValidationError, match="^" + re.escape(family) + ": manifold check failed: stub$"
    ):
        build()


def test_builders_declaring_no_h1_skip_the_manifold_check(monkeypatch):
    _failing_manifold_check(monkeypatch)
    assert standard_sphere(3).vertex_count == 2
    assert lens_gem(6, 2, 2).vertex_count == 24


# Every gem a builder validates, with the Euler characteristic its family
# claims; the parametric catalog entries at their default p and one other.
_OTHER_P = {"rp2-4.4.2p": 6, "s2-4.4.p": 8}
CHI_CASES = [
    *((f"sphere-{d}", lambda d=d: standard_sphere(d), 2) for d in range(1, 7)),
    *(
        (f"lens-{p}-{q}-{k}", lambda p=p, q=q, k=k: lens_gem(p, q, k), 0)
        for p, q, k in [(1, 0, 2), (3, 0, 4), (3, 1, 2), (5, 2, 2), (6, 2, 2), (4, 2, 4)]
    ),
    *((f"rp2-sum-{n}", lambda n=n: rp2_sum_gem(n), 2 - n) for n in range(1, 6)),
    *((f"torus-sum-{n}", lambda n=n: torus_sum_gem(n), 2 - 2 * n) for n in range(1, 6)),
    *(
        (f"bundle-{d}-{t}", lambda d=d, t=t: sphere_times_circle_gem(d, t), 0)
        for d in range(3, 7)
        for t in (False, True)
    ),
    *(
        (f"{e['name']}-p{p}", lambda name=e["name"], p=p: catalog(name, p), e["chi"])
        for e in catalog_manifest()
        if e["enabled"]
        for p in ((None, _OTHER_P[e["name"]]) if e["parametric"] else (None,))
    ),
]


@pytest.mark.parametrize("build, chi", [c[1:] for c in CHI_CASES], ids=[c[0] for c in CHI_CASES])
def test_chi_follows_from_order_and_face_type(build, chi):
    # _expect_gem checks order and identity face type but not chi: the
    # counting identity makes chi n * sum(1/f) + (1 - d) n / 2.
    g = build()
    n, d = g.vertex_count, g.dimension
    eps = CyclicPermutation(tuple(range(d + 1)))
    faces = face_cycle_type(g, eps, 0)
    counted = n * sum(Fraction(1, f) for f in faces) + Fraction((1 - d) * n, 2)
    assert euler_characteristic(g, eps) == counted == chi


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("twisted", [False, True])
def test_sphere_times_circle(d, twisted):
    g = sphere_times_circle_gem(d, twisted)
    assert g.vertex_count == 2 * (d + 1)
    assert is_bipartite(g) == (not twisted)
    eps = CyclicPermutation(tuple(range(d + 1)))
    assert euler_characteristic(g, eps) == 0
    want = TypeSignature.from_tuple((2,) * (d - 2) + (6, 6, 6))
    assert semi_equivelar_type(g, eps, "include") == want
    hom = homology(g)
    assert hom.groups[0] == (1, ())
    assert hom.groups[1] == (1, ())
    # The top and next-to-top groups depend on the twist alone.
    if twisted:
        assert hom.groups[d] == (0, ())
        assert hom.groups[d - 1] == (0, (2,))
    else:
        assert hom.groups[d] == (1, ())
        assert hom.groups[d - 1] == (1, ())


def test_sphere_times_circle_face_census():
    g = sphere_times_circle_gem(4)
    eps = CyclicPermutation((0, 1, 2, 3, 4))
    for v in range(g.vertex_count):
        faces = sorted(face_cycle_type(g, eps, v))
        assert faces == [2, 2, 6, 6, 6]


def test_sphere_times_circle_rejects_low_dimension():
    with pytest.raises(ValueError):
        sphere_times_circle_gem(2)


# -- catalog ----------------------------------------------------------------


def test_catalog_names_and_manifest():
    manifest = catalog_manifest()
    by_name = {e["name"]: e for e in manifest}
    assert by_name["torus-6.6.6"]["enabled"] is True
    assert by_name["rp2-4.6.10"]["enabled"] is False
    assert by_name["torus-4.8.8"]["order"] == 16
    assert by_name["s2-4.6.10"]["enabled"] is False


def test_catalog_unknown_and_disabled():
    with pytest.raises(ValueError):
        catalog("torus-7.7.7")
    with pytest.raises(ValueError):
        catalog("rp2-4.6.10")
    with pytest.raises(ValueError):
        catalog("torus-6.6.6", p=4)


def test_catalog_projective_parametric():
    g = catalog("rp2-4.4.2p", p=4)
    assert g.vertex_count == 8
    assert euler_characteristic(g, EPS3) == 1
    assert not is_bipartite(g)
    assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple((4, 4, 8))


def test_catalog_sphere_parametric():
    g = catalog("s2-4.4.p", p=6)
    assert g.vertex_count == 12
    assert euler_characteristic(g, EPS3) == 2
    assert is_bipartite(g)
    assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple((4, 4, 6))


@pytest.mark.parametrize("name,default", [("rp2-4.4.2p", 4), ("s2-4.4.p", 6)])
def test_catalog_default_parameter_shares_the_cache_entry(name, default):
    assert catalog(name) is catalog(name, p=default)


def test_catalog_sphere_hexagon_square():
    g = catalog("s2-6.6.4")
    assert g.vertex_count == 24
    assert euler_characteristic(g, EPS3) == 2
    assert semi_equivelar_type(g, EPS3) == TypeSignature.from_tuple((4, 6, 6))
    assert homology(g) == sphere_profile(2)


@pytest.mark.parametrize(
    "name,order,chi,orientable_",
    [
        ("torus-6.6.6", 12, 0, True),
        ("torus-4.8.8", 16, 0, True),
        ("torus-4.6.12", 24, 0, True),
        ("klein-6.6.6", 12, 0, False),
        ("klein-4.8.8", 16, 0, False),
        ("klein-4.6.12", 24, 0, False),
    ],
)
def test_catalog_flat_surfaces(name, order, chi, orientable_):
    g = catalog(name)
    assert g.vertex_count == order
    assert euler_characteristic(g, EPS3) == chi
    assert is_bipartite(g) == orientable_
    assert manifold_check(g).ok


def _caption_faces(caption: str) -> tuple[int, ...]:
    """Face lengths of a caption like "(6^2,4)"."""
    faces = []
    for run in caption.strip("()").split(","):
        q, _, k = run.partition("^")
        faces += [int(q)] * int(k or 1)
    return tuple(faces)


# Every enabled fixed entry of the manifest, with its search spec's fields.
FIXED_ENTRIES = [
    (e["name"], e["order"], _caption_faces(e["faces"]), "only" if e["orientable"] else "none")
    for e in catalog_manifest()
    if e["enabled"] and not e["parametric"]
]


@pytest.mark.parametrize("name,order,faces,bipartite", FIXED_ENTRIES)
def test_catalog_surface_is_the_first_hit_of_one_direct_search(name, order, faces, bipartite):
    spec = SearchSpec(
        colors=3, order=order, vertex_types=faces, bipartite=bipartite, bigons="exclude"
    )
    assert catalog(name).matchings == first_gem(spec).matchings


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog("rp2-4.4.2p", p=3)
    with pytest.raises(ValueError):
        catalog("s2-4.4.p", p=2)
